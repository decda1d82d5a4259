"""Trajectory-graph augmentation operators and the contrastive objective."""

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError
from .encoder import log_softmax_nll

OPERATORS = ("dropout", "insertion", "substitution")


@dataclass
class ViewPair:
    view_a: object  # TrajectoryGraph
    view_b: object
    tags: tuple  # (operator tag for a, operator tag for b)


# Rows of the similarity matrix ranked per numpy pass: bounds the (block, P)
# temporaries of `CorrelationIndex._rank` while amortizing per-call overhead.
RANK_BLOCK = 64


class CorrelationIndex:
    """Ranked same-mode cosine neighbors per POI under the pretrained
    spatial and temporal embeddings, by table row (`Trainer` checks that
    table rows are catalog rows).

    Each POI keeps its `top` most similar other POIs, in descending cosine
    score with the lower row first on equal scores. The table is built as a
    blocked top-k: one full similarity product, then per block of RANK_BLOCK
    rows a partition finds the top-th score, every score above it is kept
    and ties at it fill the remaining slots lowest row first.
    Each mode is stored as ((P, keep) neighbor rows, (P, keep) scores); a
    temporal table that is the spatial one is ranked once and shared."""

    def __init__(self, spatial_table, temporal_table, top=50):
        self.spatial = self._rank(spatial_table, top)
        self.temporal = (self.spatial if temporal_table is spatial_table
                         else self._rank(temporal_table, top))

    @staticmethod
    def _rank(table, top):
        n = len(table.ids)
        keep = max(0, min(top, n - 1))
        v = table.vectors.astype(np.float64)
        norms = np.linalg.norm(v, axis=1)
        norms = np.where(norms == 0, 1.0, norms)
        vn = v / norms[:, None]
        sims = vn @ vn.T
        np.fill_diagonal(sims, -np.inf)
        nbr = np.empty((n, keep), dtype=np.intp)
        score = np.empty((n, keep))
        for lo in range(0, n if keep else 0, RANK_BLOCK):
            block = sims[lo:lo + RANK_BLOCK]
            kth = np.partition(block, n - keep, axis=1)[:, n - keep, None]
            above = block > kth
            tie = block == kth
            room = keep - above.sum(axis=1, keepdims=True)
            picked = above | (tie & (np.cumsum(tie, axis=1) <= room))
            cols = np.nonzero(picked)[1].reshape(-1, keep)
            vals = np.take_along_axis(block, cols, axis=1)
            desc = np.argsort(-vals, axis=1, kind="stable")
            nbr[lo:lo + len(block)] = np.take_along_axis(cols, desc, axis=1)
            score[lo:lo + len(block)] = np.take_along_axis(vals, desc, axis=1)
        return nbr, score

    def top_unvisited(self, row, mode, visited):
        """The best `mode` neighbor of `row` not in `visited`, or None."""
        nbr, _score = self.spatial if mode == "spatial" else self.temporal
        return next((c for c in nbr[row].tolist() if c not in visited), None)

    def top_unvisited_merged(self, row, visited):
        """The best neighbor of `row` not in `visited` across both modes, by
        its higher score, the lower row on equal scores; None if none."""
        cands = [(-s, c) for nbr, score in (self.spatial, self.temporal)
                 for c, s in zip(nbr[row].tolist(), score[row].tolist()) if c not in visited]
        return min(cands)[1] if cands else None


# -- operators -------------------------------------------------------------


def _remove_node(g, victim):
    """Drop one node, rewiring every predecessor to every successor so the
    direction-ignored graph stays connected."""
    preds = {a for (a, b) in g.edges if b == victim and a != victim}
    succs = {b for (a, b) in g.edges if a == victim and b != victim}
    g.edges = {(a, b) for (a, b) in g.edges if victim not in (a, b)}
    g.edges.update((a, b) for a in preds for b in succs if a != b)
    pos = g.nodes.index(victim)
    del g.nodes[pos], g.last_step[pos]


def node_dropout(g, beta, rng):
    """Drop each non-last node independently with probability beta."""
    if not (0 <= beta < 1):
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    out = g.copy()
    if beta == 0:
        return out
    victims = [p for p in out.nodes
               if p != out.last_node and rng.random() < beta]
    for victim in victims:
        if len(out.nodes) <= 1:
            break
        _remove_node(out, victim)
    return out


def _insert_node(g, new):
    g.nodes.append(new)
    g.last_step.append(0)  # no check-in step: position padding index
    g.edges.add((new, new))


def correlated_insertion(g, k, index, mode, rng):
    """Insert the top correlated unvisited neighbor of k randomly selected
    nodes. Temporal mode splices the new node onto an outgoing edge; spatial
    mode attaches it with a bidirected edge pair."""
    if k < 0:
        raise ValueError("k must be >= 0")
    out = g.copy()
    if k == 0:
        return out
    pool = list(out.nodes)
    selected = [pool[i] for i in rng.permutation(len(pool))[:min(k, len(pool))]]
    for anchor in selected:
        new = index.top_unvisited(anchor, mode, set(out.nodes))
        if new is None:
            continue
        if mode == "temporal":
            out_edges = sorted((a, b) for (a, b) in out.edges if a == anchor and b != anchor)
            if not out_edges:
                continue
            a, b = out_edges[rng.integers(len(out_edges))]
            out.edges.discard((a, b))
            _insert_node(out, new)
            out.edges.update(((a, new), (new, b)))
        else:
            _insert_node(out, new)
            out.edges.update(((anchor, new), (new, anchor)))
    return out


def correlated_substitute(g, k, index, rng):
    """Replace k randomly selected non-last nodes with their most correlated
    POI not already in the graph, rewiring incident edges."""
    if k < 0:
        raise ValueError("k must be >= 0")
    out = g.copy()
    if k == 0:
        return out
    pool = sorted(p for p in out.nodes if p != out.last_node)
    selected = [pool[i] for i in rng.permutation(len(pool))[:min(k, len(pool))]]
    for old in selected:
        if old not in out.nodes:
            continue
        sub = index.top_unvisited_merged(old, set(out.nodes))
        if sub is None:
            continue
        out.nodes[out.nodes.index(old)] = sub
        out.edges = {(sub if a == old else a, sub if b == old else b)
                     for (a, b) in out.edges}
    return out


def auto_insert_count(g, k_config):
    if k_config > 0:
        return k_config
    return max(1, math.ceil(0.1 * len(g.nodes)))


def make_views(g, config, index, rng):
    """Two independent uniform operator draws applied to fresh copies of g."""
    views = []
    tags = []
    for _ in range(2):
        op = OPERATORS[rng.integers(len(OPERATORS))]
        if op == "dropout":
            views.append(node_dropout(g, config.beta, rng))
            tags.append("dropout")
        elif op == "insertion":
            mode = ("spatial", "temporal")[rng.integers(2)]
            k = auto_insert_count(g, config.k_insert)
            views.append(correlated_insertion(g, k, index, mode, rng))
            tags.append(f"insertion:{mode}")
        else:
            k = auto_insert_count(g, config.k_insert)
            views.append(correlated_substitute(g, k, index, rng))
            tags.append("substitution")
    return ViewPair(views[0], views[1], tuple(tags))


# -- contrastive loss ------------------------------------------------------


def infonce(a, b, tau=1.0, weight=1.0):
    """Mean per-row InfoNCE over in-batch negatives, and `weight` times its
    gradients: (loss, d loss / d a, d loss / d b).

    a / b: (n, d) arrays whose row i are two views of the same trajectory;
    similarity is cosine, each row over its norm clamped at 1e-12. Every
    operation has the order and dtype of the reference tape's
    (`oracles.infonce`), so the bits are that tape's, except that a clamped
    norm passes no gradient where the tape's is NaN (an all-zero row).
    """
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"batch size mismatch: {a.shape[0]} vs {b.shape[0]}")
    n = a.shape[0]
    if n < 2:
        raise ShapeError("infonce needs batch size >= 2 (no negatives otherwise)")

    def unit_rows(x):
        """(rows over their clamped norms, the inverse norms, the clamped
        norms, where a norm was not clamped)"""
        norm = np.sqrt((x * x).sum(axis=1, keepdims=True, dtype=np.float64).astype(x.dtype))
        clamped = np.maximum(norm, 1e-12)
        inv = np.power(clamped, -1.0)
        return x * inv, inv, clamped, norm >= 1e-12

    def unit_rows_grad(g, x, inv, clamped, kept):
        """The gradient of x from that of its unit rows, `g`, term by term
        the tape's chain: the power rule of clamped ** -1, the clamp's mask,
        the square root, and x * x, each of whose operands adds a term."""
        d_clamped = (g * x).sum(axis=1, keepdims=True) * -1.0 * np.power(clamped, -2.0)
        d_square = d_clamped * kept / (2.0 * clamped)
        return g * inv + d_square * x + d_square * x

    (ua, *ka), (ub, *kb) = unit_rows(a), unit_rows(b)
    inv_tau = np.asarray(1.0 / tau, dtype=a.dtype)
    loss, d_logits = log_softmax_nll(ua @ ub.T * inv_tau, np.arange(n), weight)
    d_sim = d_logits * inv_tau
    d_ub = (ua.T @ d_sim).T.copy()  # C order, as on the tape: its row sums depend on it
    return loss, unit_rows_grad(d_sim @ ub, a, *ka), unit_rows_grad(d_ub, b, *kb)
