"""Trajectory-graph augmentation operators and the contrastive objective."""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .graphs import category_pair

OPERATORS = ("dropout", "insertion", "substitution")


@dataclass
class ViewPair:
    source_id: str
    view_a: object  # TrajectoryGraph
    view_b: object
    tags: tuple  # (operator tag for a, operator tag for b)


# Rows of the similarity matrix ranked per numpy pass: bounds the (block, P)
# temporaries of `CorrelationIndex._rank` while amortizing per-call overhead.
RANK_BLOCK = 64


class CorrelationIndex:
    """Ranked same-mode cosine neighbors per POI under the pretrained
    spatial and temporal embeddings.

    Each POI keeps its `top` most similar other POIs, in descending cosine
    score with the smaller poi_id first on equal scores. The table is built
    as a blocked top-k: one full similarity product, then per block of
    RANK_BLOCK rows a partition finds the top-th score, every score above it
    is kept and ties at it fill the remaining slots lowest poi_id first.
    Each mode is stored as (poi_id -> row, ids, (P, keep) neighbor rows,
    (P, keep) scores); a temporal table that is the spatial one is ranked
    once and shared."""

    def __init__(self, spatial_table, temporal_table, top=50):
        self.spatial = self._rank(spatial_table, top)
        self.temporal = (self.spatial if temporal_table is spatial_table
                         else self._rank(temporal_table, top))

    @staticmethod
    def _rank(table, top):
        if table is None or len(table.ids) == 0:
            return {}, [], np.empty((0, 0), dtype=np.intp), np.empty((0, 0))
        ids = list(table.ids)
        n = len(ids)
        keep = max(0, min(top, n - 1))
        v = table.vectors.astype(np.float64)
        norms = np.linalg.norm(v, axis=1)
        norms = np.where(norms == 0, 1.0, norms)
        vn = v / norms[:, None]
        sims = vn @ vn.T
        np.fill_diagonal(sims, -np.inf)
        # columns in poi_id order, so "first in column order" means lowest id
        by_id = np.array(sorted(range(n), key=ids.__getitem__), dtype=np.intp)
        nbr = np.empty((n, keep), dtype=np.intp)
        score = np.empty((n, keep))
        for lo in range(0, n if keep else 0, RANK_BLOCK):
            block = sims[lo:lo + RANK_BLOCK][:, by_id]
            kth = np.partition(block, n - keep, axis=1)[:, n - keep, None]
            above = block > kth
            tie = block == kth
            room = keep - above.sum(axis=1, keepdims=True)
            picked = above | (tie & (np.cumsum(tie, axis=1) <= room))
            cols = np.nonzero(picked)[1].reshape(-1, keep)
            vals = np.take_along_axis(block, cols, axis=1)
            desc = np.argsort(-vals, axis=1, kind="stable")
            nbr[lo:lo + len(block)] = by_id[np.take_along_axis(cols, desc, axis=1)]
            score[lo:lo + len(block)] = np.take_along_axis(vals, desc, axis=1)
        return {pid: i for i, pid in enumerate(ids)}, ids, nbr, score

    def neighbors(self, poi_id, mode):
        """[(poi_id, score), ...] best first; [] for an unknown POI."""
        pos, ids, nbr, score = self.spatial if mode == "spatial" else self.temporal
        i = pos.get(poi_id)
        if i is None:
            return []
        return [(ids[j], s) for j, s in zip(nbr[i].tolist(), score[i].tolist())]

    def top_unvisited(self, poi_id, mode, visited):
        for cand, score in self.neighbors(poi_id, mode):
            if cand not in visited:
                return cand, score
        return None, None

    def top_unvisited_merged(self, poi_id, visited):
        """Best candidate across both modes, merged by max score."""
        best = {}
        for mode in ("spatial", "temporal"):
            for cand, score in self.neighbors(poi_id, mode):
                if cand in visited:
                    continue
                if cand not in best or score > best[cand]:
                    best[cand] = score
        if not best:
            return None
        return max(sorted(best), key=lambda c: best[c])


# -- operators -------------------------------------------------------------


def _remove_node(g, victim, categories):
    """Drop one node, rewiring every predecessor to every successor so the
    direction-ignored graph stays connected."""
    preds = {a for (a, b) in g.edges if b == victim and a != victim}
    succs = {b for (a, b) in g.edges if a == victim and b != victim}
    g.edges = {(a, b) for (a, b) in g.edges if victim not in (a, b)}
    g.edge_category = {e: c for e, c in g.edge_category.items() if victim not in e}
    for a in preds:
        for b in succs:
            if a == b:
                continue
            g.edges.add((a, b))
            g.edge_category[(a, b)] = category_pair(categories[a], categories[b])
    g.nodes.remove(victim)
    g.last_step.pop(victim, None)


def node_dropout(g, beta, rng, categories):
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
        _remove_node(out, victim, categories)
    return out


def _insert_node(g, new, categories):
    g.nodes.append(new)
    g.edges.add((new, new))
    g.edge_category[(new, new)] = category_pair(categories[new], categories[new])
    g.last_step[new] = None  # no check-in step: position padding index


def correlated_insertion(g, k, index, mode, rng, categories):
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
        visited = set(out.nodes)
        new, _score = index.top_unvisited(anchor, mode, visited)
        if new is None or new not in categories:
            continue
        if mode == "temporal":
            out_edges = sorted((a, b) for (a, b) in out.edges if a == anchor and b != anchor)
            if not out_edges:
                continue
            a, b = out_edges[rng.integers(len(out_edges))]
            out.edges.discard((a, b))
            out.edge_category.pop((a, b), None)
            _insert_node(out, new, categories)
            out.edges.add((a, new))
            out.edge_category[(a, new)] = category_pair(categories[a], categories[new])
            out.edges.add((new, b))
            out.edge_category[(new, b)] = category_pair(categories[new], categories[b])
        else:
            _insert_node(out, new, categories)
            for e in ((anchor, new), (new, anchor)):
                out.edges.add(e)
                out.edge_category[e] = category_pair(categories[e[0]], categories[e[1]])
    return out


def correlated_substitute(g, k, index, rng, categories):
    """Replace k randomly selected non-last nodes with their most correlated
    POI not already in the graph, rewiring incident edges and recomputing
    edge category labels."""
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
        if sub is None or sub not in categories:
            continue
        pos = out.nodes.index(old)
        out.nodes[pos] = sub
        new_edges = {}
        for (a, b) in out.edges:
            a2 = sub if a == old else a
            b2 = sub if b == old else b
            new_edges[(a2, b2)] = category_pair(categories[a2], categories[b2])
        out.edges = set(new_edges)
        out.edge_category = new_edges
        out.last_step[sub] = out.last_step.pop(old)
    return out


def auto_insert_count(g, k_config):
    if k_config > 0:
        return k_config
    return max(1, math.ceil(0.1 * len(g.nodes)))


def make_views(g, config, index, rng, categories):
    """Two independent uniform operator draws applied to fresh copies of g."""
    views = []
    tags = []
    for _ in range(2):
        op = OPERATORS[rng.integers(len(OPERATORS))]
        if op == "dropout":
            views.append(node_dropout(g, config.beta, rng, categories))
            tags.append("dropout")
        elif op == "insertion":
            mode = ("spatial", "temporal")[rng.integers(2)]
            k = auto_insert_count(g, config.k_insert)
            views.append(correlated_insertion(g, k, index, mode, rng, categories))
            tags.append(f"insertion:{mode}")
        else:
            k = auto_insert_count(g, config.k_insert)
            views.append(correlated_substitute(g, k, index, rng, categories))
            tags.append("substitution")
    source = f"{g.last_node}:{g.seq_len}"
    return ViewPair(source, views[0], views[1], tuple(tags))


# -- contrastive loss ------------------------------------------------------


def infonce(batch_a, batch_b, tau=1.0):
    """Mean per-row InfoNCE over in-batch negatives.

    batch_a / batch_b: lists of (1, d) tensors where row i of each are two
    views of the same trajectory; similarity is cosine.
    """
    if len(batch_a) != len(batch_b):
        raise ShapeError(f"batch size mismatch: {len(batch_a)} vs {len(batch_b)}")
    n = len(batch_a)
    if n < 2:
        raise ShapeError("infonce needs batch size >= 2 (no negatives otherwise)")
    a = ad.concat(batch_a, axis=0)
    b = ad.concat(batch_b, axis=0)

    def normalize(x):
        sq = ad.tsum(ad.mul(x, x), axis=1, keepdims=True)
        inv = ad.power(ad.clamp_min(ad.sqrt(sq), 1e-12), -1.0)
        return ad.mul(x, inv)

    sim = ad.matmul(normalize(a), normalize(b).T)  # (n, n) cosine
    return ad.log_softmax_nll(ad.mul(sim, 1.0 / tau), np.arange(n))
