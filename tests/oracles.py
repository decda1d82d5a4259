"""Reference implementations the tests check the program against: BFS hop
counts and connectivity of plain graphs, the master graph and encoder plan
built one graph at a time, the per-edge category vocabulary, the per-pair
BFS and loop forms of the master-graph structure and of the attention bias,
the per-graph encoder and the per-op stacked encoder over plans (the
reference of the fused encoder pass), the InfoNCE and the whole training
objective on the reference tape, the sorted-row correlation ranking,
the catalog-loop target rank,
the augmentation operators, neighbour lists and target ranks keyed by
poi_id, the clamped softmax loss chain, the per-step node2vec walks and per-update
skip-gram, the global temporal graph and both node2vec adjacencies keyed by
poi_id, the scalar spatial-graph scan, the check-in line parsers with one
`strptime` per line and exactly the format's fields, the textbook Adam
step, plus small compositions of the reference ops of `ops.py`."""

import math
from collections import deque
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from poirec.autodiff import NumericError
from poirec.data import UNKNOWN_CATEGORY, CheckIn, DataError
from poirec.encoder import MASTER_HOP_ROW, EncoderPlan
from poirec.graphs import EARTH_RADIUS_KM, haversine, haversine_matrix
from poirec.pretrain import EmbeddingTable
import ops

UNKNOWN_PAIR_INDEX = 0
MASTER = "__master__"


# -- autodiff compositions -------------------------------------------------


def adam_step(opt):
    """`Adam.step` in its textbook form, each operation into a new array."""
    opt.step_count += 1
    t = opt.step_count
    for name, p in opt.params.items():
        g = p.grad
        if g is None:
            continue
        m = opt.m[name]
        v = opt.v[name]
        m *= opt.beta1
        m += (1 - opt.beta1) * g
        v *= opt.beta2
        v += (1 - opt.beta2) * g * g
        m_hat = m / (1 - opt.beta1**t)
        v_hat = v / (1 - opt.beta2**t)
        p.data -= (opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)).astype(p.data.dtype)


def l2_norm(a):
    """Euclidean norm of all entries, as a scalar tensor."""
    return ops.sqrt(ops.tsum(ops.mul(a, a)))


def cosine_similarity(a, b, eps=1e-12):
    """Cosine similarity between two same-shape tensors (flattened)."""
    num = ops.tsum(ops.mul(a, b))
    den = ops.mul(ops.clamp_min(l2_norm(a), eps), ops.clamp_min(l2_norm(b), eps))
    return num / den


def infonce(a, b, tau=1.0):
    """The InfoNCE of `augment.infonce` as the tape of reference ops it was
    built from: normalize each row (its norm clamped at 1e-12), cosine
    similarities over tau, then the log-softmax NLL of the diagonal."""

    def normalize(x):
        sq = ops.tsum(ops.mul(x, x), axis=1, keepdims=True)
        inv = ops.power(ops.clamp_min(ops.sqrt(sq), 1e-12), -1.0)
        return ops.mul(x, inv)

    sim = ops.matmul(normalize(a), normalize(b).T)
    return ops.log_softmax_nll(ops.mul(sim, 1.0 / tau), np.arange(a.shape[0]))


def total_loss(rec, ssl, model, lam, gamma):
    """The objective of `training.BatchLoss` on the tape: rec + lam * ssl
    (without views, `ssl` is None) + gamma * the squares of every
    regularized parameter, as one penalty node."""
    loss = rec
    if ssl is not None and lam != 0:
        loss = loss + ops.mul(ssl, lam)
    reg = model.regularized()
    if gamma != 0 and reg:
        loss = loss + ops.l2_penalty(reg.values(), gamma)
    return loss


def softmax_nll(logits, targets, floor=1e-12):
    """The softmax -> pick -> clamp -> log chain the catalog and InfoNCE
    losses were once built from: mean of -log max(softmax(row)[target],
    floor), in float64 numpy."""
    x = np.asarray(logits, dtype=np.float64)
    e = np.exp(x - x.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    picked = probs[np.arange(len(targets)), np.asarray(targets)]
    return float(-np.log(np.maximum(picked, floor)).mean())


# -- plain graphs by BFS ---------------------------------------------------


def adjacency_from_pairs(nodes, pairs):
    """{node: set of neighbours} of `nodes` joined by `pairs`, direction and
    self-loops ignored."""
    adj = {n: set() for n in nodes}
    for i, j in pairs:
        if i != j:
            adj[i].add(j)
            adj[j].add(i)
    return adj


def all_pairs_spd(nodes, adjacency, cap):
    """Hop-count table by per-node BFS over an undirected adjacency.
    Values (and unreachable pairs) are clamped to cap."""
    if not nodes:
        raise ValueError("empty graph")
    spd = {}
    for src in nodes:
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            if dist[u] >= cap:
                continue
            for v in adjacency[u]:  # hop counts do not depend on the order
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        for dst in nodes:
            spd[(src, dst)] = min(dist.get(dst, cap), cap)
    return spd


# -- master graph and encoder plan, one graph at a time --------------------


@dataclass
class MasterGraph:
    """A trajectory graph plus the readout master node, last in `nodes`.

    The master links to every base node, so hop counts (edge direction
    ignored) have a closed form: 0 on the diagonal, 1 for adjacent pairs and
    for any pair with the master, 2 otherwise. Matrices index `nodes`."""

    base: object  # TrajectoryGraph
    nodes: list  # base nodes + MASTER (last)
    adj: np.ndarray  # (n+1, n+1) bool, direction ignored, no self-loops
    hops: np.ndarray  # (n+1, n+1) int hop counts
    # (n+1, n+1) node after i on the canonical path i -> j: for a 2-hop pair
    # its midpoint (the lowest-index common base neighbour, else the master),
    # j itself for the other pairs
    mid: np.ndarray
    # (n+1, n+1) km, NaN for the master and for missing coordinates; None
    # when add_master_node got no coordinates
    geo: object
    coords: object  # the (rows, 2) coordinates it was built with, or None


def add_master_node(g, coords=None):
    """Attach the readout master node: undirected edges to every base node,
    the closed-form hop and midpoint matrices, and base-pair Haversine
    distances. `coords` is a (rows, 2) array of (lat, lon) by catalog row,
    NaN where unknown; without it `geo` is None."""
    if not g.nodes:
        raise ValueError("empty base graph")
    n = len(g.nodes)
    size = n + 1
    order = {p: k for k, p in enumerate(g.nodes)}
    adj = np.zeros((size, size), dtype=bool)
    adj.flat[[order[a] * size + order[b] for a, b in g.edges if a != b]
             + list(range(n * size, n * size + n))] = True
    adj |= adj.T
    hops = np.where(adj, 1, 2)
    hops.flat[::size + 1] = 0
    common = adj[:, :, None] & adj  # [i, k, j]
    mid = np.where(hops == 2, common.argmax(axis=1), np.arange(size))
    geo = None
    if coords is not None:
        geo = haversine_matrix(np.vstack([coords[g.nodes], [math.nan, math.nan]]))
    return MasterGraph(g, list(g.nodes) + [MASTER], adj, hops, mid, geo, coords)


def category_index(model, mgraph, poi_rows):
    """(n+1, n+1) `cat_pairs` row of each base pair of `mgraph` joined by an
    edge in either direction or a self-loop, from the catalog categories of
    its POI rows; 0, the UNKNOWN row, elsewhere and on every master edge."""
    n = len(poi_rows)
    codes = model.category_code[poi_rows]
    linked = mgraph.adj[:n, :n] | np.eye(n, dtype=bool)
    out = np.zeros(mgraph.adj.shape, dtype=np.int64)
    out[:n, :n] = np.where(linked, model.pair_row[codes[:, None], codes],
                           UNKNOWN_PAIR_INDEX)
    return out


def plan(model, mgraph):
    """The `EncoderPlan` of one master graph, built on its own matrices."""
    cfg = model.config
    g = mgraph.base
    poi_rows = np.array(g.nodes, dtype=np.int64)
    pos = [0 if step == 0 else g.seq_len - step + 1 for step in g.last_step]
    if max(pos) > cfg.t_max:
        raise NumericError(f"position index {max(pos)} exceeds t_max={cfg.t_max}")
    size = len(mgraph.nodes)
    n = size - 1
    n_spd = model.params["b_spd"].data.shape[0]
    terms = 5 if cfg.use_category_bias else 3
    idx = np.empty((terms, size, size), dtype=np.int32)
    w = np.empty((terms, size, size), dtype=model.dtype)
    idx[0] = mgraph.hops
    idx[0, n, :] = idx[0, :, n] = MASTER_HOP_ROW
    w[0] = 1.0
    dist = np.full((size, size), np.nan) if mgraph.geo is None else mgraph.geo
    idx[1], idx[2], w[1], w[2] = model.bins.locate(dist)
    idx[1:3] += n_spd
    if cfg.use_category_bias:
        cat = (category_index(model, mgraph, poi_rows)
               + (n_spd + model.params["b_dist"].data.shape[0]))
        nodes = np.arange(size)
        idx[3] = cat[nodes[:, None], mgraph.mid]
        idx[4] = np.where(mgraph.hops == 2, cat[mgraph.mid, nodes], idx[3])
        w[3:] = 0.5
    return EncoderPlan(poi_rows, np.array(pos, dtype=np.int64), idx, w,
                       g.nodes.index(g.last_node))


def category_pair(cat_a, cat_b):
    """Unordered category pair label for an edge."""
    return (cat_a, cat_b) if cat_a <= cat_b else (cat_b, cat_a)


def category_vocab(graphs, categories):
    """Category-pair vocabulary read off the graphs' edges (self-loops
    included); `categories[r]` is the category of catalog row r."""
    pairs = {category_pair(categories[a], categories[b])
             for g in graphs for a, b in g.edges}
    return {pair: i + 1 for i, pair in enumerate(sorted(pairs))}


# -- master graph by BFS ---------------------------------------------------


def master_adjacency(g):
    """Direction-ignored adjacency of `g` plus the master node: node list
    (master last) and {node: set of neighbours}."""
    nodes = list(g.nodes) + [MASTER]
    pairs = set(g.edges) | {(p, MASTER) for p in g.nodes}
    return nodes, adjacency_from_pairs(nodes, pairs)


def canonical_paths(nodes, adjacency):
    """One deterministic shortest path per ordered pair: BFS from each source
    expanding neighbours in ascending node index (list order)."""
    order = {n: i for i, n in enumerate(nodes)}
    paths = {}
    for src in nodes:
        parent = {src: None}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in sorted(adjacency[u], key=order.__getitem__):
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
        for dst in parent:
            path = []
            cur = dst
            while cur is not None:
                path.append(cur)
                cur = parent[cur]
            paths[(src, dst)] = path[::-1]
    return paths


def master_paths(mgraph):
    """Canonical paths over the master graph of `mgraph`'s base graph."""
    return canonical_paths(*master_adjacency(mgraph.base))


# -- attention bias, one pair at a time ------------------------------------


def locate_scalar(bins, dist):
    """(lower_idx, upper_idx, lower_weight, upper_weight) for one known
    distance; outside [min_dist, max_dist] clamps to the nearest boundary."""
    if bins.max_dist <= bins.min_dist or dist <= bins.min_dist:
        return 0, 0, 1.0, 0.0
    if dist >= bins.max_dist:
        return bins.m, bins.m, 1.0, 0.0
    width = (bins.max_dist - bins.min_dist) / bins.m
    k = min(int((dist - bins.min_dist) / width), bins.m - 1)
    lower = bins.min_dist + k * width
    upper = lower + width
    return k, k + 1, (upper - dist) / width, (dist - lower) / width


def distance_bias(dist, bins, boundary_values):
    """Interpolated bias scalar for one distance."""
    lo, hi, w_lo, w_hi = locate_scalar(bins, dist)
    return w_lo * boundary_values[lo] + w_hi * boundary_values[hi]


def pair_index(vocab, categories, base, u, w):
    """Category-pair table index for the path edge between u and w: the
    sorted pair of their categories (`categories[r]`: catalog row r's)
    when an edge joins them in either direction or u == w."""
    if MASTER in (u, w) or (u != w and (u, w) not in base.edges
                            and (w, u) not in base.edges):
        return UNKNOWN_PAIR_INDEX
    label = tuple(sorted((categories[u], categories[w])))
    return vocab.get(label, UNKNOWN_PAIR_INDEX)


def path_pair_indices(mgraph, vocab, categories, i, j, paths=None):
    """Category-pair indices along the canonical shortest path i -> j.
    The i == j case uses the node's self-loop edge."""
    if i == j:
        return [pair_index(vocab, categories, mgraph.base, i, i)]
    path = (paths or master_paths(mgraph))[(i, j)]
    return [pair_index(vocab, categories, mgraph.base, u, w)
            for u, w in zip(path, path[1:])]


def category_bias(mgraph, vocab, categories, i, j, pair_table, w_r, paths=None):
    """Scalar c_ij: mean over shortest-path edges of <w_r, r_edge>."""
    idxs = path_pair_indices(mgraph, vocab, categories, i, j, paths)
    dots = [float(pair_table[k] @ w_r) for k in idxs]
    return sum(dots) / len(dots)


def bias_matrix(model, mgraph, coords, categories):
    """The attention bias of `model` built pair by pair from BFS hop counts,
    scalar Haversine distances and canonical paths. `coords` is a (rows, 2)
    array of (lat, lon) by catalog row, NaN where unknown, or None; a pair
    missing either takes the master/unknown distance slot. `categories[r]`
    is the category of catalog row r. The last b_spd row is the master
    slot."""
    cfg = model.config
    nodes, adjacency = master_adjacency(mgraph.base)
    spd = {}
    for src in nodes:  # per-source BFS, like `all_pairs_spd` without a cap
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        spd.update(((src, dst), hops) for dst, hops in dist.items())
    paths = canonical_paths(nodes, adjacency)
    b_spd = model.params["b_spd"].data[:, 0]
    b_dist = model.params["b_dist"].data[:, 0]
    cat_table = model.params["cat_pairs"].data
    w_r = model.params["w_r"].data[:, 0]
    known = set() if coords is None else set(np.flatnonzero(~np.isnan(coords).any(axis=1)))
    out = np.zeros((len(nodes), len(nodes)))
    for a, i in enumerate(nodes):
        for b, j in enumerate(nodes):
            if MASTER in (i, j):
                out[a, b] = b_spd[-1] + b_dist[cfg.m_bins + 1]
            else:
                out[a, b] = b_spd[spd[(i, j)]]
                if i in known and j in known:
                    km = haversine(*coords[i], *coords[j])
                    out[a, b] += distance_bias(km, model.bins, b_dist)
                else:
                    out[a, b] += b_dist[cfg.m_bins + 1]
            if cfg.use_category_bias:
                out[a, b] += category_bias(mgraph, model.cat_vocab, categories, i, j,
                                           cat_table, w_r, paths)
    return out


# -- the encoder, one graph at a time --------------------------------------


def node_features(model, mgraph):
    """(n+1, d) features of `mgraph`'s nodes, the master row last: the sum of
    each node's POI, degree, popularity and reverse-position rows; the
    master takes the mean plus the padding position row."""
    g = mgraph.base
    idx = np.array(g.nodes, dtype=np.int64)
    pos_idx = []
    for step in g.last_step:
        if step == 0:
            pos_idx.append(0)  # synthetic nodes use the padding row
        else:
            rev = g.seq_len - step + 1
            if rev > model.config.t_max:
                raise NumericError(
                    f"position index {rev} exceeds t_max={model.config.t_max}")
            pos_idx.append(rev)
    h = ops.gather_rows(model.params["poi_table"], idx)
    h = h + ops.gather_rows(model.params["deg_in"], model.deg_in_bucket[idx])
    h = h + ops.gather_rows(model.params["deg_out"], model.deg_out_bucket[idx])
    h = h + ops.gather_rows(model.params["pop"], model.pop_bucket[idx])
    h = h + ops.gather_rows(model.params["pos"], np.array(pos_idx, dtype=np.int64))
    master = ops.tmean(h, axis=0, keepdims=True) + ops.gather_rows(model.params["pos"], [0])
    return ops.concat([h, master], axis=0)


def gather_bias(model, mgraph):
    """The attention bias of one graph as a Tensor: index gathers over the
    stacked b_spd, b_dist and cat_pairs @ w_r tables summed by one
    `gather_sum`."""
    cfg = model.config
    size = len(mgraph.nodes)
    n = size - 1
    tables = [model.params["b_spd"], model.params["b_dist"]]
    n_spd, n_dist = (len(t.data) for t in tables)
    terms = 5 if cfg.use_category_bias else 3
    idx = np.empty((terms, size, size), dtype=np.int64)
    w = np.empty((terms, size, size))
    idx[0] = mgraph.hops
    idx[0, n, :] = idx[0, :, n] = n_spd - 1
    w[0] = 1.0
    dist = np.full((size, size), np.nan) if mgraph.geo is None else mgraph.geo
    idx[1], idx[2], w[1], w[2] = model.bins.locate(dist)
    idx[1:3] += n_spd
    if cfg.use_category_bias:
        cat = category_index(model, mgraph, mgraph.base.nodes) + (n_spd + n_dist)
        tables.append(ops.matmul(model.params["cat_pairs"], model.params["w_r"]))
        nodes = np.arange(size)
        idx[3] = cat[nodes[:, None], mgraph.mid]
        idx[4] = np.where(mgraph.hops == 2, cat[mgraph.mid, nodes], idx[3])
        w[3:] = 0.5
    return ops.gather_sum(ops.concat(tables, axis=0), idx, w)


def attention_layer(model, x, bias, layer):
    """One biased self-attention layer over (n+1, d) features."""
    cfg = model.config
    scale = 1.0 / math.sqrt(cfg.d)
    heads = []
    for h in range(cfg.heads):
        q = ops.matmul(x, model.params[f"l{layer}.h{h}.wq"])
        k = ops.matmul(x, model.params[f"l{layer}.h{h}.wk"])
        v = ops.matmul(x, model.params[f"l{layer}.h{h}.wv"])
        scores = ops.mul(ops.matmul(q, k.T), scale) + bias
        if not np.all(np.isfinite(scores.data)):
            raise NumericError("non-finite attention scores")
        attn = ops.row_softmax(scores)
        heads.append(ops.matmul(attn, v))
    merged = heads[0] if len(heads) == 1 else ops.concat(heads, axis=1)
    return ops.matmul(merged, model.params[f"l{layer}.wo"])


def encode(model, mgraph):
    """The encoder pass of one master graph, s_u (1, d), built op by op on
    that graph alone."""
    x = node_features(model, mgraph)
    bias = gather_bias(model, mgraph)
    for layer in range(model.config.layers):
        x = attention_layer(model, x, bias, layer)
    n = len(mgraph.nodes)
    v_s = ops.gather_rows(x, [n - 1])
    last_idx = mgraph.base.nodes.index(mgraph.base.last_node)
    v_last = ops.gather_rows(x, [last_idx])
    return ops.matmul(ops.concat([v_s, v_last], axis=1), model.params["w_s"])


# -- the encoder over plans, op by op ---------------------------------------
# The per-op form of `GsanModel.encode_plans`, one tape node per op: the
# fused pass's forward must equal it byte for byte, and its backward this
# tape's gradients.


def bias_table(model):
    """`GsanModel.bias_table` on the tape: b_spd, b_dist and (with the
    category bias) cat_pairs @ w_r, concatenated."""
    prm = model.params
    tables = [prm["b_spd"], prm["b_dist"]]
    if model.config.use_category_bias:
        tables.append(ops.matmul(prm["cat_pairs"], prm["w_r"]))
    return ops.concat(tables, axis=0)


def stacked_encode(model, plans):
    """s_u (B, d) of a list of plans in input order, one stacked forward
    per node count, as `GsanModel.encode_plans` computes it."""
    table = bias_table(model)
    groups = {}
    for i, p in enumerate(plans):
        groups.setdefault(len(p.poi_rows), []).append(i)
    outs = [stacked_forward(model, [plans[i] for i in members], table)
            for members in groups.values()]
    s_u = outs[0] if len(outs) == 1 else ops.concat(outs, axis=0)
    order = np.concatenate(list(groups.values()))
    if (order != np.arange(len(plans))).any():
        s_u = ops.gather_rows(s_u, np.argsort(order))
    return s_u


def stacked_forward(model, plans, table):
    """The encoder over G plans of n base nodes each, as (G, n+1, d)
    stacks: node features, `layers` biased self-attention layers, and the
    readout [master row, last-visited row] @ w_s. Returns (G, d)."""
    x = stacked_features(model, plans)
    bias = ops.gather_sum(table, np.stack([p.bias_idx for p in plans], axis=1),
                          np.stack([p.bias_w for p in plans], axis=1))
    for layer in range(model.config.layers):
        x = stacked_attention(model, x, bias, layer)
    g, (size, d) = len(plans), x.shape[-2:]
    pick = [[i * size + size - 1, i * size + p.last] for i, p in enumerate(plans)]
    readout = ops.gather_rows(ops.reshape(x, (g * size, d)), pick)
    return ops.matmul(ops.reshape(readout, (g, 2 * d)), model.params["w_s"])


def stacked_features(model, plans):
    """(G, n+1, d): per base node the sum of its POI, degree, popularity
    and reverse-position rows; the master row is their mean plus the
    padding position row."""
    prm = model.params
    rows = np.stack([p.poi_rows for p in plans])
    x = ops.gather_rows(prm["poi_table"], rows)
    x = x + ops.gather_rows(prm["deg_in"], model.deg_in_bucket[rows])
    x = x + ops.gather_rows(prm["deg_out"], model.deg_out_bucket[rows])
    x = x + ops.gather_rows(prm["pop"], model.pop_bucket[rows])
    x = x + ops.gather_rows(prm["pos"], np.stack([p.pos_rows for p in plans]))
    master = ops.tmean(x, axis=-2, keepdims=True) + ops.gather_rows(prm["pos"], [0])
    return ops.concat([x, master], axis=-2)


def stacked_attention(model, x, bias, layer):
    """One biased self-attention layer over (G, n+1, d) features and a
    (G, n+1, n+1) bias; heads are concatenated, then projected by wo."""
    cfg = model.config
    scale = 1.0 / math.sqrt(cfg.d)
    heads = []
    for h in range(cfg.heads):
        q = ops.matmul(x, model.params[f"l{layer}.h{h}.wq"])
        k = ops.matmul(x, model.params[f"l{layer}.h{h}.wk"])
        v = ops.matmul(x, model.params[f"l{layer}.h{h}.wv"])
        scores = ops.mul(ops.matmul(q, k.T), scale) + bias
        if not np.all(np.isfinite(scores.data)):
            raise NumericError("non-finite attention scores")
        heads.append(ops.matmul(ops.row_softmax(scores), v))
    merged = heads[0] if len(heads) == 1 else ops.concat(heads, axis=-1)
    return ops.matmul(merged, model.params[f"l{layer}.wo"])


# -- correlation index and ranking, one row / one POI at a time ------------


def correlation_rank(table, top):
    """{poi_id: [(poi_id, score), ...]}: per POI its `top` most cosine-similar
    other POIs, descending score, smaller poi_id first on ties, by a full
    sort of each row."""
    if table is None or len(table.ids) == 0:
        return {}
    v = table.vectors.astype(np.float64)
    norms = np.linalg.norm(v, axis=1)
    norms = np.where(norms == 0, 1.0, norms)
    vn = v / norms[:, None]
    sims = vn @ vn.T
    ranked = {}
    ids = table.ids
    for i, pid in enumerate(ids):
        row = sims[i].copy()
        row[i] = -np.inf
        keep = min(top, len(ids) - 1)
        if keep <= 0:
            ranked[pid] = []
            continue
        cand = sorted(range(len(ids)), key=lambda j: (-row[j], ids[j]))[:keep]
        ranked[pid] = [(ids[j], float(row[j])) for j in cand]
    return ranked


def rank_target(scores, poi_ids, target):
    """1-based rank of `target`: one plus the POIs scoring higher, plus the
    equal-score POIs with a smaller poi_id, counted by a loop over the
    catalog."""
    pos = {p: i for i, p in enumerate(poi_ids)}
    if target not in pos:
        raise ValueError(f"target {target!r} not in catalog")
    s_t = scores[pos[target]]
    rank = 1
    for p, s in zip(poi_ids, scores):
        if p == target:
            continue
        if s > s_t or (s == s_t and p < target):
            rank += 1
    return rank


def rank_targets(scores, poi_ids, targets):
    """1-based rank of each row's target over the whole POI set: row i of the
    (B, P) score matrix ranks targets[i], column j scores poi_ids[j]; an
    equal-score POI with a smaller poi_id precedes the target, whatever its
    column."""
    scores = np.asarray(scores)
    column = {p: j for j, p in enumerate(poi_ids)}
    missing = [t for t in targets if t not in column]
    if missing:
        raise ValueError(f"target {missing[0]!r} not in catalog")
    cols = np.array([column[t] for t in targets], dtype=np.int64)
    id_order = np.empty(len(poi_ids), dtype=np.int64)  # position in sorted id order
    id_order[sorted(range(len(poi_ids)), key=poi_ids.__getitem__)] = np.arange(len(poi_ids))
    s_t = scores[np.arange(len(cols)), cols][:, None]
    ahead = (scores > s_t) | ((scores == s_t) & (id_order < id_order[cols][:, None]))
    return (1 + np.count_nonzero(ahead, axis=1)).tolist()


# -- augmentation keyed by poi_id ------------------------------------------


@dataclass
class IdGraph:
    """A trajectory graph keyed by poi_id, the form the augmentation
    operators below take."""

    nodes: list  # unique poi_ids, first-visit order
    edges: set  # directed (i, j) poi_id pairs, includes one self-loop per node
    last_step: dict  # poi_id -> 1-based index of last occurrence; None = synthetic
    last_node: str
    seq_len: int

    def copy(self):
        return IdGraph(list(self.nodes), set(self.edges), dict(self.last_step),
                       self.last_node, self.seq_len)


def id_graph(g, ids):
    """The `IdGraph` of a `TrajectoryGraph` whose row r is the POI ids[r]."""
    return IdGraph([ids[r] for r in g.nodes], {(ids[a], ids[b]) for a, b in g.edges},
                   {ids[r]: step or None for r, step in zip(g.nodes, g.last_step)},
                   ids[g.last_node], g.seq_len)


class IdIndex:
    """A `CorrelationIndex` whose row r is the POI ids[r], read by poi_id."""

    def __init__(self, index, ids):
        self.modes = {"spatial": index.spatial, "temporal": index.temporal}
        self.ids = ids
        self.pos = {pid: i for i, pid in enumerate(ids)}

    def neighbors(self, poi_id, mode):
        """[(poi_id, score), ...] best first; [] for an unknown POI."""
        nbr, score = self.modes[mode]
        i = self.pos.get(poi_id)
        if i is None:
            return []
        return [(self.ids[j], s) for j, s in zip(nbr[i].tolist(), score[i].tolist())]

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


def _remove_node(g, victim):
    preds = {a for (a, b) in g.edges if b == victim and a != victim}
    succs = {b for (a, b) in g.edges if a == victim and b != victim}
    g.edges = {(a, b) for (a, b) in g.edges if victim not in (a, b)}
    g.edges.update((a, b) for a in preds for b in succs if a != b)
    g.nodes.remove(victim)
    g.last_step.pop(victim, None)


def node_dropout(g, beta, rng):
    """Drop each non-last node of an `IdGraph` with probability beta,
    rewiring every predecessor to every successor."""
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
    g.edges.add((new, new))
    g.last_step[new] = None


def correlated_insertion(g, k, index, mode, rng, categories):
    """Insert the top correlated unvisited neighbor (by an `IdIndex`) of k
    randomly selected nodes, skipping a candidate missing from
    `categories`."""
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
            _insert_node(out, new)
            out.edges.update(((a, new), (new, b)))
        else:
            _insert_node(out, new)
            out.edges.update(((anchor, new), (new, anchor)))
    return out


def correlated_substitute(g, k, index, rng, categories):
    """Replace k randomly selected non-last nodes with their most correlated
    POI not in the graph, skipping a candidate missing from `categories`."""
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
        out.edges = {(sub if a == old else a, sub if b == old else b)
                     for (a, b) in out.edges}
        out.last_step[sub] = out.last_step.pop(old)
    return out


def make_views(g, config, index, rng, categories):
    """(view a, view b, tags): two independent uniform operator draws."""
    views, tags = [], []
    for _ in range(2):
        op = ("dropout", "insertion", "substitution")[rng.integers(3)]
        k = config.k_insert or max(1, math.ceil(0.1 * len(g.nodes)))
        if op == "dropout":
            views.append(node_dropout(g, config.beta, rng))
            tags.append("dropout")
        elif op == "insertion":
            mode = ("spatial", "temporal")[rng.integers(2)]
            views.append(correlated_insertion(g, k, index, mode, rng, categories))
            tags.append(f"insertion:{mode}")
        else:
            views.append(correlated_substitute(g, k, index, rng, categories))
            tags.append("substitution")
    return views[0], views[1], tuple(tags)


# -- global graphs keyed by poi_id -----------------------------------------


@dataclass
class TemporalGraph:
    nodes: list  # all poi_ids, sorted
    cooccurrence: dict  # unordered (i, j) pair -> consecutive-visit count
    neighbors: dict  # poi_id -> top-N neighbor poi_ids, descending count
    in_degree: dict  # poi_id -> number of unique predecessors (directed)
    out_degree: dict  # poi_id -> number of unique successors (directed)
    visits: dict  # poi_id -> total visit count


def global_temporal(trajs, n_neighbors, catalog=None):
    """Consecutive-pair co-occurrence over all trajectories (direction
    ignored) in dicts keyed by poi_id pairs, keeping at most N neighbors per
    node by descending count, ties broken by ascending poi_id."""
    nodes = set(p.poi_id for p in catalog) if catalog else set()
    co = {}
    preds = {}
    succs = {}
    visits = {}
    for traj in trajs:
        seq = traj.poi_ids()
        for p in seq:
            nodes.add(p)
            visits[p] = visits.get(p, 0) + 1
        for a, b in zip(seq, seq[1:]):
            if a == b:
                continue
            key = (a, b) if a <= b else (b, a)
            co[key] = co.get(key, 0) + 1
            succs.setdefault(a, set()).add(b)
            preds.setdefault(b, set()).add(a)
    by_node = {}
    for (a, b), n in co.items():
        by_node.setdefault(a, []).append((b, n))
        by_node.setdefault(b, []).append((a, n))
    neighbors = {}
    for v in nodes:
        ranked = sorted(by_node.get(v, []), key=lambda t: (-t[1], t[0]))
        neighbors[v] = [nb for nb, _ in ranked[:n_neighbors]]
    return TemporalGraph(
        sorted(nodes), co, neighbors,
        {v: len(preds.get(v, ())) for v in nodes},
        {v: len(succs.get(v, ())) for v in nodes},
        {v: visits.get(v, 0) for v in nodes},
    )


def undirected_adjacency(nodes, pairs):
    """{node: sorted neighbours} of `nodes` joined by `pairs` in both
    directions, one set.add per pair end."""
    adj = {v: set() for v in nodes}
    for (a, b) in pairs:
        adj[a].add(b)
        adj[b].add(a)
    return {v: sorted(nbrs) for v, nbrs in adj.items()}


def temporal_adjacency(gt):
    """The node2vec adjacency of a `TemporalGraph`: its top-N neighbour
    lists, made undirected."""
    return undirected_adjacency(gt.nodes, [(v, u) for v, nbrs in gt.neighbors.items()
                                           for u in nbrs])


# -- global spatial graph, one scalar haversine per pair -------------------


def global_spatial_edges(catalog, alpha_km):
    """{(a, b): km} with a < b for every catalog pair closer than alpha_km,
    by a scalar `haversine` per pair after a latitude-band prefilter."""
    pois = sorted(catalog, key=lambda p: p.lat)
    # 1 degree of latitude is ~111.19 km everywhere on the sphere
    lat_band = alpha_km / (math.pi * EARTH_RADIUS_KM / 180.0)
    edges = {}
    for i, a in enumerate(pois):
        for b in pois[i + 1:]:
            if b.lat - a.lat > lat_band:
                break
            d = haversine(a.lat, a.lon, b.lat, b.lon)
            if d < alpha_km:
                key = (a.poi_id, b.poi_id) if a.poi_id <= b.poi_id else (b.poi_id, a.poi_id)
                edges[key] = d
    return edges


# -- node2vec, one rng.choice per walk step / skip-gram update -------------


def random_walks(adjacency, walks_per_node, walk_len, p, q, rng):
    """Second-order biased walks per the node2vec transition rule, one
    `Generator.choice` over freshly built weights per step.

    adjacency: {node: sorted list of neighbors}. Isolated nodes yield
    length-1 walks. Return-parameter p and in-out parameter q reweight
    transitions by the previous step: 1/p back to it, 1 to its neighbors,
    1/q elsewhere.
    """
    if walk_len < 2:
        raise ValueError("walk_len must be >= 2")
    if p <= 0 or q <= 0:
        raise ValueError("p and q must be > 0")
    neighbor_sets = {v: set(nbrs) for v, nbrs in adjacency.items()}
    walks = []
    for _ in range(walks_per_node):
        for start in sorted(adjacency):
            walk = [start]
            while len(walk) < walk_len:
                cur = walk[-1]
                nbrs = adjacency[cur]
                if not nbrs:
                    break
                if len(walk) == 1:
                    nxt = nbrs[rng.integers(len(nbrs))]
                else:
                    prev = walk[-2]
                    prev_nbrs = neighbor_sets[prev]
                    weights = np.empty(len(nbrs))
                    for i, x in enumerate(nbrs):
                        if x == prev:
                            weights[i] = 1.0 / p
                        elif x in prev_nbrs:
                            weights[i] = 1.0
                        else:
                            weights[i] = 1.0 / q
                    weights /= weights.sum()
                    nxt = nbrs[rng.choice(len(nbrs), p=weights)]
                walk.append(nxt)
            walks.append(walk)
    return walks


def train_skipgram(walks, all_nodes, dim, window=5, negatives=5, epochs=5,
                   lr=0.025, rng=None):
    """Skip-gram with negative sampling over walk corpora: per-pair SGD
    with one `Generator.choice` call for the negatives of each update.

    Negative distribution is the unigram count over walk tokens raised to
    0.75. Nodes absent from every walk keep their random initialization.
    """
    if dim < 1 or window < 1:
        raise ValueError("dim and window must be >= 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    ids = sorted(all_nodes)
    index = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    w_in = ((rng.random((n, dim)) - 0.5) / dim).astype(np.float32)
    w_out = np.zeros((n, dim), dtype=np.float32)

    counts = np.zeros(n)
    encoded = []
    for walk in walks:
        enc = np.array([index[v] for v in walk], dtype=np.int64)
        encoded.append(enc)
        np.add.at(counts, enc, 1)
    if counts.sum() == 0:
        return EmbeddingTable(ids, np.zeros((n, dim), dtype=np.float32))

    noise = counts**0.75
    noise /= noise.sum()

    total_steps = max(1, epochs * sum(len(e) for e in encoded))
    step = 0
    for _ in range(epochs):
        for enc in encoded:
            for pos, center in enumerate(enc):
                cur_lr = lr * max(1e-4, 1.0 - step / total_steps)
                step += 1
                lo = max(0, pos - window)
                hi = min(len(enc), pos + window + 1)
                for cpos in range(lo, hi):
                    if cpos == pos:
                        continue
                    context = enc[cpos]
                    targets = np.empty(negatives + 1, dtype=np.int64)
                    targets[0] = context
                    targets[1:] = rng.choice(n, size=negatives, p=noise)
                    labels = np.zeros(negatives + 1, dtype=np.float32)
                    labels[0] = 1.0
                    vc = w_in[center]
                    vt = w_out[targets]
                    scores = 1.0 / (1.0 + np.exp(-vt @ vc))
                    err = (labels - scores) * cur_lr
                    grad_c = err @ vt
                    np.add.at(w_out, targets, err[:, None] * vc[None, :])
                    w_in[center] += grad_c
    return EmbeddingTable(ids, w_in)


# -- check-in lines, each parsed alone -------------------------------------

FOURSQUARE_TIME = "%a %b %d %H:%M:%S %z %Y"


def coordinate(raw):
    """A coordinate field: what `float` reads, digits without underscores."""
    if "_" in raw:
        raise ValueError(raw)
    return float(raw)


def parse_foursquare_line(parts):
    """A Foursquare line with one full `strptime` of its timestamp."""
    user, venue, cat_id, _cat_name, lat, lon, _tz, raw_time = parts
    ts = datetime.strptime(raw_time, FOURSQUARE_TIME).timestamp()
    return CheckIn(user, venue, cat_id, ts, coordinate(lat), coordinate(lon))


def parse_gowalla_line(parts):
    """A Gowalla line: ISO-8601 time, UTC when it names no offset."""
    user, raw_time, lat, lon, loc = parts
    dt = datetime.fromisoformat(raw_time.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return CheckIn(user, loc, UNKNOWN_CATEGORY, dt.timestamp(), coordinate(lat),
                   coordinate(lon))


def parse_lines(lines, fmt):
    """(check-ins, indices of the rejected lines) of non-empty log lines,
    each parsed on its own; a line with more or fewer fields than the
    format has fails to unpack."""
    parser = {"foursquare": parse_foursquare_line, "gowalla": parse_gowalla_line}[fmt]
    checkins, rejected = [], []
    for i, line in enumerate(lines):
        try:
            checkins.append(parser(line.split("\t")))
        except (ValueError, DataError):
            rejected.append(i)
    return checkins, rejected
