"""Reference implementations the tests check the program against: the
per-pair BFS and loop forms of the master-graph structure and of the
attention bias, the sorted-row correlation ranking, the catalog-loop
target rank, the clamped softmax loss chain, plus small autodiff
compositions used only by tests."""

from collections import deque

import numpy as np

from poirec import autodiff as ad
from poirec.graphs import MASTER, adjacency_from_pairs, haversine

UNKNOWN_PAIR_INDEX = 0


# -- autodiff compositions -------------------------------------------------


def l2_norm(a):
    """Euclidean norm of all entries, as a scalar tensor."""
    return ad.sqrt(ad.tsum(ad.mul(a, a)))


def cosine_similarity(a, b, eps=1e-12):
    """Cosine similarity between two same-shape tensors (flattened)."""
    num = ad.tsum(ad.mul(a, b))
    den = ad.mul(ad.clamp_min(l2_norm(a), eps), ad.clamp_min(l2_norm(b), eps))
    return num / den


def softmax_nll(logits, targets, floor=1e-12):
    """The softmax -> pick -> clamp -> log chain the catalog and InfoNCE
    losses were once built from: mean of -log max(softmax(row)[target],
    floor), in float64 numpy."""
    x = np.asarray(logits, dtype=np.float64)
    e = np.exp(x - x.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    picked = probs[np.arange(len(targets)), np.asarray(targets)]
    return float(-np.log(np.maximum(picked, floor)).mean())


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


def pair_index(vocab, base, u, w):
    """Category-pair table index for the path edge between u and w."""
    if u == MASTER or w == MASTER:
        return UNKNOWN_PAIR_INDEX
    label = base.edge_category.get((u, w)) or base.edge_category.get((w, u))
    if label is None:
        return UNKNOWN_PAIR_INDEX
    return vocab.get(label, UNKNOWN_PAIR_INDEX)


def path_pair_indices(mgraph, vocab, i, j, paths=None):
    """Category-pair indices along the canonical shortest path i -> j.
    The i == j case uses the node's self-loop edge."""
    if i == j:
        return [pair_index(vocab, mgraph.base, i, i)]
    path = (paths or master_paths(mgraph))[(i, j)]
    return [pair_index(vocab, mgraph.base, u, w) for u, w in zip(path, path[1:])]


def category_bias(mgraph, vocab, i, j, pair_table, w_r, paths=None):
    """Scalar c_ij: mean over shortest-path edges of <w_r, r_edge>."""
    idxs = path_pair_indices(mgraph, vocab, i, j, paths)
    dots = [float(pair_table[k] @ w_r) for k in idxs]
    return sum(dots) / len(dots)


def bias_matrix(model, mgraph, coords=None):
    """The attention bias of `model` built pair by pair from BFS hop counts,
    scalar Haversine distances and canonical paths. `coords` maps poi_id ->
    (lat, lon); a pair missing either takes the master/unknown distance slot."""
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
    coords = coords or {}
    out = np.zeros((len(nodes), len(nodes)))
    for a, i in enumerate(nodes):
        for b, j in enumerate(nodes):
            if MASTER in (i, j):
                out[a, b] = b_spd[cfg.spd_cap + 1] + b_dist[cfg.m_bins + 1]
            else:
                out[a, b] = b_spd[min(spd[(i, j)], cfg.spd_cap)]
                if i in coords and j in coords:
                    km = haversine(*coords[i], *coords[j])
                    out[a, b] += distance_bias(km, model.bins, b_dist)
                else:
                    out[a, b] += b_dist[cfg.m_bins + 1]
            if cfg.use_category_bias:
                out[a, b] += category_bias(mgraph, model.cat_vocab, i, j,
                                           cat_table, w_r, paths)
    return out


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
