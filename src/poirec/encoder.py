"""Graph-biased self-attention encoder: feature encodings, distance / hop /
category attention biases, master-node readout, and the prediction head."""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NumericError, Tensor

UNKNOWN_PAIR_INDEX = 0


@dataclass
class DistanceBins:
    """Equal-width distance bins with one learnable scalar per boundary.
    Distances outside [min_dist, max_dist] clamp to the nearest boundary."""

    min_dist: float
    max_dist: float
    m: int

    @property
    def boundaries(self):
        return np.linspace(self.min_dist, self.max_dist, self.m + 1)

    def locate(self, dist):
        """Interpolation between boundaries for an array of distances:
        (lower_idx, upper_idx, lower_weight, upper_weight), each shaped like
        `dist`. NaN (a master pair or a missing coordinate) takes the extra
        master/unknown slot m + 1 with weight 1."""
        width = (self.max_dist - self.min_dist) / self.m
        if width > 0:
            x = ((dist - self.min_dist) / width).clip(0, self.m)  # in bin widths
        else:
            x = np.where(np.isnan(dist), np.nan, 0.0)
        x[np.isnan(x)] = self.m + 1
        lo = x.astype(np.int64)
        w_hi = x - lo
        return lo, np.minimum(lo + 1, self.m + 1), 1.0 - w_hi, w_hi


def fit_distance_bins(mgraphs, m):
    """Bin boundaries from the observed node-pair distances of the training
    split."""
    lo, hi = math.inf, -math.inf
    for g in mgraphs:
        if g.geo is not None:
            d = g.geo[~np.isnan(g.geo)]
            if d.size:
                lo, hi = min(lo, float(d.min())), max(hi, float(d.max()))
    if lo > hi:
        lo, hi = 0.0, 1.0
    return DistanceBins(lo, hi, m)


def build_category_vocab(traj_graphs):
    """Observed unordered category pairs -> table row, index 0 reserved for
    the UNKNOWN pair (master edges and unseen combinations)."""
    pairs = set()
    for g in traj_graphs:
        pairs.update(g.edge_category.values())
    return {pair: i + 1 for i, pair in enumerate(sorted(pairs))}


class GsanModel:
    """Holds all learnable tensors and runs the encoder forward pass."""

    def __init__(self, catalog, gt_graph, cat_vocab, dist_bins, config, rng,
                 poi_init=None, dtype=np.float32):
        self.config = config
        self.cat_vocab = cat_vocab
        self.bins = dist_bins
        self.dtype = dtype
        self.poi_ids = sorted(p.poi_id for p in catalog)
        self.poi_index = {pid: i for i, pid in enumerate(self.poi_ids)}

        d = config.d
        n_pois = len(self.poi_ids)
        buckets = config.degree_buckets + 1

        def init(shape, scale):
            return Tensor(rng.normal(0.0, scale, size=shape).astype(dtype),
                          requires_grad=True)

        params = {}
        if poi_init is not None:
            rows = np.stack([poi_init.row(pid) for pid in self.poi_ids])
            params["poi_table"] = Tensor(rows.astype(dtype), requires_grad=True)
        else:
            params["poi_table"] = init((n_pois, d), 0.1)
        params["deg_in"] = init((buckets, d), 0.02)
        params["deg_out"] = init((buckets, d), 0.02)
        params["pop"] = init((buckets, d), 0.02)
        params["pos"] = init((config.t_max + 1, d), 0.02)
        for layer in range(config.layers):
            for h in range(config.heads):
                for name in ("wq", "wk", "wv"):
                    params[f"l{layer}.h{h}.{name}"] = init((d, d), 1.0 / math.sqrt(d))
            params[f"l{layer}.wo"] = init((config.heads * d, d), 1.0 / math.sqrt(d))
        params["b_spd"] = Tensor(np.zeros((config.spd_cap + 2, 1), dtype=dtype),
                                 requires_grad=True)
        params["b_dist"] = Tensor(np.zeros((config.m_bins + 2, 1), dtype=dtype),
                                  requires_grad=True)
        params["cat_pairs"] = init((len(cat_vocab) + 1, d), 0.02)
        params["w_r"] = init((d, 1), 0.02)
        params["w_s"] = init((2 * d, d), 1.0 / math.sqrt(2 * d))
        self.params = params

        # degree / popularity bucket per POI row, read off the global graph
        cap = config.degree_buckets

        def bucket(x):
            return min(x, cap)

        self.deg_in_bucket = np.array(
            [bucket(gt_graph.in_degree.get(p, 0)) for p in self.poi_ids], dtype=np.int64)
        self.deg_out_bucket = np.array(
            [bucket(gt_graph.out_degree.get(p, 0)) for p in self.poi_ids], dtype=np.int64)
        self.pop_bucket = np.array(
            [bucket(int(math.log2(1 + gt_graph.visits.get(p, 0)))) for p in self.poi_ids],
            dtype=np.int64)

    def trainable(self):
        if self.config.freeze_poi_table:
            return {k: v for k, v in self.params.items() if k != "poi_table"}
        return self.params

    def regularized(self):
        """L2-penalized subset: everything except the bias scalar tables."""
        return {k: v for k, v in self.trainable().items()
                if k not in ("b_spd", "b_dist")}

    # -- feature encoding --------------------------------------------------

    def node_features(self, mgraph):
        g = mgraph.base
        idx = np.array([self.poi_index[p] for p in g.nodes], dtype=np.int64)
        pos_idx = []
        for p in g.nodes:
            step = g.last_step.get(p)
            if step is None:
                pos_idx.append(0)  # synthetic nodes use the padding row
            else:
                rev = g.seq_len - step + 1
                if rev > self.config.t_max:
                    raise NumericError(
                        f"position index {rev} exceeds t_max={self.config.t_max}")
                pos_idx.append(rev)
        h = ad.gather_rows(self.params["poi_table"], idx)
        h = h + ad.gather_rows(self.params["deg_in"], self.deg_in_bucket[idx])
        h = h + ad.gather_rows(self.params["deg_out"], self.deg_out_bucket[idx])
        h = h + ad.gather_rows(self.params["pop"], self.pop_bucket[idx])
        h = h + ad.gather_rows(self.params["pos"], np.array(pos_idx, dtype=np.int64))
        master = ad.tmean(h, axis=0, keepdims=True) + ad.gather_rows(self.params["pos"], [0])
        return ad.concat([h, master], axis=0)

    # -- attention bias ----------------------------------------------------

    def _category_index(self, mgraph):
        """(n+1, n+1) `cat_pairs` row of each base edge's category pair, read
        in both directions (a stored direction wins over its reverse); 0, the
        UNKNOWN row, for unlabeled pairs and every master edge."""
        size = len(mgraph.nodes)
        order = {p: k for k, p in enumerate(mgraph.base.nodes)}
        fwd, rev, k = np.array([(order[a] * size + order[b], order[b] * size + order[a],
                                 self.cat_vocab.get(label, UNKNOWN_PAIR_INDEX))
                                for (a, b), label in mgraph.base.edge_category.items()],
                               dtype=np.int64).reshape(-1, 3).T
        out = np.zeros(size * size, dtype=np.int64)
        out[rev] = k
        out[fwd] = k
        return out.reshape(size, size)

    def bias_matrix(self, mgraph):
        """Additive attention bias over `mgraph.nodes` (master last): hop
        count, interpolated distance bins and the mean category-pair score
        along the canonical shortest path. Each pair's bias is a weighted sum
        of entries gathered from the stacked scalar tables."""
        cfg = self.config
        size = len(mgraph.nodes)
        n = size - 1
        tables = [self.params["b_spd"], self.params["b_dist"]]
        terms = 5 if cfg.use_category_bias else 3
        idx = np.empty((terms, size, size), dtype=np.int64)
        w = np.empty((terms, size, size))
        # hop count, master pairs in their own slot
        idx[0] = np.minimum(mgraph.hops, cfg.spd_cap)
        idx[0, n, :] = idx[0, :, n] = cfg.spd_cap + 1
        w[0] = 1.0
        # distance, interpolated between two boundaries of b_dist
        dist = np.full((size, size), np.nan) if mgraph.geo is None else mgraph.geo
        idx[1], idx[2], w[1], w[2] = self.bins.locate(dist)
        idx[1:3] += tables[0].shape[0]
        if cfg.use_category_bias:
            # mean over the path edges: i -> mid -> j on a 2-hop path, else
            # the edge i -> j (or i's self-loop) taken twice
            cat = self._category_index(mgraph) + (tables[0].shape[0] + tables[1].shape[0])
            tables.append(ad.matmul(self.params["cat_pairs"], self.params["w_r"]))
            nodes = np.arange(size)
            idx[3] = cat[nodes[:, None], mgraph.mid]
            idx[4] = np.where(mgraph.hops == 2, cat[mgraph.mid, nodes], idx[3])
            w[3:] = 0.5
        return ad.gather_sum(ad.concat(tables, axis=0), idx, w)

    # -- attention + readout -----------------------------------------------

    def attention_layer(self, x, bias, layer):
        cfg = self.config
        scale = 1.0 / math.sqrt(cfg.d)
        heads = []
        for h in range(cfg.heads):
            q = ad.matmul(x, self.params[f"l{layer}.h{h}.wq"])
            k = ad.matmul(x, self.params[f"l{layer}.h{h}.wk"])
            v = ad.matmul(x, self.params[f"l{layer}.h{h}.wv"])
            scores = ad.mul(ad.matmul(q, k.T), scale) + bias
            if not np.all(np.isfinite(scores.data)):
                raise NumericError("non-finite attention scores")
            attn = ad.row_softmax(scores)
            heads.append(ad.matmul(attn, v))
        merged = heads[0] if len(heads) == 1 else ad.concat(heads, axis=1)
        return ad.matmul(merged, self.params[f"l{layer}.wo"])

    def encode(self, mgraph):
        """Full encoder pass; returns the trajectory representation s_u (1, d)."""
        x = self.node_features(mgraph)
        bias = self.bias_matrix(mgraph)
        for layer in range(self.config.layers):
            x = self.attention_layer(x, bias, layer)
        n = len(mgraph.nodes)
        v_s = ad.gather_rows(x, [n - 1])
        last_idx = mgraph.base.nodes.index(mgraph.base.last_node)
        v_last = ad.gather_rows(x, [last_idx])
        return ad.matmul(ad.concat([v_s, v_last], axis=1), self.params["w_s"])

    def predict(self, s_u):
        """Catalog logits s_u @ poi_table^T of a (B, d) batch of trajectory
        representations; the softmax of a row is its POI distribution."""
        logits = ad.matmul(s_u, self.params["poi_table"].T)
        if not np.all(np.isfinite(logits.data)):
            raise NumericError("non-finite catalog logits")
        return logits

    def rec_loss(self, logits, target_poi_ids):
        """Mean catalog cross-entropy of a (B, P) logit matrix."""
        targets = np.array([self.poi_index[p] for p in target_poi_ids], dtype=np.int64)
        return ad.log_softmax_nll(logits, targets)
