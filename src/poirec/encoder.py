"""Graph-biased self-attention encoder: feature encodings, distance / hop /
category attention biases, master-node readout, and the prediction head.

`stack_graphs` stacks trajectory graphs by node count, `GsanModel.plan_stacks`
turns the stacks into `EncoderPlan`s, `GsanModel.encode_plans` runs any
number of plans through one stacked forward per node count, and
`GsanModel.backward` is that pass's hand-written gradient."""

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import NumericError, ShapeError, Tensor
from .graphs import haversine_matrix

UNKNOWN_PAIR_INDEX = 0
# b_spd row of every pair with the master node; rows 0-2 are the hop counts
# of base pairs, which the master node caps at 2
MASTER_HOP_ROW = 3
# parameters that reach the encoder only through `GsanModel.bias_table()`
BIAS_PARAMS = ("b_spd", "b_dist", "cat_pairs", "w_r")


@dataclass
class DistanceBins:
    """Equal-width distance bins with one learnable scalar per boundary.
    Distances outside [min_dist, max_dist] clamp to the nearest boundary."""

    min_dist: float
    max_dist: float
    m: int

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


def fit_distance_bins(stacks, m):
    """Bin boundaries from the observed node-pair distances of the training
    split's graph stacks (see `stack_graphs`)."""
    seen = np.concatenate([np.empty(0)] + [st.geo[~np.isnan(st.geo)] for st in stacks])
    if not seen.size:
        return DistanceBins(0.0, 1.0, m)
    return DistanceBins(float(seen.min()), float(seen.max()), m)


def build_category_vocab(stacks, row_category):
    """Observed unordered category pairs of the stacked graphs' edges and
    of each node with itself (its self-loop) -> table row, index 0 reserved
    for the UNKNOWN pair (master edges and unseen combinations).
    `row_category[r]` is the category of catalog row r."""
    n_rows = len(row_category)
    keys = [np.zeros(0, dtype=np.int64)]
    for st in stacks:
        n = st.rows.shape[1]
        g, i, j = np.nonzero(st.adj[:, :n, :n] | np.eye(n, dtype=bool))
        keys.append(st.rows[g, i] * n_rows + st.rows[g, j])
    a, b = np.divmod(np.unique(np.concatenate(keys)), n_rows)
    pairs = {tuple(sorted((row_category[x], row_category[y])))
             for x, y in zip(a.tolist(), b.tolist())}
    return {pair: i + 1 for i, pair in enumerate(sorted(pairs))}


@dataclass
class GraphStack:
    """G trajectory graphs of n base nodes each, stacked, with the readout
    master node at index n. The master links to every base node, so hop
    counts (edge direction ignored) have a closed form: 0 on the diagonal,
    1 for adjacent pairs and for any pair with the master, 2 otherwise."""

    members: list  # (G,) input position of each graph
    rows: np.ndarray  # (G, n) catalog row of each base node, first-visit order
    pos: np.ndarray  # (G, n) reverse position, 0 for synthetic nodes
    last: list  # (G,) index of the last-visited base node
    adj: np.ndarray  # (G, n+1, n+1) bool, direction ignored, no self-loops
    geo: np.ndarray  # (G, n+1, n+1) km, NaN for the master and for missing coordinates

    @property
    def hops(self):  # (G, n+1, n+1)
        hops = np.where(self.adj, 1, 2)
        hops.reshape(len(hops), -1)[:, ::hops.shape[-1] + 1] = 0
        return hops


def stack_graphs(graphs, coords):
    """`graphs` (TrajectoryGraphs) as one `GraphStack` per node count, in
    order of first appearance, from one Python pass over each graph's nodes
    and edges. `coords` is a (rows, 2) array of (lat, lon) degrees by
    catalog row, NaN where unknown."""
    groups = {}
    for k, g in enumerate(graphs):
        groups.setdefault(len(g.nodes), []).append(k)
    stacks = []
    for n, members in groups.items():
        size = n + 1
        rows, pos, last, flat = [], [], [], []
        for slot, k in enumerate(members):
            g = graphs[k]
            order = {p: i for i, p in enumerate(g.nodes)}
            rows += g.nodes
            pos += [g.seq_len - step + 1 if step else 0 for step in g.last_step]
            last.append(order[g.last_node])
            base = slot * size * size
            flat += [base + order[a] * size + order[b] for a, b in g.edges if a != b]
        adj = np.zeros((len(members), size, size), dtype=bool)
        adj.reshape(-1)[flat] = True
        adj[:, n, :n] = True  # the master row; symmetrized below
        adj |= adj.transpose(0, 2, 1)
        rows = np.array(rows, dtype=np.int64).reshape(-1, n)
        xy = np.full((len(members), size, 2), np.nan)  # the master's is NaN
        xy[:, :n] = coords[rows]
        stacks.append(GraphStack(members, rows, np.array(pos, dtype=np.int64).reshape(-1, n),
                                 last, adj, haversine_matrix(xy)))
    return stacks


def attention_softmax(scores):
    """Softmax along the last axis of an attention score array, with max
    subtraction for stability and a 64-bit row sum. Raises NumericError on a
    non-finite result."""
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True, dtype=np.float64).astype(scores.dtype)
    if not np.all(np.isfinite(attn)):
        raise NumericError("non-finite softmax output")
    return attn


@dataclass
class GroupCache:
    """What `GsanModel.backward` reads of one group of G plans with n base
    nodes each in a kept `GsanModel.encode_plans` pass."""

    rows: np.ndarray  # (G, n) poi_table rows
    pos_rows: np.ndarray  # (G, n) `pos` rows
    last: np.ndarray  # (G,) index of the last-visited base node
    bias_idx: np.ndarray  # (terms, G, n+1, n+1) rows of `bias_table()`
    bias_w: np.ndarray  # (terms, G, n+1, n+1) their weights
    layers: list  # per layer: its input, each head's (q, k, v, attention), the merged heads


@dataclass
class EncoderPlan:
    """What one graph and its master node contribute to the encoder pass,
    with no parameter in it: table rows and bias indices and weights. A plan
    stays valid while the parameters change."""

    poi_rows: np.ndarray  # (n,) poi_table row of each base node
    pos_rows: np.ndarray  # (n,) `pos` row: reverse position, 0 for synthetic nodes
    bias_idx: np.ndarray  # (terms, n+1, n+1) int32 rows of `bias_table()`
    bias_w: np.ndarray  # (terms, n+1, n+1) their weights, in the model dtype
    last: int  # index of the last-visited base node


class GsanModel:
    """Holds all learnable tensors and runs the encoder forward pass. Rows
    of the POI tables are catalog rows; `poi_init`, when given, has them
    already (`Trainer` checks its ids)."""

    def __init__(self, catalog, gt_graph, cat_vocab, dist_bins, config, rng,
                 poi_init=None, dtype=np.float32):
        self.config = config
        self.cat_vocab = cat_vocab
        self.bins = dist_bins
        self.dtype = dtype
        self.poi_ids = [p.poi_id for p in catalog]

        d = config.d
        n_pois = len(self.poi_ids)
        buckets = config.degree_buckets + 1

        def init(shape, scale):
            return Tensor(rng.normal(0.0, scale, size=shape).astype(dtype))

        params = {}
        if poi_init is not None:
            params["poi_table"] = Tensor(poi_init.vectors.astype(dtype))
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
        params["b_spd"] = Tensor(np.zeros((MASTER_HOP_ROW + 1, 1), dtype=dtype))
        params["b_dist"] = Tensor(np.zeros((config.m_bins + 2, 1), dtype=dtype))
        params["cat_pairs"] = init((len(cat_vocab) + 1, d), 0.02)
        params["w_r"] = init((d, 1), 0.02)
        params["w_s"] = init((2 * d, d), 1.0 / math.sqrt(2 * d))
        self.params = params

        # degree / popularity bucket per POI row, read off the global graph;
        # the popularity is floor(log2(1 + visits)), the exponent frexp gives
        cap = config.degree_buckets
        self.deg_in_bucket = np.minimum(gt_graph.in_degree, cap)
        self.deg_out_bucket = np.minimum(gt_graph.out_degree, cap)
        self.pop_bucket = np.minimum(np.frexp(1.0 + gt_graph.visits)[1] - 1, cap).astype(np.int64)

        # category code per POI row, and the cat_pairs row of each pair of
        # codes (UNKNOWN for pairs outside the vocabulary)
        names = sorted({p.category_id for p in catalog})
        code = {c: i for i, c in enumerate(names)}
        self.category_code = np.array([code[p.category_id] for p in catalog], dtype=np.int64)
        self.pair_row = np.full((len(names), len(names)), UNKNOWN_PAIR_INDEX, dtype=np.int64)
        for (a, b), row in cat_vocab.items():
            self.pair_row[code[a], code[b]] = self.pair_row[code[b], code[a]] = row

    def trainable(self):
        if self.config.freeze_poi_table:
            return {k: v for k, v in self.params.items() if k != "poi_table"}
        return self.params

    def regularized(self):
        """L2-penalized subset: everything except the bias scalar tables."""
        return {k: v for k, v in self.trainable().items()
                if k not in ("b_spd", "b_dist")}

    # -- encoder plans and the stacked forward ------------------------------

    def plan_stacks(self, stacks):
        """The parameter-free inputs of the encoder pass (see `EncoderPlan`)
        of every graph in `stacks`, in input order. Raises NumericError when
        a node's reverse position exceeds t_max, naming the first such
        graph's largest."""
        cfg = self.config
        over = [(st.members[k], int(st.pos[k].max())) for st in stacks
                for k in np.flatnonzero(st.pos.max(axis=1) > cfg.t_max)[:1]]
        if over:
            raise NumericError(f"position index {min(over)[1]} exceeds t_max={cfg.t_max}")

        # attention bias over each graph's nodes (master last): hop count,
        # interpolated distance bins and the mean category-pair score along
        # the canonical shortest path, each pair's bias a weighted sum of
        # entries of `bias_table()`
        n_spd = len(self.params["b_spd"].data)
        terms = 5 if cfg.use_category_bias else 3
        plans = [None] * sum(len(st.members) for st in stacks)
        for st in stacks:
            n = st.rows.shape[1]
            hops = st.hops
            idx = np.empty((len(hops), terms) + hops.shape[1:], dtype=np.int32)
            w = np.empty(idx.shape, dtype=self.dtype)
            # hop count, master pairs in their own slot
            idx[:, 0] = hops
            idx[:, 0, n, :] = idx[:, 0, :, n] = MASTER_HOP_ROW
            w[:, 0] = 1.0
            # distance, interpolated between two boundaries of b_dist
            idx[:, 1], idx[:, 2], w[:, 1], w[:, 2] = self.bins.locate(st.geo)
            idx[:, 1:3] += n_spd
            if cfg.use_category_bias:
                # mean over the path edges: i -> mid -> j on a 2-hop path, else
                # the edge i -> j (or i's self-loop) taken twice. The midpoint
                # is the lowest-index common neighbour; the master is last, so
                # it is picked only when no base node qualifies, and its edges
                # take the UNKNOWN row.
                offset = n_spd + len(self.params["b_dist"].data)
                cat = self._category_index(st) + offset
                idx[:, 3] = idx[:, 4] = np.where(hops == 2, offset + UNKNOWN_PAIR_INDEX, cat)
                base = st.adj[:, :n, :n]
                shared = np.matmul(base, base, dtype=np.float32)  # common base neighbours
                g, i, j = np.nonzero((hops[:, :n, :n] == 2) & (shared > 0))
                mid = (base[g, i] & base[g, j]).argmax(axis=1)
                idx[g, 3, i, j] = cat[g, i, mid]
                idx[g, 4, i, j] = cat[g, mid, j]
                w[:, 3:] = 0.5
            for k, m in enumerate(st.members):
                plans[m] = EncoderPlan(st.rows[k], st.pos[k], idx[k], w[k], st.last[k])
        return plans

    def _category_index(self, stack):
        """(G, n+1, n+1) `cat_pairs` row of each base pair joined by an edge
        in either direction or a self-loop, looked up from the catalog
        categories of its POI rows; 0, the UNKNOWN row, elsewhere and on
        every master edge."""
        n = stack.rows.shape[1]
        codes = self.category_code[stack.rows]
        linked = stack.adj[:, :n, :n] | np.eye(n, dtype=bool)
        out = np.zeros(stack.adj.shape, dtype=np.int64)
        out[:, :n, :n] = np.where(linked, self.pair_row[codes[:, :, None], codes[:, None, :]],
                                  UNKNOWN_PAIR_INDEX)
        return out

    def bias_table(self):
        """The (rows, 1) column that plan bias indices point into: the hop
        slots of b_spd, the boundaries of b_dist, then (with the category
        bias) one score cat_pairs @ w_r per category-pair row."""
        prm = self.params
        tables = [prm["b_spd"].data, prm["b_dist"].data]
        if self.config.use_category_bias:
            tables.append(prm["cat_pairs"].data @ prm["w_r"].data)
        return np.concatenate(tables)

    def encode_plans(self, plans, keep=False):
        """Trajectory representations s_u of a list of plans, one (B, d) row
        per plan in input order. Plans with the same node count run as one
        stacked forward (`_encode_group`), so nothing is padded or masked.
        With `keep` it returns (s_u, what `backward` reads of the pass); a
        pass without it, as for ranking, keeps no intermediates."""
        if not plans:
            raise ValueError("encode_plans needs at least one plan")
        table = self.bias_table()
        groups = {}
        for i, p in enumerate(plans):
            groups.setdefault(len(p.poi_rows), []).append(i)
        d = self.config.d
        s_u = np.empty((len(plans), d), dtype=self.dtype)
        readout = np.empty((len(plans), 2 * d), dtype=self.dtype) if keep else None
        saved = []
        for members in groups.values():
            out, cache = self._encode_group([plans[i] for i in members], table, keep)
            s_u[members] = out @ self.params["w_s"].data
            if keep:
                readout[members] = out
                saved.append((members, cache))
        return (s_u, (table, readout, saved)) if keep else s_u

    def _encode_group(self, plans, table, keep):
        """The encoder over G plans of n base nodes each, as (G, n+1, d)
        stacks: node features (per base node the sum of its POI, degree,
        popularity and reverse-position rows; the master row their mean plus
        the padding position row), the attention bias, `layers` biased
        self-attention layers. Returns the (G, 2d) readout [master row,
        last-visited row] and, when `keep` is set, the group's `GroupCache`."""
        prm = {k: p.data for k, p in self.params.items()}
        rows = np.stack([p.poi_rows for p in plans])
        pos_rows = np.stack([p.pos_rows for p in plans])
        x = prm["poi_table"][rows]
        x = x + prm["deg_in"][self.deg_in_bucket[rows]]
        x = x + prm["deg_out"][self.deg_out_bucket[rows]]
        x = x + prm["pop"][self.pop_bucket[rows]]
        x = x + prm["pos"][pos_rows]
        total = x.sum(axis=-2, keepdims=True, dtype=np.float64).astype(self.dtype)
        master = total * np.asarray(1.0 / rows.shape[1], dtype=self.dtype) + prm["pos"][[0]]
        x = np.concatenate([x, master], axis=-2)
        bias_idx = np.stack([p.bias_idx for p in plans], axis=1)
        bias_w = np.stack([p.bias_w for p in plans], axis=1)
        bias = (table.reshape(-1)[bias_idx] * bias_w).sum(axis=0, dtype=np.float64)
        bias = bias.astype(self.dtype)
        layers = []
        for layer in range(self.config.layers):
            out, heads, merged = self._attend(x, bias, layer)
            if keep:
                layers.append((x, heads, merged))
            x = out
        last = np.array([p.last for p in plans])
        readout = np.concatenate([x[:, -1], x[np.arange(len(plans)), last]], axis=1)
        if not keep:
            return readout, None
        return readout, GroupCache(rows, pos_rows, last, bias_idx, bias_w, layers)

    def _attend(self, x, bias, layer):
        """One biased self-attention layer over (G, n+1, d) features and a
        (G, n+1, n+1) bias: per head softmax(q k^T / sqrt(d) + bias) v, the
        heads concatenated, then projected by wo. Returns the output, each
        head's (q, k, v, attention) and the concatenated heads."""
        prm = self.params
        flat = x.reshape(-1, x.shape[-1])
        scale = np.asarray(1.0 / math.sqrt(self.config.d), dtype=self.dtype)
        heads, outs = [], []
        for h in range(self.config.heads):
            q, k, v = ((flat @ prm[f"l{layer}.h{h}.{name}"].data).reshape(x.shape)
                       for name in ("wq", "wk", "wv"))
            scores = (q @ k.swapaxes(-1, -2)) * scale + bias
            if not np.all(np.isfinite(scores)):
                raise NumericError("non-finite attention scores")
            attn = attention_softmax(scores)
            heads.append((q, k, v, attn))
            outs.append(attn @ v)
        merged = outs[0] if len(outs) == 1 else np.concatenate(outs, axis=-1)
        wo = prm[f"l{layer}.wo"].data
        return (merged.reshape(-1, merged.shape[-1]) @ wo).reshape(x.shape), heads, merged

    def backward(self, g, cache, poi_grad):
        """The gradients {name: array} of the parameters a kept
        `encode_plans` pass reads, from `g` (B, d), the gradient of its s_u,
        and its `cache`. The POI rows' gradients are added into `poi_grad`,
        a (P, d) array, which is returned as poi_table's. Attention runs back
        group by group; the readout rows are assigned (a graph's master and
        last rows differ), and each lookup table and the bias table take one
        scatter-add for the whole pass. The bias table's gradient then goes
        to b_spd, b_dist and, with the category bias, through cat_pairs @ w_r."""
        prm, d = self.params, self.config.d
        table, readout, saved = cache
        grads = {k: poi_grad if k == "poi_table" else np.zeros_like(p.data)
                 for k, p in prm.items() if k not in BIAS_PARAMS}
        grads["w_s"] += readout.T @ g
        d_readout = g @ prm["w_s"].data.T
        base, master, bias = [], [], []
        for members, group in saved:
            size = group.rows.shape[1] + 1
            dx = np.zeros((len(members), size, d), dtype=self.dtype)
            dx[:, -1] = d_readout[members, :d]
            dx[np.arange(len(members)), group.last] = d_readout[members, d:]
            d_bias = np.zeros((len(members), size, size), dtype=self.dtype)
            for layer in reversed(range(self.config.layers)):
                dx = self._attend_backward(dx, d_bias, layer, *group.layers[layer], grads)
            n = size - 1
            master.append(dx[:, n])
            base.append(dx[:, :n] + dx[:, n:] * np.asarray(1.0 / n, dtype=self.dtype))
            bias.append((group.bias_idx.reshape(-1), (group.bias_w * d_bias).reshape(-1)))
        # one scatter-add per table for the whole pass, groups in order
        rows = np.concatenate([group.rows.reshape(-1) for _, group in saved])
        base = np.concatenate([b.reshape(-1, d) for b in base])
        for name, row in (("poi_table", rows), ("deg_in", self.deg_in_bucket[rows]),
                          ("deg_out", self.deg_out_bucket[rows]), ("pop", self.pop_bucket[rows])):
            np.add.at(grads[name], row, base)
        # the masters take the padding row of pos
        pos_rows = [group.pos_rows.reshape(-1) for _, group in saved]
        pos_rows.append(np.zeros(len(g), dtype=np.int64))
        np.add.at(grads["pos"], np.concatenate(pos_rows), np.concatenate([base] + master))
        d_table = np.zeros_like(table)
        np.add.at(d_table.reshape(-1), np.concatenate([i for i, _ in bias]),
                  np.concatenate([w for _, w in bias]))
        n_spd = len(prm["b_spd"].data)
        grads["b_spd"], grads["b_dist"], d_cat = np.split(
            d_table, [n_spd, n_spd + len(prm["b_dist"].data)])
        if self.config.use_category_bias:
            grads["cat_pairs"] = d_cat @ prm["w_r"].data.T
            grads["w_r"] = prm["cat_pairs"].data.T @ d_cat
        return grads

    def _attend_backward(self, dout, d_bias, layer, x, heads, merged, grads):
        """The gradient of one attention layer's input from that of its
        output, `dout`; adds the bias gradient to `d_bias` and the layer's
        weight gradients to theirs in `grads`."""
        prm = self.params
        flat, d = x.reshape(-1, x.shape[-1]), x.shape[-1]
        d_flat = dout.reshape(-1, d)
        grads[f"l{layer}.wo"] += merged.reshape(-1, merged.shape[-1]).T @ d_flat
        d_merged = (d_flat @ prm[f"l{layer}.wo"].data.T).reshape(merged.shape)
        scale = np.asarray(1.0 / math.sqrt(self.config.d), dtype=self.dtype)
        dx = np.zeros_like(flat)
        for h, (q, k, v, attn) in enumerate(heads):
            d_head = d_merged[..., h * d:(h + 1) * d]
            d_attn = d_head @ v.swapaxes(-1, -2)
            d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
            d_bias += d_scores
            d_scores *= scale
            grads_in = (d_scores @ k, d_scores.swapaxes(-1, -2) @ q,
                        attn.swapaxes(-1, -2) @ d_head)
            for name, dz in zip(("wq", "wk", "wv"), grads_in):
                key = f"l{layer}.h{h}.{name}"
                dz = dz.reshape(-1, d)
                grads[key] += flat.T @ dz
                dx += dz @ prm[key].data.T
        return dx.reshape(x.shape)

    def predict(self, s_u):
        """Catalog logits s_u @ poi_table^T of a (B, d) batch of trajectory
        representations; the softmax of a row is its POI distribution."""
        logits = s_u @ self.params["poi_table"].data.T
        if not np.all(np.isfinite(logits)):
            raise NumericError("non-finite catalog logits")
        return logits


def log_softmax_nll(logits, targets, weight=1.0):
    """Mean over rows of -log softmax(logits)[i, targets[i]] for a (B, C)
    logit matrix, and `weight` times its gradient, (softmax - onehot) / B,
    both in the logits' dtype. The row max is subtracted before
    exponentiating, so the loss and its gradient stay finite and non-zero
    however far a target trails the best logit."""
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2 or targets.ndim != 1 or logits.shape[0] != targets.shape[0]:
        raise ShapeError(
            f"log_softmax_nll shape mismatch: logits {logits.shape}, targets {targets.shape}")
    rows = np.arange(targets.shape[0])
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, dtype=np.float64)
    nll = np.log(total) - shifted[rows, targets]
    grad = e / total[:, None]
    grad[rows, targets] -= 1.0
    # the weight is rounded to the logits' dtype before it is divided by B
    scale = np.asarray(weight, dtype=logits.dtype) / targets.shape[0]
    return (np.asarray(nll.mean(), dtype=logits.dtype),
            (grad * scale).astype(logits.dtype, copy=False))
