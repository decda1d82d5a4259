"""node2vec pretraining of spatial/temporal POI embeddings and their fusion."""

import bisect
import logging
import struct
import time
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .graphs import sorted_distinct

log = logging.getLogger(__name__)

TABLE_MAGIC = b"PEMB"
TABLE_VERSION = 1
SKIPGRAM_BLOCK = 4096  # updates whose negatives are drawn in one call


@dataclass
class EmbeddingTable:
    ids: list  # row index -> poi_id
    vectors: np.ndarray  # (rows, d) float32

    @property
    def dim(self):
        return self.vectors.shape[1]


def random_walks(adjacency, walks_per_node, walk_len, p, q, rng):
    """Second-order biased walks per the node2vec transition rule.

    adjacency: the sorted neighbour rows of each row (see `adjacency`);
    walks start from every row in ascending order. Isolated rows yield
    length-1 walks. Return-parameter p and in-out parameter q reweight
    transitions by the previous step: 1/p back to it, 1 to its neighbors,
    1/q elsewhere.

    Each transition CDF is built once and cached: per neighbour count when
    p = q = 1 (every weight is then 1), else per (previous, current) pair.
    A step draws one uniform and bisects the CDF, which is what
    `Generator.choice(len(nbrs), p=weights)` does, so walks and the rng
    stream equal those of a per-step `choice`.
    """
    if walk_len < 2:
        raise ValueError("walk_len must be >= 2")
    if p <= 0 or q <= 0:
        raise ValueError("p and q must be > 0")
    first_order = p == 1 and q == 1
    cdfs = {}
    walks = []
    for _ in range(walks_per_node):
        for start in range(len(adjacency)):
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
                    key = len(nbrs) if first_order else (prev, cur)
                    cdf = cdfs.get(key)
                    if cdf is None:
                        cdf = cdfs[key] = _transition_cdf(nbrs, prev, set(adjacency[prev]), p, q)
                    nxt = nbrs[bisect.bisect_right(cdf, rng.random())]
                walk.append(nxt)
            walks.append(walk)
    return walks


def _transition_cdf(nbrs, prev, prev_nbrs, p, q):
    """CDF over nbrs of the step after prev, as a list: normalized weights,
    cumulated and divided by the last entry, the same float ops as
    `Generator.choice`."""
    weights = np.array([1.0 / p if x == prev else 1.0 if x in prev_nbrs else 1.0 / q
                        for x in nbrs])
    weights /= weights.sum()
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _window_pairs(length, window):
    """Skip-gram (center, context) updates of one walk of `length` tokens:
    ordered pairs of distinct positions at most `window` apart."""
    span = max(0, min(window, length - 1))
    return span * (2 * length - span - 1)


def train_skipgram(walks, ids, dim, window=5, negatives=5, epochs=5,
                   lr=0.025, rng=None):
    """Skip-gram with negative sampling over walks of rows; `ids` names the
    poi_id of each row of the returned table, and dim and window are >= 1.

    Negative distribution is the unigram count over walk tokens raised to
    0.75. Nodes absent from every walk keep their random initialization.

    Plain per-pair SGD: one update per (center, context) pair, in walk
    order, with the learning rate decayed linearly per center token. The
    negatives of a block of updates are drawn in one call against one noise
    CDF, as `Generator.choice(n, size=negatives, p=noise)` per update would
    draw them, so tables and the final rng state equal the per-update form.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    ids = list(ids)
    n = len(ids)
    w_in = ((rng.random((n, dim)) - 0.5) / dim).astype(np.float32)
    w_out = np.zeros((n, dim), dtype=np.float32)

    tokens = np.fromiter(chain.from_iterable(walks), dtype=np.int64)
    counts = np.bincount(tokens, minlength=n).astype(np.float64)
    if counts.sum() == 0:
        log.warning("empty walk corpus; returning zero-initialized table")
        return EmbeddingTable(ids, np.zeros((n, dim), dtype=np.float32))

    noise = counts**0.75
    noise /= noise.sum()
    cdf = noise.cumsum()
    cdf /= cdf[-1]

    # token position -> [first, end) of its walk; a context never leaves it
    lengths = np.array([len(walk) for walk in walks])
    first = np.repeat(np.cumsum(lengths) - lengths, lengths)
    end = first + np.repeat(lengths, lengths)
    span = min(window, int(lengths.max()) - 1)
    offsets = np.r_[-span:0, 1:span + 1]
    block = max(1, SKIPGRAM_BLOCK // max(1, len(offsets)))

    labels = np.zeros(negatives + 1, dtype=np.float32)
    labels[0] = 1.0
    total_steps = max(1, epochs * len(tokens))
    for epoch in range(epochs):
        for lo in range(0, len(tokens), block):
            pos = np.arange(lo, min(lo + block, len(tokens)))
            ctx = pos[:, None] + offsets
            rows, cols = np.nonzero((ctx >= first[pos, None]) & (ctx < end[pos, None]))
            centers = tokens[pos[rows]]
            targets = np.empty((len(rows), negatives + 1), dtype=np.int64)
            targets[:, 0] = tokens[ctx[rows, cols]]
            targets[:, 1:] = cdf.searchsorted(rng.random((len(rows), negatives)), side="right")
            ordered = np.sort(targets, axis=1)
            repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
            steps = epoch * len(tokens) + pos[rows]
            rates = lr * np.maximum(1e-4, 1.0 - steps / total_steps)
            # Python floats keep `err *= rate` in float32; a float64 scalar would not
            for center, target, rate, repeat in zip(centers.tolist(), targets,
                                                    rates.tolist(), repeats.tolist()):
                # err = (labels - sigmoid(vt @ vc)) * rate, in place; vc is a
                # view of the center's row, so `vc +=` updates w_in
                vc = w_in[center]
                vt = w_out.take(target, axis=0)
                err = np.exp(-vt @ vc)
                err += 1.0
                np.divide(1.0, err, out=err)
                np.subtract(labels, err, out=err)
                err *= rate
                grad_c = err @ vt
                step = np.multiply.outer(err, vc)
                if repeat:  # a fancy += would keep one add per repeated row
                    np.add.at(w_out, target, step)
                else:
                    step += vt
                    w_out[target] = step
                vc += grad_c
    return EmbeddingTable(ids, w_in)


class Node2vecRun(NamedTuple):
    """What one `node2vec_embed` call did: the numbers of its log line."""
    walk_tokens: int
    updates: int  # skip-gram updates over all epochs
    walks_s: float
    skipgram_s: float

    def log(self, name):
        """Log the run as one INFO line, tagged with the graph's `name`."""
        log.info("node2vec %s: %d walk tokens, %d skip-gram updates, "
                 "walks %.3f s, skip-gram %.3f s", name, *self)


def node2vec_embed(adjacency, ids, dim, walks_per_node=10, walk_len=40,
                   p=1.0, q=1.0, window=5, negatives=5, epochs=5, lr=0.025,
                   rng=None):
    """Walks + skip-gram in one call; returns the table and its `Node2vecRun`."""
    rng = rng if rng is not None else np.random.default_rng(0)
    start = time.perf_counter()
    walks = random_walks(adjacency, walks_per_node, walk_len, p, q, rng)
    walked = time.perf_counter()
    table = train_skipgram(walks, ids, dim, window=window,
                           negatives=negatives, epochs=epochs, lr=lr, rng=rng)
    return table, Node2vecRun(sum(map(len, walks)),
                              epochs * sum(_window_pairs(len(w), window) for w in walks),
                              walked - start, time.perf_counter() - walked)


def fuse_embeddings(spatial, temporal):
    """Element-wise sum of the two pretrained tables."""
    if spatial.dim != temporal.dim:
        raise ValueError(f"dimension mismatch: {spatial.dim} vs {temporal.dim}")
    if spatial.ids != temporal.ids:
        raise ValueError("embedding tables cover different POI sets")
    return EmbeddingTable(list(spatial.ids), spatial.vectors + temporal.vectors)


def adjacency(src, dst, n):
    """The sorted neighbour rows of each of n rows in the undirected graph
    with an edge src[k] - dst[k] for each k: both directions of every edge
    as integer codes row * n + column, sorted and deduplicated."""
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    if len(src) and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
        raise ValueError(f"edge ends must be rows 0..{n - 1}")
    codes, _ = sorted_distinct(np.concatenate([src * n + dst, dst * n + src]))
    nbrs = (codes % n).tolist()
    bounds = np.searchsorted(codes // n, np.arange(n + 1)).tolist()
    return [nbrs[bounds[i]:bounds[i + 1]] for i in range(n)]


# -- persistence -----------------------------------------------------------


def save_table(table, path):
    """Binary layout: magic, u32 version, u32 rows, u32 dim, then rows of
    little-endian float32; row->poi_id mapping in a sidecar text file."""
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(TABLE_MAGIC)
        fh.write(struct.pack("<III", TABLE_VERSION, len(table.ids), table.dim))
        fh.write(np.ascontiguousarray(table.vectors, dtype="<f4").tobytes())
    with path.with_suffix(path.suffix + ".ids").open("w", encoding="utf-8") as fh:
        for i, pid in enumerate(table.ids):
            fh.write(f"{i}\t{pid}\n")


def load_table(path):
    """Inverse of `save_table`. Raises ValueError unless the file holds
    exactly its header's rows x dim vectors and the sidecar names each row
    0..rows-1 once, with unique poi_ids."""
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] != TABLE_MAGIC:
        raise ValueError(f"{path}: bad embedding table magic: {blob[:4]!r}")
    if len(blob) < 16:
        raise ValueError(f"{path}: truncated header ({len(blob)} bytes)")
    version, rows, dim = struct.unpack("<III", blob[4:16])
    if version != TABLE_VERSION:
        raise ValueError(f"{path}: embedding table version {version}, expected {TABLE_VERSION}")
    if len(blob) != 16 + rows * dim * 4:
        raise ValueError(f"{path}: {len(blob)} bytes, expected {16 + rows * dim * 4} "
                         f"for {rows} x {dim} float32 vectors")
    vectors = np.frombuffer(blob, dtype="<f4", offset=16).reshape(rows, dim).copy()
    sidecar = path.with_suffix(path.suffix + ".ids")
    ids = [None] * rows
    with sidecar.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            row, sep, pid = line.rstrip("\n").partition("\t")
            if not sep or not row.isdigit() or int(row) >= rows or ids[int(row)] is not None:
                raise ValueError(f"{sidecar}:{lineno}: expected a new row index "
                                 f"below {rows}, a tab and a poi_id; got {line!r}")
            ids[int(row)] = pid
    if None in ids:
        raise ValueError(f"{sidecar}: no poi_id for row {ids.index(None)} of {rows}")
    if len(set(ids)) != rows:
        raise ValueError(f"{sidecar}: duplicate poi_ids")
    return EmbeddingTable(ids, vectors)
