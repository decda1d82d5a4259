"""Local trajectory graphs, global temporal/spatial graphs over catalog rows
and Haversine distances."""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EARTH_RADIUS_KM = 6371.0
SPATIAL_BLOCK = 64  # catalog rows per distance block of the spatial graph


def haversine(lat1, lon1, lat2, lon2):
    """Great-circle distance in km (Earth radius 6371.0 km)."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


def haversine_matrix(coords, other=None):
    """Pairwise `haversine` over the last two axes: (..., n, 2) and (..., m, 2)
    arrays of (lat, lon) degrees give (..., n, m), entry [..., i, j] the
    distance from coords[..., i] to other[..., j] (other defaults to coords).
    Leading axes broadcast, and every slice has the bits of its own call;
    NaN coordinates give NaN."""
    rad = np.radians(coords)
    orad = rad if other is None else np.radians(other)
    # [..., i, j] = sin^2 of (dphi, dlam) / 2
    s = np.sin((orad[..., None, :, :] - rad[..., :, None, :]) / 2) ** 2
    cos, ocos = np.cos(rad[..., 0]), np.cos(orad[..., 0])
    a = s[..., 0] + cos[..., :, None] * ocos[..., None, :] * s[..., 1]
    return 2 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(a, 1.0)))


@dataclass
class TrajectoryGraph:
    nodes: list  # unique catalog rows, first-visit order
    edges: set  # directed (i, j) row pairs, includes one self-loop per node
    last_step: list  # per node the 1-based index of its last occurrence; 0 = synthetic
    last_node: int  # row of the last check-in
    seq_len: int

    def copy(self):
        return TrajectoryGraph(
            list(self.nodes), set(self.edges), list(self.last_step),
            self.last_node, self.seq_len,
        )


def build_trajectory_graph(traj, row):
    """Convert a trajectory into a directed graph of its unique POIs, as the
    catalog rows `row` (poi_id -> row) gives them.

    One edge per observed consecutive pair, plus a self-loop per node.
    """
    if len(traj) < 1:
        raise ValueError("empty trajectory")
    seq = [row[p] for p in traj.poi_ids()]
    last = {p: t + 1 for t, p in enumerate(seq)}  # keys in first-visit order
    edges = {(p, p) for p in last} | set(zip(seq, seq[1:]))
    return TrajectoryGraph(list(last), edges, list(last.values()), seq[-1], len(seq))


def sorted_distinct(codes):
    """Distinct values of a non-negative int array, ascending, and how often
    each occurs, by a sort and a diff mask (`np.unique` hashes: slower here)."""
    codes = np.sort(codes)
    starts = np.flatnonzero(np.diff(codes, prepend=-1))
    return codes[starts], np.diff(starts, append=len(codes))


@dataclass
class GlobalTemporalGraph:
    """Consecutive visits of the training trajectories, by catalog row."""

    nodes: list  # poi_id of each catalog row
    pairs: np.ndarray  # (C, 2) rows a < b visited one after the other, ascending
    counts: np.ndarray  # (C,) consecutive visits of each pair, either direction
    # (K, 2) (src, dst) rows: the top-N dst of each src by descending count,
    # ties by ascending row; src ascending
    neighbors: np.ndarray
    in_degree: np.ndarray  # (P,) distinct predecessors of each row
    out_degree: np.ndarray  # (P,) distinct successors of each row
    visits: np.ndarray  # (P,) visits of each row


def build_global_temporal(trajs, n_neighbors, row):
    """Aggregate consecutive-pair co-occurrence over all trajectories
    (direction-ignored), keeping at most N >= 1 neighbors per node by
    descending count, ties broken by ascending row (ascending poi_id). `row`
    maps the poi_id of every catalog POI to its row, in row order; every
    visited POI must be in it."""
    nodes = list(row)
    n = len(nodes)
    seq = np.array([row[c.poi_id] for traj in trajs for c in traj.checkins], dtype=np.int64)
    owner = np.repeat(np.arange(len(trajs)), np.array([len(t) for t in trajs], dtype=np.int64))
    step = (owner[1:] == owner[:-1]) & (seq[1:] != seq[:-1])
    src, dst = seq[:-1][step], seq[1:][step]
    links, _ = sorted_distinct(src * n + dst)
    codes, counts = sorted_distinct(np.minimum(src, dst) * n + np.maximum(src, dst))
    pairs = np.stack(np.divmod(codes, n), axis=1)
    # both directions of every pair, ranked per src
    a, b = pairs.T
    src, dst, both = np.r_[a, b], np.r_[b, a], np.r_[counts, counts]
    order = np.lexsort((dst, -both, src))
    src, dst = src[order], dst[order]
    keep = np.arange(len(src)) - np.searchsorted(src, src) < n_neighbors
    return GlobalTemporalGraph(
        nodes, pairs, counts, np.stack([src[keep], dst[keep]], axis=1),
        np.bincount(links % n, minlength=n), np.bincount(links // n, minlength=n),
        np.bincount(seq, minlength=n),
    )


@dataclass
class GlobalSpatialGraph:
    nodes: list  # poi_id of each catalog row
    edges: np.ndarray  # (E, 2) rows a < b closer than alpha_km, ascending
    km: np.ndarray  # (E,) distance of each edge


def build_global_spatial(catalog, alpha_km):
    """Undirected proximity graph: edge iff haversine distance < alpha_km (> 0).

    Distances come from `haversine_matrix` over SPATIAL_BLOCK catalog rows
    at a time, never the full P x P matrix. Its rounding differs from the
    scalar `haversine` in the last bits, so a pair within 1e-9 km of
    alpha_km is decided by the scalar form; the edge set is the one a scalar
    scan gives.
    """
    coords = np.array([(p.lat, p.lon) for p in catalog], dtype=np.float64).reshape(-1, 2)
    n = len(coords)
    edges, km = [np.empty((0, 2), dtype=np.int64)], [np.empty(0)]
    for lo in range(0, n, SPATIAL_BLOCK):
        hi = min(lo + SPATIAL_BLOCK, n)
        dist = haversine_matrix(coords[lo:hi], coords[lo:])
        upper = np.arange(lo, n) > np.arange(lo, hi)[:, None]  # a < b only
        near = upper & (np.abs(dist - alpha_km) < 1e-9)
        for i, j in zip(*np.nonzero(near)):
            a, b = catalog[lo + i], catalog[lo + j]
            dist[i, j] = haversine(a.lat, a.lon, b.lat, b.lon)
        rows, cols = np.nonzero(upper & (dist < alpha_km))
        edges.append(np.stack([rows + lo, cols + lo], axis=1))
        km.append(dist[rows, cols])
    return GlobalSpatialGraph([p.poi_id for p in catalog], np.concatenate(edges),
                              np.concatenate(km))


# -- serialization ---------------------------------------------------------


def save_temporal_graph(g, path):
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(f"temporal {len(g.nodes)} {len(g.counts)}\n")
        for (a, b), count in zip(g.pairs.tolist(), g.counts.tolist()):
            fh.write(f"{g.nodes[a]}\t{g.nodes[b]}\t{count}\n")


def save_spatial_graph(g, path):
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(f"spatial {len(g.nodes)} {len(g.edges)}\n")
        for (a, b), km in zip(g.edges.tolist(), g.km.tolist()):
            fh.write(f"{g.nodes[a]}\t{g.nodes[b]}\t{km:.6f}\n")
