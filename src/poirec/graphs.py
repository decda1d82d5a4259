"""Local trajectory graphs, global temporal/spatial graphs and Haversine
distances."""

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
    """Pairwise `haversine` of (n, 2) and (m, 2) arrays of (lat, lon) degrees:
    entry [i, j] is the distance from coords[i] to other[j] (other defaults
    to coords); NaN coordinates give NaN."""
    rad = np.radians(coords)
    orad = rad if other is None else np.radians(other)
    s = np.sin((orad - rad[:, None]) / 2) ** 2  # [i, j] = sin^2 of (dphi, dlam) / 2
    a = s[..., 0] + np.cos(rad[:, 0])[:, None] * np.cos(orad[:, 0]) * s[..., 1]
    return 2 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(a, 1.0)))


def haversine_stack(coords):
    """(G, n, n) `haversine_matrix` of each of G (n, 2) coordinate sets in a
    (G, n, 2) array, by the same operations, so with the same bits."""
    rad = np.radians(coords)
    s = np.sin((rad[:, None] - rad[:, :, None]) / 2) ** 2
    cos = np.cos(rad[..., 0])
    a = s[..., 0] + cos[:, :, None] * cos[:, None] * s[..., 1]
    return 2 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(a, 1.0)))


@dataclass
class TrajectoryGraph:
    nodes: list  # unique poi_ids, first-visit order
    edges: set  # directed (i, j) poi_id pairs, includes one self-loop per node
    last_step: dict  # poi_id -> 1-based index of last occurrence; None = synthetic
    last_node: str
    seq_len: int

    def copy(self):
        return TrajectoryGraph(
            list(self.nodes), set(self.edges), dict(self.last_step),
            self.last_node, self.seq_len,
        )


def build_trajectory_graph(traj):
    """Convert a trajectory into a directed graph of its unique POIs.

    One edge per observed consecutive pair, plus a self-loop per node.
    """
    if len(traj) < 1:
        raise ValueError("empty trajectory")
    seq = traj.poi_ids()
    nodes = list(dict.fromkeys(seq))
    edges = {(p, p) for p in nodes} | set(zip(seq, seq[1:]))
    last_step = {p: t + 1 for t, p in enumerate(seq)}
    return TrajectoryGraph(nodes, edges, last_step, seq[-1], len(seq))


@dataclass
class GlobalTemporalGraph:
    nodes: list  # all poi_ids
    cooccurrence: dict  # unordered (i, j) pair -> consecutive-visit count
    neighbors: dict  # poi_id -> top-N neighbor poi_ids, descending count
    in_degree: dict  # poi_id -> number of unique predecessors (directed)
    out_degree: dict  # poi_id -> number of unique successors (directed)
    visits: dict  # poi_id -> total visit count


def build_global_temporal(trajs, n_neighbors, catalog=None):
    """Aggregate consecutive-pair co-occurrence over all trajectories
    (direction-ignored), keeping at most N neighbors per node by descending
    count, ties broken by ascending poi_id."""
    if n_neighbors < 1:
        raise ValueError("n_neighbors must be >= 1")
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
    return GlobalTemporalGraph(
        sorted(nodes), co, neighbors,
        {v: len(preds.get(v, ())) for v in nodes},
        {v: len(succs.get(v, ())) for v in nodes},
        {v: visits.get(v, 0) for v in nodes},
    )


@dataclass
class GlobalSpatialGraph:
    nodes: list  # all poi_ids
    edges: dict  # unordered (i, j) pair -> distance km, dist < alpha


def build_global_spatial(catalog, alpha_km):
    """Undirected proximity graph: edge iff haversine distance < alpha_km.

    Distances come from `haversine_matrix` over SPATIAL_BLOCK rows of the
    id-sorted catalog at a time, never the full P x P matrix. Its rounding
    differs from the scalar `haversine` in the last bits, so a pair within
    1e-9 km of alpha_km is decided by the scalar form; the edge set is the
    one a scalar scan gives.
    """
    if alpha_km <= 0:
        raise ValueError("alpha_km must be > 0")
    pois = sorted(catalog, key=lambda p: p.poi_id)
    ids = np.array([p.poi_id for p in pois], dtype=object)
    coords = np.array([(p.lat, p.lon) for p in pois], dtype=np.float64).reshape(-1, 2)
    edges = {}
    for lo in range(0, len(pois), SPATIAL_BLOCK):
        hi = min(lo + SPATIAL_BLOCK, len(pois))
        dist = haversine_matrix(coords[lo:hi], coords[lo:])
        upper = np.arange(lo, len(pois)) > np.arange(lo, hi)[:, None]  # a < b only
        near = upper & (np.abs(dist - alpha_km) < 1e-9)
        for i, j in zip(*np.nonzero(near)):
            a, b = pois[lo + i], pois[lo + j]
            dist[i, j] = haversine(a.lat, a.lon, b.lat, b.lon)
        rows, cols = np.nonzero(upper & (dist < alpha_km))
        edges.update(zip(zip(ids[rows + lo].tolist(), ids[cols + lo].tolist()),
                         dist[rows, cols].tolist()))
    return GlobalSpatialGraph(ids.tolist(), edges)


# -- serialization ---------------------------------------------------------


def save_temporal_graph(g, path):
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(f"temporal {len(g.nodes)} {len(g.cooccurrence)}\n")
        for (a, b) in sorted(g.cooccurrence):
            fh.write(f"{a}\t{b}\t{g.cooccurrence[(a, b)]}\n")


def save_spatial_graph(g, path):
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(f"spatial {len(g.nodes)} {len(g.edges)}\n")
        for (a, b) in sorted(g.edges):
            fh.write(f"{a}\t{b}\t{g.edges[(a, b)]:.6f}\n")
