"""Synthetic check-in datasets for smoke tests and acceptance runs."""

import numpy as np

from poirec.data import CheckIn, DatasetSplit, Poi, Trajectory

CATEGORIES = ("food", "shop", "park", "museum", "transport")


def synthetic_catalog(n_pois, lat0=40.0, lon0=-74.0, spacing_deg=0.01):
    """POIs on a square grid, ~1.1 km apart, cycling through 5 categories."""
    side = int(np.ceil(np.sqrt(n_pois)))
    pois = []
    for i in range(n_pois):
        pois.append(Poi(
            poi_id=f"p{i:03d}",
            category_id=CATEGORIES[i % len(CATEGORIES)],
            lat=lat0 + (i // side) * spacing_deg,
            lon=lon0 + (i % side) * spacing_deg,
        ))
    return pois


def markov_dataset(n_pois=50, n_traj=500, traj_len=8, seed=0, noise=0.0):
    """Trajectories following a fixed random POI-to-POI transition map.

    With noise=0 the next POI is a deterministic function of the current
    one, so an overfit model can reach HR@1 near 1. noise > 0 replaces each
    step with a uniform random POI at that probability (sparse/noisy proxy).
    """
    rng = np.random.default_rng(seed)
    catalog = synthetic_catalog(n_pois)
    ids = [p.poi_id for p in catalog]
    cats = {p.poi_id: p.category_id for p in catalog}
    coords = {p.poi_id: (p.lat, p.lon) for p in catalog}
    successor = rng.permutation(n_pois)  # deterministic Markov transition

    sessions = []
    for t in range(n_traj):
        cur = int(rng.integers(n_pois))
        seq = [cur]
        while len(seq) < traj_len:
            if noise > 0 and rng.random() < noise:
                cur = int(rng.integers(n_pois))
            else:
                cur = int(successor[cur])
            seq.append(cur)
        checkins = [
            CheckIn(f"u{t:04d}", ids[p], cats[ids[p]], 1_600_000_000 + t * 10_000 + i * 3600,
                    coords[ids[p]][0], coords[ids[p]][1])
            for i, p in enumerate(seq)
        ]
        sessions.append(Trajectory(f"u{t:04d}", checkins))
    return DatasetSplit(sessions, catalog)
