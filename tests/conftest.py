import math
import zlib

import numpy as np
import pytest
from hypothesis import settings

from poirec.augment import (CorrelationIndex, correlated_insertion,
                            correlated_substitute, node_dropout)
from poirec.config import RunConfig
from poirec.data import CheckIn, Trajectory, build_catalog
from poirec.encoder import build_category_vocab, stack_graphs
from poirec.graphs import build_trajectory_graph
from poirec.pretrain import EmbeddingTable

# property tests draw the same examples on every run (derandomize implies no
# example database) and few enough of them to keep the suite fast
settings.register_profile("poirec", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("poirec")


def make_traj(poi_ids, user="u1", categories=None, t0=0.0, step=3600.0,
              coords=None):
    """Trajectory fixture: synthetic timestamps, grid coordinates (the same
    in every process: from a CRC of the poi_id, not its salted `hash`)."""
    checkins = []
    for i, p in enumerate(poi_ids):
        cat = categories[p] if categories else f"cat_{p}"
        lat, lon = coords[p] if coords else (10.0 + 0.01 * (zlib.crc32(p.encode()) % 7), 20.0)
        checkins.append(CheckIn(user, p, cat, t0 + i * step, lat, lon))
    return Trajectory(user, checkins)


def catalog_of(trajs):
    """The catalog, in poi_id order, of the POIs the trajectories visit."""
    return build_catalog([c for traj in trajs for c in traj.checkins])


def rows_of(poi_ids):
    """poi_id -> row of a catalog of the sorted distinct `poi_ids`."""
    return {p: i for i, p in enumerate(sorted(set(poi_ids)))}


def traj_graph(seq, ids=None, **kwargs):
    """The trajectory graph of `make_traj(seq, **kwargs)` over a catalog of
    the sorted `ids` (default: the POIs of `seq`)."""
    return build_trajectory_graph(make_traj(seq, **kwargs), rows_of(ids or seq))


def augmented_graphs(rng, count, cats=None):
    """`count` random trajectory graphs over a catalog of the sorted POIs of
    `cats` (poi_id -> category), each followed by its augmented copies: node
    dropout, insertion in both modes, substitution."""
    cats = cats or {f"p{i}": f"c{i % 3}" for i in range(30)}
    table = EmbeddingTable(sorted(cats),
                           rng.normal(size=(len(cats), 4)).astype(np.float32))
    index = CorrelationIndex(table, table, top=10)
    out = []
    for _ in range(count):
        seq = [f"p{i}" for i in rng.integers(0, 12, size=rng.integers(1, 16))]
        g = build_trajectory_graph(make_traj(seq, categories=cats), rows_of(cats))
        out.append(g)
        out.append(node_dropout(g, 0.4, rng))
        for mode in ("spatial", "temporal"):
            out.append(correlated_insertion(g, 2, index, mode, rng))
        out.append(correlated_substitute(g, 2, index, rng))
    return out


def row_coords(poi_ids, coords):
    """(rows, 2) (lat, lon) by catalog row from a poi_id -> (lat, lon) dict,
    NaN where it has none (every row for no dict)."""
    coords = coords or {}
    nan = (math.nan, math.nan)
    return np.array([coords.get(p, nan) for p in poi_ids], dtype=np.float64).reshape(-1, 2)


def stacks(graphs, poi_ids, coords=None):
    """`stack_graphs` over a catalog of the sorted `poi_ids`, with coordinates
    given as a poi_id -> (lat, lon) dict (all NaN without one)."""
    return stack_graphs(graphs, row_coords(poi_ids, coords))


def stacked(graphs, poi_ids, coords=None):
    """(hops, adj, geo) of each graph's master graph in input order, from one
    `stack_graphs` call; geo is all NaN without coordinates."""
    out = [None] * len(graphs)
    for st in stacks(graphs, poi_ids, coords):
        hops = st.hops
        for k, m in enumerate(st.members):
            out[m] = (hops[k], st.adj[k], st.geo[k])
    return out


def builder_plans(model, graphs, coords=None):
    """The plans of `graphs` from one builder call, with coordinates given as
    a poi_id -> (lat, lon) dict."""
    return model.plan_stacks(stacks(graphs, model.poi_ids, coords))


def category_vocab(graphs, cats):
    """`build_category_vocab` of `graphs` over a catalog of the POIs of
    `cats` (poi_id -> category)."""
    ids = sorted(cats)
    return build_category_vocab(stacks(graphs, ids), [cats[p] for p in ids])


@pytest.fixture
def tiny_config():
    return RunConfig(d=8, t_max=20, m_bins=4, degree_buckets=4,
                     batch_size=8, epochs=2, n_neighbors=5, walks_per_node=2,
                     walk_len=8, n2v_epochs=1, correlation_top=10, patience=10)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# one "CRITERION n: PASS/FAIL" line per acceptance test, printed after the
# run so pytest's output capture cannot swallow them
ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)
