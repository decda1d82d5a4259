import numpy as np
import pytest
from hypothesis import settings

from poirec.augment import (CorrelationIndex, correlated_insertion,
                            correlated_substitute, node_dropout)
from poirec.config import RunConfig
from poirec.data import CheckIn, Trajectory
from poirec.graphs import build_trajectory_graph
from poirec.pretrain import EmbeddingTable

# property tests draw the same examples on every run (derandomize implies no
# example database) and few enough of them to keep the suite fast
settings.register_profile("poirec", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("poirec")


def make_traj(poi_ids, user="u1", categories=None, t0=0.0, step=3600.0,
              coords=None):
    """Trajectory fixture: synthetic timestamps, grid coordinates."""
    checkins = []
    for i, p in enumerate(poi_ids):
        cat = categories[p] if categories else f"cat_{p}"
        lat, lon = coords[p] if coords else (10.0 + 0.01 * (hash(p) % 7), 20.0)
        checkins.append(CheckIn(user, p, cat, t0 + i * step, lat, lon))
    return Trajectory(user, checkins)


def augmented_graphs(rng, count, cats=None):
    """`count` random trajectory graphs, each followed by its augmented
    copies: node dropout, insertion in both modes, substitution."""
    cats = cats or {f"p{i}": f"c{i % 3}" for i in range(30)}
    table = EmbeddingTable(sorted(cats),
                           rng.normal(size=(len(cats), 4)).astype(np.float32))
    index = CorrelationIndex(table, table, top=10)
    out = []
    for _ in range(count):
        seq = [f"p{i}" for i in rng.integers(0, 12, size=rng.integers(1, 16))]
        g = build_trajectory_graph(make_traj(seq, categories=cats))
        out.append(g)
        out.append(node_dropout(g, 0.4, rng))
        for mode in ("spatial", "temporal"):
            out.append(correlated_insertion(g, 2, index, mode, rng, cats))
        out.append(correlated_substitute(g, 2, index, rng, cats))
    return out


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
