"""End-to-end acceptance checks. Each test records one PASS/FAIL line that
the terminal-summary hook in conftest prints after the run."""

import itertools
import math
import time

import numpy as np
import pytest

import conftest
import ops
from poirec.augment import (CorrelationIndex, correlated_insertion,
                            correlated_substitute, infonce, node_dropout)
from poirec.cli import main
from poirec.config import RunConfig
from poirec.data import Poi, catalog_rows, save_split
from poirec.encoder import GsanModel, attention_softmax, fit_distance_bins
from poirec.graphs import (TrajectoryGraph, build_global_temporal,
                           build_trajectory_graph, haversine)
from poirec.metrics import hit_rate, ndcg, rank_targets
from poirec.pretrain import EmbeddingTable
from poirec.training import BatchLoss, Trainer, pretrain_tables
from conftest import builder_plans, category_vocab, make_traj, rows_of, stacked, stacks
from gradcheck import grad_check
from synth import markov_dataset


def verdict(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"CRITERION {num:2d}: {tag}{suffix}"
    print(line, flush=True)
    conftest.ACCEPTANCE_VERDICTS.append(line)
    return ok


def random_traj_graph(rng, ids, n_pool=10, max_len=12):
    """The graph of a random walk over p0 .. p{n_pool - 1}, over a catalog
    of the sorted `ids`."""
    seq = [f"p{i}" for i in rng.integers(0, n_pool, size=rng.integers(2, max_len))]
    return build_trajectory_graph(make_traj(seq), rows_of(ids))


def test_criterion_1_gradient_integrity():
    """Full multi-task loss on a 6-node fixture passes finite differences."""
    start = time.time()
    cfg = RunConfig(d=4, t_max=16, m_bins=3, degree_buckets=3,
                    lam=0.1, gamma=1e-5, correlation_top=10)
    cats = ["food", "shop", "park"]
    catalog = [Poi(f"p{i}", cats[i % 3], 40.0 + 0.01 * i, -74.0 + 0.005 * i)
               for i in range(6)]
    cmap = {p.poi_id: p.category_id for p in catalog}
    coords = {p.poi_id: (p.lat, p.lon) for p in catalog}
    trajs = [make_traj(["p0", "p1", "p2", "p3", "p4", "p5"], categories=cmap,
                       coords=coords),
             make_traj(["p5", "p3", "p1", "p0"], categories=cmap, coords=coords)]
    row = catalog_rows(catalog)
    graphs = [build_trajectory_graph(t, row) for t in trajs]
    gt = build_global_temporal(trajs, 5, row)
    vocab = category_vocab(graphs, cmap)
    bins = fit_distance_bins(stacks(graphs, sorted(cmap), coords), cfg.m_bins)
    model = GsanModel(catalog, gt, vocab, bins, cfg,
                      np.random.default_rng(3), dtype=np.float64)

    # frozen augmented views so the loss is deterministic across FD probes
    rng = np.random.default_rng(7)
    table = EmbeddingTable([p.poi_id for p in catalog],
                           rng.normal(size=(6, 4)).astype(np.float32))
    index = CorrelationIndex(table, table, top=10)
    views = []
    for g in graphs:
        a = node_dropout(g, 0.4, rng)
        b = correlated_substitute(correlated_insertion(g, 1, index, "spatial", rng),
                                  1, index, rng)
        views.append((a, b))
    targets = [row["p4"], row["p2"]]
    # as in training: the samples, then view a and view b of each, in one call
    plans = builder_plans(model, graphs + [a for a, _ in views] + [b for _, b in views],
                          coords)

    def f():  # rec + lam * InfoNCE + L2, with the package's hand-written gradient
        return BatchLoss(model, plans, targets, cfg.lam, cfg.tau, cfg.gamma)

    errors = grad_check(f, model.params, eps=1e-5)
    worst = max(errors.values())
    elapsed = time.time() - start
    ok = worst <= 1e-4 and elapsed < 60
    assert verdict(1, ok, f"max rel err {worst:.2e}, {elapsed:.1f}s"), errors


def test_criterion_2_attention_normalization():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        n, d = int(rng.integers(2, 12)), int(rng.integers(2, 16))
        x = ops.Tensor(rng.normal(size=(n, d)))
        wq = ops.Tensor(rng.normal(size=(d, d)))
        wk = ops.Tensor(rng.normal(size=(d, d)))
        bias = ops.Tensor(rng.uniform(-50, 50, size=(n, n)))
        scores = ops.mul(ops.matmul(ops.matmul(x, wq), ops.matmul(x, wk).T),
                         1 / math.sqrt(d)) + bias
        sums = attention_softmax(scores.data).sum(axis=1)
        worst = max(worst, float(np.abs(sums - 1.0).max()))
    ok = worst <= 1e-6
    assert verdict(2, ok, f"max row-sum deviation {worst:.2e}")


def test_criterion_3_spd_matches_floyd_warshall():
    """The builder's hop counts equal Floyd-Warshall shortest paths over the
    base edges, direction ignored, plus the master node's edges."""
    rng = np.random.default_rng(23)
    graphs, pair_sets = [], []
    for _ in range(200):
        n = int(rng.integers(2, 21))
        nodes = list(range(n))
        pairs = {(nodes[i], nodes[j]) for i in range(n)
                 for j in range(i + 1, n) if rng.random() < 0.25}
        graphs.append(TrajectoryGraph(nodes, pairs | {(v, v) for v in nodes},
                                      [i + 1 for i in nodes], nodes[-1], n))
        pair_sets.append(pairs | {(v, "master") for v in nodes})
    mismatches = 0
    for g, pairs, (hops, _, _) in zip(graphs, pair_sets,
                                      stacked(graphs, [f"v{i}" for i in range(20)])):
        nodes = g.nodes + ["master"]
        INF = 10**9
        dist = {(a, b): 0 if a == b else INF for a in nodes for b in nodes}
        for (a, b) in pairs:
            dist[(a, b)] = dist[(b, a)] = 1
        for k, i, j in itertools.product(nodes, nodes, nodes):
            alt = dist[(i, k)] + dist[(k, j)]
            if alt < dist[(i, j)]:
                dist[(i, j)] = alt
        mismatches += sum(hops[a, b] != dist[(i, j)] for a, i in enumerate(nodes)
                          for b, j in enumerate(nodes))
    ok = mismatches == 0
    assert verdict(3, ok, f"{mismatches} mismatches over 200 graphs")


def test_criterion_4_haversine_analytic():
    quarter = haversine(0, 0, 0, 90)
    half = haversine(0, 0, 0, 180)
    sym = all(haversine(a, b, c, d) == haversine(c, d, a, b)
              for a, b, c, d in [(10, 20, -30, 40), (5, 5, 5, 6)])
    ok = (abs(quarter - 10007.5) <= 1.0 and abs(half - 20015.1) <= 1.0
          and sym and haversine(12.0, 34.0, 12.0, 34.0) == 0.0)
    assert verdict(4, ok, f"quarter {quarter:.1f} km, half {half:.1f} km")


def test_criterion_5_master_node_property():
    rng = np.random.default_rng(31)
    cats = {f"p{i}": f"c{i % 3}" for i in range(25)}
    table = EmbeddingTable(sorted(cats),
                           rng.normal(size=(len(cats), 4)).astype(np.float32))
    index = CorrelationIndex(table, table, top=10)
    graphs = []
    for _ in range(100):
        g = random_traj_graph(rng, cats)
        op = int(rng.integers(3))
        if op == 0:
            g = node_dropout(g, 0.4, rng)
        elif op == 1:
            g = correlated_insertion(g, 2, index,
                                     ("spatial", "temporal")[int(rng.integers(2))], rng)
        else:
            g = correlated_substitute(g, 2, index, rng)
        graphs.append(g)
    violations = 0
    for hops, _, _ in stacked(graphs, sorted(cats)):
        master = np.zeros(hops.shape, dtype=bool)
        master[-1, :] = master[:, -1] = True
        np.fill_diagonal(master, False)
        violations += int(((hops > 2) | (master & (hops != 1))).sum())
    ok = violations == 0
    assert verdict(5, ok, f"{violations} violations over 100 graphs")


def test_criterion_6_metric_oracle():
    fixtures = [  # (rank, k, hr, ndcg)
        (1, 1, 1.0, 1.0), (2, 1, 0.0, 0.0), (1, 10, 1.0, 1.0),
        (3, 10, 1.0, 0.5), (7, 10, 1.0, 1.0 / 3.0), (10, 10, 1.0, 1 / math.log2(11)),
        (11, 10, 0.0, 0.0), (15, 20, 1.0, 0.25), (31, 20, 0.0, 0.0),
        (1, 5, 1.0, 1.0), (3, 5, 1.0, 0.5), (6, 5, 0.0, 0.0),
        (5, 5, 1.0, 1 / math.log2(6)), (2, 5, 1.0, 1 / math.log2(3)),
        (4, 20, 1.0, 1 / math.log2(5)), (20, 20, 1.0, 1 / math.log2(21)),
        (21, 20, 0.0, 0.0), (100, 20, 0.0, 0.0), (2, 20, 1.0, 1 / math.log2(3)),
        (9, 10, 1.0, 1 / math.log2(10)),
    ]
    exact = all(hit_rate([r], k) == h and ndcg([r], k) == pytest.approx(n, abs=0)
                for r, k, h, n in fixtures)

    rng = np.random.default_rng(41)
    n_pois, trials, k = 50, 10_000, 10
    hits = 0
    for _ in range(trials):
        scores = rng.random(n_pois)
        target = int(rng.integers(n_pois))
        hits += rank_targets(scores[None, :], [target])[0] <= k
    p = k / n_pois
    sigma = math.sqrt(p * (1 - p) / trials)
    dev = abs(hits / trials - p)
    ok = exact and dev <= 3 * sigma
    assert verdict(6, ok, f"fixtures exact={exact}, null dev {dev:.4f} "
                          f"vs 3 sigma {3 * sigma:.4f}")


def test_criterion_7_infonce_closed_forms():
    two = np.eye(2)
    sep = infonce(two, two)[0].item()
    target = -math.log(math.e / (math.e + 1.0))

    same = np.ones((5, 4))
    collapsed = infonce(same, same)[0].item()

    rng = np.random.default_rng(53)
    negative = 0
    for _ in range(1000):
        b, d = int(rng.integers(2, 9)), int(rng.integers(2, 8))
        batch_a = rng.normal(size=(b, d))
        batch_b = rng.normal(size=(b, d))
        if infonce(batch_a, batch_b)[0].item() < 0:
            negative += 1
    ok = (abs(sep - target) <= 1e-6 and abs(collapsed - math.log(5)) <= 1e-6
          and negative == 0)
    assert verdict(7, ok, f"B=2 {sep:.6f} vs {target:.6f}, "
                          f"lnB dev {abs(collapsed - math.log(5)):.1e}, "
                          f"{negative} negative losses")


def test_criterion_8_synthetic_overfit():
    start = time.time()
    split = markov_dataset(n_pois=50, n_traj=500, traj_len=8, seed=0)
    split.val = []  # stopping handled below on the held-out last steps
    cfg = RunConfig(d=32, t_max=20, m_bins=8, degree_buckets=8, batch_size=32,
                    lr=0.01, lam=0.0, epochs=200, n_neighbors=10,
                    walks_per_node=4, walk_len=10, n2v_epochs=2)
    tables = pretrain_tables(split, cfg)
    trainer = Trainer(split, cfg, *tables)
    hr1, epochs_used = 0.0, 0
    for _ in range(cfg.epochs):
        trainer.train_epoch()
        epochs_used = trainer.epoch
        hr1 = trainer.evaluate(split.test).hr[1]
        if hr1 >= 0.9 or time.time() - start > 540:
            break
    elapsed = time.time() - start
    ok = hr1 >= 0.9 and epochs_used <= 200 and elapsed < 600
    assert verdict(8, ok, f"HR@1 {hr1:.3f} after {epochs_used} epochs, "
                          f"{elapsed:.0f}s")


def test_criterion_9_augmentation_safety():
    rng = np.random.default_rng(61)
    pool = 10
    catalog_ids = {f"p{i}" for i in range(pool + 10)}
    catalog_row_set = set(range(len(catalog_ids)))
    table = EmbeddingTable(sorted(catalog_ids),
                           rng.normal(size=(len(catalog_ids), 4)).astype(np.float32))
    index = CorrelationIndex(table, table, top=10)
    bad, safe = 0, []
    for trial in range(10_000):
        g = random_traj_graph(rng, catalog_ids, n_pool=pool)
        op = trial % 3
        if op == 0:
            out = node_dropout(g, 0.4, rng)
        elif op == 1:
            out = correlated_insertion(g, 2, index, ("spatial", "temporal")[trial % 2], rng)
        else:
            out = correlated_substitute(g, 2, index, rng)
        if out.last_node in out.nodes and set(out.nodes) <= catalog_row_set:
            safe.append(out)
        else:
            bad += 1
    # connectivity, edge direction ignored, from the builder's adjacency
    for st in stacks(safe, sorted(catalog_ids)):
        bad += int((~connected(st.adj[:, :-1, :-1])).sum())

    g = random_traj_graph(rng, catalog_ids, n_pool=pool)
    ident_drop = node_dropout(g, 0.0, rng)
    ident_ins = correlated_insertion(g, 0, index, "spatial", rng)
    identities = (ident_drop.nodes == g.nodes and ident_drop.edges == g.edges
                  and ident_ins.nodes == g.nodes and ident_ins.edges == g.edges)
    ok = bad == 0 and identities
    assert verdict(9, ok, f"{bad} unsafe outputs / 10000, identities={identities}")


def connected(adj):
    """Whether the graph of each (n, n) adjacency of a (G, n, n) stack is one
    component: reachability by repeated squaring."""
    reach = (adj | np.eye(adj.shape[-1], dtype=bool)).astype(np.float32)
    for _ in range((adj.shape[-1] - 1).bit_length()):  # paths of n - 1 edges
        reach = (reach @ reach > 0).astype(np.float32)
    return (reach[:, 0] > 0).all(axis=-1)


def test_criterion_10_ssl_benefit_soft():
    """Soft criterion: SSL on noisy sparse data should match or beat the
    lam=0 ablation in >= 3 of 5 seeds. Reported, never fatal."""
    start = time.time()
    wins = 0
    results = []
    for seed in range(5):
        split = markov_dataset(n_pois=30, n_traj=120, traj_len=6,
                               seed=100 + seed, noise=0.25)
        base = RunConfig(d=16, t_max=20, m_bins=6, degree_buckets=6,
                         batch_size=16, lr=0.01, epochs=6, patience=10,
                         n_neighbors=10, walks_per_node=3, walk_len=8,
                         n2v_epochs=1, correlation_top=10, seed=seed)
        scores = {}
        for lam in (base.lam, 0.0):
            cfg = base.override(lam=lam)
            tables = pretrain_tables(split, cfg)
            trainer = Trainer(split, cfg, *tables)
            trainer.fit()
            scores[lam] = trainer.evaluate(split.val, split_name="val").hr[10]
        wins += scores[base.lam] >= scores[0.0]
        results.append((seed, scores[base.lam], scores[0.0]))
    detail = ", ".join(f"s{s}: {a:.2f} vs {b:.2f}" for s, a, b in results)
    ok = wins >= 3
    verdict(10, ok, f"soft, {wins}/5 seeds, {detail}, "
                    f"{time.time() - start:.0f}s")
    if not ok:
        conftest.ACCEPTANCE_VERDICTS.append(
            "criterion 10 is soft: recorded as a warning only")


def test_criterion_11_determinism(tmp_path):
    data = tmp_path / "data"
    save_split(markov_dataset(n_pois=12, n_traj=25, traj_len=5, seed=4), data)
    flags = ["--d", "8", "--t-max", "20", "--m-bins", "4",
             "--degree-buckets", "4", "--batch-size", "8", "--n-neighbors", "5",
             "--from-scratch", "--lam", "0.1", "--correlation-top", "5",
             "--patience", "50"]

    blobs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        assert main(["train", "--data", str(data), "--out", str(out),
                     "--epochs", "2"] + flags) == 0
        blobs.append((out / "checkpoint.bin").read_bytes())
    identical = blobs[0] == blobs[1]

    # resume after an interruption must land exactly where a straight run does
    part = tmp_path / "run_part"
    assert main(["train", "--data", str(data), "--out", str(part),
                 "--epochs", "1"] + flags) == 0
    assert main(["train", "--data", str(data), "--out", str(part),
                 "--epochs", "2", "--resume"] + flags) == 0
    resumed = (part / "checkpoint.bin").read_bytes()
    ok = identical and resumed == blobs[0]
    assert verdict(11, ok, f"twin runs identical={identical}, "
                           f"resume identical={resumed == blobs[0]}")
