import logging

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from poirec import pretrain
from poirec.config import RngHub, RunConfig
from poirec.data import Poi, catalog_rows
from poirec.graphs import build_global_spatial, build_global_temporal
from poirec.pretrain import (EmbeddingTable, adjacency, fuse_embeddings,
                             load_table, node2vec_embed, random_walks,
                             save_table, train_skipgram)
from poirec.training import pretrain_tables
from conftest import make_traj
from synth import markov_dataset


def two_cliques(size=4):
    """Two disconnected cliques: {a0..}, {b0..}."""
    names = [f"a{i}" for i in range(size)] + [f"b{i}" for i in range(size)]
    adj = {}
    for prefix in "ab":
        group = [n for n in names if n.startswith(prefix)]
        for n in group:
            adj[n] = sorted(x for x in group if x != n)
    return adj, names


def random_graph(rng, n, density, isolated):
    """Undirected graph on n nodes; the first `isolated` nodes have no edge."""
    names = [f"v{i}" for i in range(n)]
    adj = {v: [] for v in names}
    for i in range(isolated, n):
        for j in range(i + 1, n):
            if rng.random() < density:
                adj[names[i]].append(names[j])
                adj[names[j]].append(names[i])
    return {v: sorted(nbrs) for v, nbrs in adj.items()}, names


def as_rows(adj, nodes=None):
    """(ids, row adjacency) of a {node: sorted neighbours} dict: rows are the
    sorted `nodes` (default: the dict's keys), and the dict's nodes must be
    the first of them."""
    ids = sorted(adj if nodes is None else nodes)
    assert sorted(adj) == ids[:len(adj)]
    row = {v: i for i, v in enumerate(ids)}
    return ids, [[row[u] for u in adj[v]] for v in ids[:len(adj)]]


def walks_by_id(adj, *args):
    """`random_walks` over the rows of a {node: sorted neighbours} dict,
    with each row named by its node again."""
    ids, rows = as_rows(adj)
    return [[ids[r] for r in walk] for walk in random_walks(rows, *args)]


def embed_by_id(adj, **kwargs):
    """{node: vector} of `node2vec_embed` over the rows of a {node: sorted
    neighbours} dict."""
    ids, rows = as_rows(adj)
    table = node2vec_embed(rows, ids, **kwargs)
    return dict(zip(table.ids, table.vectors))


def assert_matches_oracle(adj, nodes, walks_per_node, walk_len, p, q, seed,
                          **skipgram):
    """Walks and skip-gram over rows equal the per-step / per-update oracles
    over poi_ids: the same walks once rows are named, a byte-equal table,
    the same rng state after each part."""
    ids, rows = as_rows(adj, nodes)
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ref_walks = oracles.random_walks(adj, walks_per_node, walk_len, p, q, ref_rng)
    walks = random_walks(rows, walks_per_node, walk_len, p, q, rng)
    named = [[ids[r] for r in walk] for walk in walks]
    assert named == ref_walks
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    ref = oracles.train_skipgram(ref_walks, nodes, rng=ref_rng, **skipgram)
    table = train_skipgram(walks, ids, rng=rng, **skipgram)
    assert table.ids == ref.ids
    assert table.vectors.dtype == np.float32
    assert table.vectors.tobytes() == ref.vectors.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return named


def oracle_pretrain(split, cfg):
    """`pretrain_tables` with the oracle graphs keyed by poi_id, walks,
    skip-gram and spatial scan."""
    hub = RngHub(cfg.seed)
    nodes = [p.poi_id for p in split.catalog]
    spatial = oracles.global_spatial_edges(split.catalog, cfg.alpha_km)
    gt = oracles.global_temporal(split.train, cfg.n_neighbors, catalog=split.catalog)
    tables, corpora = {}, {}
    for name, adj in (("temporal", oracles.temporal_adjacency(gt)),
                      ("spatial", oracles.undirected_adjacency(nodes, spatial))):
        rng = hub.stream(f"pretrain.{name}")
        walks = oracles.random_walks(adj, cfg.walks_per_node, cfg.walk_len,
                                     cfg.n2v_p, cfg.n2v_q, rng)
        tables[name] = oracles.train_skipgram(
            walks, nodes, cfg.d, window=cfg.n2v_window, negatives=cfg.n2v_negatives,
            epochs=cfg.n2v_epochs, lr=cfg.n2v_lr, rng=rng)
        corpora[name] = walks
    return tables, corpora


class TestWalks:
    def test_single_edge_forced_walk(self):
        adj = {"a": ["b"], "b": ["a"]}
        walks = walks_by_id(adj, 1, 3, 1, 1, np.random.default_rng(0))
        assert ["a", "b", "a"] in walks and ["b", "a", "b"] in walks

    def test_walks_respect_adjacency(self, rng):
        adj, _ = two_cliques()
        walks = walks_by_id(adj, 3, 10, 0.5, 2.0, rng)
        for walk in walks:
            for a, b in zip(walk, walk[1:]):
                assert b in adj[a]

    def test_isolated_node_yields_length_one(self):
        adj = {"a": ["b"], "b": ["a"], "lonely": []}
        walks = walks_by_id(adj, 1, 5, 1, 1, np.random.default_rng(0))
        assert ["lonely"] in walks

    def test_p_q_one_is_uniform(self):
        # star center: second step from a leaf returns to center or stays put
        adj = {"c": ["l0", "l1", "l2", "l3"],
               "l0": ["c"], "l1": ["c"], "l2": ["c"], "l3": ["c"]}
        walks = walks_by_id(adj, 400, 2, 1, 1, np.random.default_rng(7))
        first_from_center = [w[1] for w in walks if w[0] == "c"]
        counts = {l: first_from_center.count(l) for l in adj["c"]}
        assert all(abs(c / len(first_from_center) - 0.25) < 0.07
                   for c in counts.values())

    def test_bias_parameters_shift_transitions(self):
        # triangle a-b-c plus pendant d on b: from walk a->b, high p and low q
        # favors the far node d over returning to a
        adj = {"a": ["b", "c"], "b": ["a", "c", "d"], "c": ["a", "b"], "d": ["b"]}
        rng = np.random.default_rng(3)
        walks = walks_by_id(adj, 500, 3, 100.0, 0.01, rng)
        thirds = [w[2] for w in walks if w[:2] == ["a", "b"] and len(w) > 2]
        assert thirds.count("d") > thirds.count("a")

    def test_deterministic_given_seed(self):
        adj, _ = two_cliques()
        w1 = walks_by_id(adj, 2, 6, 1, 1, np.random.default_rng(42))
        w2 = walks_by_id(adj, 2, 6, 1, 1, np.random.default_rng(42))
        assert w1 == w2

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            random_walks([], 1, 1, 1, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            random_walks([], 1, 5, 0, 1, np.random.default_rng(0))


class TestSkipGram:
    def test_cliques_separate(self):
        adj, _ = two_cliques()
        rng = np.random.default_rng(11)
        vec = embed_by_id(adj, dim=16, walks_per_node=8, walk_len=10, epochs=4, rng=rng)

        def cos(u, v):
            a, b = vec[u], vec[v]
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        intra = np.mean([cos("a0", "a1"), cos("a1", "a2"), cos("b0", "b1")])
        inter = np.mean([cos("a0", "b0"), cos("a1", "b2"), cos("a3", "b3")])
        assert intra > inter

    def test_zero_epochs_keeps_random_init(self):
        names, rows = as_rows(two_cliques()[0])
        walks = random_walks(rows, 1, 5, 1, 1, np.random.default_rng(0))
        t1 = train_skipgram(walks, names, dim=8, epochs=0, rng=np.random.default_rng(5))
        t2 = train_skipgram([], names, dim=8, epochs=3, rng=np.random.default_rng(5))
        # same rng consumption for init; zero epochs trains nothing
        init = ((np.random.default_rng(5).random((8, 8)) - 0.5) / 8).astype(np.float32)
        assert np.array_equal(t1.vectors, init)

    def test_empty_corpus_zero_table(self):
        table = train_skipgram([], ["a", "b"], dim=4, rng=np.random.default_rng(0))
        assert np.array_equal(table.vectors, np.zeros((2, 4), dtype=np.float32))

    def test_structural_twins_closer_than_random(self):
        # x and y share identical co-occurrence structure via hub h
        adj = {"h": ["x", "y", "z"], "x": ["h"], "y": ["h"],
               "z": ["h", "w"], "w": ["z"]}
        closer = 0
        for seed in range(5):
            vec = embed_by_id(adj, dim=12, walks_per_node=10, walk_len=8, epochs=4,
                              rng=np.random.default_rng(seed))

            def cos(u, v):
                a, b = vec[u], vec[v]
                return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12))

            if cos("x", "y") > cos("x", "w"):
                closer += 1
        assert closer >= 3

    def test_bit_for_bit_determinism(self):
        names, rows = as_rows(two_cliques(3)[0])
        runs = []
        for _ in range(2):
            table = node2vec_embed(rows, names, dim=8, walks_per_node=3,
                                   walk_len=6, epochs=2,
                                   rng=np.random.default_rng(99))
            runs.append(table.vectors.tobytes())
        assert runs[0] == runs[1]


class TestOracleEquivalence:
    @pytest.mark.parametrize("p,q", [(1, 1), (0.5, 2.0)])
    @pytest.mark.parametrize("epochs", [0, 1, 3])
    def test_two_cliques(self, p, q, epochs):
        adj, names = two_cliques()
        assert_matches_oracle(adj, names, 3, 7, p, q, seed=epochs, dim=8,
                              window=2, negatives=5, epochs=epochs)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs_with_isolated_nodes(self, seed):
        rng = np.random.default_rng(100 + seed)
        adj, names = random_graph(rng, int(rng.integers(4, 30)),
                                  float(rng.uniform(0.05, 0.6)), isolated=1 + seed % 3)
        walk_len = int(rng.integers(2, 9))
        p, q = [(1, 1), (0.5, 2.0)][seed % 2]
        window = walk_len + 2 if seed % 3 == 0 else int(rng.integers(1, 4))
        walks = assert_matches_oracle(
            adj, names, 2, walk_len, p, q, seed=seed, dim=int(rng.integers(1, 12)),
            window=window, negatives=(0, 1, 5)[seed % 3], epochs=1 + seed % 3)
        assert ["v0"] in walks  # an isolated node's length-1 walk

    @pytest.mark.parametrize("seed", range(4))
    def test_first_order_cdfs_are_built_once_per_neighbour_count(self, monkeypatch, seed):
        # at p = q = 1 every weight is 1, so nodes of one degree share a CDF;
        # walks and the rng stream still equal the per-step `choice` oracle
        rng = np.random.default_rng(200 + seed)
        adj, names = random_graph(rng, 24, 0.3, isolated=1)
        built = []
        transition_cdf = pretrain._transition_cdf
        monkeypatch.setattr(pretrain, "_transition_cdf",
                            lambda nbrs, *rest: built.append(len(nbrs))
                            or transition_cdf(nbrs, *rest))
        walks = assert_matches_oracle(adj, names, 3, 8, 1, 1, seed=seed, dim=4,
                                      window=2, negatives=2, epochs=1)
        stepped_from = {walk[i] for walk in walks for i in range(1, len(walk) - 1)}
        assert sorted(built) == sorted({len(adj[v]) for v in stepped_from})
        assert len(built) < len(stepped_from)

    @pytest.mark.parametrize("negatives", [0, 1, 5])
    def test_two_node_graph_repeats_targets(self, negatives):
        # with two nodes the negatives repeat each other and the context
        assert_matches_oracle({"a": ["b"], "b": ["a"]}, ["a", "b"], 4, 6, 1, 1,
                              seed=3, dim=4, window=3, negatives=negatives, epochs=3)

    def test_length_one_walks_only(self):
        assert_matches_oracle({"a": [], "b": []}, ["a", "b", "c"], 2, 5, 1, 1,
                              seed=4, dim=3, window=2, negatives=2, epochs=2)

    def test_empty_corpus(self, caplog):
        ref_rng, rng = np.random.default_rng(5), np.random.default_rng(5)
        ref = oracles.train_skipgram([], ["a", "b"], 4, rng=ref_rng)
        with caplog.at_level(logging.WARNING, logger="poirec.pretrain"):
            table = train_skipgram([], ["a", "b"], 4, rng=rng)
        assert "empty walk corpus" in caplog.text
        assert table.vectors.tobytes() == ref.vectors.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("block", [1, 5, 6, 7, 97])
    def test_block_edges(self, monkeypatch, block):
        # blocks of one token, of fewer updates than one token has, and
        # boundaries inside walks; the stream does not depend on the block
        monkeypatch.setattr(pretrain, "SKIPGRAM_BLOCK", block)
        adj, names = two_cliques(3)
        assert_matches_oracle(adj, names, 3, 9, 0.5, 2.0, seed=block, dim=5,
                              window=3, negatives=2, epochs=2)

    @pytest.mark.parametrize("p,q", [(1.0, 1.0), (0.5, 2.0)])
    def test_pretrain_tables_match_oracle_path(self, p, q):
        split = markov_dataset(n_pois=20, n_traj=40, traj_len=6, seed=3)
        cfg = RunConfig(d=8, walks_per_node=2, walk_len=6, n2v_window=3,
                        n2v_epochs=2, n_neighbors=5, n2v_p=p, n2v_q=q)
        spatial, temporal, fused = pretrain_tables(split, cfg)
        ref, _ = oracle_pretrain(split, cfg)
        assert spatial.vectors.tobytes() == ref["spatial"].vectors.tobytes()
        assert temporal.vectors.tobytes() == ref["temporal"].vectors.tobytes()
        assert fused.vectors.tobytes() == (
            ref["spatial"].vectors + ref["temporal"].vectors).tobytes()

    def test_pretrain_logs_one_line_per_graph(self, caplog):
        split = markov_dataset(n_pois=15, n_traj=30, traj_len=6, seed=4)
        cfg = RunConfig(d=4, walks_per_node=2, walk_len=5, n2v_window=2,
                        n2v_epochs=3, n_neighbors=5)
        with caplog.at_level(logging.INFO, logger="poirec.pretrain"):
            pretrain_tables(split, cfg)
        lines = [r.getMessage() for r in caplog.records if r.name == "poirec.pretrain"]
        _, corpora = oracle_pretrain(split, cfg)
        assert len(lines) == 2
        for line, name in zip(lines, ("temporal", "spatial")):
            walks = corpora[name]
            pairs = sum(1 for w in walks for i in range(len(w)) for j in range(len(w))
                        if i != j and abs(i - j) <= cfg.n2v_window)
            assert line.startswith(
                f"node2vec {name}: {sum(map(len, walks))} walk tokens, "
                f"{cfg.n2v_epochs * pairs} skip-gram updates, walks ")


class TestSpatialAdjacency:
    """`adjacency` of a spatial graph equals the per-edge set build over its
    poi_ids."""

    @pytest.mark.parametrize("n,alpha", [(1, 3.0), (2, 50.0), (40, 0.5), (150, 2.0), (300, 4.0)])
    def test_matches_oracle_on_spatial_graphs(self, rng, n, alpha):
        catalog = [Poi(f"q{j:03d}", "c", 40.0 + 0.05 * rng.random(), -74.0 + 0.05 * rng.random())
                   for j in range(n)]
        graph = build_global_spatial(catalog, alpha)
        ids = graph.nodes
        want = oracles.undirected_adjacency(ids, oracles.global_spatial_edges(catalog, alpha))
        got = adjacency(*graph.edges.T, n)
        assert {ids[i]: [ids[j] for j in nbrs] for i, nbrs in enumerate(got)} == want

    def test_edge_cases(self):
        # an isolated row, a self pair, an edge given in both directions,
        # and no edges at all
        adj = adjacency([0, 1, 2, 0], [1, 0, 2, 2], 4)
        assert adj == [[1, 2], [0], [0, 2], []]
        assert adjacency([], [], 2) == [[], []]
        assert adjacency([], [], 0) == []

    def test_unknown_edge_end_fatal(self):
        with pytest.raises(ValueError, match="rows 0..0"):
            adjacency([0], [1], 1)


class TestTemporalAdjacency:
    @given(st.data())
    def test_matches_oracle_on_temporal_graphs(self, data):
        ids = [f"p{k}" for k in range(data.draw(st.integers(1, 10)))]
        trajs = [make_traj(seq) for seq in data.draw(st.lists(
            st.lists(st.sampled_from(ids), max_size=10), max_size=8))]
        catalog = [Poi(p, "c", 0.0, 0.0) for p in ids]
        n = data.draw(st.integers(1, 4))
        got = adjacency(*build_global_temporal(trajs, n, catalog_rows(catalog)).neighbors.T,
                        len(ids))
        want = oracles.temporal_adjacency(oracles.global_temporal(trajs, n, catalog))
        assert {ids[i]: [ids[j] for j in nbrs] for i, nbrs in enumerate(got)} == want


class TestFusion:
    def test_zero_temporal_is_identity(self):
        sp = EmbeddingTable(["a", "b"], np.arange(8, dtype=np.float32).reshape(2, 4))
        tp = EmbeddingTable(["a", "b"], np.zeros((2, 4), dtype=np.float32))
        assert np.array_equal(fuse_embeddings(sp, tp).vectors, sp.vectors)

    def test_equal_tables_double(self):
        x = EmbeddingTable(["a"], np.ones((1, 3), dtype=np.float32))
        assert np.array_equal(fuse_embeddings(x, x).vectors, 2 * x.vectors)

    def test_matches_scalar_loop_oracle(self, rng):
        ids = ["a", "b", "c"]
        sp = EmbeddingTable(ids, rng.normal(size=(3, 5)).astype(np.float32))
        tp = EmbeddingTable(ids, rng.normal(size=(3, 5)).astype(np.float32))
        fused = fuse_embeddings(sp, tp)
        for i in range(3):
            for j in range(5):
                assert fused.vectors[i, j] == sp.vectors[i, j] + tp.vectors[i, j]

    def test_commutative(self, rng):
        ids = ["a", "b"]
        sp = EmbeddingTable(ids, rng.normal(size=(2, 4)).astype(np.float32))
        tp = EmbeddingTable(ids, rng.normal(size=(2, 4)).astype(np.float32))
        assert np.array_equal(fuse_embeddings(sp, tp).vectors,
                              fuse_embeddings(tp, sp).vectors)

    def test_dimension_mismatch_fatal(self):
        a = EmbeddingTable(["x"], np.zeros((1, 3), dtype=np.float32))
        b = EmbeddingTable(["x"], np.zeros((1, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="dimension mismatch"):
            fuse_embeddings(a, b)


class TestPersistence:
    def test_round_trip(self, tmp_path, rng):
        table = EmbeddingTable([f"p{i}" for i in range(6)],
                               rng.normal(size=(6, 9)).astype(np.float32))
        save_table(table, tmp_path / "t.emb")
        loaded = load_table(tmp_path / "t.emb")
        assert loaded.ids == table.ids
        assert np.array_equal(loaded.vectors, table.vectors)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.emb").write_bytes(b"XXXX" + b"\0" * 12)
        with pytest.raises(ValueError, match="magic"):
            load_table(tmp_path / "bad.emb")

    @pytest.mark.parametrize("corrupt,message", [
        (lambda emb, ids: emb.write_bytes(emb.read_bytes()[:-3]), "bytes, expected"),
        (lambda emb, ids: emb.write_bytes(emb.read_bytes()[:10]), "truncated header"),
        (lambda emb, ids: emb.write_bytes(emb.read_bytes() + b"\0" * 4), "bytes, expected"),
        (lambda emb, ids: ids.write_text("".join(ids.read_text().splitlines(True)[:-1])),
         "no poi_id for row 3"),
        (lambda emb, ids: ids.write_text(ids.read_text() + "1\tp9\n"), "new row index"),
        (lambda emb, ids: ids.write_text(ids.read_text().replace("3\tp3", "4\tp3")),
         "new row index"),
        (lambda emb, ids: ids.write_text(ids.read_text().replace("3\tp3", "-3\tp3")),
         "new row index"),
        (lambda emb, ids: ids.write_text(ids.read_text().replace("3\tp3", "3 p3")),
         "new row index"),
        (lambda emb, ids: ids.write_text(ids.read_text().replace("p3", "p0")),
         "duplicate poi_ids"),
    ], ids=["truncated-vectors", "truncated-header", "trailing-bytes",
            "sidecar-short", "sidecar-repeated-row", "sidecar-row-out-of-range",
            "sidecar-negative-row", "sidecar-no-tab", "duplicate-ids"])
    def test_corrupt_table_fails_loudly(self, tmp_path, rng, corrupt, message):
        table = EmbeddingTable([f"p{i}" for i in range(4)],
                               rng.normal(size=(4, 3)).astype(np.float32))
        emb = tmp_path / "t.emb"
        save_table(table, emb)
        corrupt(emb, tmp_path / "t.emb.ids")
        with pytest.raises(ValueError, match=message):
            load_table(emb)
