import numpy as np
import pytest

from poirec.augment import (CorrelationIndex, auto_insert_count,
                            correlated_insertion, correlated_substitute,
                            infonce, make_views, node_dropout)
from poirec.autodiff import ShapeError, Tensor
from poirec.graphs import build_trajectory_graph
from poirec.pretrain import EmbeddingTable
from conftest import make_traj
import oracles

CATS = {p: f"cat_{p}" for p in
        ["a", "b", "c", "d", "x", "y", "z"] + [f"p{i}" for i in range(10)]}


def path_graph(seq):
    return build_trajectory_graph(make_traj(seq, categories=CATS))


def clustered_index(groups, top=50):
    """Embeddings where POIs in the same group are nearly parallel."""
    rng = np.random.default_rng(0)
    ids, rows = [], []
    for gi, group in enumerate(groups):
        base = np.zeros(4)
        base[gi % 4] = 1.0
        for j, pid in enumerate(group):
            ids.append(pid)
            rows.append(base + 0.01 * (j + 1) * rng.normal(size=4))
    vec = np.array(rows, dtype=np.float32)
    table = EmbeddingTable(ids, vec)
    return CorrelationIndex(table, table, top=top)


class TestCorrelationIndex:
    def test_clusters_rank_first(self):
        idx = clustered_index([["a", "b", "c"], ["x", "y"]])
        assert idx.neighbors("a", "spatial")[0][0] in ("b", "c")
        assert idx.neighbors("x", "temporal")[0][0] == "y"

    def test_scores_match_cosine_oracle(self, rng):
        ids = ["a", "b", "c", "d"]
        vec = rng.normal(size=(4, 6)).astype(np.float32)
        idx = CorrelationIndex(EmbeddingTable(ids, vec), None, top=3)
        v = vec.astype(np.float64)
        vn = v / np.linalg.norm(v, axis=1)[:, None]
        for cand, score in idx.neighbors("a", "spatial"):
            j = ids.index(cand)
            assert score == pytest.approx(float(vn[0] @ vn[j]), abs=1e-9)

    def test_symmetric_for_pairs(self):
        idx = clustered_index([["a", "b"], ["x", "y"]])
        sa = dict(idx.neighbors("a", "spatial"))["b"]
        sb = dict(idx.neighbors("b", "spatial"))["a"]
        assert sa == pytest.approx(sb, abs=1e-9)

    def test_top_unvisited_skips_visited(self):
        idx = clustered_index([["a", "b", "c"]])
        cand, _ = idx.top_unvisited("a", "spatial", visited={"a", "b", "c"})
        assert cand is None
        cand2, _ = idx.top_unvisited("a", "spatial", visited={"a"})
        assert cand2 in ("b", "c")

    def test_empty_index(self):
        idx = CorrelationIndex(None, None)
        assert idx.neighbors("a", "spatial") == []
        assert idx.top_unvisited_merged("a", set()) is None


def tied_table(rng, n, d=5):
    """Rounded vectors (many equal scores) with duplicate and zero rows,
    under poi_ids listed out of sorted order."""
    vec = rng.integers(-2, 3, size=(n, d)).astype(np.float32)
    if n >= 4:
        vec[1] = vec[0]
        vec[3] = 0.0
    ids = [f"p{k:03d}" for k in rng.permutation(n)]
    return EmbeddingTable(ids, vec)


def assert_index_matches_oracle(idx, spatial, temporal, top):
    for mode, table in (("spatial", spatial), ("temporal", temporal)):
        want = oracles.correlation_rank(table, top)
        for pid in table.ids:
            assert idx.neighbors(pid, mode) == want[pid], (mode, pid)


class TestCorrelationIndexOracle:
    @pytest.mark.parametrize("n", [1, 2, 5, 64, 65, 150])
    @pytest.mark.parametrize("top", [0, 1, 3, "n", "n+5"])
    def test_shared_table_matches_sorted_rows(self, n, top):
        top = {"n": n, "n+5": n + 5}.get(top, top)
        table = tied_table(np.random.default_rng(n), n)
        idx = CorrelationIndex(table, table, top=top)
        assert_index_matches_oracle(idx, table, table, top)

    @pytest.mark.parametrize("seed", range(4))
    def test_distinct_tables_rank_separately(self, seed):
        rng = np.random.default_rng(100 + seed)
        spatial = tied_table(rng, 90)
        temporal = EmbeddingTable(list(spatial.ids),
                                  rng.normal(size=spatial.vectors.shape).astype(np.float32))
        idx = CorrelationIndex(spatial, temporal, top=7)
        assert_index_matches_oracle(idx, spatial, temporal, top=7)
        assert any(idx.neighbors(p, "spatial") != idx.neighbors(p, "temporal")
                   for p in spatial.ids)

    def test_unknown_poi_has_no_neighbors(self):
        table = tied_table(np.random.default_rng(0), 6)
        idx = CorrelationIndex(table, None, top=3)
        assert idx.neighbors("nope", "spatial") == []
        assert idx.neighbors(table.ids[0], "temporal") == []


class TestNodeDropout:
    def test_beta_zero_identity(self, rng):
        g = path_graph(["a", "b", "c"])
        out = node_dropout(g, 0.0, rng, CATS)
        assert out.nodes == g.nodes and out.edges == g.edges
        assert out is not g

    def test_last_node_survives_beta_near_one(self):
        g = path_graph(["a", "b", "c", "d"])
        out = node_dropout(g, 0.999, np.random.default_rng(0), CATS)
        assert "d" in out.nodes and out.last_node == "d"

    def test_middle_drop_rewires_path(self):
        g = path_graph(["a", "b", "c"])
        # find a seed that drops exactly b
        for seed in range(200):
            rng = np.random.default_rng(seed)
            out = node_dropout(g, 0.5, rng, CATS)
            if set(out.nodes) == {"a", "c"}:
                assert ("a", "c") in out.edges
                assert out.edge_category[("a", "c")] == \
                    tuple(sorted((CATS["a"], CATS["c"])))
                return
        pytest.fail("no seed dropped exactly the middle node")

    def test_drop_rate_statistics(self):
        g = path_graph([f"p{i}" for i in range(10)])
        rng = np.random.default_rng(1)
        kept = [len(node_dropout(g, 0.3, rng, CATS).nodes) for _ in range(300)]
        # 9 droppable nodes at rate 0.3 plus the protected last node
        assert np.mean(kept) == pytest.approx(1 + 9 * 0.7, abs=0.15)

    def test_original_untouched(self, rng):
        g = path_graph(["a", "b", "c", "d"])
        before = (list(g.nodes), set(g.edges), dict(g.last_step))
        node_dropout(g, 0.8, rng, CATS)
        assert (g.nodes, g.edges, g.last_step) == before

    def test_bad_beta(self, rng):
        with pytest.raises(ValueError):
            node_dropout(path_graph(["a"]), 1.0, rng, CATS)


class TestInsertion:
    def test_k_zero_identity(self, rng):
        g = path_graph(["a", "b"])
        idx = clustered_index([["a", "b", "x"]])
        out = correlated_insertion(g, 0, idx, "temporal", rng, CATS)
        assert out.nodes == g.nodes and out.edges == g.edges

    def test_temporal_splice_on_outgoing_edge(self):
        g = path_graph(["a", "b"])
        idx = clustered_index([["a", "x"], ["b"]])
        out = correlated_insertion(g, 1, idx, "temporal",
                                   np.random.default_rng(0), CATS)
        if "x" in out.nodes:
            # spliced onto some outgoing edge of the anchor it was drawn for
            assert ("x", "x") in out.edges
            ins = [(u, v) for (u, v) in out.edges if "x" in (u, v) and u != v]
            assert len(ins) == 2
            assert out.last_step["x"] is None

    def test_temporal_splice_removes_bypassed_edge(self):
        # single anchor "a" with one outgoing edge a->b; x most correlated
        g = path_graph(["a", "b"])
        idx = clustered_index([["a", "x"], ["b"]])
        for seed in range(50):
            out = correlated_insertion(g, 2, idx, "temporal",
                                       np.random.default_rng(seed), CATS)
            if "x" in out.nodes and ("a", "x") in out.edges:
                assert ("a", "b") not in out.edges
                assert ("x", "b") in out.edges
                return
        pytest.fail("temporal splice via anchor a never happened")

    def test_spatial_attach_is_bidirected(self):
        g = path_graph(["a", "b"])
        idx = clustered_index([["a", "x"], ["b"]])
        for seed in range(50):
            out = correlated_insertion(g, 2, idx, "spatial",
                                       np.random.default_rng(seed), CATS)
            if "x" in out.nodes:
                anchors = [u for (u, v) in out.edges if v == "x" and u != "x"]
                (anchor,) = anchors
                assert (anchor, "x") in out.edges and ("x", anchor) in out.edges
                assert ("a", "b") in out.edges  # existing edges kept
                return
        pytest.fail("spatial insertion never fired")

    def test_k_clamped_to_node_count(self, rng):
        g = path_graph(["a", "b"])
        idx = clustered_index([["a", "b", "x", "y", "z"]])
        out = correlated_insertion(g, 99, idx, "spatial", rng, CATS)
        assert len(out.nodes) <= 2 + 2  # at most one insert per selected node

    def test_exhausted_index_is_noop(self, rng):
        g = path_graph(["a", "b"])
        idx = clustered_index([["a", "b"]])  # only visited POIs available
        out = correlated_insertion(g, 2, idx, "spatial", rng, CATS)
        assert set(out.nodes) == {"a", "b"}

    def test_auto_insert_count(self):
        assert auto_insert_count(path_graph(["a"]), 0) == 1
        g10 = path_graph([f"p{i}" for i in range(10)])
        assert auto_insert_count(g10, 0) == 1
        assert auto_insert_count(g10, 7) == 7
        g = path_graph([f"p{i}" for i in range(10)] + list("abcd"))
        assert auto_insert_count(g, 0) == 2  # ceil(0.1 * 14)


class TestSubstitution:
    def test_simple_path_substitution(self):
        # b's strongest correlate is x; after substitution the path reads a,x,c
        g = path_graph(["a", "b", "c"])
        idx = clustered_index([["b", "x"], ["a"], ["c"]])
        for seed in range(100):
            out = correlated_substitute(g, 1, idx, np.random.default_rng(seed), CATS)
            if "x" in out.nodes and "b" not in out.nodes:
                assert ("a", "x") in out.edges and ("x", "c") in out.edges
                assert out.edge_category[("a", "x")] == \
                    tuple(sorted((CATS["a"], CATS["x"])))
                assert out.last_step["x"] == 2
                return
        pytest.fail("substitution of b never happened")

    def test_last_node_never_substituted(self):
        g = path_graph(["a", "b"])
        idx = clustered_index([["a", "x"], ["b", "y"]])
        for seed in range(30):
            out = correlated_substitute(g, 5, idx, np.random.default_rng(seed), CATS)
            assert out.last_node == "b" and "b" in out.nodes

    def test_k_zero_identity(self, rng):
        g = path_graph(["a", "b", "c"])
        out = correlated_substitute(g, 0, clustered_index([["a"]]), rng, CATS)
        assert out.nodes == g.nodes and out.edges == g.edges

    def test_node_count_preserved(self, rng):
        g = path_graph(["a", "b", "c", "d"])
        idx = clustered_index([["a", "x"], ["b", "y"], ["c", "z"]])
        out = correlated_substitute(g, 2, idx, rng, CATS)
        assert len(out.nodes) == 4
        assert out.edge_category.keys() == out.edges


class TestMakeViews:
    def test_returns_two_views_with_tags(self, tiny_config, rng):
        g = path_graph(["a", "b", "c"])
        idx = clustered_index([["a", "x"], ["b", "y"], ["c"]])
        pair = make_views(g, tiny_config, idx, rng, CATS)
        assert pair.view_a is not g and pair.view_b is not g
        assert len(pair.tags) == 2
        for tag in pair.tags:
            assert tag.split(":")[0] in ("dropout", "insertion", "substitution")

    def test_deterministic_given_seed(self, tiny_config):
        g = path_graph(["a", "b", "c", "d"])
        idx = clustered_index([["a", "x"], ["b", "y"], ["c", "z"], ["d"]])
        pairs = []
        for _ in range(2):
            rng = np.random.default_rng(77)
            p = make_views(g, tiny_config, idx, rng, CATS)
            pairs.append((p.tags, sorted(p.view_a.nodes), sorted(p.view_b.nodes),
                          sorted(p.view_a.edges), sorted(p.view_b.edges)))
        assert pairs[0] == pairs[1]

    def test_operator_frequencies_near_uniform(self, tiny_config):
        g = path_graph(["a", "b", "c"])
        idx = clustered_index([["a", "x"], ["b", "y"], ["c"]])
        rng = np.random.default_rng(5)
        counts = {"dropout": 0, "insertion": 0, "substitution": 0}
        for _ in range(1000):
            pair = make_views(g, tiny_config, idx, rng, CATS)
            counts[pair.tags[0].split(":")[0]] += 1
        for c in counts.values():
            assert abs(c / 1000 - 1 / 3) < 0.05

    def test_views_keep_last_node(self, tiny_config):
        g = path_graph(["a", "b", "c"])
        idx = clustered_index([["a", "x"], ["b", "y"], ["c"]])
        rng = np.random.default_rng(3)
        for _ in range(50):
            pair = make_views(g, tiny_config, idx, rng, CATS)
            for view in (pair.view_a, pair.view_b):
                assert view.last_node == "c" and "c" in view.nodes


class TestInfoNCE:
    def test_identical_orthogonal_pairs(self):
        # rows of I: positives have cosine 1, negatives 0
        a = [Tensor(np.eye(3)[i:i + 1]) for i in range(3)]
        loss = infonce(a, [t for t in a], tau=1.0)
        expected = -np.log(np.e / (np.e + 2.0))
        assert loss.item() == pytest.approx(expected, abs=1e-6)

    def test_two_pair_closed_form(self):
        a = [Tensor(np.eye(2)[0:1]), Tensor(np.eye(2)[1:2])]
        loss = infonce(a, list(a))
        assert loss.item() == pytest.approx(-np.log(np.e / (np.e + 1.0)), abs=1e-6)

    def test_uninformative_views_give_log_batch(self):
        same = Tensor(np.ones((1, 4)))
        batch = [same, same, same, same]
        loss = infonce(batch, list(batch))
        assert loss.item() == pytest.approx(np.log(4), abs=1e-6)

    def test_better_alignment_lowers_loss(self, rng):
        base = [Tensor(rng.normal(size=(1, 8))) for _ in range(4)]
        noisy = [Tensor(t.data + rng.normal(scale=2.0, size=(1, 8))) for t in base]
        aligned = infonce(base, [Tensor(t.data.copy()) for t in base])
        misaligned = infonce(base, noisy)
        assert aligned.item() < misaligned.item()

    def test_temperature_sharpens(self):
        a = [Tensor(np.eye(3)[i:i + 1]) for i in range(3)]
        sharp = infonce(a, list(a), tau=0.1)
        soft = infonce(a, list(a), tau=10.0)
        assert sharp.item() < soft.item()

    def test_scale_invariance_of_cosine(self, rng):
        a = [Tensor(rng.normal(size=(1, 5))) for _ in range(3)]
        b = [Tensor(rng.normal(size=(1, 5))) for _ in range(3)]
        scaled = [Tensor(7.0 * t.data) for t in b]
        assert infonce(a, b).item() == pytest.approx(infonce(a, scaled).item(),
                                                     abs=1e-6)

    def test_small_batch_fatal(self):
        one = [Tensor(np.ones((1, 3)))]
        with pytest.raises(ShapeError, match="batch"):
            infonce(one, list(one))
        with pytest.raises(ShapeError, match="mismatch"):
            infonce(one + one, list(one))

    def test_gradient_flows_to_inputs(self):
        x = Tensor(np.array([[1.0, 0.2], [0.1, 1.0], [0.5, 0.5]]),
                   requires_grad=True)
        a = [x]  # abuse: single (3, d) tensor split via concat is internal;
        # instead feed three separate requires_grad rows
        rows = [Tensor(np.eye(3)[i:i + 1] + 0.1, requires_grad=True)
                for i in range(3)]
        loss = infonce(rows, [Tensor(r.data.copy()) for r in rows])
        loss.backward()
        assert all(r.grad is not None and np.isfinite(r.grad).all() for r in rows)

    def test_hard_positive_keeps_gradient_at_small_tau(self):
        # each positive has cosine 0.4 and its negative cosine 1.0: at
        # tau = 0.02 the positive trails by a logit gap of 30, where a loss
        # clamped at probability 1e-12 reads 27.63 with an all-zero gradient
        far = np.array([[0.4, np.sqrt(0.84)]])
        a = [Tensor(np.eye(1, 2), requires_grad=True), Tensor(far, requires_grad=True)]
        b = [Tensor(far, requires_grad=True), Tensor(np.eye(1, 2), requires_grad=True)]
        loss = infonce(a, b, tau=0.02)
        loss.backward()
        assert loss.item() == pytest.approx(30.0, abs=1e-9)
        for t in a + b:
            assert np.abs(t.grad).max() > 1.0
