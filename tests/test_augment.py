import numpy as np
import pytest
from hypothesis import given, strategies as st

from poirec.augment import (CorrelationIndex, auto_insert_count,
                            correlated_insertion, correlated_substitute,
                            infonce, make_views, node_dropout)
from poirec.autodiff import ShapeError
from poirec.config import RunConfig
from poirec.graphs import build_trajectory_graph
from poirec.pretrain import EmbeddingTable
from conftest import augmented_graphs, category_vocab, make_traj, rows_of
import oracles
import ops
from oracles import id_graph

CATS = {p: f"cat_{p}" for p in
        ["a", "b", "c", "d", "x", "y", "z"] + [f"p{i}" for i in range(10)]}
IDS = sorted(CATS)


def path_graph(seq, ids=IDS):
    """The trajectory graph of `seq` over a catalog of the sorted `ids`."""
    return build_trajectory_graph(make_traj(seq, categories=CATS), rows_of(ids))


def clustered_index(groups, top=50):
    """(index, catalog ids): embeddings where POIs in the same group are
    nearly parallel, over a catalog of the sorted group members."""
    rng = np.random.default_rng(0)
    vectors = {}
    for gi, group in enumerate(groups):
        base = np.zeros(4)
        base[gi % 4] = 1.0
        for j, pid in enumerate(group):
            vectors[pid] = base + 0.01 * (j + 1) * rng.normal(size=4)
    ids = sorted(vectors)
    table = EmbeddingTable(ids, np.array([vectors[p] for p in ids], dtype=np.float32))
    return CorrelationIndex(table, table, top=top), ids


def cats_of(ids):
    return {p: CATS[p] for p in ids}


class TestCorrelationIndex:
    def test_clusters_rank_first(self):
        idx, ids = clustered_index([["a", "b", "c"], ["x", "y"]])
        row = rows_of(ids)
        assert ids[idx.top_unvisited(row["a"], "spatial", set())] in ("b", "c")
        assert ids[idx.top_unvisited(row["x"], "temporal", set())] == "y"

    def test_scores_match_cosine_oracle(self, rng):
        ids = ["a", "b", "c", "d"]
        vec = rng.normal(size=(4, 6)).astype(np.float32)
        table = EmbeddingTable(ids, vec)
        idx = oracles.IdIndex(CorrelationIndex(table, table, top=3), ids)
        v = vec.astype(np.float64)
        vn = v / np.linalg.norm(v, axis=1)[:, None]
        for cand, score in idx.neighbors("a", "spatial"):
            j = ids.index(cand)
            assert score == pytest.approx(float(vn[0] @ vn[j]), abs=1e-9)

    def test_symmetric_for_pairs(self):
        idx = oracles.IdIndex(*clustered_index([["a", "b"], ["x", "y"]]))
        sa = dict(idx.neighbors("a", "spatial"))["b"]
        sb = dict(idx.neighbors("b", "spatial"))["a"]
        assert sa == pytest.approx(sb, abs=1e-9)

    def test_top_unvisited_skips_visited(self):
        idx, ids = clustered_index([["a", "b", "c"]])
        assert idx.top_unvisited(0, "spatial", visited={0, 1, 2}) is None
        assert ids[idx.top_unvisited(0, "spatial", visited={0})] in ("b", "c")

    def test_empty_index(self):
        # a one-POI catalog: no other POI to rank
        table = EmbeddingTable(["a"], np.ones((1, 4), dtype=np.float32))
        idx = CorrelationIndex(table, table)
        assert idx.top_unvisited(0, "spatial", set()) is None
        assert idx.top_unvisited_merged(0, set()) is None


def tied_table(rng, n, d=5):
    """Rounded vectors (many equal scores) with duplicate and zero rows, in
    catalog (poi_id) order."""
    vec = rng.integers(-2, 3, size=(n, d)).astype(np.float32)
    if n >= 4:
        vec[1] = vec[0]
        vec[3] = 0.0
    ids = [f"p{k:03d}" for k in range(n)]
    return EmbeddingTable(ids, vec)


def assert_index_matches_oracle(idx, spatial, temporal, top):
    by_id = oracles.IdIndex(idx, spatial.ids)
    for mode, table in (("spatial", spatial), ("temporal", temporal)):
        want = oracles.correlation_rank(table, top)
        for pid in table.ids:
            assert by_id.neighbors(pid, mode) == want[pid], (mode, pid)


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
        assert not np.array_equal(idx.spatial[0], idx.temporal[0])


class TestNodeDropout:
    def test_beta_zero_identity(self, rng):
        g = path_graph(["a", "b", "c"])
        out = node_dropout(g, 0.0, rng)
        assert out.nodes == g.nodes and out.edges == g.edges
        assert out is not g

    def test_last_node_survives_beta_near_one(self):
        g = path_graph(["a", "b", "c", "d"])
        out = id_graph(node_dropout(g, 0.999, np.random.default_rng(0)), IDS)
        assert "d" in out.nodes and out.last_node == "d"

    def test_middle_drop_rewires_path(self):
        g = path_graph(["a", "b", "c"])
        # find a seed that drops exactly b
        for seed in range(200):
            rng = np.random.default_rng(seed)
            out = node_dropout(g, 0.5, rng)
            if set(id_graph(out, IDS).nodes) == {"a", "c"}:
                assert ("a", "c") in id_graph(out, IDS).edges
                assert set(category_vocab([out], CATS)) == {
                    (CATS["a"], CATS["a"]), tuple(sorted((CATS["a"], CATS["c"]))),
                    (CATS["c"], CATS["c"])}
                return
        pytest.fail("no seed dropped exactly the middle node")

    def test_drop_rate_statistics(self):
        g = path_graph([f"p{i}" for i in range(10)])
        rng = np.random.default_rng(1)
        kept = [len(node_dropout(g, 0.3, rng).nodes) for _ in range(300)]
        # 9 droppable nodes at rate 0.3 plus the protected last node
        assert np.mean(kept) == pytest.approx(1 + 9 * 0.7, abs=0.15)

    def test_original_untouched(self, rng):
        g = path_graph(["a", "b", "c", "d"])
        before = (list(g.nodes), set(g.edges), list(g.last_step))
        node_dropout(g, 0.8, rng)
        assert (g.nodes, g.edges, g.last_step) == before

    def test_bad_beta(self, rng):
        with pytest.raises(ValueError):
            node_dropout(path_graph(["a"]), 1.0, rng)


class TestInsertion:
    def test_k_zero_identity(self, rng):
        idx, ids = clustered_index([["a", "b", "x"]])
        g = path_graph(["a", "b"], ids)
        out = correlated_insertion(g, 0, idx, "temporal", rng)
        assert out.nodes == g.nodes and out.edges == g.edges

    def test_temporal_splice_on_outgoing_edge(self):
        idx, ids = clustered_index([["a", "x"], ["b"]])
        g = path_graph(["a", "b"], ids)
        out = id_graph(correlated_insertion(g, 1, idx, "temporal",
                                            np.random.default_rng(0)), ids)
        if "x" in out.nodes:
            # spliced onto some outgoing edge of the anchor it was drawn for
            assert ("x", "x") in out.edges
            ins = [(u, v) for (u, v) in out.edges if "x" in (u, v) and u != v]
            assert len(ins) == 2
            assert out.last_step["x"] is None

    def test_temporal_splice_removes_bypassed_edge(self):
        # single anchor "a" with one outgoing edge a->b; x most correlated
        idx, ids = clustered_index([["a", "x"], ["b"]])
        g = path_graph(["a", "b"], ids)
        for seed in range(50):
            out = id_graph(correlated_insertion(g, 2, idx, "temporal",
                                                np.random.default_rng(seed)), ids)
            if "x" in out.nodes and ("a", "x") in out.edges:
                assert ("a", "b") not in out.edges
                assert ("x", "b") in out.edges
                return
        pytest.fail("temporal splice via anchor a never happened")

    def test_spatial_attach_is_bidirected(self):
        idx, ids = clustered_index([["a", "x"], ["b"]])
        g = path_graph(["a", "b"], ids)
        for seed in range(50):
            out = id_graph(correlated_insertion(g, 2, idx, "spatial",
                                                np.random.default_rng(seed)), ids)
            if "x" in out.nodes:
                anchors = [u for (u, v) in out.edges if v == "x" and u != "x"]
                (anchor,) = anchors
                assert (anchor, "x") in out.edges and ("x", anchor) in out.edges
                assert ("a", "b") in out.edges  # existing edges kept
                return
        pytest.fail("spatial insertion never fired")

    def test_k_clamped_to_node_count(self, rng):
        idx, ids = clustered_index([["a", "b", "x", "y", "z"]])
        out = correlated_insertion(path_graph(["a", "b"], ids), 99, idx, "spatial", rng)
        assert len(out.nodes) <= 2 + 2  # at most one insert per selected node

    def test_exhausted_index_is_noop(self, rng):
        idx, ids = clustered_index([["a", "b"]])  # only visited POIs available
        out = correlated_insertion(path_graph(["a", "b"], ids), 2, idx, "spatial", rng)
        assert set(id_graph(out, ids).nodes) == {"a", "b"}

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
        idx, ids = clustered_index([["b", "x"], ["a"], ["c"]])
        g = path_graph(["a", "b", "c"], ids)
        for seed in range(100):
            view = correlated_substitute(g, 1, idx, np.random.default_rng(seed))
            out = id_graph(view, ids)
            if "x" in out.nodes and "b" not in out.nodes:
                assert ("a", "x") in out.edges and ("x", "c") in out.edges
                assert set(category_vocab([view], cats_of(ids))) == {
                    (CATS[p], CATS[p]) for p in "axc"} | {
                    tuple(sorted((CATS["a"], CATS["x"]))),
                    tuple(sorted((CATS["x"], CATS["c"])))}
                assert out.last_step["x"] == 2
                return
        pytest.fail("substitution of b never happened")

    def test_last_node_never_substituted(self):
        idx, ids = clustered_index([["a", "x"], ["b", "y"]])
        g = path_graph(["a", "b"], ids)
        for seed in range(30):
            out = id_graph(correlated_substitute(g, 5, idx, np.random.default_rng(seed)), ids)
            assert out.last_node == "b" and "b" in out.nodes

    def test_k_zero_identity(self, rng):
        idx, ids = clustered_index([["a"], ["b"], ["c"]])
        g = path_graph(["a", "b", "c"], ids)
        out = correlated_substitute(g, 0, idx, rng)
        assert out.nodes == g.nodes and out.edges == g.edges

    def test_node_count_preserved(self, rng):
        idx, ids = clustered_index([["a", "x"], ["b", "y"], ["c", "z"], ["d"]])
        view = correlated_substitute(path_graph(["a", "b", "c", "d"], ids), 2, idx, rng)
        out = id_graph(view, ids)
        assert len(out.nodes) == 4
        # every edge joins two catalog POIs of the view, so its label exists
        assert {p for e in out.edges for p in e} == set(out.nodes) <= set(CATS)
        assert set(category_vocab([view], cats_of(ids))) == {
            tuple(sorted((CATS[a], CATS[b]))) for a, b in out.edges}


class TestMakeViews:
    def test_returns_two_views_with_tags(self, tiny_config, rng):
        idx, ids = clustered_index([["a", "x"], ["b", "y"], ["c"]])
        g = path_graph(["a", "b", "c"], ids)
        pair = make_views(g, tiny_config, idx, rng)
        assert pair.view_a is not g and pair.view_b is not g
        assert len(pair.tags) == 2
        for tag in pair.tags:
            assert tag.split(":")[0] in ("dropout", "insertion", "substitution")

    def test_deterministic_given_seed(self, tiny_config):
        idx, ids = clustered_index([["a", "x"], ["b", "y"], ["c", "z"], ["d"]])
        g = path_graph(["a", "b", "c", "d"], ids)
        pairs = []
        for _ in range(2):
            rng = np.random.default_rng(77)
            p = make_views(g, tiny_config, idx, rng)
            pairs.append((p.tags, sorted(p.view_a.nodes), sorted(p.view_b.nodes),
                          sorted(p.view_a.edges), sorted(p.view_b.edges)))
        assert pairs[0] == pairs[1]

    def test_operator_frequencies_near_uniform(self, tiny_config):
        idx, ids = clustered_index([["a", "x"], ["b", "y"], ["c"]])
        g = path_graph(["a", "b", "c"], ids)
        rng = np.random.default_rng(5)
        counts = {"dropout": 0, "insertion": 0, "substitution": 0}
        for _ in range(1000):
            pair = make_views(g, tiny_config, idx, rng)
            counts[pair.tags[0].split(":")[0]] += 1
        for c in counts.values():
            assert abs(c / 1000 - 1 / 3) < 0.05

    def test_views_keep_last_node(self, tiny_config):
        idx, ids = clustered_index([["a", "x"], ["b", "y"], ["c"]])
        g = path_graph(["a", "b", "c"], ids)
        rng = np.random.default_rng(3)
        for _ in range(50):
            pair = make_views(g, tiny_config, idx, rng)
            for view in (pair.view_a, pair.view_b):
                assert ids[view.last_node] == "c" and view.last_node in view.nodes


def same_views(new, old, ids):
    """Whether program views over rows equal reference views over ids."""
    return [id_graph(v, ids) for v in new] == list(old)


def assert_operators_match_reference(g, index, ids, seed, k, beta, config):
    """Every operator and `make_views` on the row graph `g` returns the
    views the poi_id reference returns on its `IdGraph`, and leaves its rng
    in the same state."""
    by_id, ref_g = oracles.IdIndex(index, ids), id_graph(g, ids)
    cats = dict.fromkeys(ids)  # every candidate is a catalog POI
    calls = [
        (lambda r: [node_dropout(g, beta, r)],
         lambda r: [oracles.node_dropout(ref_g, beta, r)]),
        (lambda r: [correlated_substitute(g, k, index, r)],
         lambda r: [oracles.correlated_substitute(ref_g, k, by_id, r, cats)]),
        (lambda r: make_views(g, config, index, r),
         lambda r: oracles.make_views(ref_g, config, by_id, r, cats)),
    ] + [
        (lambda r, m=mode: [correlated_insertion(g, k, index, m, r)],
         lambda r, m=mode: [oracles.correlated_insertion(ref_g, k, by_id, m, r, cats)])
        for mode in ("spatial", "temporal")]
    for new, ref in calls:
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = new(rng_new), ref(rng_ref)
        if isinstance(got, list):
            assert same_views(got, want, ids)
        else:  # a ViewPair against (view a, view b, tags)
            assert same_views([got.view_a, got.view_b], want[:2], ids)
            assert got.tags == want[2]
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


class TestOperatorsMatchIdReference:
    @given(n=st.integers(1, 14), seq=st.lists(st.integers(0, 13), min_size=1, max_size=16),
           seed=st.integers(0, 2**16), k=st.integers(0, 4), beta=st.sampled_from([0.0, 0.3, 0.9]),
           top=st.integers(0, 6), k_insert=st.integers(0, 3))
    def test_random_graphs(self, n, seq, seed, k, beta, top, k_insert):
        # rounded vectors: equal scores are common, so the tie rules matter
        table = tied_table(np.random.default_rng(seed), n)
        ids = table.ids
        index = CorrelationIndex(table, table, top=top)
        g = build_trajectory_graph(make_traj([ids[i % n] for i in seq]), rows_of(ids))
        config = RunConfig(beta=beta, k_insert=k_insert)
        assert_operators_match_reference(g, index, ids, seed, k, beta, config)

    def test_augmented_graphs(self, rng):
        # graphs with synthetic nodes; distinct spatial and temporal tables
        ids = sorted(f"p{i}" for i in range(30))
        graphs = augmented_graphs(rng, 8)
        spatial = EmbeddingTable(ids, rng.normal(size=(30, 4)).astype(np.float32))
        temporal = EmbeddingTable(ids, rng.normal(size=(30, 4)).astype(np.float32))
        index = CorrelationIndex(spatial, temporal, top=8)
        assert any(0 in g.last_step for g in graphs)
        for seed, g in enumerate(graphs):
            assert_operators_match_reference(g, index, ids, seed, 2, 0.4,
                                              RunConfig(beta=0.4, k_insert=0))


def nce(a, b, tau=1.0):
    """The InfoNCE loss of `a` and `b` as a float."""
    return float(infonce(a, b, tau=tau)[0])


class TestInfoNCE:
    def test_identical_orthogonal_pairs(self):
        # rows of I: positives have cosine 1, negatives 0
        a = np.eye(3)
        expected = -np.log(np.e / (np.e + 2.0))
        assert nce(a, a, tau=1.0) == pytest.approx(expected, abs=1e-6)

    def test_two_pair_closed_form(self):
        a = np.eye(2)
        assert nce(a, a) == pytest.approx(-np.log(np.e / (np.e + 1.0)), abs=1e-6)

    def test_uninformative_views_give_log_batch(self):
        same = np.ones((4, 4))
        assert nce(same, same) == pytest.approx(np.log(4), abs=1e-6)

    def test_better_alignment_lowers_loss(self, rng):
        base = rng.normal(size=(4, 8))
        noisy = base + rng.normal(scale=2.0, size=(4, 8))
        assert nce(base, base.copy()) < nce(base, noisy)

    def test_temperature_sharpens(self):
        a = np.eye(3)
        assert nce(a, a, tau=0.1) < nce(a, a, tau=10.0)

    def test_scale_invariance_of_cosine(self, rng):
        a = rng.normal(size=(3, 5))
        b = rng.normal(size=(3, 5))
        assert nce(a, b) == pytest.approx(nce(a, 7.0 * b), abs=1e-6)

    def test_small_batch_fatal(self):
        one = np.ones((1, 3))
        with pytest.raises(ShapeError, match="batch"):
            infonce(one, one)
        with pytest.raises(ShapeError, match="mismatch"):
            infonce(np.ones((2, 3)), one)

    def test_gradient_flows_to_inputs(self):
        a = np.eye(3) + 0.1
        _, d_a, d_b = infonce(a, a.copy())
        assert all(np.isfinite(g).all() and np.abs(g).max() > 0 for g in (d_a, d_b))

    def test_hard_positive_keeps_gradient_at_small_tau(self):
        # each positive has cosine 0.4 and its negative cosine 1.0: at
        # tau = 0.02 the positive trails by a logit gap of 30, where a loss
        # clamped at probability 1e-12 reads 27.63 with an all-zero gradient
        far = np.array([0.4, np.sqrt(0.84)])
        a = np.vstack([np.eye(1, 2)[0], far])
        b = np.vstack([far, np.eye(1, 2)[0]])
        loss, *grads = infonce(a, b, tau=0.02)
        assert float(loss) == pytest.approx(30.0, abs=1e-9)
        for g in grads:
            assert (np.abs(g).max(axis=1) > 1.0).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("tau, weight", [(1.0, 1.0), (0.3, 0.1), (2.0, 0.7)])
    def test_bytes_equal_reference_tape(self, rng, dtype, tau, weight):
        """Loss and weighted gradients equal, byte for byte, those of the
        reference tape with `weight` as the upstream gradient."""
        a, b = (rng.normal(size=(5, 6)).astype(dtype) for _ in range(2))
        loss, d_a, d_b = infonce(a, b, tau=tau, weight=weight)
        ta, tb = (ops.Tensor(x, requires_grad=True) for x in (a, b))
        ops.mul(oracles.infonce(ta, tb, tau=tau), weight).backward()
        assert loss.tobytes() == oracles.infonce(ta, tb, tau=tau).data.tobytes()
        for got, want in ((d_a, ta.grad), (d_b, tb.grad)):
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())

    def test_grad_check(self, rng):
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        _, d_a, d_b = infonce(a, b, tau=0.5, weight=2.0)
        for x, got in ((a, d_a), (b, d_b)):
            numeric = np.zeros_like(x)
            for i in np.ndindex(x.shape):
                orig = x[i]
                x[i] = orig + 1e-6
                hi = nce(a, b, tau=0.5)
                x[i] = orig - 1e-6
                lo = nce(a, b, tau=0.5)
                x[i] = orig
                numeric[i] = 2.0 * (hi - lo) / 2e-6
            assert np.allclose(got, numeric, rtol=0, atol=1e-6)

    def test_zero_row_keeps_a_finite_gradient(self):
        """A row of norm 0 is clamped: it passes the gradient of x / 1e-12
        and none through its norm (the tape's was NaN)."""
        a = np.array([[0.0, 0.0], [1.0, 0.5]])
        b = np.array([[0.3, 1.0], [1.0, 0.0]])
        loss, d_a, d_b = infonce(a, b)
        assert np.isfinite(float(loss)) and np.isfinite(d_a).all() and np.isfinite(d_b).all()
