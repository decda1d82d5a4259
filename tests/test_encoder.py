import math

import numpy as np
import pytest

from poirec import encoder
from poirec.autodiff import NumericError, ShapeError
from poirec.data import Poi, catalog_rows
from poirec.encoder import (DistanceBins, GsanModel, attention_softmax, fit_distance_bins,
                            log_softmax_nll, stack_graphs)
from poirec.graphs import (TrajectoryGraph, build_global_temporal,
                           build_trajectory_graph, haversine)
from poirec.training import BatchLoss
from gradcheck import grad_check
from oracles import (MASTER, add_master_node, category_bias, category_pair,
                     locate_scalar, master_paths, path_pair_indices)
import oracles
import ops
from ops import Tensor
from conftest import (augmented_graphs, builder_plans, category_vocab, make_traj, row_coords,
                      stacks, traj_graph)


def grid_catalog(n=6):
    cats = ["food", "shop", "park"]
    return [Poi(f"p{i}", cats[i % 3], 40.0 + 0.01 * i, -74.0 + 0.005 * i)
            for i in range(n)]


GRID_CATS = {p.poi_id: p.category_id for p in grid_catalog()}
GRID_CAT_ROWS = [p.category_id for p in grid_catalog()]  # category by catalog row


def small_model(config, seq=("p0", "p1", "p2", "p0", "p3"), dtype=np.float64,
                n_pois=6, seed=5):
    catalog = grid_catalog(n_pois)
    cats = {p.poi_id: p.category_id for p in catalog}
    coords = {p.poi_id: (p.lat, p.lon) for p in catalog}
    traj = make_traj(list(seq), categories=cats, coords=coords)
    row = catalog_rows(catalog)
    g = build_trajectory_graph(traj, row)
    mg = add_master_node(g, row_coords(list(row), coords))
    gt = build_global_temporal([traj], config.n_neighbors, row)
    vocab = category_vocab([g], cats)
    bins = fit_distance_bins(stacks([g], sorted(cats), coords), config.m_bins)
    model = GsanModel(catalog, gt, vocab, bins, config,
                      np.random.default_rng(seed), dtype=dtype)
    return model, mg, catalog


def plan_of(model, mg):
    """The builder's plan of the reference master graph `mg`'s base graph,
    with the coordinates `mg` was built with."""
    return model.plan_stacks(stack_graphs([mg.base], mg.coords))[0]


def encode(model, mg):
    """s_u (1, d) of one graph through the encoder forward."""
    return model.encode_plans([plan_of(model, mg)])


def rec_loss(model, plans, targets):
    """The catalog loss of `plans` against the catalog rows `targets`: a
    `BatchLoss` without views and penalty."""
    return BatchLoss(model, plans, targets, lam=0.0, tau=1.0, gamma=0.0)


def features(model, mg):
    """(n+1, d) node features of one graph from the per-op reference of the
    encoder forward."""
    x = oracles.stacked_features(model, [plan_of(model, mg)])
    return ops.reshape(x, x.shape[1:])


def bias_of(model, plan):
    """(n+1, n+1) attention bias of one plan."""
    return ops.gather_sum(model.bias_table(), plan.bias_idx, plan.bias_w)


def plan_bias(model, mg):
    """(n+1, n+1) attention bias of one graph from its plan."""
    return bias_of(model, plan_of(model, mg))


def boundaries(bins):
    """The m + 1 equally spaced bin boundaries of `bins`."""
    return np.linspace(bins.min_dist, bins.max_dist, bins.m + 1)


def distance_bias(dist, bins, values):
    """Interpolated bias scalar through the vectorized `DistanceBins.locate`;
    `values` has one entry per boundary (the unknown slot is padded on)."""
    lo, hi, w_lo, w_hi = bins.locate(np.array([dist]))
    values = np.append(values, 0.0)
    return float(w_lo[0] * values[lo[0]] + w_hi[0] * values[hi[0]])


class TestDistanceBias:
    def test_boundary_hits_its_scalar(self):
        bins = DistanceBins(0.0, 4.0, 4)
        values = [10.0, 20.0, 30.0, 40.0, 50.0]
        assert distance_bias(2.0, bins, values) == 30.0

    def test_linear_within_bin(self):
        bins = DistanceBins(0.0, 1.0, 1)
        assert distance_bias(0.25, bins, [0.0, 1.0]) == pytest.approx(0.25)

    def test_clamps_outside_range(self):
        bins = DistanceBins(1.0, 2.0, 2)
        values = [5.0, 6.0, 7.0]
        assert distance_bias(0.5, bins, values) == 5.0
        assert distance_bias(9.0, bins, values) == 7.0

    def test_matches_bruteforce_interpolation(self, rng):
        bins = DistanceBins(0.0, 10.0, 20)
        values = rng.normal(size=21)
        bounds = boundaries(bins)
        for dist in rng.uniform(0, 10, size=50):
            k = min(int(dist / 0.5), 19)
            lo, hi = bounds[k], bounds[k + 1]
            expected = (values[k + 1] * (dist - lo) + values[k] * (hi - dist)) / (hi - lo)
            assert distance_bias(dist, bins, values) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("bins", [DistanceBins(0.0, 10.0, 20), DistanceBins(0.3, 7.1, 3),
                                      DistanceBins(2.0, 2.0, 4), DistanceBins(5.0, 1.0, 2)])
    def test_locate_matches_scalar_oracle(self, bins, rng):
        """Same weight on every boundary as the scalar oracle; NaN goes to
        the master/unknown slot m + 1."""
        dists = np.concatenate([rng.uniform(-1, 12, size=200), boundaries(bins),
                                [bins.min_dist, bins.max_dist, np.nan]])
        lo, hi, w_lo, w_hi = bins.locate(dists.reshape(1, -1))
        for got, dist in zip(zip(lo.ravel(), hi.ravel(), w_lo.ravel(), w_hi.ravel()), dists):
            want = ((bins.m + 1, bins.m + 1, 1.0, 0.0) if np.isnan(dist)
                    else locate_scalar(bins, dist))
            dense = []
            for k_lo, k_hi, wl, wh in (got, want):
                weights = np.zeros(bins.m + 2)
                weights[k_lo] += wl
                weights[k_hi] += wh
                dense.append(weights)
            assert np.allclose(dense[0], dense[1], rtol=0, atol=1e-12), dist

    def test_fit_bins_covers_observed_range(self, tiny_config):
        model, mg, _ = small_model(tiny_config)
        bins = fit_distance_bins(stack_graphs([mg.base], mg.coords), 4)
        dists = mg.geo[~np.isnan(mg.geo)]
        assert bins.min_dist == dists.min() and bins.max_dist == dists.max()

    def test_fit_bins_skip_missing_coordinates(self):
        g = traj_graph(["a", "b", "c"])
        coords = {"a": (0.0, 0.0), "b": (0.0, 1.0)}
        bins = fit_distance_bins(stacks([g], "abc", coords) + stacks([g], "abc"), 4)
        assert bins.min_dist == 0.0
        assert bins.max_dist == pytest.approx(haversine(*coords["a"], *coords["b"]))


class TestCategoryBias:
    def test_adjacent_pair_constructed_dot(self, tiny_config):
        model, mg, _ = small_model(tiny_config)
        vocab = model.cat_vocab
        table = np.zeros((len(vocab) + 1, tiny_config.d))
        r = np.arange(1.0, tiny_config.d + 1)
        (k,) = path_pair_indices(mg, vocab, GRID_CAT_ROWS, 0, 1)  # p0, p1
        table[k] = r
        w_r = r / (r @ r)
        assert category_bias(mg, vocab, GRID_CAT_ROWS, 0, 1, table, w_r) == \
            pytest.approx(1.0)

    def test_zero_weight_vector(self, tiny_config):
        model, mg, _ = small_model(tiny_config)
        table = np.ones((len(model.cat_vocab) + 1, tiny_config.d))
        w_r = np.zeros(tiny_config.d)
        for i in mg.base.nodes:
            for j in mg.base.nodes:
                assert category_bias(mg, model.cat_vocab, GRID_CAT_ROWS, i, j, table,
                                     w_r) == 0.0

    def test_two_edge_path_is_mean(self):
        cats = {"a": "ca", "b": "cb", "c": "cc"}
        g = traj_graph(["a", "b", "c"], categories=cats)  # rows 0, 1, 2
        g.edges.discard((0, 2))
        mg = add_master_node(g)
        vocab = category_vocab([g], cats)
        d = 1
        table = np.zeros((len(vocab) + 1, d))
        table[vocab[("ca", "cb")]] = [0.2]
        table[vocab[("cb", "cc")]] = [0.6]
        # canonical a->c path goes a,b,c (2 hops) rather than via master
        assert master_paths(mg)[(0, 2)] == [0, 1, 2]
        assert mg.mid[0, 2] == 1
        assert category_bias(mg, vocab, ["ca", "cb", "cc"], 0, 2, table, np.ones(1)) == \
            pytest.approx(0.4)

    def test_self_pair_uses_self_loop(self, tiny_config):
        model, mg, _ = small_model(tiny_config)
        idxs = path_pair_indices(mg, model.cat_vocab, GRID_CAT_ROWS, 0, 0)
        assert idxs == [model.cat_vocab[("food", "food")]]

    def test_master_edges_use_unknown(self, tiny_config):
        model, mg, _ = small_model(tiny_config)
        assert path_pair_indices(mg, model.cat_vocab, GRID_CAT_ROWS, MASTER, 0) == [0]


class TestBiasMatrixOracle:
    """The index-gather bias equals the pair-by-pair loop over BFS hop
    counts, scalar distances and canonical paths."""

    CATS = {f"p{i}": f"c{i % 4}" for i in range(30)}
    CAT_ROWS = [c for _, c in sorted(CATS.items())]  # category by catalog row

    @staticmethod
    def build(config, coords_for, rng):
        """(model, master graphs, poi_id -> (lat, lon) dict or None)."""
        cats = TestBiasMatrixOracle.CATS
        catalog = sorted((Poi(p, c, 40.0 + 0.01 * rng.random(), -74.0 + 0.01 * rng.random())
                          for p, c in cats.items()), key=lambda p: p.poi_id)
        coords = coords_for({p.poi_id: (p.lat, p.lon) for p in catalog})
        graphs = augmented_graphs(rng, 12, cats)
        xy = row_coords(sorted(cats), coords)
        mgraphs = [add_master_node(g, xy) for g in graphs]
        gt = build_global_temporal([], config.n_neighbors, catalog_rows(catalog))
        # fit the vocabulary on the graphs without a c3 node, so every pair
        # with c3 is UNKNOWN
        cat_rows = TestBiasMatrixOracle.CAT_ROWS
        vocab = category_vocab(
            [g for g in graphs if all(cat_rows[p] != "c3" for p in g.nodes)], cats)
        bins = fit_distance_bins(stacks(graphs[::3], sorted(cats), coords), config.m_bins)
        model = GsanModel(catalog, gt, vocab, bins, config, rng, dtype=np.float64)
        for p in model.params.values():
            p.data = rng.normal(size=p.data.shape)
        return model, mgraphs, coords

    @pytest.mark.parametrize("coords_for", [
        lambda c: c,
        lambda c: None,
        lambda c: {p: ll for k, (p, ll) in enumerate(sorted(c.items())) if k % 4},
    ], ids=["coords", "no-coords", "some-coords-missing"])
    @pytest.mark.parametrize("use_category_bias", [True, False])
    def test_matches_loop_oracle(self, tiny_config, rng, coords_for, use_category_bias):
        cfg = tiny_config.override(use_category_bias=use_category_bias)
        model, mgraphs, coords = self.build(cfg, coords_for, rng)
        plans = builder_plans(model, [mg.base for mg in mgraphs], coords)
        unknown = 0
        for mg, plan in zip(mgraphs, plans):
            expected = oracles.bias_matrix(model, mg, mg.coords, self.CAT_ROWS)
            assert np.allclose(bias_of(model, plan).data, expected, rtol=0, atol=1e-9)
            unknown += sum(category_pair(self.CAT_ROWS[a], self.CAT_ROWS[b])
                           not in model.cat_vocab for a, b in mg.base.edges)
        assert unknown  # some base edges take the UNKNOWN row

    def test_missing_coordinates_take_unknown_slot(self, tiny_config, rng):
        cfg = tiny_config.override(use_category_bias=False)
        model, mgraphs, _ = self.build(
            cfg, lambda c: {p: ll for p, ll in c.items() if p != "p0"}, rng)
        b_spd = model.params["b_spd"].data[:, 0]
        unknown = model.params["b_dist"].data[cfg.m_bins + 1, 0]
        with_p0 = [mg for mg in mgraphs if 0 in mg.base.nodes]  # p0 is row 0
        assert with_p0
        for mg in with_p0:
            a = mg.nodes.index(0)
            bias = plan_bias(model, mg).data
            assert np.allclose(bias[a, :-1], b_spd[mg.hops[a, :-1]] + unknown, rtol=0, atol=1e-12)


class TestCategoryIndex:
    """Category rows looked up from the catalog equal the oracle's per-edge
    labels."""

    def test_matches_oracle_on_augmented_graphs(self, tiny_config, rng):
        model, mgraphs, _ = TestBiasMatrixOracle.build(tiny_config, lambda c: c, rng)
        one_way = 0
        for st in stacks([mg.base for mg in mgraphs], model.poi_ids):
            for got, m in zip(model._category_index(st), st.members):
                mg = mgraphs[m]
                want = [[oracles.pair_index(model.cat_vocab, TestBiasMatrixOracle.CAT_ROWS,
                                            mg.base, u, w) for w in mg.nodes] for u in mg.nodes]
                assert got.tolist() == want
                one_way += sum((b, a) not in mg.base.edges for a, b in mg.base.edges)
        assert one_way  # some labels are read against their edge's direction

    def test_unseen_pair_maps_to_unknown_row(self, tiny_config):
        # the vocabulary holds food-shop and shop-park edges, not food-park
        model, _, _ = small_model(tiny_config, seq=("p0", "p1", "p2"))
        assert ("food", "park") not in model.cat_vocab
        [st] = stacks([traj_graph(["p0", "p2"], model.poi_ids, categories=GRID_CATS)],
                      model.poi_ids)
        [plan] = model.plan_stacks([st])
        [cat] = model._category_index(st)
        assert cat[0, 1] == cat[1, 0] == 0
        assert cat[0, 0] == model.cat_vocab[("food", "food")]
        offset = len(model.params["b_spd"].data) + len(model.params["b_dist"].data)
        assert plan.bias_idx[3, 0, 1] == plan.bias_idx[3, 1, 0] == offset

    def test_hop_rows(self, tiny_config):
        model, mg, _ = small_model(tiny_config)
        hop_idx = plan_of(model, mg).bias_idx[0]
        assert model.params["b_spd"].data.shape == (4, 1)
        assert (hop_idx[:-1, :-1] == mg.hops[:-1, :-1]).all()
        assert (hop_idx[-1] == 3).all() and (hop_idx[:, -1] == 3).all()


class TestNodeFeatures:
    def test_zero_tables_leave_poi_vectors(self, tiny_config):
        model, mg, _ = small_model(tiny_config)
        for name in ("deg_in", "deg_out", "pop", "pos"):
            model.params[name].data[:] = 0.0
        x = features(model, mg).data
        n_base = len(mg.base.nodes)
        assert np.allclose(x[:n_base], model.params["poi_table"].data[mg.base.nodes])
        assert np.allclose(x[n_base], x[:n_base].mean(axis=0))

    def test_reverse_position_indices(self, tiny_config):
        # eight visits, six unique POIs; positions count back from the end
        seq = ["p1", "p2", "p3", "p4", "p5", "p3", "p6", "p4"]
        cats = {f"p{i}": "c" for i in range(1, 7)}
        g = traj_graph(seq, categories=cats)
        rev = {sorted(cats)[p]: g.seq_len - s + 1 for p, s in zip(g.nodes, g.last_step)}
        assert rev == {"p4": 1, "p6": 2, "p3": 3, "p5": 4, "p2": 7, "p1": 8}

    def test_position_overflow_is_fatal(self, tiny_config):
        cfg = tiny_config.override(t_max=2)
        model, mg, _ = small_model(cfg)
        with pytest.raises(NumericError, match="t_max"):
            plan_of(model, mg)
        with pytest.raises(NumericError, match="t_max"):
            encode(model, mg)

    def test_position_equal_to_t_max_is_allowed(self, tiny_config):
        # p1 was last seen 4 steps from the end of p0 p1 p2 p0 p3
        model, mg, _ = small_model(tiny_config.override(t_max=4))
        assert plan_of(model, mg).pos_rows.max() == 4
        model, mg, _ = small_model(tiny_config.override(t_max=3))
        with pytest.raises(NumericError, match="position index 4 exceeds t_max=3"):
            plan_of(model, mg)

    def test_all_equal_features_give_master_mean(self, tiny_config):
        model, mg, _ = small_model(tiny_config)
        for name in ("deg_in", "deg_out", "pop", "pos"):
            model.params[name].data[:] = 0.0
        model.params["poi_table"].data[:] = 3.25
        x = features(model, mg).data
        assert np.allclose(x[-1], 3.25)


class TestAttention:
    def test_uniform_rows_for_identical_features_zero_bias(self, tiny_config):
        model, mg, _ = small_model(tiny_config)
        n = len(mg.nodes)
        x = Tensor(np.ones((n, tiny_config.d)))
        bias = Tensor(np.zeros((n, n)))
        out = oracles.stacked_attention(model, x, bias, 0)
        # identical features -> uniform attention -> identical outputs
        assert np.allclose(out.data, out.data[0], atol=1e-10)

    def test_rows_sum_to_one_with_extreme_bias(self, tiny_config, rng):
        model, mg, _ = small_model(tiny_config)
        x = features(model, mg)
        n = len(mg.nodes)
        bias = Tensor(rng.uniform(-50, 50, size=(n, n)))
        q = ops.matmul(x, model.params["l0.h0.wq"])
        k = ops.matmul(x, model.params["l0.h0.wk"])
        scores = ops.mul(ops.matmul(q, k.T), 1 / math.sqrt(tiny_config.d)) + bias
        attn = attention_softmax(scores.data)
        assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-6)

    def test_huge_bias_captures_column(self, tiny_config):
        model, mg, _ = small_model(tiny_config)
        n = len(mg.nodes)
        bias = np.zeros((n, n))
        bias[0, 3] = 1e9
        x = features(model, mg)
        q = ops.matmul(x, model.params["l0.h0.wq"])
        k = ops.matmul(x, model.params["l0.h0.wk"])
        scores = ops.mul(ops.matmul(q, k.T), 1 / math.sqrt(tiny_config.d)) + Tensor(bias)
        attn = attention_softmax(scores.data)
        assert attn[0, 3] == pytest.approx(1.0)

    def test_no_structural_zeros(self, tiny_config):
        model, mg, _ = small_model(tiny_config)
        x = features(model, mg)
        bias = plan_bias(model, mg)
        q = ops.matmul(x, model.params["l0.h0.wq"])
        k = ops.matmul(x, model.params["l0.h0.wk"])
        scores = ops.mul(ops.matmul(q, k.T), 1 / math.sqrt(tiny_config.d)) + bias
        assert (attention_softmax(scores.data) > 0).all()

    def test_matches_dense_oracle(self, tiny_config):
        model, mg, _ = small_model(tiny_config, seq=("p0", "p1", "p2"))
        cfg = tiny_config
        s_u = encode(model, mg)

        # independent dense-matrix oracle over the full biased-attention eq.
        P = model.params["poi_table"].data
        nodes = mg.base.nodes
        x = (P[nodes]
             + model.params["deg_in"].data[model.deg_in_bucket[nodes]]
             + model.params["deg_out"].data[model.deg_out_bucket[nodes]]
             + model.params["pop"].data[model.pop_bucket[nodes]])
        pos = np.array([mg.base.seq_len - s + 1 for s in mg.base.last_step])
        x = x + model.params["pos"].data[pos]
        master = x.mean(axis=0) + model.params["pos"].data[0]
        x = np.vstack([x, master])

        bias = oracles.bias_matrix(model, mg, mg.coords, GRID_CAT_ROWS)

        def softmax(m):
            e = np.exp(m - m.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        q = x @ model.params["l0.h0.wq"].data
        k = x @ model.params["l0.h0.wk"].data
        v = x @ model.params["l0.h0.wv"].data
        attn = softmax(q @ k.T / math.sqrt(cfg.d) + bias)
        out = (attn @ v) @ model.params["l0.wo"].data
        last = nodes.index(mg.base.last_node)
        expected = np.concatenate([out[-1], out[last]])[None, :] @ model.params["w_s"].data
        assert np.allclose(s_u, expected, atol=1e-5)


class TestReadoutAndPrediction:
    def test_projection_identity_blocks(self, tiny_config):
        model, mg, _ = small_model(tiny_config)
        d = tiny_config.d
        w = np.zeros((2 * d, d))
        w[:d, :] = np.eye(d)
        model.params["w_s"].data = w
        x = encode(model, mg)  # with [I; 0], s_u equals the master row

        model2, mg2, _ = small_model(tiny_config)
        for name, p in model.params.items():
            model2.params[name].data = p.data.copy()
        feats = features(model2, mg2)
        bias = plan_bias(model2, mg2)
        updated = oracles.stacked_attention(model2, feats, bias, 0).data
        assert np.allclose(x[0], updated[-1], atol=1e-9)

        w2 = np.zeros((2 * d, d))
        w2[d:, :] = np.eye(d)
        model.params["w_s"].data = w2
        x2 = encode(model, mg)
        last = mg.base.nodes.index(mg.base.last_node)
        assert np.allclose(x2[0], updated[last], atol=1e-9)

    def test_zero_s_u_gives_uniform_prediction(self, tiny_config):
        model, _, catalog = small_model(tiny_config)
        logits = model.predict(np.zeros((1, tiny_config.d)))
        assert np.allclose(ops.row_softmax(logits).data, 1.0 / len(catalog))

    def test_aligned_one_hot_rows_saturate(self, tiny_config):
        model, _, _ = small_model(tiny_config)
        d = tiny_config.d
        table = np.zeros((6, d))
        table[3, 0] = 100.0
        model.params["poi_table"].data = table
        s_u = np.zeros((1, d))
        s_u[0, 0] = 1.0
        probs = ops.row_softmax(model.predict(s_u)).data
        assert probs[0, 3] == pytest.approx(1.0)

    def test_prediction_is_distribution(self, tiny_config, rng):
        model, mg, _ = small_model(tiny_config)
        probs = ops.row_softmax(model.predict(encode(model, mg))).data
        assert (probs >= 0).all()
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)

    def test_scaling_s_u_preserves_ranking(self, tiny_config):
        model, mg, _ = small_model(tiny_config)
        s_u = encode(model, mg)
        logits1 = (s_u @ model.params["poi_table"].data.T)[0]
        logits2 = (3.0 * s_u @ model.params["poi_table"].data.T)[0]
        assert list(np.argsort(-logits1)) == list(np.argsort(-logits2))

    def test_rec_loss_closed_forms(self, tiny_config):
        model, _, _ = small_model(tiny_config)
        # logits whose softmax is one-hot on p2, and uniform logits
        sure = np.zeros((1, 6))
        sure[0, 2] = 100.0  # p2 is catalog row 2
        loss, _ = log_softmax_nll(sure, [2])
        assert float(loss) == pytest.approx(0.0, abs=1e-9)

        uniform = np.zeros((1, 6))
        loss_u, _ = log_softmax_nll(uniform, [0])
        assert float(loss_u) == pytest.approx(np.log(6))

        both, _ = log_softmax_nll(np.concatenate([sure, uniform]), [2, 0])
        assert float(both) == pytest.approx(np.log(6) / 2)

    def test_rec_loss_hard_target_keeps_gradient(self, tiny_config):
        # p0 trails the best POI by a logit gap of 30; a loss clamped at
        # probability 1e-12 would read 27.63 with an all-zero gradient
        model, _, _ = small_model(tiny_config)
        d = tiny_config.d
        table = np.zeros((6, d))
        table[3, 0] = 30.0  # p3 is catalog row 3
        model.params["poi_table"].data = table
        s_u = np.eye(1, d)
        loss, d_logits = log_softmax_nll(model.predict(s_u), [0])
        assert float(loss) == pytest.approx(30.0, abs=1e-9)
        assert (d_logits @ table)[0, 0] == pytest.approx(30.0, abs=1e-9)  # of s_u
        assert (d_logits.T @ s_u)[3, 0] == pytest.approx(1.0, abs=1e-9)  # of poi_table

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weight", [1.0, 0.1, 3.0])
    def test_log_softmax_nll_bytes_equal_reference_tape(self, dtype, weight):
        """Loss and weighted gradient equal, byte for byte, those of the
        reference op with `weight` as the upstream gradient."""
        logits = np.random.default_rng(9).normal(0, 3, size=(5, 7)).astype(dtype)
        targets = [0, 6, 2, 2, 4]
        loss, grad = log_softmax_nll(logits, targets, weight)
        ref = Tensor(logits, requires_grad=True)
        out = ops.log_softmax_nll(ref, targets)
        ops.mul(out, weight).backward()
        assert (loss.dtype, loss.tobytes()) == (out.data.dtype, out.data.tobytes())
        assert (grad.dtype, grad.tobytes()) == (ref.grad.dtype, ref.grad.tobytes())

    def test_log_softmax_nll_shape_errors(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3,\)"):
            log_softmax_nll(np.zeros((2, 3)), [0, 1, 2])
        with pytest.raises(ShapeError):
            log_softmax_nll(np.zeros(3), [0])


class TestGradients:
    def test_full_loss_grad_check(self, tiny_config):
        cfg = tiny_config.override(d=4, m_bins=3, degree_buckets=2, t_max=8)
        model, mg, _ = small_model(cfg, seq=("p0", "p1", "p2", "p0"), n_pois=4)

        def f():
            return rec_loss(model, [plan_of(model, mg)], [2])

        report = grad_check(f, model.params)
        assert max(report.values()) < 1e-4, report


class TestEncodePlans:
    """The stacked forward over plans equals the per-graph oracle encoder,
    row by row in input order, on graphs of mixed sizes in one call."""

    @pytest.mark.parametrize("overrides", [
        {}, {"heads": 2, "layers": 2}, {"use_category_bias": False},
    ], ids=["1x1", "2heads-2layers", "no-category-bias"])
    def test_matches_oracle_encode(self, tiny_config, rng, overrides):
        cfg = tiny_config.override(t_max=40, **overrides)
        model, mgraphs, coords = TestBiasMatrixOracle.build(cfg, lambda c: c, rng)
        for p in model.params.values():
            p.data *= 0.3  # keep the attention rows away from one-hot
        sizes = [len(mg.nodes) for mg in mgraphs]
        assert len(set(sizes)) > 3 and sizes != sorted(sizes)
        s_u = model.encode_plans(builder_plans(model, [mg.base for mg in mgraphs], coords))
        expected = np.vstack([oracles.encode(model, mg).data for mg in mgraphs])
        assert s_u.shape == (len(mgraphs), cfg.d)
        assert np.allclose(s_u, expected, rtol=0, atol=1e-9)

    def test_random_graphs_without_coordinates(self, tiny_config, rng):
        model, mgraphs, _ = TestBiasMatrixOracle.build(tiny_config, lambda c: None, rng)
        for p in model.params.values():
            p.data *= 0.3
        order = rng.permutation(len(mgraphs))
        s_u = model.encode_plans(builder_plans(model, [mgraphs[i].base for i in order]))
        for row, i in zip(s_u, order):
            assert np.allclose(row, oracles.encode(model, mgraphs[i]).data[0],
                               rtol=0, atol=1e-9)

    def test_grad_check_on_mixed_sizes(self, tiny_config):
        """Finite differences through two groups of two and three graphs, so
        every stacked matmul form carries a gradient."""
        cfg = tiny_config.override(d=4, m_bins=3, degree_buckets=2, t_max=8, heads=2)
        model, _, catalog = small_model(cfg, n_pois=6)
        cats = {p.poi_id: p.category_id for p in catalog}
        coords = {p.poi_id: (p.lat, p.lon) for p in catalog}
        seqs = [("p0", "p1", "p2", "p0"), ("p3", "p4"), ("p1", "p5", "p2"),
                ("p2", "p3"), ("p5", "p0", "p1")]
        graphs = [traj_graph(list(s), cats, categories=cats) for s in seqs]
        plans = builder_plans(model, graphs, coords)
        targets = [2, 0, 4, 1, 3]  # catalog rows of p2, p0, p4, p1, p3

        def f():
            return rec_loss(model, plans, targets)

        report = grad_check(f, model.params)
        assert max(report.values()) < 1e-4, report

    def test_plan_holds_no_parameters(self, tiny_config):
        model, mg, _ = small_model(tiny_config)
        plan = plan_of(model, mg)
        before = model.encode_plans([plan]).copy()
        model.params["poi_table"].data += 1.0
        assert not np.allclose(model.encode_plans([plan]), before)
        assert np.array_equal(model.encode_plans([plan]), encode(model, mg))
        assert plan.bias_idx.dtype == np.int32
        assert plan.bias_w.dtype == model.dtype
        assert plan.poi_rows.tolist() == mg.base.nodes

    def test_empty_plan_list_fatal(self, tiny_config):
        model, _, _ = small_model(tiny_config)
        with pytest.raises(ValueError, match="at least one plan"):
            model.encode_plans([])

    def test_non_finite_attention_scores_fatal(self, tiny_config):
        model, mg, _ = small_model(tiny_config)
        model.params["l0.h0.wq"].data[:] = np.inf
        other = small_model(tiny_config, seq=("p1", "p2"))[1]
        with np.errstate(invalid="ignore"), pytest.raises(NumericError,
                                                          match="attention scores"):
            model.encode_plans([plan_of(model, mg), plan_of(model, other)])

    def test_non_finite_logits_fatal(self, tiny_config):
        model, mg, _ = small_model(tiny_config)
        model.params["w_s"].data[:] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericError,
                                                          match="catalog logits"):
            model.predict(model.encode_plans([plan_of(model, mg)] * 2))


def random_graph(rng, n_rows):
    """A trajectory graph of random nodes (catalog rows below n_rows) and
    random directed edges, some self-loops missing, some nodes synthetic (no
    step)."""
    nodes = rng.choice(n_rows, size=rng.integers(1, 12), replace=False).tolist()
    edges = {(a, b) for a in nodes for b in nodes if rng.random() < 0.2}
    seq_len = len(nodes) + int(rng.integers(0, 6))
    steps = rng.choice(np.arange(1, seq_len + 1), size=len(nodes), replace=False)
    last_step = [0 if rng.random() < 0.2 else int(t) for t in steps]
    return TrajectoryGraph(nodes, edges, last_step, nodes[int(rng.integers(len(nodes)))],
                           seq_len)


class TestPlanBuilder:
    """One builder call over many graphs gives, graph by graph, the bytes of
    the reference plan built on that graph's own master graph."""

    CATS = TestBiasMatrixOracle.CATS

    def model(self, cfg, graphs, coords, rng, dtype):
        catalog = sorted((Poi(p, c, 40.0 + 0.01 * rng.random(), -74.0 + 0.01 * rng.random())
                          for p, c in self.CATS.items()), key=lambda p: p.poi_id)
        gt = build_global_temporal([], cfg.n_neighbors, catalog_rows(catalog))
        # the vocabulary of half the graphs, so that some pairs are UNKNOWN
        bins = fit_distance_bins(stacks(graphs, sorted(self.CATS), coords), cfg.m_bins)
        return GsanModel(catalog, gt, category_vocab(graphs[::2], self.CATS), bins, cfg,
                         rng, dtype=dtype)

    @pytest.mark.parametrize("source", ["augmented", "random"])
    @pytest.mark.parametrize("coords_for", [
        lambda c: c,
        lambda c: None,
        lambda c: {p: ll for k, (p, ll) in enumerate(sorted(c.items())) if k % 3},
    ], ids=["coords", "no-coords", "some-coords-missing"])
    @pytest.mark.parametrize("use_category_bias", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_plans_equal_reference_bytes(self, tiny_config, rng, source, coords_for,
                                         use_category_bias, dtype):
        cfg = tiny_config.override(use_category_bias=use_category_bias, t_max=40)
        coords = coords_for({p: (40.0 + 0.02 * rng.random(), -74.0 + 0.02 * rng.random())
                             for p in self.CATS})
        if source == "augmented":
            graphs = augmented_graphs(rng, 30, self.CATS)
        else:
            graphs = [random_graph(rng, len(self.CATS)) for _ in range(120)]
        assert len({len(g.nodes) for g in graphs}) > 5
        assert any(0 in g.last_step for g in graphs)  # synthetic nodes
        model = self.model(cfg, graphs, coords, rng, dtype)
        plans = builder_plans(model, graphs, coords)
        assert len(plans) == len(graphs)
        for g, got in zip(graphs, plans):
            want = oracles.plan(model, add_master_node(g, row_coords(model.poi_ids, coords)))
            for name in ("poi_rows", "pos_rows", "bias_idx", "bias_w"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape), name
                assert a.tobytes() == b.tobytes(), name
            assert got.last == want.last

    def test_vocabulary_and_bins_equal_reference(self, rng):
        graphs = augmented_graphs(rng, 30, self.CATS)
        coords = {p: (40.0 + 0.02 * rng.random(), -74.0 + 0.02 * rng.random())
                  for p in sorted(self.CATS)[::2]}
        assert category_vocab(graphs, self.CATS) == oracles.category_vocab(
            graphs, TestBiasMatrixOracle.CAT_ROWS)
        geo = [add_master_node(g, row_coords(sorted(self.CATS), coords)).geo for g in graphs]
        seen = np.concatenate([d[~np.isnan(d)] for d in geo])
        bins = fit_distance_bins(stacks(graphs, sorted(self.CATS), coords), 4)
        assert (bins.min_dist, bins.max_dist) == (seen.min(), seen.max())

    def test_t_max_error_is_the_reference_error(self, tiny_config, rng):
        cfg = tiny_config.override(t_max=5)
        # largest reverse positions 2, 8, 7 and 10; node counts 2, 2, 4 and 2
        graphs = [traj_graph(seq, self.CATS, categories=self.CATS) for seq in (
            ["p1", "p2"], ["p3"] + ["p4"] * 7, ["p5", "p6", "p7"] + ["p8"] * 4,
            ["p0"] + ["p9"] * 9)]
        model = self.model(cfg, graphs, None, rng, np.float64)
        assert len(builder_plans(model, graphs[:1])) == 1
        for order in (graphs, graphs[2:] + graphs[:2], graphs[3:] + graphs[:3]):
            # the per-graph loop stops at the first graph past t_max
            with pytest.raises(NumericError) as want:
                for g in order:
                    oracles.plan(model, add_master_node(g))
            with pytest.raises(NumericError) as got:
                builder_plans(model, order)
            assert str(got.value) == str(want.value)
        assert str(got.value) == "position index 10 exceeds t_max=5"


class TestFusedEncoder:
    """`encode_plans` is one pass: its forward equals the per-op reference
    (`oracles.stacked_encode`) byte for byte, and its hand-written backward
    that reference's tape."""

    CATS = TestBiasMatrixOracle.CATS
    # node counts 5, 3, 2, 5, 3, 5: groups of 3, 2 and 1 graphs, interleaved
    SEQS = [["p1", "p3", "p5", "p7", "p9"], ["p3", "p4", "p5"], ["p1", "p2"],
            ["p2", "p4", "p6", "p8", "p0", "p2"], ["p6", "p7", "p6", "p8"],
            ["p9", "p8", "p7", "p6", "p5"]]
    SETTINGS = [{}, {"heads": 2, "layers": 2}, {"use_category_bias": False},
                {"heads": 2, "layers": 2, "use_category_bias": False}]
    SETTING_IDS = ["1x1", "2heads-2layers", "no-category-bias", "2x2-no-category-bias"]

    def build(self, cfg, dtype, seed=3):
        """(model, plans) over the catalog of CATS, with degrees and visits
        from the trajectories of SEQS and parameters scaled so that no
        attention row is one-hot."""
        rng = np.random.default_rng(seed)
        catalog = [Poi(p, c, 40.0 + 0.01 * rng.random(), -74.0 + 0.01 * rng.random())
                   for p, c in sorted(self.CATS.items())]
        coords = {p.poi_id: (p.lat, p.lon) for p in catalog}
        trajs = [make_traj(seq, categories=self.CATS, coords=coords) for seq in self.SEQS]
        row = catalog_rows(catalog)
        graphs = [build_trajectory_graph(t, row) for t in trajs]
        gt = build_global_temporal(trajs, cfg.n_neighbors, row)
        bins = fit_distance_bins(stacks(graphs, sorted(self.CATS), coords), cfg.m_bins)
        model = GsanModel(catalog, gt, category_vocab(graphs[::2], self.CATS), bins, cfg,
                          rng, dtype=dtype)
        for p in model.params.values():
            p.data[...] = rng.normal(scale=0.3, size=p.data.shape)
        return model, builder_plans(model, graphs, coords)

    def test_groups_of_one_two_and_three_graphs(self, tiny_config):
        _, plans = self.build(tiny_config, np.float64)
        sizes = [len(p.poi_rows) for p in plans]
        assert sorted(sizes.count(n) for n in set(sizes)) == [1, 2, 3]
        assert sizes != sorted(sizes)

    @pytest.mark.parametrize("overrides", SETTINGS, ids=SETTING_IDS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_bytes_equal_per_op_reference(self, tiny_config, overrides, dtype):
        model, plans = self.build(tiny_config.override(**overrides), dtype)
        got = model.encode_plans(plans)
        want = oracles.stacked_encode(model, plans).data
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("overrides", SETTINGS, ids=SETTING_IDS)
    def test_backward_matches_per_op_tape(self, tiny_config, overrides):
        model, plans = self.build(tiny_config.override(**overrides), np.float64)
        probe = np.random.default_rng(7).normal(size=(len(plans), tiny_config.d))
        _, cache = model.encode_plans(plans, keep=True)
        got = model.backward(probe, cache, np.zeros_like(model.params["poi_table"].data))
        ops.tsum(ops.mul(oracles.stacked_encode(model, plans), probe)).backward()
        for name, p in model.params.items():
            grad = p.grad
            if grad is None:  # cat_pairs and w_r without the category bias
                assert name not in got, name
                continue
            assert np.abs(grad).max() > 0, name
            assert np.allclose(got[name], grad, rtol=0, atol=1e-9), name

    def test_grad_check_two_layers_mixed_sizes(self, tiny_config):
        cfg = tiny_config.override(d=4, m_bins=3, degree_buckets=2, t_max=8, heads=2, layers=2)
        model, plans = self.build(cfg, np.float64)
        targets = [2, 0, 4, 1, 3, 5]

        def f():
            return rec_loss(model, plans, targets)

        report = grad_check(f, model.params)
        assert max(report.values()) < 1e-4, report

    def test_parents_are_the_bias_table_and_encoder_parameters(self, tiny_config):
        """The pass reads the encoder parameters and, through the bias
        table, b_spd, b_dist and, with the category bias, cat_pairs and w_r:
        `backward` gives a gradient to each of these and to no other."""
        for use_category_bias in (True, False):
            model, plans = self.build(tiny_config.override(use_category_bias=use_category_bias),
                                      np.float64)
            s_u, cache = model.encode_plans(plans, keep=True)
            poi_grad = np.zeros_like(model.params["poi_table"].data)
            grads = model.backward(np.ones_like(s_u), cache, poi_grad)
            unread = set() if use_category_bias else {"cat_pairs", "w_r"}
            assert set(grads) == set(model.params) - unread
            assert grads["poi_table"] is poi_grad
            assert all(grads[k].shape == model.params[k].data.shape for k in grads)

    def test_unkept_pass_keeps_no_intermediates(self, tiny_config, monkeypatch):
        model, plans = self.build(tiny_config, np.float64)
        with monkeypatch.context() as m:
            m.setattr(encoder, "GroupCache", lambda *a: pytest.fail("kept intermediates"))
            s_u = model.encode_plans(plans)
        kept, _ = model.encode_plans(plans, keep=True)
        assert s_u.tobytes() == kept.tobytes()

    def test_non_finite_softmax_output_fatal(self):
        with np.errstate(invalid="ignore"), pytest.raises(NumericError,
                                                          match="non-finite softmax output"):
            attention_softmax(np.array([[[np.inf, 0.0], [0.0, 1.0]]]))

    def test_non_finite_attention_scores_fatal_in_a_later_layer(self, tiny_config):
        model, plans = self.build(tiny_config.override(layers=2), np.float64)
        model.params["l1.h0.wk"].data[:] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericError,
                                                          match="non-finite attention scores"):
            model.encode_plans(plans)
