import math

import numpy as np
import pytest

from poirec import autodiff as ad
from poirec.autodiff import NumericError, Tensor
from poirec.data import Poi
from poirec.encoder import (DistanceBins, GsanModel, build_category_vocab,
                            fit_distance_bins)
from poirec.graphs import (MASTER, add_master_node, build_global_temporal,
                           build_trajectory_graph, haversine)
from oracles import category_bias, locate_scalar, master_paths, path_pair_indices
import oracles
from conftest import augmented_graphs, make_traj


def grid_catalog(n=6):
    cats = ["food", "shop", "park"]
    return [Poi(f"p{i}", cats[i % 3], 40.0 + 0.01 * i, -74.0 + 0.005 * i)
            for i in range(n)]


def small_model(config, seq=("p0", "p1", "p2", "p0", "p3"), dtype=np.float64,
                n_pois=6, seed=5):
    catalog = grid_catalog(n_pois)
    cats = {p.poi_id: p.category_id for p in catalog}
    coords = {p.poi_id: (p.lat, p.lon) for p in catalog}
    traj = make_traj(list(seq), categories=cats, coords=coords)
    g = build_trajectory_graph(traj, categories=cats)
    mg = add_master_node(g, coords, config.spd_cap)
    gt = build_global_temporal([traj], config.n_neighbors, catalog=catalog)
    vocab = build_category_vocab([g])
    bins = fit_distance_bins([mg], config.m_bins)
    model = GsanModel(catalog, gt, vocab, bins, config,
                      np.random.default_rng(seed), dtype=dtype)
    return model, mg, catalog


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
        bounds = bins.boundaries
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
        dists = np.concatenate([rng.uniform(-1, 12, size=200), bins.boundaries,
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
        _, mg, _ = small_model(tiny_config)
        bins = fit_distance_bins([mg], 4)
        dists = mg.geo[~np.isnan(mg.geo)]
        assert bins.min_dist == dists.min() and bins.max_dist == dists.max()

    def test_fit_bins_skip_missing_coordinates(self):
        g = build_trajectory_graph(make_traj(["a", "b", "c"]))
        coords = {"a": (0.0, 0.0), "b": (0.0, 1.0)}
        bins = fit_distance_bins([add_master_node(g, coords), add_master_node(g)], 4)
        assert bins.min_dist == 0.0
        assert bins.max_dist == pytest.approx(haversine(*coords["a"], *coords["b"]))


class TestCategoryBias:
    def test_adjacent_pair_constructed_dot(self, tiny_config):
        model, mg, _ = small_model(tiny_config)
        vocab = model.cat_vocab
        table = np.zeros((len(vocab) + 1, tiny_config.d))
        r = np.arange(1.0, tiny_config.d + 1)
        (k,) = path_pair_indices(mg, vocab, "p0", "p1")
        table[k] = r
        w_r = r / (r @ r)
        assert category_bias(mg, vocab, "p0", "p1", table, w_r) == pytest.approx(1.0)

    def test_zero_weight_vector(self, tiny_config):
        model, mg, _ = small_model(tiny_config)
        table = np.ones((len(model.cat_vocab) + 1, tiny_config.d))
        w_r = np.zeros(tiny_config.d)
        for i in mg.base.nodes:
            for j in mg.base.nodes:
                assert category_bias(mg, model.cat_vocab, i, j, table, w_r) == 0.0

    def test_two_edge_path_is_mean(self):
        cats = {"a": "ca", "b": "cb", "c": "cc"}
        g = build_trajectory_graph(make_traj(["a", "b", "c"], categories=cats))
        g.edges.discard(("a", "c"))
        mg = add_master_node(g)
        vocab = build_category_vocab([g])
        d = 1
        table = np.zeros((len(vocab) + 1, d))
        table[vocab[("ca", "cb")]] = [0.2]
        table[vocab[("cb", "cc")]] = [0.6]
        # canonical a->c path goes a,b,c (2 hops) rather than via master
        assert master_paths(mg)[("a", "c")] == ["a", "b", "c"]
        assert mg.mid[0, 2] == 1
        assert category_bias(mg, vocab, "a", "c", table, np.ones(1)) == pytest.approx(0.4)

    def test_self_pair_uses_self_loop(self, tiny_config):
        model, mg, _ = small_model(tiny_config)
        idxs = path_pair_indices(mg, model.cat_vocab, "p0", "p0")
        assert idxs == [model.cat_vocab[("food", "food")]]

    def test_master_edges_use_unknown(self, tiny_config):
        model, mg, _ = small_model(tiny_config)
        assert path_pair_indices(mg, model.cat_vocab, MASTER, "p0") == [0]


class TestBiasMatrixOracle:
    """The index-gather bias equals the pair-by-pair loop over BFS hop
    counts, scalar distances and canonical paths."""

    @staticmethod
    def build(config, coords_for, rng):
        cats = {f"p{i}": f"c{i % 4}" for i in range(30)}
        catalog = [Poi(p, c, 40.0 + 0.01 * rng.random(), -74.0 + 0.01 * rng.random())
                   for p, c in cats.items()]
        coords = coords_for({p.poi_id: (p.lat, p.lon) for p in catalog})
        graphs = augmented_graphs(rng, 12, cats)
        mgraphs = [add_master_node(g, coords, config.spd_cap) for g in graphs]
        gt = build_global_temporal([], config.n_neighbors, catalog=catalog)
        # fit the vocabulary on half the graphs so some pairs are UNKNOWN
        vocab = build_category_vocab(graphs[::2])
        model = GsanModel(catalog, gt, vocab, fit_distance_bins(mgraphs[::3], config.m_bins),
                          config, rng, dtype=np.float64)
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
        for mg in mgraphs:
            expected = oracles.bias_matrix(model, mg, coords)
            assert np.allclose(model.bias_matrix(mg).data, expected, rtol=0, atol=1e-9)

    def test_missing_coordinates_take_unknown_slot(self, tiny_config, rng):
        cfg = tiny_config.override(use_category_bias=False)
        model, mgraphs, _ = self.build(
            cfg, lambda c: {p: ll for p, ll in c.items() if p != "p0"}, rng)
        b_spd = model.params["b_spd"].data[:, 0]
        unknown = model.params["b_dist"].data[cfg.m_bins + 1, 0]
        with_p0 = [mg for mg in mgraphs if "p0" in mg.base.nodes]
        assert with_p0
        for mg in with_p0:
            a = mg.nodes.index("p0")
            bias = model.bias_matrix(mg).data
            hops = np.minimum(mg.hops[a, :-1], cfg.spd_cap)
            assert np.allclose(bias[a, :-1], b_spd[hops] + unknown, rtol=0, atol=1e-12)


class TestNodeFeatures:
    def test_zero_tables_leave_poi_vectors(self, tiny_config):
        model, mg, _ = small_model(tiny_config)
        for name in ("deg_in", "deg_out", "pop", "pos"):
            model.params[name].data[:] = 0.0
        x = model.node_features(mg).data
        n_base = len(mg.base.nodes)
        idx = [model.poi_index[p] for p in mg.base.nodes]
        assert np.allclose(x[:n_base], model.params["poi_table"].data[idx])
        assert np.allclose(x[n_base], x[:n_base].mean(axis=0))

    def test_reverse_position_indices(self, tiny_config):
        # eight visits, six unique POIs; positions count back from the end
        seq = ["p1", "p2", "p3", "p4", "p5", "p3", "p6", "p4"]
        cats = {f"p{i}": "c" for i in range(1, 7)}
        g = build_trajectory_graph(make_traj(seq, categories=cats))
        rev = {p: g.seq_len - s + 1 for p, s in g.last_step.items()}
        assert rev == {"p4": 1, "p6": 2, "p3": 3, "p5": 4, "p2": 7, "p1": 8}

    def test_position_overflow_is_fatal(self, tiny_config):
        cfg = tiny_config.override(t_max=2)
        model, mg, _ = small_model(cfg)
        with pytest.raises(NumericError, match="t_max"):
            model.node_features(mg)

    def test_all_equal_features_give_master_mean(self, tiny_config):
        model, mg, _ = small_model(tiny_config)
        for name in ("deg_in", "deg_out", "pop", "pos"):
            model.params[name].data[:] = 0.0
        model.params["poi_table"].data[:] = 3.25
        x = model.node_features(mg).data
        assert np.allclose(x[-1], 3.25)


class TestAttention:
    def test_uniform_rows_for_identical_features_zero_bias(self, tiny_config):
        model, mg, _ = small_model(tiny_config)
        n = len(mg.nodes)
        x = Tensor(np.ones((n, tiny_config.d)))
        bias = Tensor(np.zeros((n, n)))
        out = model.attention_layer(x, bias, 0)
        # identical features -> uniform attention -> identical outputs
        assert np.allclose(out.data, out.data[0], atol=1e-10)

    def test_rows_sum_to_one_with_extreme_bias(self, tiny_config, rng):
        model, mg, _ = small_model(tiny_config)
        x = model.node_features(mg)
        n = len(mg.nodes)
        bias = Tensor(rng.uniform(-50, 50, size=(n, n)))
        q = ad.matmul(x, model.params["l0.h0.wq"])
        k = ad.matmul(x, model.params["l0.h0.wk"])
        scores = ad.mul(ad.matmul(q, k.T), 1 / math.sqrt(tiny_config.d)) + bias
        attn = ad.row_softmax(scores).data
        assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-6)

    def test_huge_bias_captures_column(self, tiny_config):
        model, mg, _ = small_model(tiny_config)
        n = len(mg.nodes)
        bias = np.zeros((n, n))
        bias[0, 3] = 1e9
        x = model.node_features(mg)
        q = ad.matmul(x, model.params["l0.h0.wq"])
        k = ad.matmul(x, model.params["l0.h0.wk"])
        scores = ad.mul(ad.matmul(q, k.T), 1 / math.sqrt(tiny_config.d)) + Tensor(bias)
        attn = ad.row_softmax(scores).data
        assert attn[0, 3] == pytest.approx(1.0)

    def test_no_structural_zeros(self, tiny_config):
        model, mg, _ = small_model(tiny_config)
        x = model.node_features(mg)
        bias = model.bias_matrix(mg)
        q = ad.matmul(x, model.params["l0.h0.wq"])
        k = ad.matmul(x, model.params["l0.h0.wk"])
        scores = ad.mul(ad.matmul(q, k.T), 1 / math.sqrt(tiny_config.d)) + bias
        assert (ad.row_softmax(scores).data > 0).all()

    def test_matches_dense_oracle(self, tiny_config):
        model, mg, _ = small_model(tiny_config, seq=("p0", "p1", "p2"))
        cfg = tiny_config
        s_u = model.encode(mg).data

        # independent dense-matrix oracle over the full biased-attention eq.
        P = model.params["poi_table"].data
        nodes = mg.base.nodes
        idx = [model.poi_index[p] for p in nodes]
        x = (P[idx]
             + model.params["deg_in"].data[model.deg_in_bucket[idx]]
             + model.params["deg_out"].data[model.deg_out_bucket[idx]]
             + model.params["pop"].data[model.pop_bucket[idx]])
        pos = np.array([mg.base.seq_len - mg.base.last_step[p] + 1 for p in nodes])
        x = x + model.params["pos"].data[pos]
        master = x.mean(axis=0) + model.params["pos"].data[0]
        x = np.vstack([x, master])

        coords = {p.poi_id: (p.lat, p.lon) for p in grid_catalog()}
        bias = oracles.bias_matrix(model, mg, coords)

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
        x = model.encode(mg)  # with [I; 0], s_u equals the master row

        model2, mg2, _ = small_model(tiny_config)
        for name, p in model.params.items():
            model2.params[name].data = p.data.copy()
        feats = model2.node_features(mg2)
        bias = model2.bias_matrix(mg2)
        updated = model2.attention_layer(feats, bias, 0).data
        assert np.allclose(x.data[0], updated[-1], atol=1e-9)

        w2 = np.zeros((2 * d, d))
        w2[d:, :] = np.eye(d)
        model.params["w_s"].data = w2
        x2 = model.encode(mg)
        last = mg.base.nodes.index(mg.base.last_node)
        assert np.allclose(x2.data[0], updated[last], atol=1e-9)

    def test_zero_s_u_gives_uniform_prediction(self, tiny_config):
        model, _, catalog = small_model(tiny_config)
        logits = model.predict(Tensor(np.zeros((1, tiny_config.d))))
        assert np.allclose(ad.row_softmax(logits).data, 1.0 / len(catalog))

    def test_aligned_one_hot_rows_saturate(self, tiny_config):
        model, _, _ = small_model(tiny_config)
        d = tiny_config.d
        table = np.zeros((6, d))
        table[3, 0] = 100.0
        model.params["poi_table"].data = table
        s_u = np.zeros((1, d))
        s_u[0, 0] = 1.0
        probs = ad.row_softmax(model.predict(Tensor(s_u))).data
        assert probs[0, 3] == pytest.approx(1.0)

    def test_prediction_is_distribution(self, tiny_config, rng):
        model, mg, _ = small_model(tiny_config)
        probs = ad.row_softmax(model.predict(model.encode(mg))).data
        assert (probs >= 0).all()
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)

    def test_scaling_s_u_preserves_ranking(self, tiny_config):
        model, mg, _ = small_model(tiny_config)
        s_u = model.encode(mg).data
        logits1 = (s_u @ model.params["poi_table"].data.T)[0]
        logits2 = (3.0 * s_u @ model.params["poi_table"].data.T)[0]
        assert list(np.argsort(-logits1)) == list(np.argsort(-logits2))

    def test_rec_loss_closed_forms(self, tiny_config):
        model, _, _ = small_model(tiny_config)
        # logits whose softmax is one-hot on p2, and uniform logits
        sure = np.zeros((1, 6))
        sure[0, model.poi_index["p2"]] = 100.0
        loss = model.rec_loss(Tensor(sure), ["p2"])
        assert loss.item() == pytest.approx(0.0, abs=1e-9)

        uniform = np.zeros((1, 6))
        loss_u = model.rec_loss(Tensor(uniform), ["p0"])
        assert loss_u.item() == pytest.approx(np.log(6))

        both = model.rec_loss(Tensor(np.concatenate([sure, uniform])), ["p2", "p0"])
        assert both.item() == pytest.approx(np.log(6) / 2)

    def test_rec_loss_hard_target_keeps_gradient(self, tiny_config):
        # p0 trails the best POI by a logit gap of 30; a loss clamped at
        # probability 1e-12 would read 27.63 with an all-zero gradient
        model, _, _ = small_model(tiny_config)
        d = tiny_config.d
        table = np.zeros((6, d))
        table[model.poi_index["p3"], 0] = 30.0
        model.params["poi_table"].data = table
        s_u = Tensor(np.eye(1, d), requires_grad=True)
        loss = model.rec_loss(model.predict(s_u), ["p0"])
        loss.backward()
        assert loss.item() == pytest.approx(30.0, abs=1e-9)
        assert s_u.grad[0, 0] == pytest.approx(30.0, abs=1e-9)
        grad = model.params["poi_table"].grad
        assert grad[model.poi_index["p3"], 0] == pytest.approx(1.0, abs=1e-9)


class TestGradients:
    def test_full_loss_grad_check(self, tiny_config):
        cfg = tiny_config.override(d=4, m_bins=3, degree_buckets=2, t_max=8)
        model, mg, _ = small_model(cfg, seq=("p0", "p1", "p2", "p0"), n_pois=4)

        def f():
            s_u = model.encode(mg)
            return model.rec_loss(model.predict(s_u), ["p2"])

        report = ad.grad_check(f, model.params)
        assert max(report.values()) < 1e-4, report
