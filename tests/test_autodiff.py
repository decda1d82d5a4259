import numpy as np
import pytest

from poirec import autodiff as ad
from poirec.autodiff import Adam, ShapeError, Tensor
import oracles


def randt(shape, seed=0, scale=1.0):
    return Tensor(np.random.default_rng(seed).normal(0, scale, size=shape),
                  requires_grad=True)


class TestForwardValues:
    def test_row_softmax_of_zeros_is_uniform(self):
        y = ad.row_softmax(Tensor([[0.0, 0.0, 0.0]]))
        assert np.allclose(y.data, 1 / 3)

    def test_row_softmax_rows_sum_to_one(self):
        x = randt((5, 7), seed=3)
        y = ad.row_softmax(x)
        assert np.allclose(y.data.sum(axis=1), 1.0, atol=1e-6)
        assert (y.data >= 0).all()

    def test_softmax_shift_invariance(self):
        x = np.random.default_rng(0).normal(size=(2, 4))
        a = ad.row_softmax(Tensor(x)).data
        b = ad.row_softmax(Tensor(x + 17.0)).data
        assert np.allclose(a, b, atol=1e-12)

    def test_cosine_similarity_self_is_one(self):
        x = randt((1, 6), seed=1)
        assert oracles.cosine_similarity(x, x).item() == pytest.approx(1.0)

    def test_matmul_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(3, 4\).*\(3, 4\)"):
            ad.matmul(randt((3, 4)), randt((3, 4)))

    def test_cross_entropy_uniform(self):
        loss = ad.log_softmax_nll(Tensor(np.zeros((1, 100))), [7])
        assert loss.item() == pytest.approx(np.log(100))

    def test_reductions_accumulate_in_64_bit(self):
        x = Tensor(np.full(10_000, 0.1, dtype=np.float32))
        assert ad.tsum(x).item() == pytest.approx(1000.0, rel=1e-6)


class TestGradients:
    def test_square_at_three(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        report = ad.grad_check(lambda: ad.tsum(ad.mul(x, x)), {"x": x}, eps=1e-6)
        y = ad.tsum(ad.mul(x, x))
        y.backward()
        assert x.grad[0] == pytest.approx(6.0)
        assert report["x"] < 1e-6

    def test_matmul_against_finite_differences(self):
        a = randt((3, 4), seed=0)
        b = randt((4, 2), seed=1)
        report = ad.grad_check(lambda: ad.tsum(ad.mul(ad.matmul(a, b), ad.matmul(a, b))),
                               {"a": a, "b": b})
        assert max(report.values()) < 1e-4

    def test_softmax_first_entry(self):
        x = randt((1, 5), seed=2)
        first = Tensor(np.eye(1, 5))
        report = ad.grad_check(lambda: ad.tsum(ad.mul(ad.row_softmax(x), first)),
                               {"x": x})
        assert report["x"] < 1e-4

    def test_fan_out_sums_adjoints(self):
        # diamond: y = f(x) used by two branches whose sum is the output
        x = Tensor(np.array([2.0]), requires_grad=True)
        h = ad.mul(x, x)
        out = ad.tsum(ad.add(ad.mul(h, 3.0), ad.mul(h, 5.0)))
        out.backward()
        assert x.grad[0] == pytest.approx(8 * 2 * 2.0)  # d/dx 8x^2 = 16x

    @pytest.mark.parametrize("op", [
        lambda t: ad.exp(t),
        lambda t: ad.log_softmax_nll(t, [0, 2, 1, 2]),
        lambda t: ad.sqrt(ad.add(ad.mul(t, t), 1.0)),
        lambda t: ad.row_softmax(t),
        lambda t: ad.tmean(t, axis=0, keepdims=True),
        lambda t: ad.concat([t, t], axis=1),
        lambda t: ad.reshape(t, (1, -1)),
        lambda t: t.T,
    ])
    def test_each_op_passes_grad_check(self, op):
        t = randt((4, 3), seed=7, scale=0.5)
        weights = Tensor(np.random.default_rng(9).normal(size=op(t).shape))
        report = ad.grad_check(lambda: ad.tsum(ad.mul(op(t), weights)), {"t": t})
        assert report["t"] < 1e-4

    def test_gather_scatter_pick_grads(self):
        table = randt((5, 3), seed=4)
        picked = np.zeros((5, 3))
        picked[[1, 3], [0, 2]] = 1.0

        def f():
            g = ad.gather_rows(table, [0, 2, 2, 4])
            s = ad.gather_sum(g, [[0, 1, 2], [9, 10, 11]], np.full((2, 3), 0.5))
            return ad.tsum(ad.mul(s, s)) + ad.tsum(ad.mul(table, picked))

        report = ad.grad_check(f, {"table": table})
        assert report["table"] < 1e-4

    def test_gather_sum_matches_gather_mul_sum(self):
        table = randt((5, 2), seed=8)
        idx = np.array([[[0, 9, 4], [1, 1, 2]], [[3, 0, 2], [8, 9, 9]]])
        w = np.random.default_rng(10).normal(size=idx.shape)
        expected = (table.data.ravel()[idx] * w).sum(axis=0)
        assert np.allclose(ad.gather_sum(table, idx, w).data, expected, atol=1e-12)

        probe = Tensor(np.random.default_rng(11).normal(size=expected.shape))
        report = ad.grad_check(
            lambda: ad.tsum(ad.mul(ad.gather_sum(table, idx, w), probe)), {"table": table})
        assert report["table"] < 1e-4

    def test_cosine_and_infonce_style_grads(self):
        a = randt((2, 4), seed=5)
        b = randt((2, 4), seed=6)

        def f():
            return oracles.cosine_similarity(a, b)

        report = ad.grad_check(f, {"a": a, "b": b})
        assert max(report.values()) < 1e-4


class TestLogSoftmaxNll:
    def test_grad_check_float64(self):
        x = randt((4, 6), seed=12, scale=2.0)
        report = ad.grad_check(lambda: ad.log_softmax_nll(x, [0, 5, 2, 5]), {"x": x})
        assert report["x"] < 1e-4

    def test_gradient_is_softmax_minus_onehot_over_batch(self):
        x = randt((3, 4), seed=13)
        ad.log_softmax_nll(x, [1, 0, 3]).backward()
        expected = ad.row_softmax(Tensor(x.data)).data - np.eye(4)[[1, 0, 3]]
        assert np.allclose(x.grad, expected / 3, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_clamped_chain_where_floor_does_not_bind(self, dtype):
        logits = np.random.default_rng(14).normal(0, 3, size=(6, 9)).astype(dtype)
        targets = [0, 8, 3, 3, 5, 1]
        tol = 1e-12 if dtype == np.float64 else 1e-5
        loss = ad.log_softmax_nll(Tensor(logits), targets)
        assert loss.dtype == dtype
        assert loss.item() == pytest.approx(oracles.softmax_nll(logits, targets), abs=tol)

    def test_hard_target_keeps_a_gradient(self):
        # the target trails the best logit by 30: softmax gives e^-30, below
        # the old 1e-12 probability floor, which passed a zero gradient
        x = Tensor(np.array([[30.0, 0.0, 0.0]]), requires_grad=True)
        loss = ad.log_softmax_nll(x, [1])
        loss.backward()
        assert oracles.softmax_nll(x.data, [1]) == pytest.approx(-np.log(1e-12))
        assert loss.item() == pytest.approx(30.0, abs=1e-9)
        assert x.grad[0, 1] == pytest.approx(-1.0, abs=1e-9)
        assert x.grad[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_shape_errors(self):
        with pytest.raises(ShapeError, match="log_softmax_nll"):
            ad.log_softmax_nll(randt((5,)), [0])
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3,\)"):
            ad.log_softmax_nll(randt((2, 3)), [0, 1, 2])
        with pytest.raises(ShapeError):
            ad.log_softmax_nll(randt((2, 3)), [[0], [1]])


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = Tensor(np.ones(3), requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        p.grad = np.zeros(3)
        opt.step()
        assert opt.step_count == 1
        assert np.array_equal(p.data, np.ones(3))

    def test_first_step_is_signed_lr(self):
        # bias correction makes m_hat = g, v_hat = g^2 on step 1
        p = Tensor(np.array([1.0, -1.0]), requires_grad=True)
        opt = Adam({"p": p}, lr=0.01)
        p.grad = np.array([0.5, -2.0])
        opt.step()
        expected = np.array([1.0, -1.0]) - 0.01 * np.sign([0.5, -2.0]) * (
            np.abs([0.5, -2.0]) / (np.abs([0.5, -2.0]) + 1e-8))
        assert np.allclose(p.data, expected, atol=1e-9)

    def test_two_steps_match_hand_recurrence(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        g = 0.3
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam({"p": p}, lr=lr, beta1=b1, beta2=b2, eps=eps)
        x, m, v = 0.0, 0.0, 0.0
        for t in (1, 2):
            p.grad = np.array([g])
            opt.step()
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert p.data[0] == pytest.approx(x, abs=1e-12)
