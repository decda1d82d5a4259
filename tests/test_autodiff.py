import numpy as np
import pytest

from poirec.autodiff import Adam, ShapeError
import oracles
import ops
from ops import Tensor
from gradcheck import grad_check


def randt(shape, seed=0, scale=1.0):
    return Tensor(np.random.default_rng(seed).normal(0, scale, size=shape),
                  requires_grad=True)


class TestForwardValues:
    def test_row_softmax_of_zeros_is_uniform(self):
        y = ops.row_softmax(Tensor([[0.0, 0.0, 0.0]]))
        assert np.allclose(y.data, 1 / 3)

    def test_row_softmax_rows_sum_to_one(self):
        x = randt((5, 7), seed=3)
        y = ops.row_softmax(x)
        assert np.allclose(y.data.sum(axis=1), 1.0, atol=1e-6)
        assert (y.data >= 0).all()

    def test_softmax_shift_invariance(self):
        x = np.random.default_rng(0).normal(size=(2, 4))
        a = ops.row_softmax(Tensor(x)).data
        b = ops.row_softmax(Tensor(x + 17.0)).data
        assert np.allclose(a, b, atol=1e-12)

    def test_cosine_similarity_self_is_one(self):
        x = randt((1, 6), seed=1)
        assert oracles.cosine_similarity(x, x).item() == pytest.approx(1.0)

    def test_matmul_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(3, 4\).*\(3, 4\)"):
            ops.matmul(randt((3, 4)), randt((3, 4)))

    def test_cross_entropy_uniform(self):
        loss = ops.log_softmax_nll(Tensor(np.zeros((1, 100))), [7])
        assert loss.item() == pytest.approx(np.log(100))

    def test_reductions_accumulate_in_64_bit(self):
        x = Tensor(np.full(10_000, 0.1, dtype=np.float32))
        assert ops.tsum(x).item() == pytest.approx(1000.0, rel=1e-6)


class TestGradients:
    def test_square_at_three(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        report = grad_check(lambda: ops.tsum(ops.mul(x, x)), {"x": x}, eps=1e-6)
        y = ops.tsum(ops.mul(x, x))
        y.backward()
        assert x.grad[0] == pytest.approx(6.0)
        assert report["x"] < 1e-6

    def test_matmul_against_finite_differences(self):
        a = randt((3, 4), seed=0)
        b = randt((4, 2), seed=1)
        report = grad_check(lambda: ops.tsum(ops.mul(ops.matmul(a, b), ops.matmul(a, b))),
                               {"a": a, "b": b})
        assert max(report.values()) < 1e-4

    def test_softmax_first_entry(self):
        x = randt((1, 5), seed=2)
        first = Tensor(np.eye(1, 5))
        report = grad_check(lambda: ops.tsum(ops.mul(ops.row_softmax(x), first)),
                               {"x": x})
        assert report["x"] < 1e-4

    def test_fan_out_sums_adjoints(self):
        # diamond: y = f(x) used by two branches whose sum is the output
        x = Tensor(np.array([2.0]), requires_grad=True)
        h = ops.mul(x, x)
        out = ops.tsum(ops.add(ops.mul(h, 3.0), ops.mul(h, 5.0)))
        out.backward()
        assert x.grad[0] == pytest.approx(8 * 2 * 2.0)  # d/dx 8x^2 = 16x

    @pytest.mark.parametrize("op", [
        lambda t: ops.exp(t),
        lambda t: ops.log_softmax_nll(t, [0, 2, 1, 2]),
        lambda t: ops.sqrt(ops.add(ops.mul(t, t), 1.0)),
        lambda t: ops.row_softmax(t),
        lambda t: ops.tmean(t, axis=0, keepdims=True),
        lambda t: ops.concat([t, t], axis=1),
        lambda t: ops.reshape(t, (1, -1)),
        lambda t: t.T,
    ])
    def test_each_op_passes_grad_check(self, op):
        t = randt((4, 3), seed=7, scale=0.5)
        weights = Tensor(np.random.default_rng(9).normal(size=op(t).shape))
        report = grad_check(lambda: ops.tsum(ops.mul(op(t), weights)), {"t": t})
        assert report["t"] < 1e-4

    def test_gather_scatter_pick_grads(self):
        table = randt((5, 3), seed=4)
        picked = np.zeros((5, 3))
        picked[[1, 3], [0, 2]] = 1.0

        def f():
            g = ops.gather_rows(table, [0, 2, 2, 4])
            s = ops.gather_sum(g, [[0, 1, 2], [9, 10, 11]], np.full((2, 3), 0.5))
            return ops.tsum(ops.mul(s, s)) + ops.tsum(ops.mul(table, picked))

        report = grad_check(f, {"table": table})
        assert report["table"] < 1e-4

    def test_gather_sum_matches_gather_mul_sum(self):
        table = randt((5, 2), seed=8)
        idx = np.array([[[0, 9, 4], [1, 1, 2]], [[3, 0, 2], [8, 9, 9]]])
        w = np.random.default_rng(10).normal(size=idx.shape)
        expected = (table.data.ravel()[idx] * w).sum(axis=0)
        assert np.allclose(ops.gather_sum(table, idx, w).data, expected, atol=1e-12)

        probe = Tensor(np.random.default_rng(11).normal(size=expected.shape))
        report = grad_check(
            lambda: ops.tsum(ops.mul(ops.gather_sum(table, idx, w), probe)), {"table": table})
        assert report["table"] < 1e-4

    def test_cosine_and_infonce_style_grads(self):
        a = randt((2, 4), seed=5)
        b = randt((2, 4), seed=6)

        def f():
            return oracles.cosine_similarity(a, b)

        report = grad_check(f, {"a": a, "b": b})
        assert max(report.values()) < 1e-4


GATHER_IDX = np.array([[0, 5, 11], [3, 3, 7]])
GATHER_W = np.array([[0.5, -1.0, 2.0], [1.5, 0.25, -0.75]])

# (operand shape of the constant c, op applied to the parameter x (4, 3) and c)
CONSTANT_OPERAND_CASES = {
    "add": ((4, 3), lambda x, c: ops.add(c, x)),
    "add-broadcast": ((1, 3), lambda x, c: ops.add(x, c)),
    "mul": ((4, 3), lambda x, c: ops.mul(c, x)),
    "mul-scalar": ((), lambda x, c: ops.mul(x, c)),
    "matmul-right": ((3, 2), lambda x, c: ops.matmul(x, c)),
    "matmul-left": ((2, 4), lambda x, c: ops.matmul(c, x)),
    "matmul-stacked": ((2, 5, 4), lambda x, c: ops.matmul(c, x)),
    "concat": ((2, 3), lambda x, c: ops.concat([c, x, c], axis=0)),
    "gather_rows": ((5, 3), lambda x, c: ops.add(ops.gather_rows(c, [0, 4, 4, 1]),
                                                 ops.gather_rows(x, [1, 1, 3, 0]))),
    "gather_sum": ((4, 3), lambda x, c: ops.mul(ops.gather_sum(c, GATHER_IDX, GATHER_W),
                                               ops.gather_sum(x, GATHER_IDX, GATHER_W))),
    "tsum": ((4, 3), lambda x, c: ops.add(ops.tsum(c, axis=0), ops.tsum(x, axis=0))),
    "row_softmax": ((4, 3), lambda x, c: ops.mul(ops.row_softmax(c), x)),
    "log_softmax_nll": ((4, 3), lambda x, c: ops.add(ops.log_softmax_nll(c, [0, 2, 1, 2]),
                                                    ops.log_softmax_nll(x, [1, 0, 0, 2]))),
}


class TestConstantOperands:
    @pytest.mark.parametrize("case", list(CONSTANT_OPERAND_CASES))
    def test_constant_gets_no_gradient(self, case):
        shape, op = CONSTANT_OPERAND_CASES[case]
        c_data = np.random.default_rng(1).normal(size=shape)
        probe = Tensor(np.random.default_rng(2).normal(size=op(randt((4, 3)), Tensor(c_data)).shape))

        def loss(x, c):
            return ops.tsum(ops.mul(op(x, c), probe))

        x, c = randt((4, 3), seed=3), Tensor(c_data)
        loss(x, c).backward()
        assert c.grad is None and probe.grad is None
        # the parameter's gradient is the one it gets when c is trainable
        x_ref, c_ref = randt((4, 3), seed=3), Tensor(c_data.copy(), requires_grad=True)
        loss(x_ref, c_ref).backward()
        assert np.array_equal(x.grad, x_ref.grad)
        assert grad_check(lambda: loss(x, c), {"x": x})["x"] < 1e-4


class TestL2Penalty:
    @staticmethod
    def params(dtype):
        rng = np.random.default_rng(20)
        return [Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
                for shape in ((3, 4), (5,), (2, 1))]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_one_node_with_gradient_two_gamma_theta(self, dtype):
        params, gamma = self.params(dtype), 1e-3
        out = ops.l2_penalty(params, gamma)
        assert out.dtype == dtype and out._parents == tuple(params)
        squares = sum(float((p.data.astype(np.float64) ** 2).sum()) for p in params)
        assert out.item() == pytest.approx(gamma * squares, rel=1e-12 if dtype == np.float64
                                           else 1e-6)
        out.backward()
        for p in params:
            assert np.array_equal(p.grad, dtype(2 * gamma) * p.data)

    def test_against_finite_differences(self):
        params = self.params(np.float64)
        report = grad_check(lambda: ops.mul(ops.l2_penalty(params, 0.3), 2.5),
                            {str(i): p for i, p in enumerate(params)})
        assert max(report.values()) < 1e-4

    def test_records_no_graph_under_no_grad(self):
        with ops.no_grad():
            assert ops.l2_penalty(self.params(np.float64), 0.5)._parents == ()


class TestStackedMatmul:
    @pytest.mark.parametrize("b_shape", [(4, 2), (3, 4, 2)], ids=["shared", "per-item"])
    def test_each_item_is_its_2d_product(self, b_shape):
        a, b = randt((3, 5, 4), seed=0), randt(b_shape, seed=1)
        out = ops.matmul(a, b).data
        for i in range(3):
            b_i = b.data if b.data.ndim == 2 else b.data[i]
            assert np.allclose(out[i], a.data[i] @ b_i, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("b_shape", [(4, 2), (3, 4, 2)], ids=["shared", "per-item"])
    def test_against_finite_differences(self, b_shape):
        a, b = randt((3, 5, 4), seed=2), randt(b_shape, seed=3)
        probe = Tensor(np.random.default_rng(4).normal(size=(3, 5, 2)))
        report = grad_check(lambda: ops.tsum(ops.mul(ops.matmul(a, b), probe)),
                               {"a": a, "b": b})
        assert max(report.values()) < 1e-4

    def test_transpose_swaps_last_two_axes(self):
        a = randt((2, 3, 4), seed=5)
        assert np.array_equal(a.T.data, np.swapaxes(a.data, 1, 2))
        probe = Tensor(np.random.default_rng(6).normal(size=(2, 4, 3)))
        report = grad_check(lambda: ops.tsum(ops.mul(a.T, probe)), {"a": a})
        assert report["a"] < 1e-4

    @pytest.mark.parametrize("a_shape,b_shape", [
        ((3, 5, 4), (5, 2)), ((3, 5, 4), (2, 4, 2)), ((5, 4), (3, 4, 2)),
        ((2, 3, 5, 4), (4, 2)), ((4,), (4, 2)),
    ])
    def test_shape_errors(self, a_shape, b_shape):
        with pytest.raises(ShapeError, match="matmul shape mismatch"):
            ops.matmul(randt(a_shape), randt(b_shape))


class TestNoGrad:
    def test_records_no_graph(self):
        a, b = randt((2, 3, 4), seed=0), randt((4, 2), seed=1)
        with ops.no_grad():
            out = ops.tsum(ops.row_softmax(ops.matmul(a, b)))
        assert out._parents == () and out._backward is None
        assert not out.requires_grad
        # the same ops outside the block record their parents again
        assert ops.tsum(ops.matmul(a, b))._parents

    def test_values_equal_recorded_ops(self):
        a, b = randt((2, 3, 4), seed=2), randt((2, 4, 3), seed=3)
        with ops.no_grad():
            quiet = ops.row_softmax(ops.matmul(a, b)).data
        assert np.array_equal(quiet, ops.row_softmax(ops.matmul(a, b)).data)

    def test_mode_restored_after_an_error(self):
        a = randt((2, 2))
        with pytest.raises(ShapeError):
            with ops.no_grad():
                ops.matmul(a, randt((3, 3)))
        assert ops.mul(a, 2.0)._parents

    def test_nested_blocks_restore_the_outer_mode(self):
        a = randt((2, 2))
        with ops.no_grad():
            with ops.no_grad():
                pass
            assert ops.mul(a, 2.0)._parents == ()
        assert ops.mul(a, 2.0)._parents


class TestLogSoftmaxNll:
    def test_grad_check_float64(self):
        x = randt((4, 6), seed=12, scale=2.0)
        report = grad_check(lambda: ops.log_softmax_nll(x, [0, 5, 2, 5]), {"x": x})
        assert report["x"] < 1e-4

    def test_gradient_is_softmax_minus_onehot_over_batch(self):
        x = randt((3, 4), seed=13)
        ops.log_softmax_nll(x, [1, 0, 3]).backward()
        expected = ops.row_softmax(Tensor(x.data)).data - np.eye(4)[[1, 0, 3]]
        assert np.allclose(x.grad, expected / 3, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_clamped_chain_where_floor_does_not_bind(self, dtype):
        logits = np.random.default_rng(14).normal(0, 3, size=(6, 9)).astype(dtype)
        targets = [0, 8, 3, 3, 5, 1]
        tol = 1e-12 if dtype == np.float64 else 1e-5
        loss = ops.log_softmax_nll(Tensor(logits), targets)
        assert loss.dtype == dtype
        assert loss.item() == pytest.approx(oracles.softmax_nll(logits, targets), abs=tol)

    def test_hard_target_keeps_a_gradient(self):
        # the target trails the best logit by 30: softmax gives e^-30, below
        # the old 1e-12 probability floor, which passed a zero gradient
        x = Tensor(np.array([[30.0, 0.0, 0.0]]), requires_grad=True)
        loss = ops.log_softmax_nll(x, [1])
        loss.backward()
        assert oracles.softmax_nll(x.data, [1]) == pytest.approx(-np.log(1e-12))
        assert loss.item() == pytest.approx(30.0, abs=1e-9)
        assert x.grad[0, 1] == pytest.approx(-1.0, abs=1e-9)
        assert x.grad[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_shape_errors(self):
        with pytest.raises(ShapeError, match="log_softmax_nll"):
            ops.log_softmax_nll(randt((5,)), [0])
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3,\)"):
            ops.log_softmax_nll(randt((2, 3)), [0, 1, 2])
        with pytest.raises(ShapeError):
            ops.log_softmax_nll(randt((2, 3)), [[0], [1]])


class TestAdam:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_steps_byte_equal_to_textbook_oracle(self, dtype):
        rng = np.random.default_rng(30)
        shapes = {"w": (4, 3), "b": (3,), "s": (1,)}
        init = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
        opt, ref = (Adam({k: Tensor(v.copy(), requires_grad=True) for k, v in init.items()},
                         lr=0.01) for _ in range(2))
        for step in range(6):
            grads = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
            grads["s"] = None if step == 2 else grads["s"]  # a step without a gradient
            for o in (opt, ref):
                for k, p in o.params.items():
                    p.grad = None if grads[k] is None else grads[k].copy()
            opt.step()
            oracles.adam_step(ref)
        assert opt.step_count == ref.step_count == 6
        for k in shapes:
            assert opt.params[k].data.dtype == dtype
            assert opt.params[k].data.tobytes() == ref.params[k].data.tobytes()
            assert opt.m[k].tobytes() == ref.m[k].tobytes()
            assert opt.v[k].tobytes() == ref.v[k].tobytes()

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
