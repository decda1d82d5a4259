"""Minimal reverse-mode autodiff on numpy arrays, plus Adam.

Tensors hold float32 or float64 numpy data. Reductions accumulate in 64-bit
regardless of storage dtype; gradient checks should be run with float64
parameters (finite differences are unreliable in 32-bit).
"""

import numpy as np


class ShapeError(ValueError):
    pass


class NumericError(RuntimeError):
    pass


def _as_array(x, dtype=None):
    a = np.asarray(x)
    if a.dtype.kind != "f":
        a = a.astype(np.float64 if dtype is None else dtype)
    if dtype is not None and a.dtype != dtype:
        a = a.astype(dtype)
    return a


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph traversal ---------------------------------------------------

    def backward(self):
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar, got shape {self.shape}")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        for node in topo:
            node.grad = np.zeros_like(node.data)
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(other, mul(self, -1.0))

    def __truediv__(self, other):
        return mul(self, power(_wrap(other), -1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    @property
    def T(self):
        return transpose(self)

    def item(self):
        return float(self.data.reshape(()))


def _wrap(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if isinstance(like, Tensor) else None
    return Tensor(_as_array(x, dtype))


def _needs(*tensors):
    return any(t.requires_grad or t._parents for t in tensors)


def _unbroadcast(g, shape):
    """Sum a gradient down to the original (broadcast-from) shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# -- elementwise ops -------------------------------------------------------


def add(a, b):
    a, b = _wrap(a, like=b if isinstance(b, Tensor) else None), _wrap(b, like=a if isinstance(a, Tensor) else None)
    out_data = a.data + b.data
    out = Tensor(out_data, parents=(a, b) if _needs(a, b) else ())

    def backward(g):
        a.grad += _unbroadcast(g, a.data.shape).astype(a.dtype)
        b.grad += _unbroadcast(g, b.data.shape).astype(b.dtype)

    if out._parents:
        out._backward = backward
    return out


def mul(a, b):
    a, b = _wrap(a, like=b if isinstance(b, Tensor) else None), _wrap(b, like=a if isinstance(a, Tensor) else None)
    out = Tensor(a.data * b.data, parents=(a, b) if _needs(a, b) else ())

    def backward(g):
        a.grad += _unbroadcast(g * b.data, a.data.shape).astype(a.dtype)
        b.grad += _unbroadcast(g * a.data, b.data.shape).astype(b.dtype)

    if out._parents:
        out._backward = backward
    return out


def power(a, exponent):
    a = _wrap(a)
    out = Tensor(np.power(a.data, exponent), parents=(a,) if _needs(a) else ())

    def backward(g):
        a.grad += g * exponent * np.power(a.data, exponent - 1)

    if out._parents:
        out._backward = backward
    return out


def exp(a):
    a = _wrap(a)
    out_data = np.exp(a.data)
    out = Tensor(out_data, parents=(a,) if _needs(a) else ())

    def backward(g):
        a.grad += g * out_data

    if out._parents:
        out._backward = backward
    return out


def sqrt(a):
    a = _wrap(a)
    out_data = np.sqrt(a.data)
    out = Tensor(out_data, parents=(a,) if _needs(a) else ())

    def backward(g):
        a.grad += g / (2.0 * out_data)

    if out._parents:
        out._backward = backward
    return out


def clamp_min(a, floor):
    """max(a, floor); gradient flows only through unclamped entries."""
    a = _wrap(a)
    mask = a.data >= floor
    out = Tensor(np.maximum(a.data, floor), parents=(a,) if _needs(a) else ())

    def backward(g):
        a.grad += g * mask

    if out._parents:
        out._backward = backward
    return out


# -- linear algebra --------------------------------------------------------


def matmul(a, b):
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data, parents=(a, b) if _needs(a, b) else ())

    def backward(g):
        a.grad += (g @ b.data.T).astype(a.dtype)
        b.grad += (a.data.T @ g).astype(b.dtype)

    if out._parents:
        out._backward = backward
    return out


def transpose(a):
    a = _wrap(a)
    out = Tensor(a.data.T, parents=(a,) if _needs(a) else ())

    def backward(g):
        a.grad += g.T

    if out._parents:
        out._backward = backward
    return out


def reshape(a, shape):
    a = _wrap(a)
    out = Tensor(a.data.reshape(shape), parents=(a,) if _needs(a) else ())

    def backward(g):
        a.grad += g.reshape(a.data.shape)

    if out._parents:
        out._backward = backward
    return out


def concat(tensors, axis=0):
    tensors = [_wrap(t) for t in tensors]
    out = Tensor(
        np.concatenate([t.data for t in tensors], axis=axis),
        parents=tuple(tensors) if any(_needs(t) for t in tensors) else (),
    )
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offset, offset + size)
            t.grad += g[tuple(sl)]
            offset += size

    if out._parents:
        out._backward = backward
    return out


def gather_rows(table, indices):
    """Embedding lookup: out[i] = table[indices[i]]. Backward scatter-adds."""
    table = _wrap(table)
    idx = np.asarray(indices, dtype=np.int64)
    out = Tensor(table.data[idx], parents=(table,) if _needs(table) else ())

    def backward(g):
        np.add.at(table.grad, idx, g)

    if out._parents:
        out._backward = backward
    return out


def gather_sum(table, indices, weights):
    """Weighted sum of table entries picked by flat index: out[p] = sum over
    k of weights[k, p] * table.flat[indices[k, p]], so out has the shape of
    one index slice. Accumulates in 64 bits; backward scatter-adds the
    weighted gradient."""
    table = _wrap(table)
    idx = np.asarray(indices, dtype=np.int64)
    w = np.asarray(weights, dtype=table.dtype)
    out_data = (table.data.reshape(-1)[idx] * w).sum(axis=0, dtype=np.float64)
    out = Tensor(out_data.astype(table.dtype), parents=(table,) if _needs(table) else ())

    def backward(g):
        np.add.at(table.grad, np.unravel_index(idx, table.shape), g * w)

    if out._parents:
        out._backward = backward
    return out


# -- reductions (64-bit accumulation) --------------------------------------


def tsum(a, axis=None, keepdims=False):
    a = _wrap(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims, dtype=np.float64).astype(a.dtype)
    out = Tensor(out_data, parents=(a,) if _needs(a) else ())

    def backward(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        a.grad += np.broadcast_to(gg, a.data.shape)

    if out._parents:
        out._backward = backward
    return out


def tmean(a, axis=None, keepdims=False):
    a = _wrap(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


# -- composite / specialized ops -------------------------------------------


def row_softmax(a):
    """Softmax along the last axis, with max subtraction for stability."""
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True, dtype=np.float64).astype(a.dtype)
    if not np.all(np.isfinite(y)):
        raise NumericError("non-finite softmax output")
    out = Tensor(y, parents=(a,) if _needs(a) else ())

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        a.grad += (y * (g - dot)).astype(a.dtype)

    if out._parents:
        out._backward = backward
    return out


def log_softmax_nll(logits, targets):
    """Mean over rows of -log softmax(logits)[i, targets[i]] for a (B, C)
    logit matrix. The row max is subtracted before exponentiating, so the
    loss and its gradient, (softmax - onehot) / B, stay finite and non-zero
    however far a target trails the best logit."""
    logits = _wrap(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2 or targets.ndim != 1 or logits.shape[0] != targets.shape[0]:
        raise ShapeError(
            f"log_softmax_nll shape mismatch: logits {logits.shape}, targets {targets.shape}"
        )
    rows = np.arange(targets.shape[0])
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, dtype=np.float64)
    nll = np.log(total) - shifted[rows, targets]
    out = Tensor(np.asarray(nll.mean(), dtype=logits.dtype),
                 parents=(logits,) if _needs(logits) else ())

    def backward(g):
        grad = e / total[:, None]
        grad[rows, targets] -= 1.0
        logits.grad += (grad * (g / targets.shape[0])).astype(logits.dtype)

    if out._parents:
        out._backward = backward
    return out


# -- gradient checking -----------------------------------------------------


def grad_check(f, params, eps=1e-5, tol=1e-4):
    """Compare analytic gradients of the scalar f() against central finite
    differences, per parameter tensor.

    f must rebuild its computation graph on every call (parameters are
    perturbed in place between calls). Returns {name: max_rel_error} and
    raises NumericError on non-finite values.
    """
    out = f()
    if not np.isfinite(out.data).all():
        raise NumericError("non-finite objective in grad_check")
    out.backward()
    analytic = {name: p.grad.copy() for name, p in params.items()}

    report = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f().item()
            flat[i] = orig - eps
            lo = f().item()
            flat[i] = orig
            numeric[i] = (hi - lo) / (2 * eps)
        if not np.isfinite(numeric).all():
            raise NumericError(f"non-finite finite-difference gradient for {name}")
        a = analytic[name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1.0)
        report[name] = float(np.max(np.abs(a - numeric) / denom)) if flat.size else 0.0
    return report


# -- optimizer -------------------------------------------------------------


class Adam:
    """Standard Adam with bias correction over a {name: Tensor} parameter dict."""

    def __init__(self, params, lr=0.003, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            m_hat = m / (1 - self.beta1**t)
            v_hat = v / (1 - self.beta2**t)
            p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.dtype)

    def state_arrays(self):
        """Flat view of optimizer state for checkpointing."""
        out = {}
        for name in self.params:
            out[f"adam.m.{name}"] = self.m[name]
            out[f"adam.v.{name}"] = self.v[name]
        return out

    def load_state_arrays(self, arrays, step_count):
        for name in self.params:
            self.m[name] = arrays[f"adam.m.{name}"].copy()
            self.v[name] = arrays[f"adam.v.{name}"].copy()
        self.step_count = step_count
