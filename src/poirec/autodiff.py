"""Minimal reverse-mode autodiff on numpy arrays, plus Adam.

Tensors hold float32 or float64 numpy data. Reductions accumulate in 64-bit
regardless of storage dtype; gradient checks should be run with float64
parameters (finite differences are unreliable in 32-bit). Inside a
`no_grad()` block ops record no graph, so their results cannot be
backpropagated.
"""

from contextlib import contextmanager

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
        """Gradients of this scalar into `.grad` of every tensor on its tape,
        a tensor that requires grad or has parents. A constant (neither) gets
        no buffer: its `.grad` stays None, and ops skip it (`accumulate`)."""
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
                if id(p) not in visited and (p.requires_grad or p._parents):
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

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return mul(self, power(_wrap(other), -1.0))

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


_grad_enabled = True


@contextmanager
def no_grad():
    """Ops inside the block record no parents and no backward closures, as
    for inference; the previous mode comes back on exit, also on an error."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def needs_grad(*tensors):
    """Whether an op over `tensors` is recorded: outside `no_grad()`, with
    one of them on a tape. An op may keep its intermediates only then."""
    return _grad_enabled and any(t.requires_grad or t._parents for t in tensors)


def result(data, parents, backward):
    """An op's output, and the way to record a custom op: it records
    `parents` and `backward(g)`, which adds the gradient of each parent to
    its `.grad`, only when one of the parents is on a tape, so a
    single-operand op's backward never meets a constant."""
    if needs_grad(*parents):
        return Tensor(data, parents=parents, backward=backward)
    return Tensor(data)


def accumulate(t, grad):
    """t.grad += grad() for a parent of a multi-parent op; a constant parent
    has no buffer, and its gradient is not computed."""
    if t.grad is not None:
        t.grad += grad()


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
    a, b = _wrap(a, like=b), _wrap(b, like=a)

    def backward(g):
        accumulate(a, lambda: _unbroadcast(g, a.data.shape).astype(a.dtype, copy=False))
        accumulate(b, lambda: _unbroadcast(g, b.data.shape).astype(b.dtype, copy=False))

    return result(a.data + b.data, (a, b), backward)


def mul(a, b):
    a, b = _wrap(a, like=b), _wrap(b, like=a)

    def backward(g):
        accumulate(a, lambda: _unbroadcast(g * b.data, a.data.shape).astype(a.dtype, copy=False))
        accumulate(b, lambda: _unbroadcast(g * a.data, b.data.shape).astype(b.dtype, copy=False))

    return result(a.data * b.data, (a, b), backward)


def power(a, exponent):
    a = _wrap(a)

    def backward(g):
        a.grad += g * exponent * np.power(a.data, exponent - 1)

    return result(np.power(a.data, exponent), (a,), backward)


def sqrt(a):
    a = _wrap(a)
    out_data = np.sqrt(a.data)

    def backward(g):
        a.grad += g / (2.0 * out_data)

    return result(out_data, (a,), backward)


def clamp_min(a, floor):
    """max(a, floor); gradient flows only through unclamped entries."""
    a = _wrap(a)
    mask = a.data >= floor

    def backward(g):
        a.grad += g * mask

    return result(np.maximum(a.data, floor), (a,), backward)


# -- linear algebra --------------------------------------------------------


def matmul(a, b):
    """(n, k) @ (k, m), or a stack of G products: (G, n, k) @ (k, m), which
    runs as one (G*n, k) @ (k, m) product, and (G, n, k) @ (G, k, m)."""
    a, b = _wrap(a), _wrap(b)
    x, y = a.data, b.data
    if (x.ndim not in (2, 3) or y.ndim not in (2, x.ndim) or x.shape[-1] != y.shape[-2]
            or (y.ndim == 3 and x.shape[0] != y.shape[0])):
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    flat = x.ndim == 3 and y.ndim == 2  # the stack as one 2-D product
    if flat:
        x = x.reshape(-1, x.shape[-1])
        out_data = (x @ y).reshape(a.shape[:-1] + y.shape[-1:])
    else:
        out_data = x @ y

    def backward(g):
        if flat:
            g = g.reshape(-1, g.shape[-1])
            accumulate(a, lambda: (g @ y.T).astype(a.dtype, copy=False).reshape(a.shape))
            accumulate(b, lambda: (x.T @ g).astype(b.dtype, copy=False))
        else:
            accumulate(a, lambda: (g @ y.swapaxes(-1, -2)).astype(a.dtype, copy=False))
            accumulate(b, lambda: (x.swapaxes(-1, -2) @ g).astype(b.dtype, copy=False))

    return result(out_data, (a, b), backward)


def transpose(a):
    """Swap the last two axes."""
    a = _wrap(a)

    def backward(g):
        a.grad += g.swapaxes(-1, -2)

    return result(a.data.swapaxes(-1, -2), (a,), backward)


def concat(tensors, axis=0):
    tensors = tuple(_wrap(t) for t in tensors)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offset, offset + size)
            accumulate(t, lambda: g[tuple(sl)])
            offset += size

    return result(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


def gather_rows(table, indices):
    """Embedding lookup: out[i] = table[indices[i]]. Backward scatter-adds."""
    table = _wrap(table)
    idx = np.asarray(indices, dtype=np.int64)

    def backward(g):
        np.add.at(table.grad, idx, g)

    return result(table.data[idx], (table,), backward)


# -- reductions (64-bit accumulation) --------------------------------------


def tsum(a, axis=None, keepdims=False):
    a = _wrap(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims, dtype=np.float64).astype(a.dtype)

    def backward(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        a.grad += np.broadcast_to(gg, a.data.shape)

    return result(out_data, (a,), backward)


def l2_penalty(params, gamma):
    """gamma * (sum of the squares of every tensor in `params`), summed in 64
    bits and stored in their dtype, as one tape node whose backward adds
    2 * gamma * g * theta to each of them."""
    params = tuple(params)
    total = sum(float(np.square(p.data, dtype=np.float64).sum()) for p in params)

    def backward(g):
        scale = 2.0 * gamma * g
        for p in params:
            p.grad += (scale * p.data).astype(p.dtype, copy=False)

    return result(np.asarray(gamma * total, dtype=params[0].dtype), params, backward)


# -- composite / specialized ops -------------------------------------------


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

    def backward(g):
        grad = e / total[:, None]
        grad[rows, targets] -= 1.0
        logits.grad += (grad * (g / targets.shape[0])).astype(logits.dtype, copy=False)

    return result(np.asarray(nll.mean(), dtype=logits.dtype), (logits,), backward)


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
        """Update every parameter that has a gradient, in place. Each
        operation is the textbook one, m_hat = m / (1 - beta1^t) and
        p -= lr * m_hat / (sqrt(v_hat) + eps), in the same order and dtype,
        but it writes into one of two scratch arrays instead of a new one."""
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m, v = self.m[name], self.v[name]
            step, denom = np.empty_like(m), np.empty_like(v)
            m *= self.beta1
            m += np.multiply(g, 1 - self.beta1, out=step)
            v *= self.beta2
            np.multiply(g, 1 - self.beta2, out=denom)
            v += np.multiply(denom, g, out=denom)
            np.sqrt(np.divide(v, 1 - self.beta2**t, out=denom), out=denom)
            denom += self.eps
            np.divide(m, 1 - self.beta1**t, out=step)
            step *= self.lr
            step /= denom
            p.data -= step
