"""The reference reverse-mode autodiff engine on numpy arrays.

The package trains without a tape: the encoder (`GsanModel.backward`) and the
loss head (`training.BatchLoss`) have hand-written gradients. This engine's
tape is the reference the tests check them against, and the oracles of
`oracles.py` are written in its ops.

Tensors hold float32 or float64 numpy data. A package parameter
(`poirec.autodiff.Tensor`, only `data` and `grad`) is a leaf that takes a
gradient. Reductions accumulate in 64-bit regardless of storage dtype;
gradient checks should be run with float64 parameters (finite differences are
unreliable in 32-bit). Inside a `no_grad()` block ops record no graph, so
their results cannot be backpropagated.
"""

from contextlib import contextmanager

import numpy as np

from poirec import autodiff as ad
from poirec.autodiff import NumericError, ShapeError


def _as_array(x, dtype=None):
    a = np.asarray(x)
    if a.dtype.kind != "f":
        a = a.astype(np.float64 if dtype is None else dtype)
    if dtype is not None and a.dtype != dtype:
        a = a.astype(dtype)
    return a


class Tensor(ad.Tensor):
    """A tensor of the tape: a package parameter plus whether it requires a
    gradient, its parents and the backward of the op that made it."""

    __slots__ = ("requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        super().__init__(_as_array(data))
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
        """Gradients of this scalar into `.grad` of every tensor on its tape
        (see `on_tape`). A constant gets no buffer: its `.grad` stays None,
        and ops skip it (`accumulate`)."""
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
            for p in parents(node):
                if id(p) not in visited and on_tape(p):
                    stack.append((p, False))
        for node in topo:
            node.grad = np.zeros_like(node.data)
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if isinstance(node, Tensor) and node._backward is not None:
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
    if isinstance(x, ad.Tensor):
        return x
    dtype = like.data.dtype if isinstance(like, ad.Tensor) else None
    return Tensor(_as_array(x, dtype))


def parents(t):
    """The tensors `t` was computed from; a package parameter has none."""
    return t._parents if isinstance(t, Tensor) else ()


def on_tape(t):
    """Whether `t` takes a gradient: a package parameter always does, a
    reference tensor when it requires one or has parents."""
    return not isinstance(t, Tensor) or t.requires_grad or bool(t._parents)


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
    return _grad_enabled and any(on_tape(t) for t in tensors)


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
        accumulate(a, lambda: _unbroadcast(g, a.data.shape).astype(a.data.dtype, copy=False))
        accumulate(b, lambda: _unbroadcast(g, b.data.shape).astype(b.data.dtype, copy=False))

    return result(a.data + b.data, (a, b), backward)


def mul(a, b):
    a, b = _wrap(a, like=b), _wrap(b, like=a)

    def backward(g):
        accumulate(a, lambda: _unbroadcast(g * b.data, a.data.shape).astype(a.data.dtype, copy=False))
        accumulate(b, lambda: _unbroadcast(g * a.data, b.data.shape).astype(b.data.dtype, copy=False))

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
        raise ShapeError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    flat = x.ndim == 3 and y.ndim == 2  # the stack as one 2-D product
    if flat:
        x = x.reshape(-1, x.shape[-1])
        out_data = (x @ y).reshape(a.data.shape[:-1] + y.shape[-1:])
    else:
        out_data = x @ y

    def backward(g):
        if flat:
            g = g.reshape(-1, g.shape[-1])
            accumulate(a, lambda: (g @ y.T).astype(a.data.dtype, copy=False).reshape(a.data.shape))
            accumulate(b, lambda: (x.T @ g).astype(b.data.dtype, copy=False))
        else:
            accumulate(a, lambda: (g @ y.swapaxes(-1, -2)).astype(a.data.dtype, copy=False))
            accumulate(b, lambda: (x.swapaxes(-1, -2) @ g).astype(b.data.dtype, copy=False))

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
    out_data = a.data.sum(axis=axis, keepdims=keepdims, dtype=np.float64).astype(a.data.dtype)

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
            p.grad += (scale * p.data).astype(p.data.dtype, copy=False)

    return result(np.asarray(gamma * total, dtype=params[0].data.dtype), params, backward)


# -- composite / specialized ops -------------------------------------------


def log_softmax_nll(logits, targets):
    """Mean over rows of -log softmax(logits)[i, targets[i]] for a (B, C)
    logit matrix. The row max is subtracted before exponentiating, so the
    loss and its gradient, (softmax - onehot) / B, stay finite and non-zero
    however far a target trails the best logit."""
    logits = _wrap(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2 or targets.ndim != 1 or logits.data.shape[0] != targets.shape[0]:
        raise ShapeError(
            f"log_softmax_nll shape mismatch: logits {logits.data.shape}, targets {targets.shape}"
        )
    rows = np.arange(targets.shape[0])
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, dtype=np.float64)
    nll = np.log(total) - shifted[rows, targets]

    def backward(g):
        grad = e / total[:, None]
        grad[rows, targets] -= 1.0
        logits.grad += (grad * (g / targets.shape[0])).astype(logits.data.dtype, copy=False)

    return result(np.asarray(nll.mean(), dtype=logits.data.dtype), (logits,), backward)


# -- ops only the tests and oracles.py use ------------------------------


def exp(a):
    """Elementwise e**a, with its gradient."""
    a = _wrap(a)
    out_data = np.exp(a.data)

    def backward(g):
        a.grad += g * out_data

    return result(out_data, (a,), backward)


def reshape(a, shape):
    a = _wrap(a)

    def backward(g):
        a.grad += g.reshape(a.data.shape)

    return result(a.data.reshape(shape), (a,), backward)


def tmean(a, axis=None, keepdims=False):
    a = _wrap(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def gather_sum(table, indices, weights):
    """Weighted sum of table entries picked by flat index: out[p] = sum over
    k of weights[k, p] * table.flat[indices[k, p]], so out has the shape of
    one index slice. Accumulates in 64 bits; backward scatter-adds the
    weighted gradient."""
    table = _wrap(table)
    idx = np.asarray(indices, dtype=np.int64)
    w = np.asarray(weights, dtype=table.data.dtype)
    out_data = (table.data.reshape(-1)[idx] * w).sum(axis=0, dtype=np.float64)

    def backward(g):
        np.add.at(table.grad, np.unravel_index(idx, table.data.shape), g * w)

    return result(out_data.astype(table.data.dtype), (table,), backward)


def row_softmax(a):
    """Softmax along the last axis, with max subtraction for stability."""
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True, dtype=np.float64).astype(a.data.dtype)
    if not np.all(np.isfinite(y)):
        raise NumericError("non-finite softmax output")

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        a.grad += (y * (g - dot)).astype(a.data.dtype, copy=False)

    return result(y, (a,), backward)
