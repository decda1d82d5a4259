"""Autodiff ops that only the tests and the reference encoder of
`oracles.py` use, recorded through `autodiff.result` like the package's own
ops. The package encoder computes the same values inside its one fused
node (`GsanModel.encode_plans`)."""

import numpy as np

from poirec import autodiff as ad
from poirec.autodiff import NumericError


def exp(a):
    """Elementwise e**a, with its gradient."""
    out_data = np.exp(a.data)

    def backward(g):
        a.grad += g * out_data

    return ad.result(out_data, (a,), backward)


def reshape(a, shape):
    def backward(g):
        a.grad += g.reshape(a.data.shape)

    return ad.result(a.data.reshape(shape), (a,), backward)


def tmean(a, axis=None, keepdims=False):
    n = a.data.size if axis is None else a.data.shape[axis]
    return ad.mul(ad.tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def gather_sum(table, indices, weights):
    """Weighted sum of table entries picked by flat index: out[p] = sum over
    k of weights[k, p] * table.flat[indices[k, p]], so out has the shape of
    one index slice. Accumulates in 64 bits; backward scatter-adds the
    weighted gradient."""
    idx = np.asarray(indices, dtype=np.int64)
    w = np.asarray(weights, dtype=table.dtype)
    out_data = (table.data.reshape(-1)[idx] * w).sum(axis=0, dtype=np.float64)

    def backward(g):
        np.add.at(table.grad, np.unravel_index(idx, table.shape), g * w)

    return ad.result(out_data.astype(table.dtype), (table,), backward)


def row_softmax(a):
    """Softmax along the last axis, with max subtraction for stability."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True, dtype=np.float64).astype(a.dtype)
    if not np.all(np.isfinite(y)):
        raise NumericError("non-finite softmax output")

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        a.grad += (y * (g - dot)).astype(a.dtype, copy=False)

    return ad.result(y, (a,), backward)
