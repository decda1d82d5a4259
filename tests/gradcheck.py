"""Finite-difference gradient checking."""

import numpy as np

from poirec.autodiff import NumericError


def grad_check(f, params, eps=1e-5):
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

