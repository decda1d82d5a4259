"""Model parameters, their Adam optimizer and the numeric errors.

Training has no autodiff tape: the encoder (`GsanModel.backward`) and the
loss head (`training.BatchLoss`) have hand-written gradients. A reverse-mode
tape over the same operations lives in the tests as the reference they are
checked against.
"""

import numpy as np


class ShapeError(ValueError):
    pass


class NumericError(RuntimeError):
    pass


class Tensor:
    """A parameter: its value `data`, updated in place by `Adam`, and `grad`,
    the gradient of the last backward pass, None where no loss term reaches it."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = data
        self.grad = None


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
