"""Straightforward arithmetic that the library's stepping and rhs must reproduce bit for bit.

The tableau combinations are summed term by term from the left, as Python's
``sum`` does, and the separable rhs takes one ``np.cumsum`` per weighted
vector. ``RhsEvaluator`` and ``integrator._dp_step`` arrange the same
operations into fewer numpy calls; these oracles pin that every rounding
stays where it was.

The oracles always work on all k sizes. The library evaluates only the
occupied prefix of a state and returns +0.0 beyond it, so comparing with
them over the full length also checks that nothing past the prefix was
dropped.
"""
import numpy as np

_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_ERR = _B5 - _B4


def dp_step_oracle(f, y, f0, h, rel_tol, abs_tol):
    """(y5, err_norm, stages) of one Dormand-Prince trial step, stages a list of 7 arrays."""
    k = [f0]
    for row in _A[1:]:
        incr = sum(c * ki for c, ki in zip(row, k))
        k.append(f(y + h * incr))
    y5 = y + h * sum(b * ki for b, ki in zip(_B5, k))
    err = h * sum(e * ki for e, ki in zip(_ERR, k))
    scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y5))
    return y5, float(np.sqrt(np.mean((err / scale) ** 2))), k


def rhs_oracle(kernel, k):
    """The truncated rhs at size k: cumsums for separable kernels, else two matrix-vector products."""
    sizes = np.arange(1, k + 1, dtype=float)
    if kernel.separable is not None:
        a, d = kernel.separable
        a = float(a)
        ipow, ipow1 = sizes**d, sizes ** (1.0 + d)
    else:
        g = kernel.rate_matrix(k)
        low, up = np.tril(g), np.triu(g)

    def f(x):
        if kernel.separable is not None:
            w = sizes * x
            S = a * (ipow * np.cumsum(w) + np.cumsum(ipow1 * x))
            T = a * (ipow * np.cumsum(x[::-1])[::-1] + np.cumsum((ipow * x)[::-1])[::-1])
        else:
            S = low @ (sizes * x)
            T = up @ x
        out = np.empty_like(x)
        out[0] = 0.0
        out[1:] = x[:-1] * S[:-1]
        out -= x * (S + T)
        return out

    return f
