"""Small numerical helpers: Simpson quadrature and the config-number test."""
from __future__ import annotations

import numpy as np


def is_number(value) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def cumulative_simpson(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cumulative integral at every sample index.

    Even indices accumulate exact Simpson pairs; odd indices add a
    trapezoid correction over the final interval (one order lower, which
    is why audits prefer even indices).
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    n = t.size
    out = np.zeros(n)
    acc = 0.0
    for m in range(2, n, 2):
        acc += _simpson_pair(t[m - 2], t[m - 1], t[m], y[m - 2], y[m - 1], y[m])
        out[m] = acc
    for m in range(1, n, 2):
        out[m] = out[m - 1] + 0.5 * (t[m] - t[m - 1]) * (y[m] + y[m - 1])
    return out


def _simpson_pair(t0, t1, t2, y0, y1, y2) -> float:
    # Exact for quadratics on nonuniform spacing.
    h0 = t1 - t0
    h1 = t2 - t1
    h = h0 + h1
    if h0 <= 0 or h1 <= 0:
        raise ValueError("sample times must be strictly ascending")
    return (h / 6.0) * (
        (2.0 - h1 / h0) * y0
        + (h * h / (h0 * h1)) * y1
        + (2.0 - h0 / h1) * y2
    )
