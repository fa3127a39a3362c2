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
    is why audits prefer even indices). A pair whose two intervals are not
    both positive raises ValueError.

    Each pair's formula is evaluated for all pairs at once and one
    ``np.add.accumulate`` sums them left to right from 0.0, so the result
    rounds as a running sum over the pairs would (the 0.0 start turns a
    leading -0.0 pair into +0.0).
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros(t.size)
    # pair p spans indices 2p, 2p + 1, 2p + 2; exact for quadratics on nonuniform spacing
    h0 = t[1:-1:2] - t[:-2:2]
    h1 = t[2::2] - t[1:-1:2]
    if (h0 <= 0).any() or (h1 <= 0).any():
        raise ValueError("sample times must be strictly ascending")
    h = h0 + h1
    out[2::2] = (h / 6.0) * (
        (2.0 - h1 / h0) * y[:-2:2]
        + (h * h / (h0 * h1)) * y[1:-1:2]
        + (2.0 - h0 / h1) * y[2::2]
    )
    even = out[::2]
    np.add.accumulate(even, out=even)
    out[1::2] = out[:-1:2] + 0.5 * (t[1::2] - t[:-1:2]) * (y[1::2] + y[:-1:2])
    return out
