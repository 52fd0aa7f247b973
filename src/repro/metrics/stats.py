"""Statistics helpers for figure generation and reporting."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "percent_reduction",
    "fraction_below",
    "median",
    "pearson_r",
]


def percent_reduction(before: float, after: float) -> float:
    """Percentage reduction from ``before`` to ``after``.

    Positive = improvement; negative = slowdown.  Zero ``before`` yields
    0.0 (nothing to reduce).
    """
    if before == 0:
        return 0.0
    return 100.0 * (before - after) / before


def fraction_below(values: Sequence[float], threshold: float) -> float:
    """Fraction of ``values`` strictly below ``threshold`` (0.0 if empty)."""
    if not values:
        return 0.0
    return sum(1 for v in values if v < threshold) / len(values)


def median(values: Sequence[float]) -> float:
    """Median; 0.0 for empty input (reporting convention)."""
    if not values:
        return 0.0
    return float(np.median(np.asarray(values, dtype=float)))


def pearson_r(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation; 0.0 for degenerate inputs."""
    if len(xs) != len(ys):
        raise ValueError("length mismatch")
    if len(xs) < 2:
        return 0.0
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    sx, sy = x.std(), y.std()
    if sx == 0 or sy == 0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])
