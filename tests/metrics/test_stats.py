"""Tests for statistics helpers."""

import pytest

from repro.metrics import (
    fraction_below,
    median,
    pearson_r,
    percent_reduction,
)


def test_percent_reduction():
    assert percent_reduction(100.0, 50.0) == 50.0
    assert percent_reduction(100.0, 120.0) == -20.0
    assert percent_reduction(0.0, 10.0) == 0.0
    assert percent_reduction(10.0, 10.0) == 0.0


def test_fraction_below():
    assert fraction_below([1, 2, 3, 4], 3) == 0.5
    assert fraction_below([], 3) == 0.0
    assert fraction_below([5, 6], 3) == 0.0


def test_median():
    assert median([1.0, 2.0, 100.0]) == 2.0
    assert median([1.0, 2.0]) == 1.5
    assert median([]) == 0.0


def test_pearson_r_perfect():
    assert pearson_r([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert pearson_r([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)


def test_pearson_r_degenerate():
    assert pearson_r([1, 1, 1], [1, 2, 3]) == 0.0
    assert pearson_r([1], [2]) == 0.0
    with pytest.raises(ValueError):
        pearson_r([1, 2], [1])

