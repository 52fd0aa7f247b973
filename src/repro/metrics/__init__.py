"""Measurement: run metrics, statistics helpers, and report rendering."""

from .collector import RunMetrics
from .report import format_cell, render_scatter, render_table
from .stats import fraction_below, median, pearson_r, percent_reduction

__all__ = [
    "RunMetrics",
    "render_table",
    "render_scatter",
    "format_cell",
    "percent_reduction",
    "fraction_below",
    "median",
    "pearson_r",
]
