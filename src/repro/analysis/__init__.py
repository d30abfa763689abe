"""Result aggregation, text plots and tables for the experiment harness."""

from repro.analysis.ascii_plot import bar_plot, line_plot
from repro.analysis.locality import LocalityReport, locality_report
from repro.analysis.stats import SeriesStats, merge_series, summarize
from repro.analysis.tables import format_table, to_csv
from repro.analysis.treeview import render_tree

__all__ = [
    "LocalityReport",
    "SeriesStats",
    "bar_plot",
    "format_table",
    "line_plot",
    "locality_report",
    "merge_series",
    "render_tree",
    "summarize",
    "to_csv",
]
