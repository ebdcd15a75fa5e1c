"""Experiment harness: sweeps, experiment definitions, tables, reports.

Implements the paper's evaluation methodology (Section V): build one trace
per WAN case, replay every detector over the *same* trace, sweep each
detector's parameter "from a highly aggressive behavior to a very
conservative one", and render the resulting QoS-space series and summary
tables.  The benchmark scripts under ``benchmarks/`` are thin wrappers
around this subpackage.
"""

from repro.analysis.sweep import sweep_curve
from repro.analysis.experiments import (
    ExperimentSetup,
    FigureResult,
    default_setup,
    figure_plan,
    run_figure,
    window_ablation,
    scaled_heartbeats,
    repro_scale,
)
from repro.analysis.tables import table1_rows, table2_rows, PAPER_TABLE2
from repro.analysis.export import export_curve_csv, export_figure_csv
from repro.analysis.fastsweep import ChenSweeper, fast_chen_curve
from repro.analysis.report import format_table, format_curve, format_figure

__all__ = [
    "sweep_curve",
    "ExperimentSetup",
    "FigureResult",
    "default_setup",
    "figure_plan",
    "run_figure",
    "window_ablation",
    "scaled_heartbeats",
    "repro_scale",
    "table1_rows",
    "table2_rows",
    "PAPER_TABLE2",
    "export_curve_csv",
    "export_figure_csv",
    "ChenSweeper",
    "fast_chen_curve",
    "format_table",
    "format_curve",
    "format_figure",
]
