"""Reporting and figure regeneration.

Turns analysis reports into the tables and ASCII series matching each
panel of the paper's Fig. 3 and Fig. 4, plus JSON experiment records so
EXPERIMENTS.md numbers are regenerable.
"""

from .tables import format_table
from .charts import horizontal_bar_chart
from .compare import bias_delta_table, comparison_tables, min_tolerance_table
from .records import ExperimentRecord, load_record, save_record
from .figures import (
    fig3_state_space_series,
    fig4_boundary_series,
    fig4_sensitivity_series,
    fig4_tolerance_series,
    fig4_bias_series,
)

__all__ = [
    "format_table",
    "horizontal_bar_chart",
    "bias_delta_table",
    "comparison_tables",
    "min_tolerance_table",
    "ExperimentRecord",
    "save_record",
    "load_record",
    "fig3_state_space_series",
    "fig4_tolerance_series",
    "fig4_bias_series",
    "fig4_sensitivity_series",
    "fig4_boundary_series",
]
