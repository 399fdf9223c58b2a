"""Analysis helpers: size distributions, runtime tables and experiment records."""

from .distribution import SizeDistributionComparison, recovery_rate, top_sizes
from .reporting import (
    DID_NOT_FINISH,
    ExperimentRecord,
    RuntimeTable,
    SeriesReport,
    decision_table,
    phase_time_table,
    summarize_results,
)

__all__ = [
    "SizeDistributionComparison",
    "recovery_rate",
    "top_sizes",
    "DID_NOT_FINISH",
    "ExperimentRecord",
    "RuntimeTable",
    "SeriesReport",
    "decision_table",
    "phase_time_table",
    "summarize_results",
]
