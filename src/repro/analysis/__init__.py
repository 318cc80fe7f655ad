"""Measurement helpers: queueing theory and report formatting.

These are the tools the benches use to present the paper's evaluation
section: the input-queueing saturation theory behind the 58.6% ceiling,
and ASCII table/series formatting that mirrors the paper's presentation.
"""

from repro.analysis.theory import (
    hol_saturation_throughput,
    hol_saturation_asymptote,
    KAROL_HLUCHYJ_TABLE,
)
from repro.analysis.report import format_series, format_table

__all__ = [
    "hol_saturation_throughput",
    "hol_saturation_asymptote",
    "KAROL_HLUCHYJ_TABLE",
    "format_table",
    "format_series",
]
