"""Measurement helpers: queueing theory and report formatting.

These are the tools the benches use to present the paper's evaluation
section: the input-queueing saturation theory behind the 58.6% ceiling,
and ASCII table/series formatting that mirrors the paper's presentation.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".theory": (
        "hol_saturation_throughput", "hol_saturation_asymptote",
        "KAROL_HLUCHYJ_TABLE",
    ),
    ".report": ("format_table", "format_series"),
})
