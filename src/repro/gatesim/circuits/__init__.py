"""Gate-level circuit generators for the paper's node switches.

Each builder returns a :class:`~repro.gatesim.netlist.Netlist` with a
documented port convention (``in0[..]``, ``valid0``, ``route0``, ...)
that :mod:`repro.gatesim.characterize` knows how to stimulate.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".crosspoint": ("build_crosspoint",),
    ".banyan_switch": ("build_banyan_switch",),
    ".sorting_switch": ("build_sorting_switch",),
    ".mux": ("build_mux_tree",),
})
