"""Process-technology parameters and interconnect wire models.

This package provides the physical substrate for every energy number in
the library:

* :class:`~repro.tech.technology.Technology` — a frozen parameter set
  describing one CMOS process node (feature size, rail voltage, wire
  geometry, clock rate, line rate).
* :mod:`~repro.tech.wires` — a Ho/Mai/Horowitz-style wire capacitance
  model that turns wire geometry into farads-per-meter and Thompson grid
  lengths into joules-per-flip.
* :mod:`~repro.tech.presets` — ready-made nodes; ``TECH_180NM`` matches
  the paper's Section 5 case study exactly (0.18 um, 3.3 V, 0.50 fF/um,
  32-bit bus, 1 um pitch -> 32 um Thompson grid, E_T = 87 fJ).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".technology": ("Technology",),
    ".wires": ("WireModel",),
    ".presets": (
        "TECH_130NM", "TECH_180NM", "TECH_250NM", "PRESETS", "get_technology",
    ),
})
