"""The paper's primary contribution: the bit-energy power model.

``E_bit = E_S_bit + E_B_bit + E_W_bit`` — the energy a single bit consumes
while crossing a switch fabric, split into node-switch, internal-buffer
and interconnect-wire components (paper Section 3).

Modules
-------
* :mod:`~repro.core.tables` — the published Table 1 / Table 2 data.
* :mod:`~repro.core.bit_energy` — runtime energy models: input-vector
  indexed node-switch LUTs, buffer access energy, wire flip energy.
* :mod:`~repro.core.analytical` — the closed-form worst-case bit-energy
  equations (Eq. 3-6) for the four analysed architectures.
* :mod:`~repro.core.contention` — Patel-style load recurrence used to
  predict Banyan internal blocking analytically.
* :mod:`~repro.core.estimator` — a fast, simulation-free power estimator
  that combines all of the above.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".bit_energy": (
        "BufferEnergyModel", "EnergyModelSet", "MuxEnergyLUT",
        "SwitchEnergyLUT",
    ),
    ".analytical": (
        "bit_energy_banyan", "bit_energy_batcher_banyan",
        "bit_energy_crossbar", "bit_energy_fully_connected",
        "worst_case_bit_energy",
    ),
    ".contention": ("banyan_stage_loads", "banyan_blocking_probability"),
    ".estimator": ("AnalyticalPowerEstimate", "estimate_power"),
    ".": ("tables",),
})
