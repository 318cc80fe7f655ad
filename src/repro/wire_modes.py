"""Unified wire-length accounting vocabulary.

Historically the two backends grew incompatible spellings for the same
idea: the analytical estimator accepted ``"worst_case"`` / ``"expected"``
while the dynamic fabrics accepted ``"worst_case"`` / ``"per_link"``.
Both non-worst-case modes mean *average/actual path accounting* — the
estimator averages the straight and cross path lengths in closed form,
the simulator measures the path each cell actually takes.

:class:`WireMode` is the single vocabulary.  Every member translates to
each backend:

=============  ==================  =================
member         analytical backend  simulated backend
=============  ==================  =================
``WORST_CASE``  ``worst_case``      ``worst_case``
``EXPECTED``    ``expected``        ``per_link``
``PER_LINK``    ``expected``        ``per_link``
=============  ==================  =================

``EXPECTED`` and ``PER_LINK`` are therefore aliases of one physical
choice, kept distinct only so that legacy spellings parse losslessly.
"""

from __future__ import annotations

import enum

from repro.errors import ConfigurationError

#: Spellings accepted natively by the closed-form estimator.
ANALYTICAL_MODES = ("worst_case", "expected")
#: Spellings accepted natively by the dynamic fabrics.
SIMULATED_MODES = ("worst_case", "per_link")


class WireMode(enum.Enum):
    """How wire lengths are charged for transported bits."""

    #: Eq. 5/6 longest-path lengths for every bit (the paper's default).
    WORST_CASE = "worst_case"
    #: Mean of straight/cross path lengths (analytical spelling).
    EXPECTED = "expected"
    #: Actual per-link lengths along each cell's path (simulated spelling).
    PER_LINK = "per_link"

    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, value: "WireMode | str") -> "WireMode":
        """Coerce a user-supplied value into a :class:`WireMode`.

        Accepts a :class:`WireMode`, any member value, or common
        variants (case-insensitive, ``-`` for ``_``).
        """
        if isinstance(value, cls):
            return value
        if not isinstance(value, str):
            raise ConfigurationError(
                f"wire_mode must be a WireMode or str, got {type(value).__name__}"
            )
        member = cls._value2member_map_.get(
            value.strip().lower().replace("-", "_")
        )
        if member is not None:
            return member
        raise ConfigurationError(
            f"unknown wire_mode {value!r}; valid values: "
            f"{', '.join(m.value for m in cls)} "
            f"(analytical backend: {'/'.join(ANALYTICAL_MODES)}; "
            f"simulated backend: {'/'.join(SIMULATED_MODES)})"
        )

    @property
    def analytical(self) -> str:
        """Spelling consumed by :func:`repro.core.estimator.estimate_power`."""
        return "worst_case" if self is WireMode.WORST_CASE else "expected"

    @property
    def simulated(self) -> str:
        """Spelling consumed by the dynamic fabrics (:mod:`repro.fabrics`)."""
        return "worst_case" if self is WireMode.WORST_CASE else "per_link"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value
