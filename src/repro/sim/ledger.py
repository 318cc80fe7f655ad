"""Per-component energy ledger.

Every joule the simulator dissipates is recorded under a *category*
(switch / wire / buffer / refresh — the paper's three bit-energy
components, with buffer split into access and refresh per Eq. 1) and a
*component* label (e.g. ``"stage1.sw3"``), so results can report both
the Fig. 9 totals and the component breakdown behind Observation 2.
"""

from __future__ import annotations

from collections import defaultdict

from repro.errors import ConfigurationError

#: Category names used throughout the library.
SWITCH = "switch"
WIRE = "wire"
BUFFER = "buffer"
REFRESH = "refresh"

CATEGORIES = (SWITCH, WIRE, BUFFER, REFRESH)


class EnergyLedger:
    """Accumulates energy by (category, component) plus event counters."""

    def __init__(self) -> None:
        self._energy: dict[str, dict[str, float]] = {
            cat: defaultdict(float) for cat in CATEGORIES
        }
        self._counters: dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def add(self, category: str, component: str, energy_j: float) -> None:
        """Record ``energy_j`` joules against a component."""
        if category not in self._energy:
            raise ConfigurationError(
                f"unknown category {category!r}; expected one of {CATEGORIES}"
            )
        if energy_j < 0:
            raise ConfigurationError(
                f"negative energy {energy_j!r} for {category}/{component}"
            )
        if energy_j:
            self._energy[category][component] += energy_j

    def count(self, name: str, increment: int = 1) -> None:
        """Bump an event counter (bit flips, bufferings, contentions...)."""
        self._counters[name] += increment

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def total_j(self) -> float:
        """All recorded energy in joules."""
        return sum(
            sum(components.values()) for components in self._energy.values()
        )

    def category_total_j(self, category: str) -> float:
        if category not in self._energy:
            raise ConfigurationError(f"unknown category {category!r}")
        return sum(self._energy[category].values())

    def by_category(self) -> dict[str, float]:
        """Category -> joules (all categories present, possibly 0.0)."""
        return {cat: self.category_total_j(cat) for cat in CATEGORIES}

    def components(self, category: str) -> dict[str, float]:
        """Component -> joules within one category."""
        if category not in self._energy:
            raise ConfigurationError(f"unknown category {category!r}")
        return dict(self._energy[category])

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def component_dict(self, category: str) -> dict[str, float]:
        """The live, mutable component->joules mapping of one category.

        The vectorized fabric cores accumulate into this directly so
        their per-component float-add sequence (and the dict's insertion
        order, which fixes the summation order of
        :meth:`category_total_j`) is bit-identical to the reference
        fabrics' :meth:`add` calls.  Callers must skip zero additions,
        exactly as :meth:`add` does.
        """
        if category not in self._energy:
            raise ConfigurationError(f"unknown category {category!r}")
        return self._energy[category]

    def counters(self) -> dict[str, int]:
        return dict(self._counters)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Zero all energy and counters (used at warmup end)."""
        for components in self._energy.values():
            components.clear()
        self._counters.clear()

    def merge(self, other: "EnergyLedger") -> None:
        """Fold another ledger's totals into this one."""
        for cat, components in other._energy.items():
            for comp, energy in components.items():
                self._energy[cat][comp] += energy
        for name, value in other._counters.items():
            self._counters[name] += value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cats = ", ".join(
            f"{cat}={self.category_total_j(cat):.3e}J" for cat in CATEGORIES
        )
        return f"EnergyLedger({cats})"
