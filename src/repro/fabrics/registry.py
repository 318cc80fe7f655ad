"""Pluggable fabric-core registry.

One table maps every architecture name to everything the stack needs to
run it: the reference fabric class, the vectorized engine core (if one
exists), how default energy models are built, and its aliases.  The
factory (:func:`repro.fabrics.factory.build_fabric`), the engine
selector (:func:`repro.sim.engine.create_engine`), scenario validation
(:class:`repro.api.Scenario`) and the CLI all resolve architectures
through this module, so registering a custom fabric makes it a
first-class citizen everywhere at once:

>>> from repro.fabrics.registry import register_fabric
>>> from repro.fabrics.vectorized import CrossbarCore
>>> class MyFabric(CrossbarFabric):
...     architecture = "my_fabric"
>>> register_fabric(
...     "my_fabric", MyFabric,
...     vector_core=CrossbarCore,
...     models_factory=lambda ports, tech: default_models(
...         "crossbar", ports, tech),
... )  # doctest: +SKIP

After that, ``Scenario("my_fabric", 8, 0.5)`` validates, ``repro
simulate --arch my_fabric`` runs, and — because a vector core was
registered — ``engine="vectorized"`` runs it instead of silently
requiring the reference engine.

Dispatch is by **exact fabric type**: a subclass with overridden
dynamics must register its own entry rather than silently inheriting a
core whose energy accounting may no longer match.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError

#: Names of the built-in (paper) architectures; these entries cannot be
#: replaced or unregistered.
BUILTIN_ARCHITECTURES = (
    "crossbar",
    "fully_connected",
    "banyan",
    "batcher_banyan",
)


@dataclass(frozen=True)
class FabricEntry:
    """One registered architecture.

    Attributes
    ----------
    name: canonical architecture name (registry key).
    fabric_cls: the reference fabric class
        (:class:`~repro.fabrics.base.SwitchFabric` subclass).
    vector_core: the matching
        :class:`~repro.fabrics.vectorized.VectorFabricCore` subclass, or
        ``None`` if only the reference engine can run this fabric.
    models_factory: ``(ports, tech) -> EnergyModelSet`` used by
        :func:`~repro.fabrics.factory.build_fabric` when no explicit
        ``models`` is passed; ``None`` for the built-ins (they use the
        session-cached :func:`~repro.fabrics.factory.default_models`).
    aliases: extra accepted spellings of the name.
    description: one-line human description (CLI/docs).
    """

    name: str
    fabric_cls: type
    vector_core: type | None = None
    models_factory: Callable | None = None
    aliases: tuple[str, ...] = ()
    description: str = ""

    @property
    def engines(self) -> tuple[str, ...]:
        """Engine names able to run this architecture."""
        if self.vector_core is not None:
            return ("vectorized", "reference")
        return ("reference",)


_REGISTRY: dict[str, FabricEntry] = {}
_ALIASES: dict[str, str] = {}
_LOCK = threading.Lock()
_builtins_loaded = False


def _normalise(name: str) -> str:
    return str(name).lower().replace("-", "_").replace(" ", "_")


def _ensure_builtins() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    with _LOCK:
        if _builtins_loaded:
            return
        # Imported lazily: the fabric modules (and the vectorized cores,
        # which import them) must be loadable before the registry fills.
        from repro.fabrics.banyan import BanyanFabric
        from repro.fabrics.batcher_banyan import BatcherBanyanFabric
        from repro.fabrics.crossbar import CrossbarFabric
        from repro.fabrics.fully_connected import FullyConnectedFabric
        from repro.fabrics.vectorized import (
            BanyanCore,
            BatcherBanyanCore,
            CrossbarCore,
            FullyConnectedCore,
        )

        builtins = (
            FabricEntry(
                "crossbar",
                CrossbarFabric,
                vector_core=CrossbarCore,
                aliases=("xbar",),
                description="N x N crosspoint matrix",
            ),
            FabricEntry(
                "fully_connected",
                FullyConnectedFabric,
                vector_core=FullyConnectedCore,
                aliases=("fullyconnected", "fully_conn", "fc", "mux"),
                description="one N-input MUX per egress port",
            ),
            FabricEntry(
                "banyan",
                BanyanFabric,
                vector_core=BanyanCore,
                description="self-routing 2x2 switches with node buffers",
            ),
            FabricEntry(
                "batcher_banyan",
                BatcherBanyanFabric,
                vector_core=BatcherBanyanCore,
                aliases=("batcher", "batcherbanyan"),
                description="bitonic sorter in front of a banyan",
            ),
        )
        for entry in builtins:
            _REGISTRY[entry.name] = entry
            for alias in entry.aliases:
                _ALIASES[alias] = entry.name
        _builtins_loaded = True


def register_fabric(
    name: str,
    fabric_cls: type,
    *,
    vector_core: type | None = None,
    models_factory: Callable | None = None,
    aliases: tuple[str, ...] = (),
    description: str = "",
    replace: bool = False,
) -> FabricEntry:
    """Register a custom architecture; returns the new entry.

    Registering ``vector_core`` makes ``engine="vectorized"`` run the
    fabric (instead of raising toward the reference engine); leaving it
    ``None`` declares the fabric reference-only.  ``models_factory``
    supplies default :class:`~repro.core.bit_energy.EnergyModelSet`
    construction for :func:`~repro.fabrics.factory.build_fabric` call
    sites that pass no explicit ``models``.
    """
    _ensure_builtins()
    canonical = _normalise(name)
    alias_names = tuple(_normalise(a) for a in aliases)
    with _LOCK:
        # Every name the entry would claim (canonical + aliases) must
        # be free, or owned by this same entry when replace=True —
        # built-in names and built-in aliases can never be taken.
        for claimed in (canonical,) + alias_names:
            owner = (
                claimed if claimed in _REGISTRY else _ALIASES.get(claimed)
            )
            if owner in BUILTIN_ARCHITECTURES:
                raise ConfigurationError(
                    f"cannot replace or alias built-in architecture "
                    f"name {claimed!r}"
                )
            if owner is not None and owner != canonical:
                raise ConfigurationError(
                    f"name {claimed!r} is already registered to "
                    f"architecture {owner!r}"
                )
            if owner == canonical and not replace:
                raise ConfigurationError(
                    f"architecture {canonical!r} is already registered "
                    "(pass replace=True to swap it)"
                )
        previous = _REGISTRY.get(canonical)
        if previous is not None:
            for alias in previous.aliases:
                _ALIASES.pop(alias, None)
        entry = FabricEntry(
            name=canonical,
            fabric_cls=fabric_cls,
            vector_core=vector_core,
            models_factory=models_factory,
            aliases=alias_names,
            description=description,
        )
        _REGISTRY[canonical] = entry
        for alias in entry.aliases:
            _ALIASES[alias] = canonical
        return entry


def unregister_fabric(name: str) -> None:
    """Remove a custom entry (built-ins refuse; missing names are ok)."""
    canonical = _normalise(name)
    canonical = _ALIASES.get(canonical, canonical)
    if canonical in BUILTIN_ARCHITECTURES:
        raise ConfigurationError(
            f"cannot unregister built-in architecture {canonical!r}"
        )
    with _LOCK:
        entry = _REGISTRY.pop(canonical, None)
        if entry is not None:
            for alias in entry.aliases:
                _ALIASES.pop(alias, None)


def registered_architectures() -> tuple[str, ...]:
    """Canonical names of every registered architecture (sorted)."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def canonical_architecture(name: str) -> str:
    """Normalise any accepted spelling to its canonical registry name."""
    _ensure_builtins()
    arch = _normalise(name)
    arch = _ALIASES.get(arch, arch)
    if arch not in _REGISTRY:
        raise ConfigurationError(
            f"unknown architecture {name!r}; registered architectures: "
            f"{registered_architectures()}"
        )
    return arch


def get_entry(name: str) -> FabricEntry:
    """The :class:`FabricEntry` for any accepted architecture spelling."""
    return _REGISTRY[canonical_architecture(name)]


def vector_core_for(fabric) -> type | None:
    """The registered vector core for a fabric *instance*, or ``None``.

    Exact-type dispatch: subclasses (which may override dynamics) never
    silently match a parent's core.
    """
    _ensure_builtins()
    fabric_type = type(fabric)
    for entry in _REGISTRY.values():
        if entry.fabric_cls is fabric_type and entry.vector_core is not None:
            return entry.vector_core
    return None


def vector_core_summary() -> str:
    """Human-readable ``name (engines)`` list for error messages."""
    _ensure_builtins()
    parts = []
    for name in sorted(_REGISTRY):
        entry = _REGISTRY[name]
        parts.append(f"{name} ({'+'.join(entry.engines)})")
    return ", ".join(parts)
