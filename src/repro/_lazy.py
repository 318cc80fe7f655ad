"""Lazy package exports (PEP 562).

A package ``__init__`` lists each public name once, under the module
that defines it, and the name's module is imported on first access::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        ".scenario": ("Scenario", "preset"),
        "repro.wire_modes": ("WireMode",),
    })

So ``import repro`` or ``import repro.campaigns.runner`` loads only the
modules a run uses: importing a package imports none of its modules.
A module path starting with ``.`` is relative to the package.
Names listed under ``"."`` are the package's own submodules (such as
``repro.core.tables``), and so is any other name the package has not
bound yet, so ``repro.network`` resolves after a bare ``import repro``.

A package exporting a name that is also one of its submodules' names
must stay eager: importing the submodule binds the module over the
export (``repro.gatesim.simulate``).
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable


def lazy_exports(
    package: str, table: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` of ``package`` from its
    ``{module: names}`` export table."""
    source = {name: module for module, names in table.items()
              for name in names}

    def __getattr__(name: str) -> Any:
        module = source.get(name, ".")
        if module != ".":
            return getattr(import_module(module, package), name)
        try:
            return import_module(f"{package}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{package}.{name}":
                raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(vars(sys.modules[package]).keys() | source.keys())

    return __getattr__, __dir__, list(source)
