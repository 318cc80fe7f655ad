"""The benchmark harness's hold on ``src/`` stays intact.

``perfbench/tracing.py`` times each layer by wrapping named functions of
the package from outside.  A rename in ``src/`` would make its
``installed()`` fail on every ``--trace 1`` run, and
``perfbench/workloads.py`` still passes ``strategy="vectorized"`` to
``PowerModel.run_batch``.  These tests load the harness read-only and
check both contracts.
"""

from __future__ import annotations

import importlib
import types
from pathlib import Path

import pytest

from repro.api import PowerModel, Scenario
from repro.errors import ConfigurationError

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing() -> types.ModuleType:
    """Execute the harness source in a fresh namespace (no bytecode
    cache is written next to it)."""
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


TRACING_MODULE = _load_tracing()
TARGETS = TRACING_MODULE.BATCH_TARGETS + TRACING_MODULE.SERVER_TARGETS


@pytest.mark.parametrize(
    "module_name, path", [(t[0], t[1]) for t in TARGETS],
    ids=[f"{t[0]}:{t[1]}" for t in TARGETS],
)
def test_trace_target_resolves(module_name, path):
    # Mirrors installed(): owner attributes come from the class
    # __dict__, module-level functions from the module.
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        assert attr in getattr(module, owner_name).__dict__
    else:
        assert callable(getattr(module, attr))


def test_inert_trace_shims_refuse_to_run():
    from repro.fabrics.vectorized import flush_core_stack
    from repro.sim.fused_engine import FusedVectorizedEngine

    with pytest.raises(ConfigurationError):
        FusedVectorizedEngine().run(40)
    with pytest.raises(ConfigurationError):
        flush_core_stack([])


SCENARIO = Scenario("crossbar", 4, 0.5, queueing="voq", islip_iterations=2,
                    arrival_slots=30, warmup_slots=5, seed=7)


def test_vectorized_strategy_is_the_default_path():
    plain = PowerModel().run_batch([SCENARIO], workers=1)
    named = PowerModel().run_batch([SCENARIO], workers=1,
                                   strategy="vectorized")
    assert [r.detail for r in named] == [r.detail for r in plain]


@pytest.mark.parametrize("strategy", ["fused", "auto"])
def test_other_strategies_are_rejected(strategy):
    with pytest.raises(ConfigurationError, match="strategy"):
        PowerModel().run_batch([SCENARIO], workers=1, strategy=strategy)
