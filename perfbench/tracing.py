"""Outside-in span tracing: wrap the simulator's public functions.

The benchmark times each layer by wrapping the calls into that layer's
public functions from outside ``src/``; nothing in the program changes.
:func:`installed` swaps a wrapper in for every target (class attributes
and module-level functions, including every ``from x import f`` alias
held by another ``repro`` module) and restores the originals on exit,
so an untraced pass runs the unmodified code.

A span records its name, start and end (``perf_counter_ns``), its
parent span and a run or request id.  Spans stay in memory (compact
arrays) and are written as JSONL by :meth:`Tracer.write_jsonl` when the
run ends.  Self time is accumulated as spans close: a span's duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Counter hook: ``(counts, args, result) -> None``.
Counter = Callable[[dict, tuple, Any], None]


def _add(counts: dict, key: str, value: float) -> None:
    counts[key] = counts.get(key, 0) + value


def _count_packets(counts, args, result) -> None:
    _add(counts, "router.traffic.packets", len(result))


def _count_batch_cells(counts, args, result) -> None:
    _add(counts, "sim.cellstore.cells", len(result[0]))


def _count_packet_cells(counts, args, result) -> None:
    _add(counts, "sim.cellstore.cells", len(result))


def _count_core(counts, args, result) -> None:
    _add(counts, "fabrics.core.calls", 1)
    _add(counts, "fabrics.core.cells_granted", len(args[1]))
    _add(counts, "fabrics.core.cells_delivered", len(result))


def _count_stack(counts, args, result) -> None:
    _add(counts, "sim.fused.scenarios", len(result))


def _count_store_lines(counts, args, result) -> None:
    store = args[0]
    _add(counts, "api.store.lines", len(store) + store.skipped_lines)


def _count_store_hit(counts, args, result) -> None:
    if result is not None:
        _add(counts, "api.store.hits", 1)


#: ``(module, attribute path, span name, counter)`` for every wrapped
#: function of the batch layers.
BATCH_TARGETS: tuple[tuple[str, str, str, Counter | None], ...] = (
    ("repro.router.traffic", "TrafficGenerator.arrivals_batch",
     "router.traffic", _count_packets),
    ("repro.sim.cellstore", "CellStore.add_batch", "sim.cellstore",
     _count_batch_cells),
    ("repro.sim.cellstore", "CellStore.add_packet", "sim.cellstore",
     _count_packet_cells),
    ("repro.sim.cellstore", "CellStore.free_many", "sim.cellstore", None),
    ("repro.sim.vector_engine", "VectorizedEngine.step", "sim.engine", None),
    ("repro.sim.fused_engine", "FusedVectorizedEngine.run", "sim.fused",
     _count_stack),
    ("repro.sim.runner", "build_router", "sim.build_router", None),
    ("repro.fabrics.vectorized", "CrossbarCore.advance",
     "fabrics.core.crossbar", _count_core),
    ("repro.fabrics.vectorized", "FullyConnectedCore.advance",
     "fabrics.core.fully_connected", _count_core),
    ("repro.fabrics.vectorized", "BanyanCore.advance",
     "fabrics.core.banyan", _count_core),
    ("repro.fabrics.vectorized", "BatcherBanyanCore.advance",
     "fabrics.core.batcher_banyan", _count_core),
    ("repro.fabrics.vectorized", "flush_core_stack", "fabrics.flush_stack",
     None),
    ("repro.api.model", "PowerModel.run_batch", "api.run_batch", None),
    # The supervisor -> session boundary: without it a fused unit's
    # router assembly would count as supervision overhead.
    ("repro.api.model", "PowerModel._run_unit", "api.run_unit", None),
    ("repro.api.model", "PowerModel.simulate", "api.simulate", None),
    ("repro.api.store", "RunRecordStore.__init__", "api.store.open",
     _count_store_lines),
    ("repro.api.store", "RunRecordStore.get", "api.store.get",
     _count_store_hit),
    ("repro.api.store", "RunRecordStore.put", "api.store.put", None),
    ("repro.resilience.journal", "CampaignJournal.record_done",
     "resilience.journal", None),
    ("repro.resilience.supervisor", "Supervisor.run_units",
     "resilience.supervisor", None),
    ("repro.campaigns.runner", "run_campaign", "campaigns", None),
    ("repro.campaigns.comparison", "ComparisonRecord.to_csv",
     "campaigns.export", None),
    ("repro.campaigns.comparison", "ComparisonRecord.to_json",
     "campaigns.export", None),
    ("repro.network.power", "NetworkRecord.to_csv", "campaigns.export", None),
    ("repro.network.power", "NetworkRecord.links_to_csv", "campaigns.export",
     None),
    ("repro.network.power", "NetworkRecord.to_json", "campaigns.export",
     None),
    ("repro.network.routing", "route", "network.routing", None),
    ("repro.network.power", "NetworkPowerModel.run_routed", "network.power",
     None),
    ("repro.control.optimizer", "optimize_routing", "control.optimizer",
     None),
    ("repro.control.model", "ControlModel.run", "control.model", None),
)

#: The serving layer's wrapped functions.  Installed only in the server
#: process: batch workers parse scenarios while loading stores, which is
#: store-open time, not request parsing.
SERVER_TARGETS: tuple[tuple[str, str, str, Counter | None], ...] = (
    ("repro.api.scenario", "Scenario.from_dict", "surrogate.parse", None),
    ("repro.surrogate.predict", "SurrogatePredictor.predict",
     "surrogate.predict", None),
    ("repro.surrogate.predict", "Prediction.to_json", "surrogate.serialize",
     None),
)

#: Name of the benchmark's own root span around one timed pass; its
#: self time is the pass time no layer span covers.
ROOT = "pass"


class Tracer:
    """In-memory span recorder with on-the-fly self-time accounting.

    Every span carries :attr:`rid`, the run (pass) or request id.
    ``request_root`` names the span that opens a new request: entering
    it at the top of the stack bumps the id.
    """

    def __init__(self, request_root: str | None = None) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self.span_rid = array("l")
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        self.counts: dict[str, float] = {}
        self.rid = 0
        self._request_root = (
            None if request_root is None else self.name_id(request_root)
        )
        self._stack: list[int] = []
        self._child_ns: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return nid

    def __len__(self) -> int:
        return len(self.span_name)

    # ------------------------------------------------------------------

    def enter(self, nid: int) -> int:
        stack = self._stack
        if nid == self._request_root and not stack:
            self.rid += 1
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_rid.append(self.rid)
        self.span_end.append(0)
        stack.append(idx)
        self._child_ns.append(0)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def exit(self, idx: int) -> None:
        end = time.perf_counter_ns()
        self.span_end[idx] = end
        self._stack.pop()
        duration = end - self.span_start[idx]
        nid = self.span_name[idx]
        self.self_ns[nid] += duration - self._child_ns.pop()
        self.calls[nid] += 1
        if self._child_ns:
            self._child_ns[-1] += duration

    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Self time (s), calls and counters accumulated so far."""
        return {
            "self_s": {
                name: self.self_ns[i] / 1e9 for i, name in enumerate(self.names)
            },
            "calls": {
                name: self.calls[i] for i, name in enumerate(self.names)
            },
            "counts": dict(self.counts),
        }

    def write_jsonl(self, path) -> int:
        """Write every span as one JSON line; returns the span count."""
        names = self.names
        with open(path, "w") as fh:
            for i in range(len(self.span_name)):
                parent = self.span_parent[i]
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": names[self.span_name[i]],
                            "start_ns": self.span_start[i],
                            "end_ns": self.span_end[i],
                            "parent": None if parent < 0 else parent,
                            "rid": self.span_rid[i],
                        }
                    )
                    + "\n"
                )
        return len(self.span_name)


def _traced(fn: Callable, tracer: Tracer, name: str, counter: Counter | None):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
        if counter is not None:
            counter(tracer.counts, args, result)
        return result

    return traced


@contextmanager
def installed(tracer: Tracer, targets) -> Iterator[None]:
    """Wrap every target for the duration of the block."""
    undo: list[tuple[Any, str, Any]] = []
    try:
        for module_name, path, name, counter in targets:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapper = classmethod(
                        _traced(raw.__func__, tracer, name, counter)
                    )
                else:
                    wrapper = _traced(raw, tracer, name, counter)
                undo.append((owner, attr, raw))
                setattr(owner, attr, wrapper)
                continue
            original = getattr(module, attr)
            wrapper = _traced(original, tracer, name, counter)
            # Rebind every alias: modules that did ``from x import f``
            # hold their own reference to the original function.
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (
                    mod_name == "repro" or mod_name.startswith("repro.")
                ):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def _self(snap: dict, name: str) -> float:
    return snap["self_s"].get(name, 0.0)


def _calls(snap: dict, name: str) -> int:
    return snap["calls"].get(name, 0)


def _count(snap: dict, name: str) -> float:
    return snap["counts"].get(name, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


FABRICS = ("crossbar", "fully_connected", "banyan", "batcher_banyan")


def batch_layer_metrics(snap: dict) -> dict[str, float]:
    """The batch layers' per-layer metrics from one pass's snapshot."""
    cores = {f: _self(snap, f"fabrics.core.{f}") for f in FABRICS}
    gets = _calls(snap, "api.store.get")
    metrics = {
        "router.traffic.self_s": _self(snap, "router.traffic"),
        "router.traffic.calls": _calls(snap, "router.traffic"),
        "router.traffic.packets": _count(snap, "router.traffic.packets"),
        "sim.cellstore.self_s": _self(snap, "sim.cellstore"),
        "sim.cellstore.cells": _count(snap, "sim.cellstore.cells"),
        "sim.engine.self_s": _self(snap, "sim.engine"),
        "sim.engine.slots": _calls(snap, "sim.engine"),
        "sim.fused.self_s": _self(snap, "sim.fused"),
        "sim.fused.stacks": _calls(snap, "sim.fused"),
        "sim.fused.scenarios": _count(snap, "sim.fused.scenarios"),
        "sim.build_router.self_s": _self(snap, "sim.build_router"),
        "sim.build_router.calls": _calls(snap, "sim.build_router"),
        "fabrics.core.self_s": sum(cores.values()),
    }
    for fabric, value in cores.items():
        metrics[f"fabrics.core.{fabric}.self_s"] = value
    metrics.update(
        {
            "fabrics.core.calls": _count(snap, "fabrics.core.calls"),
            "fabrics.core.cells_granted": _count(
                snap, "fabrics.core.cells_granted"
            ),
            "fabrics.core.cells_delivered": _count(
                snap, "fabrics.core.cells_delivered"
            ),
            "fabrics.flush_stack.self_s": _self(snap, "fabrics.flush_stack"),
            "api.run_batch.self_s": _self(snap, "api.run_batch"),
            "api.simulate.calls": _calls(snap, "api.simulate"),
            "api.simulate.self_s": _self(snap, "api.simulate"),
            "api.store.open_s": _self(snap, "api.store.open"),
            "api.store.lines": _count(snap, "api.store.lines"),
            "api.store.get.calls": gets,
            "api.store.get.self_s": _self(snap, "api.store.get"),
            "api.store.hit_ratio": _ratio(
                _count(snap, "api.store.hits"), gets
            ),
            "api.store.put.calls": _calls(snap, "api.store.put"),
            "api.store.put.self_s": _self(snap, "api.store.put"),
            "resilience.journal.appends": _calls(snap, "resilience.journal"),
            "resilience.journal.self_s": _self(snap, "resilience.journal"),
            "resilience.supervisor.self_s": _self(
                snap, "resilience.supervisor"
            ),
            "campaigns.self_s": _self(snap, "campaigns"),
            "campaigns.export_s": _self(snap, "campaigns.export"),
            "network.routing.calls": _calls(snap, "network.routing"),
            "network.routing.self_s": _self(snap, "network.routing"),
            "network.power.self_s": _self(snap, "network.power"),
            "control.optimizer.calls": _calls(snap, "control.optimizer"),
            "control.optimizer.self_s": _self(snap, "control.optimizer"),
            "control.model.self_s": _self(snap, "control.model"),
        }
    )
    return metrics


def diff(after: dict, before: dict) -> dict:
    """Snapshot difference: what one pass added."""
    out: dict[str, dict] = {}
    for part in ("self_s", "calls", "counts"):
        out[part] = {
            key: value - before[part].get(key, 0)
            for key, value in after[part].items()
        }
    return out
