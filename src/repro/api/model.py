"""Cached experiment sessions: the canonical way to run scenarios.

:class:`PowerModel` owns every reusable model object — wire models,
switch LUTs, buffer models, per-fabric :class:`EnergyModelSet` bundles —
keyed by technology and fabric configuration, so a sweep of hundreds of
operating points constructs each of them exactly once.  The legacy
entry points (:func:`repro.core.estimator.estimate_power`,
:func:`repro.sim.runner.run_simulation`) are thin shims over a shared
default session, which means old call sites inherit the caching win
without changes.

Batch execution (:meth:`PowerModel.run_batch`) runs every scenario as
its own execution unit on the vectorized or reference engine, inline
or on a process pool.  Every scenario carries its own seed and every
run owns its fabric/ledger state, so results are deterministic and
ordering-stable regardless of scheduling; the shared caches hold only
immutable lookup objects.
"""

from __future__ import annotations

import inspect
import threading
import time
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.core.bit_energy import (
    BufferEnergyModel,
    EnergyModelSet,
    MuxEnergyLUT,
    SwitchEnergyLUT,
)
from repro.core.estimator import (
    ARCHITECTURES,
    canonical_architecture,
    compute_estimate,
    default_estimator_buffer,
)
from repro.errors import ConfigurationError
from repro.fabrics import registry
from repro.fabrics.factory import default_models
from repro.fabrics.topology import stage_count
from repro.memmodel.buffers import banyan_buffer_model
from repro.sim.engine import create_engine
from repro.sim.results import SimulationResult
from repro.tech import TECH_180NM, Technology
from repro.tech.wires import WireModel
from repro.wire_modes import WireMode

from repro.api.records import RunRecord
from repro.api.scenario import Scenario
from repro.resilience.faults import FaultPlan
from repro.resilience.policy import RetryPolicy
from repro.resilience.records import BatchReport
from repro.resilience.supervisor import Supervisor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.store import RunRecordStore
    from repro.resilience.journal import CampaignJournal


#: Fabric kwargs that change the banyan buffer *energy model* (and hence
#: participate in the model-set cache key).
_BUFFER_MODEL_KEYS = (
    "buffer_memory",
    "buffer_bits_per_switch",
    "buffer_charge_granularity",
)


class _Memo:
    """A tiny thread-safe build-once cache with hit/build counters."""

    def __init__(self) -> None:
        self._store: dict[Any, Any] = {}
        self._lock = threading.Lock()
        self.builds = 0
        self.hits = 0

    def get_or_build(self, key: Any, builder) -> Any:
        with self._lock:
            if key in self._store:
                self.hits += 1
                return self._store[key]
        value = builder()
        with self._lock:
            if key in self._store:
                self.hits += 1
                return self._store[key]
            self._store[key] = value
            self.builds += 1
            return value

    def __len__(self) -> int:
        return len(self._store)


class PowerModel:
    """A session that runs scenarios against cached energy models.

    >>> from repro.api import PowerModel, Scenario
    >>> session = PowerModel()
    >>> record = session.estimate(Scenario("banyan", 32, 0.3))
    >>> record.total_power_w  # doctest: +SKIP

    One session may be shared freely across sweeps, batches and threads;
    everything it caches is immutable lookup data.
    """

    def __init__(self) -> None:
        self._wire_models = _Memo()
        self._switch_luts = _Memo()
        self._buffer_models = _Memo()
        self._estimator_buffers = _Memo()
        self._model_sets = _Memo()

    # ------------------------------------------------------------------
    # Cached component accessors
    # ------------------------------------------------------------------

    def wire_model(self, tech: Technology = TECH_180NM) -> WireModel:
        """The per-technology :class:`WireModel` (built once per node)."""
        return self._wire_models.get_or_build(tech, lambda: WireModel(tech))

    def switch_lut(self, kind: str, ports: int | None = None) -> SwitchEnergyLUT:
        """Table 1 switch LUTs by kind: ``crossbar``/``banyan``/
        ``batcher``/``mux`` (``mux`` needs ``ports``)."""
        if kind == "mux":
            if ports is None:
                raise ConfigurationError("mux LUT needs a port count")
            return self._switch_luts.get_or_build(
                ("mux", ports), lambda: MuxEnergyLUT(ports)
            )
        builders = {
            "crossbar": SwitchEnergyLUT.crossbar_crosspoint,
            "banyan": SwitchEnergyLUT.banyan_binary,
            "batcher": SwitchEnergyLUT.batcher_sorting,
        }
        if kind not in builders:
            raise ConfigurationError(
                f"unknown switch LUT kind {kind!r}; expected one of "
                f"{('crossbar', 'banyan', 'batcher', 'mux')}"
            )
        return self._switch_luts.get_or_build((kind,), builders[kind])

    def buffer_model(
        self,
        ports: int,
        memory: str = "sram",
        buffer_bits_per_switch: int | None = None,
        charge_granularity: str = "word",
    ) -> BufferEnergyModel:
        """The simulator's shared-macro banyan buffer model, cached."""
        key = (ports, memory, buffer_bits_per_switch, charge_granularity)
        return self._buffer_models.get_or_build(
            key,
            lambda: banyan_buffer_model(
                ports,
                memory=memory,
                buffer_bits_per_switch=buffer_bits_per_switch,
                charge_granularity=charge_granularity,
            ),
        )

    def energy_models(
        self,
        architecture: str,
        ports: int,
        tech: Technology = TECH_180NM,
        **buffer_opts: Any,
    ) -> EnergyModelSet:
        """The fabric's full :class:`EnergyModelSet`, cached per
        (architecture, ports, tech, buffer configuration)."""
        arch = canonical_architecture(architecture)
        unknown = set(buffer_opts) - set(_BUFFER_MODEL_KEYS)
        if unknown:
            raise ConfigurationError(
                f"unknown buffer options: {sorted(unknown)}"
            )
        key = (arch, ports, tech) + tuple(
            buffer_opts.get(k) for k in _BUFFER_MODEL_KEYS
        )
        return self._model_sets.get_or_build(
            key,
            lambda: default_models(
                arch,
                ports,
                tech,
                wire_model=self.wire_model(tech),
                switch_lut=self._default_switch_lut(arch, ports),
                sorting_lut=(
                    self.switch_lut("batcher")
                    if arch == "batcher_banyan"
                    else None
                ),
                buffer=(
                    self.buffer_model(
                        ports,
                        memory=buffer_opts.get("buffer_memory", "sram"),
                        buffer_bits_per_switch=buffer_opts.get(
                            "buffer_bits_per_switch"
                        ),
                        charge_granularity=buffer_opts.get(
                            "buffer_charge_granularity", "word"
                        ),
                    )
                    if arch == "banyan"
                    else None
                ),
                **buffer_opts,
            ),
        )

    def _default_switch_lut(self, arch: str, ports: int) -> SwitchEnergyLUT:
        if arch == "crossbar":
            return self.switch_lut("crossbar")
        if arch == "fully_connected":
            return self.switch_lut("mux", ports)
        return self.switch_lut("banyan")

    def cache_info(self) -> dict[str, dict[str, int]]:
        """Hit/build counters of every internal cache (for tests and
        perf reports)."""
        caches = {
            "wire_models": self._wire_models,
            "switch_luts": self._switch_luts,
            "buffer_models": self._buffer_models,
            "estimator_buffers": self._estimator_buffers,
            "model_sets": self._model_sets,
        }
        return {
            name: {"entries": len(m), "builds": m.builds, "hits": m.hits}
            for name, m in caches.items()
        }

    # ------------------------------------------------------------------
    # Raw-vocabulary execution (the legacy shims land here)
    # ------------------------------------------------------------------

    def analytical(
        self,
        architecture: str,
        ports: int,
        throughput: float,
        tech: Technology = TECH_180NM,
        flip_fraction: float = 0.5,
        wire_mode: WireMode | str = WireMode.WORST_CASE,
        buffer_model: BufferEnergyModel | None = None,
        switch_lut: SwitchEnergyLUT | None = None,
        sorting_lut: SwitchEnergyLUT | None = None,
    ):
        """Closed-form estimate with cached components filled in.

        Same semantics as the legacy ``estimate_power`` (which now
        delegates here), but ``WireModel``/LUTs/buffer defaults come
        from the session caches instead of being rebuilt per call.
        """
        arch = canonical_architecture(architecture)
        mode = WireMode.parse(wire_mode)
        if switch_lut is None:
            switch_lut = self._default_switch_lut(arch, ports)
        if sorting_lut is None and arch == "batcher_banyan":
            sorting_lut = self.switch_lut("batcher")
        if buffer_model is None and arch == "banyan":
            buffer_model = self._estimator_buffers.get_or_build(
                ports, lambda: default_estimator_buffer(ports)
            )
        return compute_estimate(
            arch,
            ports,
            throughput,
            tech=tech,
            flip_fraction=flip_fraction,
            wire_mode=mode.analytical,
            buffer_model=buffer_model,
            switch_lut=switch_lut,
            sorting_lut=sorting_lut,
            wire_model=self.wire_model(tech),
        )

    def simulation(
        self,
        architecture: str,
        ports: int,
        load: float = 0.3,
        arrival_slots: int = 1000,
        warmup_slots: int = 100,
        seed: int | None = 12345,
        tech: Technology = TECH_180NM,
        drain: bool = True,
        wire_mode: WireMode | str = WireMode.WORST_CASE,
        models: EnergyModelSet | None = None,
        engine: str = "vectorized",
        **router_kwargs: Any,
    ) -> SimulationResult:
        """Bit-accurate simulation with cached energy models.

        Same semantics as the legacy ``run_simulation`` (which now
        delegates here); ``router_kwargs`` forward to
        :func:`repro.sim.runner.build_router` (e.g. ``queueing="voq"``,
        ``islip_iterations``).  ``engine`` selects the slot-loop
        implementation (``"vectorized"``, the default, or the
        object-based ``"reference"`` oracle) — both produce
        bit-identical seeded results.  Custom architectures registered
        in :mod:`repro.fabrics.registry` simulate too; their default
        models come from the registry entry instead of the session
        cache.
        """
        from repro.sim.runner import build_router

        arch = registry.canonical_architecture(architecture)
        if arch == "banyan":
            stage_count(ports)  # TopologyError before any model is built
        mode = WireMode.parse(wire_mode)
        if models is None and arch in ARCHITECTURES:
            buffer_opts = {
                k: router_kwargs[k]
                for k in _BUFFER_MODEL_KEYS
                if k in router_kwargs
            }
            models = self.energy_models(arch, ports, tech, **buffer_opts)
        router = build_router(
            arch,
            ports,
            load=load,
            tech=tech,
            wire_mode=mode.simulated,
            models=models,
            **router_kwargs,
        )
        return create_engine(router, seed=seed, engine=engine).run(
            arrival_slots, warmup_slots=warmup_slots, drain=drain
        )

    # ------------------------------------------------------------------
    # Scenario execution
    # ------------------------------------------------------------------

    def estimate(self, scenario: Scenario) -> RunRecord:
        """Run a scenario through the closed-form backend.

        Refuses scenarios whose workload the closed forms cannot model
        (anything but Bernoulli traffic) rather than silently returning
        uniform-traffic numbers under the scenario's label.
        """
        if scenario.traffic != "bernoulli":
            raise ConfigurationError(
                f"cannot estimate scenario {scenario.label!r}: traffic "
                f"{scenario.traffic!r} is simulate-only (the analytical "
                "backend models Bernoulli arrivals)"
            )
        start = time.perf_counter()
        est = self.analytical(
            scenario.architecture,
            scenario.ports,
            scenario.load,
            tech=scenario.technology,
            flip_fraction=scenario.flip_fraction,
            wire_mode=scenario.wire_mode,
        )
        return RunRecord.from_estimate(
            scenario, est, elapsed_s=time.perf_counter() - start
        )

    def simulate(
        self, scenario: Scenario, engine: str | None = None
    ) -> RunRecord:
        """Run a scenario through the bit-accurate backend.

        ``engine`` overrides the scenario's slot-loop implementation
        *at execution time only* — the record still carries the
        original scenario (and its content hash), which is what lets
        the supervisor's degradation ladder fall back to the reference
        engine without changing any export byte.  Both engines are
        bit-identical on seeded runs, so the override never changes
        results either.
        """
        start = time.perf_counter()
        kwargs: dict[str, Any] = {}
        if scenario.architecture == "banyan":
            kwargs.update(
                buffer_memory=scenario.buffer_memory,
                buffer_bits_per_switch=scenario.buffer_bits_per_switch,
                buffer_charge_granularity=scenario.buffer_charge_granularity,
            )
        result = self.simulation(
            scenario.architecture,
            scenario.ports,
            load=scenario.mean_load,
            arrival_slots=scenario.arrival_slots,
            warmup_slots=scenario.warmup_slots,
            seed=scenario.seed,
            tech=scenario.technology,
            drain=scenario.drain,
            wire_mode=scenario.wire_mode,
            engine=engine if engine is not None else scenario.engine,
            traffic=scenario.build_traffic(),
            cell_format=scenario.cell_format,
            ingress_queue_cells=scenario.ingress_queue_cells,
            queueing=scenario.queueing,
            islip_iterations=scenario.islip_iterations,
            **kwargs,
        )
        return RunRecord.from_simulation(
            scenario, result, elapsed_s=time.perf_counter() - start
        )

    def run(
        self, scenario: Scenario, engine: str | None = None
    ) -> RunRecord:
        """Dispatch on the scenario's declared backend.

        ``engine`` is an execution-time slot-loop override (see
        :meth:`simulate`); estimates ignore it.
        """
        if scenario.backend == "estimate":
            return self.estimate(scenario)
        return self.simulate(scenario, engine=engine)

    def _run_unit(
        self, scenarios: Sequence[Scenario], engine: str | None = None
    ) -> list[RunRecord]:
        """Run one execution unit.

        ``engine`` is the supervisor's execution-time slot-loop
        override (see :meth:`simulate`).
        """
        return [self.run(s, engine=engine) for s in scenarios]

    def run_batch(
        self,
        scenarios: Iterable[Scenario] | Sequence[Scenario],
        workers: int | None = None,
        store: "RunRecordStore | None" = None,
        retry: RetryPolicy | None = None,
        journal: "CampaignJournal | None" = None,
        faults: FaultPlan | None = None,
        report: BatchReport | None = None,
        # perfbench's Saturation._check still passes strategy="vectorized".
        strategy: str = "vectorized",
    ) -> list[RunRecord]:
        """Run many scenarios; results keep the input order.

        The parameters after ``scenarios`` are the batch options
        (:data:`BATCH_OPTIONS`); every layer above this method takes
        them as ``**batch`` and passes them here unchanged.

        Parameters
        ----------
        workers:
            ``None``/1 runs inline on this session; > 1 runs a
            :class:`~concurrent.futures.ProcessPoolExecutor` of that
            many workers, each with its own model caches (scenarios and
            records pickle cleanly).  Either way each distinct scenario
            runs once.
        store:
            Optional :class:`~repro.api.store.RunRecordStore`; scenarios
            whose content hash is already on disk are served from the
            cache, and fresh results are persisted for the next
            campaign.
        retry:
            Optional :class:`~repro.resilience.RetryPolicy` supervising
            every execution unit: retries with deterministic backoff,
            per-unit wall-clock timeouts (a ``timeout_s`` runs even
            ``workers=1`` on a one-worker pool), graceful degradation
            (vectorized → reference engine; process pool → inline,
            without timeouts, after repeated pool breaks), and
            ``on_failure="record"`` (``None`` result slots plus
            :class:`~repro.resilience.FailureRecord` entries in the
            report) instead of raising.  ``None`` keeps the historic
            fail-fast behaviour (single attempt, first error raises).
        journal:
            Optional :class:`~repro.resilience.CampaignJournal`
            checkpoint: every completed/failed unit is journaled
            (flushed and fsynced) as it finishes, and a journal opened
            with ``replay=True`` serves previously completed scenarios
            without re-running them (``--resume``).
        faults:
            Optional deterministic
            :class:`~repro.resilience.FaultPlan` consulted at the top
            of each unit attempt (tests and the chaos CI job only).
        report:
            Optional :class:`~repro.resilience.BatchReport` to
            accumulate the batch's resilience tally into (retries,
            degradations, pool respawns, timeouts, replays, failures).

        Every scenario carries its own seed and every run owns its
        router/engine state, so results are identical (bit-for-bit)
        inline and on a pool of any width — and, by the
        degradation ladder's construction, across any sequence of
        recovered faults.
        """
        scenario_list = list(scenarios)
        if workers is not None and (type(workers) is not int or workers < 1):
            raise ConfigurationError(
                f"workers must be an int >= 1, got {workers!r}"
            )
        if strategy != "vectorized":
            raise ConfigurationError(
                f"strategy must be 'vectorized', got {strategy!r}"
            )
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise ConfigurationError(
                f"retry must be a RetryPolicy, got {type(retry).__name__}"
            )
        if faults is not None and not isinstance(faults, FaultPlan):
            raise ConfigurationError(
                f"faults must be a FaultPlan, got {type(faults).__name__}"
            )
        policy = retry if retry is not None else RetryPolicy.none()
        if not scenario_list:
            return []
        results: list[RunRecord | None] = [None] * len(scenario_list)
        pending = []
        for index, scenario in enumerate(scenario_list):
            cached = store.get(scenario) if store is not None else None
            if (
                cached is None
                and journal is not None
                and journal.replay
            ):
                cached = journal.record_for(scenario.content_hash())
                if cached is not None:
                    if report is not None:
                        report.replayed += 1
                    if store is not None:
                        store.put(cached)
            elif cached is not None and journal is not None:
                # A store cache hit completes the unit as far as the
                # journal is concerned: checkpoint it so a later resume
                # does not depend on the store being present.
                if not journal.completed(scenario.content_hash()):
                    journal.record_done(cached)
            if cached is not None:
                results[index] = cached
            else:
                pending.append((index, scenario))
        if pending:
            eff_workers = workers
            if (
                len(pending) == 1
                and faults is None
                and policy.timeout_s is None
            ):
                eff_workers = 1  # a lone unit never pays pool startup
            supervisor = Supervisor(
                self,
                policy,
                workers=eff_workers,
                faults=faults,
                report=report,
            )
            supervisor.run_units(pending, results, store=store,
                                 journal=journal)
        return results


# ----------------------------------------------------------------------
# Shared default session (used by the legacy shims and the CLI)
# ----------------------------------------------------------------------

_DEFAULT_SESSION: PowerModel | None = None
_DEFAULT_SESSION_LOCK = threading.Lock()


def default_session() -> PowerModel:
    """The process-wide shared :class:`PowerModel` session."""
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        with _DEFAULT_SESSION_LOCK:
            if _DEFAULT_SESSION is None:
                _DEFAULT_SESSION = PowerModel()
    return _DEFAULT_SESSION


def reset_default_session() -> None:
    """Drop the shared session (tests use this to isolate cache state)."""
    global _DEFAULT_SESSION
    with _DEFAULT_SESSION_LOCK:
        _DEFAULT_SESSION = None


def run_batch(scenarios: Iterable[Scenario], **batch: Any) -> list[RunRecord]:
    """Module-level convenience over the shared default session;
    ``**batch`` goes unchanged to :meth:`PowerModel.run_batch`."""
    check_batch_options("run_batch", batch)
    return default_session().run_batch(scenarios, **batch)


#: The batch options: the keywords of :meth:`PowerModel.run_batch`, which
#: every layer above it takes as ``**batch`` and passes on unchanged.
#: ``strategy``, an inert shim that perfbench passes to the method
#: directly, is not one.
BATCH_OPTIONS = frozenset(
    inspect.signature(PowerModel.run_batch).parameters
) - {"self", "scenarios", "strategy"}


def check_batch_options(caller: str, batch: dict[str, Any]) -> None:
    """Raise the ``TypeError`` of a call to ``caller`` with a misspelt
    keyword, for a key of ``batch`` outside :data:`BATCH_OPTIONS`.

    The entry points that can return without running a batch (a table
    campaign, a figure-store hit) call it first, and so does
    :func:`run_batch`, which takes no ``strategy``."""
    for name in batch:
        if name not in BATCH_OPTIONS:
            raise TypeError(
                f"{caller}() got an unexpected keyword argument {name!r}"
            )
