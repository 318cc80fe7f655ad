"""The supervised execution loop behind ``run_batch``.

Every batch runs its execution units (one per listed scenario) under a
:class:`Supervisor`: inline with ``workers=1``, on a
:class:`~concurrent.futures.ProcessPoolExecutor` with ``workers > 1``
or a ``timeout_s`` (then even one worker is a pool, so that a hung unit
can be killed).

* **Retries with degradation.**  A failed attempt walks a two-rung
  ladder that can only get more conservative: the planned engine
  first (normally the vectorized one), then the object-based reference
  engine — both rungs bit-identical, so a recovered unit's record is
  indistinguishable from an untroubled one.  Permanent errors
  (:class:`~repro.errors.ReproError`) skip the ladder entirely: bad
  configuration is not a flaky worker.
* **Pool recovery.**  A worker killed mid-unit (OOM, segfault, the
  fault plan's ``crash``) breaks the whole pool; the supervisor
  respawns it and re-submits the unfinished units.  A unit that was
  alone in flight is the one that killed its worker, so it is charged
  a failed attempt.  A unit that *reproducibly* kills its worker
  cannot burn the batch: after ``max_pool_respawns`` breaks the
  remaining units run inline, where the same kill surfaces as a
  retryable exception and timeouts are no longer enforced.
* **Timeouts.**  With ``timeout_s`` set, a unit past its deadline is a
  failed attempt: the pool is killed and respawned (a hung worker
  holds its slot forever otherwise) and the other in-flight units are
  re-submitted unchanged.
* **Each distinct scenario once.**  A scenario listed n times is n
  units, but its first record serves them all and alone is stored and
  journaled.  On a pool a listing whose scenario is in flight waits
  for it; once the record exists, the listing is filled in the parent,
  or sent to a worker as a fault-only attempt when the fault plan
  scripts a fault for it.
* **Checkpointing.**  Completed records land in the
  :class:`~repro.api.store.RunRecordStore` and
  :class:`~repro.resilience.journal.CampaignJournal` *as each unit
  finishes*, so a kill at any instant loses only in-flight units.
* **Ctrl-C.**  ``KeyboardInterrupt`` cancels queued futures and shuts
  the pool down instead of hanging in ``f.result()``.

The supervisor consults the batch's :class:`~repro.resilience.faults.
FaultPlan` (if any) at the top of every attempt — in the parent for
inline units, inside the worker for pooled ones — which is how the
resilience tests and the chaos CI job stage deterministic disasters.
"""

from __future__ import annotations

import signal
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.resilience.faults import FaultPlan, apply_fault
from repro.resilience.policy import RetryPolicy
from repro.resilience.records import BatchReport, FailureRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.model import PowerModel
    from repro.api.records import RunRecord
    from repro.api.scenario import Scenario
    from repro.api.store import RunRecordStore
    from repro.resilience.journal import CampaignJournal


class UnitTimeout(RuntimeError):
    """A unit exceeded the policy's per-unit wall-clock budget."""


def _init_worker() -> None:
    """Give a pool worker the default signal state.

    A forked worker inherits its parent's signal handlers and wakeup
    fd: under ``repro serve``, the asyncio loop's.  The SIGTERM that
    kills a hung worker would then be written to the parent loop's
    wakeup socket, which reads it as its own shutdown signal, while
    the worker's inherited handler would keep it alive.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _worker_run_unit(
    faults: FaultPlan | None,
    unit_id: int,
    attempt: int,
    scenario: "Scenario | None",
    engine: str | None,
) -> list["RunRecord"]:
    """Top-level process-pool unit runner (pickles cleanly).

    Installs nothing globally: the fault plan rides along as an
    argument and fires (or not) for exactly this (unit, attempt).  A
    ``None`` scenario is a fault-only attempt: the parent already holds
    the record, so none is returned.
    """
    from repro.api.model import default_session

    apply_fault(faults, unit_id, attempt, in_worker=True)
    if scenario is None:
        return []
    return default_session()._run_unit([scenario], engine=engine)


@dataclass
class _UnitTask:
    """One listing's execution unit moving through the retry ladder."""

    unit_id: int
    index: int
    scenario: "Scenario"
    key: str  # the scenario's content hash
    attempt: int = 1

    def stage(self) -> tuple[str | None, str]:
        """``(engine_override, stage_name)`` for the current attempt.

        The first attempt runs as planned; every retry runs on the
        reference engine.  Estimate scenarios ignore the engine
        override (there is nothing to degrade).
        """
        if self.attempt == 1:
            return None, "planned"
        return "reference", "reference"


class Supervisor:
    """Runs planned execution units under a :class:`RetryPolicy`.

    Parameters
    ----------
    session:
        The :class:`~repro.api.PowerModel` whose units are being run
        (inline attempts execute against it directly; pooled attempts
        run in each worker's default session).
    policy / workers / faults:
        See :meth:`repro.api.PowerModel.run_batch`.
    report:
        The :class:`BatchReport` tally to accumulate into (a fresh one
        is created when omitted; it is always available as
        :attr:`report` afterwards).
    """

    def __init__(
        self,
        session: "PowerModel",
        policy: RetryPolicy,
        workers: int | None = None,
        faults: FaultPlan | None = None,
        report: BatchReport | None = None,
    ) -> None:
        self.session = session
        self.policy = policy
        self.workers = workers or 1
        self.faults = faults
        self.report = report if report is not None else BatchReport()
        self._done: dict[str, "RunRecord"] = {}  # each hash's first record

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run_units(
        self,
        units: Sequence[tuple[int, "Scenario"]],
        results: list["RunRecord | None"],
        store: "RunRecordStore | None" = None,
        journal: "CampaignJournal | None" = None,
    ) -> None:
        """Execute every ``(result index, scenario)`` unit, filling
        ``results`` in place.

        On ``policy.on_failure == "record"`` permanently failed units
        leave their result slots ``None`` and append
        :class:`FailureRecord` entries to the report (and journal);
        otherwise the final error propagates after pool cleanup.
        """
        tasks = [
            _UnitTask(i, index, scenario, scenario.content_hash())
            for i, (index, scenario) in enumerate(units)
        ]
        if self.workers > 1 or self.policy.timeout_s is not None:
            self._run_pooled(tasks, results, store, journal)
        else:
            self._run_serial(tasks, results, store, journal)

    # ------------------------------------------------------------------
    # Shared bookkeeping
    # ------------------------------------------------------------------

    def _complete(
        self,
        task: _UnitTask,
        records: list["RunRecord"],
        results: list["RunRecord | None"],
        store: "RunRecordStore | None",
        journal: "CampaignJournal | None",
    ) -> None:
        """Fill the slot; store and journal a scenario's first record.

        ``records`` is empty when the scenario already has one."""
        if task.key not in self._done:
            (record,) = records
            self._done[task.key] = record
            if store is not None:
                store.put(record)
            if journal is not None:
                journal.record_done(record, attempts=task.attempt)
        results[task.index] = self._done[task.key]

    def _fail(
        self,
        task: _UnitTask,
        exc: BaseException,
        journal: "CampaignJournal | None",
    ) -> None:
        """Terminal failure: record a hole or re-raise per policy."""
        _, stage = task.stage()
        if self.policy.on_failure != "record":
            raise exc
        failure = FailureRecord.from_exception(
            task.scenario, exc, task.attempt, stage
        )
        self.report.failures.append(failure)
        if journal is not None:
            journal.record_failure(failure)

    def _advance(self, task: _UnitTask) -> float:
        """Move a retryable task to its next attempt; returns the
        deterministic backoff delay, and tallies retry/degradation."""
        before = task.stage()
        delay = self.policy.delay_s(task.attempt, task.key)
        task.attempt += 1
        self.report.retries += 1
        if task.stage() != before:
            self.report.degradations += 1
        return delay

    def _retryable(self, task: _UnitTask, exc: BaseException) -> bool:
        return (
            not RetryPolicy.is_permanent(exc)
            and task.attempt < self.policy.max_attempts
        )

    def _faulted(self, task: _UnitTask) -> bool:
        """Whether the fault plan scripts a fault for this attempt."""
        return (
            self.faults is not None
            and self.faults.fault_for(task.unit_id, task.attempt) is not None
        )

    def _run_attempt_inline(self, task: _UnitTask) -> list["RunRecord"]:
        engine, _ = task.stage()
        apply_fault(self.faults, task.unit_id, task.attempt, in_worker=False)
        if task.key in self._done:
            return []
        return self.session._run_unit([task.scenario], engine=engine)

    # ------------------------------------------------------------------
    # Serial path (no pool, no timeout enforcement)
    # ------------------------------------------------------------------

    def _run_serial(
        self,
        tasks: list[_UnitTask],
        results: list["RunRecord | None"],
        store: "RunRecordStore | None",
        journal: "CampaignJournal | None",
    ) -> None:
        for task in tasks:
            while True:
                try:
                    records = self._run_attempt_inline(task)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as exc:
                    if self._retryable(task, exc):
                        time.sleep(self._advance(task))
                        continue
                    self._fail(task, exc, journal)
                    break
                else:
                    self._complete(task, records, results, store, journal)
                    break

    # ------------------------------------------------------------------
    # Pooled path (process pool, timeouts, pool recovery)
    # ------------------------------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers, initializer=_init_worker
        )

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Hard-stop a process pool whose workers may be hung.

        ``shutdown`` alone would wait forever on a hung worker, so the
        worker processes are terminated first (private attribute,
        guarded — worst case the pool leaks until process exit).
        """
        processes = getattr(pool, "_processes", None)
        if processes:
            for proc in list(processes.values()):
                try:
                    proc.terminate()
                except (OSError, AttributeError):  # pragma: no cover
                    pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - best-effort cleanup
            pass

    def _submit(
        self,
        pool: ProcessPoolExecutor,
        task: _UnitTask,
        futures: dict[Future, _UnitTask],
        deadlines: dict[Future, float],
    ) -> None:
        """Send one attempt to the pool: a fault-only one when the
        scenario already has its record."""
        engine, _ = task.stage()
        future = pool.submit(
            _worker_run_unit,
            self.faults,
            task.unit_id,
            task.attempt,
            None if task.key in self._done else task.scenario,
            engine,
        )
        futures[future] = task
        if self.policy.timeout_s is not None:
            deadlines[future] = time.monotonic() + self.policy.timeout_s

    def _run_pooled(
        self,
        tasks: list[_UnitTask],
        results: list["RunRecord | None"],
        store: "RunRecordStore | None",
        journal: "CampaignJournal | None",
    ) -> None:
        pool = self._new_pool()
        futures: dict[Future, _UnitTask] = {}
        deadlines: dict[Future, float] = {}
        #: Tasks awaiting a pool slot.  In-flight submissions are
        #: capped at the pool width so a deadline always measures
        #: execution time, never time spent queued behind a hung unit.
        pending: list[_UnitTask] = list(tasks)
        #: (not-before monotonic time, task) backoff queue.
        retry_queue: list[tuple[float, _UnitTask]] = []
        #: What is left for the inline path once the pool has broken
        #: more than ``max_pool_respawns`` times.
        leftover: list[_UnitTask] = []
        breaks = 0

        def retry_or_fail(task: _UnitTask, exc: BaseException) -> None:
            if self._retryable(task, exc):
                delay = self._advance(task)
                retry_queue.append((time.monotonic() + delay, task))
            else:
                self._fail(task, exc, journal)

        def respawn(charged: list[tuple[_UnitTask, BaseException]]) -> None:
            """Kill the pool and start a new one: the ``charged`` tasks
            count a failed attempt, every other in-flight task goes back
            to pending unchanged."""
            nonlocal pool
            culprits = [task for task, _ in charged]
            pending[:0] = [t for t in futures.values() if t not in culprits]
            futures.clear()
            deadlines.clear()
            self.report.pool_respawns += 1
            self._kill_pool(pool)
            pool = self._new_pool()
            for task, exc in charged:
                retry_or_fail(task, exc)

        try:
            while futures or retry_queue or pending:
                if breaks > self.policy.max_pool_respawns:
                    self.report.degradations += 1
                    leftover = pending + [t for _, t in retry_queue]
                    break
                now = time.monotonic()
                due = [t for nb, t in retry_queue if nb <= now]
                retry_queue = [
                    (nb, t) for nb, t in retry_queue if nb > now
                ]
                pending[:0] = due
                running = {t.key for t in futures.values()}
                waiting: list[_UnitTask] = []
                while pending and len(futures) < self.workers:
                    task = pending.pop(0)
                    if task.key in self._done and not self._faulted(task):
                        self._complete(task, [], results, store, journal)
                        continue
                    if task.key not in self._done:
                        if task.key in running:
                            waiting.append(task)  # its scenario is in flight
                            continue
                        running.add(task.key)
                    try:
                        self._submit(pool, task, futures, deadlines)
                    except BrokenProcessPool:
                        # Broke between completions: recover and retry
                        # the submission on the fresh pool.
                        pending.insert(0, task)
                        respawn([])
                        breaks += 1
                        break
                pending[:0] = waiting
                if not futures:
                    if retry_queue and not pending:
                        next_release = min(nb for nb, _ in retry_queue)
                        time.sleep(max(0.0, next_release - now))
                    continue
                wait_timeout = None
                events = list(deadlines.values()) + [
                    nb for nb, _ in retry_queue
                ]
                if events:
                    wait_timeout = max(0.0, min(events) - now)
                done, _ = wait(
                    set(futures),
                    timeout=wait_timeout,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    task = futures.pop(future)
                    deadlines.pop(future, None)
                    try:
                        records = future.result()
                    except BrokenProcessPool as exc:
                        if futures:  # any in-flight unit may be the killer
                            pending.insert(0, task)
                            respawn([])
                        else:  # alone in flight, the task killed its worker
                            respawn([(task, exc)])
                        breaks += 1
                        break
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except BaseException as exc:
                        retry_or_fail(task, exc)
                    else:
                        self._complete(task, records, results, store, journal)
                if done:
                    continue
                # wait() timed out: charge the units past their deadline.
                now = time.monotonic()
                overdue = [
                    t
                    for f, t in futures.items()
                    if deadlines.get(f, float("inf")) <= now
                ]
                if overdue:
                    self.report.timeouts += len(overdue)
                    respawn([
                        (task, UnitTimeout(
                            f"unit {task.unit_id} exceeded "
                            f"{self.policy.timeout_s}s "
                            f"(attempt {task.attempt})"
                        ))
                        for task in overdue
                    ])
        finally:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - best-effort cleanup
                pass
        self._run_serial(leftover, results, store, journal)
