"""Fault-injected execution: retries, pool recovery, checkpoint/resume.

The headline contract under test: a batch or campaign that survives
injected worker crashes, hangs, transient exceptions, and corrupted
store lines produces results (and exports) byte-identical to a
fault-free run.
"""

import asyncio
import dataclasses
import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.api import PowerModel, RunRecordStore, Scenario, run_batch
from repro.api.figstore import DerivedRecordStore
from repro.api.jsonl import quarantine_path, stamp_entry
from repro.campaigns import Campaign, run_campaign
from repro.errors import ConfigurationError
from repro.network import get_network, run_network
from repro.resilience import (
    BatchReport,
    CampaignJournal,
    FailureRecord,
    Fault,
    FaultPlan,
    RetryPolicy,
    TransientFault,
    apply_fault,
    corrupt_line,
)

SIM_KWARGS = dict(arrival_slots=40, warmup_slots=8, seed=99)

#: Fast test policy: real retries, negligible backoff.
FAST = RetryPolicy(max_attempts=3, backoff_s=0.001)


def grid():
    return Scenario.grid(
        architectures=("crossbar", "banyan"),
        ports=(4,),
        loads=(0.2, 0.5),
        **SIM_KWARGS,
    )


def details(records):
    return [r.detail for r in records]


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError, match="timeout_s"):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ConfigurationError, match="on_failure"):
            RetryPolicy(on_failure="shrug")
        with pytest.raises(ConfigurationError, match="jitter"):
            RetryPolicy(jitter_fraction=1.5)

    def test_backoff_is_deterministic_and_jittered(self):
        policy = RetryPolicy(backoff_s=0.1, jitter_fraction=0.1)
        a = policy.delay_s(1, "unit-a")
        assert a == policy.delay_s(1, "unit-a")
        assert a != policy.delay_s(1, "unit-b")
        assert 0.09 <= a <= 0.11
        # Exponential growth between attempts.
        assert policy.delay_s(2, "unit-a") > a

    def test_permanent_errors(self):
        assert RetryPolicy.is_permanent(ConfigurationError("bad"))
        assert not RetryPolicy.is_permanent(TransientFault("flaky"))

    def test_replace(self):
        assert FAST.replace(on_failure="record").on_failure == "record"
        assert FAST.on_failure == "raise"


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            faults=(
                Fault("transient", 2),
                Fault("hang", 3, attempts=(1, 2), hang_s=5.0),
                Fault("crash", 5),
            ),
            seed=7,
        )
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan

    def test_fault_addressing(self):
        plan = FaultPlan(faults=(Fault("transient", 1, attempts=(2,)),))
        assert plan.fault_for(1, 2) is not None
        assert plan.fault_for(1, 1) is None
        assert plan.fault_for(0, 2) is None
        apply_fault(plan, 1, 1)  # no fault scheduled: no-op
        with pytest.raises(TransientFault):
            apply_fault(plan, 1, 2)

    def test_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            FaultPlan.from_dict({"faults": [], "surprise": 1})
        with pytest.raises(ConfigurationError, match="kind"):
            Fault("meteor", 0)

    @pytest.mark.parametrize("field", [
        {"unit": 1.5}, {"unit": True}, {"hang_s": True},
        {"attempts": ["1"]}, {"attempts": [1.7]}, {"attempts": [True]},
    ], ids=["unit-float", "unit-bool", "hang_s-bool", "attempts-str",
            "attempts-float", "attempts-bool"])
    def test_rejects_wrongly_typed_numbers(self, field):
        # A float unit would never fire, and "1" or 1.7 would fire on
        # attempt 1.
        with pytest.raises(ConfigurationError, match="must be"):
            FaultPlan.from_dict(
                {"faults": [{"kind": "hang", "unit": 1, **field}]}
            )

    def test_int_hang_is_the_float_hang(self):
        plan = FaultPlan.from_dict(
            {"faults": [{"kind": "hang", "unit": 1, "hang_s": 5}]}
        )
        assert plan.content_hash() == FaultPlan(
            faults=(Fault("hang", 1, hang_s=5.0),)
        ).content_hash()


class TestTransientRetry:
    def test_recovered_batch_is_bit_identical(self):
        scenarios = grid()
        clean = run_batch(scenarios)
        faults = FaultPlan(faults=(Fault("transient", 1),))
        report = BatchReport()
        faulty = run_batch(
            scenarios,
            retry=FAST,
            faults=faults,
            report=report,
        )
        assert details(faulty) == details(clean)
        assert report.retries >= 1
        assert not report.failures

    def test_exhausted_retries_leave_explicit_holes(self):
        scenarios = grid()
        faults = FaultPlan(
            faults=(Fault("transient", 1, attempts=(1, 2, 3)),)
        )
        report = BatchReport()
        records = run_batch(
            scenarios,
            retry=FAST.replace(on_failure="record"),
            faults=faults,
            report=report,
        )
        assert records[1] is None
        assert all(r is not None for i, r in enumerate(records) if i != 1)
        (failure,) = report.failures
        assert failure.error_type == "TransientFault"
        assert failure.attempts == 3
        assert failure.stage == "reference"  # walked the whole ladder
        assert failure.key == scenarios[1].content_hash()

    def test_on_failure_raise_propagates(self):
        faults = FaultPlan(
            faults=(Fault("transient", 0, attempts=(1, 2, 3)),)
        )
        with pytest.raises(TransientFault):
            run_batch(grid(), retry=FAST, faults=faults)

    def test_permanent_error_is_not_retried(self):
        session = PowerModel()

        calls = {"n": 0}

        def broken(scenarios, engine=None):
            calls["n"] += 1
            raise ConfigurationError("not a flaky worker")

        session._run_unit = broken
        report = BatchReport()
        records = session.run_batch(
            grid(),
            retry=FAST.replace(on_failure="record"),
            report=report,
        )
        assert records == [None] * 4
        assert calls["n"] == 4  # one attempt per unit, no retries
        assert all(f.attempts == 1 for f in report.failures)

    def test_degradation_ladder_reaches_reference(self):
        # Attempt 1 runs as planned (vectorized), attempts 2 and 3 on
        # the reference engine — results identical at every rung, and
        # only the first retry changes rung.
        scenarios = [
            Scenario("crossbar", 4, load, **SIM_KWARGS)
            for load in (0.2, 0.4, 0.6)
        ]
        clean = run_batch(scenarios)
        faults = FaultPlan(faults=(Fault("transient", 0, attempts=(1, 2)),))
        report = BatchReport()
        faulty = run_batch(
            scenarios,
            retry=FAST,
            faults=faults,
            report=report,
        )
        assert details(faulty) == details(clean)
        assert report.retries == 2
        assert report.degradations == 1


class TestTimeout:
    def test_hung_unit_is_rescued_bit_identically(self):
        scenarios = grid()
        clean = run_batch(scenarios)
        faults = FaultPlan(
            faults=(Fault("hang", 0, attempts=(1,), hang_s=5.0),)
        )
        report = BatchReport()
        faulty = run_batch(
            scenarios,
            retry=FAST.replace(timeout_s=0.5),
            faults=faults,
            report=report,
        )
        assert details(faulty) == details(clean)
        assert report.timeouts >= 1
        assert report.retries >= 1

    def test_timeout_exhaustion_records_hole(self):
        scenarios = grid()
        faults = FaultPlan(
            faults=(Fault("hang", 2, attempts=(1, 2), hang_s=5.0),)
        )
        report = BatchReport()
        records = run_batch(
            scenarios,
            retry=RetryPolicy(
                max_attempts=2,
                backoff_s=0.001,
                timeout_s=0.4,
                on_failure="record",
            ),
            faults=faults,
            report=report,
        )
        assert records[2] is None
        (failure,) = report.failures
        assert failure.error_type == "UnitTimeout"


class TestProcessCrash:
    def test_broken_pool_respawns_bit_identically(self):
        scenarios = grid()
        clean = run_batch(scenarios)
        faults = FaultPlan(faults=(Fault("crash", 1),))
        report = BatchReport()
        faulty = run_batch(
            scenarios,
            workers=2,
            retry=FAST,
            faults=faults,
            report=report,
        )
        assert details(faulty) == details(clean)
        assert report.pool_respawns >= 1
        assert not report.failures

    def test_degrades_inline_after_max_pool_respawns(self):
        # With no respawn allowed, the first break sends the rest of the
        # batch inline, where the crash raises a retryable exception.
        scenarios = grid()
        clean = run_batch(scenarios)
        report = BatchReport()
        faulty = run_batch(
            scenarios,
            workers=2,
            retry=FAST.replace(max_pool_respawns=0),
            faults=FaultPlan(faults=(Fault("crash", 1),)),
            report=report,
        )
        assert details(faulty) == details(clean)
        assert report.pool_respawns == 1
        assert not report.failures


class TestKeyboardInterrupt:
    def test_serial_interrupt_propagates(self):
        session = PowerModel()

        def interrupted(scenarios, engine=None):
            raise KeyboardInterrupt

        session._run_unit = interrupted
        with pytest.raises(KeyboardInterrupt):
            session.run_batch(grid(), retry=FAST)

    def test_pooled_interrupt_propagates(self, monkeypatch):
        # Ctrl-C reaches the parent while it waits on its workers.
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.resilience.supervisor.wait", interrupted)
        with pytest.raises(KeyboardInterrupt):
            PowerModel().run_batch(grid(), workers=2, retry=FAST)
        assert not joined_children()


def joined_children(timeout=10.0):
    """The child processes still running after up to ``timeout`` s.

    ``active_children()`` joins each finished child; it is polled rather
    than each child joined, because a pool's own thread may reap one
    between the join's wait and its status check."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    return multiprocessing.active_children()


class TestWorkerSignals:
    def test_killed_worker_stays_inside_the_pool(self):
        """``repro serve`` runs its fallback batches under an asyncio
        loop that handles SIGINT and SIGTERM.  Killing a hung worker
        must neither reach that loop nor leave the worker alive."""
        scenario = Scenario("crossbar", 4, 0.3, **SIM_KWARGS)
        faults = FaultPlan(faults=(Fault("hang", 0, hang_s=30.0),))

        async def serve_shaped():
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(sig, stop.set)
            try:
                records = PowerModel().run_batch(
                    [scenario], retry=FAST.replace(timeout_s=0.5),
                    faults=faults,
                )
                await asyncio.sleep(0.2)  # a stray signal lands here
                return records, stop.is_set()
            finally:
                for sig in (signal.SIGINT, signal.SIGTERM):
                    loop.remove_signal_handler(sig)

        records, stopped = asyncio.run(serve_shaped())
        assert details(records) == details(run_batch([scenario]))
        assert not stopped
        assert not joined_children()


class TestStoreHardening:
    def test_changed_record_is_persisted_not_dropped(self, tmp_path):
        # Regression: put() used to skip the disk write whenever the
        # key was already in memory, silently dropping updates.
        path = tmp_path / "cache.jsonl"
        scenario = Scenario("banyan", 4, 0.4, **SIM_KWARGS)
        record = PowerModel().run(scenario)
        store = RunRecordStore(path)
        store.put(record)
        changed = dataclasses.replace(record, elapsed_s=123.0)
        store.put(changed)
        assert len(path.read_text().splitlines()) == 2  # superseding line
        reloaded = RunRecordStore(path)
        assert len(reloaded) == 1
        assert reloaded.get(scenario).elapsed_s == 123.0

    def test_identical_put_is_a_noop_on_disk(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        record = PowerModel().run(Scenario("banyan", 4, 0.4, **SIM_KWARGS))
        store = RunRecordStore(path)
        store.put(record)
        store.put(record)
        reloaded = RunRecordStore(path)
        reloaded.put(record)  # same payload loaded from disk: no-op too
        assert len(path.read_text().splitlines()) == 1

    @pytest.mark.parametrize("mode", ["truncate", "garbage"])
    def test_corrupt_line_is_quarantined(self, tmp_path, mode):
        path = tmp_path / "cache.jsonl"
        scenarios = grid()
        run_batch(scenarios, store=RunRecordStore(path))
        corrupt_line(path, line_index=-1, mode=mode, seed=3)
        store = RunRecordStore(path)
        stats = store.stats()
        assert stats["entries"] == len(scenarios) - 1
        assert stats["skipped_lines"] == 1
        assert stats["quarantined"] == 1
        quarantine = path.with_name(path.name + ".quarantine")
        assert quarantine.exists()
        # The damaged point degrades to a miss and is re-measured.
        records = run_batch(scenarios, store=store)
        assert all(r is not None for r in records)
        assert RunRecordStore(path).stats()["entries"] == len(scenarios)

    def test_tampered_payload_fails_checksum(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        record = PowerModel().run(Scenario("banyan", 4, 0.4, **SIM_KWARGS))
        store = RunRecordStore(path)
        store.put(record)
        entry = json.loads(path.read_text())
        entry["record"]["elapsed_s"] = 999.0  # bit-rot, sha now stale
        path.write_text(json.dumps(entry) + "\n")
        reloaded = RunRecordStore(path)
        assert len(reloaded) == 0
        assert reloaded.stats()["quarantined"] == 1

    def test_compact_squashes_history(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        record = PowerModel().run(Scenario("banyan", 4, 0.4, **SIM_KWARGS))
        store = RunRecordStore(path)
        store.put(record)
        store.put(dataclasses.replace(record, elapsed_s=1.0))
        store.put(dataclasses.replace(record, elapsed_s=2.0))
        assert len(path.read_text().splitlines()) == 3
        assert store.compact() == 1
        assert len(path.read_text().splitlines()) == 1
        reloaded = RunRecordStore(path)
        assert reloaded.get(record.scenario).elapsed_s == 2.0

    def test_figure_store_hardening(self, tmp_path):
        path = tmp_path / "figs.jsonl"
        store = DerivedRecordStore(path)
        store.put("k1", "comparison", {"a": 1})
        store.put("k1", "comparison", {"a": 1})  # identical: no-op
        store.put("k1", "comparison", {"a": 2})  # superseding line
        store.put("k2", "comparison", {"b": 3})
        assert len(path.read_text().splitlines()) == 3
        corrupt_line(path, line_index=-1, mode="truncate")
        reloaded = DerivedRecordStore(path)
        assert reloaded.get("k1", "comparison") == {"a": 2}
        assert reloaded.get("k2", "comparison") is None
        assert reloaded.stats()["quarantined"] == 1
        assert reloaded.compact() == 1


#: ``(loader, line)``: JSON that is not an object and a byte that is not
#: UTF-8, which every loader refuses, and a checksummed line keyed by a
#: list, which the run store and the journal refuse (the figure store
#: keys by ``str()``).
MALFORMED_LINES = [
    (loader, text)
    for loader in ("run", "figure", "journal")
    for text in ("[1, 2]", "3", "null", '"x"', "not utf-8")
] + [("run", "list key"), ("journal", "list key")]


@pytest.mark.parametrize(
    "loader, text", MALFORMED_LINES,
    ids=[f"{loader}:{text}" for loader, text in MALFORMED_LINES],
)
def test_malformed_line_is_refused_not_a_crash(tmp_path, loader, text):
    """The stores quarantine and count the line under a reason that
    names the problem; the journal skips and counts it."""
    path = tmp_path / "lines.jsonl"
    record = PowerModel().run(
        Scenario("crossbar", 4, 0.3, backend="estimate")
    )
    if loader == "run":
        RunRecordStore(path).put(record)
    elif loader == "figure":
        DerivedRecordStore(path).put("k", "comparison", {"a": 1})
    else:
        CampaignJournal(path, "camp-1").record_done(record)
    reason = "line is not a JSON object"
    if text == "list key":
        entry = json.loads(path.read_text())
        entry["key"] = [1]
        text = json.dumps(stamp_entry(entry))
        reason = "key is not a string"
    elif text == "not utf-8":
        text = "\udcff"  # the byte 0xff, written through surrogateescape
        reason = "Expecting value: line 1 column 1 (char 0)"
    with path.open("a", errors="surrogateescape") as fh:
        fh.write(text + "\n")
    if loader == "journal":
        assert CampaignJournal(path, "camp-1").stats() == {
            "done": 1, "failed": 0, "skipped_lines": 1,
        }
    else:
        store = (RunRecordStore if loader == "run" else DerivedRecordStore)(
            path
        )
        assert store.stats() == {
            "entries": 1, "hits": 0, "misses": 0, "skipped_lines": 1,
            "quarantined": 1,
        }
        assert json.loads(quarantine_path(path).read_text()) == {
            "reason": reason, "line": text,
        }


class TestJournal:
    def test_round_trip_and_replay(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        scenarios = grid()
        journal = CampaignJournal(path, "camp-1")
        clean = run_batch(scenarios, journal=journal)
        assert journal.stats() == {
            "done": len(scenarios), "failed": 0, "skipped_lines": 0,
        }
        resume = CampaignJournal(path, "camp-1", replay=True)
        report = BatchReport()
        replayed = run_batch(
            scenarios,
            journal=resume,
            report=report,
        )
        assert report.replayed == len(scenarios)
        assert details(replayed) == details(clean)

    def test_resume_reruns_only_failures(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        scenarios = grid()
        clean = run_batch(scenarios)
        faults = FaultPlan(
            faults=(Fault("transient", 2, attempts=(1, 2, 3)),)
        )
        first = CampaignJournal(path, "camp-1")
        run_batch(
            scenarios,
            retry=FAST.replace(on_failure="record"),
            faults=faults,
            journal=first,
        )
        assert first.stats()["done"] == len(scenarios) - 1
        assert first.stats()["failed"] == 1
        resume = CampaignJournal(path, "camp-1", replay=True)
        report = BatchReport()
        records = run_batch(
            scenarios,
            retry=FAST,
            journal=resume,
            report=report,
        )
        assert details(records) == details(clean)
        assert report.replayed == len(scenarios) - 1
        assert resume.stats()["done"] == len(scenarios)
        assert resume.stats()["failed"] == 0

    def test_torn_line_is_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CampaignJournal(path, "camp-1")
        record = PowerModel().run(Scenario("banyan", 4, 0.4, **SIM_KWARGS))
        journal.record_done(record)
        with path.open("a") as fh:
            fh.write('{"campaign": "camp-1", "key": "abc", "sta')  # torn
        reloaded = CampaignJournal(path, "camp-1", replay=True)
        assert reloaded.stats()["done"] == 1
        assert reloaded.stats()["skipped_lines"] == 1

    def test_campaign_key_isolation(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        record = PowerModel().run(Scenario("banyan", 4, 0.4, **SIM_KWARGS))
        CampaignJournal(path, "camp-a").record_done(record)
        other = CampaignJournal(path, "camp-b", replay=True)
        assert len(other) == 0
        assert not other.completed(record.scenario.content_hash())

    def test_failure_record_round_trip(self):
        failure = FailureRecord(
            label="x", key="k", error_type="TransientFault",
            message="boom", attempts=3, stage="reference",
        )
        assert FailureRecord.from_dict(failure.to_dict()) == failure
        with pytest.raises(ConfigurationError, match="unknown"):
            FailureRecord.from_dict({**failure.to_dict(), "extra": 1})


CAMPAIGN = Campaign(
    name="resilience_smoke",
    architectures=("crossbar", "banyan"),
    ports=(4,),
    loads=(0.2, 0.5),
    base=(("arrival_slots", 40), ("warmup_slots", 8), ("seed", 99)),
)


def repeated():
    """Scenario A listed three times (units 0, 1 and 3) and B once."""
    a = Scenario("crossbar", 4, 0.3, **SIM_KWARGS)
    b = Scenario("banyan", 4, 0.3, **SIM_KWARGS)
    return [a, a, b, a]


def jsonl_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestRepeatedScenarios:
    """A batch runs, stores and journals each distinct scenario once,
    and every listing of it gets that one record."""

    @pytest.mark.parametrize(
        "batch", [{}, {"workers": 2}], ids=["serial", "process"],
    )
    def test_one_line_per_distinct_scenario(self, tmp_path, batch):
        scenarios = repeated()
        store = RunRecordStore(tmp_path / "cache.jsonl")
        journal = CampaignJournal(tmp_path / "journal.jsonl", "camp-1")
        records = run_batch(scenarios, store=store, journal=journal, **batch)
        keys = [scenarios[0].content_hash(), scenarios[2].content_hash()]
        stored = jsonl_lines(tmp_path / "cache.jsonl")
        assert sorted(line["key"] for line in stored) == sorted(keys)
        journaled = jsonl_lines(tmp_path / "journal.jsonl")
        assert sorted((line["key"], line["status"]) for line in journaled) \
            == sorted((key, "done") for key in keys)
        assert records[0] == records[1] == records[3]
        assert records[2].scenario == scenarios[2]
        assert details(records) == details(run_batch(scenarios))

    def test_serial_batch_runs_each_distinct_scenario_once(self):
        session = PowerModel()
        run_unit, ran = session._run_unit, []

        def counted(scenarios, engine=None):
            ran.extend(scenarios)
            return run_unit(scenarios, engine=engine)

        session._run_unit = counted
        scenarios = repeated()
        session.run_batch(scenarios, workers=1)
        assert ran == [scenarios[0], scenarios[2]]

    @pytest.mark.parametrize("run, calls", [
        (lambda store: run_batch(repeated(), workers=2, store=store), 2),
        (lambda store: run_network(get_network("fat_tree_k4"), workers=2,
                                   store=store), 3),
    ], ids=["repeated", "fat_tree_k4"])
    def test_pool_simulates_each_distinct_scenario_once(
        self, tmp_path, monkeypatch, run, calls
    ):
        # The forked workers inherit the wrapper, which logs each call's
        # process id and scenario.
        log = tmp_path / "simulate.log"
        simulate = PowerModel.simulate

        def logged(self, scenario, engine=None):
            with log.open("a") as fh:
                fh.write(f"{os.getpid()} {scenario.content_hash()}\n")
            return simulate(self, scenario, engine=engine)

        monkeypatch.setattr(PowerModel, "simulate", logged)
        run(RunRecordStore(tmp_path / "cache.jsonl"))
        lines = [line.split() for line in log.read_text().splitlines()]
        assert len(lines) == calls
        assert len({key for _, key in lines}) == calls
        assert str(os.getpid()) not in {pid for pid, _ in lines}
        assert len(jsonl_lines(tmp_path / "cache.jsonl")) == calls

    def test_crash_at_a_repeated_listing_breaks_the_pool(self):
        # Unit 1 repeats unit 0's scenario: its attempt goes to a worker
        # with the fault alone, and the crash kills that worker.
        scenarios = repeated()
        report = BatchReport()
        faulty = run_batch(
            scenarios,
            workers=2,
            retry=FAST,
            faults=FaultPlan(faults=(Fault("crash", 1),)),
            report=report,
        )
        assert report.pool_respawns >= 1
        assert details(faulty) == details(run_batch(scenarios))

    def test_fault_at_a_repeated_listing_still_fires(self):
        scenarios = repeated()
        clean = run_batch(scenarios)
        report = BatchReport()
        faulty = run_batch(
            scenarios,
            retry=FAST,
            faults=FaultPlan(faults=(Fault("transient", 1),)),
            report=report,
        )
        assert report.retries == 1
        assert details(faulty) == details(clean)

    def test_failed_first_listing_leaves_one_hole(self):
        # On the pool, units 1 and 3 wait for unit 0, and unit 1 runs
        # the scenario once unit 0 has failed for good.
        scenarios = repeated()
        for batch in ({}, {"workers": 2}):
            report = BatchReport()
            records = run_batch(
                scenarios,
                retry=FAST.replace(on_failure="record"),
                faults=FaultPlan(
                    faults=(Fault("transient", 0, attempts=(1, 2, 3)),)
                ),
                report=report,
                **batch,
            )
            assert records[0] is None
            assert records[1] is not None and records[1] == records[3]
            assert records[2] is not None
            (failure,) = report.failures
            assert failure.key == scenarios[0].content_hash()


class TestCampaignExports:
    def test_recovered_campaign_exports_byte_identical(self):
        clean = run_campaign(CAMPAIGN)
        faults = FaultPlan(
            faults=(
                Fault("transient", 0),
                Fault("crash", 1),
                Fault("hang", 2, hang_s=5.0),
            )
        )
        report = BatchReport()
        faulty = run_campaign(
            CAMPAIGN,
            retry=FAST.replace(timeout_s=2.0),
            faults=faults,
            report=report,
        )
        assert faulty.to_csv() == clean.to_csv()
        assert faulty.to_json() == clean.to_json()
        assert not faulty.failures
        assert report.retries >= 3

    def test_partial_campaign_round_trips_with_holes(self, tmp_path):
        from repro.campaigns.comparison import ComparisonRecord

        faults = FaultPlan(
            faults=(Fault("transient", 3, attempts=(1, 2, 3)),)
        )
        figures = DerivedRecordStore(tmp_path / "figs.jsonl")
        record = run_campaign(
            CAMPAIGN,
            retry=FAST.replace(on_failure="record"),
            faults=faults,
            figures=figures,
        )
        assert len(record.failures) == 1
        assert len(record.points) == CAMPAIGN.size() - 1
        again = ComparisonRecord.from_dict(
            json.loads(record.to_json())
        )
        assert again.failures == record.failures
        # A record carrying holes must never be served from the
        # figure cache to a later (possibly clean) run.
        assert len(figures) == 0

    def test_clean_export_has_no_failures_field(self):
        record = run_campaign(CAMPAIGN)
        assert "failures" not in json.loads(record.to_json())


class TestBatchReport:
    def test_merge_and_summary(self):
        a = BatchReport(retries=1, timeouts=2)
        b = BatchReport(
            degradations=3,
            replayed=4,
            failures=[
                FailureRecord(
                    label="x", key="k", error_type="E",
                    message="m", attempts=1,
                )
            ],
        )
        a.merge(b)
        assert a.retries == 1 and a.degradations == 3
        assert a.timeouts == 2 and a.replayed == 4
        assert len(a.failures) == 1
        assert a.eventful
        assert "1 retries" in a.summary()
        assert not BatchReport().eventful
