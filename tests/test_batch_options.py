"""The batch options reach ``PowerModel.run_batch`` unchanged.

``PowerModel.run_batch`` is the one signature that names the batch
options (``workers``, ``executor``, ``store``, ``retry``, ``journal``,
``faults`` and ``report``); the campaign, network and control layers
above it pass them on.  Every entry point is driven here on a session
that records the keywords of each ``run_batch`` call:

* every call receives the caller's own option objects, except that on
  the control paths ``retry`` arrives as a copy tightened to
  ``on_failure="raise"``;
* a ``surrogate_eval`` campaign carries a recorded failure in its
  record, whether or not the caller passed a ``report``;
* a misspelt keyword raises ``TypeError`` at every entry point, also
  where the entry point returns without running a batch (a table
  campaign, a figure-store hit).
"""

import pytest

import repro
from repro.api import PowerModel, RunRecordStore
from repro.api import model as model_module
from repro.api.figstore import DerivedRecordStore
from repro.campaigns import Campaign, run_campaign
from repro.control import ControlModel, ControlSpec, DemandSeries, run_control
from repro.network import (
    Demand,
    NetworkPowerModel,
    NetworkSpec,
    TrafficMatrix,
    line,
    run_network,
)
from repro.resilience import (
    BatchReport,
    CampaignJournal,
    Fault,
    FaultPlan,
    RetryPolicy,
)

OPTIONS = ("workers", "executor", "store", "retry", "journal", "faults",
           "report")

#: Real retries, negligible backoff, failures recorded as holes.
RECORD = RetryPolicy(max_attempts=2, backoff_s=0.001, on_failure="record")


class RecordingModel(PowerModel):
    """A session that records the keywords of every ``run_batch`` call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def run_batch(self, scenarios, **options):
        self.calls.append(options)
        return super().run_batch(scenarios, **options)


def network_spec():
    """A 3-node line with one edge demand on the estimate backend: the
    r1-r2 cable stays idle, so green routing prunes it and the control
    plane runs a routed candidate too."""
    return NetworkSpec(
        name="opts",
        topology=line(3),
        matrix=TrafficMatrix((Demand("r0", "r1", 0.4),)),
        port_power_w=0.01,
        base=dict(backend="estimate"),
    )


def control_spec():
    network = network_spec()
    return ControlSpec(
        name="opts",
        network=network,
        series=DemandSeries.step(network.matrix, (1.0, 0.5), name="s"),
        max_utilization=0.9,
        sleep=True,
        sleep_power_fraction=0.1,
        wake_energy_j=0.5,
    )


GRID = Campaign(
    name="opts_grid",
    architectures=("crossbar", "banyan"),
    ports=(4,),
    loads=(0.2, 0.5),
    backends=("estimate",),
)
SURROGATE = Campaign(
    name="opts_surrogate",
    kind="surrogate_eval",
    architectures=("crossbar",),
    ports=(4,),
    loads=(0.1, 0.2, 0.3, 0.4, 0.5),
    backends=("estimate",),
)
NETWORK = Campaign(
    name="opts_net", kind="network",
    params={"spec": network_spec().to_dict()},
)
CONTROL = Campaign(
    name="opts_ctl", kind="control",
    params={"spec": control_spec().to_dict()},
)


def _run_routed(session, **options):
    model = NetworkPowerModel(session)
    spec = network_spec()
    return model.run_routed(spec, model.route(spec), **options)


#: Each entry point as ``(session, **options) -> record``.  The
#: module-level ``repro.run_batch`` runs on the default session, which
#: the ``session`` fixture replaces.
ENTRY_POINTS = {
    "repro.run_batch": lambda s, **o: repro.run_batch(GRID.scenarios(), **o),
    "run_campaign[grid]": lambda s, **o: run_campaign(GRID, session=s, **o),
    "run_campaign[surrogate_eval]":
        lambda s, **o: run_campaign(SURROGATE, session=s, **o),
    "run_campaign[network]":
        lambda s, **o: run_campaign(NETWORK, session=s, **o),
    "run_campaign[control]":
        lambda s, **o: run_campaign(CONTROL, session=s, **o),
    "run_network": lambda s, **o: run_network(network_spec(), s, **o),
    "NetworkPowerModel.run":
        lambda s, **o: NetworkPowerModel(s).run(network_spec(), **o),
    "NetworkPowerModel.run_routed": _run_routed,
    "run_control": lambda s, **o: run_control(control_spec(), s, **o),
    "ControlModel.run":
        lambda s, **o: ControlModel(s).run(control_spec(), **o),
}

#: The entry points that tighten ``retry.on_failure`` to ``"raise"``.
CONTROL_PATHS = ("run_campaign[control]", "run_control", "ControlModel.run")


@pytest.fixture
def session(monkeypatch):
    recording = RecordingModel()
    monkeypatch.setattr(model_module, "_DEFAULT_SESSION", recording)
    return recording


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_call_receives_the_callers_options(entry, session, tmp_path):
    # workers=1 runs inline, so the process executor starts no pool.
    options = dict(
        workers=1,
        executor="process",
        store=RunRecordStore(tmp_path / "records.jsonl"),
        retry=RECORD,
        journal=CampaignJournal(tmp_path / "journal.jsonl", "opts"),
        faults=FaultPlan(),
        report=BatchReport(),
    )
    ENTRY_POINTS[entry](session, **options)
    assert session.calls
    for call in session.calls:
        assert sorted(call) == sorted(OPTIONS)
        assert call["workers"] == 1
        assert call["executor"] == "process"
        for name in ("store", "journal", "faults", "report"):
            assert call[name] is options[name], name
        if entry in CONTROL_PATHS:
            assert call["retry"] is not RECORD
            assert call["retry"] == RECORD.replace(on_failure="raise")
        else:
            assert call["retry"] is RECORD


@pytest.mark.parametrize("pass_report", [True, False])
def test_surrogate_eval_carries_a_recorded_failure(session, pass_report):
    report = BatchReport()
    faults = FaultPlan(faults=(Fault("transient", 1, attempts=(1, 2)),))
    record = run_campaign(
        SURROGATE,
        session=session,
        retry=RECORD,
        faults=faults,
        **({"report": report} if pass_report else {}),
    )
    (failure,) = record.failures
    assert failure.error_type == "TransientFault"
    assert failure.key == SURROGATE.scenarios()[1].content_hash()
    assert len(record.points) == SURROGATE.size() - 1
    assert report.failures == ([failure] if pass_report else [])


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_misspelt_option_raises_type_error(entry, session):
    with pytest.raises(TypeError, match="'worker'"):
        ENTRY_POINTS[entry](session, worker=2)


def test_misspelt_option_raises_on_a_table_campaign():
    with pytest.raises(TypeError, match="'worker'"):
        run_campaign("table2", worker=2)


#: Entry points that a filled figure store serves without a batch.
FIGURE_HITS = {
    "NetworkPowerModel.run":
        lambda s, f, **o: NetworkPowerModel(s).run(network_spec(), figures=f,
                                                   **o),
    "run_network": lambda s, f, **o: run_network(network_spec(), s,
                                                 figures=f, **o),
    "ControlModel.run":
        lambda s, f, **o: ControlModel(s).run(control_spec(), figures=f, **o),
    "run_control": lambda s, f, **o: run_control(control_spec(), s,
                                                 figures=f, **o),
    "run_campaign[network]":
        lambda s, f, **o: run_campaign(NETWORK, session=s, figures=f, **o),
    "run_campaign[control]":
        lambda s, f, **o: run_campaign(CONTROL, session=s, figures=f, **o),
}


@pytest.mark.parametrize("entry", sorted(FIGURE_HITS))
def test_misspelt_option_raises_on_a_figure_store_hit(entry, session,
                                                      tmp_path):
    figures = DerivedRecordStore(tmp_path / "figures.jsonl")
    FIGURE_HITS[entry](session, figures)
    filled = len(session.calls)
    with pytest.raises(TypeError, match="'worker'"):
        FIGURE_HITS[entry](session, figures, worker=2)
    # The correctly spelt call is a hit: it runs no batch.
    FIGURE_HITS[entry](session, figures, workers=2)
    assert len(session.calls) == filled
