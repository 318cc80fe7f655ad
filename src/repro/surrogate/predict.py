"""Microsecond ``predict(scenario)`` with a safe simulation fallback.

The predictor answers in-distribution queries straight from the
:class:`~repro.surrogate.train.SurrogateModel` — a dict lookup and a
6-term polynomial — and routes everything else (unknown operating
context, load/ports outside the training hull, high-leverage corners,
per-port load vectors) through the real
:class:`~repro.api.model.PowerModel`.  The fallback path is the
*unmodified* scenario through the unmodified engines, optionally cached
in a :class:`~repro.api.store.RunRecordStore` and supervised by a
:class:`~repro.resilience.RetryPolicy`, so a fallback answer is
bit-identical to what a direct ``session.run`` would have produced.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

from repro.api.model import PowerModel, default_session
from repro.api.records import RunRecord
from repro.api.scenario import Scenario
from repro.api.store import RunRecordStore
from repro.errors import SimulationError
from repro.resilience import BatchReport, RetryPolicy

from repro.surrogate.dataset import TARGET_FIELDS, context_signature
from repro.surrogate.train import SurrogateModel


@dataclass(frozen=True)
class Prediction:
    """One answered what-if query.

    ``source`` is ``"surrogate"`` (model answered, with ``band_w``
    uncertainty) or ``"fallback"`` (out-of-distribution: the real
    engine ran and ``record`` is its bit-identical
    :class:`~repro.api.records.RunRecord`).
    """

    source: str
    values: dict[str, float]
    band_w: float
    ood: bool
    reason: str | None = None
    record: RunRecord | None = None

    def to_dict(self) -> dict[str, Any]:
        """Deterministic JSON-safe dict (fixed key order, so equal
        predictions serialise to identical bytes)."""
        out: dict[str, Any] = {
            "source": self.source,
            "ood": self.ood,
            "reason": self.reason,
            "band_w": self.band_w,
        }
        for name in TARGET_FIELDS:
            out[name] = self.values[name]
        if self.record is not None:
            out["record"] = self.record.to_dict()
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


class SurrogatePredictor:
    """Serve what-if queries from a model, falling back to the engines.

    Parameters
    ----------
    model:
        The trained surrogate bundle.
    session:
        :class:`~repro.api.model.PowerModel` used for fallback runs
        (the shared default session when omitted).
    store:
        Optional :class:`~repro.api.store.RunRecordStore`: fallback
        runs are served from / persisted to it, so repeated OOD queries
        cost one simulation and stay byte-identical across processes.
    retry:
        Optional :class:`~repro.resilience.RetryPolicy` supervising
        fallback simulations (graceful degradation: flaky failures are
        retried; a unit that still fails surfaces as
        :class:`~repro.errors.SimulationError` instead of killing the
        server loop).
    drift_tolerance:
        Relative disagreement between the model's extrapolated guess
        and an actual fallback simulation above which the ``drift``
        counter increments (an online staleness signal; see
        :mod:`repro.surrogate.drift` for the offline detector).
    """

    def __init__(
        self,
        model: SurrogateModel,
        *,
        session: PowerModel | None = None,
        store: RunRecordStore | None = None,
        retry: RetryPolicy | None = None,
        drift_tolerance: float = 0.05,
    ) -> None:
        self.model = model
        self._session = session
        self.store = store
        self.retry = retry
        self.drift_tolerance = drift_tolerance
        self.predictions = 0
        self.surrogate_hits = 0
        self.fallbacks = 0
        self.fallback_failures = 0
        self.drift_flags = 0

    @property
    def session(self) -> PowerModel:
        if self._session is None:
            self._session = default_session()
        return self._session

    # ------------------------------------------------------------------

    def predict(self, scenario: Scenario) -> Prediction:
        """Answer one scenario: surrogate when in-distribution,
        transparent simulation fallback otherwise."""
        self.predictions += 1
        data = scenario.to_dict()
        load = data["load"]
        if isinstance(load, list):
            return self._fallback(
                scenario, None, "per-port load vector is out of model scope"
            )
        values, band, reason = self.model.evaluate(
            context_signature(data), float(load), int(data["ports"])
        )
        if reason is None and values is not None:
            self.surrogate_hits += 1
            return Prediction(
                source="surrogate",
                values=values,
                band_w=band,
                ood=False,
            )
        return self._fallback(scenario, values, reason or "out of scope")

    # ------------------------------------------------------------------

    def _fallback(
        self,
        scenario: Scenario,
        guess: dict[str, float] | None,
        reason: str,
    ) -> Prediction:
        self.fallbacks += 1
        record = self._run_fallback(scenario)
        values = {
            name: float(getattr(record, name)) for name in TARGET_FIELDS
        }
        if guess is not None:
            actual = values["total_power_w"]
            predicted = guess.get("total_power_w", math.inf)
            if actual > 0.0 and (
                abs(predicted - actual) / actual > self.drift_tolerance
            ):
                self.drift_flags += 1
        return Prediction(
            source="fallback",
            values=values,
            band_w=0.0,
            ood=True,
            reason=reason,
            record=record,
        )

    def _run_fallback(self, scenario: Scenario) -> RunRecord:
        if self.store is not None:
            cached = self.store.get(scenario)
            if cached is not None:
                return cached
        if self.retry is not None:
            report = BatchReport()
            try:
                results = self.session.run_batch(
                    [scenario],
                    store=self.store,
                    retry=self.retry,
                    report=report,
                )
            except Exception:
                self.fallback_failures += 1
                raise
            record = results[0] if results else None
            if record is None:
                self.fallback_failures += 1
                detail = "; ".join(
                    f"{f.error_type}: {f.message}" for f in report.failures
                ) or "no record produced"
                raise SimulationError(
                    f"fallback simulation failed after retries: {detail}"
                )
            return record
        try:
            record = self.session.run(scenario)
        except Exception:
            self.fallback_failures += 1
            raise
        if self.store is not None:
            self.store.put(record)
        return record

    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Hit/fallback/drift counters plus model identity."""
        return {
            "predictions": self.predictions,
            "surrogate_hits": self.surrogate_hits,
            "fallbacks": self.fallbacks,
            "fallback_failures": self.fallback_failures,
            "drift_flags": self.drift_flags,
            "model_hash": self.model.content_hash(),
            "curves": self.model.n_curves,
        }
