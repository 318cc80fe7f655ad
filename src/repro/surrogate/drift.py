"""Offline drift detection: does the model still match the store?

A surrogate is only as good as the records it was fitted on.  Two
things rot it: the store grows (new operating points the model never
saw) and the engines change (fresh simulation records disagree with
the curves).  :func:`check_drift` replays the *held-out* validation
slice of a store — the 1-in-``holdout_modulus`` records excluded from
training by :func:`~repro.surrogate.train.is_holdout_key`, which the
model has provably never seen — and compares predictions against the
recorded ground truth.  Disagreement beyond tolerance, or a store
whose training slice no longer hashes to the model's ``store_hash``,
flags a retrain.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass
from typing import Any, Iterable

from repro.surrogate.dataset import (
    DatasetRow,
    SurrogateDataset,
    extract_dataset,
)
from repro.surrogate.train import SurrogateModel, is_holdout_key


@dataclass(frozen=True)
class DriftReport:
    """Outcome of replaying a store's validation slice."""

    checked: int
    skipped: int
    median_rel_error: float
    max_rel_error: float
    tolerance: float
    stale_store: bool
    drifted: bool

    @property
    def retrain(self) -> bool:
        """True when the model should be refitted before serving."""
        return self.drifted or self.stale_store

    def to_dict(self) -> dict[str, Any]:
        return {
            "checked": self.checked,
            "skipped": self.skipped,
            "median_rel_error": self.median_rel_error,
            "max_rel_error": self.max_rel_error,
            "tolerance": self.tolerance,
            "stale_store": self.stale_store,
            "drifted": self.drifted,
            "retrain": self.retrain,
        }

    def summary(self) -> str:
        verdict = "RETRAIN" if self.retrain else "ok"
        return (
            f"drift check: {self.checked} holdout records, median rel "
            f"error {self.median_rel_error:.4%}, max {self.max_rel_error:.4%} "
            f"(tolerance {self.tolerance:.2%}), "
            f"store {'stale' if self.stale_store else 'matches'} -> {verdict}"
        )


def _row_errors(
    model: SurrogateModel, rows: Iterable[DatasetRow]
) -> tuple[list[float], int]:
    errors: list[float] = []
    skipped = 0
    total_index = model.target_fields.index("total_power_w")
    for row in rows:
        values, _band, reason = model.evaluate(
            row.context, row.load, row.ports
        )
        actual = row.targets[total_index]
        if values is None or reason is not None or actual <= 0.0:
            # Unknown context, an out-of-distribution point (the
            # predictor would fall back, never serve the surrogate
            # guess), or a degenerate record: not a curve disagreement.
            skipped += 1
            continue
        errors.append(abs(values["total_power_w"] - actual) / actual)
    return errors, skipped


def check_drift(
    model: SurrogateModel,
    store: str | os.PathLike | SurrogateDataset,
    *,
    tolerance: float = 0.02,
) -> DriftReport:
    """Replay the store's held-out slice against the model.

    ``drifted`` fires when the *median* relative total-power error over
    the holdout records exceeds ``tolerance`` (median, so one weird
    record cannot force a retrain, but a systematic shift — e.g. a
    perturbed store or changed engine — does).  ``stale_store`` fires
    when the store's rows no longer hash to the model's
    ``store_hash`` (records were added, superseded, or removed since
    training).
    """
    dataset = (
        store
        if isinstance(store, SurrogateDataset)
        else extract_dataset(store)
    )
    holdout = [
        row for row in dataset.rows
        if is_holdout_key(row.key, model.holdout_modulus)
    ]
    errors, skipped = _row_errors(model, holdout)
    median = statistics.median(errors) if errors else 0.0
    worst = max(errors) if errors else 0.0
    return DriftReport(
        checked=len(errors),
        skipped=skipped,
        median_rel_error=median,
        max_rel_error=worst,
        tolerance=tolerance,
        stale_store=dataset.store_hash != model.store_hash,
        drifted=bool(errors) and median > tolerance,
    )
