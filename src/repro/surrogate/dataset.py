"""Feature/target extraction from the on-disk record stores.

A surrogate query is ``(operating context, load, ports) -> power``.
The *operating context* is everything else a scenario pins down —
architecture, backend, queueing discipline, iSLIP K, technology, wire
mode, traffic kind and parameters, cell format, measurement window,
seed — serialised canonically, so two records train the same curve iff
a simulator would treat them as the same family of operating points.

Extraction streams the store line-by-line through
:func:`repro.api.store.iter_run_entries` (the PR-9 incremental-fold
idiom): only a few scalars per record are retained, never the decoded
:class:`~repro.api.records.RunRecord` objects, so training tables can
be folded out of multi-gigabyte stores in O(rows kept) memory.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Any

from repro.api.records import RunRecord
from repro.api.store import iter_run_entries
from repro.errors import ConfigurationError

#: The quantities a surrogate predicts, in serialisation order.  Each
#: is a scalar attribute of :class:`~repro.api.records.RunRecord`.
TARGET_FIELDS = (
    "throughput",
    "total_power_w",
    "switch_power_w",
    "wire_power_w",
    "buffer_power_w",
)

#: Scenario fields excluded from the operating context (the swept axes
#: plus the cosmetic label).
_CONTEXT_EXCLUDED = frozenset({"load", "ports", "name"})

#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))``, without
#: building a new encoder on every call.
_encode_sorted = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def context_signature(scenario_dict: Mapping[str, Any]) -> str:
    """Canonical signature of a scenario's operating context.

    Every :meth:`~repro.api.scenario.Scenario.to_dict` field except the
    swept ``load``/``ports`` axes and the cosmetic ``name``, serialised
    with sorted keys — the grouping key for per-context surrogates.
    """
    body = {
        k: v for k, v in scenario_dict.items() if k not in _CONTEXT_EXCLUDED
    }
    return _encode_sorted(body)


@dataclass(frozen=True)
class DatasetRow:
    """One training example: an executed operating point.

    ``targets`` is aligned with :data:`TARGET_FIELDS`.
    """

    key: str
    context: str
    load: float
    ports: int
    targets: tuple[float, ...]


@dataclass(frozen=True)
class SurrogateDataset:
    """An extracted, deduplicated (last-wins) training table.

    ``store_hash`` digests the sorted ``(key, targets)`` pairs, so a
    model trained from this dataset is verifiably tied to the exact
    records it saw (see :meth:`SurrogateModel.content_hash
    <repro.surrogate.train.SurrogateModel.content_hash>`).
    """

    rows: tuple[DatasetRow, ...]
    store_hash: str
    skipped: int

    def __len__(self) -> int:
        return len(self.rows)


def _row_from_cache_dict(key: str, record: Mapping[str, Any]) -> DatasetRow:
    """One streamed cache line -> a training row.

    Raises ``KeyError``/``TypeError``/``ValueError`` on rows a
    surrogate cannot learn from (per-port load vectors, non-positive
    loads, missing targets); callers count them as skipped.
    """
    scenario = record["scenario"]
    if not isinstance(scenario, Mapping):
        raise TypeError("scenario payload must be an object")
    load = scenario["load"]
    if isinstance(load, bool) or not isinstance(load, (int, float)):
        raise TypeError("per-port load vectors are not surrogate features")
    load = float(load)
    if load <= 0.0:
        raise ValueError("non-positive load")
    ports = scenario["ports"]
    if isinstance(ports, bool) or not isinstance(ports, int) or ports < 2:
        raise ValueError("bad port count")
    targets = tuple(float(record[field]) for field in TARGET_FIELDS)
    return DatasetRow(
        key=key,
        context=context_signature(scenario),
        load=load,
        ports=ports,
        targets=targets,
    )


def _finalize(rows: dict[str, DatasetRow], skipped: int) -> SurrogateDataset:
    digest = hashlib.sha256()
    ordered = tuple(rows[key] for key in sorted(rows))
    for row in ordered:
        digest.update(row.key.encode())
        digest.update(json.dumps(list(row.targets)).encode())
    return SurrogateDataset(
        rows=ordered, store_hash=digest.hexdigest(), skipped=skipped
    )


def extract_dataset(path: str | os.PathLike) -> SurrogateDataset:
    """Stream a :class:`~repro.api.store.RunRecordStore` file into a
    training table.

    Last-wins per key (matching the store loader), one line in memory
    at a time, unusable rows counted in ``dataset.skipped``.
    """
    rows: dict[str, DatasetRow] = {}
    skipped = 0
    for key, record in iter_run_entries(path):
        try:
            rows[key] = _row_from_cache_dict(key, record)
        except (KeyError, TypeError, ValueError):
            skipped += 1
    if not rows:
        raise ConfigurationError(
            f"no usable training records in {os.fspath(path)!r} "
            "(empty, corrupt, or vector-load-only store)"
        )
    return _finalize(rows, skipped)


def dataset_from_records(records: Iterable[RunRecord]) -> SurrogateDataset:
    """Build a training table from in-memory records (e.g. a campaign
    batch that just executed) — same dedup and hashing as
    :func:`extract_dataset`."""
    rows: dict[str, DatasetRow] = {}
    skipped = 0
    for record in records:
        key = record.scenario.content_hash()
        try:
            rows[key] = _row_from_cache_dict(key, record.to_cache_dict())
        except (KeyError, TypeError, ValueError):
            skipped += 1
    if not rows:
        raise ConfigurationError("no usable training records")
    return _finalize(rows, skipped)
