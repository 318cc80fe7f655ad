"""On-disk result cache: a hardened JSONL store of executed scenarios.

Repeated campaigns (load sweeps re-run with one extra point, CI jobs,
multi-process fan-outs) keep re-measuring operating points that have
already been simulated.  :class:`RunRecordStore` persists every
:class:`~repro.api.records.RunRecord` as one JSON line keyed by the
scenario's :meth:`~repro.api.scenario.Scenario.content_hash`, so any
later run of a byte-identical scenario — in this process or another —
is served from disk instead of re-simulated.  Because both engines are
bit-identical and every scenario carries its seed, a cached record *is*
the record the run would produce.

Lines are checksummed, appended under a lock and fsynced; a line that
does not parse, is not an object or fails its checksum is quarantined
and counted (a miss), and a changed record supersedes its key's line.
The mechanics are :class:`repro.api.jsonl.JsonlStore`'s, shared with
the figure store and the campaign journal.  Lines written before
hardening (no ``"sha"`` field) still load, so old caches stay valid.
"""

from __future__ import annotations

import os
from typing import Any, Iterator

from repro.api.jsonl import JsonlStore, iter_verified_entries
from repro.api.records import RunRecord
from repro.api.scenario import Scenario


def iter_run_entries(
    path: str | os.PathLike,
) -> Iterator[tuple[str, dict]]:
    """Stream ``(key, record-dict)`` pairs from a run-record store.

    Unlike constructing a :class:`RunRecordStore` (which eagerly
    materializes every line as a :class:`RunRecord`), this yields the
    raw cache dicts one line at a time — the right primitive when a
    consumer (e.g. surrogate training) only needs a handful of scalar
    features per record.  Duplicate keys are yielded in file order;
    last-wins deduplication, if wanted, is the consumer's fold.
    Corrupt lines are skipped without quarantine side effects.
    """
    for entry in iter_verified_entries(path):
        key = entry.get("key")
        record = entry.get("record")
        if isinstance(key, str) and isinstance(record, dict):
            yield key, record


class RunRecordStore(JsonlStore):
    """JSONL-backed scenario-hash -> :class:`RunRecord` cache.

    Parameters
    ----------
    path:
        The JSONL file.  Created (with parents) on first :meth:`put`;
        an existing file is loaded eagerly.  Lines are
        ``{"key": ..., "record": {...}, "sha": ...}``.
    """

    # __init__, get and put stay in this class body: perfbench times
    # store opens, lookups and writes by wrapping them here.
    def __init__(self, path: str | os.PathLike) -> None:
        super().__init__(path)

    def _decode(self, entry: dict[str, Any]) -> tuple[str, RunRecord, dict]:
        key = entry["key"]
        if not isinstance(key, str):
            raise TypeError("key is not a string")
        payload = entry["record"]
        return key, RunRecord.from_cache_dict(payload), payload

    def _line(self, key: str, payload: dict) -> dict[str, Any]:
        return {"key": key, "record": payload}

    def get(self, scenario: Scenario) -> RunRecord | None:
        """The cached record for a scenario, or None (counted as miss)."""
        return self._get(scenario.content_hash())

    def put(self, record: RunRecord) -> None:
        """Persist a record (one appended, checksummed JSONL line); an
        unchanged record is a no-op, a changed one supersedes."""
        self._put(
            record.scenario.content_hash(), record, record.to_cache_dict()
        )
