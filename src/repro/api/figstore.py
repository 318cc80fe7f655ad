"""On-disk derived-figure cache: whole aggregated records, not points.

:class:`~repro.api.store.RunRecordStore` caches *per-scenario* results;
campaign reports still needed a session to re-aggregate them.  The
:class:`DerivedRecordStore` closes that gap: it persists whole derived
records — :class:`~repro.campaigns.comparison.ComparisonRecord` JSON
keyed by ``Campaign.content_hash()``, :class:`~repro.network.power.
NetworkRecord` JSON keyed by ``NetworkSpec.content_hash()`` — so
``repro campaign report --figures`` and ``repro network run --figures``
against a warm store need **no session at all**.

The store is deliberately type-agnostic (keys map to ``(kind, dict)``
payloads) so the api layer does not import the campaigns or network
layers; the typed ``from_dict`` reconstruction happens at the caller.
Same hardened JSONL durability contract as the run-record store
(:mod:`repro.api.jsonl`): checksummed lines appended under an advisory
lock, corrupt lines quarantined into a sidecar and counted (degrading
to misses), changed payloads appended as superseding last-wins lines,
:meth:`compact` to squash history atomically.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.api.jsonl import (
    locked_append,
    locked_rewrite,
    quarantine_line,
    verify_entry,
)


class DerivedRecordStore:
    """JSONL-backed ``(kind, content hash) -> record dict`` cache.

    Parameters
    ----------
    path:
        The JSONL file.  Created (with parents) on first :meth:`put`;
        an existing file is loaded eagerly.  Lines are
        ``{"key": ..., "kind": ..., "record": {...}, "sha": ...}``.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._records: dict[tuple[str, str], dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0
        self.skipped_lines = 0
        self.quarantined = 0
        if self.path.exists():
            self._load()

    # ------------------------------------------------------------------

    def _load(self) -> None:
        with self.path.open() as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    if not verify_entry(entry):
                        raise ValueError("checksum mismatch")
                    key = (str(entry["kind"]), str(entry["key"]))
                    record = entry["record"]
                    if not isinstance(record, dict):
                        raise TypeError("record payload must be an object")
                except (KeyError, TypeError, ValueError) as exc:
                    # Partial/corrupt/foreign line: degrade to a miss,
                    # quarantine the damage, never error.
                    self.skipped_lines += 1
                    self.quarantined += 1
                    quarantine_line(self.path, line, str(exc))
                    continue
                self._records[key] = record

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------

    def get(self, key: str, kind: str) -> dict[str, Any] | None:
        """The cached record dict for (kind, key), or None (a miss)."""
        record = self._records.get((kind, key))
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def put(self, key: str, kind: str, record: dict[str, Any]) -> None:
        """Persist a derived record (one appended, checksummed line).

        A payload identical to the cached one is a no-op; a changed
        payload for an existing key appends a superseding line (the
        loader is last-wins) instead of silently keeping the stale line
        on disk.
        """
        if self._records.get((kind, key)) == record:
            return
        self._records[(kind, key)] = record
        locked_append(
            self.path, {"key": key, "kind": kind, "record": record}
        )

    def compact(self) -> int:
        """Atomically rewrite the store to one line per (kind, key)
        (latest wins), dropping superseded and corrupt lines.  Returns
        the number of lines written."""
        payloads = [
            {"key": key, "kind": kind, "record": record}
            for (kind, key), record in self._records.items()
        ]
        locked_rewrite(self.path, payloads)
        return len(payloads)

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._records),
            "hits": self.hits,
            "misses": self.misses,
            "skipped_lines": self.skipped_lines,
            "quarantined": self.quarantined,
        }
