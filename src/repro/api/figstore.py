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
The durability contract is the run-record store's
(:class:`repro.api.jsonl.JsonlStore`).
"""

from __future__ import annotations

from typing import Any

from repro.api.jsonl import JsonlStore


class DerivedRecordStore(JsonlStore):
    """JSONL-backed ``(kind, content hash) -> record dict`` cache.

    Parameters
    ----------
    path:
        The JSONL file.  Created (with parents) on first :meth:`put`;
        an existing file is loaded eagerly.  Lines are
        ``{"key": ..., "kind": ..., "record": {...}, "sha": ...}``.
    """

    def _decode(self, entry: dict[str, Any]) -> tuple[tuple, dict, dict]:
        key = (str(entry["kind"]), str(entry["key"]))
        record = entry["record"]
        if not isinstance(record, dict):
            raise TypeError("record payload must be an object")
        return key, record, record

    def _line(self, key: tuple[str, str], record: dict) -> dict[str, Any]:
        kind, content_hash = key
        return {"key": content_hash, "kind": kind, "record": record}

    def get(self, key: str, kind: str) -> dict[str, Any] | None:
        """The cached record dict for (kind, key), or None (a miss)."""
        return self._get((kind, key))

    def put(self, key: str, kind: str, record: dict[str, Any]) -> None:
        """Persist a derived record (one appended, checksummed line); an
        unchanged record is a no-op, a changed one supersedes."""
        self._put((kind, key), record, record)
