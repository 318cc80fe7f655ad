"""Campaign checkpointing: a JSONL journal of per-unit outcomes.

A :class:`CampaignJournal` records, as each execution unit finishes,
what happened to every scenario of a campaign: ``done`` lines carry the
full cached record payload (so a resume needs nothing but the journal),
``failed`` lines carry the :class:`~repro.resilience.records.
FailureRecord`.  Lines are keyed by the owning campaign's content hash
— one journal file can checkpoint many campaigns — and checksummed
like the hardened stores, so a line torn by a mid-campaign kill is
skipped, not trusted.

``repro campaign run --journal j.jsonl`` writes the journal;
``--resume`` additionally *replays* it: scenarios with a ``done`` line
are served from the journal without executing, failed/missing ones are
re-run.  Because every line lands on disk (flushed and fsynced) before
the next unit starts, a campaign killed at any instant loses at most
the units that had not finished — exactly the units a resume re-runs.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError

from repro.api.jsonl import locked_append, read_lines

from repro.resilience.records import FailureRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.records import RunRecord


class CampaignJournal:
    """JSONL checkpoint of per-scenario outcomes for one campaign.

    Parameters
    ----------
    path:
        The journal file (created on first write; an existing file is
        loaded eagerly).
    campaign_key:
        Content hash of the owning campaign (or batch/spec) — only
        lines stamped with this key are loaded, so unrelated campaigns
        can share a journal file.
    replay:
        When True (``--resume``), previously journaled ``done``
        records are served without re-execution; when False the journal
        only records.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        campaign_key: str,
        replay: bool = False,
    ) -> None:
        if not campaign_key:
            raise ConfigurationError("a journal needs a campaign key")
        self.path = Path(path)
        self.campaign_key = campaign_key
        self.replay = replay
        self.skipped_lines = 0
        self._done: dict[str, dict[str, Any]] = {}
        self._failed: dict[str, FailureRecord] = {}
        if self.path.exists():
            self._load()

    # ------------------------------------------------------------------

    def _load(self) -> None:
        for outcome in read_lines(self.path, self._decode, self._skip):
            if outcome is not None:
                self._settle(*outcome)

    def _decode(
        self, entry: dict[str, Any]
    ) -> tuple[str, dict[str, Any] | FailureRecord] | None:
        """``(key, record payload or failure)`` of one of this
        campaign's lines; None for another campaign's line."""
        campaign, key, status = (
            entry["campaign"], entry["key"], entry["status"]
        )
        if campaign != self.campaign_key:
            return None
        if not isinstance(key, str):
            raise TypeError("key is not a string")
        if status == "failed":
            return key, FailureRecord.from_dict(entry.get("failure", {}))
        if status != "done" or not isinstance(entry.get("record"), dict):
            raise ValueError("neither a done record nor a failure")
        return key, entry["record"]

    def _skip(self, line: str, reason: str) -> None:
        # A torn/foreign line (e.g. the campaign was killed mid-append):
        # resume must re-run that unit, not trust half a record.
        self.skipped_lines += 1

    def _settle(
        self, key: str, outcome: dict[str, Any] | FailureRecord
    ) -> None:
        """The key's latest outcome: a done record payload or a failure."""
        if isinstance(outcome, FailureRecord):
            self._failed[key] = outcome
            self._done.pop(key, None)
        else:
            self._done[key] = outcome
            self._failed.pop(key, None)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._done)

    def completed(self, key: str) -> bool:
        return key in self._done

    def record_for(self, key: str) -> "RunRecord | None":
        """Rebuild the journaled record for a scenario key (replay)."""
        payload = self._done.get(key)
        if payload is None:
            return None
        from repro.api.records import RunRecord

        try:
            return RunRecord.from_cache_dict(payload)
        except (KeyError, TypeError, ValueError, ConfigurationError):
            # A payload that no longer deserialises is as good as
            # missing: re-run the unit.
            self.skipped_lines += 1
            return None

    def failed_keys(self) -> list[str]:
        return list(self._failed)

    def failures(self) -> list[FailureRecord]:
        return list(self._failed.values())

    # ------------------------------------------------------------------

    def record_done(
        self, record: "RunRecord", attempts: int = 1
    ) -> None:
        """Checkpoint one completed scenario (flushed before return)."""
        key = record.scenario.content_hash()
        payload = {
            "campaign": self.campaign_key,
            "key": key,
            "status": "done",
            "attempts": attempts,
            "record": record.to_cache_dict(),
        }
        locked_append(self.path, payload)
        self._settle(key, payload["record"])

    def record_failure(self, failure: FailureRecord) -> None:
        """Checkpoint one permanently failed scenario."""
        payload = {
            "campaign": self.campaign_key,
            "key": failure.key,
            "status": "failed",
            "attempts": failure.attempts,
            "failure": failure.to_dict(),
        }
        locked_append(self.path, payload)
        self._settle(failure.key, failure)

    def stats(self) -> dict[str, int]:
        return {
            "done": len(self._done),
            "failed": len(self._failed),
            "skipped_lines": self.skipped_lines,
        }
