"""Hardened JSONL primitives shared by the on-disk stores.

The run-record store, the derived-figure store, and the campaign
journal all speak the same dialect: append-only JSON lines, one record
each, written by possibly-concurrent processes on a filesystem that
may lose power mid-append.  This module is the single implementation
of the durability mechanics they share:

* :func:`read_lines` — the one line reader, and :class:`JsonlStore`,
  the store mechanics built on it.
* :func:`line_checksum` / :func:`verify_entry` — a per-line SHA-256
  digest over the canonical payload, so silent bit rot is detected on
  load instead of being served as a cached result.  Lines without a
  ``"sha"`` field (written before hardening) still verify, so old
  caches stay readable.
* :func:`locked_append` / :func:`locked_rewrite` — advisory
  ``flock``-style exclusive locking around writes, so concurrent
  ``repro batch --cache`` invocations interleave whole lines (no
  torn appends) and a compaction never races an appender.  On
  platforms without :mod:`fcntl` the lock degrades to a no-op, which
  is exactly the pre-hardening behaviour.
* :func:`quarantine_line` — corrupt lines are moved aside into a
  ``<store>.quarantine`` sidecar (with a reason) rather than silently
  dropped, so a damaged cache is diagnosable after the fact.

:func:`locked_rewrite` replaces the file atomically (temp file +
``os.replace``) so a reader never observes a half-compacted store.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Iterator

from repro.errors import ConfigurationError

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

#: Length of the stored checksum prefix (hex chars).
CHECKSUM_LEN = 16


def line_checksum(payload: dict[str, Any]) -> str:
    """Digest of a line's payload (everything except ``"sha"``)."""
    body = {k: v for k, v in payload.items() if k != "sha"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:CHECKSUM_LEN]


def verify_entry(entry: dict[str, Any]) -> bool:
    """True when the entry's checksum matches (or predates hardening)."""
    sha = entry.get("sha")
    if sha is None:
        return True  # pre-hardening line: no digest to check
    return sha == line_checksum(entry)


def stamp_entry(payload: dict[str, Any]) -> dict[str, Any]:
    """The payload with its ``"sha"`` checksum field filled in."""
    stamped = dict(payload)
    stamped["sha"] = line_checksum(payload)
    return stamped


@contextmanager
def _locked(path: Path) -> Iterator[Any]:
    """Exclusive advisory lock on ``<path>.lock`` (no-op without fcntl).

    A sidecar lock file (not the store itself) is locked, so rewrites
    can atomically replace the store while the lock is held.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX
        yield None
        return
    lock_path = path.with_name(path.name + ".lock")
    with lock_path.open("a") as lock_fh:
        fcntl.flock(lock_fh.fileno(), fcntl.LOCK_EX)
        try:
            yield lock_fh
        finally:
            fcntl.flock(lock_fh.fileno(), fcntl.LOCK_UN)


def locked_append(path: Path, payload: dict[str, Any]) -> None:
    """Append one checksummed line under the store's advisory lock."""
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(stamp_entry(payload))
    with _locked(path):
        with path.open("a") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())


def locked_rewrite(path: Path, payloads: Iterable[dict[str, Any]]) -> None:
    """Atomically replace the store with checksummed ``payloads``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with _locked(path):
        with tmp.open("w") as fh:
            for payload in payloads:
                fh.write(json.dumps(stamp_entry(payload)) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)


def read_lines(
    path: Path,
    decode: Callable[[dict[str, Any]], Any],
    reject: Callable[[str, str], None],
) -> Iterator[Any]:
    """Yield ``decode(entry)`` for each verified line of ``path``.

    A line that does not parse (bytes that are not UTF-8 included), is
    not a JSON object, fails its checksum, or that ``decode`` refuses
    with ``KeyError``, ``TypeError``, ``ValueError`` or
    ``ConfigurationError`` goes to ``reject(line, reason)`` instead.
    """
    with path.open(errors="surrogateescape") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                if not isinstance(entry, dict):
                    raise TypeError("line is not a JSON object")
                if not verify_entry(entry):
                    raise ValueError("checksum mismatch")
                value = decode(entry)
            except (
                KeyError, TypeError, ValueError, ConfigurationError
            ) as exc:
                reject(line, str(exc))
                continue
            yield value


def iter_verified_entries(path: Path | str | os.PathLike) -> Iterator[dict]:
    """Stream the verified entries of a JSONL store, one at a time.

    Read-only complement to the eager store loaders: yields each
    parsed, checksum-verified line payload without building typed
    records or holding more than one line in memory, so feature
    extraction over multi-gigabyte stores stays O(1) in resident set.
    Corrupt lines are skipped (no quarantine side effects — streaming
    readers must not mutate a store they do not own).  A missing file
    yields nothing.
    """
    path = Path(path)
    if path.exists():
        yield from read_lines(path, lambda entry: entry, lambda *bad: None)


def quarantine_path(path: Path) -> Path:
    """The sidecar file corrupt lines of ``path`` are moved into."""
    return path.with_name(path.name + ".quarantine")


def quarantine_line(path: Path, raw_line: str, reason: str) -> None:
    """Append one corrupt line (with its reason) to the quarantine
    sidecar.  Never raises — quarantine is best-effort bookkeeping on
    an already-degraded store."""
    try:
        entry = json.dumps({"reason": reason, "line": raw_line})
        with quarantine_path(path).open("a") as fh:
            fh.write(entry + "\n")
    except OSError:  # pragma: no cover - quarantine must not crash loads
        pass


class JsonlStore:
    """A ``key -> value`` cache held in one hardened JSONL file.

    The file is read eagerly (the last line of a key wins); a refused
    line is quarantined and counted, degrading to a miss.  A subclass's
    ``_decode(entry)`` returns ``(key, value, payload)`` and its
    ``_line(key, payload)`` builds the line that stores ``payload``
    (the JSON on disk) under ``key``; ``value`` is what is served.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._values: dict[Hashable, Any] = {}
        self._payloads: dict[Hashable, Any] = {}
        self.hits = 0
        self.misses = 0
        self.skipped_lines = 0
        self.quarantined = 0
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        for key, value, payload in read_lines(
            self.path, self._decode, self._quarantine
        ):
            self._values[key] = value
            self._payloads[key] = payload

    def _quarantine(self, line: str, reason: str) -> None:
        self.skipped_lines += 1
        self.quarantined += 1
        quarantine_line(self.path, line, reason)

    def __len__(self) -> int:
        return len(self._values)

    def _get(self, key: Hashable) -> Any:
        """The value held under ``key``, or None (counted as a miss)."""
        value = self._values.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def _put(self, key: Hashable, value: Any, payload: Any) -> None:
        """Hold ``value`` under ``key``; append ``payload``'s line unless
        it is the key's latest line already (a changed payload
        supersedes, it is never kept in memory only)."""
        self._values[key] = value
        if self._payloads.get(key) != payload:
            self._payloads[key] = payload
            locked_append(self.path, self._line(key, payload))

    def compact(self) -> int:
        """Atomically rewrite the store to one line per key (latest
        wins), dropping superseded and corrupt lines.  Returns the
        number of lines written."""
        lines = [
            self._line(key, payload)
            for key, payload in self._payloads.items()
        ]
        locked_rewrite(self.path, lines)
        return len(lines)

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._values),
            "hits": self.hits,
            "misses": self.misses,
            "skipped_lines": self.skipped_lines,
            "quarantined": self.quarantined,
        }
