"""Retry policy: attempts, backoff, deterministic jitter, timeouts.

A :class:`RetryPolicy` is the frozen contract the
:class:`~repro.resilience.supervisor.Supervisor` applies to every
execution unit of a batch.  Everything about it is deterministic: the
backoff jitter is derived from the unit key and attempt number (no
wall-clock, no global RNG), so two runs of the same campaign under the
same fault plan retry on the same schedule — a property the
byte-identical-exports guarantee leans on.

Retries never change results: a retried unit re-runs the same seeded
scenario, and every degradation rung the supervisor may pick
(vectorized or reference engine, process pool or inline) is
bit-identical to the planned path by the engine-equivalence contract.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Any

from repro.errors import ConfigurationError, ReproError

#: Valid failure dispositions: ``"raise"`` propagates the error after
#: the last attempt; ``"record"`` turns it into a
#: :class:`~repro.resilience.records.FailureRecord` hole.
ON_FAILURE = ("raise", "record")


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervisor treats a failing execution unit.

    Attributes
    ----------
    max_attempts:
        Total tries per unit (1 = no retries).  Permanent errors
        (:class:`~repro.errors.ReproError` — bad configuration is not a
        flaky worker) are never retried.
    backoff_s / backoff_multiplier:
        Delay before attempt ``n+1`` is ``backoff_s *
        backoff_multiplier**(n-1)``, jittered deterministically.
    jitter_fraction:
        Relative jitter width: the delay is scaled by a factor in
        ``[1 - jitter_fraction, 1 + jitter_fraction]`` derived from a
        hash of (unit key, attempt) — deterministic, but decorrelated
        across units so a failed fan-out does not retry in lockstep.
    timeout_s:
        Per-unit wall-clock budget (``None`` = unbounded).  Set, it
        runs even a one-worker batch on a process pool; a unit past its
        deadline counts as a failed attempt, and its pool is killed and
        respawned.  Units sent inline after repeated pool breaks (see
        ``max_pool_respawns``) run without a deadline.
    on_failure:
        ``"raise"`` (default) propagates the final error; ``"record"``
        keeps the batch alive and surfaces the unit as a
        :class:`~repro.resilience.records.FailureRecord` hole.
    max_pool_respawns:
        How many times a broken process pool is respawned (unfinished
        units re-submitted) before the supervisor runs the remaining
        units inline, where timeouts are not enforced.
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    backoff_multiplier: float = 2.0
    jitter_fraction: float = 0.1
    timeout_s: float | None = None
    on_failure: str = "raise"
    max_pool_respawns: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.backoff_s < 0.0:
            raise ConfigurationError("backoff_s must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ConfigurationError("jitter_fraction must be in [0, 1]")
        if self.timeout_s is not None and self.timeout_s <= 0.0:
            raise ConfigurationError("timeout_s must be > 0")
        if self.on_failure not in ON_FAILURE:
            raise ConfigurationError(
                f"on_failure must be one of {ON_FAILURE}, got "
                f"{self.on_failure!r}"
            )
        if self.max_pool_respawns < 0:
            raise ConfigurationError("max_pool_respawns must be >= 0")

    # ------------------------------------------------------------------

    @classmethod
    def default(cls) -> "RetryPolicy":
        """The batch default: 3 attempts, no timeout, raise at the end."""
        return cls()

    @classmethod
    def none(cls) -> "RetryPolicy":
        """No retries at all (the pre-resilience single-attempt shape)."""
        return cls(max_attempts=1)

    def replace(self, **overrides: Any) -> "RetryPolicy":
        return replace(self, **overrides)

    # ------------------------------------------------------------------

    def delay_s(self, attempt: int, unit_key: str) -> float:
        """Deterministic backoff before retrying ``attempt`` (1-based,
        the attempt that just failed)."""
        if attempt < 1:
            raise ConfigurationError("attempt is 1-based")
        base = self.backoff_s * self.backoff_multiplier ** (attempt - 1)
        if base == 0.0 or self.jitter_fraction == 0.0:
            return base
        digest = hashlib.sha256(
            f"{unit_key}:{attempt}".encode()
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64  # [0, 1)
        return base * (1.0 + self.jitter_fraction * (2.0 * fraction - 1.0))

    @staticmethod
    def is_permanent(exc: BaseException) -> bool:
        """Errors that retrying cannot fix (configuration, not flakes)."""
        return isinstance(exc, ReproError)
