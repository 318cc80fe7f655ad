"""Inert placeholder for the removed multi-scenario engine.

Every scenario now runs on its own vectorized or reference engine.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


class FusedVectorizedEngine:
    """Removed engine; nothing in :mod:`repro` constructs or calls it."""

    # Kept because perfbench/tracing.py imports and wraps this method.
    def run(self, *args, **kwargs):
        raise ConfigurationError(
            "the fused engine was removed; run scenarios through "
            "PowerModel.run_batch"
        )
