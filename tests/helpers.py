"""Plain-function test helpers (no fixtures).

These used to live in ``tests/conftest.py``, but ``from conftest import
...`` is ambiguous under pytest's rootdir imports — with both
``tests/conftest.py`` and ``benchmarks/conftest.py`` on the path the
name resolves to whichever was imported first, which broke collection.
A uniquely-named module avoids the collision; import as
``from helpers import make_cell``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.router.cells import Cell, CellFormat

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter with ``src`` on the path and
    return its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def make_cell(
    fmt: CellFormat,
    dest: int,
    src: int = 0,
    packet_id: int = 0,
    words: np.ndarray | None = None,
    created_slot: int = 0,
) -> Cell:
    """Build a single-cell packet's cell with controllable words.

    When ``words`` is None the payload is all zeros with the standard
    header in word 0.
    """
    if words is None:
        words = np.zeros(fmt.words, dtype=np.uint64)
        words[0] = np.uint64(fmt.header_word(dest, 0, packet_id))
    words = np.asarray(words, dtype=np.uint64)
    assert words.size == fmt.words
    return Cell(
        packet_id=packet_id,
        cell_index=0,
        cell_count=1,
        src_port=src,
        dest_port=dest,
        words=words,
        payload_bits=fmt.payload_bits_per_cell,
        created_slot=created_slot,
    )


def constant_word_cell(fmt: CellFormat, dest: int, word: int, **kwargs) -> Cell:
    """Cell whose words are all equal to ``word`` (zero intra-cell flips)."""
    words = np.full(fmt.words, word, dtype=np.uint64)
    return make_cell(fmt, dest, words=words, **kwargs)


def popcount(x: int) -> int:
    return bin(x).count("1")
