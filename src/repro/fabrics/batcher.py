"""Batcher bitonic sorting network (paper Section 4.4).

The Batcher-Banyan fabric precedes its banyan with a bitonic sorter:
``n`` merge phases (``n = log2 N``), phase ``j`` containing ``j + 1``
compare-exchange substages with spans ``2^j, 2^(j-1), ..., 2^0`` —
``n(n+1)/2`` substages total, each of ``N/2`` sorting switches, exactly
the paper's stage count.

Sorting keys are destination addresses; absent cells sort as ``+inf`` so
the sorted batch is *concentrated* at the top lines — together with
distinct destinations this is the precondition for conflict-free banyan
routing (verified by property tests).

The schedule is data: a list of substages, each a list of comparator
``(low_line, high_line, ascending)`` tuples.  Both the energy-accounting
fabric and the pure :func:`bitonic_sort_keys` reference implementation
iterate the same schedule, so correctness tests on one validate the
other.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TopologyError


@dataclass(frozen=True)
class Comparator:
    """One compare-exchange element.

    Attributes
    ----------
    low / high: the two line indices it connects (low < high).
    ascending: when True the smaller key exits on ``low``.
    """

    low: int
    high: int
    ascending: bool


@dataclass(frozen=True)
class SorterSubstage:
    """One column of parallel comparators.

    Attributes
    ----------
    phase: merge phase index ``j`` (0-based, 0..n-1).
    step: substage index within the phase (0-based, 0..j).
    span: compare distance ``2^(phase - step)``.
    comparators: the ``N/2`` parallel compare-exchange elements.
    """

    phase: int
    step: int
    span: int
    comparators: tuple[Comparator, ...]


def sorter_phases(ports: int) -> int:
    """Number of merge phases ``n = log2(N)``."""
    if ports < 2 or ports & (ports - 1):
        raise TopologyError(f"ports must be a power of two >= 2, got {ports}")
    return ports.bit_length() - 1


def bitonic_schedule(ports: int) -> list[SorterSubstage]:
    """Full bitonic sorting schedule for ``ports`` lines.

    Classic Batcher construction: phase ``j`` merges bitonic runs of
    length ``2^(j+1)``; direction alternates by block so the final phase
    produces one ascending run.
    """
    n = sorter_phases(ports)
    substages: list[SorterSubstage] = []
    for phase in range(n):
        block = 1 << (phase + 1)
        for step in range(phase + 1):
            span = 1 << (phase - step)
            comparators = []
            for low in range(ports):
                high = low | span
                if high == low or high >= ports or (low & span):
                    continue
                ascending = (low & block) == 0
                comparators.append(Comparator(low, high, ascending))
            substages.append(
                SorterSubstage(
                    phase=phase,
                    step=step,
                    span=span,
                    comparators=tuple(comparators),
                )
            )
    return substages


def substage_count(ports: int) -> int:
    """``n(n+1)/2`` — the paper's Batcher stage count."""
    n = sorter_phases(ports)
    return n * (n + 1) // 2


def bitonic_sort_keys(keys: list[float]) -> list[float]:
    """Sort via the bitonic schedule (reference implementation).

    ``len(keys)`` must be a power of two.  Returns a new ascending list;
    used by tests to validate the schedule against ``sorted()`` (the 0-1
    principle guarantees correctness for arbitrary keys once all 0-1
    sequences sort, but we test directly on integers anyway).
    """
    ports = len(keys)
    values = list(keys)
    for substage in bitonic_schedule(ports):
        for comp in substage.comparators:
            a, b = values[comp.low], values[comp.high]
            if (a > b) == comp.ascending:
                values[comp.low], values[comp.high] = b, a
    return values


def sorting_permutation(dests: dict[int, int], ports: int) -> dict[int, int]:
    """Where the sorter moves each occupied input line.

    Parameters
    ----------
    dests: mapping ``input_line -> destination`` for occupied lines.
    ports: network size.

    Returns
    -------
    Mapping ``input_line -> output_line`` after sorting (ascending by
    destination, ties broken by input line, absent lines pushed to the
    bottom).  This is the *logical* result; the dynamic fabric tracks
    the permutation by moving cells through the schedule and the two
    must agree (tested).
    """
    if ports < 2 or ports & (ports - 1):
        raise TopologyError(f"ports must be a power of two >= 2, got {ports}")
    occupied = sorted(dests.items(), key=lambda kv: (kv[1], kv[0]))
    result: dict[int, int] = {}
    for out_line, (in_line, _dest) in enumerate(occupied):
        result[in_line] = out_line
    return result
