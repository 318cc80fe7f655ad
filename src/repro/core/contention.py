"""Analytic model of Banyan interconnect contention (internal blocking).

The paper's Eq. 5 carries per-stage contention indicators ``q_i`` whose
values "are determined by the contentions between packets on the
interconnect".  To *predict* them without simulation we use the classic
Patel load recurrence for unbuffered delta/banyan networks under
independent uniform traffic:

    rho_{k+1} = 1 - (1 - rho_k / 2)^2

where ``rho_k`` is the probability that a given link at stage ``k``
carries a cell in a slot.  From the same independence assumptions the
probability that a cell arriving at a 2x2 switch loses its output to the
other input (and is therefore buffered) is

    P(lose at stage k) = rho_k * 1/4

(the other input is busy with probability ``rho_k``, wants the same
output with probability 1/2, and wins the tie with probability 1/2).

These are approximations — buffered banyans correlate successive slots —
but they track the simulated contention rate well enough to predict the
"buffer penalty" blow-up and its crossover points (see the
``bench_analytical_vs_sim`` bench).
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError


def banyan_stage_loads(ports: int, input_load: float) -> list[float]:
    """Per-stage link loads ``[rho_0 ... rho_n]`` of an N-port banyan.

    ``rho_0`` is the offered input load; ``rho_n`` (the last entry) is
    the expected output load, i.e. the throughput an *unbuffered* banyan
    would deliver.

    Parameters
    ----------
    ports: N, power of two >= 2.
    input_load: probability a given input carries a cell per slot.
    """
    if ports < 2 or ports & (ports - 1):
        raise ConfigurationError(f"ports must be a power of two >= 2, got {ports}")
    if not 0.0 <= input_load <= 1.0:
        raise ConfigurationError(f"input_load must be in [0, 1], got {input_load}")
    n = ports.bit_length() - 1
    loads = [input_load]
    rho = input_load
    for _ in range(n):
        rho = 1.0 - (1.0 - rho / 2.0) ** 2
        loads.append(rho)
    return loads


def banyan_blocking_probability(ports: int, input_load: float) -> list[float]:
    """Per-stage probability that an arriving cell loses contention.

    Entry ``k`` is the probability that a cell entering stage ``k`` is
    buffered there: ``rho_k / 4`` under the independence assumptions
    described in the module docstring.
    """
    loads = banyan_stage_loads(ports, input_load)
    return [rho / 4.0 for rho in loads[:-1]]


def stages(ports: int) -> int:
    """Number of banyan stages ``n = log2(N)``."""
    if ports < 2 or ports & (ports - 1):
        raise ConfigurationError(f"ports must be a power of two >= 2, got {ports}")
    return int(math.log2(ports))
