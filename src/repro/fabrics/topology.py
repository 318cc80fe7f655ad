"""Banyan/butterfly topology arithmetic.

A banyan network with ``N = 2^n`` ports has ``n`` stages of ``N/2``
binary switches.  We wire it **MSB first**: physical stage ``s``
(0 = ingress side) pairs lines that differ in address bit
``b = n - 1 - s`` (span ``2^b``), and the switch at stage ``s`` steers
the cell so that bit ``b`` of its line number equals bit ``b`` of the
destination.  After all stages the line number *is* the destination.

MSB-first wiring matters: it is the order for which a sorted,
concentrated batch of distinct-destination cells routes with **zero
internal conflicts** (the classic Batcher-Banyan non-blocking property;
LSB-first wiring does not have it — verified empirically in the tests).
The span of stage ``s`` is ``2^(n-1-s)``, so the stage that checks
address bit ``i`` has cross-wire span ``2^i``, matching the paper's
per-stage wire length ``4 * 2^i`` (Eq. 5).

Functions are plain integer arithmetic so they can be property-tested
exhaustively.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import TopologyError

# The ``*_graph`` helpers import networkx when called: no simulation
# path builds a graph, so no simulation loads it.
if TYPE_CHECKING:
    import networkx as nx


def stage_count(ports: int) -> int:
    """``n = log2(N)``; validates that N is a power of two >= 2."""
    if ports < 2 or ports & (ports - 1):
        raise TopologyError(f"ports must be a power of two >= 2, got {ports}")
    return ports.bit_length() - 1


def stage_bit(ports: int, stage: int) -> int:
    """Address bit fixed by physical stage ``stage`` (MSB first)."""
    n = stage_count(ports)
    if not 0 <= stage < n:
        raise TopologyError(f"stage {stage} out of range for {ports} ports")
    return n - 1 - stage


def stage_span(ports: int, stage: int) -> int:
    """Row span ``2^bit`` of stage ``stage``'s cross link."""
    return 1 << stage_bit(ports, stage)


def switch_index(ports: int, stage: int, line: int) -> int:
    """Index (0..N/2-1) of the stage-``stage`` switch serving ``line``.

    Lines ``l`` and ``l XOR span`` share a switch; the index is the line
    number with the stage's address bit removed.
    """
    _check_line(ports, line)
    bit = stage_bit(ports, stage)
    high = (line >> (bit + 1)) << bit
    low = line & ((1 << bit) - 1)
    return high | low

def switch_lines(ports: int, stage: int, switch: int) -> tuple[int, int]:
    """The (low, high) line pair connected to a stage switch."""
    n_switches = ports // 2
    if not 0 <= switch < n_switches:
        raise TopologyError(
            f"switch {switch} out of range for {ports} ports ({n_switches}/stage)"
        )
    bit = stage_bit(ports, stage)
    high = (switch >> bit) << (bit + 1)
    low = switch & ((1 << bit) - 1)
    line0 = high | low
    return (line0, line0 | (1 << bit))


def switch_input_index(ports: int, stage: int, line: int) -> int:
    """Which switch input (0 or 1) a line attaches to."""
    bit = stage_bit(ports, stage)
    return (line >> bit) & 1


def route_line(ports: int, stage: int, line: int, dest: int) -> int:
    """Line on which a cell leaves stage ``stage`` (self-routing rule).

    Sets the stage's address bit of ``line`` to the destination's bit.
    """
    _check_line(ports, line)
    _check_line(ports, dest)
    bit = stage_bit(ports, stage)
    mask = 1 << bit
    return (line & ~mask) | (dest & mask)


def path_lines(ports: int, src: int, dest: int) -> list[int]:
    """Line occupied at each stage boundary from ingress to egress.

    ``result[0] = src`` (the ingress line); ``result[s+1]`` is the line
    after stage ``s``; ``result[-1] == dest`` always.
    """
    n = stage_count(ports)
    lines = [src]
    line = src
    for s in range(n):
        line = route_line(ports, s, line, dest)
        lines.append(line)
    return lines


def crossed(ports: int, stage: int, line_in: int, line_out: int) -> bool:
    """Whether a stage traversal used the (long) cross wire."""
    _check_line(ports, line_in)
    _check_line(ports, line_out)
    return line_in != line_out


def banyan_graph(ports: int) -> nx.MultiDiGraph:
    """The banyan topology as a graph (for generic Thompson embedding).

    Vertices: ``("in", p)``, ``("sw", stage, k)``, ``("out", p)``.
    Edges follow the MSB-first wiring.
    """
    import networkx as nx

    n = stage_count(ports)
    g = nx.MultiDiGraph()
    for p in range(ports):
        g.add_edge(("in", p), ("sw", 0, switch_index(ports, 0, p)))
    for s in range(n - 1):
        for line in range(ports):
            g.add_edge(
                ("sw", s, switch_index(ports, s, line)),
                ("sw", s + 1, switch_index(ports, s + 1, line)),
            )
    for p in range(ports):
        g.add_edge(("sw", n - 1, switch_index(ports, n - 1, p)), ("out", p))
    return g


def crossbar_graph(ports: int) -> nx.MultiDiGraph:
    """Crossbar as a graph: input rows, crosspoints, output columns."""
    import networkx as nx

    if ports < 1:
        raise TopologyError("crossbar needs >= 1 port")
    g = nx.MultiDiGraph()
    for i in range(ports):
        for j in range(ports):
            g.add_edge(("in", i), ("xp", i, j))
            g.add_edge(("xp", i, j), ("out", j))
    return g


def fully_connected_graph(ports: int) -> nx.MultiDiGraph:
    """Fully connected fabric as a graph: every input to every MUX."""
    import networkx as nx

    if ports < 2:
        raise TopologyError("fully connected fabric needs >= 2 ports")
    g = nx.MultiDiGraph()
    for j in range(ports):
        for i in range(ports):
            g.add_edge(("in", i), ("mux", j))
        g.add_edge(("mux", j), ("out", j))
    return g


def _check_line(ports: int, line: int) -> None:
    if not 0 <= line < ports:
        raise TopologyError(f"line {line} out of range for {ports} ports")
