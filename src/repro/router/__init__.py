"""Network-router substrate around the switch fabric (paper Section 2).

A router is four parts: ingress packet process units, egress packet
process units, the arbitration unit, and the switch fabric.  This
package provides everything except the fabric itself:

* :mod:`~repro.router.packet` / :mod:`~repro.router.cells` — packets,
  fixed-size cells, segmentation and reassembly (the ingress unit
  "parallelizes the serial dataflow into bus dataflow"; the egress unit
  "re-assembles the processed packets").
* :mod:`~repro.router.traffic` — synthetic traffic generators standing
  in for the paper's random-destination TCP/IP flows.
* :mod:`~repro.router.ingress` — per-port input FIFO queues (the paper's
  input-buffering scheme; these buffers are *outside* the fabric and do
  not count toward fabric power).
* :mod:`~repro.router.arbiter` — FCFS round-robin destination-contention
  resolution (Section 5.2).
* :mod:`~repro.router.egress` — delivery accounting, packet reassembly,
  throughput and latency measurement.
* :mod:`~repro.router.router` — the assembled :class:`NetworkRouter`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".packet": ("Packet", "make_payload_words"),
    ".cells": ("Cell", "CellFormat", "segment_packet"),
    ".traffic": (
        "TrafficGenerator", "BernoulliUniformTraffic", "HotspotTraffic",
        "PermutationTraffic", "BurstyTraffic", "TrimodalPacketTraffic",
        "TraceTraffic",
    ),
    ".ingress": ("IngressUnit",),
    ".egress": ("EgressUnit",),
    ".arbiter": ("FcfsRoundRobinArbiter", "OldestFirstArbiter"),
    ".router": ("NetworkRouter",),
})
