"""The four switch-fabric architectures analysed by the paper (Section 4).

* :class:`~repro.fabrics.crossbar.CrossbarFabric` — N x N crosspoint
  matrix; interconnect-contention free; long row/column buses.
* :class:`~repro.fabrics.fully_connected.FullyConnectedFabric` — one
  N-input MUX per egress port; contention free; quadratic bus length.
* :class:`~repro.fabrics.banyan.BanyanFabric` — ``N/2 log2 N`` 2x2
  self-routing switches with node buffers; suffers internal blocking.
* :class:`~repro.fabrics.batcher_banyan.BatcherBanyanFabric` — bitonic
  sorting network in front of a banyan; contention free, more stages.

All fabrics share the :class:`~repro.fabrics.base.SwitchFabric` dynamic
interface (slotted cell transport with full energy accounting) plus the
static topology helpers in :mod:`~repro.fabrics.topology` and
:mod:`~repro.fabrics.batcher`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": ("SwitchFabric",),
    ".crossbar": ("CrossbarFabric",),
    ".fully_connected": ("FullyConnectedFabric",),
    ".banyan": ("BanyanFabric",),
    ".batcher_banyan": ("BatcherBanyanFabric",),
    ".factory": ("build_fabric", "default_models"),
    ".registry": (
        "FabricEntry", "register_fabric", "unregister_fabric",
        "registered_architectures", "canonical_architecture", "get_entry",
    ),
})
