"""Thompson-model wire-length estimation (paper Section 3.4).

The Thompson model embeds the fabric topology graph into a 2-D grid
mesh: every vertex of degree ``d`` becomes a ``d x d`` square of grid
cells, every edge a path of grid edges, and wire length is the number of
grids the path covers.  One grid is one bus pitch on a side (32 um for
the paper's 32-bit bus at 0.18 um).

* :mod:`~repro.thompson.grid` — grid occupancy primitives.
* :mod:`~repro.thompson.embedding` — a generic heuristic embedder for
  arbitrary topologies (extension beyond the paper's manual mappings).
* :mod:`~repro.thompson.layouts` — the paper's manual embeddings of the
  four fabrics, exposing per-link lengths in grids.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".grid": ("GridRect", "ThompsonGrid"),
    ".embedding": ("Embedding", "embed_graph"),
    ".layouts": (
        "BanyanLayout", "BatcherBanyanLayout", "CrossbarLayout",
        "FullyConnectedLayout",
    ),
})
