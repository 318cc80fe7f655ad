"""Generic heuristic Thompson embedding of arbitrary topologies.

The paper maps each fabric into the Thompson grid *manually* (Section
3.4: "we manually map the switch fabric topologies into Thompson
grids").  Those manual layouts live in :mod:`repro.thompson.layouts`.
This module is the extension for *custom* fabrics: given any
(multi)graph it produces a legal Thompson embedding and reports per-edge
wire lengths.

Strategy — channel routing with private resources:

1. Vertices are grouped into BFS layers; layer ``k`` becomes a column of
   ``d x d`` squares (``d`` = vertex degree, min 1).  Every vertex gets a
   globally unique row band, so no two port rows collide anywhere.
2. Between consecutive columns a routing channel is reserved with one
   private vertical track per edge using that channel.
3. Edges between adjacent (or equal) layers run: out of the source
   square, along their private track, into the target square.  Edges
   skipping layers additionally use a private horizontal "bus row" below
   the vertex area to cross intermediate columns.

Because every horizontal row and vertical track is private to one edge,
the two Thompson occupancy rules hold by construction (verified anyway
by :class:`~repro.thompson.grid.ThompsonGrid`).  The embedder is a
heuristic upper bound, not an optimiser — Thompson-optimal embeddings
are NP-hard in general.  For the four paper fabrics always prefer the
manual layouts, which match the paper's equations exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import EmbeddingError
from repro.thompson.grid import GridRect, ThompsonGrid


@dataclass
class Embedding:
    """Result of :func:`embed_graph`.

    Attributes
    ----------
    grid: the populated :class:`ThompsonGrid`.
    edge_lengths: routed length in grids for every source edge
        (keyed ``(u, v, key)``).
    vertex_positions: top-left corner of each vertex square.
    """

    grid: ThompsonGrid
    edge_lengths: dict[tuple, int] = field(default_factory=dict)
    vertex_positions: dict[object, tuple[int, int]] = field(default_factory=dict)

    @property
    def total_wire_grids(self) -> int:
        return sum(self.edge_lengths.values())

    @property
    def bounding_area(self) -> int:
        return self.grid.area_grids

    def length(self, u: object, v: object, key: int = 0) -> int:
        """Length of edge (u, v); ``key`` selects among parallel edges."""
        for candidate in ((u, v, key), (v, u, key)):
            if candidate in self.edge_lengths:
                return self.edge_lengths[candidate]
        raise EmbeddingError(f"edge ({u!r}, {v!r}, {key}) not embedded")


def _bfs_layers(graph) -> dict[object, int]:
    """Map each vertex to a BFS layer index (sources first for digraphs)."""
    import networkx as nx  # only the embedder needs it, not a simulation

    if graph.is_directed():
        roots = [v for v in graph if graph.in_degree(v) == 0]
        work = nx.Graph(graph.to_undirected(as_view=True))
    else:
        roots = []
        work = nx.Graph(graph)
    depth: dict[object, int] = {}
    for component in nx.connected_components(work):
        sub_roots = sorted((r for r in roots if r in component), key=str)
        if not sub_roots:
            sub_roots = [sorted(component, key=str)[0]]
        frontier = list(sub_roots)
        for v in frontier:
            depth[v] = 0
        level = 0
        while frontier:
            nxt = []
            for v in frontier:
                for w in work.neighbors(v):
                    if w not in depth:
                        depth[w] = level + 1
                        nxt.append(w)
            frontier = nxt
            level += 1
    return depth


def embed_graph(graph) -> Embedding:
    """Embed ``graph`` into a Thompson grid; return per-edge lengths.

    Accepts directed/undirected simple and multi graphs.  Self loops get
    length 0 and are not routed.
    """
    if graph.number_of_nodes() == 0:
        raise EmbeddingError("cannot embed an empty graph")

    degree = dict(graph.degree())
    layer_of = _bfs_layers(graph)
    n_layers = max(layer_of.values()) + 1
    layers: list[list] = [[] for _ in range(n_layers)]
    for v in graph:
        layers[layer_of[v]].append(v)
    for layer in layers:
        layer.sort(key=str)

    if graph.is_multigraph():
        edges = [(u, v, k) for u, v, k in graph.edges(keys=True)]
    else:
        edges = [(u, v, 0) for u, v in graph.edges()]
    self_loops = [e for e in edges if e[0] == e[1]]
    edges = [e for e in edges if e[0] != e[1]]

    if n_layers == 1 and edges:
        raise EmbeddingError(
            "all vertices fell into one BFS layer yet edges exist; "
            "this cannot happen for a connected graph"
        )

    # ------------------------------------------------------------------
    # Channel/track bookkeeping.
    # ------------------------------------------------------------------
    def entry_channel(e) -> int:
        lu, lv = layer_of[e[0]], layer_of[e[1]]
        if lu == lv:
            return lu if lu < n_layers - 1 else lu - 1
        return min(lu, lv)

    def exit_channel(e) -> int:
        lu, lv = layer_of[e[0]], layer_of[e[1]]
        if lu == lv:
            return entry_channel(e)
        return max(lu, lv) - 1

    n_channels = max(n_layers - 1, 1)
    tracks: list[list[tuple]] = [[] for _ in range(n_channels)]
    track_index: dict[tuple[tuple, int], int] = {}
    skip_edges: list[tuple] = []
    for e in edges:
        c_in, c_out = entry_channel(e), exit_channel(e)
        track_index[(e, c_in)] = len(tracks[c_in])
        tracks[c_in].append(e)
        if c_out != c_in:
            skip_edges.append(e)
            track_index[(e, c_out)] = len(tracks[c_out])
            tracks[c_out].append(e)

    # ------------------------------------------------------------------
    # Geometry: globally unique vertex row bands; columns with channels.
    # ------------------------------------------------------------------
    col_width = [
        max((max(degree[v], 1) for v in layer), default=1) for layer in layers
    ]
    channel_width = [len(t) + 2 for t in tracks]
    x_origin: list[int] = []
    x = 1
    for i in range(n_layers):
        x_origin.append(x)
        x += col_width[i]
        if i < n_channels:
            x += channel_width[i]
    total_cols = x + 1

    y_origin: dict[object, int] = {}
    y = 1
    for layer in layers:
        for v in layer:
            y_origin[v] = y
            y += max(degree[v], 1) + 1
    bus_base = y + 1
    bus_row: dict[tuple, int] = {
        e: bus_base + i for i, e in enumerate(skip_edges)
    }
    total_rows = bus_base + len(skip_edges) + 1

    grid = ThompsonGrid(total_cols, total_rows)
    embedding = Embedding(grid=grid)

    for i, layer in enumerate(layers):
        for v in layer:
            d = max(degree[v], 1)
            rect = GridRect(x_origin[i], y_origin[v],
                            x_origin[i] + d - 1, y_origin[v] + d - 1)
            grid.place_vertex(v, rect)
            embedding.vertex_positions[v] = (rect.x0, rect.y0)

    def track_x(e, channel: int) -> int:
        base = x_origin[channel] + col_width[channel]
        return base + 1 + track_index[(e, channel)]

    # ------------------------------------------------------------------
    # Routing.
    # ------------------------------------------------------------------
    def horizontal(row: int, x_from: int, x_to: int) -> list[tuple[int, int]]:
        if x_from == x_to:
            return [(x_from, row)]
        step = 1 if x_to > x_from else -1
        return [(xx, row) for xx in range(x_from, x_to + step, step)]

    def vertical(col: int, y_from: int, y_to: int) -> list[tuple[int, int]]:
        if y_from == y_to:
            return [(col, y_from)]
        step = 1 if y_to > y_from else -1
        return [(col, yy) for yy in range(y_from, y_to + step, step)]

    port_counter: dict[object, int] = {v: 0 for v in graph}

    def next_port(v) -> int:
        rect = grid.vertex_rect(v)
        row = rect.y0 + (port_counter[v] % rect.height)
        port_counter[v] += 1
        return row

    def join(*runs: list[tuple[int, int]]) -> list[tuple[int, int]]:
        path: list[tuple[int, int]] = []
        for run in runs:
            for p in run:
                if not path or p != path[-1]:
                    path.append(p)
        return path

    for e in edges:
        u, v = e[0], e[1]
        if layer_of[u] > layer_of[v]:
            u, v = v, u
        ru, rv = grid.vertex_rect(u), grid.vertex_rect(v)
        ya, yb = next_port(u), next_port(v)
        c_in, c_out = entry_channel(e), exit_channel(e)
        tx1 = track_x(e, c_in)
        same_layer = layer_of[u] == layer_of[v]
        if c_in == c_out:
            # Adjacent layers (or same layer): single track.
            if same_layer and layer_of[u] == n_layers - 1:
                # Channel sits LEFT of the column: exit/enter left edges.
                path = join(
                    horizontal(ya, ru.x0, tx1),
                    vertical(tx1, ya, yb),
                    horizontal(yb, tx1, rv.x0),
                )
            elif same_layer:
                path = join(
                    horizontal(ya, ru.x1, tx1),
                    vertical(tx1, ya, yb),
                    horizontal(yb, tx1, rv.x1),
                )
            else:
                path = join(
                    horizontal(ya, ru.x1, tx1),
                    vertical(tx1, ya, yb),
                    horizontal(yb, tx1, rv.x0),
                )
        else:
            tx2 = track_x(e, c_out)
            yd = bus_row[e]
            path = join(
                horizontal(ya, ru.x1, tx1),
                vertical(tx1, ya, yd),
                horizontal(yd, tx1, tx2),
                vertical(tx2, yd, yb),
                horizontal(yb, tx2, rv.x0),
            )
        length = grid.route_edge(e, path)
        embedding.edge_lengths[e] = length

    for e in self_loops:
        embedding.edge_lengths[e] = 0

    return embedding
