"""Finite simple directed graphs.

Vertices are opaque string labels; edges are ordered pairs without loops or
parallel duplicates.  Provides the structure analysis (sources, targets,
connectivity, acyclicity), Cartesian products, vertex gluing, isomorphism
search, and deterministic DOT/JSON export.
"""

from __future__ import annotations

from typing import NamedTuple


class Digraph:
    """Immutable simple digraph with labeled vertices."""

    __slots__ = ("vertices", "edges", "_out", "_in")

    def __init__(self, vertices, edges=()):
        vs = []
        seen = set()
        for v in vertices:
            if not isinstance(v, str):
                raise TypeError(f"vertex labels must be strings, got {v!r}")
            if v in seen:
                raise ValueError(f"duplicate vertex {v!r}")
            seen.add(v)
            vs.append(v)
        es = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop edge [{u!r},{u!r}] not allowed")
            if u not in seen or v not in seen:
                raise ValueError(f"edge [{u!r},{v!r}] has endpoint outside the vertex set")
            es.add((u, v))
        # one copy at a time: the edge set is frozen once, and each
        # neighbour set is frozen as it leaves its builder
        del seen
        es = frozenset(es)
        out = {v: set() for v in vs}
        inn = {v: set() for v in vs}
        for u, v in es:
            out[u].add(v)
            inn[v].add(u)
        object.__setattr__(self, "vertices", tuple(vs))
        object.__setattr__(self, "edges", es)
        object.__setattr__(self, "_out", {v: frozenset(out.pop(v)) for v in vs})
        object.__setattr__(self, "_in", {v: frozenset(inn.pop(v)) for v in vs})

    def __setattr__(self, name, value):
        raise AttributeError("Digraph is immutable")

    def __reduce__(self):
        # copies and pickles rebuild through the constructor, not `__setattr__`
        return Digraph, (self.vertices, self.edges)

    def __contains__(self, v):
        return v in self._out

    def __eq__(self, other):
        return (isinstance(other, Digraph)
                and set(self.vertices) == set(other.vertices)
                and self.edges == other.edges)

    def __hash__(self):
        return hash((frozenset(self.vertices), self.edges))

    def __repr__(self):
        return f"Digraph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    def out(self, v):
        return self._out[v]

    def inn(self, v):
        return self._in[v]

    def has_edge(self, u, v) -> bool:
        return (u, v) in self.edges

    def sorted_vertices(self):
        return sorted(self.vertices)

    def sorted_edges(self):
        return sorted(self.edges)

    def relabel(self, mapping) -> "Digraph":
        return Digraph([mapping[v] for v in self.vertices],
                       [(mapping[u], mapping[v]) for u, v in self.edges])


class StructureReport(NamedTuple):
    sources: tuple[str, ...]
    targets: tuple[str, ...]
    weakly_connected: bool
    acyclic: bool
    consistently_directed: bool


def analyze(g: Digraph) -> StructureReport:
    """Sources, targets, weak connectivity, acyclicity, consistent direction.

    A graph is consistently directed when it is weakly connected and acyclic
    with exactly one source and one target.
    """
    sources = tuple(sorted(v for v in g.vertices if not g.inn(v)))
    targets = tuple(sorted(v for v in g.vertices if not g.out(v)))
    n = len(g.vertices)
    if n == 0:
        return StructureReport((), (), False, True, False)
    # weak connectivity over the underlying undirected graph
    start = g.vertices[0]
    stack, seen = [start], {start}
    while stack:
        v = stack.pop()
        for w in g.out(v) | g.inn(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    weakly = len(seen) == n
    acyclic = _topological_order(g) is not None
    consistent = weakly and acyclic and len(sources) == 1 and len(targets) == 1
    return StructureReport(sources, targets, weakly, acyclic, consistent)


def _topological_order(g: Digraph):
    """Kahn's sort: the vertices in a topological order, or None when the
    graph has a directed cycle."""
    order = []
    indeg = {v: len(g.inn(v)) for v in g.vertices}
    queue = [v for v in g.vertices if indeg[v] == 0]
    while queue:
        v = queue.pop()
        order.append(v)
        for w in g.out(v):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return order if len(order) == len(g.vertices) else None


def longest_path_length(g: Digraph) -> int:
    """Length (edge count) of the longest directed path in an acyclic graph."""
    order = _topological_order(g)
    if order is None:
        raise ValueError("longest path is only defined for acyclic graphs")
    dist = {v: 0 for v in g.vertices}
    for v in order:
        for w in g.out(v):
            dist[w] = max(dist[w], dist[v] + 1)
    return max(dist.values(), default=0)


def product_label(u: str, v: str) -> str:
    return f"({u}|{v})"


def cartesian_product(g: Digraph, h: Digraph) -> Digraph:
    """Cartesian product: edges move along one coordinate at a time."""
    vertices = [product_label(u, v) for u in g.vertices for v in h.vertices]
    edges = []
    for u in g.vertices:
        for a, b in h.edges:
            edges.append((product_label(u, a), product_label(u, b)))
    for a, b in g.edges:
        for v in h.vertices:
            edges.append((product_label(a, v), product_label(b, v)))
    return Digraph(vertices, edges)


def glue_at_vertex(g: Digraph, h: Digraph, vg: str, vh: str) -> Digraph:
    """Disjoint union of g and h with vh identified to vg.

    Colliding labels on h's side are renamed with trailing apostrophes; the
    merged vertex keeps g's label.
    """
    if vg not in g:
        raise ValueError(f"vertex {vg!r} not in first graph")
    if vh not in h:
        raise ValueError(f"vertex {vh!r} not in second graph")
    taken = set(g.vertices)
    rename = {vh: vg}
    for v in h.vertices:
        if v == vh:
            continue
        new = v
        while new in taken:
            new = new + "'"
        rename[v] = new
        taken.add(new)
    vertices = list(g.vertices) + [rename[v] for v in h.vertices if v != vh]
    edges = list(g.edges) + [(rename[u], rename[v]) for u, v in h.edges]
    return Digraph(vertices, edges)


def _signature(graph: Digraph, colors, v):
    return (colors[v],
            tuple(sorted(colors[w] for w in graph.out(v))),
            tuple(sorted(colors[w] for w in graph.inn(v))))


def _joint_wl_colors(g: Digraph, h: Digraph):
    # refine both graphs against one shared color table so ids line up
    gc = {v: (len(g.inn(v)), len(g.out(v))) for v in g.vertices}
    hc = {v: (len(h.inn(v)), len(h.out(v))) for v in h.vertices}
    for _ in range(len(g.vertices)):
        interned = {}
        ng = {v: interned.setdefault(_signature(g, gc, v), len(interned))
              for v in g.vertices}
        nh = {v: interned.setdefault(_signature(h, hc, v), len(interned))
              for v in h.vertices}
        stable = len(set(ng.values()) | set(nh.values())) == \
            len(set(gc.values()) | set(hc.values()))
        gc, hc = ng, nh
        if stable:
            break
    return gc, hc


def find_isomorphism(g: Digraph, h: Digraph):
    """A vertex bijection preserving edges both ways, or None.

    Backtracking search pruned by iterated degree-refinement invariants,
    depth first over an explicit stack: ``cands[i]`` holds the images of
    ``order[i]`` not yet tried, the lowest label last.  An image is kept
    when the mapped neighbours of the vertex map onto its used neighbours.
    """
    if len(g.vertices) != len(h.vertices) or len(g.edges) != len(h.edges):
        return None
    gc, hc = _joint_wl_colors(g, h)
    g_classes = {}
    for v, c in gc.items():
        g_classes.setdefault(c, []).append(v)
    h_classes = {}
    for v, c in hc.items():
        h_classes.setdefault(c, []).append(v)
    if sorted((c, len(vs)) for c, vs in g_classes.items()) != \
            sorted((c, len(vs)) for c, vs in h_classes.items()):
        return None
    # map smallest classes first; deterministic tie-break on labels
    order = [v for _, _, v in sorted((len(g_classes[c]), c, v) for v, c in gc.items())]
    mapping, used = {}, set()
    cands = [None] * len(order)
    i = 0
    while 0 <= i < len(order):
        v = order[i]
        if v in mapping:  # back from order[i + 1]: free this image, try the next
            used.discard(mapping.pop(v))
        else:
            cands[i] = sorted(h_classes[gc[v]], reverse=True)
        while cands[i]:
            w = cands[i].pop()
            if (w not in used
                    and {mapping[u] for u in g.out(v) if u in mapping} == h.out(w) & used
                    and {mapping[u] for u in g.inn(v) if u in mapping} == h.inn(w) & used):
                break
        else:
            i -= 1
            continue
        mapping[v] = w
        used.add(w)
        i += 1
    return mapping if i == len(order) else None


def is_isomorphic(g: Digraph, h: Digraph) -> bool:
    return find_isomorphism(g, h) is not None


def to_dot(g: Digraph, name="G") -> str:
    """DOT form with lexicographically sorted vertices and edges."""
    lines = [f"digraph {name} {{"]
    for v in g.sorted_vertices():
        lines.append(f'  "{_dot_escape(v)}";')
    for u, v in g.sorted_edges():
        lines.append(f'  "{_dot_escape(u)}" -> "{_dot_escape(v)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def to_json_obj(g: Digraph) -> dict:
    return {"vertices": g.sorted_vertices(),
            "edges": [[u, v] for u, v in g.sorted_edges()]}
