"""Polarized metric graphs with exact rational edge lengths.

A graph is a connected multigraph (loops and parallel edges allowed) whose
edges carry positive rational lengths and whose vertices carry a non-negative
integer polarization q.  The genus is h = b1 + sum(q), with b1 = |E| - |V| + 1.
Graphs are immutable; refinements (valence-2 point insertions) build new
graphs and leave every metric quantity unchanged.

Points of the underlying metric space are addressed either as a vertex or as
an interior position on an edge, measured from the edge's first stored
endpoint.

Data derived from a graph lives on the graph: the id maps, valences and
components are cached properties, and the engine's per-graph computations
(resistance tables, measures, profiles, capacity, invariants) are cached by
`memoized` in the graph's own `_memo` dict.  Both are freed with the graph,
so memory is bounded by the graphs the caller keeps alive.

The engine evaluates interior points on the graph itself, from rows of its
resistance table (`circuit`), and builds no refined graph for them.  A
refined graph that a caller builds (`insert_point`, `with_points`) is a
graph like any other: it keeps no reference to the graph it came from and
solves its own table.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import _CacheInfo, cached_property, wraps
import json

from .errors import (
    DisconnectedGraph,
    GenusZero,
    NonPositiveLength,
    OffsetOutOfRange,
    ParseError,
    UnknownPoint,
)
from .rational import as_fraction, format_rational


@dataclass(frozen=True)
class Vertex:
    id: str
    q: int


@dataclass(frozen=True)
class Edge:
    id: str
    ends: tuple  # (vertex id, vertex id); equal ids for a loop
    length: Fraction

    @property
    def is_loop(self):
        return self.ends[0] == self.ends[1]


@dataclass(frozen=True)
class PolarizedMetricGraph:
    """Immutable polarized metric multigraph in canonical form.

    Vertex and edge tuples are sorted by id; edge endpoint order is kept as
    given (it fixes the orientation interior offsets are measured against).
    """

    vertices: tuple
    edges: tuple
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, vertices, edges):
        """Construct from iterables of (id, q) and (id, (end, end), length).

        Enforces local well-formedness: at least one vertex, unique ids,
        known endpoints, integer q >= 0, positive lengths.  Connectivity is
        *not* enforced here; operations that need it raise DisconnectedGraph.
        """
        vs = []
        seen = set()
        for vid, q in vertices:
            if not isinstance(vid, str) or not vid:
                raise ParseError(f"vertex id must be a non-empty string, got {vid!r}")
            if vid in seen:
                raise ParseError(f"duplicate vertex id {vid!r}")
            seen.add(vid)
            if isinstance(q, bool) or not isinstance(q, int) or q < 0:
                raise ParseError(f"polarization of vertex {vid!r} must be a non-negative integer, got {q!r}")
            vs.append(Vertex(vid, q))
        if not vs:
            raise ParseError("a graph needs at least one vertex")
        es = []
        eseen = set()
        for eid, ends, length in edges:
            if not isinstance(eid, str) or not eid:
                raise ParseError(f"edge id must be a non-empty string, got {eid!r}")
            if eid in eseen:
                raise ParseError(f"duplicate edge id {eid!r}")
            eseen.add(eid)
            a, b = ends
            if not (isinstance(a, str) and isinstance(b, str)):
                raise ParseError(f"edge {eid!r}: endpoint ids must be strings, got {list(ends)!r}")
            if a not in seen or b not in seen:
                raise ParseError(f"edge {eid!r} references unknown vertex {a if a not in seen else b!r}")
            frac = as_fraction(length)
            if frac <= 0:
                raise NonPositiveLength(f"edge {eid!r} has non-positive length {format_rational(frac)}")
            es.append(Edge(eid, (a, b), frac))
        vs.sort(key=lambda v: v.id)
        es.sort(key=lambda e: e.id)
        return cls(tuple(vs), tuple(es))

    def vertex(self, vid):
        v = self._vertex_map.get(vid)
        if v is None:
            raise UnknownPoint(f"unknown vertex {vid!r}")
        return v

    def edge(self, eid):
        e = self._edge_map.get(eid)
        if e is None:
            raise UnknownPoint(f"unknown edge {eid!r}")
        return e

    def vertex_ids(self):
        return tuple(v.id for v in self.vertices)

    def q(self, vid):
        return self.vertex(vid).q

    def valence(self, vid):
        return self._valences.get(vid, 0)

    @cached_property
    def _vertex_map(self):
        return {v.id: v for v in self.vertices}

    @cached_property
    def _edge_map(self):
        return {e.id: e for e in self.edges}

    @cached_property
    def _valences(self):
        out = {v.id: 0 for v in self.vertices}
        for e in self.edges:
            out[e.ends[0]] += 1
            out[e.ends[1]] += 1
        return out

    @cached_property
    def _components(self):
        """Connected components as a frozenset of frozensets of vertex ids."""
        adjacency = {v.id: set() for v in self.vertices}
        for e in self.edges:
            adjacency[e.ends[0]].add(e.ends[1])
            adjacency[e.ends[1]].add(e.ends[0])
        remaining = set(adjacency)
        comps = []
        while remaining:
            start = min(remaining)
            stack = [start]
            comp = {start}
            while stack:
                u = stack.pop()
                for w in adjacency[u]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            comps.append(frozenset(comp))
            remaining -= comp
        return frozenset(comps)


def memoized(fn):
    """Cache fn(g, *args) in g._memo, so the entry lives exactly as long as g.

    `cache_info()` gives the standard library's cache record, with hits and
    misses counted over all graphs; the entries have no global size, so
    both size fields read None.
    """
    hits = misses = 0

    @wraps(fn)
    def wrapper(g, *args):
        nonlocal hits, misses
        memo, key = g._memo, (fn, args)
        if key in memo:
            hits += 1
            return memo[key]
        misses += 1
        value = memo[key] = fn(g, *args)
        return value

    wrapper.cache_info = lambda: _CacheInfo(hits, misses, None, None)
    return wrapper


@dataclass(frozen=True)
class VertexPoint:
    vertex: str


@dataclass(frozen=True)
class EdgePoint:
    """Interior point of an edge; offset measured from the first stored end."""

    edge: str
    offset: Fraction


def at_vertex(vid):
    return VertexPoint(vid)


def on_edge(eid, offset):
    return EdgePoint(eid, as_fraction(offset))


class Divisor:
    """Rational coefficients on vertices; missing vertices read as zero."""

    def __init__(self, coefficients):
        self._coeffs = {vid: Fraction(c) for vid, c in coefficients.items() if c != 0}

    def __getitem__(self, vid):
        return self._coeffs.get(vid, Fraction(0))

    def items(self):
        return sorted(self._coeffs.items())

    @property
    def degree(self):
        return sum(self._coeffs.values(), Fraction(0))

    def __eq__(self, other):
        return isinstance(other, Divisor) and self._coeffs == other._coeffs

    def __repr__(self):
        inside = ", ".join(f"{v}: {format_rational(c)}" for v, c in self.items())
        return f"Divisor({{{inside}}})"


@dataclass(frozen=True)
class ValidationReport:
    connected: bool
    b1: int
    h: int
    stable: bool
    issues: tuple

    @property
    def structurally_valid(self):
        return self.connected


def is_connected(g):
    return len(g._components) == 1


def require_connected(g):
    comps = g._components
    if len(comps) > 1:
        sample = sorted(min(c) for c in comps)
        raise DisconnectedGraph(
            f"graph has {len(comps)} components (e.g. vertices {sample[0]!r} and {sample[1]!r} are separated)"
        )


def genus(g):
    """(b1, h) of a connected graph: b1 = |E|-|V|+1, h = b1 + sum of q."""
    require_connected(g)
    b1 = len(g.edges) - len(g.vertices) + 1
    h = b1 + sum(v.q for v in g.vertices)
    return b1, h


def require_positive_genus(g):
    _, h = genus(g)
    if h < 1:
        raise GenusZero(f"graph has genus {h}; this operation needs h >= 1")
    return h


def total_length(g):
    """Total length: the sum of all edge lengths."""
    return sum((e.length for e in g.edges), Fraction(0))


def canonical_divisor(g):
    """valence(x) - 2 at each vertex; a loop contributes 2 to the valence."""
    require_connected(g)
    return Divisor({v.id: Fraction(g.valence(v.id) - 2) for v in g.vertices})


def polarized_divisor(g):
    """The canonical divisor shifted by twice the polarization."""
    require_connected(g)
    return Divisor({v.id: Fraction(g.valence(v.id) - 2 + 2 * v.q) for v in g.vertices})


def is_stable(g):
    """Every vertex with q = 0 has at least three emanating half-edges."""
    return all(v.q > 0 or g.valence(v.id) >= 3 for v in g.vertices)


def validate(g):
    """Structural report: connectivity, genus, stability.

    Never raises.  Lengths are not checked: `PolarizedMetricGraph.build`
    already rejects a non-positive one.
    """
    issues = []
    connected = is_connected(g)
    if not connected:
        comps = sorted(min(c) for c in g._components)
        issues.append(f"disconnected: vertices {comps[0]!r} and {comps[1]!r} lie in different components")
    b1 = len(g.edges) - len(g.vertices) + len(g._components)
    h = b1 + sum(v.q for v in g.vertices)
    if h < 1:
        issues.append("genus is 0: measure and invariant operations are undefined")
    stable = is_stable(g)
    if not stable:
        bad = sorted(v.id for v in g.vertices if v.q == 0 and g.valence(v.id) < 3)
        issues.append(f"unstable: q=0 vertex {bad[0]!r} has fewer than 3 half-edges")
    return ValidationReport(
        connected=connected,
        b1=b1,
        h=h,
        stable=stable,
        issues=tuple(issues),
    )


def _fresh_id(base, taken):
    candidate = base
    while candidate in taken:
        candidate += "'"
    return candidate


def check_point(g, point):
    """Validate a point against the graph; returns the point unchanged."""
    if isinstance(point, VertexPoint):
        g.vertex(point.vertex)
        return point
    if isinstance(point, EdgePoint):
        e = g.edge(point.edge)
        off = as_fraction(point.offset)
        if not (0 < off < e.length):
            raise OffsetOutOfRange(
                f"offset {format_rational(off)} not strictly inside edge {e.id!r} of length {format_rational(e.length)}"
            )
        return EdgePoint(point.edge, off)
    raise UnknownPoint(f"not a graph point: {point!r}")


def _split_edge(g, eid, offset):
    """Split an edge at an interior offset.

    Returns (new graph, new vertex id, left edge id, right edge id); the left
    edge carries [0, offset] of the old edge, preserving orientation.
    """
    off = check_point(g, EdgePoint(eid, offset)).offset
    e = g.edge(eid)
    vids = set(v.id for v in g.vertices)
    eids = set(x.id for x in g.edges)
    new_vid = _fresh_id(f"{eid}@{format_rational(off)}", vids)
    left_id = _fresh_id(f"{eid}:0", eids)
    right_id = _fresh_id(f"{eid}:1", eids | {left_id})
    vertices = [(v.id, v.q) for v in g.vertices] + [(new_vid, 0)]
    edges = [(x.id, x.ends, x.length) for x in g.edges if x.id != eid]
    edges.append((left_id, (e.ends[0], new_vid), off))
    edges.append((right_id, (new_vid, e.ends[1]), e.length - off))
    return PolarizedMetricGraph.build(vertices, edges), new_vid, left_id, right_id


def insert_point(g, point):
    """Insert an interior point as a new valence-2 vertex with q = 0.

    Returns (refined graph, vertex id).  Vertex points are a no-op and return
    the existing id, so callers can refine unconditionally.
    """
    refined, (vid,) = with_points(g, (point,))
    return refined, vid


def with_points(g, points):
    """Insert several points at once; returns (graph, tuple of vertex ids).

    Coinciding points share one vertex; points on the same edge are handled
    by remapping pending offsets after each split.  This is the only caller
    of `_split_edge`.
    """
    current = [check_point(g, p) for p in points]
    graph = g
    for p in current:  # each p is read after the splits before it remapped it
        if isinstance(p, VertexPoint):
            continue
        graph, new_vid, left_id, right_id = _split_edge(graph, p.edge, p.offset)
        for j, q in enumerate(current):
            if isinstance(q, EdgePoint) and q.edge == p.edge:
                if q.offset < p.offset:
                    current[j] = EdgePoint(left_id, q.offset)
                elif q.offset > p.offset:
                    current[j] = EdgePoint(right_id, q.offset - p.offset)
                else:
                    current[j] = VertexPoint(new_vid)
    return graph, tuple(p.vertex for p in current)


def with_lengths(g, lengths):
    """Same topology with new edge lengths; `lengths` maps edge id -> length."""
    edges = []
    for e in g.edges:
        new_len = as_fraction(lengths.get(e.id, e.length))
        edges.append((e.id, e.ends, new_len))
    return PolarizedMetricGraph.build([(v.id, v.q) for v in g.vertices], edges)


def scaled(g, factor):
    """All edge lengths multiplied by a positive rational factor."""
    f = as_fraction(factor)
    if f <= 0:
        raise NonPositiveLength(f"scale factor must be positive, got {format_rational(f)}")
    return with_lengths(g, {e.id: e.length * f for e in g.edges})


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def graph_to_json(g):
    return {
        "vertices": [{"id": v.id, "q": v.q} for v in g.vertices],
        "edges": [
            {"id": e.id, "ends": [e.ends[0], e.ends[1]], "length": format_rational(e.length)}
            for e in g.edges
        ],
    }


def graph_from_json(obj):
    if not isinstance(obj, dict):
        raise ParseError("graph JSON must be an object")
    for key in ("vertices", "edges"):
        if key not in obj or not isinstance(obj[key], list):
            raise ParseError(f"graph JSON needs a {key!r} list")
    vertices = []
    for item in obj["vertices"]:
        if not isinstance(item, dict) or "id" not in item or "q" not in item:
            raise ParseError(f"vertex entry must have 'id' and 'q': {item!r}")
        vertices.append((item["id"], item["q"]))
    edges = []
    for item in obj["edges"]:
        if not isinstance(item, dict) or not {"id", "ends", "length"} <= set(item):
            raise ParseError(f"edge entry must have 'id', 'ends' and 'length': {item!r}")
        ends = item["ends"]
        if not isinstance(ends, list) or len(ends) != 2:
            raise ParseError(f"edge {item.get('id')!r}: 'ends' must list two vertex ids")
        edges.append((item["id"], (ends[0], ends[1]), as_fraction(item["length"])))
    return PolarizedMetricGraph.build(vertices, edges)


def dumps(g, indent=None):
    return json.dumps(graph_to_json(g), sort_keys=True, indent=indent)


def loads(text):
    try:
        obj = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or a number too long to convert
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    return graph_from_json(obj)
