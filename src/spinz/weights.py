"""Weight systems over a graph: per-vertex spin weights and symmetric
per-edge spin-pair weights, plus the restriction constructions that map
them onto complete bipartite graphs.

The weight file format is line oriented:

    m <spins>                      header, spins >= 1
    vw <v> <i> <p>/<q>             vertex v, spin i (1-based), rational weight
    ew <u> <v> <i> <j> <p>/<q>     edge uv, spin pair i <= j, rational weight
    # ...                          comments, ignored

Rationals are written ``p/q`` or plain ``p``.  Omitted entries default
to 1.  ``ew`` lines with i > j are rejected: the stored table is the
canonical i <= j half and is read symmetrically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .graphs import Graph, BiregularCert, complete_bipartite
from .util import sha256_text
from .values import (
    Backend,
    NonNegValue,
    RationalLike,
    format_rational,
    parse_rational,
)


class WeightError(ValueError):
    """Invalid weight table construction or lookup."""


class WeightParseError(WeightError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


Table = tuple  # m x m tuple-of-tuples of NonNegValue, symmetric

_UNKNOWN = object()  # uniform_edge_table() not yet worked out


def _as_value(x, backend: Backend) -> NonNegValue:
    if isinstance(x, NonNegValue):
        if x.backend is not backend:
            raise WeightError("mixed backends in one weight system")
        return x
    if backend is Backend.LOG:
        raise WeightError("log-backend weights must be NonNegValue instances")
    return NonNegValue.exact(x)


class WeightSystem:
    """Complete weight tables for every vertex and edge of a graph.

    Immutable after construction.  Every (v, i) and every (edge, i <= j)
    has exactly one entry; the symmetric reads ``edge_weight(u, v, i, j)
    == edge_weight(u, v, j, i)`` hold by construction.

    An EXACT system also has a cleared form (see ``cleared``), filled on
    first use.  Restrictions share their parent's cleared rows and tables
    by reference, as they share its value rows, so a system is cleared at
    most once however many restrictions are taken from it.
    """

    __slots__ = ("m", "n", "_vw", "_ew", "backend", "_cleared", "_uniform", "_text")

    def __init__(self, m: int, n: int, vw, ew, backend: Backend, cleared=None, uniform=_UNKNOWN):
        self.m = m
        self.n = n
        self._vw = vw  # tuple[v] -> tuple[i0] -> NonNegValue
        self._ew = ew  # dict[(u,v)] -> m x m tuple of NonNegValue
        self.backend = backend
        self._cleared = cleared  # None until first use (EXACT only)
        self._uniform = uniform
        self._text = None  # to_text(), on first use

    @classmethod
    def build(
        cls,
        graph: Graph,
        m: int,
        vertex: Mapping[tuple[int, int], RationalLike] | None = None,
        edge: Mapping[tuple[int, int, int, int], RationalLike] | None = None,
        backend: Backend = Backend.EXACT,
    ) -> "WeightSystem":
        """Construct with defaults of 1 for all omitted entries.

        ``vertex`` maps (v, i) with 1-based spin i; ``edge`` maps
        (u, v, i, j) with u < v an edge of the graph and i <= j.
        """
        if m < 1:
            raise WeightError(f"spin count must be >= 1, got {m}")
        one = NonNegValue.one(backend)
        rows = [[one] * m for _ in range(graph.n)]
        for (v, i), val in (vertex or {}).items():
            if not (0 <= v < graph.n):
                raise WeightError(f"vertex {v} out of range")
            if not (1 <= i <= m):
                raise WeightError(f"spin {i} out of range 1..{m}")
            rows[v][i - 1] = _as_value(val, backend)
        tables: dict[tuple[int, int], list[list[NonNegValue]]] = {
            e: [[one] * m for _ in range(m)] for e in graph.edges
        }
        for (u, v, i, j), val in (edge or {}).items():
            key = (u, v) if u < v else (v, u)
            if key not in tables:
                raise WeightError(f"({u},{v}) is not an edge of the graph")
            if not (1 <= i <= j <= m):
                raise WeightError(f"spin pair ({i},{j}) must satisfy 1 <= i <= j <= {m}")
            w = _as_value(val, backend)
            tables[key][i - 1][j - 1] = w
            tables[key][j - 1][i - 1] = w
        vw = tuple(tuple(row) for row in rows)
        ew = {e: tuple(tuple(r) for r in t) for e, t in tables.items()}
        return cls(m, graph.n, vw, ew, backend)

    def vertex_weight(self, v: int, i: int) -> NonNegValue:
        return self._vw[v][i - 1]

    def edge_weight(self, u: int, v: int, i: int, j: int) -> NonNegValue:
        key = (u, v) if u < v else (v, u)
        return self._ew[key][i - 1][j - 1]

    def vertex_row(self, v: int) -> tuple:
        return self._vw[v]

    def edge_table(self, u: int, v: int) -> Table:
        return self._ew[(u, v) if u < v else (v, u)]

    def edges(self):
        return self._ew.keys()

    def cleared(self):
        """The integer form of an EXACT system: (rows, tables), where
        rows[v] and tables[(u, v)] are (entries, denominator, maximum)
        triples.  The denominator is the lcm of the row's or table's
        denominators, the entries are the weights times it, so each
        triple is unique to its rational row or table, and the maximum is
        the largest entry.

        Filled on first use.  Threads that race here compute equal forms,
        and whichever is stored last is kept, so no lock is needed.
        """
        if self._cleared is None:
            self._cleared = _clear(self)
        return self._cleared

    def uniform_edge_table(self) -> Table | None:
        """The shared m x m table if every edge carries the same one.

        Worked out once per system; an EXACT system compares its cleared
        tables, which are equal exactly when the rational tables are.
        """
        if self._uniform is _UNKNOWN:
            by_edge = self.cleared()[1] if self.backend is Backend.EXACT else self._ew
            tables = list(by_edge.values())
            same = bool(tables) and all(t == tables[0] for t in tables)
            self._uniform = next(iter(self._ew.values())) if same else None
        return self._uniform

    def to_log(self) -> "WeightSystem":
        if self.backend is Backend.LOG:
            return self
        vw = tuple(tuple(v.to_log() for v in row) for row in self._vw)
        ew = {
            e: tuple(tuple(v.to_log() for v in row) for row in t)
            for e, t in self._ew.items()
        }
        return WeightSystem(self.m, self.n, vw, ew, Backend.LOG)

    def vertex_extremes(self) -> tuple[Fraction, Fraction]:
        """(min, max) over all vertex weights; EXACT backend only."""
        vals = [v.fraction for row in self._vw for v in row]
        return min(vals), max(vals)

    def edge_extremes(self) -> tuple[Fraction, Fraction]:
        vals = [v.fraction for t in self._ew.values() for row in t for v in row]
        return min(vals), max(vals)

    def to_text(self) -> str:
        """Canonical serialization; EXACT backend only.

        Every entry is written explicitly, so the text determines the
        system without relying on defaults.  Built once per system, on
        first use, and shared by every later call and by ``sha``; threads
        that race here build equal strings, so no lock is needed.
        """
        if self.backend is not Backend.EXACT:
            raise WeightError("only exact-rational systems serialize to text")
        if self._text is None:
            self._text = self._serialize()
        return self._text

    def _serialize(self) -> str:
        lines = [f"m {self.m}"]
        for v in range(self.n):
            for i in range(1, self.m + 1):
                lines.append(f"vw {v} {i} {format_rational(self.vertex_weight(v, i).fraction)}")
        for (u, w) in sorted(self._ew):
            for i in range(1, self.m + 1):
                for j in range(i, self.m + 1):
                    val = format_rational(self.edge_weight(u, w, i, j).fraction)
                    lines.append(f"ew {u} {w} {i} {j} {val}")
        return "\n".join(lines) + "\n"

    def sha(self) -> str:
        if self.backend is Backend.EXACT:
            return sha256_text(self.to_text())
        head = ",".join(
            repr(v.log()) for row in self._vw for v in row
        )
        tail = ",".join(
            f"{e}:{','.join(repr(x.log()) for r in t for x in r)}"
            for e, t in sorted(self._ew.items())
        )
        return sha256_text(f"log-weights m={self.m} n={self.n} vw={head} ew={tail}")

    def __repr__(self):
        return f"WeightSystem(m={self.m}, n={self.n}, backend={self.backend.value})"


def _clear(w: WeightSystem):
    def clear(values) -> tuple[tuple[int, ...], int, int]:
        fracs = [x.fraction for x in values]
        den = math.lcm(*(f.denominator for f in fracs))
        ints = tuple(f.numerator * (den // f.denominator) for f in fracs)
        return ints, den, max(ints)

    rows = tuple(clear(row) for row in w._vw)
    tables = {}
    for e, table in w._ew.items():
        flat, den, top = clear(x for row in table for x in row)
        tables[e] = tuple(flat[k : k + w.m] for k in range(0, len(flat), w.m)), den, top
    return rows, tables


def parse_weights(text: str, graph: Graph) -> WeightSystem:
    """Parse the weight file format against a known graph."""
    m = None
    vertex: dict[tuple[int, int], Fraction] = {}
    edge: dict[tuple[int, int, int, int], Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if m is None:
            if parts[0] != "m" or len(parts) != 2:
                raise WeightParseError("expected header 'm <spins>'", lineno)
            try:
                m = int(parts[1])
            except ValueError:
                raise WeightParseError("spin count must be an integer", lineno) from None
            if m < 1:
                raise WeightParseError(f"spin count must be >= 1, got {m}", lineno)
            continue
        if parts[0] == "vw":
            if len(parts) != 4:
                raise WeightParseError("expected 'vw <v> <i> <value>'", lineno)
            try:
                v, i = int(parts[1]), int(parts[2])
                val = parse_rational(parts[3])
            except (ValueError, ZeroDivisionError):
                raise WeightParseError(f"malformed vw line {line!r}", lineno) from None
            if not (0 <= v < graph.n):
                raise WeightParseError(f"vertex {v} out of range [0,{graph.n})", lineno)
            if not (1 <= i <= m):
                raise WeightParseError(f"spin {i} out of range 1..{m}", lineno)
            if val < 0:
                raise WeightParseError(f"negative weight {val}", lineno)
            if (v, i) in vertex:
                raise WeightParseError(f"duplicate entry for vertex {v} spin {i}", lineno)
            vertex[(v, i)] = val
        elif parts[0] == "ew":
            if len(parts) != 6:
                raise WeightParseError("expected 'ew <u> <v> <i> <j> <value>'", lineno)
            try:
                u, v, i, j = (int(x) for x in parts[1:5])
                val = parse_rational(parts[5])
            except (ValueError, ZeroDivisionError):
                raise WeightParseError(f"malformed ew line {line!r}", lineno) from None
            if i > j:
                raise WeightParseError(
                    f"spin pair must be canonical i <= j, got ({i},{j})", lineno
                )
            if not (1 <= i <= m and 1 <= j <= m):
                raise WeightParseError(f"spin pair ({i},{j}) out of range 1..{m}", lineno)
            if not graph.has_edge(u, v):
                raise WeightParseError(f"({u},{v}) is not an edge of the graph", lineno)
            if val < 0:
                raise WeightParseError(f"negative weight {val}", lineno)
            key = (min(u, v), max(u, v), i, j)
            if key in edge:
                raise WeightParseError(f"duplicate entry for edge ({u},{v}) pair ({i},{j})", lineno)
            edge[key] = val
        else:
            raise WeightParseError(f"unknown directive {parts[0]!r}", lineno)
    if m is None:
        raise WeightParseError("empty input, expected header 'm <spins>'", 1)
    return WeightSystem.build(graph, m, vertex, edge)


def make_hardcore(g: Graph, lam: Mapping[int, RationalLike] | RationalLike) -> WeightSystem:
    """Two-spin hard-constraint system whose partition function is the
    activity-weighted count of independent sets.

    Spin 1 marks membership in the independent set with activity
    ``lam[v]``; spin 2 is neutral.  Adjacent spin-1 pairs carry weight 0.
    """
    if not isinstance(lam, Mapping):
        lam = {v: lam for v in g.vertices()}
    missing = [v for v in g.vertices() if v not in lam]
    if missing:
        raise WeightError(f"activity missing for vertices {missing}")
    vertex = {(v, 1): lam[v] for v in g.vertices()}
    edge = {(u, v, 1, 1): 0 for u, v in g.edges}
    return WeightSystem.build(g, 2, vertex, edge)


def make_ising(g: Graph, beta: float, h: float) -> WeightSystem:
    """Two-spin soft-constraint system with coupling beta and field h.

    Spin 1 encodes +1 and spin 2 encodes -1.  The configuration weight is
    exp(-beta * sum_uv s(u)s(v) + h * sum_v s(v)), so beta > 0 favours
    oppositely-aligned edges.  Weights are irrational, so this system
    lives in the log backend: entries hold +-h and -+beta exactly.
    """
    if not (math.isfinite(beta) and math.isfinite(h)):
        raise WeightError("beta and h must be finite")
    up = NonNegValue.from_log(h)
    down = NonNegValue.from_log(-h)
    same = NonNegValue.from_log(-beta)
    diff = NonNegValue.from_log(beta)
    vw = tuple((up, down) for _ in range(g.n))
    table = ((same, diff), (diff, same))
    ew = {e: table for e in g.edges}
    return WeightSystem(2, g.n, vw, ew, Backend.LOG)


@dataclass(frozen=True)
class KabInstance:
    """A complete bipartite graph with labeled sides and a weight system.

    ``w_ids`` lists the b vertices of degree a and ``z_ids`` the a
    vertices of degree b, in label order w_1..w_b, z_1..z_a.
    """

    a: int
    b: int
    graph: Graph
    weights: WeightSystem
    w_ids: tuple[int, ...]
    z_ids: tuple[int, ...]

    def __post_init__(self):
        if len(self.w_ids) != self.b or len(self.z_ids) != self.a:
            raise WeightError("side labels do not match (a, b)")


@lru_cache(maxsize=1024)
def _kab_layout(a: int, b: int) -> tuple[Graph, tuple[int, ...], tuple[int, ...]]:
    """K_{a,b} with w side on ids 0..b-1 and z side on ids b..b+a-1.

    Graphs are immutable, so every caller shares one layout per (a, b).
    """
    graph = complete_bipartite(b, a)
    return graph, tuple(range(b)), tuple(range(b, b + a))


def _induced(w: WeightSystem, a: int, b: int, rows: Sequence[int], sources, uniform):
    """K_{a,b} instance whose vertex k has w's row rows[k] and whose edges
    at w-side vertex k have w's table sources[k]: w's own objects, with
    their cleared forms when w is EXACT."""
    graph, w_ids, z_ids = _kab_layout(a, b)
    src = {e: sources[e[0]] for e in graph.edges}  # e[0] is the w-side end
    vw = tuple(w._vw[u] for u in rows)
    ew = {e: w._ew[f] for e, f in src.items()}
    cleared = None
    if w.backend is Backend.EXACT:
        c_rows, c_tables = w.cleared()
        cleared = tuple(c_rows[u] for u in rows), {e: c_tables[f] for e, f in src.items()}
    weights = WeightSystem(w.m, a + b, vw, ew, w.backend, cleared, uniform)
    return KabInstance(a=a, b=b, graph=graph, weights=weights, w_ids=w_ids, z_ids=z_ids)


def restrict_to_kab(
    g: Graph,
    w: WeightSystem,
    cert: BiregularCert,
    v: int,
    neighbor_order: Sequence[int] | None = None,
) -> KabInstance:
    """Weights induced on K_{a,b} by the closed neighborhood of v.

    Every z-side vertex carries v's spin weights; w-side vertex k carries
    the weights of v's k-th neighbor, and the edge w_k z_l carries the
    table of the edge (n_k(v), v) for every l.  ``neighbor_order``
    defaults to ascending vertex id; any permutation yields an instance
    with the same partition function.
    """
    if v not in cert.odd:
        raise WeightError(f"vertex {v} is not in the odd (degree-{cert.b}) class")
    nbrs = tuple(neighbor_order) if neighbor_order is not None else cert.neighbor_order(v)
    if sorted(nbrs) != sorted(cert.neighbor_order(v)):
        raise WeightError("neighbor_order must be a permutation of the adjacency of v")
    edges = [(u, v) if u < v else (v, u) for u in nbrs]
    tables = [w._ew[e] for e in edges]
    uniform = tables[0] if tables and all(t is tables[0] for t in tables) else _UNKNOWN
    return _induced(w, cert.a, cert.b, (*nbrs, *[v] * cert.a), edges, uniform)


def restrict_to_edge(g: Graph, w: WeightSystem, u: int, v: int) -> KabInstance:
    """Weights induced on K_{d(u),d(v)} by the edge uv.

    The w side copies the spin weights of v's neighbors, the z side those
    of u's neighbors, and every cross edge carries the system's single
    shared edge table.  Requires a uniform edge-weight system: with
    per-edge tables the induced table for a non-adjacent neighbor pair
    would be undefined.
    """
    if not g.has_edge(u, v):
        raise WeightError(f"({u},{v}) is not an edge of the graph")
    table = w.uniform_edge_table()
    if table is None:
        raise WeightError(
            "unsupported: per-edge weight tables differ, so the edge restriction "
            "onto the complete bipartite graph is ambiguous"
        )
    a, b = g.degree(u), g.degree(v)
    first = next(iter(w.edges()))  # the edge whose table uniform_edge_table returns
    return _induced(w, a, b, (*g.neighbors(v), *g.neighbors(u)), [first] * b, table)


def scale_vertex_weights(w: WeightSystem, v: int, c: RationalLike) -> WeightSystem:
    """Multiply every spin weight at one vertex by a positive rational."""
    c = Fraction(c)
    if c <= 0:
        raise WeightError("scale must be positive")
    factor = NonNegValue.exact(c)
    vw = tuple(
        tuple(x * factor for x in row) if idx == v else row
        for idx, row in enumerate(w._vw)
    )
    return WeightSystem(w.m, w.n, vw, w._ew, w.backend)
