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

An EXACT system stores each row and table once, as integers over their
lcm denominator (the form every exact kernel reads); a LOG system stores
natural logs.  ``NonNegValue`` views are built only when asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .graphs import Graph, BiregularCert, complete_bipartite
from .util import ParseError, parse_fields, records, sha256_text
from .values import (
    Backend,
    NonNegValue,
    RationalLike,
    log_of_fraction,
    nonneg_rational,
    parse_rational,
)


class WeightError(ValueError):
    """Invalid weight table construction or lookup."""


class WeightParseError(ParseError, WeightError):
    """A malformed line of a weight file."""


Table = tuple  # m x m tuple-of-tuples of NonNegValue, symmetric


class WeightSystem:
    """Complete weight tables for every vertex and edge of a graph.

    Immutable after construction.  Every (v, i) and every (edge, i <= j)
    has exactly one entry; the symmetric reads ``edge_weight(u, v, i, j)
    == edge_weight(u, v, j, i)`` hold by construction.

    Rows and tables are stored in the backend's form only (``cleared``,
    ``logs``), and restrictions share them by reference, so no weight is
    worked out again after ``build``; kernels read that form as arrays
    built per call (``counting.WeightArrays``), never kept here.
    """

    __slots__ = ("m", "n", "backend", "_rows", "_tables", "_text")

    def __init__(self, m: int, n: int, backend: Backend, rows, tables):
        self.m = m
        self.n = n
        self.backend = backend
        self._rows = rows  # tuple[v] -> EXACT (entries, den, max) triple, LOG tuple of logs
        self._tables = tables  # dict[(u, v)] -> the same for the m x m table
        self._text = None  # to_text(), on first use

    @classmethod
    def build(
        cls,
        graph: Graph,
        m: int,
        vertex: Mapping[tuple[int, int], RationalLike] | None = None,
        edge: Mapping[tuple[int, int, int, int], RationalLike] | None = None,
    ) -> "WeightSystem":
        """Construct an EXACT system with defaults of 1 for all omitted
        entries.

        ``vertex`` maps (v, i) with 1-based spin i; ``edge`` maps
        (u, v, i, j) with u < v an edge of the graph and i <= j.
        """
        if m < 1:
            raise WeightError(f"spin count must be >= 1, got {m}")
        rows = [[(1, 1)] * m for _ in range(graph.n)]
        for (v, i), val in (vertex or {}).items():
            if not (0 <= v < graph.n):
                raise WeightError(f"vertex {v} out of range")
            if not (1 <= i <= m):
                raise WeightError(f"spin {i} out of range 1..{m}")
            rows[v][i - 1] = _pair(val)
        tables = {e: [(1, 1)] * (m * m) for e in graph.edges}  # row-major
        for (u, v, i, j), val in (edge or {}).items():
            key = (u, v) if u < v else (v, u)
            if key not in tables:
                raise WeightError(f"({u},{v}) is not an edge of the graph")
            if not (1 <= i <= j <= m):
                raise WeightError(f"spin pair ({i},{j}) must satisfy 1 <= i <= j <= {m}")
            table = tables[key]
            table[(i - 1) * m + j - 1] = table[(j - 1) * m + i - 1] = _pair(val)
        return cls.from_pairs(graph.n, m, rows, tables)

    @classmethod
    def from_pairs(cls, n: int, m: int, rows, tables) -> "WeightSystem":
        """An EXACT system from weights given as integer pairs (p, q) for
        p/q, p >= 0 < q: rows[v] holds vertex v's m weights, tables[(u,
        v)] (u < v) the edge's symmetric m x m table in row-major order.
        The pairs are not checked (``build`` checks its inputs, then
        stores through here), only m is.
        """
        if m < 1:
            raise WeightError(f"spin count must be >= 1, got {m}")
        # A run of equal tables (every edge of a uniform system) is cleared
        # once and shares its triple; comparing with the previous table
        # keeps all-distinct systems at one cheap comparison per edge.
        cleared, prev = {}, None
        for e, t in tables.items():
            if t != prev:
                prev, triple = t, _clear(t, m)
            cleared[e] = triple
        return cls(m, n, Backend.EXACT, tuple(_clear(row) for row in rows), cleared)

    def _value(self, stored, *index) -> NonNegValue:
        entry, den, _ = stored if self.backend is Backend.EXACT else (stored, None, None)
        for k in index:
            entry = entry[k]
        return NonNegValue.exact(Fraction(entry, den)) if den else NonNegValue.from_log(entry)

    def vertex_weight(self, v: int, i: int) -> NonNegValue:
        return self._value(self._rows[v], i - 1)

    def edge_weight(self, u: int, v: int, i: int, j: int) -> NonNegValue:
        return self._value(self._tables[(u, v) if u < v else (v, u)], i - 1, j - 1)

    def vertex_row(self, v: int) -> tuple:
        return tuple(self.vertex_weight(v, i) for i in range(1, self.m + 1))

    def edge_table(self, u: int, v: int) -> Table:
        spins = range(1, self.m + 1)
        return tuple(tuple(self.edge_weight(u, v, i, j) for j in spins) for i in spins)

    def edges(self):
        return self._tables.keys()

    def cleared(self):
        """The stored form of an EXACT system: (rows, tables), where
        rows[v] and tables[(u, v)] are (entries, denominator, maximum)
        triples.  The denominator is the lcm of the row's or table's
        reduced denominators, the entries are the weights times it, so
        each triple is unique to its rational row or table, and the
        maximum is the largest entry.
        """
        if self.backend is not Backend.EXACT:
            raise WeightError("only exact-rational systems have a cleared form")
        return self._rows, self._tables

    def logs(self):
        """The stored form of a LOG system: (rows, tables) of natural
        logs, -inf for a zero weight."""
        if self.backend is not Backend.LOG:
            raise WeightError("only log-backend systems hold logs")
        return self._rows, self._tables

    def uniform_edge_table(self) -> Table | None:
        """The shared m x m table if every edge carries the same one
        (``_shared_edge``), else None."""
        e = _shared_edge(self)
        return None if e is None else self.edge_table(*e)

    def to_log(self) -> "WeightSystem":
        if self.backend is Backend.LOG:
            return self

        def logs(entries, den):
            return tuple(log_of_fraction(Fraction(x, den)) for x in entries)

        rows = tuple(logs(entries, den) for entries, den, _ in self._rows)
        tables = {
            e: tuple(logs(row, den) for row in entries)
            for e, (entries, den, _) in self._tables.items()
        }
        return WeightSystem(self.m, self.n, Backend.LOG, rows, tables)

    def vertex_extremes(self) -> tuple[Fraction, Fraction]:
        """(min, max) over all vertex weights; EXACT backend only."""
        rows, _ = self.cleared()
        vals = [Fraction(x, den) for entries, den, _ in rows for x in entries]
        return min(vals), max(vals)

    def edge_extremes(self) -> tuple[Fraction, Fraction]:
        _, tables = self.cleared()
        vals = [Fraction(x, den) for table, den, _ in tables.values() for row in table for x in row]
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
        for v, (entries, den, _) in enumerate(self._rows):
            for i, x in enumerate(entries, start=1):
                lines.append(f"vw {v} {i} {_format(x, den)}")
        upper = [(i, j) for i in range(self.m) for j in range(i, self.m)]
        fields_of = {}  # id(stored table) -> its "i j value" fields; shared tables format once
        for (u, w), stored in sorted(self._tables.items()):
            fields = fields_of.get(id(stored))
            if fields is None:
                entries, den, _ = stored
                fields = fields_of[id(stored)] = [
                    f"{i + 1} {j + 1} {_format(entries[i][j], den)}" for i, j in upper
                ]
            lines.append(f"ew {u} {w} " + f"\new {u} {w} ".join(fields))  # a line per field
        return "\n".join(lines) + "\n"

    def sha(self) -> str:
        if self.backend is Backend.EXACT:
            return sha256_text(self.to_text())
        head = ",".join(repr(x) for row in self._rows for x in row)
        tail = ",".join(
            f"{e}:{','.join(repr(x) for r in t for x in r)}"
            for e, t in sorted(self._tables.items())
        )
        return sha256_text(f"log-weights m={self.m} n={self.n} vw={head} ew={tail}")

    def __repr__(self):
        return f"WeightSystem(m={self.m}, n={self.n}, backend={self.backend.value})"


def _cleared(nums: Sequence[int], den: int, m: int | None = None):
    """The rationals nums[k]/den in lowest terms as an (entries,
    denominator, maximum) triple, the entries in rows of m when m is
    given."""
    g = math.gcd(den, *nums)
    if g != 1:
        nums = [x // g for x in nums]
        den //= g
    entries = tuple(zip(*[iter(nums)] * m)) if m else tuple(nums)
    return entries, den, max(nums)


def _clear(pairs, m: int | None = None):
    """Cleared triple of a flat list of rationals p/q given as (p, q)."""
    den = math.lcm(*[q for _, q in pairs])
    return _cleared([p * (den // q) for p, q in pairs], den, m)


def _pair(value: RationalLike) -> tuple[int, int]:
    """A non-negative rational input as its reduced (p, q)."""
    value = nonneg_rational(value)
    return value.numerator, value.denominator


def _scaled(stored, c: Fraction, m: int):
    """A cleared m x m table times the positive rational c."""
    entries, den, _ = stored
    return _cleared([x * c.numerator for row in entries for x in row], den * c.denominator, m)


def _format(x: int, den: int) -> str:
    """The rational x/den written as in a weight file: ``p`` or ``p/q``."""
    g = math.gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def parse_weights(text: str, graph: Graph) -> WeightSystem:
    """Parse the weight file format against a known graph."""
    m = None
    vertex: dict[tuple[int, int], Fraction] = {}
    edge: dict[tuple[int, int, int, int], Fraction] = {}
    for lineno, line in records(text):
        parts = line.split()
        if m is None:
            if parts[0] != "m" or len(parts) != 2:
                raise WeightParseError("expected header 'm <spins>'", lineno)
            (m,) = parse_fields(parts[1:], WeightParseError("spin count must be an integer", lineno))
            if m < 1:
                raise WeightParseError(f"spin count must be >= 1, got {m}", lineno)
            continue
        if parts[0] == "vw":
            if len(parts) != 4:
                raise WeightParseError("expected 'vw <v> <i> <value>'", lineno)
            malformed = WeightParseError(f"malformed vw line {line!r}", lineno)
            v, i = parse_fields(parts[1:3], malformed)
            (val,) = parse_fields(parts[3:], malformed, parse_rational)
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
            malformed = WeightParseError(f"malformed ew line {line!r}", lineno)
            u, v, i, j = parse_fields(parts[1:5], malformed)
            (val,) = parse_fields(parts[5:], malformed, parse_rational)
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
    return hardcore_from_pairs(g, [_pair(lam[v]) for v in g.vertices()])


def hardcore_from_pairs(g: Graph, activities: Sequence[tuple[int, int]]) -> WeightSystem:
    """``make_hardcore`` with vertex v's activity given as the integer
    pair (p, q) for p/q, p >= 0 < q, in activities[v]."""
    table = [(0, 1), (1, 1), (1, 1), (1, 1)]  # spin 1 next to spin 1 weighs 0
    rows = [[lam, (1, 1)] for lam in activities]
    return WeightSystem.from_pairs(g.n, 2, rows, dict.fromkeys(g.edges, table))


def make_ising(g: Graph, beta: float, h: float) -> WeightSystem:
    """Two-spin soft-constraint system with coupling beta and field h.

    Spin 1 encodes +1 and spin 2 encodes -1.  The configuration weight is
    exp(-beta * sum_uv s(u)s(v) + h * sum_v s(v)), so beta > 0 favours
    oppositely-aligned edges.  Weights are irrational, so this system
    lives in the log backend: entries hold +-h and -+beta exactly.
    """
    if not (math.isfinite(beta) and math.isfinite(h)):
        raise WeightError("beta and h must be finite")
    same, diff = float(-beta), float(beta)
    table = ((same, diff), (diff, same))
    rows = tuple((float(h), float(-h)) for _ in range(g.n))
    return WeightSystem(2, g.n, Backend.LOG, rows, {e: table for e in g.edges})


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


# No bound runs the restriction layer, from here to restrict_to_edge; perfbench's
# tracer wraps its functions by name.
@lru_cache(maxsize=1024)
def _kab_layout(a: int, b: int) -> tuple[Graph, tuple[int, ...], tuple[int, ...]]:
    """K_{a,b} with w side on ids 0..b-1 and z side on ids b..b+a-1.

    Graphs are immutable, so every caller shares one layout per (a, b).
    """
    graph = complete_bipartite(b, a)
    return graph, tuple(range(b)), tuple(range(b, b + a))


def _induced(w: WeightSystem, a: int, b: int, rows: Sequence[int], sources):
    """K_{a,b} instance whose vertex k has w's row rows[k] and whose edges
    at w-side vertex k have w's table sources[k], shared by reference."""
    graph, w_ids, z_ids = _kab_layout(a, b)
    vw = tuple(w._rows[u] for u in rows)
    ew = {e: w._tables[sources[e[0]]] for e in graph.edges}  # e[0] is the w-side end
    weights = WeightSystem(w.m, a + b, w.backend, vw, ew)
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
    return _induced(w, cert.a, cert.b, (*nbrs, *[v] * cert.a), edges)


def _shared_edge(w: WeightSystem) -> tuple[int, int] | None:
    """The first edge of w if every edge's stored table equals its table
    (stored tables are equal exactly when the weights are), else None;
    None too when w has no edges."""
    items = iter(w._tables.items())
    e, first = next(items, (None, None))
    return None if e is None or any(t != first for _, t in items) else e


def uniform_edge(w: WeightSystem) -> tuple[int, int]:
    """An edge whose stored table every edge of w shares.  Raises
    WeightError when the tables differ: edge restrictions are undefined."""
    e = _shared_edge(w)
    if e is None:
        raise WeightError("unsupported: per-edge weight tables differ, so the edge "
                          "restriction onto the complete bipartite graph is ambiguous")
    return e


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
    sources = [uniform_edge(w)] * g.degree(v)
    rows = (*g.neighbors(v), *g.neighbors(u))
    return _induced(w, g.degree(u), g.degree(v), rows, sources)
