"""Simple undirected graphs: parsing, bipartitions, biregularity certificates.

The graph file format is line oriented:

    p <n> <m>        header: vertex count and edge count
    e <u> <v>        one line per edge, 0-based ids, u < v
    # ...            comments, ignored anywhere

Serialization emits edges in ascending lexicographic order, so a
parse/emit round trip is bit-exact and the SHA-256 of the text is a
stable instance identifier.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .util import ParseError, parse_fields, records, sha256_text


class GraphError(ValueError):
    """Base class for graph construction and certification failures."""


class GraphParseError(ParseError, GraphError):
    """A malformed line of a graph file."""


class NotBipartiteError(GraphError):
    def __init__(self, odd_walk: Sequence[int]):
        walk = "-".join(str(v) for v in odd_walk)
        super().__init__(f"not bipartite: odd closed walk {walk}")
        self.odd_walk = tuple(odd_walk)


class NotBiregularError(GraphError):
    def __init__(self, message: str, witnesses: tuple[int, int]):
        super().__init__(f"not biregular: {message}")
        self.witnesses = witnesses


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    No loops, no parallel edges.  Neighbor lists are kept sorted
    ascending; that fixed order is the neighbor enumeration used by every
    restriction construction downstream.  The text, its sha, the hash and
    the adjacency matrix are worked out once per graph, on first use.
    """

    __slots__ = ("n", "edges", "_edge_set", "_adj", "_text", "_sha", "_hash", "_matrix")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise GraphError(f"vertex count must be >= 1, got {n}")
        canon = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            canon.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = tuple(sorted(canon))
        self._edge_set = frozenset(self.edges)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)
        self._text = self._sha = self._hash = self._matrix = None

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending id order: position k holds n_{k+1}(v)."""
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._edge_set

    def vertices(self) -> range:
        return range(self.n)

    def adjacency_matrix(self):
        """The n x n float 0/1 adjacency matrix (a read-only numpy array)."""
        if self._matrix is None:
            import numpy as np  # only the kernels need numpy; importing graphs does not

            n = self.n
            matrix = np.zeros((n, n))
            matrix.put([u * n + v for u, v in self.edges] + [v * n + u for u, v in self.edges], 1.0)
            matrix.flags.writeable = False
            self._matrix = matrix
        return self._matrix

    def to_text(self) -> str:
        if self._text is None:
            lines = [f"p {self.n} {self.num_edges}"]
            lines.extend(f"e {u} {v}" for u, v in self.edges)
            self._text = "\n".join(lines) + "\n"
        return self._text

    def sha(self) -> str:
        if self._sha is None:
            self._sha = sha256_text(self.to_text())
        return self._sha

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.edges))
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges})"


def parse_graph(text: str) -> Graph:
    """Parse the graph file format, with line-precise errors."""
    n = None
    m = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, line in records(text):
        parts = line.split()
        if n is None:
            if parts[0] != "p" or len(parts) != 3:
                raise GraphParseError("expected header 'p <n> <m>'", lineno)
            n, m = parse_fields(parts[1:], GraphParseError("header counts must be integers", lineno))
            if n < 1:
                raise GraphParseError(f"vertex count must be >= 1, got {n}", lineno)
            if m < 0:
                raise GraphParseError(f"edge count must be >= 0, got {m}", lineno)
            continue
        if parts[0] != "e" or len(parts) != 3:
            raise GraphParseError(f"expected 'e <u> <v>', got {line!r}", lineno)
        u, v = parse_fields(parts[1:], GraphParseError("edge endpoints must be integers", lineno))
        if u == v:
            raise GraphParseError(f"loop at vertex {u}", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"vertex id out of range [0,{n})", lineno)
        if u > v:
            u, v = v, u  # canonicalized; emission always writes u < v
        if (u, v) in seen:
            raise GraphParseError(f"duplicate edge ({u},{v})", lineno)
        seen.add((u, v))
        edges.append((u, v))
        if len(edges) > m:
            raise GraphParseError(f"more than the declared {m} edges", lineno)
    if n is None:
        raise GraphParseError("empty input, expected header 'p <n> <m>'", 1)
    if len(edges) != m:
        raise GraphParseError(f"declared {m} edges but found {len(edges)}", 1)
    return Graph(n, edges)


@dataclass(frozen=True)
class Bipartition:
    """The two color classes of a bipartite graph."""

    even: frozenset
    odd: frozenset


def bipartition(g: Graph) -> Bipartition:
    """Two-color g by breadth-first traversal, one component at a time.

    Within each component, the class containing the component's lowest-id
    vertex goes to ``even`` provisionally; certification may flip whole
    components to align degrees.  Raises NotBipartiteError with one odd
    closed walk if any component has an odd cycle.
    """
    color = [-1] * g.n
    parent = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in g.neighbors(u):
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    parent[v] = u
                    queue.append(v)
                elif color[v] == color[u]:
                    raise NotBipartiteError(_odd_walk(u, v, parent))
    even = frozenset(v for v in range(g.n) if color[v] == 0)
    odd = frozenset(v for v in range(g.n) if color[v] == 1)
    return Bipartition(even=even, odd=odd)


def _odd_walk(u: int, v: int, parent: Sequence[int]) -> list[int]:
    """Closed odd walk through edge (u,v) via the BFS tree."""

    def path_to_root(x: int) -> list[int]:
        out = [x]
        while parent[out[-1]] != -1:
            out.append(parent[out[-1]])
        return out

    pu = path_to_root(u)
    pv = path_to_root(v)
    anc = set(pu)
    k = 0
    while pv[k] not in anc:
        k += 1
    meet = pv[k]
    up = pu[: pu.index(meet) + 1]  # u .. meet along tree edges
    down = pv[:k][::-1]  # meet's child .. v along tree edges
    return up + down + [u]  # closed by the conflicting edge (v, u)


@dataclass(frozen=True)
class BiregularCert:
    """Certificate that every ``even`` vertex has degree a and every
    ``odd`` vertex degree b.

    The canonical orientation has a >= b; for graphs where both class
    labelings are degree-consistent (complete bipartite graphs, and any
    a = b graph) this pins a deterministic choice.  Neighbor order
    n_1(v) <= ... <= n_deg(v) is ascending by vertex id, via
    ``Graph.neighbors``.
    """

    a: int
    b: int
    even: frozenset
    odd: frozenset
    graph: Graph

    def neighbor_order(self, v: int) -> tuple[int, ...]:
        return self.graph.neighbors(v)

    def swapped(self) -> "BiregularCert":
        """The opposite class labeling; only valid when a == b."""
        if self.a != self.b:
            raise GraphError("orientation swap requires a == b")
        return BiregularCert(self.a, self.b, self.odd, self.even, self.graph)


def certify_biregular(g: Graph, bp: Bipartition) -> BiregularCert:
    """Check (a,b)-biregularity and return the certificate.

    Biregularity must hold globally with a single (a,b) pair; components
    are flipped individually as needed.  Vertices of degree 0 are
    rejected (the bound exponents divide by a).
    """
    if g.num_edges == 0:
        raise NotBiregularError("graph has no edges", (0, 0))
    for v in range(g.n):
        if g.degree(v) == 0:
            raise NotBiregularError(f"vertex {v} has degree 0", (v, v))

    # no vertex is isolated, so both classes of every component are non-empty
    comps = _component_classes(g, bp)
    for side in ("even", "odd"):
        for comp_even, comp_odd in comps:
            cls = comp_even if side == "even" else comp_odd
            degs = sorted((g.degree(v), v) for v in cls)
            if degs[0][0] != degs[-1][0]:
                d0, w0 = degs[0]
                d1, w1 = degs[-1]
                raise NotBiregularError(
                    f"vertices {w0} (degree {d0}) and {w1} (degree {d1}) share a class",
                    (w0, w1),
                )

    first_even, first_odd = comps[0]
    w0 = next(iter(first_even))
    d_even, d_odd = g.degree(w0), g.degree(next(iter(first_odd)))
    a, b = max(d_even, d_odd), min(d_even, d_odd)
    even: set = set()
    odd: set = set()
    for comp_even, comp_odd in comps:
        w1 = next(iter(comp_even))
        degrees = (g.degree(w1), g.degree(next(iter(comp_odd))))
        if degrees == (a, b):
            even |= comp_even
            odd |= comp_odd
        elif degrees == (b, a):
            even |= comp_odd
            odd |= comp_even
        else:
            raise NotBiregularError(
                f"components disagree on the degree pair (witnesses {w0}, {w1})", (w0, w1)
            )
    return BiregularCert(a=a, b=b, even=frozenset(even), odd=frozenset(odd), graph=g)


def _component_classes(g: Graph, bp: Bipartition) -> list[tuple[set, set]]:
    """Each component's two classes, in ``connected_components`` order.

    The sets are filled in visiting order, which fixes the witnesses that
    certify_biregular draws from them.
    """
    return [
        ({v for v in members if v in bp.even}, {v for v in members if v in bp.odd})
        for members in _component_walk(g)
    ]


# Constructors for common graphs.


def complete_bipartite(p: int, q: int) -> Graph:
    """K_{p,q} with one class 0..p-1 and the other p..p+q-1."""
    return Graph(p + q, ((i, p + j) for i in range(p) for j in range(q)))


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return Graph(k, ((i, (i + 1) % k) for i in range(k)))


def path_graph(k: int) -> Graph:
    if k < 2:
        raise GraphError("path needs at least 2 vertices")
    return Graph(k, ((i, i + 1) for i in range(k - 1)))


def complete_graph(k: int) -> Graph:
    return Graph(k, ((i, j) for i in range(k) for j in range(i + 1, k)))


def hypercube_graph(dim: int) -> Graph:
    n = 1 << dim
    edges = []
    for v in range(n):
        for bit in range(dim):
            u = v ^ (1 << bit)
            if v < u:
                edges.append((v, u))
    return Graph(n, edges)


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """Disjoint union, relabeling each part onto a fresh id block."""
    offset = 0
    edges: list[tuple[int, int]] = []
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return Graph(offset, edges)


def _component_walk(g: Graph) -> list[list[int]]:
    """Each component's vertices in depth-first visiting order, components
    ordered by their lowest vertex."""
    seen = [False] * g.n
    out = []
    for root in range(g.n):
        if seen[root]:
            continue
        stack = [root]
        seen[root] = True
        members = []
        while stack:
            u = stack.pop()
            members.append(u)
            for v in g.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        out.append(members)
    return out


def connected_components(g: Graph) -> list[frozenset]:
    return [frozenset(members) for members in _component_walk(g)]


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1
