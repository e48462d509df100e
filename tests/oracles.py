"""Independent reference implementations used as test oracles.

The oracles are deliberately naive (raw Fractions, full enumeration,
no shared kernels with the package) so the tests check two independent
routes to the same number.  The last few helpers (the blow-up lab's
full sample, ``count_all_block_homs`` and the like) are test-only
conveniences, some built on package kernels, kept here because no
package code calls them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def brute_partition(n, edges, vertex_tables, edge_tables):
    """Sum over all spin maps of the product of vertex and edge weights.

    vertex_tables[v][i] and edge_tables[(u,v)][i][j] are Fractions with
    0-based spins; edge keys are canonical (u < v).
    """
    m = len(vertex_tables[0])
    total = Fraction(0)
    for cfg in itertools.product(range(m), repeat=n):
        acc = Fraction(1)
        for v in range(n):
            acc *= vertex_tables[v][cfg[v]]
        for (u, v) in edges:
            acc *= edge_tables[(u, v)][cfg[u]][cfg[v]]
        total += acc
    return total


def independent_sets(n, edges):
    """All independent sets, by subset enumeration."""
    out = []
    for bits in itertools.product((0, 1), repeat=n):
        if any(bits[u] and bits[v] for (u, v) in edges):
            continue
        out.append(frozenset(v for v in range(n) if bits[v]))
    return out


def weighted_independent_set_sum(n, edges, activities):
    total = Fraction(0)
    for ind in independent_sets(n, edges):
        acc = Fraction(1)
        for v in ind:
            acc *= activities[v]
        total += acc
    return total


def ising_cycle_z(k, beta):
    """Transfer-matrix partition function of the zero-field two-spin model
    on the k-cycle: tr(T^k) with T = [[e^-b, e^b], [e^b, e^-b]]."""
    lam1 = math.exp(-beta) + math.exp(beta)
    lam2 = math.exp(-beta) - math.exp(beta)
    return lam1 ** k + lam2 ** k


def ising_brute_log_z(n, edges, beta, h):
    """Direct enumeration of the two-spin model in plain floats."""
    total = 0.0
    for sigma in itertools.product((1, -1), repeat=n):
        energy = -beta * sum(sigma[u] * sigma[v] for (u, v) in edges)
        energy += h * sum(sigma)
        total += math.exp(energy)
    return math.log(total)


def brute_list_homs(g_n, g_edges, h_n, h_edges, lists):
    """Count list homomorphisms by enumerating all maps."""
    h_set = {(u, v) for (u, v) in h_edges} | {(v, u) for (u, v) in h_edges}
    count = 0
    for f in itertools.product(*(lists[v] for v in range(g_n))):
        if all((f[u], f[v]) in h_set for (u, v) in g_edges):
            count += 1
    return count


def _text_records(text):
    return [line.split() for line in text.splitlines() if line.strip() and not line.startswith("#")]


def _graph_of_text(text):
    """(n, edges u < v) from a graph file's text: ``p n m``, then ``e u v``."""
    n, edges = 0, []
    for rec in _text_records(text):
        if rec[0] == "p":
            n = int(rec[1])
        else:
            edges.append(tuple(sorted((int(rec[1]), int(rec[2])))))
    return n, edges


def witness_verdict(payload):
    """The verdict of a serialized conj1 or conj2 witness, decided from its
    texts alone: ``VIOLATED`` when Z^L > prod_uv Z_uv^(L / d(u)d(v)), with
    L the lcm of the d(u)d(v), else ``HOLDS``.  Z_uv sums K_{d(u),d(v)}
    whose sides carry the rows of N(v) and of N(u) and whose every edge
    carries uv's table.  conj1 reads the weight file text; conj2's rows
    are the lists' indicators and its table is the target's adjacency.
    Every sum is ``brute_partition``'s full enumeration."""
    n, edges = _graph_of_text(payload["graph"])
    if payload["bound"] == "conj1":
        head, *records = _text_records(payload["weights"])  # head: m M
        m = int(head[1])
        rows = [[Fraction(0)] * m for _ in range(n)]
        tables = {e: [[Fraction(0)] * m for _ in range(m)] for e in edges}
        for rec in records:  # vw v i x, or ew u v i j x (1-based spins, i <= j)
            if rec[0] == "vw":
                rows[int(rec[1])][int(rec[2]) - 1] = Fraction(rec[3])
            else:
                i, j = int(rec[3]) - 1, int(rec[4]) - 1
                table = tables[int(rec[1]), int(rec[2])]
                table[i][j] = table[j][i] = Fraction(rec[5])
    else:
        k, target_edges = _graph_of_text(payload["target"])
        adjacency = [[int((min(x, y), max(x, y)) in target_edges) for y in range(k)]
                     for x in range(k)]
        named = {int(rec[1]): {int(y) for y in rec[2:]} for rec in _text_records(payload["lists"])}
        rows = [[int(y in named[v]) for y in range(k)] for v in range(n)]
        tables = dict.fromkeys(edges, adjacency)
    nbrs = [sorted(w if u == v else u for u, w in edges if v in (u, w)) for v in range(n)]
    exponents = {(u, v): len(nbrs[u]) * len(nbrs[v]) for u, v in edges}
    power = math.lcm(*exponents.values())
    rhs = Fraction(1)
    for (u, v), d in exponents.items():
        side = nbrs[v] + nbrs[u]
        kab = [(i, j) for i in range(len(nbrs[v])) for j in range(len(nbrs[v]), len(side))]
        z = brute_partition(
            len(side), kab, [rows[x] for x in side], dict.fromkeys(kab, tables[u, v])
        )
        rhs *= z ** (power // d)
    lhs = brute_partition(n, edges, rows, tables) ** power
    return "VIOLATED" if lhs > rhs else "HOLDS"


def weighted_two_sided_hom_sum(g_n, g_edges, even, odd, h_n, h_edges, lam, mu):
    """Sum over homomorphisms into h of prod_{v even} lam[f(v)] *
    prod_{v odd} mu[f(v)]."""
    h_set = {(u, v) for (u, v) in h_edges} | {(v, u) for (u, v) in h_edges}
    total = Fraction(0)
    for f in itertools.product(range(h_n), repeat=g_n):
        if not all((f[u], f[v]) in h_set for (u, v) in g_edges):
            continue
        acc = Fraction(1)
        for v in range(g_n):
            acc *= lam[f[v]] if v in even else mu[f[v]]
        total += acc
    return total


def isomorphic_brute(n1, edges1, n2, edges2):
    """Isomorphism test by trying all vertex bijections; fine for n <= 7."""
    if n1 != n2 or len(edges1) != len(edges2):
        return False
    e2 = {tuple(sorted(e)) for e in edges2}
    for perm in itertools.permutations(range(n1)):
        if all(tuple(sorted((perm[u], perm[v]))) in e2 for (u, v) in edges1):
            return True
    return False


def block_homs_brute(g_n, g_edges, blocks, keep):
    """Count maps choosing one host vertex per base vertex from its block,
    with every base edge surviving; `keep[(u,v)][x][y]` indexes host
    vertices inside the full vertex segments.

    blocks[v] is the range of in-segment indices allowed at v.
    """
    count = 0
    for choice in itertools.product(*(blocks[v] for v in range(g_n))):
        ok = True
        for (u, v) in g_edges:
            if not keep[(u, v)][choice[u]][choice[v]]:
                ok = False
                break
        if ok:
            count += 1
    return count


def c4_torus_independent_sets(n):
    """Independent sets of C_4 x C_n (n >= 3) by transfer matrix: the states
    are the 7 independent sets of one C_4 column, T[s][t] = 1 when columns
    s and t share no row, and the count is tr(T^n)."""
    column = [
        s for s in range(16) if not any(s >> i & 1 and s >> (i + 1) % 4 & 1 for i in range(4))
    ]
    t = [[int(not s & u) for u in column] for s in column]
    power = [[int(i == j) for j in range(len(column))] for i in range(len(column))]
    for _ in range(n):
        power = [
            [sum(row[k] * t[k][j] for k in range(len(column))) for j in range(len(column))]
            for row in power
        ]
    return sum(power[i][i] for i in range(len(column)))


def canonical_masks_per_bit(n, masks):
    """Minimum edge bitmask over all n! vertex permutations, moving one
    edge bit at a time; masks is an int64 array over the pairs i < j in
    lexicographic order."""
    import numpy as np

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {p: k for k, p in enumerate(pairs)}
    best = None
    for perm in itertools.permutations(range(n)):
        out = np.zeros_like(masks)
        for e, (i, j) in enumerate(pairs):
            target = index[tuple(sorted((perm[i], perm[j])))]
            out |= ((masks >> e) & 1) << target
        best = out if best is None else np.minimum(best, out)
    return best


def fraction_weight_tables(n, m, edges, vertex, edge):
    """Full per-entry Fraction tables from ``WeightSystem.build``'s
    arguments: rows[v][i] and tables[(u, v)][i][j] with 0-based spins,
    omitted entries 1, each edge entry written to both (i, j) and (j, i)."""
    rows = [[Fraction(1)] * m for _ in range(n)]
    for (v, i), x in vertex.items():
        rows[v][i - 1] = Fraction(x)
    tables = {e: [[Fraction(1)] * m for _ in range(m)] for e in edges}
    for (u, v, i, j), x in edge.items():
        table = tables[(min(u, v), max(u, v))]
        table[i - 1][j - 1] = table[j - 1][i - 1] = Fraction(x)
    return rows, tables


def clear_fractions(fracs):
    """Fractions as integers over the lcm of their denominators:
    (entries, lcm, largest entry)."""
    den = math.lcm(*(f.denominator for f in fracs))
    ints = tuple(f.numerator * (den // f.denominator) for f in fracs)
    return ints, den, max(ints)


def weights_file_text(m, rows, tables):
    """The weight file with every entry written, one Fraction at a time."""

    def fmt(x):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    lines = [f"m {m}"]
    for v, row in enumerate(rows):
        lines += [f"vw {v} {i + 1} {fmt(x)}" for i, x in enumerate(row)]
    for u, w in sorted(tables):
        for i in range(m):
            lines += [f"ew {u} {w} {i + 1} {j + 1} {fmt(tables[(u, w)][i][j])}" for j in range(i, m)]
    return "\n".join(lines) + "\n"


def backtrack_list_homs(g, h, lists):
    """List homomorphisms g -> h by backtracking: choose the vertex with
    the fewest candidates left, filter its neighbours' candidates on each
    choice.  g and h are spinz Graphs, lists[v] the allowed targets."""
    hadj = [frozenset(h.neighbors(x)) for x in range(h.n)]

    def recurse(domains, remaining):
        if not remaining:
            return 1
        v = min(remaining, key=lambda u: (len(domains[u]), u))
        rest = remaining - {v}
        nbrs = [u for u in g.neighbors(v) if u in rest]
        total = 0
        for y in domains[v]:
            pruned = dict(domains)
            for u in nbrs:
                pruned[u] = [z for z in pruned[u] if z in hadj[y]]
                if not pruned[u]:
                    break
            else:
                total += recurse(pruned, rest)
        return total

    return recurse({v: list(lists[v]) for v in range(g.n)}, frozenset(range(g.n)))


def count_extensions(g, h, lists, A, B, x):
    """Number of list-respecting maps on B compatible with the partial map
    x on A across A-B edges: a product of per-vertex candidate counts."""
    a_set = set(A)
    for u in a_set:
        if u not in x:
            raise ValueError(f"partial map is undefined on vertex {u}")
        if x[u] not in lists[u]:
            raise ValueError(f"partial map value {x[u]} violates the list of vertex {u}")
    total = 1
    for v in sorted(set(B)):
        anchored = [u for u in g.neighbors(v) if u in a_set]
        total *= sum(1 for y in lists[v] if all(h.has_edge(y, x[u]) for u in anchored))
    return total


def cover_sum_by_enumeration(g, h, lists, A, B, exponent):
    """Sum over every list-respecting map x on A of count_extensions ** exponent:
    an exact integer for an integer exponent, else the log of the float sum."""
    a_sorted = sorted(A)
    counts = [
        count_extensions(g, h, lists, a_sorted, B, dict(zip(a_sorted, combo)))
        for combo in itertools.product(*(lists[v] for v in a_sorted))
    ]
    if exponent.denominator == 1:
        return sum(c ** exponent.numerator for c in counts)
    logs = [float(exponent) * math.log(c) for c in counts if c]
    if not logs:
        return float("-inf")
    top = max(logs)
    return top + math.log(sum(math.exp(x - top) for x in logs))


def _log_fraction(x):
    return math.log(x.numerator) - math.log(x.denominator)


def weighted_cover_sum_log(g, w, A, B, exponent):
    """log of the sum over the spin maps x on A of prod_{u in A} r_u(x_u) *
    prod_{v in B} c_v(x) ** exponent, where c_v(x) = sum_s r_v(s) prod_{u in
    N(v) & A} T_uv(x_u, s), by enumeration over the Fractions of the EXACT
    system w; -inf when the sum is zero."""
    a_sorted, spins = sorted(A), range(1, w.m + 1)
    logs = []
    for combo in itertools.product(spins, repeat=len(a_sorted)):
        x = dict(zip(a_sorted, combo))
        head = math.prod(w.vertex_weight(u, s).fraction for u, s in x.items())
        cs = [
            sum(w.vertex_weight(v, s).fraction
                * math.prod(w.edge_weight(u, v, x[u], s).fraction for u in g.neighbors(v) if u in x)
                for s in spins)
            for v in sorted(B)
        ]
        if head and all(cs):
            logs.append(_log_fraction(head) + float(exponent) * sum(map(_log_fraction, cs)))
    if not logs:
        return float("-inf")
    top = max(logs)
    return top + math.log(sum(math.exp(x - top) for x in logs))


def value_zero(backend):
    """The zero NonNegValue of a backend."""
    from spinz.values import Backend, NonNegValue

    return NonNegValue.exact(0) if backend is Backend.EXACT else NonNegValue.from_log(float("-inf"))


def value_power(value, k):
    """value ** k for a NonNegValue and an integer k >= 0, with 0 ** 0 = 1."""
    from spinz.values import NonNegValue

    if value.backend.value == "exact":
        return NonNegValue.exact(value.fraction ** k)
    return NonNegValue.from_log(0.0 if k == 0 else value.log() * k)


def scale_vertex_weights(w, v, c):
    """The EXACT system w with every spin weight at vertex v multiplied by
    the positive rational c, rebuilt from Fractions."""
    c = Fraction(c)
    if c <= 0:
        raise ValueError("scale must be positive")
    entries, den, _ = w.cleared()[0][v]
    return with_vertex_row(w, v, [Fraction(x, den) * c for x in entries])


def with_vertex_row(w, v, row):
    """The EXACT system w with vertex v's spin weights replaced by the
    rationals in row, rebuilt from Fractions."""
    from spinz.graphs import Graph
    from spinz.weights import WeightSystem

    rows, tables = w.cleared()
    vertex = {
        (u, i + 1): Fraction(row[i]) if u == v else Fraction(x, den)
        for u, (entries, den, _) in enumerate(rows)
        for i, x in enumerate(entries)
    }
    edge = {
        (p, q, i + 1, j + 1): Fraction(entries[i][j], den)
        for (p, q), (entries, den, _) in tables.items()
        for i in range(w.m)
        for j in range(i, w.m)
    }
    return WeightSystem.build(Graph(w.n, list(tables)), w.m, vertex, edge)


def lists_for_vertex(lists, cert, v):
    """The lists induced on K_{a,b} (w side 0..b-1, z side b..b+a-1)
    around odd vertex v: w-side vertex k gets L(n_k(v)), every z-side
    vertex L(v)."""
    from spinz.counting import ListAssignment

    nbrs = cert.neighbor_order(v)
    return ListAssignment(cert.a + cert.b, [lists[u] for u in nbrs] + [lists[v]] * cert.a)


def kab_system(w, a, b, rows, sources):
    """(K_{a,b}, weights) with w side 0..b-1 and z side b..b+a-1: vertex k
    carries the spin weights of w's vertex rows[k], and every edge at
    w-side vertex k the table of w's edge sources[k].  Built entry by
    entry from w's values; tables are symmetric, so an edge's orientation
    does not matter."""
    from spinz.graphs import complete_bipartite
    from spinz.values import Backend
    from spinz.weights import WeightSystem

    kab, spins = complete_bipartite(b, a), range(1, w.m + 1)
    vertex = [[w.vertex_weight(x, i) for i in spins] for x in rows]
    edge = {(k, z): [[w.edge_weight(*sources[k], i, j) for j in spins] for i in spins]
            for k, z in kab.edges}
    if w.backend is Backend.LOG:
        logs = {e: tuple(tuple(x.log() for x in r) for r in t) for e, t in edge.items()}
        return kab, WeightSystem(w.m, a + b, Backend.LOG, [tuple(x.log() for x in r) for r in vertex], logs)
    return kab, WeightSystem.build(
        kab, w.m,
        {(k, i): x.fraction for k, r in enumerate(vertex) for i, x in enumerate(r, start=1)},
        {(k, z, i, j): t[i - 1][j - 1].fraction for (k, z), t in edge.items() for i in spins
         for j in spins if i <= j},
    )


def kab_around(w, cert, v):
    """(K_{a,b}, weights) induced by the closed neighbourhood of the odd
    (degree-b) vertex v: w-side vertex k is v's k-th neighbour n_k, every
    z-side vertex a copy of v, and every edge at n_k the table of n_k v."""
    nbrs = cert.neighbor_order(v)
    return kab_system(w, cert.a, cert.b, [*nbrs, *[v] * cert.a], [(u, v) for u in nbrs])


def kab_on_edge(g, w, u, v):
    """(K_{d(u),d(v)}, weights) induced by the edge uv of a system whose
    edges share one table: the w side copies N(v), the z side N(u), and
    every edge carries the shared table."""
    rows = [*g.neighbors(v), *g.neighbors(u)]
    return kab_system(w, g.degree(u), g.degree(v), rows, [(u, v)] * g.degree(v))


def lists_for_edge(g, lists, u, v):
    """The lists induced on K_{d(u),d(v)} by the edge uv: w-side vertex j
    gets L(n_j(v)), z-side vertex j L(n_j(u))."""
    from spinz.counting import ListAssignment

    rows = [lists[x] for x in g.neighbors(v) + g.neighbors(u)]
    return ListAssignment(len(rows), rows)


def brute_factor_sum(sizes, factors, log=False):
    """Sum over every assignment of the variables (x ranges over
    range(sizes[x])) of the product of the factor tables, each factor a
    (variables, nested table) pair.  Exact on Python ints; with log=True
    the tables hold natural logs (-inf for zero) and the result is the
    log of the sum, from every term's log at once."""
    terms = []
    for cfg in itertools.product(*map(range, sizes)):
        acc = 0.0 if log else 1
        for scope, table in factors:
            for x in scope:
                table = table[cfg[x]]
            acc = acc + table if log else acc * table
        terms.append(acc)
    if not log:
        return sum(terms)
    top = max(terms, default=float("-inf"))
    if top == float("-inf"):
        return top
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def lse_pair(a, b):
    """log(e^a + e^b), stable, with -inf as the additive zero."""
    if a == float("-inf"):
        return b
    if b == float("-inf"):
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def with_list(lists, v, targets):
    """The ListAssignment lists with vertex v's list replaced by targets."""
    from spinz.counting import ListAssignment

    rows = [targets if u == v else row for u, row in enumerate(lists.lists)]
    return ListAssignment(lists.n, rows)


def relabel(g, perm):
    """The image of the spinz Graph g under the vertex map v -> perm[v]."""
    from spinz.graphs import Graph

    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def is_complete_bipartite(g):
    """True when the spinz Graph g is K_{p,q} with p, q >= 1: some split of
    the vertices has every cross pair an edge and no edge inside a side."""
    for bits in itertools.product((0, 1), repeat=g.n):
        sides = [{v for v in range(g.n) if bits[v] == s} for s in (0, 1)]
        cross = {(u, v) for u in sides[0] for v in sides[1]}
        if all(sides) and {tuple(sorted(e)) for e in cross} == set(g.edges):
            return True
    return False


def list_vertex_restriction_rhs(g, h, lists, cert):
    """The thm4 right side for one class orientation, each factor by the
    backtracker: over every degree-b vertex v, the list-homomorphism count
    of K_{a,b} -> h under the lists around v, to the 1/a."""
    from spinz.graphs import complete_bipartite
    from spinz.values import NonNegValue, PowerProduct

    # complete_bipartite(b, a) numbers its b vertices first, as lists_for_vertex does
    kab = complete_bipartite(cert.b, cert.a)
    return PowerProduct(
        tuple(
            (
                NonNegValue.exact(backtrack_list_homs(kab, h, lists_for_vertex(lists, cert, v))),
                Fraction(1, cert.a),
            )
            for v in sorted(cert.odd)
        )
    )


class ValueSum:
    """Streaming sum of NonNegValues.

    EXACT accumulates rationals.  LOG keeps a running maximum and the sum
    of exponentials relative to it, so terms spanning hundreds of orders
    of magnitude accumulate without overflow.
    """

    def __init__(self, backend):
        self.backend = backend
        self._frac = Fraction(0)
        self._max = float("-inf")
        self._acc = 0.0

    def add(self, value) -> None:
        from spinz.values import Backend

        if value.backend is not self.backend:
            raise TypeError("backend mismatch in sum")
        if self.backend is Backend.EXACT:
            self._frac += value.fraction
            return
        x = value.log()
        if x == float("-inf"):
            return
        if x <= self._max:
            self._acc += math.exp(x - self._max)
        else:
            self._acc = self._acc * math.exp(self._max - x) + 1.0
            self._max = x

    def total(self):
        from spinz.values import Backend, NonNegValue

        if self.backend is Backend.EXACT:
            return NonNegValue.exact(self._frac)
        if self._max == float("-inf") or self._acc == 0.0:
            return NonNegValue.from_log(float("-inf"))
        return NonNegValue.from_log(self._max + math.log(self._acc))


def partition_brute(g, w, budget=10 ** 8):
    """Sum of configuration weights over all m^n assignments, by direct
    enumeration in lexicographic order: the reference every faster
    kernel is tested against.  The budget bounds m^n."""
    from spinz.counting import BudgetError, weight_of

    cost = w.m ** g.n
    if cost > budget:
        raise BudgetError(cost, budget)
    total = ValueSum(w.backend)
    for cfg in itertools.product(range(1, w.m + 1), repeat=g.n):
        total.add(weight_of(g, w, cfg))
    return total.total()


def exhaustive_canonical_form(g):
    """The reference for ``harness.canonical_form``: the same key, the
    minimum edge tuple over every individualization-refinement leaf,
    with no automorphism pruning, so it visits every leaf.

    Refinement splits cells by neighbor counts per cell; when it stalls,
    every vertex of the first non-singleton cell is individualized in
    turn and all branches are explored.
    """
    n = g.n
    best = []

    def refine(cells):
        while True:
            index = {}
            for ci, cell in enumerate(cells):
                for v in cell:
                    index[v] = ci
            new_cells = []
            changed = False
            for cell in cells:
                if len(cell) == 1:
                    new_cells.append(cell)
                    continue
                sig = {}
                for v in cell:
                    counts = [0] * len(cells)
                    for u in g.neighbors(v):
                        counts[index[u]] += 1
                    sig.setdefault(tuple(counts), []).append(v)
                if len(sig) == 1:
                    new_cells.append(cell)
                else:
                    changed = True
                    for key in sorted(sig):
                        new_cells.append(tuple(sorted(sig[key])))
            cells = new_cells
            if not changed:
                return cells

    def descend(cells):
        cells = refine(cells)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            order = [v for cell in cells for v in cell]
            rank = {v: i for i, v in enumerate(order)}
            edges = tuple(
                sorted((min(rank[u], rank[v]), max(rank[u], rank[v])) for u, v in g.edges)
            )
            if not best or edges < best[0]:
                best[:] = [edges]
            return
        cell = cells[target]
        for v in cell:
            rest = tuple(u for u in cell if u != v)
            descend(cells[:target] + [(v,), rest] + cells[target + 1 :])

    descend([tuple(range(n))])
    return (n, best[0])


def are_isomorphic(g1, g2):
    """Isomorphism of two spinz Graphs by their exhaustive canonical forms."""
    if g1.n != g2.n or g1.num_edges != g2.num_edges:
        return False
    return exhaustive_canonical_form(g1) == exhaustive_canonical_form(g2)


def draw_rational(rng, cap):
    """The ``random.randint`` reference for ``harness.sample_weights``'
    draws: numerator and denominator independently uniform on 1..cap."""
    return rng.randint(1, cap), rng.randint(1, cap)


def block_slice(host, v, spin):
    """The block of ``spin`` inside base vertex v's segment of the whole
    host, where each vertex's blocks follow one another in spin order."""
    offset = sum(host.block_size[v][: spin - 1])
    return slice(offset, offset + host.block_size[v][spin - 1])


def full_sample(host, seed):
    """The sample of the whole host that ``blowup.sample_subgraph``'s
    streams define: per base edge, the survival matrix over the two vertex
    segments, its block pair (i, j) over the e-th edge drawn by a fresh
    Philox generator at counter (0, e, i, j) under the trial's key.  A
    namespace holding ``keep`` and ``cfg`` None (no configuration)."""
    from types import SimpleNamespace

    import numpy as np

    from spinz.util import derive_key128

    key = np.array(derive_key128("blowup-edges", seed), dtype=np.uint64)
    spins = range(1, host.weights.m + 1)
    keep = {}
    for e, (u, v) in enumerate(host.graph.edges):
        rows = []
        for i in spins:
            row = []
            for j in spins:
                counter = np.array([0, e, i, j], dtype=np.uint64)
                rng = np.random.Generator(np.random.Philox(key=key, counter=counter))
                shape = (host.block_size[u][i - 1], host.block_size[v][j - 1])
                row.append(rng.random(shape) < float(host.weights.edge_weight(u, v, i, j).fraction))
            rows.append(row)
        keep[(u, v)] = np.block(rows)
    return SimpleNamespace(keep=keep, cfg=None)


def full_sample_block_homs(g, full, host, cfg, budget=10 ** 8):
    """``count_block_homs`` on a full sample: the configured blocks sliced
    out of each edge's matrix."""
    from spinz.counting import contract

    sizes = [host.block_size[v][cfg[v] - 1] for v in range(g.n)]
    factors = [
        ((u, v), full.keep[(u, v)][block_slice(host, u, cfg[u]), block_slice(host, v, cfg[v])])
        for u, v in g.edges
    ]
    return contract(sizes, factors, budget)


def count_all_block_homs(g, sub, host, budget=10 ** 8):
    """List-homomorphism count into the sampled subgraph with every vertex
    allowed anywhere in its own host segment (the union of its blocks).
    Needs a full sample (``full_sample``), drawn without a configuration."""
    from spinz.counting import contract

    if sub.cfg is not None:
        raise ValueError("the sample holds only the blocks of one configuration")
    sizes = [sum(host.block_size[v]) for v in range(g.n)]
    factors = [((u, v), sub.keep[(u, v)]) for u, v in g.edges]
    return contract(sizes, factors, budget)


def fraction_sample_weights(g, m, seed, cap=16, allow_zero=False, style="general"):
    """The Fraction reference for ``harness.sample_weights``: the same
    draws, each made a Fraction, put together by ``WeightSystem.build``."""
    import random

    from spinz.weights import WeightSystem

    rng = random.Random(seed)

    def draw():
        value = Fraction(*draw_rational(rng, cap))
        if allow_zero and rng.random() < 0.125:
            value = Fraction(0)
        return value

    if style == "hardcore":  # make_hardcore's system: spin 1 is in the set, 1-1 edges weigh 0
        vertex = {(v, 1): draw() for v in g.vertices()}
        return WeightSystem.build(g, 2, vertex, {(u, v, 1, 1): 0 for u, v in g.edges})
    vertex = {(v, i): draw() for v in g.vertices() for i in range(1, m + 1)}
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i, m + 1)]
    if style == "uniform_edge":
        table = {ij: draw() for ij in pairs}
        edge = {(u, v, i, j): table[i, j] for u, v in g.edges for i, j in pairs}
    else:
        edge = {(u, v, i, j): draw() for u, v in g.edges for i, j in pairs}
    return WeightSystem.build(g, m, vertex, edge)
