"""Independent reference implementations used as test oracles.

The oracles are deliberately naive (raw Fractions, full enumeration,
no shared kernels with the package) so the tests check two independent
routes to the same number.  The last few helpers (``are_isomorphic``,
``count_all_block_homs``) are test-only conveniences built on package
kernels, kept here because no package code calls them.
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


def are_isomorphic(g1, g2):
    """Isomorphism of two spinz Graphs by their canonical forms."""
    from spinz.harness import canonical_form

    if g1.n != g2.n or g1.num_edges != g2.num_edges:
        return False
    return canonical_form(g1) == canonical_form(g2)


def count_all_block_homs(g, sub, host, budget=10 ** 8):
    """List-homomorphism count into the sampled subgraph with every vertex
    allowed anywhere in its own host segment (the union of its blocks).
    Needs a full sample, drawn without a configuration."""
    from spinz.counting import contract

    if sub.cfg is not None:
        raise ValueError("the sample holds only the blocks of one configuration")
    sizes = [host.vertex_size[v] for v in range(g.n)]
    factors = [((u, v), sub.keep[(u, v)]) for u, v in g.edges]
    return contract(sizes, factors, budget)


def fraction_sample_weights(g, m, seed, cap=16, allow_zero=False, style="general"):
    """The Fraction reference for ``harness.sample_weights``: the same
    draws, each made a Fraction, put together by ``WeightSystem.build``."""
    import random

    from spinz.weights import WeightSystem

    rng = random.Random(seed)

    def draw():
        value = Fraction(rng.randint(1, cap), rng.randint(1, cap))
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
