"""Upper bounds on partition functions and homomorphism counts.

Every bound here compares a globally computed quantity (the left side)
against a product of locally restricted complete-bipartite quantities
raised to rational powers (the right side).  EXACT-backend verdicts are
decided in rational arithmetic by clearing exponent denominators; a
VIOLATED verdict is only ever produced on that path.  LOG-backend
apparent violations are reported INCONCLUSIVE, never VIOLATED.

Registered bound names (the CLI and campaign tokens):

    thm3     per-vertex restriction bound for (a,b)-biregular weighted systems
    thm4     per-vertex restriction bound for list homomorphism counts
    thm5     covering-family bound for list homomorphism counts
    conj1    per-edge restriction bound for weighted systems (conjectured)
    conj2    per-edge restriction bound for list homomorphism counts (conjectured)
    ind      independent sets of regular bipartite graphs
    indconj  per-edge independent-set bound for arbitrary graphs (conjectured)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .counting import (
    DEFAULT_BUDGET,
    CoverFamilyPair,
    ListAssignment,
    count_extensions,
    count_list_homs,
    independent_set_count,
    partition_function,
    partition_kab,
)
from .graphs import BiregularCert, Graph, GraphError, bipartition, certify_biregular
from .util import parallel_map, sha256_text
from .values import (
    NEG_INF,
    Backend,
    NonNegValue,
    PowerProduct,
    ValueSum,
    compare_product,
    compare_value_vs_product,
)
from .weights import WeightSystem, _kab_layout, make_ising, restrict_to_edge, restrict_to_kab

LOG_REL_TOL = 1e-9

BOUND_NAMES = ("thm3", "thm4", "thm5", "conj1", "conj2", "ind", "indconj")


class Verdict(str, Enum):
    HOLDS = "HOLDS"
    VIOLATED = "VIOLATED"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class BoundReport:
    """One evaluated inequality instance: left side, right side, verdict."""

    bound: str
    backend: Backend
    verdict: Verdict
    lhs: NonNegValue
    rhs: PowerProduct
    log_slack: float
    graph_sha: str
    weights_sha: str

    @property
    def lhs_log(self) -> float:
        return self.lhs.log()

    @property
    def rhs_log(self) -> float:
        return self.rhs.log()

    def to_json_dict(self) -> dict:
        doc = {
            "bound": self.bound,
            "backend": self.backend.value,
            "verdict": self.verdict.value,
            "lhs_log": self.lhs_log,
            "rhs_log": self.rhs_log,
            "log_slack": self.log_slack,
            "graph_sha": self.graph_sha,
            "weights_sha": self.weights_sha,
        }
        if self.backend is Backend.EXACT:
            lf = self.lhs.fraction
            doc["lhs"] = {"num": str(lf.numerator), "den": str(lf.denominator)}
            doc["rhs_factors"] = [
                {
                    "num": str(v.fraction.numerator),
                    "den": str(v.fraction.denominator),
                    "exp_num": e.numerator,
                    "exp_den": e.denominator,
                }
                for v, e in self.rhs.factors
            ]
        return doc


def finish_report(
    bound: str,
    lhs: NonNegValue,
    rhs: PowerProduct,
    graph_sha: str,
    weights_sha: str,
) -> BoundReport:
    """Compare lhs against rhs and package the verdict.

    EXACT: the comparison clears fractional exponents and runs in integer
    arithmetic; an exact tie reports log_slack == 0.0 literally.  LOG:
    holds when lhs <= rhs * (1 + 1e-9); anything beyond that tolerance is
    INCONCLUSIVE because float evidence cannot certify a violation.
    """
    backend = lhs.backend
    if rhs.factors and rhs.backend is not backend:
        raise TypeError("lhs and rhs backends differ")
    lhs_log = lhs.log()
    rhs_log = rhs.log()
    if lhs_log == NEG_INF and rhs_log == NEG_INF:
        slack = 0.0
    else:
        slack = rhs_log - lhs_log
    if backend is Backend.EXACT:
        cmp = compare_value_vs_product(lhs, rhs)
        if cmp == 0:
            slack = 0.0
        verdict = Verdict.HOLDS if cmp <= 0 else Verdict.VIOLATED
    else:
        holds = lhs_log <= rhs_log + math.log1p(LOG_REL_TOL) or (
            lhs_log == NEG_INF
        )
        verdict = Verdict.HOLDS if holds else Verdict.INCONCLUSIVE
    return BoundReport(
        bound=bound,
        backend=backend,
        verdict=verdict,
        lhs=lhs,
        rhs=rhs,
        log_slack=slack,
        graph_sha=graph_sha,
        weights_sha=weights_sha,
    )


def _smaller_product(p: PowerProduct, q: PowerProduct) -> PowerProduct:
    if p.backend is Backend.EXACT:
        return p if compare_product(p.factors, q.factors) <= 0 else q
    return p if p.log() <= q.log() else q


def _certify(g: Graph) -> BiregularCert:
    return certify_biregular(g, bipartition(g))


def vertex_restriction_bound(
    g: Graph,
    w: WeightSystem,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> BoundReport:
    """Bound the partition function of an (a,b)-biregular system by the
    product over the degree-b class of restricted K_{a,b} partition
    functions, each raised to 1/a.

    When a == b both class orientations are certified upper bounds; the
    smaller right side is reported.
    """
    cert = _certify(g)
    lhs = partition_function(g, w, budget)

    def rhs_for(c: BiregularCert) -> PowerProduct:
        odd = sorted(c.odd)
        factors = parallel_map(
            lambda v: partition_kab(restrict_to_kab(g, w, c, v), budget), odd, threads
        )
        return PowerProduct(tuple((z, Fraction(1, c.a)) for z in factors))

    rhs = rhs_for(cert)
    if cert.a == cert.b:
        rhs = _smaller_product(rhs, rhs_for(cert.swapped()))
    return finish_report("thm3", lhs, rhs, g.sha(), w.sha())


def lists_for_vertex(lists: ListAssignment, cert: BiregularCert, v: int) -> ListAssignment:
    """The list set induced on K_{a,b} around v: every degree-b vertex
    gets L(v), and degree-a vertex k gets L(n_k(v))."""
    if v not in cert.odd:
        raise GraphError(f"vertex {v} is not in the odd (degree-{cert.b}) class")
    a, b = cert.a, cert.b
    _, w_ids, z_ids = _kab_layout(a, b)
    rows: dict[int, tuple[int, ...]] = {}
    for k, u in enumerate(cert.neighbor_order(v)):
        rows[w_ids[k]] = lists[u]
    for z in z_ids:
        rows[z] = lists[v]
    return ListAssignment(a + b, rows)


def _hom_instance_sha(h: Graph, lists: ListAssignment) -> str:
    return sha256_text(h.to_text() + lists.to_text())


def list_vertex_restriction_rhs(
    g: Graph,
    h: Graph,
    lists: ListAssignment,
    cert: BiregularCert,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> PowerProduct:
    """The per-vertex product for one fixed class orientation: over every
    degree-b vertex, the K_{a,b} list-homomorphism count to the 1/a."""
    kab, _, _ = _kab_layout(cert.a, cert.b)
    odd = sorted(cert.odd)
    counts = parallel_map(
        lambda v: count_list_homs(kab, h, lists_for_vertex(lists, cert, v), budget),
        odd,
        threads,
    )
    return PowerProduct(
        tuple((NonNegValue.exact(k), Fraction(1, cert.a)) for k in counts)
    )


def list_vertex_restriction_bound(
    g: Graph,
    h: Graph,
    lists: ListAssignment | None = None,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> BoundReport:
    """Bound the list-homomorphism count of an (a,b)-biregular graph by
    the product over the degree-b class of K_{a,b} list-homomorphism
    counts, each raised to 1/a.  Always exact integer arithmetic."""
    cert = _certify(g)
    if lists is None:
        lists = ListAssignment.full(g, h)
    lists.validate_against(h)
    lhs_count = count_list_homs(g, h, lists, budget)
    rhs = list_vertex_restriction_rhs(g, h, lists, cert, budget, threads)
    if cert.a == cert.b:
        rhs = _smaller_product(
            rhs, list_vertex_restriction_rhs(g, h, lists, cert.swapped(), budget, threads)
        )
    return finish_report(
        "thm4", NonNegValue.exact(lhs_count), rhs, g.sha(), _hom_instance_sha(h, lists)
    )


def cover_family_value(
    g: Graph,
    h: Graph,
    lists: ListAssignment,
    fam: CoverFamilyPair,
    budget: int = DEFAULT_BUDGET,
) -> PowerProduct:
    """The covering-family upper bound on the list-homomorphism count:

        prod_i ( sum_{x in prod_{v in A_i} L(v)} |C^x(A_i, B_i)|^(t1/t2) )^(1/t1)

    Exact when t2 divides t1 (integer inner exponents); otherwise the
    inner sums are accumulated in the log backend.
    """
    bp = bipartition(g)
    fam.validate(bp)
    lists.validate_against(h)
    exact = fam.t1 % fam.t2 == 0
    exponent = Fraction(fam.t1, fam.t2)
    factors = []
    for a_i, b_i in fam.pairs:
        a_sorted = sorted(a_i)
        cost = 1
        for v in a_sorted:
            cost *= max(len(lists[v]), 1)
        if cost > budget:
            raise ValueError(
                f"enumerating {cost} partial maps on one cover set exceeds budget {budget}"
            )
        if exact:
            e = fam.t1 // fam.t2
            total = 0
            for combo in itertools.product(*(lists[v] for v in a_sorted)):
                x = dict(zip(a_sorted, combo))
                total += count_extensions(g, h, lists, a_sorted, b_i, x) ** e
            factors.append(NonNegValue.exact(total))
        else:
            acc = ValueSum(Backend.LOG)
            for combo in itertools.product(*(lists[v] for v in a_sorted)):
                x = dict(zip(a_sorted, combo))
                c = count_extensions(g, h, lists, a_sorted, b_i, x)
                if c:
                    acc.add_log(float(exponent) * math.log(c))
            factors.append(acc.total())
    return PowerProduct(tuple((f, Fraction(1, fam.t1)) for f in factors))


def cover_family_report(
    g: Graph,
    h: Graph,
    lists: ListAssignment,
    fam: CoverFamilyPair,
    budget: int = DEFAULT_BUDGET,
) -> BoundReport:
    """Compare the list-homomorphism count against the covering-family value."""
    rhs = cover_family_value(g, h, lists, fam, budget)
    lhs = NonNegValue.exact(count_list_homs(g, h, lists, budget))
    if rhs.backend is Backend.LOG:
        lhs = lhs.to_log()
    return finish_report("thm5", lhs, rhs, g.sha(), _hom_instance_sha(h, lists))


def _require_min_degree(g: Graph) -> None:
    for v in g.vertices():
        if g.degree(v) == 0:
            raise GraphError(f"vertex {v} is isolated; per-edge bounds need degree >= 1")


def edge_restriction_bound(
    g: Graph,
    w: WeightSystem,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> BoundReport:
    """Conjectured bound for arbitrary graphs: the partition function is
    at most the product over edges uv of the K_{d(u),d(v)}-restricted
    partition function raised to 1/(d(u)d(v)).

    Requires a uniform edge-weight system (see ``restrict_to_edge``).
    """
    _require_min_degree(g)
    lhs = partition_function(g, w, budget)
    edges = list(g.edges)
    factors = parallel_map(
        lambda e: partition_kab(restrict_to_edge(g, w, e[0], e[1]), budget),
        edges,
        threads,
    )
    rhs = PowerProduct(
        tuple(
            (z, Fraction(1, g.degree(u) * g.degree(v)))
            for (u, v), z in zip(edges, factors)
        )
    )
    return finish_report("conj1", lhs, rhs, g.sha(), w.sha())


def lists_for_edge(g: Graph, lists: ListAssignment, u: int, v: int) -> ListAssignment:
    """The list set induced on K_{d(u),d(v)} by the edge uv: w-side vertex
    j gets L(n_j(v)) and z-side vertex j gets L(n_j(u))."""
    a, b = g.degree(u), g.degree(v)
    _, w_ids, z_ids = _kab_layout(a, b)
    rows: dict[int, tuple[int, ...]] = {}
    for j, x in enumerate(g.neighbors(v)):
        rows[w_ids[j]] = lists[x]
    for j, x in enumerate(g.neighbors(u)):
        rows[z_ids[j]] = lists[x]
    return ListAssignment(a + b, rows)


def list_edge_restriction_bound(
    g: Graph,
    h: Graph,
    lists: ListAssignment | None = None,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> BoundReport:
    """Conjectured per-edge bound on list-homomorphism counts."""
    _require_min_degree(g)
    if lists is None:
        lists = ListAssignment.full(g, h)
    lists.validate_against(h)
    lhs_count = count_list_homs(g, h, lists, budget)
    edges = list(g.edges)

    def factor(e):
        u, v = e
        kab, _, _ = _kab_layout(g.degree(u), g.degree(v))
        return count_list_homs(kab, h, lists_for_edge(g, lists, u, v), budget)

    counts = parallel_map(factor, edges, threads)
    rhs = PowerProduct(
        tuple(
            (NonNegValue.exact(k), Fraction(1, g.degree(u) * g.degree(v)))
            for (u, v), k in zip(edges, counts)
        )
    )
    return finish_report(
        "conj2", NonNegValue.exact(lhs_count), rhs, g.sha(), _hom_instance_sha(h, lists)
    )


def _regular_degree(g: Graph) -> int:
    degrees = {g.degree(v) for v in g.vertices()}
    if len(degrees) != 1:
        raise GraphError(f"graph is not regular: degrees {sorted(degrees)}")
    return degrees.pop()


def kab_independent_sets(p: int, q: int) -> int:
    """Independent sets of K_{p,q}: one-sided subsets, 2^p + 2^q - 1."""
    return 2 ** p + 2 ** q - 1


def independent_set_regular_bound(g: Graph, budget: int = DEFAULT_BUDGET) -> BoundReport:
    """For a d-regular bipartite graph on N vertices, the number of
    independent sets is at most (2^(d+1) - 1)^(N/2d)."""
    bipartition(g)  # raises when not bipartite
    d = _regular_degree(g)
    if d < 1:
        raise GraphError("regular bipartite bound needs degree >= 1")
    lhs = NonNegValue.exact(independent_set_count(g, budget))
    rhs = PowerProduct(
        ((NonNegValue.exact(kab_independent_sets(d, d)), Fraction(g.n, 2 * d)),)
    )
    return finish_report("ind", lhs, rhs, g.sha(), sha256_text("independent-sets"))


def independent_set_edge_bound(g: Graph, budget: int = DEFAULT_BUDGET) -> BoundReport:
    """Conjectured per-edge bound on independent sets of arbitrary graphs:
    |I(G)| <= prod_uv (2^d(u) + 2^d(v) - 1)^(1/(d(u)d(v)))."""
    _require_min_degree(g)
    lhs = NonNegValue.exact(independent_set_count(g, budget))
    rhs = PowerProduct(
        tuple(
            (
                NonNegValue.exact(kab_independent_sets(g.degree(u), g.degree(v))),
                Fraction(1, g.degree(u) * g.degree(v)),
            )
            for u, v in g.edges
        )
    )
    return finish_report("indconj", lhs, rhs, g.sha(), sha256_text("independent-sets"))


def independent_set_bounds(g: Graph, budget: int = DEFAULT_BUDGET):
    """Both independent-set bounds; the regular-bipartite one is None when
    its precondition fails."""
    try:
        regular = independent_set_regular_bound(g, budget)
    except GraphError:
        regular = None
    return regular, independent_set_edge_bound(g, budget)


@dataclass(frozen=True)
class FreeEnergyReport:
    """Free energy log(Z)/N of the antiferromagnetic two-spin system with
    zero field on a d-regular bipartite graph, against the absolute
    sandwich beta*d/2 <= F <= beta*d/2 + ln 2."""

    n: int
    degree: int
    beta: float
    log_z: float
    free_energy: float
    lower: float
    upper: float
    in_bounds: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "degree": self.degree,
            "beta": self.beta,
            "log_z": self.log_z,
            "free_energy": self.free_energy,
            "lower": self.lower,
            "upper": self.upper,
            "in_bounds": self.in_bounds,
        }


def ising_free_energy_check(g: Graph, beta: float, budget: int = DEFAULT_BUDGET) -> FreeEnergyReport:
    """Compute F = log(Z)/N for the beta-coupled two-spin system with
    zero field and check the sandwich bounds.  Needs beta > 0 and a
    d-regular bipartite graph."""
    if beta <= 0:
        raise ValueError("the sandwich applies to the antiferromagnetic case beta > 0")
    bipartition(g)
    d = _regular_degree(g)
    w = make_ising(g, beta, 0.0)
    log_z = partition_function(g, w, budget).log()
    free_energy = log_z / g.n
    lower = beta * d / 2.0
    upper = lower + math.log(2.0)
    return FreeEnergyReport(
        n=g.n,
        degree=d,
        beta=beta,
        log_z=log_z,
        free_energy=free_energy,
        lower=lower,
        upper=upper,
        in_bounds=lower <= free_energy <= upper,
    )
