"""Upper bounds on partition functions and homomorphism counts.

Every bound here compares a globally computed quantity (the left side)
against a product of locally restricted complete-bipartite quantities
raised to rational powers (the right side).  EXACT-backend verdicts are
decided in rational arithmetic by clearing exponent denominators; a
VIOLATED verdict is only ever produced on that path.  LOG-backend
apparent violations are reported INCONCLUSIVE, never VIOLATED.

Registered bound names (the CLI and campaign tokens; ``BOUND_INPUTS``
says what each reads and ``evaluate_bound`` evaluates any of them):

    thm3     per-vertex restriction bound for (a,b)-biregular weighted systems
    thm4     per-vertex restriction bound for list homomorphism counts
    thm5     covering-family bound for list homomorphism counts
    conj1    per-edge restriction bound for weighted systems (conjectured)
    conj2    per-edge restriction bound for list homomorphism counts (conjectured)
    ind      independent sets of regular bipartite graphs
    indconj  per-edge independent-set bound for arbitrary graphs (conjectured)
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .counting import (
    DEFAULT_BUDGET,
    CoverFamilyPair,
    ListAssignment,
    count_list_homs,
    cover_sums,
    edge_kab_partitions,
    edge_kab_sums,
    independent_set_count,
    list_weights,
    partition_function,
    weight_arrays,
    _partitions,
)
from .graphs import Graph, GraphError, bipartition, certify_biregular
from .util import sha256_text
from .values import (
    NEG_INF,
    Backend,
    NonNegValue,
    PowerProduct,
    compare_product,
)
from .weights import WeightSystem, make_ising, uniform_edge

LOG_REL_TOL = 1e-9
_ONE = Fraction(1)

# What each bound reads besides the graph: a weight system, a target
# graph with lists, or nothing.  ``evaluate_bound`` takes exactly these.
BOUND_INPUTS = {
    "thm3": "weights",
    "thm4": "target",
    "thm5": "target",
    "conj1": "weights",
    "conj2": "target",
    "ind": None,
    "indconj": None,
}
BOUND_NAMES = tuple(BOUND_INPUTS)


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
    cmp: int | None = None  # EXACT: the exact sign of lhs - rhs (-1, 0, 1); not serialized

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
    arithmetic; its sign is the report's ``cmp``, and an exact tie reports
    log_slack == 0.0 literally.  LOG:
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
    cmp = None
    if backend is Backend.EXACT:
        cmp = compare_product(((lhs, _ONE),), rhs.factors, (lhs_log, rhs_log))
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
        cmp=cmp,
    )


@lru_cache(maxsize=256)
def _neighbourhood_families(g: Graph) -> tuple:
    """g's neighbourhood family, the pairs (N(v), {v}) over the degree-b
    vertices v ascending with t1 = a and t2 = 1, and when a == b the same
    over the other class.  Once per graph; errors are not cached."""
    cert = certify_biregular(g, bipartition(g))
    classes = (cert.odd, cert.even) if cert.a == cert.b else (cert.odd,)
    pairs = ([(frozenset(g.neighbors(v)), frozenset({v})) for v in sorted(c)] for c in classes)
    return tuple(CoverFamilyPair(tuple(p), cert.a, 1) for p in pairs)


def _smallest_cover(families, sums_of) -> PowerProduct:
    """The smallest of the families' covering products (one t1, t2 for
    all), prod_i s_i^(1/t1), the inner sums s_i of every family's pairs
    from one call sums_of(pairs, t1/t2).  EXACT products are compared by
    ``compare_product``, LOG ones by their logs; a tie keeps the first."""
    t1, t2 = families[0].t1, families[0].t2
    sums = iter(sums_of(sum((fam.pairs for fam in families), ()), Fraction(t1, t2)))
    inverse = Fraction(1, t1)
    best, *others = (PowerProduct(tuple((next(sums), inverse) for _ in f.pairs)) for f in families)
    for p in others:
        logs = best.log(), p.log()
        exact = p.backend is Backend.EXACT
        if (compare_product(best.factors, p.factors, logs) > 0) if exact else logs[0] > logs[1]:
            best = p
    return best


# The report tails, one per kind of input in ``BOUND_INPUTS``.


def _weights_reports(bound: str, g: Graph, ws, right_sides, budget: int) -> list:
    """Every left side in one contraction, then right_sides(the systems'
    ``WeightArrays``), then each system's verdict."""
    arrays = [weight_arrays(g, w) for w in ws]
    lhs = _partitions(g, arrays, budget)
    sha = g.sha()
    rhs = right_sides(arrays)
    return [finish_report(bound, z, r, sha, w.sha()) for w, z, r in zip(ws, lhs, rhs)]


def _target_report(
    bound: str, g: Graph, h: Graph, lists: ListAssignment, right_side, budget: int
) -> BoundReport:
    """The list-homomorphism count, then right_side(), the count lifted
    to LOG when that is LOG."""
    lhs = NonNegValue.exact(count_list_homs(g, h, lists, budget))
    rhs = right_side()
    if rhs.backend is Backend.LOG:
        lhs = lhs.to_log()
    return finish_report(bound, lhs, rhs, g.sha(), sha256_text(h.to_text() + lists.to_text()))


def _independent_set_report(bound: str, g: Graph, rhs: PowerProduct, budget: int) -> BoundReport:
    lhs = NonNegValue.exact(independent_set_count(g, budget))
    return finish_report(bound, lhs, rhs, g.sha(), sha256_text("independent-sets"))


def vertex_restriction_bound(
    g: Graph,
    w: WeightSystem,
    budget: int = DEFAULT_BUDGET,
) -> BoundReport:
    """Bound the partition function of an (a,b)-biregular system by the
    product over the degree-b class of restricted K_{a,b} partition
    functions, each raised to 1/a.

    When a == b both class orientations are certified upper bounds; the
    smaller right side is reported.  The budget bounds the left side's
    plan and each factor's m^b table.  The batch of one of
    ``vertex_restriction_bounds``.
    """
    return vertex_restriction_bounds(g, [w], budget)[0]


def vertex_restriction_bounds(g: Graph, ws, budget: int = DEFAULT_BUDGET) -> list:
    """``vertex_restriction_bound`` for each system of ws (one spin count
    and backend), the left sides in one contraction.  Each system's
    arrays are converted once for its left side and right sides."""
    families = _neighbourhood_families(g)  # not biregular: fails before any contraction
    return _weights_reports("thm3", g, ws, lambda arrays: [
        _smallest_cover(families, lambda pairs, e: cover_sums(g, a, pairs, e, budget))
        for a in arrays
    ], budget)


@lru_cache(maxsize=64)
def _list_cover_memo(g: Graph, h: Graph, lists: ListAssignment, exponent, budget) -> dict:
    """{pair: its ``cover_sums`` value} for the list homomorphisms of g
    into h, filled by ``_list_cover_sums``.  Arguments hash by content."""
    return {}


def _list_cover_sums(g: Graph, h: Graph, lists: ListAssignment, pairs, exponent, budget) -> list:
    """``cover_sums`` of the list homomorphisms of g into h, in one call
    over the pairs not yet summed with these arguments (exact sums only:
    a LOG sum can depend on its batch), so thm5 on the neighbourhood
    family finds every pair in thm4's sums."""
    memo = _list_cover_memo(g, h, lists, exponent, budget) if exponent.denominator == 1 else {}
    new = [pair for pair in dict.fromkeys(pairs) if pair not in memo]
    if new:
        memo.update(zip(new, cover_sums(g, list_weights(g, h, lists), new, exponent, budget)))
    return [memo[pair] for pair in pairs]


def list_vertex_restriction_bound(
    g: Graph,
    h: Graph,
    lists: ListAssignment | None = None,
    budget: int = DEFAULT_BUDGET,
) -> BoundReport:
    """Bound the list-homomorphism count of an (a,b)-biregular graph by
    the product over the degree-b class of K_{a,b} list-homomorphism
    counts, each raised to 1/a (thm5 on the neighbourhood families, in
    both orientations when a == b).  Always exact integer arithmetic."""
    families = _neighbourhood_families(g)
    if lists is None:
        lists = ListAssignment.full(g, h)
    return _target_report("thm4", g, h, lists, lambda: _smallest_cover(
        families, lambda pairs, e: _list_cover_sums(g, h, lists, pairs, e, budget)
    ), budget)


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
    inner sums are LOG values.  The inner sums are one ``cover_sums``
    call, whose pairs of one shape share a batch; an exact pair already
    summed for (g, h, lists) at this exponent is not summed again, so on
    the neighbourhood family after thm4 there is no call at all.
    """
    _check_family(g, fam)
    return _smallest_cover((fam,), lambda pairs, e: _list_cover_sums(g, h, lists, pairs, e, budget))


@lru_cache(maxsize=256)
def _check_family(g: Graph, fam: CoverFamilyPair) -> None:
    """``fam.validate`` on g once per (graph, family), after g's odd closed walk if any;
    both hash by content, and errors are not cached."""
    bipartition(g)
    fam.validate(g)


def neighbourhood_family(g: Graph) -> CoverFamilyPair:
    """The neighbourhoods-and-singletons family of a biregular graph: the
    A's are the neighbourhoods of the degree-b vertices, the B's those
    vertices as singletons, t1 = a, t2 = 1."""
    return _neighbourhood_families(g)[0]


def cover_family_report(
    g: Graph,
    h: Graph,
    lists: ListAssignment,
    fam: CoverFamilyPair,
    budget: int = DEFAULT_BUDGET,
) -> BoundReport:
    """Compare the list-homomorphism count against the covering-family value."""
    rhs = cover_family_value(g, h, lists, fam, budget)
    return _target_report("thm5", g, h, lists, lambda: rhs, budget)


def _require_min_degree(g: Graph) -> None:
    for v in g.vertices():
        if g.degree(v) == 0:
            raise GraphError(f"vertex {v} is isolated; per-edge bounds need degree >= 1")


def _per_edge_rhs(g: Graph, factors) -> PowerProduct:
    """The product of the edges' factors (in edge order), the factor of
    uv raised to 1/(d(u)d(v))."""
    return PowerProduct(tuple(zip(factors, _edge_exponents(g))))


@lru_cache(maxsize=256)
def _edge_exponents(g: Graph) -> tuple:
    return tuple(Fraction(1, g.degree(u) * g.degree(v)) for u, v in g.edges)


def edge_restriction_bound(
    g: Graph,
    w: WeightSystem,
    budget: int = DEFAULT_BUDGET,
) -> BoundReport:
    """Conjectured bound for arbitrary graphs: the partition function is
    at most the product over edges uv of the K_{d(u),d(v)}-restricted
    partition function raised to 1/(d(u)d(v)).

    Requires every edge to carry one shared table (``uniform_edge``).
    The batch of one of ``edge_restriction_bounds``.
    """
    return edge_restriction_bounds(g, [w], budget)[0]


def edge_restriction_bounds(g: Graph, ws, budget: int = DEFAULT_BUDGET) -> list:
    """``edge_restriction_bound`` for each system of ws (one spin count
    and backend): the left sides in one contraction, then each system's
    shared table (``uniform_edge`` raises without one), then every
    system's K_{d(u),d(v)} factors in one ``edge_kab_partitions`` call."""
    _require_min_degree(g)
    return _weights_reports("conj1", g, ws, lambda arrays: all(map(uniform_edge, ws)) and [
        _per_edge_rhs(g, f) for f in edge_kab_partitions(g, arrays, budget)
    ], budget)


def list_edge_restriction_bound(
    g: Graph,
    h: Graph,
    lists: ListAssignment | None = None,
    budget: int = DEFAULT_BUDGET,
) -> BoundReport:
    """Conjectured per-edge bound on list-homomorphism counts: conj1's
    K_{d(u),d(v)} restrictions of the list weights (``list_weights``), in
    one ``edge_kab_sums`` call."""
    _require_min_degree(g)
    if lists is None:
        lists = ListAssignment.full(g, h)

    def right_side():
        (counts,) = edge_kab_sums(g, [list_weights(g, h, lists)], budget)
        return _per_edge_rhs(g, counts)

    return _target_report("conj2", g, h, lists, right_side, budget)


def _regular_degree(g: Graph) -> int:
    """The degree of a regular bipartite graph; raises for any other."""
    bipartition(g)
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
    d = _regular_degree(g)
    if d < 1:
        raise GraphError("regular bipartite bound needs degree >= 1")
    rhs = PowerProduct(((NonNegValue.exact(kab_independent_sets(d, d)), Fraction(g.n, 2 * d)),))
    return _independent_set_report("ind", g, rhs, budget)


def independent_set_edge_bound(g: Graph, budget: int = DEFAULT_BUDGET) -> BoundReport:
    """Conjectured per-edge bound on independent sets of arbitrary graphs:
    |I(G)| <= prod_uv (2^d(u) + 2^d(v) - 1)^(1/(d(u)d(v)))."""
    _require_min_degree(g)
    rhs = _per_edge_rhs(
        g,
        [NonNegValue.exact(kab_independent_sets(g.degree(u), g.degree(v))) for u, v in g.edges],
    )
    return _independent_set_report("indconj", g, rhs, budget)


def evaluate_bound(
    name: str,
    g: Graph,
    weights: WeightSystem | None = None,
    target: Graph | None = None,
    lists: ListAssignment | None = None,
    family: CoverFamilyPair | None = None,
    budget: int = DEFAULT_BUDGET,
) -> BoundReport:
    """Evaluate the named bound on g with the inputs ``BOUND_INPUTS``
    says it reads; the others are ignored.  Lists default to full lists
    and thm5's family to ``neighbourhood_family(g)``.  Raises ValueError
    for an unknown name or a missing input.  The batch of one of
    ``evaluate_trials``."""
    inputs = {"weights": weights, "target": target, "lists": lists, "family": family}
    return evaluate_trials(name, g, [inputs], budget)[0]


def evaluate_trials(name: str, g: Graph, trials, budget: int = DEFAULT_BUDGET) -> list:
    """``evaluate_bound`` of the named bound on g once per trial, a trial
    being a dict of its keyword inputs (missing keys are None).  The
    weight systems of the trials (one spin count and backend) run as one
    batch; a bound that reads nothing is evaluated once for all of them.
    An error in any trial is raised for the whole call."""
    if name not in BOUND_INPUTS:
        raise ValueError(f"unknown bound name {name!r}")
    reads = BOUND_INPUTS[name]
    if not trials:
        return []
    # evaluators are looked up at call time, so a wrapped one is the one called
    if reads is None:
        fn = independent_set_regular_bound if name == "ind" else independent_set_edge_bound
        return [fn(g, budget)] * len(trials)
    if reads == "weights":
        ws = [trial.get("weights") for trial in trials]
        if None in ws:
            raise ValueError(f"bound {name} needs weights")
        fn = vertex_restriction_bounds if name == "thm3" else edge_restriction_bounds
        return fn(g, ws, budget)
    reports = []
    for trial in trials:
        target, lists, family = (trial.get(key) for key in ("target", "lists", "family"))
        if target is None:
            raise ValueError(f"bound {name} needs a target graph")
        lists = ListAssignment.full(g, target) if lists is None else lists
        if name == "thm5":
            family = neighbourhood_family(g) if family is None else family
            reports.append(cover_family_report(g, target, lists, family, budget))
        else:
            fn = list_vertex_restriction_bound if name == "thm4" else list_edge_restriction_bound
            reports.append(fn(g, target, lists, budget))
    return reports


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
        return asdict(self)


def ising_free_energy_check(g: Graph, beta: float, budget: int = DEFAULT_BUDGET) -> FreeEnergyReport:
    """Compute F = log(Z)/N for the beta-coupled two-spin system with
    zero field and check the sandwich bounds.  Needs beta > 0 and a
    d-regular bipartite graph."""
    if beta <= 0:
        raise ValueError("the sandwich applies to the antiferromagnetic case beta > 0")
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
