import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinz.bounds as bounds_mod
import spinz.counting as counting_mod
import spinz.harness as harness_mod
import spinz.weights as weights_mod
from oracles import (
    backtrack_list_homs,
    brute_list_homs,
    complete_graph,
    cover_sum_by_enumeration,
    disjoint_union,
    kab_around,
    kab_on_edge,
    list_vertex_restriction_rhs,
    lists_for_edge,
    lists_for_vertex,
    partition_brute,
    path_graph,
    relabel,
    scale_vertex_weights,
    weighted_two_sided_hom_sum,
    with_list,
)
from spinz.bounds import (
    BOUND_INPUTS,
    BOUND_NAMES,
    Verdict,
    cover_family_report,
    cover_family_value,
    edge_restriction_bound,
    evaluate_bound,
    finish_report,
    independent_set_edge_bound,
    independent_set_regular_bound,
    ising_free_energy_check,
    kab_independent_sets,
    list_edge_restriction_bound,
    list_vertex_restriction_bound,
    neighbourhood_family,
    vertex_restriction_bound,
)
from spinz.counting import (
    DEFAULT_BUDGET,
    BudgetError,
    CoverFamilyPair,
    ListAssignment,
    count_list_homs,
    edge_kab_partitions,
    partition_function,
    partition_kab,
)
from spinz.graphs import (
    BiregularCert,
    Graph,
    GraphError,
    bipartition,
    certify_biregular,
    complete_bipartite,
    cycle_graph,
    hypercube_graph,
    is_connected,
)
from spinz.harness import (
    enumerate_graphs,
    sample_list_assignment,
    sample_target_graph,
    sample_weights,
)
from spinz.values import Backend, NonNegValue, PowerProduct, compare_product
from spinz.weights import WeightError, WeightSystem, _kab_layout, make_hardcore, make_ising, restrict_to_edge, restrict_to_kab


def _cert(g):
    return certify_biregular(g, bipartition(g))


def matching_weights(g, cert, m, rng, cap=9):
    """Weight systems whose per-vertex restriction reproduces the whole
    system: one shared spin-weight vector on the odd class, and one edge
    table per even vertex shared across all of its edges."""
    draw = lambda: Fraction(rng.randint(1, cap), rng.randint(1, cap))
    vertex = {}
    for v in sorted(cert.even):
        for i in range(1, m + 1):
            vertex[(v, i)] = draw()
    shared = [draw() for _ in range(m)]
    for v in sorted(cert.odd):
        for i in range(1, m + 1):
            vertex[(v, i)] = shared[i - 1]
    edge = {}
    for u in sorted(cert.even):
        table = {(i, j): draw() for i in range(1, m + 1) for j in range(i, m + 1)}
        for v in g.neighbors(u):
            for (i, j), val in table.items():
                edge[(u, v, i, j)] = val
    return WeightSystem.build(g, m, vertex, edge)


# ----- per-vertex restriction bound (thm3) -----


def test_thm3_c6_hardcore_numbers():
    g = cycle_graph(6)
    r = vertex_restriction_bound(g, make_hardcore(g, 1))
    assert r.verdict is Verdict.HOLDS
    assert r.lhs.fraction == 18
    assert r.rhs_log == pytest.approx(1.5 * math.log(7), rel=1e-12)
    assert r.log_slack == pytest.approx(1.5 * math.log(7) - math.log(18), rel=1e-9)


def test_thm3_exact_equality_on_kab_with_matching_weights():
    rng = random.Random(99)
    for p, q in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]:
        g = complete_bipartite(p, q)
        cert = _cert(g)
        for trial in range(5):
            w = matching_weights(g, cert, 1 + trial % 3, rng)
            r = vertex_restriction_bound(g, w)
            assert r.verdict is Verdict.HOLDS
            assert r.log_slack == 0.0


def test_thm3_arbitrary_weights_on_kab_hold_but_need_not_be_tight():
    # with fully independent weights the right side is strictly larger in
    # general (the per-vertex restriction collapses odd-class diversity)
    g = complete_bipartite(2, 2)
    w = WeightSystem.build(
        g, 2, edge={(0, 2, 1, 1): 2}
    )  # one edge differs: restriction loses that information
    r = vertex_restriction_bound(g, w)
    assert r.verdict is Verdict.HOLDS
    assert r.log_slack > 0


def test_thm3_equality_on_disjoint_union_with_matching_weights():
    rng = random.Random(5)
    g1, g2 = complete_bipartite(2, 3), complete_bipartite(2, 3)
    g = disjoint_union([g1, g2])
    cert = _cert(g)
    w = matching_weights_per_component(g, cert, rng)
    r = vertex_restriction_bound(g, w)
    assert r.verdict is Verdict.HOLDS
    assert r.log_slack == 0.0


def matching_weights_per_component(g, cert, rng, m=2, cap=9):
    from spinz.graphs import connected_components

    draw = lambda: Fraction(rng.randint(1, cap), rng.randint(1, cap))
    vertex = {}
    edge = {}
    for comp in connected_components(g):
        shared = [draw() for _ in range(m)]
        for v in sorted(comp & cert.odd):
            for i in range(1, m + 1):
                vertex[(v, i)] = shared[i - 1]
        for v in sorted(comp & cert.even):
            for i in range(1, m + 1):
                vertex[(v, i)] = draw()
            table = {(i, j): draw() for i in range(1, m + 1) for j in range(i, m + 1)}
            for u in g.neighbors(v):
                for (i, j), val in table.items():
                    edge[(v, u, i, j)] = val
    return WeightSystem.build(g, m, vertex, edge)


def test_thm3_two_sided_specialization_matches_direct_sum():
    # vertex weights constant per class and 0/1 edge weights from a target
    # graph: the partition function must equal the direct two-sided sum
    # over homomorphisms, and the bound factor must telescope the same way
    rng = random.Random(17)
    g = cycle_graph(6)
    cert = _cert(g)
    h = complete_graph(3)
    m = h.n
    lam = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(m)]
    mu = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(m)]
    vertex = {}
    for v in range(g.n):
        src = lam if v in cert.even else mu
        for i in range(1, m + 1):
            vertex[(v, i)] = src[i - 1]
    edge = {}
    for u, v in g.edges:
        for i in range(1, m + 1):
            for j in range(i, m + 1):
                edge[(u, v, i, j)] = 1 if h.has_edge(i - 1, j - 1) else 0
    w = WeightSystem.build(g, m, vertex, edge)
    r = vertex_restriction_bound(g, w)
    direct = weighted_two_sided_hom_sum(
        g.n, g.edges, cert.even, cert.odd, h.n, h.edges, lam, mu
    )
    assert r.lhs.fraction == direct
    d = cert.a
    kab = complete_bipartite(d, d)
    kab_even = frozenset(range(d))
    kab_odd = frozenset(range(d, 2 * d))
    direct_kab = weighted_two_sided_hom_sum(
        kab.n, kab.edges, kab_even, kab_odd, h.n, h.edges, lam, mu
    )
    oracle_rhs = PowerProduct(((NonNegValue.exact(direct_kab), Fraction(g.n, 2 * d)),))
    assert compare_product(r.rhs.factors, oracle_rhs.factors) == 0


def test_thm3_scale_covariance():
    g = complete_bipartite(2, 3)
    rng = random.Random(3)
    w = sample_weights(g, 2, seed=8, cap=9)
    base = vertex_restriction_bound(g, w)
    c = Fraction(7, 3)
    for u in (0, 4):  # one even-class and one odd-class vertex
        scaled = vertex_restriction_bound(g, scale_vertex_weights(w, u, c))
        assert scaled.lhs.fraction == c * base.lhs.fraction
        lifted = PowerProduct(((NonNegValue.exact(c), Fraction(1)),) + base.rhs.factors)
        assert compare_product(scaled.rhs.factors, lifted.factors) == 0


def test_thm3_rhs_invariant_under_relabeling():
    g = complete_bipartite(2, 3)
    w = sample_weights(g, 2, seed=21, cap=9)
    perm = [3, 0, 4, 1, 2]
    g2 = relabel(g, perm)
    vertex = {
        (perm[v], i): w.vertex_weight(v, i).fraction
        for v in range(g.n)
        for i in (1, 2)
    }
    edge = {}
    for (u, v) in g.edges:
        for i in (1, 2):
            for j in range(i, 3):
                edge[(perm[u], perm[v], i, j)] = w.edge_weight(u, v, i, j).fraction
    w2 = WeightSystem.build(g2, 2, vertex, edge)
    r1, r2 = vertex_restriction_bound(g, w), vertex_restriction_bound(g2, w2)
    assert r1.lhs.fraction == r2.lhs.fraction
    assert compare_product(r1.rhs.factors, r2.rhs.factors) == 0


def test_thm3_holds_over_random_biregular_instances():
    rng_seed = 0
    for g in enumerate_graphs(8, "biregular", connected_only=True, max_degree=3):
        for trial in range(4):
            w = sample_weights(g, 1 + trial % 3, seed=rng_seed, cap=16)
            rng_seed += 1
            r = vertex_restriction_bound(g, w)
            assert r.verdict is Verdict.HOLDS, (g, trial)


def test_thm3_requires_biregular():
    g = path_graph(4)
    with pytest.raises(GraphError, match="biregular"):
        vertex_restriction_bound(g, WeightSystem.build(g, 2))
    k3 = complete_graph(3)
    with pytest.raises(GraphError, match="bipartite"):
        vertex_restriction_bound(k3, WeightSystem.build(k3, 2))


def test_thm3_log_backend_reports_holds():
    g = cycle_graph(6)
    w = make_hardcore(g, 1).to_log()
    r = vertex_restriction_bound(g, w)
    assert r.backend is Backend.LOG
    assert r.verdict is Verdict.HOLDS
    assert r.log_slack == pytest.approx(1.5 * math.log(7) - math.log(18), rel=1e-9)


# ----- per-vertex restriction bound for list homomorphisms (thm4) -----


def test_thm4_c6_k3_numbers():
    g, h = cycle_graph(6), complete_graph(3)
    r = list_vertex_restriction_bound(g, h)
    assert r.lhs.fraction == 66
    assert r.rhs_log == pytest.approx(1.5 * math.log(18), rel=1e-12)
    assert r.verdict is Verdict.HOLDS


def test_thm4_full_lists_reduces_to_homomorphism_bound():
    # with full lists every factor is |Hom(K_{d,d},H)|, so the right side
    # is that count to the power N/(2d)
    g, h = hypercube_graph(3), complete_graph(3)
    r = list_vertex_restriction_bound(g, h)
    kab = complete_bipartite(3, 3)
    hom_kab = count_list_homs(kab, h, ListAssignment.full(kab, h))
    expected = PowerProduct(((NonNegValue.exact(hom_kab), Fraction(g.n, 6)),))
    assert compare_product(r.rhs.factors, expected.factors) == 0
    assert r.verdict is Verdict.HOLDS


def test_thm4_empty_list_holds_with_zero_lhs():
    g, h = cycle_graph(6), complete_graph(3)
    lists = with_list(ListAssignment.full(g, h), 3, [])
    r = list_vertex_restriction_bound(g, h, lists)
    assert r.lhs.fraction == 0
    assert r.verdict is Verdict.HOLDS


def test_thm4_exact_equality_with_matching_lists():
    rng = random.Random(41)
    for p, q in [(2, 2), (2, 3), (3, 3)]:
        g = complete_bipartite(p, q)
        cert = _cert(g)
        h = complete_graph(3)
        for trial in range(5):
            rows = [None] * g.n
            shared = [y for y in range(h.n) if rng.random() < 0.8]
            for v in sorted(cert.even):
                rows[v] = [y for y in range(h.n) if rng.random() < 0.8]
            for v in sorted(cert.odd):
                rows[v] = shared
            r = list_vertex_restriction_bound(g, h, ListAssignment(g.n, rows))
            assert r.verdict is Verdict.HOLDS
            assert r.log_slack == 0.0


# ----- covering-family bound (thm5) -----


def _neighborhood_family(g):
    cert = _cert(g)
    return cert, CoverFamilyPair(
        pairs=tuple(
            (frozenset(cert.neighbor_order(v)), frozenset({v})) for v in sorted(cert.odd)
        ),
        t1=cert.a,
        t2=1,
    )


def test_thm5_neighborhood_family_equals_thm4_rhs():
    rng = random.Random(53)
    for g in (cycle_graph(6), complete_bipartite(2, 3), hypercube_graph(3)):
        cert, fam = _neighborhood_family(g)
        h = complete_graph(3)
        for trial in range(4):
            lists = ListAssignment(
                g.n, [[y for y in range(h.n) if rng.random() < 0.8] for _ in range(g.n)]
            )
            value = cover_family_value(g, h, lists, fam)
            r4 = list_vertex_restriction_bound(g, h, lists)
            # compare against the unswapped orientation rhs
            odd_factors = tuple(
                (
                    NonNegValue.exact(
                        count_list_homs(
                            complete_bipartite(cert.b, cert.a),
                            h,
                            _vertex_lists(lists, cert, v),
                        )
                    ),
                    Fraction(1, cert.a),
                )
                for v in sorted(cert.odd)
            )
            assert compare_product(value.factors, odd_factors) == 0
            report = cover_family_report(g, h, lists, fam)
            assert report.verdict is Verdict.HOLDS
            assert report.lhs.fraction == r4.lhs.fraction


def _vertex_lists(lists, cert, v):
    return lists_for_vertex(lists, cert, v)


def test_thm5_degenerate_pairs_give_list_size_products():
    # an empty B side makes every extension count 1, so that factor is the
    # number of partial maps; an empty A side leaves one free extension
    # factor per B vertex
    g, h = cycle_graph(4), complete_graph(3)
    bp = bipartition(g)
    lists = ListAssignment(4, [[0, 1], [0], [1, 2], [0, 1, 2]])
    fam = CoverFamilyPair(
        pairs=((frozenset(bp.even), frozenset()), (frozenset(), frozenset(bp.odd))),
        t1=1,
        t2=1,
    )
    value = cover_family_value(g, h, lists, fam)
    sizes_even = len(lists[0]) * len(lists[2])
    sizes_odd = len(lists[1]) * len(lists[3])
    assert [f.fraction for f, _ in value.factors] == [sizes_even, sizes_odd]


def test_thm5_single_pair_recovers_the_count():
    g, h = cycle_graph(6), complete_graph(3)
    bp = bipartition(g)
    lists = ListAssignment.full(g, h)
    fam = CoverFamilyPair(pairs=((frozenset(bp.even), frozenset(bp.odd)),), t1=1, t2=1)
    value = cover_family_value(g, h, lists, fam)
    assert value.factors[0][0].fraction == count_list_homs(g, h, lists)


def test_thm5_fractional_multiplicities_use_log_backend():
    g, h = cycle_graph(4), complete_graph(3)
    bp = bipartition(g)
    pairs = tuple((frozenset(g.neighbors(v)), frozenset({v})) for v in sorted(bp.odd))
    fam = CoverFamilyPair(pairs=pairs * 3, t1=4, t2=3)  # t2 does not divide t1
    lists = ListAssignment.full(g, h)
    value = cover_family_value(g, h, lists, fam)
    assert value.backend is Backend.LOG
    report = cover_family_report(g, h, lists, fam)
    assert report.backend is Backend.LOG
    assert report.verdict is Verdict.HOLDS


def test_thm5_cover_shortfall_names_vertex():
    g, h = cycle_graph(4), complete_graph(3)
    fam = CoverFamilyPair(pairs=((frozenset({0}), frozenset({1})),), t1=1, t2=1)
    with pytest.raises(ValueError, match="vertex 2"):
        cover_family_value(g, h, ListAssignment.full(g, h), fam)


def _permuted(g, lists, perm):
    """g and its lists under the vertex map v -> perm[v]."""
    rows = [None] * g.n
    for v, row in enumerate(lists.lists):
        rows[perm[v]] = row
    return relabel(g, perm), ListAssignment(g.n, rows)


def test_default_family_on_a_disconnected_biregular_graph():
    # two cherries, the first centred on its lowest id 0 and the second on
    # 4, so the second component's lowest id 3 has degree 1: the degree-2
    # class {0, 4} is neither class of bipartition's lowest-id-even split
    g, h = Graph(6, [(0, 1), (0, 2), (3, 4), (4, 5)]), complete_graph(3)
    lists = ListAssignment(6, [[0, 1], [0, 2], [1], [0, 1, 2], [2], [1, 2]])
    r4, r5 = (evaluate_bound(name, g, target=h, lists=lists) for name in ("thm4", "thm5"))
    assert r5.verdict is Verdict.HOLDS
    assert (r5.lhs, r5.rhs_log) == (r4.lhs, r4.rhs_log)


def test_mirrored_family_is_accepted():
    # A and B swapped, t1 and t2 swapped: the same cover, the other orientation
    g, h = complete_bipartite(2, 3), complete_graph(3)
    lists = sample_list_assignment(g, h, 7)
    fam = neighbourhood_family(g)
    mirror = CoverFamilyPair(tuple((b, a) for a, b in fam.pairs), t1=fam.t2, t2=fam.t1)
    report = cover_family_report(g, h, lists, mirror)  # t1/t2 = 1/3: the LOG backend
    assert report.verdict is Verdict.HOLDS
    assert report.lhs_log == pytest.approx(math.log(count_list_homs(g, h, lists)), rel=1e-12)


_BIREGULAR_8 = tuple(enumerate_graphs(8, "biregular"))


@settings(max_examples=10)
@given(st.randoms(use_true_random=False))
def test_thm4_and_default_thm5_under_relabelling(rnd):
    h = complete_graph(3)
    for g in _BIREGULAR_8:
        perm = list(range(g.n))
        rnd.shuffle(perm)
        lists = sample_list_assignment(g, h, rnd.randrange(10 ** 6))
        g2, lists2 = _permuted(g, lists, perm)
        cert = _cert(g)
        # with a == b each component has two orientations: thm4 takes the
        # smaller product of two whole-graph orientations, and the default
        # family puts each component's lowest id on its A side, so those
        # right sides can move with the labelling; thm5's is never below thm4's
        for name in ("thm4", "thm5"):
            r, r2 = (evaluate_bound(name, x, target=h, lists=ls) for x, ls in ((g, lists), (g2, lists2)))
            assert r.verdict is r2.verdict is Verdict.HOLDS
            assert r.lhs.fraction == r2.lhs.fraction
            if cert.a != cert.b or (name == "thm4" and is_connected(g)):
                assert r2.rhs_log == pytest.approx(r.rhs_log, rel=1e-12, abs=1e-12)
        for x, ls in ((g, lists), (g2, lists2)):
            r4, r5 = (evaluate_bound(name, x, target=h, lists=ls) for name in ("thm4", "thm5"))
            if cert.a != cert.b:
                assert r5.rhs_log == r4.rhs_log
            else:
                assert r5.rhs_log >= r4.rhs_log - 1e-12 * abs(r4.rhs_log)


def test_thm4_is_thm5_on_the_neighbourhood_families():
    for i, g in enumerate(_BIREGULAR_8):
        cert = _cert(g)
        for seed in range(3):
            h = sample_target_graph(4, seed=100 * i + seed)
            lists = sample_list_assignment(g, h, seed=100 * i + seed)
            thm4 = list_vertex_restriction_bound(g, h, lists)
            thm5 = cover_family_report(g, h, lists, neighbourhood_family(g))
            assert thm4.verdict is thm5.verdict is Verdict.HOLDS
            assert thm4.lhs.fraction == thm5.lhs.fraction
            if cert.a != cert.b:
                assert thm4.rhs.factors == thm5.rhs.factors
            else:  # thm4 also takes the other orientation's family when it is smaller
                assert compare_product(thm4.rhs.factors, thm5.rhs.factors) <= 0


# ----- per-edge restriction bounds (conj1, conj2) -----


def test_conj1_c6_hardcore_matches_thm3_rhs():
    g = cycle_graph(6)
    w = make_hardcore(g, 1)
    r = edge_restriction_bound(g, w)
    assert r.verdict is Verdict.HOLDS
    assert r.rhs_log == pytest.approx(1.5 * math.log(7), rel=1e-12)


def test_conj1_triangle_numbers():
    g = complete_graph(3)
    r = edge_restriction_bound(g, make_hardcore(g, 1))
    assert r.lhs.fraction == 4
    assert r.rhs_log == pytest.approx(0.75 * math.log(7), rel=1e-12)
    assert r.verdict is Verdict.HOLDS


def test_conj1_equality_on_unions_of_complete_bipartite():
    g = disjoint_union([complete_bipartite(1, 2), complete_bipartite(2, 2)])
    r = edge_restriction_bound(g, make_hardcore(g, 1))
    assert r.verdict is Verdict.HOLDS
    assert r.log_slack == 0.0


def test_conj1_rejects_per_edge_tables():
    g = cycle_graph(4)
    w = WeightSystem.build(g, 2, edge={(0, 1, 1, 1): Fraction(1, 2)})
    with pytest.raises(Exception, match="ambiguous"):
        edge_restriction_bound(g, w)


def test_conj1_rejects_isolated_vertices():
    g = Graph(3, [(0, 1)])
    with pytest.raises(GraphError, match="isolated"):
        edge_restriction_bound(g, WeightSystem.build(g, 2))


def test_conj1_known_violation_is_reported_not_raised():
    # non-uniform activities break the conjectured per-edge bound already
    # on the 4-path: left side 15, right side 7 * 11^(1/4) < 15
    g = path_graph(4)
    w = make_hardcore(g, {0: 2, 1: 1, 2: 1, 3: 2})
    r = edge_restriction_bound(g, w)
    assert r.backend is Backend.EXACT
    assert r.verdict is Verdict.VIOLATED
    assert r.lhs.fraction == 15
    assert r.rhs_log == pytest.approx(math.log(7) + 0.25 * math.log(11), rel=1e-12)
    assert 15 ** 4 > 7 ** 2 * 11 * 7 ** 2  # the cleared-exponent inequality


# the 4-path's edges have degree pairs (1, 2), (2, 2) and (2, 1); the paw
# (a triangle with a pendant) and the double star add more of each shape
_CONJ1_GRAPHS = (
    path_graph(4),
    complete_bipartite(1, 1),
    complete_bipartite(1, 3),
    complete_graph(4),
    Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]),
)


@given(
    st.sampled_from(_CONJ1_GRAPHS),
    st.integers(1, 3),
    st.integers(0, 10 ** 6),
    st.booleans(),
)
def test_conj1_factors_equal_brute_force_of_each_edge_restriction(g, m, seed, allow_zero):
    w = sample_weights(g, m, seed=seed, cap=9, allow_zero=allow_zero, style="uniform_edge")
    r = edge_restriction_bound(g, w)
    assert r.lhs.fraction == partition_brute(g, w).fraction
    assert len(r.rhs.factors) == len(g.edges)
    for (u, v), (z, e) in zip(g.edges, r.rhs.factors):
        assert z.fraction == partition_brute(*kab_on_edge(g, w, u, v)).fraction
        assert e == Fraction(1, g.degree(u) * g.degree(v))
    logs = edge_restriction_bound(g, w.to_log()).rhs.factors
    for (z, _), (want, _) in zip(logs, r.rhs.factors):
        assert z.log() == pytest.approx(want.log(), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("tight", [False, True])
def test_log_conj1_batch_equals_each_system_alone(tight):
    for g in _CONJ1_GRAPHS:
        for m in (1, 2, 3):
            ws = [
                sample_weights(g, m, seed=10 * m + k, cap=9, allow_zero=k % 2 == 1, style="uniform_edge")
                .to_log() for k in range(4)
            ]
            if m == 2:
                ws += [make_ising(g, beta, 0.25) for beta in (0.5, -1.0)]
            # a K_{3,3} factor's largest tensor is m^3: one restriction per chunk
            budget = m ** 3 if tight else DEFAULT_BUDGET
            arrays = [counting_mod.weight_arrays(g, w) for w in ws]
            alone = [[z.log() for z in edge_kab_partitions(g, [a], budget)[0]] for a in arrays]
            together = edge_kab_partitions(g, arrays, budget)
            assert [[z.log() for z in factors] for factors in together] == alone


@given(
    st.sampled_from(_CONJ1_GRAPHS),
    st.integers(1, 3),
    st.integers(0, 10 ** 6),
    st.integers(-1, 5),
)
def test_conj2_factors_equal_brute_force_of_each_edge_restriction(g, hn, seed, empty):
    rng = random.Random(seed)
    h = Graph(hn, [(i, j) for i in range(hn) for j in range(i + 1, hn) if rng.random() < 0.7])
    lists = sample_list_assignment(g, h, seed)
    if empty >= 0:
        lists = with_list(lists, empty % g.n, [])
    r = list_edge_restriction_bound(g, h, lists)
    assert r.lhs.fraction == brute_list_homs(g.n, g.edges, hn, h.edges, lists.lists)
    for (u, v), (z, _) in zip(g.edges, r.rhs.factors):
        kab, _, _ = _kab_layout(g.degree(u), g.degree(v))
        kab_lists = lists_for_edge(g, lists, u, v)
        assert z.fraction == brute_list_homs(kab.n, kab.edges, hn, h.edges, kab_lists.lists)


def test_conj1_budget_is_the_largest_count_vector_space(monkeypatch):
    # double star: the centre edge's neighbourhoods have 4 vertices each,
    # so its DP has comb(4 + m - 1, m - 1) count vectors, while the left
    # side and the leaf edges need only m cells
    g = Graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)])
    for m, cost in ((2, 5), (3, 15)):
        w = sample_weights(g, m, seed=m, cap=9, style="uniform_edge")
        with pytest.raises(BudgetError, match=f"cost {cost} exceeds budget {cost - 1}"):
            edge_restriction_bound(g, w, budget=cost - 1)
        assert len(edge_restriction_bound(g, w, budget=cost).rhs.factors) == 7
        # a degree-1 end costs m, as the contraction it replaced did
        star = complete_bipartite(1, 3)
        inst = restrict_to_edge(star, sample_weights(star, m, seed=m, style="uniform_edge"), 0, 1)
        with pytest.raises(BudgetError, match=f"cost {m} exceeds budget {m - 1}"):
            partition_kab(inst, m - 1)
        assert partition_kab(inst, m).fraction == partition_brute(inst.graph, inst.weights).fraction

    def no_dp(*args):
        raise AssertionError("a count-vector DP ran before every budget was checked")

    monkeypatch.setattr(counting_mod, "_count_vectors", no_dp)
    with pytest.raises(BudgetError):
        edge_restriction_bound(g, sample_weights(g, 2, seed=1, style="uniform_edge"), budget=4)


def test_log_conj1_is_one_contraction_per_degree_pair(monkeypatch):
    # degree pairs (2,2), (2,3) twice, (3,2) and (2,1): four batches for five edges
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    w = sample_weights(g, 3, seed=4, style="uniform_edge").to_log()
    wants = [partition_function(*kab_on_edge(g, w, u, v)).log() for u, v in g.edges]
    batches = _spy_batches(monkeypatch)
    (factors,) = counting_mod.edge_kab_partitions(g, [counting_mod.weight_arrays(g, w)])
    assert [z.log() for z in factors] == pytest.approx(wants, rel=1e-12)
    assert sorted(batches) == [1, 1, 1, 2]


def _spy_batches(monkeypatch) -> list:
    """The batch size of every later ``contract`` call, None when unbatched."""
    batches = []
    contract = counting_mod.contract

    def spy(sizes, factors, budget, backend=Backend.EXACT, maxima=None, batch=None):
        batches.append(batch)
        return contract(sizes, factors, budget, backend, maxima, batch)

    monkeypatch.setattr(counting_mod, "contract", spy)
    return batches


def test_conj2_is_one_contraction_per_degree_pair(monkeypatch):
    # the degree pairs of test_log_conj1_is_one_contraction_per_degree_pair
    g, h = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]), complete_graph(3)
    lists = ListAssignment.full(g, h)
    count_list_homs(g, h, lists, DEFAULT_BUDGET)  # the left side, memoised before the spy
    batches = _spy_batches(monkeypatch)
    r = list_edge_restriction_bound(g, h, lists)
    assert sorted(batches) == [1, 1, 1, 2]
    for (u, v), (z, _) in zip(g.edges, r.rhs.factors):
        kab, _, _ = _kab_layout(g.degree(u), g.degree(v))
        assert z.fraction == backtrack_list_homs(kab, h, lists_for_edge(g, lists, u, v))


def test_thm4_thm5_and_conj2_share_one_list_hom_count():
    g, h = cycle_graph(6), complete_graph(3)
    lists = ListAssignment.full(g, h)
    count_list_homs.cache_clear()
    list_vertex_restriction_bound(g, h, lists)
    cover_family_report(g, h, lists, neighbourhood_family(g))
    list_edge_restriction_bound(g, h, lists)
    info = count_list_homs.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_conj2_k2_is_equality():
    g, h = complete_bipartite(1, 1), complete_graph(3)
    r = list_edge_restriction_bound(g, h)
    assert r.log_slack == 0.0
    assert r.verdict is Verdict.HOLDS


def test_conj2_biregular_full_lists_matches_thm4_rhs():
    g, h = cycle_graph(6), complete_graph(3)
    r2 = list_edge_restriction_bound(g, h)
    r4 = list_vertex_restriction_bound(g, h)
    assert compare_product(r2.rhs.factors, r4.rhs.factors) == 0


def test_conj2_empty_list_holds():
    g, h = cycle_graph(6), complete_graph(3)
    lists = with_list(ListAssignment.full(g, h), 0, [])
    r = list_edge_restriction_bound(g, h, lists)
    assert r.lhs.fraction == 0
    assert r.verdict is Verdict.HOLDS


# ----- independent-set bounds (ind, indconj) -----


def test_ind_c6_numbers():
    r = independent_set_regular_bound(cycle_graph(6))
    assert r.lhs.fraction == 18
    assert r.rhs_log == pytest.approx(1.5 * math.log(7), rel=1e-12)
    assert r.verdict is Verdict.HOLDS


def test_ind_equality_on_kdd():
    for d in (1, 2, 3):
        r = independent_set_regular_bound(complete_bipartite(d, d))
        assert r.log_slack == 0.0


def test_ind_requires_regular_bipartite():
    with pytest.raises(GraphError, match="not regular"):
        independent_set_regular_bound(complete_bipartite(2, 3))
    with pytest.raises(GraphError):
        independent_set_regular_bound(complete_graph(3))


def test_indconj_triangle_numbers():
    r = independent_set_edge_bound(complete_graph(3))
    assert r.lhs.fraction == 4
    assert r.rhs_log == pytest.approx(0.75 * math.log(7), rel=1e-12)
    assert r.verdict is Verdict.HOLDS


_CONNECTED_5 = list(enumerate_graphs(5, "all", True))


def _report_body(report) -> dict:
    """A report's JSON without the fields that name the bound and its inputs."""
    doc = report.to_json_dict()
    del doc["bound"], doc["weights_sha"]
    return doc


def _list_system(g, h, lists) -> WeightSystem:
    """The 0/1 weight system of lists: vertex rows mark the lists, every
    edge carries h's adjacency matrix (spin i is target i - 1)."""
    vertex = {(v, i + 1): 0 for v in g.vertices() for i in range(h.n) if i not in lists[v]}
    spins = [(i, j) for i in range(h.n) for j in range(i, h.n) if not h.has_edge(i, j)]
    edge = {(u, v, i + 1, j + 1): 0 for u, v in g.edges for i, j in spins}
    return WeightSystem.build(g, h.n, vertex, edge)


def test_conj2_matches_conj1_on_the_list_system():
    # conj2 runs the einsum kernel, conj1 the exact count-vector DP
    assert len(_CONNECTED_5) == 30
    for k, g in enumerate(_CONNECTED_5):
        for seed in range(3 * k, 3 * k + 3):
            h = sample_target_graph(3, seed)
            lists = sample_list_assignment(g, h, seed)
            conj2 = list_edge_restriction_bound(g, h, lists)
            conj1 = edge_restriction_bound(g, _list_system(g, h, lists))
            assert _report_body(conj1) == _report_body(conj2)


def test_indconj_matches_conj1_with_unit_hardcore():
    for g in _CONNECTED_5:
        r1 = edge_restriction_bound(g, make_hardcore(g, 1))
        r2 = independent_set_edge_bound(g)
        assert _report_body(r1) == _report_body(r2)


@pytest.mark.parametrize("name", ["thm3", "conj1"])
def test_weight_batches_that_do_not_fit_raise_value_errors(name):
    g = complete_bipartite(1, 2)
    for own in (path_graph(3), path_graph(5)):  # g's sizes with other edges, then other sizes
        w = sample_weights(own, 2, seed=7, style="uniform_edge")
        want = (f"weight system over {own.n} vertices and {own.num_edges} edges is not over "
                "this graph of 3 vertices and 2 edges")
        with pytest.raises(WeightError, match=want):
            bounds_mod.evaluate_trials(name, g, [{"weights": w}])
    g = complete_bipartite(2, 3)
    w2, w3 = (sample_weights(g, m, seed=m, style="uniform_edge") for m in (2, 3))
    for ws in ([w2, w3], [w2, w2.to_log()]):
        with pytest.raises(ValueError, match="the systems of one batch differ in spin count or backend"):
            bounds_mod.evaluate_trials(name, g, [{"weights": w} for w in ws])


def test_ind_equals_thm3_with_unit_hardcore():
    g = cycle_graph(6)
    r_ind = independent_set_regular_bound(g)
    r_thm3 = vertex_restriction_bound(g, make_hardcore(g, 1))
    assert r_ind.lhs.fraction == r_thm3.lhs.fraction
    assert compare_product(r_ind.rhs.factors, r_thm3.rhs.factors) == 0


def test_independent_set_bounds_pair():
    # ind needs a regular bipartite graph; indconj takes any without isolated vertices
    with pytest.raises(GraphError):
        evaluate_bound("ind", complete_graph(3))
    assert evaluate_bound("indconj", complete_graph(3)).bound == "indconj"
    assert evaluate_bound("ind", cycle_graph(6)).bound == "ind"


def test_evaluate_bound_matches_each_evaluator():
    assert BOUND_NAMES == tuple(BOUND_INPUTS)
    assert BOUND_NAMES == ("thm3", "thm4", "thm5", "conj1", "conj2", "ind", "indconj")
    g = cycle_graph(6)
    w = sample_weights(g, 3, seed=5, style="uniform_edge")
    h = sample_target_graph(3, 2)
    lists = sample_list_assignment(g, h, 3)
    assert neighbourhood_family(g) == _neighborhood_family(g)[1]
    direct = {
        "thm3": vertex_restriction_bound(g, w),
        "thm4": list_vertex_restriction_bound(g, h, lists),
        "thm5": cover_family_report(g, h, lists, neighbourhood_family(g)),
        "conj1": edge_restriction_bound(g, w),
        "conj2": list_edge_restriction_bound(g, h, lists),
        "ind": independent_set_regular_bound(g),
        "indconj": independent_set_edge_bound(g),
    }
    assert tuple(direct) == BOUND_NAMES
    for name, report in direct.items():
        # every input is passed; each bound reads only its own
        got = evaluate_bound(name, g, weights=w, target=h, lists=lists)
        assert got.to_json_dict() == report.to_json_dict()
    log_w = w.to_log()
    for name, fn in (("thm3", vertex_restriction_bound), ("conj1", edge_restriction_bound)):
        assert evaluate_bound(name, g, weights=log_w).to_json_dict() == fn(g, log_w).to_json_dict()
    # lists default to full lists; an explicit family replaces the neighbourhood one
    full = ListAssignment.full(g, h)
    got = evaluate_bound("conj2", g, target=h)
    assert got.to_json_dict() == list_edge_restriction_bound(g, h, full).to_json_dict()
    bp = bipartition(g)
    fam = CoverFamilyPair(pairs=((frozenset(bp.even), frozenset(bp.odd)),), t1=1, t2=1)
    got = evaluate_bound("thm5", g, target=h, lists=lists, family=fam)
    assert got.to_json_dict() == cover_family_report(g, h, lists, fam).to_json_dict()
    assert got.rhs != direct["thm5"].rhs
    with pytest.raises(GraphError):
        evaluate_bound("thm5", complete_graph(3), target=h)  # no neighbourhood family


@pytest.mark.parametrize(
    "name, inputs, message",
    [
        ("thm6", {}, "unknown bound name 'thm6'"),
        ("thm3", {}, "bound thm3 needs weights"),
        ("conj1", {"target": complete_graph(3)}, "bound conj1 needs weights"),
        ("thm4", {}, "bound thm4 needs a target graph"),
        ("thm5", {"lists": ListAssignment(4, [[0]] * 4)}, "bound thm5 needs a target graph"),
        ("conj2", {"weights": make_hardcore(cycle_graph(4), 1)}, "bound conj2 needs a target"),
    ],
)
def test_evaluate_bound_rejects_unknown_names_and_missing_inputs(name, inputs, message):
    with pytest.raises(ValueError, match=message):
        evaluate_bound(name, cycle_graph(4), **inputs)


def test_kab_independent_sets_closed_form():
    assert kab_independent_sets(2, 2) == 7
    assert kab_independent_sets(1, 3) == 9
    assert kab_independent_sets(3, 3) == 15


# ----- free-energy sandwich -----


def test_ising_check_c4():
    from oracles import ising_cycle_z

    r = ising_free_energy_check(cycle_graph(4), 1.0)
    assert r.free_energy == pytest.approx(math.log(ising_cycle_z(4, 1.0)) / 4, rel=1e-12)
    assert r.lower == pytest.approx(1.0)
    assert r.upper == pytest.approx(1.0 + math.log(2))
    assert r.in_bounds


def test_ising_check_q3():
    r = ising_free_energy_check(hypercube_graph(3), 1.0)
    assert (r.degree, r.n) == (3, 8)
    assert r.lower <= r.free_energy <= r.upper


def test_ising_check_kdd_upper_bound_argument():
    # Z(K_{d,d}) is at most 2^(2d) e^(beta d^2): each of the 2^(2d)
    # configurations has weight at most e^(beta d^2)
    for d, beta in [(2, 0.5), (3, 1.0)]:
        g = complete_bipartite(d, d)
        from spinz.counting import partition_function
        from spinz.weights import make_ising

        log_z = partition_function(g, make_ising(g, beta, 0.0)).log()
        assert log_z <= 2 * d * math.log(2) + beta * d * d + 1e-9


def test_ising_check_preconditions():
    with pytest.raises(ValueError, match="beta > 0"):
        ising_free_energy_check(cycle_graph(4), -1.0)
    with pytest.raises(GraphError):
        ising_free_energy_check(complete_bipartite(2, 3), 1.0)
    with pytest.raises(GraphError):
        ising_free_energy_check(complete_graph(3), 1.0)


# ----- report mechanics -----


def test_report_verdict_rules():
    one = NonNegValue.exact(1)
    two = PowerProduct(((NonNegValue.exact(2), Fraction(1)),))
    assert finish_report("x", one, two, "g", "w").verdict is Verdict.HOLDS
    reversed_report = finish_report(
        "x", NonNegValue.exact(3), two, "g", "w"
    )
    assert reversed_report.verdict is Verdict.VIOLATED
    assert reversed_report.backend is Backend.EXACT


def test_log_backend_never_reports_violated():
    lhs = NonNegValue.from_log(1.0)
    rhs = PowerProduct(((NonNegValue.from_log(0.0), Fraction(1)),))
    r = finish_report("x", lhs, rhs, "g", "w")
    assert r.verdict is Verdict.INCONCLUSIVE
    near = finish_report(
        "x", NonNegValue.from_log(1e-12), PowerProduct(((NonNegValue.from_log(0.0), Fraction(1)),)), "g", "w"
    )
    assert near.verdict is Verdict.HOLDS  # within the relative tolerance


def test_report_zero_cases():
    zero = NonNegValue.exact(0)
    pos = PowerProduct(((NonNegValue.exact(2), Fraction(1)),))
    r = finish_report("x", zero, pos, "g", "w")
    assert r.verdict is Verdict.HOLDS and r.log_slack == math.inf
    both = finish_report("x", zero, PowerProduct(((zero, Fraction(1)),)), "g", "w")
    assert both.verdict is Verdict.HOLDS and both.log_slack == 0.0


def test_report_json_schema():
    g = cycle_graph(6)
    r = vertex_restriction_bound(g, make_hardcore(g, 1))
    doc = r.to_json_dict()
    for key in ("bound", "backend", "verdict", "lhs_log", "rhs_log", "log_slack", "graph_sha", "weights_sha"):
        assert key in doc
    assert doc["lhs"] == {"num": "18", "den": "1"}
    assert all(f["exp_den"] == 2 for f in doc["rhs_factors"])


# ----- one covering-sum kernel for thm3, thm4 and thm5 -----


def test_per_vertex_bounds_make_one_cover_sum_per_right_side(monkeypatch):
    calls = []
    cover_sums = bounds_mod.cover_sums

    def spy(*args):
        calls.append(args)
        return cover_sums(*args)

    def unused(*args, **kwargs):
        raise AssertionError("a bound built a K_{a,b} restriction")

    monkeypatch.setattr(bounds_mod, "cover_sums", spy)
    # no bound builds a restriction system or sums one, whichever module binds the name
    for name in ("restrict_to_kab", "restrict_to_edge", "partition_kab"):
        for module in (weights_mod, counting_mod, bounds_mod, harness_mod):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, unused)
    h = complete_graph(3)
    # one call however many orientations: C_6 has two, K_{2,3} one
    for g in (cycle_graph(6), complete_bipartite(2, 3)):
        w = sample_weights(g, 2, seed=g.n)
        uniform = sample_weights(g, 2, seed=g.n, style="uniform_edge")
        for evaluate, want in (
            (lambda: vertex_restriction_bound(g, w), 1),
            (lambda: vertex_restriction_bound(g, w.to_log()), 1),
            (lambda: list_vertex_restriction_bound(g, h), 1),
            (lambda: evaluate_bound("thm5", g, target=h), 1),
            (lambda: edge_restriction_bound(g, uniform), 0),
            (lambda: edge_restriction_bound(g, uniform.to_log()), 0),
            (lambda: list_edge_restriction_bound(g, h), 0),
        ):
            calls.clear()
            bounds_mod._list_cover_memo.cache_clear()  # count the sums, not memo hits
            evaluate()
            assert len(calls) == want
        # thm5 on the neighbourhood family reuses thm4's sums
        list_vertex_restriction_bound(g, h)
        calls.clear()
        evaluate_bound("thm5", g, target=h)
        assert calls == []


# ----- batched list-hom factors against the backtracker -----


def test_list_bounds_batch_factors_match_the_backtracker():
    graphs = [cycle_graph(6), complete_bipartite(2, 3), hypercube_graph(3), path_graph(5)]
    for trial in range(12):
        g = graphs[trial % len(graphs)]
        h = sample_target_graph(4, seed=1300 + trial)
        lists = sample_list_assignment(g, h, seed=1400 + trial)
        conj2 = list_edge_restriction_bound(g, h, lists)
        for (u, v), (value, _) in zip(g.edges, conj2.rhs.factors):
            kab, _, _ = _kab_layout(g.degree(u), g.degree(v))
            assert value.fraction == backtrack_list_homs(kab, h, lists_for_edge(g, lists, u, v))
        assert conj2.lhs.fraction == backtrack_list_homs(g, h, lists)
        if g.n == 5:
            continue  # the path is not biregular
        cert = _cert(g)
        kab, _, _ = _kab_layout(cert.a, cert.b)
        thm4 = list_vertex_restriction_bound(g, h, lists)
        got = [value.fraction for value, _ in thm4.rhs.factors]
        wants = [
            [backtrack_list_homs(kab, h, lists_for_vertex(lists, c, v)) for v in sorted(c.odd)]
            for c in _orientation_certs(g)
        ]
        assert got in wants  # with a == b, the smaller orientation


def test_cover_family_value_past_int64_is_exact():
    g, h = complete_bipartite(3, 3), complete_graph(4)
    bp = bipartition(g)
    lists = ListAssignment.full(g, h)
    fam = CoverFamilyPair(pairs=((frozenset(bp.even), frozenset(bp.odd)),) * 20, t1=20, t2=1)
    want = cover_sum_by_enumeration(g, h, lists, bp.even, bp.odd, Fraction(20))
    assert want > 2 ** 62
    value = cover_family_value(g, h, lists, fam)
    assert [factor.fraction for factor, _ in value.factors] == [want] * 20


def test_cover_family_value_matches_enumeration():
    rng = random.Random(151)
    for trial in range(16):
        g = (cycle_graph(6), complete_bipartite(2, 3), hypercube_graph(3))[trial % 3]
        even, odd = sorted(bipartition(g).even), sorted(bipartition(g).odd)
        h = sample_target_graph(4, seed=1500 + trial)
        lists = sample_list_assignment(g, h, seed=1600 + trial)
        t1, t2 = rng.choice([(1, 1), (2, 1), (3, 1), (4, 3), (3, 2)])
        # the whole classes t1 * t2 times cover every vertex enough
        pairs = [(frozenset(even), frozenset(odd))] * t1 * t2
        for _ in range(3):
            a_set = frozenset(v for v in even if rng.random() < 0.5)
            pairs.append((a_set, frozenset(v for v in odd if rng.random() < 0.5)))
        value = cover_family_value(g, h, lists, CoverFamilyPair(pairs=tuple(pairs), t1=t1, t2=t2))
        for (a_set, b_set), (factor, e) in zip(pairs, value.factors):
            want = cover_sum_by_enumeration(g, h, lists, a_set, b_set, Fraction(t1, t2))
            assert e == Fraction(1, t1)
            if t1 % t2 == 0:
                assert factor.fraction == want
            elif want == -math.inf:
                assert factor.is_zero
            else:
                assert factor.log() == pytest.approx(want, rel=1e-12, abs=1e-12)


def _family(pairs, t1=2, t2=1):
    return CoverFamilyPair(tuple((frozenset(a), frozenset(b)) for a, b in pairs), t1, t2)


def test_list_and_family_checks_keep_their_messages():
    c6, k3 = cycle_graph(6), complete_graph(3)
    bad = ListAssignment(6, [[0], [0, 1], [5], [0], [1], [2]])
    negative = ListAssignment(6, [[0], [-1], [0], [0], [1], [2]])
    short = ListAssignment(5, [[0]] * 5)
    triangle = [({0, 2}, {1}), ({2, 4}, {3}), ({0, 4}, {5})]
    cases = [
        (lambda: evaluate_bound("thm4", c6, target=k3, lists=bad), "list of vertex 2 mentions unknown target 5"),
        (lambda: evaluate_bound("thm4", c6, target=k3, lists=negative), "list of vertex 1 mentions unknown target -1"),
        (lambda: evaluate_bound("thm4", c6, target=k3, lists=short), "list assignment length does not match the graph"),
        (lambda: evaluate_bound("thm5", c6, target=k3, lists=bad), "list of vertex 2 mentions unknown target 5"),
        (lambda: evaluate_bound("thm5", c6, target=k3, lists=short), "list assignment length does not match the graph"),
        (lambda: evaluate_bound("conj2", c6, target=k3, lists=bad), "list of vertex 2 mentions unknown target 5"),
        (lambda: evaluate_bound("conj2", c6, target=k3, lists=short), "list assignment length does not match the graph"),
        (lambda: count_list_homs(c6, k3, bad), "list of vertex 2 mentions unknown target 5"),
        (lambda: count_list_homs(c6, k3, short), "list assignment length does not match the graph"),
        (lambda: evaluate_bound("thm5", c6, target=k3, family=_family([({1, 3}, {0})])),
         "vertex 2 is covered by no A-set and no B-set"),
        (lambda: evaluate_bound("thm5", c6, target=k3, family=_family([({0, 2}, {2})])),
         "vertex 2 is in both an A-set and a B-set"),
        (lambda: evaluate_bound("thm5", c6, target=k3, family=_family([({0, 1}, {2, 3, 4, 5})], t1=1)),
         "edge (0,1) has both ends in the A-sets"),
        (lambda: evaluate_bound("thm5", c6, target=k3, family=_family([({0, 6}, {1})])),
         "vertex 6 out of range [0,6)"),
        (lambda: evaluate_bound("thm5", c6, target=k3, family=_family([({-1}, {1})])),
         "vertex -1 out of range [0,6)"),
        (lambda: evaluate_bound("thm5", c6, target=k3, family=_family(triangle, t1=3)),
         "vertex 0 is covered by 2 A-sets, fewer than t1=3"),
        (lambda: evaluate_bound("thm5", c6, target=k3, family=_family(triangle, t2=2)),
         "vertex 1 is covered by 1 B-sets, fewer than t2=2"),
        (lambda: evaluate_bound("thm5", k3, target=k3), "not bipartite: odd closed walk 1-0-2-1"),
        (lambda: evaluate_bound("thm5", k3, target=k3, family=_family([({0}, {1})])),
         "not bipartite: odd closed walk 1-0-2-1"),
        (lambda: evaluate_bound("thm4", path_graph(4), target=k3),
         "not biregular: vertices 0 (degree 1) and 2 (degree 2) share a class"),
    ]
    for _ in range(2):  # a failed check is not remembered
        for call, message in cases:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message


def test_lists_checked_for_one_target_size_are_checked_again_for_another():
    lists = ListAssignment(4, [[0, 2], [1], [2], [0]])
    lists.indicator_rows(3)
    with pytest.raises(ValueError, match="list of vertex 0 mentions unknown target 2"):
        lists.indicator_rows(2)
    assert evaluate_bound("thm4", cycle_graph(4), target=complete_graph(3), lists=lists).verdict is Verdict.HOLDS


def test_batched_weight_bounds_equal_their_batches_of_one():
    evaluators = {
        "thm3": (bounds_mod.vertex_restriction_bounds, vertex_restriction_bound),
        "conj1": (bounds_mod.edge_restriction_bounds, edge_restriction_bound),
    }
    cases = [
        (cycle_graph(6), "general", ("thm3",)),
        (complete_bipartite(2, 3), "uniform_edge", ("thm3", "conj1")),
        (Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]), "uniform_edge", ("conj1",)),
    ]
    for g, style, names in cases:
        ws = [sample_weights(g, 2, seed=s, cap=7, allow_zero=s % 2 == 1, style=style) for s in range(4)]
        logs = [w.to_log() for w in ws]
        for name in names:
            batch, single = evaluators[name]
            assert [r.to_json_dict() for r in batch(g, ws)] == [single(g, w).to_json_dict() for w in ws]
            for got, want in zip(batch(g, logs), [single(g, w) for w in logs]):
                assert got.verdict is want.verdict
                assert got.lhs_log == pytest.approx(want.lhs_log, rel=1e-12, abs=1e-12)
                assert got.rhs_log == pytest.approx(want.rhs_log, rel=1e-12, abs=1e-12)


# ----- each instance converted once; per-graph memos change no report -----


def _cubic_ten():
    """A connected 3-regular bipartite graph on 10 vertices, one of the
    biregular sweep's graphs: class 0..4 against class 5..9."""
    return Graph(10, [(i, 5 + (i + k) % 5) for i in range(5) for k in (0, 1, 3)])


_SHARED_KERNEL_GRAPHS = (
    cycle_graph(6),
    complete_bipartite(3, 3),
    complete_bipartite(2, 3),
    hypercube_graph(3),
    _cubic_ten(),
)


def _chosen(products):
    """The orientation product a per-vertex bound reports: the first,
    unless the second is strictly smaller."""
    p, q = products[0], products[-1]
    return p if compare_product(p.factors, q.factors) <= 0 else q


def _orientation_certs(g):
    cert = _cert(g)
    return [cert, BiregularCert(cert.a, cert.b, cert.odd, cert.even, g)] if cert.a == cert.b else [cert]


@pytest.mark.parametrize(
    "g",
    [cycle_graph(6), complete_bipartite(3, 3), hypercube_graph(3), _cubic_ten()],
    ids=["c6", "k33", "q3", "cubic10"],
)
def test_one_call_for_both_orientations_reports_the_smaller_product(g, monkeypatch):
    certs = _orientation_certs(g)
    assert len(certs) == 2  # a == b
    a = Fraction(certs[0].a)
    sides = [tuple((frozenset(c.neighbor_order(v)), frozenset({v})) for v in sorted(c.odd)) for c in certs]

    def smaller(weights):  # each orientation's product from a call of its own
        p, q = (PowerProduct(tuple((z, 1 / a) for z in counting_mod.cover_sums(g, weights, pairs, a)))
                for pairs in sides)
        if p.backend is Backend.LOG:
            return p if p.log() <= q.log() else q
        return _chosen([p, q])

    w = sample_weights(g, 3, seed=g.n, cap=9, allow_zero=True)
    h = sample_target_graph(4, seed=g.n)
    lists = sample_list_assignment(g, h, seed=g.n)
    cases = [
        (vertex_restriction_bound(g, w), smaller(counting_mod.weight_arrays(g, w))),
        (vertex_restriction_bound(g, w.to_log()), smaller(counting_mod.weight_arrays(g, w.to_log()))),
        (list_vertex_restriction_bound(g, h, lists), smaller(counting_mod.list_weights(g, h, lists))),
    ]
    for report, want in cases:
        assert report.rhs.factors == want.factors
    # thm5 on the neighbourhood family then sums nothing
    calls = []
    monkeypatch.setattr(bounds_mod, "cover_sums", lambda *args: calls.append(args))
    thm5 = cover_family_report(g, h, lists, neighbourhood_family(g))
    assert calls == [] and thm5.lhs == cases[2][0].lhs


@pytest.mark.parametrize("g", _SHARED_KERNEL_GRAPHS, ids=lambda g: f"n{g.n}m{g.num_edges}")
def test_shared_arrays_give_the_brute_force_reports(g):
    m = 2 if g.n >= 8 else 3
    h = sample_target_graph(4, seed=g.n)
    lists = sample_list_assignment(g, h, seed=g.n)
    for seed in range(2):
        w = sample_weights(g, m if seed else 2, seed=seed, cap=7, allow_zero=seed == 1)
        products = [
            PowerProduct(tuple(
                (partition_brute(*kab_around(w, c, v)), Fraction(1, c.a))
                for v in sorted(c.odd)
            ))
            for c in _orientation_certs(g)
        ]
        want = _chosen(products)
        exact = vertex_restriction_bound(g, w)
        assert exact.lhs == partition_brute(g, w)
        assert [v.fraction for v, _ in exact.rhs.factors] == [v.fraction for v, _ in want.factors]
        assert [e for _, e in exact.rhs.factors] == [e for _, e in want.factors]
        log = vertex_restriction_bound(g, w.to_log())
        assert log.lhs_log == pytest.approx(partition_brute(g, w.to_log()).log(), rel=1e-12)
        assert log.rhs_log == pytest.approx(want.log(), rel=1e-12, abs=1e-12)
    count = backtrack_list_homs(g, h, lists)
    thm4 = list_vertex_restriction_bound(g, h, lists)
    want = _chosen([list_vertex_restriction_rhs(g, h, lists, c) for c in _orientation_certs(g)])
    assert thm4.lhs.fraction == count
    assert [v.fraction for v, _ in thm4.rhs.factors] == [v.fraction for v, _ in want.factors]
    fam = neighbourhood_family(g)
    thm5 = cover_family_report(g, h, lists, fam)
    assert thm5.lhs.fraction == count
    assert [(v.fraction, e) for v, e in thm5.rhs.factors] == [
        (cover_sum_by_enumeration(g, h, lists, a_set, b_set, Fraction(fam.t1)), Fraction(1, fam.t1))
        for a_set, b_set in fam.pairs
    ]


def test_reports_do_not_depend_on_what_ran_before_on_the_graph():
    def clear_memos():
        for memo in (bounds_mod._neighbourhood_families, bounds_mod._list_cover_memo,
                     counting_mod._cover_layout, count_list_homs):
            memo.cache_clear()

    for g0 in (cycle_graph(6), complete_bipartite(2, 3), _cubic_ten()):
        targets = [complete_graph(3), Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])]
        lists = sample_list_assignment(g0, targets[0], seed=g0.n)  # one assignment for both
        runs = []
        for m in (1, 2, 3):
            w = sample_weights(g0, m, seed=m, cap=9)
            runs += [lambda g, w=w: vertex_restriction_bound(g, w),
                     lambda g, w=w.to_log(): vertex_restriction_bound(g, w)]
        for h in targets:
            runs += [lambda g, h=h: list_vertex_restriction_bound(g, h, lists),
                     lambda g, h=h: cover_family_report(g, h, lists, neighbourhood_family(g))]
        alone = []
        for run in runs:  # each on a new graph object with no memo behind it
            clear_memos()
            alone.append(json.dumps(run(Graph(g0.n, g0.edges)).to_json_dict()))
        clear_memos()
        g = Graph(g0.n, g0.edges)
        for order in (runs, runs[::-1]):
            after = [json.dumps(run(g).to_json_dict()) for run in order]
            assert after == (alone if order is runs else alone[::-1])
