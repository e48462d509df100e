import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinz.counting as counting_mod
from oracles import (
    backtrack_list_homs,
    brute_factor_sum,
    brute_list_homs,
    brute_partition,
    c4_torus_independent_sets,
    count_extensions,
    cover_sum_by_enumeration,
    independent_sets,
    ising_brute_log_z,
    ising_cycle_z,
    kab_around,
    kab_on_edge,
    lists_for_vertex,
    partition_brute,
    weighted_cover_sum_log,
    weighted_independent_set_sum,
    with_list,
    with_vertex_row,
)
from spinz.counting import (
    DEFAULT_BUDGET,
    BudgetError,
    CoverFamilyPair,
    ListAssignment,
    contract,
    count_list_homs,
    cover_sums,
    edge_kab_partitions,
    list_weights,
    weight_arrays,
    independent_set_count,
    parse_cover_family,
    parse_lists,
    partition_function,
    partition_kab,
    weight_of,
)
from spinz.graphs import (
    Graph,
    GraphError,
    bipartition,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    path_graph,
)
from spinz.harness import sample_list_assignment, sample_weights
from spinz.values import Backend
from spinz.weights import (
    WeightSystem,
    _kab_layout,
    make_hardcore,
    make_ising,
    restrict_to_kab,
)
from spinz.graphs import certify_biregular


def _tables(w, g):
    vertex = [[w.vertex_weight(v, i).fraction for i in range(1, w.m + 1)] for v in range(g.n)]
    edge = {
        e: [[w.edge_weight(*e, i, j).fraction for j in range(1, w.m + 1)] for i in range(1, w.m + 1)]
        for e in g.edges
    }
    return vertex, edge


def test_weight_of_all_ones():
    g = cycle_graph(4)
    w = WeightSystem.build(g, 2)
    assert weight_of(g, w, (1, 2, 1, 2)).fraction == 1


def test_weight_of_ising_edge():
    g = complete_bipartite(1, 1)
    w = make_ising(g, 1.5, 0.25)
    assert weight_of(g, w, (1, 1)).log() == pytest.approx(-1.5 + 0.5)


def test_weight_of_hardcore_adjacent_pair_is_zero():
    g = cycle_graph(4)
    w = make_hardcore(g, 1)
    assert weight_of(g, w, (1, 1, 2, 2)).is_zero


def test_partition_all_ones_counts_maps():
    g = path_graph(3)
    for m in (1, 2, 3):
        w = WeightSystem.build(g, m)
        assert partition_brute(g, w).fraction == m ** 3


def test_partition_brute_equals_config_sum():
    rng = random.Random(5)
    for trial in range(8):
        n = rng.randint(2, 4)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [e for e in pairs if rng.random() < 0.6]
        g = Graph(n, edges)
        m = rng.randint(1, 3)
        w = sample_weights(g, m, seed=trial, cap=6)
        total = Fraction(0)
        import itertools

        for cfg in itertools.product(range(1, m + 1), repeat=n):
            total += weight_of(g, w, cfg).fraction
        assert partition_brute(g, w).fraction == total


def test_partition_function_matches_brute_on_random_graphs():
    rng = random.Random(11)
    for trial in range(12):
        n = rng.randint(2, 6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [e for e in pairs if rng.random() < 0.5]
        g = Graph(n, edges)
        m = rng.randint(1, 3)
        w = sample_weights(g, m, seed=100 + trial, cap=9, allow_zero=True)
        assert partition_function(g, w).fraction == partition_brute(g, w).fraction


def test_partition_hardcore_c4_is_seven():
    g = cycle_graph(4)
    assert partition_brute(g, make_hardcore(g, 1)).fraction == 7


def test_partition_ising_c4_transfer_matrix():
    g = cycle_graph(4)
    w = make_ising(g, 1.0, 0.0)
    assert partition_brute(g, w).log() == pytest.approx(math.log(ising_cycle_z(4, 1.0)), rel=1e-12)
    assert partition_function(g, w).log() == pytest.approx(
        math.log(ising_cycle_z(4, 1.0)), rel=1e-12
    )


def test_partition_budget_error():
    g = cycle_graph(4)
    w = WeightSystem.build(g, 3)
    with pytest.raises(BudgetError, match="budget"):
        partition_brute(g, w, budget=10)


def _kab_instance(g, v=None):
    cert = certify_biregular(g, bipartition(g))
    v = v if v is not None else sorted(cert.odd)[0]
    return cert, v


def test_partition_kab_all_ones():
    g = cycle_graph(4)
    w = WeightSystem.build(g, 2)
    cert, v = _kab_instance(g)
    inst = restrict_to_kab(g, w, cert, v)
    assert partition_kab(inst).fraction == 16


def test_partition_kab_hardcore_closed_form():
    for d in (1, 2, 3):
        g = complete_bipartite(d, d)
        w = make_hardcore(g, 1)
        cert, v = _kab_instance(g)
        inst = restrict_to_kab(g, w, cert, v)
        assert partition_kab(inst).fraction == 2 ** (d + 1) - 1


def test_partition_kab_matches_brute_on_random_systems():
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            g = complete_bipartite(b, a)  # w side first, but any layout works
            for trial in range(6):
                m = 1 + trial % 3
                w = sample_weights(g, m, seed=31 * a + 7 * b + trial, cap=8)
                cert, v = _kab_instance(g)
                inst = restrict_to_kab(g, w, cert, v)
                assert partition_kab(inst).fraction == partition_brute(inst.graph, inst.weights).fraction


def test_partition_kab_shared_table_agrees_with_brute():
    # a restriction whose edges all share one table, against brute force
    for trial in range(10):
        g = complete_bipartite(3, 3)
        w = sample_weights(g, 3, seed=trial, cap=7, style="uniform_edge")
        cert, v = _kab_instance(g)
        inst = restrict_to_kab(g, w, cert, v)
        assert inst.weights.uniform_edge_table() is not None
        assert partition_kab(inst).fraction == partition_brute(inst.graph, inst.weights).fraction


def test_partition_log_backend_agrees_with_exact():
    g = cycle_graph(6)
    w = sample_weights(g, 2, seed=3, cap=9)
    exact = partition_function(g, w).log()
    logd = partition_function(g, w.to_log()).log()
    assert logd == pytest.approx(exact, rel=1e-12)


def _torus(p, q):
    """C_p x C_q, vertex (i, j) at id i * q + j."""
    edges = set()
    for i in range(p):
        for j in range(q):
            v = i * q + j
            for u in (((i + 1) % p) * q + j, i * q + (j + 1) % q):
                edges.add((min(u, v), max(u, v)))
    return Graph(p * q, edges)


def test_independent_sets_of_c4_tori_match_transfer_matrix():
    for n in range(3, 13):
        assert independent_set_count(_torus(4, n)) == c4_torus_independent_sets(n)


def test_log_backend_ising_on_torus_matches_enumeration():
    g = _torus(3, 4)  # triangle columns: not bipartite
    for beta, h in ((0.7, 0.0), (-0.4, 0.3)):
        got = partition_function(g, make_ising(g, beta, h)).log()
        assert got == pytest.approx(ising_brute_log_z(g.n, g.edges, beta, h), rel=1e-12)


def test_partition_budget_is_checked_before_any_contraction(monkeypatch):
    def no_einsum(*args, **kwargs):
        raise AssertionError("einsum ran before the budget check")

    monkeypatch.setattr(np, "einsum", no_einsum)
    g = _torus(4, 4)
    w = make_hardcore(g, 1)
    for system in (w, w.to_log()):
        with pytest.raises(BudgetError, match="budget"):
            partition_function(g, system, budget=4)


def test_hardcore_log_backend_is_log_of_exact_count():
    for g in (cycle_graph(7), complete_graph(4), _torus(4, 5)):
        logz = partition_function(g, make_hardcore(g, 1).to_log()).log()
        assert logz == pytest.approx(math.log(independent_set_count(g)), rel=1e-12)


def test_all_zero_vertex_row_gives_zero_in_both_backends():
    g = cycle_graph(5)
    w = WeightSystem.build(g, 2, vertex={(2, 1): 0, (2, 2): 0})
    assert partition_function(g, w).fraction == 0
    assert partition_function(g, w.to_log()).is_zero


def test_isolated_vertex_and_factorless_variable():
    g = Graph(4, [(0, 1), (1, 2)])  # vertex 3 is isolated
    w = sample_weights(g, 3, seed=5, cap=9)
    exact = partition_function(g, w)
    assert exact.fraction == partition_brute(g, w).fraction
    assert partition_function(g, w.to_log()).log() == pytest.approx(exact.log(), rel=1e-12)
    # variable 2 is in no factor: it contributes its range of 5
    assert contract([2, 3, 5], [((0, 1), [[1, 2, 0], [0, 1, 1]])], DEFAULT_BUDGET) == 25
    logs = [[0.0, math.log(2), -math.inf], [-math.inf, 0.0, 0.0]]
    assert contract([2, 3, 5], [((0, 1), logs)], DEFAULT_BUDGET, Backend.LOG) == pytest.approx(
        math.log(25), rel=1e-12
    )


def test_single_spin_systems_on_wide_graphs():
    # 120 variables of size 1: far more than einsum has axis labels
    g = complete_bipartite(60, 60)
    w = WeightSystem.build(g, 1, vertex={(v, 1): 2 for v in g.vertices()})
    assert partition_function(g, w).fraction == 2 ** 120
    assert partition_function(g, w.to_log()).log() == pytest.approx(120 * math.log(2), rel=1e-12)


def test_contract_is_exact_beyond_int64():
    keep = np.ones((300, 300), dtype=bool)
    keep[0, 0] = False
    factors = [((k, k + 1), keep) for k in range(7)]
    zero, other = 1, 299  # length-1 sequences ending in value 0 / elsewhere
    for _ in range(7):  # no two consecutive zeros
        zero, other = other, 299 * (zero + other)
    assert zero + other > 2 ** 62
    assert contract([300] * 8, factors, DEFAULT_BUDGET) == zero + other


def test_contract_takes_tuple_and_list_tables_alike():
    table = [[1, 2], [3, 4]]
    as_tuples = tuple(map(tuple, table))
    assert contract([2, 2], [((0, 1), as_tuples)], 100) == 10
    assert contract([2, 2], [((0, 1), table)], 100) == 10
    assert contract([2, 2], [((0, 1), np.array(table))], 100) == 10
    cube = [[[1, 2], [3, 4]], [[5, 6], [7, 2 ** 60]]]  # its maximum picks int64
    nested = tuple(tuple(map(tuple, plane)) for plane in cube)
    want = sum(x for plane in cube for row in plane for x in row)
    assert contract([2, 2, 2], [((0, 1, 2), nested)], 100) == want
    assert contract([2, 2, 2], [((0, 1, 2), cube)], 100) == want


def test_high_degree_vertices_split_their_einsum_calls():
    # the centre's bucket holds one tensor per leaf: more than one einsum call takes
    star = Graph(101, [(0, leaf) for leaf in range(1, 101)])
    assert independent_set_count(star) == 2 ** 100 + 1
    assert partition_function(star, make_hardcore(star, 1).to_log()).log() == pytest.approx(
        math.log(2 ** 100 + 1), rel=1e-12
    )
    g = complete_bipartite(2, 80)
    lam = Fraction(3, 2)
    want = (1 + lam) ** 80 + 2 * lam + lam * lam  # the 2-side empty, or not
    assert partition_function(g, make_hardcore(g, lam)).fraction == want
    logz = partition_function(g, make_hardcore(g, lam).to_log()).log()
    assert logz == pytest.approx(math.log(want), rel=1e-12)


def test_log_backend_never_loses_terms_to_underflow():
    # antiferromagnetic triangle: the 'same spin' entries sit 800 nats
    # below the table maximum, and every configuration has such an edge
    g = cycle_graph(3)
    w = make_ising(g, 400, 0)
    assert partition_function(g, w).log() == pytest.approx(400 + math.log(6), rel=1e-12)
    with pytest.raises(BudgetError, match="8 exceeds budget 4"):  # the plan fits, no log-domain step
        partition_function(g, w, budget=4)
    # every table spans 400 nats, but both products of all four are e^-800
    tables = ([0.0, -400.0], [-400.0, 0.0], [-400.0, 0.0], [0.0, -400.0])
    z = contract([2], [((0,), t) for t in tables], DEFAULT_BUDGET, Backend.LOG)
    assert z == pytest.approx(-800 + math.log(2), rel=1e-12)
    # hard zeros are not underflow: no enumeration could run on C_4 x C_12
    g = _torus(4, 12)
    logz = partition_function(g, make_hardcore(g, 1).to_log(), budget=2 ** 12).log()
    assert logz == pytest.approx(math.log(c4_torus_independent_sets(12)), rel=1e-12)


def test_log_domain_steps_cost_their_own_label_space():
    # C_4 at beta = 400 underflows, so its plan runs in the log domain;
    # each step spans 2^3 cells of the 2^4 configurations
    g = cycle_graph(4)
    z = partition_function(g, make_ising(g, 400, 0), budget=8)
    assert z.log() == pytest.approx(1600 + math.log(2), rel=1e-12)
    with pytest.raises(BudgetError, match="8 exceeds budget 7"):
        partition_function(g, make_ising(g, 400, 0), budget=7)


def test_underflowing_log_hypercube_needs_no_enumeration():
    # Q_4 at beta = 400: the two proper colourings carry e^12800, every
    # other configuration at least 800 nats less.  2^16 configurations
    # exceed the budget, so no enumeration can have run.
    g = hypercube_graph(4)
    z = partition_function(g, make_ising(g, 400, 0), budget=2 ** 10)
    assert z.log() == pytest.approx(12800 + math.log(2), rel=1e-12)


def test_underflowing_log_cycle_matches_transfer_matrix():
    k, beta = 30, 400.0
    want = k * math.log(2 * math.cosh(beta)) + math.log1p((-math.tanh(beta)) ** k)
    g = cycle_graph(k)
    assert partition_function(g, make_ising(g, beta, 0)).log() == pytest.approx(want, rel=1e-12)


def test_underflowing_log_kab_batch_matches_enumeration():
    g = cycle_graph(8)
    rows = [(0.3 * v, -0.3 * v) for v in range(g.n)]  # a field that differs at every vertex
    w = WeightSystem(2, g.n, Backend.LOG, rows, make_ising(g, 400, 0).logs()[1])
    assert {(g.degree(u), g.degree(v)) for u, v in g.edges} == {(2, 2)}
    wants = [partition_brute(*kab_on_edge(g, w, u, v)).log() for u, v in g.edges]
    # a log-domain step spans 8 cells, so a budget of 16 runs two restrictions at a time
    for budget in (DEFAULT_BUDGET, 16):
        (zs,) = edge_kab_partitions(g, [w], budget)
        assert [z.log() for z in zs] == pytest.approx(wants, rel=1e-12)


def test_independent_set_count_matches_enumeration():
    rng = random.Random(23)
    for trial in range(10):
        n = rng.randint(2, 6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [e for e in pairs if rng.random() < 0.5]
        g = Graph(n, edges)
        assert independent_set_count(g) == len(independent_sets(n, g.edges))


def test_hardcore_counts_every_graph_up_to_six_vertices():
    from spinz.harness import enumerate_graphs

    checked = 0
    for g in enumerate_graphs(6, "all"):
        assert independent_set_count(g) == len(independent_sets(g.n, g.edges))
        checked += 1
    assert checked > 150  # every isomorphism class with at least one edge
    # edgeless graphs: every subset is independent
    g0 = Graph(3, [])
    assert independent_set_count(g0) == 8


def test_hardcore_partition_matches_weighted_enumeration():
    rng = random.Random(29)
    for trial in range(8):
        n = rng.randint(2, 6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [e for e in pairs if rng.random() < 0.5]
        g = Graph(n, edges)
        lam = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in range(n)}
        w = make_hardcore(g, lam)
        assert partition_function(g, w).fraction == weighted_independent_set_sum(
            n, g.edges, lam
        )


def test_count_list_homs_k2_to_k3():
    g, h = complete_bipartite(1, 1), complete_graph(3)
    assert count_list_homs(g, h, ListAssignment.full(g, h)) == 6


def test_count_list_homs_empty_list():
    g, h = cycle_graph(4), complete_graph(3)
    lists = with_list(ListAssignment.full(g, h), 2, [])
    assert count_list_homs(g, h, lists) == 0


def test_count_list_homs_c6_to_k3():
    g, h = cycle_graph(6), complete_graph(3)
    assert count_list_homs(g, h, ListAssignment.full(g, h)) == 66  # (3-1)^6 + (3-1)


def test_count_list_homs_matches_brute():
    rng = random.Random(37)
    for trial in range(10):
        n = rng.randint(2, 5)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph(n, [e for e in pairs if rng.random() < 0.5])
        hn = rng.randint(2, 4)
        hpairs = [(i, j) for i in range(hn) for j in range(i + 1, hn)]
        h = Graph(hn, [e for e in hpairs if rng.random() < 0.6] or [(0, 1)])
        lists = ListAssignment(n, [[y for y in range(hn) if rng.random() < 0.7] for _ in range(n)])
        assert count_list_homs(g, h, lists) == brute_list_homs(
            n, g.edges, hn, h.edges, lists.lists
        )


def test_count_list_homs_budget_guard():
    # the plan's largest tensor is 3^6 = 729 cells
    g, h = complete_bipartite(6, 6), complete_graph(3)
    with pytest.raises(BudgetError, match="729 exceeds budget 100"):
        count_list_homs(g, h, ListAssignment.full(g, h), budget=100)
    # one side takes a colour set S, the other the rest: 3 * 2^6 + 3 * (2^6 - 2)
    assert count_list_homs(g, h, ListAssignment.full(g, h), budget=729) == 378


def test_count_list_homs_singleton_lists():
    g, h = cycle_graph(4), cycle_graph(4)
    hom = ListAssignment(4, [[0], [1], [2], [3]])
    not_hom = ListAssignment(4, [[0], [2], [1], [3]])
    assert count_list_homs(g, h, hom) == 1
    assert count_list_homs(g, h, not_hom) == 0


def test_count_list_homs_monotone_in_lists():
    g, h = cycle_graph(6), complete_graph(3)
    lists = ListAssignment(6, [[0], [1], [0, 2], [1], [0], [1, 2]])
    base = count_list_homs(g, h, lists)
    for v in range(6):
        grown = with_list(lists, v, list(lists[v]) + [y for y in range(3) if y not in lists[v]][:1])
        assert count_list_homs(g, h, grown) >= base


def test_count_extensions_empty_b_side():
    g, h = cycle_graph(4), complete_graph(3)
    lists = ListAssignment.full(g, h)
    assert count_extensions(g, h, lists, [0, 2], [], {0: 0, 2: 1}) == 1


def test_count_extensions_neighborhood():
    g, h = cycle_graph(4), complete_graph(3)
    lists = ListAssignment.full(g, h)
    assert count_extensions(g, h, lists, [0, 2], [1], {0: 0, 2: 0}) == 2


def test_count_extensions_free_vertices_multiply():
    g = Graph(4, [(0, 1)])
    h = complete_graph(3)
    lists = ListAssignment.full(g, h)
    # vertices 2,3 have no anchor in A={0}: factor 3 each; vertex 1 anchored
    assert count_extensions(g, h, lists, [0], [1, 2, 3], {0: 0}) == 2 * 3 * 3


def test_count_extensions_validates_partial_map():
    g, h = cycle_graph(4), complete_graph(3)
    lists = with_list(ListAssignment.full(g, h), 0, [1])
    with pytest.raises(ValueError, match="violates"):
        count_extensions(g, h, lists, [0], [1], {0: 0})
    with pytest.raises(ValueError, match="undefined"):
        count_extensions(g, h, lists, [0, 2], [1], {0: 1})


def test_lists_parse_and_defaults():
    g, h = cycle_graph(4), complete_graph(3)
    lists = parse_lists("l 0 0 2\nl 1\n", g, h)
    assert lists[0] == (0, 2)
    assert lists[1] == ()
    assert lists[2] == (0, 1, 2)
    round_trip = parse_lists(lists.to_text(), g, h)
    assert round_trip == lists


def test_cover_family_validation():
    g = cycle_graph(6)
    bp = bipartition(g)
    good = CoverFamilyPair(
        pairs=tuple((frozenset(g.neighbors(v)), frozenset({v})) for v in sorted(bp.odd)),
        t1=2,
        t2=1,
    )
    good.validate(g)
    bad = CoverFamilyPair(pairs=((frozenset({0}), frozenset({1})),), t1=1, t2=1)
    with pytest.raises(ValueError, match="covered by"):
        bad.validate(g)
    wrong_side = CoverFamilyPair(pairs=((frozenset({1}), frozenset({0})),), t1=1, t2=1)
    with pytest.raises(ValueError, match="vertex 2 is covered by no A-set and no B-set"):
        wrong_side.validate(g)


def test_cover_family_parse():
    fam = parse_cover_family("t 2 1\nA 0 2\nB 1\nA 2 4\nB 3\n")
    assert fam.t1 == 2 and fam.t2 == 1
    assert fam.pairs[0] == (frozenset({0, 2}), frozenset({1}))
    with pytest.raises(ValueError, match="matching B"):
        parse_cover_family("t 1 1\nA 0\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("t 2 x\nA 0\nB 1\n", "line 1: t takes integers"),
        ("t 1 1\nA 0 x\nB 1\n", "line 2: A takes integers"),
        ("t 1 1\nA 0\n# note\nB 1.5\n", "line 4: B takes integers"),
        ("t 1 1\nA 0\nB 1\nt 2 2\n", "line 4: duplicate 't' header"),
        ("t 1 1\nC 0\n", "line 2: unknown directive 'C'"),
    ],
)
def test_parse_cover_family_errors_name_the_line(text, message):
    with pytest.raises(ValueError, match=message):
        parse_cover_family(text)


# Large exact float64 steps go through BLAS: one np.matmul for two
# operands, einsum's optimize=True for more.  A step's kernel is fixed
# when it is planned.


@contextmanager
def _blas_from(cells):
    """Plans made inside run exact float64 steps of at least ``cells``
    cells through BLAS.  The kernel is fixed when a step is planned, so
    the plan cache is cleared on entry and on exit."""
    counting_mod._plan.cache_clear()
    try:
        with mock.patch.object(counting_mod, "_BLAS_MIN_CELLS", cells):
            yield
    finally:
        counting_mod._plan.cache_clear()


def _einsum_calls(monkeypatch):
    """Record (through BLAS, operand dtypes) of every einsum and matmul
    call: np.einsum, the kernel the engine calls directly for unoptimised
    steps, and np.matmul, which always goes through BLAS."""
    calls = []
    real, kernel, matmul = np.einsum, counting_mod._c_einsum, np.matmul

    def spy(*args, optimize=False):
        calls.append((optimize, {a.dtype for a in args if isinstance(a, np.ndarray)}))
        return real(*args, optimize=optimize)

    def kernel_spy(*args):
        calls.append((False, {a.dtype for a in args if isinstance(a, np.ndarray)}))
        return kernel(*args)

    def matmul_spy(a, b):
        calls.append((True, {a.dtype, b.dtype}))
        return matmul(a, b)

    monkeypatch.setattr(np, "einsum", spy)
    monkeypatch.setattr(np, "matmul", matmul_spy)
    monkeypatch.setattr(counting_mod, "_c_einsum", kernel_spy)
    return calls


def _c4_count(keep):
    """Block homomorphisms of C_4 in object-dtype integers: the trace of
    the product of the edge matrices around the cycle."""
    a01, a03, a12, a23 = (keep[e].astype(object) for e in ((0, 1), (0, 3), (1, 2), (2, 3)))
    return int(np.trace(a01 @ a12 @ a23 @ a03.T))


def _k23_count(keep):
    """K_{2,3} (sides 0, 1 and 2, 3, 4) in object-dtype integers: for each
    image of 0 and 1, the product over the other side of its common
    neighbours."""
    total = np.ones((keep[(0, 2)].shape[0], keep[(1, 2)].shape[0]), dtype=object)
    for y in (2, 3, 4):
        total = total * (keep[(0, y)].astype(object) @ keep[(1, y)].astype(object).T)
    return int(total.sum())


def test_blas_steps_are_exact_on_random_blocks(monkeypatch):
    calls = _einsum_calls(monkeypatch)
    rng = random.Random(17)
    nprng = np.random.default_rng(17)
    for g, oracle in ((cycle_graph(4), _c4_count), (complete_bipartite(2, 3), _k23_count)):
        for trial in range(6):
            sizes = [120] * g.n if trial == 0 else [rng.randint(1, 120) for _ in range(g.n)]
            density = rng.choice([0.05, 0.5, 0.95])
            keep = {(u, v): nprng.random((sizes[u], sizes[v])) < density for u, v in g.edges}
            want = oracle(keep)
            assert contract(sizes, list(keep.items()), DEFAULT_BUDGET) == want
    blas = [dtypes for optimize, dtypes in calls if optimize]
    assert blas and all(dtypes == {np.dtype(np.float64)} for dtypes in blas)


def test_blas_steps_count_all_ones_blocks_exactly(monkeypatch):
    calls = _einsum_calls(monkeypatch)
    for g in (cycle_graph(4), complete_bipartite(2, 3)):
        for c in (1, 7, 120, 1000):
            factors = [(e, np.ones((c, c), dtype=bool)) for e in g.edges]
            assert contract([c] * g.n, factors, DEFAULT_BUDGET) == c ** g.n
    assert any(optimize for optimize, _ in calls)


def test_log_and_integer_dtype_steps_never_go_through_blas(monkeypatch):
    rng = np.random.default_rng(5)
    g = cycle_graph(4)
    sizes = [60, 50, 60, 40]
    logs = [((u, v), rng.normal(size=(sizes[u], sizes[v]))) for u, v in g.edges]
    wide = [((u, v), rng.integers(0, 2 ** 4, size=(sizes[u], sizes[v]))) for u, v in g.edges]
    wide.append(((0,), [2 ** 20] * sizes[0]))  # int64 dtype
    wide_obj = wide + [((1,), [2 ** 62] * sizes[1])]  # object dtype
    before = [
        contract(sizes, logs, DEFAULT_BUDGET, Backend.LOG),
        contract(sizes, wide, DEFAULT_BUDGET),
        contract(sizes, wide_obj, DEFAULT_BUDGET),
    ]
    # even with every step large enough for BLAS, only float64 EXACT steps take it
    with _blas_from(1):
        calls = _einsum_calls(monkeypatch)
        after = [
            contract(sizes, logs, DEFAULT_BUDGET, Backend.LOG),
            contract(sizes, wide, DEFAULT_BUDGET),
            contract(sizes, wide_obj, DEFAULT_BUDGET),
        ]
    assert after == before  # bit for bit: the log value is compared with ==
    assert calls and not any(optimize for optimize, _ in calls)
    dtypes = set().union(*(d for _, d in calls))
    assert {np.dtype(np.float64), np.dtype(np.int64), np.dtype(object)} <= dtypes
    assert isinstance(before[0], float) and before[1] < before[2]


def _random_factor_graph(data, batch=None):
    """Sizes and 0/1 factors of a random factor graph on at most 4
    variables; with ``batch``, each factor's table is shared or stacked
    (one table per instance on a leading axis) at random."""
    n = data.draw(st.integers(1, 4))
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    scope = st.lists(st.integers(0, n - 1), max_size=3, unique=True).map(tuple)
    scopes = data.draw(st.lists(scope, min_size=1, max_size=6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    factors = []
    for vars_ in scopes:
        shape = tuple(sizes[x] for x in vars_)
        if batch is not None and data.draw(st.booleans()):
            shape = (batch, *shape)
        factors.append((vars_, rng.random(shape) < data.draw(st.sampled_from([0.3, 0.7, 1.0]))))
    return sizes, factors


def _matmul_steps(sizes, factors):
    """The steps of ``contract``'s plan for these factors that run as one
    ``np.matmul`` in an exact float64 call."""
    scopes = counting_mod._narrow(sizes, [v for v, _ in factors])
    _, _, steps = counting_mod._plan(tuple(sizes), scopes)
    return [kernel for *_, kernel in steps if getattr(kernel, "func", None) is counting_mod._matmul]


def _contract_both_ways(sizes, factors, batch=None):
    """``contract`` with every float64 step of two or more operands
    through BLAS, and with none; also the np.matmul calls of the first
    and the matmul steps of its plan."""
    calls = []
    matmul = np.matmul

    def spy(a, b):
        calls.append((a.shape, b.shape))
        return matmul(a, b)

    with _blas_from(1), mock.patch.object(np, "matmul", spy):
        blas = contract(sizes, factors, DEFAULT_BUDGET, batch=batch)
        planned = _matmul_steps(sizes, factors)
    with _blas_from(2 ** 62):
        plain = contract(sizes, factors, DEFAULT_BUDGET, batch=batch)
    return blas, plain, calls, planned


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matmul_steps_equal_einsum_and_brute_force(data):
    sizes, factors = _random_factor_graph(data)
    blas, plain, calls, planned = _contract_both_ways(sizes, factors)
    nested = [(vars_, table.astype(int).tolist()) for vars_, table in factors]
    assert blas == plain == brute_factor_sum(sizes, nested)
    assert len(calls) == len(planned)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_batched_matmul_steps_equal_einsum_and_brute_force(data):
    batch = data.draw(st.integers(1, 3))
    sizes, factors = _random_factor_graph(data, batch)
    blas, plain, _, _ = _contract_both_ways(sizes, factors, batch)
    want = [
        brute_factor_sum(
            sizes,
            [(v, (t[k] if t.ndim > len(v) else t).astype(int).tolist()) for v, t in factors],
        )
        for k in range(batch)
    ]
    assert blas == plain == want


def test_matmul_step_transposes_its_product_to_the_plan_labels(monkeypatch):
    # eliminating 0 from (0, 2) and (0, 1) leaves the product's axes as
    # (2, 1), transposed to the plan's (1, 2); the step has 32^3 cells
    sizes = [32, 32, 32]
    rng = np.random.default_rng(11)
    scopes = ((0, 2), (0, 1), (1,), (1, 2))
    factors = [(v, rng.random([sizes[x] for x in v]) < 0.6) for v in scopes]
    _, _, steps = counting_mod._plan(tuple(sizes), scopes)
    _, _, _, cells, kernel = steps[0]
    assert cells >= counting_mod._BLAS_MIN_CELLS and kernel.func is counting_mod._matmul
    program = kernel.args[0]
    assert program[2][0][0] == (1, 0)
    calls = _einsum_calls(monkeypatch)
    nested = [(v, t.astype(int).tolist()) for v, t in factors]
    assert contract(sizes, factors, DEFAULT_BUDGET) == brute_factor_sum(sizes, nested)
    assert (True, {np.dtype(np.float64)}) in calls


def test_dot_product_steps_keep_the_plain_kernel(monkeypatch):
    # two factors over (0, 1): eliminating 0 keeps label 1, which both
    # operands hold, so the 182^2-cell step is 182 dot products, which
    # matmul runs about twice as slowly as the unoptimised kernel
    sizes = [182, 182]
    rng = np.random.default_rng(3)
    factors = [((0, 1), rng.random((182, 182)) < 0.5) for _ in range(2)]
    _, _, steps = counting_mod._plan(tuple(sizes), ((0, 1), (0, 1)))
    assert steps[0][3] >= counting_mod._BLAS_MIN_CELLS
    calls = _einsum_calls(monkeypatch)
    a, b = (t.astype(object) for _, t in factors)
    assert contract(sizes, factors, DEFAULT_BUDGET) == int((a * b).sum())
    assert calls and not any(through_blas for through_blas, _ in calls)


# Batched contraction: K_{a,b} restrictions, list-hom counts, cover sums.

_BIREGULAR = (
    cycle_graph(6),
    complete_bipartite(2, 3),
    complete_bipartite(3, 3),
    hypercube_graph(3),
    complete_bipartite(1, 3),
    complete_bipartite(1, 1),
)


@given(
    st.sampled_from(_BIREGULAR),
    st.integers(1, 3),
    st.integers(0, 10 ** 6),
    st.sampled_from(["general", "uniform_edge"]),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
def test_partition_kab_equals_partition_function(g, m, seed, style, zero_row, log, tight):
    w = sample_weights(g, m, seed=seed, cap=9, allow_zero=seed % 2 == 0, style=style)
    cert = certify_biregular(g, bipartition(g))
    if zero_row:  # one even vertex with every spin weight 0
        vertex, edge = _tables(w, g)
        vertex[min(cert.even)] = [0] * m
        spins = [(i, j) for i in range(m) for j in range(i, m)]
        w = WeightSystem.build(
            g,
            m,
            {(v, i + 1): x for v, row in enumerate(vertex) for i, x in enumerate(row)},
            {(*e, i + 1, j + 1): edge[e][i][j] for e in g.edges for i, j in spins},
        )
    if log:
        w = w.to_log()
    # the largest tensor is m^min(a, b), and no DP has more count vectors
    budget = m ** min(cert.a, cert.b) if tight else DEFAULT_BUDGET
    for inst in (restrict_to_kab(g, w, cert, v) for v in sorted(cert.odd)):
        z, one = partition_kab(inst, budget), partition_function(inst.graph, inst.weights)
        if log:
            assert z.log() == one.log() or z.log() == pytest.approx(one.log(), rel=1e-12)
        else:
            assert z.fraction == one.fraction == partition_brute(inst.graph, inst.weights).fraction


def test_batched_contract_chunks_and_shares_tables():
    rng = np.random.default_rng(3)
    sizes, scopes = [3, 2, 4], [(0,), (0, 1), (1, 2), ()]
    # six instances; the (1, 2) table has no batch axis and is shared by all
    shapes = [(6, 3), (6, 3, 2), (2, 4), (6,)]
    factors = [(s, rng.integers(0, 5, size=shape)) for s, shape in zip(scopes, shapes)]
    want = [
        contract(sizes, [(s, t[k, ...] if s != (1, 2) else t) for s, t in factors], DEFAULT_BUDGET)
        for k in range(6)
    ]
    for budget in (2, 3, 5, DEFAULT_BUDGET):  # the largest tensor has 2 cells
        assert contract(sizes, factors, budget, batch=6) == want
    with pytest.raises(BudgetError):
        contract(sizes, factors, 1, batch=6)
    with np.errstate(divide="ignore"):
        logs = [(s, np.log(t)) for s, t in factors]
    got = contract(sizes, logs, 2, Backend.LOG, batch=6)
    assert got == pytest.approx([math.log(x) if x else -math.inf for x in want], rel=1e-12)
    assert contract([2], [((0,), [1, 1])], DEFAULT_BUDGET, batch=3) == [2, 2, 2]


def test_count_list_homs_matches_backtracker_and_brute():
    rng = random.Random(71)
    for trial in range(40):
        n = rng.randint(1, 6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph(n, [e for e in pairs if rng.random() < 0.5])
        hn = rng.randint(1, 4)  # |V(h)| = 1 has no edge
        hpairs = [(i, j) for i in range(hn) for j in range(i + 1, hn)]
        h = Graph(hn, [e for e in hpairs if rng.random() < 0.6])
        batch = [
            ListAssignment(n, [[y for y in range(hn) if rng.random() < 0.7] for _ in range(n)])
            for _ in range(3)
        ]
        for lists in batch:
            k = count_list_homs(g, h, lists)
            assert k == backtrack_list_homs(g, h, lists) == brute_list_homs(n, g.edges, hn, h.edges, lists.lists)
        if not g.edges:  # every list an empty one gives no map at all
            assert count_list_homs(g, h, ListAssignment(n, [[]] * n)) == 0


def test_list_hom_engine_on_empty_vertex_sets():
    # A spinz graph has at least one vertex, so |V(G)| = 0 and |V(H)| = 0
    # reach the engine only as contractions: no variables sum to the one
    # empty map, and variables with no values to no map.
    with pytest.raises(GraphError):
        Graph(0, [])
    assert contract([], [], DEFAULT_BUDGET) == 1
    assert contract([], [], DEFAULT_BUDGET, batch=2) == [1, 1]
    empty = [((0,), np.zeros(0)), ((1,), np.zeros(0)), ((0, 1), np.zeros((0, 0)))]
    assert contract([0, 0], empty, DEFAULT_BUDGET, maxima=[1, 1, 1]) == 0


def test_count_list_homs_c30_to_k3_is_fast():
    g, h = cycle_graph(30), complete_graph(3)
    lists = ListAssignment.full(g, h)
    times = []
    for _ in range(3):
        count_list_homs.cache_clear()  # time the count, not the memo
        start = time.perf_counter()
        count = count_list_homs(g, h, lists)
        times.append(time.perf_counter() - start)
        assert count == 2 ** 30 + 2
    assert min(times) < 0.05


def test_count_list_homs_past_int64_is_exact():
    # 3^60 bounds the sum, so the contraction runs on Python ints
    g, h = cycle_graph(60), complete_graph(3)
    assert count_list_homs(g, h, ListAssignment.full(g, h)) == 2 ** 60 + 2


@pytest.mark.parametrize("g", [complete_bipartite(3, 3), cycle_graph(8)])
@pytest.mark.parametrize("e", [20, 41])  # c_v^41 itself passes 2^63 at c_v = 3
def test_cover_sums_past_int64_are_exact(g, e):
    h = complete_graph(4)
    even, odd = sorted(bipartition(g).even), sorted(bipartition(g).odd)
    lists = ListAssignment(g.n, [range(4)] * (g.n - 1) + [[1, 3]])
    pairs = [(frozenset(even), frozenset(odd)), (frozenset(even[:2]), frozenset(odd))]
    sums = cover_sums(g, list_weights(g, h, lists), pairs, Fraction(e))
    for (a_set, b_set), z in zip(pairs, sums):
        want = cover_sum_by_enumeration(g, h, lists, a_set, b_set, Fraction(e))
        assert want > 2 ** 62
        assert z.fraction == want


def test_log_cover_sums_past_the_float_range():
    # e * log 3 is about 825 nats: the tables e * log c_v span more than
    # float64 holds, which only a sum in the log domain survives
    g, h, e = complete_bipartite(3, 3), complete_graph(4), Fraction(1501, 2)
    even, odd = sorted(bipartition(g).even), sorted(bipartition(g).odd)
    pairs = [(frozenset(even), frozenset(odd)), (frozenset(even[:2]), frozenset(odd[1:]))]
    for rows in ([range(4)] * 6, [[0, 2]] + [range(4)] * 4 + [[1, 2, 3]], [[]] + [range(4)] * 5):
        lists = ListAssignment(6, rows)
        for (a_set, b_set), z in zip(pairs, cover_sums(g, list_weights(g, h, lists), pairs, e)):
            want = cover_sum_by_enumeration(g, h, lists, a_set, b_set, e)
            assert z.log() == want or z.log() == pytest.approx(want, rel=1e-12)
    # on C_6 the plan needs 16 cells, the log-domain steps 64, as many as the maps on A
    g, e = cycle_graph(6), Fraction(4001, 2)
    lists, pair = ListAssignment.full(g, h), (frozenset({0, 2, 4}), frozenset({1, 3, 5}))
    want = cover_sum_by_enumeration(g, h, lists, *pair, e)
    got = cover_sums(g, list_weights(g, h, lists), [pair], e, budget=64)[0]
    assert got.log() == pytest.approx(want, rel=1e-12)
    with pytest.raises(BudgetError, match="64 exceeds budget 63"):
        cover_sums(g, list_weights(g, h, lists), [pair], e, budget=63)


def test_log_elimination_matches_contract(monkeypatch):
    rng = np.random.default_rng(5)
    star = [((0, k), rng.random((2, 3))) for k in range(1, 41)]  # a 40-operand bucket
    cases = [([2] + [3] * 40, star + [((), np.array(0.5))], None)]
    for n in range(1, 6):
        sizes = [int(x) for x in rng.integers(1, 4, size=n)]
        scopes = [(v,) for v in range(n)] + [(u, v) for u in range(n) for v in range(u + 1, n)]
        scopes = [s for s in scopes if rng.random() < 0.7]
        for batch in (None, 2):
            tables = []
            for s in scopes:
                shape = [sizes[x] for x in s]
                if batch and rng.random() < 0.5:
                    shape = [batch, *shape]
                tables.append(rng.random(shape) * (rng.random(shape) < 0.8))
            cases.append((sizes, list(zip(scopes, tables)), batch))
    wants = []
    for sizes, factors, batch in cases:
        with np.errstate(divide="ignore"):
            logs = [(s, np.log(t)) for s, t in factors]
        wants.append(contract(sizes, logs, DEFAULT_BUDGET, Backend.LOG, batch=batch))
    # a shift threshold above every shifted entry sends each call to the
    # log domain, through contract's own plan and tables, at its first
    # table unless that table is all zero (the sum is then zero)
    fallbacks = []
    real = counting_mod._log_elimination
    monkeypatch.setattr(counting_mod, "_LOG_TINY", math.inf)
    monkeypatch.setattr(counting_mod, "_log_elimination", lambda *a: fallbacks.append(a) or real(*a))
    for (sizes, factors, batch), want in zip(cases, wants):
        with np.errstate(divide="ignore"):
            logs = [(s, np.log(t)) for s, t in factors]
        got = contract(sizes, logs, DEFAULT_BUDGET, Backend.LOG, batch=batch)
        for z, w in zip(got if batch else [got], want if batch else [want]):
            assert z == w or z == pytest.approx(w, rel=1e-12)
    assert len(fallbacks) == sum(factors[0][1].any() for _, factors, _ in cases) == len(cases) - 1


def test_log_fallback_runs_contracts_own_plan(monkeypatch):
    # test_plans_match_brute_force's wide span: the last table's zeros are
    # live entries 800 nats down, so the call runs in the log domain
    sizes = [3, 2, 4]
    rng = np.random.default_rng(29)
    scopes = [(0, 1), (1, 2), (0, 2), (2,)]
    tables = [np.log(rng.integers(1, 4, size=[sizes[x] for x in s]).astype(float)) for s in scopes]
    tables[-1][0] = -800.0
    plans, fallbacks = [], []
    plan, log_elimination = counting_mod._plan, counting_mod._log_elimination
    monkeypatch.setattr(counting_mod, "_plan", lambda *a: plans.append(a) or plan(*a))
    monkeypatch.setattr(
        counting_mod, "_log_elimination", lambda *a: fallbacks.append(a) or log_elimination(*a)
    )
    got = contract(sizes, list(zip(scopes, tables)), DEFAULT_BUDGET, Backend.LOG)
    nested = [(s, t.tolist()) for s, t in zip(scopes, tables)]
    assert got == pytest.approx(brute_factor_sum(sizes, nested, log=True), rel=1e-12)
    assert len(fallbacks) == 1 and len(plans) == 1


def test_plans_match_brute_force(monkeypatch):
    # random factor graphs of 1-11 factors, batched and not: EXACT in all
    # three dtypes, LOG with zeros and with tables whose
    # span sends the call to _log_elimination
    fallbacks = []
    real = counting_mod._log_elimination
    monkeypatch.setattr(counting_mod, "_log_elimination", lambda *a: fallbacks.append(a) or real(*a))
    rng = np.random.default_rng(23)
    seen = set()
    for trial in range(200):
        n = int(rng.integers(1, 5))
        sizes = [int(x) for x in rng.integers(1, 5, size=n)]
        scopes = [tuple(sorted(rng.choice(n, int(rng.integers(0, min(n, 3) + 1)), replace=False).tolist()))
                  for _ in range(int(rng.integers(1, 12)))]
        batch = 3 if trial % 2 else None
        stacked = [batch is not None and rng.random() < 0.6 for _ in scopes]
        shapes = [((batch,) if b else ()) + tuple(sizes[x] for x in s) for s, b in zip(scopes, stacked)]
        # the largest entry of every table picks the dtype: float64, int64 (the
        # bound near 2^57) or Python ints
        kind = trial // 2 % 3
        top = (3, int((2 ** 57 / math.prod(sizes)) ** (1 / len(scopes))), 2 ** 40)[kind]
        tables = [rng.integers(0, top + 1, size=shape) for shape in shapes]
        for t in tables:
            t.flat[0] = top
        if kind == 0 and trial % 4 < 2:
            tables = [t.astype(float) for t in tables]  # whole-number float tables
        maxima = [top] * len(tables)
        seen.add((batch, counting_mod._contract_dtype(sizes, maxima)))

        def instance(k, tables):
            return [(s, (t[k] if b else t).tolist()) for s, t, b in zip(scopes, tables, stacked)]

        factors = list(zip(scopes, tables))
        want = [brute_factor_sum(sizes, instance(k, tables)) for k in range(batch or 1)]
        got = contract(sizes, factors, DEFAULT_BUDGET, batch=batch)
        assert (got if batch else [got]) == want
        with np.errstate(divide="ignore"):
            logs = [np.log(t.astype(float)) for t in tables]
        if trial % 4 == 1:  # the last table's zeros become live entries 800 nats down
            logs[-1] = np.where(logs[-1] > -np.inf, logs[-1], -800.0)
        want = [brute_factor_sum(sizes, instance(k, logs), log=True) for k in range(batch or 1)]
        got = contract(sizes, list(zip(scopes, logs)), DEFAULT_BUDGET, Backend.LOG, batch=batch)
        for z, w in zip(got if batch else [got], want):
            assert z == w or z == pytest.approx(w, rel=1e-9, abs=1e-9)
    dtypes = {np.float64, np.int64, object}
    assert {(b, d) for b in (None, 3) for d in dtypes} <= seen
    assert fallbacks


def test_cover_sums_budget_bounds_every_table():
    g, h = complete_bipartite(3, 3), complete_graph(3)
    lists = ListAssignment.full(g, h)
    bp = bipartition(g)
    pairs = [(frozenset(bp.even), frozenset(bp.odd))]
    want = count_list_homs(g, h, lists)
    got = cover_sums(g, list_weights(g, h, lists), pairs, Fraction(1), budget=27)[0]
    assert got.fraction == want
    with pytest.raises(BudgetError, match="27 exceeds budget 26"):
        cover_sums(g, list_weights(g, h, lists), pairs, Fraction(1), budget=26)


# ----- cover_sums as the per-vertex K_{a,b} kernel of thm3 and thm4 -----

_VERTEX_KERNEL_GRAPHS = (
    cycle_graph(6),
    complete_bipartite(2, 3),
    complete_bipartite(3, 3),
    hypercube_graph(3),
)


def _orientations(g):
    cert = certify_biregular(g, bipartition(g))
    return [cert, cert.swapped()] if cert.a == cert.b else [cert]


def _around(cert):
    """The pairs (N(v), {v}) over the degree-b class of one orientation."""
    return [(frozenset(cert.neighbor_order(v)), frozenset({v})) for v in sorted(cert.odd)]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(_VERTEX_KERNEL_GRAPHS),
    st.integers(1, 3),
    st.integers(0, 10 ** 6),
    st.sampled_from(["general", "uniform_edge"]),
    st.integers(-1, 7),
)
def test_vertex_kernel_equals_each_kab_restriction(g, m, seed, style, zero):
    w = sample_weights(g, m, seed=seed, cap=9, allow_zero=seed % 2 == 1, style=style)
    if zero >= 0:
        w = with_vertex_row(w, zero % g.n, [0] * m)
    for cert in _orientations(g):
        pairs = _around(cert)
        exact = cover_sums(g, weight_arrays(g, w), pairs, Fraction(cert.a))
        insts = [kab_around(w, cert, v) for v in sorted(cert.odd)]
        assert [z.fraction for z in exact] == [partition_function(*inst).fraction for inst in insts]
        for (kab, weights), z in zip(insts, exact):
            if m ** kab.n <= 243:
                rows, tables = _tables(weights, kab)
                assert z.fraction == brute_partition(kab.n, kab.edges, rows, tables)
        logs = cover_sums(g, weight_arrays(g, w.to_log()), pairs, Fraction(cert.a))
        for z, want in zip(logs, exact):
            assert z.log() == want.log() or z.log() == pytest.approx(want.log(), rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(_VERTEX_KERNEL_GRAPHS),
    st.integers(1, 4),
    st.integers(0, 10 ** 6),
    st.integers(-1, 7),
)
def test_list_kernel_equals_each_kab_list_count(g, m, seed, empty):
    rng = random.Random(seed)
    h = Graph(m, [(i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < 0.7])
    lists = sample_list_assignment(g, h, seed)
    if empty >= 0:
        lists = with_list(lists, empty % g.n, [])
    for cert in _orientations(g):
        got = cover_sums(g, list_weights(g, h, lists), _around(cert), Fraction(cert.a))
        # the K_{a,b} layout thm4 counted before: neighbours first, then a copies of v
        kab, _, _ = _kab_layout(cert.a, cert.b)
        restricted = [lists_for_vertex(lists, cert, v) for v in sorted(cert.odd)]
        before = [count_list_homs(kab, h, kab_lists) for kab_lists in restricted]
        brute = [backtrack_list_homs(kab, h, kab_lists) for kab_lists in restricted]
        assert [z.fraction for z in got] == before == brute


@pytest.mark.parametrize(
    "low, high, path",
    [
        (20, 30, np.float64),  # 8 * c_v^3 < 2^53
        (60, 70, np.int64),  # 2^53 <= 8 * c_v^3 < 2^62
        (900, 1000, object),  # c_v^3 > 2^63
        (1 << 21, 1 << 22, object),  # c_v itself > 2^63
    ],
)
def test_vertex_kernel_is_exact_on_every_dtype_path(monkeypatch, low, high, path):
    # K_{3,3} with 2 spins and unit rows: 2 * low^3 <= max c_v <= 2 * high^3,
    # and the contraction's bound is 2^3 * (max c_v)^3
    g = complete_bipartite(3, 3)
    rng = random.Random(low)
    edge = {(u, v, i, j): rng.randint(low, high) for u, v in g.edges for i in (1, 2) for j in (i, 2)}
    w = WeightSystem.build(g, 2, edge=edge)
    (cert,) = _orientations(g)[:1]
    seen = []
    contract = counting_mod.contract

    def spy(sizes, factors, budget, backend, maxima, batch):
        seen.append(counting_mod._exact_dtype(math.prod(sizes) * math.prod(maxima)))
        return contract(sizes, factors, budget, backend, maxima, batch)

    monkeypatch.setattr(counting_mod, "contract", spy)
    got = cover_sums(g, weight_arrays(g, w), _around(cert), Fraction(cert.a))
    monkeypatch.undo()
    assert seen == [path]
    want = [partition_brute(*kab_around(w, cert, v)).fraction for v in sorted(cert.odd)]
    assert [z.fraction for z in got] == want
    logs = cover_sums(g, weight_arrays(g, w.to_log()), _around(cert), Fraction(cert.a))
    assert [z.log() for z in logs] == pytest.approx([z.log() for z in got], rel=1e-12)


@pytest.mark.parametrize("low, high", [(1, 9), (10 ** 12, 2 * 10 ** 12)])
def test_log_cover_sums_of_python_int_tables(monkeypatch, low, high):
    # A fractional exponent takes EXACT tables to logs.  Past int64 the row
    # factors and c_v tables hold Python ints (object dtype), whose logs
    # np.log cannot take: at 10^12 every table is such, and at 1..9 the
    # object path is forced and must agree with the float64 one.
    g = complete_bipartite(3, 3)
    rng = random.Random(low)
    w = WeightSystem.build(
        g, 2, {(v, i): rng.randint(low, high) for v in g.vertices() for i in (1, 2)},
        {(u, v, i, j): rng.randint(low, high) for u, v in g.edges for i in (1, 2) for j in (i, 2)},
    )
    bp = bipartition(g)
    pairs = [(frozenset(g.neighbors(v)), frozenset({v})) for v in sorted(bp.odd)]
    pairs += [(frozenset(bp.even), frozenset(bp.odd)), (frozenset(sorted(bp.even)[:2]), frozenset(bp.odd))]
    e = Fraction(3, 2)
    want = [weighted_cover_sum_log(g, w, a_set, b_set, e) for a_set, b_set in pairs]
    got = [z.log() for z in cover_sums(g, weight_arrays(g, w), pairs, e)]
    assert got == pytest.approx(want, rel=1e-12)
    dtypes = []
    exact_dtype = counting_mod._exact_dtype

    def python_ints(bound):
        dtypes.append(exact_dtype(bound))
        return object

    monkeypatch.setattr(counting_mod, "_exact_dtype", python_ints)
    forced = [z.log() for z in cover_sums(g, weight_arrays(g, w), pairs, e)]
    assert dtypes == [np.float64 if high < 10 else object]
    assert forced == pytest.approx(got, rel=1e-14)


def test_vertex_kernel_budget_is_the_c_v_table():
    # each c_v table has m^b cells; on LOG inputs the m terms over s of
    # every cell are held at once, m^(b+1); uniform tables cost the same
    for g in (complete_bipartite(2, 3), hypercube_graph(3)):
        (cert,) = _orientations(g)[:1]
        pairs, a, b = _around(cert), Fraction(cert.a), cert.b
        for m in (2, 3):
            h = complete_graph(m)
            cases = [
                (weight_arrays(g, sample_weights(g, m, seed=m)), m ** b),
                (weight_arrays(g, sample_weights(g, m, seed=m, style="uniform_edge")), m ** b),
                (weight_arrays(g, sample_weights(g, m, seed=m).to_log()), m ** (b + 1)),
                (list_weights(g, h, ListAssignment.full(g, h)), m ** b),
            ]
            for weights, cost in cases:
                assert len(cover_sums(g, weights, pairs, a, cost)) == len(pairs)
                with pytest.raises(BudgetError, match=f"cost {cost} exceeds budget {cost - 1}"):
                    cover_sums(g, weights, pairs, a, cost - 1)


def test_vertex_kernel_runs_in_chunks_within_the_budget(monkeypatch):
    # Q_3's four pairs (N(v), {v}) share one shape; a budget of k c_v tables
    # (m^3 cells, m^4 on LOG) sums them k at a time, to the same values
    g, m = hypercube_graph(3), 2
    (cert,) = _orientations(g)[:1]
    pairs, a = _around(cert), Fraction(cert.a)
    w = sample_weights(g, m, seed=5)
    h = complete_graph(m + 1)
    cases = [
        (weight_arrays(g, w), m ** 3),
        (weight_arrays(g, w.to_log()), m ** 4),
        (list_weights(g, h, ListAssignment.full(g, h)), (m + 1) ** 3),
    ]
    contract = counting_mod.contract
    for weights, cost in cases:
        value = (lambda z: z.log()) if weights.backend is Backend.LOG else (lambda z: z.fraction)
        want = [value(z) for z in cover_sums(g, weights, pairs, a, DEFAULT_BUDGET)]
        for budget, batches in ((cost + 1, [1, 1, 1, 1]), (2 * cost, [2, 2]), (3 * cost, [3, 1])):
            seen = []

            def spy(*args):
                seen.append(args[5])
                return contract(*args)

            monkeypatch.setattr(counting_mod, "contract", spy)
            got = cover_sums(g, weights, pairs, a, budget)
            monkeypatch.undo()
            assert seen == batches
            assert [value(z) for z in got] == want


def test_one_list_assignment_gives_each_target_size_its_own_rows():
    lists = ListAssignment(4, [[0, 1], [1], [0, 2], []])
    k3, c4 = complete_graph(3), cycle_graph(4)
    small, big = lists.indicator_rows(3), lists.indicator_rows(4)
    for rows, k in ((small, 3), (big, 4)):
        assert rows.tolist() == [[1.0 if y in row else 0.0 for y in range(k)] for row in lists.lists]
        assert not rows.flags.writeable
    assert lists.indicator_rows(3) is small and lists.indicator_rows(4) is big
    g = cycle_graph(4)
    for h in (k3, c4, k3):
        assert count_list_homs(g, h, lists) == backtrack_list_homs(g, h, lists)
        got = cover_sums(g, list_weights(g, h, lists), [(frozenset({0, 2}), frozenset({1, 3}))], Fraction(1))
        assert got[0].fraction == backtrack_list_homs(g, h, lists)
    wide = ListAssignment(4, [[0, 3], [1], [-1, 0], [2]])
    with pytest.raises(ValueError, match="list of vertex 0 mentions unknown target 3"):
        wide.indicator_rows(3)
    with pytest.raises(ValueError, match="list of vertex 2 mentions unknown target -1"):
        wide.indicator_rows(4)
