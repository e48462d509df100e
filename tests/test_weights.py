import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import spinz.weights as weights_mod
from oracles import (
    clear_fractions,
    complete_graph,
    fraction_sample_weights,
    fraction_weight_tables,
    kab_around,
    kab_on_edge,
    partition_brute,
    path_graph,
    weights_file_text,
)
from spinz.bounds import edge_restriction_bound, vertex_restriction_bound
from spinz.graphs import (
    Graph,
    GraphError,
    bipartition,
    certify_biregular,
    complete_bipartite,
    cycle_graph,
    hypercube_graph,
)
from spinz.harness import WEIGHT_STYLES, sample_weights
from spinz.values import Backend, NonNegValue, log_of_fraction
from spinz.weights import (
    WeightError,
    WeightParseError,
    WeightSystem,
    _kab_layout,
    make_hardcore,
    make_ising,
    parse_weights,
    restrict_to_edge,
    restrict_to_kab,
)
from spinz.blowup import scale_edge_weights
from spinz.counting import partition_function, partition_kab


def test_build_defaults_to_one():
    g = cycle_graph(4)
    w = WeightSystem.build(g, 2)
    assert w.vertex_weight(0, 1).fraction == 1
    assert w.edge_weight(0, 1, 1, 2).fraction == 1


def test_symmetric_read():
    g = cycle_graph(4)
    w = WeightSystem.build(g, 3, edge={(0, 1, 1, 3): Fraction(2, 5)})
    assert w.edge_weight(0, 1, 3, 1) == w.edge_weight(0, 1, 1, 3)
    assert w.edge_weight(1, 0, 1, 3) == w.edge_weight(0, 1, 1, 3)


@given(st.integers(1, 3), st.integers(1, 3))
def test_symmetric_read_all_pairs(i, j):
    g = cycle_graph(4)
    entries = {
        (u, v, a, b): Fraction((u + 1) * a, (v + 1) * b + 1)
        for u, v in g.edges
        for a in range(1, 4)
        for b in range(a, 4)
    }
    w = WeightSystem.build(g, 3, edge=entries)
    for u, v in g.edges:
        assert w.edge_weight(u, v, i, j) == w.edge_weight(u, v, j, i)


def test_parse_and_serialize_round_trip():
    g = cycle_graph(4)
    text = "m 2\nvw 0 1 3/2\nvw 3 2 0\new 0 1 1 2 5/7\n"
    w = parse_weights(text, g)
    assert w.vertex_weight(0, 1).fraction == Fraction(3, 2)
    assert w.vertex_weight(3, 2).is_zero
    assert w.edge_weight(0, 1, 2, 1).fraction == Fraction(5, 7)
    again = parse_weights(w.to_text(), g)
    assert again.to_text() == w.to_text()


def test_parse_rejects_noncanonical_pair():
    g = cycle_graph(4)
    with pytest.raises(WeightParseError, match="canonical"):
        parse_weights("m 2\new 0 1 2 1 1/2\n", g)


def test_parse_rejects_duplicates_and_unknown_edges():
    g = cycle_graph(4)
    with pytest.raises(WeightParseError, match="duplicate"):
        parse_weights("m 2\nvw 0 1 1\nvw 0 1 2\n", g)
    with pytest.raises(WeightParseError, match="not an edge"):
        parse_weights("m 2\new 0 2 1 1 1\n", g)
    with pytest.raises(WeightParseError, match="negative"):
        parse_weights("m 2\nvw 0 1 -1\n", g)


def test_hardcore_single_edge():
    g = complete_bipartite(1, 1)
    w = make_hardcore(g, 1)
    assert partition_brute(g, w).fraction == 3


def test_hardcore_weighted_edge():
    g = complete_bipartite(1, 1)
    w = make_hardcore(g, {0: 2, 1: 3})
    assert partition_brute(g, w).fraction == 6


def test_hardcore_c4():
    g = cycle_graph(4)
    w = make_hardcore(g, 1)
    assert partition_brute(g, w).fraction == 7


def test_hardcore_requires_all_activities():
    with pytest.raises(Exception, match="missing"):
        make_hardcore(cycle_graph(4), {0: 1})


def test_ising_single_edge():
    g = complete_bipartite(1, 1)
    w = make_ising(g, 1.0, 0.0)
    expected = math.log(2 * math.exp(-1) + 2 * math.exp(1))
    assert partition_brute(g, w).log() == pytest.approx(expected, rel=1e-12)


def test_ising_zero_coupling_counts_configs():
    g = cycle_graph(5)
    w = make_ising(g, 0.0, 0.0)
    assert partition_brute(g, w).log() == pytest.approx(5 * math.log(2), rel=1e-12)


@given(st.floats(-2, 2), st.floats(-2, 2))
def test_ising_field_swap_symmetry(beta, h):
    g = cycle_graph(4)
    z_plus = partition_function(g, make_ising(g, beta, h)).log()
    z_minus = partition_function(g, make_ising(g, beta, -h)).log()
    assert z_plus == pytest.approx(z_minus, rel=1e-12, abs=1e-12)


def _cert(g):
    return certify_biregular(g, bipartition(g))


def test_restrict_to_kab_uniform_hardcore():
    g = cycle_graph(4)
    w = make_hardcore(g, 1)
    inst = restrict_to_kab(g, w, _cert(g), 1)
    assert (inst.a, inst.b) == (2, 2)
    assert partition_brute(inst.graph, inst.weights).fraction == 7


def test_restrict_to_kab_copies_the_right_rows():
    g = cycle_graph(6)
    weights = {(v, i): Fraction(v + 1, i + 1) for v in range(6) for i in (1, 2)}
    w = WeightSystem.build(g, 2, vertex=weights)
    cert = _cert(g)
    v = 1
    inst = restrict_to_kab(g, w, cert, v)
    # z side: copies of v's row; w side: the rows of its neighbors 0 and 2
    for z in inst.z_ids:
        for i in (1, 2):
            assert inst.weights.vertex_weight(z, i) == w.vertex_weight(v, i)
    for k, u in enumerate(cert.neighbor_order(v)):
        for i in (1, 2):
            assert inst.weights.vertex_weight(inst.w_ids[k], i) == w.vertex_weight(u, i)


def test_restrict_to_kab_rejects_even_class_vertex():
    g = cycle_graph(4)
    w = make_hardcore(g, 1)
    with pytest.raises(Exception, match="odd"):
        restrict_to_kab(g, w, _cert(g), 0)


def test_restrict_neighbor_order_permutation_preserves_z():
    g = cycle_graph(6)
    weights = {(v, i): Fraction(2 * v + i, 3) for v in range(6) for i in (1, 2)}
    w = WeightSystem.build(g, 2, vertex=weights)
    cert = _cert(g)
    base = restrict_to_kab(g, w, cert, 1)
    flipped = restrict_to_kab(g, w, cert, 1, neighbor_order=(2, 0))
    assert partition_function(base.graph, base.weights).fraction == partition_function(
        flipped.graph, flipped.weights
    ).fraction


def test_restrict_to_edge_hardcore():
    g = cycle_graph(6)
    w = make_hardcore(g, {v: Fraction(v + 1) for v in range(6)})
    inst = restrict_to_edge(g, w, 0, 1)
    assert (inst.a, inst.b) == (2, 2)
    # w side carries the neighbors of 1 (0 and 2); z side the neighbors of 0 (1 and 5)
    assert inst.weights.vertex_weight(inst.w_ids[0], 1).fraction == 1
    assert inst.weights.vertex_weight(inst.w_ids[1], 1).fraction == 3
    assert inst.weights.vertex_weight(inst.z_ids[0], 1).fraction == 2
    assert inst.weights.vertex_weight(inst.z_ids[1], 1).fraction == 6


def test_restrict_to_edge_ising_keeps_table():
    g = cycle_graph(4)
    w = make_ising(g, 0.7, 0.3)
    inst = restrict_to_edge(g, w, 0, 1)
    assert inst.weights.edge_weight(inst.w_ids[0], inst.z_ids[0], 1, 2).log() == pytest.approx(0.7)


def test_restrict_to_edge_rejects_mixed_tables():
    g = cycle_graph(4)
    w = WeightSystem.build(g, 2, edge={(0, 1, 1, 1): Fraction(1, 2)})
    with pytest.raises(Exception, match="ambiguous"):
        restrict_to_edge(g, w, 1, 2)


def test_to_log_preserves_values():
    g = cycle_graph(4)
    w = WeightSystem.build(g, 2, vertex={(0, 1): Fraction(7, 3)})
    lw = w.to_log()
    assert lw.backend is Backend.LOG
    assert lw.vertex_weight(0, 1).log() == pytest.approx(math.log(7 / 3), rel=1e-12)


def test_sha_stable_and_distinct():
    g = cycle_graph(4)
    w1 = WeightSystem.build(g, 2, vertex={(0, 1): 2})
    w2 = WeightSystem.build(g, 2, vertex={(0, 1): 3})
    assert w1.sha() == WeightSystem.build(g, 2, vertex={(0, 1): 2}).sha()
    assert w1.sha() != w2.sha()


# The cleared form: integer rows and tables stored once per exact system
# and shared by reference with every restriction.


def _restrictions(g, w):
    """Every K_{a,b} instance the restriction bounds take from (g, w)."""
    out = []
    try:
        cert = certify_biregular(g, bipartition(g))
    except GraphError:  # not bipartite, or not biregular
        cert = None
    if cert is not None:
        out.extend(restrict_to_kab(g, w, cert, v) for v in sorted(cert.odd))
    if w.uniform_edge_table() is not None:
        out.extend(restrict_to_edge(g, w, u, v) for u, v in g.edges)
    return out


def _all_zero_table(g, m):
    return WeightSystem.build(
        g, m, edge={(u, v, i, j): 0 for u, v in g.edges for i in range(1, m + 1) for j in range(i, m + 1)}
    )


def test_cleared_restrictions_match_brute_force():
    graphs = [cycle_graph(6), complete_bipartite(2, 3), path_graph(3), path_graph(4), complete_graph(3)]
    checked = 0
    for gi, g in enumerate(graphs):
        systems = [_all_zero_table(g, 2)]
        for style in WEIGHT_STYLES:
            for allow_zero in (False, True):
                for trial in range(2):
                    m = 2 if style == "hardcore" else 1 + (gi + trial) % 3
                    seed = 100 * gi + 10 * trial + allow_zero
                    systems.append(sample_weights(g, m, seed, cap=9, allow_zero=allow_zero, style=style))
        for w in systems:
            # restrict first, so the restrictions fill the parent's cleared form
            for inst in _restrictions(g, w):
                want = partition_brute(inst.graph, inst.weights).fraction
                assert partition_function(inst.graph, inst.weights).fraction == want
                assert partition_kab(inst).fraction == want
                checked += 1
            assert partition_function(g, w).fraction == partition_brute(g, w).fraction
    assert checked > 200


def test_restrictions_equal_the_oracle_systems():
    # restrict_to_kab and restrict_to_edge build what tests/oracles.py builds
    # entry by entry, on the same layout
    for g in (cycle_graph(6), complete_bipartite(2, 3), path_graph(4)):
        for style in ("general", "uniform_edge"):
            w = sample_weights(g, 3, seed=g.n, cap=9, allow_zero=True, style=style)
            pairs = []
            if g.n != 4:  # P_4 is not biregular
                cert = certify_biregular(g, bipartition(g))
                pairs += [(restrict_to_kab(g, w, cert, v), kab_around(w, cert, v)) for v in sorted(cert.odd)]
            if style == "uniform_edge":
                pairs += [(restrict_to_edge(g, w, u, v), kab_on_edge(g, w, u, v)) for u, v in g.edges]
            for inst, (kab, weights) in pairs:
                assert inst.graph.edges == kab.edges
                assert inst.weights.to_text() == weights.to_text()
    g, w = cycle_graph(5), make_ising(cycle_graph(5), 0.7, 0.2)
    for u, v in g.edges:
        assert restrict_to_edge(g, w, u, v).weights.sha() == kab_on_edge(g, w, u, v)[1].sha()


def test_restriction_layer_is_not_public_api():
    import spinz

    for name in ("KabInstance", "restrict_to_kab", "restrict_to_edge", "partition_kab"):
        assert not hasattr(spinz, name), name


def test_restrictions_share_the_parents_cleared_rows_and_tables():
    g = cycle_graph(6)
    for style in ("general", "uniform_edge"):
        w = sample_weights(g, 3, seed=4, cap=9, style=style)
        cert = certify_biregular(g, bipartition(g))
        rows, tables = w.cleared()
        for v in sorted(cert.odd):
            inst = restrict_to_kab(g, w, cert, v)
            c_rows, c_tables = inst.weights.cleared()
            nbrs = cert.neighbor_order(v)
            for k, u in enumerate(nbrs):
                assert c_rows[inst.w_ids[k]] is rows[u]
                for z in inst.z_ids:
                    assert c_tables[(inst.w_ids[k], z)] is tables[tuple(sorted((u, v)))]
            for z in inst.z_ids:
                assert c_rows[z] is rows[v]
    w = sample_weights(g, 2, seed=4, cap=9, style="uniform_edge")
    inst = restrict_to_edge(g, w, 0, 1)
    rows, tables = w.cleared()
    c_rows, c_tables = inst.weights.cleared()
    assert all(c_rows[x] is rows[y] for x, y in zip(inst.w_ids, g.neighbors(1)))
    assert all(c_rows[x] is rows[y] for x, y in zip(inst.z_ids, g.neighbors(0)))
    assert all(t is tables[g.edges[0]] for t in c_tables.values())
    assert inst.weights.uniform_edge_table() == w.uniform_edge_table()


def test_restrictions_and_bounds_never_clear(monkeypatch):
    g = cycle_graph(6)
    w = sample_weights(g, 3, seed=8, cap=9, style="uniform_edge")
    cert = certify_biregular(g, bipartition(g))
    calls = []
    real = weights_mod._cleared

    def counting_cleared(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(weights_mod, "_cleared", counting_cleared)
    for _ in range(3):
        for inst in _restrictions(g, w):
            partition_kab(inst)
            partition_function(inst.graph, inst.weights)
        edge_restriction_bound(g, w)
        vertex_restriction_bound(g, w)
        restrict_to_kab(g, w, cert, sorted(cert.odd)[0])
    assert calls == []


def test_from_pairs_stores_what_build_stores():
    g = path_graph(3)
    # unreduced pairs, a zero and a shared table object
    rows = [[(2, 4), (0, 5)], [(6, 3), (3, 9)], [(1, 1), (10, 4)]]
    table = [(2, 6), (4, 8), (4, 8), (0, 7)]
    w = WeightSystem.from_pairs(g.n, 2, rows, dict.fromkeys(g.edges, table))
    vertex = {(v, i + 1): Fraction(*pq) for v, row in enumerate(rows) for i, pq in enumerate(row)}
    edge = {(u, v, i, j): Fraction(*table[(i - 1) * 2 + j - 1]) for u, v in g.edges for i, j in ((1, 1), (1, 2), (2, 2))}
    want = WeightSystem.build(g, 2, vertex, edge)
    assert w.cleared() == want.cleared() and w.to_text() == want.to_text()
    _, tables = w.cleared()
    assert tables[(0, 1)] is tables[(1, 2)]
    with pytest.raises(WeightError, match="spin count must be >= 1, got 0"):
        WeightSystem.from_pairs(g.n, 0, [[] for _ in range(g.n)], {})


def test_hardcore_from_pairs_is_make_hardcore():
    g = cycle_graph(5)
    lam = {v: Fraction(v, 3) for v in g.vertices()}
    w = weights_mod.hardcore_from_pairs(g, [(v, 3) for v in g.vertices()])
    want = make_hardcore(g, lam)
    assert w.cleared() == want.cleared() and w.to_text() == want.to_text()
    reference = WeightSystem.build(g, 2, {(v, 1): x for v, x in lam.items()}, {(u, v, 1, 1): 0 for u, v in g.edges})
    assert w.to_text() == reference.to_text()
    with pytest.raises(ValueError, match="negative value not allowed"):
        make_hardcore(g, -1)


def test_build_clears_each_run_of_equal_tables_once(monkeypatch):
    g = path_graph(5)
    values = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 3), Fraction(1, 2))
    edge = {(u, v, 1, 2): x for (u, v), x in zip(g.edges, values)}
    calls = []
    real = weights_mod._clear

    def counting_clear(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(weights_mod, "_clear", counting_clear)
    w = WeightSystem.build(g, 2, {(2, 1): Fraction(1, 2)}, edge)
    assert len(calls) == 3 + 3  # one per run of equal tables, then one per run of equal rows
    rows, tables = w.cleared()
    first, second, third, fourth = (tables[e] for e in g.edges)
    assert second is first and fourth is not first and fourth == first
    assert rows[1] is rows[0] and rows[2] != rows[0] and rows[4] is rows[3] is not rows[0]
    assert rows[3] == rows[0]
    for (u, v), x in zip(g.edges, values):
        assert w.edge_weight(v, u, 2, 1).fraction == x
        assert w.edge_weight(u, v, 1, 1).fraction == 1
    assert [w.vertex_weight(v, 1).fraction for v in g.vertices()] == [1, 1, Fraction(1, 2), 1, 1]


def _uniform_by_value(w):
    """The uniform-table check by NonNegValue comparison over every edge."""
    tables = [w.edge_table(*e) for e in w.edges()]
    if not tables or any(t != tables[0] for t in tables):
        return None
    return tables[0]


def test_uniform_edge_table_agrees_with_value_comparison():
    g = cycle_graph(5)
    half = {(u, v, 1, 1): Fraction(1, 2) for u, v in g.edges}
    systems = [
        # equal tables held in distinct NonNegValue objects
        WeightSystem.build(g, 2, edge={**half, (0, 1, 1, 1): Fraction(2, 4)}),
        sample_weights(g, 3, seed=2, style="uniform_edge"),
        make_hardcore(g, 3),
        # the same integer entries over different denominators: 1/2 1 1 and 1 2 2
        WeightSystem.build(g, 2, edge={**half, (0, 1, 1, 1): 1, (0, 1, 1, 2): 2, (0, 1, 2, 2): 2}),
        # a general system, and the log forms of a general and a uniform one
        sample_weights(g, 2, seed=3, style="general"),
        sample_weights(g, 2, seed=3, style="general").to_log(),
        sample_weights(g, 2, seed=3, style="uniform_edge").to_log(),
        make_ising(g, 0.5, 0.1),
        # no edges at all
        WeightSystem.build(Graph(3, []), 2),
        make_ising(Graph(2, []), 0.5, 0.0),
    ]
    expected = [True, True, True, False, False, False, True, True, False, False]
    for w, uniform in zip(systems, expected):
        want = _uniform_by_value(w)
        got = w.uniform_edge_table()
        assert (got is not None) == (want is not None) == uniform
        assert got == want
        assert w.uniform_edge_table() == got


def test_kab_layout_is_shared_and_restrictions_are_unchanged():
    assert _kab_layout(2, 3) is _kab_layout(2, 3)
    graph, w_ids, z_ids = _kab_layout(2, 3)
    assert graph.edges == complete_bipartite(3, 2).edges
    assert (w_ids, z_ids) == ((0, 1, 2), (3, 4))
    g = complete_bipartite(2, 3)
    w = sample_weights(g, 2, seed=1, cap=9)
    cert = certify_biregular(g, bipartition(g))
    v = sorted(cert.odd)[0]
    first, second = restrict_to_kab(g, w, cert, v), restrict_to_kab(g, w, cert, v)
    assert first.graph is second.graph
    assert first.weights.to_text() == second.weights.to_text()
    assert first.graph.n == cert.a + cert.b and first.graph.num_edges == cert.a * cert.b


def test_threads_racing_on_a_fresh_system_agree():
    g = hypercube_graph(3)
    # conj1 and thm3 each evaluate their restrictions in one call and have no threads
    w = [sample_weights(g, 3, seed=6, cap=9, style="uniform_edge") for _ in (1, 2)]
    reports = [edge_restriction_bound(g, system) for system in w]
    assert reports[0].to_json_dict() == reports[1].to_json_dict()
    reports = [vertex_restriction_bound(g, sample_weights(g, 3, seed=6, cap=9)) for _ in (1, 2)]
    assert reports[0].to_json_dict() == reports[1].to_json_dict()

    def factor(w, e):
        return partition_kab(restrict_to_edge(g, w, *e)).fraction

    edges = list(g.edges) * 4
    w = sample_weights(g, 2, seed=7, cap=9, style="uniform_edge")
    serial = [factor(w, e) for e in edges]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            # a fresh system, so the threads race to work out its uniform table
            w = sample_weights(g, 2, seed=7, cap=9, style="uniform_edge")
            with ThreadPoolExecutor(max_workers=8) as pool:
                assert list(pool.map(lambda e: factor(w, e), edges)) == serial
    finally:
        sys.setswitchinterval(old)


def test_cleared_maxima_are_the_largest_entries():
    from spinz.counting import _table_max

    g = cycle_graph(5)
    systems = [_all_zero_table(g, 3)]
    systems += [
        sample_weights(g, m, seed, cap=9, allow_zero=allow_zero, style=style)
        for style in WEIGHT_STYLES
        for m in (1, 2, 3)
        if style != "hardcore" or m == 2
        for allow_zero in (False, True)
        for seed in range(3)
    ]
    for w in systems:
        rows, tables = w.cleared()
        for ints, _, top in [*rows, *tables.values()]:
            assert top == _table_max(ints)


def test_text_is_serialised_once_and_serves_the_sha():
    from spinz.util import sha256_text

    g = cycle_graph(4)
    w = sample_weights(g, 3, seed=5, cap=9)
    text = w.to_text()
    assert w.to_text() is text
    assert w.sha() == sha256_text(text)
    assert parse_weights(text, g).to_text() == text
    fresh = sample_weights(g, 3, seed=5, cap=9)
    assert fresh.sha() == w.sha()  # sha first: it fills the same text
    assert fresh.to_text() == text


def _sampled_with_inputs(monkeypatch, g, m, seed, allow_zero, style):
    """sample_weights' system and the vertex and edge maps of the same
    draws, as the Fraction sampler passes them to ``WeightSystem.build``."""
    seen = []
    real = WeightSystem.build.__func__

    def spy(cls, graph, m, vertex=None, edge=None):
        seen.append((dict(vertex or {}), dict(edge or {})))
        return real(cls, graph, m, vertex, edge)

    with monkeypatch.context() as patch:
        patch.setattr(WeightSystem, "build", classmethod(spy))
        fraction_sample_weights(g, m, seed, cap=9, allow_zero=allow_zero, style=style)
    (vertex, edge), = seen
    return sample_weights(g, m, seed, cap=9, allow_zero=allow_zero, style=style), vertex, edge


def test_stored_form_matches_the_per_entry_fraction_reference(monkeypatch):
    graphs = [cycle_graph(5), complete_bipartite(2, 3), path_graph(2), Graph(3, [])]
    checked = 0
    for gi, g in enumerate(graphs):
        for style in WEIGHT_STYLES:
            for m in (2,) if style == "hardcore" else (1, 2, 3):
                for allow_zero in (False, True):
                    seed = 10 * gi + m + 5 * allow_zero
                    w, vertex, edge = _sampled_with_inputs(monkeypatch, g, m, seed, allow_zero, style)
                    rows, tables = fraction_weight_tables(g.n, m, g.edges, vertex, edge)
                    text = weights_file_text(m, rows, tables)
                    for system in (w, parse_weights(text, g)):
                        c_rows, c_tables = system.cleared()
                        assert c_rows == tuple(clear_fractions(row) for row in rows)
                        for e, table in tables.items():
                            ints, den, top = clear_fractions([x for row in table for x in row])
                            assert c_tables[e] == (tuple(ints[k : k + m] for k in range(0, m * m, m)), den, top)
                        assert system.to_text() == text
                        log_rows, log_tables = system.to_log().logs()
                        assert log_rows == tuple(tuple(map(log_of_fraction, row)) for row in rows)
                        assert log_tables == {
                            e: tuple(tuple(map(log_of_fraction, row)) for row in t) for e, t in tables.items()
                        }
                        for v, row in enumerate(rows):
                            entries, den, _ = c_rows[v]
                            for i, x in enumerate(row):
                                assert entries[i] / den == float(x)
                                assert system.vertex_weight(v, i + 1).fraction == x
                        for e, table in tables.items():
                            entries, den, _ = c_tables[e]
                            assert system.edge_table(*e) == tuple(tuple(map(NonNegValue.exact, r)) for r in table)
                            for i in range(m):
                                for j in range(m):
                                    assert entries[i][j] / den == float(table[i][j])
                        checked += 1
    assert checked == 4 * 2 * 7 * 2


def test_scaled_systems_keep_the_stored_form_in_lowest_terms(monkeypatch):
    g = cycle_graph(4)
    for style in ("general", "uniform_edge"):
        w, vertex, edge = _sampled_with_inputs(monkeypatch, g, 3, 9, False, style)
        _, tables = fraction_weight_tables(g.n, 3, g.edges, vertex, edge)
        scaled, emax = scale_edge_weights(w)
        assert emax == max(x for t in tables.values() for row in t for x in row) > 1
        for e, table in tables.items():
            ints, den, top = clear_fractions([x / emax for row in table for x in row])
            assert scaled.cleared()[1][e] == (tuple(ints[k : k + 3] for k in range(0, 9, 3)), den, top)
        assert scaled.cleared()[0] is w.cleared()[0]
        assert (scaled.uniform_edge_table() is None) == (w.uniform_edge_table() is None)


def test_build_rejects_bad_input_with_its_messages():
    g = path_graph(3)
    cases = [
        ({"vertex": {(0, 1): Fraction(-1, 2)}}, "negative value not allowed: -1/2"),
        ({"vertex": {(1, 2): "-2/4"}}, "negative value not allowed: -1/2"),
        ({"edge": {(0, 1, 1, 2): -3}}, "negative value not allowed: -3"),
        ({"vertex": {(3, 1): 1}}, "vertex 3 out of range"),
        ({"vertex": {(0, 3): 1}}, "spin 3 out of range 1..2"),
        ({"vertex": {(0, 0): 1}}, "spin 0 out of range 1..2"),
        ({"edge": {(0, 1, 2, 1): 1}}, "spin pair (2,1) must satisfy 1 <= i <= j <= 2"),
        ({"edge": {(1, 0, 1, 3): 1}}, "spin pair (1,3) must satisfy 1 <= i <= j <= 2"),
        ({"edge": {(0, 2, 1, 1): 1}}, "(0,2) is not an edge of the graph"),
    ]
    for kwargs, message in cases:
        with pytest.raises(ValueError) as err:
            WeightSystem.build(g, 2, **kwargs)
        assert str(err.value) == message
    with pytest.raises(ValueError, match="spin count must be >= 1, got 0"):
        WeightSystem.build(g, 0)
