import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import complete_graph, disjoint_union, is_complete_bipartite, path_graph, relabel
from spinz.graphs import (
    Graph,
    GraphParseError,
    NotBipartiteError,
    NotBiregularError,
    bipartition,
    certify_biregular,
    complete_bipartite,
    cycle_graph,
    parse_graph,
)


def test_parse_single_edge():
    g = parse_graph("p 2 1\ne 0 1\n")
    assert g.n == 2 and g.edges == ((0, 1),)


def test_parse_four_cycle():
    g = parse_graph("p 4 4\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n")
    assert g == cycle_graph(4)


def test_parse_rejects_loop():
    with pytest.raises(GraphParseError, match="loop"):
        parse_graph("p 2 1\ne 0 0\n")


def test_parse_rejects_duplicate_edge():
    with pytest.raises(GraphParseError, match="duplicate"):
        parse_graph("p 3 2\ne 0 1\ne 0 1\n")


def test_parse_rejects_out_of_range():
    with pytest.raises(GraphParseError, match="out of range"):
        parse_graph("p 2 1\ne 0 5\n")


def test_parse_canonicalizes_unordered_edge():
    g = parse_graph("p 3 1\ne 2 1\n")
    assert g.edges == ((1, 2),)
    # a duplicate written in the opposite order is still a duplicate
    with pytest.raises(GraphParseError, match="duplicate"):
        parse_graph("p 3 2\ne 1 2\ne 2 1\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphParseError) as err:
        parse_graph("p 3 2\ne 0 1\ne 1 1\n")
    assert err.value.line == 3


def test_parse_edge_count_mismatch():
    with pytest.raises(GraphParseError, match="declared 2"):
        parse_graph("p 3 2\ne 0 1\n")


def test_comments_and_blanks_ignored():
    g = parse_graph("# header comment\np 3 1\n\n# middle\ne 0 2\n")
    assert g.edges == ((0, 2),)


def test_round_trip_is_bit_exact():
    text = "p 4 4\ne 0 1\ne 0 3\ne 1 2\ne 2 3\n"
    assert parse_graph(text).to_text() == text


@given(st.integers(min_value=2, max_value=7), st.data())
def test_round_trip_random_graphs(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.sets(st.sampled_from(pairs)))
    g = Graph(n, chosen)
    assert parse_graph(g.to_text()) == g


def test_neighbors_sorted_ascending():
    g = parse_graph("p 4 3\ne 0 3\ne 1 3\ne 2 3\n")
    assert g.neighbors(3) == (0, 1, 2)


def test_bipartition_four_cycle():
    bp = bipartition(cycle_graph(4))
    assert bp.even == frozenset({0, 2}) and bp.odd == frozenset({1, 3})


def test_bipartition_path():
    bp = bipartition(path_graph(3))
    assert bp.even == frozenset({0, 2}) and bp.odd == frozenset({1})


def test_bipartition_triangle_reports_odd_walk():
    with pytest.raises(NotBipartiteError) as err:
        bipartition(complete_graph(3))
    walk = err.value.odd_walk
    assert walk[0] == walk[-1]
    assert len(walk) % 2 == 0  # closed walk listing k+1 vertices, k odd
    g = complete_graph(3)
    for u, v in zip(walk, walk[1:]):
        assert g.has_edge(u, v)


def test_bipartition_deterministic():
    text = "p 6 6\ne 0 1\ne 0 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\n"
    assert bipartition(parse_graph(text)) == bipartition(parse_graph(text))


def _cert(g):
    return certify_biregular(g, bipartition(g))


def test_certify_k23():
    cert = _cert(complete_bipartite(2, 3))
    assert (cert.a, cert.b) == (3, 2)
    assert cert.even == frozenset({0, 1})  # the two degree-3 vertices


def test_certify_c6():
    cert = _cert(cycle_graph(6))
    assert (cert.a, cert.b) == (2, 2)


def test_certify_star():
    g = parse_graph("p 4 3\ne 0 1\ne 0 2\ne 0 3\n")
    cert = _cert(g)
    assert (cert.a, cert.b) == (3, 1)
    assert cert.even == frozenset({0})


def test_certify_rejects_mixed_degrees():
    with pytest.raises(NotBiregularError, match="share a class"):
        _cert(path_graph(4))


def test_certify_rejects_isolated_vertex():
    with pytest.raises(NotBiregularError, match="degree 0"):
        _cert(Graph(3, [(0, 1)]))


def test_certify_disconnected_consistent():
    g = disjoint_union([complete_bipartite(2, 3), complete_bipartite(2, 3)])
    cert = _cert(g)
    assert (cert.a, cert.b) == (3, 2)
    assert len(cert.even) == 4


def test_certify_disconnected_component_flip():
    # two stars written with opposite labelings still certify globally
    g = Graph(8, [(0, 1), (0, 2), (0, 3), (4, 7), (5, 7), (6, 7)])
    cert = _cert(g)
    assert (cert.a, cert.b) == (3, 1)
    assert cert.even == frozenset({0, 7})


def test_certify_rejects_mismatched_components():
    # the second witness lies in the first component that disagrees with the first
    k22, k2 = complete_bipartite(2, 2), Graph(2, [(0, 1)])
    for parts, witnesses in (([cycle_graph(4), k2], (0, 4)), ([k22, k22, k2], (0, 8))):
        with pytest.raises(NotBiregularError, match=f"witnesses {witnesses[0]}, {witnesses[1]}") as err:
            _cert(disjoint_union(parts))
        assert err.value.witnesses == witnesses


def test_class_size_identities():
    for g in (complete_bipartite(2, 3), cycle_graph(8), complete_bipartite(1, 3)):
        cert = _cert(g)
        assert cert.a * len(cert.even) == g.num_edges
        assert cert.b * len(cert.odd) == g.num_edges
        assert len(cert.even) * (cert.a + cert.b) == cert.b * g.n
        for v in cert.even | cert.odd:
            order = cert.neighbor_order(v)
            assert len(order) == g.degree(v)
            assert sorted(order) == list(order)


@given(st.permutations(list(range(5))))
def test_certify_invariant_under_relabeling(perm):
    g = complete_bipartite(2, 3)
    relabeled = relabel(g, perm)
    c1, c2 = _cert(g), _cert(relabeled)
    assert (c1.a, c1.b) == (c2.a, c2.b)
    assert {perm[v] for v in c1.even} == c2.even


def test_is_complete_bipartite():
    assert is_complete_bipartite(complete_bipartite(2, 3))
    assert is_complete_bipartite(cycle_graph(4))  # C4 is K_{2,2}
    assert not is_complete_bipartite(cycle_graph(6))
    assert not is_complete_bipartite(complete_graph(3))


def test_cached_text_sha_and_adjacency_equal_a_fresh_graphs():
    from spinz.graphs import hypercube_graph
    from spinz.util import sha256_text

    g = hypercube_graph(3)
    text, sha = g.to_text(), g.sha()
    hash(g), g.adjacency_matrix()
    assert g.to_text() is text and g.sha() is sha  # built once per graph
    fresh = Graph(g.n, [(v, u) for u, v in reversed(g.edges)])
    assert (fresh.sha(), fresh.to_text()) == (sha, text) and sha == sha256_text(text)
    assert fresh == g and hash(fresh) == hash(g) == hash(Graph(g.n, g.edges))
    matrix = g.adjacency_matrix()
    assert matrix.tolist() == [[1.0 if g.has_edge(x, y) else 0.0 for y in range(g.n)] for x in range(g.n)]
    assert g.adjacency_matrix() is matrix and not matrix.flags.writeable
    assert Graph(1, []).adjacency_matrix().tolist() == [[0.0]]
