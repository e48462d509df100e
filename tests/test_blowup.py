import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    block_homs_brute,
    block_slice,
    count_all_block_homs,
    full_sample,
    full_sample_block_homs,
    kab_around,
    path_graph,
)
from spinz.blowup import (
    BlowupStats,
    _float,
    _reset,
    build_blowup_host,
    concentration_experiment,
    count_block_homs,
    sample_subgraph,
    scale_edge_weights,
)
from spinz.counting import count_list_homs, ListAssignment, weight_of
from spinz.graphs import Graph, cycle_graph
from spinz.util import derive_key128, derive_seed
from spinz.weights import WeightError, WeightSystem, make_hardcore


def uniform_half_weights(g, m=2):
    return WeightSystem.build(
        g,
        m,
        edge={
            (u, v, i, j): Fraction(1, 2)
            for u, v in g.edges
            for i in range(1, m + 1)
            for j in range(i, m + 1)
        },
    )


def test_scale_leaves_subunit_weights_alone():
    g = cycle_graph(4)
    w = uniform_half_weights(g)
    scaled, factor = scale_edge_weights(w)
    assert factor == 1
    assert scaled is w


def test_scale_divides_by_the_maximum():
    g = cycle_graph(4)
    w = WeightSystem.build(g, 2, edge={(0, 1, 1, 1): 5, (1, 2, 1, 2): 2})
    scaled, factor = scale_edge_weights(w)
    assert factor == 5
    assert scaled.edge_weight(0, 1, 1, 1).fraction == 1
    assert scaled.edge_weight(1, 2, 1, 2).fraction == Fraction(2, 5)
    _, emax = scaled.edge_extremes()
    assert emax == 1


def test_build_host_trivial_blowup():
    g = cycle_graph(4)
    w = WeightSystem.build(g, 2)
    host = build_blowup_host(g, w, 1)
    assert sum(map(sum, host.block_size)) == 8  # two singleton blocks per vertex
    assert host.block_size == ((1, 1),) * 4


@pytest.mark.parametrize("cfg", [(1, 2, 1), (1, 2, 1, 2, 1), (1, 3, 1, 2), (0, 1, 1, 1), (1, 1, -1, 1)])
def test_host_and_weight_of_reject_a_configuration_alike(cfg):
    g = cycle_graph(4)
    w = WeightSystem.build(g, 2)
    host = build_blowup_host(g, w, 1)
    with pytest.raises(ValueError) as by_weight:
        weight_of(g, w, cfg)
    with pytest.raises(ValueError) as by_host:
        host.configured_sizes(cfg)
    assert type(by_host.value) is type(by_weight.value)
    assert str(by_host.value) == str(by_weight.value)


@given(st.lists(st.one_of(st.integers(), st.text(max_size=8)), max_size=5))
def test_key128_leads_with_the_derived_seed(parts):
    assert derive_key128(*parts)[0] == derive_seed(*parts)


def test_build_host_rejects_fractional_blocks():
    g = cycle_graph(4)
    w = WeightSystem.build(g, 2, vertex={(0, 1): Fraction(1, 2)})
    with pytest.raises(WeightError, match="not an integer"):
        build_blowup_host(g, w, 1)
    build_blowup_host(g, w, 2)  # C=2 clears the denominator


def test_build_host_rejects_a_system_of_another_graph():
    with pytest.raises(WeightError, match="over 5 vertices and 4 edges is not over this graph of 4 vertices"):
        build_blowup_host(cycle_graph(4), WeightSystem.build(path_graph(5), 2), 1)


def test_build_host_rejects_zero_and_oversized_weights():
    g = cycle_graph(4)
    with pytest.raises(WeightError, match="zero"):
        build_blowup_host(g, make_hardcore(g, 1), 1)
    w = WeightSystem.build(g, 2, edge={(0, 1, 1, 1): 3})
    with pytest.raises(WeightError, match="outside"):
        build_blowup_host(g, w, 1)


def test_sample_probability_one_keeps_everything():
    import itertools

    g = cycle_graph(4)
    host = build_blowup_host(g, WeightSystem.build(g, 2), 3)
    for seed in (0, 1, 99):
        for cfg in itertools.product((1, 2), repeat=4):
            sub = sample_subgraph(host, seed, cfg)
            assert all(mat.all() for mat in sub.keep.values())


def test_sample_fixed_seed_is_bit_identical():
    g = cycle_graph(4)
    host = build_blowup_host(g, uniform_half_weights(g), 4)
    s1 = sample_subgraph(host, 1234, (1, 2, 1, 2))
    s2 = sample_subgraph(host, 1234, (1, 2, 1, 2))
    for e in host.graph.edges:
        assert np.array_equal(s1.keep[e], s2.keep[e])
    s3 = sample_subgraph(host, 1235, (1, 2, 1, 2))
    assert any(not np.array_equal(s1.keep[e], s3.keep[e]) for e in host.graph.edges)


def test_sample_edge_retention_rate():
    g = Graph(2, [(0, 1)])
    w = uniform_half_weights(g)
    host = build_blowup_host(g, w, 8)
    total = 0
    draws = 0
    for seed in range(300):
        for cfg in ((1, 1), (1, 2), (2, 1), (2, 2)):
            keep = sample_subgraph(host, seed, cfg).keep[(0, 1)]
            total += int(keep.sum())
            draws += keep.size
    p = 0.5
    se = math.sqrt(draws * p * (1 - p))
    assert abs(total - draws * p) <= 4 * se


def test_count_block_homs_full_host_product_formula():
    g = cycle_graph(4)
    w = WeightSystem.build(g, 2, vertex={(0, 1): 2, (2, 2): 3})
    host = build_blowup_host(g, w, 2)
    for cfg in [(1, 1, 1, 1), (1, 2, 2, 1), (2, 2, 2, 2)]:
        sub = sample_subgraph(host, 7, cfg)  # probabilities 1: identical to the host
        expected = 1
        for v in range(4):
            expected *= host.block_size[v][cfg[v] - 1]
        assert count_block_homs(g, sub, host, cfg) == expected


def test_count_block_homs_single_edge_counts_survivors():
    g = Graph(2, [(0, 1)])
    host = build_blowup_host(g, uniform_half_weights(g), 5)
    sub = sample_subgraph(host, 3, (1, 1))
    assert sub.keep[(0, 1)].shape == (5, 5)
    assert count_block_homs(g, sub, host, (1, 1)) == int(sub.keep[(0, 1)].sum())


def test_count_block_homs_matches_brute_force():
    g = cycle_graph(4)
    host = build_blowup_host(g, uniform_half_weights(g), 3)
    for seed in range(5):
        for cfg in [(1, 1, 1, 1), (2, 1, 2, 1), (1, 2, 2, 2)]:
            sub = sample_subgraph(host, seed, cfg)
            blocks = {v: range(host.block_size[v][cfg[v] - 1]) for v in range(4)}
            brute = block_homs_brute(4, g.edges, blocks, sub.keep)
            assert count_block_homs(g, sub, host, cfg) == brute


def test_block_homs_partition_the_list_homomorphisms():
    # summing over all block selections recovers the unrestricted count
    import itertools

    for n, edges in [(3, [(0, 1), (1, 2)]), (4, [(0, 1), (1, 2), (2, 3), (0, 3)])]:
        g = Graph(n, edges)
        w = uniform_half_weights(g)
        host = build_blowup_host(g, w, 3)
        total = sum(
            count_block_homs(g, sample_subgraph(host, 11, cfg), host, cfg)
            for cfg in itertools.product((1, 2), repeat=n)
        )
        assert total == count_all_block_homs(g, full_sample(host, 11), host)


def test_count_all_matches_backtracking_on_host_graph():
    # cross-check the elimination engine against the generic list-hom
    # counter on an explicit host graph
    import itertools

    g = path_graph(3)
    w = uniform_half_weights(g)
    host = build_blowup_host(g, w, 2)
    sub = full_sample(host, 21)
    # host ids: the vertices' segments one after another
    vertex_size = [sum(row) for row in host.block_size]
    vertex_start = list(itertools.accumulate(vertex_size, initial=0))
    edges = []
    for (u, v), keep in sub.keep.items():
        for x in range(keep.shape[0]):
            for y in range(keep.shape[1]):
                if keep[x, y]:
                    edges.append(
                        (vertex_start[u] + x, vertex_start[v] + y)
                    )
    hgraph = Graph(vertex_start[-1], edges) if edges else None
    if hgraph is None:
        assert count_all_block_homs(g, sub, host) == 0
        return
    lists = ListAssignment(
        g.n,
        [
            range(vertex_start[v], vertex_start[v] + vertex_size[v])
            for v in range(g.n)
        ],
    )
    assert count_all_block_homs(g, sub, host) == count_list_homs(g, hgraph, lists)


def test_blowup_runs_on_restricted_kab_instances():
    # the per-vertex restriction of a base instance is itself a graph plus
    # weights, so the same host/count machinery covers the K_{a,b} side
    from spinz.graphs import bipartition, certify_biregular

    g = cycle_graph(4)
    w = uniform_half_weights(g)
    cert = certify_biregular(g, bipartition(g))
    kab, weights = kab_around(w, cert, sorted(cert.odd)[0])
    host = build_blowup_host(kab, weights, 3)
    import itertools

    total = sum(
        count_block_homs(kab, sample_subgraph(host, 42, cfg), host, cfg)
        for cfg in itertools.product((1, 2), repeat=kab.n)
    )
    assert total == count_all_block_homs(kab, full_sample(host, 42), host)


def test_experiment_all_ones_is_deterministic_unity():
    g = cycle_graph(4)
    w = WeightSystem.build(g, 2)
    stats = concentration_experiment(g, w, (1, 1, 1, 1), 1, 5, seed=0)
    assert stats.samples == (1, 1, 1, 1, 1)
    assert stats.mu == 1
    assert stats.emp_var == 0.0
    assert stats.alpha == 17  # 1 + N^2 with every weight 1
    assert stats.threshold_C == Fraction(48)
    assert stats.error_guarantee() is None  # C = 1 is below alpha


def test_report_floats_past_the_float_range_are_infinite():
    huge = Fraction(16) ** 400
    assert _float(huge) == math.inf
    assert _float(huge, 16 ** 398) == 256.0  # the exact quotient, rounded once
    assert _float(Fraction(272), 100) == 272 / 100  # in range: float(x) / divisor, as before
    # a mean and variance past the float range, and a ratio that the floats alone make 0/0
    stats = BlowupStats(
        config=(1,), C=1, trials=2, seed=0, mu=huge, samples=(0, 2 * 16 ** 400),
        emp_mean=_float(huge), emp_var=_float(2 * huge * huge), alpha=huge,
        cheb_budget=_float(huge), edge_scale=Fraction(1), threshold_C=None,
    )
    assert stats.emp_mean == stats.emp_var == math.inf
    assert stats.relative_var() == 2.0
    assert stats.error_guarantee() is None


def test_error_guarantee_shrinks_with_scale():
    g = cycle_graph(4)
    w = WeightSystem.build(g, 2)
    s100 = concentration_experiment(g, w, (1, 1, 1, 1), 100, 2, seed=0)
    s400 = concentration_experiment(g, w, (1, 1, 1, 1), 400, 2, seed=0)
    d100, d400 = s100.error_guarantee(), s400.error_guarantee()
    assert d100 is not None and d400 is not None
    assert 0 < d400 < d100
    root_alpha = math.sqrt(17)
    assert d100 == pytest.approx(root_alpha / (10 - root_alpha))


def test_experiment_mean_and_variance_bounds():
    g = cycle_graph(4)
    w = uniform_half_weights(g)
    stats = concentration_experiment(g, w, (1, 1, 1, 1), 10, 200, seed=5)
    mu = float(stats.mu)
    assert mu == 10 ** 4 / 16
    se = math.sqrt(stats.emp_var / stats.trials)
    assert abs(stats.emp_mean - mu) <= 4 * se
    assert stats.relative_var() <= 1.5 * float(stats.alpha) / 100
    assert stats.alpha == 272  # 16 + 16 * 16 for half-weight edges on C4


def test_experiment_is_bit_reproducible():
    g = cycle_graph(4)
    w = uniform_half_weights(g)
    s1 = concentration_experiment(g, w, (1, 2, 1, 2), 4, 50, seed=77)
    s2 = concentration_experiment(g, w, (1, 2, 1, 2), 4, 50, seed=77)
    assert s1.samples == s2.samples
    assert s1.to_json_dict() == s2.to_json_dict()


def test_experiment_requires_two_trials():
    g = cycle_graph(4)
    with pytest.raises(ValueError, match="trials"):
        concentration_experiment(g, WeightSystem.build(g, 2), (1, 1, 1, 1), 1, 1, seed=0)


def test_experiment_scales_oversized_edge_weights():
    g = cycle_graph(4)
    w = WeightSystem.build(
        g, 2, edge={(u, v, i, j): 2 for u, v in g.edges for i in (1, 2) for j in (1, 2) if i <= j}
    )
    stats = concentration_experiment(g, w, (1, 1, 1, 1), 2, 10, seed=1)
    assert stats.edge_scale == 2
    # scaled probabilities are 1, so every sample is the full block product
    assert set(stats.samples) == {2 ** 4}
    assert stats.mu == 16


def _random_host(rng, n_max=4):
    """A blow-up host on a random connected graph with random spins,
    block sizes and edge probabilities in (0, 1]."""
    import itertools

    from spinz.graphs import is_connected

    while True:
        n = rng.randint(2, n_max)
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(n, rng.sample(pairs, rng.randint(1, len(pairs))))
        if is_connected(g):
            break
    m = rng.randint(1, 3)
    vertex = {(v, i): Fraction(rng.randint(1, 3), 2) for v in range(n) for i in range(1, m + 1)}
    edge = {
        (u, v, i, j): Fraction(rng.randint(1, 4), 4)
        for u, v in g.edges
        for i in range(1, m + 1)
        for j in range(i, m + 1)
    }
    return build_blowup_host(g, WeightSystem.build(g, m, vertex, edge), 2 * rng.randint(1, 3))


def test_configured_sample_is_the_block_of_the_full_sample():
    import itertools
    import random

    rng = random.Random(8)
    checked = 0
    for _ in range(12):
        host = _random_host(rng)
        g = host.graph
        for seed in (rng.randrange(2 ** 32) for _ in range(2)):
            full = full_sample(host, seed)
            for cfg in itertools.product(range(1, host.weights.m + 1), repeat=g.n):
                sub = sample_subgraph(host, seed, cfg)
                assert sub.cfg == cfg
                for u, v in g.edges:
                    rows = block_slice(host, u, cfg[u])
                    cols = block_slice(host, v, cfg[v])
                    assert np.array_equal(sub.keep[(u, v)], full.keep[(u, v)][rows, cols])
                assert count_block_homs(g, sub, host, cfg) == full_sample_block_homs(g, full, host, cfg)
                checked += 1
    assert checked > 50


def test_every_block_pair_has_its_own_stream():
    g = cycle_graph(4)
    host = build_blowup_host(g, uniform_half_weights(g), 8)  # 8 x 8 blocks, p = 1/2
    sub = full_sample(host, 99)
    blocks = [
        sub.keep[e][block_slice(host, e[0], i), block_slice(host, e[1], j)]
        for e in g.edges
        for i in (1, 2)
        for j in (1, 2)
    ]
    assert len({b.tobytes() for b in blocks}) == len(blocks)


def test_experiment_samples_equal_counts_on_full_samples():
    g = cycle_graph(4)
    vertex = {(0, 2): 2, (3, 1): 3}
    edge = {(0, 1, 1, 2): Fraction(1, 3), (2, 3, 1, 1): Fraction(3, 4)}
    w = WeightSystem.build(g, 2, vertex, edge)
    host = build_blowup_host(g, w, 3)
    full = [full_sample(host, derive_seed("blowup-trial", 31, t)) for t in range(12)]
    for cfg in [(1, 1, 1, 1), (2, 1, 2, 1), (1, 2, 1, 2)]:
        stats = concentration_experiment(g, w, cfg, 3, 12, seed=31)
        assert stats.samples == tuple(full_sample_block_homs(g, sub, host, cfg) for sub in full)


def test_block_samples_serve_only_their_configuration():
    g = cycle_graph(4)
    host = build_blowup_host(g, uniform_half_weights(g), 3)
    sub = sample_subgraph(host, 5, (1, 2, 1, 2))
    assert all(keep.shape == (3, 3) for keep in sub.keep.values())
    with pytest.raises(ValueError, match="configuration"):
        count_block_homs(g, sub, host, (1, 1, 1, 1))
    with pytest.raises(ValueError, match="configuration"):
        count_all_block_homs(g, sub, host)
    with pytest.raises(ValueError, match="entries"):
        sample_subgraph(host, 5, (1, 2, 1))
    with pytest.raises(ValueError, match="out of range"):
        sample_subgraph(host, 5, (1, 2, 1, 3))


@given(
    st.integers(0, 2 ** 128 - 1),
    st.lists(
        st.tuples(
            st.tuples(*[st.integers(0, 2 ** 64 - 1)] * 4),
            st.tuples(st.integers(0, 9), st.integers(0, 9)),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_a_reset_generator_draws_what_a_fresh_one_draws(key, blocks):
    key = np.array([key & (2 ** 64 - 1), key >> 64], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    rng, state = np.random.Generator(bitgen), bitgen.state
    for counter, shape in blocks:  # successive blocks of different shapes
        _reset(bitgen, state, counter)
        fresh = np.random.Generator(np.random.Philox(key=key, counter=np.array(counter, dtype=np.uint64)))
        assert np.array_equal(rng.random(shape), fresh.random(shape))


@pytest.mark.parametrize(
    "C, digest",
    [
        (10, "f2e1cf9d46d3598ef91630a690a6b3cbe74a52335ae492a26ddcf50d18dd235a"),
        (100, "e2dccd43a688f7720a04eb1a4b60db73c11b9d177cd5e7aa3e55ee5abf1e06f8"),
    ],
)
def test_experiment_samples_are_pinned(C, digest):
    # the benchmark's blow-up instance: C_4, every edge weight 1/2
    g = cycle_graph(4)
    stats = concentration_experiment(g, uniform_half_weights(g), (1, 1, 1, 1), C, 5, seed=20240901)
    assert hashlib.sha256(repr(stats.samples).encode()).hexdigest() == digest
