"""Uniform systems share one stored row and one stored table end to end.

A weight system whose vertices (or edges) all carry equal weights stores
them as one object; ``WeightArrays`` and ``contract`` keep that sharing,
so such a row is converted and LOG-shifted once, not once per vertex.
Sharing is an identity fact only: every sum here must equal the one over
the same rows held as distinct objects, exactly on EXACT and bit for bit
on LOG.  The planner pin at the end fixes ``_plan``'s output on
the lattices the benchmark contracts, so a planner change that would
move LOG floats fails here first.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

import spinz.counting as counting_mod
from spinz.counting import cover_sums, partition_function, weight_arrays
from spinz.graphs import (
    Graph,
    bipartition,
    certify_biregular,
    complete_bipartite,
    cycle_graph,
    hypercube_graph,
)
from spinz.values import Backend
from spinz.weights import WeightSystem, make_hardcore, make_ising


def _torus(p, q):
    """C_p x C_q, vertex (i, j) at id i * q + j."""
    return Graph(p * q, [(i * q + j, x) for i in range(p) for j in range(q)
                         for x in (((i + 1) % p) * q + j, i * q + (j + 1) % q)])


def _copy(stored):
    """A fresh object equal to a stored row or table (nested tuples of
    numbers, or an EXACT (entries, den, max) triple)."""
    if isinstance(stored, tuple):
        return tuple(_copy(x) for x in stored)
    return stored


def _distinct(w):
    """w with every row and table held as its own object."""
    rows, tables = w.cleared() if w.backend is Backend.EXACT else w.logs()
    fresh = WeightSystem(w.m, w.n, w.backend, tuple(map(_copy, rows)),
                         {e: _copy(t) for e, t in tables.items()})
    fresh_rows, fresh_tables = fresh._rows, list(fresh._tables.values())
    assert all(a is not b for a, b in zip(fresh_rows, fresh_rows[1:]))
    assert all(a is not b for a, b in zip(fresh_tables, fresh_tables[1:]))
    return fresh


def _values(zs):
    """EXACT values as Fractions, LOG values as the hex of their floats."""
    return [z.fraction if z.backend is Backend.EXACT else z.log().hex() for z in zs]


def _uniform_systems(g):
    return [
        make_hardcore(g, 1),
        make_hardcore(g, Fraction(2, 3)),
        WeightSystem.build(g, 2, {(v, i): Fraction(i, 4) for v in g.vertices() for i in (1, 2)},
                           {(u, v, 1, 2): Fraction(1, 5) for u, v in g.edges}),
    ]


_GRAPHS = (cycle_graph(6), complete_bipartite(2, 3), hypercube_graph(3), _torus(4, 4))


def test_uniform_builders_store_one_row_and_one_table():
    g = _torus(4, 4)
    for w in [*_uniform_systems(g), make_ising(g, 0.7, 0.2)]:
        rows, tables = w.logs() if w.backend is Backend.LOG else w.cleared()
        assert all(row is rows[0] for row in rows)
        assert all(t is tables[g.edges[0]] for t in tables.values())
        arrays = weight_arrays(g, w)
        assert arrays.shared_rows and arrays.shared_tables
        arrays = weight_arrays(g, _distinct(w))
        assert not arrays.shared_rows and not arrays.shared_tables


def test_to_log_of_distinct_rows_matches_shared_bit_for_bit():
    for g in _GRAPHS:
        for w in _uniform_systems(g):
            assert w.to_log().logs() == _distinct(w).to_log().logs()


@pytest.mark.parametrize("g", _GRAPHS)
def test_partitions_with_shared_rows_equal_distinct_rows(g):
    systems = _uniform_systems(g)
    distinct = [_distinct(w) for w in systems]
    logs = [w.to_log() for w in systems] + [make_ising(g, 0.9, 0.3), make_ising(g, 1.1, 0.0)]
    distinct_logs = [_distinct(w) for w in logs]
    def batched(group):
        arrays = [weight_arrays(g, w) for w in group]
        return _values(counting_mod._partitions(g, arrays, counting_mod.DEFAULT_BUDGET))

    for shared, fresh in ((systems, distinct), (logs, distinct_logs)):
        unbatched = [partition_function(g, w) for w in shared]
        assert _values(unbatched) == _values([partition_function(g, w) for w in fresh])
        assert batched(shared) == batched(fresh)
        assert batched([shared[0], fresh[1], shared[2]]) == batched(fresh[:3])  # mixed sharing
        if shared is systems:
            assert batched(shared) == _values(unbatched)


@pytest.mark.parametrize("g", _GRAPHS[:3])
@pytest.mark.parametrize("exponent", [Fraction(1), Fraction(3), Fraction(3, 2)])
def test_cover_sums_with_shared_rows_equal_distinct_rows(g, exponent):
    cert = certify_biregular(g, bipartition(g))
    pairs = [(frozenset(g.neighbors(v)), frozenset({v})) for v in sorted(cert.odd)]
    pairs.append((frozenset(cert.even), frozenset(cert.odd)))
    for w in _uniform_systems(g) + [make_ising(g, 0.8, 0.4)]:
        for system in (w,) if w.backend is Backend.LOG else (w, w.to_log()):
            got = cover_sums(g, weight_arrays(g, system), pairs, exponent)
            want = cover_sums(g, weight_arrays(g, _distinct(system)), pairs, exponent)
            assert _values(got) == _values(want)


def test_uniform_ising_row_is_converted_and_shifted_once(monkeypatch):
    g = _torus(4, 8)
    w = make_ising(g, 1.0, 0.25)
    seen, exps = [], []
    contract, exp = counting_mod.contract, np.exp

    def contract_spy(sizes, factors, *args):
        seen.append(factors)
        return contract(sizes, factors, *args)

    def exp_spy(*args, **kwargs):
        exps.append(args[0].shape)
        return exp(*args, **kwargs)

    monkeypatch.setattr(counting_mod, "contract", contract_spy)
    monkeypatch.setattr(np, "exp", exp_spy)
    shared = partition_function(g, w).log()
    (factors,) = seen
    assert len({id(table) for _, table in factors[: g.n]}) == 1  # one row object
    assert len({id(table) for _, table in factors[g.n :]}) == 1  # one table object
    assert exps == [(2,), (2, 2)]  # each shifted once: the row, then the table
    seen.clear()
    exps.clear()
    fresh = partition_function(g, _distinct(w)).log()
    assert len(exps) == g.n + g.num_edges
    assert fresh.hex() == shared.hex()


# The plan of every lattice the benchmark contracts (and C_8 x C_8, whose
# plan uses all three kernels) at m = 2, as a digest of the elimination
# order, each step's operand labels, output labels, terms, cells and kernel.
_PLAN_DIGESTS = {
    "Q4": "58ae97f98eae5ff6",
    "C4xC6": "a325c981fe29d0f4",
    "C4xC8": "71386d28e9be4984",
    "C30": "a420aef73907f8f9",
    "C8xC8": "93a290e71a63bb43",
}
_PLAN_GRAPHS = {
    "Q4": lambda: hypercube_graph(4),
    "C4xC6": lambda: _torus(4, 6),
    "C4xC8": lambda: _torus(4, 8),
    "C30": lambda: cycle_graph(30),
    "C8xC8": lambda: _torus(8, 8),
}


def _kernel_kind(kernel):
    if kernel is counting_mod._einsum:
        return "einsum"
    return kernel.func.__name__, kernel.args, sorted(kernel.keywords.items())


@pytest.mark.parametrize("name", sorted(_PLAN_DIGESTS))
def test_plans_of_the_lattices_are_pinned(name):
    g = _PLAN_GRAPHS[name]()
    scopes = tuple([(v,) for v in g.vertices()] + list(g.edges))
    free, largest, steps = counting_mod._plan((2,) * g.n, scopes)
    text = repr((free, largest, [(operands, out, terms, cells, _kernel_kind(kernel))
                                 for operands, out, terms, cells, kernel in steps]))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == _PLAN_DIGESTS[name]
