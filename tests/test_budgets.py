"""Every exponential entry point checks its cost against the budget before
it allocates: each case below costs far more than its budget and must
raise ``BudgetError`` with a tracemalloc peak under 1 MiB (numpy reports
its buffers to tracemalloc)."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from spinz.blowup import concentration_experiment
from spinz.counting import BudgetError, ListAssignment, contract, count_list_homs
from spinz.graphs import Graph, complete_graph, cycle_graph
from spinz.values import Backend
from spinz.weights import WeightSystem

PEAK_LIMIT = 1 << 20


def _peak_of_budget_error(call, cost):
    """Run ``call`` under tracemalloc; it must raise BudgetError naming
    ``cost``.  Returns the peak traced allocation in bytes."""
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=f"cost {cost} exceeds"):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_blowup_checks_its_budget_before_any_draw():
    g = cycle_graph(4)
    w = WeightSystem.build(
        g, 2, edge={(u, v, i, j): Fraction(1, 2) for u, v in g.edges for i in (1, 2) for j in (1, 2) if i <= j}
    )
    # 2000 x 2000 blocks: the plan's largest tensor has 4,000,000 cells
    # and a trial would draw 16,000,000
    peak = _peak_of_budget_error(
        lambda: concentration_experiment(g, w, (1, 1, 1, 1), 2000, 5, seed=0, budget=1000), 4_000_000
    )
    assert peak < PEAK_LIMIT


def test_blowup_budget_bounds_the_drawn_cells():
    # one edge with 300-vertex blocks: the plan's largest tensor has 300
    # cells, but a trial draws 90,000
    g = Graph(2, [(0, 1)])
    w = WeightSystem.build(g, 1, edge={(0, 1, 1, 1): Fraction(1, 2)})
    peak = _peak_of_budget_error(
        lambda: concentration_experiment(g, w, (1, 1), 300, 2, seed=0, budget=1000), 90_000
    )
    assert peak < PEAK_LIMIT
    assert len(concentration_experiment(g, w, (1, 1), 300, 2, seed=0, budget=90_000).samples) == 2


@pytest.mark.parametrize("backend", [Backend.EXACT, Backend.LOG])
def test_contract_checks_its_budget_before_converting_tables(backend):
    rng = np.random.default_rng(0)
    sizes = [300] * 4
    tables = [rng.random((300, 300)) < 0.5 for _ in range(4)]
    if backend is Backend.LOG:
        with np.errstate(divide="ignore"):
            tables = [np.log(t) for t in tables]
    factors = list(zip(cycle_graph(4).edges, tables))
    peak = _peak_of_budget_error(lambda: contract(sizes, factors, 1000, backend), 90_000)
    assert peak < PEAK_LIMIT


def test_count_list_homs_checks_its_budget_before_contracting():
    g, h = cycle_graph(6), complete_graph(120)
    h.adjacency_matrix()  # the target's matrix is the caller's, built once per graph
    lists = ListAssignment.full(g, h)
    peak = _peak_of_budget_error(lambda: count_list_homs(g, h, lists, 1000), 120 * 120)
    assert peak < PEAK_LIMIT
