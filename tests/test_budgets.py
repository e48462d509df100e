"""Every exponential entry point checks its cost against the budget before
it allocates: each case below costs far more than its budget and must
raise ``BudgetError`` (enumeration past its ceiling ``EnumerationError``;
exit 2 through the CLI) with a tracemalloc peak under 1 MiB (numpy
reports its buffers to tracemalloc).  ``compare_product`` has no budget
yet."""

import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from spinz.blowup import concentration_experiment
from spinz.cli import main
from spinz.counting import (
    BudgetError,
    ListAssignment,
    contract,
    count_list_homs,
    cover_sums,
    edge_kab_sums,
    list_weights,
    uniform_kab_sums,
)
from spinz.graphs import Graph, complete_bipartite, complete_graph, cycle_graph
from spinz.harness import EnumerationError, enumerate_graphs
from spinz.values import Backend
from spinz.weights import WeightSystem

PEAK_LIMIT = 1 << 20


def _peak_of_error(call, error, match):
    """Run ``call`` under tracemalloc; it must raise ``error`` matching
    ``match``.  Returns the peak traced allocation in bytes."""
    tracemalloc.start()
    try:
        with pytest.raises(error, match=match):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peak_of_budget_error(call, cost):
    """``_peak_of_error`` for a BudgetError naming ``cost``."""
    return _peak_of_error(call, BudgetError, f"cost {cost} exceeds")


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


def _k12_12_into_k4():
    """K_{12,12}, K_4 and full lists: a K_{12,12} restriction spans 4^12
    maps of one side."""
    g, h = complete_bipartite(12, 12), complete_graph(4)
    h.adjacency_matrix()
    return g, h, list_weights(g, h, ListAssignment.full(g, h))


def test_cover_sums_checks_its_budget_before_any_c_v_table():
    g, _, weights = _k12_12_into_k4()
    pairs = [(frozenset(g.neighbors(v)), frozenset({v})) for v in range(12, 24)]
    peak = _peak_of_budget_error(lambda: cover_sums(g, weights, pairs, Fraction(12), 10 ** 4), 4 ** 12)
    assert peak < PEAK_LIMIT


def test_edge_kab_sums_checks_its_budget_before_contracting():
    g, h, weights = _k12_12_into_k4()
    rows, _ = weights.arrays(np.float64)
    call = lambda: edge_kab_sums(g, rows[None], h.adjacency_matrix(), 10 ** 4, Backend.EXACT)
    peak = _peak_of_budget_error(call, 4 ** 12)
    assert peak < PEAK_LIMIT


def test_uniform_kab_sums_checks_its_budget_before_any_dp():
    # 8 spins over a 12-vertex side: C(19, 7) = 50,388 count vectors
    table = [[int(i != j) for j in range(8)] for i in range(8)]
    side = [[1] * 8] * 12
    peak = _peak_of_budget_error(lambda: uniform_kab_sums([(table, side, side)], 10 ** 4), 50388)
    assert peak < PEAK_LIMIT


def test_enumeration_past_its_ceiling_fails_before_any_graph():
    peak = _peak_of_error(
        lambda: next(enumerate_graphs(8, "all")), EnumerationError, "n_max 8 exceeds the all ceiling 7"
    )
    assert peak < PEAK_LIMIT


@pytest.fixture()
def cli_files(tmp_path):
    g = cycle_graph(4)
    paths = {"c4": tmp_path / "c4.graph", "k3": tmp_path / "k3.graph", "half4": tmp_path / "half4.weights"}
    paths["c4"].write_text(g.to_text())
    paths["k3"].write_text(complete_graph(3).to_text())
    half = ["m 2"] + [f"ew {u} {v} {i} {j} 1/2" for u, v in g.edges for i, j in ((1, 1), (1, 2), (2, 2))]
    paths["half4"].write_text("\n".join(half) + "\n")
    paths["tmp"] = tmp_path
    return paths


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "c4", "half4"],
        ["bound", "thm3", "c4", "--weights", "half4"],
        ["listhom", "c4", "k3"],
        ["ising", "c4", "--beta", "0.5"],
        ["blowup", "c4", "half4", "--scale", "2", "--trials", "2"],
    ],
)
def test_every_cli_command_exits_2_past_its_budget(capsys, cli_files, argv):
    argv = [str(cli_files.get(a, a)) for a in argv] + ["--budget", "1"]
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: enumeration cost ") and " exceeds budget 1;" in captured.err
    assert peak < PEAK_LIMIT


def test_search_records_budget_errors_per_instance(capsys, cli_files):
    cfg = cli_files["tmp"] / "campaign.cfg"
    cfg.write_text(
        f"source = files\nfiles = {cli_files['c4']}\nbounds = thm3, conj1, thm4, indconj\n"
        "trials = 2\nbudget = 1\n"
    )
    assert main(["search", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    for name, agg in report["bounds"].items():
        assert agg["errors"] == agg["instances"] > 0, name
        assert all(" exceeds budget 1;" in e["error"] for e in agg["error_samples"]), name
