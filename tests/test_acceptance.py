"""Acceptance suite: one test per criterion, each printing a PASS line
with its headline numbers.  Run with `pytest -v -rP tests/test_acceptance.py`
to see every line.

Criterion 3 note: the exact-equality regression runs over the weight and
list families for which the per-vertex restriction reproduces the whole
instance (one shared spin-weight vector on the odd class, per-even-vertex
edge tables; one shared odd-class list).  For fully independent random
weights the bound is provably strict on any K_{a,b} with min(a,b) >= 2 --
the suite asserts that strictness too, so the distinction stays visible.

Criterion 8 note: the per-edge conjectured bound for weighted systems is
*falsified* by this harness (minimal witness: the 4-path with activities
2,1,1,2 gives 15 > 7 * 11^(1/4)).  The criterion's violation-handling
contract is therefore the binding part: every violation is serialized,
independently re-checkable, and reproduces VIOLATED on reload.  The
unweighted per-edge independent-set bound shows zero violations.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from oracles import (
    complete_graph,
    independent_sets,
    is_complete_bipartite,
    ising_brute_log_z,
    ising_cycle_z,
    list_vertex_restriction_rhs,
    partition_brute,
)
from spinz.blowup import concentration_experiment
from spinz.bounds import (
    Verdict,
    cover_family_value,
    edge_restriction_bound,
    ising_free_energy_check,
    list_vertex_restriction_bound,
    vertex_restriction_bound,
)
from spinz.cli import main as cli_main
from spinz.counting import (
    CoverFamilyPair,
    ListAssignment,
    partition_kab,
)
from spinz.graphs import (
    bipartition,
    certify_biregular,
    complete_bipartite,
    cycle_graph,
    hypercube_graph,
    parse_graph,
)
from spinz.harness import (
    CampaignConfig,
    enumerate_graphs,
    recheck_witness,
    run_campaign,
    sample_list_assignment,
    sample_target_graph,
    sample_weights,
)
from spinz.values import compare_product
from spinz.weights import WeightSystem, make_hardcore, restrict_to_kab


def _cert(g):
    return certify_biregular(g, bipartition(g))


def test_criterion_1_kab_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            g = complete_bipartite(b, a)  # w side first; degrees (a, b)
            cert = _cert(g)
            v = sorted(cert.odd)[0]
            for trial in range(24):
                m = 1 + trial % 3
                w = sample_weights(g, m, seed=10_000 * a + 100 * b + trial, cap=16)
                inst = restrict_to_kab(g, w, cert, v)
                fast = partition_kab(inst)
                brute = partition_brute(inst.graph, inst.weights)
                assert fast.fraction == brute.fraction
                checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 200
    assert elapsed < 60
    print(
        f"ACCEPTANCE 1 oracle equivalence: PASS "
        f"({checked} random systems on all K_a,b with a,b<=3, exact match, {elapsed:.1f}s)"
    )


def test_criterion_2_vertex_bound_regression_suite():
    start = time.monotonic()
    graphs = list(
        enumerate_graphs(10, "biregular", connected_only=True, max_degree=3)
    )
    assert len(graphs) == 14
    instances = 0
    violations = 0
    for gi, g in enumerate(graphs):
        for trial in range(100):
            m = 1 + trial % 3
            w = sample_weights(g, m, seed=1_000_000 + 1000 * gi + trial, cap=16)
            r = vertex_restriction_bound(g, w)
            assert r.backend.value == "exact"
            if r.verdict is not Verdict.HOLDS:
                violations += 1
            instances += 1
    elapsed = time.monotonic() - start
    assert violations == 0
    assert elapsed < 600
    print(
        f"ACCEPTANCE 2 biregular regression: PASS "
        f"({len(graphs)} graphs x 100 systems = {instances} instances, "
        f"0 violations, {elapsed:.1f}s)"
    )


def _matching_weights(g, cert, m, rng, cap=16):
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


def test_criterion_3_tightness_on_complete_bipartite():
    rng = random.Random(333)
    pairs = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
    equalities = 0
    for a, b in pairs:
        g = complete_bipartite(a, b)
        cert = _cert(g)
        for trial in range(8):
            m = 1 + trial % 3
            w = _matching_weights(g, cert, m, rng)
            r = vertex_restriction_bound(g, w)
            assert r.verdict is Verdict.HOLDS
            assert r.log_slack == 0.0
            equalities += 1
    h = complete_graph(4)
    list_equalities = 0
    for a, b in pairs:
        g = complete_bipartite(a, b)
        cert = _cert(g)
        for trial in range(8):
            rows = [None] * g.n
            shared = [y for y in range(h.n) if rng.random() < 0.8]
            for v in sorted(cert.even):
                rows[v] = [y for y in range(h.n) if rng.random() < 0.8]
            for v in sorted(cert.odd):
                rows[v] = shared
            r = list_vertex_restriction_bound(g, h, ListAssignment(g.n, rows))
            assert r.verdict is Verdict.HOLDS
            assert r.log_slack == 0.0
            list_equalities += 1
    # fully independent weights are strictly inside the bound once both
    # sides have two or more vertices; keep that fact pinned down
    g = complete_bipartite(2, 2)
    w = WeightSystem.build(g, 2, edge={(0, 2, 1, 1): 2})
    assert vertex_restriction_bound(g, w).log_slack > 0
    print(
        f"ACCEPTANCE 3 tightness: PASS ({equalities} weight and "
        f"{list_equalities} list instances with matching odd-class data, "
        f"log-slack exactly 0; strictness of independent weights pinned)"
    )


def test_criterion_4_independent_set_numbers():
    c6 = cycle_graph(6)
    k3 = complete_graph(3)
    count_c6 = len(independent_sets(6, c6.edges))
    count_k3 = len(independent_sets(3, k3.edges))
    assert count_c6 == 18
    assert count_k3 == 4
    from spinz.bounds import independent_set_edge_bound, independent_set_regular_bound

    r6 = independent_set_regular_bound(c6)
    assert r6.lhs.fraction == 18
    assert r6.rhs_log == pytest.approx(math.log(7 ** 1.5), rel=1e-9)
    assert math.exp(r6.rhs_log) == pytest.approx(18.520259, rel=1e-6)
    assert r6.verdict is Verdict.HOLDS
    r3 = independent_set_edge_bound(k3)
    assert r3.lhs.fraction == 4
    assert r3.rhs_log == pytest.approx(0.75 * math.log(7), rel=1e-9)
    assert math.exp(r3.rhs_log) == pytest.approx(4.303517, rel=1e-6)
    assert r3.verdict is Verdict.HOLDS
    print(
        "ACCEPTANCE 4 independent-set numbers: PASS "
        "(18 <= 7^(3/2) ~ 18.5203 on the 6-cycle; 4 <= 7^(3/4) ~ 4.3035 on the triangle)"
    )


def test_criterion_5_free_energy_sandwich():
    start = time.monotonic()
    graphs = {
        "C4": cycle_graph(4),
        "C6": cycle_graph(6),
        "C8": cycle_graph(8),
        "K22": complete_bipartite(2, 2),
        "K33": complete_bipartite(3, 3),
        "Q3": hypercube_graph(3),
    }
    checked = 0
    for name, g in graphs.items():
        for beta in (0.5, 1.0, 2.0):
            r = ising_free_energy_check(g, beta)
            tol = 1e-9 * max(abs(r.lower), abs(r.upper), 1.0)
            assert r.lower - tol <= r.free_energy <= r.upper + tol, (name, beta)
            assert r.in_bounds
            oracle = ising_brute_log_z(g.n, g.edges, beta, 0.0) / g.n
            assert r.free_energy == pytest.approx(oracle, rel=1e-9)
            checked += 1
    # spot-check one value against the cycle transfer-matrix form
    r = ising_free_energy_check(graphs["C4"], 1.0)
    assert r.free_energy == pytest.approx(math.log(ising_cycle_z(4, 1.0)) / 4, rel=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(
        f"ACCEPTANCE 5 free-energy sandwich: PASS "
        f"({checked} (graph, beta) pairs inside [bd/2, bd/2 + ln 2], {elapsed:.1f}s)"
    )


def test_criterion_6_cover_family_consistency():
    rng = random.Random(606)
    graphs = list(enumerate_graphs(8, "biregular", connected_only=True, max_degree=3))
    checked = 0
    for trial in range(50):
        g = graphs[rng.randrange(len(graphs))]
        h = sample_target_graph(4, seed=7000 + trial)
        lists = sample_list_assignment(g, h, seed=8000 + trial)
        cert = _cert(g)
        fam = CoverFamilyPair(
            pairs=tuple(
                (frozenset(cert.neighbor_order(v)), frozenset({v}))
                for v in sorted(cert.odd)
            ),
            t1=cert.a,
            t2=1,
        )
        value = cover_family_value(g, h, lists, fam)
        rhs = list_vertex_restriction_rhs(g, h, lists, cert)
        assert compare_product(value.factors, rhs.factors) == 0
        report = list_vertex_restriction_bound(g, h, lists)
        assert report.backend.value == "exact"
        assert report.verdict is Verdict.HOLDS
        checked += 1
    print(
        f"ACCEPTANCE 6 cover-family consistency: PASS "
        f"({checked} random instances, neighborhood family equals the "
        f"per-vertex product exactly, all bounds hold)"
    )


def test_criterion_7_blowup_moments():
    start = time.monotonic()
    g = cycle_graph(4)
    w = WeightSystem.build(
        g,
        2,
        edge={
            (u, v, i, j): Fraction(1, 2)
            for u, v in g.edges
            for i in (1, 2)
            for j in (1, 2)
            if i <= j
        },
    )
    stats = {}
    for C in (10, 100):
        s = concentration_experiment(g, w, (1, 1, 1, 1), C, 500, seed=20240901)
        mu = float(s.mu)
        assert mu == C ** 4 / 16
        se = math.sqrt(s.emp_var / s.trials)
        assert abs(s.emp_mean - mu) <= 4 * se, (C, s.emp_mean, mu, se)
        assert s.relative_var() <= 1.5 * float(s.alpha) / C ** 2
        stats[C] = s
    ratio = stats[10].relative_var() / stats[100].relative_var()
    assert 20 <= ratio <= 500
    elapsed = time.monotonic() - start
    assert elapsed < 300
    print(
        f"ACCEPTANCE 7 blow-up moments: PASS "
        f"(mean within 4 SE at C=10 and C=100; Var/mu^2 <= 1.5*alpha/C^2 "
        f"with alpha={float(stats[10].alpha):.0f}; ratio {ratio:.1f} in [20,500]; "
        f"{elapsed:.1f}s)"
    )


def test_criterion_8_conjecture_campaign():
    start = time.monotonic()
    cfg = CampaignConfig(
        source="general",
        n_max=6,
        connected=True,
        m=2,
        cap=16,
        weights="uniform_edge",
        bounds=("conj1", "indconj"),
        trials=50,
        seed=88,
    )
    report = run_campaign(cfg)
    conj1 = report.per_bound["conj1"]
    indconj = report.per_bound["indconj"]

    # the unweighted per-edge independent-set bound: no violations
    assert indconj.violations == []
    assert indconj.errors == 0

    # the weighted per-edge bound is falsified; every violation must be
    # serialized, re-checkable standalone, and reproduce VIOLATED exactly
    assert conj1.errors == 0
    assert conj1.min_log_slack is not None
    for payload in conj1.violations:
        again = recheck_witness(payload)
        assert again.verdict is Verdict.VIOLATED
        assert again.log_slack == payload["log_slack"]
        assert again.backend.value == "exact"

    # the known minimal witness reproduces through the production path
    p4 = parse_graph("p 4 3\ne 0 1\ne 1 2\ne 2 3\n")
    w_min = make_hardcore(p4, {0: 2, 1: 1, 2: 1, 3: 2})
    r_min = edge_restriction_bound(p4, w_min)
    assert r_min.verdict is Verdict.VIOLATED
    assert r_min.lhs.fraction == 15

    # equality pattern: unit-activity hard constraints are exactly tight
    # precisely on the complete bipartite graphs
    mismatch = []
    checked = 0
    for g in enumerate_graphs(6, "all", connected_only=True):
        r = edge_restriction_bound(g, make_hardcore(g, 1))
        assert r.verdict is Verdict.HOLDS
        if (r.log_slack == 0.0) != is_complete_bipartite(g):
            mismatch.append(g)
        checked += 1
    assert not mismatch
    elapsed = time.monotonic() - start
    print(
        f"ACCEPTANCE 8 conjecture campaign: PASS "
        f"({conj1.instances} weighted instances: {len(conj1.violations)} exact "
        f"violations found, all re-checked to VIOLATED (the conjectured "
        f"weighted per-edge bound is falsified; minimal witness 4-path with "
        f"activities 2,1,1,2); min log-slack {conj1.min_log_slack:.4g}; "
        f"unweighted bound: 0 violations on all {checked} connected graphs; "
        f"equality exactly on complete bipartite graphs; {elapsed:.1f}s)"
    )


def _run_cli_canonical(capsys, argv):
    code = cli_main([str(a) for a in argv])
    out = capsys.readouterr().out
    doc = json.loads(out)
    doc.pop("runtime_seconds", None)
    return code, json.dumps(doc, sort_keys=True)


def test_criterion_9_cli_determinism(tmp_path, capsys):
    c4 = tmp_path / "c4.graph"
    c4.write_text(cycle_graph(4).to_text())
    c6 = tmp_path / "c6.graph"
    c6.write_text(cycle_graph(6).to_text())
    k3 = tmp_path / "k3.graph"
    k3.write_text(complete_graph(3).to_text())
    uniform = tmp_path / "uniform.weights"
    uniform.write_text("m 2\n")
    half = tmp_path / "half.weights"
    lines = ["m 2"]
    for u, v in cycle_graph(4).edges:
        lines += [f"ew {u} {v} 1 1 1/2", f"ew {u} {v} 1 2 1/2", f"ew {u} {v} 2 2 1/2"]
    half.write_text("\n".join(lines) + "\n")
    campaign = tmp_path / "campaign.cfg"
    campaign.write_text(
        "source = biregular\nn_max = 6\nmax_degree = 2\nbounds = thm3, conj1\n"
        "weights = uniform_edge\ntrials = 3\nseed = 17\n"
    )
    commands = [
        ["compute", c4, uniform],
        ["bound", "thm3", c6, "--weights", uniform],
        ["bound", "indconj", k3],
        ["listhom", c6, k3],
        ["ising", c4, "--beta", "1.0"],
        ["blowup", c4, half, "--scale", "5", "--trials", "20", "--seed", "123"],
        ["search", campaign],  # the campaign's seed is in its config
    ]
    for argv in commands:
        code1, doc1 = _run_cli_canonical(capsys, argv)
        code2, doc2 = _run_cli_canonical(capsys, argv)
        assert code1 == code2
        assert doc1 == doc2
    print(
        f"ACCEPTANCE 9 determinism: PASS ({len(commands)} subcommands, "
        f"byte-identical JSON excluding timing across repeated runs)"
    )
