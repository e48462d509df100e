import hashlib
import json
import re
from fractions import Fraction

import pytest

from oracles import (
    are_isomorphic,
    complete_graph,
    draw_rational,
    exhaustive_canonical_form,
    fraction_sample_weights,
    isomorphic_brute,
    path_graph,
    relabel,
)
from spinz.bounds import BOUND_INPUTS, BOUND_NAMES, Verdict, evaluate_bound, evaluate_trials
from spinz.graphs import (
    Graph,
    complete_bipartite,
    cycle_graph,
    hypercube_graph,
)
from spinz.harness import (
    WEIGHT_STYLES,
    BoundAggregate,
    CampaignConfig,
    EnumerationError,
    _evaluate_graph,
    canonical_form,
    enumerate_graphs,
    parse_campaign_config,
    recheck_witness,
    run_campaign,
    sample_list_assignment,
    sample_target_graph,
    sample_weights,
)
from spinz.util import derive_seed
from spinz.weights import WeightError, make_hardcore, uniform_edge
import random


def test_canonical_form_is_isomorphism_invariant():
    g = complete_bipartite(2, 3)
    for perm in ([4, 3, 2, 1, 0], [1, 3, 0, 4, 2]):
        assert canonical_form(g) == canonical_form(relabel(g, perm))
    assert canonical_form(cycle_graph(6)) != canonical_form(complete_bipartite(3, 3))


def test_are_isomorphic_matches_brute_force():
    rng = random.Random(3)
    graphs = []
    for _ in range(12):
        n = rng.randint(2, 5)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        graphs.append(Graph(n, [e for e in pairs if rng.random() < 0.5]))
    for g1 in graphs:
        for g2 in graphs:
            expected = isomorphic_brute(g1.n, g1.edges, g2.n, g2.edges)
            assert are_isomorphic(g1, g2) == expected


def test_enumerate_two_two_biregular_is_even_cycles():
    got = list(enumerate_graphs(8, "biregular", connected_only=True, a=2, b=2))
    assert len(got) == 3
    for g, k in zip(sorted(got, key=lambda g: g.n), (4, 6, 8)):
        assert are_isomorphic(g, cycle_graph(k))


def test_enumerate_zero_is_empty():
    assert list(enumerate_graphs(0, "all")) == []


def test_enumerate_connected_four_vertex_classes():
    got = [g for g in enumerate_graphs(4, "all", connected_only=True) if g.n == 4]
    assert len(got) == 6  # path, star, paw, cycle, diamond, complete
    references = [
        path_graph(4),
        Graph(4, [(0, 1), (0, 2), (0, 3)]),
        Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
        cycle_graph(4),
        Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
        complete_graph(4),
    ]
    for ref in references:
        assert any(are_isomorphic(g, ref) for g in got)


def test_enumerate_counts_match_literature():
    count_by_n = {}
    for g in enumerate_graphs(6, "all", connected_only=True):
        count_by_n[g.n] = count_by_n.get(g.n, 0) + 1
    assert count_by_n == {2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


def test_enumerate_biregular_with_degree_cap():
    got = list(enumerate_graphs(10, "biregular", connected_only=True, max_degree=3))
    assert len(got) == 14
    assert any(are_isomorphic(g, hypercube_graph(3)) for g in got)
    assert any(are_isomorphic(g, complete_bipartite(3, 3)) for g in got)
    assert any(are_isomorphic(g, cycle_graph(10)) for g in got)


def test_a_degree_pin_needs_both_degrees():
    for pin in ({"a": 2}, {"b": 2}):
        with pytest.raises(EnumerationError, match="a degree pin needs both a and b"):
            next(enumerate_graphs(8, "biregular", **pin))


def test_search_with_one_degree_pin_exits_before_enumerating(tmp_path, monkeypatch, capsys):
    from spinz import harness
    from spinz.cli import main

    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated a campaign whose config is invalid")

    monkeypatch.setattr(harness, "enumerate_graphs", no_enumeration)
    cfg = tmp_path / "pin.cfg"
    cfg.write_text("source = biregular\nn_max = 8\na = 2\n")
    assert main(["search", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: a degree pin needs both a and b, got a=2, b=None\n"


@pytest.mark.parametrize("mode", ["all", "bipartite"])
@pytest.mark.parametrize(
    "pins, named", [({"a": 2, "b": 2}, "a, b"), ({"max_degree": 1}, "max_degree"),
                    ({"a": 3, "b": 1, "max_degree": 3}, "a, b, max_degree")],
)
def test_degree_pins_outside_biregular_enumeration_are_rejected(mode, pins, named):
    with pytest.raises(EnumerationError, match=re.escape(
            f"mode {mode} takes no degree pins ({named} given): they apply to biregular only")):
        next(enumerate_graphs(4, mode, **pins))


def test_enumerate_bipartite_mode_filters():
    got = list(enumerate_graphs(4, "bipartite", connected_only=True))
    assert all(is_bipartite(g) for g in got)
    assert not any(are_isomorphic(g, complete_graph(3)) for g in got)


def is_bipartite(g):
    from spinz.graphs import NotBipartiteError, bipartition

    try:
        bipartition(g)
        return True
    except NotBipartiteError:
        return False


def test_enumerate_ceiling():
    with pytest.raises(EnumerationError, match="ceiling"):
        list(enumerate_graphs(11, "all"))
    with pytest.raises(EnumerationError, match="ceiling"):
        list(enumerate_graphs(13, "biregular"))


def test_enumerate_ceiling_is_checked_before_the_first_graph():
    for mode in ("all", "bipartite"):
        graphs = enumerate_graphs(8, mode)
        with pytest.raises(EnumerationError, match=f"n_max 8 exceeds the {mode} ceiling 7"):
            next(graphs)


def test_biregular_ceiling_is_twelve_and_checked_before_the_first_graph():
    graphs = enumerate_graphs(13, "biregular", connected_only=True)
    with pytest.raises(EnumerationError, match="n_max 13 exceeds the biregular ceiling 12"):
        next(graphs)


def test_biregular_enumeration_reaches_its_ceiling():
    # 82 classes, 31 of them on 12 vertices, as networkx's isomorphism test counts them
    graphs = list(enumerate_graphs(12, "biregular"))
    assert len(graphs) == 82
    assert sum(g.n == 12 for g in graphs) == 31


def test_canonical_form_matches_the_exhaustive_search_over_the_graph_atlas():
    """networkx's atlas holds every graph on 1..7 vertices, one per class
    (its empty graph aside): the keys are pairwise distinct, survive a
    random relabelling, and equal the unpruned search's keys."""
    import networkx as nx

    atlas = [Graph(a.number_of_nodes(), a.edges()) for a in nx.graph_atlas_g() if len(a)]
    keys = [canonical_form(g) for g in atlas]
    assert len(atlas) == 1252
    assert len(set(keys)) == len(keys)
    rng = random.Random(18)
    for g, key in zip(atlas, keys):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == key
        assert exhaustive_canonical_form(g) == key


def test_canonical_form_prunes_large_automorphism_groups():
    # 2 * 6! * 6! and 384 automorphisms: the unpruned search visits a leaf
    # for each (K_{5,5}'s 28,800 take it about 1 s, so K_{6,6} about a minute)
    rng = random.Random(5)
    for g in (complete_bipartite(6, 6), hypercube_graph(4), cycle_graph(12)):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == canonical_form(g)
    assert canonical_form(complete_bipartite(6, 6)) != canonical_form(complete_bipartite(5, 7))


@pytest.mark.parametrize(
    "n_max, mode, options, expect",
    [
        (10, "biregular", {"connected_only": True, "max_degree": 3},
         (14, "b27d2c496be72b3aac4124cc9a686fcae520e876a5afe494faa32e1f5fe28200")),
        (10, "biregular", {}, (46, "fe02333009b4ad34c3acc120bbcef0e4bc5881767a85b16be315eefd639aea16")),
        (6, "all", {"connected_only": True},
         (142, "1b1b0203e322956527eb1ce9158724bb03405cc54d793ad7d3f554e4e58acecc")),
        (6, "bipartite", {}, (55, "281e2f313a8fbe78b6dcdcb9ef8d62ed9b938dd7dc2d6bbb6f159b474aa722ba")),
        # a pinned degree pair is orientation-free: (1, 2) is the (2, 1) stream
        (10, "biregular", {"a": 2, "b": 1},
         (3, "7f9469ba0549e30d60ca71f6254b7ddf39fde260bb44b65e188d84925c328130")),
        (10, "biregular", {"a": 1, "b": 2},
         (3, "7f9469ba0549e30d60ca71f6254b7ddf39fde260bb44b65e188d84925c328130")),
    ],
)
def test_enumeration_order_and_edges_are_pinned(n_max, mode, options, expect):
    """The yield order fixes each graph's graph_index in a campaign: the
    graphs, in order, are those the exhaustive canonical form gave."""
    texts = [g.to_text() for g in enumerate_graphs(n_max, mode, **options)]
    assert (len(texts), hashlib.sha256("".join(texts).encode()).hexdigest()) == expect


# sha256 over sample_weights(g, m, seed, cap, allow_zero, style).to_text() for
# allow_zero off then on, m = 1, 2, 3, the graphs of _PIN_GRAPHS and _PIN_SEEDS,
# recorded when every draw went through random.randint
_PIN_GRAPHS = (
    Graph(1, []),
    path_graph(3),
    cycle_graph(5),
    complete_bipartite(2, 3),
    hypercube_graph(3),
)
_PIN_SEEDS = (0, 7, 2**40 + 3)
_SAMPLE_DIGESTS = {
    ("general", 1): "ec2fd7460cfa4e605c5986073201ee85ae36e228c3efd8f854fa266326cbbdd0",
    ("general", 5): "09177ae9841ef221e85515c14e488368772f7d99983a51ceb83ba01bd8c8ad4c",
    ("general", 16): "aa9f28e11738ac013ecde02798c0e75bbdca9674ccd0ce1ab8f1ded00795d850",
    ("general", 100): "d001870eecb90351c22b9cb3df56f4328c663f5c9cc37803b76bef15bdd82c56",
    ("uniform_edge", 1): "84c5b7094e9b423da6c33145dbc8e51ce4eaa4df1a6a350c828640825069f6c1",
    ("uniform_edge", 5): "df5560f08fbaa3d9b99858c1c69370b629f03a1f33ad1bd1ee9933860b4466f1",
    ("uniform_edge", 16): "d13a8084d51777c9be0934065d7c81d37f2e9f064d9f2a1cdd528ef64a9d33f4",
    ("uniform_edge", 100): "19ba7872c186c1816e330a3743de615bdf9912dca8c0560ded55a0edc879491d",
    ("hardcore", 1): "7f3a1bf6790815bce591e1e54e0db87e21eefa7480e72875f408f99b88abd4dd",
    ("hardcore", 5): "17695ff4792765fd27d07d6ceaf190eef7c5451fe25d823fe74ad7e1c3a4aa24",
    ("hardcore", 16): "85849506cef7e00630fae692dbca90b0bf7115b3f4ffc50fd6ad65783e1459ef",
    ("hardcore", 100): "bfbdad6c34ae8a048b757c323ec38aca800a29ccbae2d0220ac4686673049881",
}


@pytest.mark.parametrize("style, cap", sorted(_SAMPLE_DIGESTS))
def test_sampled_weight_texts_are_pinned(style, cap):
    digest = hashlib.sha256()
    for allow_zero in (False, True):
        for m in (1, 2, 3):
            for g in _PIN_GRAPHS:
                for seed in _PIN_SEEDS:
                    text = sample_weights(g, m, seed, cap, allow_zero, style).to_text()
                    digest.update(text.encode())
    assert digest.hexdigest() == _SAMPLE_DIGESTS[style, cap]


@pytest.mark.parametrize("cap", [1, 2, 3, 31, 32, 33, 2**32, 2**32 + 1, 10**20])
def test_direct_bit_draws_are_the_randint_stream(cap):
    # caps at and across the 32-bit word that one getrandbits call returns
    g = complete_bipartite(2, 3)
    for style in WEIGHT_STYLES:
        for allow_zero in (False, True):
            got = sample_weights(g, 2, seed=cap, cap=cap, allow_zero=allow_zero, style=style)
            want = fraction_sample_weights(g, 2, seed=cap, cap=cap, allow_zero=allow_zero, style=style)
            assert got.to_text() == want.to_text()


def test_cap_below_one_is_rejected_before_any_draw():
    for cap in (0, -2):
        message = f"cap must be >= 1, got {cap}"
        with pytest.raises(ValueError, match=re.escape(message)):
            sample_weights(cycle_graph(4), 2, seed=1, cap=cap)
        with pytest.raises(ValueError, match=re.escape(message)):
            CampaignConfig(cap=cap)
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_campaign_config(f"cap = {cap}\n")


def test_enumerate_deterministic_order():
    a = [g.to_text() for g in enumerate_graphs(5, "all", connected_only=True)]
    b = [g.to_text() for g in enumerate_graphs(5, "all", connected_only=True)]
    assert a == b


def test_sample_weights_cap_one_gives_all_ones():
    g = cycle_graph(4)
    w = sample_weights(g, 2, seed=9, cap=1)
    assert all(w.vertex_weight(v, i).fraction == 1 for v in range(4) for i in (1, 2))
    assert w.uniform_edge_table() is not None


def test_sample_weights_deterministic():
    g = cycle_graph(4)
    assert sample_weights(g, 3, seed=4).to_text() == sample_weights(g, 3, seed=4).to_text()
    assert sample_weights(g, 3, seed=4).to_text() != sample_weights(g, 3, seed=5).to_text()


def test_sample_weights_styles():
    g = cycle_graph(6)
    uni = sample_weights(g, 2, seed=1, style="uniform_edge")
    assert uni.uniform_edge_table() is not None
    hc = sample_weights(g, 2, seed=1, style="hardcore")
    assert hc.edge_weight(0, 1, 1, 1).is_zero
    gen = sample_weights(g, 2, seed=1, style="general")
    assert gen.uniform_edge_table() is None  # overwhelmingly likely under this seed


def test_draw_rational_mean_of_numerators():
    rng = random.Random(2024)
    draws = [draw_rational(rng, 16) for _ in range(10_000)]
    mean_num = sum(p for p, _ in draws) / len(draws)
    # uniform on 1..16: mean 8.5, variance (16^2 - 1)/12
    se = ((16 ** 2 - 1) / 12 / len(draws)) ** 0.5
    assert abs(mean_num - 8.5) <= 3 * se


def test_sample_targets_and_lists_deterministic():
    g = cycle_graph(4)
    h1, h2 = sample_target_graph(4, 7), sample_target_graph(4, 7)
    assert h1 == h2
    l1 = sample_list_assignment(g, h1, 3)
    l2 = sample_list_assignment(g, h1, 3)
    assert l1 == l2


def test_campaign_config_parsing():
    cfg = parse_campaign_config(
        "# comment\nsource = biregular\nn_max = 6\nmax_degree = 2\n"
        "bounds = thm3, conj1\nweights = uniform_edge\ntrials = 3\nseed = 11\n"
    )
    assert cfg.bounds == ("thm3", "conj1")
    assert cfg.max_degree == 2
    with pytest.raises(ValueError, match="unknown config key"):
        parse_campaign_config("bogus = 1\n")
    with pytest.raises(ValueError, match="unknown bound"):
        parse_campaign_config("bounds = nope\n")


@pytest.mark.parametrize(
    "text, expect",
    [
        ("connected = ture\n", "line 1: connected takes true/false/yes/no/1/0, got 'ture'"),
        ("allow_zero = on\n", "line 1: allow_zero takes true/false/yes/no/1/0, got 'on'"),
        ("seed = 1\nn_max = x\n", "line 2: n_max takes an integer, got 'x'"),
        ("trials = 2.5\n", "line 1: trials takes an integer, got '2.5'"),
        ("seed = 1\n# seed = 3\nseed = 2\n", "line 3: duplicate config key 'seed'"),
        ("trials = 1\nbogus = 1\n", "line 2: unknown config key 'bogus'"),
        ("connected = YES\nallow_zero = 1\n", {"connected": True, "allow_zero": True}),
        ("connected = False\nallow_zero = No\n", {"connected": False, "allow_zero": False}),
        ("connected = 0\nallow_zero = TRUE\n", {"connected": False, "allow_zero": True}),
        ("a = 2\n", "a degree pin needs both a and b, got a=2, b=None"),
        ("b = 3\n", "a degree pin needs both a and b, got a=None, b=3"),
        ("a = 2\nb = 2\n", {"a": 2, "b": 2}),
        ("source = general\na = 2\nb = 2\n",
         "source general takes no degree pins (a, b given): they apply to biregular only"),
        ("source = bipartite\nmax_degree = 2\n",
         "source bipartite takes no degree pins (max_degree given): they apply to biregular only"),
        ("source = files\nfiles = x.graph\nmax_degree = 2\n",
         "source files takes no degree pins (max_degree given): they apply to biregular only"),
        ("source = biregular\nmax_degree = 2\n", {"max_degree": 2}),
        ("source = biregular\nfiles = a.graph\n", "source biregular takes no files: they apply to source files only"),
    ],
)
def test_campaign_config_values_are_strict(text, expect):
    if isinstance(expect, str):
        with pytest.raises(ValueError, match=re.escape(expect)):
            parse_campaign_config(text)
    else:
        cfg = parse_campaign_config(text)
        assert {key: getattr(cfg, key) for key in expect} == expect


def test_campaign_proved_bounds_regression_zero_violations():
    cfg = CampaignConfig(
        source="biregular",
        n_max=6,
        max_degree=2,
        connected=True,
        m=2,
        bounds=("thm3", "thm4", "thm5"),
        trials=5,
        seed=3,
        h_max=3,
    )
    report = run_campaign(cfg)
    for name in ("thm3", "thm4", "thm5"):
        agg = report.per_bound[name]
        assert agg.instances == report.graphs * 5
        assert agg.violations == []
        assert agg.errors == 0


def test_campaign_empty_source():
    cfg = CampaignConfig(source="general", n_max=0, bounds=("indconj",), trials=1)
    report = run_campaign(cfg)
    assert report.graphs == 0
    assert report.per_bound["indconj"].instances == 0


def test_campaign_over_listed_graph_files(tmp_path):
    # two files by absolute path, ';'-separated with spaces around the entries
    paths = [tmp_path / "c6.graph", tmp_path / "k23.graph"]
    paths[0].write_text(cycle_graph(6).to_text())
    paths[1].write_text(complete_bipartite(2, 3).to_text())
    text = (f"source = files\nfiles =  {paths[0]} ;  {paths[1]} ;\n"
            "bounds = thm3, conj1, indconj\nweights = uniform_edge\ntrials = 4\nseed = 5\n")
    cfg = parse_campaign_config(text)
    assert cfg.files == tuple(map(str, paths))
    report = run_campaign(cfg)
    assert report.graphs == 2
    # sampled bounds run once per trial, indconj once per graph
    counts = {name: agg.instances for name, agg in report.per_bound.items()}
    assert counts == {"thm3": 8, "conj1": 8, "indconj": 2}
    assert all(agg.errors == 0 for agg in report.per_bound.values())
    assert report.per_bound["thm3"].holds == 8


def test_campaign_min_slack_zero_on_complete_bipartite_hardcore():
    cfg = CampaignConfig(
        source="biregular", n_max=5, connected=True, bounds=("conj1",),
        weights="hardcore", cap=1, trials=1, seed=0,
    )
    report = run_campaign(cfg)
    agg = report.per_bound["conj1"]
    assert agg.violations == []
    # complete bipartite graphs with unit activities are exactly tight
    assert agg.min_log_slack == 0.0


def test_campaign_violations_are_recheckable(tmp_path):
    # non-uniform activities falsify the conjectured per-edge bound; the
    # campaign must persist the witnesses and they must reproduce exactly
    cfg = CampaignConfig(
        source="general", n_max=4, connected=True, bounds=("conj1",),
        weights="hardcore", cap=6, trials=10, seed=2, out=str(tmp_path / "run"),
    )
    report = run_campaign(cfg)
    agg = report.per_bound["conj1"]
    assert agg.violations, "expected at least one falsifying instance"
    for payload in agg.violations:
        again = recheck_witness(payload)
        assert again.verdict is Verdict.VIOLATED
        assert again.log_slack == payload["log_slack"]
    vdir = tmp_path / "run" / "violations"
    stored = sorted(vdir.glob("conj1_*.json"))
    assert len(stored) == len(agg.violations)
    payload = json.loads(stored[0].read_text())
    assert recheck_witness(payload).verdict is Verdict.VIOLATED
    assert (tmp_path / "run" / "report.json").exists()
    assert (tmp_path / "run" / "summary.txt").read_text().startswith("campaign")


def test_campaign_witnesses_of_every_bound_recheck():
    cfg = CampaignConfig(
        source="biregular", n_max=6, connected=True, bounds=BOUND_NAMES,
        weights="uniform_edge", allow_zero=True, trials=3, seed=4,
    )
    report = run_campaign(cfg)
    for name in BOUND_NAMES:
        agg = report.per_bound[name]
        assert agg.holds > 0, name
        for payload in [agg.min_witness, *agg.violations]:
            again = recheck_witness(payload)
            assert again.bound == name
            assert again.verdict.value == payload["verdict"]
            assert again.log_slack == payload["log_slack"]


def test_campaign_static_bounds_run_once_per_graph():
    cfg = CampaignConfig(
        source="general", n_max=4, connected=True, bounds=("indconj",), trials=7, seed=0
    )
    report = run_campaign(cfg)
    assert report.per_bound["indconj"].instances == report.graphs


def test_campaign_records_errors_nonfatally():
    # thm3 on non-biregular graphs is a per-instance error, not a crash
    cfg = CampaignConfig(
        source="general", n_max=4, connected=True, bounds=("thm3",), trials=1, seed=0
    )
    report = run_campaign(cfg)
    agg = report.per_bound["thm3"]
    assert agg.errors > 0
    assert agg.instances == report.graphs
    assert agg.holds + agg.errors == agg.instances


def test_canonical_masks_by_byte_lookup_match_the_per_bit_reference():
    import numpy as np

    from oracles import canonical_masks_per_bit
    from spinz.graphs import is_connected
    from spinz.harness import _graph_from_mask, _orbit_minima

    connected = {}
    for n in range(2, 7):
        masks = np.arange(1, 1 << (n * (n - 1) // 2), dtype=np.int64)
        minima = _orbit_minima(n)
        assert minima.dtype == np.int64
        assert np.array_equal(minima, np.unique(canonical_masks_per_bit(n, masks)))
        graphs = [_graph_from_mask(n, int(c)) for c in minima]
        connected[n] = sum(map(is_connected, graphs))
    assert connected == {2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


def test_seven_vertex_classes_match_the_graph_atlas():
    import networkx as nx
    import numpy as np

    from oracles import canonical_masks_per_bit
    from spinz.harness import _orbit_minima

    atlas = [g for g in nx.graph_atlas_g() if g.number_of_nodes() == 7 and g.number_of_edges()]
    index = {p: k for k, p in enumerate((i, j) for i in range(7) for j in range(i + 1, 7))}
    masks = np.array([sum(1 << index[min(e), max(e)] for e in g.edges()) for g in atlas])
    minima = _orbit_minima(7)
    # the atlas lists each class once, so its canonical masks are the minima
    assert len(atlas) == len(minima) == 1043
    assert np.array_equal(np.unique(canonical_masks_per_bit(7, masks)), minima)
    connected = [g for g in enumerate_graphs(7, "all", connected_only=True) if g.n == 7]
    assert len(connected) == sum(map(nx.is_connected, atlas)) == 853  # OEIS A001349
    bipartite = [g for g in enumerate_graphs(7, "bipartite") if g.n == 7]
    assert len(bipartite) == sum(map(nx.is_bipartite, atlas))


def _uniform_edge_or_error(w):
    try:
        return uniform_edge(w)
    except WeightError as exc:
        return str(exc)


@pytest.mark.parametrize("style", WEIGHT_STYLES)
def test_sample_weights_equals_the_fraction_sampler(style):
    graphs = [cycle_graph(5), complete_graph(4), path_graph(2), Graph(3, []), complete_bipartite(2, 3)]
    for seed in range(240):
        g, m, allow_zero = graphs[seed % 5], 1 + seed % 3, seed % 4 == 1
        cap = (1, 2, 9, 16)[seed % 4]
        got = sample_weights(g, m, seed, cap=cap, allow_zero=allow_zero, style=style)
        want = fraction_sample_weights(g, m, seed, cap=cap, allow_zero=allow_zero, style=style)
        assert got.m == want.m
        assert got.cleared() == want.cleared()
        assert got.to_text() == want.to_text()
        assert got.uniform_edge_table() == want.uniform_edge_table()
        assert _uniform_edge_or_error(got) == _uniform_edge_or_error(want)


def _campaign_by_lone_evaluations(cfg):
    """run_campaign's report.json dict (runtime aside), built by calling
    evaluate_bound on each (graph, sample) in turn."""
    if cfg.source == "biregular":
        graphs = list(enumerate_graphs(cfg.n_max, "biregular", cfg.connected, cfg.a, cfg.b, cfg.max_degree))
    else:
        mode = "bipartite" if cfg.source == "bipartite" else "all"
        graphs = list(enumerate_graphs(cfg.n_max, mode, connected_only=cfg.connected))
    keys = ("instances", "holds", "inconclusive", "equalities", "errors")
    bounds = {
        name: {**dict.fromkeys(keys, 0), "error_samples": [], "violations": [],
               "min_log_slack": None, "min_witness": None}
        for name in cfg.bounds
    }
    for gi, g in enumerate(graphs):
        for si in range(cfg.trials):
            w = sample_weights(g, cfg.m, derive_seed(cfg.seed, "weights", gi, si), cap=cfg.cap,
                               allow_zero=cfg.allow_zero, style=cfg.weights)
            h = sample_target_graph(cfg.h_max, derive_seed(cfg.seed, "target", gi, si))
            lists = sample_list_assignment(g, h, derive_seed(cfg.seed, "lists", gi, si))
            for name in cfg.bounds:
                reads = BOUND_INPUTS[name]
                if reads is None and si > 0:
                    continue
                agg = bounds[name]
                agg["instances"] += 1
                try:
                    r = evaluate_bound(name, g, weights=w, target=h, lists=lists, budget=cfg.budget)
                except ValueError as exc:  # GraphError is one too
                    agg["errors"] += 1
                    if len(agg["error_samples"]) < 5:
                        agg["error_samples"].append({"graph_index": gi, "sample_index": si, "error": str(exc)})
                    continue
                extras = {"weights": {"weights": w.to_text()},
                          "target": {"target": h.to_text(), "lists": lists.to_text()}, None: {}}[reads]
                payload = {"bound": name, "verdict": r.verdict.value, "backend": r.backend.value,
                           "log_slack": r.log_slack, "lhs_log": r.lhs_log, "rhs_log": r.rhs_log,
                           "graph": g.to_text(), **extras, "graph_index": gi, "sample_index": si}
                if r.verdict is Verdict.HOLDS:
                    agg["holds"] += 1
                elif r.verdict is Verdict.INCONCLUSIVE:
                    agg["inconclusive"] += 1
                else:
                    agg["violations"].append(payload)
                agg["equalities"] += r.cmp == 0
                if r.log_slack != float("inf") and (
                    agg["min_log_slack"] is None or r.log_slack < agg["min_log_slack"]
                ):
                    agg["min_log_slack"], agg["min_witness"] = r.log_slack, payload
    return {"config": cfg.to_json_dict(), "graphs": len(graphs), "bounds": bounds}


@pytest.mark.parametrize("style", WEIGHT_STYLES)
@pytest.mark.parametrize("m", (1, 2, 3))
def test_campaign_equals_a_loop_over_evaluate_bound(style, m):
    configs = [
        CampaignConfig(source="biregular", n_max=5, bounds=BOUND_NAMES, weights=style, m=m,
                       cap=4, allow_zero=m != 2, trials=3, seed=10 * m),
        CampaignConfig(source="general", n_max=4, bounds=("conj1", "thm3", "conj2", "indconj"),
                       weights=style, m=m, cap=3 + m, allow_zero=m == 2, trials=3, seed=m,
                       budget=(10 ** 8, 4, 8)[m - 1]),
    ]
    for cfg in configs:
        doc = run_campaign(cfg).to_json_dict()
        doc.pop("runtime_seconds")
        assert doc == _campaign_by_lone_evaluations(cfg)


def test_campaign_in_trial_chunks_keeps_its_report(monkeypatch):
    import spinz.bounds as bounds_mod
    import spinz.harness as harness_mod

    cfg = CampaignConfig(source="general", n_max=4, bounds=("conj1", "ind", "thm4", "thm3"),
                         weights="uniform_edge", m=2, cap=3, allow_zero=True, trials=5, seed=6)
    want = _campaign_by_lone_evaluations(cfg)
    sizes = []
    real = bounds_mod.evaluate_trials

    def spy(name, g, trials, budget):
        sizes.append(len(trials))
        return real(name, g, trials, budget)

    monkeypatch.setattr(harness_mod, "_TRIAL_CHUNK", 2)
    monkeypatch.setattr(harness_mod, "evaluate_trials", spy)
    doc = run_campaign(cfg).to_json_dict()
    doc.pop("runtime_seconds")
    assert doc == want
    assert max(sizes) == 2 and sizes.count(1) > 0  # chunks of 2, 2 and 1; ind once per graph
    assert sum(sizes) == doc["graphs"] * (3 * cfg.trials + 1)


def _lone(name, g, trial, budget):
    try:
        return evaluate_bound(name, g, budget=budget, **trial).to_json_dict()
    except ValueError as exc:
        return str(exc)


def test_a_failing_batch_gives_each_trial_its_lone_outcome():
    # budget 3 is below conj1's and thm3's plans on most graphs; cap 1 with
    # zeros gives per-edge tables that differ in some trials only
    configs = [
        CampaignConfig(source="general", n_max=4, bounds=("conj1", "thm3"), weights="uniform_edge",
                       m=3, trials=4, seed=1, budget=3),
        CampaignConfig(source="general", n_max=4, bounds=("conj1",), weights="general", m=1, cap=1,
                       allow_zero=True, trials=6, seed=3),
    ]
    seen = set()
    for cfg in configs:
        for gi, g in enumerate(enumerate_graphs(cfg.n_max, "all", connected_only=True)):
            outcomes = list(_evaluate_graph(cfg, g, gi))
            assert [(name, si) for name, si, *_ in outcomes] == [
                (name, si) for name in cfg.bounds for si in range(cfg.trials)
            ]
            for name, si, outcome, trial in outcomes:
                got = outcome if isinstance(outcome, str) else outcome.to_json_dict()
                assert got == _lone(name, g, trial, cfg.budget)
                seen.add(got.split(";")[0] if isinstance(got, str) else "report")
            trials = [trial for *_, trial in outcomes[: cfg.trials]]
            lone = [_lone("conj1", g, trial, cfg.budget) for trial in trials]
            if any(isinstance(x, str) for x in lone):
                with pytest.raises(ValueError):
                    evaluate_trials("conj1", g, trials, cfg.budget)
    assert "report" in seen
    assert any(x.startswith("enumeration cost") for x in seen)
    assert any("per-edge weight tables differ" in x for x in seen)


P4_NEAR_TIE = Fraction(1080616349161203, 10 ** 15)  # within 1e-15 of the conj1 threshold


def test_equalities_count_exact_ties_not_zero_slack():
    g = path_graph(4)
    weights = make_hardcore(g, {0: P4_NEAR_TIE, 1: 1, 2: 1, 3: P4_NEAR_TIE})
    near = evaluate_bound("conj1", g, weights=weights)
    assert near.verdict is Verdict.VIOLATED and near.log_slack == 0.0  # the float slack rounds to 0
    assert "cmp" not in near.to_json_dict()
    agg = BoundAggregate()
    agg.add(0, 0, near, lambda: {"sample": 0})
    assert (agg.equalities, len(agg.violations), agg.min_witness) == (0, 1, {"sample": 0})
    c4 = cycle_graph(4)  # K_{2,2} is its own edge restriction: an exact tie
    tie = evaluate_bound("conj1", c4, weights=make_hardcore(c4, 1))
    agg.add(1, 0, tie, lambda: {"sample": 1})
    assert (agg.instances, agg.holds, agg.equalities, len(agg.violations)) == (2, 1, 1, 1)
