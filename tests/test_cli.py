import importlib
import json
import math
import re
from pathlib import Path

import pytest

from spinz.cli import main
from spinz.counting import ListAssignment
from spinz.graphs import complete_bipartite, cycle_graph, complete_graph, parse_graph
from spinz.harness import CampaignConfig, recheck_witness, run_campaign


@pytest.fixture()
def files(tmp_path):
    paths = {}
    paths["c4"] = tmp_path / "c4.graph"
    paths["c4"].write_text(cycle_graph(4).to_text())
    paths["c6"] = tmp_path / "c6.graph"
    paths["c6"].write_text(cycle_graph(6).to_text())
    paths["k23"] = tmp_path / "k23.graph"
    paths["k23"].write_text(complete_bipartite(2, 3).to_text())
    paths["k3"] = tmp_path / "k3.graph"
    paths["k3"].write_text(complete_graph(3).to_text())
    paths["uniform"] = tmp_path / "uniform.weights"
    paths["uniform"].write_text("m 2\n")
    hc = ["m 2"]
    hc += [f"ew {u} {v} 1 1 0" for u, v in cycle_graph(4).edges]
    paths["hc4"] = tmp_path / "hc4.weights"
    paths["hc4"].write_text("\n".join(hc) + "\n")
    half = ["m 2"]
    for u, v in cycle_graph(4).edges:
        half += [f"ew {u} {v} 1 1 1/2", f"ew {u} {v} 1 2 1/2", f"ew {u} {v} 2 2 1/2"]
    paths["half4"] = tmp_path / "half4.weights"
    paths["half4"].write_text("\n".join(half) + "\n")
    paths["tmp"] = tmp_path
    return paths


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_compute_uniform_counts_configurations(capsys, files):
    code, doc = run_cli(capsys, "compute", files["c4"], files["uniform"])
    assert code == 0
    assert doc["z"] == {"num": "16", "den": "1"}
    assert doc["backend"] == "exact"


def test_compute_hardcore(capsys, files):
    code, doc = run_cli(capsys, "compute", files["c4"], files["hc4"])
    assert code == 0
    assert doc["z"]["num"] == "7"
    assert doc["log_z"] == pytest.approx(math.log(7), rel=1e-12)


def test_compute_log_backend(capsys, files):
    code, doc = run_cli(capsys, "compute", files["c4"], files["hc4"], "--backend", "log")
    assert code == 0
    assert doc["backend"] == "log"
    assert "z" not in doc
    assert doc["log_z"] == pytest.approx(math.log(7), rel=1e-9)


def test_backend_is_exact_or_log_and_only_where_weights_are_read(capsys, files):
    for argv in (
        ["compute", files["c4"], files["hc4"], "--backend", "auto"],
        ["listhom", files["c4"], files["k3"], "--backend", "log"],
        ["ising", files["c4"], "--beta", "0.5", "--backend", "exact"],
    ):
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in argv])
        assert exc.value.code == 2
    assert "--backend" in capsys.readouterr().err


def test_seed_flag_only_on_blowup(capsys, files):
    cfg = files["tmp"] / "campaign.cfg"
    cfg.write_text("source = biregular\nn_max = 4\nbounds = thm3\ntrials = 1\n")
    for argv in (
        ["compute", files["c4"], files["hc4"]],
        ["bound", "ind", files["c6"]],
        ["listhom", files["c4"], files["k3"]],
        ["ising", files["c4"], "--beta", "0.5"],
        ["search", cfg],  # a campaign's seed is in its config file
    ):
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in [*argv, "--seed", "1"]])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


def test_budget_flag_not_on_search(capsys, files):
    cfg = files["tmp"] / "campaign.cfg"
    cfg.write_text("source = biregular\nn_max = 4\nbounds = thm3\ntrials = 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["search", str(cfg), "--budget", "5"])  # a campaign's budget is in its config file
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget 5" in capsys.readouterr().err


def test_malformed_input_line_exits_2_naming_the_line(capsys, files):
    bad = files["tmp"] / "bad.graph"
    bad.write_text("p 2 1\ne 0 x\n")
    assert main(["compute", str(bad), str(files["uniform"])]) == 2
    assert capsys.readouterr().err == "error: line 2: edge endpoints must be integers\n"


def test_threads_flag_is_rejected_by_every_subcommand(capsys, files):
    cfg = files["tmp"] / "campaign.cfg"
    cfg.write_text("source = biregular\nn_max = 4\nbounds = thm3\ntrials = 1\n")
    commands = [
        ["compute", files["c4"], files["uniform"]],
        ["bound", "ind", files["c6"]],
        ["listhom", files["c6"], files["k3"]],
        ["ising", files["c4"], "--beta", "0.5"],
        ["blowup", files["c4"], files["half4"], "--scale", "2", "--trials", "2"],
        ["search", cfg],
    ]
    for argv in commands:
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in argv] + ["--threads", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err  # the command's own parser reports the flag
        assert err.startswith(f"usage: spinz {argv[0]} ")
        assert f"spinz {argv[0]}: error: unrecognized arguments: --threads 2" in err
        with pytest.raises(SystemExit):
            main([argv[0], "--help"])
        assert "--threads" not in capsys.readouterr().out


def test_compute_missing_file_exits_2(capsys, files):
    missing = files["tmp"] / "nope.weights"
    code = main(["compute", str(files["c4"]), str(missing)])
    err = capsys.readouterr().err
    assert code == 2
    assert str(missing) in err


def test_bound_thm3_holds(capsys, files):
    code, doc = run_cli(
        capsys, "bound", "thm3", files["k23"], "--weights", files["uniform"]
    )
    assert code == 0
    assert doc["verdict"] == "HOLDS"
    assert doc["log_slack"] >= 0


def test_bound_thm3_and_thm4_are_tight_on_k33(capsys, files):
    # K_{3,3} is its own restriction around every vertex: hard-core at
    # lambda = 1 gives 15 = 15^(3/3), and hom(K_{3,3}, K_3) likewise
    g = complete_bipartite(3, 3)
    k33, hc = files["tmp"] / "k33.graph", files["tmp"] / "hc33.weights"
    k33.write_text(g.to_text())
    hc.write_text("m 2\n" + "".join(f"ew {u} {v} 1 1 0\n" for u, v in g.edges))
    for argv in (("thm3", k33, "--weights", hc), ("thm4", k33, "--target", files["k3"])):
        code, doc = run_cli(capsys, "bound", *argv)
        assert code == 0
        assert doc["verdict"] == "HOLDS"
        assert doc["log_slack"] == 0.0
        if argv[0] == "thm3":
            assert doc["lhs"] == {"num": "15", "den": "1"}


def test_bound_ind_c6_numbers(capsys, files):
    code, doc = run_cli(capsys, "bound", "ind", files["c6"])
    assert code == 0
    assert doc["lhs"]["num"] == "18"
    assert doc["rhs_log"] == pytest.approx(1.5 * math.log(7), rel=1e-9)


def test_bound_on_non_bipartite_exits_2(capsys, files):
    code = main(["bound", "thm3", str(files["k3"]), "--weights", str(files["uniform"])])
    assert code == 2
    assert "bipartite" in capsys.readouterr().err


def test_bound_violated_exit_code(capsys, files):
    p4 = files["tmp"] / "p4.graph"
    p4.write_text("p 4 3\ne 0 1\ne 1 2\ne 2 3\n")
    wfile = files["tmp"] / "p4.weights"
    lines = ["m 2", "vw 0 1 2", "vw 3 1 2"]
    lines += [f"ew {u} {v} 1 1 0" for u, v in [(0, 1), (1, 2), (2, 3)]]
    wfile.write_text("\n".join(lines) + "\n")
    code, doc = run_cli(capsys, "bound", "conj1", p4, "--weights", wfile)
    assert code == 3
    assert doc["verdict"] == "VIOLATED"


def test_bound_inconclusive_exit_code_on_log_backend(capsys, files):
    # the same falsifying instance in the log backend cannot certify a
    # violation, so it reports INCONCLUSIVE with exit status 4
    p4 = files["tmp"] / "p4b.graph"
    p4.write_text("p 4 3\ne 0 1\ne 1 2\ne 2 3\n")
    wfile = files["tmp"] / "p4b.weights"
    lines = ["m 2", "vw 0 1 2", "vw 3 1 2"]
    lines += [f"ew {u} {v} 1 1 0" for u, v in [(0, 1), (1, 2), (2, 3)]]
    wfile.write_text("\n".join(lines) + "\n")
    code, doc = run_cli(
        capsys, "bound", "conj1", p4, "--weights", wfile, "--backend", "log"
    )
    assert code == 4
    assert doc["verdict"] == "INCONCLUSIVE"
    assert doc["backend"] == "log"


def test_bound_thm5_with_families(capsys, files):
    fam = files["tmp"] / "fam.families"
    fam.write_text("t 2 1\nA 0 2\nB 1\nA 0 2\nB 3\n")
    code, doc = run_cli(
        capsys, "bound", "thm5", files["c4"], "--target", files["k3"], "--families", fam
    )
    assert code == 0
    assert doc["verdict"] == "HOLDS"
    # that is C4's neighbourhood family, the default; a one-pair family differs
    assert run_cli(capsys, "bound", "thm5", files["c4"], "--target", files["k3"]) == (code, doc)
    fam.write_text("t 1 1\nA 0 2\nB 1 3\n")
    code, other = run_cli(
        capsys, "bound", "thm5", files["c4"], "--target", files["k3"], "--families", fam
    )
    assert code == 0
    assert other["rhs_factors"] != doc["rhs_factors"]


def test_thm5_witness_rechecks_from_its_files(capsys, files):
    # campaigns evaluate thm5 with the neighbourhood family and write no
    # families file, so --families defaults to that family
    cfg = CampaignConfig(source="biregular", n_max=6, bounds=("thm5",), trials=3, seed=8)
    payload = run_campaign(cfg).per_bound["thm5"].min_witness
    g, h = parse_graph(payload["graph"]), parse_graph(payload["target"])
    assert payload["lists"] != ListAssignment.full(g, h).to_text()
    for kind in ("graph", "target", "lists"):
        (files["tmp"] / f"w.{kind}").write_text(payload[kind])
    code, doc = run_cli(
        capsys, "bound", "thm5", files["tmp"] / "w.graph",
        "--target", files["tmp"] / "w.target", "--lists", files["tmp"] / "w.lists",
    )
    assert code == 0
    assert doc == recheck_witness(payload).to_json_dict()


def test_bound_names_the_missing_input(capsys, files):
    for name, flag in (("thm3", "--weights"), ("conj1", "--weights"), ("thm4", "--target"),
                       ("thm5", "--target"), ("conj2", "--target")):
        assert main(["bound", name, str(files["c4"])]) == 2
        assert capsys.readouterr().err == f"error: bound {name} needs {flag}\n"


_READS = {
    "thm3": {"--weights", "--backend log"},
    "conj1": {"--weights", "--backend log"},
    "thm4": {"--target", "--lists"},
    "conj2": {"--target", "--lists"},
    "thm5": {"--target", "--lists", "--families"},
    "ind": set(),
    "indconj": set(),
}


@pytest.mark.parametrize("name", sorted(_READS))
def test_bound_rejects_every_flag_it_does_not_read(capsys, files, name):
    lists, fam = files["tmp"] / "c4.lists", files["tmp"] / "c4.families"
    lists.write_text("l 0 0 1\n")
    fam.write_text("t 1 1\nA 0\nB 1 3\nA 2\nB 1 3\n")
    flags = {"--weights": ["--weights", files["uniform"]], "--target": ["--target", files["k3"]],
             "--lists": ["--lists", lists], "--families": ["--families", fam],
             "--backend log": ["--backend", "log"]}
    needed = [x for flag in sorted(_READS[name] & {"--weights", "--target"}) for x in flags[flag]]
    assert run_cli(capsys, "bound", name, files["c4"], *needed)[0] == 0
    for flag in sorted(set(flags) - _READS[name]):
        assert main([str(x) for x in ("bound", name, files["c4"], *needed, *flags[flag])]) == 2
        assert capsys.readouterr() == ("", f"error: bound {name} does not read {flag}\n")


def test_search_rejects_a_malformed_config(capsys, files):
    cfg = files["tmp"] / "bad.cfg"
    for text in ("connected = ture\n", "n_max = x\n", "seed = 1\nseed = 2\n"):
        cfg.write_text(text)
        assert main(["search", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: line ")


@pytest.mark.parametrize(
    "source, pins, err",
    [
        ("general", "a = 2\nb = 2\n", "source general takes no degree pins (a, b given)"),
        ("bipartite", "max_degree = 3\n", "source bipartite takes no degree pins (max_degree given)"),
        ("files", "max_degree = 3\n", "source files takes no degree pins (max_degree given)"),
    ],
)
def test_search_with_degree_pins_outside_biregular_exits_before_enumerating(
    capsys, monkeypatch, files, source, pins, err
):
    from spinz import harness

    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated a campaign whose config is invalid")

    monkeypatch.setattr(harness, "enumerate_graphs", no_enumeration)
    monkeypatch.setattr(harness, "parse_graph", no_enumeration)
    cfg = files["tmp"] / "pins.cfg"
    extra = f"files = {files['c4']}\n" if source == "files" else ""
    cfg.write_text(f"source = {source}\n{extra}n_max = 4\nbounds = conj1\n{pins}")
    assert main(["search", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {err}: they apply to biregular only\n"


def test_search_rejects_cap_below_one(capsys, files):
    cfg = files["tmp"] / "cap.cfg"
    cfg.write_text("source = general\nn_max = 3\nbounds = conj1\ncap = 0\n")
    assert main(["search", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: cap must be >= 1, got 0\n"


def test_listhom_counts(capsys, files):
    code, doc = run_cli(capsys, "listhom", files["c6"], files["k3"])
    assert code == 0
    assert doc["count"] == 66


def test_listhom_with_lists_file(capsys, files):
    lists = files["tmp"] / "lists.lists"
    lists.write_text("l 0 0\nl 1 1 2\n")
    code, doc = run_cli(capsys, "listhom", files["c6"], files["k3"], "--lists", lists)
    assert code == 0
    assert 0 < doc["count"] < 66


def test_ising_past_the_float_range(capsys, files):
    # every edge table spans 800 nats at beta = 400
    path = files["tmp"] / "c30.graph"
    path.write_text(cycle_graph(30).to_text())
    code, doc = run_cli(capsys, "ising", path, "--beta", "400")
    assert code == 0
    want = 30 * math.log(2 * math.cosh(400.0)) + math.log1p((-math.tanh(400.0)) ** 30)
    assert doc["log_z"] == pytest.approx(want, rel=1e-12)


def test_ising_beta_must_be_finite(capsys, files):
    for beta in ("nan", "inf"):
        assert main(["ising", str(files["c4"]), "--beta", beta]) == 2
        assert capsys.readouterr().err == "error: beta and h must be finite\n"


def test_ising_report(capsys, files):
    code, doc = run_cli(capsys, "ising", files["c4"], "--beta", "1.0")
    assert code == 0
    assert doc["in_bounds"] is True
    assert doc["free_energy"] == pytest.approx(
        math.log(16 * (math.cosh(1) ** 4 + math.sinh(1) ** 4)) / 4, rel=1e-9
    )


def test_blowup_trivial_variance(capsys, files):
    code, doc = run_cli(
        capsys, "blowup", files["c4"], files["uniform"], "--scale", "1",
        "--trials", "3", "--seed", "0",
    )
    assert code == 0
    assert doc["emp_var"] == 0.0
    assert doc["emp_mean"] == 1.0


def test_blowup_writes_samples(capsys, files):
    out = files["tmp"] / "samples.txt"
    code, doc = run_cli(
        capsys, "blowup", files["c4"], files["half4"], "--scale", "4",
        "--trials", "5", "--seed", "3", "--samples-out", out,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert all(line.isdigit() for line in lines)
    assert doc["samples_path"] == str(out)


def test_blowup_spins_flag(capsys, files):
    argv = ["blowup", files["c4"], files["half4"], "--scale", "2", "--trials", "2", "--spins"]
    code, doc = run_cli(capsys, *argv, "2,1,2,1")
    assert code == 0
    assert doc["config"] == [2, 1, 2, 1]
    assert doc["mu"] == {"num": "1", "den": "1"}  # C^4 * (1/2)^4
    for spins, message in (
        ("1,x", "--spins takes comma-separated integers, got '1,x'"),
        ("1,2,1", "configuration has 3 entries for 4 vertices"),
    ):
        assert main([str(a) for a in argv] + [spins]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_search_campaign(capsys, files):
    cfg = files["tmp"] / "campaign.cfg"
    cfg.write_text(
        "source = biregular\nn_max = 6\nmax_degree = 2\nbounds = thm3\n"
        "trials = 3\nseed = 1\n"
    )
    code, doc = run_cli(capsys, "search", cfg)
    assert code == 0
    assert doc["bounds"]["thm3"]["violations"] == []
    assert doc["bounds"]["thm3"]["instances"] == doc["graphs"] * 3


def test_out_flag_writes_file_instead_of_stdout(capsys, files):
    target = files["tmp"] / "report.json"
    code = main(
        ["compute", str(files["c4"]), str(files["uniform"]), "--out", str(target)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["z"]["num"] == "16"


def _canonical(capsys, argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    doc = json.loads(out)
    doc.pop("runtime_seconds", None)
    return code, json.dumps(doc, sort_keys=True)


def test_every_subcommand_is_deterministic(capsys, files):
    cfg = files["tmp"] / "campaign.cfg"
    cfg.write_text(
        "source = biregular\nn_max = 4\nbounds = thm3\ntrials = 2\nseed = 5\n"
    )
    commands = [
        ["compute", files["c4"], files["uniform"]],
        ["bound", "ind", files["c6"]],
        ["listhom", files["c6"], files["k3"]],
        ["ising", files["c4"], "--beta", "0.5"],
        ["blowup", files["c4"], files["half4"], "--scale", "2", "--trials", "4", "--seed", "9"],
        ["search", cfg],
    ]
    for argv in commands:
        code1, doc1 = _canonical(capsys, argv)
        code2, doc2 = _canonical(capsys, argv)
        assert code1 == code2 == 0
        assert doc1 == doc2


def test_console_script_entry_point_runs(capsys):
    # the callable pyproject.toml installs as `spinz` (read with a regex:
    # Python 3.10 has no tomllib) imports and answers --help
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    module, func = re.search(r'^spinz\s*=\s*"([\w.]+):(\w+)"', scripts, re.M).groups()
    entry = getattr(importlib.import_module(module), func)
    with pytest.raises(SystemExit) as exc:
        entry(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: spinz ")
