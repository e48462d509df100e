"""Pinned exit codes and output digests for every CLI subcommand.

Each case runs ``spinz.cli.main`` in-process, in a temporary directory
holding the input files ``write_inputs`` makes, and records the exit
code, the SHA-256 of stdout and that of stderr.  ``runtime_seconds`` is
zeroed first.  The floats of a case marked ``rounded`` (the LOG backend,
the Ising check and the blow-up statistics) are rounded to 12
significant digits, as in ``test_golden_bounds``; every other stdout is
hashed byte for byte.  The cases and the tests below make every CLI
check in-process; CI's console-script step keeps only what needs the
installed entry point.  A change that moves a digest must say which and
why.  Print the current digests with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

from oracles import path_graph
from spinz.cli import main
from spinz.graphs import complete_bipartite, cycle_graph, hypercube_graph

C4 = "p 4 4\ne 0 1\ne 0 3\ne 1 2\ne 2 3\n"
K3 = "p 3 3\ne 0 1\ne 0 2\ne 1 2\n"
K33 = complete_bipartite(3, 3)
# a conj1 campaign with violations, as in CI
CONJ1_CFG = "source = general\nn_max = 4\nbounds = conj1\nweights = hardcore\ncap = 6\ntrials = 10\nseed = 2\nout = run\n"


def write_inputs(root: Path) -> None:
    files = {
        "c4.graph": C4,
        "k3.graph": K3,
        # P_3 with its centre on the highest id
        "p3.graph": "p 3 2\ne 0 2\ne 1 2\n",
        "k2.graph": "p 2 1\ne 0 1\n",
        "k33.graph": K33.to_text(),
        # hard-core at lambda = 1 on K_{3,3}: 15 independent sets
        "hc33.weights": "m 2\n" + "".join(f"ew {u} {v} 1 1 0\n" for u, v in K33.edges),
        "c30.graph": cycle_graph(30).to_text(),
        "q3.graph": hypercube_graph(3).to_text(),
        "p4.graph": path_graph(4).to_text(),
        # the headline conj1 counterexample: hard-core P_4, activities 2, 1, 1, 2
        "p4.weights": "m 2\nvw 0 1 2\nvw 3 1 2\n" + "".join(
            f"ew {i} {i + 1} 1 1 0\n" for i in range(3)),
        "c4.weights": "m 3\nvw 0 1 1/2\nvw 1 2 3\nvw 2 3 2/3\new 0 1 1 2 5/4\new 2 3 2 3 0\n",
        "half.weights": "m 2\n" + "".join(
            f"ew {u} {v} {i} {j} 1/2\n" for u, v in ((0, 1), (0, 3), (1, 2), (2, 3))
            for i, j in ((1, 1), (1, 2), (2, 2))),
        "c4k3.lists": "l 0 0 1\nl 2 1 2\n",
        "c4.families": "t 1 1\nA 0\nB 1 3\nA 2\nB 1 3\n",
        "conj1.cfg": CONJ1_CFG,
        "bad.graph": "p 2 1\ne 0 x\n",
        "uniform.weights": "m 2\n",
    }
    for name, text in files.items():
        (root / name).write_text(text)


# name -> (argv, rounded)
CASES = {
    "compute-exact": ("compute c4.graph c4.weights", False),
    "compute-exact-k33": ("compute k33.graph hc33.weights", False),
    "compute-log": ("compute c4.graph c4.weights --backend log", True),
    "compute-budget": ("compute c4.graph c4.weights --budget 2", False),
    "bound-thm3-k33": ("bound thm3 k33.graph --weights hc33.weights", False),
    "bound-thm3-k33-log": ("bound thm3 k33.graph --weights hc33.weights --backend log", True),
    "bound-thm4-k33": ("bound thm4 k33.graph --target k3.graph", False),
    "bound-thm5-k33": ("bound thm5 k33.graph --target k3.graph", False),
    "bound-thm5-p3": ("bound thm5 p3.graph --target k2.graph", False),
    "bound-thm5-families": (
        "bound thm5 c4.graph --target k3.graph --lists c4k3.lists --families c4.families", False),
    "bound-conj2-k33": ("bound conj2 k33.graph --target k3.graph", False),
    "bound-conj1-k33-log": ("bound conj1 k33.graph --weights hc33.weights --backend log", True),
    "bound-conj1-headline": ("bound conj1 p4.graph --weights p4.weights", False),
    "bound-conj1-headline-log": ("bound conj1 p4.graph --weights p4.weights --backend log", True),
    "bound-ind-q3": ("bound ind q3.graph", False),
    "bound-indconj-p4": ("bound indconj p4.graph", False),
    "bound-missing-weights": ("bound conj1 p4.graph", False),
    # a flag the bound does not read is an input error, named before any file is read
    "bound-thm3-target": ("bound thm3 k33.graph --weights hc33.weights --target k3.graph", False),
    "bound-conj1-families": ("bound conj1 p4.graph --weights p4.weights --families c4.families", False),
    "bound-thm4-weights": ("bound thm4 c4.graph --target k3.graph --weights nothere.w", False),
    "bound-conj2-log": ("bound conj2 k33.graph --target k3.graph --backend log", False),
    "bound-thm4-families": ("bound thm4 c4.graph --target k3.graph --families c4.families", False),
    "bound-ind-lists": ("bound ind q3.graph --lists c4k3.lists", False),
    "bound-indconj-log": ("bound indconj p4.graph --backend log", False),
    "listhom-c4-k3": ("listhom c4.graph k3.graph", False),
    "listhom-c4-k3-lists": ("listhom c4.graph k3.graph --lists c4k3.lists", False),
    "ising-c30": ("ising c30.graph --beta 400", True),
    "blowup-c4": ("blowup c4.graph half.weights --scale 3 --trials 20 --seed 5 "
                  "--samples-out samples.txt", True),
    "search-conj1": ("search conj1.cfg", False),
    "search-budget": ("search conj1.cfg --budget 5", False),
    "malformed-graph": ("compute bad.graph uniform.weights", False),
    "missing-file": ("compute nowhere.graph uniform.weights", False),
}


def run_cli(argv):
    """(exit code, stdout, stderr) of ``spinz.cli.main`` on argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _round(doc):
    if isinstance(doc, float):
        return float(f"{doc:.12g}")
    if isinstance(doc, dict):
        return {k: _round(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_round(v) for v in doc]
    return doc


def stdout_digest(text: str, rounded: bool) -> str:
    text = re.sub(r'("runtime_seconds": )[^,\n]+', r"\g<1>0", text)
    if rounded and text:
        text = json.dumps(_round(json.loads(text)), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(case: str) -> tuple:
    argv, rounded = CASES[case]
    code, out, err = run_cli(argv.split())
    return code, stdout_digest(out, rounded), hashlib.sha256(err.encode()).hexdigest()


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to it; digests are at 80
    write_inputs(tmp_path)
    return tmp_path


GOLDEN = {
    "blowup-c4": (0, 'b584d7c0f614d73f49d63d4304667446d6b29de9062033ba71a2661857989c45', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    "bound-conj1-families": (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '87842f66965f1275f6aa00a69f1d44c7fef22808f828f99b4b077447a6389fa1'),
    "bound-conj1-headline": (3, '058a9ef79603804e2896b1d2ab73ef3e99c2d5221274df872e8f6c57d474746b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    "bound-conj1-headline-log": (4, '244ffb0cdf3542e1d9fcf3a322547521e69782315b47301e44e19d5586e8143a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    "bound-conj1-k33-log": (0, 'b5332a79b4283da0d07493f1aed43ed53e974a28e06968c49c11ae0d5c7fcbc7', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    "bound-conj2-k33": (0, '21c049e922617524458f031cd30c1537ea8f23bc6ae6d9613cd4cae739b3cf36', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    "bound-conj2-log": (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'd8c6d66a3ba25f51d313d94fdea778c092b08b1ab0453c573339ba933b2d5175'),
    "bound-ind-lists": (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '32673c0ab5ea433c75d32d96b6eee01f0809eb23cfae3f1944414c9802015e64'),
    "bound-ind-q3": (0, 'ae51e3416472ade252868ae2a6cb36bca278e39cc58e689f68238d131de0cc45', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    "bound-indconj-log": (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'f5bbfd9fcfedc90aac0976ce83d14c4f520be36081bed2240fb3a5472c1d1247'),
    "bound-indconj-p4": (0, 'afec1d1fc6e6bb054dcf62bdce4dae4cd201bd4be0d3926aac42dd6f65a5fd3b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    "bound-missing-weights": (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'fcb0860ff48319844adaaec890c81b0b4939a850e62683605b3057ef6a788874'),
    "bound-thm3-k33": (0, '0ebbaa2f4a6cd10a7f8f82b629b7ceac16cc362646dce7733895babe9547dc37', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    "bound-thm3-k33-log": (0, '63f54f3f8e3d12439e7ac2ae51e93228229e864d7bd30426d9bb4990a9a8e893', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    "bound-thm3-target": (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'bae4816e537d9fd225f3c5902a89f7090aababe90de91ee1ae8db4e599f53c00'),
    "bound-thm4-families": (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'd6cd957c45e716ff4dd0a250ad658972f6184b5a961c6f56ce22010d57267287'),
    "bound-thm4-k33": (0, 'd6b48060a43ec9b630eff9a3d7b2a0ddb614fcea152d256c16518974319ab7ca', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    "bound-thm4-weights": (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '6699b007949db19a6836a3d60f37033b6fddcdd175003a01364572b0401825d6'),
    "bound-thm5-families": (0, '2af81cf22e202213e687b7cc1be8e05cfddd8e60ae21c2fbaf42a09034a45ad5', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    "bound-thm5-p3": (0, 'd3ce77abeb3ac8187a45e09332744ced56ea77511e62804b8acc9c9c71437db4', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    "bound-thm5-k33": (0, '929bc53b521eb10792d984e0dca57780ac10c2bcb9c4ef0fe89bc3371458856d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    "compute-budget": (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '16d942b75d338eb6ba60f386b346647ba503e459730f9d83a1f4078fd52224d2'),
    "compute-exact": (0, '03ad34495bc63c9047a8c4f232c38c9fc163be210337ad71d1b4095b07d6ad0d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    "compute-exact-k33": (0, 'f9fd42ee3c964df790caccf92e75d515265ec4fa918b8539d99fb06d1f09b6b9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    "compute-log": (0, 'f5cd2cbb6ad93f8f6e9bf6345e7b9b837e1425ad2927cbf75494b01347f09670', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    "ising-c30": (0, '2e5862eea19e8f9e272d26a8b08fae5c3b67594da62cd4ea00ac51dd4943f9cb', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    "listhom-c4-k3": (0, 'e8fb23b8c448e0bd2e9abab35a829bfe6799d9c069df49e45cd98a97d423d8c9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    "listhom-c4-k3-lists": (0, 'fa73020ec944e321e158495ed877918b55de3ff95efa9d011c97e9187745a74e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    "malformed-graph": (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '53ea53b6b716fe328bffd0c9d7ef3a2f3c613d1a39adbbfe19ae0a90e628cc55'),
    "missing-file": (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '634aa8fdc8bba8dbf8e534e7e9a12bb9f1a8ed3fce6785b2fffd3bc7109c2e98'),
    "search-budget": (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '58f9d9d4cd18e705067148f96862343f3e0afd9b782e2b0c917bb018a65d4cd6'),
    "search-conj1": (0, 'af53cbdaaaae5735e9779522f468e3afbb5b5420c023c8f2456d8a23b0226b64', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
}


BLOWUP_SAMPLES = "9dd46064f1c1c499bad13207d4559b1496a1760f0aea40af409b39b0c8b77903"


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_outcome_is_pinned(inputs, case):
    assert outcome(case) == GOLDEN[case]


def test_blowup_samples_file_is_pinned(inputs):
    code, out, _ = run_cli(CASES["blowup-c4"][0].split())
    assert code == 0 and json.loads(out)["samples_path"] == "samples.txt"
    samples = (inputs / "samples.txt").read_text()
    assert len(samples.splitlines()) == 20
    assert hashlib.sha256(samples.encode()).hexdigest() == BLOWUP_SAMPLES


def _report(argv):
    code, out, err = run_cli(argv.split())
    return code, json.loads(out) if out else None, err


def test_k33_bounds_are_equalities(inputs):
    # K_{3,3} is its own restriction around every vertex and on every edge
    docs = [_report(f"bound {name} k33.graph --target k3.graph")[1] for name in ("thm4", "thm5", "conj2")]
    docs.append(_report("bound thm3 k33.graph --weights hc33.weights")[1])
    assert all(d["verdict"] == "HOLDS" and d["log_slack"] == 0.0 for d in docs), docs
    assert docs[1]["lhs"] == docs[2]["lhs"] == {"num": "42", "den": "1"}
    assert docs[3]["lhs"] == {"num": "15", "den": "1"}
    code, log, _ = _report("bound conj1 k33.graph --weights hc33.weights --backend log")
    assert code == 0 and log["verdict"] == "HOLDS" and abs(log["log_slack"]) <= 1e-9


def test_thm5_default_family_on_any_labelling(inputs):
    # the default family's A-sets are the degree-2 class {2}, which holds
    # no component's lowest id; a != b, so the family is thm4's pairs
    code, thm5, err = _report("bound thm5 p3.graph --target k2.graph")
    assert (code, thm5["verdict"], err) == (0, "HOLDS", "")
    assert thm5["rhs_log"] == _report("bound thm4 p3.graph --target k2.graph")[1]["rhs_log"]
    (inputs / "p3.cfg").write_text("source = files\nfiles = p3.graph\nbounds = thm4, thm5\ntrials = 3\n")
    code, doc, _ = _report("search p3.cfg")
    assert code == 0 and doc["graphs"] == 1
    for name in ("thm4", "thm5"):
        assert (doc["bounds"][name]["instances"], doc["bounds"][name]["errors"]) == (3, 0)


def test_listhom_and_ising_values(inputs):
    assert _report("listhom c4.graph k3.graph")[1]["count"] == 18  # 2^4 + 2 proper 3-colourings
    z = _report("ising c30.graph --beta 400")[1]["log_z"]
    want = 12000 + 0.6931471805599453  # 30 * 400 + ln 2
    assert abs(z - want) <= 1e-9 * want


def test_every_campaign_witness_rechecks_as_violated(inputs):
    code, doc, _ = _report("search conj1.cfg")
    n = len(doc["bounds"]["conj1"]["violations"])
    files = sorted((inputs / "run" / "violations").iterdir())
    assert code == 0 and n > 0 and len(files) == n
    assert all(f.suffix == ".json" for f in files)
    for f in files:
        payload = json.loads(f.read_text())
        (inputs / "witness.graph").write_text(payload["graph"])
        (inputs / "witness.weights").write_text(payload["weights"])
        assert run_cli("bound conj1 witness.graph --weights witness.weights".split())[0] == 3, f


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        write_inputs(Path(tmp))
        for case in sorted(CASES):
            print(f'    "{case}": {outcome(case)!r},')
        samples = Path("samples.txt").read_text()
        print(f'BLOWUP_SAMPLES = "{hashlib.sha256(samples.encode()).hexdigest()}"', file=sys.stderr)
