"""What a campaign writes: the file layout, pinned bytes, stale witnesses
of an earlier run, and an independent check of every witness.

Two small seeded campaigns run through ``spinz search``: CI's conj1
campaign (hard-core activities) and a conj2 campaign whose witnesses
carry target and list texts.  The digests are SHA-256 of each written
file, report.json with its ``runtime_seconds`` line removed.  A change
that moves one must say which and why.  Print the current digests with

    PYTHONPATH=src python tests/test_campaign_outputs.py
"""

import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest

from oracles import complete_graph, path_graph, witness_verdict
from spinz.cli import main
from spinz.counting import ListAssignment
from spinz.graphs import complete_bipartite
from spinz.harness import recheck_witness
from spinz.weights import make_hardcore

CAMPAIGNS = {
    "conj1": "source = general\nn_max = 4\nbounds = conj1\nweights = hardcore\ncap = 6\n"
    "trials = 10\nseed = 2\n",
    "conj2": "source = general\nn_max = 5\nbounds = conj2\nweights = general\n"
    "trials = 20\nseed = 3\n",
}


def search(config: str) -> str:
    """Run ``spinz search`` on config with out = run, in the working
    directory; its standard output."""
    Path("campaign.cfg").write_text(config + "out = run\n")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["search", "campaign.cfg"]) == 0
    return stdout.getvalue()


def written(out: Path) -> dict:
    """Every file under out (relative path) -> its digest."""
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "report.json":
            data = re.sub(rb'\n  "runtime_seconds": [^\n]*', b"", data)
        digests[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


DIGESTS = {
    "conj1": {
        "report.json": "6ee1fe90d206a9d2388bca3a1c3a160d58c7be6b5351f37c2691af4ec66d295c",
        "summary.txt": "99ffad5c0bfd9a7873d6d48a00a2dbb255276a489ae8fcf4fbbafde0be458a89",
        "violations/conj1_000.json": "5517eada4854a8579872ad8916421f75fb5bce88e8a6593dc90c2283e2d1b5bf",
        "violations/conj1_001.json": "798a34e06dc54293634722deae3c9836e0d5dea6c05659060a044f7aee0e542d",
        "violations/conj1_002.json": "819791359cb75b52df021c97036a46233d24fc59737811262278a9820151fff9",
        "violations/conj1_003.json": "053b5eea54ff2d3a6d6b8dacd84d4754fe1b4aff871e6eae2b24172765b17629",
        "violations/conj1_004.json": "e655137126d1a0ac7aba900a8c25445a53c6b6cb4e27e51e3119a7f838aa3e7d",
        "violations/conj1_005.json": "672071e7e1aed36930da1a7a806aab02e201bdcf02355592f35edf143a16519e",
        "violations/conj1_006.json": "7fc6c723a009a3ef2e0f5c3e940e43ba65bc063b7e6da4a5919977ed8788365c",
        "violations/conj1_007.json": "9eeb1e8d8e0658c7d96a1ada14f798c4827d87b7e3dc27848587a5cc09d86ac5",
        "violations/conj1_008.json": "46afd245b728edfc14ac05c2f1ebb657dd43876b8abbe7f316f7dc344af4e8ca",
        "violations/conj1_009.json": "31bf7849b21a64ca8c43abbaaebddf0ffb08b07ccfe6a959ec28dd468bfc74af",
        "violations/conj1_010.json": "9b04a5416f338407789f87c169b8884148fbacc775ae9432e1b2f5dba26c8985",
        "violations/conj1_011.json": "ddb8e6a5119a8a360d3e00b72a7d7f465ee78f31406749395962de4d5caedad9",
        "violations/conj1_012.json": "649bab2e5aa8b57182511bc22526bd80947546bfaa198a07227780dd07b1b8d5",
        "violations/conj1_013.json": "66654819ff2b61da048e2680dda2243ed9b0709c8c039f9449f0c4b423701bb6",
        "violations/conj1_014.json": "6b1875724e2861fab0f483eb48f35f7db827df2ba7e190b777cc44643330d46e",
    },
    "conj2": {
        "report.json": "877213f12ff6df4900b9b83592fa1a73b3c631bf5a4e021a8765dcf271c77fa3",
        "summary.txt": "477cc03d508c446fabfe5d879649ed980c4614e215f7b0d4d39a205a7f380a3b",
        "violations/conj2_000.json": "e8914ca1b8f42f9b28522264a4b4afb52bfe4380d5a146411b52a8e56f78ac0d",
        "violations/conj2_001.json": "ab90e5c798a4728ff972c45073e0d80e30f811a30a2484e64a601da2915828d2",
        "violations/conj2_002.json": "eb76324534e2e8aa8f7872afaee5bba180d5760caa51b4871503d4241a2dda58",
        "violations/conj2_003.json": "62c733363fe2a465acd2c62068a42fb9dee07f8118926c117a4806231de4e1f4",
        "violations/conj2_004.json": "f421cdd180d9308b702e94408cff7b0d2fb39323e011fdf4b1853eaac8e481f1",
        "violations/conj2_005.json": "023f94a649891545fe45aa716af5ff9985f49c0f8a9e8e140f3c7520027027fd",
        "violations/conj2_006.json": "c2872a105e20963bc4bfd576cbcd9f7827b1e84936acce9a5e11ed1fd9d58418",
    },
}


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_writes_one_json_per_witness_with_pinned_bytes(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    stdout = search(CAMPAIGNS[name])
    count = len(json.loads(stdout)["bounds"][name]["violations"])
    digests = written(tmp_path / "run")
    witnesses = [f"violations/{name}_{k:03d}.json" for k in range(count)]
    assert sorted(digests) == sorted(["report.json", "summary.txt", *witnesses])
    assert (tmp_path / "run" / "report.json").read_text() == stdout
    assert digests == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_the_independent_checker_finds_every_witness_violated(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    search(CAMPAIGNS[name])
    paths = sorted((tmp_path / "run" / "violations").iterdir())
    assert paths
    for path in paths:
        assert witness_verdict(json.loads(path.read_text())) == "VIOLATED", path.name


def test_the_independent_checker_holds_on_equalities_and_finds_the_headline_witness():
    # K_{3,3} is the restriction at each of its edges, so hard-core at
    # activity 1 (conj1) and maps into K_3 with full lists (conj2) are
    # equalities; the 4-path with activities (2, 1, 1, 2) is the smallest
    # conj1 counterexample
    k33, k3, p4 = complete_bipartite(3, 3), complete_graph(3), path_graph(4)
    hardcore = make_hardcore(k33, 1).to_text()
    full = ListAssignment.full(k33, k3).to_text()
    headline = make_hardcore(p4, {0: 2, 1: 1, 2: 1, 3: 2}).to_text()
    cases = [
        ({"bound": "conj1", "graph": k33.to_text(), "weights": hardcore}, "HOLDS"),
        ({"bound": "conj2", "graph": k33.to_text(), "target": k3.to_text(), "lists": full}, "HOLDS"),
        ({"bound": "conj1", "graph": p4.to_text(), "weights": headline}, "VIOLATED"),
    ]
    for payload, verdict in cases:
        assert witness_verdict(payload) == verdict
        assert recheck_witness(payload).verdict.value == verdict


def test_a_rerun_replaces_the_witness_files_of_the_last_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    search(CAMPAIGNS["conj1"])
    vdir = tmp_path / "run" / "violations"
    assert len(list(vdir.iterdir())) == 15
    # instance copies beside a witness, as earlier versions wrote them,
    # and files that are not witnesses
    stale = ["conj1_000.graph", "conj1_000.weights", "conj2_017.target", "conj2_017.lists",
             "thm3_1234.json"]
    kept = ["notes.txt", "conj1_x.json", "conj1_001.json.bak", "mine.graph", "other_000.json"]
    for file in stale + kept:
        (vdir / file).write_text("x\n")
    search(CAMPAIGNS["conj1"].replace("trials = 10", "trials = 2"))
    witnesses = [f"conj1_{k:03d}.json" for k in range(3)]
    assert sorted(p.name for p in vdir.iterdir()) == sorted(kept + witnesses)
    # a run with no violations still removes the last run's witnesses
    stdout = search(CAMPAIGNS["conj1"].replace("conj1", "indconj"))
    assert json.loads(stdout)["bounds"]["indconj"]["violations"] == []
    assert sorted(p.name for p in vdir.iterdir()) == sorted(kept)


if __name__ == "__main__":
    for name in sorted(CAMPAIGNS):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            search(CAMPAIGNS[name])
            print(f'    "{name}": {{')
            for file, digest in written(Path("run")).items():
                print(f'        "{file}": "{digest}",')
            print("    },")
