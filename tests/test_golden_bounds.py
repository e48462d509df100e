"""Pinned report digests for seeded instances of every bound.

Each case builds its inputs from fixed seeds and evaluates one bound; its
digest is the SHA-256 of the report's ``to_json_dict`` as sorted JSON.
The float fields of a LOG report are rounded to 12 significant digits
first, so a kernel change may move a LOG value by float rounding but not
by more; EXACT reports are hashed as they are.  The thm3/thm4/thm5
cases cover both class orientations (the a == b graphs), LOG thm3, and
thm5 with t2 not dividing t1; the per-edge cases cover EXACT and LOG
conj1 (among them the headline counterexample, hard-core P_4 with
activities 2, 1, 1, 2), conj2, ind and indconj.  A change that moves a digest must say which and why.
Print the current digests with

    PYTHONPATH=src python tests/test_golden_bounds.py
"""

import hashlib
import json

import pytest

from oracles import path_graph
from spinz.bounds import (
    cover_family_report,
    edge_restriction_bound,
    independent_set_edge_bound,
    independent_set_regular_bound,
    list_edge_restriction_bound,
    list_vertex_restriction_bound,
    neighbourhood_family,
    vertex_restriction_bound,
)
from spinz.counting import CoverFamilyPair
from spinz.graphs import Graph, complete_bipartite, cycle_graph, hypercube_graph
from spinz.harness import sample_list_assignment, sample_target_graph, sample_weights
from spinz.values import Backend
from spinz.weights import make_hardcore

GRAPHS = {
    "c6": cycle_graph(6),
    "k33": complete_bipartite(3, 3),
    "q3": hypercube_graph(3),
    "k23": complete_bipartite(2, 3),
    # a 3-regular bipartite graph on 10 vertices, one of the biregular sweep's
    "cubic10": Graph(10, [(i, 5 + (i + k) % 5) for i in range(5) for k in (0, 1, 3)]),
}
TARGET = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])


def _doubled_family(g):
    """The neighbourhood family twice over with t1 = 2a - 1 and t2 = 2:
    every vertex is covered enough, and t2 does not divide t1."""
    fam = neighbourhood_family(g)
    return CoverFamilyPair(pairs=fam.pairs * 2, t1=2 * fam.t1 - 1, t2=2)


def _cases():
    for name, g in GRAPHS.items():
        seed = g.n * 100 + g.num_edges
        w2 = sample_weights(g, 2, seed=seed, cap=9, allow_zero=True)
        w3 = sample_weights(g, 3, seed=seed + 1, cap=16)
        # the 6-vertex graphs' sampled targets admit list maps; elsewhere a
        # sparse target often admits none, so they take K_4 less an edge
        h = sample_target_graph(4, seed=seed) if g.n == 6 else TARGET
        lists = sample_list_assignment(g, h, seed=seed)
        yield f"{name}-thm3-m2", lambda g=g, w=w2: vertex_restriction_bound(g, w)
        yield f"{name}-thm3-m3", lambda g=g, w=w3: vertex_restriction_bound(g, w)
        yield f"{name}-thm3-log", lambda g=g, w=w3.to_log(): vertex_restriction_bound(g, w)
        yield f"{name}-thm4", lambda g=g, h=h, ls=lists: list_vertex_restriction_bound(g, h, ls)
        yield f"{name}-thm5", lambda g=g, h=h, ls=lists: cover_family_report(
            g, h, ls, neighbourhood_family(g))
        yield f"{name}-thm5-t2", lambda g=g, h=h, ls=lists: cover_family_report(
            g, h, ls, _doubled_family(g))


# per-edge bounds need no bipartition: a path, an odd cycle, a triangle
# with a tail (degrees 1, 2 and 3) and K_{3,3}, where every bound is tight
EDGE_GRAPHS = {
    "p4": path_graph(4),
    "c5": cycle_graph(5),
    "tail6": Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)]),
    "k33": complete_bipartite(3, 3),
}


def _edge_cases():
    for name, g in EDGE_GRAPHS.items():
        seed = g.n * 100 + g.num_edges
        w2 = sample_weights(g, 2, seed=seed, cap=9, allow_zero=True, style="uniform_edge")
        w3 = sample_weights(g, 3, seed=seed + 1, cap=16, style="uniform_edge")
        h = sample_target_graph(4, seed=seed) if g.n == 6 else TARGET
        lists = sample_list_assignment(g, h, seed=seed)
        yield f"{name}-conj1-m2", lambda g=g, w=w2: edge_restriction_bound(g, w)
        yield f"{name}-conj1-m3", lambda g=g, w=w3: edge_restriction_bound(g, w)
        yield f"{name}-conj1-log", lambda g=g, w=w3.to_log(): edge_restriction_bound(g, w)
        yield f"{name}-conj2", lambda g=g, h=h, ls=lists: list_edge_restriction_bound(g, h, ls)
        yield f"{name}-indconj", lambda g=g: independent_set_edge_bound(g)
    p4 = EDGE_GRAPHS["p4"]
    headline = make_hardcore(p4, {0: 2, 1: 1, 2: 1, 3: 2})
    yield "p4-conj1-headline", lambda: edge_restriction_bound(p4, headline)
    yield "p4-conj1-headline-log", lambda: edge_restriction_bound(p4, headline.to_log())
    for name in ("c6", "k33", "q3", "cubic10"):
        yield f"{name}-ind", lambda g=GRAPHS[name]: independent_set_regular_bound(g)


CASES = {**dict(_cases()), **dict(_edge_cases())}


def digest(report) -> str:
    doc = report.to_json_dict()
    if report.backend is Backend.LOG:
        doc = {k: float(f"{v:.12g}") if isinstance(v, float) else v for k, v in doc.items()}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


DIGESTS = {
    "c5-conj1-log": "97f376113429b300ea819e6fed9173de635853009027c8780d937bba50031b54",
    "c5-conj1-m2": "54fce610ec19dd47e094858339d6f5555712bafd29ac2298a7ee44ce4bc0486e",
    "c5-conj1-m3": "9912f20fec7301227eb81cbd53bc9e0ddb296270f87aec2cdc541ba3b8cfca83",
    "c5-conj2": "fda91d02369103de8b12b871668cfa660e42bcba2cb69ffe1cd570d8d55691e8",
    "c5-indconj": "565fb82287bda0c4b9b80b54ee5c110d76d98fd6980eeb0212d054e89a91e21c",
    "c6-ind": "8d7e517af6564f34bbccf5909c3c714645b2f5a656299cc0fd019852963eaadb",
    "c6-thm3-log": "71bf0d2a6565cd301a293bd0f607aa6fb2998ca8a6b6606739ebfa619557f921",
    "c6-thm3-m2": "9fd54934dec3b693a35a640b45c7035b2ff369ac35e59a93ab4e6c0822ac2921",
    "c6-thm3-m3": "244ecd7253ea4e3a2cad739132cba246741d074a3db55856734b363168d2dc68",
    "c6-thm4": "625f03e5d8ab8ab55addf920f90b629d475dca826492b1eb96d6483511991758",
    "c6-thm5": "0950b5bc86194a4d728c78746d06a5130228668f48c1a257350e7d2b1aea9c55",
    "c6-thm5-t2": "3d24a1b9316491b83b1f1787b0d0aed699a258d0bc14c8aa39a3da5e33f1ef91",
    "cubic10-ind": "595c200f1df6043398f3b28ef65475adc1730baae02d1ec513b6b8f93aabe30a",
    "cubic10-thm3-log": "c34bbb5802eb13c2b445d118d57cf8214b2ce624b9380a3fc4a0ed2345cd83da",
    "cubic10-thm3-m2": "392442d263e4aec80d24ce2a69f445a83a0b89f48d7cde246ed364196d783a34",
    "cubic10-thm3-m3": "432f1c1ce103cee48b5b5bec24dac76349ce1d2bebfb54a5ada5221b8cc5827f",
    "cubic10-thm4": "1323985fd34c24aadef53107011d1f70ae66c0fd1e52ac993451d3c8c3206b9f",
    "cubic10-thm5": "821f3260ec72a3562a20e05fbef805560f7d9b4337468c6b0b0fc912d536cd7b",
    "cubic10-thm5-t2": "3db8021d5fa7e87c6fe2c49aaadd3042d8aed7e012508d9e86839d514d9d05a1",
    "k23-thm3-log": "8f6d1e047085588e220d238d1571457968bb9d700da4a1e6a73d2409d5e8916c",
    "k23-thm3-m2": "3eea1a648d4de7c292ce97662f3fdba470a44a9362b3110fa67c5508358d4374",
    "k23-thm3-m3": "0059351bea90a563e7b755f1cbe54d849eb4ef406ceea9be8af31341b86b9724",
    "k23-thm4": "db6a34020105849e133038a71b35858b9766026fc3ddc569ebd29e39ae3f4603",
    "k23-thm5": "d2f952350fb7cabbfa615e5e453edc256835480354e015ff73f38d70be6d77f2",
    "k23-thm5-t2": "665d374337cb7961567c32c4ba8adfe3753af5e63d105c2f160ba6a04bba3742",
    "k33-conj1-log": "fd16e18b5992dcc27911610ab187872f63c103e9175ee6876759c6774a5b25f5",
    "k33-conj1-m2": "49ecc7b85975e45d22c7270f5cc5557644a6d32c18d266427de800dbae01d988",
    "k33-conj1-m3": "dff22160208c5dadb3b373d231fb75544ec0cfbe1b76b209491a9da22fee11af",
    "k33-conj2": "51264849d8dc6531fa9673c64fa848dc2de3642d7b1a48b2bb53b823c4847616",
    "k33-ind": "988e6ceecd9edbcd74805516db19bffb5c9c0103a9591b8e7f3da1234176262c",
    "k33-indconj": "54634596a8676d69167a4fd836a3db16dd6970a2220be16bbe4ed4592583c49e",
    "k33-thm3-log": "b9fbf6650a054dc20057ffd257ee81f6091368ae7275f81c00ed361fdfc663de",
    "k33-thm3-m2": "0cb9360457fca74d4145835c4dbd9e4233e60621dcc56b39bb6c39fc3d53b4f8",
    "k33-thm3-m3": "425ff34e83ce465bb4dbfa55c52a2d8cff11c9eee50692f2dc517b590ec37411",
    "k33-thm4": "dcdd648a259d99da9fba8b5d777c42ab5483e8211bf586ab73b175f3ed9cb305",
    "k33-thm5": "de5d20760d5d04e04c37b171fd9c82df001a8d987f0e0a7158acb8d056114b32",
    "k33-thm5-t2": "8a473485db33c715dc30e3407ccf5d77eb3bb9105b7e94f51b528bbe69b321a6",
    "p4-conj1-headline": "1b76907a7a515ff5a12dfa5bc1a6a6ec8831f97104eda562a097c71a400801a2",
    "p4-conj1-headline-log": "244ffb0cdf3542e1d9fcf3a322547521e69782315b47301e44e19d5586e8143a",
    "p4-conj1-log": "e6f3060bfeef24b38203a4079f898ea1be9c00c1f23aa0e321971d43e99be369",
    "p4-conj1-m2": "a3a463cf887ee15a18738cc6b270ce2111b2a07c290e6642a346e831801bbaf5",
    "p4-conj1-m3": "a32383c913f785468a522a353000247416efafc388f1525212ef58aa8be69b1b",
    "p4-conj2": "b4ed421c1a3201db5bb5912cc61288e88900cd64b23c7af0836ef7763d0869ae",
    "p4-indconj": "ea15c62b7291f890473643fc48959e458899f90a1e263371b0f6e2e282500883",
    "q3-ind": "b7f4c8df41c75d255e19cefc132eacb76794227698f9ed93c6ca53d80104f376",
    "q3-thm3-log": "a62288889321ba5bc472caa558e8400f02c8eb5c59858d87cf615f0231c36934",
    "q3-thm3-m2": "21416c2a626adb4f3952660cea655758f2691610d5e92ea91ed1529dc5688937",
    "q3-thm3-m3": "236e3d4f5b0c2e2b269822bce1e89123dc25663f487b5a07b6ae116a74da66d4",
    "q3-thm4": "ea30a6ce681885f0816aea495ba4de494dc4ebbf9deb24a081b98501c6f9e642",
    "q3-thm5": "f4f76436bc99cbae9227d4b85f9369ff001d642018c75b5e6960b67a7d0c0fd3",
    "q3-thm5-t2": "1568cc250435c7df225f658cec271c9214e5e4a31b2c9d0ff893ba73e56f969f",
    "tail6-conj1-log": "d8d8fcec3045a1d1d5acc351eded0267b253d48d6ba6231fb78deb7121fcc676",
    "tail6-conj1-m2": "2bfdd75029c382fe05ef3a595872b9771907d822c5104291934d5ac23fb58f6b",
    "tail6-conj1-m3": "f0453a7e3203244c5ac0d80887bc7efaf479941f95b3b45d17765bf4e44869cb",
    "tail6-conj2": "d9d37abff9520f909cd175d635b7345863db3aee60ccf3aebff7e6e8c0b9c3d0",
    "tail6-indconj": "ffe02132af19e82c959ece18e90a0eb8db4c6414526105f7f2737f566323a9d6",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_digest_is_pinned(case):
    assert digest(CASES[case]()) == DIGESTS[case]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": "{digest(CASES[case]())}",')
