"""The four benchmark workloads: input generation, the timed call into the
public spinz API, and the output checks that feed ``failed``.

Each workload is a ``Workload`` with three steps:

* ``setup(seed, size, scratch)`` builds the inputs (not timed as work, but
  counted in ``setup_s``);
* ``run(inputs)`` is the timed pass and returns the raw results;
* ``check(inputs, results, reference)`` runs after timing and returns a
  ``Checked``: items attempted, items failed, the canonical digest and
  any failure messages.

``size`` is ``"full"`` for the benchmark and ``"tiny"`` for the self-test.
The reference (``reference.json``) holds, per workload and size, the digest
of the canonical results at one seed, recorded from the seed commit.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from spinz import (
    CampaignConfig,
    CoverFamilyPair,
    Graph,
    Verdict,
    WeightSystem,
    bipartition,
    certify_biregular,
    concentration_experiment,
    cover_family_report,
    cycle_graph,
    enumerate_graphs,
    hypercube_graph,
    independent_set_regular_bound,
    ising_free_energy_check,
    list_vertex_restriction_bound,
    recheck_witness,
    run_campaign,
    sample_list_assignment,
    sample_target_graph,
    sample_weights,
    vertex_restriction_bound,
)
from spinz.util import derive_seed

# Relative tolerance for log-backend values (log Z) against a reference.
LOG_REL_TOL = 1e-9


@dataclass
class Checked:
    attempted: int
    failed: int = 0
    digest: str | None = None
    messages: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def fail(self, count: int, message: str) -> None:
        self.failed = min(self.attempted, self.failed + count)
        if len(self.messages) < 20:
            self.messages.append(message)


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    seeded: bool  # False: the inputs do not depend on the seed
    setup: Callable
    run: Callable
    check: Callable


def _sha(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_digest(out: Checked, reference: dict | None) -> None:
    """A digest mismatch cannot be pinned to one item, so every item of
    the pass counts as failed."""
    if reference is not None and reference.get("digest") != out.digest:
        out.failed = out.attempted
        out.messages.append(
            f"digest {out.digest} differs from reference {reference.get('digest')}"
        )


def _attempt(thunk):
    """Run one item; an exception is that item's failure, not the run's."""
    try:
        return thunk()
    except Exception as exc:  # every error is counted and reported by check()
        return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# campaign-conj: the acceptance-8 falsification campaign, fewer trials


CAMPAIGN_TRIALS = {"full": 5, "tiny": 1}
CAMPAIGN_N_MAX = {"full": 6, "tiny": 4}


def campaign_setup(seed: int, size: str, scratch: Path):
    out = tempfile.mkdtemp(prefix="campaign-", dir=scratch)
    return CampaignConfig(
        source="general",
        n_max=CAMPAIGN_N_MAX[size],
        connected=True,
        m=2,
        cap=16,
        weights="uniform_edge",
        bounds=("conj1", "indconj"),
        trials=CAMPAIGN_TRIALS[size],
        seed=seed,
        out=out,
    )


def campaign_run(cfg):
    return run_campaign(cfg, threads=1)


def campaign_check(cfg, report, reference) -> Checked:
    per_bound = report.per_bound
    out = Checked(attempted=sum(agg.instances for agg in per_bound.values()))
    for name, agg in per_bound.items():
        if agg.errors:
            out.fail(agg.errors, f"{name}: {agg.errors} per-instance errors {agg.error_samples}")
    if per_bound["indconj"].violations:
        out.fail(len(per_bound["indconj"].violations), "indconj reported VIOLATED")

    # Every persisted violation must re-load to the same exact verdict.
    out_dir = Path(cfg.out)
    persisted = sorted((out_dir / "violations").glob("*.json"))
    expected = sum(len(agg.violations) for agg in per_bound.values())
    if len(persisted) != expected:
        out.fail(abs(expected - len(persisted)), f"{len(persisted)} witness files for {expected} violations")
    for path in persisted:
        payload = json.loads(path.read_text())
        again = _attempt(lambda: recheck_witness(payload))
        if isinstance(again, str):
            out.fail(1, f"{path.name}: recheck raised {again}")
        elif again.verdict is not Verdict.VIOLATED or again.log_slack != payload["log_slack"]:
            out.fail(1, f"{path.name}: recheck gave {again.verdict.value} slack {again.log_slack}")
    if not (out_dir / "report.json").is_file():
        out.fail(out.attempted, "report.json was not written")
    shutil.rmtree(out_dir, ignore_errors=True)

    doc = report.to_json_dict()
    doc.pop("runtime_seconds")
    doc["config"]["out"] = None  # a fresh directory per pass
    out.digest = _sha(doc)
    out.info = {
        "graphs": report.graphs,
        "violations": {name: len(agg.violations) for name, agg in per_bound.items()},
        "witnesses_rechecked": len(persisted),
    }
    _check_digest(out, reference)
    return out


# ---------------------------------------------------------------------------
# sweep-biregular: thm3 / thm4 / thm5 over the biregular graphs


SWEEP_N_MAX = {"full": 10, "tiny": 6}
SWEEP_TRIALS = {"full": 100, "tiny": 3}
SWEEP_GRAPHS = {"full": 14, "tiny": None}


def _neighbourhood_family(g: Graph) -> CoverFamilyPair:
    cert = certify_biregular(g, bipartition(g))
    return CoverFamilyPair(
        pairs=tuple(
            (frozenset(cert.neighbor_order(v)), frozenset({v})) for v in sorted(cert.odd)
        ),
        t1=cert.a,
        t2=1,
    )


def sweep_setup(seed: int, size: str, scratch: Path):
    graphs = list(
        enumerate_graphs(SWEEP_N_MAX[size], "biregular", connected_only=True, max_degree=3)
    )
    if SWEEP_GRAPHS[size] is not None and len(graphs) != SWEEP_GRAPHS[size]:
        raise RuntimeError(f"expected {SWEEP_GRAPHS[size]} biregular graphs, got {len(graphs)}")
    weighted = []
    listed = []
    for gi, g in enumerate(graphs):
        fam = _neighbourhood_family(g)
        for t in range(SWEEP_TRIALS[size]):
            # at the default seed these are the acceptance-2 weight seeds
            weighted.append((g, sample_weights(g, 1 + t % 3, seed=seed + 1000 * gi + t, cap=16)))
            h = sample_target_graph(4, derive_seed(seed, "target", gi, t))
            lists = sample_list_assignment(g, h, derive_seed(seed, "lists", gi, t))
            listed.append((g, h, lists, fam))
    return weighted, listed


def sweep_run(inputs):
    weighted, listed = inputs
    results = [_attempt(lambda: vertex_restriction_bound(g, w)) for g, w in weighted]
    for g, h, lists, fam in listed:
        results.append(_attempt(lambda: list_vertex_restriction_bound(g, h, lists)))
        results.append(_attempt(lambda: cover_family_report(g, h, lists, fam)))
    return results


def sweep_check(inputs, results, reference) -> Checked:
    out = Checked(attempted=len(results))
    docs = []
    for k, r in enumerate(results):
        if isinstance(r, str):
            out.fail(1, f"item {k}: {r}")
            docs.append(r)
            continue
        if r.verdict is Verdict.VIOLATED:
            out.fail(1, f"item {k}: proved bound {r.bound} reported VIOLATED")
        docs.append(r.to_json_dict())
    out.digest = _sha(docs)
    _check_digest(out, reference)
    return out


# ---------------------------------------------------------------------------
# lattice-large: exact `ind` and log-backend Ising on large lattices


def torus(p: int, q: int) -> Graph:
    """The p x q torus C_p x C_q, vertex (i, j) at id i * q + j."""
    edges = set()
    for i in range(p):
        for j in range(q):
            v = i * q + j
            for u in (((i + 1) % p) * q + j, i * q + (j + 1) % q):
                edges.add((min(u, v), max(u, v)))
    return Graph(p * q, sorted(edges))


# (name, graph factory, cycle length for the transfer-matrix check or None)
LATTICE_GRAPHS = {
    "full": (
        ("Q4", lambda: hypercube_graph(4), None),
        ("C4xC6", lambda: torus(4, 6), None),
        ("C4xC8", lambda: torus(4, 8), None),
        ("C30", lambda: cycle_graph(30), 30),
    ),
    "tiny": (("Q3", lambda: hypercube_graph(3), None), ("C10", lambda: cycle_graph(10), 10)),
}
ISING_BETA = 1.0


def lattice_setup(seed: int, size: str, scratch: Path):
    return [(name, make(), cycle) for name, make, cycle in LATTICE_GRAPHS[size]]


def lattice_run(graphs):
    results = []
    for _, g, _ in graphs:
        results.append(_attempt(lambda: independent_set_regular_bound(g)))
        results.append(_attempt(lambda: ising_free_energy_check(g, ISING_BETA)))
    return results


def cycle_ising_log_z(k: int, beta: float) -> float:
    """log Z of the zero-field two-spin system on C_k from its 2x2 transfer
    matrix [[e^-b, e^b], [e^b, e^-b]]: eigenvalues 2 cosh b and -2 sinh b."""
    big = math.log(2 * math.cosh(beta))
    ratio = (-math.tanh(beta)) ** k
    return k * big + math.log1p(ratio)


def lattice_check(graphs, results, reference) -> Checked:
    out = Checked(attempted=len(results))
    docs, counts, log_z = [], [], []
    for (name, g, cycle), ind, ising in zip(graphs, results[0::2], results[1::2]):
        for r in (ind, ising):
            if isinstance(r, str):
                out.fail(1, f"{name}: {r}")
        if not isinstance(ind, str):
            if ind.verdict is Verdict.VIOLATED:
                out.fail(1, f"{name}: ind reported VIOLATED")
            counts.append(int(ind.lhs.fraction))
            docs.append(ind.to_json_dict())
        if not isinstance(ising, str):
            if not ising.in_bounds:
                out.fail(1, f"{name}: free energy {ising.free_energy} outside the sandwich")
            if cycle is not None:
                want = cycle_ising_log_z(cycle, ISING_BETA)
                if abs(ising.log_z - want) > LOG_REL_TOL * abs(want):
                    out.fail(1, f"{name}: log Z {ising.log_z!r} vs transfer matrix {want!r}")
            log_z.append(ising.log_z)
            doc = ising.to_json_dict()
            for key in ("log_z", "free_energy"):  # compared with a tolerance
                doc.pop(key)
            docs.append(doc)
    out.digest = _sha(docs)
    out.info = {"independent_sets": counts, "log_z": log_z}
    if reference is not None:
        if counts != reference["independent_sets"]:
            out.fail(out.attempted, f"independent-set counts {counts} != {reference['independent_sets']}")
        for (name, _, _), got, want in zip(graphs, log_z, reference["log_z"]):
            if abs(got - want) > LOG_REL_TOL * abs(want):
                out.fail(1, f"{name}: log Z {got!r} vs reference {want!r}")
    _check_digest(out, reference)
    return out


# ---------------------------------------------------------------------------
# blowup: the acceptance-7 concentration experiment


BLOWUP_SCALES = (10, 100)
BLOWUP_TRIALS = {"full": 500, "tiny": 20}


def blowup_setup(seed: int, size: str, scratch: Path):
    g = cycle_graph(4)
    half = Fraction(1, 2)
    w = WeightSystem.build(
        g, 2, edge={(u, v, i, j): half for u, v in g.edges for i in (1, 2) for j in (1, 2) if i <= j}
    )
    return g, w, (1, 1, 1, 1), BLOWUP_TRIALS[size], seed


def blowup_run(inputs):
    g, w, cfg, trials, seed = inputs
    return [
        _attempt(lambda: concentration_experiment(g, w, cfg, C, trials, seed=seed))
        for C in BLOWUP_SCALES
    ]


def blowup_check(inputs, results, reference) -> Checked:
    g, _, _, trials, _ = inputs
    out = Checked(attempted=trials * len(results))
    docs, samples = [], []
    for C, s in zip(BLOWUP_SCALES, results):
        if isinstance(s, str):
            out.fail(trials, f"C={C}: {s}")
            continue
        mu = float(s.mu)
        se = math.sqrt(s.emp_var / s.trials)
        if s.mu != Fraction(C ** 4, 16):
            out.fail(trials, f"C={C}: mu {s.mu} != C^4/16")
        elif abs(s.emp_mean - mu) > 4 * se:
            out.fail(trials, f"C={C}: mean {s.emp_mean} not within 4 SE {se} of {mu}")
        elif s.relative_var() > 1.5 * float(s.alpha) / C ** 2:
            out.fail(trials, f"C={C}: Var/mu^2 {s.relative_var()} > 1.5 alpha / C^2")
        doc = s.to_json_dict()
        for key in ("emp_mean", "emp_var"):  # depend on the sampled stream
            doc.pop(key)
        docs.append(doc)
        samples.append([str(x) for x in s.samples])
    out.digest = _sha(docs)
    # informational only: a change to sample_subgraph may change the stream
    out.info = {"samples_digest": _sha(samples)}
    _check_digest(out, reference)
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("campaign-conj", 88, True, campaign_setup, campaign_run, campaign_check),
        Workload("sweep-biregular", 1_000_000, True, sweep_setup, sweep_run, sweep_check),
        Workload("lattice-large", 0, False, lattice_setup, lattice_run, lattice_check),
        Workload("blowup", 20240901, True, blowup_setup, blowup_run, blowup_check),
    )
}


def reference_entry(workload: Workload, seed: int, digest: str, info: dict) -> dict:
    """The reference.json entry for one recorded pass."""
    entry = {"seed": seed if workload.seeded else None, "digest": digest}
    if workload.name == "lattice-large":
        entry.update(info)  # independent-set counts and log Z, per graph
    return entry


def reference_for(reference: dict, workload: Workload, size: str, seed: int) -> dict | None:
    """The recorded reference entry that applies to this pass, if any."""
    entry = reference.get(workload.name, {}).get(size)
    if entry is None:
        return None
    if workload.seeded and entry.get("seed") != seed:
        return None
    return entry
