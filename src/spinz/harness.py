"""Bulk search machinery: small-graph enumeration, weight and list
sampling, and campaigns that evaluate bounds over many instances and
persist the results.

Campaigns are regression oracles for the proved bounds (any violation is
an implementation bug) and falsification searches for the conjectured
ones (any exact violation is a first-class result, serialized with its
full instance so it can be re-checked independently).
"""

from __future__ import annotations

import itertools
import random
import re
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .bounds import (
    BOUND_INPUTS,
    BOUND_NAMES,
    BoundReport,
    Verdict,
    evaluate_bound,
    evaluate_trials,
)
from .counting import (
    DEFAULT_BUDGET,
    ListAssignment,
    parse_lists,
)
from .graphs import (
    Graph,
    GraphError,
    bipartition,
    is_connected,
    parse_graph,
)
from .util import ParseError, derive_seed, dump_json, parse_fields, records
from .weights import WeightSystem, hardcore_from_pairs, parse_weights

ENUMERATION_CEILINGS = {"all": 7, "bipartite": 7, "biregular": 12}


class EnumerationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Canonical forms and isomorphism-deduplicated enumeration


def canonical_form(g: Graph) -> tuple:
    """A complete isomorphism invariant: the minimum edge tuple over all
    labelings reachable by individualization-refinement.

    Refinement splits cells by neighbor counts per cell; when it stalls,
    each vertex of the first non-singleton cell is individualized in
    turn.  Two leaves with equal edge tuples give an automorphism, and
    the search skips the subtrees that automorphisms map onto explored
    ones (McKay and Piperno, "Practical graph isomorphism, II", 2014).
    Such a subtree only repeats edge tuples already seen, so the key is
    that of the exhaustive search, which every isomorphic copy reproduces.
    """
    n = g.n
    adj = [g.neighbors(v) for v in range(n)]
    leaves: dict[tuple, tuple] = {}  # edge tuple -> (path, order) of its first leaf
    automorphisms: list[list[int]] = []

    def refine(cells: list[tuple]) -> list[tuple]:
        while True:
            index = [0] * n
            for ci, cell in enumerate(cells):
                for v in cell:
                    index[v] = ci
            new_cells = []
            changed = False
            for cell in cells:
                if len(cell) == 1:
                    new_cells.append(cell)
                    continue
                sig = {}
                for v in cell:
                    counts = [0] * len(cells)
                    for u in adj[v]:
                        counts[index[u]] += 1
                    sig.setdefault(tuple(counts), []).append(v)
                if len(sig) == 1:
                    new_cells.append(cell)
                else:
                    changed = True
                    for key in sorted(sig):
                        new_cells.append(tuple(sorted(sig[key])))
            cells = new_cells
            if not changed:
                return cells

    def descend(cells: list[tuple], path: tuple) -> int | None:
        """Search the node that individualized path; return the depth to
        unwind to when a repeated leaf shows that the subtree being
        searched there is the image of an explored one, else None."""
        cells = refine(cells)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            order = [cell[0] for cell in cells]
            rank = [0] * n
            for i, v in enumerate(order):
                rank[v] = i
            edges = tuple(
                sorted((rank[u], rank[v]) if rank[u] < rank[v] else (rank[v], rank[u]) for u, v in g.edges)
            )
            if edges not in leaves:
                leaves[edges] = (path, order)
                return None
            first_path, first_order = leaves[edges]
            image = [0] * n
            for u, v in zip(first_order, order):
                image[u] = v
            automorphisms.append(image)
            return next(d for d, (u, v) in enumerate(zip(first_path, path)) if u != v)
        cell = cells[target]
        orbit = list(range(n))  # union-find over the automorphisms that fix path

        def root(v: int) -> int:
            while orbit[v] != v:
                v = orbit[v]
            return v

        merged = 0
        explored: list[int] = []
        for v in cell:
            # orbits of the automorphisms found so far that fix path
            for image in automorphisms[merged:]:
                if all(image[u] == u for u in path):
                    for u in cell:
                        ru, rv = root(u), root(image[u])
                        if ru != rv:
                            orbit[max(ru, rv)] = min(ru, rv)
            merged = len(automorphisms)
            if any(root(v) == root(w) for w in explored):  # v's subtree is an image
                continue
            explored.append(v)
            rest = tuple(u for u in cell if u != v)
            jump = descend(cells[:target] + [(v,), rest] + cells[target + 1 :], path + (v,))
            if jump is not None and jump < len(path):
                return jump
        return None

    descend([tuple(range(n))], ())
    return (n, min(leaves))


def _edge_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _orbit_minima(n: int) -> np.ndarray:
    """The nonzero edge bitmasks on n vertices (bit k for the k-th pair
    i < j in lexicographic order) that are the smallest of their
    isomorphism class, ascending: one per class of graphs with an edge.

    A permutation maps each edge bit to one bit, so the image of a mask
    is the OR of its bytes' images, one table lookup each.  A mask with a
    smaller image is no class minimum, so each permutation drops those
    candidates; after all n! the candidates are exactly the minima.
    """
    pairs = _edge_pairs(n)
    i, j = np.array(pairs).T
    index = np.zeros((n, n), dtype=np.int64)
    index[i, j] = index[j, i] = np.arange(len(pairs))
    perms = np.array(list(itertools.permutations(range(n))))  # perms[0] is the identity
    images = 1 << index[perms[:, i], perms[:, j]]  # [perm, edge bit]: the bit it maps to
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    # tables[b][p, x]: the image under perms[p] of byte b of a mask when that byte is x
    starts = range(0, len(pairs), 8)
    tables = [images[:, k : k + 8] @ bits[:, : len(pairs[k : k + 8])].T for k in starts]
    masks = np.arange(1, 1 << len(pairs), dtype=np.int64)
    for p in range(1, len(perms)):
        image = tables[0][p][masks & 255]
        for b in range(1, len(tables)):
            image |= tables[b][p][(masks >> 8 * b) & 255]
        masks = masks[image >= masks]
    return masks


def _graph_from_mask(n: int, mask: int) -> Graph:
    pairs = _edge_pairs(n)
    return Graph(n, (pairs[e] for e in range(len(pairs)) if (mask >> e) & 1))


def _enumerate_general(n: int, bipartite_only: bool, connected_only: bool):
    for mask in _orbit_minima(n).tolist():
        g = _graph_from_mask(n, mask)
        if connected_only and not is_connected(g):
            continue
        if bipartite_only:
            try:
                bipartition(g)
            except GraphError:
                continue
        yield g


def _biregular_labeled(n_e: int, n_o: int, a: int, b: int):
    """Labeled (a,b)-biregular bipartite graphs: degree-a side 0..n_e-1,
    degree-b side n_e..n_e+n_o-1.  Neighborhood sequences are forced
    non-decreasing to cut degree-b-side permutation symmetry."""
    combos = list(itertools.combinations(range(n_e), b))

    def extend(chosen: list[int], degrees: list[int], start: int):
        if len(chosen) == n_o:
            edges = []
            for o_idx, combo_idx in enumerate(chosen):
                for e_vtx in combos[combo_idx]:
                    edges.append((e_vtx, n_e + o_idx))
            yield Graph(n_e + n_o, edges)
            return
        slots_left = n_o - len(chosen) - 1  # after placing the next combo
        for ci in range(start, len(combos)):
            combo = combos[ci]
            if any(degrees[v] >= a for v in combo):
                continue
            for v in combo:
                degrees[v] += 1
            # every remaining deficit must be fillable one unit per slot
            if all(a - d <= slots_left for d in degrees):
                chosen.append(ci)
                yield from extend(chosen, degrees, ci)
                chosen.pop()
            for v in combo:
                degrees[v] -= 1

    yield from extend([], [0] * n_e, 0)


def _enumerate_biregular(n_max, connected_only, a_pin, b_pin, max_degree):
    if a_pin is not None and b_pin is not None and a_pin < b_pin:
        a_pin, b_pin = b_pin, a_pin  # orientation-free pin
    for n in range(2, n_max + 1):
        degree_cap = max_degree if max_degree is not None else n - 1
        for a in range(1, degree_cap + 1):
            for b in range(1, a + 1):
                if a_pin is not None and (a, b) != (a_pin, b_pin):
                    continue
                if (b * n) % (a + b) or (a * n) % (a + b):
                    continue
                n_e = b * n // (a + b)
                n_o = a * n // (a + b)
                if n_e < 1 or n_o < 1 or b > n_e or a > n_o:
                    continue
                seen = set()
                for g in _biregular_labeled(n_e, n_o, a, b):
                    if connected_only and not is_connected(g):
                        continue
                    key = canonical_form(g)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield g


def _check_pin(a: int | None, b: int | None) -> None:
    if (a is None) != (b is None):
        raise EnumerationError(f"a degree pin needs both a and b, got a={a}, b={b}")


def _check_biregular_only(source: str, **pins) -> None:
    """EnumerationError naming the given degree pins (a, b, max_degree),
    which only biregular enumeration reads."""
    given = [key for key, value in pins.items() if value is not None]
    if given:
        raise EnumerationError(
            f"{source} takes no degree pins ({', '.join(given)} given): they apply to biregular only"
        )


def enumerate_graphs(
    n_max: int,
    mode: str = "all",
    connected_only: bool = False,
    a: int | None = None,
    b: int | None = None,
    max_degree: int | None = None,
):
    """Stream graphs with at least one edge, up to n_max vertices, each
    isomorphism class in the mode at least once, in deterministic order.

    Modes: ``all`` (every graph), ``bipartite``, ``biregular`` (optionally
    pinned to one (a,b) pair, both given, or capped by max_degree; the
    other modes raise EnumerationError when given a, b or max_degree).
    Deduplication is exact here, but callers must tolerate duplicates by
    contract.  ``all``/``bipartite`` keep the edge sets that are the smallest of
    their class over the n! vertex permutations: n = 7 takes about 0.5 s
    and 130 MB, and n = 8 would hold 2^28 masks against 8! permutations.
    ``biregular`` generates labelled graphs and keeps the first of each
    ``canonical_form`` key: up to 10 takes about 0.06 s and up to 12
    under 1 s (82 graphs), but up to 14 takes 50 s, as 38,926
    labelled graphs each need a canonical form.  So the ceilings,
    checked before anything is yielded, are {all: 7, bipartite: 7,
    biregular: 12}.
    """
    if n_max < 0:
        raise EnumerationError(f"n_max must be >= 0, got {n_max}")
    _check_pin(a, b)
    ceiling = ENUMERATION_CEILINGS.get(mode)
    if ceiling is None:
        raise EnumerationError(f"unknown enumeration mode {mode!r}")
    if mode != "biregular":
        _check_biregular_only(f"mode {mode}", a=a, b=b, max_degree=max_degree)
    if n_max > ceiling:
        raise EnumerationError(f"n_max {n_max} exceeds the {mode} ceiling {ceiling}")
    if mode in ("all", "bipartite"):
        for n in range(2, n_max + 1):
            yield from _enumerate_general(n, mode == "bipartite", connected_only)
    else:
        yield from _enumerate_biregular(n_max, connected_only, a, b, max_degree)


# ---------------------------------------------------------------------------
# Instance sampling


WEIGHT_STYLES = ("general", "uniform_edge", "hardcore")


def _check_cap(cap: int) -> None:
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")


def sample_weights(
    g: Graph,
    m: int,
    seed: int,
    cap: int = 16,
    allow_zero: bool = False,
    style: str = "general",
) -> WeightSystem:
    """Random rational weight system, deterministic given the seed.

    Styles: ``general`` draws every vertex and edge entry independently;
    ``uniform_edge`` draws one edge table shared by all edges (the shape
    the per-edge restriction bounds require); ``hardcore`` draws only
    per-vertex activities into the two-spin hard-constraint system.
    Each weight is p/q with p and q uniform on 1..cap, then 0 with
    probability 1/8 when zeros are allowed.  p and q are drawn straight
    from ``getrandbits`` by the rejection loop that ``random.randint``
    runs, so the stream is the one ``randint(1, cap)`` gives (checked
    on CPython 3.10-3.13).  Draws are integer pairs, stored through
    ``WeightSystem.from_pairs`` (``hardcore_from_pairs``) without
    building a ``Fraction``.
    """
    if style not in WEIGHT_STYLES:
        raise ValueError(f"unknown weight style {style!r}")
    _check_cap(cap)
    rng = random.Random(seed)
    bits, uniform, k = rng.getrandbits, rng.random, cap.bit_length()

    def draw(count: int) -> list[tuple[int, int]]:
        out = []
        for _ in range(count):
            p = bits(k)
            while p >= cap:
                p = bits(k)
            q = bits(k)
            while q >= cap:
                q = bits(k)
            out.append((0, 1) if allow_zero and uniform() < 0.125 else (p + 1, q + 1))
        return out

    if style == "hardcore":
        return hardcore_from_pairs(g, draw(g.n))
    flat = draw(g.n * m)
    rows = [flat[v * m : v * m + m] for v in range(g.n)]
    # entry (i, j) of a symmetric table is upper-triangle draw number sym[i*m + j]
    upper = [(i, j) for i in range(m) for j in range(i, m)]
    sym = [upper.index((min(i, j), max(i, j))) for i in range(m) for j in range(m)]
    if style == "uniform_edge":
        drawn = draw(len(upper))
        tables = dict.fromkeys(g.edges, [drawn[s] for s in sym])
    else:
        tables = {}
        for e in g.edges:
            drawn = draw(len(upper))
            tables[e] = [drawn[s] for s in sym]
    return WeightSystem.from_pairs(g.n, m, rows, tables)


def sample_target_graph(h_max: int, seed: int) -> Graph:
    """Random target graph on 2..h_max vertices with at least one edge."""
    rng = random.Random(seed)
    n = rng.randint(2, max(h_max, 2))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    if not edges:
        edges = [(0, 1)]
    return Graph(n, edges)


def sample_list_assignment(g: Graph, h: Graph, seed: int) -> ListAssignment:
    """Random lists; each target is allowed with probability 3/4, so empty
    lists occur but most instances stay nontrivial."""
    rng = random.Random(seed)
    rows = []
    for _ in range(g.n):
        rows.append([y for y in range(h.n) if rng.random() < 0.75])
    return ListAssignment(g.n, rows)


# ---------------------------------------------------------------------------
# Campaigns

# each graph source's enumeration mode; None reads the config's files
_SOURCE_MODES = {"biregular": "biregular", "general": "all", "bipartite": "bipartite", "files": None}


@dataclass
class CampaignConfig:
    """Configuration of one bulk evaluation run.

    Read from a key-value file (``key = value`` per line, each key once,
    # comments on their own lines): source (biregular|general|bipartite|
    files), files (semicolon-separated paths; a relative path resolves from
    the working directory), n_max, a, b, max_degree (source biregular
    only: any other source rejects them),
    connected and allow_zero (true/false, yes/no or 1/0, any case), m, cap,
    weights (general|uniform_edge|hardcore), bounds (comma-separated
    names), trials (samples per graph), seed, h_max, budget, out.
    """

    source: str = "biregular"
    files: tuple = ()
    n_max: int = 6
    a: int | None = None
    b: int | None = None
    max_degree: int | None = None
    connected: bool = True
    m: int = 2
    cap: int = 16
    allow_zero: bool = False
    weights: str = "general"
    bounds: tuple = ("thm3",)
    trials: int = 10
    seed: int = 0
    h_max: int = 3
    budget: int = DEFAULT_BUDGET
    out: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        _check_pin(self.a, self.b)
        _check_cap(self.cap)
        for name in self.bounds:
            if name not in BOUND_NAMES:
                raise ValueError(f"unknown bound name {name!r}")
        if self.weights not in WEIGHT_STYLES:
            raise ValueError(f"unknown weight style {self.weights!r}")
        if self.source not in _SOURCE_MODES:
            raise ValueError(f"unknown graph source {self.source!r}")
        if self.source != "biregular":
            _check_biregular_only(f"source {self.source}", a=self.a, b=self.b, max_degree=self.max_degree)

    def to_json_dict(self) -> dict:
        return asdict(self)  # tuples render as JSON lists


_CONFIG_INTS = {"n_max", "a", "b", "max_degree", "m", "cap", "trials", "seed", "h_max", "budget"}
_CONFIG_BOOLS = {"connected", "allow_zero"}
_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def parse_campaign_config(text: str) -> CampaignConfig:
    kwargs: dict = {}
    for lineno, line in records(text):
        if "=" not in line:
            raise ParseError("expected 'key = value'", lineno)
        key, _, value = (part.strip() for part in line.partition("="))
        if key in kwargs:
            raise ParseError(f"duplicate config key {key!r}", lineno)
        if key in _CONFIG_INTS:
            error = ParseError(f"{key} takes an integer, got {value!r}", lineno)
            (kwargs[key],) = parse_fields([value], error)
        elif key in _CONFIG_BOOLS:
            if value.lower() not in _BOOL_WORDS:
                raise ParseError(f"{key} takes true/false/yes/no/1/0, got {value!r}", lineno)
            kwargs[key] = _BOOL_WORDS[value.lower()]
        elif key == "bounds":
            kwargs[key] = tuple(x.strip() for x in value.split(",") if x.strip())
        elif key == "files":
            kwargs[key] = tuple(x.strip() for x in value.split(";") if x.strip())
        elif key in ("source", "weights", "out"):
            kwargs[key] = value
        else:
            raise ParseError(f"unknown config key {key!r}", lineno)
    return CampaignConfig(**kwargs)


@dataclass
class BoundAggregate:
    instances: int = 0
    holds: int = 0
    inconclusive: int = 0
    equalities: int = 0
    errors: int = 0
    error_samples: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    min_log_slack: float | None = None
    min_witness: dict | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)

    def add(self, gi: int, si: int, outcome, payload) -> None:
        """Count the instance (gi, si): outcome is its report or error
        string, and payload() builds its witness, called only for a
        report that is kept (a violation or a new minimum slack)."""
        self.instances += 1
        if isinstance(outcome, str):
            self.errors += 1
            if len(self.error_samples) < 5:
                self.error_samples.append({"graph_index": gi, "sample_index": si, "error": outcome})
            return
        kept = None
        if outcome.verdict is Verdict.HOLDS:
            self.holds += 1
        elif outcome.verdict is Verdict.INCONCLUSIVE:
            self.inconclusive += 1
        else:
            kept = payload()
            self.violations.append(kept)
        if outcome.cmp == 0:
            self.equalities += 1
        slack = outcome.log_slack
        if slack != float("inf") and (self.min_log_slack is None or slack < self.min_log_slack):
            self.min_log_slack = slack
            self.min_witness = payload() if kept is None else kept


@dataclass
class CampaignReport:
    config: CampaignConfig
    graphs: int
    per_bound: dict
    runtime_seconds: float

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "graphs": self.graphs,
            "bounds": {name: agg.to_json_dict() for name, agg in self.per_bound.items()},
            "runtime_seconds": self.runtime_seconds,
        }

    def summary_text(self) -> str:
        lines = [
            f"campaign over {self.graphs} graphs, {self.config.trials} samples each",
            f"{'bound':>8} {'instances':>10} {'holds':>7} {'incon':>6} {'viol':>5} "
            f"{'errors':>7} {'equal':>6} {'min log-slack':>14}",
        ]
        for name, agg in self.per_bound.items():
            slack = "-" if agg.min_log_slack is None else f"{agg.min_log_slack:.6g}"
            lines.append(
                f"{name:>8} {agg.instances:>10} {agg.holds:>7} {agg.inconclusive:>6} "
                f"{len(agg.violations):>5} {agg.errors:>7} {agg.equalities:>6} {slack:>14}"
            )
        return "\n".join(lines) + "\n"


def _witness_payload(report: BoundReport, g: Graph, trial: dict, gi: int, si: int) -> dict:
    """The report with its instance as text: the graph and the sampled
    inputs (``trial``) that the bound reads."""
    reads = BOUND_INPUTS[report.bound]
    if reads == "weights":
        extras = {"weights": trial["weights"].to_text()}
    elif reads == "target":
        extras = {"target": trial["target"].to_text(), "lists": trial["lists"].to_text()}
    else:
        extras = {}
    return {
        "bound": report.bound,
        "verdict": report.verdict.value,
        "backend": report.backend.value,
        "log_slack": report.log_slack,
        "lhs_log": report.lhs_log,
        "rhs_log": report.rhs_log,
        "graph": g.to_text(),
        **extras,
        "graph_index": gi,
        "sample_index": si,
    }


def recheck_witness(payload: dict, budget: int = DEFAULT_BUDGET) -> BoundReport:
    """Re-evaluate a serialized witness instance standalone, exactly."""
    g = parse_graph(payload["graph"])
    inputs = {}
    if "weights" in payload:
        inputs["weights"] = parse_weights(payload["weights"], g)
    if "target" in payload:
        h = inputs["target"] = parse_graph(payload["target"])
        inputs["lists"] = parse_lists(payload["lists"], g, h)
    return evaluate_bound(payload["bound"], g, budget=budget, **inputs)


# Trials of one graph sampled and evaluated together: a campaign holds at
# most this many trials' inputs (and batch memos) at once, however many
# trials it runs.
_TRIAL_CHUNK = 32


def _evaluate_graph(cfg: CampaignConfig, g: Graph, gi: int):
    """Evaluate every configured bound on every sample of graph gi.

    Samples the inputs of up to ``_TRIAL_CHUNK`` trials, then runs each
    bound over all of them in one ``evaluate_trials`` batch, and yields
    (bound, si, outcome, trial), each bound's in sample order, where
    outcome is a report or an error string and trial holds the sampled
    inputs.  A batch that raises is run again one trial at a time, so
    each error stays with its own sample.  Bounds that read nothing
    sampled run only at sample index 0.
    """
    reads = {BOUND_INPUTS[name] for name in cfg.bounds}
    for first in range(0, cfg.trials, _TRIAL_CHUNK):
        trials = []
        for si in range(first, min(first + _TRIAL_CHUNK, cfg.trials)):
            trial = {}
            if "weights" in reads:
                seed = derive_seed(cfg.seed, "weights", gi, si)
                trial["weights"] = sample_weights(g, cfg.m, seed, cfg.cap, cfg.allow_zero, cfg.weights)
            if "target" in reads:
                h = sample_target_graph(cfg.h_max, derive_seed(cfg.seed, "target", gi, si))
                trial["target"] = h
                trial["lists"] = sample_list_assignment(g, h, derive_seed(cfg.seed, "lists", gi, si))
            trials.append(trial)
        for name in cfg.bounds:
            if BOUND_INPUTS[name] is None and first > 0:
                continue
            batch = trials if BOUND_INPUTS[name] else trials[:1]
            try:
                outcomes = evaluate_trials(name, g, batch, cfg.budget)
            except ValueError:
                outcomes = []
                for trial in batch:
                    try:
                        outcomes.append(evaluate_bound(name, g, budget=cfg.budget, **trial))
                    except ValueError as exc:
                        outcomes.append(str(exc))
            for si, (outcome, trial) in enumerate(zip(outcomes, batch), start=first):
                yield name, si, outcome, trial


def run_campaign(cfg: CampaignConfig, threads: int = 1) -> CampaignReport:
    """Evaluate the configured bounds over every (graph, sample) pair.

    Per-instance errors are recorded, never fatal.  Conjecture violations
    do not abort anything: with ``out`` set, each one is persisted as one
    JSON file that embeds its instance texts, so it can be independently
    re-verified (``recheck_witness``).

    The campaign runs single-threaded; `threads` is accepted and ignored
    only because the committed benchmark (``perfbench/workloads.py``)
    still passes ``threads=1``.
    """
    start = time.monotonic()
    mode = _SOURCE_MODES[cfg.source]
    if mode is None:
        graphs = [parse_graph(Path(p).read_text()) for p in cfg.files]
    else:
        graphs = list(enumerate_graphs(cfg.n_max, mode, cfg.connected, cfg.a, cfg.b, cfg.max_degree))

    per_bound: dict[str, BoundAggregate] = {name: BoundAggregate() for name in cfg.bounds}
    for gi, g in enumerate(graphs):
        for name, si, outcome, trial in _evaluate_graph(cfg, g, gi):
            per_bound[name].add(
                gi, si, outcome, lambda: _witness_payload(outcome, g, trial, gi, si)
            )

    report = CampaignReport(
        config=cfg,
        graphs=len(graphs),
        per_bound=per_bound,
        runtime_seconds=time.monotonic() - start,
    )
    if cfg.out:
        _write_campaign_outputs(report)
    return report


# Witness file names: <bound>_<k>.json, and the instance-text copies that
# older versions wrote beside it, which a rerun clears as well.
_WITNESS_FILE = re.compile(rf"({'|'.join(BOUND_NAMES)})_[0-9]+\.(json|graph|weights|target|lists)")


def _write_campaign_outputs(report: CampaignReport) -> None:
    """Write report.json, summary.txt and one violations/<bound>_<k>.json
    per violation, its payload (which embeds the instance texts).

    Witness files of an earlier run into the same directory are deleted
    first, so violations/ holds this run's witnesses and nothing stale;
    other files there are left alone.
    """
    out_dir = Path(report.config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(dump_json(report.to_json_dict()))
    (out_dir / "summary.txt").write_text(report.summary_text())
    vdir = out_dir / "violations"
    if vdir.is_dir():
        for path in vdir.iterdir():
            if _WITNESS_FILE.fullmatch(path.name):
                path.unlink()
    violations = [
        (name, i, payload)
        for name, agg in report.per_bound.items()
        for i, payload in enumerate(agg.violations)
    ]
    if violations:
        vdir.mkdir(exist_ok=True)
        for name, i, payload in violations:
            (vdir / f"{name}_{i:03d}.json").write_text(dump_json(payload))
