"""Randomized blow-up construction and its concentration experiment.

Each (spin, vertex) pair becomes a block of C * weight host vertices;
host edges join blocks across base-graph edges and survive independently
with probability equal to the (scaled) edge weight.  Counting
block-respecting homomorphisms into the sampled subgraph gives an
unbiased estimator of C^N times the configuration weight, and the
experiment checks the mean and the variance bound empirically.

Sampling uses a counter-based generator (Philox): one key per trial,
derived by SHA-256 from the experiment seed, and one stream per (base
edge, block pair) at its own counter offset under that key.  A block's
cells depend only on (key, counter), so a trial draws only the blocks
its configuration reads, and it builds one generator whose counter it
resets before each block: the same cells a fresh generator at that
counter would draw.  Runs are bit-reproducible across platforms, and
each trial is an independent stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .counting import DEFAULT_BUDGET, BudgetError, SpinConfig, contract, contract_cost, weight_of
from .graphs import Graph, GraphError, bipartition, certify_biregular
from .util import derive_key128, derive_seed
from .values import Backend, log_of_fraction
from .weights import WeightError, WeightSystem, _scaled


def scale_edge_weights(w: WeightSystem) -> tuple[WeightSystem, Fraction]:
    """Bring all edge weights into (0,1] by dividing by their global
    maximum when it exceeds 1; otherwise leave the system untouched.

    Returns the (possibly rescaled) system and the divisor applied, so
    the original configuration weight is the scaled one times
    divisor^(number of edges).
    """
    if w.backend is not Backend.EXACT:
        raise WeightError("edge scaling needs exact rational weights")
    if not list(w.edges()):
        return w, Fraction(1)
    _, emax = w.edge_extremes()
    if emax <= 1:
        return w, Fraction(1)
    rows, tables = w.cleared()
    scaled = {e: _scaled(t, 1 / emax, w.m) for e, t in tables.items()}
    return WeightSystem(w.m, w.n, Backend.EXACT, rows, scaled), emax


@dataclass(frozen=True)
class BlowupHost:
    """The deterministic host: disjoint blocks of size C * weight per
    (spin, vertex), all cross edges present between blocks over base
    edges, and the per-block-pair survival probability table."""

    graph: Graph
    weights: WeightSystem
    C: int
    block_size: tuple[tuple[int, ...], ...]  # [v][i-1] -> size of the block of spin i

    def configured_sizes(self, cfg: SpinConfig) -> list[int]:
        """The size of each base vertex's configured block; ValueError
        unless cfg gives every base vertex a spin."""
        if len(cfg) != self.graph.n:
            raise ValueError(f"configuration has {len(cfg)} entries for {self.graph.n} vertices")
        for s in cfg:
            if not (1 <= s <= self.weights.m):
                raise ValueError(f"spin {s} out of range 1..{self.weights.m}")
        return [self.block_size[v][s - 1] for v, s in enumerate(cfg)]


def build_blowup_host(g: Graph, w: WeightSystem, C: int) -> BlowupHost:
    """Validate the preconditions and lay out the blocks.

    Needs strictly positive rational weights, edge weights already in
    (0,1], and C chosen so every block size C * weight is an integer.
    """
    if w.backend is not Backend.EXACT:
        raise WeightError("blow-up construction needs exact rational weights")
    if C < 1:
        raise ValueError(f"block scale must be a positive integer, got {C}")
    vmin, _ = w.vertex_extremes()
    if vmin <= 0:
        raise WeightError("blow-up construction needs strictly positive vertex weights")
    if list(w.edges()):
        emin, emax = w.edge_extremes()
        if emin <= 0:
            raise WeightError(
                "blow-up construction needs strictly positive edge weights "
                "(hard constraints have zero entries)"
            )
        if emax > 1:
            raise WeightError(
                f"edge weight {emax} is outside (0,1]; apply scale_edge_weights first"
            )
    sizes: list[tuple[int, ...]] = []
    rows, _ = w.cleared()
    for v, (entries, den, _) in enumerate(rows):
        row_sizes = []
        for i, x in enumerate(entries, start=1):
            size, rest = divmod(C * x, den)
            if rest:
                raise WeightError(
                    f"block size C*weight = {Fraction(C * x, den)} for vertex {v} spin {i} "
                    "is not an integer"
                )
            row_sizes.append(size)
        sizes.append(tuple(row_sizes))
    return BlowupHost(graph=g, weights=w, C=C, block_size=tuple(sizes))


@dataclass(frozen=True)
class SampledSubgraph:
    """One sampled subgraph of one configuration: per base edge (u, v),
    the boolean survival matrix between the configured blocks of u and v."""

    host: BlowupHost
    seed: int
    keep: dict  # (u, v) canonical base edge -> bool ndarray
    cfg: SpinConfig


def _reset(bitgen: np.random.Philox, state: dict, counter: tuple[int, ...]) -> None:
    """Put ``bitgen`` where ``np.random.Philox(key=key, counter=counter)``
    starts: ``state`` is its state dict under that key, and the buffer is
    emptied so the next draw computes the block at counter + 1."""
    state["state"]["counter"] = np.array(counter, dtype=np.uint64)
    state["buffer_pos"] = 4  # the buffer holds 4 words, all used
    state["has_uint32"] = 0
    bitgen.state = state


def sample_subgraph(host: BlowupHost, seed: int, cfg: SpinConfig) -> SampledSubgraph:
    """Retain each host edge between the configured blocks independently
    with its table probability.

    Deterministic given the seed.  The block pair (i, j) over the e-th
    base edge (u, v) in sorted order, i = cfg[u] and j = cfg[v], is drawn
    row-major from its own Philox stream: the trial's key, counter
    (0, e, i, j).  One generator serves the call, reset to each block's
    counter before its draw.
    """
    sizes = host.configured_sizes(cfg)
    cfg = tuple(cfg)
    bitgen = np.random.Philox(key=np.array(derive_key128("blowup-edges", seed), dtype=np.uint64))
    rng, state = np.random.Generator(bitgen), bitgen.state
    _, tables = host.weights.cleared()
    keep = {}
    for e, (u, v) in enumerate(host.graph.edges):
        table, den, _ = tables[(u, v)]
        i, j = cfg[u], cfg[v]
        _reset(bitgen, state, (0, e, i, j))
        # int / int rounds correctly, as float(weight) does
        keep[(u, v)] = rng.random((sizes[u], sizes[v])) < table[i - 1][j - 1] / den
    return SampledSubgraph(host=host, seed=seed, keep=keep, cfg=cfg)


def count_block_homs(
    g: Graph,
    sub: SampledSubgraph,
    host: BlowupHost,
    cfg: SpinConfig,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Exact number of maps sending each vertex into its configured block
    with every base edge landing on a surviving host edge.

    Computed by ``contract`` over the base graph with the sample's 0/1
    survival matrix as each edge's factor.  The budget bounds the largest
    intermediate tensor of the elimination plan.
    """
    sizes = host.configured_sizes(cfg)
    if sub.cfg != tuple(cfg):
        raise ValueError(f"the sample holds only the blocks of configuration {list(sub.cfg)}")
    factors = [((u, v), sub.keep[(u, v)]) for u, v in g.edges]
    return contract(sizes, factors, budget, maxima=[1] * len(factors))


@dataclass(frozen=True)
class BlowupStats:
    """Results of one concentration experiment at fixed configuration."""

    config: SpinConfig
    C: int
    trials: int
    seed: int
    mu: Fraction
    samples: tuple
    emp_mean: float
    emp_var: float
    alpha: Fraction
    cheb_budget: float
    edge_scale: Fraction
    threshold_C: Fraction | None

    def relative_var(self) -> float:
        return self.emp_var / float(self.mu) ** 2

    def error_guarantee(self) -> float | None:
        """The relative-error level sqrt(alpha) / (sqrt(C) - sqrt(alpha))
        that a large-enough block scale certifies; None when C is still
        below alpha and the guarantee is vacuous."""
        root_alpha = math.sqrt(float(self.alpha))
        root_c = math.sqrt(self.C)
        if root_c <= root_alpha:
            return None
        return root_alpha / (root_c - root_alpha)

    def to_json_dict(self, samples_path: str | None = None) -> dict:
        return {
            "delta_C": self.error_guarantee(),
            "C": self.C,
            "trials": self.trials,
            "seed": self.seed,
            "config": list(self.config),
            "mu_log": log_of_fraction(self.mu),
            "mu": {"num": str(self.mu.numerator), "den": str(self.mu.denominator)},
            "emp_mean": self.emp_mean,
            "emp_var": self.emp_var,
            "alpha": float(self.alpha),
            "cheb_budget": self.cheb_budget,
            "edge_scale": str(self.edge_scale),
            "threshold_C": None if self.threshold_C is None else float(self.threshold_C),
            "samples_path": samples_path,
        }


def _alpha_bound(g: Graph, w: WeightSystem) -> Fraction:
    """The variance-bound constant: with w_min the minimum possible
    configuration weight, alpha = 1/w_min + vmax^N * N^2 / (vmin^2 * w_min)."""
    vmin, vmax = w.vertex_extremes()
    n = g.n
    if list(w.edges()):
        emin, _ = w.edge_extremes()
    else:
        emin = Fraction(1)
    w_min = vmin ** n * emin ** g.num_edges
    return 1 / w_min + (vmax ** n) * (n * n) / (vmin ** 2 * w_min)


def _existence_threshold(g: Graph, m: int) -> Fraction | None:
    """Block scale beyond which a single sampled subgraph provably meets
    every relative-error target at once; reported for context only."""
    try:
        cert = certify_biregular(g, bipartition(g))
    except GraphError:
        return None
    a, b = cert.a, cert.b
    return Fraction(m ** g.n) + Fraction(a * g.n * m ** (a + b), a + b)


def concentration_experiment(
    g: Graph,
    w: WeightSystem,
    cfg: SpinConfig,
    C: int,
    trials: int,
    seed: int,
    budget: int = DEFAULT_BUDGET,
) -> BlowupStats:
    """Sample `trials` subgraphs and compare the block-respecting
    homomorphism counts against their target mean C^N * weight(cfg).

    Edge weights above 1 are scaled down first; the reported mean and
    variance statistics refer to the scaled system actually sampled, and
    the applied divisor is recorded alongside.  Before any draw, the
    budget is checked against the largest tensor of the counting plan,
    then against the cells a trial draws (sum over base edges uv of
    B_u * B_v, B the configured block sizes).
    """
    if trials < 2:
        raise ValueError("need at least 2 trials for a variance estimate")
    scaled, edge_scale = scale_edge_weights(w)
    host = build_blowup_host(g, scaled, C)
    sizes = host.configured_sizes(cfg)
    for cost in (contract_cost(sizes, g.edges), sum(sizes[u] * sizes[v] for u, v in g.edges)):
        if cost > budget:
            raise BudgetError(cost, budget)

    def run_trial(t: int) -> int:
        sub = sample_subgraph(host, derive_seed("blowup-trial", seed, t), cfg)
        return count_block_homs(g, sub, host, cfg, budget)

    samples = tuple(run_trial(t) for t in range(trials))
    mu = Fraction(C) ** g.n * weight_of(g, scaled, cfg).fraction
    s1 = sum(samples)
    s2 = sum(x * x for x in samples)
    mean = Fraction(s1, trials)
    var = (Fraction(s2) - Fraction(s1 * s1, trials)) / (trials - 1)
    alpha = _alpha_bound(g, scaled)
    return BlowupStats(
        config=tuple(cfg),
        C=C,
        trials=trials,
        seed=seed,
        mu=mu,
        samples=samples,
        emp_mean=float(mean),
        emp_var=float(var),
        alpha=alpha,
        cheb_budget=float(alpha) / (C * C),
        edge_scale=edge_scale,
        threshold_C=_existence_threshold(g, w.m),
    )
