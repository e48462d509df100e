"""Exact evaluation of configuration weights, partition functions,
list-homomorphism counts and covering-family sums.

Partition functions are sums of products over a factor graph.  All but
the exact K_{a,b} instances with one shared edge table (EXACT conj1
factors; ``uniform_kab_sums``) run on one engine, ``contract``: greedy
variable elimination over ``np.einsum``, planned in full and checked
against the budget before it contracts anything.  The plan (``_plan``,
cached per structure) also fixes the kernel each step runs with in an
exact float64 call, BLAS for the large ones.  So do list-homomorphism
counts (0/1 list rows, adjacency-matrix edge tables).  One call can
contract a batch of instances of one structure, such as the factors of
one bound: the right side of thm3, thm4 or thm5 is one ``cover_sums``
(both class orientations when a == b), those of LOG conj1 and conj2 one
``edge_kab_sums`` per degree pair.
Exact-backend weights are contracted as integer tables in a dtype that
holds every intermediate exactly, and the single scale factor is divided
back out; results are exact rationals.  The integer tables are the form
an EXACT weight system stores (``WeightSystem.cleared``); the bound
kernels read them, or a LOG system's logs, from the system itself, never
from a K_{a,b} restriction built from it.  A bound call turns a system's
rows and tables into arrays once per dtype (``WeightArrays``) for its
left side and every right side.
Log-backend weights are the floats a LOG system stores, contracted
max-shifted with the shifts carried in the log domain; a contraction
that would lose terms to float64 underflow runs the same plan on the
same tables in the log domain instead (``_log_elimination``), so float
range never stops one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Iterable, Sequence

import numpy as np

from .graphs import Bipartition, Graph, complete_bipartite
from .util import ParseError, parse_fields, records
from .values import NEG_INF, Backend, NonNegValue
from .weights import KabInstance, WeightSystem, make_hardcore, uniform_edge

DEFAULT_BUDGET = 10 ** 8

SpinConfig = tuple  # tuple[int, ...] with 1-based spins

try:  # np.einsum's kernel without its dispatch layer, which costs 3 us a call
    from numpy._core.multiarray import c_einsum as _c_einsum
except ImportError:
    _c_einsum = np.einsum
_FLOAT_EXACT_LIMIT = 1 << 53
_INT64_LIMIT = 1 << 62
_TINY = float(np.finfo(np.float64).tiny)
_LOG_TINY = math.log(_TINY)
# Operands per einsum call: numpy accepts fewer than NPY_MAXARGS (32 on
# numpy 1.x, 64 on 2.x).
_MAX_OPERANDS = 31
# Exact float64 steps whose label space, in one instance, has at least
# this many cells go through BLAS (``_plan`` fixes each step's kernel): a
# step of two operands as one ``np.matmul`` (``_matmul``), a step of more
# through einsum's optimize=True path, which never builds an intermediate
# larger than the step's largest operand or output, so the budget still
# bounds memory (folding pairs could exceed it).
# Measured on 0/1 blocks, matmul against the unoptimised kernel: a k^3
# matrix product wins from about 2^10 cells (k = 10: 2.3 against 2.5 us;
# 32: 3.1 against 12 us; 100: 26 against 235 us), but a step whose
# output keeps only labels of both operands (a batch of dot products)
# loses at every size: 100 x 100 6.9 against 5.1 us, 182 x 182 24.3
# against 12.9 us, 300 x 300 69.3 against 32.3 us, so such a step keeps
# the unoptimised kernel.  The path search behind optimize=True costs
# about 20 us a call.
_BLAS_MIN_CELLS = 1 << 15


class BudgetError(ValueError):
    def __init__(self, cost, budget):
        super().__init__(
            f"enumeration cost {cost} exceeds budget {budget}; "
            "raise --budget or shrink the instance"
        )


def check_config(cfg: SpinConfig, n: int, m: int) -> None:
    """ValueError unless cfg gives each of n vertices a spin in 1..m."""
    if len(cfg) != n:
        raise ValueError(f"configuration has {len(cfg)} entries for {n} vertices")
    for s in cfg:
        if not (1 <= s <= m):
            raise ValueError(f"spin {s} out of range 1..{m}")


def weight_of(g: Graph, w: WeightSystem, cfg: SpinConfig) -> NonNegValue:
    """Product of vertex weights and edge weights for one configuration."""
    check_config(cfg, g.n, w.m)
    acc = NonNegValue.one(w.backend)
    for v in g.vertices():
        acc = acc * w.vertex_weight(v, cfg[v])
    for u, v in g.edges:
        acc = acc * w.edge_weight(u, v, cfg[u], cfg[v])
    return acc


# Sum-product engine.  A factor is (variables, table): a tuple of variable
# ids and a table indexed by their values in that order.


@lru_cache(maxsize=4096)
def _plan(sizes: tuple[int, ...], scopes: tuple[tuple[int, ...], ...]):
    """Variable-elimination program for factors over ``scopes``.

    The order is greedy on the interaction graph: eliminate the variable
    whose remaining neighbours span the fewest cells (lowest id on ties).
    Each tensor is consumed at the step of its first-eliminated variable;
    a bucket of more than ``_MAX_OPERANDS`` tensors is first multiplied
    in chunks that keep the eliminated variable.  Returns (free,
    largest, steps): the number of assignments of the variables in no
    scope, the cell count of the largest intermediate tensor, and per
    step the einsum operands as (tensor index, labels) pairs, the output
    labels, the number of products summed into each output cell, the
    cell count of the step's whole label space and the kernel an exact
    float64 call runs it with (``_kernel``; step k appends tensor
    len(scopes) + k).  Every label tuple is led by ``Ellipsis``, the
    batch axis.  The last tensor is the scalar sum.  It depends only on
    the structure, so it is cached, and nothing changes it once made.
    """
    size_of = sizes.__getitem__
    scoped = {x for scope in scopes for x in scope}
    free = math.prod(size for x, size in enumerate(sizes) if x not in scoped)
    nbrs = {x: set() for x in scoped}
    for scope in scopes:
        for x in scope:
            nbrs[x].update(scope)
    cost = {}
    for x, nb in nbrs.items():
        nb.discard(x)
        cost[x] = math.prod(map(size_of, nb))
    largest = 1
    order = []
    remaining = sorted(scoped)
    while remaining:
        v = min(remaining, key=cost.__getitem__)
        largest = max(largest, cost[v])
        remaining.remove(v)
        kept = nbrs[v]
        for u in kept:
            nb = nbrs[u]
            nb |= kept
            nb.discard(u)
            nb.discard(v)
            cost[u] = math.prod(map(size_of, nb))
        order.append((v, tuple(sorted(kept))))

    step_of = {v: k for k, (v, _) in enumerate(order)}
    buckets: list[list[int]] = [[] for _ in order]
    # scalar tensors all go to the last step, so it returns the whole sum
    buckets.append([])
    scope_of = list(scopes)

    def place(i: int) -> None:
        buckets[min(map(step_of.__getitem__, scope_of[i]), default=-1)].append(i)

    for i in range(len(scopes)):
        place(i)
    steps = []
    for (v, kept), bucket in zip(order + [(None, ())], buckets):
        if v is None and len(bucket) < 2:
            break  # the sum is this one scalar tensor, or 1 when there is none
        labels: dict[int, int] = {}
        operands = [
            (i, (..., *[labels.setdefault(x, len(labels)) for x in scope_of[i]])) for i in bucket
        ]
        size = {label: sizes[x] for x, label in labels.items()}
        while len(operands) > _MAX_OPERANDS:
            chunk = operands[:_MAX_OPERANDS]
            part = tuple(sorted({x for i, _ in chunk for x in scope_of[i]}))
            cells = math.prod(map(size_of, part))
            largest = max(largest, cells)
            out = (..., *[labels[x] for x in part])
            steps.append((tuple(chunk), out, 1, cells, _kernel(chunk, out, cells, size)))
            scope_of.append(part)
            operands[:_MAX_OPERANDS] = [(len(scope_of) - 1, out)]
        terms = 1 if v is None else sizes[v]
        cells = math.prod(map(size_of, labels))  # every label is in some operand
        out = (..., *[labels[x] for x in kept])
        steps.append((tuple(operands), out, terms, cells, _kernel(operands, out, cells, size)))
        scope_of.append(kept)
        if v is not None:
            place(len(scope_of) - 1)
    return free, largest, tuple(steps)


def _einsum(tensors, operands, out, optimize=False):
    args = [x for i, labels in operands for x in (tensors[i], labels)]
    return np.einsum(*args, out, optimize=True) if optimize else _c_einsum(*args, out)


def _kernel(operands, out, cells, size):
    """How an exact float64 call runs a plan step over ``cells`` cells
    (one instance), ``size`` mapping each label to its size: through
    BLAS from ``_BLAS_MIN_CELLS`` cells, as one ``_matmul`` for two
    operands of which one has a kept label the other lacks, and through
    einsum's optimize=True path for more operands; else, and for a batch
    of dot products, the unoptimised kernel."""
    if cells < _BLAS_MIN_CELLS or len(operands) < 2:
        return _einsum
    if len(operands) > 2:
        return partial(_einsum, optimize=True)
    (_, (_, *a)), (_, (_, *b)) = operands
    out = out[1:]
    free_a = [x for x in out if x not in b]
    free_b = [x for x in out if x not in a]
    if not free_a and not free_b:  # a batch of dot products
        return _einsum
    # In a plan step every label outside the output is in both operands:
    # each tensor of a bucket holds its eliminated variable, and the step
    # keeps every other variable.
    shared = [x for x in out if x in a and x in b]
    summed = [x for x in a if x not in out]
    p, fa, fb, s = (math.prod(size[x] for x in part) for part in (shared, free_a, free_b, summed))
    middle = shared + free_a + free_b
    program = tuple(  # per operand and for the product, (axes, shape) without and with the batch
        ((tuple(axes), shape), ((0, *[k + 1 for k in axes]), (-1, *shape)))
        for axes, shape in (
            ([a.index(x) for x in shared + free_a + summed], (p, fa, s)),
            ([b.index(x) for x in shared + summed + free_b], (p, s, fb)),
            ([middle.index(x) for x in out], tuple(size[x] for x in middle)),
        )
    )
    return partial(_matmul, program)


def _matmul(program, tensors, operands, out):
    """A plan step of two operands as one ``np.matmul``: the operands are
    transposed and reshaped to (shared, free, summed) and (shared,
    summed, free), the shared labels being those in both operands and the
    output, and the product is reshaped and transposed to the output
    labels, as ``_kernel``'s program says.  An operand with one more axis
    than its labels carries the batch, and the product does when either
    operand does."""
    (unbatched_a, batched_a), (unbatched_b, batched_b), (unbatched, batched) = program
    (i, _), (j, _) = operands
    a, b = tensors[i], tensors[j]
    axes, shape = batched_a if a.ndim > len(unbatched_a[0]) else unbatched_a
    a = a.transpose(axes).reshape(shape)
    axes, shape = batched_b if b.ndim > len(unbatched_b[0]) else unbatched_b
    product = np.matmul(a, b.transpose(axes).reshape(shape))
    axes, shape = batched if product.ndim > 3 else unbatched
    return product.reshape(shape).transpose(axes)


def _exact_dtype(bound: int):
    """The narrowest of float64, int64 and Python ints that holds every
    integer below ``bound`` exactly."""
    return np.float64 if bound < _FLOAT_EXACT_LIMIT else np.int64 if bound < _INT64_LIMIT else object


def _contract_dtype(sizes: Sequence[int], maxima: Sequence[int]):
    """The dtype of an EXACT ``contract`` over these variable sizes and
    table maxima: it holds every partial product and partial sum."""
    return _exact_dtype(math.prod(sizes) * math.prod([top if top > 1 else 1 for top in maxima]))


def _table_max(table) -> int:
    """Largest entry of an integer array or nested sequence of integers."""
    return int(np.max(table))


def _narrow(sizes: Sequence[int], scopes) -> tuple:
    """The scopes without their length-1 variables: such an axis selects
    nothing, and dropping it keeps einsum narrow."""
    if 1 not in sizes:
        return tuple(scopes)
    return tuple(tuple(x for x in scope if sizes[x] != 1) for scope in scopes)


def contract_cost(sizes: Sequence[int], scopes) -> int:
    """The cost ``contract`` checks against its budget for factors over
    ``scopes``: the largest intermediate tensor of the plan, which it
    then finds in the cache."""
    return _plan(tuple(sizes), _narrow(sizes, scopes))[1]


def contract(
    sizes: Sequence[int],
    factors,
    budget: int,
    backend: Backend = Backend.EXACT,
    maxima: Sequence[int] | None = None,
    batch: int | None = None,
):
    """Sum over every assignment of the variables (variable x ranges over
    sizes[x] values) of the product of the factor tables.

    EXACT tables hold non-negative integers (float arrays whole numbers)
    and the result is an int.
    The dtype (float64, int64 or Python ints) is chosen from a bound on
    every intermediate, so nothing rounds or overflows; ``maxima``, when
    given, holds each table's largest entry, which is otherwise read off
    the tables.  The bound covers every partial product and partial sum
    in any order, so a float64 call runs each step with the kernel its
    plan fixed (``_kernel``: BLAS for the large steps) and stays exact.
    LOG tables hold natural logs with -inf for zero and the result is the
    log of the sum, -inf when it is zero; each table and each
    intermediate is divided by its maximum, so sums far outside the float
    range stay finite.  A nonzero entry that falls below the float64
    range after that shift would be lost, so the whole call then runs the
    same plan in the log domain (``_log_elimination``), whose cost, the
    largest step label space, is checked against the budget first: every
    log result is within float rounding of the exact sum.

    With ``batch`` = B it sums B instances of one structure and returns
    a list of B results: a table with one more axis than its variables
    holds one table per instance on that leading axis, any other table
    is shared.  ``maxima`` then holds maxima over the batch; LOG tables
    and intermediates are shifted per instance.  An unbatched call is a
    batch of one whose tables are all shared.

    The cost is the largest intermediate tensor of the planned
    elimination order.  It is checked against the budget before any
    table is converted or contracted, and a batch is contracted in
    chunks of budget // cost instances, so the chunk's tensors stay
    within the budget too.
    """
    scopes = _narrow(sizes, [vars_ for vars_, _ in factors])
    free, largest, steps = _plan(tuple(sizes), scopes)
    if largest > budget:
        raise BudgetError(largest, budget)

    log = backend is Backend.LOG
    if log:
        dtype = np.float64
        total = math.log(free)  # log of everything split off so far
    else:
        total = free
        if maxima is None:
            maxima = [_table_max(table) for _, table in factors]
        dtype = _contract_dtype(sizes, maxima)
    converted, tensors = {}, []  # a table several factors share converts once
    for _, table in factors:
        arr = converted.get(id(table))
        if arr is None:
            arr = table
            if dtype is object and isinstance(arr, np.ndarray) and arr.dtype.kind == "f":
                arr = arr.astype(np.int64)  # so the cells hold Python ints, not floats
            arr = converted[id(table)] = np.asarray(arr, dtype=dtype)
        tensors.append(arr)
    # which tables carry the batch axis
    stacked = [batch is not None and t.ndim > len(v) for t, (v, _) in zip(tensors, factors)]
    n_all = 1 if batch is None else batch
    if 1 in sizes:
        for k, ((vars_, _), scope) in enumerate(zip(factors, scopes)):
            if len(scope) != len(vars_):
                shape = tensors[k].shape[: stacked[k]] + tuple(sizes[x] for x in scope)
                tensors[k] = tensors[k].reshape(shape)
    if log:
        logs = list(tensors)  # unshifted, for the log domain
        shifts = {}  # id(table) -> (its maximum, per instance when stacked; exp of the rest)
        for k, (_, table) in enumerate(factors):
            if id(table) not in shifts:
                arr = tensors[k]
                top = arr.max(axis=tuple(range(1, arr.ndim))) if stacked[k] else float(arr.max())
                if (top == NEG_INF).all() if stacked[k] else top == NEG_INF:
                    return NEG_INF if batch is None else [NEG_INF] * batch
                if stacked[k]:  # an instance whose table is all zero keeps its -inf
                    arr = arr - np.where(top == NEG_INF, 0, top).reshape(-1, *[1] * (arr.ndim - 1))
                else:
                    arr = arr - top
                if arr.min() < _LOG_TINY and (arr[arr < _LOG_TINY] > NEG_INF).any():
                    return _log_elimination(steps, free, logs, stacked, budget, batch)
                shifts[id(table)] = top, np.exp(arr)
            top, tensors[k] = shifts[id(table)]
            total = total + top

    out, chunk = [], budget // largest  # at least 1
    for lo in range(0, n_all, chunk):
        n = min(chunk, n_all - lo)
        if n == n_all:
            part, shift = tensors, total
        else:
            part = [t[lo : lo + n] if b else t for t, b in zip(tensors, stacked)]
            shift = total[lo : lo + n] if np.ndim(total) else total
        shift, last = _run(steps, part, shift, log, dtype)
        if shift is None:  # a LOG step underflowed
            return _log_elimination(steps, free, logs, stacked, budget, batch)
        if log:
            out += shift.tolist() if np.ndim(shift) else [shift] * n
        elif last is None or last.ndim == 0:  # every table was shared
            out += [total if last is None else total * int(last)] * n
        else:
            out += [total * int(x) for x in last.tolist()]
    return out[0] if batch is None else out


def _run(steps, tensors, total, log, dtype):
    """Run a plan's steps on its tensors; return the LOG shift carried so
    far and the last tensor (None if none), or (None, None) if a LOG step
    would lose a nonzero term to underflow.  An EXACT float64 call runs
    each step with the kernel its plan fixed, any other call with the
    unoptimised einsum kernel; batched and unbatched calls run the same
    code."""
    exact64 = not log and dtype is np.float64
    for operands, out, terms, _, kernel in steps:
        result = (kernel if exact64 else _einsum)(tensors, operands, out)
        if dtype is object:  # object einsum returns a bare int for a scalar
            result = np.asarray(result, dtype=object)
        if log:
            # Underflow costs each product at most len(operands) units of
            # 2^-1074, so a cell above `floor` keeps full relative precision;
            # below it, only a cell whose every product has a zero factor is.
            floor = _TINY * (1 << 53) * terms * len(operands)
            if result.min() < floor:
                live = _einsum({i: tensors[i] > 0 for i, _ in operands}, operands, out)
                if (live & (result < floor)).any():
                    return None, None
            if result.ndim < len(out):  # no batch axis: one shift for every instance
                top = float(result.max())
                if top == 0.0:
                    return NEG_INF, None
                total = total + math.log(top)
                result = result / top
            else:
                top = result.max(axis=tuple(range(1, result.ndim)))
                if not top.any():
                    return NEG_INF, None
                total = total + np.array([math.log(x) if x else NEG_INF for x in top.tolist()])
                result = result / np.where(top == 0, 1.0, top).reshape(-1, *[1] * (result.ndim - 1))
        tensors.append(result)
    return total, tensors[-1] if tensors else None


def _log_elimination(steps, free: int, tensors, stacked, budget: int, batch: int | None):
    """``contract``'s LOG sum with every step of its plan (``steps``,
    ``free``) in the log domain: a step adds its operands' logs over its
    label space and log-sum-exps the eliminated variable out, so no term
    underflows however far the logs spread.  ``tensors`` are ``contract``'s
    narrowed, unshifted log tables and ``stacked`` says which carry the
    batch axis.  Slower than ``contract``.  The cost is the largest step
    label space, checked before any step runs; a batch runs in chunks of
    budget // cost instances."""
    cost = max([cells for _, _, _, cells, _ in steps], default=1)
    if cost > budget:
        raise BudgetError(cost, budget)
    # every tensor leads with a batch axis, of length 1 when it is shared
    tensors = [t if b else t[None] for t, b in zip(tensors, stacked)]
    n_all, chunk, out = 1 if batch is None else batch, budget // cost, []
    for lo in range(0, n_all, chunk):
        part = [t[lo : lo + chunk] if b else t for t, b in zip(tensors, stacked)]
        for operands, (_, *out_labels), *_ in steps:
            space = sorted({x for _, (_, *labels) in operands for x in labels})
            full = sum(  # each operand over the whole label space, axes in label order
                np.expand_dims(
                    part[i].transpose(0, *(np.argsort(labels) + 1)),
                    [k + 1 for k, x in enumerate(space) if x not in labels],
                )
                for i, (_, *labels) in operands
            )
            gone = tuple(k + 1 for k, x in enumerate(space) if x not in out_labels)
            top = full.max(axis=gone, keepdims=True)
            top = np.where(top == NEG_INF, 0.0, top)
            with np.errstate(divide="ignore"):
                full = np.log(np.exp(full - top).sum(axis=gone)) + top.squeeze(axis=gone)
            kept = [x for x in space if x in out_labels]
            part.append(full.transpose(0, *[kept.index(x) + 1 for x in out_labels]))
        last = part[-1] if part else np.zeros(1)
        out += np.broadcast_to(math.log(free) + last, (min(chunk, n_all - lo),)).tolist()
    return out[0] if batch is None else out


# Nothing calls _int_tables, and no bound calls partition_kab; both keep their names, which
# perfbench's tracer wraps, until the restriction layer goes.
def _int_tables(w: WeightSystem):
    """Cleared (entries, denominator, maximum) rows and tables of an EXACT
    system and the scale they carry: the product of their denominators."""
    rows, tables = w.cleared()
    scale = math.prod(den for _, den, _ in rows) * math.prod(den for _, den, _ in tables.values())
    return rows, tables, scale


class WeightArrays:
    """A weight system's rows and tables over g as the arrays the kernels
    read: the vertex rows (n x m) and one m x m table per edge, in
    ``g.edges`` order, converted once per dtype on first use.  One bound
    call builds it (``weight_arrays``, ``list_weights``) and shares it
    between its left side and every right side; it is not kept on the
    weight system.

    EXACT arrays hold the stored integers, and ``row_den``/``edge_den``
    and ``row_top``/``edge_top`` each row's and table's denominator and
    maximum (or an upper bound); ``top_r``/``top_t`` are the largest
    maxima (at least 1) and ``scaled`` says whether any denominator is
    not 1.  LOG arrays hold natural logs.  ``shared`` says whether every
    edge (of at least two) carries one stored table.
    """

    __slots__ = ("backend", "m", "row_den", "edge_den", "row_top", "edge_top", "top_r", "top_t",
                 "scaled", "shared", "_stored", "_arrays")

    def __init__(self, backend, m, stored, den=None, top=None, arrays=None):
        self.backend = backend
        self.m = m
        self._stored = stored  # (row entries, table entries) to convert, or None
        self._arrays = arrays or {}
        tables = stored[1] if stored else ()
        self.shared = len(tables) > 1 and all([t is tables[0] for t in tables])
        self.row_den, self.edge_den = den or ((), ())
        self.row_top, self.edge_top = top or ((), ())
        self.top_r = max(self.row_top, default=1) or 1
        self.top_t = max(self.edge_top, default=1) or 1
        self.scaled = any([d != 1 for d in self.row_den]) or any([d != 1 for d in self.edge_den])

    def arrays(self, dtype) -> tuple:
        """(vertex rows, edge tables) in dtype; a table every edge shares
        converts once."""
        got = self._arrays.get(dtype)
        if got is None:
            rows, tables = self._stored
            m = self.m
            vertex = np.array([x for r in rows for x in r], dtype).reshape(len(rows), m)
            edge = np.array([x for t in tables[: 1 if self.shared else None] for r in t for x in r], dtype)
            edge = edge.reshape(-1, m, m)
            if self.shared:
                edge = edge.repeat(len(tables), axis=0)
            got = self._arrays[dtype] = vertex, edge
        return got


def weight_arrays(g: Graph, w: WeightSystem) -> WeightArrays:
    """The ``WeightArrays`` of the system w over g, nothing converted yet."""
    if w.backend is Backend.LOG:
        rows, tables = w.logs()
        return WeightArrays(Backend.LOG, w.m, (rows, [tables[e] for e in g.edges]))
    rows, tables = w.cleared()
    tables = [tables[e] for e in g.edges]
    row_entries, row_den, row_top = zip(*rows)
    edge_entries, edge_den, edge_top = zip(*tables) if tables else ((), (), ())
    return WeightArrays(
        Backend.EXACT, w.m, (row_entries, edge_entries), (row_den, edge_den), (row_top, edge_top)
    )


def _partitions(g: Graph, arrays: Sequence[WeightArrays], budget: int) -> list:
    """Partition functions over g of the systems given by their
    ``WeightArrays`` (one spin count and backend), one factor per vertex
    and one per edge, in one ``contract`` call: a batch of stacked tables
    when there are several systems.  The tables are converted in the
    dtype that call picks."""
    first = arrays[0]
    exact, sizes = first.backend is Backend.EXACT, [first.m] * g.n
    maxima, dtype = None, np.float64
    if exact:  # each factor's maximum over the batch
        maxima = [max(tops) for tops in zip(*[a.row_top + a.edge_top for a in arrays])]
        dtype = _contract_dtype(sizes, maxima)
    tables = [a.arrays(dtype) for a in arrays]
    if len(arrays) == 1:
        (vertex, edge), batch = tables[0], None
    else:  # stacked by system, then indexed by factor: each factor's tables lead with the batch
        vertex, edge = (np.stack(t, axis=1) for t in zip(*tables))
        batch = len(arrays)
    # one table object for a table every edge shares, so contract converts and shifts it once
    edge = [edge[0]] * len(edge) if all([a.shared for a in arrays]) else list(edge)
    factors = [((v,), vertex[v]) for v in range(g.n)] + list(zip(g.edges, edge))
    zs = contract(sizes, factors, budget, first.backend, maxima, batch)
    zs = zs if batch else [zs]
    if not exact:
        return [NonNegValue.from_log(z) for z in zs]
    scales = [math.prod(a.row_den) * math.prod(a.edge_den) for a in arrays]
    return [NonNegValue.exact(Fraction(z, scale)) for z, scale in zip(zs, scales)]


def partition_function(g: Graph, w: WeightSystem, budget: int = DEFAULT_BUDGET) -> NonNegValue:
    """Partition function by variable elimination over one factor per
    vertex and one per edge, in either backend.

    The budget bounds the largest intermediate tensor of the planned
    elimination order (m to the power of the widest elimination
    neighbourhood), not m^n, and is checked before any contraction.
    Always equal to the sum of ``weight_of`` over all m^n configurations:
    exactly on the EXACT backend, up to float rounding on the LOG backend.
    LOG weights whose products leave the float64 range are summed in the
    log domain, where the budget bounds each step's label space.
    """
    return _partitions(g, [weight_arrays(g, w)], budget)[0]


def _count_vectors(side: Sequence[tuple], units: Sequence[int]) -> dict:
    """{c: the sum over the side's assignments with c[i] vertices at spin i
    of the product of their row entries}, c written as sum_i c[i] * units[i]."""
    groups = {0: 1}
    for row in side:
        new: dict[int, int] = {}
        for counts, acc in groups.items():
            for unit, x in zip(units, row):
                if x:
                    new[counts + unit] = new.get(counts + unit, 0) + acc * x
        groups = new
    return groups


def uniform_kab_sums(items: Sequence[tuple], budget: int = DEFAULT_BUDGET) -> list:
    """Partition functions, times the product of every row and table
    denominator, of K_{a,b} instances whose edges share one table.  An
    item is (table, side_s, side_t) in cleared entries.  A side_t vertex
    with row r contributes f_r(c) = sum_i r[i] prod_j T[i][j]^c[j], which
    depends on side_s only through its spin-count vector c, so the result
    is sum_c DP(c) * prod_{r in side_t} f_r(c), DP being ``_count_vectors``
    over side_s.  Two memos keyed by object identity (the items of one
    system share its stored rows and table) serve every item of the call:
    the DP by side_s, and the T-power products prod_j T[i][j]^c[j] by
    (table, c).  An item costs its number of count vectors,
    comb(|side_s| + m - 1, m - 1); all are checked before any DP runs.
    """
    for table, side_s, _ in items:
        cost = math.comb(len(side_s) + len(table) - 1, len(table) - 1)
        if cost > budget:
            raise BudgetError(cost, budget)
    base = max([len(side_s) for _, side_s, _ in items], default=0) + 1
    units = [base ** i for i in range(max([len(table) for table, _, _ in items], default=0))]
    groups_of, products_of, out = {}, {}, []
    for table, side_s, side_t in items:
        key = tuple(map(id, side_s))
        groups = groups_of.get(key)
        if groups is None:
            groups = groups_of[key] = _count_vectors(side_s, units)
        total = 0
        for counts, acc in groups.items():
            products = products_of.get((id(table), counts))
            if products is None:
                powers = [counts // unit % base for unit in units]
                products = [math.prod(map(pow, t_row, powers)) for t_row in table]
                products_of[id(table), counts] = products
            total += acc * math.prod([sum(map(operator.mul, row, products)) for row in side_t])
        out.append(total)
    return out


def edge_kab_sums(g: Graph, rows: np.ndarray, table: np.ndarray, budget: int, backend: Backend) -> list:
    """Per system, the partition function of the K_{d(u),d(v)} restriction
    of each edge uv of g, in edge order: the w side takes the rows of
    N(v), the z side those of N(u), and every edge the table, indexed
    (w spin, z spin).  ``rows`` is B x n x m and ``table`` m x m (shared)
    or B x m x m, both in the backend's form (EXACT integers, LOG logs).
    The edges of one degree pair (d(u), d(v)) over every system are one
    ``contract`` batch, in (system, edge) order."""
    groups: dict[tuple[int, int], list] = {}
    for k, (u, v) in enumerate(g.edges):
        groups.setdefault((g.degree(u), g.degree(v)), []).append(k)
    m = rows.shape[2]
    out = [[None] * g.num_edges for _ in range(len(rows))]
    for (a, b), ids in groups.items():
        kab = complete_bipartite(b, a)  # w side on 0..b-1, z side on b..b+a-1
        sources = [(*g.neighbors(v), *g.neighbors(u)) for u, v in (g.edges[k] for k in ids)]
        picked = rows[:, sources].reshape(-1, a + b, m)
        edge = table if table.ndim == 2 else table.repeat(len(ids), axis=0)
        factors = [((x,), picked[:, x]) for x in range(a + b)] + [(e, edge) for e in kab.edges]
        sums = contract([m] * (a + b), factors, budget, backend, batch=len(picked))
        for i, z in enumerate(sums):
            out[i // len(ids)][ids[i % len(ids)]] = z
    return out


def edge_kab_partitions(g: Graph, ws: Sequence[WeightSystem], budget: int = DEFAULT_BUDGET) -> list:
    """For each system w of ws (one backend) and each edge uv of g, Z of
    K_{d(u),d(v)} with w's stored rows of N(v) on one side, of N(u) on
    the other and w's shared table on every edge; mixed edge tables raise
    WeightError.  EXACT: one ``uniform_kab_sums`` call over every system,
    with the DP over the smaller of N(u) and N(v), so one DP serves every
    edge at a vertex.  LOG: one ``edge_kab_sums`` call."""
    log = ws[0].backend is Backend.LOG
    stored = [w.logs() if log else w.cleared() for w in ws]
    shared = [tables[uniform_edge(w)] for w, (_, tables) in zip(ws, stored)]
    if log:
        rows = np.array([logs for logs, _ in stored])
        zs = edge_kab_sums(g, rows, np.array(shared), budget, Backend.LOG)
        return [[NonNegValue.from_log(z) for z in f] for f in zs]
    ends = [(u, v) if g.degree(u) <= g.degree(v) else (v, u) for u, v in g.edges]
    items, scales = [], []
    for (rows, _), (table, den, _) in zip(stored, shared):
        sides = [[rows[x][0] for x in g.neighbors(v)] for v in range(g.n)]
        dens = [math.prod(rows[x][1] for x in g.neighbors(v)) for v in range(g.n)]
        items += [(table, sides[s], sides[t]) for s, t in ends]
        scales += [dens[s] * dens[t] * den ** (len(sides[s]) * len(sides[t])) for s, t in ends]
    zs = uniform_kab_sums(items, budget)
    values = [NonNegValue.exact(Fraction(z, scale)) for z, scale in zip(zs, scales)]
    return [values[k : k + len(ends)] for k in range(0, len(values), len(ends))]


def partition_kab(inst: KabInstance, budget: int = DEFAULT_BUDGET) -> NonNegValue:
    """Partition function of one labeled K_{a,b} instance: its
    ``partition_function``, whose largest tensor has m^min(a,b) cells,
    over the rows and tables it shares with its parent."""
    return partition_function(inst.graph, inst.weights, budget)


def independent_set_count(g: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Number of independent sets, via the hard-constraint two-spin system."""
    z = partition_function(g, make_hardcore(g, 1), budget)
    frac = z.fraction
    assert frac.denominator == 1
    return frac.numerator


class ListAssignment:
    """Per-vertex allowed-target sets for list homomorphism counting."""

    __slots__ = ("n", "lists", "_rows", "_text")

    def __init__(self, n: int, lists: Sequence[Iterable[int]]):
        """lists[v] is L(v), for each of the n vertices."""
        if len(lists) != n:
            raise ValueError(f"expected {n} lists, got {len(lists)}")
        self.n = n
        self.lists = tuple(tuple(sorted(set(row))) for row in lists)
        self._rows = {}  # target count -> indicator rows, built by indicator_rows
        self._text = None  # to_text(), on first use

    @classmethod
    def full(cls, g: Graph, h: Graph) -> "ListAssignment":
        return cls(g.n, [range(h.n)] * g.n)

    def __getitem__(self, v: int) -> tuple[int, ...]:
        return self.lists[v]

    def indicator_rows(self, k: int) -> np.ndarray:
        """The read-only n x k float 0/1 array whose row v marks L(v) in
        a target on k vertices; ValueError for the first target outside
        0..k-1.  Built once per target count, however many kernels ask."""
        rows = self._rows.get(k)
        if rows is None:
            for v, row in enumerate(self.lists):  # rows are sorted: check the ends
                if row and (row[0] < 0 or row[-1] >= k):
                    bad = next(y for y in row if not 0 <= y < k)
                    raise ValueError(f"list of vertex {v} mentions unknown target {bad}")
            rows = np.zeros((self.n, k))
            rows.put([v * k + y for v, row in enumerate(self.lists) for y in row], 1.0)
            rows.flags.writeable = False
            self._rows[k] = rows
        return rows

    def to_text(self) -> str:
        if self._text is None:
            lines = []
            for v, row in enumerate(self.lists):
                lines.append("l " + " ".join([str(v)] + [str(y) for y in row]))
            self._text = "\n".join(lines) + "\n"
        return self._text

    def __eq__(self, other):
        if not isinstance(other, ListAssignment):
            return NotImplemented
        return self.lists == other.lists

    def __hash__(self):
        return hash(self.lists)

    def __repr__(self):
        return f"ListAssignment(n={self.n})"


def parse_lists(text: str, g: Graph, h: Graph) -> ListAssignment:
    """Parse `l <v> <targets...>` lines; unmentioned vertices get full lists.

    A bare `l <v>` line assigns the empty list explicitly.
    """
    rows: dict[int, list[int]] = {}
    for lineno, line in records(text):
        parts = line.split()
        if parts[0] != "l" or len(parts) < 2:
            raise ParseError("expected 'l <v> <targets...>'", lineno)
        v, *targets = parse_fields(parts[1:], ParseError("ids must be integers", lineno))
        if not (0 <= v < g.n):
            raise ParseError(f"vertex {v} out of range", lineno)
        if v in rows:
            raise ParseError(f"duplicate list for vertex {v}", lineno)
        for y in targets:
            if not (0 <= y < h.n):
                raise ParseError(f"target {y} out of range", lineno)
        rows[v] = targets
    return ListAssignment(g.n, [rows.get(v, range(h.n)) for v in range(g.n)])


def _list_rows(g: Graph, h: Graph, lists: ListAssignment) -> np.ndarray:
    """The indicator rows of lists over V(h), checked to be lists for g."""
    if lists.n != g.n:
        raise ValueError("list assignment length does not match the graph")
    return lists.indicator_rows(h.n)


@lru_cache(maxsize=64)
def count_list_homs(g: Graph, h: Graph, lists: ListAssignment, budget: int = DEFAULT_BUDGET) -> int:
    """Number of maps f with f(v) in L(v) mapping every edge of g onto an
    edge of h: the partition function with the list indicator rows and
    h's adjacency matrix on every edge, in one ``contract`` call; the
    budget bounds its plan.  Memoised (arguments hash by content): thm4,
    thm5 and conj2 share it."""
    rows, adj = _list_rows(g, h, lists), h.adjacency_matrix()
    factors = [((v,), rows[v]) for v in range(g.n)] + [(e, adj) for e in g.edges]
    return contract([h.n] * g.n, factors, budget, maxima=[1] * len(factors))


def list_weights(g: Graph, h: Graph, lists: ListAssignment) -> WeightArrays:
    """List homomorphisms of g into h as ``cover_sums`` weights: each
    vertex row marks its list, every edge carries h's adjacency matrix.
    The arrays are the ones ``count_list_homs`` reads, in float64, the
    only dtype a 0/1 system's kernels pick."""
    rows = _list_rows(g, h, lists)
    edge = h.adjacency_matrix()[None].repeat(g.num_edges, axis=0)
    ones = ((1,) * g.n, (1,) * g.num_edges)
    return WeightArrays(Backend.EXACT, h.n, None, ones, ones, {np.float64: (rows, edge)})


def cover_sums(
    g: Graph,
    weights: WeightArrays,
    pairs: Sequence[tuple[frozenset, frozenset]],
    exponent: Fraction,
    budget: int = DEFAULT_BUDGET,
) -> list:
    """For each pair (A, B) of vertex sets of g, the sum over the spin maps
    x on A of prod_{u in A} r_u(x_u) * prod_{v in B} c_v(x) ** exponent,
    where c_v(x) = sum_s r_v(s) prod_{u in N(v) & A} T_uv(x_u, s).

    The rows r_v and tables T_uv are the ``WeightArrays`` weights (EXACT
    integers over their denominators, or LOG natural logs).  With (A, B)
    = (N(v), {v}) and exponent a the sum is the partition function of the
    K_{a,b} restriction around v, whose a copies of v each contribute c_v.
    Pairs of one shape are one batch, whichever class A lies in (thm3
    and thm4 pass both orientations at once): one einsum per B position
    builds every pair's c_v tables (a log-sum-exp over s on LOG inputs),
    and one ``contract`` call sums them.  EXACT inputs and an integer exponent
    give exact values, the integer sums divided by prod_{u in A} den_u *
    prod_{v in B} (den_v prod_u den_uv) ** exponent; c_v takes float64,
    int64 or Python ints from the bound m * max r * (max T) ** |N(v) & A|,
    c_v ** exponent from its largest entry.  Otherwise the values are
    LOG.  The budget bounds the plan and every c_v table, m ** |N(v) & A|
    cells (times m on LOG inputs, whose terms over s are held at once):
    each shape's pairs run in chunks of budget // (that cost), so every
    batch of tables stays within the budget too.
    """
    exact = weights.backend is Backend.EXACT
    to_log = not exact or exponent.denominator != 1
    m = weights.m
    groups = _cover_layout(g, tuple(pairs))
    width = max([len(scope) for _, scopes, *_ in groups for scope in scopes], default=0)
    cost = m ** (width + (not exact))
    if cost > budget:
        raise BudgetError(cost, budget)
    row_den, edge_den, top_r, scaled = weights.row_den, weights.edge_den, weights.top_r, weights.scaled
    dtype = _exact_dtype(m * top_r * weights.top_t ** width) if exact else np.float64
    vertex, edge = weights.arrays(dtype)
    power = exponent.numerator / exponent.denominator if to_log else exponent.numerator

    out, chunk = [None] * len(pairs), budget // cost  # pairs whose c_v tables fit the budget
    for size, scopes, members, a_ids, b_ids in groups:
        for lo in range(0, len(members), chunk):
            part = slice(lo, lo + chunk)
            a_rows = vertex[a_ids[part]]
            factors = [((i,), a_rows[:, i]) for i in range(size)]
            maxima = None if to_log else [top_r] * size
            for scope, (v_ids, e_ids) in zip(scopes, b_ids):
                r_v, t_uv = vertex[v_ids[part]], edge[e_ids[part]]
                axes = range(1, len(scope) + 1)
                if exact:
                    operands = [r_v, [..., 0]]
                    for i in axes:
                        operands += [t_uv[:, i - 1], [..., i, 0]]
                    counts = _c_einsum(*operands, [..., *axes])
                    counts = counts.astype(np.int64) if dtype is np.float64 else counts
                    if not to_log:  # else its log times the exponent, taken below
                        maxima.append(int(counts.max()) ** power)
                        if maxima[-1] >= _INT64_LIMIT:
                            counts = counts.astype(object)
                        counts = counts ** power
                else:
                    terms = np.expand_dims(r_v, tuple(axes))
                    for i in axes:
                        others = tuple(j for j in axes if j != i)
                        terms = terms + np.expand_dims(t_uv[:, i - 1], others)
                    counts = np.logaddexp.reduce(terms, axis=-1) * power
                factors.append((scope, counts))
            if to_log and exact:
                with np.errstate(divide="ignore"):  # log 0 = -inf, a zero weight's log
                    factors = [(x, np.log(t) * power if k >= size else np.log(t))
                               for k, (x, t) in enumerate(factors)]
            backend_out = Backend.LOG if to_log else Backend.EXACT
            sums = contract([m] * size, factors, budget, backend_out, maxima, len(a_rows))
            for (k, a_set, b_edges), z in zip(members[part], sums):
                if scaled:
                    a_scale = math.prod([row_den[u] for u in a_set])
                    c_scale = math.prod([row_den[v] * math.prod([edge_den[e] for e in es])
                                         for v, es in b_edges])
                    z = (z - math.log(a_scale) - power * math.log(c_scale) if to_log
                         else Fraction(z, a_scale * c_scale ** power))
                out[k] = NonNegValue.from_log(z) if to_log else NonNegValue.exact(z)
    return out


@lru_cache(maxsize=256)
def _cover_layout(g: Graph, pairs: tuple) -> tuple:
    """``cover_sums``'s pairs by shape (|A|, each v in B's scope in A):
    per shape, per pair (index, A, (v, edge ids to N(v) & A) per v in B),
    and the index arrays of A and of each B position's v and edges."""
    edge_id = {e: k for k, e in enumerate(g.edges)}
    shapes: dict[tuple, list] = {}
    for k, (a_set, b_set) in enumerate(pairs):
        a_sorted = sorted(a_set)
        pos = {u: i for i, u in enumerate(a_sorted)}
        scoped = sorted((tuple(pos[u] for u in g.neighbors(v) if u in pos), v) for v in b_set)
        b_edges = [(v, tuple(edge_id[min(u, v), max(u, v)] for u in g.neighbors(v) if u in pos))
                   for _, v in scoped]
        key = (len(a_sorted), tuple(scope for scope, _ in scoped))
        shapes.setdefault(key, []).append((k, tuple(a_sorted), b_edges))
    groups = []
    for (size, scopes), members in shapes.items():
        ids = lambda col, width: np.array(col, np.intp).reshape(len(members), width)
        b_ids = [(ids([b[j][0] for *_, b in members], 1)[:, 0],
                  ids([b[j][1] for *_, b in members], len(scope))) for j, scope in enumerate(scopes)]
        groups.append((size, scopes, members, ids([a for _, a, _ in members], size), b_ids))
    return tuple(groups)


@dataclass(frozen=True)
class CoverFamilyPair:
    """Indexed pairs (A_i, B_i) of subsets of the two bipartition classes
    with cover multiplicities t1 (over A's) and t2 (over B's)."""

    pairs: tuple[tuple[frozenset, frozenset], ...]
    t1: int
    t2: int

    def __post_init__(self):
        if self.t1 < 1 or self.t2 < 1:
            raise ValueError("cover multiplicities must be >= 1")

    def validate(self, bp: Bipartition) -> None:
        for idx, (a_i, b_i) in enumerate(self.pairs):
            if not a_i <= bp.even:
                bad = sorted(a_i - bp.even)[0]
                raise ValueError(f"pair {idx}: vertex {bad} is not in the even class")
            if not b_i <= bp.odd:
                bad = sorted(b_i - bp.odd)[0]
                raise ValueError(f"pair {idx}: vertex {bad} is not in the odd class")
        for v in sorted(bp.even):
            hits = sum(1 for a_i, _ in self.pairs if v in a_i)
            if hits < self.t1:
                raise ValueError(
                    f"vertex {v} is covered by {hits} A-sets, fewer than t1={self.t1}"
                )
        for v in sorted(bp.odd):
            hits = sum(1 for _, b_i in self.pairs if v in b_i)
            if hits < self.t2:
                raise ValueError(
                    f"vertex {v} is covered by {hits} B-sets, fewer than t2={self.t2}"
                )


def parse_cover_family(text: str) -> CoverFamilyPair:
    """Parse a families file: a `t <t1> <t2>` header, then alternating
    `A <ids...>` / `B <ids...>` lines, one pair per A/B couple."""
    t1 = t2 = None
    pairs: list[tuple[frozenset, frozenset]] = []
    pending_a: frozenset | None = None
    for lineno, line in records(text):
        directive, *fields = line.split()
        if directive not in ("t", "A", "B"):
            raise ParseError(f"unknown directive {directive!r}", lineno)
        ids = parse_fields(fields, ParseError(f"{directive} takes integers", lineno))
        if directive == "t":
            if len(ids) != 2:
                raise ParseError("expected 't <t1> <t2>'", lineno)
            if t1 is not None:
                raise ParseError("duplicate 't' header", lineno)
            t1, t2 = ids
        elif directive == "A":
            if pending_a is not None:
                raise ParseError("A line without a matching B line", lineno)
            pending_a = frozenset(ids)
        else:
            if pending_a is None:
                raise ParseError("B line without a preceding A line", lineno)
            pairs.append((pending_a, frozenset(ids)))
            pending_a = None
    if t1 is None or t2 is None:
        raise ValueError("missing 't <t1> <t2>' header")
    if pending_a is not None:
        raise ValueError("trailing A line without a matching B line")
    return CoverFamilyPair(pairs=tuple(pairs), t1=t1, t2=t2)
