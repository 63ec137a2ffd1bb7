"""Coordinate fitting by regularized squared-distance least squares.

Given target squared distances t_ij over a sparse pair set P, the fit
minimizes

    f(x) = sum_{(i,j) in P} (|x^i - x^j|^2 - t_ij)^2 + lam * sum_i |x^i|^2

whose gradient at item i is

    df/dx^i = sum_{pairs containing i} 4 (x^i - x^j)(|x^i - x^j|^2 - t_ij)
              + 2 lam x^i.

The objective is non-convex, so only a local minimum is found and the start
point matters: an all-equal initialization (e.g. all zeros) is a stationary
point with exactly zero gradient, so coordinates must be randomized. They
start uniform in [-s, s] per component with s = sqrt(3 median(t) / (2 D)),
the scale at which a pair's expected squared distance, 2 D s^2 / 3, equals
the median target. Descent is limited-memory quasi-Newton (two-loop
recursion) with Armijo backtracking, degrading to plain gradient steps
whenever no valid curvature pairs are held.

Two rules stop the fit before its iteration cap. The gradient rule stops
once the gradient norm falls to the configured fraction of its start
(``stop_reason`` "gradient_tolerance"). The objective rule stops once ten
iterations lowered f by at most 1e-5 of its value, f[k-10] - f[k] <=
1e-5 f[k] (``stop_reason`` "objective_decrease"), the ``ftol`` test of
L-BFGS-B: least squares on squared distances flattens out long before its
gradient reaches a small relative tolerance.

Every reduction the fit makes to a scalar (the objective, inner products
and norms) runs through numpy's own einsum loops rather than BLAS, whose
threaded dot products sum in an order that depends on the thread count; so a
seed gives the same coordinates under any ``OPENBLAS_NUM_THREADS``.

Each line-search trial gathers its pair differences once, into the one
pairs-by-dim array the kernel holds: the ``ii`` side whole, then the ``jj``
side subtracted from it in blocks of ``_BLOCK`` pairs. The accepted trial's
gradient is summed from that same array by a plan per pair side, built once
per fit: with items ranked by their number of pairs on the side, step k
adds every item's k-th pair term to its accumulator row in one gather and
one slice addition, and once fewer than ``_MIN_ROWS`` items have terms
left, one ``np.add.at`` adds the hub items' rest. Each bin still sums its
terms in pair order from 0.0, as one flat ``bincount`` would, so the plan
changes no byte; ``np.add.reduceat`` would, as its reductions reassociate.
An iteration whose line search takes its first step gathers the pairs once
for value and gradient together. The fit trace records, per accepted
iterate, the objective, the gradient norm and the number of objective
evaluations the line search spent on it.

A fit on two or more CPUs shares its kernel with one forked helper process
once it has run ``_HELPER_AFTER`` iterations on a graph of at least
``_HELPER_MIN_ELEMENTS`` pairs x dim elements; if its cap leaves room for
that, its arrays live in the maps the helper will share from its first
evaluation on, so no freed pairs-by-dim array stays resident beside them.
From the fork on each trial's pairs are split at their midpoint: this
process gathers, takes the row norms and scales the first half, the helper
the second, into arrays in shared memory, and of the accepted trial's
gradient this process sums the ``ii`` side while the helper sums the ``jj``
side. Both run the same range functions on the same operands, and every
reduction to a scalar (the objective, inner products and norms) stays in
this process over whole arrays, so a fit writes the same bytes with or
without its helper, whatever the CPU count; ``FitTrace.processes`` records
which it was. The helper leaves only by ``os._exit``, and the fit reaps it
however it ends.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import warnings
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .affinity import AffinityGraph
from .errors import DivergenceError, MissingItemError, ValidationError
from .model import EmbeddingModel, ModelParams, _inverse_law

_ARMIJO_C1 = 1e-4
#: the objective rule: stop once f[k - _FTOL_WINDOW] - f[k] <= _FTOL * f[k]
_FTOL_WINDOW = 10
_FTOL = 1e-5
#: curvature pairs the two-loop recursion keeps
_MEMORY = 10
_MAX_BACKTRACKS = 60
_CURVATURE_EPS = 1e-10
#: pairs the kernel gathers at a time beside its one pairs x dim array
_BLOCK = 2048
#: fewest items a gradient plan step adds to; the hub items' terms left once
#: fewer items have terms go through one ``np.add.at``
_MIN_ROWS = 32
#: stop rules that count as convergence
_CONVERGED = ("gradient_tolerance", "objective_decrease", "stationary_start")
#: iterations a fit runs alone before it may fork a helper: the fork and its
#: shared maps cost a few ms, which a fit that stops sooner never repays
_HELPER_AFTER = 10
#: fewest pairs x dim elements for which a helper is forked: on smaller
#: graphs its pipe round trips cost more than half an evaluation saves
_HELPER_MIN_ELEMENTS = 200_000
#: the helper's two commands; it answers each with the same byte once done
_RESIDUALS = b"r"
_JJ_SUM = b"j"


@dataclass(frozen=True)
class FitConfig:
    """Knobs for one embedding fit; the tolerance is relative to the
    initial gradient norm."""

    params: ModelParams
    seed: int = 0
    max_iterations: int = 500
    gradient_tolerance: float = 1e-4

    def __post_init__(self):
        if not self.gradient_tolerance > 0:
            raise ValueError("gradient_tolerance must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class FitTrace:
    """Objective/gradient history over accepted iterates."""

    objectives: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    #: objective evaluations per accepted iterate: 1 for the start and for a
    #: line search that takes its first step, plus one per backtrack
    evaluations: list[int] = field(default_factory=list)
    iterations: int = 0
    #: the rule that ended the fit: one of ``_CONVERGED``, "max_iterations"
    #: or "line_search_failed"
    stop_reason: str = ""
    #: processes that evaluated the fit: 2 once a forked helper took half of
    #: each evaluation, else 1; the fit's bytes are the same either way
    processes: int = field(default=1, compare=False)

    @property
    def converged(self) -> bool:
        return self.stop_reason in _CONVERGED

    @property
    def final_grad_norm(self) -> float:
        """The last accepted iterate's gradient norm; NaN before the first."""
        return self.grad_norms[-1] if self.grad_norms else math.nan


def objective(
    coords: Mapping[str, Sequence[float]],
    targets: Mapping[tuple[str, str], float],
    lam: float,
) -> float:
    """Evaluate f at a coordinate assignment given sparse distance targets,
    with the fit's own kernel."""
    problem, x, _ = _keyed_problem(coords, targets, lam)
    return problem.value(x)


def gradient(
    coords: Mapping[str, Sequence[float]],
    targets: Mapping[tuple[str, str], float],
    lam: float,
) -> dict[str, np.ndarray]:
    """Analytic gradient of ``objective``, one vector per item."""
    problem, x, items = _keyed_problem(coords, targets, lam)
    problem.value(x)
    grad = problem.grad().reshape(len(items), problem.dim)
    return {item: grad[k] for k, item in enumerate(items)}


def _keyed_problem(coords, targets, lam: float):
    """The fit's kernel over item-keyed coordinates and pair targets: returns
    the problem, the flattened coordinates and the item order of their rows.
    Raises MissingItemError naming a target item without coordinates,
    ValidationError naming an item whose coordinates are not a vector of the
    first item's length, and ValueError for a negative or non-finite lam."""
    if not 0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    items = list(coords)
    index = {item: k for k, item in enumerate(items)}
    try:
        ii = np.fromiter((index[i] for i, _ in targets), np.intp, len(targets))
        jj = np.fromiter((index[j] for _, j in targets), np.intp, len(targets))
    except KeyError as missing:
        raise MissingItemError(f"no coordinates for item {missing.args[0]!r}") from None
    d2 = np.fromiter(targets.values(), np.float64, len(targets))
    rows = [np.asarray(coords[item], dtype=np.float64) for item in items]
    for item, row in zip(items, rows):
        if row.ndim != 1:
            raise ValidationError(f"coordinates of item {item!r} are not a vector")
        if len(row) != len(rows[0]):
            raise ValidationError(
                f"item {item!r} has {len(row)} coordinates, "
                f"item {items[0]!r} has {len(rows[0])}"
            )
    dim = len(rows[0]) if rows else 0
    problem = _PairObjective(len(items), dim, ii, jj, d2, lam)
    return problem, np.array(rows).ravel(), items


def build_targets(
    graph: AffinityGraph, alpha: float
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Invert every stored pair estimate into a squared-distance target.

    Returns (sorted item ids, pair index arrays ii/jj, target array), the
    vectorized problem layout the fitter consumes: the graph's own arrays.
    """
    ii, jj, kappa = graph.ii, graph.jj, graph.kappa
    return graph.ids, ii, jj, _inverse_law(graph.p, kappa[ii], kappa[jj], alpha)


class _PairObjective:
    """Vectorized f and grad-f over flattened coordinates.

    ``value(x)`` keeps the pair differences and residuals of the point it
    evaluated, and ``grad()`` differentiates at that point, so a line search
    gathers each accepted iterate once. The differences are the kernel's one
    pairs-by-dim array. The kernel's steps work on a range of pairs:
    ``_residuals`` gathers the ``ii`` side and subtracts the ``jj`` side in
    blocks of ``_BLOCK`` pairs, then takes each row's squared norm, and
    ``_pull`` scales the rows by 4 r into their gradient terms, which one
    ``_ScatterPlan`` per pair side, built here once, sums into items. So
    every other temporary is an items-by-dim array or a vector.

    The kernel has two placements. In this process alone, ``value`` runs
    ``_residuals`` over every pair and ``grad`` runs ``_pull`` and both
    plans; each ``value`` drops the previous point's arrays before it
    gathers, and ``grad`` consumes them, so no pairs-by-dim array outlives
    one evaluation. After ``share``, the arrays are a ``_Helper``'s shared
    maps, which live until ``stop_helper``; once ``start_helper`` has forked
    the helper process, the range steps of each ``value`` run on the first
    half of the pairs here and on the second half there, and ``grad`` sums
    the ``ii`` side here while the helper sums the ``jj`` side. Every
    element comes from the same numpy call on the same operands in either
    placement, and every reduction to a scalar runs here over whole arrays,
    so the placement changes no byte.
    """

    def __init__(self, n: int, dim: int, ii, jj, d2, lam: float):
        self.n, self.dim = n, dim
        self.ii, self.jj, self.d2 = ii, jj, d2
        self.lam = lam
        self._plans = _ScatterPlan(ii, n), _ScatterPlan(jj, n)
        self._point = None
        self._helper = None

    def value(self, x: np.ndarray) -> float:
        self._point = None
        if self._helper is None:
            coords = x.reshape(self.n, self.dim)
            diff = np.empty((len(self.ii), self.dim))
            r = np.empty(len(self.ii))
            self._residuals(coords, diff, r, 0, len(r))
        else:
            coords, diff, r = self._helper.residuals(self, x)
        f = _dot(r, r) + self.lam * float(np.einsum("ij,ij->", coords, coords))
        self._point = coords, diff, r
        return f

    def grad(self) -> np.ndarray:
        """Gradient at the point the last ``value`` call evaluated; each
        evaluated point gives one gradient."""
        if self._point is None:
            raise RuntimeError("grad() needs a point evaluated by value() first")
        coords, pull, r = self._point
        self._point = None
        if self._helper is None:
            self._pull(pull, r, 0, len(r))
            del r  # spent before the plans allocate
            ii_plan, jj_plan = self._plans
            g = ii_plan.sum_terms(pull)
            g -= jj_plan.sum_terms(pull)
        else:
            g = self._helper.gradient(self)
        g += (2.0 * self.lam) * coords
        return g.ravel()

    def _residuals(self, coords, diff, r, lo: int, hi: int) -> None:
        """Pairs ``lo:hi``'s differences x^i - x^j into ``diff`` and their
        residuals |x^i - x^j|^2 - t into ``r``."""
        # mode "clip" writes straight into ``out``; "raise" would buffer a copy
        coords.take(self.ii[lo:hi], axis=0, out=diff[lo:hi], mode="clip")
        for start in range(lo, hi, _BLOCK):
            block = slice(start, min(start + _BLOCK, hi))
            diff[block] -= coords.take(self.jj[block], axis=0)
        np.einsum("ij,ij->i", diff[lo:hi], diff[lo:hi], out=r[lo:hi])
        r[lo:hi] -= self.d2[lo:hi]

    @staticmethod
    def _pull(diff, r, lo: int, hi: int) -> None:
        """Scale pairs ``lo:hi``'s differences by 4 r in place, into their
        gradient terms; ``r`` keeps its values."""
        diff[lo:hi] *= 4.0 * r[lo:hi, None]

    def share(self) -> None:
        """Move the kernel's arrays into the maps a helper would share, if
        the graph is large enough to repay a helper and a second CPU can
        run it. Until ``start_helper`` forks one, this process still
        evaluates every pair, and no pairs-by-dim array is freed beside the
        maps, so none stays resident in the allocator's free memory."""
        elements = len(self.ii) * self.dim
        if elements >= _HELPER_MIN_ELEMENTS and _usable_cpus() >= 2:
            self._helper = _Helper(self)

    def start_helper(self) -> int:
        """Fork the helper, if ``share`` made its maps, to take half of
        every evaluation from here on; return how many processes now
        evaluate the fit. A failed fork leaves them all to this one."""
        return 1 if self._helper is None else self._helper.fork(self)

    def stop_helper(self) -> None:
        """Reap the helper, if one runs, close its pipes and drop the
        shared maps, with the point held in them."""
        if self._helper is not None:
            helper, self._helper, self._point = self._helper, None, None
            helper.close()


class _Helper:
    """The kernel's arrays in anonymous shared maps, and the forked process
    that runs its range steps on the second half of each trial's pairs once
    ``fork`` has started it.

    The maps hold the coordinates, the pairs-by-dim array, the residuals
    and one items-by-dim sum. ``residuals`` copies a trial point in; then
    both processes run ``_residuals`` and ``_pull`` on their half, so the
    trial's gradient terms are ready before the line search knows whether
    it needs them, and ``r`` keeps the residuals ``value`` sums.
    ``gradient`` sums the ``ii`` side here while the helper sums the ``jj``
    side. Each command is one byte down a pipe, answered with the same byte
    when done: one round trip per trial and one more for its gradient, each
    wait a blocking read. A helper that died answers with EOF, and the fit
    raises ChildProcessError naming it. Before the fork, or after a failed
    one, this process runs both halves and both sides itself.

    A fork copies only the thread that calls it, so the helper has none of
    the fit's other threads (say, OpenBLAS's pool). It calls no BLAS
    routine and takes no lock that one of them could hold, so the fork is
    safe, and Python 3.12+'s DeprecationWarning about forking a
    multi-threaded process is silenced for this one call only.
    """

    def __init__(self, problem: _PairObjective):
        n_pairs = len(problem.ii)
        #: pairs ``mid:`` are the helper's once it runs
        self.mid = n_pairs
        self.pid = None
        self.coords = _shared((problem.n, problem.dim))
        self.diff = _shared((n_pairs, problem.dim))
        self.r = _shared((n_pairs,))
        self.jj_sum = _shared((problem.n, problem.dim))

    def fork(self, problem: _PairObjective) -> int:
        """Start the helper process; return the processes that now evaluate
        the fit: 2, or 1 if the OS could not fork."""
        mid = len(problem.ii) // 2
        commands, self._commands = os.pipe()
        self._replies, replies = os.pipe()
        # blocked across the fork, SIGINT stays blocked in the helper for
        # life: Ctrl-C is the fit's to handle, and it closes the pipes
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings(
                    "ignore", ".* is multi-threaded, use of fork", DeprecationWarning
                )
                pid = os.fork()
        except OSError:  # no process or memory to spare
            pid = None
        if pid == 0:
            _serve(problem, self, mid, commands, replies)  # never returns
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        if pid is None:
            for fd in (commands, self._commands, self._replies, replies):
                os.close(fd)
            return 1
        self.pid, self.mid = pid, mid
        os.close(commands)
        os.close(replies)
        return 2

    def residuals(self, problem: _PairObjective, x: np.ndarray):
        """Residuals and gradient terms of every pair at ``x``; returns the
        shared coordinates, terms and residuals."""
        self.coords[...] = x.reshape(self.coords.shape)
        self._ask(_RESIDUALS)
        problem._residuals(self.coords, self.diff, self.r, 0, self.mid)
        problem._pull(self.diff, self.r, 0, self.mid)
        self._wait(_RESIDUALS)
        return self.coords, self.diff, self.r

    def gradient(self, problem: _PairObjective) -> np.ndarray:
        """The ``ii`` side's sums minus the ``jj`` side's, of the terms the
        last ``residuals`` left."""
        ii_plan, jj_plan = problem._plans
        if self.pid is None:
            self.jj_sum[...] = jj_plan.sum_terms(self.diff)
        self._ask(_JJ_SUM)
        g = ii_plan.sum_terms(self.diff)
        self._wait(_JJ_SUM)
        g -= self.jj_sum
        return g

    def _ask(self, command: bytes) -> None:
        if self.pid is None:
            return
        try:
            os.write(self._commands, command)
        except BrokenPipeError:
            raise self._lost() from None

    def _wait(self, command: bytes) -> None:
        if self.pid is not None and os.read(self._replies, 1) != command:
            raise self._lost()

    def _lost(self) -> ChildProcessError:
        return ChildProcessError(f"fit helper process {self.pid} exited mid-evaluation")

    def close(self) -> None:
        """Close the command pipe, on whose EOF the helper exits, reap it,
        and drop the maps: the OS unmaps each once no view of it is left."""
        if self.pid is not None:
            os.close(self._commands)
            os.close(self._replies)
            try:
                os.waitpid(self.pid, 0)
            except ChildProcessError:  # reaped already, as under SIGCHLD = SIG_IGN
                pass
        del self.coords, self.diff, self.r, self.jj_sum


def _serve(problem: _PairObjective, helper: _Helper, lo: int, commands: int,
           replies: int):
    """The helper's loop: run each command on pairs ``lo:`` until the
    command pipe reaches EOF, which it does once the fit closes it or dies.
    It leaves only by ``os._exit``, so it flushes no stdio buffer and runs
    no exit hook it inherited from the fit's process."""
    try:
        os.close(helper._commands)  # or the helper never reads EOF
        os.close(helper._replies)
        hi = len(problem.ii)
        jj_plan = problem._plans[1]
        while command := os.read(commands, 1):
            if command == _RESIDUALS:
                problem._residuals(helper.coords, helper.diff, helper.r, lo, hi)
                problem._pull(helper.diff, helper.r, lo, hi)
            else:
                helper.jj_sum[...] = jj_plan.sum_terms(helper.diff)
            os.write(replies, command)
    except BaseException:
        os._exit(1)
    os._exit(0)


def _shared(shape: tuple[int, ...]) -> np.ndarray:
    """A float64 array in an anonymous map that a forked process shares."""
    size = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * size), np.float64, size).reshape(shape)


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the OS cannot say."""
    if not hasattr(os, "sched_getaffinity"):  # macOS and Windows
        return 1
    return len(os.sched_getaffinity(0))


class _ScatterPlan:
    """Sums a pairs-by-dim array into one row per item of a pair side, each
    row's terms added in pair order from 0.0, as one flat ``bincount`` would.

    Items are ranked by their number of pairs on the side, highest first and
    ties in item order, so the items with more than k pairs are the first
    ``sizes[k]`` of the ranking. Step k (from 0) adds each of them its k-th
    term in one gather: ``acc[:m] += terms.take(rows_k, axis=0)``. The steps
    run while ``_MIN_ROWS`` or more items have terms left; the fewer hub
    items left then get the rest of theirs, in pair order, from one
    ``np.add.at``. The plan holds ``rows``, every step's pair indices and then the hubs'
    rest, as one int32 vector of one entry per pair; the rest is O(items).
    """

    def __init__(self, side: np.ndarray, n: int):
        degree = np.bincount(side, minlength=n)
        ranking = np.argsort(-degree, kind="stable")
        ranked = degree[ranking]
        n_steps = int(ranked[_MIN_ROWS - 1]) if n >= _MIN_ROWS else 0
        #: items each step adds to: those with more than k pairs
        self.sizes = np.searchsorted(-ranked, -np.arange(n_steps)).tolist()
        #: each hub item's terms past the steps, in ranking order
        self.rest = (ranked[ranked > n_steps] - n_steps).tolist()
        self.rank = np.empty(n, np.intp)
        self.rank[ranking] = np.arange(n)
        # each item's pairs, in pair order, item after item
        by_item = np.argsort(side, kind="stable")
        first = (np.cumsum(degree) - degree)[ranking]
        self.rows = np.empty(len(side), np.int32)
        at = 0
        for k, m in enumerate(self.sizes):
            self.rows[at : at + m] = by_item[first[:m] + k]
            at += m
        for hub, count in enumerate(self.rest):
            start = first[hub] + n_steps
            self.rows[at : at + count] = by_item[start : start + count]
            at += count

    def sum_terms(self, terms: np.ndarray) -> np.ndarray:
        """Per-item sums of ``terms``' rows, in item order."""
        dim = terms.shape[1]
        acc = np.zeros((len(self.rank), dim))
        at = 0
        for m in self.sizes:
            acc[:m] += terms.take(self.rows[at : at + m], axis=0)
            at += m
        if self.rest:
            # the only index built per call: bins for a few hubs' terms
            hubs = np.arange(len(self.rest)) * dim
            bins = np.repeat(hubs, self.rest)[:, None] + np.arange(dim)
            tail = terms.take(self.rows[at:], axis=0)
            np.add.at(acc.ravel(), bins.ravel(), tail.ravel())
        return acc.take(self.rank, axis=0)


def _check_pairs(graph: AffinityGraph) -> None:
    """Raise ValidationError for a graph that holds no pair to fit."""
    if graph.n_pairs == 0:
        raise ValidationError("cannot fit an empty affinity graph")


def fit_embedding(
    graph: AffinityGraph,
    config: FitConfig,
    initial_coords: np.ndarray | None = None,
) -> tuple[EmbeddingModel, FitTrace]:
    """Fit item coordinates to the targets derived from an affinity graph.

    Coordinates start uniform in [-s, s] per component from the configured
    seed, with s = sqrt(3 median(targets) / (2 dim)) so that the start's
    expected pair squared distance equals the median target (the mean
    target when more than half are zero); ``initial_coords`` (an
    (n_items, dim) array aligned with the graph's sorted item order)
    overrides that for warm starts and diagnostics. Raises DivergenceError,
    with the partial trace attached, if a target or the start scale
    overflows (empty trace) or the objective or gradient turns non-finite.
    """
    _check_pairs(graph)
    params = config.params
    try:
        ids, ii, jj, d2 = build_targets(graph, params.alpha)
    except ValueError as exc:  # a target beyond float range
        raise DivergenceError(str(exc), 0, FitTrace()) from None
    n = len(ids)

    if initial_coords is None:
        typical = float(np.median(d2)) or float(np.mean(d2))
        scale = float(np.sqrt(3.0 * typical / (2.0 * params.dim)))
        if not np.isfinite(scale):
            raise DivergenceError("start scale overflows float range", 0, FitTrace())
        rng = np.random.default_rng(config.seed)
        x0 = rng.uniform(-scale, scale, size=(n, params.dim))
    else:
        x0 = np.asarray(initial_coords, dtype=np.float64)
        if x0.shape != (n, params.dim):
            raise ValueError(
                f"initial_coords must have shape ({n}, {params.dim}), got {x0.shape}"
            )

    problem = _PairObjective(n, params.dim, ii, jj, d2, params.lam)
    x, trace = _minimize(problem, x0.ravel().copy(), config)

    model = EmbeddingModel(params, ids, x.reshape(n, params.dim), graph.kappa)
    return model, trace


def _minimize(problem: _PairObjective, x: np.ndarray, config: FitConfig):
    # a fit whose cap leaves room for the helper keeps its arrays in the
    # helper's maps from its first evaluation; a shorter cap never makes them
    if config.max_iterations > _HELPER_AFTER:
        problem.share()
    try:
        return _descend(problem, x, config)
    finally:
        problem.stop_helper()


def _descend(problem: _PairObjective, x: np.ndarray, config: FitConfig):
    trace = FitTrace()

    f = problem.value(x)
    g = problem.grad()
    _require_finite(f, g, 0, trace)
    gnorm = _norm(g)
    threshold = config.gradient_tolerance * gnorm
    trace.objectives.append(f)
    trace.grad_norms.append(gnorm)
    trace.evaluations.append(1)

    history: deque = deque(maxlen=_MEMORY)
    if gnorm <= threshold:
        # covers the all-equal start, where the gradient is exactly zero
        trace.stop_reason = "stationary_start" if gnorm == 0.0 else "gradient_tolerance"
    else:
        trace.stop_reason = "max_iterations"
        for iteration in range(1, config.max_iterations + 1):
            if iteration == _HELPER_AFTER + 1:
                trace.processes = problem.start_helper()
            direction = _two_loop_direction(g, history)
            slope = _dot(g, direction)
            if slope >= 0.0:
                # quasi-Newton direction lost descent; fall back to steepest
                direction = -g
                slope = -_dot(g, g)
            x_new, f_new, evaluations = _backtrack(
                problem, x, f, direction, slope, not history
            )
            if x_new is None:
                trace.stop_reason = "line_search_failed"
                break
            g_new = problem.grad()
            trace.iterations = iteration
            _require_finite(f_new, g_new, iteration, trace)

            s = x_new - x
            y = g_new - g
            sy = _dot(s, y)
            if sy > _CURVATURE_EPS * _norm(s) * _norm(y):
                history.append((s, y, 1.0 / sy))

            x, f, g = x_new, f_new, g_new
            gnorm = _norm(g)
            trace.objectives.append(f)
            trace.grad_norms.append(gnorm)
            trace.evaluations.append(evaluations)
            if gnorm <= threshold:
                trace.stop_reason = "gradient_tolerance"
                break
            if (
                iteration >= _FTOL_WINDOW
                and trace.objectives[-1 - _FTOL_WINDOW] - f <= _FTOL * f
            ):
                trace.stop_reason = "objective_decrease"
                break

    return x, trace


def _two_loop_direction(g: np.ndarray, history: deque) -> np.ndarray:
    if not history:
        return -g
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * _dot(s, q)
        q -= a * y
        alphas.append(a)
    s_last, y_last, _ = history[-1]
    q *= _dot(s_last, y_last) / _dot(y_last, y_last)
    for (s, y, rho), a in zip(history, reversed(alphas)):
        b = rho * _dot(y, q)
        q += (a - b) * s
    return -q


def _backtrack(problem, x, f, direction, slope, first_iteration: bool):
    """Armijo backtracking; returns (accepted point, its value, evaluations
    made) or (None, None, evaluations made). The problem holds the accepted
    point's evaluation, so its gradient is ``problem.grad()``."""
    if first_iteration:
        # scale the very first steepest-descent step to unit length
        step = min(1.0, 1.0 / max(_norm(direction), 1e-12))
    else:
        step = 1.0
    for evaluations in range(1, _MAX_BACKTRACKS + 1):
        x_new = x + step * direction
        f_new = problem.value(x_new)
        if np.isfinite(f_new) and f_new <= f + _ARMIJO_C1 * step * slope:
            return x_new, f_new, evaluations
        step *= 0.5
    return None, None, _MAX_BACKTRACKS


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two vectors, summed in an order fixed by their length.

    ``a @ b`` reaches BLAS, whose threaded dot products sum in an order that
    depends on the thread count; einsum without ``optimize`` never does.
    """
    return float(np.einsum("i,i->", a, b))


def _norm(a: np.ndarray) -> float:
    return float(np.sqrt(_dot(a, a)))


def _require_finite(f: float, g: np.ndarray, iteration: int, trace: FitTrace):
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise DivergenceError(
            "objective or gradient is not finite", iteration, trace=trace
        )


def write_trace(trace: FitTrace, path: str | Path) -> None:
    """Dump the per-iteration history as CSV."""
    with open(path, "w", encoding="utf-8", newline="") as out:
        out.write("iteration,objective,grad_norm,evaluations\n")
        rows = zip(trace.objectives, trace.grad_norms, trace.evaluations)
        for k, (obj, gn, ev) in enumerate(rows):
            out.write(f"{k},{obj!r},{gn!r},{ev}\n")
