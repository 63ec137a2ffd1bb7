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
"""

from __future__ import annotations

import math
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
    pairs-by-dim array: ``value`` gathers the ``ii`` side whole and subtracts
    the ``jj`` side in blocks of ``_BLOCK`` pairs, and ``grad`` scales it in
    place and sums it into items with one ``_ScatterPlan`` per pair side,
    built here once, so every other temporary is an items-by-dim array or a
    vector. Each ``value`` drops the previous point's arrays before it
    gathers, and ``grad`` consumes them, so no pairs-by-dim array outlives
    one evaluation.
    """

    def __init__(self, n: int, dim: int, ii, jj, d2, lam: float):
        self.n, self.dim = n, dim
        self.ii, self.jj, self.d2 = ii, jj, d2
        self.lam = lam
        self._plans = _ScatterPlan(ii, n), _ScatterPlan(jj, n)
        self._point = None

    def value(self, x: np.ndarray) -> float:
        self._point = None
        coords = x.reshape(self.n, self.dim)
        diff = coords.take(self.ii, axis=0)
        for start in range(0, len(self.jj), _BLOCK):
            block = slice(start, start + _BLOCK)
            diff[block] -= coords.take(self.jj[block], axis=0)
        r = np.einsum("ij,ij->i", diff, diff) - self.d2
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
        r *= 4.0
        pull *= r[:, None]
        del r  # spent before the plans allocate
        ii_plan, jj_plan = self._plans
        g = ii_plan.sum_terms(pull)
        g -= jj_plan.sum_terms(pull)
        g += (2.0 * self.lam) * coords
        return g.ravel()


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
