"""Offline evaluation: reciprocal-rank metrics and hyperparameter search.

Every test session contributes the rank of its hidden item within the
reranked impression list. The aggregate scores are

    MRR    = mean over sessions of 1 / rank         (0 on a miss)
    MAP@N  = mean over sessions of hit(N) / N

where hit(N) is 1 when the hidden item sits within the first N positions.
Note the 1/N scaling: MAP@N is bounded by 1/N, not 1.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .affinity import AffinityGraph, build_affinity_graph
from .baselines import Ranker
from .embedder import FitConfig, fit_embedding
from .errors import DivergenceError, ValidationError
from .model import ModelParams
from .recommender import BatchScores, NextItemRecommender
from .sessions import SessionCorpus, _last_clickouts, _owners, prepare_holdout

log = logging.getLogger(__name__)

#: the N of every MAP@N a report holds
_MAP_CUTOFFS = (1, 3, 5, 10)


@dataclass(frozen=True)
class EvalReport:
    """Per-session ranks plus aggregate metrics for one ranker run.

    ``n_unknown`` counts the candidates, each once per session, outside the
    ranker's item set (the model, the graph, the metadata or the train
    counts); 0 for a ranker without one, or one that offers only ``rank``.
    """

    ranker_name: str
    per_session: tuple[tuple[str, int | None], ...]
    mrr: float
    map_at: dict[int, float]
    n_sessions: int
    n_skipped: int
    n_fallback: int
    n_unknown: int = 0


def evaluate(
    ranker: Ranker,
    test: SessionCorpus,
    truth: Mapping[str, str],
) -> EvalReport:
    """Rerank each test session's impression list and aggregate MRR and
    MAP@1, 3, 5 and 10.

    The candidates are the impressions of the session's last clickout, the
    one ``hide_test_targets`` hid. Sessions without a clickout, or
    without an entry in the truth map, are skipped and counted separately. A
    truth item missing from its own impression list is a retained miss (rank
    None).
    Sessions the ranker ordered by its popularity fallback are counted too.

    A ranker with ``score_sessions`` (every built-in one) scores every
    session's ``candidates`` at once from the corpus's columns, and every
    truth's rank is read from those scores in one pass; the ``Action`` view
    is never built. Any other ranker is asked ``rank`` once per session,
    the protocol's reference loop.
    """
    if hasattr(ranker, "score_sessions"):
        scores = ranker.score_sessions(test)
        held = np.fromiter((sid in truth for sid in test.session_ids), bool)
        kept = held & (_last_clickouts(test) >= 0)
        ranks = zip(test.session_ids, _ranks_of(test, scores, truth))
        per_session = list(compress(ranks, kept))
        fallback = int(np.count_nonzero(scores.fallback & kept))
        shown = np.diff(test.candidates[1])
        unknown = int(np.count_nonzero(scores.unknown & np.repeat(kept, shown)))
    else:
        per_session, fallback = _rank_each(ranker, test, truth)
        unknown = 0
    ranks = [rank for _, rank in per_session if rank is not None]
    n_eval = len(per_session)
    skipped = test.n_sessions - n_eval
    if skipped:
        log.info("skipped %d sessions without target or truth", skipped)
    return EvalReport(
        ranker_name=ranker.name,
        per_session=tuple(per_session),
        mrr=sum(1.0 / r for r in ranks) / n_eval if n_eval else 0.0,
        map_at={
            n: sum(r <= n for r in ranks) / (n * n_eval) if n_eval else 0.0
            for n in _MAP_CUTOFFS
        },
        n_sessions=n_eval,
        n_skipped=skipped,
        n_fallback=fallback,
        n_unknown=unknown,
    )


def _rank_each(
    ranker: Ranker, test: SessionCorpus, truth: Mapping[str, str]
) -> tuple[list[tuple[str, int | None]], int]:
    """Each evaluated session's rank from one ``rank`` call, and how many
    fell back."""
    targets = (_last_clickouts(test) - test.offsets[:-1]).tolist()
    per_session: list[tuple[str, int | None]] = []
    fallback = 0
    for (sid, actions), target in zip(test.sessions.items(), targets):
        if target < 0 or sid not in truth:
            continue
        candidates = list(actions[target].impressions)
        ranked = ranker.rank(actions, candidates, len(candidates))
        fallback += ranked.fallback_used
        per_session.append((sid, ranked.rank_of(truth[sid])))
    return per_session, fallback


def _ranks_of(
    test: SessionCorpus, scores: BatchScores, truth: Mapping[str, str]
) -> list[int | None]:
    """Each session's 1-based rank of its truth, None when the truth is not
    among its ranked candidates: one plus the candidates of its session that
    order ahead of it, by score desc, popularity desc, then id (code order),
    so no session is sorted."""
    code = {name: k for k, name in enumerate(test.item_vocabulary)}
    want = np.array([code.get(truth.get(sid), -1) for sid in test.session_ids], np.int64)
    candidate, offsets = test.candidates
    session = _owners(offsets)
    score, popularity = scores.score, scores.popularity
    found = np.flatnonzero((candidate == want[session]) & (score > -np.inf))
    at = np.full(test.n_sessions, -1)
    at[session[found]] = found
    mine = at[session]
    s, p, c = score[mine], popularity[mine], candidate[mine]
    before = (popularity > p) | ((popularity == p) & (candidate < c))
    ahead = (score > s) | ((score == s) & before)
    rank = np.bincount(session[ahead], minlength=test.n_sessions) + 1
    return [r if k >= 0 else None for k, r in zip(at.tolist(), rank.tolist())]


def write_report(report: EvalReport, path: str | Path) -> None:
    """Write the summary block and the per-session ranks as CSV."""
    cutoffs = sorted(report.map_at)
    with open(path, "w", encoding="utf-8", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(
            ["ranker", "sessions", "skipped", "MRR"]
            + [f"MAP@{n}" for n in cutoffs]
        )
        writer.writerow(
            [report.ranker_name, report.n_sessions, report.n_skipped]
            + [f"{report.mrr:.6f}"]
            + [f"{report.map_at[n]:.6f}" for n in cutoffs]
        )
        writer.writerow([])
        writer.writerow(["session_id", "rank"])
        for sid, rank in report.per_session:
            writer.writerow([sid, "" if rank is None else rank])


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchGrid:
    """Hyperparameter candidates; defaults are the standard tuning grid."""

    dims: tuple[int, ...] = (5, 10, 20)
    lambdas: tuple[float, ...] = (0.1, 0.01)
    alphas: tuple[float, ...] = (1.0, 2.0, 3.0)

    def __post_init__(self):
        for axis in ("dims", "lambdas", "alphas"):
            if not getattr(self, axis):
                raise ValueError(f"grid axis {axis} is empty")

    def cells(self) -> list[tuple[int, float, float]]:
        return [
            (d, lam, alpha)
            for d in self.dims
            for lam in self.lambdas
            for alpha in self.alphas
        ]


@dataclass(frozen=True)
class GridCell:
    dim: int
    lam: float
    alpha: float
    seed: int
    mrr: float = math.nan
    iterations: int = 0
    objective: float = math.nan
    converged: bool = False
    failed: bool = False
    error: str = ""


def _run_cell(
    graph: AffinityGraph,
    holdout: SessionCorpus,
    truth: Mapping[str, str],
    config: FitConfig,
) -> GridCell:
    params = config.params
    named = dict(dim=params.dim, lam=params.lam, alpha=params.alpha, seed=config.seed)
    try:
        model, trace = fit_embedding(graph, config)
    except DivergenceError as exc:
        return GridCell(**named, failed=True, error=str(exc))
    ranker = NextItemRecommender(model, popularity=graph.popularity)
    return GridCell(
        **named,
        mrr=evaluate(ranker, holdout, truth).mrr,
        iterations=trace.iterations,
        objective=trace.objectives[-1],
        converged=trace.converged,
    )


def grid_search(
    train: SessionCorpus,
    validation: SessionCorpus,
    grid: SearchGrid | None = None,
    max_iterations: int = FitConfig.max_iterations,
) -> tuple[FitConfig, list[GridCell]]:
    """Fit one embedding per grid cell and score validation MRR.

    Train and validation must be disjoint session sets. Each cell is fitted
    once, from ``FitConfig``'s seed, one fit after another in the calling
    process; the table holds one row per cell, in ``grid.cells()`` order.
    Failed (diverged) cells stay in the table with ``failed=True``; when
    every cell fails, the DivergenceError raised carries the table as its
    ``trace``. The best configuration is the highest validation MRR, ties
    broken toward smaller dimension, then larger regularization, then
    smaller alpha.
    """
    if set(train.session_ids) & set(validation.session_ids):
        raise ValidationError("train and validation sessions overlap")
    grid = grid or SearchGrid()

    # every configuration is checked before the graph is built
    configs = [
        FitConfig(
            params=ModelParams(alpha=alpha, dim=dim, lam=lam),
            max_iterations=max_iterations,
        )
        for dim, lam, alpha in grid.cells()
    ]
    graph = build_affinity_graph(train)
    holdout, truth, dropped = prepare_holdout(validation)
    if dropped:
        log.info("grid search: %d validation sessions unusable", dropped)
    if holdout.n_sessions == 0:
        raise ValidationError("validation corpus has no usable sessions")
    table = [_run_cell(graph, holdout, truth, cfg) for cfg in configs]

    usable = [k for k, c in enumerate(table) if not c.failed]
    if not usable:
        raise DivergenceError("every grid cell failed", None, table)
    k = min(
        usable, key=lambda k: (-table[k].mrr, table[k].dim, -table[k].lam, table[k].alpha)
    )
    winner = table[k]
    log.info(
        "grid search winner: dim=%d lambda=%g alpha=%g (MRR %.4f)",
        winner.dim,
        winner.lam,
        winner.alpha,
        winner.mrr,
    )
    return configs[k], table


def write_grid_table(table: Sequence[GridCell], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(
            ["dim", "lambda", "alpha", "seed", "mrr", "iterations",
             "objective", "converged", "failed", "error"]
        )
        for c in table:
            writer.writerow(
                [
                    c.dim,
                    repr(c.lam),
                    repr(c.alpha),
                    c.seed,
                    "" if math.isnan(c.mrr) else f"{c.mrr:.6f}",
                    c.iterations,
                    "" if math.isnan(c.objective) else repr(c.objective),
                    c.converged,
                    c.failed,
                    c.error,
                ]
            )
