"""Item popularity and sparse co-occurrence connection-probability estimates.

Popularity is the interaction count of an item in historical sessions,
floored at 1 so it can always appear in a denominator. The connection
estimate for an item pair is the cosine of their binary session-incidence
vectors, which lies in (0, 1] whenever the items co-occur at least once.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import MissingItemError, ParseError, ValidationError
from .sessions import _ID_BREAKS, Role, SessionCorpus

log = logging.getLogger(__name__)

#: ``build_affinity_graph``'s defaults: the fewest sessions an item must
#: appear in, and the most pairs each item keeps
MIN_SESSIONS = 2
MAX_PAIRS_PER_ITEM = 500


class PopularityTable(dict):
    """Per-item popularity (hidden degree): a dict checked when built, every
    value finite and >= 1; indexing an unknown item raises MissingItemError.
    """

    def __init__(self, kappa=()):
        super().__init__(kappa)
        for item, k in self.items():
            if not 1.0 <= k < math.inf:
                raise ValidationError(
                    f"popularity of {item} is {k}, must be finite and >= 1"
                )

    def __missing__(self, item: str) -> float:
        raise MissingItemError(f"unknown item {item!r}")


def compute_popularity(corpus: SessionCorpus) -> PopularityTable:
    """Each vocabulary item's action count (``item_counts``), floored at 1.

    Items that only ever show up inside impression lists get the floor value,
    which keeps them usable at ranking time.
    """
    if corpus.role is not Role.TRAIN:
        raise ValidationError("compute_popularity expects a TRAIN corpus")
    counts = np.maximum(corpus.item_counts[0], 1.0)
    return PopularityTable(zip(corpus.item_vocabulary, counts.tolist()))


@dataclass(frozen=True, eq=False)
class AffinityGraph:
    """Sparse symmetric set of item pairs with positive connection estimates,
    held as code arrays.

    ``ids`` are the items in at least one pair, sorted. Pair k joins
    ``ids[ii[k]]`` and ``ids[jj[k]]``, with ``ii[k] < jj[k]``, at estimate
    ``p[k]``; pairs run in (ii, jj) order, which is id order.
    """

    ids: tuple[str, ...]
    ii: np.ndarray
    jj: np.ndarray
    p: np.ndarray
    popularity: PopularityTable
    #: what ``build_affinity_graph`` left out: items with actions in fewer
    #: than ``min_sessions`` sessions, and pairs among none of their items'
    #: ``max_pairs_per_item`` strongest; 0 for a graph built otherwise
    excluded_items: int = 0
    pruned_pairs: int = 0

    def __post_init__(self):
        for name, dtype in (("ii", np.intp), ("jj", np.intp), ("p", np.float64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype))
        ids, ii, jj, p, n = self.ids, self.ii, self.jj, self.p, len(self.ids)
        for a, b in zip(ids, ids[1:]):
            if not a < b:
                raise ValidationError(f"ids not sorted and unique at {b!r}")
        if not ii.shape == jj.shape == p.shape == (len(p),):
            raise ValidationError("ii, jj and p must be vectors of one length")
        # each loop below raises for the first offending pair, if any
        for k in np.flatnonzero((ii < 0) | (ii >= n) | (jj < 0) | (jj >= n))[:1]:
            raise ValidationError(f"pair {k} codes ({ii[k]}, {jj[k]}) not in [0, {n})")
        unordered = np.diff(ii * n + jj, prepend=-1) <= 0
        for bad, msg in (
            (ii == jj, "self-pair on item {i!r}"),
            (ii > jj, "pair ({i!r}, {j!r}) not canonically ordered"),
            (unordered, "pair ({i!r}, {j!r}) repeated or out of order"),
            (~((p > 0.0) & (p <= 1.0)), "pair ({i}, {j}) has p={p}, not in (0, 1]"),
        ):
            for k in np.flatnonzero(bad)[:1]:
                raise ValidationError(msg.format(i=ids[ii[k]], j=ids[jj[k]], p=p[k]))
        for k in np.flatnonzero(np.bincount(np.r_[ii, jj], minlength=n) == 0)[:1]:
            raise ValidationError(f"item {ids[k]!r} is in no pair")

    @classmethod
    def from_pairs(
        cls, pairs: Mapping[tuple[str, str], float], popularity: PopularityTable
    ) -> "AffinityGraph":
        """Build a graph from explicit pair estimates (keys any orientation)."""
        canonical: dict[tuple[str, str], float] = {}
        for (i, j), p in pairs.items():
            key = (i, j) if i <= j else (j, i)
            if key in canonical and not math.isclose(canonical[key], p):
                raise ValidationError(f"conflicting values for pair {key}")
            canonical[key] = p
        keys = sorted(canonical)
        ids = sorted({item for key in keys for item in key})
        code = {item: k for k, item in enumerate(ids)}
        ii = [code[i] for i, _ in keys]
        jj = [code[j] for _, j in keys]
        return cls(tuple(ids), ii, jj, [canonical[key] for key in keys], popularity)

    @property
    def n_pairs(self) -> int:
        return len(self.p)

    def items(self) -> list[str]:
        """Items incident to at least one pair, sorted."""
        return list(self.ids)

    @cached_property
    def kappa(self) -> np.ndarray:
        """Popularity of each of ``ids``, gathered on first use."""
        return np.array([self.popularity[item] for item in self.ids], np.float64)

    def neighbors(self, item: str) -> tuple[tuple[str, float], ...]:
        """Neighbors of ``item`` sorted by decreasing similarity, ties to the
        smaller id."""
        k = bisect_left(self.ids, item)
        if k == len(self.ids) or self.ids[k] != item:
            return ()
        other, p, starts = self._neighbor_lists
        run = slice(starts[k], starts[k + 1])
        return tuple(zip([self.ids[o] for o in other[run].tolist()], p[run].tolist()))

    def strongest_estimates(
        self, item: np.ndarray, other: np.ndarray, k: int
    ) -> np.ndarray:
        """For each pair of codes ``(item[r], other[r])``: its estimate when
        ``other[r]`` is among the first ``k`` of ``neighbors`` of
        ``item[r]``, else 0, and 0 where either code is -1. Only the
        neighbours of a listed item with more than k are sorted."""
        n = len(self.ids)
        listed = np.zeros(n + 1, dtype=bool)
        listed[item] = True  # code -1 lands on the extra slot
        end, far, p = _both_ends(self.ii, self.jj, self.p)
        top = _first_k(end, far, p, np.flatnonzero(listed[end]), k, n)
        keys = end[top] * n + far[top]
        by_key = np.argsort(keys)
        # a last key above every pair's, so each query lands on a key
        keys, p = np.append(keys[by_key], n * n), np.append(p[top][by_key], 0.0)
        query = item * n + other
        at = np.searchsorted(keys, query)
        return np.where((item >= 0) & (other >= 0) & (keys[at] == query), p[at], 0.0)

    @cached_property
    def _neighbor_lists(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every item's neighbour codes and estimates, strongest first, with
        CSR starts: built on the first ``neighbors`` call."""
        end, far, p = _both_ends(self.ii, self.jj, self.p)
        order, starts = _strongest_first(end, far, p, len(self.ids))
        return far[order], p[order], starts


def build_affinity_graph(
    corpus: SessionCorpus,
    min_sessions: int = MIN_SESSIONS,
    max_pairs_per_item: int = MAX_PAIRS_PER_ITEM,
) -> AffinityGraph:
    """Estimate all positive pairwise connection probabilities from sessions.

    Items carry the corpus's codes, their positions in its sorted
    vocabulary, so code order is id order. Each session's distinct items are
    paired in numpy and the pairs counted as codes ``i * n + j``, so cost
    scales with co-occurrence volume, never with vocabulary squared. Items
    in fewer than ``min_sessions`` sessions are excluded; when
    ``max_pairs_per_item`` > 0 each item keeps only its strongest pairs (ties
    to the smaller id) and the kept sets are unioned, which preserves
    symmetry; 0 keeps every pair.
    """
    if corpus.role is not Role.TRAIN:
        raise ValidationError("build_affinity_graph expects a TRAIN corpus")
    if min_sessions < 1:
        raise ValueError("min_sessions must be >= 1")
    if max_pairs_per_item < 0:
        raise ValueError("max_pairs_per_item must be >= 0 (0 keeps every pair)")

    vocab = corpus.item_vocabulary
    n = len(vocab)
    session, item, _ = corpus.item_actions
    # distinct (session, item) rows, by session and then item
    session, item = np.divmod(np.unique(session * n + item), n)
    n_sessions = np.bincount(item, minlength=n)
    eligible = n_sessions >= min_sessions
    excluded_items = int(np.count_nonzero(n_sessions[~eligible]))
    keep = eligible[item]
    session, item = session[keep], item[keep]

    ii, jj = _session_pairs(session, item)
    codes, counts = np.unique(ii * n + jj, return_counts=True)
    ii, jj = np.divmod(codes, n)
    product = n_sessions[ii] * n_sessions[jj]
    p = np.minimum(1.0, counts / np.sqrt(product.astype(float)))

    pruned_pairs = 0
    if max_pairs_per_item > 0:
        kept = _top_pairs(ii, jj, p, max_pairs_per_item, n)
        pruned_pairs = len(p) - int(np.count_nonzero(kept))
        ii, jj, p = ii[kept], jj[kept], p[kept]

    used = np.union1d(ii, jj)
    log.info(
        "affinity graph: %d pairs over %d items "
        "(%d items below min_sessions, %d pairs past max_pairs_per_item)",
        len(p),
        len(used),
        excluded_items,
        pruned_pairs,
    )
    return AffinityGraph(
        tuple(vocab[k] for k in used.tolist()),
        np.searchsorted(used, ii),
        np.searchsorted(used, jj),
        p,
        compute_popularity(corpus),
        excluded_items,
        pruned_pairs,
    )


def _session_pairs(
    session: np.ndarray, item: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every within-session pair of rows sorted by (session, item), as item
    codes (i, j) with i < j."""
    starts = np.flatnonzero(np.r_[True, session[1:] != session[:-1]])
    ends = np.r_[starts[1:], len(session)]
    # row r pairs with every later row of its session
    later = np.repeat(ends, ends - starts) - np.arange(len(session)) - 1
    first = np.repeat(np.arange(len(session)), later)
    offset = np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    return item[first], item[first + 1 + offset]


def _both_ends(
    ii: np.ndarray, jj: np.ndarray, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair once from each end: (end, other end, estimate), the pairs
    from ``ii`` first and then from ``jj``."""
    return np.r_[ii, jj], np.r_[jj, ii], np.r_[p, p]


def _strongest_first(
    end: np.ndarray, far: np.ndarray, p: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The order that puts the (end, far, p) rows by end, each of the ``n``
    items' rows strongest first with ties to the smaller far item, and each
    item's start in it (n + 1 of them)."""
    order = np.lexsort((far, -p, end))
    starts = np.r_[0, np.cumsum(np.bincount(end, minlength=n))]
    return order, starts


def _first_k(
    end: np.ndarray, far: np.ndarray, p: np.ndarray, rows: np.ndarray, k: int, n: int
) -> np.ndarray:
    """The rows, among ``rows`` (each listed item's every row), that are
    among their end item's ``k`` strongest, in no set order. Only the rows of
    an item with more than k are sorted: an item with k or fewer keeps all."""
    crowded = np.bincount(end, minlength=n)[end[rows]] > k
    few, crowded = rows[~crowded], rows[crowded]
    order, starts = _strongest_first(end[crowded], far[crowded], p[crowded], n)
    ranks = np.arange(len(order)) - np.repeat(starts[:-1], np.diff(starts))
    return np.r_[few, crowded[order[ranks < k]]]


def _top_pairs(
    ii: np.ndarray, jj: np.ndarray, p: np.ndarray, k: int, n: int
) -> np.ndarray:
    """Mask of the pairs among some item's ``k`` strongest."""
    end, far, both = _both_ends(ii, jj, p)
    kept = np.zeros(len(p), dtype=bool)
    kept[_first_k(end, far, both, np.arange(len(end)), k, n) % len(p)] = True
    return kept


# ---------------------------------------------------------------------------
# Text export, one line per pair / per item
# ---------------------------------------------------------------------------


def write_affinity_graph(
    graph: AffinityGraph, pairs_path: str | Path, popularity_path: str | Path
) -> None:
    """Write the pairs and the popularities as text. Raises ValidationError,
    before either file is opened, for an id holding a tab or line break,
    which ``read_affinity_graph`` would not read back."""
    for bad in filter(_ID_BREAKS.search, (*graph.ids, *graph.popularity)):
        raise ValidationError(f"item id {bad!r} holds a tab or line break")
    with open(pairs_path, "w", encoding="utf-8") as out:
        ids = graph.ids
        for i, j, p in zip(graph.ii.tolist(), graph.jj.tolist(), graph.p.tolist()):
            out.write(f"{ids[i]}\t{ids[j]}\t{p!r}\n")
    with open(popularity_path, "w", encoding="utf-8") as out:
        for item, k in sorted(graph.popularity.items()):
            out.write(f"{item}\t{k!r}\n")


def read_affinity_graph(
    pairs_path: str | Path, popularity_path: str | Path
) -> AffinityGraph:
    pairs = _read_values(pairs_path, 2, "pair")
    return AffinityGraph.from_pairs(pairs, read_popularity(popularity_path))


def read_popularity(path: str | Path) -> PopularityTable:
    """Read a popularity TSV as written by ``write_affinity_graph``."""
    return PopularityTable(_read_values(path, 1, "popularity"))


def _read_values(path: str | Path, n_ids: int, kind: str) -> dict:
    """Lines of ``n_ids`` tab-separated ids and a float, keyed by the id or
    by the sorted id pair. A malformed line, or a key read before in either
    order, raises ParseError naming its line."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as stream:
        for n, line in enumerate(stream, start=1):
            fields = line.rstrip("\n").split("\t")
            try:
                if len(fields) != n_ids + 1:
                    raise ValueError(
                        f"{len(fields)} tab-separated fields, expected {n_ids + 1}"
                    )
                key = fields[0] if n_ids == 1 else tuple(sorted(fields[:n_ids]))
                if key in values:
                    raise ValueError(f"{key!r} repeated")
                values[key] = float(fields[n_ids])
            except ValueError as exc:
                raise ParseError(f"malformed {kind} line in {path}: {exc}", n) from None
    return values
