"""Next-item ranking by connection probability to a session anchor.

The anchor is the most popular item the user touched in the active session;
candidates are ordered by their probability of connecting to it. Candidates
the model cannot score sink to the tail, ordered by global popularity, and a
session with no scorable item at all falls back to a pure popularity ranking.

``rank`` answers one request, a session of ``Action`` tuples. Offline
evaluation asks many at once: a ranker's ``score_sessions`` takes the test
``SessionCorpus`` itself and scores every session's ``candidates`` in one
pass (``BatchScores``), by the same rules as ``rank``, reading each
session's items from the corpus's ``item_actions``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .affinity import PopularityTable
from .errors import ValidationError
from .model import EmbeddingModel, _law
from .sessions import Action, SessionCorpus, _owners

#: candidate rows the batched law scores at a time, so its temporaries stay
#: a few MB whatever the number of sessions
_LAW_BLOCK = 4096


@dataclass(frozen=True)
class RankedList:
    """Scored candidates in non-increasing score order."""

    items: tuple[tuple[str, float], ...]
    anchor: str | None
    fallback_used: bool

    def __post_init__(self):
        seen = set()
        prev = float("inf")
        for item, score in self.items:
            if item in seen:
                raise ValidationError(f"duplicate item {item!r} in ranked list")
            seen.add(item)
            if score > prev:
                raise ValidationError("ranked list scores must be non-increasing")
            prev = score

    def rank_of(self, item: str) -> int | None:
        """1-based position of ``item``, or None when absent."""
        for pos, (candidate, _) in enumerate(self.items, start=1):
            if candidate == item:
                return pos
        return None

    def __len__(self) -> int:
        return len(self.items)


def order_candidates(
    items: Sequence[str],
    scores: Sequence[float] | np.ndarray,
    t: int,
    popularity: PopularityTable | None,
    anchor: str | None,
    fallback_used: bool,
) -> RankedList:
    """Every ranker's one select-and-order step: the top t of distinct
    ``items`` by their aligned ``scores``, then popularity desc, then id.

    Only the items scoring at least the t-th largest score are sorted; every
    item tied at that boundary goes with them, so the result equals a full
    sort."""
    keep: Iterable[int] = range(len(items))
    if 0 < t < len(items):
        scores = np.asarray(scores, dtype=float)
        kth = np.partition(scores, -t)[-t]
        keep = np.flatnonzero(scores >= kth).tolist()
    pop = popularity if popularity is not None else {}
    ordered = sorted(
        ((items[k], float(scores[k])) for k in keep),
        key=lambda cs: (-cs[1], -pop.get(cs[0], 0.0), cs[0]),
    )
    return RankedList(
        items=tuple(ordered[: max(t, 0)]),
        anchor=anchor,
        fallback_used=fallback_used,
    )


def _lookup(
    vocabulary: Sequence[str], table: Mapping[str, float], default: float
) -> np.ndarray:
    """``table``'s value for each vocabulary item, ``default`` for an item it
    lacks, as an array indexed by code."""
    values = [table.get(item, default) for item in vocabulary]
    return np.array(values, dtype=np.result_type(default))


def _holds(vocabulary: Sequence[str], items: Container[str]) -> np.ndarray:
    """Whether each vocabulary item is in ``items``, indexed by code."""
    return np.array([item in items for item in vocabulary], dtype=bool)


class BatchScores(NamedTuple):
    """A ranker's scores for every row of a corpus's ``candidates``.

    Within a session, candidates order by ``score`` desc, then
    ``popularity`` desc, then id, as ``order_candidates`` orders them; a
    score of -inf leaves its candidate out of the ranking (the proposed
    ranker's anchor). ``fallback`` flags each session ordered by the
    popularity fallback, and ``unknown`` each candidate outside the
    ranker's item set.
    """

    score: np.ndarray
    popularity: np.ndarray
    fallback: np.ndarray
    unknown: np.ndarray


def _dedupe(candidates: Iterable[str]) -> list[str]:
    """Each candidate once, in first-seen order."""
    return list(dict.fromkeys(candidates))


def _by_popularity(
    items: Sequence[str],
    popularity: Mapping[str, float],
    t: int,
    fallback_used: bool,
) -> RankedList:
    """Distinct ``items`` ordered by popularity (unknown items count 0), then
    id."""
    scores = [popularity.get(item, 0.0) for item in items]
    return order_candidates(items, scores, t, None, None, fallback_used)


def anchor_item(
    session: Sequence[Action],
    popularity: PopularityTable,
    universe: Container[str] | None = None,
) -> str | None:
    """Pick the session's anchor: the interacted item of highest popularity.

    Ties prefer the most recently touched item, then the lexicographically
    smallest id. ``universe`` optionally restricts eligibility (e.g. to items
    a model can score); it is only tested for membership, so pass the model
    itself rather than a copy of its ids.

    Returns None when no action references an eligible item.
    """
    last_seen: dict[str, int] = {}
    for pos, action in enumerate(session):
        item = action.item_ref
        if item is None or item not in popularity:
            continue
        if universe is not None and item not in universe:
            continue
        last_seen[item] = pos
    if not last_seen:
        return None
    return min(last_seen, key=lambda i: (-popularity[i], -last_seen[i], i))


def rank_candidates(
    model: EmbeddingModel,
    anchor: str,
    candidates: Sequence[str] | None,
    t: int,
    popularity: PopularityTable | None = None,
) -> RankedList:
    """Score candidates by connection probability to ``anchor``, keep the top t.

    ``candidates=None`` ranks the whole catalog, scored by index. Listed
    candidates count once, each looked up in the model's index once; those
    missing from it score 0 and land at the tail ordered by popularity. The
    anchor itself is never recommended. ``popularity`` defaults to the model's own table and supplies tie/tail
    ordering.
    """
    a = model.index_of(anchor)  # raises MissingItemError for unknown anchors
    pop = popularity if popularity is not None else model.popularity
    if candidates is None:
        items: Sequence[str] = model.ids
        scores = _law(model, a, slice(None))
        # capped below the catalog's size, the top t never reaches the anchor
        scores[a] = -np.inf
        t = min(t, len(model) - 1)
    else:
        items = _dedupe(c for c in candidates if c != anchor)
        row = np.array([model._index.get(c, -1) for c in items], dtype=np.intp)
        known = row >= 0
        scores = np.zeros(len(items))
        scores[known] = _law(model, a, row[known])
    return order_candidates(items, scores, t, pop, anchor=anchor, fallback_used=False)


class NextItemRecommender:
    """The proposed ranker over a fitted model: one entry point, ``rank``."""

    name = "proposed"

    def __init__(
        self,
        model: EmbeddingModel,
        popularity: PopularityTable | None = None,
    ):
        self.model = model
        self.popularity = popularity if popularity is not None else model.popularity

    def rank(
        self,
        session: Sequence[Action],
        candidates: Sequence[str] | None,
        t: int,
    ) -> RankedList:
        """Rank next-item candidates for an active session.

        With ``candidates`` this reranks the given list (impression
        reranking); with None, it returns the model items nearest to the
        anchor in connection probability. A session with no model-scorable
        item falls back to popularity ordering with ``fallback_used=True``.
        """
        if t < 1:
            raise ValueError("t must be >= 1")
        anchor = anchor_item(session, self.popularity, universe=self.model)
        if anchor is None:
            pool = self.model.ids if candidates is None else _dedupe(candidates)
            return _by_popularity(pool, self.popularity, t, fallback_used=True)
        return rank_candidates(self.model, anchor, candidates, t, self.popularity)

    def score_sessions(self, corpus: SessionCorpus) -> BatchScores:
        """``rank``'s rules over every session of ``corpus`` at once, each
        reranking its ``candidates``. The anchor is the session's item, in
        the model and the popularity table, of the highest popularity; its
        most recent action breaks a tie (two items never share one, so the
        id rule never decides)."""
        vocabulary = corpus.item_vocabulary
        popularity = _lookup(vocabulary, self.popularity, 0.0)
        row = _lookup(vocabulary, self.model._index, -1)
        eligible = _holds(vocabulary, self.popularity) & (row >= 0)
        acted, item, _ = corpus.item_actions
        history = np.flatnonzero(eligible[item])
        owner = acted[history]
        order = np.lexsort((history, popularity[item[history]], owner))
        last = order[np.diff(owner[order], append=-1) != 0]  # each session's top
        anchor = np.full(corpus.n_sessions, -1)
        anchor[owner[last]] = item[history[last]]

        candidate, offsets = corpus.candidates
        session = _owners(offsets)
        fallback = anchor < 0
        score = np.where(fallback[session], popularity[candidate], 0.0)
        scored = np.flatnonzero(~fallback[session] & (row[candidate] >= 0))
        a, b = row[anchor[session[scored]]], row[candidate[scored]]
        for k in range(0, len(scored), _LAW_BLOCK):
            block = slice(k, k + _LAW_BLOCK)
            score[scored[block]] = _law(self.model, a[block], b[block])
        score[candidate == anchor[session]] = -np.inf
        return BatchScores(score, popularity[candidate], fallback, row[candidate] < 0)
