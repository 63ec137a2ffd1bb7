"""Next-item ranking by connection probability to a session anchor.

The anchor is the most popular item the user touched in the active session;
candidates are ordered by their probability of connecting to it. Candidates
the model cannot score sink to the tail, ordered by global popularity, and a
session with no scorable item at all falls back to a pure popularity ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable, Mapping, Sequence

import numpy as np

from .affinity import PopularityTable
from .errors import ValidationError
from .model import EmbeddingModel, _law, connection_probabilities
from .sessions import Action


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
    candidates count once; those missing from the model score 0 and land at
    the tail ordered by popularity. The anchor itself is never recommended.
    ``popularity`` defaults to the model's own table and supplies tie/tail
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
        known = [k for k, c in enumerate(items) if c in model]
        scores = np.zeros(len(items))
        scores[known] = connection_probabilities(
            model, anchor, [items[k] for k in known]
        )
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
