"""Item popularity and sparse co-occurrence connection-probability estimates.

Popularity is the interaction count of an item in historical sessions,
floored at 1 so it can always appear in a denominator. The connection
estimate for an item pair is the cosine of their binary session-incidence
vectors, which lies in (0, 1] whenever the items co-occur at least once.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .errors import (
    MissingItemError,
    ParseError,
    UndefinedSimilarityError,
    ValidationError,
)
from .sessions import Role, SessionCorpus

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PopularityTable:
    """Per-item popularity (hidden degree), finite and >= 1 for known items."""

    kappa: dict[str, float]

    def __post_init__(self):
        for item, k in self.kappa.items():
            if not 1.0 <= k < math.inf:
                raise ValidationError(
                    f"popularity of {item} is {k}, must be finite and >= 1"
                )

    def __getitem__(self, item: str) -> float:
        try:
            return self.kappa[item]
        except KeyError:
            raise MissingItemError(f"unknown item {item!r}") from None

    def get(self, item: str, default: float = 0.0) -> float:
        return self.kappa.get(item, default)

    def __contains__(self, item: str) -> bool:
        return item in self.kappa

    def __len__(self) -> int:
        return len(self.kappa)


def compute_popularity(corpus: SessionCorpus) -> PopularityTable:
    """Count each vocabulary item's interactions, flooring at 1.

    Items that only ever show up inside impression lists get the floor value,
    which keeps them usable at ranking time.
    """
    if corpus.role is not Role.TRAIN:
        raise ValidationError("compute_popularity expects a TRAIN corpus")
    counts = interaction_counts(corpus)
    return PopularityTable(
        {item: float(max(counts.get(item, 0), 1)) for item in corpus.item_vocabulary}
    )


def interaction_counts(corpus: SessionCorpus, clickout_only: bool = False) -> Counter:
    """Raw per-item action counts (no flooring); optionally clickouts only."""
    return Counter(
        a.item_ref
        for acts in corpus.sessions.values()
        for a in acts
        if a.item_ref is not None and (a.is_clickout or not clickout_only)
    )


def item_session_incidence(corpus: SessionCorpus) -> dict[str, frozenset[str]]:
    """Map each item to the set of sessions it was interacted with in.

    Incidence is binary per (item, session): repeats within one session count
    once. Impression-list appearances do not count.
    """
    seen: dict[str, set[str]] = {}
    for sid, acts in corpus.sessions.items():
        for a in acts:
            if a.item_ref is not None:
                seen.setdefault(a.item_ref, set()).add(sid)
    return {item: frozenset(s) for item, s in seen.items()}


def cosine_cooccurrence(
    incidence: Mapping[str, frozenset[str]], i: str, j: str
) -> float:
    """Cosine of the binary session-incidence vectors of items i and j."""
    if i == j:
        raise ValueError("cosine co-occurrence is defined for distinct items")
    s_i, s_j = incidence.get(i), incidence.get(j)
    if not s_i:
        raise UndefinedSimilarityError(f"item {i!r} has no sessions")
    if not s_j:
        raise UndefinedSimilarityError(f"item {j!r} has no sessions")
    shared = len(s_i & s_j)
    if shared == 0:
        return 0.0
    return min(1.0, shared / math.sqrt(len(s_i) * len(s_j)))


@dataclass(frozen=True)
class AffinityGraph:
    """Sparse symmetric set of item pairs with positive connection estimates.

    ``pairs`` keys are canonically ordered (min, max) tuples; lookups accept
    either orientation.
    """

    pairs: dict[tuple[str, str], float]
    popularity: PopularityTable
    _adjacency: dict[str, tuple[tuple[str, float], ...]] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self):
        adjacency: dict[str, list[tuple[str, float]]] = {}
        for (i, j), p in self.pairs.items():
            if i == j:
                raise ValidationError(f"self-pair on item {i!r}")
            if i > j:
                raise ValidationError(f"pair ({i!r}, {j!r}) not canonically ordered")
            if not 0.0 < p <= 1.0:
                raise ValidationError(f"pair ({i}, {j}) has p={p}, not in (0, 1]")
            adjacency.setdefault(i, []).append((j, p))
            adjacency.setdefault(j, []).append((i, p))
        frozen = {
            item: tuple(sorted(nbrs, key=lambda np_: (-np_[1], np_[0])))
            for item, nbrs in adjacency.items()
        }
        object.__setattr__(self, "_adjacency", frozen)

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
        return cls(pairs=canonical, popularity=popularity)

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    def items(self) -> list[str]:
        """Items incident to at least one pair, sorted."""
        return sorted(self._adjacency)

    def similarity(self, i: str, j: str) -> float:
        if i == j:
            return 0.0
        key = (i, j) if i <= j else (j, i)
        return self.pairs.get(key, 0.0)

    def neighbors(self, item: str) -> tuple[tuple[str, float], ...]:
        """Neighbors of ``item`` sorted by decreasing similarity."""
        return self._adjacency.get(item, ())


def build_affinity_graph(
    corpus: SessionCorpus,
    min_sessions: int = 2,
    max_pairs_per_item: int = 500,
) -> AffinityGraph:
    """Estimate all positive pairwise connection probabilities from sessions.

    Pairs are enumerated through an inverted index over sessions, so cost
    scales with co-occurrence volume, never with vocabulary squared. Items in
    fewer than ``min_sessions`` sessions are excluded; when
    ``max_pairs_per_item`` > 0 each item keeps only its strongest pairs and
    the kept sets are unioned, which preserves symmetry; 0 keeps every pair.
    """
    if corpus.role is not Role.TRAIN:
        raise ValidationError("build_affinity_graph expects a TRAIN corpus")
    if min_sessions < 1:
        raise ValueError("min_sessions must be >= 1")
    if max_pairs_per_item < 0:
        raise ValueError("max_pairs_per_item must be >= 0 (0 keeps every pair)")

    incidence = item_session_incidence(corpus)
    eligible = {
        item: sess for item, sess in incidence.items() if len(sess) >= min_sessions
    }

    co_counts: Counter = Counter()
    for sid, acts in corpus.sessions.items():
        members = sorted({a.item_ref for a in acts if a.item_ref in eligible})
        for i, j in itertools.combinations(members, 2):
            co_counts[(i, j)] += 1

    pairs = {
        (i, j): min(1.0, c / math.sqrt(len(eligible[i]) * len(eligible[j])))
        for (i, j), c in co_counts.items()
    }

    if max_pairs_per_item > 0:
        pairs = _prune_top_pairs(pairs, max_pairs_per_item)

    items_in_pairs = {i for pair in pairs for i in pair}
    log.info(
        "affinity graph: %d pairs over %d items (%d items eligible)",
        len(pairs),
        len(items_in_pairs),
        len(eligible),
    )
    return AffinityGraph(pairs=pairs, popularity=compute_popularity(corpus))


def _prune_top_pairs(
    pairs: Mapping[tuple[str, str], float], k: int
) -> dict[tuple[str, str], float]:
    by_item: dict[str, list[tuple[float, str]]] = {}
    for (i, j), p in pairs.items():
        by_item.setdefault(i, []).append((p, j))
        by_item.setdefault(j, []).append((p, i))
    kept: set[tuple[str, str]] = set()
    for item, nbrs in by_item.items():
        nbrs.sort(key=lambda pn: (-pn[0], pn[1]))
        for p, other in nbrs[:k]:
            kept.add((item, other) if item <= other else (other, item))
    return {pair: pairs[pair] for pair in kept}


# ---------------------------------------------------------------------------
# Text export, one line per pair / per item
# ---------------------------------------------------------------------------


def write_affinity_graph(
    graph: AffinityGraph, pairs_path: str | Path, popularity_path: str | Path
) -> None:
    with open(pairs_path, "w", encoding="utf-8") as out:
        for i, j in sorted(graph.pairs):
            out.write(f"{i}\t{j}\t{graph.pairs[(i, j)]!r}\n")
    with open(popularity_path, "w", encoding="utf-8") as out:
        for item in sorted(graph.popularity.kappa):
            out.write(f"{item}\t{graph.popularity.kappa[item]!r}\n")


def read_affinity_graph(
    pairs_path: str | Path, popularity_path: str | Path
) -> AffinityGraph:
    pairs: dict[tuple[str, str], float] = {}
    with open(pairs_path, "r", encoding="utf-8") as stream:
        for n, line in enumerate(stream, start=1):
            fields = line.rstrip("\n").split("\t")
            try:
                if len(fields) != 3:
                    raise ValueError(f"{len(fields)} tab-separated fields, expected 3")
                pairs[(fields[0], fields[1])] = float(fields[2])
            except ValueError as exc:
                raise ParseError(
                    f"malformed pair line in {pairs_path}: {exc}", n
                ) from None
    return AffinityGraph.from_pairs(pairs, read_popularity(popularity_path))


def read_popularity(path: str | Path) -> PopularityTable:
    """Read a popularity TSV as written by ``write_affinity_graph``."""
    kappa: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as stream:
        for n, line in enumerate(stream, start=1):
            fields = line.rstrip("\n").split("\t")
            try:
                if len(fields) != 2:
                    raise ValueError(f"{len(fields)} tab-separated fields, expected 2")
                kappa[fields[0]] = float(fields[1])
            except ValueError as exc:
                raise ParseError(
                    f"malformed popularity line in {path}: {exc}", n
                ) from None
    return PopularityTable(kappa)
