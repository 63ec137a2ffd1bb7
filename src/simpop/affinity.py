"""Item popularity and sparse co-occurrence connection-probability estimates.

Popularity is the interaction count of an item in historical sessions,
floored at 1 so it can always appear in a denominator. The connection
estimate for an item pair is the cosine of their binary session-incidence
vectors, which lies in (0, 1] whenever the items co-occur at least once.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping

import numpy as np

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

    def __post_init__(self):
        for (i, j), p in self.pairs.items():
            if i == j:
                raise ValidationError(f"self-pair on item {i!r}")
            if i > j:
                raise ValidationError(f"pair ({i!r}, {j!r}) not canonically ordered")
            if not 0.0 < p <= 1.0:
                raise ValidationError(f"pair ({i}, {j}) has p={p}, not in (0, 1]")

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
        return sorted({item for pair in self.pairs for item in pair})

    def similarity(self, i: str, j: str) -> float:
        if i == j:
            return 0.0
        key = (i, j) if i <= j else (j, i)
        return self.pairs.get(key, 0.0)

    def neighbors(self, item: str) -> tuple[tuple[str, float], ...]:
        """Neighbors of ``item`` sorted by decreasing similarity."""
        return self._adjacency.get(item, ())

    @cached_property
    def _adjacency(self) -> dict[str, tuple[tuple[str, float], ...]]:
        """Every item's neighbour list, sorted on the first ``neighbors`` call."""
        adjacency: dict[str, list[tuple[str, float]]] = {}
        for (i, j), p in self.pairs.items():
            adjacency.setdefault(i, []).append((j, p))
            adjacency.setdefault(j, []).append((i, p))
        return {
            item: tuple(sorted(nbrs, key=lambda np_: (-np_[1], np_[0])))
            for item, nbrs in adjacency.items()
        }


def build_affinity_graph(
    corpus: SessionCorpus,
    min_sessions: int = 2,
    max_pairs_per_item: int = 500,
) -> AffinityGraph:
    """Estimate all positive pairwise connection probabilities from sessions.

    Items are coded by their position in the sorted vocabulary, so code order
    is id order. Each session's distinct items are paired in numpy and the
    pairs counted as codes ``i * n + j``, so cost scales with co-occurrence
    volume, never with vocabulary squared. Items in fewer than
    ``min_sessions`` sessions are excluded; when ``max_pairs_per_item`` > 0
    each item keeps only its strongest pairs (ties to the smaller id) and the
    kept sets are unioned, which preserves symmetry; 0 keeps every pair.
    """
    if corpus.role is not Role.TRAIN:
        raise ValidationError("build_affinity_graph expects a TRAIN corpus")
    if min_sessions < 1:
        raise ValueError("min_sessions must be >= 1")
    if max_pairs_per_item < 0:
        raise ValueError("max_pairs_per_item must be >= 0 (0 keeps every pair)")

    vocab = sorted(corpus.item_vocabulary)
    n = len(vocab)
    code = {item: k for k, item in enumerate(vocab)}
    rows = [
        s * n + code[a.item_ref]
        for s, acts in enumerate(corpus.sessions.values())
        for a in acts
        if a.item_ref is not None
    ]
    # distinct (session, item) rows, by session and then item
    rows = np.unique(np.array(rows, dtype=np.int64))
    session, item = np.divmod(rows, n)
    n_sessions = np.bincount(item, minlength=n)
    eligible = n_sessions >= min_sessions
    keep = eligible[item]
    session, item = session[keep], item[keep]

    ii, jj = _session_pairs(session, item)
    codes, counts = np.unique(ii * n + jj, return_counts=True)
    ii, jj = np.divmod(codes, n)
    product = n_sessions[ii] * n_sessions[jj]
    p = np.minimum(1.0, counts / np.sqrt(product.astype(float)))

    if max_pairs_per_item > 0:
        kept = _top_pairs(ii, jj, p, max_pairs_per_item)
        ii, jj, p = ii[kept], jj[kept], p[kept]

    pairs = dict(
        zip(
            zip([vocab[k] for k in ii.tolist()], [vocab[k] for k in jj.tolist()]),
            p.tolist(),
        )
    )
    log.info(
        "affinity graph: %d pairs over %d items (%d items eligible)",
        len(pairs),
        len(np.union1d(ii, jj)),
        int(np.count_nonzero(eligible)),
    )
    return AffinityGraph(pairs=pairs, popularity=compute_popularity(corpus))


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


def _top_pairs(ii: np.ndarray, jj: np.ndarray, p: np.ndarray, k: int) -> np.ndarray:
    """Mask of the pairs among some item's ``k`` strongest, ties to the
    smaller other item."""
    pair = np.arange(len(p))
    item, other = np.r_[ii, jj], np.r_[jj, ii]
    both, pair = np.r_[p, p], np.r_[pair, pair]
    order = np.lexsort((other, -both, item))
    item = item[order]
    starts = np.flatnonzero(np.r_[True, item[1:] != item[:-1]])
    rank = np.arange(len(item)) - np.repeat(starts, np.diff(np.r_[starts, len(item)]))
    kept = np.zeros(len(p), dtype=bool)
    kept[pair[order][rank < k]] = True
    return kept


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
