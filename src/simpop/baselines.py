"""Comparison rankers sharing the recommender's output interface.

Five reference strategies: seeded random permutation, interaction
popularity, clickout popularity, co-occurrence K nearest neighbors, and
metadata K nearest neighbors. Each exposes ``name``,
``rank(session, candidates, t)`` returning a RankedList and
``score_sessions(corpus)`` returning BatchScores for every session of a
SessionCorpus, the same duck type as NextItemRecommender.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path
from typing import Mapping, Protocol, Sequence

import numpy as np

from .affinity import AffinityGraph, PopularityTable
from .errors import ParseError, ValidationError
from .recommender import (
    BatchScores,
    RankedList,
    _by_popularity,
    _dedupe,
    _holds,
    _lookup,
    order_candidates,
)
from .sessions import _ID_BREAKS, Action, SessionCorpus, _offsets, _owners, _ranges

#: how many of the previous item's nearest neighbors a KNN ranker scores
_NEIGHBORS = 100

#: characters a metadata token must not hold: its separator, and the
#: file's field and line breaks
_TOKEN_BREAKS = re.compile("[|\t\n\r]")


class Ranker(Protocol):
    """What ``evaluate`` ranks with: a ``name`` and ``rank``, one request at
    a time. A ranker that also offers ``score_sessions(corpus) ->
    BatchScores``, as every built-in one does, is scored by it instead,
    every session of the test corpus at once, and ``evaluate`` never calls
    its ``rank``."""

    name: str

    def rank(
        self, session: Sequence[Action], candidates: Sequence[str], t: int
    ) -> RankedList: ...


def _previous_item(session: Sequence[Action]) -> str | None:
    """The item of the most recent action that reveals one."""
    for action in reversed(session):
        if action.item_ref is not None:
            return action.item_ref
    return None


def _previous_items(corpus: SessionCorpus) -> np.ndarray:
    """Each session's ``_previous_item`` as a code, -1 for none."""
    session, item, _ = corpus.item_actions
    last = np.flatnonzero(np.diff(session, append=-1) != 0)  # each session's last
    previous = np.full(corpus.n_sessions, -1)
    previous[session[last]] = item[last]
    return previous


class RandomRanker:
    """Uniform random permutation of the candidates, seeded.

    The per-call generator is derived from (seed, session id, candidates), so
    identical inputs reproduce the same permutation while distinct sessions
    get independent draws.
    """

    name = "random"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def rank(self, session, candidates, t) -> RankedList:
        unique = _dedupe(candidates)
        sid = session[0].session_id if session else ""
        rng = np.random.default_rng(self._call_seed(sid, unique))
        n = len(unique)
        scores = np.empty(n)
        scores[rng.permutation(n)] = (n - np.arange(n)) / n
        return order_candidates(unique, scores, t, None, None, fallback_used=False)

    def score_sessions(self, corpus: SessionCorpus) -> BatchScores:
        """Each session's permutation, drawn as ``rank`` draws it."""
        candidate, offsets = corpus.candidates
        names = [corpus.item_vocabulary[k] for k in candidate.tolist()]
        bounds = offsets.tolist()
        score = np.empty(len(names))
        for sid, a, b in zip(corpus.session_ids, bounds, bounds[1:]):
            rng = np.random.default_rng(self._call_seed(sid, names[a:b]))
            n = b - a
            score[a + rng.permutation(n)] = (n - np.arange(n)) / n
        no = np.zeros(corpus.n_sessions, dtype=bool)
        return BatchScores(score, np.zeros(len(names)), no, np.zeros(len(names), bool))

    def _call_seed(self, session_id: str, candidates: Sequence[str]) -> int:
        h = hashlib.blake2b(digest_size=8)
        h.update(str(self.seed).encode())
        h.update(session_id.encode())
        for c in candidates:
            h.update(b"\x00")
            h.update(c.encode())
        return int.from_bytes(h.digest(), "big")


class _CountRanker:
    """Rank by a fixed per-item count, given as an array aligned with a
    train corpus's ``vocabulary``. ``counts`` keeps only the items counted
    at least once: they are the ranker's item set, and any other candidate
    counts 0 and is unknown."""

    def __init__(self, vocabulary: Sequence[str], counts: np.ndarray):
        self.counts = {i: c for i, c in zip(vocabulary, counts.tolist()) if c}

    def rank(self, session, candidates, t) -> RankedList:
        return _by_popularity(_dedupe(candidates), self.counts, t, fallback_used=False)

    def score_sessions(self, corpus: SessionCorpus) -> BatchScores:
        candidate, _ = corpus.candidates
        counts = _lookup(corpus.item_vocabulary, self.counts, 0.0)[candidate]
        no = np.zeros(corpus.n_sessions, dtype=bool)
        return BatchScores(counts, np.zeros(len(candidate)), no, counts == 0)


class InteractionPopularityRanker(_CountRanker):
    """Most interacted-with items first."""

    name = "ipop"

    def __init__(self, corpus: SessionCorpus):
        super().__init__(corpus.item_vocabulary, corpus.item_counts[0])


class ClickoutPopularityRanker(_CountRanker):
    """Most clicked-out items first."""

    name = "icpop"

    def __init__(self, corpus: SessionCorpus):
        super().__init__(corpus.item_vocabulary, corpus.item_counts[1])


class CooccurrenceKnnRanker:
    """Score candidates by session co-occurrence with the previous item.

    Only the 100 strongest neighbors of the previous item can receive a
    similarity score; everything else tails out by popularity. Sessions with
    no previous item, or one without neighbors in the graph, fall back to
    popularity ordering.
    """

    name = "icknn"

    def __init__(self, graph: AffinityGraph):
        self.graph = graph

    def rank(self, session, candidates, t) -> RankedList:
        prev = _previous_item(session)
        pop = self.graph.popularity
        near = {} if prev is None else dict(self.graph.neighbors(prev)[:_NEIGHBORS])
        unique = _dedupe(candidates)
        if not near:
            return _by_popularity(unique, pop, t, fallback_used=True)
        scores = [near.get(c, 0.0) for c in unique]
        return order_candidates(unique, scores, t, pop, prev, fallback_used=False)

    def score_sessions(self, corpus: SessionCorpus) -> BatchScores:
        graph, vocabulary = self.graph, corpus.item_vocabulary
        shown, offsets = corpus.candidates
        session = _owners(offsets)
        index = {item: k for k, item in enumerate(graph.ids)}
        code = np.append(_lookup(vocabulary, index, -1), -1)  # -1 maps to -1
        prev, candidate = code[_previous_items(corpus)], code[shown]
        popularity = _lookup(vocabulary, graph.popularity, 0.0)[shown]
        near = graph.strongest_estimates(prev[session], candidate, _NEIGHBORS)
        fallback = prev < 0  # an item of the graph is in at least one pair
        score = np.where(fallback[session], popularity, near)
        return BatchScores(score, popularity, fallback, candidate < 0)


class MetadataKnnRanker:
    """Score candidates by metadata cosine against the previous item.

    Item metadata is a set of property tokens; similarity is the cosine of
    the binary property vectors. At most 100 candidates carry a similarity
    score, mirroring the co-occurrence variant; ``popularity`` orders ties,
    the tail and the fallback.
    """

    name = "imknn"

    def __init__(
        self, metadata: Mapping[str, frozenset[str]], popularity: PopularityTable
    ):
        self.metadata = dict(metadata)
        self.popularity = popularity

    def rank(self, session, candidates, t) -> RankedList:
        prev = _previous_item(session)
        unique = _dedupe(candidates)
        if prev is None or prev not in self.metadata:
            return _by_popularity(unique, self.popularity, t, fallback_used=True)
        props = self.metadata[prev]
        cosines = [self._cosine(props, c) for c in unique]
        nearest = order_candidates(unique, cosines, _NEIGHBORS, None, prev, False)
        near = dict(nearest.items)  # the 100 highest cosines, ties to the smaller id
        scores = [near.get(c, 0.0) for c in unique]
        return order_candidates(unique, scores, t, self.popularity, prev, False)

    def score_sessions(self, corpus: SessionCorpus) -> BatchScores:
        """Every cosine at once: the tokens each candidate shares with its
        session's previous item are counted in numpy and divided by
        ``_cosine``'s root, which Python takes once per distinct product of
        set sizes. An impression list holds at most MAX_IMPRESSIONS
        candidates, fewer than _NEIGHBORS, so each keeps its cosine."""
        vocabulary = corpus.item_vocabulary
        props = [self.metadata.get(item, frozenset()) for item in vocabulary]
        size = np.array([len(p) for p in props], dtype=np.int64)
        code = {tok: k for k, tok in enumerate(set().union(*props))}
        token = np.fromiter(
            (code[tok] for p in props for tok in p), np.int64, count=int(size.sum())
        )
        held = np.repeat(np.arange(len(props)), size) * len(code) + token
        start = _offsets(size)

        known = np.append(_holds(vocabulary, self.metadata), False)  # -1: False
        prev = _previous_items(corpus)
        fallback = ~known[prev]
        c, offsets = corpus.candidates
        session = _owners(offsets)
        p = prev[session]
        shared = np.where(fallback[session], 0, size[p])
        row = np.repeat(np.arange(len(c)), shared)
        probe = c[row] * len(code) + token[_ranges(start[p], shared)]
        common = np.bincount(row[np.isin(probe, held)], minlength=len(c))
        product = shared * size[c]
        distinct, which = np.unique(product, return_inverse=True)
        root = np.array([q**0.5 for q in distinct.tolist()])[which]
        cosine = np.zeros(len(c))
        scored = product > 0
        cosine[scored] = common[scored] / root[scored]

        popularity = _lookup(vocabulary, self.popularity, 0.0)[c]
        score = np.where(fallback[session], popularity, cosine)
        return BatchScores(score, popularity, fallback, ~known[c])

    def _cosine(self, props: frozenset[str], candidate: str) -> float:
        other = self.metadata.get(candidate)
        if not props or not other:
            return 0.0
        return len(props & other) / (len(props) * len(other)) ** 0.5


def load_metadata(path: str | Path) -> dict[str, frozenset[str]]:
    """Read an item-properties file: ``item_id<TAB>a|b|c`` per line."""
    metadata: dict[str, frozenset[str]] = {}
    with open(path, "r", encoding="utf-8") as stream:
        for n, line in enumerate(stream, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError(f"malformed metadata line in {path}", n)
            if fields[0] in metadata:
                raise ParseError(f"repeated item {fields[0]!r} in {path}", n)
            metadata[fields[0]] = frozenset(
                tok for tok in fields[1].split("|") if tok
            )
    return metadata


def write_metadata(metadata: Mapping[str, frozenset[str]], path: str | Path) -> None:
    """Write the layout ``load_metadata`` reads. Raises ValidationError,
    before the file is opened, for the first item it would not read back: an
    id holding a tab or line break, or a token that is empty or holds ``|``,
    a tab or a line break."""
    lines = []
    for item in sorted(metadata):
        tokens = sorted(metadata[item])
        if _ID_BREAKS.search(item):
            raise ValidationError(f"metadata item {item!r}: id holds a tab or line break")
        for token in tokens:
            if not token or _TOKEN_BREAKS.search(token):
                raise ValidationError(
                    f"metadata item {item!r}: token {token!r} is empty or holds "
                    f"'|', a tab or a line break"
                )
        lines.append(f"{item}\t{'|'.join(tokens)}\n")
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(lines)
