"""Shared fixtures: tiny hand-built corpora used across the suite."""

import numpy as np
import pytest

from simpop.sessions import CLICKOUT, Action, Role, SessionCorpus


def make_action(
    sid,
    step,
    item=None,
    kind="interaction item info",
    impressions=None,
    user=None,
    ts=None,
):
    return Action(
        session_id=sid,
        user_id=user or f"user_{sid}",
        step=step,
        action_type=kind,
        item_ref=item,
        impressions=tuple(impressions) if impressions else None,
        timestamp=ts if ts is not None else 1_500_000_000 + step,
    )


def clickout(sid, step, item, impressions, ts=None):
    return make_action(
        sid, step, item=item, kind=CLICKOUT, impressions=impressions, ts=ts
    )


def ids_of(ranked):
    """A ranked list's item ids, in rank order."""
    return tuple(item for item, _ in ranked.items)


def pair_dict(graph):
    """An affinity graph's pairs as ``{(i, j): p}`` in the graph's pair order."""
    ids = graph.ids
    return {
        (ids[i], ids[j]): p
        for i, j, p in zip(graph.ii.tolist(), graph.jj.tolist(), graph.p.tolist())
    }


@pytest.fixture
def toy_train():
    """Three sessions over items A..E; two sessions end in clickouts."""
    actions = [
        make_action("s1", 1, item="A"),
        make_action("s1", 2, item="B"),
        clickout("s1", 3, "C", ["A", "B", "C", "D"]),
        make_action("s2", 1, item="B"),
        make_action("s2", 2, item="C"),
        clickout("s2", 3, "D", ["B", "C", "D", "E"]),
        make_action("s3", 1, item="A"),
        make_action("s3", 2, item="E"),
    ]
    return SessionCorpus.from_actions(actions, Role.TRAIN)


@pytest.fixture
def toy_test():
    """Two test sessions, each ending with a revealed clickout to hide."""
    actions = [
        make_action("t1", 1, item="A"),
        clickout("t1", 2, "B", ["A", "B", "C"]),
        make_action("t2", 1, item="C"),
        make_action("t2", 2, item="D"),
        clickout("t2", 3, "E", ["C", "D", "E"]),
    ]
    return SessionCorpus.from_actions(actions, Role.TEST)


#: a corpus's int64 columns and its tables
CORPUS_ARRAYS = (
    "offsets", "step", "timestamp", "kind", "user", "item",
    "impression_offsets", "impressions",
)
CORPUS_TABLES = ("session_ids", "kinds", "users", "item_vocabulary")


def assert_same_columns(corpus, other):
    """The same role, and every table and int64 column equal."""
    assert corpus.role is other.role
    for name in CORPUS_TABLES:
        assert getattr(corpus, name) == getattr(other, name), name
    for name in CORPUS_ARRAYS:
        mine, theirs = getattr(corpus, name), getattr(other, name)
        assert mine.dtype == theirs.dtype == np.int64, name
        assert np.array_equal(mine, theirs), name
