"""Shared fixtures: tiny hand-built corpora used across the suite, the
columnar companion's layout as the tests read and rewrite it, and a switch
that lets the fit fork its helper on any graph and host."""

import json
import pickle

import numpy as np
import pytest

from simpop import embedder
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


def let_fit_helper_run(monkeypatch, after=0):
    """Fork the fit's helper after ``after`` iterations, on any graph and
    host: a 1-CPU host still runs both processes, one after the other."""
    monkeypatch.setattr(embedder, "_HELPER_AFTER", after)
    monkeypatch.setattr(embedder, "_HELPER_MIN_ELEMENTS", 1)
    monkeypatch.setattr(embedder, "_usable_cpus", lambda: 2)


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


# ---------------------------------------------------------------------------
# The columnar companion of a corpus or model file
# ---------------------------------------------------------------------------


def read_companion(companion):
    """A companion's header and its sections as ``[name, dtype, bytes]``."""
    tag, header, rest = companion.read_bytes().split(b"\n", 2)
    assert tag == b"simpop-columns 1"
    header = json.loads(header)
    sections, at = [], 0
    for name, dtype, count in header["sections"]:
        size = count * np.dtype(dtype).itemsize
        sections.append([name, dtype, rest[at : at + size]])
        at += size + -size % 8
    assert at == len(rest)
    return header["sha256"], sections


def rewrite_companion(companion, edit):
    """Rewrite a companion in its own layout after ``edit(sections)`` has
    changed its ``[name, dtype, bytes]`` sections in place; each section's
    length follows its bytes and dtype, and the digest stays."""
    digest, sections = read_companion(companion)
    edit(sections)
    header = json.dumps({
        "sha256": digest,
        "sections": [
            [name, dtype, len(data) // np.dtype(dtype).itemsize]
            for name, dtype, data in sections
        ],
    }).encode()
    head = b"simpop-columns 1\n" + header
    out = head + b" " * (-(len(head) + 1) % 8) + b"\n"
    for _, _, data in sections:
        out += data + bytes(-len(data) % 8)
    companion.write_bytes(out)


def edit_int64(name, change):
    """An edit that applies ``change`` to a copy of the int64 section."""
    def edit(sections):
        section = next(s for s in sections if s[0] == name)
        values = np.frombuffer(section[2], dtype="<i8").copy()
        section[2] = change(values).astype("<i8").tobytes()
    return edit


def edit_table(name, change):
    """An edit that replaces a table by ``change`` of its entries."""
    def edit(sections):
        lengths = next(s for s in sections if s[0] == f"{name}.lengths")
        text = next(s for s in sections if s[0] == name)
        ends = np.concatenate([[0], np.cumsum(np.frombuffer(lengths[2], "<i8"))])
        decoded = text[2].decode()
        table = change([decoded[a:b] for a, b in zip(ends[:-1], ends[1:])])
        lengths[2] = np.array([len(t) for t in table], dtype="<i8").tobytes()
        text[2] = "".join(table).encode()
    return edit


def set_dtype(name, dtype, data=None):
    def edit(sections):
        section = next(s for s in sections if s[0] == name)
        section[1] = dtype
        if data is not None:
            section[2] = data
    return edit


@pytest.fixture
def no_pickle(monkeypatch):
    """Fail any test that unpickles or ``np.load``s anything."""
    def refuse(*args, **kwargs):
        raise AssertionError("a companion is read without pickle")
    for owner, name in [(pickle, "load"), (pickle, "loads"), (pickle, "Unpickler"),
                        (np, "load")]:
        monkeypatch.setattr(owner, name, refuse)
