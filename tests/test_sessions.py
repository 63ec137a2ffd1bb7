"""Session parsing, validation, the canonical format, and corpus transforms."""

import csv
import gzip
import io
import math
import pickle
import re
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpop.affinity import build_affinity_graph, compute_popularity
from simpop.errors import ParseError, ValidationError
from simpop.sessions import (
    _CANONICAL_COLUMNS,
    _ID_BREAKS,
    CLICKOUT,
    MAX_IMPRESSIONS,
    Action,
    Role,
    SessionCorpus,
    _numbered_rows,
    filter_bookable_sessions,
    hide_test_targets,
    parse_session_log,
    prepare_holdout,
    read_truth,
    split_by_time,
    subsample_sessions,
    write_columns,
    write_corpus,
    write_truth,
)

from conftest import (
    CORPUS_ARRAYS,
    assert_same_columns,
    clickout,
    edit_int64,
    edit_table,
    make_action,
    rewrite_companion,
    set_dtype,
)

HEADER = "user_id,session_id,timestamp,step,action_type,reference,impressions"


def corpus_from_text(text, role=Role.TRAIN):
    return parse_session_log(io.BytesIO(text.encode()), role=role)


class TestParsing:
    def test_groups_one_session_by_step(self):
        text = (
            f"{HEADER}\n"
            "u1,s1,1000,1,interaction item info,A,\n"
            "u1,s1,1001,2,interaction item image,B,\n"
            "u1,s1,1002,3,clickout item,A,A|B|C\n"
        )
        corpus = corpus_from_text(text)
        assert corpus.n_sessions == 1
        steps = [a.step for a in corpus.sessions["s1"]]
        assert steps == [1, 2, 3]
        assert corpus.item_vocabulary == ("A", "B", "C")

    def test_impressions_split_on_pipe(self):
        text = f"{HEADER}\nu1,s1,1000,1,clickout item,A,A|B|C\n"
        corpus = corpus_from_text(text)
        assert corpus.sessions["s1"][0].impressions == ("A", "B", "C")

    def test_rows_sorted_by_step_even_if_shuffled(self):
        text = (
            f"{HEADER}\n"
            "u1,s1,1002,3,clickout item,A,A|B\n"
            "u1,s1,1000,1,interaction item info,A,\n"
            "u1,s1,1001,2,interaction item info,B,\n"
        )
        corpus = corpus_from_text(text)
        assert [a.step for a in corpus.sessions["s1"]] == [1, 2, 3]

    def test_duplicate_step_is_validation_error(self):
        text = (
            f"{HEADER}\n"
            "u1,s1,1000,1,interaction item info,A,\n"
            "u1,s1,1001,2,interaction item info,B,\n"
            "u1,s1,1002,2,interaction item info,C,\n"
        )
        with pytest.raises(ValidationError, match="s1"):
            corpus_from_text(text)

    def test_duplicate_step_names_it(self):
        text = (
            f"{HEADER}\n"
            "u1,s1,1000,1,interaction item info,A,\n"
            "u1,s1,1001,1,interaction item info,B,\n"
        )
        with pytest.raises(ValidationError, match="s1: duplicate step 1$"):
            corpus_from_text(text)

    def test_step_zero_is_a_contiguity_error(self):
        # steps count from 1, so a first step 0 is out of sequence, not a
        # duplicate of anything
        text = f"{HEADER}\nu1,s1,1000,0,interaction item info,A,\n"
        with pytest.raises(
            ValidationError, match="steps must be contiguous from 1, found 0 after 0$"
        ):
            corpus_from_text(text)

    def test_non_contiguous_steps_rejected(self):
        text = f"{HEADER}\nu1,s1,1000,2,interaction item info,A,\n"
        with pytest.raises(ValidationError, match="contiguous"):
            corpus_from_text(text)

    def test_wrong_column_count_names_line(self):
        text = f"{HEADER}\nu1,s1,1000,1,interaction item info,A\n"
        with pytest.raises(ParseError, match="line 2"):
            corpus_from_text(text)

    def test_non_integer_step_names_line(self):
        text = f"{HEADER}\nu1,s1,1000,one,interaction item info,A,\n"
        with pytest.raises(ParseError, match="line 2"):
            corpus_from_text(text)

    def test_non_integer_timestamp_rejected(self):
        text = f"{HEADER}\nu1,s1,10.5,1,interaction item info,A,\n"
        with pytest.raises(ParseError, match="timestamp"):
            corpus_from_text(text)

    def test_id_with_tab_or_line_break_names_line(self):
        # the CSV quotes these ids, but the model and graph files cannot hold them
        for bad in ("B\tX", "B\nX", "B\rX"):
            for row in (
                f'u1,s1,1001,2,interaction item info,"{bad}",',
                f'u1,s1,1001,2,clickout item,A,"A|{bad}"',
            ):
                text = f"{HEADER}\nu1,s1,1000,1,interaction item info,A,\n{row}\n"
                with pytest.raises(ParseError, match="line 3.*tab or line break"):
                    corpus_from_text(text)

    def test_missing_column_rejected(self):
        with pytest.raises(ParseError, match="reference"):
            corpus_from_text("user_id,session_id,timestamp,step,action_type,impressions\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError, match="empty"):
            corpus_from_text("")

    def test_clickout_without_impressions_rejected(self):
        text = f"{HEADER}\nu1,s1,1000,1,clickout item,A,\n"
        with pytest.raises(ValidationError, match="clickout"):
            corpus_from_text(text)

    def test_clicked_item_must_be_in_impressions(self):
        text = f"{HEADER}\nu1,s1,1000,1,clickout item,Z,A|B\n"
        with pytest.raises(ValidationError, match="Z"):
            corpus_from_text(text)

    def test_extra_columns_ignored(self):
        text = (
            f"{HEADER},platform\n"
            "u1,s1,1000,1,interaction item info,A,,AU\n"
        )
        corpus = corpus_from_text(text)
        assert corpus.sessions["s1"][0].item_ref == "A"

    def test_more_than_25_impressions_rejected(self):
        listed = [f"i{k:02d}" for k in range(26)]
        row = "u1,s1,1000,1,clickout item,i00,{}\n"
        corpus = corpus_from_text(f"{HEADER}\n" + row.format("|".join(listed[:25])))
        assert len(corpus.sessions["s1"][0].impressions) == 25
        with pytest.raises(ValidationError, match="26 impressions exceed the maximum"):
            corpus_from_text(f"{HEADER}\n" + row.format("|".join(listed)))

    def test_blank_row_skipped(self):
        text = (
            f"{HEADER}\n"
            "u1,s1,1000,1,interaction item info,A,\n"
            "\n"
            "u1,s1,1001,2,interaction item info,B,\n"
        )
        corpus = corpus_from_text(text)
        assert [a.item_ref for a in corpus.sessions["s1"]] == ["A", "B"]

    @pytest.mark.parametrize(
        "stream",
        [
            lambda text: io.BytesIO(text.encode()),
            lambda text: io.StringIO(text, newline=""),
        ],
        ids=["binary", "text"],
    )
    def test_callers_stream_stays_open(self, stream):
        source = stream(f"{HEADER}\nu1,s1,1000,1,interaction item info,A,\n")
        corpus = parse_session_log(source)
        assert corpus.sessions["s1"][0].item_ref == "A"
        assert not source.closed

    def test_unknown_action_type_is_kept_as_generic_interaction(self):
        text = f"{HEADER}\nu1,s1,1000,1,some new kind,A,\n"
        action = corpus_from_text(text).sessions["s1"][0]
        assert not action.is_clickout
        assert action.item_ref == "A"


class TestRoundTrip:
    def test_parse_serialize_parse_is_identity(self, toy_train, tmp_path):
        path = tmp_path / "corpus.csv"
        write_corpus(toy_train, path)
        again = parse_session_log(path, role=Role.TRAIN)
        assert again == toy_train
        write_corpus(again, tmp_path / "corpus2.csv")
        assert (tmp_path / "corpus.csv").read_bytes() == (
            tmp_path / "corpus2.csv"
        ).read_bytes()

    def test_gzip_round_trip(self, toy_train, tmp_path):
        path = tmp_path / "corpus.csv.gz"
        write_corpus(toy_train, path)
        with gzip.open(path, "rt") as stream:
            assert stream.readline().strip() == HEADER
        assert parse_session_log(path, role=Role.TRAIN) == toy_train

    def test_gzip_output_is_byte_stable(self, toy_train, tmp_path):
        write_corpus(toy_train, tmp_path / "a.csv.gz")
        write_corpus(toy_train, tmp_path / "b.csv.gz")
        assert (tmp_path / "a.csv.gz").read_bytes() == (tmp_path / "b.csv.gz").read_bytes()

    def test_truth_file_round_trip(self, tmp_path):
        truth = {"s2": "B", "s1": "A"}
        write_truth(truth, tmp_path / "truth.csv")
        assert read_truth(tmp_path / "truth.csv") == truth

    def test_repeated_truth_session_names_its_line(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("session_id,item_id\ns1,A\ns2,B\ns1,C\n")
        with pytest.raises(ParseError, match="line 4: repeated session 's1'"):
            read_truth(path)

    def test_blank_truth_row_skipped(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("session_id,item_id\ns1,A\n\ns2,B\n")
        assert read_truth(path) == {"s1": "A", "s2": "B"}

    def test_truth_header_required(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("session,item\ns1,A\n")
        with pytest.raises(ParseError, match="line 1: expected header"):
            read_truth(path)


class TestFilterBookable:
    def test_keeps_only_clickout_sessions(self, toy_train):
        kept = filter_bookable_sessions(toy_train)
        assert set(kept.sessions) == {"s1", "s2"}

    def test_no_clickouts_gives_empty_corpus(self):
        corpus = SessionCorpus.from_actions(
            [make_action("s1", 1, item="A")], Role.TRAIN
        )
        assert filter_bookable_sessions(corpus).n_sessions == 0

    def test_identity_when_every_session_bookable(self, toy_train):
        once = filter_bookable_sessions(toy_train)
        assert filter_bookable_sessions(once) == once

    def test_idempotent(self, toy_train):
        once = filter_bookable_sessions(toy_train)
        twice = filter_bookable_sessions(once)
        assert once == twice

    def test_rejects_test_corpus(self, toy_test):
        with pytest.raises(ValidationError):
            filter_bookable_sessions(toy_test)


class TestHideTargets:
    def test_blanks_final_clickout_and_returns_truth(self, toy_test):
        blinded, truth = hide_test_targets(toy_test)
        assert truth == {"t1": "B", "t2": "E"}
        last = blinded.sessions["t1"][-1]
        assert last.is_clickout and last.item_ref is None
        assert last.impressions == ("A", "B", "C")

    def test_truth_size_matches_session_count(self, toy_test):
        _, truth = hide_test_targets(toy_test)
        assert len(truth) == toy_test.n_sessions

    def test_empty_corpus_gives_empty_pair(self):
        corpus = SessionCorpus.from_actions([], Role.TEST)
        blinded, truth = hide_test_targets(corpus)
        assert blinded.n_sessions == 0 and truth == {}

    def test_session_without_clickout_rejected(self):
        corpus = SessionCorpus.from_actions(
            [make_action("t1", 1, item="A")], Role.TEST
        )
        with pytest.raises(ValidationError, match="t1"):
            hide_test_targets(corpus)

    def test_already_hidden_target_rejected(self):
        corpus = SessionCorpus.from_actions(
            [clickout("t1", 1, None, ["A", "B"])], Role.TEST
        )
        with pytest.raises(ValidationError, match="revealed"):
            hide_test_targets(corpus)

    def test_prepare_holdout_drops_unusable_sessions(self, toy_train):
        blinded, truth, dropped = prepare_holdout(toy_train)
        assert set(truth) == {"s1", "s2"}
        assert dropped == 1


class TestSubsampleAndSplit:
    def _big_corpus(self, n=200):
        actions = []
        for k in range(n):
            sid = f"s{k:04d}"
            length = 1 + k % 4
            for step in range(1, length + 1):
                actions.append(make_action(sid, step, item="A", ts=1000 + k))
        return SessionCorpus.from_actions(actions, Role.TRAIN)

    def test_subsample_fraction_and_determinism(self):
        corpus = self._big_corpus()
        sub = subsample_sessions(corpus, 0.10, seed=7)
        assert sub.n_sessions == 20
        again = subsample_sessions(corpus, 0.10, seed=7)
        assert set(sub.sessions) == set(again.sessions)

    def test_subsample_preserves_length_strata(self):
        corpus = self._big_corpus()
        sub = subsample_sessions(corpus, 0.20, seed=0)
        whole = {length: 50 for length in (1, 2, 3, 4)}
        for length in whole:
            got = sum(1 for a in sub.sessions.values() if len(a) == length)
            assert got == 10

    def test_subsample_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            subsample_sessions(self._big_corpus(), 0.0)

    def test_split_by_time_is_chronological_and_disjoint(self):
        corpus = self._big_corpus(50)
        head, tail = split_by_time(corpus, 0.2)
        assert head.n_sessions == 40 and tail.n_sessions == 10
        assert not set(head.sessions) & set(tail.sessions)
        head_ts = max(a[0].timestamp for a in head.sessions.values())
        tail_ts = min(a[0].timestamp for a in tail.sessions.values())
        assert head_ts <= tail_ts


def random_corpus(seed, role):
    return SessionCorpus.from_actions(random_actions(seed), role)


def random_actions(seed):
    """Seeded sessions' actions, shuffled, with items repeated within a
    session, actions naming no item, and items that only appear inside
    impression lists (the ``x`` ones)."""
    rng = np.random.default_rng(seed)
    clicked = [f"i{k}" for k in range(6)]
    shown = clicked + [f"x{k}" for k in range(4)]
    actions = []
    for s in rng.permutation(30):
        sid = f"s{s:02d}"
        for step in range(1, 2 + rng.integers(6)):
            kind = rng.integers(3)
            if kind == 0:
                actions.append(make_action(sid, step, kind="filter selection"))
            elif kind == 1:
                impressions = rng.choice(shown, size=4, replace=False).tolist()
                pick = impressions[rng.integers(4)]
                if pick.startswith("x"):
                    pick = None
                actions.append(clickout(sid, step, pick, impressions))
            else:
                actions.append(make_action(sid, step, item=clicked[rng.integers(6)]))
    rng.shuffle(actions)
    return actions


def item_corpora():
    """Train and test corpora, the test one with its targets hidden, plus an
    empty corpus and one whose actions name no item."""
    for seed in range(3):
        yield random_corpus(seed, Role.TRAIN)
        yield prepare_holdout(random_corpus(seed + 10, Role.TEST))[0]
    yield SessionCorpus.from_actions([], Role.TRAIN)
    yield SessionCorpus.from_actions(
        [make_action("s1", 1, kind="filter selection"), make_action("s1", 2)],
        Role.TRAIN,
    )


class TestItemViews:
    """The corpus's vocabulary, item codes and the counts read from them,
    against a plain walk over the actions."""

    @pytest.mark.parametrize("corpus", list(item_corpora()))
    def test_views_match_a_walk_over_actions(self, corpus):
        vocab, rows = set(), []
        for s, acts in enumerate(corpus.sessions.values()):
            for a in acts:
                vocab.update(a.impressions or ())
                if a.item_ref is not None:
                    vocab.add(a.item_ref)
                    rows.append((s, a.item_ref, a.is_clickout))
        assert corpus.item_vocabulary == tuple(sorted(vocab))

        session, item, is_clickout = corpus.item_actions
        assert (session.dtype, item.dtype, is_clickout.dtype) == (
            np.int64, np.int64, np.bool_
        )
        ids = corpus.item_vocabulary
        coded = zip(session.tolist(), item.tolist(), is_clickout.tolist())
        assert [(s, ids[k], c) for s, k, c in coded] == rows

        every = Counter(i for _, i, _ in rows)
        clicked = Counter(i for _, i, c in rows if c)
        for counts, walked in zip(corpus.item_counts, (every, clicked)):
            # one count per vocabulary code, shared read-only
            assert counts.dtype == np.int64 and not counts.flags.writeable
            assert counts.tolist() == [walked[i] for i in ids]
        assert corpus.item_counts is corpus.item_counts
        train = replace(corpus, role=Role.TRAIN)
        expected = {i: float(max(every[i], 1)) for i in sorted(vocab)}
        kappa = compute_popularity(train)
        assert kappa == expected
        assert all(type(k) is float for k in kappa.values())

    def test_random_corpora_cover_the_cases(self):
        train = random_corpus(0, Role.TRAIN)
        acts = [a for s in train.sessions.values() for a in s]
        refs = {a.item_ref for a in acts}
        assert None in refs
        assert any(item not in refs for item in train.item_vocabulary)
        assert any(
            len({a.item_ref for a in s if a.item_ref}) < sum(1 for a in s if a.item_ref)
            for s in train.sessions.values()
        )
        sids = [a.session_id for a in random_actions(0)]
        assert sids != sorted(sids)

    def test_views_are_derived_on_first_use_and_kept(self, toy_train, toy_test):
        # the vocabulary is a column; item_actions is sliced from the
        # columns on first use and kept, and no transform builds Actions
        text = f"{HEADER}\nu1,s1,1000,1,clickout item,A,A|B\n"
        built = [
            corpus_from_text(text),
            SessionCorpus.from_actions(list(toy_train.sessions["s1"]), Role.TRAIN),
            filter_bookable_sessions(toy_train),
            hide_test_targets(toy_test)[0],
            prepare_holdout(toy_train)[0],
            subsample_sessions(toy_train, 0.5),
            *split_by_time(toy_train, 0.5),
        ]
        for corpus in built:
            assert "item_actions" not in corpus.__dict__
            assert "sessions" not in corpus.__dict__
        corpus = built[0]
        codes = corpus.item_actions
        assert corpus.item_vocabulary == ("A", "B")
        assert corpus.item_actions is codes
        with pytest.raises(ValueError, match="read-only"):
            codes[1][0] = 1
        with pytest.raises(ValueError, match="read-only"):
            corpus.item[0] = 1
        assert corpus.sessions is corpus.sessions

    @pytest.mark.parametrize("corpus", list(item_corpora()))
    def test_candidates_match_a_walk_over_actions(self, corpus):
        want = []
        for acts in corpus.sessions.values():
            clicks = [a for a in acts if a.is_clickout]
            shown = (clicks[-1].impressions or ()) if clicks else ()
            want.append(list(dict.fromkeys(shown)))
        codes, offsets = corpus.candidates
        assert (codes.dtype, offsets.dtype) == (np.int64, np.int64)
        ids, bounds = corpus.item_vocabulary, offsets.tolist()
        got = [[ids[k] for k in codes[a:b]] for a, b in zip(bounds, bounds[1:])]
        assert got == want

    def test_candidates_are_the_last_clickouts_distinct_impressions(self):
        clicked = [
            # repeated impressions keep their first-seen order
            make_action("a", 1, item="B"),
            clickout("a", 2, "C", ["C", "A", "C", "B", "A"]),
            # of two clickouts, the last one's list
            clickout("b", 1, "A", ["A", "B"]),
            make_action("b", 2, item="D"),
            clickout("b", 3, "D", ["D", "E", "D"]),
            make_action("b", 4, item="A"),
            clickout("d", 1, "B", ["B"]),
        ]
        # no clickout: an empty run
        idle = [make_action("c", 1, item="E"), make_action("c", 2)]
        corpus = SessionCorpus.from_actions(clicked + idle, Role.TEST)
        codes, offsets = corpus.candidates
        ids = corpus.item_vocabulary
        assert ids == ("A", "B", "C", "D", "E")
        assert [ids[k] for k in codes.tolist()] == ["C", "A", "B", "D", "E", "B"]
        assert offsets.tolist() == [0, 3, 5, 5, 6]
        assert corpus.candidates is corpus.candidates
        for array in (codes, offsets):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

        # hiding the targets blanks items, never an impression list
        test = SessionCorpus.from_actions(clicked, Role.TEST)
        blinded, _ = hide_test_targets(test)
        assert "candidates" not in vars(blinded)
        for got, want in zip(blinded.candidates, test.candidates):
            assert got.tolist() == want.tolist()
        assert test.candidates[1].tolist() == [0, 3, 5, 6]


# ---------------------------------------------------------------------------
# The row walk: one Action per row, as the parser worked before its corpus
# became columns. It is the oracle the columnar parse and transforms are
# checked against.
# ---------------------------------------------------------------------------


def walk_parse(text):
    """Session id -> step-ordered, validated Action tuple, in id order, by
    building one Action per row."""
    rows = _numbered_rows(io.StringIO(text, newline=""))
    _, header = next(rows, (1, None))
    if header is None:
        raise ParseError("empty input, expected a header row", 1)
    for column in _CANONICAL_COLUMNS:
        if column not in header:
            raise ParseError(f"required column {column!r} not in header", 1)
    col = {column: header.index(column) for column in _CANONICAL_COLUMNS}
    grouped = {}
    for line, row in rows:
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} columns, got {len(row)}", line)
        action = walk_row_to_action(row, col, line)
        grouped.setdefault(action.session_id, []).append(action)
    return {sid: walk_validate_session(sid, grouped[sid]) for sid in sorted(grouped)}


def walk_row_to_action(row, col, line):
    def _int(field):
        raw = row[col[field]]
        try:
            return int(raw)
        except ValueError:
            raise ParseError(f"non-integer {field} {raw!r}", line) from None

    ref = row[col["reference"]].strip()
    imp_raw = row[col["impressions"]].strip()
    for name, raw in (("reference", ref), ("impressions", imp_raw)):
        if _ID_BREAKS.search(raw):
            raise ParseError(
                f"{name} {raw!r} holds a tab or line break, which the "
                f"tab-separated model and graph files cannot carry",
                line,
            )
    impressions = tuple(tok for tok in imp_raw.split("|") if tok) or None
    return Action(
        session_id=row[col["session_id"]],
        user_id=row[col["user_id"]],
        step=_int("step"),
        action_type=row[col["action_type"]],
        item_ref=ref or None,
        impressions=impressions,
        timestamp=_int("timestamp"),
    )


def walk_validate_session(sid, actions):
    actions = sorted(actions, key=lambda a: a.step)
    prev = 0
    for a in actions:
        if prev and a.step == prev:
            raise ValidationError(f"session {sid}: duplicate step {a.step}")
        if a.step != prev + 1:
            raise ValidationError(
                f"session {sid}: steps must be contiguous from 1, "
                f"found {a.step} after {prev}"
            )
        prev = a.step
        if a.impressions is not None and len(a.impressions) > MAX_IMPRESSIONS:
            raise ValidationError(
                f"session {sid} step {a.step}: {len(a.impressions)} impressions "
                f"exceed the maximum of {MAX_IMPRESSIONS}"
            )
        if a.is_clickout:
            if not a.impressions:
                raise ValidationError(
                    f"session {sid} step {a.step}: clickout without impressions"
                )
            if a.item_ref is not None and a.item_ref not in a.impressions:
                raise ValidationError(
                    f"session {sid} step {a.step}: clicked item {a.item_ref} "
                    f"not in its impression list"
                )
    return tuple(actions)


def walk_views(sessions):
    """The vocabulary and the item actions, by a walk over the Actions."""
    vocab, rows = set(), []
    for s, acts in enumerate(sessions.values()):
        for a in acts:
            vocab.update(a.impressions or ())
            if a.item_ref is not None:
                vocab.add(a.item_ref)
                rows.append((s, a.item_ref, a.is_clickout))
    return tuple(sorted(vocab)), rows


def last_clickout(acts):
    for idx in range(len(acts) - 1, -1, -1):
        if acts[idx].is_clickout:
            return idx
    return None


def walk_hide(sessions):
    blinded, truth = {}, {}
    for sid, acts in sessions.items():
        target = last_clickout(acts)
        if target is None:
            raise ValidationError(f"session {sid}: no clickout to hide")
        if acts[target].item_ref is None:
            raise ValidationError(f"session {sid}: final clickout has no revealed item")
        truth[sid] = acts[target].item_ref
        hidden = replace(acts[target], item_ref=None)
        blinded[sid] = acts[:target] + (hidden,) + acts[target + 1 :]
    return blinded, truth


def walk_subsample(sessions, fraction, seed):
    rng = np.random.default_rng(seed)
    buckets = {}
    for sid in sorted(sessions):
        buckets.setdefault(len(sessions[sid]), []).append(sid)
    chosen = []
    for key in sorted(buckets):
        sids = buckets[key]
        quota = int(round(fraction * len(sids)))
        if quota:
            picked = rng.choice(len(sids), size=quota, replace=False)
            chosen.extend(sids[i] for i in sorted(picked))
    return {sid: sessions[sid] for sid in sorted(chosen)}


def walk_split(sessions, fraction):
    order = sorted(sessions, key=lambda sid: (sessions[sid][0].timestamp, sid))
    n_tail = max(1, math.ceil(fraction * len(order))) if order else 0
    cut = len(order) - n_tail
    return (
        {sid: sessions[sid] for sid in sorted(order[:cut])},
        {sid: sessions[sid] for sid in sorted(order[cut:])},
    )


def assert_same_corpus(corpus, sessions):
    """The corpus equals the walk's sessions, in their order, and its item
    views equal the walk's."""
    assert list(corpus.sessions) == list(sessions)
    assert corpus.sessions == sessions
    assert corpus.session_ids == tuple(sessions)
    assert corpus.n_sessions == len(sessions)
    assert corpus.n_actions == sum(len(acts) for acts in sessions.values())
    vocab, rows = walk_views(sessions)
    assert corpus.item_vocabulary == vocab
    session, item, is_clickout = corpus.item_actions
    coded = zip(session.tolist(), item.tolist(), is_clickout.tolist())
    assert [(s, vocab[k], c) for s, k, c in coded] == rows


def same_outcome(text):
    """Parse the text both ways: the same corpus, or the same error type and
    message. Returns the error type, or None when the text is valid."""
    try:
        sessions = walk_parse(text)
    except (ParseError, ValidationError) as walked:
        with pytest.raises(type(walked)) as columnar:
            corpus_from_text(text)
        assert str(columnar.value) == str(walked)
        return type(walked)
    assert_same_corpus(corpus_from_text(text), sessions)
    return None


_KINDS = ("interaction item info", CLICKOUT, "filter selection", "some new kind")


def random_log_rows(seed, n_sessions=25):
    """Seeded, valid log rows in canonical column order, with the sessions
    interleaved and their rows shuffled. Items repeat within a session; some
    references are empty (or blank, or padded with a tab that strips away);
    the ``x`` items appear only inside impression lists; some non-clickout
    rows list impressions, and some list only ``|``; unknown action types
    appear; and some user ids hold line breaks, so their rows span lines."""
    rng = np.random.default_rng(seed)
    clicked = [f"i{k}" for k in range(8)]
    shown = clicked + [f"x{k}" for k in range(5)]
    rows = []
    for s in rng.permutation(n_sessions):
        sid = f"s{s:03d}"
        user = ["u{}", "u{}", "u\n{}", "u\r\n{}", "u\r{}"][rng.integers(5)]
        user = user.format(rng.integers(6))
        for step in range(1, 2 + rng.integers(7)):
            kind = _KINDS[rng.integers(len(_KINDS))]
            ts = str(1_000 + int(rng.integers(50)))
            if kind == CLICKOUT:
                listed = rng.choice(shown, size=1 + rng.integers(6), replace=False)
                listed = listed.tolist()
                pick = listed[rng.integers(len(listed))]
                ref = "" if pick.startswith("x") else pick
                field = "|".join(listed)
                if rng.random() < 0.2:
                    field = "|" + field.replace("|", "||", 1)  # empty tokens drop
            else:
                ref = ["", " ", clicked[rng.integers(8)], "\ti2 "][rng.integers(4)]
                field = ["", "", "|", "i1|x0"][rng.integers(4)]
            rows.append([user, sid, ts, str(step), kind, ref, field])
    order = rng.permutation(len(rows))
    return [rows[k] for k in order]


def log_text(rows, extra=False):
    """The rows as CSV text, with a blank line after every seventh row;
    with ``extra``, the columns in another order plus a column the parser
    ignores."""
    header = list(_CANONICAL_COLUMNS)
    if extra:
        perm = [6, 0, 5, 2, 1, 4, 3]
        header = [header[k] for k in perm] + ["platform"]
        rows = [[row[k] for k in perm] + ["AU"] for row in rows]
    stream = io.StringIO()
    writer = csv.writer(stream)  # quotes a field holding \r or \n
    writer.writerow(header)
    for k, row in enumerate(rows):
        writer.writerow(row)
        if k % 7 == 6:
            stream.write("\n")
    return stream.getvalue()


#: which of ``_fault``'s kinds are row faults and which session faults
ROW_FAULTS, SESSION_FAULTS = (0, 1, 2, 3, 4, 11), (5, 6, 7, 8, 9, 10)


def _fault(rows, rng, kinds=ROW_FAULTS + SESSION_FAULTS):
    """Inject one fault of these kinds into a random row, in place."""
    r = int(rng.integers(len(rows)))
    row = rows[r]
    kind = kinds[rng.integers(len(kinds))]
    if kind == 0:
        row[3] = "two"
    elif kind == 1:
        row[2] = "1.5"
    elif kind == 2:
        row[5] = "a\tb"
    elif kind == 3:
        row[6] = "i1|b\nc"
    elif kind == 4:
        del row[-1]
    elif kind == 5:
        row[3] = str(int(row[3]) + 3)
    elif kind == 6:
        row[3] = "1"  # a duplicate of step 1, unless this is step 1
    elif kind == 7:
        row[4], row[6] = CLICKOUT, "|".join(f"y{k}" for k in range(26))
        row[5] = ""
    elif kind == 8:
        row[4], row[6] = CLICKOUT, ""
    elif kind == 9:
        row[4], row[5], row[6] = CLICKOUT, "i9", "i1|i2"
    elif kind == 10:
        row[3] = "0"
    else:
        row[0] = "u" + "x" * 140_000  # beyond the CSV reader's field limit


@pytest.fixture(params=[3, 4096], ids=["batch3", "batch4096"])
def batch(request, monkeypatch):
    """Code the log in batches of 3 rows, so faults and line counts cross
    batch boundaries, as well as in the parser's own batch size."""
    monkeypatch.setattr("simpop.sessions._BATCH", request.param)
    return request.param


class TestColumnarParseAgainstTheRowWalk:
    @pytest.mark.parametrize("seed", range(12))
    def test_same_sessions_vocabulary_and_item_actions(self, seed, tmp_path, batch):
        rows = random_log_rows(seed)
        extra = seed % 2 == 1
        text = log_text(rows, extra=extra)
        sessions = walk_parse(text)
        if seed % 3 == 0:
            path = tmp_path / "log.csv.gz"
            with gzip.open(path, "wt", encoding="utf-8", newline="") as out:
                out.write(text)
            corpus = parse_session_log(path, Role.TRAIN)
        else:
            corpus = corpus_from_text(text)
        assert_same_corpus(corpus, sessions)
        actions = [a for acts in sessions.values() for a in acts]
        order = np.random.default_rng(seed).permutation(len(actions))
        built = SessionCorpus.from_actions([actions[k] for k in order], Role.TRAIN)
        assert built == corpus

    def test_random_logs_cover_the_cases(self):
        rows = random_log_rows(0)
        sessions = walk_parse(log_text(rows))
        acts = [a for s in sessions.values() for a in s]
        sids = [row[1] for row in rows]
        assert sids != sorted(sids)
        assert {a.action_type for a in acts} == set(_KINDS)
        assert None in {a.item_ref for a in acts}
        assert "|" in {row[6] for row in rows}
        refs = {a.item_ref for a in acts}
        assert any(item not in refs for a in acts for item in a.impressions or ())
        assert any(
            len({a.item_ref for a in s if a.item_ref}) < sum(1 for a in s if a.item_ref)
            for s in sessions.values()
        )
        assert {"\n", "\r"} <= set("".join(a.user_id for a in acts))

    @pytest.mark.parametrize("seed", range(60))
    def test_two_faults_report_as_the_row_walk_does(self, seed, batch):
        rng = np.random.default_rng([seed, 1])
        rows = random_log_rows(seed, n_sessions=8)
        _fault(rows, rng)
        _fault(rows, rng)
        assert same_outcome(log_text(rows)) is not None

    @pytest.mark.parametrize("seed", range(30))
    def test_two_session_faults_report_as_the_row_walk_does(self, seed):
        # the first session in id order, then by step
        rng = np.random.default_rng([seed, 2])
        rows = random_log_rows(seed, n_sessions=8)
        _fault(rows, rng, SESSION_FAULTS)
        _fault(rows, rng, SESSION_FAULTS)
        assert same_outcome(log_text(rows)) in (ValidationError, None)

    @pytest.mark.parametrize("seed", range(4))
    def test_transforms_match_the_row_walk(self, seed):
        rows = random_log_rows(seed, n_sessions=40)
        sessions = walk_parse(log_text(rows))
        train = corpus_from_text(log_text(rows))
        booked = {
            sid: acts for sid, acts in sessions.items()
            if any(a.is_clickout for a in acts)
        }
        assert_same_corpus(filter_bookable_sessions(train), booked)

        usable = {
            sid: acts for sid, acts in booked.items()
            if acts[last_clickout(acts)].item_ref is not None
        }
        blinded, truth = walk_hide(usable)
        held, held_truth, dropped = prepare_holdout(train)
        assert_same_corpus(held, blinded)
        assert held.role is Role.TEST
        assert held_truth == truth and list(held_truth) == list(truth)
        assert dropped == len(sessions) - len(usable)
        test = replace(prepare_holdout(train)[0], role=Role.TEST)
        with pytest.raises(ValidationError) as walked:
            walk_hide(dict(test.sessions))
        with pytest.raises(ValidationError) as columnar:
            hide_test_targets(test)
        assert str(columnar.value) == str(walked.value)

        for fraction in (0.3, 1.0):
            sub = subsample_sessions(train, fraction, seed=seed)
            assert_same_corpus(sub, walk_subsample(sessions, fraction, seed))
        head, tail = split_by_time(train, 0.25)
        walk_head, walk_tail = walk_split(sessions, 0.25)
        assert_same_corpus(head, walk_head)
        assert_same_corpus(tail, walk_tail)

    @pytest.mark.parametrize("seed", range(3))
    def test_written_corpus_matches_the_row_walk(self, seed, tmp_path):
        rows = random_log_rows(seed)
        sessions = walk_parse(log_text(rows))
        write_corpus(corpus_from_text(log_text(rows)), tmp_path / "c.csv")
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(_CANONICAL_COLUMNS)
        for sid in sorted(sessions):
            for a in sessions[sid]:
                writer.writerow((
                    a.user_id, a.session_id, a.timestamp, a.step, a.action_type,
                    a.item_ref or "", "|".join(a.impressions) if a.impressions else "",
                ))
        assert (tmp_path / "c.csv").read_bytes() == expected.getvalue().encode()

    def test_counts_graph_and_writer_never_build_actions(self, tmp_path):
        # the saving rests on this: these readers use the columns alone
        corpus = corpus_from_text(log_text(random_log_rows(5, n_sessions=40)))
        assert corpus.n_sessions == 40 and corpus.n_actions > 40
        build_affinity_graph(corpus, min_sessions=1)
        compute_popularity(corpus)
        corpus.item_counts
        write_corpus(corpus, tmp_path / "c.csv")
        write_corpus(corpus, tmp_path / "c.csv.gz")
        derived = [
            filter_bookable_sessions(corpus),
            prepare_holdout(corpus)[0],
            subsample_sessions(corpus, 0.5),
            *split_by_time(corpus, 0.5),
        ]
        for each in [corpus, *derived]:
            assert "sessions" not in each.__dict__

    def test_a_clean_input_walks_no_row(self, monkeypatch):
        # a row walk runs only for a faulty batch: clean input is coded one
        # column at a time, the 64-bit extremes included
        def walked(*args):
            raise AssertionError("a clean input walked its rows")
        monkeypatch.setattr("simpop.sessions._first_row_fault", walked)
        monkeypatch.setattr("simpop.sessions._check_64_bits", walked)
        text = log_text(random_log_rows(7, n_sessions=200))
        assert "\n\n" in text and '"u\n' in text  # blank lines, quoted line breaks
        corpus = corpus_from_text(text)
        assert corpus.n_actions > 3 * 256
        actions = [a for acts in corpus.sessions.values() for a in acts]
        assert SessionCorpus.from_actions(actions, Role.TRAIN) == corpus
        extremes = [make_action("s1", 1, item="A", ts=2**63 - 1),
                    make_action("s2", 1, item="A", ts=-(2**63))]
        built = SessionCorpus.from_actions(extremes, Role.TRAIN)
        text = f"{HEADER}\nu1,s1,{2**63 - 1},1,interaction item info,A,\n"
        text += f"u1,s2,{-(2**63)},1,interaction item info,A,\n"
        assert built.timestamp.tolist() == corpus_from_text(text).timestamp.tolist()
        text += f"u1,s3,1,{2**63 - 1},interaction item info,A,\n"
        with pytest.raises(ValidationError, match="steps must be contiguous"):
            corpus_from_text(text)


def assert_parses_back_equal(corpus, path):
    """Writing the corpus and parsing the file gives the corpus back, in its
    session order, with its vocabulary."""
    write_corpus(corpus, path)
    back = parse_session_log(path, corpus.role)
    assert back == corpus
    assert back.session_ids == corpus.session_ids == tuple(sorted(corpus.session_ids))
    assert_same_columns(back, corpus)
    for table in (back.kinds, back.users, back.item_vocabulary):
        assert list(table) == sorted(set(table))


class TestWrittenCorpusParsesBackEqual:
    def test_a_pipe_only_field_is_no_list(self, tmp_path):
        text = (
            f"{HEADER}\n"
            "u1,s2,1000,1,interaction item info,A,|\n"
            "u1,s1,1001,1,interaction item info,B,\n"
        )
        corpus = corpus_from_text(text)
        assert corpus.session_ids == ("s1", "s2")
        assert corpus.sessions["s2"][0].impressions is None
        assert_parses_back_equal(corpus, tmp_path / "c.csv")
        unlisted = replace(make_action("s1", 1, item="B"), impressions=())
        built = SessionCorpus.from_actions([unlisted], Role.TRAIN)
        assert built.sessions["s1"][0].impressions is None

    @pytest.mark.parametrize("suffix", [".csv", ".csv.gz"])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_logs(self, seed, suffix, tmp_path):
        corpus = corpus_from_text(log_text(random_log_rows(seed), extra=seed % 2 == 1))
        assert_parses_back_equal(corpus, tmp_path / f"c{suffix}")

    @pytest.mark.parametrize("seed", range(3))
    def test_every_transform(self, seed, tmp_path):
        text = log_text(random_log_rows(seed, n_sessions=40))
        train = corpus_from_text(text)
        usable = [
            a for acts in walk_parse(text).values()
            if (last := last_clickout(acts)) is not None and acts[last].item_ref
            for a in acts
        ]
        test = SessionCorpus.from_actions(usable, Role.TEST)
        assert test.n_sessions >= 10
        derived = [
            filter_bookable_sessions(train),
            hide_test_targets(test)[0],
            prepare_holdout(train)[0],
            subsample_sessions(train, 0.3, seed=seed),
            *split_by_time(train, 0.25),
        ]
        for k, corpus in enumerate(derived):
            assert_parses_back_equal(corpus, tmp_path / f"c{k}.csv")

    @pytest.mark.parametrize("seed", range(3))
    def test_corpora_built_from_actions(self, seed, tmp_path):
        for k, corpus in enumerate([*item_corpora(), random_corpus(seed + 20, Role.TEST)]):
            assert_parses_back_equal(corpus, tmp_path / f"c{k}.csv")


#: what the ids of ``carried_actions`` are made of: every character the
#: parse's reading of the reference and impressions fields treats apart
ID_PIECES = ("a", "b", " ", "|", "\t", "\n", "")


@st.composite
def carried_actions(draw):
    """A few short sessions of interactions whose references and impression
    ids are drawn over ``ID_PIECES``; a list may be empty."""
    ids = st.lists(st.sampled_from(ID_PIECES), max_size=3).map("".join)
    return [
        Action(
            session_id=f"s{s}", user_id="u", step=step,
            action_type="interaction item info",
            item_ref=draw(st.none() | ids),
            impressions=draw(st.none() | st.lists(ids, max_size=3).map(tuple)),
            timestamp=1000 + step,
        )
        for s in range(draw(st.integers(1, 3)))
        for step in range(1, draw(st.integers(1, 3)) + 1)
    ]


def read_back(action):
    """The reference and impressions that writing the action's fields as
    ``write_corpus`` does and parsing them gives back, or None when the
    parse rejects them."""
    fields = [action.item_ref or "", "|".join(action.impressions or ())]
    text = log_text([["u", "s", "1", "1", "interaction item info", *fields]])
    try:
        (back,) = corpus_from_text(text).sessions["s"]
    except ParseError:
        return None
    return back.item_ref, back.impressions


class TestFromActionsTakesWhatTheFileCarries:
    """``from_actions`` rejects an action that ``write_corpus`` and
    ``parse_session_log`` would not give back as it is."""

    @pytest.mark.parametrize(
        "fault, message",
        [
            (
                make_action("s2", 2, item="A\tB"),
                "session s2 step 2: an id holds a tab or line break$",
            ),
            (
                clickout("s2", 2, "A", ["A", "B\nC"]),
                "session s2 step 2: an id holds a tab or line break$",
            ),
            (
                make_action("s2", 2, item=""),
                r"session s2 step 2: reference '' and impressions \(\) would be read "
                r"back as None and \(\)$",
            ),
            (
                make_action("s2", 2, item=" A "),
                r"session s2 step 2: reference ' A ' and impressions \(\) would be "
                r"read back as 'A' and \(\)$",
            ),
            (
                clickout("s2", 2, "A", ["A", "B|C"]),
                r"session s2 step 2: reference 'A' and impressions \('A', 'B\|C'\) "
                r"would be read back as 'A' and \('A', 'B', 'C'\)$",
            ),
            (
                make_action("s2", 2, item="A", impressions=["A", "B "]),
                r"session s2 step 2: reference 'A' and impressions \('A', 'B '\) "
                r"would be read back as 'A' and \('A', 'B'\)$",
            ),
            (
                make_action("s2", 2**63),
                r"session s2 step 9223372036854775808: step 9223372036854775808 "
                r"does not fit in 64 bits$",
            ),
            (
                make_action("s2", 2, ts=-(2**63) - 1),
                r"session s2 step 2: timestamp -9223372036854775809 does not fit in "
                r"64 bits$",
            ),
        ],
        ids=[
            "tab-in-reference", "break-in-impression", "empty-reference",
            "padded-reference", "pipe-in-impression", "padded-impressions-field",
            "step-beyond-64-bits", "timestamp-beyond-64-bits",
        ],
    )
    def test_rejects_naming_session_and_step(self, fault, message):
        actions = [
            make_action("s1", 1, item="A"),
            make_action("s2", 1, item="B"),
            fault,
            make_action("s3", 1, item="C"),
        ]
        with pytest.raises(ValidationError, match=message):
            SessionCorpus.from_actions(actions, Role.TRAIN)

    def test_takes_ids_the_file_carries(self, tmp_path):
        # a reference may hold "|", and an impression id inside the list may
        # hold spaces: the parse keeps both
        corpus = SessionCorpus.from_actions(
            [
                make_action("s1", 1, item="A|B"),
                clickout("s1", 2, "A", ["A", " B ", "C"]),
            ],
            Role.TRAIN,
        )
        assert_parses_back_equal(corpus, tmp_path / "c.csv")

    @settings(max_examples=300, deadline=None, database=None)
    @given(actions=carried_actions())
    def test_takes_exactly_what_the_file_gives_back(self, actions):
        try:
            corpus = SessionCorpus.from_actions(actions, Role.TRAIN)
        except ValidationError as exc:
            named = re.match(r"session (\S+) step (\d+): .*(would be read back as|"
                             r"tab or line break)", str(exc))
            assert named is not None, exc  # interactions fail no other check
            sid, step = named.group(1), int(named.group(2))
            action = next(a for a in actions if (a.session_id, a.step) == (sid, step))
            assert read_back(action) != (action.item_ref, action.impressions or None)
            return
        with tempfile.TemporaryDirectory() as tmp:
            assert_parses_back_equal(corpus, Path(tmp) / "c.csv")


class TestIntegerRange:
    @pytest.mark.parametrize("field", ["step", "timestamp"])
    def test_beyond_64_bits_names_the_line(self, field):
        # an int column holds 64 bits; a larger value is a row fault, not
        # an overflow inside numpy
        for value in (2**63, -(2**63) - 1, 10**30):
            row = {"step": "1", "timestamp": "1000", field: str(value)}
            text = (
                f"{HEADER}\nu1,s1,1000,1,interaction item info,A,\n"
                f"u1,s2,{row['timestamp']},{row['step']},interaction item info,A,\n"
            )
            with pytest.raises(
                ParseError, match=f"line 3: {field} '{value}' does not fit in 64 bits"
            ):
                corpus_from_text(text)

    def test_the_64_bit_extremes_load(self):
        text = f"{HEADER}\nu1,s1,{2**63 - 1},1,interaction item info,A,\n"
        text += f"u1,s2,{-(2**63)},1,interaction item info,A,\n"
        corpus = corpus_from_text(text)
        assert [a[0].timestamp for a in corpus.sessions.values()] == [
            2**63 - 1, -(2**63)
        ]

    def test_an_earlier_fault_in_the_row_comes_first(self):
        text = f"{HEADER}\nu1,s1,1000,{2**63},interaction item info,\"A\tB\",\n"
        with pytest.raises(ParseError, match=r"line 2: reference 'A\\tB'"):
            corpus_from_text(text)
        text = f"{HEADER}\nu1,s1,x,{2**63},interaction item info,A,\n"
        with pytest.raises(ParseError, match="step '9223372036854775808' does not fit"):
            corpus_from_text(text)


# ---------------------------------------------------------------------------
# The columnar companion
# ---------------------------------------------------------------------------


def companion_of(path):
    return path.with_name(path.name + ".columns")


def swap_first_two(values):
    values[[0, 1]] = values[[1, 0]]
    return values


def companion_corpus():
    """A corpus whose ids hold commas, quotes, line breaks and non-ASCII
    text, and whose users and action kinds are many."""
    text = log_text(random_log_rows(5, n_sessions=40))
    text += 'ü,"s,1",5,1,clickout item,i1,"i1|x0"\n'
    text += '"u""\nq","s""2",5,1,zeigen ✓,x0,\n'
    return corpus_from_text(text)


@pytest.fixture
def with_companion(tmp_path):
    """A written corpus, its companion, and the corpus parsed from a stream
    of the file's bytes, which reads no companion."""
    path = tmp_path / "corpus.csv"
    write_corpus(companion_corpus(), path)
    companion = write_columns(parse_session_log(path), path)
    assert companion == companion_of(path)
    return path, companion, corpus_from_bytes(path.read_bytes())


def corpus_from_bytes(data, role=Role.TRAIN):
    corpus = parse_session_log(io.BytesIO(data), role=role)
    assert corpus.sources == ()
    return corpus


class TestColumnarCompanion:
    def test_a_companion_loads_as_its_file_parses(self, with_companion, no_pickle):
        path, companion, parsed = with_companion
        loaded = parse_session_log(path)
        assert loaded.sources == (path, companion)
        assert_same_columns(loaded, parsed)
        assert loaded == parsed
        assert {"s,1", 's"2'} <= set(loaded.session_ids)
        assert {'u"\nq', "ü"} <= set(loaded.users) and "zeigen ✓" in loaded.kinds
        for name in CORPUS_ARRAYS:
            column = getattr(loaded, name)
            assert not column.flags.writeable and column.flags.aligned, name

    def test_the_role_is_the_callers(self, with_companion):
        path, _, parsed = with_companion
        assert parse_session_log(path, Role.TEST).role is Role.TEST

    def test_two_writes_give_the_same_bytes(self, with_companion, tmp_path):
        path, companion, parsed = with_companion
        first = companion.read_bytes()
        assert write_columns(parsed, path).read_bytes() == first
        assert write_columns(corpus_from_bytes(path.read_bytes()), path).read_bytes() == first

    def test_an_edited_file_ignores_its_stale_companion(self, with_companion):
        path, companion, parsed = with_companion
        with open(path, encoding="utf-8", newline="") as stream:
            rows = list(csv.reader(stream))
        rows[1][2] = str(int(rows[1][2]) + 1)  # the first row's timestamp
        with open(path, "w", encoding="utf-8", newline="") as stream:
            csv.writer(stream).writerows(rows)
        back = parse_session_log(path)
        assert back.sources == (path,)
        assert back.timestamp[0] == parsed.timestamp[0] + 1
        assert_same_columns(back, corpus_from_bytes(path.read_bytes()))

    @pytest.mark.parametrize(
        "row, error, match",
        [
            ("u1,s9,notatime,1,interaction item info,A,\n", ParseError, "line {n}: "),
            ("u1,s9,1,2,interaction item info,A,\n", ValidationError,
             "session s9: steps must be contiguous from 1, found 2 after 0"),
        ],
    )
    def test_a_malformed_edit_raises_as_the_parse_does(
        self, with_companion, row, error, match
    ):
        path, companion, _ = with_companion
        n = len(path.read_bytes().splitlines()) + 1
        with open(path, "a", encoding="utf-8", newline="") as out:
            out.write(row)
        with pytest.raises(error, match=match.format(n=n)):
            parse_session_log(path)

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(set_dtype("step", "<i4"), id="wrong-dtype"),
            pytest.param(set_dtype("kind", "|O", pickle.dumps(np.array([1], dtype=object))),
                         id="object-array"),
            pytest.param(set_dtype("users", "<U1"), id="unicode-dtype"),
            pytest.param(edit_int64("timestamp", lambda v: v[:-1]), id="ragged-lengths"),
            pytest.param(edit_int64("impressions", lambda v: v[:-1]), id="ragged-impressions"),
            pytest.param(edit_int64("offsets", lambda v: v + 1), id="offsets-from-1"),
            pytest.param(edit_int64("offsets", swap_first_two), id="offsets-descending"),
            pytest.param(edit_int64("impression_offsets", lambda v: v[:-1]),
                         id="offsets-short"),
            pytest.param(edit_int64("kind", lambda v: v + 100), id="kind-out-of-range"),
            pytest.param(edit_int64("user", lambda v: v - v.max() - 1),
                         id="user-out-of-range"),
            pytest.param(edit_int64("item", lambda v: v - 2), id="item-out-of-range"),
            pytest.param(edit_int64("impressions", lambda v: -v - 1),
                         id="impression-out-of-range"),
            pytest.param(edit_table("item_vocabulary", lambda t: t[::-1]),
                         id="unsorted-vocabulary"),
            pytest.param(edit_table("users", lambda t: [t[0], *t]), id="repeated-user"),
            pytest.param(edit_table("kinds", lambda t: t[:-1]), id="short-kinds"),
            pytest.param(edit_int64("session_ids.lengths", lambda v: v + 1),
                         id="lengths-beyond-text"),
            pytest.param(edit_int64("step", lambda v: v + (v == 1)), id="invalid-steps"),
        ],
    )
    def test_a_faulty_companion_falls_back_to_the_parse(
        self, with_companion, edit, no_pickle
    ):
        path, companion, parsed = with_companion
        rewrite_companion(companion, edit)
        back = parse_session_log(path)
        assert back.sources == (path,)
        assert_same_columns(back, parsed)

    @pytest.mark.parametrize(
        "cut", [lambda b: b[:-8], lambda b: b[: len(b) // 2], lambda b: b[:17],
                lambda b: b"", lambda b: b + bytes(8),
                lambda b: b.replace(b"simpop-columns 1", b"simpop-columns 2"),
                lambda b: b.replace(b'"sha256": "', b'"sha256": "0'),
                lambda b: b"simpop-columns 1\n" + b"[" * 100_000 + b"\n"],
        ids=["truncated-by-8", "truncated-by-half", "tag-only", "empty", "overlong",
             "other-version", "other-digest", "deeply-nested-header"],
    )
    def test_a_damaged_companion_falls_back_to_the_parse(
        self, with_companion, cut, no_pickle
    ):
        path, companion, parsed = with_companion
        companion.write_bytes(cut(companion.read_bytes()))
        back = parse_session_log(path)
        assert back.sources == (path,)
        assert_same_columns(back, parsed)

    def test_a_gzip_corpus(self, tmp_path):
        path = tmp_path / "corpus.csv.gz"
        write_corpus(companion_corpus(), path)
        companion = write_columns(parse_session_log(path), path)
        assert companion.name == "corpus.csv.gz.columns"
        loaded = parse_session_log(path)
        assert loaded.sources == (path, companion)
        assert_same_columns(loaded, corpus_from_bytes(gzip.decompress(path.read_bytes())))

    def test_an_empty_corpus(self, tmp_path):
        path = tmp_path / "corpus.csv"
        empty = SessionCorpus.from_actions([], Role.TEST)
        write_corpus(empty, path)
        companion = write_columns(empty, path)
        loaded = parse_session_log(path, Role.TEST)
        assert loaded.sources == (path, companion)
        assert loaded.n_sessions == loaded.n_actions == 0
        assert_same_columns(loaded, empty)

    def test_a_stream_ignores_companions(self, with_companion):
        path, _, parsed = with_companion
        with open(path, "rb") as stream:
            assert parse_session_log(stream).sources == ()
        with open(path, encoding="utf-8", newline="") as stream:
            assert_same_columns(parse_session_log(stream), parsed)

    def test_a_parsed_file_is_its_only_source(self, tmp_path):
        path = tmp_path / "corpus.csv"
        write_corpus(companion_corpus(), path)
        assert parse_session_log(str(path)).sources == (path,)
        assert filter_bookable_sessions(parse_session_log(path)).sources == (path,)


class TestOneOrderForEveryTable:
    def test_the_parse_sorts_users_and_kinds(self):
        text = (
            f"{HEADER}\n"
            "u2,s1,1000,1,z kind,A,\n"
            "u1,s2,1000,1,clickout item,A,A|B\n"
            "u3,s3,1000,1,a kind,B,\n"
        )
        corpus = corpus_from_text(text)
        assert corpus.users == ("u1", "u2", "u3")
        assert corpus.kinds == ("a kind", "clickout item", "z kind")
        assert [a.user_id for a in corpus.sessions["s1"]] == ["u2"]

    def test_a_transform_drops_the_users_and_kinds_no_row_names(self):
        text = (
            f"{HEADER}\n"
            "u2,s1,1000,1,z kind,A,\n"
            "u1,s2,1000,1,clickout item,A,A|B\n"
            "u3,s3,1000,1,a kind,B,\n"
        )
        kept = filter_bookable_sessions(corpus_from_text(text))
        assert (kept.users, kept.kinds) == (("u1",), ("clickout item",))
        assert kept.user.tolist() == kept.kind.tolist() == [0]
