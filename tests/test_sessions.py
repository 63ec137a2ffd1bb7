"""Session parsing, validation, the canonical format, and corpus transforms."""

import gzip
import io
from collections import Counter

import numpy as np
import pytest

from simpop.affinity import compute_popularity, interaction_counts
from simpop.errors import ParseError, ValidationError
from simpop.sessions import (
    Role,
    SessionCorpus,
    filter_bookable_sessions,
    hide_test_targets,
    parse_session_log,
    prepare_holdout,
    read_truth,
    split_by_time,
    subsample_sessions,
    write_corpus,
    write_truth,
)

from conftest import clickout, make_action

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
    """Seeded sessions, in shuffled order, with items repeated within a
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
    return SessionCorpus.from_actions(actions, role)


def item_corpora():
    """Train and test corpora, the test one with its targets hidden, plus an
    empty corpus and one whose actions name no item."""
    for seed in range(3):
        yield random_corpus(seed, Role.TRAIN)
        yield prepare_holdout(random_corpus(seed + 10, Role.TEST))[0]
    yield SessionCorpus({}, Role.TRAIN)
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
        assert interaction_counts(corpus) == dict(every)
        assert interaction_counts(corpus, clickout_only=True) == dict(clicked)
        train = SessionCorpus(corpus.sessions, Role.TRAIN)
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
        assert list(train.sessions) != sorted(train.sessions)

    def test_views_are_derived_on_first_use_and_kept(self, toy_train, toy_test):
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
            assert "item_vocabulary" not in corpus.__dict__
            assert "item_actions" not in corpus.__dict__
        corpus = built[0]
        codes = corpus.item_actions
        assert corpus.__dict__["item_vocabulary"] == ("A", "B")
        assert corpus.item_actions is codes
        with pytest.raises(ValueError, match="read-only"):
            codes[1][0] = 1
