"""Reference rankers: determinism, permutation properties, and hand values."""

import math
import re

import pytest

from simpop.affinity import PopularityTable, build_affinity_graph
from simpop.baselines import (
    ClickoutPopularityRanker,
    CooccurrenceKnnRanker,
    InteractionPopularityRanker,
    MetadataKnnRanker,
    RandomRanker,
    load_metadata,
    write_metadata,
)
from simpop.errors import ParseError, ValidationError
from simpop.evaluator import evaluate
from simpop.sessions import Role, SessionCorpus, hide_test_targets

from conftest import clickout, ids_of, make_action
from test_affinity import corpus_of_sessions


def session_of(*items, sid="s"):
    return [make_action(sid, k + 1, item=item) for k, item in enumerate(items)]


class TestRandomRanker:
    def test_same_inputs_same_permutation(self):
        ranker = RandomRanker(seed=4)
        session = session_of("A", sid="x1")
        cands = ["a", "b", "c", "d"]
        assert ranker.rank(session, cands, 4) == ranker.rank(session, cands, 4)

    def test_is_a_permutation(self):
        ranker = RandomRanker(seed=0)
        cands = [f"c{k}" for k in range(10)]
        ranked = ranker.rank(session_of("A"), cands, 10)
        assert sorted(ids_of(ranked)) == sorted(cands)

    def test_different_sessions_differ(self):
        ranker = RandomRanker(seed=0)
        cands = [f"c{k}" for k in range(8)]
        orders = {
            ids_of(ranker.rank(session_of("A", sid=f"s{n}"), cands, 8))
            for n in range(20)
        }
        assert len(orders) > 1

    def test_mean_rank_is_uniform(self):
        # every item's mean position over many draws approaches (n+1)/2
        ranker = RandomRanker(seed=1)
        cands = ["a", "b", "c", "d", "e"]
        totals = {c: 0 for c in cands}
        trials = 10_000
        for n in range(trials):
            ranked = ranker.rank(session_of("A", sid=f"s{n}"), cands, 5)
            for c in cands:
                totals[c] += ranked.rank_of(c)
        for c in cands:
            assert totals[c] / trials == pytest.approx(3.0, abs=0.1)


class TestPopularityRankers:
    def test_interaction_counts_order(self):
        corpus = corpus_of_sessions([["A", "B", "B"], ["B"]])
        ranker = InteractionPopularityRanker(corpus)
        ranked = ranker.rank([], ["A", "B"], 2)
        assert ids_of(ranked) == ("B", "A")

    def test_unseen_item_sinks(self):
        corpus = corpus_of_sessions([["A"]])
        ranked = InteractionPopularityRanker(corpus).rank([], ["Z", "A"], 2)
        assert ids_of(ranked) == ("A", "Z")

    def test_equal_counts_lexicographic(self):
        corpus = corpus_of_sessions([["A", "B"]])
        ranked = InteractionPopularityRanker(corpus).rank([], ["B", "A"], 2)
        assert ids_of(ranked) == ("A", "B")

    def test_clickout_popularity_counts_clickouts_only(self):
        actions = [
            make_action("s1", 1, item="A"),
            make_action("s1", 2, item="A"),
            make_action("s1", 3, item="A"),
            clickout("s1", 4, "B", ["A", "B"]),
        ]
        corpus = SessionCorpus.from_actions(actions, Role.TRAIN)
        ranked = ClickoutPopularityRanker(corpus).rank([], ["A", "B"], 2)
        assert ids_of(ranked) == ("B", "A")

    def test_no_clickouts_gives_lexicographic(self):
        corpus = corpus_of_sessions([["A", "B"]])
        ranked = ClickoutPopularityRanker(corpus).rank([], ["B", "A"], 2)
        assert ids_of(ranked) == ("A", "B")

    def test_agree_when_all_actions_are_clickouts(self):
        actions = [
            clickout("s1", 1, "A", ["A", "B"]),
            clickout("s2", 1, "B", ["A", "B"]),
            clickout("s3", 1, "B", ["A", "B"]),
        ]
        corpus = SessionCorpus.from_actions(actions, Role.TRAIN)
        cands = ["A", "B"]
        assert (
            ids_of(InteractionPopularityRanker(corpus).rank([], cands, 2))
            == ids_of(ClickoutPopularityRanker(corpus).rank([], cands, 2))
        )

    def test_counts_hold_only_items_counted_at_least_once(self):
        # A is acted on but never clicked, C only ever shown: each count's
        # item set leaves out its zeros, and evaluate counts what it leaves
        # out as unknown
        train = SessionCorpus.from_actions(
            [make_action("s1", 1, item="A"), clickout("s1", 2, "B", ["A", "B", "C"])],
            Role.TRAIN,
        )
        test, truth = hide_test_targets(SessionCorpus.from_actions(
            [make_action("t1", 1, item="B"), clickout("t1", 2, "B", ["A", "B", "C", "Z"])],
            Role.TEST,
        ))
        icpop, ipop = ClickoutPopularityRanker(train), InteractionPopularityRanker(train)
        assert icpop.counts == {"B": 1} and ipop.counts == {"A": 1, "B": 1}
        assert evaluate(icpop, test, truth).n_unknown == 3  # A, C and Z
        assert evaluate(ipop, test, truth).n_unknown == 2  # C and Z
        for ranker in (icpop, ipop):
            assert 0 not in ranker.counts.values()

    def test_clickout_counts_never_exceed_interaction_counts(self, toy_train):
        ipop = InteractionPopularityRanker(toy_train)
        icpop = ClickoutPopularityRanker(toy_train)
        for item in toy_train.item_vocabulary:
            assert icpop.counts.get(item, 0) <= ipop.counts.get(item, 0)


class TestCooccurrenceKnn:
    def _graph(self):
        # A co-occurs with B in every session; C rarely
        corpus = corpus_of_sessions([["A", "B"], ["A", "B"], ["A", "B", "C"]])
        return build_affinity_graph(corpus, min_sessions=1, max_pairs_per_item=0)

    def test_constant_companion_scores_one(self):
        graph = self._graph()
        ranker = CooccurrenceKnnRanker(graph)
        ranked = ranker.rank(session_of("B"), ["A", "C"], 2)
        assert ids_of(ranked)[0] == "A"
        assert ranked.items[0][1] == pytest.approx(
            3 / math.sqrt(3 * 3)
        )

    def test_no_previous_item_falls_back_to_popularity(self):
        graph = self._graph()
        ranked = CooccurrenceKnnRanker(graph).rank([], ["A", "C"], 2)
        assert ranked.fallback_used
        assert ids_of(ranked) == ("A", "C")  # A has more interactions

    def test_matches_hand_cosines_on_toy_corpus(self):
        corpus = corpus_of_sessions([["A", "B"], ["B", "C"], ["A", "B"]])
        graph = build_affinity_graph(corpus, min_sessions=1, max_pairs_per_item=0)
        ranker = CooccurrenceKnnRanker(graph)
        ranked = ranker.rank(session_of("B"), ["A", "C"], 2)
        # sim(B,A) = 2/sqrt(3*2), sim(B,C) = 1/sqrt(3*1)
        assert ranked.items[0][0] == "A"
        assert ranked.items[0][1] == pytest.approx(2 / math.sqrt(6))
        assert ranked.items[1][1] == pytest.approx(1 / math.sqrt(3))

    def test_neighbor_cap_limits_scored_items(self):
        # A has 105 neighbors: n104 (two shared sessions) is the strongest,
        # the rest tie and are ordered by id, so the 100 strongest are n104
        # and n000..n098
        others = [f"n{k:03d}" for k in range(105)]
        corpus = corpus_of_sessions([["A", n] for n in others] + [["A", "n104"]])
        graph = build_affinity_graph(corpus, min_sessions=1, max_pairs_per_item=0)
        assert len(graph.neighbors("A")) == 105
        ranked = CooccurrenceKnnRanker(graph).rank(session_of("A"), others, 105)
        scored = {item for item, score in ranked.items if score > 0.0}
        assert scored == {"n104", *others[:99]}
        assert len(ranked) == 105

    def test_previous_item_without_neighbors_falls_back(self):
        # C sits in one session, below min_sessions, so no pair holds it
        corpus = corpus_of_sessions([["A", "B"], ["A", "B", "D"], ["C", "D"], ["B"]])
        graph = build_affinity_graph(corpus, min_sessions=2, max_pairs_per_item=0)
        assert graph.neighbors("C") == () and graph.neighbors("A")
        ranker = CooccurrenceKnnRanker(graph)
        cands = ["D", "A", "B", "C"]
        ranked = ranker.rank(session_of("A", "C"), cands, 4)
        assert ranked.fallback_used
        assert ranked.anchor is None
        assert ids_of(ranked) == ("B", "A", "D", "C")  # by interactions, then id
        assert ranked == ranker.rank([], cands, 4)

    def test_previous_item_is_the_latest_revealed_item(self):
        # a later interaction, not the earlier clickout, is the previous item
        corpus = corpus_of_sessions([["A", "B"], ["A", "B"], ["B", "C"]])
        graph = build_affinity_graph(corpus, min_sessions=1, max_pairs_per_item=0)
        session = [
            clickout("s", 1, "B", ["A", "B"]),
            make_action("s", 2, item="C"),
            make_action("s", 3),
        ]
        assert CooccurrenceKnnRanker(graph).rank(session, ["A", "B"], 2).anchor == "C"


class TestMetadataKnn:
    METADATA = {
        "prev": frozenset({"a", "b"}),
        "twin": frozenset({"a", "b"}),
        "half": frozenset({"b", "c"}),
        "other": frozenset({"x", "y"}),
    }
    POPULARITY = PopularityTable({"twin": 5.0, "half": 2.0})

    def test_identical_properties_score_one(self):
        ranker = MetadataKnnRanker(self.METADATA, self.POPULARITY)
        ranked = ranker.rank(session_of("prev"), ["twin", "other"], 2)
        assert ranked.items[0] == ("twin", pytest.approx(1.0))

    def test_disjoint_properties_score_zero(self):
        ranker = MetadataKnnRanker(self.METADATA, self.POPULARITY)
        ranked = ranker.rank(session_of("prev"), ["other"], 1)
        assert ranked.items[0][1] == 0.0

    def test_half_overlap(self):
        ranker = MetadataKnnRanker(self.METADATA, self.POPULARITY)
        ranked = ranker.rank(session_of("prev"), ["half"], 1)
        assert ranked.items[0][1] == pytest.approx(0.5)

    def test_unknown_previous_item_falls_back(self):
        ranker = MetadataKnnRanker(self.METADATA, self.POPULARITY)
        ranked = ranker.rank(session_of("mystery"), ["half", "twin"], 2)
        assert ranked.fallback_used
        assert ids_of(ranked) == ("twin", "half")

    def test_neighbor_cap_limits_scored_items(self):
        # n104 shares both of prev's properties, the others one each: they
        # tie and are ordered by id, so the 100 nearest are n104 and
        # n000..n098
        others = [f"n{k:03d}" for k in range(105)]
        metadata = {n: frozenset({"a", n}) for n in others}
        metadata["prev"] = metadata["n104"] = frozenset({"a", "b"})
        ranker = MetadataKnnRanker(metadata, PopularityTable({}))
        ranked = ranker.rank(session_of("prev"), others, 105)
        scored = {item for item, score in ranked.items if score > 0.0}
        assert scored == {"n104", *others[:99]}
        assert len(ranked) == 105

    def test_metadata_file_round_trip(self, tmp_path):
        path = tmp_path / "metadata.tsv"
        write_metadata(self.METADATA, path)
        assert load_metadata(path) == self.METADATA

    @pytest.mark.parametrize(
        "metadata, item",
        [
            ({"a": frozenset({"x"}), "b\tc": frozenset({"y"})}, "b\tc"),
            ({"a\nb": frozenset({"x"})}, "a\nb"),
            ({"a\rb": frozenset()}, "a\rb"),
            ({"a": frozenset({"x"}), "b": frozenset({"x|y"})}, "b"),
            ({"a": frozenset({"x\ty"})}, "a"),
            ({"a": frozenset({"x\ny"})}, "a"),
            ({"a": frozenset({"x\r"})}, "a"),
            ({"a": frozenset({"x", ""})}, "a"),
        ],
        ids=["id-tab", "id-newline", "id-return", "token-pipe", "token-tab",
             "token-newline", "token-return", "token-empty"],
    )
    def test_write_refuses_what_load_cannot_read_back(self, tmp_path, metadata, item):
        path = tmp_path / "metadata.tsv"
        with pytest.raises(ValidationError, match=re.escape(f"metadata item {item!r}: ")):
            write_metadata(metadata, path)
        assert not path.exists()

    def test_repeated_metadata_item_names_its_line(self, tmp_path):
        path = tmp_path / "metadata.tsv"
        path.write_text("a\tx|y\nb\ty\na\tz\n")
        with pytest.raises(ParseError, match="^line 3: repeated item 'a'"):
            load_metadata(path)

    @pytest.mark.parametrize("bad_line", ["b", "b\ty\tz"])
    def test_malformed_metadata_line_names_it(self, tmp_path, bad_line):
        path = tmp_path / "metadata.tsv"
        path.write_text(f"a\tx|y\n{bad_line}\n")
        with pytest.raises(ParseError, match="^line 2: malformed metadata line"):
            load_metadata(path)

    def test_blank_metadata_line_skipped(self, tmp_path):
        path = tmp_path / "metadata.tsv"
        path.write_text("a\tx|y\n\nb\ty\n")
        assert load_metadata(path) == {"a": {"x", "y"}, "b": {"y"}}

    @pytest.mark.parametrize("prev, candidate", [("bare", "twin"), ("prev", "bare")])
    def test_empty_property_set_scores_zero(self, prev, candidate):
        metadata = {**self.METADATA, "bare": frozenset()}
        ranker = MetadataKnnRanker(metadata, self.POPULARITY)
        ranked = ranker.rank(session_of(prev), [candidate], 1)
        assert ranked.items == ((candidate, 0.0),)
        assert not ranked.fallback_used


class TestOutputContract:
    def test_all_rankers_emit_valid_ranked_lists(self, toy_train):
        graph = build_affinity_graph(toy_train, min_sessions=1, max_pairs_per_item=0)
        rankers = [
            RandomRanker(seed=0),
            InteractionPopularityRanker(toy_train),
            ClickoutPopularityRanker(toy_train),
            CooccurrenceKnnRanker(graph),
            MetadataKnnRanker({"A": frozenset({"t"})}, graph.popularity),
        ]
        session = session_of("A", "B")
        cands = ["C", "D", "E", "A"]
        for ranker in rankers:
            ranked = ranker.rank(session, cands, 3)
            assert len(ranked) <= 3
            scores = [s for _, s in ranked.items]
            assert scores == sorted(scores, reverse=True)
            assert len(set(ids_of(ranked))) == len(ids_of(ranked))


def test_an_impression_list_fits_under_the_neighbor_cap():
    # MetadataKnnRanker.score_sessions keeps every candidate's cosine
    from simpop import baselines
    from simpop.sessions import MAX_IMPRESSIONS

    assert MAX_IMPRESSIONS < baselines._NEIGHBORS
