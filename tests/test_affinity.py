"""Popularity counting and co-occurrence estimation, checked against a
brute-force all-pairs oracle on small corpora."""

import itertools
import math

import numpy as np
import pytest

from simpop.affinity import (
    AffinityGraph,
    PopularityTable,
    build_affinity_graph,
    compute_popularity,
    cosine_cooccurrence,
    interaction_counts,
    item_session_incidence,
    read_affinity_graph,
    write_affinity_graph,
)
from simpop.errors import (
    MissingItemError,
    ParseError,
    UndefinedSimilarityError,
    ValidationError,
)
from simpop.sessions import Role, SessionCorpus, filter_bookable_sessions
from simpop.synth import SynthConfig, generate

from conftest import make_action


def corpus_of_sessions(session_items, role=Role.TRAIN):
    """Build a corpus from bare item lists, one session per list."""
    actions = []
    for n, items in enumerate(session_items):
        sid = f"s{n}"
        for step, item in enumerate(items, start=1):
            actions.append(make_action(sid, step, item=item))
    return SessionCorpus.from_actions(actions, role)


class TestPopularity:
    def test_counts_all_interactions(self):
        corpus = corpus_of_sessions([["A", "A", "B"], ["A"]])
        table = compute_popularity(corpus)
        assert table["A"] == 3.0
        assert table["B"] == 1.0

    def test_impression_only_item_floors_at_one(self, toy_train):
        table = compute_popularity(toy_train)
        # D never appears as item_ref outside a clickout in s2; E only via
        # impressions and one interaction
        assert table["D"] == 1.0
        assert table["A"] == 2.0

    def test_empty_corpus_gives_empty_table(self):
        table = compute_popularity(SessionCorpus.from_actions([], Role.TRAIN))
        assert len(table) == 0

    def test_rejects_test_corpus(self, toy_test):
        with pytest.raises(ValidationError):
            compute_popularity(toy_test)

    def test_kappa_below_one_rejected(self):
        with pytest.raises(ValidationError):
            PopularityTable({"A": 0.5})

    @pytest.mark.parametrize("kappa", [math.inf, math.nan])
    def test_non_finite_kappa_rejected(self, kappa):
        with pytest.raises(ValidationError, match="finite"):
            PopularityTable({"A": kappa})

    def test_lookup_of_unknown_item(self):
        table = PopularityTable({"A": 2.0})
        assert table.get("Z") == 0.0
        with pytest.raises(MissingItemError):
            table["Z"]

    def test_clickout_only_counts_are_a_subset(self, toy_train):
        all_counts = interaction_counts(toy_train)
        click_counts = interaction_counts(toy_train, clickout_only=True)
        for item, count in click_counts.items():
            assert count <= all_counts[item]


class TestCosine:
    def test_identical_singleton_sets(self):
        incidence = {"A": frozenset({"s1"}), "B": frozenset({"s1"})}
        assert cosine_cooccurrence(incidence, "A", "B") == 1.0

    def test_half_overlap(self):
        incidence = {
            "A": frozenset({"s1", "s2"}),
            "B": frozenset({"s2", "s3"}),
        }
        assert cosine_cooccurrence(incidence, "A", "B") == pytest.approx(0.5)

    def test_disjoint_sets(self):
        incidence = {"A": frozenset({"s1"}), "B": frozenset({"s2"})}
        assert cosine_cooccurrence(incidence, "A", "B") == 0.0

    def test_empty_session_set_is_error(self):
        incidence = {"A": frozenset(), "B": frozenset({"s1"})}
        with pytest.raises(UndefinedSimilarityError):
            cosine_cooccurrence(incidence, "A", "B")

    def test_self_pair_rejected(self):
        incidence = {"A": frozenset({"s1"})}
        with pytest.raises(ValueError):
            cosine_cooccurrence(incidence, "A", "A")

    def test_repeats_within_session_count_once(self):
        corpus = corpus_of_sessions([["A", "A", "B"]])
        incidence = item_session_incidence(corpus)
        assert incidence["A"] == frozenset({"s0"})


class TestGraphBuild:
    def test_two_session_example(self):
        corpus = corpus_of_sessions([["A", "B"], ["B", "C"]])
        graph = build_affinity_graph(corpus, min_sessions=1, max_pairs_per_item=0)
        assert graph.similarity("A", "B") == pytest.approx(1 / math.sqrt(2))
        assert graph.similarity("B", "C") == pytest.approx(1 / math.sqrt(2))
        assert graph.similarity("A", "C") == 0.0
        assert graph.n_pairs == 2

    def test_single_session_no_pairs(self):
        corpus = corpus_of_sessions([["A"]])
        graph = build_affinity_graph(corpus, min_sessions=1)
        assert graph.n_pairs == 0

    def test_min_sessions_excludes_rare_items(self):
        corpus = corpus_of_sessions([["A", "B"], ["A", "B"], ["A", "C"]])
        graph = build_affinity_graph(corpus, min_sessions=2, max_pairs_per_item=0)
        # C appears in one session only, so no (A, C) pair
        assert graph.similarity("A", "C") == 0.0
        assert graph.similarity("A", "B") > 0.0

    def test_symmetry_of_lookup(self):
        corpus = corpus_of_sessions([["A", "B"], ["B", "A"]])
        graph = build_affinity_graph(corpus, min_sessions=1)
        assert graph.similarity("A", "B") == graph.similarity("B", "A") == 1.0

    def test_matches_brute_force_on_small_corpora(self):
        rng = np.random.default_rng(42)
        items = [f"i{k}" for k in range(12)]
        for trial in range(10):
            sessions = [
                list(rng.choice(items, size=rng.integers(2, 6), replace=False))
                for _ in range(rng.integers(2, 10))
            ]
            corpus = corpus_of_sessions(sessions)
            graph = build_affinity_graph(corpus, min_sessions=1, max_pairs_per_item=0)
            incidence = item_session_incidence(corpus)
            present = sorted(incidence)
            for i, j in itertools.combinations(present, 2):
                expected = cosine_cooccurrence(incidence, i, j)
                assert graph.similarity(i, j) == pytest.approx(expected), (i, j)

    def test_monotonicity_adding_shared_session(self):
        base = [["A", "B"], ["A", "C"], ["B", "C"]]
        corpus1 = corpus_of_sessions(base)
        corpus2 = corpus_of_sessions(base + [["A", "B"]])
        g1 = build_affinity_graph(corpus1, min_sessions=1)
        g2 = build_affinity_graph(corpus2, min_sessions=1)
        inc1 = item_session_incidence(corpus1)
        inc2 = item_session_incidence(corpus2)
        co1 = len(inc1["A"] & inc1["B"])
        co2 = len(inc2["A"] & inc2["B"])
        assert co2 >= co1
        assert g2.similarity("A", "B") > 0.0
        assert g1.n_pairs <= g2.n_pairs

    def test_top_pair_pruning_keeps_union(self):
        # B co-occurs strongly with A (twice) and weakly with C and D (once)
        corpus = corpus_of_sessions(
            [["A", "B"], ["A", "B"], ["B", "C"], ["B", "D"], ["C", "D"]]
        )
        full = build_affinity_graph(corpus, min_sessions=1, max_pairs_per_item=0)
        pruned = build_affinity_graph(corpus, min_sessions=1, max_pairs_per_item=1)
        # brute-force top-1 per item, then union
        expected = set()
        for item in full.items():
            best = max(full.neighbors(item), key=lambda np_: (np_[1], -ord(np_[0][0])))
            pair = tuple(sorted((item, best[0])))
            expected.add(pair)
        # every kept pair is someone's top pair and lookups stay symmetric
        assert set(pruned.pairs) == {
            p for p in full.pairs if p in expected or tuple(p) in expected
        }
        for i, j in pruned.pairs:
            assert pruned.similarity(i, j) == pruned.similarity(j, i)

    def test_negative_pair_cap_rejected(self):
        # 0 means no cap; a negative cap is an error, not a second spelling of 0
        corpus = corpus_of_sessions([["A", "B"], ["A", "B"]])
        with pytest.raises(ValueError, match="max_pairs_per_item"):
            build_affinity_graph(corpus, max_pairs_per_item=-3)

    def test_bounds_hold_on_random_corpora(self):
        rng = np.random.default_rng(3)
        items = [f"i{k}" for k in range(10)]
        sessions = [
            list(rng.choice(items, size=4, replace=False)) for _ in range(20)
        ]
        graph = build_affinity_graph(corpus_of_sessions(sessions), min_sessions=1)
        for p in graph.pairs.values():
            assert 0.0 < p <= 1.0


def oracle_pairs(corpus, min_sessions, max_pairs_per_item):
    """The graph's pairs by brute force: the cosine of every eligible pair's
    session sets, then each item's top ``max_pairs_per_item`` by decreasing
    p, ties to the smaller id, unioned; sorted by pair."""
    incidence = item_session_incidence(corpus)
    eligible = sorted(i for i, s in incidence.items() if len(s) >= min_sessions)
    pairs = {}
    for i, j in itertools.combinations(eligible, 2):
        p = cosine_cooccurrence(incidence, i, j)
        if p > 0.0:
            pairs[(i, j)] = p
    if max_pairs_per_item == 0:
        return pairs
    by_item = {}
    for (i, j), p in pairs.items():
        by_item.setdefault(i, []).append((p, j))
        by_item.setdefault(j, []).append((p, i))
    kept = set()
    for item, ranked in by_item.items():
        ranked.sort(key=lambda po: (-po[0], po[1]))
        for _, other in ranked[:max_pairs_per_item]:
            kept.add((min(item, other), max(item, other)))
    return {pair: p for pair, p in pairs.items() if pair in kept}


class TestGraphOracle:
    """``build_affinity_graph``, with ``==``, against the brute-force oracle."""

    @pytest.mark.parametrize("min_sessions", [1, 2, 3])
    @pytest.mark.parametrize("cap", [0, 1, 2, 3])
    def test_tie_heavy_random_corpora(self, min_sessions, cap):
        # few items, short sessions drawn with replacement: repeated items
        # within a session and many equal cosines
        rng = np.random.default_rng(100 * min_sessions + cap)
        for _ in range(25):
            items = [f"i{k}" for k in range(rng.integers(1, 8))]
            sessions = [
                list(rng.choice(items, size=rng.integers(1, 5)))
                for _ in range(rng.integers(1, 12))
            ]
            corpus = corpus_of_sessions(sessions)
            graph = build_affinity_graph(corpus, min_sessions, cap)
            expected = oracle_pairs(corpus, min_sessions, cap)
            assert graph.pairs == expected, sessions
            assert list(graph.pairs) == sorted(expected)

    def test_one_item_corpus_gives_empty_graph(self):
        corpus = corpus_of_sessions([["A", "A"], ["A"], ["A", "A", "A"]])
        for min_sessions in (1, 2, 3):
            graph = build_affinity_graph(corpus, min_sessions, 2)
            assert graph.pairs == {}
            assert graph.items() == []

    def test_synth_corpus(self):
        data = generate(
            SynthConfig(n_items=300, n_clusters=6, n_train_sessions=600,
                        n_test_sessions=30, seed=4)
        )
        corpus = filter_bookable_sessions(data.train)
        assert len(corpus.item_vocabulary) >= 250
        graph = build_affinity_graph(corpus, 2, 3)
        assert graph.n_pairs > 300
        assert graph.pairs == oracle_pairs(corpus, 2, 3)

    def test_neighbors_and_items_come_from_pairs(self):
        corpus = corpus_of_sessions([["A", "B"], ["A", "B"], ["B", "C"], ["C", "D"]])
        graph = build_affinity_graph(corpus, min_sessions=1, max_pairs_per_item=0)
        assert graph.items() == ["A", "B", "C", "D"]
        assert [n for n, _ in graph.neighbors("B")] == ["A", "C"]
        assert graph.neighbors("Z") == ()


class TestGraphValidation:
    def test_self_pair_rejected(self):
        with pytest.raises(ValidationError):
            AffinityGraph.from_pairs({("A", "A"): 0.5}, PopularityTable({"A": 1.0}))

    def test_out_of_range_probability_rejected(self):
        with pytest.raises(ValidationError):
            AffinityGraph.from_pairs({("A", "B"): 1.5}, PopularityTable({}))

    def test_from_pairs_canonicalizes_orientation(self):
        graph = AffinityGraph.from_pairs(
            {("B", "A"): 0.4}, PopularityTable({"A": 1.0, "B": 2.0})
        )
        assert graph.similarity("A", "B") == 0.4

    def test_neighbors_sorted_by_similarity(self):
        graph = AffinityGraph.from_pairs(
            {("A", "B"): 0.4, ("A", "C"): 0.9, ("A", "D"): 0.4},
            PopularityTable({}),
        )
        assert [n for n, _ in graph.neighbors("A")] == ["C", "B", "D"]


class TestGraphExport:
    def test_round_trip(self, toy_train, tmp_path):
        graph = build_affinity_graph(toy_train, min_sessions=1, max_pairs_per_item=0)
        write_affinity_graph(graph, tmp_path / "pairs.tsv", tmp_path / "pop.tsv")
        again = read_affinity_graph(tmp_path / "pairs.tsv", tmp_path / "pop.tsv")
        assert again.pairs == graph.pairs
        assert again.popularity.kappa == graph.popularity.kappa

    @pytest.mark.parametrize(
        "bad_line", ["a\tc\tnotafloat", "a\tc", "a\tc\t0.5\t1"]
    )
    def test_malformed_pair_line_names_it(self, tmp_path, bad_line):
        (tmp_path / "pairs.tsv").write_text(f"a\tb\t0.5\n{bad_line}\n")
        (tmp_path / "pop.tsv").write_text("a\t1.0\nb\t1.0\nc\t1.0\n")
        with pytest.raises(ParseError, match="^line 2: malformed pair line") as err:
            read_affinity_graph(tmp_path / "pairs.tsv", tmp_path / "pop.tsv")
        assert err.value.line_number == 2
