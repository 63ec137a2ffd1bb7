"""Popularity counting and co-occurrence estimation, checked against a
brute-force all-pairs oracle on small corpora."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpop.affinity import (
    AffinityGraph,
    PopularityTable,
    build_affinity_graph,
    compute_popularity,
    read_affinity_graph,
    read_popularity,
    write_affinity_graph,
)
from simpop.errors import MissingItemError, ParseError, ValidationError
from simpop.sessions import Role, SessionCorpus, filter_bookable_sessions
from simpop.synth import SynthConfig, generate

from conftest import make_action, pair_dict


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
        # a dict's own membership and get; only indexing is checked
        table = PopularityTable({"A": 2.0})
        assert "Z" not in table and len(table) == 1
        assert table.get("Z") is None
        assert table.get("Z", 0.0) == 0.0
        with pytest.raises(MissingItemError, match="unknown item 'Z'"):
            table["Z"]

    def test_clickout_only_counts_are_a_subset(self, toy_train):
        all_counts, click_counts = toy_train.item_counts
        assert np.all(click_counts <= all_counts)


def item_session_incidence(corpus):
    """Map each item to the set of sessions it was interacted with in.

    Incidence is binary per (item, session): repeats within one session count
    once. Impression-list appearances do not count.
    """
    seen = {}
    for sid, acts in corpus.sessions.items():
        for a in acts:
            if a.item_ref is not None:
                seen.setdefault(a.item_ref, set()).add(sid)
    return {item: frozenset(s) for item, s in seen.items()}


def cosine_cooccurrence(incidence, i, j):
    """Cosine of the binary session-incidence vectors of items i and j."""
    if i == j:
        raise ValueError("cosine co-occurrence is defined for distinct items")
    s_i, s_j = incidence.get(i), incidence.get(j)
    if not s_i:
        raise ValueError(f"item {i!r} has no sessions")
    if not s_j:
        raise ValueError(f"item {j!r} has no sessions")
    shared = len(s_i & s_j)
    if shared == 0:
        return 0.0
    return min(1.0, shared / math.sqrt(len(s_i) * len(s_j)))


class TestCosine:
    """The session-incidence cosine the graph builder is checked against."""

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
        with pytest.raises(ValueError, match="'A' has no sessions"):
            cosine_cooccurrence(incidence, "A", "B")

    def test_self_pair_rejected(self):
        incidence = {"A": frozenset({"s1"})}
        with pytest.raises(ValueError, match="distinct items"):
            cosine_cooccurrence(incidence, "A", "A")

    def test_repeats_within_session_count_once(self):
        corpus = corpus_of_sessions([["A", "A", "B"]])
        incidence = item_session_incidence(corpus)
        assert incidence["A"] == frozenset({"s0"})


class TestGraphBuild:
    def test_two_session_example(self):
        corpus = corpus_of_sessions([["A", "B"], ["B", "C"]])
        graph = build_affinity_graph(corpus, min_sessions=1, max_pairs_per_item=0)
        assert pair_dict(graph) == {
            ("A", "B"): pytest.approx(1 / math.sqrt(2)),
            ("B", "C"): pytest.approx(1 / math.sqrt(2)),
        }
        assert graph.n_pairs == 2

    def test_single_session_no_pairs(self):
        corpus = corpus_of_sessions([["A"]])
        graph = build_affinity_graph(corpus, min_sessions=1)
        assert graph.n_pairs == 0

    def test_min_sessions_excludes_rare_items(self):
        corpus = corpus_of_sessions([["A", "B"], ["A", "B"], ["A", "C"]])
        graph = build_affinity_graph(corpus, min_sessions=2, max_pairs_per_item=0)
        # C appears in one session only, so no (A, C) pair
        assert list(pair_dict(graph)) == [("A", "B")]
        assert graph.items() == ["A", "B"]

    def test_symmetry_of_lookup(self):
        corpus = corpus_of_sessions([["A", "B"], ["B", "A"]])
        graph = build_affinity_graph(corpus, min_sessions=1)
        assert pair_dict(graph) == {("A", "B"): 1.0}
        assert graph.neighbors("A") == (("B", 1.0),)
        assert graph.neighbors("B") == (("A", 1.0),)

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
            pairs = pair_dict(graph)
            incidence = item_session_incidence(corpus)
            present = sorted(incidence)
            for i, j in itertools.combinations(present, 2):
                expected = cosine_cooccurrence(incidence, i, j)
                assert pairs.get((i, j), 0.0) == pytest.approx(expected), (i, j)

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
        assert pair_dict(g2)[("A", "B")] > 0.0
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
        kept = pair_dict(pruned)
        assert set(kept) == {p for p in pair_dict(full) if p in expected}
        for (i, j), p in kept.items():
            assert dict(pruned.neighbors(i))[j] == dict(pruned.neighbors(j))[i] == p

    def test_counts_what_it_left_out(self):
        # sessions per item: A 3, B 4, C 2, D 2, E 1; p(A, B) 0.58 and
        # p(C, D) 0.5 are each end's strongest, p(B, C) = p(B, D) 0.35 none's
        corpus = corpus_of_sessions(
            [["A", "B"], ["A", "B"], ["B", "C"], ["B", "D"], ["C", "D"], ["A", "E"]]
        )
        graph = build_affinity_graph(corpus, min_sessions=2, max_pairs_per_item=1)
        assert list(pair_dict(graph)) == [("A", "B"), ("C", "D")]
        assert (graph.excluded_items, graph.pruned_pairs) == (1, 2)
        uncapped = build_affinity_graph(corpus, min_sessions=1, max_pairs_per_item=0)
        assert (uncapped.excluded_items, uncapped.pruned_pairs) == (0, 0)

    def test_negative_pair_cap_rejected(self):
        # 0 means no cap; a negative cap is an error, not a second spelling of 0
        corpus = corpus_of_sessions([["A", "B"], ["A", "B"]])
        with pytest.raises(ValueError, match="max_pairs_per_item"):
            build_affinity_graph(corpus, max_pairs_per_item=-3)

    def test_min_sessions_below_one_rejected(self):
        corpus = corpus_of_sessions([["A", "B"], ["A", "B"]])
        with pytest.raises(ValueError, match="min_sessions must be >= 1"):
            build_affinity_graph(corpus, min_sessions=0)

    def test_bounds_hold_on_random_corpora(self):
        rng = np.random.default_rng(3)
        items = [f"i{k}" for k in range(10)]
        sessions = [
            list(rng.choice(items, size=4, replace=False)) for _ in range(20)
        ]
        graph = build_affinity_graph(corpus_of_sessions(sessions), min_sessions=1)
        for p in pair_dict(graph).values():
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


def oracle_neighbors(pairs, item):
    """``item``'s neighbours in ``pairs`` by brute force: decreasing p, ties
    to the smaller id."""
    nbrs = [(j if i == item else i, p) for (i, j), p in pairs.items() if item in (i, j)]
    return tuple(sorted(nbrs, key=lambda op: (-op[1], op[0])))


def assert_neighbors_match(graph, corpus, pairs):
    for item in sorted(corpus.item_vocabulary):
        assert graph.neighbors(item) == oracle_neighbors(pairs, item), item


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
            assert pair_dict(graph) == expected, sessions
            assert list(pair_dict(graph)) == sorted(expected)
            assert_neighbors_match(graph, corpus, expected)

    def test_one_item_corpus_gives_empty_graph(self):
        corpus = corpus_of_sessions([["A", "A"], ["A"], ["A", "A", "A"]])
        for min_sessions in (1, 2, 3):
            graph = build_affinity_graph(corpus, min_sessions, 2)
            assert pair_dict(graph) == {}
            assert graph.items() == []
            assert graph.neighbors("A") == ()

    def test_synth_corpus(self):
        data = generate(
            SynthConfig(n_items=300, n_clusters=6, n_train_sessions=600,
                        n_test_sessions=30, seed=4)
        )
        corpus = filter_bookable_sessions(data.train)
        assert len(corpus.item_vocabulary) >= 250
        graph = build_affinity_graph(corpus, 2, 3)
        assert graph.n_pairs > 300
        expected = oracle_pairs(corpus, 2, 3)
        assert pair_dict(graph) == expected
        assert_neighbors_match(graph, corpus, expected)

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
        assert pair_dict(graph) == {("A", "B"): 0.4}

    def test_neighbors_sorted_by_similarity(self):
        graph = AffinityGraph.from_pairs(
            {("A", "B"): 0.4, ("A", "C"): 0.9, ("A", "D"): 0.4},
            PopularityTable({}),
        )
        assert [n for n, _ in graph.neighbors("A")] == ["C", "B", "D"]


def three_pair_graph(ids=("A", "B", "C"), ii=(0, 0, 1), jj=(1, 2, 2), p=(0.5,) * 3):
    """A graph built straight from code arrays: every pair of A, B and C."""
    return AffinityGraph(
        ids, np.array(ii), np.array(jj), np.array(p), PopularityTable({})
    )


class TestGraphInvariants:
    """The array invariants ``AffinityGraph`` checks on construction."""

    def test_valid_arrays_accepted(self):
        graph = three_pair_graph()
        assert pair_dict(graph) == {("A", "B"): 0.5, ("A", "C"): 0.5, ("B", "C"): 0.5}
        assert graph.ii.dtype == graph.jj.dtype == np.intp

    @pytest.mark.parametrize(
        "arrays, message",
        [
            (dict(ii=(0, 0, 2), jj=(1, 2, 2)), "self-pair on item 'C'"),
            (dict(ii=(0, 0, 2), jj=(1, 2, 1)), r"pair \('C', 'B'\) not canonically"),
            (
                dict(ii=(0, 0, 0, 1), jj=(1, 2, 2, 2), p=(0.5,) * 4),
                r"pair \('A', 'C'\) repeated or out of order",
            ),
            (dict(ii=(0, 1, 0), jj=(1, 2, 2)), r"pair \('A', 'C'\) repeated or out"),
            (dict(p=(0.5, 0.0, 0.5)), r"pair \(A, C\) has p=0.0"),
            (dict(p=(0.5, 0.5, 1.5)), r"pair \(B, C\) has p=1.5"),
            (dict(p=(0.5, math.nan, 0.5)), r"pair \(A, C\) has p=nan"),
            (dict(jj=(1, 2, 3)), r"pair 2 codes \(1, 3\) not in \[0, 3\)"),
            (dict(ii=(-1, 0, 1)), r"pair 0 codes \(-1, 1\) not in \[0, 3\)"),
            (dict(ids=("B", "A", "C")), "ids not sorted and unique at 'A'"),
            (dict(ids=("A", "A", "C")), "ids not sorted and unique at 'A'"),
            (dict(ids=("A", "B", "C", "D")), "item 'D' is in no pair"),
            (dict(p=(0.5, 0.5)), "vectors of one length"),
        ],
        ids=[
            "self_pair", "reversed_pair", "repeated_pair", "pairs_out_of_order",
            "p_zero", "p_above_one", "p_nan", "code_too_large", "code_negative",
            "unsorted_ids", "repeated_ids", "id_in_no_pair", "misaligned",
        ],
    )
    def test_broken_arrays_rejected(self, arrays, message):
        with pytest.raises(ValidationError, match=message):
            three_pair_graph(**arrays)

    def test_from_pairs_rejects_conflicting_orientations(self):
        with pytest.raises(ValidationError, match="conflicting"):
            AffinityGraph.from_pairs(
                {("A", "B"): 0.4, ("B", "A"): 0.5}, PopularityTable({})
            )


class TestStrongestEstimates:
    """``strongest_estimates`` against ``neighbors``' first k entries."""

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda ij: ij[0] < ij[1]),
            st.sampled_from([0.25, 0.5, 1.0]),  # few values, so strengths tie
            min_size=1,
        ),
        st.integers(1, 4),
        st.data(),
    )
    def test_first_k_neighbors_keep_their_estimates(self, pairs, k, data):
        graph = AffinityGraph.from_pairs(
            {(f"n{i}", f"n{j}"): p for (i, j), p in pairs.items()}, PopularityTable({})
        )
        codes = st.integers(-1, len(graph.ids) - 1)
        asked = data.draw(st.lists(st.tuples(codes, codes), min_size=1))
        item, other = (np.array(side, dtype=np.intp) for side in zip(*asked))
        got = graph.strongest_estimates(item, other, k)
        for r, (i, j) in enumerate(asked):
            near = {} if i < 0 else dict(graph.neighbors(graph.ids[i])[:k])
            want = near.get(graph.ids[j], 0.0) if j >= 0 else 0.0
            assert got[r] == want, (i, j)


class TestGraphExport:
    def test_round_trip(self, toy_train, tmp_path):
        graph = build_affinity_graph(toy_train, min_sessions=1, max_pairs_per_item=0)
        write_affinity_graph(graph, tmp_path / "pairs.tsv", tmp_path / "pop.tsv")
        again = read_affinity_graph(tmp_path / "pairs.tsv", tmp_path / "pop.tsv")
        assert again.ids == graph.ids
        assert pair_dict(again) == pair_dict(graph)
        # one line per pair, canonically oriented, in id order
        lines = (tmp_path / "pairs.tsv").read_text().splitlines()
        written = [tuple(line.split("\t")[:2]) for line in lines]
        assert written == sorted(pair_dict(graph))
        assert again.popularity == graph.popularity

    @pytest.mark.parametrize(
        "bad_line", ["a\tc\tnotafloat", "a\tc", "a\tc\t0.5\t1"]
    )
    def test_malformed_pair_line_names_it(self, tmp_path, bad_line):
        (tmp_path / "pairs.tsv").write_text(f"a\tb\t0.5\n{bad_line}\n")
        (tmp_path / "pop.tsv").write_text("a\t1.0\nb\t1.0\nc\t1.0\n")
        with pytest.raises(ParseError, match="^line 2: malformed pair line") as err:
            read_affinity_graph(tmp_path / "pairs.tsv", tmp_path / "pop.tsv")
        assert err.value.line_number == 2

    @pytest.mark.parametrize("repeat", ["a\tb\t0.9", "b\ta\t0.5"])
    def test_repeated_pair_names_its_line(self, tmp_path, repeat):
        (tmp_path / "pairs.tsv").write_text(f"a\tb\t0.5\n{repeat}\n")
        (tmp_path / "pop.tsv").write_text("a\t1.0\nb\t1.0\n")
        with pytest.raises(ParseError, match=r"^line 2: .*\('a', 'b'\) repeated"):
            read_affinity_graph(tmp_path / "pairs.tsv", tmp_path / "pop.tsv")

    @pytest.mark.parametrize("brk", ["\t", "\n", "\r"], ids=["tab", "lf", "cr"])
    @pytest.mark.parametrize("where", ["pair", "popularity-only"])
    def test_an_id_it_cannot_read_back_is_refused_before_writing(
        self, tmp_path, brk, where
    ):
        # the text formats hold one id per tab-separated field of a line
        bad = f"a{brk}b"
        kappa = {"a": 1.0, "c": 2.0, bad: 1.0}
        pair = (bad, "c") if where == "pair" else ("a", "c")
        graph = AffinityGraph.from_pairs({pair: 0.5}, PopularityTable(kappa))
        pairs, pop = tmp_path / "pairs.tsv", tmp_path / "pop.tsv"
        with pytest.raises(ValidationError, match=re.escape(repr(bad))):
            write_affinity_graph(graph, pairs, pop)
        assert list(tmp_path.iterdir()) == []

    def test_repeated_popularity_item_names_its_line(self, tmp_path):
        (tmp_path / "pop.tsv").write_text("a\t1.0\nb\t2.0\na\t5.0\n")
        with pytest.raises(ParseError, match="^line 3: .*'a' repeated"):
            read_popularity(tmp_path / "pop.tsv")
