"""Anchor selection, candidate ranking, rerank/fallback modes, the
exhaustive score-and-sort oracle, and the top-t selection of a catalog, a
candidate list, the popularity fallback or a baseline against a full sort."""

import numpy as np
import pytest

from simpop.affinity import PopularityTable
from simpop.baselines import RandomRanker
from simpop.errors import MissingItemError, ValidationError
from simpop import recommender
from simpop.model import EmbeddingModel, ModelParams, _law
from simpop.recommender import (
    NextItemRecommender,
    RankedList,
    anchor_item,
    rank_candidates,
)

from conftest import ids_of, make_action


def grid_model(n=5, alpha=2.0, dim=2, kappa=None, spacing=1.0):
    """Items item0..item{n-1} spaced along the x axis."""
    ids = [f"item{k}" for k in range(n)]
    coords = np.zeros((n, dim))
    coords[:, 0] = spacing * np.arange(n)
    kap = np.asarray(kappa if kappa is not None else np.ones(n), dtype=float)
    return EmbeddingModel(ModelParams(alpha=alpha, dim=dim), ids, coords, kap)


def session_of(*items):
    return [make_action("s", k + 1, item=item) for k, item in enumerate(items)]


def recommend(model, session, candidates=None, t=10, popularity=None):
    """One request through the proposed ranker's entry point."""
    return NextItemRecommender(model, popularity).rank(session, candidates, t)


class TestRankedList:
    def test_rejects_increasing_scores(self):
        with pytest.raises(ValidationError):
            RankedList(items=(("a", 0.1), ("b", 0.5)), anchor=None, fallback_used=False)

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            RankedList(items=(("a", 0.5), ("a", 0.4)), anchor=None, fallback_used=False)

    def test_rank_of(self):
        ranked = RankedList(items=(("a", 0.9), ("b", 0.1)), anchor=None, fallback_used=False)
        assert ranked.rank_of("a") == 1
        assert ranked.rank_of("b") == 2
        assert ranked.rank_of("zzz") is None


class TestAnchor:
    def test_most_popular_wins(self):
        pop = PopularityTable({"A": 5.0, "B": 9.0})
        assert anchor_item(session_of("A", "B"), pop) == "B"
        assert anchor_item(session_of("B", "A"), pop) == "B"

    def test_tie_broken_by_recency(self):
        pop = PopularityTable({"A": 5.0, "B": 5.0})
        assert anchor_item(session_of("A", "B"), pop) == "B"
        assert anchor_item(session_of("B", "A"), pop) == "A"

    def test_recency_uses_last_occurrence_with_repeats(self):
        pop = PopularityTable({"A": 5.0, "B": 5.0})
        session = session_of("B", "A", "B", "A")
        assert anchor_item(session, pop) == "A"

    def test_unknown_items_skipped(self):
        pop = PopularityTable({"A": 2.0})
        assert anchor_item(session_of("Z", "A"), pop) == "A"

    def test_no_known_item_gives_none(self):
        pop = PopularityTable({"A": 2.0})
        assert anchor_item(session_of("Z", "Y"), pop) is None
        assert anchor_item([make_action("s", 1)], pop) is None
        assert anchor_item(session_of("A"), pop, universe={"B"}) is None

    def test_universe_restriction(self):
        pop = PopularityTable({"A": 9.0, "B": 2.0})
        assert anchor_item(session_of("A", "B"), pop, universe={"B"}) == "B"

    def test_model_as_universe(self):
        # a model is a membership test over its ids, not an iterable of them
        model = EmbeddingModel(
            ModelParams(alpha=2.0, dim=1), ["B"], np.zeros((1, 1)), np.ones(1)
        )
        pop = PopularityTable({"A": 9.0, "B": 2.0})
        assert anchor_item(session_of("A", "B"), pop, universe=model) == "B"


class TestRankCandidates:
    def test_closer_item_ranks_first(self):
        model = grid_model(3)
        ranked = rank_candidates(model, "item0", ["item2", "item1"], 10)
        assert ids_of(ranked) == ("item1", "item2")
        assert ranked.items[0][1] > ranked.items[1][1]

    def test_anchor_excluded_from_output(self):
        model = grid_model(3)
        ranked = rank_candidates(model, "item0", ["item0", "item1"], 10)
        assert "item0" not in ids_of(ranked)

    def test_unknown_candidates_tail_by_popularity(self):
        model = grid_model(3)
        pop = PopularityTable({"item1": 1.0, "item2": 1.0, "x": 5.0, "y": 9.0})
        ranked = rank_candidates(
            model, "item0", ["x", "item2", "y", "item1"], 10, popularity=pop
        )
        assert ids_of(ranked) == ("item1", "item2", "y", "x")
        assert ranked.items[2][1] == 0.0

    def test_empty_candidates(self):
        model = grid_model(3)
        ranked = rank_candidates(model, "item0", [], 10)
        assert len(ranked) == 0

    def test_unknown_anchor_raises(self):
        model = grid_model(3)
        with pytest.raises(MissingItemError):
            rank_candidates(model, "nope", ["item1"], 5)

    def test_truncates_to_t(self):
        model = grid_model(6)
        ranked = rank_candidates(model, "item0", [f"item{k}" for k in range(1, 6)], 2)
        assert len(ranked) == 2

    def test_kappa_boost_never_lowers_rank(self):
        base = grid_model(4, kappa=[1.0, 1.0, 1.0, 1.0])
        boosted = grid_model(4, kappa=[1.0, 1.0, 1.0, 6.0])
        cands = ["item1", "item2", "item3"]
        rank_before = rank_candidates(base, "item0", cands, 3).rank_of("item3")
        rank_after = rank_candidates(boosted, "item0", cands, 3).rank_of("item3")
        assert rank_after <= rank_before

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            n = int(rng.integers(5, 21))
            ids = [f"i{k}" for k in range(n)]
            model = EmbeddingModel(
                ModelParams(alpha=2.0, dim=2),
                ids,
                rng.normal(size=(n, 2)),
                rng.uniform(1, 6, size=n),
            )
            anchor = ids[0]
            cands = list(rng.permutation(ids[1:]))
            ranked = rank_candidates(model, anchor, cands, len(cands))
            # independent oracle: score everything by the written-out law,
            # then sort by the tie policy
            a = model.coords_of(anchor)
            kappa = dict(zip(model.ids, model.kappa.tolist()))
            scored = [
                (
                    c,
                    (
                        1.0
                        + float(np.sum((model.coords_of(c) - a) ** 2))
                        / (kappa[anchor] * kappa[c])
                    )
                    ** -2.0,
                )
                for c in cands
            ]
            expected = [
                c
                for c, _ in sorted(
                    scored, key=lambda cs: (-cs[1], -kappa[cs[0]], cs[0])
                )
            ]
            assert list(ids_of(ranked)) == expected

    def test_order_independent_of_input_permutation(self):
        model = grid_model(6)
        cands = [f"item{k}" for k in range(1, 6)]
        a = rank_candidates(model, "item0", cands, 5)
        b = rank_candidates(model, "item0", list(reversed(cands)), 5)
        assert ids_of(a) == ids_of(b)


class TestRecommend:
    def test_rerank_mode_uses_anchor(self):
        model = grid_model(4, kappa=[9.0, 1.0, 1.0, 1.0])
        session = session_of("item0", "item2")
        ranked = recommend(model, session, candidates=["item1", "item3"], t=5)
        assert ranked.anchor == "item0"
        assert ids_of(ranked) == ("item1", "item3")
        assert not ranked.fallback_used

    def test_catalog_mode_returns_nearest_neighbors(self):
        model = grid_model(5, kappa=[9.0, 1.0, 1.0, 1.0, 1.0])
        session = session_of("item0")
        ranked = recommend(model, session, t=2)
        assert ids_of(ranked) == ("item1", "item2")

    def test_cold_session_falls_back_to_popularity(self):
        model = grid_model(3)
        pop = PopularityTable({"item0": 1.0, "item1": 1.0, "item2": 1.0, "A": 7.0, "B": 3.0})
        session = session_of("Z")
        ranked = recommend(model, session, candidates=["B", "A"], t=5, popularity=pop)
        assert ranked.fallback_used
        assert ranked.anchor is None
        assert ids_of(ranked) == ("A", "B")

    def test_t_larger_than_candidates(self):
        model = grid_model(3)
        ranked = recommend(model, session_of("item0"), candidates=["item1"], t=10)
        assert ids_of(ranked) == ("item1",)

    def test_t_must_be_positive(self):
        model = grid_model(3)
        with pytest.raises(ValueError):
            recommend(model, session_of("item0"), t=0)

    def test_anchor_restricted_to_model_items(self):
        # the most popular session item is unknown to the model, so the next
        # best scorable item anchors instead of failing
        model = grid_model(3)
        pop = PopularityTable({"item1": 2.0, "mystery": 99.0})
        session = session_of("mystery", "item1")
        ranked = recommend(model, session, candidates=["item0", "item2"], t=5, popularity=pop)
        assert ranked.anchor == "item1"
        assert not ranked.fallback_used

    def test_model_popularity_table_built_once(self, monkeypatch):
        # without a popularity table every call ranks by the model's kappa;
        # the table over the whole catalog is built on the first call only
        built = [0]
        init = PopularityTable.__init__

        def counting(self, kappa=()):
            built[0] += 1
            init(self, kappa)

        monkeypatch.setattr(PopularityTable, "__init__", counting)
        model = grid_model(5, kappa=[9.0, 1.0, 2.0, 1.0, 1.0])
        first = recommend(model, session_of("item0"), candidates=["item1", "item3"])
        assert built[0] == 1
        for _ in range(3):
            assert recommend(
                model, session_of("item0"), candidates=["item1", "item3"]
            ) == first
            recommend(model, session_of("item0"), t=2)
            recommend(model, session_of("Z"), t=2)
            rank_candidates(model, "item0", ["item2", "item4"], t=2)
            NextItemRecommender(model).rank(session_of("item0"), ["item1"], 1)
        assert built[0] == 1
        assert model.popularity["item2"] == 2.0


def tie_model(n=300, seed=0):
    """Integer grid coordinates and kappa in {1, 2}: many scores tie."""
    rng = np.random.default_rng(seed)
    ids = [f"t{k:03d}" for k in range(n)]
    coords = rng.integers(-2, 3, size=(n, 2)).astype(float)
    kappa = rng.integers(1, 3, size=n).astype(float)
    return EmbeddingModel(ModelParams(alpha=2.0, dim=2), ids, coords, kappa)


def full_sort(model, anchor, t, popularity, candidates=None):
    """Every candidate (by default the catalog) but the anchor scored once,
    unknown ids at 0, then all of them sorted by score, popularity and id."""
    pool = model.ids if candidates is None else dict.fromkeys(candidates)
    rest = [i for i in pool if i != anchor]
    known = [i for i in rest if i in model]
    scores = dict.fromkeys(rest, 0.0)
    law = _law(model, model.index_of(anchor), [model.index_of(i) for i in known])
    scores.update(zip(known, law.tolist()))
    ordered = sorted(
        scores.items(),
        key=lambda cs: (-cs[1], -popularity.get(cs[0], 0.0), cs[0]),
    )
    return RankedList(items=tuple(ordered[:t]), anchor=anchor, fallback_used=False)


@pytest.fixture
def sort_sizes(monkeypatch):
    """The length of every list the recommender module sorts, in call order."""
    sizes = []

    def spy(items, **kwargs):
        items = list(items)
        sizes.append(len(items))
        return sorted(items, **kwargs)

    monkeypatch.setattr(recommender, "sorted", spy, raising=False)
    return sizes


def popularity_sort(items, t, popularity):
    """The cold fallback's oracle: items by popularity, then id."""
    ordered = sorted(items, key=lambda item: (-popularity.get(item, 0.0), item))
    return tuple((item, popularity.get(item, 0.0)) for item in ordered[:t])


class TestCatalogTopK:
    def kappa_table(self, model):
        return PopularityTable(dict(zip(model.ids, map(float, model.kappa))))

    def test_equals_full_sort_with_ties(self):
        model = tie_model()
        n = len(model)
        table = self.kappa_table(model)
        for anchor in model.ids[::37]:
            ref = full_sort(model, anchor, n, table)
            scores = [s for _, s in ref.items]
            assert len(set(scores[:10])) < 10  # the fixture ties near the top
            for t in (1, 10, n - 1, n, n + 5):
                got = recommend(model, session_of(anchor), t=t)
                assert got.items == full_sort(model, anchor, t, table).items
                assert rank_candidates(model, anchor, None, t) == got
                assert got.anchor == anchor and not got.fallback_used
                assert anchor not in ids_of(got)
                assert len(got) == min(t, n - 1)

    def test_popularity_table_breaks_ties(self):
        model = tie_model()
        n = len(model)
        # an order unrelated to kappa, so the table and not kappa breaks ties
        rng = np.random.default_rng(1)
        table = PopularityTable(
            {item: float(rng.integers(1, 6)) for item in model.ids}
        )
        differs = False
        for anchor in model.ids[::37]:
            for t in (1, 10, n - 1, n, n + 5):
                got = recommend(model, session_of(anchor), t=t, popularity=table)
                assert got.items == full_sort(model, anchor, t, table).items
                assert rank_candidates(model, anchor, None, t, table) == got
                assert anchor not in ids_of(got)
                differs |= got.items != full_sort(
                    model, anchor, t, self.kappa_table(model)
                ).items
        assert differs

    def test_candidate_list_cut_at_a_tie_equals_full_sort(self):
        model = tie_model()
        table = self.kappa_table(model)
        rng = np.random.default_rng(3)
        boundary_ties = 0
        for anchor in model.ids[::37]:
            # repeats, unknown ids (they tie at 0) and the anchor itself
            cands = [model.ids[k] for k in rng.integers(0, len(model), size=120)]
            cands += ["zz1", "zz0", anchor]
            ref = full_sort(model, anchor, len(cands), table, cands)
            scores = [s for _, s in ref.items]
            for t in range(1, len(scores) + 2):
                got = rank_candidates(model, anchor, cands, t)
                assert got.items == ref.items[:t]
                boundary_ties += t < len(scores) and scores[t - 1] == scores[t]
        assert boundary_ties > 100

    def test_one_item_model_gives_empty_list(self):
        model = grid_model(1)
        for t in (1, 10):
            ranked = recommend(model, session_of("item0"), t=t)
            assert ranked.items == ()
            assert ranked.anchor == "item0"
            assert not ranked.fallback_used

    def test_cold_catalog_with_ties_equals_popularity_sort(self, sort_sizes):
        model = tie_model()
        n = len(model)
        rng = np.random.default_rng(5)
        table = PopularityTable(
            {item: float(rng.integers(1, 4)) for item in model.ids}
        )
        pops = sorted(table.values(), reverse=True)
        for t in (1, 10, n - 1, n, n + 5):
            got = recommend(model, session_of("zzz"), t=t, popularity=table)
            assert got.items == popularity_sort(model.ids, t, table)
            assert got.anchor is None and got.fallback_used
            # only the items tied with or above the t-th popularity are sorted
            assert sort_sizes[-1] == sum(p >= pops[min(t, n) - 1] for p in pops)

    def test_cold_catalog_hands_the_model_ids_over_unchanged(self, monkeypatch):
        # the catalog's ids are distinct already, so nothing walks them to
        # dedupe; a candidate list is deduped once, before the fallback
        model = tie_model()
        pools = []
        by_popularity = recommender._by_popularity

        def spy(items, *args, **kwargs):
            pools.append(items)
            return by_popularity(items, *args, **kwargs)

        def no_dedupe(candidates):
            raise AssertionError("the catalog was deduped")

        monkeypatch.setattr(recommender, "_by_popularity", spy)
        monkeypatch.setattr(recommender, "_dedupe", no_dedupe)
        ranked = recommend(model, session_of("zzz"), None, 10)
        assert pools == [model.ids] and pools[0] is model.ids
        assert ranked.items == popularity_sort(model.ids, 10, model.popularity)
        monkeypatch.setattr(recommender, "_dedupe", lambda c: list(dict.fromkeys(c)))
        ranked = recommend(model, session_of("zzz"), ["t001", "t000", "t001"], 10)
        assert pools[1] == ["t001", "t000"]
        assert ranked.items == popularity_sort(pools[1], 10, model.popularity)

    def test_orders_only_top_t(self, sort_sizes):
        rng = np.random.default_rng(2)
        n = 2000
        model = EmbeddingModel(
            ModelParams(alpha=2.0, dim=3),
            [f"d{k:04d}" for k in range(n)],
            rng.normal(size=(n, 3)),
            rng.uniform(1, 10, size=n),
        )
        anchor = model.ids[5]
        assert len(set(_law(model, 5, np.arange(n) != 5))) == n - 1  # all but the anchor
        table = self.kappa_table(model)
        assert len(set(table.values())) == n
        random_ranker = RandomRanker(seed=3)
        random_full = random_ranker.rank(session_of(anchor), model.ids, n).items
        # every ranker sorts only what the selection keeps
        for t in (1, 10, 200):
            # the catalog, then a list of all 2,000 ids; distinct scores
            # leave no boundary ties
            for candidates in (None, model.ids[::-1]):
                ranked = recommend(model, session_of(anchor), candidates, t)
                assert sort_sizes[-1] == t
                assert ranked.items == full_sort(model, anchor, t, table).items
            cold = recommend(model, session_of("zzz"), None, t, popularity=table)
            assert sort_sizes[-1] == t
            assert cold.items == popularity_sort(model.ids, t, table)
            ranked = random_ranker.rank(session_of(anchor), model.ids, t)
            assert sort_sizes[-1] == t
            assert ranked.items == random_full[:t]


class TestRankerInterface:
    def test_next_item_recommender_rank(self):
        model = grid_model(4)
        ranker = NextItemRecommender(model)
        assert ranker.name == "proposed"
        session = session_of("item0")
        ranked = ranker.rank(session, ["item1", "item3"], 2)
        assert ids_of(ranked) == ("item1", "item3")

    def test_deterministic_across_calls(self):
        model = grid_model(5)
        ranker = NextItemRecommender(model)
        session = session_of("item0", "item2")
        cands = ["item4", "item1", "item3"]
        assert ranker.rank(session, cands, 3) == ranker.rank(session, cands, 3)
