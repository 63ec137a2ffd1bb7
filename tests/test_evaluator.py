"""Metric definitions against hand-computed values, the evaluation protocol,
and the hyperparameter grid."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpop.affinity import build_affinity_graph, compute_popularity
from simpop.baselines import (
    ClickoutPopularityRanker,
    CooccurrenceKnnRanker,
    InteractionPopularityRanker,
    MetadataKnnRanker,
    RandomRanker,
)
from simpop.embedder import FitConfig, fit_embedding
from simpop.errors import ValidationError
from simpop.evaluator import (
    SearchGrid,
    evaluate,
    grid_search,
    write_grid_table,
    write_report,
)
from simpop.model import EmbeddingModel, ModelParams
from simpop.recommender import NextItemRecommender, RankedList
from simpop.sessions import (
    Role,
    SessionCorpus,
    hide_test_targets,
    prepare_holdout,
    split_by_time,
)
from simpop.synth import SynthConfig, generate

from conftest import clickout, make_action


def ranked_of(*items):
    n = len(items)
    return RankedList(
        items=tuple((item, float(n - k)) for k, item in enumerate(items)),
        anchor=None,
        fallback_used=False,
    )


class LexicographicRanker:
    """Deterministic stand-in ranker: candidates in sorted order."""

    name = "lex"

    def rank(self, session, candidates, t):
        ordered = sorted(dict.fromkeys(candidates))
        return ranked_of(*ordered[:t])


class AsShownRanker:
    """Stand-in ranker: candidates in the order they were shown."""

    name = "shown"

    def rank(self, session, candidates, t):
        return ranked_of(*list(dict.fromkeys(candidates))[:t])


def one_session_report(shown, truth):
    """``evaluate`` over one session whose impressions are ``shown``, ranked
    as shown, with ``truth`` as its hidden item."""
    corpus = SessionCorpus.from_actions(
        [make_action("u1", 1, item="x"), clickout("u1", 2, shown[0], shown)],
        Role.TEST,
    )
    blinded, _ = hide_test_targets(corpus)
    return evaluate(AsShownRanker(), blinded, {"u1": truth})


class TestReciprocalRank:
    def test_first_position_is_one(self):
        assert one_session_report(["hit", "b", "c"], "hit").mrr == 1.0

    def test_last_position_of_length_t(self):
        report = one_session_report([*(f"c{k}" for k in range(7)), "hit"], "hit")
        assert report.mrr == pytest.approx(1 / 8)

    def test_absent_truth_is_zero(self):
        assert one_session_report(["a", "b"], "missing").mrr == 0.0


class TestMapAtN:
    def test_inside_cutoff_scales_by_n(self):
        report = one_session_report(["a", "hit", "c"], "hit")
        assert report.map_at[3] == pytest.approx(1 / 3)

    def test_outside_cutoff_is_zero(self):
        assert one_session_report(["a", "hit"], "hit").map_at[1] == 0.0

    def test_top_one_hit(self):
        assert one_session_report(["hit"], "hit").map_at[1] == 1.0

    def test_bounded_by_one_over_n(self):
        report = one_session_report(["hit", "b"], "hit")
        assert sorted(report.map_at) == [1, 3, 5, 10]
        for n, value in report.map_at.items():
            assert value <= 1 / n


def three_session_fixture():
    """Hand-built corpus whose lexicographic reranking has known ranks.

    Session u1: impressions c1..c5, truth c1 -> rank 1
    Session u2: impressions c1..c5, truth c2 -> rank 2
    Session u3: impressions c1..c5, truth c4 -> rank 4
    """
    imps = ["c1", "c2", "c3", "c4", "c5"]
    actions = [
        make_action("u1", 1, item="c3"),
        clickout("u1", 2, "c1", imps),
        make_action("u2", 1, item="c3"),
        clickout("u2", 2, "c2", imps),
        make_action("u3", 1, item="c3"),
        clickout("u3", 2, "c4", imps),
    ]
    corpus = SessionCorpus.from_actions(actions, Role.TEST)
    return hide_test_targets(corpus)


class TestEvaluateProtocol:
    def test_hand_computed_aggregates(self):
        blinded, truth = three_session_fixture()
        report = evaluate(LexicographicRanker(), blinded, truth)
        # ranks are 1, 2, 4
        assert report.mrr == pytest.approx(float(Fraction(1, 1) + Fraction(1, 2) + Fraction(1, 4)) / 3)
        assert report.map_at[1] == pytest.approx(float(Fraction(1, 3)))
        assert report.map_at[3] == pytest.approx(float(Fraction(2, 3)) / 3)
        assert report.map_at[5] == pytest.approx(float(Fraction(3, 3)) / 5)
        assert report.map_at[10] == pytest.approx(float(Fraction(3, 3)) / 10)
        assert report.n_sessions == 3
        assert report.n_skipped == 0
        assert report.n_fallback == 0
        assert dict(report.per_session) == {"u1": 1, "u2": 2, "u3": 4}

    def test_counts_popularity_fallback_sessions(self):
        imps = ["c1", "c2", "c3"]
        model = EmbeddingModel(
            ModelParams(alpha=2.0, dim=1), imps, np.arange(3.0)[:, None], np.ones(3)
        )
        corpus = SessionCorpus.from_actions(
            [
                make_action("u1", 1, item="c1"),
                clickout("u1", 2, "c2", imps),
                # no item of this session is in the model
                make_action("u2", 1, item="zz"),
                clickout("u2", 2, "c3", imps),
            ],
            Role.TEST,
        )
        blinded, truth = hide_test_targets(corpus)
        report = evaluate(NextItemRecommender(model), blinded, truth)
        assert report.n_sessions == 2
        assert report.n_fallback == 1

    def test_perfect_ranker_reaches_upper_bounds(self):
        blinded, truth = three_session_fixture()

        class Oracle:
            name = "oracle"

            def rank(self, session, candidates, t):
                sid = session[0].session_id
                rest = [c for c in candidates if c != truth[sid]]
                return ranked_of(truth[sid], *rest[: t - 1])

        report = evaluate(Oracle(), blinded, truth)
        assert report.mrr == 1.0
        assert report.map_at[1] == 1.0

    def test_truth_missing_from_impressions_is_retained_miss(self):
        imps = ["c1", "c2"]
        corpus = SessionCorpus.from_actions(
            [clickout("u1", 1, "c1", imps)], Role.TEST
        )
        blinded, truth = hide_test_targets(corpus)
        truth["u1"] = "not_shown"
        report = evaluate(LexicographicRanker(), blinded, truth)
        assert report.n_sessions == 1
        assert report.mrr == 0.0
        assert report.per_session == (("u1", None),)

    def test_sessions_without_truth_are_skipped(self):
        blinded, truth = three_session_fixture()
        del truth["u2"]
        report = evaluate(LexicographicRanker(), blinded, truth)
        assert report.n_sessions == 2
        assert report.n_skipped == 1

    def test_deterministic_reports(self):
        blinded, truth = three_session_fixture()
        a = evaluate(LexicographicRanker(), blinded, truth)
        b = evaluate(LexicographicRanker(), blinded, truth)
        assert a == b

    def test_mrr_at_least_map_at_one(self):
        blinded, truth = three_session_fixture()
        report = evaluate(LexicographicRanker(), blinded, truth)
        assert report.mrr >= report.map_at[1]

    def test_random_ranker_near_analytic_expectation(self):
        # over 25 candidates the expected reciprocal rank is H_25/25
        n_cands, n_sessions = 25, 10_000
        imps = [f"c{k:02d}" for k in range(n_cands)]
        actions = []
        for s in range(n_sessions):
            sid = f"s{s:05d}"
            actions.append(make_action(sid, 1, item="c00"))
            actions.append(clickout(sid, 2, imps[s % n_cands], imps))
        corpus = SessionCorpus.from_actions(actions, Role.TEST)
        blinded, truth = hide_test_targets(corpus)
        report = evaluate(RandomRanker(seed=123), blinded, truth)
        expected = sum(1.0 / r for r in range(1, n_cands + 1)) / n_cands
        assert report.mrr == pytest.approx(expected, abs=0.01)

    def test_candidates_are_the_hidden_last_clickout(self):
        corpus = SessionCorpus.from_actions(
            [
                clickout("u1", 1, "a", ["a", "b"]),
                make_action("u1", 2, item="b"),
                clickout("u1", 3, "d", ["c", "d", "e"]),
            ],
            Role.TEST,
        )
        blinded, truth = hide_test_targets(corpus)
        seen = []

        class Recorder(AsShownRanker):
            def rank(self, session, candidates, t):
                seen.append((session[-1].item_ref, list(candidates)))
                return super().rank(session, candidates, t)

        report = evaluate(Recorder(), blinded, truth)
        assert seen == [(None, ["c", "d", "e"])]
        assert report.per_session == (("u1", 2),)

    def test_session_without_clickout_is_skipped(self):
        corpus = SessionCorpus.from_actions(
            [
                make_action("u0", 1, item="a"),
                make_action("u1", 1, item="a"),
                clickout("u1", 2, None, ["a", "b"]),
            ],
            Role.TEST,
        )
        report = evaluate(AsShownRanker(), corpus, {"u0": "a", "u1": "b"})
        assert report.per_session == (("u1", 2),)
        assert report.n_sessions == 1
        assert report.n_skipped == 1
        assert report.mrr == 0.5


class TestReportExport:
    def test_csv_layout(self, tmp_path):
        blinded, truth = three_session_fixture()
        report = evaluate(LexicographicRanker(), blinded, truth)
        path = tmp_path / "report.csv"
        write_report(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "ranker,sessions,skipped,MRR,MAP@1,MAP@3,MAP@5,MAP@10"
        assert lines[1].startswith("lex,3,0,0.583333")
        assert "session_id,rank" in lines
        assert lines[-1] == "u3,4"

    def test_export_is_deterministic(self, tmp_path):
        blinded, truth = three_session_fixture()
        report = evaluate(LexicographicRanker(), blinded, truth)
        write_report(report, tmp_path / "a.csv")
        write_report(report, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.fixture(scope="module")
def small_world():
    config = SynthConfig(
        n_items=120,
        n_clusters=4,
        n_train_sessions=400,
        n_test_sessions=0,
        seed=5,
        mean_interactions=5.0,
        kappa_max=6.0,
    )
    data = generate(config)
    return split_by_time(data.train, 0.25)


class TestGridSearch:
    def test_single_cell_grid(self, small_world):
        train, validation = small_world
        grid = SearchGrid(dims=(4,), lambdas=(0.01,), alphas=(2.0,))
        best, table = grid_search(
            train, validation, grid=grid, max_iterations=60
        )
        assert len(table) == 1
        assert best.params.dim == 4
        assert not table[0].failed

    def test_full_table_row_count_and_tie_rule(self, small_world):
        train, validation = small_world
        grid = SearchGrid(dims=(2, 4), lambdas=(0.1, 0.01), alphas=(2.0,))
        best, table = grid_search(
            train, validation, grid=grid, max_iterations=40
        )
        assert len(table) == 4
        mrrs = [c.mrr for c in table]
        top = max(mrrs)
        # ties break toward smaller dim, then larger lambda
        contenders = [c for c in table if c.mrr == top]
        expected = min(contenders, key=lambda c: (c.dim, -c.lam, c.alpha))
        assert (best.params.dim, best.params.lam, best.params.alpha) == (
            expected.dim,
            expected.lam,
            expected.alpha,
        )

    def test_cells_match_direct_fits(self, small_world):
        train, validation = small_world
        grid = SearchGrid(dims=(2, 3), lambdas=(0.01,), alphas=(2.0,))
        _, table = grid_search(train, validation, grid=grid, max_iterations=30)
        assert len(table) == 2
        graph = build_affinity_graph(train, 2, 500)
        holdout, truth, _ = prepare_holdout(validation)
        for cell, dim in zip(table, (2, 3)):
            config = FitConfig(
                params=ModelParams(alpha=2.0, dim=dim, lam=0.01),
                seed=0,
                max_iterations=30,
            )
            model, trace = fit_embedding(graph, config)
            ranker = NextItemRecommender(model, popularity=graph.popularity)
            report = evaluate(ranker, holdout, truth)
            assert (cell.dim, cell.lam, cell.alpha, cell.seed) == (dim, 0.01, 2.0, 0)
            assert not cell.failed
            assert cell.mrr == report.mrr
            assert cell.iterations == trace.iterations
            assert cell.objective == trace.objectives[-1]
            assert cell.converged == trace.converged

    def test_takes_no_seeds(self, small_world):
        # each cell is fitted once, from FitConfig's seed
        train, validation = small_world
        with pytest.raises(TypeError, match="seeds"):
            grid_search(train, validation, seeds=(0, 1))

    @pytest.mark.parametrize("axis", ["dims", "lambdas", "alphas"])
    def test_empty_axis_is_named(self, axis):
        with pytest.raises(ValueError, match=f"grid axis {axis} is empty"):
            SearchGrid(**{axis: ()})

    def test_every_config_checked_before_the_graph(self, small_world, monkeypatch):
        def no_graph(*args):
            raise AssertionError("graph built before the configs were checked")

        monkeypatch.setattr("simpop.evaluator.build_affinity_graph", no_graph)
        train, validation = small_world
        grid = SearchGrid(dims=(2, 0), lambdas=(0.01,), alphas=(2.0,))
        with pytest.raises(ValueError, match="dim"):
            grid_search(train, validation, grid=grid)

    def test_overlapping_split_rejected(self, small_world):
        train, _ = small_world
        with pytest.raises(ValidationError):
            grid_search(train, train)

    def test_table_export(self, small_world, tmp_path):
        train, validation = small_world
        grid = SearchGrid(dims=(2,), lambdas=(0.01,), alphas=(2.0, 3.0))
        _, table = grid_search(train, validation, grid=grid, max_iterations=30)
        path = tmp_path / "grid.csv"
        write_grid_table(table, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("dim,lambda,alpha,seed,mrr")


# ---------------------------------------------------------------------------
# Coded evaluation: every built-in ranker scores all sessions at once
# ---------------------------------------------------------------------------

#: the items of a random world, and items only its test sessions name
WORLD_ITEMS = [f"i{k}" for k in range(7)]
STRANGERS = ["u0", "u1"]
TOKENS = ["a", "b", "c", "d"]


def reference_loop(ranker, test, truth):
    """The protocol as a per-session ``rank`` loop: each session's rank of
    its truth, and the sessions that fell back."""
    per_session, fallback = [], 0
    for sid, actions in test.sessions.items():
        clicks = [k for k, a in enumerate(actions) if a.is_clickout]
        if not clicks or sid not in truth:
            continue
        candidates = list(actions[clicks[-1]].impressions)
        ranked = ranker.rank(actions, candidates, len(candidates))
        fallback += ranked.fallback_used
        per_session.append((sid, ranked.rank_of(truth[sid])))
    return tuple(per_session), fallback


def unknown_count(test, truth, known):
    """Distinct candidates per evaluated session outside ``known``."""
    count = 0
    for sid, actions in test.sessions.items():
        clicks = [a for a in actions if a.is_clickout]
        if clicks and sid in truth:
            count += sum(c not in known for c in dict.fromkeys(clicks[-1].impressions))
    return count


def six_rankers(train, model, metadata, popularity, max_pairs):
    graph = build_affinity_graph(train, min_sessions=1, max_pairs_per_item=max_pairs)
    counts = compute_popularity(train)
    return {
        "proposed": NextItemRecommender(model, popularity=popularity),
        "icknn": CooccurrenceKnnRanker(graph),
        "imknn": MetadataKnnRanker(metadata, popularity=counts),
        "icpop": ClickoutPopularityRanker(train),
        "ipop": InteractionPopularityRanker(train),
        "random": RandomRanker(seed=3),
    }


def item_set(name, ranker):
    """The items a ranker knows, as ``EvalReport.n_unknown`` counts them."""
    return {
        "proposed": lambda: ranker.model,
        "icknn": lambda: set(ranker.graph.ids),
        "imknn": lambda: ranker.metadata,
        "icpop": lambda: ranker.counts,
        "ipop": lambda: ranker.counts,
        "random": lambda: None,
    }[name]()


@st.composite
def random_worlds(draw):
    """A train corpus, a model on integer coordinates with popularities 1
    or 2 (so scores and popularities tie), metadata with empty token sets,
    and a hidden-target test corpus whose sessions repeat impressions, hold
    their anchor among the candidates, name items no ranker knows, hold no
    item at all, lack a clickout, a truth, or a truth inside their list."""
    items = st.sampled_from(WORLD_ITEMS)
    anywhere = st.sampled_from(WORLD_ITEMS + STRANGERS)
    actions = []
    for s in range(draw(st.integers(2, 6))):
        sid, step = f"r{s}", 0
        for item in draw(st.lists(items, min_size=1, max_size=5)):
            step += 1
            actions.append(make_action(sid, step, item=item))
        shown = draw(st.lists(items, min_size=1, max_size=4))
        actions.append(clickout(sid, step + 1, draw(st.sampled_from(shown)), shown))
    train = SessionCorpus.from_actions(actions, Role.TRAIN)

    in_model = draw(st.lists(items, min_size=1, unique=True))
    model = EmbeddingModel(
        ModelParams(alpha=draw(st.sampled_from([1.0, 2.0])), dim=2),
        in_model,
        np.array(draw(st.lists(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
            min_size=len(in_model), max_size=len(in_model),
        )), dtype=float),
        np.array(draw(st.lists(st.sampled_from([1.0, 2.0]),
                               min_size=len(in_model), max_size=len(in_model)))),
    )
    metadata = draw(st.dictionaries(
        anywhere, st.frozensets(st.sampled_from(TOKENS), max_size=3), max_size=9
    ))

    actions, truth = [], {}
    for s in range(draw(st.integers(1, 8))):
        sid, step = f"t{s}", 0
        for item in draw(st.lists(st.one_of(st.none(), anywhere), max_size=4)):
            step += 1
            actions.append(make_action(sid, step, item=item))
        if draw(st.booleans()) or step == 0:
            shown = draw(st.lists(anywhere, min_size=1, max_size=8))
            step += 1
            actions.append(clickout(sid, step, None, shown))
            truth[sid] = draw(st.sampled_from(shown + ["zz"]))
            if draw(st.booleans()):
                actions.append(make_action(sid, step + 1, item=draw(anywhere)))
        else:
            truth[sid] = "zz"
        if draw(st.integers(0, 5)) == 0:
            del truth[sid]
    test = SessionCorpus.from_actions(actions, Role.TEST)
    popularity = None if draw(st.booleans()) else compute_popularity(train)
    return train, model, metadata, popularity, draw(st.sampled_from([0, 2])), test, truth


class TestCodedEvaluation:
    @settings(max_examples=150, deadline=None, database=None)
    @given(random_worlds())
    def test_every_ranker_matches_its_rank_loop(self, world):
        train, model, metadata, popularity, max_pairs, test, truth = world
        rankers = six_rankers(train, model, metadata, popularity, max_pairs)
        for name, ranker in rankers.items():
            report = evaluate(ranker, test, truth)
            per_session, fallback = reference_loop(ranker, test, truth)
            assert report.per_session == per_session, name
            assert report.n_fallback == fallback, name
            assert report.n_sessions + report.n_skipped == test.n_sessions
            known = item_set(name, ranker)
            want = 0 if known is None else unknown_count(test, truth, known)
            assert report.n_unknown == want, name

    @pytest.mark.parametrize("name", ["proposed", "icknn", "imknn", "icpop", "ipop", "random"])
    def test_scores_are_the_rank_scores_bit_for_bit(self, name):
        data = generate(SynthConfig(n_items=150, n_train_sessions=300,
                                    n_test_sessions=60, seed=4))
        test, truth = hide_test_targets(data.test)
        vocab = data.train.item_vocabulary
        rng = np.random.default_rng(4)
        model = EmbeddingModel(
            ModelParams(alpha=2.0, dim=5), vocab,
            rng.normal(0.0, 4.0, size=(len(vocab), 5)),
            np.floor(np.exp(rng.uniform(0.0, 5.0, size=len(vocab)))),
        )
        ranker = six_rankers(
            data.train, model, data.world.metadata, compute_popularity(data.train), 500
        )[name]
        scores = ranker.score_sessions(test)
        candidates, offsets = test.candidates
        bounds = offsets.tolist()
        compared = 0
        for s, sid in enumerate(test.session_ids):
            actions = test.session(sid)
            shown = [a for a in actions if a.is_clickout][-1].impressions
            ranked = dict(ranker.rank(actions, list(shown), len(shown)).items)
            for k in range(bounds[s], bounds[s + 1]):
                item = test.item_vocabulary[candidates[k]]
                want = ranked.get(item, -np.inf)  # the anchor is left out
                assert np.float64(want).tobytes() == scores.score[k].tobytes(), item
                compared += want > 0
        assert compared > 300

    @pytest.mark.parametrize("name", ["proposed", "icknn", "imknn", "icpop", "ipop", "random"])
    def test_builds_no_action_view(self, name, toy_train, toy_test):
        blinded, truth = hide_test_targets(toy_test)
        model = EmbeddingModel(
            ModelParams(alpha=2.0, dim=1), ["A", "B", "C"], np.arange(3.0)[:, None], np.ones(3)
        )
        ranker = six_rankers(toy_train, model, {"A": frozenset("x")}, None, 0)[name]
        report = evaluate(ranker, blinded, truth)
        assert report.n_sessions == 2
        assert "sessions" not in vars(blinded)

    def test_a_corpus_naming_no_item_evaluates_to_no_session(self, toy_train):
        # no item and no clickout: an empty vocabulary and empty candidates
        test = SessionCorpus.from_actions(
            [make_action("e1", 1), make_action("e1", 2, kind="filter selection"),
             make_action("e2", 1)],
            Role.TEST,
        )
        assert test.item_vocabulary == ()
        model = EmbeddingModel(
            ModelParams(alpha=2.0, dim=1), ["A", "B"], np.arange(2.0)[:, None], np.ones(2)
        )
        rankers = six_rankers(toy_train, model, {"A": frozenset("x")}, None, 0)
        for name, ranker in rankers.items():
            report = evaluate(ranker, test, {"e1": "A"})
            assert (report.n_sessions, report.n_skipped) == (0, 2), name
            assert (report.n_fallback, report.n_unknown, report.mrr) == (0, 0, 0.0), name
            assert report.per_session == (), name

    def test_counts_candidates_outside_the_model(self):
        model = EmbeddingModel(
            ModelParams(alpha=2.0, dim=1), ["c1", "c2"], np.arange(2.0)[:, None], np.ones(2)
        )
        corpus = SessionCorpus.from_actions(
            [
                make_action("u1", 1, item="c1"),
                clickout("u1", 2, "c2", ["c2", "x", "x", "y"]),
                clickout("u2", 1, "x", ["x", "c1"]),
            ],
            Role.TEST,
        )
        blinded, truth = hide_test_targets(corpus)
        report = evaluate(NextItemRecommender(model), blinded, truth)
        # u1 shows x twice, counted once; u2 falls back and still counts x
        assert report.n_unknown == 3
        assert report.n_fallback == 1
        assert report.per_session == (("u1", 1), ("u2", 2))

    def test_grid_table_keeps_its_bytes(self, small_world, tmp_path, monkeypatch):
        train, validation = small_world
        grid = SearchGrid(dims=(2, 3), lambdas=(0.01,), alphas=(2.0,))
        _, table = grid_search(train, validation, grid=grid, max_iterations=30)
        write_grid_table(table, tmp_path / "coded.csv")
        # the same search through the per-session reference loop
        monkeypatch.delattr(NextItemRecommender, "score_sessions")
        _, table = grid_search(train, validation, grid=grid, max_iterations=30)
        write_grid_table(table, tmp_path / "loop.csv")
        coded = (tmp_path / "coded.csv").read_bytes()
        assert coded == (tmp_path / "loop.csv").read_bytes()
        assert all(c.mrr > 0 for c in table)
