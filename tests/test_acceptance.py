"""End-to-end acceptance checks.

Each test prints one PASS line (visible with ``pytest -s``) after its
assertions hold, covering: gradient correctness, connection-law inversion,
planted-embedding recovery, metric oracles, the desk-scale method ordering,
the hyperparameter grid, the degenerate-initialization guard, and bytewise
determinism of the pipeline.

The desk-scale ordering and grid checks run against the public hotel-session
dataset when ``SIMPOP_TRIVAGO_DIR`` points at its ``train.csv``/``test.csv``;
otherwise they run on the built-in planted-world generator, which plants the
same structure the ranker models (metric similarity plus popularity) and is
sized to finish in minutes.
"""

import math
import os
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from simpop.affinity import AffinityGraph, PopularityTable, build_affinity_graph
from simpop.baselines import (
    ClickoutPopularityRanker,
    CooccurrenceKnnRanker,
    InteractionPopularityRanker,
    MetadataKnnRanker,
    RandomRanker,
)
from simpop.cli import main
from simpop.embedder import FitConfig, fit_embedding, gradient
from simpop.evaluator import SearchGrid, evaluate, grid_search
from simpop.model import ModelParams, derive_squared_distance
from simpop.recommender import NextItemRecommender
from simpop.sessions import (
    Role,
    SessionCorpus,
    filter_bookable_sessions,
    hide_test_targets,
    parse_session_log,
    split_by_time,
    subsample_sessions,
)
from simpop.synth import SynthConfig, generate

from conftest import clickout, make_action
from test_embedder import numerical_gradient, random_instance

TRIVAGO_DIR = os.environ.get("SIMPOP_TRIVAGO_DIR")

#: pinned protocol for the desk-scale checks: a fixed population, a fixed
#: stratified 5% subsample, and a fixed fit configuration
DESK_SEED = 2
DESK_POPULATION = SynthConfig(
    n_train_sessions=90_000, n_test_sessions=10_000, seed=DESK_SEED
)
DESK_SUBSAMPLE = 0.05
DESK_FIT = FitConfig(
    params=ModelParams(alpha=2.0, dim=20, lam=0.01),
    seed=0,
    max_iterations=2000,
    gradient_tolerance=1e-5,
)


def report(criterion: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion} [{name}]: PASS{suffix}")


def test_criterion_1_gradient_matches_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(20):
        lam = 0.0 if trial % 2 == 0 else 0.01
        coords, targets = random_instance(rng)
        analytic = gradient(coords, targets, lam)
        numeric = numerical_gradient(coords, targets, lam)
        for item in coords:
            scale = max(1.0, float(np.linalg.norm(numeric[item])))
            err = float(np.linalg.norm(analytic[item] - numeric[item])) / scale
            worst = max(worst, err)
            assert err < 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, "gradient vs central differences", f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_connection_law_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    for _ in range(1000):
        p = float(rng.uniform(1e-6, 1.0))
        k_i = float(rng.uniform(0.5, 50.0))
        k_j = float(rng.uniform(0.5, 50.0))
        alpha = float(rng.uniform(0.5, 5.0))
        d2 = derive_squared_distance(p, k_i, k_j, alpha)
        recovered = (1.0 + d2 / (k_i * k_j)) ** (-alpha)
        assert recovered == pytest.approx(p, rel=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, "inversion round trip x1000", f"{elapsed:.3f}s")


def test_criterion_3_planted_embedding_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    n, alpha = 30, 2.0
    planted = rng.uniform(-3.0, 3.0, size=(n, 2))
    kappa = np.exp(rng.uniform(0.0, math.log(10.0), size=n))
    ids = [f"p{k:02d}" for k in range(n)]

    pairs = {}
    planted_d2 = {}
    for a in range(n):
        for b in range(a + 1, n):
            d2 = float(((planted[a] - planted[b]) ** 2).sum())
            planted_d2[(ids[a], ids[b])] = d2
            pairs[(ids[a], ids[b])] = (1.0 + d2 / (kappa[a] * kappa[b])) ** (-alpha)
    graph = AffinityGraph.from_pairs(
        pairs, PopularityTable({item: float(k) for item, k in zip(ids, kappa)})
    )

    best_model, best_obj = None, math.inf
    for seed in range(3):  # non-convex objective: keep the best seeded start
        config = FitConfig(
            params=ModelParams(alpha=alpha, dim=2, lam=0.0),
            seed=seed,
            max_iterations=3000,
            gradient_tolerance=1e-10,
        )
        model, trace = fit_embedding(graph, config)
        if trace.objectives[-1] < best_obj:
            best_model, best_obj = model, trace.objectives[-1]

    rel_errors = []
    for (i, j), d2 in planted_d2.items():
        got = float(((best_model.coords_of(i) - best_model.coords_of(j)) ** 2).sum())
        rel_errors.append(abs(got - d2) / max(d2, 1e-12))
    median = float(np.median(rel_errors))
    elapsed = time.perf_counter() - start
    assert median < 0.01
    assert elapsed < 30.0
    report(3, "planted distances recovered", f"median rel err {median:.2e}, {elapsed:.1f}s")


def test_criterion_4_metric_oracles():
    # hand-built three-session fixture: ranks 1, 2, 4 under lexicographic order
    imps = ["c1", "c2", "c3", "c4", "c5"]
    actions = []
    for sid, truth_item in (("u1", "c1"), ("u2", "c2"), ("u3", "c4")):
        actions.append(make_action(sid, 1, item="c3"))
        actions.append(clickout(sid, 2, truth_item, imps))
    blinded, truth = hide_test_targets(
        SessionCorpus.from_actions(actions, Role.TEST)
    )

    class Lexicographic:
        name = "lex"

        def rank(self, session, candidates, t):
            from simpop.recommender import RankedList

            ordered = sorted(dict.fromkeys(candidates))[:t]
            return RankedList(
                items=tuple((c, float(len(ordered) - k)) for k, c in enumerate(ordered)),
                anchor=None,
                fallback_used=False,
            )

    rep = evaluate(Lexicographic(), blinded, truth)
    expected_mrr = Fraction(1, 1) + Fraction(1, 2) + Fraction(1, 4)
    assert rep.mrr == pytest.approx(float(expected_mrr / 3), abs=0)
    assert rep.map_at[1] == pytest.approx(float(Fraction(1, 3)), abs=0)
    assert rep.map_at[3] == pytest.approx(float(Fraction(2, 9)), abs=0)
    assert rep.map_at[5] == pytest.approx(float(Fraction(3, 15)), abs=0)
    assert rep.map_at[10] == pytest.approx(float(Fraction(3, 30)), abs=0)

    # random reranking of 25 candidates over 10^4 sessions: MRR near H_25/25
    n_cands, n_sessions = 25, 10_000
    imps25 = [f"h{k:02d}" for k in range(n_cands)]
    actions = []
    for s in range(n_sessions):
        sid = f"r{s:05d}"
        actions.append(make_action(sid, 1, item="h00"))
        actions.append(clickout(sid, 2, imps25[s % n_cands], imps25))
    blinded, truth = hide_test_targets(
        SessionCorpus.from_actions(actions, Role.TEST)
    )
    rep = evaluate(RandomRanker(seed=404), blinded, truth)
    analytic = sum(1.0 / r for r in range(1, n_cands + 1)) / n_cands
    assert abs(rep.mrr - analytic) <= 0.01
    report(
        4,
        "metric oracles",
        f"fixture exact; random MRR {rep.mrr:.4f} vs analytic {analytic:.4f}",
    )


# ---------------------------------------------------------------------------
# Desk-scale corpora for criteria 5 and 6
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk_data():
    """(train corpus, blinded test corpus, truth, metadata, source label).

    Uses the real dataset when SIMPOP_TRIVAGO_DIR is set; otherwise the
    planted-world generator at population scale. Either way the stated
    protocol applies: a stratified 5% session subsample.
    """
    if TRIVAGO_DIR:
        root = Path(TRIVAGO_DIR)
        train_full = parse_session_log(root / "train.csv", role=Role.TRAIN)
        test_full = parse_session_log(root / "test.csv", role=Role.TEST)
        metadata = {}
        meta_path = root / "item_metadata.csv"
        if meta_path.exists():
            from simpop.baselines import load_metadata

            metadata = load_metadata(meta_path)
        source = "public dataset"
    else:
        data = generate(DESK_POPULATION)
        train_full, test_full = data.train, data.test
        metadata = data.world.metadata
        source = f"planted world (seed {DESK_SEED})"

    train = subsample_sessions(train_full, DESK_SUBSAMPLE, seed=DESK_SEED)
    test = subsample_sessions(test_full, DESK_SUBSAMPLE, seed=DESK_SEED + 1)
    train = filter_bookable_sessions(train)
    blinded, truth = hide_test_targets(test)
    return train, blinded, truth, metadata, source


def test_criterion_5_method_ordering_at_desk_scale(desk_data):
    start = time.perf_counter()
    train, blinded, truth, metadata, source = desk_data

    graph = build_affinity_graph(train, min_sessions=2, max_pairs_per_item=500)
    model, trace = fit_embedding(graph, DESK_FIT)

    rankers = {
        "proposed": NextItemRecommender(model, popularity=graph.popularity),
        "icknn": CooccurrenceKnnRanker(graph),
        "imknn": MetadataKnnRanker(metadata, popularity=graph.popularity),
        "icpop": ClickoutPopularityRanker(train),
        "ipop": InteractionPopularityRanker(train),
        "random": RandomRanker(seed=0),
    }
    mrr = {name: evaluate(r, blinded, truth).mrr for name, r in rankers.items()}
    elapsed = time.perf_counter() - start

    table = "  ".join(f"{name}={mrr[name]:.4f}" for name in rankers)
    print(f"\n  desk-scale MRR ({source}, {blinded.n_sessions} test sessions): {table}")

    assert mrr["proposed"] > mrr["icknn"], table
    assert mrr["icknn"] >= mrr["imknn"], table
    assert mrr["imknn"] > mrr["icpop"], table
    assert mrr["icpop"] > mrr["ipop"], table
    assert mrr["ipop"] > mrr["random"], table
    assert mrr["proposed"] - mrr["random"] >= 0.3, table
    assert elapsed < 7200.0
    report(5, "method ordering reproduced", f"{table}; {elapsed:.0f}s")


def test_criterion_6_grid_search_completes(desk_data):
    start = time.perf_counter()
    train, _, _, _, source = desk_data

    # the stated protocol: a 0.5% subsample of the population, i.e. a tenth
    # of the 5% desk corpus, with the chronologically last tenth held out
    small = subsample_sessions(train, 0.1, seed=DESK_SEED)
    fit_train, validation = split_by_time(small, 0.1)
    best, table = grid_search(
        fit_train,
        validation,
        grid=SearchGrid(),
        max_iterations=150,
    )
    elapsed = time.perf_counter() - start

    assert len(table) == 18
    assert sum(1 for cell in table if cell.failed) == 0
    assert {(c.dim, c.lam, c.alpha) for c in table} == {
        (d, l, a) for d in (5, 10, 20) for l in (0.1, 0.01) for a in (1.0, 2.0, 3.0)
    }
    assert elapsed < 3600.0
    report(
        6,
        "18-cell grid completes",
        f"best dim={best.params.dim} lambda={best.params.lam} "
        f"alpha={best.params.alpha}, {elapsed:.0f}s",
    )


def test_criterion_7_degenerate_initialization_guard():
    rng = np.random.default_rng(707)
    items = [f"i{k}" for k in range(8)]
    pairs = {}
    for a in range(8):
        for b in range(a + 1, 8):
            if rng.random() < 0.7:
                pairs[(items[a], items[b])] = float(rng.uniform(0.1, 1.0))
    graph = AffinityGraph.from_pairs(
        pairs, PopularityTable({i: float(rng.uniform(1, 5)) for i in items})
    )
    config = FitConfig(params=ModelParams(alpha=2.0, dim=3, lam=0.01), seed=0)

    n = len(graph.items())
    _, zero_trace = fit_embedding(graph, config, initial_coords=np.zeros((n, 3)))
    assert zero_trace.iterations == 0
    assert zero_trace.final_grad_norm == 0.0

    for seed in range(5):
        cfg = FitConfig(
            params=ModelParams(alpha=2.0, dim=3, lam=0.01),
            seed=seed,
            max_iterations=50,
        )
        _, trace = fit_embedding(graph, cfg)
        assert trace.grad_norms[0] > 0.0
        assert trace.iterations >= 1
    report(7, "zero start halts at iteration 0; random starts never do")


def test_criterion_8_pipeline_determinism(tmp_path):
    out_dir = tmp_path / "world"
    assert (
        main(
            [
                "synth", "sessions", "--out-dir", str(out_dir),
                "--items", "100", "--clusters", "4",
                "--train-sessions", "300", "--test-sessions", "60", "--seed", "11",
            ]
        )
        == 0
    )
    train_raw = out_dir / "train.csv"
    test_raw = out_dir / "test.csv"

    artifacts = {}
    for run in ("one", "two"):
        work = tmp_path / run
        work.mkdir()
        corpus = work / "corpus.csv"
        test_corpus = work / "test.csv"
        truth = work / "truth.csv"
        model = work / "model.txt"
        rep = work / "report.csv"
        assert main(["ingest", "--input", str(train_raw), "--out", str(corpus)]) == 0
        assert (
            main(
                [
                    "ingest", "--input", str(test_raw), "--out", str(test_corpus),
                    "--role", "test", "--truth-out", str(truth),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "train", "--corpus", str(corpus), "--out", str(model),
                    "--dim", "4", "--seed", "9", "--max-iterations", "150",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "evaluate", "--ranker", "proposed", "--model", str(model),
                    "--test-corpus", str(test_corpus), "--truth", str(truth),
                    "--train-corpus", str(corpus), "--out", str(rep),
                ]
            )
            == 0
        )
        artifacts[run] = (model.read_bytes(), rep.read_bytes())

    assert artifacts["one"][0] == artifacts["two"][0], "model files differ"
    assert artifacts["one"][1] == artifacts["two"][1], "reports differ"
    report(8, "same seeds give byte-identical model and report")
