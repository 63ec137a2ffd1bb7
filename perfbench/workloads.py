"""The workloads: one run is set-up followed by exactly one measured round.

Set-up runs three times, and ``setup_s`` is their median: before the
round, and twice more among the requests.

A round runs, in one process and with one caller, what a user of simpop
runs: ``ingest`` of the train and test logs, ``train``, and ``evaluate`` for
the six rankers (all through ``simpop.cli.main``). After ``train`` it replays
the test corpus's sessions and impression lists as serving requests through
``NextItemRecommender.rank``, split into chunks that run between the steps
left.

Both workloads ingest the same fixed logs:

* desk: criterion 5's fit (iterations capped) dominates the round; the
  requests go to the model the round trains (800 items).
* serve: the fit is capped at a few iterations, so parsing, validation,
  corpus writing and affinity construction dominate the commands; the same
  requests, with every item renamed to a seeded catalog item, go to a
  seeded random model of 100,000 items.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

#: Criterion 5's desk corpus: the planted world and session logs of
#: ``generate(SynthConfig(seed=2, n_train_sessions=4500, n_test_sessions=500))``
#: (800 items, 8 clusters). It is the same for every workload seed: at the
#: desk fit's iteration cap its proposed - random MRR gap is 0.344, while
#: other session draws came within 0.01 of the 0.3 the ordering check needs.
CORPUS = dict(seed=2, n_train_sessions=4_500, n_test_sessions=500)
FIT = dict(dim=20, alpha=2.0, lam=0.01, seed=0, tolerance=1e-5)
RANKERS = ("proposed", "icknn", "imknn", "icpop", "ipop", "random")
TOP_K = 10
CHECKED_REQUESTS = 40


@dataclass(frozen=True)
class Workload:
    fit_iterations: int
    #: items of the seeded random model the requests go to; None serves the
    #: model the round trains
    serve_items: int | None
    #: times each test session's impression list is reranked
    rerank_passes: int
    #: test sessions, drawn by the seed, that also ask for a top-10
    topk_sessions: int
    check_ordering: bool = False


WORKLOADS = {
    "desk": Workload(1_000, None, rerank_passes=40, topk_sessions=500, check_ordering=True),
    "serve": Workload(5, 100_000, rerank_passes=2, topk_sessions=16),
}


class Run:
    """One benchmark run: set-up and one measured round."""

    def __init__(self, spec: Workload, seed: int, work: Path, tracer=None):
        self.spec = spec
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.times = dict(ingest=0.0, train=0.0, evaluate=0.0)
        self.rerank_us: list[float] = []
        self.topk_ms: list[float] = []
        #: first answer to each distinct request; repeats must equal it
        self.results: list = []
        self.repeats_differing = 0

    # -- spans -------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        if self.tracer is None:
            yield
            return
        idx = self.tracer.begin(name)
        try:
            yield
        finally:
            self.tracer.end(idx)

    def cli(self, op: str, *argv) -> float:
        """Run one CLI operation; returns its wall time in seconds."""
        from simpop.cli import main

        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with self.span(f"op.{op}"):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main([str(a) for a in argv])
                except Exception as exc:  # noqa: BLE001 - counted and reported
                    code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            self.failures.append(f"{op} {argv[1:3]}: exit {code} {err.getvalue().strip()}")
        return elapsed

    # -- set-up ------------------------------------------------------------

    def setup(self, where: Path):
        """Write the logs and metadata under ``where``; on serve, also write
        and read back the random model and build its recommender."""
        from simpop.baselines import write_metadata
        from simpop.sessions import write_corpus
        from simpop.synth import SynthConfig, generate

        data = generate(SynthConfig(**CORPUS))
        write_corpus(data.train, where / "raw_train.csv")
        write_corpus(data.test, where / "raw_test.csv")
        write_metadata(data.world.metadata, where / "metadata.tsv")
        del data
        if self.spec.serve_items is not None:
            return self.random_model(self.spec.serve_items, where)
        return None

    def timed_setup(self, name: str, where: Path):
        where.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        with self.span(name):
            serving = self.setup(where)
        self.setup_times.append(time.perf_counter() - start)
        return serving

    def repeat_setup(self, k: int) -> None:
        """One more set-up, in a directory of its own that is then removed,
        so that ``setup_s`` is a median over set-ups spread over the run."""
        where = self.work / f"setup{k}"
        self.timed_setup("setup.repeat", where)
        shutil.rmtree(where)

    def random_model(self, n: int, where: Path) -> dict:
        """Seeded random model written, read back and put behind a ranker."""
        from simpop.model import EmbeddingModel, ModelParams, read_model, write_model
        from simpop.recommender import NextItemRecommender

        rng = np.random.default_rng([self.seed, n])
        ids = [f"m{k:06d}" for k in range(n)]
        coords = rng.normal(0.0, 4.0, size=(n, FIT["dim"]))
        kappa = np.floor(np.exp(rng.uniform(0.0, math.log(1000.0), size=n)))
        params = ModelParams(alpha=FIT["alpha"], dim=FIT["dim"], lam=FIT["lam"])
        path = where / "serve_model.txt"
        write_model(EmbeddingModel(params, ids, coords, kappa), path)
        model = read_model(path)
        return dict(
            ranker=NextItemRecommender(model), model=model, path=path,
            expected=(ids, coords),
        )

    # -- the round ---------------------------------------------------------

    def run(self) -> float:
        """Set up and run the round; returns the round's measured seconds."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.files = f = {k: self.work / v for k, v in dict(
            raw_train="raw_train.csv", raw_test="raw_test.csv",
            metadata="metadata.tsv", corpus="corpus.csv", test="test_corpus.csv",
            truth="truth.csv", model="model.txt", pairs="model.txt.pairs.tsv",
            popularity="model.txt.popularity.tsv", trace="model.txt.trace.csv",
        ).items()}
        self.reports = {r: self.work / f"report_{r}.csv" for r in RANKERS}
        self.setup_times = []
        self.serving = self.timed_setup("setup", self.work)

        pipeline = [
            ("ingest", "--input", f["raw_train"], "--out", f["corpus"]),
            ("ingest", "--input", f["raw_test"], "--out", f["test"],
             "--role", "test", "--truth-out", f["truth"]),
            ("train", "--corpus", f["corpus"], "--out", f["model"],
             "--dim", FIT["dim"], "--alpha", FIT["alpha"], "--lambda", FIT["lam"],
             "--seed", FIT["seed"], "--max-iterations", self.spec.fit_iterations,
             "--gradient-tolerance", FIT["tolerance"]),
        ]
        evaluations = [
            ("evaluate", "--ranker", name, "--model", f["model"],
             "--train-corpus", f["corpus"], "--metadata", f["metadata"],
             "--test-corpus", f["test"], "--truth", f["truth"],
             "--out", self.reports[name])
            for name in RANKERS
        ]
        for argv in pipeline:
            self.times[argv[0]] += self.cli(argv[0], *argv)
        with self.span("requests"):
            self.replay()
        # the requests run in chunks among the steps left, so that their
        # latencies are taken over as much of the run as the trained model
        # allows
        steps = ["setup"] + evaluations + ["setup"]
        for k, step in enumerate([None] + steps):
            if step == "setup":
                self.repeat_setup(k)
            elif step is not None:
                self.times["evaluate"] += self.cli(f"evaluate.{step[2]}", *step)
            # an equal share of the requests still to send
            done = self.sent
            take = (len(self.schedule) - done) // (len(steps) + 1 - k)
            self.serve(range(done, done + take))
        return sum(self.times.values()) + self.requests_s()

    # -- serving -------------------------------------------------------------

    def replay(self) -> None:
        """Requests from the test corpus: each session's impression list,
        reranked ``rerank_passes`` times in seeded orders, and a top-10 for
        ``topk_sessions`` sessions drawn by the seed. On desk they go to the
        trained model; on serve every item is renamed to a distinct catalog
        item drawn by the seed (an item the trained model lacks gets a name
        the catalog lacks, so the shares of unknown items carry over)."""
        from simpop.model import read_model
        from simpop.recommender import NextItemRecommender
        from simpop.sessions import Role, parse_session_log

        trained = read_model(self.files["model"])
        if self.serving is None:
            self.serving = dict(
                ranker=NextItemRecommender(trained), model=trained,
                path=self.files["model"], expected=None,
            )
        test = parse_session_log(self.files["test"], role=Role.TEST)
        sessions = []
        for sid in sorted(test.sessions):
            actions = test.sessions[sid]
            target = next(a for a in reversed(actions) if a.is_clickout and a.impressions)
            sessions.append((actions, list(target.impressions)))
        self.traffic = traffic_shares(sessions, set(trained.ids))
        rng = np.random.default_rng([self.seed, 11])
        if self.spec.serve_items is not None:
            catalog = self.serving["model"].ids
            vocab = sorted(test.item_vocabulary)
            picks = rng.choice(len(catalog), size=len(vocab), replace=False)
            rename = {
                item: catalog[p] if item in trained else f"new:{item}"
                for item, p in zip(vocab, picks)
            }
            sessions = [
                (tuple(renamed(a, rename) for a in actions), [rename[c] for c in cands])
                for actions, cands in sessions
            ]
        n = len(sessions)
        topk = sorted(rng.choice(n, size=self.spec.topk_sessions, replace=False).tolist())
        self.requests = [(s, cands, len(cands)) for s, cands in sessions]
        self.requests += [(sessions[k][0], None, TOP_K) for k in topk]
        reranks = np.concatenate(
            [rng.permutation(n) for _ in range(self.spec.rerank_passes)]
        ).tolist()
        # one top-10 after every len(reranks) / len(topk) reranks
        schedule = []
        for j, k in enumerate(reranks):
            schedule.append(k)
            if (j + 1) * len(topk) // len(reranks) > j * len(topk) // len(reranks):
                schedule.append(n + (j + 1) * len(topk) // len(reranks) - 1)
        self.schedule = schedule
        self.results = [None] * len(self.requests)
        self.sent = 0

    def serve(self, indices) -> None:
        """Send the scheduled requests at ``indices``, one after another."""
        rank = self.serving["ranker"].rank
        for k in indices:
            r = self.schedule[k]
            session, candidates, t = self.requests[r]
            name = "op.rerank" if candidates is not None else "op.topk"
            self.attempted += 1
            start = time.perf_counter()
            with self.span(name):
                try:
                    ranked = rank(session, candidates, t)
                except Exception as exc:  # noqa: BLE001 - counted and reported
                    ranked = None
                    self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - start
            if ranked is None:
                self.failed += 1
                continue
            if candidates is not None:
                self.rerank_us.append(elapsed * 1e6)
            else:
                self.topk_ms.append(elapsed * 1e3)
            answer = (ranked.anchor, ranked.items)
            if self.results[r] is None:
                self.results[r] = answer
            elif self.results[r] != answer:
                self.repeats_differing += 1
        self.sent = indices.stop

    # -- metrics and checks ------------------------------------------------

    def requests_s(self) -> float:
        """Summed latency of the serving requests."""
        return sum(self.rerank_us) / 1e6 + sum(self.topk_ms) / 1e3

    def end_to_end(self, peak_rss_mb: float) -> dict:
        pipeline = sum(self.times.values())
        return {
            "setup_s": (statistics.median(self.setup_times), "s"),
            "pipeline_s": (pipeline, "s"),
            "round_s": (pipeline + self.requests_s(), "s"),
            "mrr": (checks.read_report_mrr(self.reports["proposed"]), "1"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    def serving_summary(self) -> str:
        return (
            f"serving: {len(self.rerank_us)} reranks, p50 {percentile(self.rerank_us, 50):.1f} us, "
            f"p99 {percentile(self.rerank_us, 99):.1f} us; {len(self.topk_ms)} top-10s, "
            f"p50 {percentile(self.topk_ms, 50):.3f} ms; {self.requests_s():.2f} s in all"
        )

    def check(self) -> list[str]:
        """Runs every output check; returns the failures as messages."""
        problems = []
        for name, fn in self.checkers():
            try:
                fn()
            except checks.CheckError as exc:
                problems.append(f"{name}: {exc}")
            except Exception as exc:  # noqa: BLE001 - an output it cannot read
                problems.append(f"{name}: {type(exc).__name__}: {exc}")
        return problems

    def checkers(self):
        f, reports, serving = self.files, self.reports, self.serving
        yield "ingest", lambda: checks.check_ingest(
            f["raw_train"], f["raw_test"], f["corpus"], f["test"], f["truth"]
        )
        yield "affinity", lambda: checks.check_affinity(f["corpus"], f["pairs"])
        yield "fit", lambda: checks.check_fit(
            f["model"], f["pairs"], f["popularity"], f["trace"]
        )
        yield "model file", lambda: checks.check_model_roundtrip(
            serving["path"], serving["model"].ids, serving["model"].coords,
            serving["expected"],
        )
        for r in RANKERS:
            yield f"{r} report summary", lambda r=r: checks.check_report_summary(reports[r])
        yield "proposed ranks", lambda: checks.check_proposed_ranks(
            f["model"], f["corpus"], f["test"], f["truth"], reports["proposed"]
        )
        yield "random MRR", lambda: checks.check_random_mrr(reports["random"])
        if self.spec.check_ordering:
            yield "ordering", lambda: checks.check_ordering(self.mrr_table())
        yield "serving", lambda: checks.check_serving(
            serving["path"], self.request_items(), self.results,
            sample_requests(len(self.requests), self.seed),
        )
        yield "repeated requests", lambda: checks.require(
            self.repeats_differing == 0,
            f"{self.repeats_differing} repeated requests got another answer than the first time",
        )

    def request_items(self) -> list:
        return [([a.item_ref for a in s], cands, t) for s, cands, t in self.requests]

    def mrr_table(self) -> dict[str, float]:
        """Each ranker's MRR as ``evaluate`` wrote it in its report."""
        return {r: checks.read_report_mrr(self.reports[r]) for r in RANKERS}


def renamed(action, rename: dict):
    return dataclasses.replace(
        action,
        item_ref=rename[action.item_ref] if action.item_ref is not None else None,
        impressions=(
            tuple(rename[i] for i in action.impressions)
            if action.impressions is not None else None
        ),
    )


def traffic_shares(sessions, known: set) -> dict:
    """Shares of the replayed traffic, measured against the trained model."""
    candidates = [c for _, cands in sessions for c in cands]
    lengths = sorted(len(actions) for actions, _ in sessions)
    return dict(
        sessions=len(sessions),
        unknown_candidates=sum(c not in known for c in candidates) / len(candidates),
        cold_sessions=sum(
            not any(a.item_ref in known for a in actions) for actions, _ in sessions
        ) / len(sessions),
        length_min=lengths[0],
        length_median=lengths[len(lengths) // 2],
        length_max=lengths[-1],
    )


def sample_requests(n: int, seed: int) -> list[int]:
    rng = np.random.default_rng([seed, 7])
    return sorted(rng.choice(n, size=min(CHECKED_REQUESTS, n), replace=False).tolist())


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[k]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
