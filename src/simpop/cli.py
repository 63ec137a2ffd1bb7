"""Command line entry point: reproducible ingest/train/recommend/evaluate runs.

Every command that writes files also writes a JSON manifest next to its
primary output (``<output>.manifest.json``) holding the resolved flags,
seeds, SHA-256 digests of the inputs, and wall time, so any artifact can be
traced back to its exact inputs. ``ingest`` adds the sessions it dropped,
``train`` the items and pairs its affinity graph left out, ``evaluate`` its
fallback sessions and the candidates outside the ranker's item set, and
``ingest``, ``train`` and ``evaluate`` the wall time of each of their stages.

``ingest`` also writes the corpus's columnar companion (``<out>.columns``),
and ``train`` and ``synth sessions`` the model's, which the commands that
read the corpus or the model load instead of parsing it (see
``sessions.write_columns`` and ``model.write_model``); their manifests list
it among the outputs, and among the inputs exactly when they loaded it.

Exit codes: 0 success, 2 input or validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import sys
import time
from pathlib import Path

from . import __version__
from .affinity import (
    MAX_PAIRS_PER_ITEM,
    MIN_SESSIONS,
    build_affinity_graph,
    compute_popularity,
    read_popularity,
    write_affinity_graph,
)
from .baselines import (
    ClickoutPopularityRanker,
    CooccurrenceKnnRanker,
    InteractionPopularityRanker,
    MetadataKnnRanker,
    RandomRanker,
    Ranker,
    load_metadata,
    write_metadata,
)
from .embedder import FitConfig, _check_pairs, fit_embedding, write_trace
from .errors import DivergenceError, SimpopError
from .evaluator import SearchGrid, evaluate, grid_search, write_grid_table, write_report
from .model import (
    EmbeddingModel,
    ModelParams,
    generate_synthetic_network,
    read_model,
    write_model,
)
from .recommender import NextItemRecommender
from .sessions import (
    HOLDOUT_FRACTION,
    Role,
    SessionCorpus,
    _sha256,
    filter_bookable_sessions,
    hide_test_targets,
    parse_session_log,
    read_truth,
    split_by_time,
    write_columns,
    write_corpus,
    write_truth,
)
from .synth import SynthConfig, generate

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _write_manifest(
    command: str,
    args: argparse.Namespace,
    primary_out: Path,
    inputs: dict[Path, str | None],
    outputs: list[Path],
    seeds: list[int],
    started: float,
    counts: dict[str, int | str] | None = None,
    timings: dict[str, float] | None = None,
) -> None:
    """Write ``<primary_out>.manifest.json``. ``inputs`` maps each file the
    command read to its SHA-256 when reading it computed one, else None."""
    flags = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in vars(args).items()
        if k != "func" and not k.startswith("_")
    }
    manifest = {
        "command": command,
        "version": __version__,
        "flags": flags,
        "seeds": seeds,
        "inputs": {str(p): d or _sha256(p) for p, d in inputs.items() if Path(p).exists()},
        "outputs": [str(p) for p in outputs],
        "wall_time_s": round(time.perf_counter() - started, 3),
    }
    if counts is not None:
        manifest["counts"] = counts
    if timings is not None:
        manifest["timings"] = timings
    path = Path(str(primary_out) + ".manifest.json")
    with open(path, "w", encoding="utf-8") as out:
        json.dump(manifest, out, indent=2, sort_keys=True)
        out.write("\n")


def _read_from(loaded: SessionCorpus | EmbeddingModel) -> dict[Path, str | None]:
    """The files a corpus or model was read from, each with its known SHA-256
    or None."""
    known = dict(loaded._digests)
    return {p: known.get(p) for p in loaded.sources}


def _lap(timings: dict[str, float], stage: str, mark: float) -> float:
    """Record the seconds since ``mark`` as ``stage``; returns the new mark."""
    now = time.perf_counter()
    timings[stage] = round(now - mark, 3)
    return now


def _floats(spec: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in spec.split(",") if tok)


def _ints(spec: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in spec.split(",") if tok)


def _listed(values: tuple) -> str:
    """A grid axis as the comma-separated text its flag takes."""
    return ",".join(str(v) for v in values)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    role = Role(args.role)
    timings: dict[str, float] = {}
    mark = time.perf_counter()
    corpus = parse_session_log(args.input, role=role)
    mark = _lap(timings, "parse_s", mark)
    parsed = corpus.n_sessions
    outputs = [args.out]
    if role is Role.TRAIN:
        corpus = filter_bookable_sessions(corpus)
        mark = _lap(timings, "filter_s", mark)
    else:
        corpus, truth = hide_test_targets(corpus)
        mark = _lap(timings, "hide_s", mark)
        truth_out = args.truth_out or str(args.out) + ".truth.csv"
        write_truth(truth, truth_out)
        outputs.append(Path(truth_out))
        print(f"truth: {len(truth)} hidden targets -> {truth_out}")
    write_corpus(corpus, args.out)
    outputs.append(write_columns(corpus, args.out))
    _lap(timings, "write_s", mark)
    print(
        f"ingested {corpus.n_sessions} sessions, {corpus.n_actions} actions, "
        f"{len(corpus.item_vocabulary)} items -> {args.out}"
    )
    _write_manifest(
        "ingest", args, args.out, {args.input: None}, outputs, [], started,
        counts={"dropped_sessions": parsed - corpus.n_sessions},
        timings=timings,
    )
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    # the fit's settings are checked before any work starts
    config = FitConfig(
        params=ModelParams(alpha=args.alpha, dim=args.dim, lam=args.lam),
        seed=args.seed,
        max_iterations=args.max_iterations,
        gradient_tolerance=args.gradient_tolerance,
    )
    pairs_out = Path(f"{args.out}.pairs.tsv")
    popularity_out = Path(f"{args.out}.popularity.tsv")
    trace_out = Path(f"{args.out}.trace.csv")
    timings: dict[str, float] = {}
    mark = time.perf_counter()
    corpus = parse_session_log(args.corpus, role=Role.TRAIN)
    inputs = _read_from(corpus)
    mark = _lap(timings, "parse_s", mark)
    graph = build_affinity_graph(corpus, args.min_sessions, args.max_pairs_per_item)
    del corpus  # the fit needs only the graph; its peak holds no corpus
    mark = _lap(timings, "affinity_s", mark)
    _check_pairs(graph)  # before any file is written
    write_affinity_graph(graph, pairs_out, popularity_out)
    mark = _lap(timings, "pairs_write_s", mark)

    try:
        model, trace = fit_embedding(graph, config)
    except DivergenceError as exc:
        write_trace(exc.trace, trace_out)  # the partial trace, for a post-mortem
        raise
    mark = _lap(timings, "fit_s", mark)
    write_trace(trace, trace_out)
    companion = write_model(model, args.out)
    _lap(timings, "model_write_s", mark)
    print(
        f"trained {len(model)} items (dim={args.dim}, alpha={args.alpha}, "
        f"lambda={args.lam}): {trace.iterations} iterations, "
        f"objective {trace.objectives[-1]:.6g}, {trace.stop_reason}"
    )
    _write_manifest(
        "train",
        args,
        args.out,
        inputs,
        [args.out, pairs_out, popularity_out, trace_out, companion],
        [args.seed],
        started,
        counts={
            "iterations": trace.iterations,
            "stop_reason": trace.stop_reason,
            "excluded_items": graph.excluded_items,
            "pruned_pairs": graph.pruned_pairs,
        },
        timings=timings,
    )
    return EXIT_OK


def cmd_recommend(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    model = read_model(args.model)
    corpus = parse_session_log(args.session, role=Role.TEST)
    if args.session_id:
        try:
            session = corpus.session(args.session_id)
        except KeyError:
            missing = f"session {args.session_id!r} not in {args.session}"
            raise SimpopError(missing) from None
    elif corpus.n_sessions == 1:
        session = next(iter(corpus.sessions.values()))
    elif corpus.n_sessions == 0:
        raise SimpopError(f"{args.session} holds no sessions")
    else:
        raise SimpopError(
            f"{args.session} holds {corpus.n_sessions} sessions; pass --session-id"
        )
    popularity = read_popularity(args.popularity) if args.popularity else None
    ranker = NextItemRecommender(model, popularity=popularity)
    candidates = None
    if args.candidates is not None:
        candidates = [c for c in args.candidates.split("|") if c]
        if not candidates:
            raise SimpopError("--candidates names no item")
    ranked = ranker.rank(session, candidates, args.top)
    stream = io.StringIO()
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["rank", "item", "score", "anchor", "fallback"])
    for pos, (item, score) in enumerate(ranked.items, start=1):
        anchor = ranked.anchor or ""
        writer.writerow([pos, item, f"{score:.6g}", anchor, ranked.fallback_used])
    text = stream.getvalue()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        inputs = {**_read_from(model), **_read_from(corpus)}
        if args.popularity:
            inputs[Path(args.popularity)] = None
        _write_manifest(
            "recommend", args, args.out, inputs, [Path(args.out)], [], started
        )
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _build_ranker(args: argparse.Namespace) -> tuple[Ranker, dict[Path, str | None]]:
    """The ranker ``--ranker`` names, and the files read to build it, as
    ``_write_manifest`` takes them."""
    name = args.ranker
    if name == "random":
        return RandomRanker(seed=args.seed), {}
    if name == "proposed":
        if not args.model:
            raise SimpopError("--ranker proposed requires --model")
        model = read_model(args.model)
        read = _read_from(model)
        popularity = None
        if args.train_corpus:
            train = parse_session_log(args.train_corpus, role=Role.TRAIN)
            read.update(_read_from(train))
            popularity = compute_popularity(train)
        return NextItemRecommender(model, popularity=popularity), read
    if not args.train_corpus:
        raise SimpopError(f"--ranker {name} requires --train-corpus")
    if name == "imknn" and not args.metadata:
        raise SimpopError("--ranker imknn requires --metadata")
    train = parse_session_log(args.train_corpus, role=Role.TRAIN)
    read = _read_from(train)
    if name == "ipop":
        return InteractionPopularityRanker(train), read
    if name == "icpop":
        return ClickoutPopularityRanker(train), read
    if name == "icknn":
        return CooccurrenceKnnRanker(build_affinity_graph(train)), read
    read[Path(args.metadata)] = None
    metadata = load_metadata(args.metadata)
    return MetadataKnnRanker(metadata, popularity=compute_popularity(train)), read


def cmd_evaluate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    timings: dict[str, float] = {}
    mark = time.perf_counter()
    test = parse_session_log(args.test_corpus, role=Role.TEST)
    truth = read_truth(args.truth)
    mark = _lap(timings, "parse_s", mark)
    ranker, read = _build_ranker(args)
    mark = _lap(timings, "ranker_s", mark)
    report = evaluate(ranker, test, truth)
    mark = _lap(timings, "evaluate_s", mark)
    write_report(report, args.out)
    _lap(timings, "report_write_s", mark)
    cutoffs = sorted(report.map_at)
    print(
        f"{report.ranker_name}: MRR {report.mrr:.4f}  "
        + "  ".join(f"MAP@{n} {report.map_at[n]:.4f}" for n in cutoffs)
        + f"  ({report.n_sessions} sessions, {report.n_skipped} skipped, "
        f"{report.n_fallback} by popularity fallback)"
    )
    _write_manifest(
        "evaluate", args, args.out, {**_read_from(test), Path(args.truth): None, **read},
        [args.out], [args.seed], started,
        counts={"fallback": report.n_fallback, "unknown_candidates": report.n_unknown},
        timings=timings,
    )
    return EXIT_OK


def cmd_gridsearch(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    corpus = parse_session_log(args.corpus, role=Role.TRAIN)
    train, validation = split_by_time(corpus, args.val_fraction)
    grid = SearchGrid(
        dims=_ints(args.dims), lambdas=_floats(args.lambdas), alphas=_floats(args.alphas)
    )
    try:
        best, table = grid_search(
            train, validation, grid=grid, max_iterations=args.max_iterations
        )
    except DivergenceError as exc:
        write_grid_table(exc.trace, args.out)  # every cell failed; keep their errors
        raise
    write_grid_table(table, args.out)
    failed = sum(1 for c in table if c.failed)
    print(
        f"grid search: {len(table)} cells ({failed} failed) -> {args.out}\n"
        f"best: dim={best.params.dim} lambda={best.params.lam} "
        f"alpha={best.params.alpha} seed={best.seed}"
    )
    # a fit that stopped by no rule of its own ran exactly the cap; a failed
    # cell records 0 iterations, and a failed line search stops short of it
    unconverged = sum(
        1 for c in table if not c.converged and c.iterations == args.max_iterations
    )
    _write_manifest(
        "gridsearch", args, args.out, _read_from(corpus), [args.out],
        [best.seed], started,
        counts={"cells": len(table), "failed": failed, "unconverged": unconverged},
    )
    return EXIT_OK


def cmd_synth_edges(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    model = read_model(args.model)
    edges = generate_synthetic_network(model, args.seed)
    with open(args.out, "w", encoding="utf-8") as out:
        for i, j in edges:
            out.write(f"{i}\t{j}\n")
    print(f"sampled {len(edges)} edges over {len(model)} items -> {args.out}")
    _write_manifest(
        "synth-edges", args, args.out, _read_from(model), [args.out], [args.seed],
        started,
    )
    return EXIT_OK


def cmd_synth_sessions(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    config = SynthConfig(
        n_items=args.items,
        n_clusters=args.clusters,
        dim=args.dim,
        alpha=args.alpha,
        n_train_sessions=args.train_sessions,
        n_test_sessions=args.test_sessions,
        seed=args.seed,
    )
    timings: dict[str, float] = {}
    mark = time.perf_counter()
    data = generate(config)
    mark = _lap(timings, "generate_s", mark)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_path = out_dir / "train.csv"
    test_path = out_dir / "test.csv"
    metadata_path = out_dir / "metadata.tsv"
    model_path = out_dir / "planted_model.txt"
    write_corpus(data.train, train_path)
    write_corpus(data.test, test_path)
    write_metadata(data.world.metadata, metadata_path)
    companion = write_model(data.world.model, model_path)
    _lap(timings, "write_s", mark)
    print(
        f"synthetic corpus: {data.train.n_sessions} train / "
        f"{data.test.n_sessions} test sessions over {config.n_items} items "
        f"-> {out_dir}"
    )
    _write_manifest(
        "synth-sessions",
        args,
        train_path,
        {},
        [train_path, test_path, metadata_path, model_path, companion],
        [args.seed],
        started,
        counts={
            "train_sessions": data.train.n_sessions,
            "train_actions": data.train.n_actions,
            "test_sessions": data.test.n_sessions,
            "test_actions": data.test.n_actions,
        },
        timings=timings,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simpop",
        description=(
            "Sequence-aware next-item recommendation: embed items in a metric "
            "space from session co-occurrence and rank by connection probability."
        ),
    )
    parser.add_argument("--version", action="version", version=f"simpop {__version__}")
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log progress to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "ingest",
        help="parse and validate a raw session log; a train log loses its "
        "sessions without a clickout",
    )
    p.add_argument("--input", type=Path, required=True, help="raw CSV (or .gz)")
    p.add_argument("--out", type=Path, required=True, help="canonical corpus path")
    p.add_argument("--role", choices=["train", "test"], default="train")
    p.add_argument(
        "--truth-out", help="hidden-target CSV for --role test (default <out>.truth.csv)"
    )
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="estimate affinities and fit the embedding")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="model file path")
    p.add_argument("--dim", type=int, default=10)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=FitConfig.seed)
    p.add_argument("--min-sessions", type=int, default=MIN_SESSIONS)
    p.add_argument("--max-pairs-per-item", type=int, default=MAX_PAIRS_PER_ITEM)
    p.add_argument("--max-iterations", type=int, default=FitConfig.max_iterations)
    p.add_argument(
        "--gradient-tolerance", type=float, default=FitConfig.gradient_tolerance
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("recommend", help="rank candidates for one session")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--session", type=Path, required=True, help="canonical corpus file")
    p.add_argument("--session-id")
    p.add_argument("--candidates", help="pipe-separated candidate list")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--popularity", help="popularity TSV for cold items")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("evaluate", help="score a ranker on a hidden-target corpus")
    p.add_argument(
        "--ranker",
        required=True,
        choices=["proposed", "random", "ipop", "icpop", "icknn", "imknn"],
    )
    p.add_argument("--test-corpus", type=Path, required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", type=Path, required=True, help="report CSV path")
    p.add_argument("--model", help="model file (proposed)")
    p.add_argument("--train-corpus", help="train corpus (baselines, popularity)")
    p.add_argument("--metadata", help="item properties TSV (imknn)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gridsearch", help="hyperparameter grid over a train corpus")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="result table CSV")
    p.add_argument("--dims", default=_listed(SearchGrid.dims))
    p.add_argument("--lambdas", default=_listed(SearchGrid.lambdas))
    p.add_argument("--alphas", default=_listed(SearchGrid.alphas))
    p.add_argument("--val-fraction", type=float, default=HOLDOUT_FRACTION)
    p.add_argument("--max-iterations", type=int, default=FitConfig.max_iterations)
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("synth", help="generate synthetic artifacts")
    synth_sub = p.add_subparsers(dest="synth_command", required=True)

    q = synth_sub.add_parser("edges", help="sample a network from a model file")
    q.add_argument("--model", type=Path, required=True)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", type=Path, required=True)
    q.set_defaults(func=cmd_synth_edges)

    q = synth_sub.add_parser(
        "sessions", help="generate a planted-world session corpus"
    )
    q.add_argument("--out-dir", required=True)
    q.add_argument("--items", type=int, default=SynthConfig.n_items)
    q.add_argument("--clusters", type=int, default=SynthConfig.n_clusters)
    q.add_argument("--dim", type=int, default=SynthConfig.dim)
    q.add_argument("--alpha", type=float, default=SynthConfig.alpha)
    q.add_argument("--train-sessions", type=int, default=SynthConfig.n_train_sessions)
    q.add_argument("--test-sessions", type=int, default=SynthConfig.n_test_sessions)
    q.add_argument("--seed", type=int, default=SynthConfig.seed)
    q.set_defaults(func=cmd_synth_sessions)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser``'s parser, built once per process; parsing leaves it
    as it was."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (SimpopError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(exc, DivergenceError) else EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
