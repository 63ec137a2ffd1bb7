"""Per-layer metrics from the recorded spans of a traced run.

Times are inclusive spans around one public call unless named ``self.*``:
a layer's self time is its spans' durations minus their child spans, so the
``self.*`` figures add up to the run's traced time.
"""

from __future__ import annotations

import checks
from tracer import END, INFO, NAME, PARENT, START
from workloads import RANKERS, percentile

BASELINES = tuple(r for r in RANKERS if r != "proposed")
SELF_LAYERS = (
    "cli", "synth", "sessions", "affinity", "embedder", "model",
    "recommender", "baselines", "evaluator", "bench",
)


def _roots(spans) -> list[str]:
    """Name of the outermost span above each span."""
    root = []
    for name, parent, *_ in spans:
        root.append(name if parent < 0 else root[parent])
    return root


def _layer_of(name: str) -> str:
    if name.startswith("op.rerank") or name.startswith("op.topk"):
        return "recommender"
    if name.startswith("op."):
        return "cli"
    if name in ("setup", "setup.repeat", "requests"):
        return "bench"
    return name.split(".", 1)[0]


def per_layer(run, tracer) -> dict[str, tuple[float, str]]:
    spans = tracer.spans
    roots = _roots(spans)
    total: dict[str, float] = {}  # outside the repeated set-ups
    under: dict[tuple[str, str], list] = {}
    child_time = [0.0] * len(spans)
    for k, s in enumerate(spans):
        d = s[END] - s[START]
        if roots[k] != "setup.repeat":
            total[s[NAME]] = total.get(s[NAME], 0.0) + d
        under.setdefault((roots[k], s[NAME]), []).append(s)
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += d
    self_time = dict.fromkeys(SELF_LAYERS, 0.0)
    for k, s in enumerate(spans):
        layer = _layer_of(s[NAME])
        self_time[layer] = self_time.get(layer, 0.0) + (s[END] - s[START]) - child_time[k]

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def in_commands(*names):
        """Inclusive time of ``names`` inside the CLI commands."""
        return sum(
            s[END] - s[START]
            for (root, name), group in under.items()
            if root.startswith("op.") and name in names
            for s in group
        )

    def per_call(root, name, scale):
        return percentile(
            [(s[END] - s[START]) * scale for s in under.get((root, name), [])] or [0.0], 50
        )

    fits = under.get(("op.train", "embedder.fit_embedding"), [])
    iterations = fits[0][INFO][0] if fits else 0
    fit_s = in_commands("embedder.fit_embedding")
    targets_s = in_commands("embedder.build_targets")
    objectives = checks.read_trace_objectives(run.files["trace"])
    graphs = under.get(("op.train", "affinity.build_affinity_graph"), [])
    m = {
        "cli.ingest_s": run.times["ingest"],
        "cli.train_s": run.times["train"],
        "cli.evaluate_s": run.times["evaluate"],
        "synth.generate_s": t("synth.generate"),
        "sessions.parse_s": in_commands("sessions.parse_session_log"),
        "sessions.filter_s": in_commands(
            "sessions.filter_bookable_sessions", "sessions.hide_test_targets"
        ),
        "sessions.write_s": in_commands("sessions.write_corpus", "sessions.write_truth"),
        "sessions.rows": float(sum(
            s[INFO] for (root, name), group in under.items()
            if root.startswith("op.") and name == "sessions.parse_session_log"
            for s in group
        )),
        "affinity.build_s": in_commands("affinity.build_affinity_graph"),
        "affinity.write_s": in_commands("affinity.write_affinity_graph"),
        "affinity.pairs": float(graphs[0][INFO]) if graphs else 0.0,
        "embedder.targets_s": targets_s,
        "embedder.fit_s": fit_s,
        "embedder.iterations": float(iterations),
        "embedder.ms_per_iteration": (fit_s - targets_s) * 1e3 / max(iterations, 1),
        "embedder.iterations_to_1pct": float(iterations_to_1pct(objectives)),
        "model.write_s": t("model.write_model"),
        "model.read_s": t("model.read_model"),
        "recommender.anchor_us": per_call("op.rerank", "recommender.anchor_item", 1e6),
        "recommender.rank_us": per_call("op.rerank", "recommender.rank_candidates", 1e6),
        "recommender.topk_ms": per_call("op.topk", "recommender.rank_candidates", 1e3),
        "recommender.rerank_p50_us": percentile(run.rerank_us, 50),
        "recommender.rerank_p99_us": percentile(run.rerank_us, 99),
        "recommender.topk_p50_ms": percentile(run.topk_ms, 50),
    }
    for r in RANKERS:
        m[f"evaluator.{r}_s"] = sum(
            s[END] - s[START] for s in under.get((f"op.evaluate.{r}", "evaluator.evaluate"), [])
        )
    mrr = run.mrr_table()
    for r in BASELINES:
        m[f"evaluator.mrr_{r}"] = mrr[r]
    for layer in SELF_LAYERS:
        m[f"self.{layer}_s"] = self_time.get(layer, 0.0)
    m["trace.spans"] = float(len(spans))
    m["trace.overhead_estimate_s"] = len(spans) * tracer.per_span_cost_s()
    m["trace.traced_s"] = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    return {name: (value, unit_of(name)) for name, value in m.items()}


def iterations_to_1pct(objectives: list[float]) -> int:
    """First trace row whose objective is within 1% of the final one."""
    final = objectives[-1]
    for k, value in enumerate(objectives):
        if value <= final * 1.01:
            return k
    return len(objectives) - 1


UNITS = {"rows": "count", "pairs": "count", "iterations": "count",
         "iterations_to_1pct": "count", "spans": "count"}


def unit_of(name: str) -> str:
    tail = name.split(".", 1)[1]
    if tail in UNITS:
        return UNITS[tail]
    if tail.startswith("mrr_"):
        return "1"
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s")):
        if tail.endswith(suffix):
            return unit
    if tail == "ms_per_iteration":
        return "ms"
    raise ValueError(name)


def summary(run, tracer, metrics) -> None:
    """Human-readable lines ahead of the JSON: MRR table, stop reason,
    self time per layer."""
    fits = [s for s in tracer.spans if s[NAME] == "embedder.fit_embedding"]
    if fits:
        iterations, stop = fits[0][INFO]
        print(f"fit: {iterations} iterations, stop_reason={stop}")
    print("MRR: " + "  ".join(f"{k}={v:.4f}" for k, v in run.mrr_table().items()))
    traced = metrics["trace.traced_s"][0]
    parts = [
        f"{layer}={metrics[f'self.{layer}_s'][0]:.3f}s"
        for layer in SELF_LAYERS
        if metrics[f"self.{layer}_s"][0] >= 0.0005
    ]
    print(f"self time (traced {traced:.3f}s): " + "  ".join(parts))
