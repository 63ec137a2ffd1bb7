"""Command-line surface: subcommand happy paths, error exit codes, manifests."""

import csv
import hashlib
import inspect
import io
import json
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import simpop
from simpop import embedder
from simpop.affinity import build_affinity_graph
from simpop.cli import build_parser, main
from simpop.model import EmbeddingModel, ModelParams, read_model, write_model
from simpop.sessions import (
    Action,
    Role,
    parse_session_log,
    read_truth,
    split_by_time,
    write_corpus,
)
from simpop.synth import SynthConfig, generate

from conftest import assert_same_columns, let_fit_helper_run

HEADER = "user_id,session_id,timestamp,step,action_type,reference,impressions"

RAW_TRAIN = (
    f"{HEADER}\n"
    "u1,s1,1000,1,interaction item info,A,\n"
    "u1,s1,1001,2,interaction item image,B,\n"
    "u1,s1,1002,3,clickout item,A,A|B|C\n"
    "u2,s2,2000,1,interaction item info,B,\n"
    "u2,s2,2001,2,clickout item,C,B|C|D\n"
    "u3,s3,3000,1,interaction item info,A,\n"
    "u3,s3,3001,2,interaction item info,B,\n"
    "u3,s3,3002,3,clickout item,B,A|B|D\n"
    "u4,s4,4000,1,interaction item info,D,\n"
)

RAW_TEST = (
    f"{HEADER}\n"
    "u9,t1,9000,1,interaction item info,A,\n"
    "u9,t1,9001,2,clickout item,B,A|B|C\n"
)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "raw_train.csv").write_text(RAW_TRAIN)
    (tmp_path / "raw_test.csv").write_text(RAW_TEST)
    return tmp_path


def ingest_train(workdir):
    out = workdir / "train_corpus.csv"
    code = main(
        ["ingest", "--input", str(workdir / "raw_train.csv"), "--out", str(out)]
    )
    assert code == 0
    return out


def synth_train_corpus(tmp_path):
    """The ingested train log of a small synthetic world (80 items)."""
    world = tmp_path / "world"
    assert main(
        [
            "synth", "sessions", "--out-dir", str(world), "--items", "80",
            "--clusters", "3", "--train-sessions", "250", "--test-sessions", "10",
            "--seed", "2",
        ]
    ) == 0
    corpus = tmp_path / "corpus.csv"
    argv = ["ingest", "--input", str(world / "train.csv"), "--out", str(corpus)]
    assert main(argv) == 0
    return corpus


def desk_like_corpus(tmp_path):
    """The ingested train log of an 800-item synthetic world whose graph
    holds 29,328 pairs: at dim 20, large enough for BLAS to split its dot
    products over threads and for the fit to fork its helper."""
    world = tmp_path / "world"
    assert main(
        [
            "synth", "sessions", "--out-dir", str(world), "--items", "800",
            "--train-sessions", "1500", "--test-sessions", "10", "--seed", "2",
        ]
    ) == 0
    corpus = tmp_path / "corpus.csv"
    assert main(["ingest", "--input", str(world / "train.csv"), "--out", str(corpus)]) == 0
    return corpus


def run_under_blas_threads(threads, commands, preexec_fn=None):
    """Run CLI commands, in order, in one fresh interpreter with
    ``OPENBLAS_NUM_THREADS`` set, calling ``preexec_fn`` in the child before
    it starts; fails unless every command exits 0."""
    src = str(Path(simpop.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run(
        [
            sys.executable, "-c",
            "import json, sys; from simpop.cli import main; "
            "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))",
            json.dumps([[str(a) for a in argv] for argv in commands]),
        ],
        env=env,
        check=True,
        capture_output=True,
        timeout=300,
        preexec_fn=preexec_fn,
    )


class TestIngest:
    def test_train_filters_unbookable(self, workdir, capsys):
        out = ingest_train(workdir)
        corpus = parse_session_log(out, role=Role.TRAIN)
        assert set(corpus.sessions) == {"s1", "s2", "s3"}
        assert "3 sessions" in capsys.readouterr().out

    def test_test_mode_writes_truth(self, workdir):
        out = workdir / "test_corpus.csv"
        truth_out = workdir / "truth.csv"
        code = main(
            [
                "ingest",
                "--input",
                str(workdir / "raw_test.csv"),
                "--out",
                str(out),
                "--role",
                "test",
                "--truth-out",
                str(truth_out),
            ]
        )
        assert code == 0
        assert read_truth(truth_out) == {"t1": "B"}
        corpus = parse_session_log(out, role=Role.TEST)
        assert corpus.sessions["t1"][-1].item_ref is None

    def test_malformed_row_exits_2(self, workdir, capsys):
        bad = workdir / "bad.csv"
        rows = (
            "u1,s1,notatime,1,interaction item info,A,",
            # a field beyond the csv module's 131,072-character limit
            f"u1,s1,1000,1,clickout item,A,A|{'B' * 140_000}",
        )
        for row in rows:
            bad.write_text(f"{HEADER}\n{row}\n")
            code = main(["ingest", "--input", str(bad), "--out", str(workdir / "o.csv")])
            assert code == 2
            assert "line 2" in capsys.readouterr().err

    def test_missing_file_exits_2(self, workdir):
        code = main(
            ["ingest", "--input", str(workdir / "nope.csv"), "--out", str(workdir / "o.csv")]
        )
        assert code == 2

    def test_directory_as_input_exits_2(self, workdir, capsys):
        code = main(["ingest", "--input", str(workdir), "--out", str(workdir / "o.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_manifest_written_with_digests(self, workdir):
        out = ingest_train(workdir)
        manifest = json.loads((workdir / "train_corpus.csv.manifest.json").read_text())
        assert manifest["command"] == "ingest"
        assert str(workdir / "raw_train.csv") in manifest["inputs"]
        assert len(next(iter(manifest["inputs"].values()))) == 64
        # s4 has no clickout
        assert manifest["counts"] == {"dropped_sessions": 1}

    def test_test_manifest_drops_nothing(self, workdir):
        out = workdir / "test_corpus.csv"
        argv = ["ingest", "--input", str(workdir / "raw_test.csv"), "--out", str(out),
                "--role", "test"]
        assert main(argv) == 0
        manifest = json.loads((workdir / "test_corpus.csv.manifest.json").read_text())
        assert manifest["counts"] == {"dropped_sessions": 0}

    @pytest.mark.parametrize(
        "role, stages",
        [("train", ["filter_s", "parse_s", "write_s"]),
         ("test", ["hide_s", "parse_s", "write_s"])],
    )
    def test_manifest_records_stage_timings(self, workdir, role, stages):
        out = workdir / f"{role}_corpus.csv"
        argv = ["ingest", "--input", str(workdir / f"raw_{role}.csv"), "--out",
                str(out), "--role", role]
        assert main(argv) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        timings = manifest["timings"]
        assert list(timings) == stages
        assert all(t >= 0.0 for t in timings.values())
        # each stage rounds to the millisecond
        assert sum(timings.values()) <= manifest["wall_time_s"] + 0.005
        assert "timings" not in manifest["flags"]


    @pytest.mark.parametrize("role", ["train", "test"])
    def test_writes_a_columnar_companion_it_names(self, workdir, role):
        out = workdir / f"{role}_corpus.csv"
        argv = ["ingest", "--input", str(workdir / f"raw_{role}.csv"), "--out",
                str(out), "--role", role]
        assert main(argv) == 0
        companion = workdir / f"{role}_corpus.csv.columns"
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        truth = [str(out) + ".truth.csv"] if role == "test" else []
        assert manifest["outputs"] == [str(out), *truth, str(companion)]
        assert parse_session_log(out, Role(role)).sources == (out, companion)
        # a second ingest writes the same bytes
        first = companion.read_bytes()
        assert main(argv) == 0
        assert companion.read_bytes() == first

    def test_desk_companions_load_as_their_files_parse(self, tmp_path):
        data = generate(SynthConfig(seed=2, n_train_sessions=4500, n_test_sessions=500))
        for role, corpus in (("train", data.train), ("test", data.test)):
            raw, out = tmp_path / f"raw_{role}.csv", tmp_path / f"{role}_corpus.csv"
            write_corpus(corpus, raw)
            argv = ["ingest", "--input", str(raw), "--out", str(out), "--role", role]
            assert main(argv) == 0
            loaded = parse_session_log(out, Role(role))
            companion = Path(f"{out}.columns")
            assert loaded.sources == (out, companion)
            companion.unlink()
            parsed = parse_session_log(out, Role(role))
            assert parsed.sources == (out,)
            assert_same_columns(loaded, parsed)
        assert loaded.n_sessions == 500 and parsed.n_actions == 4214

    def test_an_empty_log_has_an_empty_companion(self, workdir):
        raw, out = workdir / "empty.csv", workdir / "empty_corpus.csv"
        raw.write_text(f"{HEADER}\n")
        assert main(["ingest", "--input", str(raw), "--out", str(out)]) == 0
        loaded = parse_session_log(out)
        assert loaded.sources == (out, Path(f"{out}.columns"))
        assert loaded.n_sessions == loaded.n_actions == 0


class TestTrain:
    def test_writes_model_trace_and_artifacts(self, workdir):
        corpus = ingest_train(workdir)
        model_path = workdir / "model.txt"
        code = main(
            [
                "train",
                "--corpus",
                str(corpus),
                "--out",
                str(model_path),
                "--dim",
                "2",
                "--min-sessions",
                "1",
                "--max-iterations",
                "50",
            ]
        )
        assert code == 0
        model = read_model(model_path)
        assert model.params.dim == 2
        assert (workdir / "model.txt.trace.csv").exists()
        assert (workdir / "model.txt.pairs.tsv").exists()
        assert (workdir / "model.txt.popularity.tsv").exists()
        manifest = json.loads((workdir / "model.txt.manifest.json").read_text())
        timings = manifest["timings"]
        assert list(timings) == [
            "affinity_s", "fit_s", "model_write_s", "pairs_write_s", "parse_s"
        ]
        # the model's columnar companion is the last output
        assert manifest["outputs"] == [
            str(model_path), *(f"{model_path}{suffix}" for suffix in
                               (".pairs.tsv", ".popularity.tsv", ".trace.csv", ".columns"))
        ]
        assert model.sources == (model_path, workdir / "model.txt.columns")
        assert all(t >= 0.0 for t in timings.values())
        # each stage rounds to the millisecond
        assert sum(timings.values()) <= manifest["wall_time_s"] + 0.005
        # the stage timings are outputs, not flags
        assert "timings" not in manifest["flags"]

    def test_reports_its_stop_rule(self, workdir, capsys):
        # the printed line and the manifest name the rule that stopped the
        # fit, whichever it was, not just whether it converged
        corpus = ingest_train(workdir)
        model_path = workdir / "model.txt"
        base = [
            "train", "--corpus", str(corpus), "--out", str(model_path),
            "--dim", "2", "--min-sessions", "1",
        ]
        for extra, reason in (
            (["--max-iterations", "3"], "max_iterations"),
            (["--max-iterations", "500", "--gradient-tolerance", "1e-4"],
             "gradient_tolerance"),
        ):
            assert main(base + extra) == 0
            out = capsys.readouterr().out
            assert out.rstrip().endswith(f", {reason}")
            manifest = json.loads((workdir / "model.txt.manifest.json").read_text())
            iterations = len((workdir / "model.txt.trace.csv").read_text().splitlines()) - 2
            counts = manifest["counts"]
            assert (counts["iterations"], counts["stop_reason"]) == (iterations, reason)
            assert f": {iterations} iterations," in out

    def test_manifest_counts_what_the_graph_left_out(self, tmp_path):
        corpus = synth_train_corpus(tmp_path)
        model_path = tmp_path / "model.txt"
        argv = [
            "train", "--corpus", str(corpus), "--out", str(model_path), "--dim", "2",
            "--max-iterations", "3", "--min-sessions", "10", "--max-pairs-per-item", "2",
        ]
        assert main(argv) == 0
        counts = json.loads((tmp_path / "model.txt.manifest.json").read_text())["counts"]
        parsed = parse_session_log(corpus, role=Role.TRAIN)
        session, item, _ = parsed.item_actions
        sessions_of = Counter(i for _, i in set(zip(session.tolist(), item.tolist())))
        excluded = sum(1 for n in sessions_of.values() if n < 10)
        full = build_affinity_graph(parsed, 10, 0).n_pairs
        kept = len((tmp_path / "model.txt.pairs.tsv").read_text().splitlines())
        assert counts["excluded_items"] == excluded > 0
        assert counts["pruned_pairs"] == full - kept > 0

    def test_same_seed_byte_identical_models(self, workdir):
        corpus = ingest_train(workdir)
        args = [
            "train", "--corpus", str(corpus), "--dim", "2",
            "--min-sessions", "1", "--max-iterations", "40", "--seed", "7",
        ]
        assert main(args + ["--out", str(workdir / "m1.txt")]) == 0
        assert main(args + ["--out", str(workdir / "m2.txt")]) == 0
        assert (workdir / "m1.txt").read_bytes() == (workdir / "m2.txt").read_bytes()

    def test_model_bytes_independent_of_blas_threads(self, tmp_path):
        # a desk-like fit (29,328 pairs at dim 20) is large enough that BLAS
        # would split its dot products over threads; the fit's reductions
        # avoid BLAS, so one and two threads write the same model
        corpus = desk_like_corpus(tmp_path)
        models = []
        for threads in ("1", "2"):
            model = tmp_path / f"model{threads}.txt"
            run_under_blas_threads(threads, [[
                "train", "--corpus", corpus, "--out", model,
                "--dim", "20", "--max-iterations", "100", "--gradient-tolerance", "1e-5",
            ]])
            models.append(model.read_bytes())
        assert models[0] == models[1]

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs sched_setaffinity and 2 usable CPUs",
    )
    def test_model_bytes_independent_of_cpu_count(self, tmp_path):
        # the desk-like fit forks its helper once a second CPU can run it;
        # pinned to one CPU it runs alone, and both write the same files
        corpus = desk_like_corpus(tmp_path)
        one_cpu = {min(os.sched_getaffinity(0))}
        written, processes = [], []
        for name, pin in (("one", lambda: os.sched_setaffinity(0, one_cpu)), ("all", None)):
            model = tmp_path / f"model_{name}.txt"
            run_under_blas_threads("1", [[
                "train", "--corpus", corpus, "--out", model,
                "--dim", "20", "--max-iterations", "100", "--gradient-tolerance", "1e-5",
            ]], preexec_fn=pin)
            written.append([
                Path(f"{model}{suffix}").read_bytes()
                for suffix in ("", ".trace.csv", ".pairs.tsv", ".popularity.tsv")
            ])
            manifest = json.loads(Path(f"{model}.manifest.json").read_text())
            processes.append(manifest["counts"]["fit_processes"])
        assert written[0] == written[1]
        assert processes == [1, 2]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    def test_manifest_counts_the_fit_processes(self, tmp_path, monkeypatch):
        corpus = synth_train_corpus(tmp_path)
        model_path = tmp_path / "model.txt"
        argv = ["train", "--corpus", str(corpus), "--out", str(model_path),
                "--dim", "2", "--max-iterations", "20"]
        written = []
        for helped in (False, True):
            if helped:
                let_fit_helper_run(monkeypatch)
            assert main(argv) == 0
            manifest = json.loads((tmp_path / "model.txt.manifest.json").read_text())
            assert manifest["counts"]["fit_processes"] == 1 + helped
            written.append(model_path.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    def test_divergence_beside_the_helper_writes_the_partial_trace(
        self, tmp_path, capsys, monkeypatch
    ):
        corpus = synth_train_corpus(tmp_path)
        let_fit_helper_run(monkeypatch, after=3)
        grad = embedder._PairObjective.grad

        def diverging(self):
            g = grad(self)
            if self._helper is not None and self._helper.pid is not None:
                g[0] = np.nan
            return g

        monkeypatch.setattr(embedder._PairObjective, "grad", diverging)
        model_path = tmp_path / "m.txt"
        argv = ["train", "--corpus", str(corpus), "--out", str(model_path), "--dim", "2"]
        assert main(argv) == 3
        assert capsys.readouterr().err.endswith("(iteration 4)\n")
        # the start and the three iterations before the helper
        assert len((tmp_path / "m.txt.trace.csv").read_text().splitlines()) == 1 + 4
        assert not model_path.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize(
        "flags", [["--lambda", "nan"], ["--max-pairs-per-item", "-3"]]
    )
    def test_bad_setting_exits_2_before_writing(self, workdir, flags):
        corpus = ingest_train(workdir)
        model_path = workdir / "m.txt"
        code = main(["train", "--corpus", str(corpus), "--out", str(model_path)] + flags)
        assert code == 2
        assert not list(workdir.glob("m.txt*"))

    @pytest.mark.parametrize(
        "alpha, message",
        [
            ("0.004", "squared distance overflows at alpha=0.004"),
            ("0.01", "objective or gradient is not finite"),
        ],
        ids=["target-overflow", "non-finite-objective"],
    )
    def test_failed_fit_exits_3_with_its_trace(self, tmp_path, capsys, alpha, message):
        # a fit that fails is a numerical failure, reported once, with the
        # partial trace written for a post-mortem and no model
        corpus = synth_train_corpus(tmp_path)
        capsys.readouterr()
        model_path = tmp_path / "m.txt"
        argv = ["train", "--corpus", str(corpus), "--out", str(model_path)]
        with pytest.warns(UserWarning, match=f"alpha={alpha}"):
            code = main(argv + ["--dim", "2", "--alpha", alpha])
        assert code == 3
        assert capsys.readouterr().err == f"error: {message} (iteration 0)\n"
        trace = (tmp_path / "m.txt.trace.csv").read_text()
        assert trace == "iteration,objective,grad_norm,evaluations\n"
        assert not model_path.exists()
        assert not (tmp_path / "m.txt.manifest.json").exists()

    def test_empty_graph_exits_2(self, workdir):
        corpus = ingest_train(workdir)
        code = main(
            [
                "train",
                "--corpus",
                str(corpus),
                "--out",
                str(workdir / "m.txt"),
                "--min-sessions",
                "99",
            ]
        )
        assert code == 2
        # nothing is written for a graph that cannot be fitted
        for suffix in ("", ".pairs.tsv", ".popularity.tsv", ".trace.csv", ".manifest.json"):
            assert not (workdir / f"m.txt{suffix}").exists(), suffix

    def test_manifest_names_the_companion_exactly_when_it_was_read(self, workdir):
        corpus = ingest_train(workdir)
        companion = Path(f"{corpus}.columns")
        argv = ["train", "--corpus", str(corpus), "--out", str(workdir / "m.txt"),
                "--dim", "2", "--min-sessions", "1", "--max-iterations", "5"]
        assert main(argv) == 0
        manifest = json.loads((workdir / "m.txt.manifest.json").read_text())
        assert set(manifest["inputs"]) == {str(corpus), str(companion)}
        companion.write_bytes(companion.read_bytes()[:-8])  # a faulty one is not read
        assert main(argv) == 0
        manifest = json.loads((workdir / "m.txt.manifest.json").read_text())
        assert set(manifest["inputs"]) == {str(corpus)}


class TestRecommendAndEvaluate:
    @pytest.fixture
    def trained(self, workdir):
        corpus = ingest_train(workdir)
        model_path = workdir / "model.txt"
        main(
            [
                "train", "--corpus", str(corpus), "--out", str(model_path),
                "--dim", "2", "--min-sessions", "1", "--max-iterations", "60",
            ]
        )
        return corpus, model_path

    def test_recommend_prints_ranking(self, workdir, trained, capsys):
        corpus, model_path = trained
        session_file = workdir / "active.csv"
        session_file.write_text(
            f"{HEADER}\nu7,live1,100,1,interaction item info,A,\n"
        )
        code = main(
            [
                "recommend",
                "--model",
                str(model_path),
                "--session",
                str(session_file),
                "--candidates",
                "B|C|D",
                "--top",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "rank,item,score,anchor,fallback"
        assert len(out) == 3
        assert out[1].startswith("1,")

    def test_recommend_drops_empty_candidate_ids(self, workdir, trained, capsys):
        _, model_path = trained
        session_file = workdir / "active.csv"
        session_file.write_text(
            f"{HEADER}\nu7,live1,100,1,interaction item info,A,\n"
        )
        argv = ["recommend", "--model", str(model_path), "--session", str(session_file)]
        assert main(argv + ["--candidates", "B||C|"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert sorted(row.split(",")[1] for row in rows) == ["B", "C"]
        for blank in ("||", ""):
            assert main(argv + ["--candidates", blank]) == 2
            assert "--candidates" in capsys.readouterr().err

    def test_recommend_quotes_ids_with_a_comma(self, workdir, capsys):
        # ingest accepts quoted ids, so the ranking's rows quote them too
        model = EmbeddingModel(
            ModelParams(alpha=2.0, dim=1), ["a,b", "c", 'd"'],
            np.array([[0.0], [1.0], [2.0]]), np.array([3.0, 1.0, 1.0]),
        )
        write_model(model, workdir / "model.txt")
        session_file = workdir / "active.csv"
        session_file.write_text(
            f'{HEADER}\nu7,live1,100,1,interaction item info,"a,b",\n'
        )
        argv = ["recommend", "--model", str(workdir / "model.txt")]
        assert main(argv + ["--session", str(session_file)]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["rank", "item", "score", "anchor", "fallback"]
        assert [row[:2] for row in rows[1:]] == [["1", "c"], ["2", 'd"']]
        assert {(row[3], row[4]) for row in rows[1:]} == {("a,b", "False")}

    def test_recommend_on_a_file_with_no_sessions_says_so(
        self, workdir, trained, capsys
    ):
        _, model_path = trained
        session_file = workdir / "empty.csv"
        session_file.write_text(f"{HEADER}\n")
        code = main(
            ["recommend", "--model", str(model_path), "--session", str(session_file)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "holds no sessions" in err
        assert "--session-id" not in err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--session-id", "live3"], "session 'live3' not in"),
            ([], "holds 2 sessions; pass --session-id"),
        ],
        ids=["unknown-id", "no-id"],
    )
    def test_recommend_needs_one_known_session(
        self, workdir, trained, capsys, extra, message
    ):
        _, model_path = trained
        session_file = workdir / "two.csv"
        session_file.write_text(
            f"{HEADER}\nu7,live1,100,1,interaction item info,A,\n"
            "u8,live2,200,1,interaction item info,B,\n"
        )
        argv = ["recommend", "--model", str(model_path), "--session", str(session_file)]
        assert main(argv + ["--session-id", "live2", "--top", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith(",B,False")
        assert main(argv + extra) == 2
        assert message in capsys.readouterr().err

    def test_recommend_session_id_builds_only_that_session(
        self, workdir, trained, capsys, monkeypatch
    ):
        _, model_path = trained
        rows = {
            "live1": ["u7,live1,100,1,interaction item info,A,"],
            "live2": [
                "u8,live2,200,1,interaction item info,B,",
                "u8,live2,201,2,interaction item info,C,",
                "u8,live2,202,3,clickout item,D,B|C|D",
            ],
            "live3": ["u9,live3,300,1,interaction item info,C,"],
        }
        shuffled = [rows["live2"][2], *rows["live3"], rows["live2"][0]]
        shuffled += [*rows["live1"], rows["live2"][1]]
        many = workdir / "many.csv"
        many.write_text("\n".join([HEADER, *shuffled]) + "\n")
        built = []

        class CountedAction(Action):
            def __init__(self, *fields):
                built.append(fields[0])
                super().__init__(*fields)

        argv = ["recommend", "--model", str(model_path), "--top", "3"]
        for sid, lines in rows.items():
            one = workdir / f"{sid}.csv"
            one.write_text("\n".join([HEADER, *lines]) + "\n")
            assert main(argv + ["--session", str(one)]) == 0
            alone = capsys.readouterr().out
            with monkeypatch.context() as patch:
                patch.setattr("simpop.sessions.Action", CountedAction)
                built.clear()
                assert main(argv + ["--session", str(many), "--session-id", sid]) == 0
            assert capsys.readouterr().out == alone
            assert built == [sid] * len(lines)
        for unknown in ("live0", "live2a", "live4"):
            assert main(argv + ["--session", str(many), "--session-id", unknown]) == 2
            assert f"session {unknown!r} not in" in capsys.readouterr().err

    def _recommend_with_popularity(self, workdir, model_path, popularity):
        session_file = workdir / "active.csv"
        session_file.write_text(
            f"{HEADER}\nu7,live1,100,1,interaction item info,A,\n"
        )
        return main(
            [
                "recommend", "--model", str(model_path),
                "--session", str(session_file), "--candidates", "B|C|D",
                "--popularity", str(popularity),
            ]
        )

    def test_recommend_reads_train_popularity(self, workdir, trained, capsys):
        _, model_path = trained
        popularity = workdir / "model.txt.popularity.tsv"
        assert self._recommend_with_popularity(workdir, model_path, popularity) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_recommend_popularity_line_without_tab_exits_2(
        self, workdir, trained, capsys
    ):
        _, model_path = trained
        popularity = workdir / "bad_popularity.tsv"
        popularity.write_text("A\t3.0\nB 2.0\n")
        assert self._recommend_with_popularity(workdir, model_path, popularity) == 2
        assert "line 2" in capsys.readouterr().err

    def test_recommend_out_writes_manifest(self, workdir, trained, capsys):
        _, model_path = trained
        popularity = workdir / "model.txt.popularity.tsv"
        assert self._recommend_with_popularity(workdir, model_path, popularity) == 0
        before = sorted(workdir.glob("*.manifest.json"))
        out = workdir / "ranked.csv"
        code = main(
            [
                "recommend", "--model", str(model_path),
                "--session", str(workdir / "active.csv"),
                "--popularity", str(popularity), "--out", str(out),
            ]
        )
        assert code == 0
        manifest = json.loads((workdir / "ranked.csv.manifest.json").read_text())
        assert manifest["command"] == "recommend"
        assert set(manifest["inputs"]) == {
            str(model_path), f"{model_path}.columns", str(workdir / "active.csv"),
            str(popularity),
        }
        assert manifest["outputs"] == [str(out)]
        # printing to stdout writes no manifest
        assert sorted(workdir.glob("*.manifest.json")) == sorted(
            before + [workdir / "ranked.csv.manifest.json"]
        )

    def test_recommend_manifest_names_the_companion(self, workdir, trained):
        corpus, model_path = trained
        out = workdir / "ranked.csv"
        argv = ["recommend", "--model", str(model_path), "--session", str(corpus),
                "--session-id", "s1", "--out", str(out)]
        assert main(argv) == 0
        manifest = json.loads((workdir / "ranked.csv.manifest.json").read_text())
        assert set(manifest["inputs"]) == {
            str(model_path), f"{model_path}.columns", str(corpus), f"{corpus}.columns"
        }

    def test_evaluate_counts_popularity_fallback(self, workdir, trained, capsys):
        _, model_path = trained
        (workdir / "raw_test.csv").write_text(
            RAW_TEST
            + "u8,t2,8000,1,interaction item info,Z,\n"
            + "u8,t2,8001,2,clickout item,B,B|C|Z\n"
        )
        test_corpus, truth = workdir / "test_corpus.csv", workdir / "truth.csv"
        main(
            [
                "ingest", "--input", str(workdir / "raw_test.csv"),
                "--out", str(test_corpus), "--role", "test",
                "--truth-out", str(truth),
            ]
        )
        report = workdir / "report.csv"
        code = main(
            [
                "evaluate", "--ranker", "proposed", "--model", str(model_path),
                "--test-corpus", str(test_corpus), "--truth", str(truth),
                "--out", str(report),
            ]
        )
        assert code == 0
        assert "(2 sessions, 0 skipped, 1 by popularity fallback)" in (
            capsys.readouterr().out
        )
        manifest = json.loads((workdir / "report.csv.manifest.json").read_text())
        # Z, shown in t2, is not in the model
        assert manifest["counts"] == {"fallback": 1, "unknown_candidates": 1}

    def test_evaluate_manifest_names_read_files_and_times_stages(
        self, workdir, trained
    ):
        corpus, model_path = trained
        test_corpus, truth = workdir / "test_corpus.csv", workdir / "truth.csv"
        main(
            [
                "ingest", "--input", str(workdir / "raw_test.csv"),
                "--out", str(test_corpus), "--role", "test",
                "--truth-out", str(truth),
            ]
        )
        metadata = workdir / "metadata.tsv"
        metadata.write_text("A\tx|y\nB\tx\nC\ty\nD\tz\n")
        model = str(model_path)
        # each ingested corpus and the trained model came from its file and
        # its columnar companion
        train = {str(corpus), f"{corpus}.columns"}
        tested = {str(test_corpus), f"{test_corpus}.columns"}
        read = {
            "proposed": {model, f"{model}.columns", *train},
            "random": set(),
            "ipop": train,
            "icpop": train,
            "icknn": train,
            "imknn": train | {str(metadata)},
        }
        for ranker, expected in read.items():
            out = workdir / f"report_{ranker}.csv"
            code = main(
                [
                    "evaluate", "--ranker", ranker, "--model", model,
                    "--train-corpus", str(corpus), "--metadata", str(metadata),
                    "--test-corpus", str(test_corpus), "--truth", str(truth),
                    "--out", str(out),
                ]
            )
            assert code == 0
            manifest = json.loads(Path(f"{out}.manifest.json").read_text())
            assert set(manifest["inputs"]) == expected | tested | {str(truth)}, ranker
            timings = manifest["timings"]
            assert list(timings) == [
                "evaluate_s", "parse_s", "ranker_s", "report_write_s"
            ]
            assert all(t >= 0.0 for t in timings.values())
            # each stage rounds to the millisecond
            assert sum(timings.values()) <= manifest["wall_time_s"] + 0.005
            assert "timings" not in manifest["flags"]

    @pytest.fixture
    def hashed(self, monkeypatch):
        """Counts each path's ``_sha256`` calls, in the load and the manifest."""
        from simpop import cli, sessions

        sha256, hashed = sessions._sha256, Counter()

        def counted(path):
            hashed[str(path)] += 1
            return sha256(path)

        monkeypatch.setattr(sessions, "_sha256", counted)
        monkeypatch.setattr(cli, "_sha256", counted)
        return hashed

    def test_train_and_evaluate_hash_each_file_once(self, workdir, hashed):
        # a companion's load hashes its CSV, and the manifest keeps that digest
        corpus, model = ingest_train(workdir), workdir / "model.txt"
        test_corpus, truth = workdir / "test_corpus.csv", workdir / "truth.csv"
        assert main(["ingest", "--input", str(workdir / "raw_test.csv"), "--out",
                     str(test_corpus), "--role", "test", "--truth-out", str(truth)]) == 0
        runs = [
            (["train", "--corpus", str(corpus), "--out", str(model), "--dim", "2",
              "--min-sessions", "1", "--max-iterations", "5"], model),
            (["evaluate", "--ranker", "proposed", "--model", str(model),
              "--train-corpus", str(corpus), "--test-corpus", str(test_corpus),
              "--truth", str(truth), "--out", str(workdir / "report.csv")],
             workdir / "report.csv"),
        ]
        for argv, out in runs:
            hashed.clear()
            assert main(argv) == 0
            inputs = json.loads(Path(f"{out}.manifest.json").read_text())["inputs"]
            assert {str(corpus), f"{corpus}.columns"} <= set(inputs)
            assert (f"{model}.columns" in inputs) == (argv[0] == "evaluate")
            assert hashed == Counter(dict.fromkeys(inputs, 1)), argv[0]
            assert inputs == {
                path: hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in inputs
            }

    def test_train_after_a_stale_companion_hashes_each_file_once(self, workdir, hashed):
        # the digest the companion was checked against is kept for the manifest
        corpus, model = ingest_train(workdir), workdir / "model.txt"
        with open(corpus, "a", encoding="utf-8") as out:
            out.write("u5,s5,5000,1,interaction item info,C,\n")
        hashed.clear()
        assert main(["train", "--corpus", str(corpus), "--out", str(model), "--dim", "2",
                     "--min-sessions", "1", "--max-iterations", "5"]) == 0
        inputs = json.loads(Path(f"{model}.manifest.json").read_text())["inputs"]
        assert list(inputs) == [str(corpus)]
        assert hashed == Counter({str(corpus): 1})
        assert inputs[str(corpus)] == hashlib.sha256(corpus.read_bytes()).hexdigest()

    def _model_readers(self, workdir, trained):
        """``evaluate --ranker proposed``, ``recommend --out`` and ``synth
        edges`` on the trained model, each with its primary output."""
        corpus, model = trained
        test_corpus, truth = workdir / "test_corpus.csv", workdir / "truth.csv"
        assert main(["ingest", "--input", str(workdir / "raw_test.csv"), "--out",
                     str(test_corpus), "--role", "test", "--truth-out", str(truth)]) == 0
        report, ranked, edges = (workdir / f for f in ("report.csv", "ranked.csv", "e.tsv"))
        return [
            (["evaluate", "--ranker", "proposed", "--model", str(model),
              "--test-corpus", str(test_corpus), "--truth", str(truth),
              "--out", str(report)], report),
            (["recommend", "--model", str(model), "--session", str(corpus),
              "--session-id", "s1", "--out", str(ranked)], ranked),
            (["synth", "edges", "--model", str(model), "--out", str(edges)], edges),
        ]

    @pytest.mark.parametrize("state", ["intact", "faulty", "missing"])
    def test_model_readers_name_the_model_companion_exactly_when_read(
        self, workdir, trained, hashed, state
    ):
        # and hash the model text once: in the read when a companion is
        # checked against it, else in the manifest
        _, model = trained
        companion = Path(f"{model}.columns")
        runs = self._model_readers(workdir, trained)
        if state == "faulty":
            companion.write_bytes(companion.read_bytes()[:-8])
        elif state == "missing":
            companion.unlink()
        for argv, out in runs:
            hashed.clear()
            assert main(argv) == 0, argv
            inputs = json.loads(Path(f"{out}.manifest.json").read_text())["inputs"]
            assert (str(companion) in inputs) == (state == "intact"), argv[0]
            assert hashed[str(model)] == 1, argv[0]
            assert hashed[str(companion)] == (state == "intact"), argv[0]
            assert inputs[str(model)] == hashlib.sha256(model.read_bytes()).hexdigest()

    def test_evaluate_baseline_and_proposed(self, workdir, trained, capsys):
        corpus, model_path = trained
        test_corpus = workdir / "test_corpus.csv"
        truth = workdir / "truth.csv"
        main(
            [
                "ingest", "--input", str(workdir / "raw_test.csv"),
                "--out", str(test_corpus), "--role", "test",
                "--truth-out", str(truth),
            ]
        )
        for ranker_args in (
            ["--ranker", "ipop", "--train-corpus", str(corpus)],
            ["--ranker", "proposed", "--model", str(model_path)],
        ):
            report_path = workdir / f"report_{ranker_args[1]}.csv"
            code = main(
                [
                    "evaluate",
                    "--test-corpus",
                    str(test_corpus),
                    "--truth",
                    str(truth),
                    "--out",
                    str(report_path),
                ]
                + ranker_args
            )
            assert code == 0
            assert report_path.exists()
        out = capsys.readouterr().out
        assert "ipop" in out and "proposed" in out

    def test_report_bytes_independent_of_blas_threads(self, tmp_path):
        # train and the six evaluate reports, run under one and under two
        # BLAS threads: ranking and evaluation reduce without BLAS too, so
        # both runs write the same bytes
        world = tmp_path / "world"
        assert main(
            [
                "synth", "sessions", "--out-dir", str(world), "--items", "200",
                "--train-sessions", "600", "--test-sessions", "100", "--seed", "3",
            ]
        ) == 0
        corpus, test, truth = (tmp_path / f for f in ("corpus.csv", "test.csv", "truth.csv"))
        assert main(["ingest", "--input", str(world / "train.csv"), "--out", str(corpus)]) == 0
        assert main(
            [
                "ingest", "--input", str(world / "test.csv"), "--out", str(test),
                "--role", "test", "--truth-out", str(truth),
            ]
        ) == 0
        rankers = ("proposed", "icknn", "imknn", "icpop", "ipop", "random")
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            out.mkdir()
            model = out / "model.txt"
            train = [
                "train", "--corpus", corpus, "--out", model,
                "--dim", "10", "--max-iterations", "50",
            ]
            evaluations = [
                [
                    "evaluate", "--ranker", ranker, "--model", model,
                    "--train-corpus", corpus, "--metadata", world / "metadata.tsv",
                    "--test-corpus", test, "--truth", truth,
                    "--out", out / f"report_{ranker}.csv",
                ]
                for ranker in rankers
            ]
            run_under_blas_threads(threads, [train] + evaluations)
            outputs.append([(out / f"report_{r}.csv").read_text() for r in rankers])
            outputs[-1].append(model.read_text())
        for ranker, report in zip(rankers, outputs[0]):
            assert report.startswith("ranker,sessions,") and f"\n{ranker},100," in report
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "ranker, given, missing",
        [
            ("proposed", [], "--model"),
            ("ipop", [], "--train-corpus"),
            ("imknn", ["--train-corpus"], "--metadata"),
        ],
    )
    def test_evaluate_names_a_missing_input(
        self, workdir, trained, capsys, ranker, given, missing
    ):
        corpus, _ = trained
        truth = workdir / "truth.csv"
        truth.write_text("session_id,item_id\n")
        report = workdir / "r.csv"
        code = main(
            [
                "evaluate", "--ranker", ranker, "--test-corpus", str(corpus),
                "--truth", str(truth), "--out", str(report),
            ]
            + [arg for flag in given for arg in (flag, str(corpus))]
        )
        assert code == 2
        assert f"--ranker {ranker} requires {missing}" in capsys.readouterr().err
        assert not report.exists()

    def test_missing_truth_exits_2(self, workdir, trained):
        corpus, model_path = trained
        code = main(
            [
                "evaluate", "--ranker", "proposed", "--model", str(model_path),
                "--test-corpus", str(corpus), "--truth", str(workdir / "nope.csv"),
                "--out", str(workdir / "r.csv"),
            ]
        )
        assert code == 2

    def test_truth_row_without_two_fields_exits_2(self, workdir, trained, capsys):
        corpus, model_path = trained
        truth = workdir / "truth.csv"
        truth.write_text("session_id,item_id\nt000000\n")
        code = main(
            [
                "evaluate", "--ranker", "proposed", "--model", str(model_path),
                "--test-corpus", str(corpus), "--truth", str(truth),
                "--out", str(workdir / "r.csv"),
            ]
        )
        assert code == 2
        assert "line 2" in capsys.readouterr().err


class TestSynthCommands:
    def test_synth_sessions_then_full_pipeline(self, tmp_path, capsys):
        out_dir = tmp_path / "world"
        code = main(
            [
                "synth", "sessions", "--out-dir", str(out_dir),
                "--items", "60", "--clusters", "3",
                "--train-sessions", "150", "--test-sessions", "30", "--seed", "3",
            ]
        )
        assert code == 0
        for name in ("train.csv", "test.csv", "metadata.tsv", "planted_model.txt"):
            assert (out_dir / name).exists()

    def test_synth_sessions_manifest_counts_and_times(self, tmp_path):
        out_dir = tmp_path / "world"
        argv = ["synth", "sessions", "--out-dir", str(out_dir), "--items", "40",
                "--clusters", "2", "--train-sessions", "50", "--test-sessions", "10"]
        assert main(argv) == 0
        manifest = json.loads((out_dir / "train.csv.manifest.json").read_text())
        assert manifest["command"] == "synth-sessions"
        train = parse_session_log(out_dir / "train.csv")
        test = parse_session_log(out_dir / "test.csv", role=Role.TEST)
        assert manifest["counts"] == {
            "test_actions": test.n_actions,
            "test_sessions": 10,
            "train_actions": train.n_actions,
            "train_sessions": 50,
        }
        assert manifest["outputs"] == [
            str(out_dir / name) for name in ("train.csv", "test.csv", "metadata.tsv",
                                             "planted_model.txt", "planted_model.txt.columns")
        ]
        timings = manifest["timings"]
        assert list(timings) == ["generate_s", "write_s"]
        assert all(t >= 0.0 for t in timings.values())
        # each stage rounds to the millisecond
        assert sum(timings.values()) <= manifest["wall_time_s"] + 0.005
        assert "timings" not in manifest["flags"]

    def test_synth_edges(self, tmp_path):
        out_dir = tmp_path / "world"
        main(
            [
                "synth", "sessions", "--out-dir", str(out_dir),
                "--items", "40", "--clusters", "2",
                "--train-sessions", "50", "--test-sessions", "10",
            ]
        )
        edges_path = tmp_path / "edges.tsv"
        code = main(
            [
                "synth", "edges", "--model", str(out_dir / "planted_model.txt"),
                "--out", str(edges_path), "--seed", "1",
            ]
        )
        assert code == 0
        text = edges_path.read_text()
        assert text == "" or all(
            len(line.split("\t")) == 2 for line in text.splitlines()
        )


class TestGridsearchCommand:
    def test_small_grid_runs(self, tmp_path, capsys):
        out_dir = tmp_path / "world"
        main(
            [
                "synth", "sessions", "--out-dir", str(out_dir),
                "--items", "80", "--clusters", "3",
                "--train-sessions", "250", "--test-sessions", "10", "--seed", "2",
            ]
        )
        table_path = tmp_path / "grid.csv"
        code = main(
            [
                "gridsearch", "--corpus", str(out_dir / "train.csv"),
                "--out", str(table_path),
                "--dims", "2,3", "--lambdas", "0.01", "--alphas", "2",
                "--max-iterations", "40", "--val-fraction", "0.2",
            ]
        )
        assert code == 0
        lines = table_path.read_text().splitlines()
        assert len(lines) == 3
        assert "best:" in capsys.readouterr().out

    def test_overflowing_alpha_is_a_failed_cell(self, tmp_path, capsys):
        corpus = synth_train_corpus(tmp_path)
        table_path = tmp_path / "grid.csv"
        with pytest.warns(UserWarning, match="alpha=0.004"):
            code = main(
                [
                    "gridsearch", "--corpus", str(corpus), "--out", str(table_path),
                    "--dims", "2", "--lambdas", "0.01", "--alphas", "0.004,2",
                    "--max-iterations", "40", "--val-fraction", "0.2",
                ]
            )
        assert code == 0
        with open(table_path, newline="") as stream:
            rows = list(csv.DictReader(stream))
        assert [(r["alpha"], r["failed"]) for r in rows] == [
            ("0.004", "True"), ("2.0", "False")
        ]
        assert rows[0]["error"] == (
            "squared distance overflows at alpha=0.004 (iteration 0)"
        )
        out = capsys.readouterr().out
        assert "(1 failed)" in out and "alpha=2.0" in out

    def test_manifest_counts_failed_and_unconverged_cells(self, tmp_path):
        # at a cap of 55 iterations the alpha=1 fit stops by its own rule and
        # the alpha=2 fit runs into the cap
        corpus = synth_train_corpus(tmp_path)
        table_path = tmp_path / "grid.csv"
        with pytest.warns(UserWarning, match="alpha=0.004"):
            code = main(
                [
                    "gridsearch", "--corpus", str(corpus), "--out", str(table_path),
                    "--dims", "2", "--lambdas", "0.01", "--alphas", "0.004,1,2",
                    "--max-iterations", "55", "--val-fraction", "0.2",
                ]
            )
        assert code == 0
        with open(table_path, newline="") as stream:
            rows = list(csv.DictReader(stream))
        assert [(r["alpha"], r["failed"], r["converged"]) for r in rows] == [
            ("0.004", "True", "False"), ("1.0", "False", "True"), ("2.0", "False", "False")
        ]
        assert rows[2]["iterations"] == "55"
        manifest = json.loads((tmp_path / "grid.csv.manifest.json").read_text())
        assert manifest["command"] == "gridsearch"
        assert manifest["counts"] == {"cells": 3, "failed": 1, "unconverged": 1}
        assert set(manifest["inputs"]) == {str(corpus), f"{corpus}.columns"}

    def test_every_cell_failing_writes_the_table_and_exits_3(self, tmp_path, capsys):
        # a grid whose every cell fails is a numerical failure: the table
        # still holds each cell's error, and no manifest is written
        corpus = synth_train_corpus(tmp_path)
        capsys.readouterr()
        table_path = tmp_path / "grid.csv"
        with pytest.warns(UserWarning, match="alpha=0.004"):
            code = main(
                [
                    "gridsearch", "--corpus", str(corpus), "--out", str(table_path),
                    "--dims", "2", "--lambdas", "0.01", "--alphas", "0.004",
                ]
            )
        assert code == 3
        assert capsys.readouterr().err == "error: every grid cell failed\n"
        with open(table_path, newline="") as stream:
            rows = list(csv.DictReader(stream))
        assert [(r["alpha"], r["failed"], r["error"]) for r in rows] == [
            ("0.004", "True", "squared distance overflows at alpha=0.004 (iteration 0)")
        ]
        assert not (tmp_path / "grid.csv.manifest.json").exists()

    def test_empty_axis_exits_2_naming_it(self, tmp_path, capsys):
        corpus = tmp_path / "train.csv"
        corpus.write_text(RAW_TRAIN)
        code = main(
            [
                "gridsearch", "--corpus", str(corpus), "--out",
                str(tmp_path / "grid.csv"), "--dims", "",
            ]
        )
        assert code == 2
        assert "grid axis dims is empty" in capsys.readouterr().err
        assert not (tmp_path / "grid.csv").exists()


EVALUATE = ["evaluate", "--ranker", "icknn", "--test-corpus", "t.csv", "--truth",
            "truth.csv", "--out", "r.csv"]
GRIDSEARCH = ["gridsearch", "--corpus", "c.csv", "--out", "g.csv"]
TRAIN = ["train", "--corpus", "c.csv", "--out", "m.txt"]


@pytest.mark.parametrize(
    "argv",
    [
        GRIDSEARCH + ["--threads", "2"],
        TRAIN + ["--memory", "5"],
        TRAIN + ["--init-scale", "1"],
        ["ingest", "--input", "l.csv", "--out", "c.csv", "--schema", "item_ref=item"],
        ["ingest", "--input", "l.csv", "--out", "c.csv", "--keep-unbookable"],
        ["recommend", "--model", "m.txt", "--session", "s.csv",
         "--anchor-mode", "global"],
        EVALUATE + ["--anchor-mode", "global"],
        EVALUATE + ["--k", "100"],
        EVALUATE + ["--clickout-only"],
        TRAIN + ["--pairs-out", "p.tsv"],
        TRAIN + ["--popularity-out", "k.tsv"],
        TRAIN + ["--trace-out", "t.csv"],
        ["synth", "sessions", "--out-dir", "w", "--clickout-rate", "0.85"],
        GRIDSEARCH + ["--seeds", "0,1"],
        GRIDSEARCH + ["--min-sessions", "2"],
        GRIDSEARCH + ["--max-pairs-per-item", "500"],
        GRIDSEARCH + ["--gradient-tolerance", "1e-4"],
        EVALUATE + ["--min-sessions", "2"],
        EVALUATE + ["--max-pairs-per-item", "500"],
    ],
    ids=[
        "gridsearch-threads", "train-memory", "train-init-scale", "ingest-schema",
        "ingest-keep-unbookable", "recommend-anchor-mode", "evaluate-anchor-mode",
        "evaluate-k", "evaluate-clickout-only", "train-pairs-out",
        "train-popularity-out", "train-trace-out", "synth-sessions-clickout-rate",
        "gridsearch-seeds", "gridsearch-min-sessions", "gridsearch-max-pairs-per-item",
        "gridsearch-gradient-tolerance", "evaluate-min-sessions",
        "evaluate-max-pairs-per-item",
    ],
)
def test_removed_flags_are_unknown(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_gridsearch_defaults_are_the_librarys():
    from simpop.embedder import FitConfig
    from simpop.evaluator import SearchGrid

    args = build_parser().parse_args(GRIDSEARCH)
    assert args.max_iterations == FitConfig.max_iterations == 500
    grid = SearchGrid()
    assert tuple(int(d) for d in args.dims.split(",")) == grid.dims
    assert tuple(float(v) for v in args.lambdas.split(",")) == grid.lambdas
    assert tuple(float(v) for v in args.alphas.split(",")) == grid.alphas
    holdout = inspect.signature(split_by_time).parameters["holdout_fraction"]
    assert args.val_fraction == holdout.default == 0.1


def test_train_defaults_are_the_librarys():
    from simpop.embedder import FitConfig

    args = build_parser().parse_args(TRAIN)
    assert args.seed == FitConfig.seed == 0
    graph = inspect.signature(simpop.build_affinity_graph).parameters
    assert args.min_sessions == graph["min_sessions"].default == 2
    assert args.max_pairs_per_item == graph["max_pairs_per_item"].default == 500


def test_readme_commands_parse():
    # every simpop command in README's bash blocks names only flags that exist
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```bash\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    commands = [
        shlex.split(line, comments=True)
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("simpop ")
    ]
    assert len(commands) >= 9
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
