"""Self-test of the output checkers: each must reject a corrupted output.

The corruptions are applied to copies of the run's outputs (the files and
the in-memory serving results), so every checker is shown to catch a single
small fault in exactly the data it passed a moment before.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import checks


def copy_lines(src, dst, edit) -> Path:
    """Write ``edit(lines)`` of ``src`` to ``dst``; a corruption helper."""
    with open(src, encoding="utf-8", newline="") as stream:
        lines = stream.readlines()
    with open(dst, "w", encoding="utf-8", newline="") as out:
        out.writelines(edit(lines))
    return Path(dst)


def _swap_two_ranks(lines):
    start = lines.index("session_id,rank\r\n") + 1
    rows = lines[start:]
    ranks = [row.rstrip("\r\n").split(",")[1] for row in rows]
    a = 0
    b = next(k for k in range(1, len(rows)) if ranks[k] != ranks[a])
    sid_a, sid_b = (row.split(",")[0] for row in (rows[a], rows[b]))
    rows[a], rows[b] = f"{sid_a},{ranks[b]}\r\n", f"{sid_b},{ranks[a]}\r\n"
    return lines[:start] + rows


def _all_ranks_one(lines):
    start = lines.index("session_id,rank\r\n") + 1
    return lines[:start] + [row.split(",")[0] + ",1\r\n" for row in lines[start:]]


def _perturb_first_coordinate(lines):
    item, kappa, coords = lines[1].rstrip("\n").split("\t")
    xs = coords.split(" ")
    xs[0] = repr(float(xs[0]) + 1.0)
    return [lines[0], f"{item}\t{kappa}\t{' '.join(xs)}\n"] + lines[2:]


def _raise_summary_mrr(lines):
    ranker, sessions, skipped, mrr, *maps = lines[1].rstrip("\r\n").split(",")
    row = [ranker, sessions, skipped, f"{float(mrr) + 0.001:.6f}", *maps]
    return [lines[0], ",".join(row) + "\r\n"] + lines[2:]


def corruptions(run):
    """(name, thunk) pairs; each thunk must raise ``checks.CheckError``."""
    f, reports, serving = run.files, run.reports, run.serving
    out = run.work / "corrupt"
    out.mkdir(exist_ok=True)

    dropped_row = copy_lines(f["corpus"], out / "corpus.csv", lambda ls: ls[:-1])
    yield "ingest rejects a dropped corpus row", lambda: checks.check_ingest(
        f["raw_train"], f["raw_test"], dropped_row, f["test"], f["truth"]
    )
    dropped_pair = copy_lines(f["pairs"], out / "pairs.tsv", lambda ls: ls[1:])
    yield "affinity rejects a dropped pair", lambda: checks.check_affinity(
        f["corpus"], dropped_pair
    )
    yield "fit rejects a dropped pair", lambda: checks.check_fit(
        f["model"], dropped_pair, f["popularity"], f["trace"]
    )
    moved = copy_lines(f["model"], out / "model.txt", _perturb_first_coordinate)
    yield "fit rejects a perturbed coordinate", lambda: checks.check_fit(
        moved, f["pairs"], f["popularity"], f["trace"]
    )
    loaded = np.array(serving["model"].coords, copy=True)
    loaded[0, 0] = np.nextafter(loaded[0, 0], np.inf)
    yield "model file rejects a coordinate one ulp off", lambda: (
        checks.check_model_roundtrip(
            serving["path"], serving["model"].ids, loaded, serving["expected"]
        )
    )
    swapped = copy_lines(reports["proposed"], out / "proposed.csv", _swap_two_ranks)
    yield "proposed ranks reject two swapped ranks", lambda: checks.check_proposed_ranks(
        f["model"], f["corpus"], f["test"], f["truth"], swapped
    )
    raised = copy_lines(reports["proposed"], out / "summary.csv", _raise_summary_mrr)
    yield "report summary rejects an MRR off by 0.001", lambda: (
        checks.check_report_summary(raised)
    )
    lucky = copy_lines(reports["random"], out / "random.csv", _all_ranks_one)
    yield "random MRR rejects a ranker that always hits", lambda: checks.check_random_mrr(
        lucky
    )
    table = run.mrr_table()
    table["proposed"], table["random"] = table["random"], table["proposed"]
    yield "ordering rejects swapped rankers", lambda: checks.check_ordering(table)

    requests = run.request_items()
    k = next(
        i for i, (_, cands, _) in enumerate(requests)
        if cands is not None and run.results[i][0] is not None
    )
    anchor, ranked = run.results[k]
    ranked = list(ranked)
    swapped_items = list(run.results)
    swapped_items[k] = (anchor, [ranked[1], ranked[0]] + ranked[2:])
    yield "serving rejects two swapped items", lambda: checks.check_serving(
        serving["path"], requests, swapped_items, []
    )
    dropped_item = list(run.results)
    dropped_item[k] = (anchor, ranked[:-1])
    yield "serving rejects a dropped candidate", lambda: checks.check_serving(
        serving["path"], requests, dropped_item, []
    )
    rescored = list(run.results)
    rescored[k] = (anchor, [(ranked[0][0], ranked[0][1] * (1 + 1e-6))] + ranked[1:])
    yield "serving rejects a misscored item", lambda: checks.check_serving(
        serving["path"], requests, rescored, [k]
    )


def selftest(run) -> list[str]:
    """Messages for every corruption a checker failed to reject."""
    problems = []
    try:
        for name, thunk in corruptions(run):
            try:
                thunk()
            except checks.CheckError:
                continue
            except Exception as exc:  # noqa: BLE001 - a crash is not a rejection
                problems.append(f"self-test '{name}': crashed with {type(exc).__name__}: {exc}")
                continue
            problems.append(f"self-test '{name}': corrupted output accepted")
    except Exception as exc:  # noqa: BLE001 - outputs missing after a failed operation
        problems.append(f"self-test could not corrupt the outputs: {type(exc).__name__}: {exc}")
    return problems
