"""Output checks computed apart from simpop: plain csv parsing and numpy.

Every checker raises ``CheckError`` on the first disagreement. None of them
imports simpop; each recomputes its expectation from the files simpop read
or wrote, or tests a property the method must have.
"""

from __future__ import annotations

import csv
import functools
import math
import os

import numpy as np

CLICKOUT = "clickout item"
#: relative distance under which two float scores count as tied, so a
#: reordering of near-equal scores is not reported as a wrong ranking
NEAR_TIE = 1e-9
#: ``simpop train`` defaults for the affinity graph
MIN_SESSIONS = 2
MAX_PAIRS_PER_ITEM = 500


class CheckError(Exception):
    """A program output disagrees with its independent recomputation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Independent readers
# ---------------------------------------------------------------------------


def by_file_version(fn):
    """Memoize ``fn(*paths)`` on the paths' size and mtime. Several checks,
    and the self-test after them, read the same large files."""
    memo = {}

    @functools.wraps(fn)
    def cached(*paths):
        key = tuple(
            (str(p), os.stat(p).st_mtime_ns, os.stat(p).st_size) for p in paths
        )
        if key not in memo:
            memo[key] = fn(*paths)
        return memo[key]

    return cached


@by_file_version
def read_log(path) -> dict[str, list[dict]]:
    """Session id -> rows ordered by step, from a canonical session CSV."""
    sessions: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8", newline="") as stream:
        for row in csv.DictReader(stream):
            sessions.setdefault(row["session_id"], []).append(row)
    for rows in sessions.values():
        rows.sort(key=lambda r: int(r["step"]))
    return sessions


@by_file_version
def read_model_file(path):
    """(alpha, lam, ids, coords, kappa) parsed without simpop."""
    with open(path, encoding="utf-8") as stream:
        header = stream.readline().split()
        params = dict(tok.split("=", 1) for tok in header[2:])
        ids, kappa, coords = [], [], []
        for line in stream:
            item, k, xs = line.rstrip("\n").split("\t")
            ids.append(item)
            kappa.append(float(k))
            coords.append([float(tok) for tok in xs.split(" ")])
    return (
        float(params["alpha"]),
        float(params["lambda"]),
        ids,
        np.array(coords, dtype=np.float64),
        np.array(kappa, dtype=np.float64),
    )


@by_file_version
def read_pairs(path) -> dict[tuple[str, str], float]:
    pairs = {}
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            i, j, p = line.rstrip("\n").split("\t")
            pairs[(i, j)] = float(p)
    return pairs


@by_file_version
def read_popularity(path) -> dict[str, float]:
    with open(path, encoding="utf-8") as stream:
        return {
            item: float(k)
            for item, k in (line.rstrip("\n").split("\t") for line in stream)
        }


def read_trace_objectives(path) -> list[float]:
    with open(path, encoding="utf-8", newline="") as stream:
        return [float(row["objective"]) for row in csv.DictReader(stream)]


def read_truth_file(path) -> dict[str, str]:
    with open(path, encoding="utf-8", newline="") as stream:
        return {row["session_id"]: row["item_id"] for row in csv.DictReader(stream)}


def read_report_ranks(path) -> dict[str, int | None]:
    """Per-session ranks from an evaluation report (None on a miss)."""
    with open(path, encoding="utf-8", newline="") as stream:
        rows = list(csv.reader(stream))
    start = rows.index(["session_id", "rank"]) + 1
    return {sid: int(rank) if rank else None for sid, rank in rows[start:]}


def read_report_summary(path) -> dict[str, str]:
    """The summary row of an evaluation report, keyed by its header."""
    with open(path, encoding="utf-8", newline="") as stream:
        rows = csv.reader(stream)
        header, values = next(rows), next(rows)
    return dict(zip(header, values))


def read_report_mrr(path) -> float:
    """The MRR ``evaluate`` computed, from its report's summary row."""
    return float(read_report_summary(path)["MRR"])


def mrr_of(ranks: dict[str, int | None]) -> float:
    return sum(1.0 / r for r in ranks.values() if r) / len(ranks)


# ---------------------------------------------------------------------------
# Ingest
# ---------------------------------------------------------------------------


def check_ingest(raw_train, raw_test, corpus, test_corpus, truth) -> None:
    """Corpus counts equal direct counts of the raw logs.

    Train keeps exactly the sessions with a clickout; test keeps every
    session and hides the item of its last clickout in the truth file.
    """
    raw = read_log(raw_train)
    bookable = {
        sid: rows
        for sid, rows in raw.items()
        if any(r["action_type"] == CLICKOUT for r in rows)
    }
    got = read_log(corpus)
    require(
        len(got) == len(bookable),
        f"train corpus holds {len(got)} sessions, raw log has {len(bookable)} "
        f"with a clickout",
    )
    require(
        sum(map(len, got.values())) == sum(map(len, bookable.values())),
        "train corpus row count differs from the raw rows of bookable sessions",
    )
    require(set(got) == set(bookable), "train corpus keeps other sessions")

    raw_t = read_log(raw_test)
    got_t = read_log(test_corpus)
    require(len(got_t) == len(raw_t), "test corpus session count differs")
    require(
        sum(map(len, got_t.values())) == sum(map(len, raw_t.values())),
        "test corpus row count differs from the raw test log",
    )
    hidden = read_truth_file(truth)
    require(len(hidden) == len(raw_t), "truth file needs one row per test session")
    for sid, rows in raw_t.items():
        last = [r for r in rows if r["action_type"] == CLICKOUT][-1]
        require(
            hidden.get(sid) == last["reference"],
            f"truth for {sid} is not its last clickout's item",
        )
        blinded = [r for r in got_t[sid] if r["step"] == last["step"]][0]
        require(blinded["reference"] == "", f"target of {sid} is not hidden")


# ---------------------------------------------------------------------------
# Affinity
# ---------------------------------------------------------------------------


@by_file_version
def expected_pairs(corpus) -> dict[tuple[str, str], float]:
    """Pair -> cosine of binary session incidence, for items in at least
    ``MIN_SESSIONS`` sessions, keeping each item's ``MAX_PAIRS_PER_ITEM``
    strongest pairs (ties by id) and taking the union."""
    sessions = read_log(corpus)
    item_sessions: dict[str, set[str]] = {}
    for sid, rows in sessions.items():
        for r in rows:
            if r["reference"]:
                item_sessions.setdefault(r["reference"], set()).add(sid)
    eligible = sorted(i for i, s in item_sessions.items() if len(s) >= MIN_SESSIONS)
    index = {item: k for k, item in enumerate(eligible)}
    col = {sid: k for k, sid in enumerate(sorted(sessions))}
    incidence = np.zeros((len(eligible), len(col)), dtype=np.float32)
    for item in eligible:
        incidence[index[item], [col[s] for s in item_sessions[item]]] = 1.0
    shared = (incidence @ incidence.T).astype(np.int64)
    sizes = np.diag(shared).astype(np.float64)
    cosine = np.minimum(1.0, shared / np.sqrt(np.outer(sizes, sizes)))

    kept: dict[tuple[str, str], float] = {}
    for a, item in enumerate(eligible):
        nbrs = np.nonzero(shared[a] > 0)[0]
        nbrs = nbrs[nbrs != a]
        order = sorted(nbrs, key=lambda b: (-cosine[a, b], eligible[b]))
        for b in order[:MAX_PAIRS_PER_ITEM]:
            other = eligible[b]
            pair = (item, other) if item <= other else (other, item)
            kept[pair] = float(cosine[a, b])
    return kept


def check_affinity(corpus, pairs_path) -> None:
    """Every pair-file row equals the session-incidence cosine counted in
    the corpus, and the pair set is exactly the per-item top-k union."""
    kept = expected_pairs(corpus)
    pairs = read_pairs(pairs_path)
    missing = kept.keys() - pairs.keys()
    extra = pairs.keys() - kept.keys()
    require(not missing, f"{len(missing)} co-occurring pairs missing, e.g. {min(missing, default=None)}")
    require(not extra, f"{len(extra)} pairs not in the top-k union, e.g. {min(extra, default=None)}")
    for (i, j), p in pairs.items():
        require(i < j, f"pair ({i}, {j}) not canonically ordered")
        expect = kept[(i, j)]
        require(
            math.isclose(p, expect, rel_tol=1e-12),
            f"pair ({i}, {j}): file says {p!r}, session counts give {expect!r}",
        )


# ---------------------------------------------------------------------------
# Fit and model file
# ---------------------------------------------------------------------------


def check_fit(model_path, pairs_path, popularity_path, trace_path) -> None:
    """The trace's last objective equals f recomputed from the written
    files, inverting the law as kappa_i kappa_j (p^(-1/alpha) - 1), and the
    objective never increases along the trace."""
    alpha, lam, ids, coords, _ = read_model_file(model_path)
    kappa = read_popularity(popularity_path)
    pairs = read_pairs(pairs_path)
    index = {item: k for k, item in enumerate(ids)}
    keys = sorted(pairs)
    require(
        all(i in index and j in index for i, j in keys),
        "a pair names an item the model does not hold",
    )
    ii = np.array([index[i] for i, _ in keys])
    jj = np.array([index[j] for _, j in keys])
    p = np.array([pairs[k] for k in keys])
    kk = np.array([kappa[i] * kappa[j] for i, j in keys])
    target = kk * (p ** (-1.0 / alpha) - 1.0)
    diff = coords[ii] - coords[jj]
    residual = (diff * diff).sum(axis=1) - target
    f = float((residual * residual).sum() + lam * (coords * coords).sum())

    objectives = read_trace_objectives(trace_path)
    require(len(objectives) >= 1, "empty fit trace")
    require(
        math.isclose(f, objectives[-1], rel_tol=1e-9),
        f"objective recomputed from files {f!r} != trace {objectives[-1]!r}",
    )
    for k in range(1, len(objectives)):
        require(
            objectives[k] <= objectives[k - 1],
            f"objective rises at iteration {k}",
        )


def check_model_roundtrip(model_path, loaded_ids, loaded_coords, expected=None):
    """``read_model``'s coordinates equal the file's digits exactly, and
    ``expected`` (ids, coords), when given, equals both."""
    _, _, ids, coords, _ = read_model_file(model_path)
    require(list(loaded_ids) == ids, "read_model changed the item ids")
    require(
        np.array_equal(np.asarray(loaded_coords), coords),
        "read_model coordinates differ from the file",
    )
    if expected is not None:
        exp_ids, exp_coords = expected
        require(list(exp_ids) == ids, "model file item ids differ from the model written")
        require(
            np.array_equal(np.asarray(exp_coords), coords),
            "model file coordinates differ from the model written",
        )


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------


class IndependentRanker:
    """The proposed ranking rebuilt from a model file: global-popularity
    anchor, the connection law, and ties broken by popularity then id."""

    def __init__(self, model_path, popularity: dict[str, float] | None = None):
        self.alpha, _, ids, self.coords, self.kappa = read_model_file(model_path)
        self.ids = ids
        self.index = {item: k for k, item in enumerate(ids)}
        self.popularity = (
            popularity
            if popularity is not None
            else {item: float(k) for item, k in zip(ids, self.kappa)}
        )

    def anchor(self, session_items: list[str | None]) -> str | None:
        last = {}
        for pos, item in enumerate(session_items):
            if item is not None and item in self.popularity and item in self.index:
                last[item] = pos
        if not last:
            return None
        return min(last, key=lambda i: (-self.popularity[i], -last[i], i))

    def scores(self, anchor: str, items: list[str]) -> np.ndarray:
        a = self.index[anchor]
        known = [k for k, item in enumerate(items) if item in self.index]
        out = np.zeros(len(items))
        if known:
            idx = np.array([self.index[items[k]] for k in known])
            diff = self.coords[idx] - self.coords[a]
            d2 = (diff * diff).sum(axis=1)
            out[known] = (1.0 + d2 / (self.kappa[idx] * self.kappa[a])) ** (-self.alpha)
        return out

    def rank(self, session_items, candidates: list[str] | None, t: int):
        """(anchor, [(item, score)]) in the order the method prescribes."""
        anchor = self.anchor(session_items)
        pool = list(dict.fromkeys(candidates if candidates is not None else self.ids))
        if anchor is None:
            scored = [(c, self.popularity.get(c, 0.0)) for c in pool]
            scored.sort(key=lambda cs: (-cs[1], cs[0]))
            return None, scored[:t]
        pool = [c for c in pool if c != anchor]
        if candidates is None:
            return anchor, self._top_catalog(anchor, t)
        s = self.scores(anchor, pool)
        scored = sorted(
            zip(pool, s.tolist()),
            key=lambda cs: (-cs[1], -self.popularity.get(cs[0], 0.0), cs[0]),
        )
        return anchor, scored[:t]

    def _top_catalog(self, anchor: str, t: int):
        s = self.scores(anchor, self.ids)
        pop = np.array([self.popularity.get(i, 0.0) for i in self.ids])
        order = np.lexsort((np.arange(len(self.ids)), -pop, -s))  # ids are sorted
        a = self.index[anchor]
        return [(self.ids[k], float(s[k])) for k in order if k != a][:t]


def _near(a: float, b: float) -> bool:
    return a != b and abs(a - b) <= NEAR_TIE * max(abs(a), abs(b))


def _same_up_to_near_ties(got, want, score_of) -> bool:
    """Lists agree, allowing swaps among items whose scores nearly tie."""
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if g == w:
            continue
        sg, sw = score_of(g), score_of(w)
        if sg is None or sw is None or not _near(sg, sw):
            return False
    return True


@by_file_version
def expected_rankings(model_path, train_corpus, test_corpus, truth):
    """Session id -> (hidden item, ranked [(item, score)]) rebuilt from the
    files, with popularity counted in the train corpus as ``evaluate``
    takes it from ``--train-corpus``."""
    counts: dict[str, int] = {}
    vocab: set[str] = set()
    for rows in read_log(train_corpus).values():
        for r in rows:
            if r["reference"]:
                counts[r["reference"]] = counts.get(r["reference"], 0) + 1
                vocab.add(r["reference"])
            if r["impressions"]:
                vocab.update(tok for tok in r["impressions"].split("|") if tok)
    popularity = {item: float(max(counts.get(item, 0), 1)) for item in vocab}
    ranker = IndependentRanker(model_path, popularity)
    hidden = read_truth_file(truth)
    expected = {}
    for sid, rows in read_log(test_corpus).items():
        target = [r for r in rows if r["action_type"] == CLICKOUT and r["impressions"]][-1]
        candidates = [tok for tok in target["impressions"].split("|") if tok]
        items = [r["reference"] or None for r in rows]
        _, ranked = ranker.rank(items, candidates, len(candidates))
        expected[sid] = (hidden[sid], ranked)
    return expected


def check_proposed_ranks(model_path, train_corpus, test_corpus, truth, report) -> None:
    """Every session's rank of its hidden item equals the recomputed one."""
    expected = expected_rankings(model_path, train_corpus, test_corpus, truth)
    ranks = read_report_ranks(report)
    require(ranks.keys() == expected.keys(), "report does not cover every test session")
    for sid, (hidden, ranked) in expected.items():
        order = [item for item, _ in ranked]
        scores = dict(ranked)
        want = order.index(hidden) + 1 if hidden in order else None
        got = ranks[sid]
        if got == want:
            continue
        ok = got is not None and want is not None and all(
            item == hidden or _near(scores[item], scores[hidden])
            for item in order[min(got, want) - 1 : max(got, want)]
        )
        require(ok, f"session {sid}: report rank {got}, recomputed rank {want}")


def check_report_summary(report) -> None:
    """The summary row agrees with the report's own per-session ranks: its
    session count, its MRR and each MAP@N (hits within N / (N x sessions)),
    to within the row's 6-decimal rounding."""
    summary = read_report_summary(report)
    ranks = read_report_ranks(report)
    n = len(ranks)
    require(
        int(summary["sessions"]) == n,
        f"summary counts {summary['sessions']} sessions, report ranks {n}",
    )
    expect = {"MRR": mrr_of(ranks)}
    for column in summary:
        if column.startswith("MAP@"):
            cutoff = int(column[4:])
            hits = sum(1 for r in ranks.values() if r and r <= cutoff)
            expect[column] = hits / (cutoff * n)
    for column, value in expect.items():
        got = float(summary[column])
        require(
            abs(got - value) <= 5e-7 + 1e-12,
            f"summary {column} {got!r}, per-session ranks give {value!r}",
        )


def check_random_mrr(report, n_candidates: int = 25, standard_errors: float = 5.0):
    """A uniform permutation of n candidates has mean reciprocal rank
    H_n / n; the observed MRR lies within ``standard_errors`` of it."""
    ranks = read_report_ranks(report)
    n = len(ranks)
    recip = [1.0 / r for r in range(1, n_candidates + 1)]
    mean = sum(recip) / n_candidates
    var = sum(x * x for x in recip) / n_candidates - mean * mean
    tol = standard_errors * math.sqrt(var / n)
    got = mrr_of(ranks)
    require(
        abs(got - mean) <= tol,
        f"random MRR {got:.4f} is not within {tol:.4f} of H_{n_candidates}/{n_candidates} = {mean:.4f}",
    )


def check_ordering(mrr: dict[str, float], min_gap: float = 0.3) -> None:
    """proposed > icknn >= imknn > icpop > ipop > random, and
    proposed - random >= ``min_gap``."""
    table = "  ".join(f"{k}={v:.4f}" for k, v in mrr.items())
    require(mrr["proposed"] > mrr["icknn"], f"proposed <= icknn: {table}")
    require(mrr["icknn"] >= mrr["imknn"], f"icknn < imknn: {table}")
    require(mrr["imknn"] > mrr["icpop"], f"imknn <= icpop: {table}")
    require(mrr["icpop"] > mrr["ipop"], f"icpop <= ipop: {table}")
    require(mrr["ipop"] > mrr["random"], f"ipop <= random: {table}")
    require(
        mrr["proposed"] - mrr["random"] >= min_gap,
        f"proposed - random < {min_gap}: {table}",
    )


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------


def check_serving(model_path, requests, results, sample: list[int]) -> None:
    """Every list holds the deduplicated candidates minus the anchor (or t
    catalog items) with non-increasing scores; sampled requests equal an
    independent numpy ranking."""
    ranker = IndependentRanker(model_path)
    for k, ((items, candidates, t), (anchor, ranked)) in enumerate(zip(requests, results)):
        got = [item for item, _ in ranked]
        scores = [s for _, s in ranked]
        require(len(set(got)) == len(got), f"request {k}: duplicate items")
        require(
            all(a >= b for a, b in zip(scores, scores[1:])),
            f"request {k}: scores increase along the list",
        )
        want_anchor = ranker.anchor(items)
        require(anchor == want_anchor, f"request {k}: anchor {anchor}, expected {want_anchor}")
        if candidates is not None:
            expect = set(candidates) - {anchor}
            require(set(got) == expect, f"request {k}: list is not the candidate set")
        else:
            require(len(got) == t, f"request {k}: {len(got)} items, asked {t}")
            require(anchor not in got, f"request {k}: anchor recommended")
            require(all(i in ranker.index for i in got), f"request {k}: unknown item")
    for k in sample:
        items, candidates, t = requests[k]
        _, want = ranker.rank(items, candidates, t)
        got = [item for item, _ in results[k][1]]
        order = [item for item, _ in want]
        want_scores = dict(want)
        if candidates is None and results[k][0] is not None:
            extra = ranker.scores(results[k][0], got)
            want_scores.update(zip(got, extra.tolist()))
        require(
            got == order or _same_up_to_near_ties(got, order, want_scores.get),
            f"request {k}: ranking differs from the numpy recomputation",
        )
        if results[k][0] is not None:
            law = dict(zip(got, ranker.scores(results[k][0], got).tolist()))
            for item, score in results[k][1]:
                require(
                    math.isclose(score, law[item], rel_tol=1e-12, abs_tol=0.0),
                    f"request {k}: score of {item} is {score!r}, law gives {law[item]!r}",
                )
