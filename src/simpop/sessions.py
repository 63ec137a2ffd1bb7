"""Session log parsing, validation, and the canonical on-disk format.

A session is one user's ordered action sequence within a visit. The canonical
file format is UTF-8 CSV with a header row

    user_id,session_id,timestamp,step,action_type,reference,impressions

where ``step`` is a 1-based contiguous counter within the session,
``reference`` names the acted-on item (empty when the action touches no item,
or when a test target has been hidden), and ``impressions`` is a
pipe-separated candidate list of at most 25 items, attached to clickout rows.
Files ending in ``.gz`` are read and written gzip-compressed. The column
layout mirrors the public Trivago/RecSys-2019 session logs, so those load
as they are; extra columns are ignored.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import io
import logging
import math
import re
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ParseError, ValidationError

log = logging.getLogger(__name__)

#: Action type string of the distinguished clickout kind. Any other string is
#: treated as a generic item interaction.
CLICKOUT = "clickout item"

MAX_IMPRESSIONS = 25

#: Characters an item id must not contain: the model and affinity files are
#: tab-separated and line-based, and their readers use universal newlines.
_ID_BREAKS = re.compile("[\t\n\r]")

_CANONICAL_COLUMNS = (
    "user_id",
    "session_id",
    "timestamp",
    "step",
    "action_type",
    "reference",
    "impressions",
)


class Role(Enum):
    TRAIN = "train"
    TEST = "test"


@dataclass(frozen=True)
class Action:
    """One logged user action within a session."""

    session_id: str
    user_id: str
    step: int
    action_type: str
    item_ref: str | None
    impressions: tuple[str, ...] | None
    timestamp: int

    @property
    def is_clickout(self) -> bool:
        return self.action_type == CLICKOUT


@dataclass(frozen=True)
class SessionCorpus:
    """Immutable collection of validated sessions.

    ``sessions`` maps session_id to the step-ordered action tuple. The item
    views below are derived from them on first use and kept.
    """

    sessions: dict[str, tuple[Action, ...]]
    role: Role

    @cached_property
    def item_vocabulary(self) -> tuple[str, ...]:
        """Every item seen as a reference or inside an impression list,
        sorted: an item's code is its position here."""
        acts = [a for session in self.sessions.values() for a in session]
        vocab = {a.item_ref for a in acts if a.item_ref is not None}
        vocab.update(*(a.impressions for a in acts if a.impressions))
        return tuple(sorted(vocab))

    @cached_property
    def item_actions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every action that names an item, in session and then step order,
        as three arrays: the position of its session in ``sessions``
        (int64), the item's code (int64) and whether it is a clickout."""
        n = len(self.item_vocabulary)
        code = {item: k for k, item in enumerate(self.item_vocabulary)}
        # one int per row: (session * n + item) * 2 + clickout
        rows = [
            (s * n + code[a.item_ref]) * 2 + a.is_clickout
            for s, acts in enumerate(self.sessions.values())
            for a in acts
            if a.item_ref is not None
        ]
        rows, clickout = np.divmod(np.array(rows, dtype=np.int64), 2)
        arrays = (*np.divmod(rows, n), clickout.astype(bool))
        for array in arrays:
            array.flags.writeable = False  # every reader shares them
        return arrays

    @property
    def n_sessions(self) -> int:
        return len(self.sessions)

    @property
    def n_actions(self) -> int:
        return sum(len(a) for a in self.sessions.values())

    @classmethod
    def from_actions(cls, actions: Iterable[Action], role: Role) -> "SessionCorpus":
        """Group actions by session, order by step, and validate invariants."""
        grouped: dict[str, list[Action]] = {}
        for a in actions:
            grouped.setdefault(a.session_id, []).append(a)
        sessions = {
            sid: _validate_session(sid, acts) for sid, acts in grouped.items()
        }
        return cls(sessions, role)


def _validate_session(sid: str, actions: list[Action]) -> tuple[Action, ...]:
    actions = sorted(actions, key=lambda a: a.step)
    prev = 0
    for a in actions:
        if prev and a.step == prev:
            raise ValidationError(f"session {sid}: duplicate step {a.step}")
        if a.step != prev + 1:
            raise ValidationError(
                f"session {sid}: steps must be contiguous from 1, "
                f"found {a.step} after {prev}"
            )
        prev = a.step
        if a.impressions is not None and len(a.impressions) > MAX_IMPRESSIONS:
            raise ValidationError(
                f"session {sid} step {a.step}: {len(a.impressions)} impressions "
                f"exceed the maximum of {MAX_IMPRESSIONS}"
            )
        if a.is_clickout:
            if not a.impressions:
                raise ValidationError(
                    f"session {sid} step {a.step}: clickout without impressions"
                )
            if a.item_ref is not None and a.item_ref not in a.impressions:
                raise ValidationError(
                    f"session {sid} step {a.step}: clicked item {a.item_ref} "
                    f"not in its impression list"
                )
    return tuple(actions)


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------


def parse_session_log(
    source: str | Path | IO,
    role: Role = Role.TRAIN,
) -> SessionCorpus:
    """Parse a comma-separated session log into a validated corpus.

    Args:
        source: path to a (optionally ``.gz``) file, or an open stream, with
            the canonical columns in any order.
        role: corpus role to stamp on the result.

    Raises:
        ParseError: wrong column count, unknown required column, a
            non-integer step/timestamp, or a row the CSV reader rejects
            (e.g. an over-long field), with the offending line number.
        ValidationError: duplicate or non-contiguous steps, or a clickout
            violating the impression invariants.
    """
    with _open_text(source) as stream:
        rows = _numbered_rows(stream)
        _, header = next(rows, (1, None))
        if header is None:
            raise ParseError("empty input, expected a header row", 1)
        col_index: dict[str, int] = {}
        for column in _CANONICAL_COLUMNS:
            try:
                col_index[column] = header.index(column)
            except ValueError:
                raise ParseError(
                    f"required column {column!r} not in header", 1
                ) from None

        actions: list[Action] = []
        n_cols = len(header)
        for line, row in rows:
            if not row:
                continue
            if len(row) != n_cols:
                raise ParseError(
                    f"expected {n_cols} columns, got {len(row)}", line
                )
            actions.append(_row_to_action(row, col_index, line))
    return SessionCorpus.from_actions(actions, role)


def _numbered_rows(stream: IO) -> Iterator[tuple[int, list[str]]]:
    """CSV rows, each with the line it starts on (a quoted field may span
    lines). A row the reader rejects raises ParseError naming that line."""
    reader = csv.reader(stream)
    line = 1
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(f"unreadable CSV row: {exc}", line) from None
        yield line, row
        line = reader.line_num + 1


def _row_to_action(row: list[str], col: Mapping[str, int], line: int) -> Action:
    def _int(field: str) -> int:
        raw = row[col[field]]
        try:
            return int(raw)
        except ValueError:
            raise ParseError(f"non-integer {field} {raw!r}", line) from None

    ref = row[col["reference"]].strip()
    imp_raw = row[col["impressions"]].strip()
    for name, raw in (("reference", ref), ("impressions", imp_raw)):
        if _ID_BREAKS.search(raw):
            raise ParseError(
                f"{name} {raw!r} holds a tab or line break, which the "
                f"tab-separated model and graph files cannot carry",
                line,
            )
    impressions = (
        tuple(tok for tok in imp_raw.split("|") if tok) if imp_raw else None
    )
    return Action(
        session_id=row[col["session_id"]],
        user_id=row[col["user_id"]],
        step=_int("step"),
        action_type=row[col["action_type"]],
        item_ref=ref or None,
        impressions=impressions,
        timestamp=_int("timestamp"),
    )


@contextlib.contextmanager
def _open_text(source: str | Path | IO) -> Iterator[IO]:
    """The source as text; a caller-owned stream stays open."""
    if isinstance(source, (str, Path)):
        opener = gzip.open if Path(source).suffix == ".gz" else open
        with opener(source, "rt", encoding="utf-8", newline="") as stream:
            yield stream
    elif isinstance(source, io.TextIOBase):
        yield source
    else:
        wrapper = io.TextIOWrapper(source, encoding="utf-8", newline="")
        try:
            yield wrapper
        finally:
            wrapper.detach()  # or the wrapper closes the stream it wraps


def write_corpus(corpus: SessionCorpus, path: str | Path) -> None:
    """Write a corpus in the canonical CSV format (gzip if path ends .gz).

    Sessions are ordered by id and actions by step, so output bytes are a
    deterministic function of the corpus.
    """
    path = Path(path)
    if path.suffix == ".gz":
        # fixed mtime and empty name keep gzip output byte-stable across runs
        raw = open(path, "wb")
        stream: IO = io.TextIOWrapper(
            gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0),
            encoding="utf-8",
            newline="",
        )
    else:
        raw = None
        stream = open(path, "w", encoding="utf-8", newline="")
    try:
        writer = csv.writer(stream)
        writer.writerow(_CANONICAL_COLUMNS)
        for sid in sorted(corpus.sessions):
            for a in corpus.sessions[sid]:
                writer.writerow(
                    (
                        a.user_id,
                        a.session_id,
                        a.timestamp,
                        a.step,
                        a.action_type,
                        a.item_ref or "",
                        "|".join(a.impressions) if a.impressions else "",
                    )
                )
    finally:
        stream.close()
        if raw is not None:
            raw.close()


def write_truth(truth: Mapping[str, str], path: str | Path) -> None:
    """Write a hidden-target map as CSV ``session_id,item_id``."""
    with open(path, "w", encoding="utf-8", newline="") as stream:
        writer = csv.writer(stream)
        writer.writerow(("session_id", "item_id"))
        for sid in sorted(truth):
            writer.writerow((sid, truth[sid]))


def read_truth(path: str | Path) -> dict[str, str]:
    """Read a hidden-target map written by ``write_truth``."""
    with open(path, "r", encoding="utf-8", newline="") as stream:
        rows = _numbered_rows(stream)
        if next(rows, (1, None))[1] != ["session_id", "item_id"]:
            raise ParseError("expected header 'session_id,item_id'", 1)
        truth: dict[str, str] = {}
        for line, row in rows:
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(
                    f"malformed truth row in {path}: {len(row)} fields, expected 2",
                    line,
                )
            if row[0] in truth:
                raise ParseError(f"repeated session {row[0]!r} in {path}", line)
            truth[row[0]] = row[1]
        return truth


# ---------------------------------------------------------------------------
# Corpus transforms
# ---------------------------------------------------------------------------


def filter_bookable_sessions(corpus: SessionCorpus) -> SessionCorpus:
    """Keep only sessions that contain at least one clickout action."""
    if corpus.role is not Role.TRAIN:
        raise ValidationError("filter_bookable_sessions expects a TRAIN corpus")
    kept = {
        sid: acts
        for sid, acts in corpus.sessions.items()
        if any(a.is_clickout for a in acts)
    }
    dropped = len(corpus.sessions) - len(kept)
    if dropped:
        log.info("dropped %d sessions without a clickout (%d kept)", dropped, len(kept))
    return SessionCorpus(kept, corpus.role)


def hide_test_targets(
    corpus: SessionCorpus,
) -> tuple[SessionCorpus, dict[str, str]]:
    """Blank the final clickout's item of every test session.

    Returns the blinded corpus plus the truth map session_id -> hidden item.
    The impression list of the blanked clickout is retained, since it is the
    candidate set the ranker must reorder.
    """
    if corpus.role is not Role.TEST:
        raise ValidationError("hide_test_targets expects a TEST corpus")
    blinded: dict[str, tuple[Action, ...]] = {}
    truth: dict[str, str] = {}
    for sid, acts in corpus.sessions.items():
        target_idx = _last_clickout_index(acts)
        if target_idx is None:
            raise ValidationError(f"session {sid}: no clickout to hide")
        target = acts[target_idx]
        if target.item_ref is None:
            raise ValidationError(
                f"session {sid}: final clickout has no revealed item"
            )
        truth[sid] = target.item_ref
        hidden = replace(target, item_ref=None)
        blinded[sid] = acts[:target_idx] + (hidden,) + acts[target_idx + 1 :]
    return SessionCorpus(blinded, corpus.role), truth


def _last_clickout_index(acts: Sequence[Action]) -> int | None:
    for idx in range(len(acts) - 1, -1, -1):
        if acts[idx].is_clickout:
            return idx
    return None


def prepare_holdout(
    corpus: SessionCorpus,
) -> tuple[SessionCorpus, dict[str, str], int]:
    """Turn any clickout-bearing corpus into a blinded holdout set.

    Sessions without a hideable final clickout are dropped rather than
    rejected, which is what evaluation over an arbitrary split needs.
    Returns (blinded corpus, truth map, number of dropped sessions).
    """
    usable: dict[str, tuple[Action, ...]] = {}
    for sid, acts in corpus.sessions.items():
        idx = _last_clickout_index(acts)
        if idx is not None and acts[idx].item_ref is not None:
            usable[sid] = acts
    dropped = len(corpus.sessions) - len(usable)
    blinded, truth = hide_test_targets(SessionCorpus(usable, Role.TEST))
    return blinded, truth, dropped


def subsample_sessions(
    corpus: SessionCorpus,
    fraction: float,
    seed: int = 0,
) -> SessionCorpus:
    """Draw a deterministic session subsample.

    The draw preserves the session-length distribution: sessions are
    bucketed by action count and sampled independently, rounding each
    bucket's quota.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    buckets: dict[int, list[str]] = {}
    for sid in sorted(corpus.sessions):
        buckets.setdefault(len(corpus.sessions[sid]), []).append(sid)
    chosen: list[str] = []
    for key in sorted(buckets):
        sids = buckets[key]
        quota = int(round(fraction * len(sids)))
        if quota:
            picked = rng.choice(len(sids), size=quota, replace=False)
            chosen.extend(sids[i] for i in sorted(picked))
    kept = {sid: corpus.sessions[sid] for sid in chosen}
    return SessionCorpus(kept, corpus.role)


def split_by_time(
    corpus: SessionCorpus, holdout_fraction: float = 0.1
) -> tuple[SessionCorpus, SessionCorpus]:
    """Split off the chronologically last fraction of sessions.

    Ordering is by first-action timestamp with session id as tiebreaker;
    returns (head, tail) corpora with the original role.
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    order = sorted(
        corpus.sessions, key=lambda sid: (corpus.sessions[sid][0].timestamp, sid)
    )
    n_tail = max(1, math.ceil(holdout_fraction * len(order))) if order else 0
    head_ids, tail_ids = order[: len(order) - n_tail], order[len(order) - n_tail :]

    def _sub(ids: list[str]) -> SessionCorpus:
        kept = {sid: corpus.sessions[sid] for sid in ids}
        return SessionCorpus(kept, corpus.role)

    return _sub(head_ids), _sub(tail_ids)
