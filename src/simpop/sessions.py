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

A ``SessionCorpus`` is columns: numpy arrays with one row per action, plus
the tables their codes index. The parser codes the CSV rows into them as
they stream, a batch at a time, and the item views, counts, transforms and
writer read them as they are. ``Action`` is a view, built only for a caller
that reads ``sessions``.

A corpus has one order, set where it is built: sessions by id, each
session's actions by step, and every table (vocabulary, users, action
kinds) sorted, holding only what the rows name. Every transform keeps it
and the writer writes it, so a written corpus parses back equal, in every
column and table. An impressions field holding no id (empty, or only
``|``) is no list.

``simpop ingest`` writes, next to the corpus file, its columnar companion
(``<path>.columns``, see ``write_columns``): the columns and tables, and the
SHA-256 of the file's bytes. ``parse_session_log``, given a path, loads the
companion instead of parsing when its digest is the file's and its columns
pass their checks; otherwise it parses. The CSV stays the canonical file,
and the companion is a checked cache of it.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import hashlib
import io
import json
import logging
import math
import re
from array import array
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from itertools import chain, count, islice
from operator import attrgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, NoReturn, Sequence, TypeVar

import numpy as np

from .errors import ParseError, ValidationError

log = logging.getLogger(__name__)

#: Action type string of the distinguished clickout kind. Any other string is
#: treated as a generic item interaction.
CLICKOUT = "clickout item"

MAX_IMPRESSIONS = 25

#: the share of sessions ``split_by_time`` holds out unless told otherwise
HOLDOUT_FRACTION = 0.1

#: Characters an item id must not contain: the model and affinity files are
#: tab-separated and line-based, and their readers use universal newlines.
_ID_BREAKS = re.compile("[\t\n\r]")
#: the line breaks a text stream read with ``newline=""`` splits lines on
_LINE_BREAKS = re.compile("\r\n|\r|\n")
#: what makes the ``excel`` CSV dialect quote a field
_CSV_SPECIAL = re.compile('[,"\r\n]')
#: rows ``write_corpus`` formats into one string before it writes them
_WRITE_BATCH = 4096

#: the range of a step or timestamp column (int64)
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

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


@dataclass(frozen=True, eq=False, repr=False)
class SessionCorpus:
    """Immutable collection of validated sessions, held as columns.

    Rows are the corpus's actions, ordered by session and then by step, and
    sessions are ordered by id: ``session_ids`` is sorted. Session ``s`` is
    named ``session_ids[s]`` and owns rows ``offsets[s]:offsets[s + 1]``.
    Per row, ``step`` and ``timestamp`` are int64; ``kind`` and ``user`` are
    codes into ``kinds`` and ``users``; ``item`` is a code into
    ``item_vocabulary``, or -1 when the action names no item; and the
    impression list holds the codes
    ``impressions[impression_offsets[r]:impression_offsets[r + 1]]``, where
    an empty run is no list. Every array is read-only.

    ``sessions`` views the rows as ``Action`` tuples; it is built on first
    read and kept, and the item views, counts and transforms never read it.
    ``sources`` names the files the corpus was read from: the CSV, and its
    companion when the columns came from there; none for a stream or a
    corpus built from actions. ``_digests`` pairs each source the load
    hashed with its SHA-256, for a caller that records the files it read.
    Transforms keep both.
    """

    role: Role
    session_ids: tuple[str, ...]
    offsets: np.ndarray
    step: np.ndarray
    timestamp: np.ndarray
    kinds: tuple[str, ...]
    kind: np.ndarray
    users: tuple[str, ...]
    user: np.ndarray
    item_vocabulary: tuple[str, ...]
    item: np.ndarray
    impression_offsets: np.ndarray
    impressions: np.ndarray
    sources: tuple[Path, ...] = ()
    _digests: tuple[tuple[Path, str], ...] = ()

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False  # transforms share them

    def __eq__(self, other: object) -> bool:
        """The same role and the same sessions."""
        if not isinstance(other, SessionCorpus):
            return NotImplemented
        return self.role is other.role and self.sessions == other.sessions

    @property
    def n_sessions(self) -> int:
        return len(self.session_ids)

    @property
    def n_actions(self) -> int:
        return len(self.step)

    @property
    def clickout(self) -> np.ndarray:
        """Whether each row is a clickout."""
        return np.array([k == CLICKOUT for k in self.kinds], dtype=bool)[self.kind]

    @property
    def row_session(self) -> np.ndarray:
        """Each row's session position."""
        return _owners(self.offsets)

    @cached_property
    def item_actions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every action that names an item, in session and then step order,
        as three arrays: the position of its session in ``session_ids``
        (int64), the item's code (int64) and whether it is a clickout."""
        named = self.item >= 0
        arrays = (self.row_session[named], self.item[named], self.clickout[named])
        for array in arrays:
            array.flags.writeable = False  # every reader shares them
        return arrays

    @cached_property
    def item_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Each vocabulary item's action count and clickout count (int64),
        indexed by code, from ``item_actions``."""
        _, item, clickout = self.item_actions
        n = len(self.item_vocabulary)
        arrays = (np.bincount(item, minlength=n), np.bincount(item[clickout], minlength=n))
        for array in arrays:
            array.flags.writeable = False  # every reader shares them
        return arrays

    @cached_property
    def candidates(self) -> tuple[np.ndarray, np.ndarray]:
        """What each session reranks: its last clickout's impressions, each
        once in first-seen order, as item codes (int64), and their offsets
        by session. Session ``s`` reranks ``codes[offsets[s]:offsets[s + 1]]``,
        an empty run when it has no clickout."""
        target = _last_clickouts(self)
        bounds = self.impression_offsets
        shown = np.where(target >= 0, bounds[target + 1] - bounds[target], 0)
        listed = self.impressions[_ranges(bounds[target], shown)]
        owner = np.repeat(np.arange(self.n_sessions), shown)
        keys = owner * len(self.item_vocabulary) + listed
        first = np.sort(np.unique(keys, return_index=True)[1])
        counts = np.bincount(owner[first], minlength=self.n_sessions)
        arrays = (listed[first], _offsets(counts))
        for array in arrays:
            array.flags.writeable = False  # every ranker shares them
        return arrays

    @cached_property
    def sessions(self) -> dict[str, tuple[Action, ...]]:
        """Session id -> its step-ordered ``Action`` tuple, in id order."""
        user, sid, timestamp, step, kind, item, shown = _decode(
            self, lambda ids: tuple(ids) or None
        )
        actions = list(map(Action, sid, user, step, kind, item, shown, timestamp))
        ends = self.offsets.tolist()
        return {
            sid: tuple(actions[a:b])
            for sid, a, b in zip(self.session_ids, ends, ends[1:])
        }

    def session(self, sid: str) -> tuple[Action, ...]:
        """One session's ``Action`` tuple, built without the others'.
        Raises KeyError for an id the corpus does not hold."""
        s = bisect_left(self.session_ids, sid)
        if self.session_ids[s : s + 1] != (sid,):
            raise KeyError(sid)
        return _take(self, np.array([s])).sessions[sid]

    @classmethod
    def from_actions(cls, actions: Iterable[Action], role: Role) -> "SessionCorpus":
        """Group actions by session, order by step, and validate invariants,
        among them that the canonical file carries every action as it is:
        ValidationError names the session and step of an action it would
        not (see ``_check_carried``)."""
        columns = _Columns()
        fields = map(_ACTION_FIELDS, actions)
        while batch := list(islice(fields, _BATCH)):
            try:
                columns.add(*zip(*batch))
            except OverflowError:
                _check_64_bits(batch)
                raise
        corpus = columns.corpus(role)
        _check_carried(corpus)
        return corpus


#: an Action's fields in the order ``_Columns.add`` takes them
_ACTION_FIELDS = attrgetter(
    "session_id", "user_id", "step", "timestamp", "action_type", "item_ref", "impressions"
)

#: rows coded per batch: each column of a batch is coded in one C-level
#: pass, and a small batch leaves few row lists alive for the garbage
#: collector to scan (256 parsed faster than 32 or 4096 rows)
_BATCH = 256


class _Columns:
    """A corpus's columns while its rows arrive, in any order, a batch at a
    time. Each batch is coded on arrival, every table by first appearance,
    until ``corpus`` sorts the tables. No row is kept as a Python object."""

    #: the columns, one value per row; ``shown`` counts a row's impressions
    #: (0 for no list), and ``impressions`` holds their codes, row after row
    _FIELDS = (
        "session", "user", "kind", "step", "timestamp", "item", "shown", "impressions"
    )

    def __init__(self):
        # each table gives a key not seen before the next code
        self.sessions: dict[str, int] = defaultdict(count().__next__)
        self.users: dict[str, int] = defaultdict(count().__next__)
        self.kinds: dict[str, int] = defaultdict(count().__next__)
        self.items: dict[str, int] = defaultdict(count().__next__)
        self.columns = {field: array("q") for field in self._FIELDS}

    def add(
        self,
        session_ids: Sequence[str],
        user_ids: Sequence[str],
        steps: Sequence[int],
        timestamps: Sequence[int],
        action_types: Sequence[str],
        items: Sequence[str | None],
        impressions: Sequence[Sequence[str] | None],
    ) -> None:
        """Code a batch of rows, given as equal-length columns. A step or
        timestamp beyond 64 bits raises OverflowError; an empty impression
        list is no list."""
        columns, code = self.columns, self.items.__getitem__
        columns["session"].extend(map(self.sessions.__getitem__, session_ids))
        columns["user"].extend(map(self.users.__getitem__, user_ids))
        columns["kind"].extend(map(self.kinds.__getitem__, action_types))
        columns["step"].extend(steps)
        columns["timestamp"].extend(timestamps)
        columns["item"].extend([-1 if item is None else code(item) for item in items])
        columns["shown"].extend(
            [len(listed) if listed else 0 for listed in impressions]
        )
        columns["impressions"].extend(
            map(code, chain.from_iterable(filter(None, impressions)))
        )

    def corpus(
        self,
        role: Role,
        sources: tuple[Path, ...] = (),
        digests: tuple[tuple[Path, str], ...] = (),
    ) -> SessionCorpus:
        """The rows ordered by session id and step, with every code into its
        sorted table, validated. Each column is freed as soon as its ordered
        copy is made, so the builder is spent."""
        session_ids, by_session = _sorted_table(self.sessions)
        vocabulary, by_item = _sorted_table(self.items)
        kinds, by_kind = _sorted_table(self.kinds)
        users, by_user = _sorted_table(self.users)
        session, step = by_session[self._pop("session")], self._pop("step")
        rows = np.lexsort((step, session))  # stable: a repeated step keeps file order
        offsets = _offsets(np.bincount(session, minlength=len(session_ids)))
        shown = self._pop("shown")
        lengths = shown[rows]
        taken = _ranges(_offsets(shown)[:-1][rows], lengths)
        corpus = SessionCorpus(
            role=role,
            session_ids=session_ids,
            offsets=offsets,
            step=step[rows],
            timestamp=self._pop("timestamp")[rows],
            kinds=kinds,
            kind=by_kind[self._pop("kind")[rows]],
            users=users,
            user=by_user[self._pop("user")[rows]],
            item_vocabulary=vocabulary,
            item=by_item[self._pop("item")[rows]],
            impression_offsets=_offsets(lengths),
            impressions=by_item[self._pop("impressions")[taken]],
            sources=sources,
            _digests=digests,
        )
        del session, step, shown, taken
        _validate(corpus)
        return corpus

    def _pop(self, field: str) -> np.ndarray:
        """A column as an array; the builder lets go of it."""
        return np.frombuffer(self.columns.pop(field), dtype=np.int64)


def _sorted_table(table: dict[str, int]) -> tuple[tuple[str, ...], np.ndarray]:
    """A code table's keys in sorted order, and the array that maps each
    code to its key's position there; its extra last slot maps -1 to -1."""
    keys = list(table)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    recode = np.empty(len(keys) + 1, dtype=np.int64)
    recode[order] = np.arange(len(keys))
    recode[-1] = -1
    return tuple(keys[k] for k in order), recode


def _kept(table: tuple[str, ...], *codes: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """The table's entries that these codes name, in table order, and the
    array that maps each old code to its new one (the extra last slot maps
    -1 to -1), as ``_sorted_table`` gives them."""
    used = np.zeros(len(table) + 1, dtype=bool)
    for named in codes:
        used[named] = True  # code -1 lands on the extra slot
    kept = np.flatnonzero(used[:-1])
    recode = np.full(len(used), -1, dtype=np.int64)
    recode[kept] = np.arange(len(kept))
    return tuple(table[k] for k in kept.tolist()), recode


def _names(table: tuple[str, ...], codes: np.ndarray) -> list:
    """The table's entries at these codes; code -1 gives None."""
    return np.array(table + (None,), dtype=object)[codes].tolist()


def _decode(corpus: SessionCorpus, listing) -> tuple[list, ...]:
    """The corpus's rows, in its order, as one list per canonical column:
    user id, session id, timestamp, step, action type, reference (None for
    no item), and ``listing`` of each row's impression ids."""
    vocab = corpus.item_vocabulary
    shown = _names(vocab, corpus.impressions)
    bounds = corpus.impression_offsets.tolist()
    return (
        _names(corpus.users, corpus.user),
        _names(corpus.session_ids, corpus.row_session),
        corpus.timestamp.tolist(),
        corpus.step.tolist(),
        _names(corpus.kinds, corpus.kind),
        _names(vocab, corpus.item),
        [listing(shown[a:b]) for a, b in zip(bounds, bounds[1:])],
    )


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """CSR offsets of consecutive runs of these lengths."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _owners(offsets: np.ndarray) -> np.ndarray:
    """Each element's run, for consecutive runs with these CSR offsets."""
    return np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices ``start..start + length`` of every run, concatenated."""
    shift = starts - _offsets(lengths)[:-1]
    return np.repeat(shift, lengths) + np.arange(lengths.sum(), dtype=np.int64)


def _validate(corpus: SessionCorpus) -> None:
    """Raise ValidationError for the first faulty action, in session and then
    step order, naming the first check it fails."""
    step = corpus.step
    prev = np.zeros_like(step)
    prev[1:] = step[:-1]
    prev[corpus.offsets[:-1]] = 0  # a session starts from step 0
    shown = np.diff(corpus.impression_offsets)
    clickout = corpus.clickout
    owner = np.repeat(np.arange(len(step)), shown)
    in_list = np.zeros(len(step), dtype=bool)
    in_list[owner[corpus.impressions == corpus.item[owner]]] = True
    duplicate = (prev != 0) & (step == prev)
    gap = step != prev + 1
    crowded = shown > MAX_IMPRESSIONS
    bare = clickout & (shown == 0)
    stray = clickout & (corpus.item >= 0) & ~in_list
    faulty = duplicate | gap | crowded | bare | stray
    if not faulty.any():
        return
    r = int(np.argmax(faulty))
    sid = corpus.session_ids[int(np.searchsorted(corpus.offsets, r, side="right")) - 1]
    at = int(step[r])
    if duplicate[r]:
        raise ValidationError(f"session {sid}: duplicate step {at}")
    if gap[r]:
        raise ValidationError(
            f"session {sid}: steps must be contiguous from 1, "
            f"found {at} after {int(prev[r])}"
        )
    if crowded[r]:
        raise ValidationError(
            f"session {sid} step {at}: {int(shown[r])} impressions "
            f"exceed the maximum of {MAX_IMPRESSIONS}"
        )
    if bare[r]:
        raise ValidationError(f"session {sid} step {at}: clickout without impressions")
    raise ValidationError(
        f"session {sid} step {at}: clicked item "
        f"{corpus.item_vocabulary[corpus.item[r]]} not in its impression list"
    )


def _check_64_bits(actions: Sequence[tuple]) -> None:
    """Raise ValidationError for the first of these ``_ACTION_FIELDS``
    tuples whose step or timestamp is beyond 64 bits."""
    for sid, _, step, timestamp, *_ in actions:
        for name, value in (("step", step), ("timestamp", timestamp)):
            if not _INT64_MIN <= value <= _INT64_MAX:
                raise ValidationError(
                    f"session {sid} step {step}: {name} {value} does not fit in 64 bits"
                )


def _check_carried(corpus: SessionCorpus) -> None:
    """Raise ValidationError for the first action, in session and then step
    order, that writing the corpus and parsing it back would change or
    reject, by the parse's own reading of the fields (``_read_ids``)."""
    vocab = list(corpus.item_vocabulary)
    with contextlib.suppress(ValueError):
        if _read_ids(vocab, vocab) == (vocab, [(item,) for item in vocab]):
            return  # every id comes back as it is, alone or in a list
    _, sids, _, steps, _, refs, lists = _decode(corpus, tuple)
    for sid, step, ref, ids in zip(sids, steps, refs, lists):
        listed = "|".join(ids)
        if _ID_BREAKS.search(f"{ref or ''}{listed}"):
            raise ValidationError(
                f"session {sid} step {step}: an id holds a tab or line break"
            )
        (back_ref,), (back_ids,) = _read_ids([ref or ""], [listed])
        if (back_ref, back_ids) != (ref, ids):
            raise ValidationError(
                f"session {sid} step {step}: reference {ref!r} and impressions {ids!r} "
                f"would be read back as {back_ref!r} and {back_ids!r}"
            )


def _take(
    corpus: SessionCorpus, sessions: np.ndarray, role: Role | None = None
) -> SessionCorpus:
    """The sessions at these positions, in id order whatever the order of
    the positions; each table keeps the entries their rows name or list."""
    sessions = np.sort(sessions)
    lengths = np.diff(corpus.offsets)[sessions]
    rows = _ranges(corpus.offsets[sessions], lengths)
    bounds = corpus.impression_offsets
    shown = np.diff(bounds)[rows]
    item, kind, user = corpus.item[rows], corpus.kind[rows], corpus.user[rows]
    impressions = corpus.impressions[_ranges(bounds[rows], shown)]
    vocabulary, by_item = _kept(corpus.item_vocabulary, item, impressions)
    kinds, by_kind = _kept(corpus.kinds, kind)
    users, by_user = _kept(corpus.users, user)
    return replace(
        corpus,
        role=role or corpus.role,
        session_ids=tuple(corpus.session_ids[s] for s in sessions.tolist()),
        offsets=_offsets(lengths),
        step=corpus.step[rows],
        timestamp=corpus.timestamp[rows],
        kinds=kinds,
        kind=by_kind[kind],
        users=users,
        user=by_user[user],
        item_vocabulary=vocabulary,
        item=by_item[item],
        impression_offsets=_offsets(shown),
        impressions=by_item[impressions],
    )


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------


def parse_session_log(
    source: str | Path | IO,
    role: Role = Role.TRAIN,
) -> SessionCorpus:
    """Parse a comma-separated session log into a validated corpus.

    The rows are coded into the corpus's columns as they are read, a batch
    at a time; no row is kept as a Python object.

    Given a path whose columnar companion (``<path>.columns``, written by
    ``write_columns``) records the SHA-256 of the file's bytes, the corpus
    is loaded from the companion instead, checked and validated; a missing,
    stale or faulty companion is ignored and the file parsed. A stream is
    always parsed.

    Args:
        source: path to a (optionally ``.gz``) file, or an open stream, with
            the canonical columns in any order.
        role: corpus role to stamp on the result.

    Raises:
        ParseError: wrong column count, unknown required column, a
            non-integer step/timestamp or one beyond 64 bits, or a row the
            CSV reader rejects (e.g. an over-long field), with the offending
            line number.
        ValidationError: duplicate or non-contiguous steps, or a clickout
            violating the impression invariants.
    """
    sources: tuple[Path, ...] = ()
    digests: tuple[tuple[Path, str], ...] = ()
    if isinstance(source, (str, Path)):
        path = Path(source)
        sources = (path,)
        loaded, digests = _load_companion(
            path, _COLUMN_SECTIONS,
            lambda sections, digest: _columns_corpus(sections, role, path, digest),
        )
        if loaded is not None:
            return loaded
    with _open_text(source) as stream:
        reader = csv.reader(stream)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise ParseError(f"unreadable CSV row: {exc}", 1) from None
        if header is None:
            raise ParseError("empty input, expected a header row", 1)
        for column in _CANONICAL_COLUMNS:
            if column not in header:
                raise ParseError(f"required column {column!r} not in header", 1)
        col = [header.index(column) for column in _CANONICAL_COLUMNS]
        columns = _Columns()
        while True:
            line = reader.line_num + 1  # where the batch's first row starts
            batch: list[list[str]] = []
            try:
                batch.extend(islice(reader, _BATCH))  # keeps rows read before a fault
            except csv.Error as exc:
                _code_log_batch(columns, batch, line, col, len(header))
                line += sum(map(_lines_of, batch))
                raise ParseError(f"unreadable CSV row: {exc}", line) from None
            if not batch:
                break
            _code_log_batch(columns, batch, line, col, len(header))
    return columns.corpus(role, sources, digests)


def _code_log_batch(
    columns: _Columns, batch: list[list[str]], line: int, col: list[int], n_cols: int
) -> None:
    """Code a batch of CSV rows, the first starting at ``line``. A batch
    that holds a row fault raises its first one instead."""
    rows = batch if all(batch) else list(filter(None, batch))  # skip blank lines
    if not rows:
        return
    if set(map(len, rows)) != {n_cols}:
        _first_row_fault(batch, line, col, n_cols)
    fields = list(zip(*rows))
    c_user, c_session, c_time, c_step, c_kind, c_ref, c_shown = col
    try:
        columns.add(
            fields[c_session],
            fields[c_user],
            list(map(int, fields[c_step])),
            list(map(int, fields[c_time])),
            fields[c_kind],
            *_read_ids(fields[c_ref], fields[c_shown]),
        )
    except (ValueError, OverflowError):  # int(), _read_ids or the columns reject a field
        _first_row_fault(batch, line, col, n_cols)


def _read_ids(
    refs: Sequence[str], fields: Sequence[str]
) -> tuple[list[str | None], list[tuple[str, ...]]]:
    """The parse's reading of a column of reference fields and one of
    impressions fields: each field stripped, an empty reference as none, and
    the impressions field split on ``|``, empty ids dropped (no id is no
    list). Raises ValueError naming a stripped field with a tab or line break."""
    refs, fields = list(map(str.strip, refs)), list(map(str.strip, fields))
    for name, column in (("reference", refs), ("impressions", fields)):
        if _ID_BREAKS.search("".join(column)):
            raw = next(filter(_ID_BREAKS.search, column))
            raise ValueError(
                f"{name} {raw!r} holds a tab or line break, which the "
                f"tab-separated model and graph files cannot carry"
            )
    return (
        [ref or None for ref in refs],
        [tuple(filter(None, listed.split("|"))) if listed else () for listed in fields],
    )


def _first_row_fault(
    batch: list[list[str]], line: int, col: list[int], n_cols: int
) -> NoReturn:
    """Raise ParseError for a batch's first faulty row, the batch's first
    row starting at ``line``. A row's faults are checked in this order: its
    column count, an id holding a tab or line break, then a step or
    timestamp that is not an integer or does not fit in 64 bits."""
    c_user, c_session, c_time, c_step, c_kind, c_ref, c_shown = col
    for row in batch:
        if row:
            if len(row) != n_cols:
                raise ParseError(f"expected {n_cols} columns, got {len(row)}", line)
            try:
                _read_ids([row[c_ref]], [row[c_shown]])
            except ValueError as fault:
                raise ParseError(str(fault), line) from None
            for name, raw in (("step", row[c_step]), ("timestamp", row[c_time])):
                try:
                    value = int(raw)
                except ValueError:
                    raise ParseError(f"non-integer {name} {raw!r}", line) from None
                if not _INT64_MIN <= value <= _INT64_MAX:
                    raise ParseError(f"{name} {raw!r} does not fit in 64 bits", line)
        line += _lines_of(row)
    raise AssertionError("the batch holds no faulty row")


def _lines_of(row: list[str]) -> int:
    """How many lines a CSV row spans: one, plus each line break that a
    quoted field holds."""
    return 1 + sum(len(_LINE_BREAKS.findall(field)) for field in row)


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

    Rows are written in corpus order, sessions by id and actions by step,
    so output bytes are a deterministic function of the corpus, and the
    file parses back equal to it.
    """
    path = Path(path)
    with open(path, "wb") as raw:
        binary: IO = raw
        if path.suffix == ".gz":
            # fixed mtime and empty name keep gzip output byte-stable across runs
            binary = gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0)
        with io.TextIOWrapper(binary, encoding="utf-8", newline="") as stream:
            stream.write(",".join(_CANONICAL_COLUMNS) + "\r\n")
            stream.writelines(_csv_batches(corpus))


def _csv_batches(corpus: SessionCorpus) -> Iterator[str]:
    """The corpus's rows as ``csv.writer`` writes them (the ``excel``
    dialect), ``_WRITE_BATCH`` rows to a string. Each table's entries are
    quoted once and looked up by code, so only an impression list whose
    items need quotes is quoted row by row."""
    users, sids, kinds = (
        np.array([_csv_field(entry) for entry in table], dtype=object)
        for table in (corpus.users, corpus.session_ids, corpus.kinds)
    )
    vocab = corpus.item_vocabulary
    # the last entry is code -1's: no item
    refs = np.array([_csv_field(item) for item in vocab] + [""], dtype=object)
    names = np.array(vocab, dtype=object)
    quote_lists = any(_CSV_SPECIAL.search(item) for item in vocab)
    row_session, bounds = corpus.row_session, corpus.impression_offsets
    for start in range(0, corpus.n_actions, _WRITE_BATCH):
        rows = slice(start, start + _WRITE_BATCH)
        edges = bounds[start : start + _WRITE_BATCH + 1]
        shown = names[corpus.impressions[edges[0] : edges[-1]]].tolist()
        cuts = (edges - edges[0]).tolist()
        lists = ["|".join(shown[a:b]) for a, b in zip(cuts, cuts[1:])]
        if quote_lists:
            lists = [_csv_field(listed) for listed in lists]
        yield "".join(
            [
                f"{user},{sid},{timestamp},{step},{kind},{ref},{listed}\r\n"
                for user, sid, timestamp, step, kind, ref, listed in zip(
                    users[corpus.user[rows]].tolist(),
                    sids[row_session[rows]].tolist(),
                    corpus.timestamp[rows].tolist(),
                    corpus.step[rows].tolist(),
                    kinds[corpus.kind[rows]].tolist(),
                    refs[corpus.item[rows]].tolist(),
                    lists,
                )
            ]
        )


def _csv_field(text: str) -> str:
    """A field as the ``excel`` dialect's minimal quoting writes it: in
    quotes, each quote doubled, when it holds a comma, a quote or a line
    break; as it is otherwise."""
    if _CSV_SPECIAL.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


# ---------------------------------------------------------------------------
# The columnar companion
# ---------------------------------------------------------------------------

#: appended to a corpus or model file's path to name its columnar companion
_COLUMNS_SUFFIX = ".columns"
#: a companion's first line: its format and version
_COLUMNS_TAG = b"simpop-columns 1\n"
#: the int64 columns a corpus companion holds, in file order
_COLUMN_ARRAYS = (
    "offsets", "step", "timestamp", "kind", "user", "item",
    "impression_offsets", "impressions",
)
#: the tables a corpus companion holds after the columns, each as its entries'
#: lengths (int64, in code points) and then their UTF-8 text
_COLUMN_TABLES = ("session_ids", "kinds", "users", "item_vocabulary")
#: every section of a corpus companion, in file order, with its dtype
_COLUMN_SECTIONS = [(name, "<i8") for name in _COLUMN_ARRAYS] + [
    section
    for name in _COLUMN_TABLES
    for section in ((f"{name}.lengths", "<i8"), (name, "|u1"))
]
#: every section starts at a multiple of this many bytes
_ALIGN = 8
#: what a companion's sections are built into: a corpus or a model
_Loaded = TypeVar("_Loaded")


def _sha256(path: str | Path) -> str:
    """The SHA-256 of a file's bytes, read in chunks, as hex."""
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _padding(size: int) -> int:
    """How many bytes take ``size`` bytes to a multiple of ``_ALIGN``."""
    return -size % _ALIGN


def write_columns(corpus: SessionCorpus, path: str | Path) -> Path:
    """Write the columnar companion of the corpus file at ``path``, which
    holds ``write_corpus(corpus, path)``'s bytes, and return its path.

    The companion holds the int64 columns, and each table as its entries'
    lengths and their UTF-8 text, so an id may hold any character, in the
    container ``_write_companion`` writes. Its bytes are a deterministic
    function of the corpus and the file.
    """
    sections = [getattr(corpus, name) for name in _COLUMN_ARRAYS]
    for name in _COLUMN_TABLES:
        sections.extend(_table_sections(getattr(corpus, name)))
    return _write_companion(path, _sha256(path), _COLUMN_SECTIONS, sections)


def _columns_corpus(
    sections: dict[str, np.ndarray], role: Role, path: Path, digest: str
) -> SessionCorpus:
    """The validated corpus a companion's sections hold, its columns the
    sections themselves, read from the file at ``path``, whose SHA-256 is
    ``digest``. Raises ValueError when the columns and tables are not a
    corpus's: offsets that do not bound their runs, a code out of its
    table's range, or a table that is not sorted; and ValidationError for
    columns that ``_validate`` rejects."""
    tables = {
        name: _table(sections.pop(f"{name}.lengths"), sections.pop(name), name)
        for name in _COLUMN_TABLES
    }
    n_rows = len(sections["step"])
    _check_offsets(sections["offsets"], len(tables["session_ids"]), n_rows, 1)
    _check_offsets(sections["impression_offsets"], n_rows, len(sections["impressions"]), 0)
    for name in ("timestamp", "kind", "user", "item"):
        if len(sections[name]) != n_rows:
            raise ValueError(f"{name}: {len(sections[name])} rows, expected {n_rows}")
    for name, table, low in (
        ("kind", "kinds", 0),
        ("user", "users", 0),
        ("item", "item_vocabulary", -1),
        ("impressions", "item_vocabulary", 0),
    ):
        codes = sections[name]
        if len(codes) and not low <= codes.min() <= codes.max() < len(tables[table]):
            raise ValueError(f"{name}: a code out of range")
    corpus = SessionCorpus(
        role=role, **tables, **sections,
        sources=(path, Path(f"{path}{_COLUMNS_SUFFIX}")), _digests=((path, digest),),
    )
    _validate(corpus)
    return corpus


# ---------------------------------------------------------------------------
# The companion container, shared by corpus and model files
# ---------------------------------------------------------------------------


def _write_companion(
    path: str | Path, digest: str, layout: Sequence[tuple[str, str]],
    sections: Sequence[np.ndarray],
) -> Path:
    """Write ``<path>.columns``, the companion of the file at ``path``, whose
    SHA-256 is ``digest``, and return its path.

    A companion is the format tag line, a JSON header line (the file's
    SHA-256 and each section's name, dtype and length, as ``layout`` names
    them) padded to a multiple of 8 bytes, and then the sections, each
    written in its dtype and padded the same way.
    """
    header = json.dumps(
        {
            "sha256": digest,
            "sections": [
                [name, dtype, len(section)]
                for (name, dtype), section in zip(layout, sections)
            ],
        }
    ).encode()
    header += b" " * _padding(len(_COLUMNS_TAG) + len(header) + 1) + b"\n"
    companion = Path(f"{path}{_COLUMNS_SUFFIX}")
    with open(companion, "wb") as out:
        out.write(_COLUMNS_TAG + header)
        for (_, dtype), section in zip(layout, sections):
            data = section.astype(dtype, copy=False)
            out.write(data)
            out.write(bytes(_padding(data.nbytes)))
    return companion


def _load_companion(
    path: Path, layout: Sequence[tuple[str, str]],
    build: Callable[[dict[str, np.ndarray], str], _Loaded],
) -> tuple[_Loaded | None, tuple[tuple[Path, str], ...]]:
    """What ``build`` makes of the sections of the companion of the file at
    ``path`` and the file's SHA-256, or None when the companion is not the
    file's or fails a check, which is logged; with ``((path, digest),)``, or
    ``()`` when there is no companion, and then the file is not hashed.

    The companion is read once, and each section is a read-only view of
    those bytes. It is the file's when it holds ``_write_companion``'s
    container with ``layout``'s sections and the digest; ``build`` raises
    ValueError or ValidationError for sections that fail its own checks.
    """
    companion = Path(f"{path}{_COLUMNS_SUFFIX}")
    if not companion.is_file():
        return None, ()
    digest = _sha256(path)
    try:
        buffer = companion.read_bytes()
        if not buffer.startswith(_COLUMNS_TAG):
            raise ValueError("no format tag")
        start = buffer.index(b"\n", len(_COLUMNS_TAG)) + 1
        header = json.loads(buffer[len(_COLUMNS_TAG) : start])
        if [(name, dtype) for name, dtype, _ in header["sections"]] != list(layout):
            raise ValueError("unexpected sections")
        if header["sha256"] != digest:
            raise ValueError("its digest is not the file's")
        sections = {}
        for name, dtype, size in header["sections"]:
            if type(size) is not int or size < 0:
                raise ValueError(f"{name}: length {size!r}")
            sections[name] = np.frombuffer(buffer, dtype=dtype, count=size, offset=start)
            start += sections[name].nbytes + _padding(sections[name].nbytes)
        if start != len(buffer):
            raise ValueError(f"{len(buffer)} bytes, expected {start}")
        return build(sections, digest), ((path, digest),)
    # whatever the bytes hold, a header of another shape or too deeply nested
    # included: the file stays readable by its parse, which reports its faults
    except (
        OSError, LookupError, TypeError, ValueError, RecursionError, ValidationError
    ) as exc:
        log.info("parsing %s: its companion is not usable (%s)", path, exc)
        return None, ((path, digest),)


def _table_sections(table: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """A table as a companion holds it: its entries' lengths (in code
    points) and their UTF-8 text, which ``_table`` reads back."""
    lengths = np.fromiter(map(len, table), dtype=np.int64, count=len(table))
    return lengths, np.frombuffer("".join(table).encode(), dtype=np.uint8)


def _table(lengths: np.ndarray, text: np.ndarray, name: str) -> tuple[str, ...]:
    """A table from its entries' lengths and their UTF-8 text. Raises
    ValueError unless the lengths add up to the text and the entries are
    sorted and distinct."""
    decoded = text.tobytes().decode()
    if (len(lengths) and lengths.min() < 0) or lengths.sum() != len(decoded):
        raise ValueError(f"{name}: lengths do not add up to its text")
    ends = _offsets(lengths).tolist()
    table = tuple(map(decoded.__getitem__, map(slice, ends, ends[1:])))
    if any(map(str.__ge__, table, table[1:])):
        raise ValueError(f"{name}: not sorted")
    return table


def _check_offsets(offsets: np.ndarray, n_runs: int, total: int, least: int) -> None:
    """Raise ValueError unless these are the offsets of ``n_runs`` runs of
    at least ``least`` each that cover ``total`` entries."""
    if not (
        len(offsets) == n_runs + 1
        and offsets[0] == 0
        and offsets[-1] == total
        and (np.diff(offsets) >= least).all()
    ):
        raise ValueError("offsets do not bound their runs")


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
    kept = _take(corpus, np.flatnonzero(_last_clickouts(corpus) >= 0))
    dropped = corpus.n_sessions - kept.n_sessions
    if dropped:
        log.info(
            "dropped %d sessions without a clickout (%d kept)", dropped, kept.n_sessions
        )
    return kept


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
    target = _last_clickouts(corpus)
    missing = target < 0
    hidden = ~missing & (corpus.item[target] < 0)
    if (missing | hidden).any():
        s = int(np.argmax(missing | hidden))
        sid = corpus.session_ids[s]
        if missing[s]:
            raise ValidationError(f"session {sid}: no clickout to hide")
        raise ValidationError(f"session {sid}: final clickout has no revealed item")
    vocab = corpus.item_vocabulary
    truth = {
        sid: vocab[k]
        for sid, k in zip(corpus.session_ids, corpus.item[target].tolist())
    }
    item = corpus.item.copy()
    item[target] = -1
    # a clicked item is in its own impression list, so the vocabulary stays
    return replace(corpus, item=item), truth


def _last_clickouts(corpus: SessionCorpus) -> np.ndarray:
    """Each session's last clickout row, or -1 for a session without one."""
    rows = np.flatnonzero(corpus.clickout)
    last = np.full(corpus.n_sessions, -1, dtype=np.int64)
    np.maximum.at(last, corpus.row_session[rows], rows)
    return last


def prepare_holdout(
    corpus: SessionCorpus,
) -> tuple[SessionCorpus, dict[str, str], int]:
    """Turn any clickout-bearing corpus into a blinded holdout set.

    Sessions without a hideable final clickout are dropped rather than
    rejected, which is what evaluation over an arbitrary split needs.
    Returns (blinded corpus, truth map, number of dropped sessions).
    """
    target = _last_clickouts(corpus)
    usable = np.flatnonzero((target >= 0) & (corpus.item[target] >= 0))
    blinded, truth = hide_test_targets(_take(corpus, usable, Role.TEST))
    return blinded, truth, corpus.n_sessions - len(usable)


def subsample_sessions(
    corpus: SessionCorpus,
    fraction: float,
    seed: int = 0,
) -> SessionCorpus:
    """Draw a deterministic session subsample.

    The draw preserves the session-length distribution: sessions are
    bucketed by action count, in corpus order, and sampled independently,
    rounding each bucket's quota.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    buckets: dict[int, list[int]] = {}
    for s, length in enumerate(np.diff(corpus.offsets).tolist()):
        buckets.setdefault(length, []).append(s)
    chosen: list[int] = []
    for key in sorted(buckets):
        members = buckets[key]
        quota = int(round(fraction * len(members)))
        if quota:
            picked = rng.choice(len(members), size=quota, replace=False)
            chosen.extend(members[i] for i in sorted(picked))
    return _take(corpus, np.array(chosen, dtype=np.int64))


def split_by_time(
    corpus: SessionCorpus, holdout_fraction: float = HOLDOUT_FRACTION
) -> tuple[SessionCorpus, SessionCorpus]:
    """Split off the chronologically last fraction of sessions.

    Ordering is by first-action timestamp, ties kept in corpus (id) order;
    returns (head, tail) corpora with the original role.
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    order = np.argsort(corpus.timestamp[corpus.offsets[:-1]], kind="stable")
    n_tail = max(1, math.ceil(holdout_fraction * len(order))) if len(order) else 0
    cut = len(order) - n_tail
    return _take(corpus, order[:cut]), _take(corpus, order[cut:])
