"""Similarity-popularity connection law and the trained model artifact.

Two items i, j with coordinates x^i, x^j and popularities k_i, k_j connect
with probability

    p = (1 + |x^i - x^j|^2 / (k_i k_j)) ** (-alpha)

so p grows with the popularity product at fixed distance and shrinks with
squared distance at fixed popularity. Only squared distances ever enter the
law, and its exact inverse recovers the squared distance a given probability
prescribes. Both directions live here, together with a Bernoulli-graph
sampler that treats the law generatively.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import numbers
import operator
import warnings
from array import array
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .affinity import PopularityTable
from .errors import MissingItemError, ParseError, ValidationError
from .sessions import (
    _COLUMNS_SUFFIX,
    _ID_BREAKS,
    _load_companion,
    _sha256,
    _table,
    _table_sections,
    _write_companion,
)

MODEL_FORMAT_HEADER = "simpop-model v1"
#: rows ``write_model`` formats at a time: at dimension 20 a block's
#: buffers peak near 1.7 MB, whatever the model's size, too little to move
#: a process's peak
_WRITE_BLOCK = 256
#: every section of a model companion, in file order, with its dtype: the
#: popularities, the coordinates row by row, and the ids as a table
_MODEL_SECTIONS = [
    ("kappa", "<f8"), ("coords", "<f8"), ("ids.lengths", "<i8"), ("ids", "|u1")
]


@dataclass(frozen=True)
class ModelParams:
    """Connection-law exponent, embedding dimension, and regularization.

    Held as the Python types the model file's header is parsed into, so
    every params a model can carry writes a header ``read_model`` reads.
    """

    alpha: float
    dim: int
    lam: float = 0.0

    def __post_init__(self):
        if isinstance(self.dim, bool) or not isinstance(self.dim, numbers.Integral):
            raise ValueError(f"dim must be an integer, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "lam", float(self.lam))
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if self.alpha < 1:
            warnings.warn(
                f"alpha={self.alpha} < 1 weakens the distance penalty; "
                f"values >= 1 are the intended regime",
                stacklevel=2,
            )
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")


class EmbeddingModel:
    """Item coordinates and popularities under fixed ModelParams.

    Storage is columnar (an (n, D) coordinate matrix plus aligned popularity
    vector) so scoring can vectorize; item ids are kept sorted to make every
    derived artifact deterministic.

    ``sources`` names the files ``read_model`` read the model from: the model
    file, and its companion when the model came from there; none for a model
    built in memory. ``_digests`` pairs each source the read hashed with its
    SHA-256, for a caller that records the files it read.
    """

    sources: tuple[Path, ...] = ()
    _digests: tuple[tuple[Path, str], ...] = ()

    def __init__(
        self,
        params: ModelParams,
        ids: Sequence[str],
        coords: np.ndarray,
        kappa: np.ndarray,
    ):
        coords = np.asarray(coords, dtype=np.float64)
        kappa = np.asarray(kappa, dtype=np.float64)
        if coords.ndim != 2 or coords.shape != (len(ids), params.dim):
            raise ValidationError(
                f"coords must have shape ({len(ids)}, {params.dim}), "
                f"got {coords.shape}"
            )
        if kappa.shape != (len(ids),):
            raise ValidationError("kappa must align with ids")
        if not np.all(np.isfinite(coords)):
            raise ValidationError("coordinates must be finite")
        if not np.all((kappa >= 1.0) & (kappa < np.inf)):
            raise ValidationError("popularities must be finite and >= 1")
        self.params = params
        if all(map(operator.lt, ids, ids[1:])):  # sorted and distinct already
            self.ids: tuple[str, ...] = tuple(ids)
            self.coords, self.kappa = coords.copy(), kappa.copy()
        else:
            order = np.argsort(np.asarray(ids, dtype=object))
            self.ids = tuple(ids[int(k)] for k in order)
            self.coords, self.kappa = coords[order], kappa[order]
        self._index = {item: k for k, item in enumerate(self.ids)}
        if len(self._index) != len(self.ids):
            raise ValidationError("duplicate item ids")
        if _ID_BREAKS.search("".join(self.ids)):
            bad = next(item for item in self.ids if _ID_BREAKS.search(item))
            raise ValidationError(
                f"item id {bad!r} holds a tab or line break, which the model "
                f"file cannot carry"
            )

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, item: str) -> bool:
        return item in self._index

    def index_of(self, item: str) -> int:
        try:
            return self._index[item]
        except KeyError:
            raise MissingItemError(f"item {item!r} not in model") from None

    def coords_of(self, item: str) -> np.ndarray:
        return self.coords[self.index_of(item)]

    @cached_property
    def popularity(self) -> PopularityTable:
        """The model's own popularities as a table, built on first use and
        kept: ranking's default tie and tail order."""
        return PopularityTable(zip(self.ids, self.kappa.tolist()))


def _law(
    model: EmbeddingModel, a: int | np.ndarray, idx: np.ndarray | slice
) -> np.ndarray:
    """The connection law from item index ``a`` to the items at ``idx``, or
    from each index of an array ``a`` to the item at the same place of
    ``idx``: each row's value is the same bits either way."""
    diff = model.coords[idx] - model.coords[a]
    d2 = np.einsum("ij,ij->i", diff, diff)
    kk = model.kappa[idx] * model.kappa[a]
    return (1.0 + d2 / kk) ** (-model.params.alpha)


def derive_squared_distance(
    p: float, kappa_i: float, kappa_j: float, alpha: float
) -> float:
    """Invert the connection law: the squared distance that yields ``p``."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"connection probability must be in (0, 1], got {p}")
    if not (0 < kappa_i < math.inf and 0 < kappa_j < math.inf):
        raise ValueError(
            f"popularities must be finite and > 0, got {kappa_i}, {kappa_j}"
        )
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    d2 = _inverse_law(np.array([p], dtype=np.float64), kappa_i, kappa_j, alpha)
    return float(d2[0])


def _inverse_law(p: np.ndarray, kappa_i, kappa_j, alpha: float) -> np.ndarray:
    """The squared distances that yield the probabilities ``p``, unvalidated.

    The power is taken per element with Python floats, that is with libm's
    ``pow``: numpy's SIMD power loop rounds some results differently, which
    would make the targets, and so the fitted model, depend on the CPU.
    Raises ValueError when a squared distance is beyond float range.
    """
    e = -1.0 / alpha
    try:
        powered = np.array([x**e for x in p.tolist()], dtype=np.float64)
        with np.errstate(over="raise"):
            return np.multiply(kappa_i, kappa_j) * (powered - 1.0)
    except (OverflowError, FloatingPointError):
        raise ValueError(f"squared distance overflows at alpha={alpha!r}") from None


def generate_synthetic_network(
    model: EmbeddingModel, rng_seed: int
) -> list[tuple[str, str]]:
    """Sample a network by independent Bernoulli draws over unordered pairs.

    Pair order (lexicographic over sorted ids) and the seeded generator make
    the draw reproducible.
    """
    rng = np.random.default_rng(rng_seed)
    edges: list[tuple[str, str]] = []
    n = len(model)
    for a in range(n - 1):
        p = _law(model, a, slice(a + 1, None))
        hits = np.nonzero(rng.random(n - a - 1) < p)[0]
        edges.extend((model.ids[a], model.ids[a + 1 + int(h)]) for h in hits)
    return edges


# ---------------------------------------------------------------------------
# Model file format: header line, then one line per item: its id, a tab,
# its popularity, a tab, and its coordinates separated by spaces, each float
# as ``repr`` writes it (the shortest decimal that reads back to it, so the
# text round-trips exactly). The writer computes those bytes in numpy a
# block of rows at a time (``_item_lines``), and the parse appends each
# row's floats to one flat buffer, so neither holds the whole model as
# Python floats. Next to the text, ``write_model`` writes its columnar
# companion (``<path>.columns``, the container the corpus companion uses):
# the text's SHA-256, the popularities, the coordinates and the sorted ids.
# ``read_model`` loads the companion instead of parsing when its digest is
# the text's and its sections pass their checks; the text stays the model
# file, and the companion a checked cache.
# ---------------------------------------------------------------------------


def write_model(model: EmbeddingModel, path: str | Path) -> Path:
    """Write the model file at ``path`` and its columnar companion, and
    return the companion's path."""
    p = model.params
    header = f"{MODEL_FORMAT_HEADER} dim={p.dim} alpha={p.alpha!r} lambda={p.lam!r}\n"
    digest = hashlib.sha256()  # of the text as it is written: no second read
    with open(path, "wb") as out:
        for text in itertools.chain([header.encode()], _item_lines(model)):
            digest.update(text)
            out.write(text)
    sections = [model.kappa, model.coords.ravel(), *_table_sections(model.ids)]
    return _write_companion(path, digest.hexdigest(), _MODEL_SECTIONS, sections)


def _item_lines(model: EmbeddingModel) -> Iterator[np.ndarray]:
    """The model file's item lines as bytes, ``_WRITE_BLOCK`` rows at a time.

    A block is laid out at a fixed width per row: the UTF-8 id, padded to
    the block's longest, and a tab, then a field per float (``_float_fields``)
    ending in its separator. One mask then keeps each id's own bytes, the
    tab, and the bytes ``_KEEP`` picks out of each field.
    """
    width = 1 + model.params.dim  # the popularity, then the coordinates
    separators = np.full(width, ord(" "), dtype=np.uint8)
    separators[0], separators[-1] = ord("\t"), ord("\n")
    for s in range(0, len(model), _WRITE_BLOCK):
        block = slice(s, s + _WRITE_BLOCK)
        names = [item.encode() for item in model.ids[block]]
        rows = len(names)
        table = np.array(names, dtype=bytes)  # padded with NULs the mask drops
        lead = 8 * (table.itemsize // 8 + 1)  # the id, padding and the tab
        words = np.empty((rows, lead // 8 + 5 * width), dtype=np.uint64)
        text = words.view(np.uint8)
        text[:, : table.itemsize] = table.view(np.uint8).reshape(rows, -1)
        text[:, lead - 1] = ord("\t")
        values = np.empty((rows, width))
        values[:, 0], values[:, 1:] = model.kappa[block], model.coords[block]
        keys = _float_fields(values, words[:, lead // 8 :].reshape(rows, width, 5))
        text[:, lead:].reshape(rows, width, _FIELD)[:, :, -1] = separators
        keep = np.empty(text.shape, dtype=bool)
        lengths = np.fromiter(map(len, names), dtype=np.int64, count=rows)
        keep[:, :lead] = np.arange(lead) < lengths[:, None]
        keep[:, lead - 1] = True
        np.take(_KEEP, keys, axis=0, out=keep[:, lead:].reshape(rows, width, _FIELD))
        yield np.compress(keep.ravel(), text)


# ---------------------------------------------------------------------------
# Float text. ``repr`` writes the shortest decimal that reads back to the
# float, the nearest one when several of that length do, positionally for
# 1e-4 <= |x| < 1e16. ``_shortest_digits`` finds those digits exactly, in
# integer arithmetic: a float x = m * 2**q, with m its 53-bit significand,
# E = floor(log10 |x|) and s = 16 - E, has x * 10**s = N / 2**r with
# N = m * 5**s and r = -(q + s), whose floor D has 17 digits. D and the
# remainder give the nearest 17-, 16- and 15-digit decimals and each one's
# distance delta from x, in units of 2**-r * 10**-s, and a decimal reads
# back to x when 2 * delta < 5**s, the half-width of x's rounding interval.
# The shortest that does is repr's (one 15-digit decimal at most can); when
# x lies exactly halfway between the two nearest decimals of that length,
# repr takes the one whose last digit is even, and so does this. A value
# this cannot certify gets ``repr`` itself: |x| < 1e-4 or >= 1e15 (the
# exponent form, and the decade below it), powers of two (whose interval is
# lopsided), and values whose guess of E fails 10**16 <= D < 10**17. The
# guess comes from ``np.log10``, which may round differently on another
# CPU; the check makes such a value fall back, so the bytes never depend on
# it.
# ---------------------------------------------------------------------------

_SIGNIFICAND = np.uint64((1 << 52) - 1)
_LOW_HALF = np.uint64((1 << 32) - 1)
#: 5**s for s = 16 - E over the decades E = -4 .. 14 the fast path formats
_POW5 = np.array([5**s for s in range(21)], dtype=np.uint64)
#: a float's field: "-0.000", then its 17 digits each followed by a "."
#: (the last one overwritten by the separator after the value), as five
#: words: the lead digit's, then four digits a word (``_QUADS``)
_FIELD = 40
_LEADS = np.frombuffer(b"".join(b"-0.000%d." % k for k in range(10)), dtype=np.uint64)


def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """For each four-digit group 0000 .. 9999: its word of a field (each
    digit followed by a "."), and its trailing zero digits, 4 for 0000."""
    groups = np.arange(10**4)
    chars = np.full((10**4, 8), ord("."), dtype=np.uint8)
    chars[:, ::2] = groups[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    trailing = sum(groups % 10**j == 0 for j in range(1, 5))
    return chars.view(np.uint64).ravel(), trailing


_QUADS, _TRAILING = _group_tables()


def _keep_table() -> np.ndarray:
    """Which bytes of a field hold the value's text and its separator: one
    row per sign, decade E = -4 .. 15 and count of significant digits
    1 .. 17, in that order, then one row per length of a ``repr`` text
    written into the field's first bytes."""
    col = np.arange(_FIELD)
    digit = (col >= 6) & (col % 2 == 0)
    place = (col - 6) // 2  # which digit a digit byte holds
    sign = np.array([False, True])[:, None, None, None]
    e, nd = np.arange(-4, 16)[:, None, None], np.arange(1, 18)[:, None]
    positional = np.where(
        e >= 0,  # the integer digits, ".", the fraction or a 0
        (digit & (place <= np.maximum(e + 1, nd - 1))) | (col == 7 + 2 * e),
        ((col >= 1) & (col < 2 - e)) | (digit & (place < nd)),  # "0.", zeros, digits
    )
    fast = positional | (sign & (col == 0))
    texts = col < np.arange(25)[:, None]
    return np.concatenate([fast.reshape(-1, _FIELD), texts]) | (col == _FIELD - 1)


_KEEP = _keep_table()
_REPR_KEYS = 2 * 20 * 17  # _KEEP's row for an empty repr text


def _exponent_guess(magnitudes: np.ndarray) -> np.ndarray:
    """A guess of floor(log10) of positive floats, which the caller checks."""
    return np.floor(np.log10(magnitudes)).astype(np.int64)


def _shortest_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each float: the digits of its shortest round-tripping decimal as
    a 17-digit integer, trailing zeros included, the decimal exponent of
    its first digit, and whether it needs ``repr`` instead, in which case
    the other two are placeholders."""
    bits = values.view(np.uint64)
    size = np.abs(values)
    fraction = bits & _SIGNIFICAND
    fast = (size >= 1e-4) & (size < 1e15) & (fraction != 0)
    e = np.clip(_exponent_guess(np.where(fast, size, 1.0)), -4, 14)
    s = 16 - e
    r = 1075 - s - (bits >> 52 & 0x7FF).astype(np.int64)
    fast &= (r >= 1) & (r <= 63)
    r = np.where(fast, r, 1).astype(np.uint64)
    five = _POW5[s]
    # N = m * 5**s as two uint64 halves, from the 32-bit halves of each
    m = fraction | np.uint64(1 << 52)
    m_hi, m_lo, five_hi, five_lo = m >> 32, m & _LOW_HALF, five >> 32, five & _LOW_HALF
    low, mid = m_lo * five_lo, m_lo * five_hi + m_hi * five_lo
    lo = low + (mid << 32)
    hi = m_hi * five_hi + (mid >> 32) + (lo < low)
    d = (hi << (64 - r)) | (lo >> r)
    fast &= (hi >> r == 0) & (d >= 10**16) & (d < 10**17)
    unit = np.uint64(1) << r
    rest = lo & (unit - 1)  # x * 10**s - d, in units of 2**-r
    digits = d
    for scale in (1, 10, 100):  # the nearest 17-, 16-, then 15-digit decimal
        head, below = _split(d, scale)
        below = below * unit + rest  # x's distance above head
        above = scale * unit - below
        fits = 2 * np.minimum(below, above) < five  # never equal: 5**s is odd
        up = (above < below) | ((above == below) & (head % 2 == 1))  # ties to even
        digits = np.where(fits, (head + up) * scale, digits)
    fallback = ~fast
    digits[fallback] = 10**16
    top = digits == 10**17  # rounded up into the next decade
    digits[top] = 10**16
    return digits, e + top, fallback


def _split(values: np.ndarray, unit: int) -> tuple[np.ndarray, np.ndarray]:
    """Quotient and remainder of non-negative integers by ``unit``."""
    head = values // unit
    return head, values - head * unit


def _float_fields(values: np.ndarray, fields: np.ndarray) -> np.ndarray:
    """Write each float's field into ``fields`` (``values.shape`` by five
    words) and return its row of ``_KEEP``."""
    digits, e, fallback = _shortest_digits(values)
    high, low = _split(digits.astype(np.int64), 10**8)  # 9 digits, then 8
    lead, middle = _split(high, 10**8)
    fields[..., 0] = _LEADS[lead]
    trailing = 0  # the zeros ending the digits
    for k, group in enumerate(_split(middle, 10**4) + _split(low, 10**4), start=1):
        fields[..., k] = _QUADS[group]
        trailing = _TRAILING[group] + (group == 0) * trailing
    keys = (np.signbit(values) * 20 + e + 4) * 17 + 16 - trailing
    if fallback.any():  # a repr text is 24 bytes at most
        texts = [repr(x).encode() for x in values[fallback].tolist()]
        padded = np.array(texts, dtype="S24").view(np.uint8).reshape(-1, 24)
        fields.view(np.uint8)[fallback, :24] = padded
        keys[fallback] = _REPR_KEYS + np.fromiter(map(len, texts), dtype=np.int64)
    return keys


def read_model(path: str | Path) -> EmbeddingModel:
    """Read the model file at ``path``: from its companion when the
    companion's digest is the file's and its sections pass their checks,
    else by parsing the text, which raises ParseError for a malformed line
    or header.

    Either way the model is the same to the bit, ``sources`` names the files
    read, and the digest a companion was checked against is kept for a
    caller that records the files it read.
    """
    path = Path(path)
    digests: tuple[tuple[Path, str], ...] = ()
    companion = Path(f"{path}{_COLUMNS_SUFFIX}")
    if companion.is_file():
        # one hash: the companion is checked against it, and a parse after
        # a stale companion keeps it for the caller
        digests = ((path, _sha256(path)),)
        model = _load_companion(
            path, digests[0][1], _MODEL_SECTIONS,
            lambda sections: _companion_model(path, sections),
        )
        if model is not None:
            model.sources, model._digests = (path, companion), digests
            return model
    model = _parse_model(path)
    model.sources, model._digests = (path,), digests
    return model


def _companion_model(path: Path, sections: dict[str, np.ndarray]) -> EmbeddingModel:
    """The model a companion's sections hold, under the params of the text's
    header line. Raises ValueError unless the ids add up and are sorted and
    distinct, and the popularities and coordinates number one and ``dim``
    per id; the model's own checks raise ValidationError."""
    with open(path, "r", encoding="utf-8") as stream:
        params = _parse_header(stream.readline().rstrip("\n"), path)
    ids = _table(sections["ids.lengths"], sections["ids"], "ids")
    n = len(ids)
    if len(sections["kappa"]) != n or len(sections["coords"]) != n * params.dim:
        raise ValueError(
            f"{len(sections['kappa'])} popularities and {len(sections['coords'])} "
            f"coordinates for {n} items of dimension {params.dim}"
        )
    return EmbeddingModel(
        params, ids, sections["coords"].reshape(n, params.dim), sections["kappa"]
    )


def _parse_model(path: Path) -> EmbeddingModel:
    """The model the text at ``path`` holds, parsed line by line."""
    with open(path, "r", encoding="utf-8") as stream:
        header = stream.readline().rstrip("\n")
        params = _parse_header(header, path)
        ids: dict[str, None] = {}  # in file order
        coords = array("d")  # row-major, params.dim values per item
        kappa = array("d")
        for n, line in enumerate(stream, start=2):
            fields = line.rstrip("\n").split("\t")
            if fields[0] in ids:
                raise ParseError(f"repeated item {fields[0]!r} in {path}", n)
            try:
                if len(fields) != 3:
                    raise ValueError(f"{len(fields)} tab-separated fields, expected 3")
                start = len(coords)
                coords.extend(map(float, fields[2].split(" ")))
                if len(coords) - start != params.dim:
                    raise ValueError(
                        f"{len(coords) - start} coordinates, expected {params.dim}"
                    )
                kappa.append(float(fields[1]))
            except ValueError as exc:
                raise ParseError(f"malformed model line in {path}: {exc}", n) from None
            ids[fields[0]] = None
    matrix = np.frombuffer(coords, dtype=np.float64).reshape(len(ids), params.dim)
    return EmbeddingModel(
        params, list(ids), matrix, np.frombuffer(kappa, dtype=np.float64)
    )


def _parse_header(header: str, path) -> ModelParams:
    parts = header.split(" ")
    if len(parts) != 5 or " ".join(parts[:2]) != MODEL_FORMAT_HEADER:
        raise ParseError(f"{path} is not a {MODEL_FORMAT_HEADER} file", 1)
    values: dict[str, str] = {}
    for token in parts[2:]:
        key, _, value = token.partition("=")
        values[key] = value
    try:
        return ModelParams(
            alpha=float(values["alpha"]),
            dim=int(values["dim"]),
            lam=float(values["lambda"]),
        )
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad model header {header!r}: {exc}", 1) from None
