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
import math
import numbers
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
#: rows ``write_model`` turns into Python floats at a time: 256 rows of
#: dimension 20 are about 0.2 MB, too little to move a process's peak
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
        order = np.argsort(np.asarray(ids, dtype=object))
        self.params = params
        self.ids: tuple[str, ...] = tuple(ids[int(k)] for k in order)
        if len(set(self.ids)) != len(self.ids):
            raise ValidationError("duplicate item ids")
        if _ID_BREAKS.search("".join(self.ids)):
            bad = next(item for item in self.ids if _ID_BREAKS.search(item))
            raise ValidationError(
                f"item id {bad!r} holds a tab or line break, which the model "
                f"file cannot carry"
            )
        self.coords = coords[order]
        self.kappa = kappa[order]
        self._index = {item: k for k, item in enumerate(self.ids)}

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


def _law(model: EmbeddingModel, a: int, idx: np.ndarray | slice) -> np.ndarray:
    """The connection law from item index ``a`` to the items at ``idx``."""
    diff = model.coords[idx] - model.coords[a]
    d2 = np.einsum("ij,ij->i", diff, diff)
    kk = model.kappa[idx] * model.kappa[a]
    return (1.0 + d2 / kk) ** (-model.params.alpha)


def connection_probabilities(
    model: EmbeddingModel, anchor: str, items: Sequence[str]
) -> np.ndarray:
    """Vectorized connection probabilities from ``anchor`` to ``items``."""
    a = model.index_of(anchor)
    idx = np.fromiter((model.index_of(i) for i in items), dtype=np.intp, count=len(items))
    return _law(model, a, idx)


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
# Model file format: header line, then one line per item with full-precision
# decimal floats (repr round-trips exactly). The writer formats blocks of rows
# and the parse appends each row's floats to one flat buffer, so neither
# holds the whole model as Python floats. Next to the text, ``write_model``
# writes its columnar companion (``<path>.columns``, the container the
# corpus companion uses): the text's SHA-256, the popularities, the
# coordinates and the sorted ids. ``read_model`` loads the companion instead
# of parsing when its digest is the text's and its sections pass their
# checks; the text stays the model file, and the companion a checked cache.
# ---------------------------------------------------------------------------


def write_model(model: EmbeddingModel, path: str | Path) -> Path:
    """Write the model file at ``path`` and its columnar companion, and
    return the companion's path."""
    digest = hashlib.sha256()  # of the text as it is written: no second read
    with open(path, "wb") as out:
        for text in _model_text(model):
            data = text.encode()
            digest.update(data)
            out.write(data)
    sections = [model.kappa, model.coords.ravel(), *_table_sections(model.ids)]
    return _write_companion(path, digest.hexdigest(), _MODEL_SECTIONS, sections)


def _model_text(model: EmbeddingModel) -> Iterator[str]:
    """The model file's text: its header line, then its rows a block at a
    time."""
    p = model.params
    yield f"{MODEL_FORMAT_HEADER} dim={p.dim} alpha={p.alpha!r} lambda={p.lam!r}\n"
    for s in range(0, len(model), _WRITE_BLOCK):
        block = slice(s, s + _WRITE_BLOCK)
        yield "".join(
            f"{item}\t{kappa!r}\t{' '.join(map(repr, row))}\n"
            for item, kappa, row in zip(
                model.ids[block],
                model.kappa[block].tolist(),
                model.coords[block].tolist(),
            )
        )


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
