"""Synthetic session corpora from a planted similarity-popularity world.

The generator plants items in a low-dimensional space, clustered the way
hotels cluster into destinations, with heavy-tailed popularities. A session
is a short random walk from an item drawn by popularity, whose transition
kernel decays with squared distance, so co-occurrence reflects geometry.
The booked item is drawn near the walk's centroid, tilted by a per-item
attractiveness that correlates with popularity but is observable only
through clickouts. Impression lists mix globally attractive items,
same-cluster items, and uniform noise. Item metadata quantizes the latent
coordinates (destination plus grid cell) with noise tokens added.

Every structural assumption of the ranking model is planted explicitly, so
corpora from this generator exercise the full pipeline (ingestion,
co-occurrence estimation, embedding, ranking, evaluation) with a known
ground-truth signal, standing in for production logs at desk scale.

A session costs only its own draws. The weights that do not depend on the
session (the start item's, and each cluster's impression mix) are computed
once per world. Each draw repeats the steps numpy 2.x ``Generator.choice``
runs, without its per-call conversion of ``p``, and refuses what choice
refuses with ValueError, so a seed draws the same stream and writes the same
corpus bytes as choice did. ``tests/test_synth.py`` pins the draws against
choice and the written corpora by SHA-256.

Squared distances are computed one dimension at a time from a (dim, n) copy
of the coordinates, one vector operation per dimension, and the
per-dimension terms are added in the order numpy's pairwise sum adds them,
so they equal ``((a - b) ** 2).sum(axis=-1)`` to the bit for every dim: below
8 terms in sequence; from 8 to 128 terms in 8 accumulators, combined as
``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, then the rest in
sequence; above 128 terms as the sum of two halves, the first cut down to a
multiple of 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import EmbeddingModel, ModelParams
from .sessions import _BATCH, CLICKOUT, Role, SessionCorpus, _check_carried, _Columns

_INTERACTION_KINDS = (
    "interaction item info",
    "interaction item image",
    "interaction item rating",
    "interaction item deals",
)

_EPOCH = 1_500_000_000

# The planted world's shape. SynthConfig sets its size, seed, session
# length and popularity range; these fix the rest.
_MAX_INTERACTIONS = 16
#: share of train sessions that end in a clickout (every test session does)
_CLICKOUT_RATE = 0.9
_CLUSTER_SPREAD = 1.5
_CLUSTER_SEPARATION = 12.0
# session walk: p(i -> j) ~ (1 + d2/scale^2)^-alpha from a start drawn with
# weight kappa^_START_POP_WEIGHT, with excursions returning to the session's
# pivot item
_WALK_ALPHA = 2.0
_WALK_SCALE = 1.5
_START_POP_WEIGHT = 2.0
_PIVOT_RETURN = 0.5
#: stray-interaction rate; the _END share ramps quadratically with step
#: position, concentrating tab-hopping noise late in the session
_WALK_TELEPORT = 0.05
_WALK_TELEPORT_END = 0.35
#: rows of the walk law computed at a time, so no (n, n, dim) array is held
_ROW_BLOCK = 64
#: terms numpy's pairwise sum adds with 8 accumulators before it halves
_PAIRWISE_BLOCK = 128
# booked item: w(j) ~ beta_j * (1 + d2(centroid, j)/scale^2)^-alpha
_TARGET_ALPHA = 2.0
_TARGET_SCALE = 0.7
# attractiveness beta: kappa^exp * lognormal noise
_BETA_KAPPA_EXP = 0.35
_BETA_NOISE_SIGMA = 0.8
_N_IMPRESSIONS = 25
#: distractor pools: (attractiveness-weighted, same-cluster, uniform)
_IMPRESSION_MIX = (0.40, 0.15, 0.45)
_IMPRESSION_POP_EXP = 0.7
_METADATA_CELL = 3.0
_METADATA_NOISE_TOKENS = 3
_METADATA_NOISE_POOL = 30


@dataclass(frozen=True)
class SynthConfig:
    n_items: int = 800
    n_clusters: int = 8
    dim: int = 2
    alpha: float = 2.0
    n_train_sessions: int = 4000
    n_test_sessions: int = 1000
    seed: int = 0
    mean_interactions: float = 8.0
    kappa_max: float = 8.0

    def __post_init__(self):
        if self.n_items < _N_IMPRESSIONS:
            raise ValueError("need at least as many items as impression slots")
        if not self.kappa_max >= 1.0:
            raise ValueError(f"kappa_max must be >= 1, got {self.kappa_max}")
        for field, least in (
            ("dim", 1),
            ("n_clusters", 1),
            ("n_train_sessions", 0),
            ("n_test_sessions", 0),
        ):
            value = getattr(self, field)
            if value < least:
                raise ValueError(f"{field} must be >= {least}, got {value}")
        if not 1.0 <= self.mean_interactions < math.inf:
            raise ValueError(
                f"mean_interactions must be finite and >= 1, got {self.mean_interactions}"
            )


@dataclass(frozen=True)
class SynthWorld:
    """Planted ground truth: the model plus what only the logs reveal.

    The model holds the items' ids, coordinates and popularities; its ids
    sort in generation order, so its row k is item k of every other array.
    """

    config: SynthConfig
    model: EmbeddingModel
    #: the model's coordinates transposed to (dim, n), one contiguous row
    #: per dimension
    coords_by_dim: np.ndarray
    attractiveness: np.ndarray
    clusters: np.ndarray
    metadata: dict[str, frozenset[str]]
    transition_cdf: np.ndarray
    #: what a session draws from, computed once: the cdf of its start item,
    #: and per cluster the impression weights of a target in it
    start_cdf: np.ndarray
    impression_mix: dict[int, np.ndarray]


def build_world(config: SynthConfig) -> SynthWorld:
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    n, dim = config.n_items, config.dim

    angles = np.linspace(0.0, 2.0 * math.pi, config.n_clusters, endpoint=False)
    centers = np.zeros((config.n_clusters, dim))
    centers[:, 0] = _CLUSTER_SEPARATION * np.cos(angles)
    if dim > 1:
        centers[:, 1] = _CLUSTER_SEPARATION * np.sin(angles)

    clusters = rng.integers(0, config.n_clusters, size=n)
    coords = centers[clusters] + rng.normal(0.0, _CLUSTER_SPREAD, size=(n, dim))
    kappa = np.exp(rng.uniform(0.0, math.log(config.kappa_max), size=n))
    attractiveness = kappa**_BETA_KAPPA_EXP * np.exp(
        rng.normal(0.0, _BETA_NOISE_SIGMA, size=n)
    )
    # one width for every id, so the ids sort in generation order and the
    # model keeps its rows in it
    ids = tuple(f"i{k:0{max(5, len(str(n - 1)))}d}" for k in range(n))

    coords_by_dim = np.ascontiguousarray(coords.T)
    transition_cdf = np.empty((n, n))
    for start in range(0, n, _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        d2 = _squared_distances(coords[block], coords_by_dim)
        d2 /= _WALK_SCALE**2
        d2 += 1.0
        np.power(d2, -_WALK_ALPHA, out=transition_cdf[block])
    np.fill_diagonal(transition_cdf, 0.0)
    np.cumsum(transition_cdf, axis=1, out=transition_cdf)

    popular = attractiveness**_IMPRESSION_POP_EXP
    popular = popular / popular.sum()
    impression_mix = {}
    for c in range(config.n_clusters):
        members = np.nonzero(clusters == c)[0]
        if len(members):  # a cluster holds every target drawn in it
            cluster = np.zeros(n)
            cluster[members] = 1.0 / len(members)
            impression_mix[c] = (
                _IMPRESSION_MIX[0] * popular
                + _IMPRESSION_MIX[1] * cluster
                + _IMPRESSION_MIX[2] / n
            )
    model = EmbeddingModel(ModelParams(alpha=config.alpha, dim=dim), ids, coords, kappa)
    metadata = _build_metadata(ids, coords, clusters, rng)
    return SynthWorld(
        config=config,
        model=model,
        coords_by_dim=coords_by_dim,
        attractiveness=attractiveness,
        clusters=clusters,
        metadata=metadata,
        transition_cdf=transition_cdf,
        start_cdf=_cdf(_probabilities(kappa**_START_POP_WEIGHT)),
        impression_mix=impression_mix,
    )


def _squared_distances(points: np.ndarray, coords_by_dim: np.ndarray) -> np.ndarray:
    """Squared distances from each row of ``points`` (m, dim), or from one
    point (dim,), to each item of ``coords_by_dim`` (dim, n): (m, n), or (n,).

    One vector operation per dimension, the terms added in numpy's pairwise
    order (module docstring), so the result equals
    ``((points[..., None, :] - coords_by_dim.T) ** 2).sum(axis=-1)`` to the
    bit for every dim."""

    def term(k):
        diff = points[..., k, None] - coords_by_dim[k]
        return np.multiply(diff, diff, out=diff)

    def pairwise(lo, hi):
        n = hi - lo
        if n > _PAIRWISE_BLOCK:
            half = n // 2 - n // 2 % 8
            total = pairwise(lo, lo + half)
            total += pairwise(lo + half, hi)
            return total
        if n < 8:
            total, rest = term(lo), lo + 1
        else:
            r = [term(k) for k in range(lo, lo + 8)]
            rest = hi - n % 8
            for k in range(lo + 8, rest, 8):
                for j, acc in enumerate(r):
                    acc += term(k + j)
            total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for k in range(rest, hi):
            total += term(k)
        return total

    return pairwise(0, coords_by_dim.shape[0])


def _build_metadata(ids, coords, clusters, rng) -> dict[str, frozenset[str]]:
    pool = [f"tag{k:02d}" for k in range(_METADATA_NOISE_POOL)]
    metadata = {}
    for k, item in enumerate(ids):
        tokens = {f"dst{int(clusters[k]):02d}"}
        tokens.add(f"gx{int(math.floor(coords[k, 0] / _METADATA_CELL))}")
        if coords.shape[1] > 1:
            tokens.add(f"gy{int(math.floor(coords[k, 1] / _METADATA_CELL))}")
        noise = rng.choice(len(pool), size=_METADATA_NOISE_TOKENS, replace=False)
        tokens.update(pool[i] for i in noise)
        metadata[item] = frozenset(tokens)
    return metadata


def _probabilities(weights: np.ndarray, draws: int = 1, out=None) -> np.ndarray:
    """``weights`` over their sum: the ``p`` that ``Generator.choice`` would be
    given, written to ``out`` when given. Raises ValueError where choice would
    refuse it for ``draws`` distinct items: a negative or NaN weight, a sum
    that is not finite and positive, or fewer non-zero weights than draws."""
    total = weights.sum()
    if not weights.min() >= 0.0:
        raise ValueError("weights must be non-negative and not NaN")
    if not 0.0 < total < math.inf:
        raise ValueError(f"weights must have a finite positive sum, got {total}")
    if draws > 1 and np.count_nonzero(weights) < draws:
        raise ValueError(f"fewer non-zero weights than {draws} distinct draws")
    return np.divide(weights, total, out=out)


def _cdf(p: np.ndarray, out=None) -> np.ndarray:
    """The cumulative sums ``Generator.choice`` searches, scaled to end at 1,
    written to ``out`` when given."""
    cdf = p.cumsum(out=out)
    cdf /= cdf[-1]
    return cdf


def _draw(cdf: np.ndarray, rng) -> int:
    """One item by a ``_cdf``: ``Generator.choice(len(p), p=p)``'s draw."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def _draw_distinct(weights: np.ndarray, draws: int, rng) -> list[int]:
    """``Generator.choice(len(weights), size=draws, replace=False,
    p=weights / weights.sum())``, step for step: each round draws a uniform
    per missing item, searches the cdf with the items found so far zeroed,
    and keeps the first occurrence of each new item in draw order."""
    p = _probabilities(weights, draws)
    found: list[int] = []
    while len(found) < draws:
        u = rng.random(draws - len(found))
        p[found] = 0.0
        found.extend(dict.fromkeys(_cdf(p).searchsorted(u, side="right").tolist()))
    return found


def _walk(world: SynthWorld, rng, length: int) -> list[int]:
    """Pivot-return walk: excursions from a sticky item of interest."""
    n = world.config.n_items
    pivot = cur = _draw(world.start_cdf, rng)
    items = [pivot]
    for k in range(1, length):
        stray_p = _WALK_TELEPORT + _WALK_TELEPORT_END * (k / (length - 1)) ** 2
        if rng.random() < stray_p:
            # stray interaction anywhere in the catalog (tab-hopping noise)
            cur = int(rng.integers(n))
        elif cur != pivot and rng.random() < _PIVOT_RETURN:
            cur = pivot
        else:
            row = world.transition_cdf[cur]
            cur = int(row.searchsorted(rng.random() * row[-1], side="right"))
        items.append(cur)
    return items


def _draw_target(world: SynthWorld, rng, visited: list[int]) -> int:
    # the booking follows the session's dominant interest: the centroid of
    # visits within the majority cluster (multiplicity-weighted, so the
    # pivot dominates and stray interactions don't drag the target)
    visits = np.array(visited)
    session_clusters = world.clusters[visits]
    majority = np.bincount(session_clusters).argmax()
    centre = world.model.coords[visits[session_clusters == majority]]
    centroid = centre.sum(axis=0) / len(centre)  # what np.mean computes
    # attractiveness * (1 + d2 / scale^2)^-alpha, then its cdf, in one array
    weights = _squared_distances(centroid, world.coords_by_dim)
    weights /= _TARGET_SCALE**2
    weights += 1.0
    weights **= -_TARGET_ALPHA
    weights *= world.attractiveness
    weights[visits] = 0.0
    return _draw(_cdf(_probabilities(weights, out=weights), out=weights), rng)


def _draw_impressions(world: SynthWorld, rng, target: int) -> list[int]:
    weights = world.impression_mix[int(world.clusters[target])].copy()
    weights[target] = 0.0
    shown = np.array([target] + _draw_distinct(weights, _N_IMPRESSIONS - 1, rng))
    rng.shuffle(shown)  # what rng.permutation of the list does, without its copy
    return shown.tolist()


def generate_corpus(
    world: SynthWorld,
    n_sessions: int,
    role: Role,
    seed,
    clickout_rate: float,
    session_prefix: str,
) -> SessionCorpus:
    """Generate a validated corpus of walk sessions from the planted world;
    each session ends in a clickout with probability ``clickout_rate``.

    Its draws reproduce numpy 2.x ``Generator.choice`` step by step from the
    world's draw tables (``tests/test_synth.py`` pins this), and its rows are
    coded into the corpus's columns as they are drawn, a batch at a time,
    with no ``Action`` built."""
    rng = np.random.default_rng(seed)
    ids = world.model.ids
    columns = _Columns()
    batch: list[list] = [[] for _ in range(7)]
    for k in range(n_sessions):
        sid = f"{session_prefix}{k:06d}"
        with_clickout = rng.random() < clickout_rate
        length = min(
            1 + int(rng.geometric(1.0 / world.config.mean_interactions)), _MAX_INTERACTIONS
        )
        visited = _walk(world, rng, length)
        codes = rng.integers(len(_INTERACTION_KINDS), size=length).tolist()
        kinds = [_INTERACTION_KINDS[c] for c in codes]
        items = [ids[i] for i in visited]
        shown: list = [None] * length
        if with_clickout:
            target = _draw_target(world, rng, visited)
            kinds.append(CLICKOUT)
            items.append(ids[target])
            shown.append([ids[i] for i in _draw_impressions(world, rng, target)])
        rows, t0 = len(items), _EPOCH + 100 * k
        session = (
            [sid] * rows,
            [f"u_{sid}"] * rows,
            range(1, rows + 1),
            range(t0 + 1, t0 + rows + 1),
            kinds,
            items,
            shown,
        )
        for column, values in zip(batch, session):
            column.extend(values)
        if len(batch[0]) >= _BATCH:
            columns.add(*batch)
            batch = [[] for _ in range(7)]
    columns.add(*batch)
    corpus = columns.corpus(role)
    _check_carried(corpus)
    return corpus


@dataclass(frozen=True)
class SynthData:
    world: SynthWorld
    train: SessionCorpus
    test: SessionCorpus


def generate(config: SynthConfig) -> SynthData:
    """Planted world plus train/test corpora with independent seed streams."""
    world = build_world(config)
    root = np.random.SeedSequence(config.seed)
    _, train_seed, test_seed = root.spawn(3)
    train = generate_corpus(
        world,
        config.n_train_sessions,
        Role.TRAIN,
        seed=train_seed,
        clickout_rate=_CLICKOUT_RATE,
        session_prefix="s",
    )
    test = generate_corpus(
        world,
        config.n_test_sessions,
        Role.TEST,
        seed=test_seed,
        clickout_rate=1.0,
        session_prefix="t",
    )
    return SynthData(world=world, train=train, test=test)
