"""The planted-world generator: its corpus bytes, and its draws against numpy."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from simpop.baselines import write_metadata
from simpop.sessions import write_corpus
from simpop.synth import (
    _N_IMPRESSIONS,
    _ROW_BLOCK,
    _START_POP_WEIGHT,
    _TARGET_ALPHA,
    _TARGET_SCALE,
    _WALK_ALPHA,
    _WALK_SCALE,
    SynthConfig,
    _cdf,
    _draw,
    _draw_distinct,
    _draw_impressions,
    _draw_target,
    _probabilities,
    _squared_distances,
    build_world,
    generate,
)

#: SHA-256 of the train corpus, test corpus and metadata ``generate`` writes;
#: recorded before the session draws were rewritten, so every byte of a
#: corpus is pinned, not just its statistics
GOLDEN = [
    (
        SynthConfig(
            n_items=25, n_clusters=2, dim=1, n_train_sessions=60, n_test_sessions=20,
            seed=3,
        ),
        "3180d518e102f624d5781b8ed8894f7544b1dec984a76b6ff8e3656084a8b9d4",
        "ed451462263d1fa5cae4b5d400b56add05e2d417cc8b7ef8151379b1351a46da",
        "e18853211fc78094d386644273cfc3b133205af4e98db0135123e00b9003eeec",
    ),
    (
        SynthConfig(
            n_items=120, n_clusters=4, dim=2, n_train_sessions=200, n_test_sessions=50,
            seed=1,
        ),
        "95d6932b05c22cb525c5b2465e307048c0a7e58e11376da8ff3ea735c70da85e",
        "acfb7554734dbae6ee36cc1b39b6ba87e965e80ff82c3e806d5e264fd8b5f156",
        "9a4ec1544d80b4eda8fcd56cef82725b5f1f2db042226694e9f9266864c92a5f",
    ),
    (
        SynthConfig(
            n_items=80, n_clusters=3, dim=3, n_train_sessions=150, n_test_sessions=40,
            seed=5, mean_interactions=4.0,
        ),
        "9e29899b6aa908a6e2084371dd688fd03891214b7282758cc410bf0517e9788d",
        "568ee8b915015509bfbbb70c1f90102edd46e9255efe06232044573ad334065b",
        "46c3ff35a3094ae66008864493e773dfe3de7aa0dbf392a16d15f841c0caf1ad",
    ),
    (
        SynthConfig(
            n_items=60, n_clusters=1, dim=5, n_train_sessions=150, n_test_sessions=40,
            seed=7, mean_interactions=3.0,
        ),
        "e33e041c37009ca95458cf6767add188d18e79f3b3c44f06f7167c779ec1f339",
        "19f5ea4d3fdc0360b7472f181ba0e1a5957063661a8da6220e2d8b6ceac3ae3f",
        "3ffa9f4c9be9da385fddea3b4362a97290c450bad0b4c2231a152e01af6bc778",
    ),
    (
        # the benchmark's desk corpus (criterion 5's world, seed 2)
        SynthConfig(seed=2, n_train_sessions=4500, n_test_sessions=500),
        "198ecebb6ca2c32001890ac19d2ada17d39005e3b280027c52ba1feb6decfc5e",
        "2fe7b0ff99c8eec714900ecf0e831866cd7a9b71c5bdabd24db4ee72236e8389",
        "dad17a12a93e838e06661a33da24837bc03fbc8ea66ea49cbd726d49653c7024",
    ),
    (
        # dim >= 8: squared distances sum in numpy's 8-accumulator order
        SynthConfig(
            n_items=60, n_clusters=3, dim=9, n_train_sessions=150, n_test_sessions=40,
            seed=11,
        ),
        "c182f9783c8885542b28fd83a3d1051774c1b9b5a3d8c51666092c440afd2bb5",
        "9eca5529fdd1ea53be788e4bc8ae0753a2d354ec222a0bbfee7c8a7364b7aa5b",
        "084bf8812ce303aaa2338c0544e4c7d9c8ada826aec176840a42bc5faade4be9",
    ),
]


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "config, train, test, metadata",
    GOLDEN,
    ids=["dim1-25items", "dim2", "dim3-short", "dim5-one-cluster", "desk", "dim9"],
)
def test_written_corpora_keep_their_bytes(config, train, test, metadata, tmp_path):
    data = generate(config)
    write_corpus(data.train, tmp_path / "train.csv")
    write_corpus(data.test, tmp_path / "test.csv")
    write_metadata(data.world.metadata, tmp_path / "metadata.tsv")
    assert sha256(tmp_path / "train.csv") == train
    assert sha256(tmp_path / "test.csv") == test
    assert sha256(tmp_path / "metadata.tsv") == metadata


def spread_values(rng, shape):
    """Normal values scaled over eight decades, so rounding shows in any sum
    whose order differs from numpy's."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-4, 4, size=shape)


class TestSquaredDistances:
    """The per-dimension sum equals numpy's ``sum(axis=-1)`` to the bit: in
    sequence below 8 terms, in 8 accumulators to 128, in halves above."""

    DIMS = [*range(1, 41), 127, 128, 129, 200]

    @pytest.mark.parametrize("dim", DIMS)
    def test_block_of_points(self, dim):
        rng = np.random.default_rng(dim)
        points, coords = spread_values(rng, (5, dim)), spread_values(rng, (30, dim))
        expected = ((points[:, None, :] - coords[None]) ** 2).sum(axis=-1)
        got = _squared_distances(points, np.ascontiguousarray(coords.T))
        assert got.shape == (5, 30)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dim", DIMS)
    def test_one_point(self, dim):
        rng = np.random.default_rng(1000 + dim)
        point, coords = spread_values(rng, dim), spread_values(rng, (30, dim))
        expected = ((point[None, :] - coords) ** 2).sum(axis=-1)
        got = _squared_distances(point, np.ascontiguousarray(coords.T))
        assert got.shape == (30,)
        assert got.tobytes() == expected.tobytes()


class TestWalkLawInBlocks:
    """``build_world`` computes the walk law a block of rows at a time, with
    the bytes of the dense expression and without its n x n temporaries."""

    @pytest.mark.parametrize("dim", [1, 3, 9])
    def test_cdf_equals_the_dense_expression_bitwise(self, dim):
        n = 2 * _ROW_BLOCK + 22  # a last block shorter than the rest
        assert n % _ROW_BLOCK
        world = build_world(SynthConfig(n_items=n, n_clusters=3, dim=dim, seed=4))
        c = world.model.coords
        d2 = ((c[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        transition = (1.0 + d2 / _WALK_SCALE**2) ** (-_WALK_ALPHA)
        np.fill_diagonal(transition, 0.0)
        expected = np.cumsum(transition, axis=1)
        assert world.transition_cdf.tobytes() == expected.tobytes()

    def test_world_peaks_below_one_and_a_half_n_by_n_arrays(self):
        # the cdf itself is one n x n array; the dense d2 and transition
        # arrays beside it would take the peak past two
        n = 800
        tracemalloc.start()
        try:
            world = build_world(SynthConfig(n_items=n, seed=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert world.transition_cdf.shape == (n, n)
        assert peak < 1.5 * n * n * 8


class CountingRng:
    """A generator that counts its ``random`` calls."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def random(self, *size):
        self.calls += 1
        return self.rng.random(*size)


def weight_cases():
    """Weight vectors to draw from: smooth, with zeros, and sharply peaked."""
    rng = np.random.default_rng(11)
    smooth = rng.lognormal(0.0, 1.0, size=200)
    holes = smooth.copy()
    holes[::3] = 0.0
    peaked = np.ones(40)
    peaked[[3, 17]] = 1e6
    return [smooth, holes, peaked]


class TestDrawsReproduceChoice:
    """Each draw returns what ``Generator.choice`` returns on a generator
    seeded alike, and leaves the stream where choice leaves it."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("weights", weight_cases(), ids=["smooth", "holes", "peaked"])
    def test_one_draw(self, weights, seed):
        ours, numpy = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            drawn = _draw(_cdf(_probabilities(weights)), ours)
            assert drawn == numpy.choice(len(weights), p=weights / weights.sum())
        assert ours.random() == numpy.random()

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("weights", weight_cases(), ids=["smooth", "holes", "peaked"])
    def test_distinct_draws(self, weights, seed):
        ours, numpy = np.random.default_rng(seed), np.random.default_rng(seed)
        for size in (1, 5, 24):
            drawn = _draw_distinct(weights, size, ours)
            expected = numpy.choice(
                len(weights), size=size, replace=False, p=weights / weights.sum()
            )
            assert drawn == expected.tolist()
        assert ours.random() == numpy.random()

    def test_peaked_weights_take_several_rounds(self):
        # two items hold almost all the mass, so each round finds few new ones
        weights = weight_cases()[2]
        rng = CountingRng(0)
        drawn = _draw_distinct(weights, 24, rng)
        assert rng.calls >= 3
        assert len(set(drawn)) == 24
        assert drawn == np.random.default_rng(0).choice(
            40, size=24, replace=False, p=weights / weights.sum()
        ).tolist()

    def test_every_item_left(self):
        # as many draws as non-zero weights: the loop runs until none is left
        weights = np.arange(25.0)
        ours, numpy = np.random.default_rng(4), np.random.default_rng(4)
        drawn = _draw_distinct(weights, 24, ours)
        expected = numpy.choice(25, size=24, replace=False, p=weights / weights.sum())
        assert drawn == expected.tolist()
        assert sorted(drawn) == list(range(1, 25))
        assert ours.random() == numpy.random()

    def test_world_start_item(self):
        world = build_world(SynthConfig(n_items=60, n_clusters=3, seed=9))
        weights = world.model.kappa**_START_POP_WEIGHT
        ours, numpy = np.random.default_rng(1), np.random.default_rng(1)
        for _ in range(50):
            assert _draw(world.start_cdf, ours) == numpy.choice(
                60, p=weights / weights.sum()
            )
        assert ours.random() == numpy.random()

    @pytest.mark.parametrize("dim", [2, 9])
    def test_target_draw(self, dim):
        # the booking law written out with np.mean and the dense distance
        # sum, drawn by choice
        world = build_world(SynthConfig(n_items=60, n_clusters=3, dim=dim, seed=6))
        ours, numpy = np.random.default_rng(2), np.random.default_rng(2)
        for visited in ([4, 9, 4, 30, 4], [7], [11, 12, 13, 14, 15, 16, 17, 18]):
            visits = np.array(visited)
            majority = np.bincount(world.clusters[visits]).argmax()
            coords = world.model.coords
            centroid = coords[visits[world.clusters[visits] == majority]].mean(axis=0)
            d2 = ((coords - centroid) ** 2).sum(axis=1)
            weights = world.attractiveness * (1.0 + d2 / _TARGET_SCALE**2) ** (
                -_TARGET_ALPHA
            )
            weights[visits] = 0.0
            for _ in range(20):
                assert _draw_target(world, ours, visited) == numpy.choice(
                    60, p=weights / weights.sum()
                )
        assert ours.random() == numpy.random()

    def test_impressions(self):
        # the distinct distractors by choice, shuffled in with the target by
        # permutation of the list
        world = build_world(SynthConfig(n_items=60, n_clusters=3, seed=6))
        ours, numpy = np.random.default_rng(8), np.random.default_rng(8)
        for target in (0, 17, 59):
            weights = world.impression_mix[int(world.clusters[target])].copy()
            weights[target] = 0.0
            distractors = numpy.choice(
                60, size=_N_IMPRESSIONS - 1, replace=False, p=weights / weights.sum()
            )
            expected = numpy.permutation([target] + distractors.tolist()).tolist()
            assert _draw_impressions(world, ours, target) == expected
        assert ours.random() == numpy.random()

    def test_action_kinds_in_one_call(self):
        # one vector draw gives the scalar draws' values and stream, also
        # between the walk's scalar integer and float draws
        ours, scalar = np.random.default_rng(3), np.random.default_rng(3)
        for length in (1, 2, 3, 7, 16):
            ours.integers(800)
            scalar.integers(800)
            drawn = ours.integers(4, size=length).tolist()
            assert drawn == [int(scalar.integers(4)) for _ in range(length)]
            assert ours.random() == scalar.random()


@pytest.mark.parametrize(
    "weights, draws",
    [
        ([1.0, -0.5, 2.0], 1),
        ([1.0, float("nan"), 2.0], 1),
        ([0.0, 0.0, 0.0], 1),
        ([1.0, float("inf"), 2.0], 1),
        ([1.0, 0.0, 2.0, 0.0], 3),
    ],
    ids=["negative", "nan", "zero-sum", "infinite", "too-few-non-zero"],
)
def test_refuses_what_choice_refuses(weights, draws):
    weights = np.array(weights)
    if draws == 1:
        with pytest.raises(ValueError):
            _draw(_cdf(_probabilities(weights)), np.random.default_rng(0))
    with pytest.raises(ValueError):
        _draw_distinct(weights, draws, np.random.default_rng(0))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        np.random.default_rng(0).choice(
            len(weights), size=draws, replace=False, p=weights / weights.sum()
        )
