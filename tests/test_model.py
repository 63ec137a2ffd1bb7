"""Connection law, its inversion, the generative sampler, and the model file."""

import hashlib
import math
import pickle
import re
import shutil
import tempfile
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from simpop import model as model_module
from simpop.errors import MissingItemError, ParseError, ValidationError
from simpop.model import (
    MODEL_FORMAT_HEADER,
    EmbeddingModel,
    ModelParams,
    derive_squared_distance,
    generate_synthetic_network,
    _law,
    _shortest_digits,
    read_model,
    write_model,
)
from simpop.synth import SynthConfig

from conftest import edit_int64, edit_table, rewrite_companion, set_dtype


def edit_float64(name, change):
    """An edit that applies ``change`` to a copy of the float64 section."""
    def edit(sections):
        section = next(s for s in sections if s[0] == name)
        values = np.frombuffer(section[2], dtype="<f8").copy()
        section[2] = change(values).astype("<f8").tobytes()
    return edit


def pair_probability(model, i, j):
    """One pair's connection probability, through the vectorised law."""
    return float(_law(model, model.index_of(i), [model.index_of(j)])[0])


def two_item_model(d=2.0, kappa=(1.0, 1.0), alpha=2.0, dim=1):
    """Two items separated by distance d along the first axis."""
    coords = np.zeros((2, dim))
    coords[1, 0] = d
    return EmbeddingModel(
        ModelParams(alpha=alpha, dim=dim), ["a", "b"], coords, np.array(kappa)
    )


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(alpha=0.0, dim=2)
        with pytest.raises(ValueError):
            ModelParams(alpha=1.0, dim=0)
        with pytest.raises(ValueError):
            ModelParams(alpha=1.0, dim=2, lam=-0.1)

    @pytest.mark.parametrize(
        "alpha, lam",
        [(math.inf, 0.0), (math.nan, 0.0), (2.0, math.nan), (2.0, math.inf)],
    )
    def test_non_finite_values_rejected(self, alpha, lam):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(alpha=alpha, dim=2, lam=lam)

    def test_alpha_below_one_warns(self):
        with pytest.warns(UserWarning):
            ModelParams(alpha=0.5, dim=2)

    @pytest.mark.parametrize("dim", [2.0, True], ids=["float", "bool"])
    def test_non_integer_dim_rejected(self, dim):
        # the header's dim is read back with int(), which rejects "2.0" and "True"
        with pytest.raises(ValueError, match="dim must be an integer"):
            ModelParams(alpha=2.0, dim=dim)


def round_trip(params, tmp_path):
    """The params of a one-item model under ``params``, written and read back."""
    model = EmbeddingModel(params, ["a"], np.zeros((1, params.dim)), np.ones(1))
    path = tmp_path / "model.txt"
    write_model(model, path)
    return read_model(path).params


class TestParamsFileTypes:
    """Every params a model holds writes a header read_model parses."""

    def test_numpy_integer_dim_stored_as_int(self, tmp_path):
        params = ModelParams(alpha=2.0, dim=np.int64(2))
        assert type(params.dim) is int
        assert round_trip(params, tmp_path) == params

    def test_numpy_float_alpha_stored_as_float(self, tmp_path):
        params = ModelParams(alpha=np.float64(2.0), dim=1)
        assert type(params.alpha) is float
        assert round_trip(params, tmp_path) == params

    def test_numpy_float_lam_stored_as_float(self, tmp_path):
        params = ModelParams(alpha=2.0, dim=1, lam=np.float64(0.01))
        assert type(params.lam) is float
        assert round_trip(params, tmp_path) == params


class TestConnectionLaw:
    def test_coincident_items_connect_surely(self):
        model = two_item_model(d=0.0, kappa=(3.0, 7.0), alpha=4.0)
        assert pair_probability(model, "a", "b") == 1.0

    def test_distance_equal_to_kappa_product(self):
        # d^2 = kappa_i * kappa_j and alpha = 2 gives (1+1)^-2
        model = two_item_model(d=2.0, kappa=(2.0, 2.0), alpha=2.0)
        assert pair_probability(model, "a", "b") == pytest.approx(0.25)

    def test_hand_value_alpha_one(self):
        model = two_item_model(d=2.0, kappa=(2.0, 2.0), alpha=1.0)
        assert pair_probability(model, "a", "b") == pytest.approx(0.5)

    def test_symmetry(self):
        model = two_item_model(d=1.7, kappa=(2.0, 5.0), alpha=2.5)
        assert pair_probability(model, "a", "b") == pair_probability(
            model, "b", "a"
        )

    def test_unknown_item_raises(self):
        model = two_item_model()
        with pytest.raises(MissingItemError):
            pair_probability(model, "a", "zzz")

    def test_range_on_random_models(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n, dim = 5, 3
            model = EmbeddingModel(
                ModelParams(alpha=float(rng.uniform(1, 4)), dim=dim),
                [f"i{k}" for k in range(n)],
                rng.normal(size=(n, dim)),
                rng.uniform(1, 10, size=n),
            )
            for i in range(n):
                for j in range(i + 1, n):
                    p = pair_probability(model, f"i{i}", f"i{j}")
                    assert 0.0 < p <= 1.0
                    d2 = float(((model.coords[i] - model.coords[j]) ** 2).sum())
                    assert (p == 1.0) == (d2 == 0.0)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(1)
        n = 8
        coords = rng.normal(size=(n, 3))
        kappa = rng.uniform(1, 5, size=n)
        model = EmbeddingModel(
            ModelParams(alpha=2.0, dim=3), [f"i{k}" for k in range(n)], coords, kappa
        )
        vec = _law(model, 0, np.arange(1, n))
        # the law as the README writes it: (1 + |x_i - x_j|^2 / (k_i k_j))^-alpha
        for k, p in enumerate(vec, start=1):
            d2 = float(np.sum((coords[0] - coords[k]) ** 2))
            expected = (1.0 + d2 / (kappa[0] * kappa[k])) ** -2.0
            assert p == pytest.approx(expected, rel=1e-12)


class TestInversion:
    def test_p_one_gives_zero_distance(self):
        assert derive_squared_distance(1.0, 3.0, 9.0, 2.5) == 0.0

    def test_hand_value(self):
        # 4 * (0.25^-0.5 - 1) = 4
        assert derive_squared_distance(0.25, 2.0, 2.0, 2.0) == pytest.approx(4.0)

    def test_round_trip_through_law(self):
        p = 0.37
        d2 = derive_squared_distance(p, 2.0, 5.0, 1.5)
        model = two_item_model(d=math.sqrt(d2), kappa=(2.0, 5.0), alpha=1.5)
        assert pair_probability(model, "a", "b") == pytest.approx(p, rel=1e-12)

    def test_domain_errors(self):
        for bad in (0.0, -0.1, 1.0001):
            with pytest.raises(ValueError):
                derive_squared_distance(bad, 1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            derive_squared_distance(0.5, 0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            derive_squared_distance(0.5, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "p, kappa, alpha",
        [(0.01, 1.0, 0.004), (0.5, 1e200, 2.0)],
        ids=["power", "popularity_product"],
    )
    def test_overflow_is_a_value_error(self, p, kappa, alpha):
        # p ** (-1 / alpha), or the popularity product, beyond float range
        with pytest.raises(ValueError, match="squared distance overflows at alpha"):
            derive_squared_distance(p, kappa, kappa, alpha)

    @pytest.mark.parametrize(
        "kappa_i, kappa_j, alpha, message",
        [
            (math.inf, 1.0, 2.0, "popularities must be finite and > 0, got inf, 1.0"),
            (1.0, math.nan, 2.0, "popularities must be finite and > 0, got 1.0, nan"),
            (1.0, 1.0, math.inf, "alpha must be finite and > 0, got inf"),
            (1.0, 1.0, math.nan, "alpha must be finite and > 0, got nan"),
        ],
        ids=["infinite-kappa", "nan-kappa", "infinite-alpha", "nan-alpha"],
    )
    def test_non_finite_input_rejected(self, kappa_i, kappa_j, alpha, message):
        with pytest.raises(ValueError, match=message):
            derive_squared_distance(0.5, kappa_i, kappa_j, alpha)


class TestSyntheticNetwork:
    def test_coincident_pair_always_connects(self):
        model = two_item_model(d=0.0)
        for seed in range(5):
            assert generate_synthetic_network(model, seed) == [("a", "b")]

    def test_empty_model_gives_empty_edges(self):
        model = EmbeddingModel(
            ModelParams(alpha=2.0, dim=2), [], np.empty((0, 2)), np.empty(0)
        )
        assert generate_synthetic_network(model, 0) == []

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(5)
        model = EmbeddingModel(
            ModelParams(alpha=2.0, dim=2),
            [f"i{k}" for k in range(10)],
            rng.normal(scale=2.0, size=(10, 2)),
            rng.uniform(1, 4, size=10),
        )
        assert generate_synthetic_network(model, 11) == generate_synthetic_network(
            model, 11
        )

    def test_edge_count_matches_bernoulli_expectation(self):
        # one far pair sampled many times: binomial count within 3 sigma
        p_target = 0.2
        d2 = derive_squared_distance(p_target, 1.0, 1.0, 2.0)
        model = two_item_model(d=math.sqrt(d2), alpha=2.0)
        trials = 400
        hits = sum(
            len(generate_synthetic_network(model, seed)) for seed in range(trials)
        )
        sigma = math.sqrt(trials * p_target * (1 - p_target))
        assert abs(hits - trials * p_target) <= 3 * sigma


class TestRegimeCheck:
    """The law's monotone regime, probed one direction at a time."""

    def test_directional_probes(self):
        # doubling popularity raises p; doubling distance or alpha lowers it
        model = two_item_model(d=2.0, kappa=(2.0, 2.0), alpha=2.0)
        p = pair_probability(model, "a", "b")
        heavier = two_item_model(d=2.0, kappa=(4.0, 2.0), alpha=2.0)
        farther = two_item_model(d=2.0 * math.sqrt(2), kappa=(2.0, 2.0), alpha=2.0)
        sharper = two_item_model(d=2.0, kappa=(2.0, 2.0), alpha=3.0)
        assert pair_probability(heavier, "a", "b") > p
        assert pair_probability(farther, "a", "b") < p
        assert pair_probability(sharper, "a", "b") < p


class TestModelFile:
    def _random_model(self, seed=0, n=7, dim=3):
        rng = np.random.default_rng(seed)
        return EmbeddingModel(
            ModelParams(alpha=2.25, dim=dim, lam=0.01),
            [f"item{k}" for k in range(n)],
            rng.normal(size=(n, dim)),
            rng.uniform(1, 9, size=n),
        )

    def test_round_trip_exact(self, tmp_path):
        model = self._random_model()
        path = tmp_path / "model.txt"
        write_model(model, path)
        again = read_model(path)
        assert again.ids == model.ids
        assert again.params == model.params
        np.testing.assert_array_equal(again.coords, model.coords)
        np.testing.assert_array_equal(again.kappa, model.kappa)

    def test_header_format(self, tmp_path):
        model = self._random_model()
        path = tmp_path / "model.txt"
        write_model(model, path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("simpop-model v1 dim=3 alpha=2.25 lambda=0.01")

    def test_write_is_deterministic(self, tmp_path):
        model = self._random_model()
        write_model(model, tmp_path / "a.txt")
        write_model(model, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a model file\n")
        with pytest.raises(ParseError):
            read_model(path)

    def test_ragged_line_names_it(self, tmp_path):
        path = tmp_path / "ragged.txt"
        write_model(self._random_model(), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = lines[3].rsplit(" ", 1)[0] + "\n"  # one coordinate short
        path.write_text("".join(lines))
        with pytest.raises(ParseError, match="line 4: .*2 coordinates, expected 3"):
            read_model(path)

    def test_non_float_token_names_it(self, tmp_path):
        path = tmp_path / "token.txt"
        write_model(self._random_model(), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2].replace("\t", "\tabc ", 1)
        path.write_text("".join(lines))
        with pytest.raises(ParseError, match="line 3: .*abc"):
            read_model(path)

    def test_repeated_item_names_it(self, tmp_path):
        path = tmp_path / "repeat.txt"
        write_model(self._random_model(), path)
        lines = path.read_text().splitlines(keepends=True)
        item = lines[2].split("\t")[0]
        lines[4] = lines[2]
        path.write_text("".join(lines))
        with pytest.raises(ParseError, match=f"line 5: repeated item '{item}'"):
            read_model(path)

    def test_wrong_field_count_names_it(self, tmp_path):
        path = tmp_path / "fields.txt"
        path.write_text("simpop-model v1 dim=1 alpha=2.0 lambda=0.0\na\t1.0\n")
        with pytest.raises(ParseError, match="line 2: .*2 tab-separated fields"):
            read_model(path)

    def test_non_numeric_header_value_rejected(self, tmp_path):
        path = tmp_path / "header.txt"
        path.write_text("simpop-model v1 dim=two alpha=2.0 lambda=0.0\n")
        with pytest.raises(ParseError, match="line 1: bad model header .*two"):
            read_model(path)


@st.composite
def finite_models(draw):
    """Models of finite coordinates (-0.0 and subnormals included) and kappa >= 1."""
    n, dim = draw(st.integers(0, 6)), draw(st.integers(1, 4))
    floats = st.floats(allow_nan=False, allow_infinity=False)
    return EmbeddingModel(
        ModelParams(alpha=2.0, dim=dim),
        [f"i{k}" for k in range(n)],
        draw(arrays(np.float64, (n, dim), elements=floats)),
        draw(arrays(np.float64, n, elements=st.floats(1.0, allow_infinity=False))),
    )


class TestModelFileFormat:
    """The file's exact text, and what reads back from it."""

    def test_literal_text(self, tmp_path):
        model = EmbeddingModel(
            ModelParams(alpha=2.0, dim=2),
            ["a", "b"],
            np.array([[-0.0, 5e-324], [1e308, 0.25]]),
            np.array([1.0, 1e300]),
        )
        path = tmp_path / "model.txt"
        write_model(model, path)
        assert path.read_text() == (
            "simpop-model v1 dim=2 alpha=2.0 lambda=0.0\n"
            "a\t1.0\t-0.0 5e-324\n"
            "b\t1e+300\t1e+308 0.25\n"
        )

    @settings(max_examples=60, deadline=None, database=None)
    @given(finite_models())
    def test_round_trip_is_bitwise(self, model):
        # through the companion, and through the parse once it is gone
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.txt"
            companion = write_model(model, path)
            loaded = read_model(path)
            companion.unlink()
            parsed = read_model(path)
        assert loaded.sources == (path, companion) and parsed.sources == (path,)
        for again in (loaded, parsed):
            assert again.ids == model.ids
            assert again.coords.tobytes() == model.coords.tobytes()
            assert again.kappa.tobytes() == model.kappa.tobytes()

    def test_header_only_file_is_an_empty_model(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("simpop-model v1 dim=3 alpha=2.0 lambda=0.0\n")
        model = read_model(path)
        assert len(model) == 0
        assert model.coords.shape == (0, 3) and model.kappa.shape == (0,)

    def test_bad_token_reported_before_coordinate_count(self, tmp_path):
        path = tmp_path / "token.txt"
        path.write_text("simpop-model v1 dim=3 alpha=2.0 lambda=0.0\na\t1.0\tabc\n")
        with pytest.raises(ParseError, match="line 2: .*'abc'"):
            read_model(path)

    @pytest.mark.parametrize("companion", [True, False], ids=["companion", "parse"])
    def test_read_peak_memory_is_bounded(self, tmp_path, companion):
        # 4x leaves room for the read buffer, the model's sorted copy and the
        # ids; holding a Python float per value peaks near 7.8x
        n, dim = 10_000, 20
        rng = np.random.default_rng(0)
        model = EmbeddingModel(
            ModelParams(alpha=2.0, dim=dim),
            [f"item{k:05d}" for k in range(n)],
            rng.normal(size=(n, dim)),
            rng.uniform(1.0, 1000.0, size=n),
        )
        path = tmp_path / "model.txt"
        written = write_model(model, path)
        if not companion:
            written.unlink()
        tracemalloc.start()
        try:
            again = read_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again.coords.tobytes() == model.coords.tobytes()
        assert len(again.sources) == (2 if companion else 1)
        assert peak < 4 * model.coords.nbytes


def odd_model():
    """A model whose ids hold spaces, commas, quotes and non-ASCII text, in
    no order, with -0.0, a subnormal and float extremes among its values."""
    rng = np.random.default_rng(4)
    ids = ["z", "ü ✓", "a,b", 'q"', "item 2", "é"]
    coords = rng.normal(size=(len(ids), 3))
    coords[0] = [-0.0, 5e-324, 1e308]
    return EmbeddingModel(
        ModelParams(alpha=2.25, dim=3, lam=0.01), ids, coords,
        np.array([1.0, 1e300, 2.5, 7.0, 1.0, 3.25]),
    )


def assert_same_model(model, other):
    """The same params, ids, and coordinates and popularities to the bit."""
    assert model.params == other.params
    assert model.ids == other.ids
    assert model.coords.tobytes() == other.coords.tobytes()
    assert model.kappa.tobytes() == other.kappa.tobytes()


@pytest.fixture
def model_files(tmp_path):
    """A written model, its companion, and the model parsed from a copy of
    the text that has no companion."""
    path = tmp_path / "model.txt"
    companion = write_model(odd_model(), path)
    assert companion == tmp_path / "model.txt.columns"
    copy = tmp_path / "copy" / "model.txt"
    copy.parent.mkdir()
    shutil.copyfile(path, copy)
    parsed = read_model(copy)
    assert parsed.sources == (copy,) and parsed._digests == ()
    return path, companion, parsed


class TestModelCompanion:
    def test_a_companion_loads_as_its_text_parses(self, model_files, no_pickle):
        path, companion, parsed = model_files
        loaded = read_model(path)
        assert loaded.sources == (path, companion)
        assert loaded._digests == ((path, hashlib.sha256(path.read_bytes()).hexdigest()),)
        assert_same_model(loaded, parsed)
        assert_same_model(loaded, odd_model())
        # the model holds its own arrays, not views of the companion's bytes
        assert loaded.coords.flags.writeable and loaded.kappa.flags.writeable

    def test_a_path_string_reads_the_same(self, model_files):
        path, companion, parsed = model_files
        loaded = read_model(str(path))
        assert loaded.sources == (path, companion)
        assert_same_model(loaded, parsed)

    def test_two_writes_give_the_same_bytes(self, model_files):
        path, companion, parsed = model_files
        text, first = path.read_bytes(), companion.read_bytes()
        assert write_model(odd_model(), path).read_bytes() == first
        assert write_model(read_model(path), path).read_bytes() == first
        assert write_model(parsed, path).read_bytes() == first
        assert path.read_bytes() == text

    def test_an_edited_text_ignores_its_stale_companion(self, model_files):
        path, companion, parsed = model_files
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        item, kappa, row = lines[1].rstrip("\n").split("\t")
        lines[1] = f"{item}\t{kappa}\t0.5 {row.split(' ', 1)[1]}\n"
        path.write_text("".join(lines), encoding="utf-8")
        back = read_model(path)
        assert back.sources == (path,)
        assert back._digests == ((path, hashlib.sha256(path.read_bytes()).hexdigest()),)
        assert back.coords[back.index_of(item), 0] == 0.5
        assert np.array_equal(np.delete(back.coords, back.index_of(item), 0),
                              np.delete(parsed.coords, parsed.index_of(item), 0))

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda lines: lines[:3] + [lines[3].rsplit(" ", 1)[0] + "\n"] + lines[4:],
             "line 4: malformed model line in {path}: 2 coordinates, expected 3"),
            (lambda lines: lines + [lines[2]], "line 8: repeated item"),
            (lambda lines: ["simpop-model v1 dim=3 alpha=two lambda=0.01\n", *lines[1:]],
             "line 1: bad model header"),
        ],
        ids=["short-row", "repeated-item", "bad-header"],
    )
    def test_a_malformed_edit_raises_as_the_parse_does(self, model_files, edit, error):
        path, companion, _ = model_files
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(edit(lines)), encoding="utf-8")
        with pytest.raises(ParseError) as stale:
            read_model(path)
        companion.unlink()
        with pytest.raises(ParseError) as alone:
            read_model(path)
        assert str(stale.value) == str(alone.value)
        assert str(stale.value).startswith(error.format(path=path))

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(edit_table("ids", lambda t: t[::-1]), id="unsorted-ids"),
            pytest.param(edit_table("ids", lambda t: [t[0], *t[:-1]]), id="repeated-id"),
            pytest.param(edit_table("ids", lambda t: ["a\tb", *t[1:]]), id="id-with-tab"),
            pytest.param(edit_table("ids", lambda t: t[:-1]), id="one-id-short"),
            pytest.param(edit_int64("ids.lengths", lambda v: v + 1),
                         id="lengths-beyond-text"),
            pytest.param(edit_float64("coords", lambda v: v[:-1]), id="coords-not-n-dim"),
            pytest.param(edit_float64("coords", lambda v: np.append(v, v[:3])),
                         id="coords-one-row-over"),
            pytest.param(edit_float64("kappa", lambda v: v[:-1]), id="kappa-not-n"),
            pytest.param(edit_float64("coords", lambda v: np.append(v[:-1], np.inf)), id="coords-not-finite"),
            pytest.param(edit_float64("kappa", lambda v: v - 1.0), id="kappa-below-one"),
            pytest.param(set_dtype("coords", "<f4"), id="wrong-dtype"),
            pytest.param(set_dtype("ids", "|O", pickle.dumps(np.array(["a"], dtype=object))),
                         id="object-array"),
        ],
    )
    def test_a_faulty_companion_falls_back_to_the_parse(
        self, model_files, edit, no_pickle
    ):
        path, companion, parsed = model_files
        rewrite_companion(companion, edit)
        back = read_model(path)
        assert back.sources == (path,)
        assert_same_model(back, parsed)

    @pytest.mark.parametrize(
        "cut",
        [lambda b: b[:-8], lambda b: b[: len(b) // 2], lambda b: b[:17], lambda b: b"",
         lambda b: b + bytes(8),
         lambda b: b.replace(b"simpop-columns 1", b"simpop-columns 2"),
         lambda b: b.replace(b'["kappa", "<f8", 6]', b'["kappa", "<f8", 5]'),
         lambda b: b.replace(b'["kappa", "<f8", 6]', b'["kappa", "<f8", 7]'),
         lambda b: b.replace(b'"sha256": "', b'"sha256": "0'),
         lambda b: b"simpop-columns 1\n" + b"[" * 100_000 + b"\n"],
        ids=["truncated-by-8", "truncated-by-half", "tag-only", "empty", "overlong",
             "other-tag", "section-length-short", "section-length-long",
             "other-digest", "deeply-nested-header"],
    )
    def test_a_damaged_companion_falls_back_to_the_parse(
        self, model_files, cut, no_pickle
    ):
        path, companion, parsed = model_files
        damaged = cut(companion.read_bytes())
        assert damaged != companion.read_bytes()
        companion.write_bytes(damaged)
        back = read_model(path)
        assert back.sources == (path,)
        assert_same_model(back, parsed)

    def test_a_corpus_companion_is_not_a_model_companion(self, model_files, tmp_path):
        # the same container, but its sections are a corpus's
        from simpop.sessions import Role, SessionCorpus, write_columns

        path, companion, parsed = model_files
        write_columns(SessionCorpus.from_actions([], Role.TRAIN), path)
        back = read_model(path)
        assert back.sources == (path,)
        assert_same_model(back, parsed)

    def test_a_hand_written_model_reads_without_a_companion(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text(
            "simpop-model v1 dim=2 alpha=2.0 lambda=0.0\nb\t2.0\t0.5 -1.0\na\t1.0\t0 1\n"
        )
        model = read_model(path)
        assert model.sources == (path,) and model._digests == ()
        assert model.ids == ("a", "b")
        assert model.coords.tolist() == [[0.0, 1.0], [0.5, -1.0]]

    def test_an_empty_model(self, tmp_path):
        path = tmp_path / "empty.txt"
        empty = EmbeddingModel(ModelParams(alpha=2.0, dim=3), [], np.zeros((0, 3)), [])
        companion = write_model(empty, path)
        loaded = read_model(path)
        assert loaded.sources == (path, companion)
        assert len(loaded) == 0 and loaded.coords.shape == (0, 3)

    def test_a_model_built_in_memory_has_no_sources(self):
        model = odd_model()
        assert model.sources == () and model._digests == ()


class TestModelValidation:
    @pytest.mark.parametrize("brk", ["\t", "\n", "\r"], ids=["tab", "lf", "cr"])
    def test_id_the_file_cannot_carry_rejected(self, brk):
        item = f"x{brk}y"
        with pytest.raises(ValidationError, match=re.escape(repr(item))):
            EmbeddingModel(
                ModelParams(alpha=2.0, dim=1),
                ["a", item],
                np.zeros((2, 1)),
                np.ones(2),
            )

    def test_non_finite_coords_rejected(self):
        with pytest.raises(ValidationError):
            EmbeddingModel(
                ModelParams(alpha=2.0, dim=1),
                ["a"],
                np.array([[float("nan")]]),
                np.array([1.0]),
            )

    @pytest.mark.parametrize("kappa", [0.0, 0.5])
    def test_non_positive_kappa_rejected(self, kappa):
        # a model's popularities follow the PopularityTable's rule, kappa >= 1
        with pytest.raises(ValidationError):
            EmbeddingModel(
                ModelParams(alpha=2.0, dim=1),
                ["a"],
                np.array([[0.0]]),
                np.array([kappa]),
            )

    @pytest.mark.parametrize("kappa", [math.inf, math.nan])
    def test_non_finite_kappa_rejected(self, kappa, tmp_path):
        # an infinite kappa would give every candidate probability 1
        with pytest.raises(ValidationError, match="finite"):
            EmbeddingModel(
                ModelParams(alpha=2.0, dim=1),
                ["a"],
                np.array([[0.0]]),
                np.array([kappa]),
            )
        path = tmp_path / "model.txt"
        path.write_text(
            f"simpop-model v1 dim=1 alpha=2.0 lambda=0.0\na\t{kappa!r}\t0.0\n"
        )
        with pytest.raises(ValidationError, match="finite"):
            read_model(path)

    def test_synth_kappa_max_below_one_rejected(self):
        with pytest.raises(ValueError, match="kappa_max"):
            SynthConfig(kappa_max=0.5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dim", 0),
            ("n_clusters", 0),
            ("n_train_sessions", -5),
            ("n_test_sessions", -1),
            ("mean_interactions", 0.0),
            ("mean_interactions", 0.5),
            ("mean_interactions", math.inf),
            ("mean_interactions", math.nan),
        ],
    )
    def test_synth_setting_it_cannot_generate_from_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SynthConfig(**{field: value})

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            EmbeddingModel(
                ModelParams(alpha=2.0, dim=2),
                ["a"],
                np.array([[0.0]]),
                np.array([1.0]),
            )

    def test_duplicate_ids_rejected(self):
        for ids in (["a", "a", "b"], ["b", "a", "b"]):
            with pytest.raises(ValidationError, match="duplicate item ids"):
                EmbeddingModel(
                    ModelParams(alpha=2.0, dim=1), ids, np.zeros((3, 1)), np.ones(3)
                )


class TestModelConstruction:
    """Sorted ids are kept in their order; any other order is sorted."""

    def test_sorted_and_shuffled_ids_give_the_same_model(self):
        rng = np.random.default_rng(5)
        ids = sorted(f"i{k}" for k in range(300))
        coords, kappa = rng.normal(size=(300, 4)), rng.uniform(1, 9, size=300)
        params = ModelParams(alpha=2.0, dim=4)
        kept = EmbeddingModel(params, ids, coords, kappa)
        order = rng.permutation(300)
        shuffled = EmbeddingModel(
            params, [ids[k] for k in order], coords[order], kappa[order]
        )
        assert_same_model(kept, shuffled)
        assert kept.ids == tuple(ids) and kept._index == shuffled._index

    @pytest.mark.parametrize("order", ["sorted", "shuffled"])
    def test_the_model_owns_its_arrays(self, order):
        rng = np.random.default_rng(6)
        ids = [f"i{k}" for k in range(8)]
        if order == "shuffled":
            ids.reverse()
        coords, kappa = rng.normal(size=(8, 2)), rng.uniform(1, 9, size=8)
        model = EmbeddingModel(ModelParams(alpha=2.0, dim=2), ids, coords, kappa)
        before = (model.ids, model.coords.copy(), model.kappa.copy())
        coords[:], kappa[:], ids[0] = 0.0, 5.0, "changed"
        assert model.ids == before[0]
        assert model.coords.tobytes() == before[1].tobytes()
        assert model.kappa.tobytes() == before[2].tobytes()


def repr_text(model):
    """The model file's text with each float as ``repr`` writes it: the
    reference the writer's bytes are checked against."""
    p = model.params
    lines = [f"{MODEL_FORMAT_HEADER} dim={p.dim} alpha={p.alpha!r} lambda={p.lam!r}\n"]
    lines.extend(
        f"{item}\t{kappa!r}\t{' '.join(map(repr, row))}\n"
        for item, kappa, row in zip(
            model.ids, model.kappa.tolist(), model.coords.tolist()
        )
    )
    return "".join(lines).encode()


def written_text(model, directory):
    path = Path(directory) / "model.txt"
    write_model(model, path)
    return path.read_bytes()


def model_of(values):
    """A model whose coordinates are ``values`` and their negatives, seven
    to a row, each row's popularity max(|its first coordinate|, 1)."""
    values = np.concatenate([values, -values])
    coords = np.append(values, np.zeros(-len(values) % 7)).reshape(-1, 7)
    return EmbeddingModel(
        ModelParams(alpha=2.0, dim=7),
        [f"v{k:07d}" for k in range(len(coords))],
        coords,
        np.maximum(np.abs(coords[:, 0]), 1.0),
    )


def float_inputs():
    """Named sets of floats that probe the writer's edges: every power of
    two; each power of ten from 1e-5 to 1e17 and both its neighbours (the
    fast path's ends 1e-4 and 1e15, and repr's switch to the exponent form
    at 1e16, among them); decimals of 1 to 17 significant digits; and
    dyadic values, some halfway between two 17-digit decimals."""
    rng = np.random.default_rng(29)
    tens = np.array([float(f"1e{k}") for k in range(-5, 18)])
    decimals = [
        float(f"{digits}e{shift}")
        for k in range(1, 18)
        for digits, shift in zip(
            rng.integers(10 ** (k - 1), 10**k, 500).tolist(),
            rng.integers(-8, 20, 500).tolist(),
        )
    ]
    dyadic = [
        (2 * j + 1) / 2.0**k
        for k in range(1, 61)
        for j in rng.integers(0, 2**40, 100).tolist()
    ]
    return {
        "powers of two": np.array([2.0**k for k in range(-1074, 1024)]),
        "powers of ten": np.concatenate(
            [np.nextafter(tens, 0), tens, np.nextafter(tens, np.inf)]
        ),
        "decimals": np.array(decimals),
        "dyadic": np.array(dyadic),
    }


def serve_like_model(n):
    """An n x 20 model drawn like the serve benchmark's: normal(0, 4)
    coordinates, popularities floor(exp(U(0, ln 1000)))."""
    rng = np.random.default_rng(11)
    return EmbeddingModel(
        ModelParams(alpha=2.0, dim=20),
        [f"m{k:06d}" for k in range(n)],
        rng.normal(0.0, 4.0, size=(n, 20)),
        np.floor(np.exp(rng.uniform(0.0, math.log(1000.0), size=n))),
    )


def is_tie(x):
    """Whether |x| lies exactly halfway between two 17-, 16- or 15-digit
    decimals, by exact arithmetic."""
    exact, e = Fraction(abs(x)), Decimal(abs(x)).adjusted()
    return any(
        (exact * Fraction(10) ** (16 - e - j)) % 1 == Fraction(1, 2) for j in range(3)
    )


class TestFloatText:
    """``write_model`` writes each float as ``repr`` does, byte for byte."""

    @pytest.mark.parametrize("name", list(float_inputs()))
    def test_edges_write_repr_bytes(self, name, tmp_path):
        model = model_of(float_inputs()[name])
        assert written_text(model, tmp_path) == repr_text(model)

    def test_a_serve_like_model_writes_repr_bytes(self, tmp_path):
        model = serve_like_model(20_000)
        assert written_text(model, tmp_path) == repr_text(model)

    @settings(max_examples=200, deadline=None, database=None)
    @given(finite_models())
    def test_any_finite_model_writes_repr_bytes(self, model):
        with tempfile.TemporaryDirectory() as tmp:
            assert written_text(model, tmp) == repr_text(model)

    def test_ids_of_any_text_write_their_bytes(self, tmp_path):
        # empty, NUL-ended and non-ASCII ids, and blocks of different widths
        ids = ["", "\x00", "a\x00\x00", "ü ✓", "z" * 300]
        ids += [f"i{k}" for k in range(600)]
        rng = np.random.default_rng(7)
        model = EmbeddingModel(
            ModelParams(alpha=2.0, dim=3), ids,
            rng.normal(size=(len(ids), 3)), rng.uniform(1, 9, size=len(ids)),
        )
        assert written_text(model, tmp_path) == repr_text(model)

    @pytest.mark.parametrize("off", [1, -1])
    def test_a_wrong_exponent_guess_changes_no_byte(self, off, monkeypatch, tmp_path):
        guess = model_module._exponent_guess
        monkeypatch.setattr(
            model_module, "_exponent_guess", lambda sizes: guess(sizes) + off
        )
        serve = serve_like_model(500).coords.ravel()
        model = model_of(np.concatenate([*float_inputs().values(), serve]))
        assert written_text(model, tmp_path) == repr_text(model)

    def test_each_fallback_is_taken(self):
        values = np.concatenate(list(float_inputs().values()))
        taken = values[_shortest_digits(values)[2]]
        size = np.abs(taken)
        assert (size < 1e-4).any() and (size >= 1e15).any()
        inside = taken[(size >= 1e-4) & (size < 1e15)]
        power = np.abs(np.frexp(inside)[0]) == 0.5
        assert power.any()
        # a tie is settled in the fast path (the next test)
        assert not any(map(is_tie, inside.tolist()))

    def test_ties_go_to_the_even_decimal_without_repr(self, tmp_path):
        # above 1e12 a float has few fractional bits, so many lie exactly
        # halfway between their two nearest 17-, 16- or 15-digit decimals
        rng = np.random.default_rng(31)
        values = np.exp(rng.uniform(math.log(1e12), math.log(1e15), 3000))
        values = np.concatenate([values, np.round(values * 16) / 16, np.round(values * 2) / 2])
        ties = np.array(list(map(is_tie, values.tolist())))
        assert ties.sum() > 500
        assert not _shortest_digits(values)[2].any()
        model = model_of(values)
        assert written_text(model, tmp_path) == repr_text(model)

    def test_write_peak_memory_is_bounded(self, tmp_path):
        # the writer's buffers hold one block of rows, whatever the model's size
        model = serve_like_model(40_000)
        tracemalloc.start()
        try:
            write_model(model, tmp_path / "model.txt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < model.coords.nbytes / 2
