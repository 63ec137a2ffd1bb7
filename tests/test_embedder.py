"""Objective/gradient correctness (finite-difference oracle) and fit behavior."""

import tracemalloc

import numpy as np
import pytest

from simpop import embedder
from simpop.affinity import AffinityGraph, PopularityTable, build_affinity_graph
from simpop.embedder import (
    _BLOCK,
    _FTOL,
    _FTOL_WINDOW,
    FitConfig,
    FitTrace,
    _PairObjective,
    _backtrack,
    build_targets,
    fit_embedding,
    gradient,
    objective,
    write_trace,
)
from simpop.errors import DivergenceError, MissingItemError, ValidationError
from simpop.model import ModelParams, _law, derive_squared_distance
from simpop.sessions import filter_bookable_sessions
from simpop.synth import SynthConfig, generate

from conftest import pair_dict


def numerical_gradient(coords, targets, lam, h=1e-6):
    """Central finite differences of the objective, the independent oracle."""
    grads = {}
    for item, x in coords.items():
        x = np.asarray(x, dtype=np.float64)
        g = np.zeros_like(x)
        for d in range(len(x)):
            bumped = dict(coords)
            plus = x.copy()
            plus[d] += h
            bumped[item] = plus
            f_plus = objective(bumped, targets, lam)
            minus = x.copy()
            minus[d] -= h
            bumped[item] = minus
            f_minus = objective(bumped, targets, lam)
            g[d] = (f_plus - f_minus) / (2 * h)
        grads[item] = g
    return grads


def random_instance(rng, n=None, dim=None):
    n = n or int(rng.integers(3, 11))
    dim = dim or int(rng.integers(1, 4))
    items = [f"i{k}" for k in range(n)]
    coords = {item: rng.normal(scale=2.0, size=dim) for item in items}
    targets = {}
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.6:
                targets[(items[a], items[b])] = float(rng.uniform(0.0, 9.0))
    return coords, targets


def flat_bincount_kernel(n, dim, ii, jj, d2, lam, x):
    """f and grad-f written out with one flat ``bincount`` per pair side,
    each bin summing its terms in pair order from 0.0: the bytes every
    gradient scatter of the fit must give."""
    coords = x.reshape(n, dim)
    diff = coords[ii] - coords[jj]
    r = np.einsum("ij,ij->i", diff, diff) - d2
    f = float(np.einsum("i,i->", r, r)) + lam * float(
        np.einsum("ij,ij->", coords, coords)
    )
    weights = (diff * (4.0 * r)[:, None]).ravel()
    offsets = np.arange(dim)
    # the float cast is for zero pairs, whose bincount is an int array
    g = np.bincount((ii[:, None] * dim + offsets).ravel(), weights, minlength=n * dim)
    g = g.astype(np.float64)
    g -= np.bincount((jj[:, None] * dim + offsets).ravel(), weights, minlength=n * dim)
    g += (2.0 * lam) * coords.ravel()
    return f, g


class TestObjective:
    def test_single_pair_at_origin(self):
        coords = {"a": np.zeros(2), "b": np.zeros(2)}
        assert objective(coords, {("a", "b"): 1.0}, 0.0) == pytest.approx(1.0)

    def test_zero_residual(self):
        coords = {"a": np.array([0.0, 0.0]), "b": np.array([2.0, 0.0])}
        assert objective(coords, {("a", "b"): 4.0}, 0.0) == 0.0

    def test_pure_regularizer(self):
        coords = {"a": np.array([1.0, 0.0])}
        assert objective(coords, {}, 0.1) == pytest.approx(0.1)

    @pytest.mark.parametrize("view", [objective, gradient], ids=["objective", "gradient"])
    def test_missing_coordinate_names_item(self, view):
        with pytest.raises(MissingItemError, match="b"):
            view({"a": np.zeros(2)}, {("a", "b"): 1.0}, 0.0)

    @pytest.mark.parametrize("view", [objective, gradient], ids=["objective", "gradient"])
    @pytest.mark.parametrize(
        "coords, message",
        [
            ({"a": [1.0, 2.0], "b": [1.0]}, "item 'b' has 1 coordinates, item 'a' has 2"),
            ({"a": [1.0, 2.0], "b": [1.0, 2.0, 3.0]}, "item 'b' has 3"),
            ({"a": [1.0], "b": [[1.0]]}, "item 'b' are not a vector"),
            ({"a": 1.0}, "item 'a' are not a vector"),
        ],
    )
    def test_coordinates_not_one_length_name_the_item(self, view, coords, message):
        with pytest.raises(ValidationError, match=message):
            view(coords, {("a", "b"): 1.0} if "b" in coords else {}, 0.0)

    @pytest.mark.parametrize("view", [objective, gradient], ids=["objective", "gradient"])
    @pytest.mark.parametrize("lam", [-0.5, float("inf"), float("nan")])
    def test_lambda_out_of_range_rejected(self, view, lam):
        # the range ModelParams accepts
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            view({"a": [1.0, 2.0]}, {}, lam)

    def test_translation_invariant_without_regularizer(self):
        rng = np.random.default_rng(0)
        coords, targets = random_instance(rng, n=6, dim=2)
        f0 = objective(coords, targets, 0.0)
        shift = np.array([3.7, -1.2])
        moved = {i: x + shift for i, x in coords.items()}
        assert objective(moved, targets, 0.0) == pytest.approx(f0, rel=1e-12)

    def test_translation_raises_regularized_objective(self):
        rng = np.random.default_rng(1)
        coords, targets = random_instance(rng, n=6, dim=2)
        # center first so any shift strictly increases the norm term
        center = np.mean([x for x in coords.values()], axis=0)
        coords = {i: x - center for i, x in coords.items()}
        f0 = objective(coords, targets, 0.5)
        moved = {i: x + np.array([2.0, 0.0]) for i, x in coords.items()}
        assert objective(moved, targets, 0.5) > f0


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            lam = 0.0 if trial % 2 == 0 else 0.01
            coords, targets = random_instance(rng)
            analytic = gradient(coords, targets, lam)
            numeric = numerical_gradient(coords, targets, lam)
            for item in coords:
                scale = max(1.0, float(np.linalg.norm(numeric[item])))
                err = float(np.linalg.norm(analytic[item] - numeric[item])) / scale
                assert err < 1e-5, (trial, item)

    def test_antisymmetric_for_mirrored_pair(self):
        coords = {"a": np.array([1.0, 2.0]), "b": np.array([-1.0, -2.0])}
        grads = gradient(coords, {("a", "b"): 3.0}, 0.0)
        np.testing.assert_allclose(grads["a"], -grads["b"])

    def test_zero_at_all_zero_coordinates(self):
        coords = {k: np.zeros(3) for k in "abcd"}
        targets = {("a", "b"): 2.0, ("c", "d"): 5.0, ("a", "c"): 1.0}
        grads = gradient(coords, targets, 0.0)
        for g in grads.values():
            np.testing.assert_array_equal(g, np.zeros(3))

    def test_fit_kernel_gradient_matches_finite_differences(self):
        # the kernel as the fit builds it, against central differences of
        # its own value
        rng = np.random.default_rng(3)
        graph = _random_graph(rng, n=6)
        ids, ii, jj, d2 = build_targets(graph, alpha=2.0)
        n, dim, h = len(ids), 4, 1e-6
        problem = _PairObjective(n, dim, ii, jj, d2, lam=0.05)
        x = rng.normal(size=n * dim)
        problem.value(x.copy())
        analytic = problem.grad().reshape(n, dim)
        numeric = np.empty(n * dim)
        for k in range(n * dim):
            step = np.zeros(n * dim)
            step[k] = h
            numeric[k] = (problem.value(x + step) - problem.value(x - step)) / (2 * h)
        numeric = numeric.reshape(n, dim)
        for k in range(n):
            scale = max(1.0, float(np.linalg.norm(numeric[k])))
            err = float(np.linalg.norm(analytic[k] - numeric[k])) / scale
            assert err < 1e-5, ids[k]


@pytest.fixture(scope="module")
def synth_graph():
    data = generate(
        SynthConfig(n_items=300, n_clusters=6, n_train_sessions=600,
                    n_test_sessions=30, seed=4)
    )
    return build_affinity_graph(filter_bookable_sessions(data.train), 2, 3)


class TestTargets:
    @pytest.mark.parametrize("alpha", [0.7, 1.0, 2.0, 3.0])
    def test_array_inverse_equals_scalar_bitwise(self, synth_graph, alpha):
        # the scalar law with Python floats (libm pow) is the oracle; a SIMD
        # power loop rounds some targets differently
        ids, ii, jj, d2 = build_targets(synth_graph, alpha)
        assert len(d2) == synth_graph.n_pairs > 300
        kappa = synth_graph.popularity
        pairs = pair_dict(synth_graph)
        scalar, written_out = [], []
        for i, j in zip(ii.tolist(), jj.tolist()):
            p, k_i, k_j = pairs[(ids[i], ids[j])], kappa[ids[i]], kappa[ids[j]]
            scalar.append(derive_squared_distance(p, k_i, k_j, alpha))
            written_out.append(k_i * k_j * (p ** (-1.0 / alpha) - 1.0))
        bits = d2.view(np.uint64)
        assert np.array_equal(bits, np.array(scalar).view(np.uint64))
        assert np.array_equal(bits, np.array(written_out).view(np.uint64))


class TestKernel:
    """The fitter's kernel, bit for bit against a per-dimension scatter."""

    def _problem(self, dim=4, lam=0.05):
        rng = np.random.default_rng(23)
        graph = _random_graph(rng, n=9)
        ids, ii, jj, d2 = build_targets(graph, alpha=2.0)
        n = len(ids)
        # sorted pairs put the first item only in ii and the last only in jj
        assert set(ii.tolist()) != set(range(n))
        assert set(jj.tolist()) != set(range(n))
        x = rng.normal(scale=2.0, size=n * dim)
        return _PairObjective(n, dim, ii, jj, d2, lam), x

    def test_gradient_equals_per_dimension_scatter_bitwise(self):
        problem, x = self._problem()
        n, dim, ii, jj = problem.n, problem.dim, problem.ii, problem.jj
        coords = x.reshape(n, dim)
        diff = coords[ii] - coords[jj]
        r = np.einsum("ij,ij->i", diff, diff) - problem.d2
        pull = diff * (4.0 * r)[:, None]
        expected = np.zeros_like(coords)
        for d in range(dim):
            expected[:, d] = np.bincount(ii, pull[:, d], minlength=n)
            expected[:, d] -= np.bincount(jj, pull[:, d], minlength=n)
        expected += (2.0 * problem.lam) * coords
        problem.value(x)
        assert np.array_equal(problem.grad(), expected.ravel())

    @pytest.mark.parametrize("n_pairs", [1, 7, 8, 9, 31])
    def test_blocks_equal_the_flat_bincount_kernel_bitwise(self, n_pairs, monkeypatch):
        # blocks of 8 pairs: one short block, one exact, one past, several
        monkeypatch.setattr(embedder, "_BLOCK", 8)
        rng = np.random.default_rng(n_pairs)
        n, dim, lam = 5, 3, 0.05
        # few items, so bins repeat across blocks and the addition order shows
        ii = rng.integers(0, n - 1, size=n_pairs)
        jj = ii + rng.integers(1, n - ii)
        d2 = rng.uniform(0.1, 4.0, size=n_pairs)
        x = rng.normal(scale=2.0, size=n * dim)
        problem = _PairObjective(n, dim, ii, jj, d2, lam)
        f, g = flat_bincount_kernel(n, dim, ii, jj, d2, lam, x)
        assert problem.value(x) == f
        assert problem.grad().tobytes() == g.tobytes()

    def test_value_and_grad_hold_one_pairs_by_dim_array(self):
        # a second pairs x dim array (a whole jj gather, or a flat index
        # array per side) would take the peak past 1.5 of them
        rng = np.random.default_rng(5)
        n, dim, n_pairs = 1000, 16, 16 * _BLOCK
        ii = rng.integers(0, n - 1, size=n_pairs)
        jj = ii + rng.integers(1, n - ii)
        problem = _PairObjective(n, dim, ii, jj, rng.uniform(0.1, 4.0, n_pairs), 0.05)
        x = rng.normal(size=n * dim)
        tracemalloc.start()
        try:
            problem.value(x)
            problem.grad()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n_pairs * dim * 8

    def test_grad_is_at_the_last_evaluated_point(self):
        problem, x = self._problem()
        problem.value(x)
        problem.value(2.0 * x)
        at_last = problem.grad()
        problem.value(2.0 * x)
        assert np.array_equal(at_last, problem.grad())

    def test_grad_without_evaluated_point_raises(self):
        problem, x = self._problem()
        with pytest.raises(RuntimeError):
            problem.grad()
        problem.value(x)
        problem.grad()
        with pytest.raises(RuntimeError):
            problem.grad()

    def test_input_point_is_not_modified(self):
        problem, x = self._problem()
        before = x.copy()
        problem.value(x)
        problem.grad()
        assert np.array_equal(x, before)


def _skewed_pairs(rng, n, n_pairs):
    """Random pairs whose ends favour low item codes, so a few hub items
    collect most of each side's terms; item 0 leads both sides by far, its
    own pairs shuffled among the others'."""
    weights = 1.0 / np.arange(1, n + 1) ** 1.5
    ii = rng.choice(n, size=n_pairs, p=weights / weights.sum())
    jj = (ii + rng.choice(np.arange(1, n), size=n_pairs)) % n
    others = rng.integers(1, n, size=n_pairs // 4)
    ii, jj = np.r_[ii, np.zeros_like(others), others], np.r_[jj, others, np.zeros_like(others)]
    order = rng.permutation(len(ii))
    return ii[order], jj[order]


def _index_bytes(plan) -> int:
    """Bytes of every index a scatter plan keeps, a list entry taken as 8."""
    return sum(np.asarray(kept).nbytes for kept in vars(plan).values())


class TestScatterPlan:
    """The gradient's per-side plan: steps of one gather for the items with
    terms left, then one np.add.at for the hubs' rest, bit for bit against
    the flat bincount kernel."""

    def _assert_flat_bincount_bytes(self, n, dim, ii, jj, lam=0.05, seed=0):
        rng = np.random.default_rng(seed)
        ii, jj = np.asarray(ii, np.intp), np.asarray(jj, np.intp)
        d2 = rng.uniform(0.1, 4.0, size=len(ii))
        x = rng.normal(scale=2.0, size=n * dim)
        problem = _PairObjective(n, dim, ii, jj, d2, lam)
        f, g = flat_bincount_kernel(n, dim, ii, jj, d2, lam, x)
        assert problem.value(x) == f
        assert problem.grad().tobytes() == g.tobytes()
        return problem

    @pytest.mark.parametrize("min_rows", [1, 2, 3, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hub_terms_past_the_steps_reach_the_tail(self, min_rows, seed, monkeypatch):
        monkeypatch.setattr(embedder, "_MIN_ROWS", min_rows)
        ii, jj = _skewed_pairs(np.random.default_rng(seed), n=12, n_pairs=400)
        problem = self._assert_flat_bincount_bytes(12, 3, ii, jj, seed=seed)
        for plan in problem._plans:
            assert plan.sizes and min(plan.sizes) >= min_rows
            # one item can take every step, so min_rows 1 leaves no tail
            assert bool(plan.rest) == (min_rows > 1)

    def test_items_without_a_pair_on_one_side(self, monkeypatch):
        monkeypatch.setattr(embedder, "_MIN_ROWS", 2)
        rng = np.random.default_rng(4)
        # items 0-3 only in ii, 4-7 only in jj, item 8 in no pair
        ii = rng.integers(0, 4, size=40)
        jj = rng.integers(4, 8, size=40)
        problem = self._assert_flat_bincount_bytes(9, 2, ii, jj)
        ii_plan, jj_plan = problem._plans
        assert ii_plan.sizes[0] == jj_plan.sizes[0] == 4

    @pytest.mark.parametrize("min_rows", [1, 2, 32])
    def test_single_pair(self, min_rows, monkeypatch):
        monkeypatch.setattr(embedder, "_MIN_ROWS", min_rows)
        self._assert_flat_bincount_bytes(2, 3, [0], [1])
        self._assert_flat_bincount_bytes(3, 1, [2], [0])

    def test_zero_pairs_through_the_keyed_gradient(self, monkeypatch):
        monkeypatch.setattr(embedder, "_MIN_ROWS", 2)
        coords = {"a": np.array([1.5, -2.0]), "b": np.array([0.25, 3.0])}
        x = np.concatenate(list(coords.values()))
        empty = np.zeros(0, np.intp)
        _, g = flat_bincount_kernel(2, 2, empty, empty, np.zeros(0), 0.3, x)
        grads = gradient(coords, {}, 0.3)
        assert np.concatenate([grads["a"], grads["b"]]).tobytes() == g.tobytes()

    def test_star_runs_bounded_steps_on_lean_indices(self):
        # one hub with 20,000 leaves: the hub's side takes no step and the
        # leaves' side one, and each side keeps 4 bytes per pair plus O(n)
        leaves = 20_000
        n = leaves + 1
        ii, jj = np.zeros(leaves, np.intp), np.arange(1, n)
        problem = self._assert_flat_bincount_bytes(n, 2, ii, jj)
        hub_plan, leaf_plan = problem._plans
        assert (len(hub_plan.sizes), hub_plan.rest) == (0, [leaves])
        assert (leaf_plan.sizes, leaf_plan.rest) == ([leaves], [])
        for plan in problem._plans:
            assert plan.rows.nbytes == 4 * leaves
            assert _index_bytes(plan) - plan.rows.nbytes <= 16 * n

    def test_fit_equals_the_flat_bincount_fit_bitwise(self, monkeypatch):
        # a fit's bytes guarded on the machine that runs it, where a golden
        # digest would depend on the CPU
        data = generate(
            SynthConfig(n_items=100, n_clusters=4, n_train_sessions=300,
                        n_test_sessions=10, seed=6)
        )
        graph = build_affinity_graph(filter_bookable_sessions(data.train))
        params = ModelParams(alpha=2.0, dim=3, lam=0.01)
        config = FitConfig(params, seed=0, max_iterations=50)
        ids, ii, jj, d2 = build_targets(graph, params.alpha)
        # the real plan takes steps and leaves hub terms to its tail here
        for plan in _PairObjective(len(ids), params.dim, ii, jj, d2, params.lam)._plans:
            assert plan.sizes and plan.rest
        model, trace = fit_embedding(graph, config)

        def flat_bincount_grad(problem):
            coords, _, _ = problem._point
            problem._point = None
            return flat_bincount_kernel(
                problem.n, problem.dim, problem.ii, problem.jj, problem.d2,
                problem.lam, coords.ravel(),
            )[1]

        monkeypatch.setattr(_PairObjective, "grad", flat_bincount_grad)
        reference, reference_trace = fit_embedding(graph, config)
        assert trace.iterations == 50
        assert model.coords.tobytes() == reference.coords.tobytes()
        assert trace == reference_trace


def _count_gathers(monkeypatch) -> list[int]:
    """Count the kernel's pair gathers: every evaluation goes through value."""
    calls = [0]
    value = _PairObjective.value

    def counting(self, x):
        calls[0] += 1
        return value(self, x)

    monkeypatch.setattr(_PairObjective, "value", counting)
    return calls


def _random_graph(rng, n=6):
    items = [f"i{k}" for k in range(n)]
    pairs = {}
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.7:
                pairs[(items[a], items[b])] = float(rng.uniform(0.05, 1.0))
    kappa = {item: float(rng.uniform(1.0, 5.0)) for item in items}
    return AffinityGraph.from_pairs(pairs, PopularityTable(kappa))


def _linked_pair_graph(d2_target, alpha=2.0):
    # invert the law so the derived target is exactly d2_target
    p = (1.0 + d2_target) ** (-alpha)
    return AffinityGraph.from_pairs(
        {("a", "b"): p}, PopularityTable({"a": 1.0, "b": 1.0})
    )


class TestFit:
    def test_two_items_reach_target_distance(self):
        graph = _linked_pair_graph(4.0)
        config = FitConfig(
            params=ModelParams(alpha=2.0, dim=1, lam=0.0),
            seed=0,
            max_iterations=200,
            gradient_tolerance=1e-10,
        )
        model, trace = fit_embedding(graph, config)
        gap = float(model.coords_of("a")[0] - model.coords_of("b")[0])
        assert gap**2 == pytest.approx(4.0, abs=1e-6)
        assert trace.converged
        assert trace.stop_reason == "gradient_tolerance"

    def test_unit_square_recovered(self):
        # four items with unit-square pairwise distances; residual ~ 0 at the
        # global optimum, which a few seeded restarts reliably reach
        side, diag = 1.0, 2.0
        targets = {
            ("a", "b"): side,
            ("b", "c"): side,
            ("c", "d"): side,
            ("a", "d"): side,
            ("a", "c"): diag,
            ("b", "d"): diag,
        }
        alpha = 2.0
        pairs = {k: (1.0 + t) ** (-alpha) for k, t in targets.items()}
        graph = AffinityGraph.from_pairs(
            pairs, PopularityTable({k: 1.0 for k in "abcd"})
        )
        best = None
        for seed in range(5):
            config = FitConfig(
                params=ModelParams(alpha=alpha, dim=2, lam=0.0),
                seed=seed,
                max_iterations=500,
                gradient_tolerance=1e-12,
            )
            model, trace = fit_embedding(graph, config)
            if best is None or trace.objectives[-1] < best[1].objectives[-1]:
                best = (model, trace)
            if trace.objectives[-1] < 1e-8:
                break
        model, trace = best
        for (i, j), t in targets.items():
            d2 = float(((model.coords_of(i) - model.coords_of(j)) ** 2).sum())
            assert d2 == pytest.approx(t, abs=1e-4)

    def test_seed_changes_coordinates_not_quality(self):
        rng = np.random.default_rng(5)
        graph = _random_graph(rng, n=8)
        objectives = []
        coords = []
        for seed in (0, 1):
            config = FitConfig(
                params=ModelParams(alpha=2.0, dim=2, lam=0.0),
                seed=seed,
                max_iterations=800,
                gradient_tolerance=1e-9,
            )
            model, trace = fit_embedding(graph, config)
            objectives.append(trace.objectives[-1])
            coords.append(model.coords.copy())
        assert not np.allclose(coords[0], coords[1])
        scale = max(abs(objectives[0]), abs(objectives[1]), 1e-12)
        assert abs(objectives[0] - objectives[1]) / scale < 0.05

    def test_monotone_descent(self):
        rng = np.random.default_rng(9)
        graph = _random_graph(rng, n=8)
        config = FitConfig(
            params=ModelParams(alpha=2.0, dim=2, lam=0.01),
            seed=3,
            max_iterations=300,
        )
        _, trace = fit_embedding(graph, config)
        diffs = np.diff(trace.objectives)
        assert np.all(diffs <= 0.0)

    def test_zero_start_stops_at_iteration_zero(self):
        rng = np.random.default_rng(11)
        graph = _random_graph(rng, n=6)
        config = FitConfig(params=ModelParams(alpha=2.0, dim=2, lam=0.0), seed=0)
        n = len(graph.items())
        model, trace = fit_embedding(graph, config, initial_coords=np.zeros((n, 2)))
        assert trace.iterations == 0
        assert trace.final_grad_norm == 0.0
        assert trace.stop_reason == "stationary_start"
        assert np.all(model.coords == 0.0)

    def test_random_start_never_stops_at_zero(self):
        rng = np.random.default_rng(13)
        graph = _random_graph(rng, n=6)
        for seed in range(10):
            config = FitConfig(
                params=ModelParams(alpha=2.0, dim=2, lam=0.0),
                seed=seed,
                max_iterations=50,
            )
            _, trace = fit_embedding(graph, config)
            assert trace.grad_norms[0] > 0.0
            assert trace.iterations >= 1

    def test_reproducible_given_seed(self):
        rng = np.random.default_rng(17)
        graph = _random_graph(rng, n=7)
        config = FitConfig(
            params=ModelParams(alpha=2.0, dim=3, lam=0.01),
            seed=21,
            max_iterations=120,
        )
        model1, trace1 = fit_embedding(graph, config)
        model2, trace2 = fit_embedding(graph, config)
        np.testing.assert_array_equal(model1.coords, model2.coords)
        assert trace1.objectives == trace2.objectives

    def test_empty_graph_rejected(self):
        graph = AffinityGraph.from_pairs({}, PopularityTable({}))
        config = FitConfig(params=ModelParams(alpha=2.0, dim=2))
        with pytest.raises(ValidationError):
            fit_embedding(graph, config)

    @pytest.mark.parametrize(
        "p, message",
        [
            (1e-4, "squared distance overflows at alpha=0.01"),
            # a finite target of 1e308, whose start scale overflows
            (1e308 ** -0.01, "start scale overflows float range"),
        ],
        ids=["target", "start-scale"],
    )
    def test_overflow_fails_before_the_start(self, p, message):
        graph = AffinityGraph.from_pairs(
            {("a", "b"): p}, PopularityTable({"a": 1.0, "b": 1.0})
        )
        with pytest.warns(UserWarning, match="alpha"):
            config = FitConfig(params=ModelParams(alpha=0.01, dim=2))
        with pytest.raises(DivergenceError) as failure:
            fit_embedding(graph, config)
        assert str(failure.value) == f"{message} (iteration 0)"
        assert failure.value.trace.objectives == []

    def test_model_carries_graph_popularity(self):
        graph = _linked_pair_graph(1.0)
        config = FitConfig(params=ModelParams(alpha=2.0, dim=1), max_iterations=50)
        model, _ = fit_embedding(graph, config)
        assert model.kappa[model.index_of("a")] == graph.popularity["a"]

    def test_fitted_model_inverts_to_input_probabilities(self):
        # well-converged fit on an exactly embeddable instance reproduces
        # the stored pair probabilities through the law
        graph = _linked_pair_graph(2.25, alpha=3.0)
        config = FitConfig(
            params=ModelParams(alpha=3.0, dim=1, lam=0.0),
            seed=1,
            max_iterations=300,
            gradient_tolerance=1e-12,
        )
        model, _ = fit_embedding(graph, config)
        assert _law(model, model.index_of("a"), [model.index_of("b")])[0] == pytest.approx(
            pair_dict(graph)[("a", "b")], rel=1e-5
        )


class TestTrace:
    def test_csv_export(self, tmp_path):
        graph = _linked_pair_graph(1.0)
        config = FitConfig(params=ModelParams(alpha=2.0, dim=1), max_iterations=30)
        _, trace = fit_embedding(graph, config)
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,objective,grad_norm,evaluations"
        assert len(lines) == len(trace.objectives) + 1
        assert [int(line.split(",")[3]) for line in lines[1:]] == trace.evaluations

    def test_no_backtracking_means_one_evaluation_per_iteration(self, monkeypatch):
        # an instance whose line search accepts every first step: each
        # iterate is gathered once, not once by the line search and again
        # for its gradient
        graph = _random_graph(np.random.default_rng(20), n=8)
        config = FitConfig(
            params=ModelParams(alpha=2.0, dim=3, lam=0.01), seed=20, max_iterations=20
        )
        # the unit-scale start this instance was chosen with
        n = len(graph.items())
        start = np.random.default_rng(20).uniform(-1.0, 1.0, size=(n, 3))
        gathers = _count_gathers(monkeypatch)
        _, trace = fit_embedding(graph, config, initial_coords=start)
        assert trace.iterations == 20
        assert trace.evaluations == [1] * 21
        assert gathers[0] == 21

    def test_evaluations_count_backtracks(self, monkeypatch):
        graph = _random_graph(np.random.default_rng(27), n=8)
        config = FitConfig(
            params=ModelParams(alpha=2.0, dim=3, lam=0.01), seed=27, max_iterations=20
        )
        gathers = _count_gathers(monkeypatch)
        _, trace = fit_embedding(graph, config)
        assert len(trace.evaluations) == len(trace.objectives)
        assert max(trace.evaluations) > 1
        assert sum(trace.evaluations) == gathers[0]

    def test_config_validation(self):
        params = ModelParams(alpha=2.0, dim=2)
        with pytest.raises(ValueError):
            FitConfig(params=params, gradient_tolerance=0.0)
        with pytest.raises(ValueError):
            FitConfig(params=params, max_iterations=0)


def _start_of(graph, config, monkeypatch) -> np.ndarray:
    """The start point a fit draws: the first point its kernel evaluates."""
    seen = []
    value = _PairObjective.value

    def recording(self, x):
        if not seen:
            seen.append(x.reshape(self.n, self.dim).copy())
        return value(self, x)

    monkeypatch.setattr(_PairObjective, "value", recording)
    fit_embedding(graph, config)
    return seen[0]


def _pair_d2(graph, coords) -> tuple[np.ndarray, np.ndarray]:
    """(start squared distance, target) for every pair of the graph."""
    ids, ii, jj, d2 = build_targets(graph, alpha=2.0)
    diff = coords[ii] - coords[jj]
    return np.einsum("ij,ij->i", diff, diff), d2


class TestStart:
    def test_mean_pair_distance_matches_median_target(self, monkeypatch):
        # targets in the thousands, far from the unit box a fixed scale gives
        rng = np.random.default_rng(31)
        items = [f"i{k:03d}" for k in range(300)]
        pairs = {}
        for a in range(len(items)):
            for b in rng.choice(len(items), size=6, replace=False):
                if a < b:
                    pairs[(items[a], items[b])] = float(rng.uniform(0.01, 0.9))
        kappa = {item: float(rng.uniform(5.0, 60.0)) for item in items}
        graph = AffinityGraph.from_pairs(pairs, PopularityTable(kappa))
        for dim in (2, 20):
            config = FitConfig(
                params=ModelParams(alpha=2.0, dim=dim, lam=0.01), max_iterations=1
            )
            start_d2, targets = _pair_d2(graph, _start_of(graph, config, monkeypatch))
            monkeypatch.undo()
            # one pair's squared distance has a relative spread of about
            # 1.2 / sqrt(dim); pairs sharing an item are correlated, so count
            # each item once and allow four standard errors of the mean. The
            # unit start would miss by two orders of magnitude.
            tolerance = 4 * 1.2 / np.sqrt(dim * len(items))
            assert np.median(targets) > 100.0
            assert start_d2.mean() == pytest.approx(np.median(targets), rel=tolerance)

    def test_mostly_zero_targets_still_give_a_spread_start(self, monkeypatch):
        # items that always co-occur have p = 1 and target 0; with more than
        # half the targets zero the median is 0, and a zero-width start would
        # be the stationary all-equal point, so the mean target sets the scale
        items = [f"i{k}" for k in range(8)]
        pairs = {(a, b): 1.0 for a, b in zip(items, items[1:])}
        pairs[("i0", "i7")] = 0.05
        graph = AffinityGraph.from_pairs(
            pairs, PopularityTable({item: 2.0 for item in items})
        )
        config = FitConfig(params=ModelParams(alpha=2.0, dim=2), max_iterations=30)
        start = _start_of(graph, config, monkeypatch)
        _, targets = _pair_d2(graph, start)
        assert np.median(targets) == 0.0
        scale = np.sqrt(3.0 * targets.mean() / (2.0 * 2))
        assert 0.5 * scale < np.abs(start).max() <= scale
        _, trace = fit_embedding(graph, config)
        assert trace.stop_reason != "stationary_start"
        assert trace.objectives[-1] < trace.objectives[0]


class TestStopRules:
    @pytest.mark.parametrize(
        "reason, converged",
        [
            ("gradient_tolerance", True),
            ("objective_decrease", True),
            ("stationary_start", True),
            ("max_iterations", False),
            ("line_search_failed", False),
            ("", False),
        ],
    )
    def test_converged_is_read_from_the_stop_reason(self, reason, converged):
        assert FitTrace(stop_reason=reason).converged is converged

    @pytest.mark.parametrize(
        "reason",
        [
            "gradient_tolerance",
            "objective_decrease",
            "stationary_start",
            "max_iterations",
            "line_search_failed",
        ],
    )
    def test_final_grad_norm_is_the_last_recorded_norm(self, reason, monkeypatch):
        graph = _random_graph(np.random.default_rng(41), n=12)
        params = ModelParams(alpha=2.0, dim=1, lam=0.01)
        config = FitConfig(
            params=params, seed=4, max_iterations=5000, gradient_tolerance=1e-300
        )
        start = None
        if reason == "gradient_tolerance":
            graph = _linked_pair_graph(4.0)
            params = ModelParams(alpha=2.0, dim=1, lam=0.0)
            config = FitConfig(params=params, gradient_tolerance=1e-10)
        elif reason == "stationary_start":
            start = np.zeros((len(graph.items()), 1))
        elif reason == "max_iterations":
            config = FitConfig(params=params, seed=4, max_iterations=3)
        elif reason == "line_search_failed":
            searches = []

            def fails_third(*args):
                searches.append(args)
                return _backtrack(*args) if len(searches) < 3 else (None, None, 1)

            monkeypatch.setattr("simpop.embedder._backtrack", fails_third)
        _, trace = fit_embedding(graph, config, initial_coords=start)
        assert trace.stop_reason == reason
        assert trace.final_grad_norm == trace.grad_norms[-1]
        assert len(trace.grad_norms) == trace.iterations + 1

    def test_final_grad_norm_is_nan_before_the_first_iterate(self):
        assert np.isnan(FitTrace().final_grad_norm)

    def test_objective_rule_stops_a_fit_the_gradient_rule_never_would(self):
        # random targets in one dimension cannot be embedded, and a gradient
        # tolerance of 1e-300 is out of reach: only the objective rule stops
        graph = _random_graph(np.random.default_rng(41), n=12)
        config = FitConfig(
            params=ModelParams(alpha=2.0, dim=1, lam=0.01),
            seed=4,
            max_iterations=5000,
            gradient_tolerance=1e-300,
        )
        _, trace = fit_embedding(graph, config)
        assert trace.converged
        assert trace.stop_reason == "objective_decrease"
        assert _FTOL_WINDOW <= trace.iterations < config.max_iterations
        assert trace.final_grad_norm > 1e-300 * trace.grad_norms[0]
        f = trace.objectives
        fired = [
            k
            for k in range(_FTOL_WINDOW, len(f))
            if f[k - _FTOL_WINDOW] - f[k] <= _FTOL * f[k]
        ]
        # it fires at the first iterate that meets it, and not before
        assert fired and fired[0] == trace.iterations

    def test_objective_rule_never_fires_within_its_window(self):
        graph = _random_graph(np.random.default_rng(41), n=12)
        config = FitConfig(
            params=ModelParams(alpha=2.0, dim=1, lam=0.01),
            seed=4,
            max_iterations=_FTOL_WINDOW - 1,
            gradient_tolerance=1e-300,
        )
        _, trace = fit_embedding(graph, config)
        assert trace.stop_reason == "max_iterations"
        assert not trace.converged
