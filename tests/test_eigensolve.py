import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from specgap import (
    Grid,
    InnerSolveStallError,
    Mode,
    NoConvergenceError,
    ProfileRole,
    SolveSettings,
    build_grid,
    build_model_operator,
    build_multiplier_plus_potential,
    build_scaled_operator,
    inner,
    largest_eigenpairs,
    make_catalog_profile,
    make_pair,
    norm,
    smallest_eigenpairs,
    state,
)
from specgap import eigensolve
from specgap.eigensolve import DENSE_SIZE_LIMIT, bottom_mode, materialize_dense, weyl_estimate
from specgap.operators import HermitianOperator

from certification import certify, cluster_eigenvalues

# frozen two-resolution regression value for the quartic-multiplier model
# operator op(xi^4) + 2 x^2 on [-30, 30] (no analytic spectrum available)
QUARTIC_MODEL_GROUND = 1.6832198980


def counting(op):
    """``op`` with an apply that counts the vectors it is applied to in
    ``calls[0]``: a stack of b grid functions counts b."""
    calls = [0]

    def apply_values(values):
        calls[0] += values.shape[0] if values.ndim > op.grid.dimension else 1
        return op.apply_values(values)

    return dataclasses.replace(op, apply_values=apply_values), calls


def gaussian_model(d, n, half_length):
    """The model operator of the Gaussian pair on a d-dimensional grid."""
    a = make_catalog_profile("gaussian_power", [2], d)
    v = make_catalog_profile("gaussian_power", [2], d, role=ProfileRole.WEIGHT_V)
    return build_model_operator(make_pair(a, v), build_grid(d, n, half_length))


def quartic_model(d, n, half_length):
    """The model operator of the gaussian_power(4) symbol and the Gaussian
    weight: op(|xi|^4) + 2 |x|^2."""
    a = make_catalog_profile("gaussian_power", [4], d)
    v = make_catalog_profile("gaussian_power", [2], d, role=ProfileRole.WEIGHT_V)
    return build_model_operator(make_pair(a, v), build_grid(d, n, half_length))


def random_mult_pot_operator(grid, rng):
    """Random nonnegative multiplier+potential operator (positive, bounded)."""
    m = rng.random(grid.shape) * 3.0
    q = rng.random(grid.shape) * 2.0
    return build_multiplier_plus_potential(grid, m, q)


class TestLanczosTop:
    def test_pure_multiplier_top_is_max_sample(self):
        grid = build_grid(1, 128, 6.0)
        rng = np.random.default_rng(21)
        m = rng.random(grid.shape)
        op = build_multiplier_plus_potential(grid, m, np.zeros(grid.shape))
        top = largest_eigenpairs(op, SolveSettings(k=1, tol=1e-10))[0]
        assert top.value == pytest.approx(float(np.max(m)), abs=1e-10)

    def test_zero_operator(self):
        grid = build_grid(1, 32, 4.0)
        op = HermitianOperator(grid=grid, apply_values=lambda v: np.zeros_like(v),
                               upper_bound=0.0, label="zero")
        pairs = largest_eigenpairs(op, SolveSettings(k=1, tol=1e-12))
        assert pairs[0].value == 0.0
        assert pairs[0].residual == 0.0
        assert norm(pairs[0].vector) == pytest.approx(1.0, abs=1e-12)

    def test_values_descending_and_orthogonal(self, gaussian_pair, grid_512):
        op = build_scaled_operator(gaussian_pair, 0.1, grid_512)
        pairs = largest_eigenpairs(op, SolveSettings(k=4, tol=1e-9))
        values = [p.value for p in pairs]
        assert values == sorted(values, reverse=True)
        report = certify(op, pairs, 1e-9)
        assert report.passed, report

    def test_spectral_band_respected(self, gaussian_pair, grid_512):
        op = build_scaled_operator(gaussian_pair, 0.05, grid_512)
        pairs = largest_eigenpairs(op, SolveSettings(k=3, tol=1e-9))
        bound = gaussian_pair.peak_product
        for p in pairs:
            assert -bound <= p.value <= bound

    def test_top_values_bracketed_by_first_order_law(self, gaussian_pair, grid_1024):
        # strictly below the band top, above the scaled-gap law with a
        # 20% allowance at alpha = 0.05
        alpha = 0.05
        op = build_scaled_operator(gaussian_pair, alpha, grid_1024)
        pairs = largest_eigenpairs(op, SolveSettings(k=3, tol=1e-9))
        for n, p in enumerate(pairs, start=1):
            assert p.value < 1.0
            assert p.value > 1.0 - 1.2 * alpha * np.sqrt(2.0) * (2 * n - 1)

    def test_interlacing_stability(self, gaussian_pair, grid_512):
        op = build_scaled_operator(gaussian_pair, 0.1, grid_512)
        tol = 1e-10
        first = largest_eigenpairs(op, SolveSettings(k=3, tol=tol))
        second = largest_eigenpairs(op, SolveSettings(k=4, tol=tol))
        for a, b in zip(first, second):
            assert abs(a.value - b.value) <= 10 * tol

    def test_no_convergence_reports_residuals(self, gaussian_pair, grid_512):
        op = build_scaled_operator(gaussian_pair, 0.1, grid_512)
        with pytest.raises(NoConvergenceError) as exc_info:
            largest_eigenpairs(op, SolveSettings(k=3, tol=1e-12, max_iterations=4))
        assert exc_info.value.best_residuals

    def test_budget_cut_inside_the_completeness_probe(self, gaussian_pair, grid_512):
        # The main cycle takes 16 steps here and the probe 13, so 17 steps
        # certify all three pairs and stop inside the probe.
        op = build_scaled_operator(gaussian_pair, 0.1, grid_512)
        with pytest.raises(NoConvergenceError) as exc_info:
            largest_eigenpairs(op, SolveSettings(k=3, tol=1e-9, max_iterations=17))
        assert str(exc_info.value) == (
            "scaled-sandwich(alpha=0.1): no convergence after 17 Lanczos steps "
            "(restarts: 0, basis cap: 256 rows; 3/3 pairs certified; "
            "completeness probe unfinished)"
        )
        assert exc_info.value.best_residuals

    def test_pairs_lock_on_the_cycle_estimates(self, gaussian_pair, grid_512):
        # 16 main and 13 probe Lanczos steps, then 3 Rayleigh-Ritz applies;
        # no apply re-checks a residual before locking.
        op, calls = counting(build_scaled_operator(gaussian_pair, 0.1, grid_512))
        largest_eigenpairs(op, SolveSettings(k=3, tol=1e-9))
        assert calls[0] == 32

    def test_a_budget_cut_cycle_locks_nothing(self, gaussian_pair, grid_512):
        # The main cycle needs 16 steps; cut at 15, it reports its estimates.
        op = build_scaled_operator(gaussian_pair, 0.1, grid_512)
        with pytest.raises(NoConvergenceError) as exc_info:
            largest_eigenpairs(op, SolveSettings(k=3, tol=1e-9, max_iterations=15))
        assert str(exc_info.value) == (
            "scaled-sandwich(alpha=0.1): no convergence after 15 Lanczos steps "
            "(restarts: 0, basis cap: 256 rows; 0/3 pairs certified)"
        )
        residuals = exc_info.value.best_residuals
        assert len(residuals) == 3
        assert 0.1 * 1e-9 < max(residuals) < 1e-8

    def test_k_capped_at_the_grid_dimension(self):
        grid = build_grid(1, 32, 4.0)
        op = build_multiplier_plus_potential(grid, np.ones(grid.shape), np.zeros(grid.shape))
        pairs = largest_eigenpairs(op, SolveSettings(k=16, tol=1e-8))
        assert [p.value for p in pairs] == pytest.approx([1.0] * 16, abs=1e-8)
        for mode in (Mode.LANCZOS, Mode.DENSE_FULL):
            with pytest.raises(ValueError, match="requested 33 pairs from a 32-dimensional"):
                largest_eigenpairs(op, SolveSettings(k=33, tol=1e-8, mode=mode))

    def test_cycles_stop_at_convergence(self, gaussian_pair, grid_512):
        # A fixed-length first cycle took 89 applies here.
        op, calls = counting(build_scaled_operator(gaussian_pair, 0.1, grid_512))
        pairs = largest_eigenpairs(op, SolveSettings(k=3, tol=1e-9))
        assert calls[0] < 60
        dense = largest_eigenpairs(op, SolveSettings(k=3, tol=1e-9, mode=Mode.DENSE_FULL))
        np.testing.assert_allclose(
            [p.value for p in pairs], [p.value for p in dense], rtol=0, atol=1e-10
        )
        assert certify(op, pairs, 1e-9).passed

    def test_shift_invert_mode_rejected_for_top(self, gaussian_pair, grid_256):
        op = build_scaled_operator(gaussian_pair, 0.1, grid_256)
        with pytest.raises(ValueError):
            largest_eigenpairs(op, SolveSettings(k=1, mode=Mode.SHIFT_INVERT_BOTTOM))

    @pytest.mark.parametrize("tol", [0.0, -1e-9, np.nan, np.inf])
    def test_settings_reject_a_tol_outside_the_positive_reals(self, tol):
        with pytest.raises(ValueError, match="tol"):
            SolveSettings(tol=tol)

    @pytest.mark.parametrize(
        "field, value", [("tol", 0.5), ("max_iterations", 0), ("rng_seed", -1)]
    )
    def test_settings_reject_a_field_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            SolveSettings(**{field: value})


class TestCompleteness:
    """The negated d=2 harmonic model operator -(op(|xi|^2) + 2|x|^2): its
    top is -(2, 4, 4, ...) * sqrt(2) with a double second level, and 0, the
    value deflation would put on the locked span, lies above the whole
    spectrum."""

    @pytest.mark.parametrize("n,half_length", [(16, 6.0), (32, 7.0)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_negated_2d_model_keeps_both_copies(self, n, half_length, seed):
        a = make_catalog_profile("gaussian_power", [2], 2)
        v = make_catalog_profile("gaussian_power", [2], 2, role=ProfileRole.WEIGHT_V)
        pair = make_pair(a, v)
        model = build_model_operator(pair, build_grid(2, n, half_length))
        op = build_multiplier_plus_potential(
            model.grid, -model.multiplier_part, -model.potential_part
        )
        tol = 1e-9
        pairs = largest_eigenpairs(op, SolveSettings(k=3, tol=tol, rng_seed=seed))
        values = [p.value for p in pairs]
        dense = smallest_eigenpairs(model, SolveSettings(k=3, tol=tol, mode=Mode.DENSE_FULL))
        scale = op.upper_bound
        np.testing.assert_allclose(
            values, [-p.value for p in dense], rtol=0, atol=10 * tol * scale
        )
        assert [len(c) for c in cluster_eigenvalues(values, tol * scale)] == [1, 2]
        assert certify(op, pairs, tol).passed


class TestGuessedStart:
    """An operator's ``guess`` starts one block Lanczos cycle; the random
    probe and the certification that follow do not read it.  The d=2
    Gaussian sandwich on 32^2 has the top levels 1, 2, 3 with
    multiplicities 1, 2, 3, like its model operator."""

    TOL = 1e-9

    @staticmethod
    def sandwich_and_model_vectors(alpha):
        pair = make_pair(
            make_catalog_profile("gaussian_power", [2], 2),
            make_catalog_profile("gaussian_power", [2], 2, role=ProfileRole.WEIGHT_V),
        )
        grid = build_grid(2, 32, 6.0)
        model = smallest_eigenpairs(build_model_operator(pair, grid),
                                    SolveSettings(k=6, tol=1e-9, mode=Mode.DENSE_FULL))
        return build_scaled_operator(pair, alpha, grid), [p.vector.values.ravel() for p in model]

    @staticmethod
    def guess(kind, vectors):
        if kind == "model span":
            return np.stack(vectors[:3])
        if kind == "one copy dropped":
            return np.stack(vectors[:2])
        if kind == "wrong states":
            return np.stack(vectors[3:6])
        if kind == "complex span":  # real and imaginary parts are the same span
            return np.stack(vectors[:3]) * np.exp(0.3j)
        return np.random.default_rng(4).standard_normal((3, len(vectors[0])))

    @pytest.mark.parametrize("alpha", [0.2, 0.025])
    @pytest.mark.parametrize(
        "kind", ["model span", "one copy dropped", "wrong states", "complex span", "random"]
    )
    def test_completeness_does_not_rest_on_the_guess(self, kind, alpha):
        op, vectors = self.sandwich_and_model_vectors(alpha)
        settings = SolveSettings(k=3, tol=self.TOL)
        plain, plain_calls = counting(op)
        guessed, guessed_calls = counting(dataclasses.replace(op, guess=self.guess(kind, vectors)))
        expected = [p.value for p in largest_eigenpairs(plain, settings)]
        pairs = largest_eigenpairs(guessed, settings)
        values = [p.value for p in pairs]
        threshold = self.TOL * max(1.0, abs(op.upper_bound))
        np.testing.assert_allclose(values, expected, rtol=0, atol=threshold)
        assert [len(c) for c in cluster_eigenvalues(values, self.TOL)] == [
            len(c) for c in cluster_eigenvalues(expected, self.TOL)
        ] == [1, 2]
        assert certify(op, pairs, self.TOL).passed
        if kind in ("model span", "complex span"):
            # 28 against 36 applies at alpha = 0.2, 39 against 89 at 0.025.
            assert guessed_calls[0] < plain_calls[0]

    def test_an_identical_guess_gives_bit_identical_pairs(self):
        op, vectors = self.sandwich_and_model_vectors(0.1)
        op = dataclasses.replace(op, guess=np.stack(vectors[:3]))
        settings = SolveSettings(k=3, tol=self.TOL, rng_seed=99)
        first = largest_eigenpairs(op, settings)
        second = largest_eigenpairs(op, settings)
        assert [p.value for p in first] == [p.value for p in second]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.vector.values, b.vector.values)

    def test_a_budget_below_the_block_cycle_names_the_steps(self):
        # Two blocks of three rows fit in 7 steps and a third does not; the
        # random cycle after it takes the last step.
        op, vectors = self.sandwich_and_model_vectors(0.1)
        op, calls = counting(dataclasses.replace(op, guess=np.stack(vectors[:3])))
        with pytest.raises(NoConvergenceError) as exc_info:
            largest_eigenpairs(op, SolveSettings(k=3, tol=self.TOL, max_iterations=7))
        assert str(exc_info.value) == (
            "scaled-sandwich(alpha=0.1): no convergence after 7 Lanczos steps "
            "(restarts: 0, basis cap: 128 rows; 0/3 pairs certified)"
        )
        assert calls[0] == 7


class TestBandStart:
    """A guess's rows start one band Lanczos cycle, as wide as the rows it
    keeps outside the locked span; a guess with none falls back to the
    random start."""

    TOL = 1e-9

    @staticmethod
    def gaussian_2d_pair():
        return make_pair(
            make_catalog_profile("gaussian_power", [2], 2),
            make_catalog_profile("gaussian_power", [2], 2, role=ProfileRole.WEIGHT_V),
        )

    def test_an_all_zero_guess_gives_the_unguessed_pairs(self):
        op, _ = TestGuessedStart.sandwich_and_model_vectors(0.1)
        settings = SolveSettings(k=3, tol=self.TOL, rng_seed=7)
        plain = largest_eigenpairs(op, settings)
        zero = largest_eigenpairs(
            dataclasses.replace(op, guess=np.zeros((3, op.grid.size))), settings
        )
        assert [p.value for p in zero] == [p.value for p in plain]
        for a, b in zip(zero, plain):
            np.testing.assert_array_equal(a.vector.values, b.vector.values)

    @pytest.mark.parametrize("alpha", [0.2, 0.05, 0.0125])
    def test_a_guessed_start_on_a_complex_operator_matches_dense(self, alpha):
        # The symbol's and the weight's samples are not lattice-even here,
        # so the model operator, its eigenvectors and the sandwich are complex.
        pair = make_pair(
            make_catalog_profile("aniso_gaussian", [1.0, 0.4, 0.4, 1.5], 2),
            make_catalog_profile("gaussian_power", [2], 2, role=ProfileRole.WEIGHT_V),
        )
        grid = build_grid(2, 24, 6.0)
        model_op = build_model_operator(pair, grid)
        model = smallest_eigenpairs(model_op, SolveSettings(k=4, tol=self.TOL,
                                                            mode=Mode.DENSE_FULL))
        op = build_scaled_operator(pair, alpha, grid)
        assert not model_op.real and not op.real
        guess = np.stack([p.vector.values.ravel() for p in model])
        assert np.iscomplexobj(guess)
        pairs = largest_eigenpairs(dataclasses.replace(op, guess=guess),
                                   SolveSettings(k=4, tol=self.TOL))
        dense = largest_eigenpairs(op, SolveSettings(k=4, tol=self.TOL, mode=Mode.DENSE_FULL))
        np.testing.assert_allclose(
            [p.value for p in pairs], [p.value for p in dense],
            rtol=0, atol=self.TOL * max(1.0, abs(op.upper_bound)),
        )
        assert certify(op, pairs, self.TOL).passed

    def test_a_wide_start_that_fills_its_cap_locks_the_pairs_that_met_the_target(
        self, monkeypatch
    ):
        # The d=2 Gaussian pair on 64^2 with k=8: the 8 model vectors start
        # a band of width 8 whose basis fills its cap of 32 rows at alpha 0.2
        # before every estimate meets the target.
        pair = self.gaussian_2d_pair()
        grid = build_grid(2, 64, 8.0)
        k = 8
        model = smallest_eigenpairs(build_model_operator(pair, grid),
                                    SolveSettings(k=k, tol=self.TOL, mode=Mode.LANCZOS))
        op = build_scaled_operator(pair, 0.2, grid)
        guessed = dataclasses.replace(op, guess=np.stack([p.vector.values.ravel() for p in model]))
        assert eigensolve._cycle_cap(grid.size, k) == 32
        cycles = []
        lanczos_cycle = eigensolve._lanczos_cycle

        def recorded_cycle(*args):
            cycles.append(lanczos_cycle(*args))
            return cycles[-1]

        monkeypatch.setattr(eigensolve, "_lanczos_cycle", recorded_cycle)
        settings = SolveSettings(k=k, tol=self.TOL)
        pairs = largest_eigenpairs(guessed, settings)
        first = cycles[0]
        assert (first.steps, first.m, first.converged, first.restarts) == (32, 32, False, 0)
        stop_tol = eigensolve._CONVERGED * self.TOL * max(1.0, abs(op.upper_bound))
        met = int(np.argmin(np.append(first.estimates < stop_tol, False)))
        assert 0 < met < k
        assert first.locked == first.theta[:met].tolist()
        plain = largest_eigenpairs(op, settings)
        values, expected = [p.value for p in pairs], [p.value for p in plain]
        threshold = self.TOL * max(1.0, abs(op.upper_bound))
        np.testing.assert_allclose(values, expected, rtol=0, atol=threshold)
        assert [len(c) for c in cluster_eigenvalues(values, self.TOL)] == [
            len(c) for c in cluster_eigenvalues(expected, self.TOL)
        ]
        assert certify(op, pairs, self.TOL).passed


class TestReorthogonalization:
    """``_project_out`` runs one classical Gram-Schmidt pass, and a second
    only when the first cut the vector below 1/sqrt(2) of its norm on entry
    (the DGKS test)."""

    @staticmethod
    def orthonormal_rows(rng, count, size, dtype):
        block = rng.standard_normal((size, count))
        if dtype == np.complex128:
            block = block + 1j * rng.standard_normal((size, count))
        return np.ascontiguousarray(np.linalg.qr(block)[0].T)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_a_vector_inside_the_span_gets_a_second_pass(self, dtype):
        # One pass leaves ~2e-5 of it along the rows, two leave ~1e-16.
        rng = np.random.default_rng(5)
        rows = self.orthonormal_rows(rng, 41, 2000, dtype)
        perp = rows[-1]
        rows = rows[:-1]
        w = rows.T @ rng.standard_normal(len(rows)) + 1e-10 * perp
        nw = eigensolve._project_out(w, rows)
        assert nw == np.linalg.norm(w)
        assert np.linalg.norm(rows.conj() @ w) / nw <= 1e-14

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_a_generic_vector_gets_one_pass(self, dtype):
        rng = np.random.default_rng(6)
        rows = self.orthonormal_rows(rng, 40, 2000, dtype)
        w = self.orthonormal_rows(rng, 1, 2000, dtype)[0] * 3.0
        once = w - (rows @ w.conj()).conj() @ rows
        nw = eigensolve._project_out(w, rows)
        np.testing.assert_array_equal(w, once)
        assert nw == np.linalg.norm(once)

    @pytest.mark.parametrize("width", [1, 3])
    def test_a_long_cycle_keeps_its_basis_orthonormal(self, width):
        # Up to 300 steps of Lanczos on the negated 48^2 Gaussian model
        # operator, never stopped by its estimates: from one random row
        # across several restarts, from three until the basis fills its cap
        # (a wide start never restarts).
        op = gaussian_model(2, 48, 8.0)
        assert op.real
        rows = eigensolve._Rows(op.grid.size, np.float64)
        cycle = eigensolve._lanczos_cycle(
            lambda values: -op.apply_values(values), op.grid.shape, rows,
            np.random.default_rng(1).standard_normal((width, op.grid.size)), 300, 3, 0.0
        )
        if width == 1:
            assert (cycle.steps, cycle.converged) == (300, False)
            assert cycle.restarts >= 2 and cycle.cap == 56
        else:
            assert (cycle.steps, cycle.m, cycle.converged, cycle.restarts) == (56, 56, False, 0)
        basis = rows.array[: cycle.m + width]  # the basis and the rows not yet applied
        gram = basis @ basis.T
        assert np.max(np.abs(gram - np.eye(cycle.m + width))) <= 1e-13

    @pytest.mark.parametrize("width", [1, 3])
    def test_a_step_leaves_only_rounding_for_the_projection(self, width, monkeypatch):
        # A step removes the couplings it knows, to the rows before q and to
        # the basis rows after it, so the vector that reaches _project_out
        # holds only rounding along the basis: one pass suffices.  Without
        # the couplings to the rows before the last, a width-3 cycle sends
        # up to 0.74 of it through the projection.
        op = gaussian_model(2, 48, 8.0)
        shares = []
        project_out = eigensolve._project_out

        def recorded_project_out(w, rows):
            shares.append(np.linalg.norm(rows @ w) / np.linalg.norm(w) if len(rows) else 0.0)
            return project_out(w, rows)

        monkeypatch.setattr(eigensolve, "_project_out", recorded_project_out)
        rows = eigensolve._Rows(op.grid.size, np.float64)
        eigensolve._lanczos_cycle(
            lambda values: -op.apply_values(values), op.grid.shape, rows,
            np.random.default_rng(1).standard_normal((width, op.grid.size)), 50, 3, 0.0
        )
        steps = shares[width:]  # the first calls orthonormalize the start rows
        assert len(steps) == 50 and max(steps) <= 1e-12

    @pytest.mark.parametrize("steps", [57, 70, 100])
    def test_a_restarted_basis_keeps_the_krylov_relation(self, steps, monkeypatch):
        # A Q^T = Q^T T + beta r e_m^T for the basis rows Q, their residual
        # row r and the tridiagonal matrix T that the last Ritz test solved,
        # after one restart (at 56 steps) and after two (at 96).
        op = gaussian_model(2, 48, 8.0)
        solved = []
        leading_ritz = eigensolve._leading_ritz

        def recorded_ritz(band, count):
            solved.append((list(band[0]), list(band[1])))
            return leading_ritz(band, count)

        monkeypatch.setattr(eigensolve, "_leading_ritz", recorded_ritz)
        rows = eigensolve._Rows(op.grid.size, np.float64)
        cycle = eigensolve._lanczos_cycle(
            lambda values: -op.apply_values(values), op.grid.shape, rows,
            np.random.default_rng(1).standard_normal((1, op.grid.size)), steps, 3, 0.0
        )
        assert cycle.restarts == (1 if steps < 96 else 2)
        alphas, betas = solved[-1]
        m = cycle.m
        assert len(alphas) == len(betas) == m
        t_mat = np.diag(alphas) + np.diag(betas[:-1], 1) + np.diag(betas[:-1], -1)
        q_rows, residual = rows.array[:m], rows.array[m]
        applied = -op.apply_values(q_rows.reshape(m, *op.grid.shape)).reshape(m, -1)
        gap = applied - t_mat @ q_rows
        gap[-1] -= betas[-1] * residual
        assert np.linalg.norm(gap, 2) <= 1e-12 * op.upper_bound


class TestRitzTestSchedule:
    """``_lanczos_cycle`` solves the tridiagonal Ritz problem only on a
    schedule set by the measured decay of the residual estimates, yet a
    cycle still stops at the first step where the test passes, and the
    last step of a budget-cut cycle is always tested."""

    @staticmethod
    def operators():
        a1 = make_catalog_profile("gaussian_power", [2], 1)
        v1 = make_catalog_profile("gaussian_power", [2], 1, role=ProfileRole.WEIGHT_V)
        model_1d = gaussian_model(1, 256, 12.0)
        model_2d = gaussian_model(2, 48, 8.0)
        scaled = build_scaled_operator(make_pair(a1, v1), 0.1, build_grid(1, 512, 14.0))
        return {
            "1-D model": (model_1d, lambda values: -model_1d.apply_values(values)),
            "48^2 model": (model_2d, lambda values: -model_2d.apply_values(values)),
            "scaled sandwich": (scaled, scaled.apply_values),
        }

    @staticmethod
    def cycle(op, apply_values, max_steps):
        # The stop tolerance of a k=3, tol=1e-9 solve, from a fixed start.
        rows = eigensolve._Rows(op.grid.size, np.float64)
        stop_tol = eigensolve._CONVERGED * 1e-9 * max(1.0, abs(op.upper_bound))
        start = np.random.default_rng(1).standard_normal((1, op.grid.size))
        return eigensolve._lanczos_cycle(
            apply_values, op.grid.shape, rows, start, max_steps, 3, stop_tol
        )

    @pytest.mark.parametrize("case", ["1-D model", "48^2 model", "scaled sandwich"])
    def test_a_cycle_stops_at_its_first_passing_step(self, case):
        op, apply_values = self.operators()[case]
        full = self.cycle(op, apply_values, op.grid.size)
        steps = full.steps
        assert full.converged and 10 < steps < op.grid.size
        # The 48^2 cycle restarts once on the way.
        assert full.restarts == (1 if case == "48^2 model" else 0)
        short = self.cycle(op, apply_values, steps - 1)
        assert (short.steps, short.converged) == (steps - 1, False)
        again = self.cycle(op, apply_values, steps)
        assert (again.steps, again.converged) == (steps, True)
        for name in ("theta", "s_mat", "estimates"):
            np.testing.assert_array_equal(getattr(again, name), getattr(full, name))

    def test_the_48x48_model_solve_tests_at_most_every_other_step(self, monkeypatch):
        op, _ = self.operators()["48^2 model"]
        counts = {"ritz": 0, "steps": 0, "restarts": 0}
        leading_ritz, lanczos_cycle = eigensolve._leading_ritz, eigensolve._lanczos_cycle

        def counted_ritz(*args):
            counts["ritz"] += 1
            return leading_ritz(*args)

        def counted_cycle(*args):
            out = lanczos_cycle(*args)
            counts["steps"] += out.steps
            counts["restarts"] += out.restarts
            return out

        monkeypatch.setattr(eigensolve, "_leading_ritz", counted_ritz)
        monkeypatch.setattr(eigensolve, "_lanczos_cycle", counted_cycle)
        pairs = smallest_eigenpairs(op, SolveSettings(k=3, tol=1e-9, mode=Mode.LANCZOS))
        np.testing.assert_allclose(
            [p.value for p in pairs], np.sqrt(2.0) * np.array([2, 4, 4]), rtol=1e-6
        )
        assert counts["steps"] > 100 and counts["restarts"] >= 1
        assert counts["ritz"] <= counts["steps"] / 2

    @pytest.mark.parametrize(
        "last_step, last_worst, worst, stop_tol, gap",
        [
            (0, 0.0, 1e-3, 1e-10, 1),  # no earlier test
            (18, 1e-4, 1e-3, 1e-10, 1),  # the estimates rose
            (10, 1e-7, 1e-8, 0.0, 1),  # stop_tol 0 tests every step
            (10, 1e-7, 1e-8, 3e-10, 7),  # half way to the projected target
            (10, 1e-2, 1e-3, 1e-10, 11),  # capped at one step more than 10
            (19, 1e-3, 1e-3 * (1 - 1e-12), 1e-10, 2),  # a plateau: capped
        ],
    )
    def test_the_gap_to_the_next_test(self, last_step, last_worst, worst, stop_tol, gap):
        assert eigensolve._test_gap(last_step, last_worst, 20, worst, stop_tol) == gap


class TestThickRestart:
    """A cycle's basis holds at most ``_cycle_cap(size, want)`` rows; where
    restarts would not converge in time, the cap grows instead."""

    def test_the_cap_depends_on_the_grid_size_and_want(self):
        cap = eigensolve._cycle_cap
        assert [cap(80 * 80, 3), cap(48 * 48, 3), cap(1024, 3), cap(20**3, 4)] == [20, 56, 128, 18]
        assert cap(256, 16) >= 256 and cap(362, 1) >= 362 and cap(363, 1) < 363
        assert cap(80 * 80, 16) == 42

    def test_a_48x48_model_solve_holds_at_most_locked_plus_cap_plus_one_rows(self, monkeypatch):
        # The pairs the solve locks, one capped basis and its residual row;
        # the parent's array started at k + 81 rows and grew by half.
        op = gaussian_model(2, 48, 8.0)
        cap = eigensolve._cycle_cap(op.grid.size, 3)
        assert cap == eigensolve._cycle_cap(op.grid.size, 1) == 56
        held = []
        reserve = eigensolve._Rows.reserve

        def recorded_reserve(rows, cap, used):
            reserve(rows, cap, used)
            held.append(rows)

        monkeypatch.setattr(eigensolve._Rows, "reserve", recorded_reserve)
        pairs = smallest_eigenpairs(op, SolveSettings(k=3, tol=1e-9, mode=Mode.LANCZOS))
        np.testing.assert_allclose(
            [p.value for p in pairs], np.sqrt(2.0) * np.array([2, 4, 4]), rtol=1e-9
        )
        (rows,) = set(held)
        assert len(rows.array) <= rows.locked + cap + 1

    @pytest.mark.parametrize(
        "first, step, best, stop_tol, cap, limit, stalls",
        [
            (None, 56, 1e3, 1e-8, 56, 2304, False),  # no restart yet
            ((56, 1e3), 100, 1.0, 1e-8, 56, 2304, False),  # under cap steps since
            ((56, 1e3), 112, 1e3, 1e-8, 56, 2304, True),  # no fall at all
            ((56, 1e3), 112, 1e2, 0.0, 56, 2304, False),  # no target
            # ln(1e2/1e-8) / (ln(10) / 56) = 560 more steps
            ((56, 1e3), 112, 1e2, 1e-8, 56, 672, False),
            ((56, 1e3), 112, 1e2, 1e-8, 56, 671, True),
        ],
    )
    def test_a_restart_stalls_when_its_rate_would_overrun_the_limit(
        self, first, step, best, stop_tol, cap, limit, stalls
    ):
        assert eigensolve._stalls(first, step, best, stop_tol, cap, limit) is stalls

    def test_a_stalled_cycle_grows_its_cap_to_the_complement(self):
        # The quartic symbol on 1024 nodes: plain Lanczos converges only
        # over nearly the whole space, so restarts at 128 rows stall.
        op = quartic_model(1, 1024, 12.0)
        rows = eigensolve._Rows(op.grid.size, np.float64)
        stop_tol = eigensolve._CONVERGED * 1e-9 * op.upper_bound
        cycle = eigensolve._lanczos_cycle(
            lambda values: -op.apply_values(values), op.grid.shape, rows,
            np.random.default_rng(1).standard_normal((1, op.grid.size)), 6000, 16, stop_tol
        )
        assert cycle.converged and cycle.restarts >= 1
        assert cycle.cap >= 1024 - len(cycle.locked)
        assert cycle.steps < 1400

    def test_an_exhausted_budget_names_steps_restarts_and_cap(self):
        # The main cycle certifies 3 pairs in 84 steps with one restart at 56
        # rows; the probe cycle runs out of the remaining 16 steps.
        op = gaussian_model(2, 48, 8.0)
        with pytest.raises(NoConvergenceError) as exc_info:
            smallest_eigenpairs(op, SolveSettings(k=3, tol=1e-9, max_iterations=100,
                                                  mode=Mode.LANCZOS))
        assert str(exc_info.value) == (
            "model-operator: no convergence after 100 Lanczos steps (restarts: 1, "
            "basis cap: 56 rows; 3/3 pairs certified; completeness probe unfinished)"
        )
        assert len(exc_info.value.best_residuals) == 1

    @pytest.mark.parametrize(
        "power, d, n, half_length, k",
        [(2, 1, 2048, 20.0, 3), (4, 1, 256, 12.0, 16), (4, 2, 40, 8.0, 3)],
        ids=["gaussian-2048", "quartic-256", "quartic-40x40"],
    )
    def test_stiff_lanczos_solves_certify_within_the_default_budget(
        self, power, d, n, half_length, k
    ):
        # Forced plain Lanczos on stiff model operators; a fixed 20-row cap
        # runs the quartic 1-D case out of its budget.
        op = (gaussian_model if power == 2 else quartic_model)(d, n, half_length)
        tol = 1e-9
        pairs = smallest_eigenpairs(op, SolveSettings(k=k, tol=tol, mode=Mode.LANCZOS))
        dense = smallest_eigenpairs(op, SolveSettings(k=k, tol=tol, mode=Mode.DENSE_FULL))
        np.testing.assert_allclose(
            [p.value for p in pairs], [p.value for p in dense],
            rtol=0, atol=10 * tol * max(1.0, op.upper_bound),
        )
        assert certify(op, pairs, tol).passed


class TestBottomSolves:
    def test_harmonic_dense_and_shift_invert_agree_with_analytic(self, gaussian_pair, grid_512):
        op = build_model_operator(gaussian_pair, grid_512)
        exact = np.sqrt(2.0) * (2 * np.arange(1, 5) - 1)
        for mode in (Mode.DENSE_FULL, Mode.SHIFT_INVERT_BOTTOM, Mode.LANCZOS):
            pairs = smallest_eigenpairs(op, SolveSettings(k=4, tol=1e-9, mode=mode))
            got = [p.value for p in pairs]
            np.testing.assert_allclose(got, exact, rtol=1e-8)
            assert got == sorted(got)

    def test_quartic_two_resolution_regression(self):
        a4 = make_catalog_profile("gaussian_power", [4], 1)
        v2 = make_catalog_profile("gaussian_power", [2], 1, role=ProfileRole.WEIGHT_V)
        pair = make_pair(a4, v2)
        values = {}
        for n in (512, 1024):
            grid = build_grid(1, n, 30.0)
            op = build_model_operator(pair, grid)
            values[n] = smallest_eigenpairs(
                op, SolveSettings(k=1, tol=1e-9, mode=Mode.DENSE_FULL)
            )[0].value
        assert abs(values[512] - values[1024]) <= 1e-7 * values[1024]
        assert values[1024] == pytest.approx(QUARTIC_MODEL_GROUND, rel=1e-8)

    def test_dense_values_are_rayleigh_quotients(self):
        # |A| ~ 4e7 here (xi^4 at the top lattice frequency), so eigh's own
        # values carry ~1e-9 of BLAS-path noise; Rayleigh quotients do not.
        a4 = make_catalog_profile("gaussian_power", [4], 1)
        v2 = make_catalog_profile("gaussian_power", [2], 1, role=ProfileRole.WEIGHT_V)
        op = build_model_operator(make_pair(a4, v2), build_grid(1, 1024, 20.0))
        dense, si = (
            smallest_eigenpairs(op, SolveSettings(k=1, tol=1e-9, mode=mode))[0].value
            for mode in (Mode.DENSE_FULL, Mode.SHIFT_INVERT_BOTTOM)
        )
        assert abs(dense - si) <= 1e-12 * si

    def test_2d_harmonic_multiplicity_pattern(self):
        a = make_catalog_profile("gaussian_power", [2], 2)
        v = make_catalog_profile("gaussian_power", [2], 2, role=ProfileRole.WEIGHT_V)
        pair = make_pair(a, v)
        grid = build_grid(2, 32, 7.0)
        op = build_model_operator(pair, grid)
        tol = 1e-8
        pairs = smallest_eigenpairs(op, SolveSettings(k=6, tol=tol, mode=Mode.DENSE_FULL))
        values = [p.value for p in pairs]
        clusters = cluster_eigenvalues(values, tol * max(values))
        assert [len(c) for c in clusters] == [1, 2, 3]
        # cluster means against the analytic two-dimensional levels
        root2 = np.sqrt(2.0)
        means = [np.mean([values[i] for i in c]) for c in clusters]
        np.testing.assert_allclose(means, [2 * root2, 4 * root2, 6 * root2], rtol=1e-5)

    def test_2d_shift_invert_matches_dense(self):
        a = make_catalog_profile("gaussian_power", [2], 2)
        v = make_catalog_profile("gaussian_power", [2], 2, role=ProfileRole.WEIGHT_V)
        pair = make_pair(a, v)
        grid = build_grid(2, 16, 6.0)
        op = build_model_operator(pair, grid)
        tol = 1e-8
        dense = smallest_eigenpairs(op, SolveSettings(k=3, tol=tol, mode=Mode.DENSE_FULL))
        si = smallest_eigenpairs(
            op, SolveSettings(k=3, tol=tol, mode=Mode.SHIFT_INVERT_BOTTOM)
        )
        for d_pair, s_pair in zip(dense, si):
            assert abs(d_pair.value - s_pair.value) <= 10 * tol * max(1.0, d_pair.value)

    def test_dense_matrix_is_fortran_ordered_and_holds_the_columns(self):
        # Not symmetrized: eigh reads only the lower triangle, and
        # test_hermitian_to_machine_precision checks the operator itself.
        # 40 and 10^2 unknowns end in a partial block of rows.
        rng = np.random.default_rng(5)
        for d, n in ((1, 40), (2, 10), (2, 20)):
            grid = build_grid(d, n, 5.0)
            a = make_catalog_profile("gaussian_power", [2], d)
            v = make_catalog_profile("gaussian_power", [2], d, role=ProfileRole.WEIGHT_V)
            model = build_model_operator(make_pair(a, v), grid)
            random = random_mult_pot_operator(grid, rng)  # not even: complex path
            for op, dtype in ((model, np.float64), (random, np.complex128)):
                mat = materialize_dense(op)
                assert op.real is (dtype is np.float64)
                assert mat.dtype == dtype and mat.flags.f_contiguous
                columns = np.empty_like(mat)
                basis = np.zeros(grid.size, dtype=dtype)
                for j in range(grid.size):
                    basis[j] = 1.0
                    columns[:, j] = op.apply_values(basis.reshape(grid.shape)).ravel()
                    basis[j] = 0.0
                assert np.array_equal(mat, columns)

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_every_bottom_mode_solves_up_to_the_grid_dimension(self, gaussian_pair, mode):
        op = build_model_operator(gaussian_pair, build_grid(1, 32, 6.0))
        tol = 1e-9
        pairs = smallest_eigenpairs(op, SolveSettings(k=32, tol=tol, mode=mode))
        dense = smallest_eigenpairs(op, SolveSettings(k=32, tol=tol, mode=Mode.DENSE_FULL))
        np.testing.assert_allclose(
            [p.value for p in pairs], [p.value for p in dense],
            rtol=0, atol=tol * max(1.0, op.upper_bound),
        )
        assert certify(op, pairs, tol).passed
        with pytest.raises(ValueError, match="model-operator: requested 33 pairs from a 32-"):
            smallest_eigenpairs(op, SolveSettings(k=33, tol=tol, mode=mode))

    def test_dense_size_cap_enforced(self, gaussian_pair):
        # The cap counts unknowns, also where the parity blocks would be half.
        big = build_grid(1, 8192, 20.0)
        op = build_model_operator(gaussian_pair, big)
        assert big.size > DENSE_SIZE_LIMIT
        assert len(eigensolve._dense_blocks(op)) == 2
        with pytest.raises(ValueError, match="dense materialization permitted only up to "
                                             "4096 unknowns, got 8192"):
            smallest_eigenpairs(op, SolveSettings(k=1, tol=1e-8, mode=Mode.DENSE_FULL))

    def test_bottom_mode_switches_above_dense_limit(self, gaussian_pair):
        def model(symbol_power, d, n, half_length):
            a = make_catalog_profile("gaussian_power", [symbol_power], d)
            v = make_catalog_profile("gaussian_power", [2], d, role=ProfileRole.WEIGHT_V)
            return build_model_operator(make_pair(a, v), build_grid(d, n, half_length))

        # (operator, explicit mode) -> choice, words of the reason; a
        # sandwich carries no parts for a stiffness estimate or for
        # shift-invert's preconditioner.  Above 1024 unknowns, stiff even
        # models run dense while their larger parity block has at most 1024.
        sandwich = build_scaled_operator(gaussian_pair, 0.1, build_grid(1, 2048, 20.0))
        table = [
            ((model(2, 1, 1024, 20.0), None), Mode.DENSE_FULL,
             "1024 unknowns <= 1024; parity blocks 513 + 511"),
            ((model(2, 1, 1280, 20.0), None), Mode.DENSE_FULL,
             ">= 500; parity blocks 641 + 639 <= 1024 each"),
            ((model(2, 1, 1792, 20.0), None), Mode.DENSE_FULL,
             ">= 500; parity blocks 897 + 895 <= 1024 each"),
            ((model(2, 1, 2046, 20.0), None), Mode.DENSE_FULL,
             ">= 500; parity blocks 1024 + 1022 <= 1024 each"),
            ((model(4, 2, 40, 8.0), None), Mode.DENSE_FULL,
             ">= 500; parity blocks 802 + 798 <= 1024 each"),
            ((model(2, 2, 40, 8.0), None), Mode.LANCZOS, "< 500"),
            ((model(2, 2, 48, 8.0), None), Mode.LANCZOS, "< 500"),
            ((model(2, 1, 2048, 20.0), None), Mode.SHIFT_INVERT_BOTTOM, ">= 500"),
            ((model(2, 2, 80, 10.0), None), Mode.LANCZOS, "< 500"),
            ((model(4, 2, 56, 8.0), None), Mode.SHIFT_INVERT_BOTTOM, ">= 500"),
            ((model(2, 1, 8192, 20.0), None), Mode.SHIFT_INVERT_BOTTOM, ">= 500"),
            ((sandwich, None), Mode.LANCZOS, "no parts"),
            ((model(2, 2, 80, 10.0), Mode.DENSE_FULL), Mode.DENSE_FULL, "set in the config"),
            ((model(2, 1, 1024, 20.0), Mode.LANCZOS), Mode.LANCZOS, "set in the config"),
        ]
        for (op, given), chosen, words in table:
            mode, reason = bottom_mode(op, 3, given)
            assert mode is chosen, (op.label, op.grid.describe(), given, reason)
            assert words in reason

    def test_weyl_estimate_counts_phase_space(self):
        # op(xi^2) + x^2 in 1-D: the count below E is about the area
        # pi*E of {xi^2 + x^2 < E} over 2 pi, so mu_k ~ 2k (exact: 2k - 1).
        grid = build_grid(1, 512, 20.0)
        x = grid.position_points[..., 0]
        xi = grid.frequency_points[..., 0]
        for k in (1, 5, 20):
            assert weyl_estimate(xi**2, x**2, k) == pytest.approx(2 * k, rel=0.01)
        assert weyl_estimate(-(xi**2), -(x**2), 1) == 0.0

    def test_auto_mode_solves_a_mild_2d_model_in_few_applies(self):
        # Plain Lanczos on -A takes ~300 applies here; shift-invert ~4500
        # plus as many preconditioner FFTs.  A wrong mode choice fails.
        a = make_catalog_profile("gaussian_power", [2], 2)
        v = make_catalog_profile("gaussian_power", [2], 2, role=ProfileRole.WEIGHT_V)
        op, calls = counting(build_model_operator(make_pair(a, v), build_grid(2, 80, 10.0)))
        pairs = smallest_eigenpairs(op, SolveSettings(k=3, tol=1e-9))
        assert calls[0] <= 1000
        np.testing.assert_allclose(
            [p.value for p in pairs], np.sqrt(2.0) * np.array([2, 4, 4]), rtol=1e-9
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("k", [2, 4])  # inside the double and the triple level
    def test_shift_invert_keeps_the_k_smallest_inside_a_level(self, k, seed):
        # Plain Lanczos on -A must keep them too.
        a = make_catalog_profile("gaussian_power", [2], 2)
        v = make_catalog_profile("gaussian_power", [2], 2, role=ProfileRole.WEIGHT_V)
        op = build_model_operator(make_pair(a, v), build_grid(2, 32, 7.0))
        dense, si, plain = (
            smallest_eigenpairs(op, SolveSettings(k=k, tol=1e-9, rng_seed=seed, mode=mode))
            for mode in (Mode.DENSE_FULL, Mode.SHIFT_INVERT_BOTTOM, Mode.LANCZOS)
        )
        for pairs in (si, plain):
            assert len(pairs) == k
            np.testing.assert_allclose(
                [p.value for p in pairs], [p.value for p in dense], rtol=1e-11, atol=0
            )
            assert certify(op, pairs, 1e-9).passed

    def test_shift_invert_needs_the_parts_of_its_preconditioner(self, gaussian_pair, grid_256):
        sandwich = build_scaled_operator(gaussian_pair, 0.1, grid_256)
        with pytest.raises(ValueError, match="needs the operator's multiplier_part and "
                                             "potential_part for its preconditioner"):
            smallest_eigenpairs(sandwich, SolveSettings(k=1, mode=Mode.SHIFT_INVERT_BOTTOM))

    def test_certification_failure_names_its_numbers(self, gaussian_pair):
        op = build_model_operator(gaussian_pair, build_grid(1, 256, 12.0))
        with pytest.raises(NoConvergenceError) as exc_info:
            smallest_eigenpairs(op, SolveSettings(k=1, tol=1e-20, mode=Mode.DENSE_FULL))
        assert exc_info.match(
            r"model-operator: worst residual .* exceeds the certification threshold"
        )
        assert exc_info.value.best_residuals

    def test_inner_solve_stall_reported(self, gaussian_pair, grid_512, monkeypatch):
        monkeypatch.setattr(eigensolve, "INNER_MAX_ITERATIONS", 2)
        op = build_model_operator(gaussian_pair, grid_512)
        with pytest.raises(InnerSolveStallError) as exc_info:
            smallest_eigenpairs(op, SolveSettings(k=1, tol=1e-9, mode=Mode.SHIFT_INVERT_BOTTOM))
        assert exc_info.value.achieved_residual > 0

    def test_an_inner_stall_is_a_convergence_failure(self, gaussian_pair, grid_512, monkeypatch):
        monkeypatch.setattr(eigensolve, "INNER_MAX_ITERATIONS", 2)
        op = build_model_operator(gaussian_pair, grid_512)
        with pytest.raises(NoConvergenceError) as exc_info:
            smallest_eigenpairs(op, SolveSettings(k=1, tol=1e-9, mode=Mode.SHIFT_INVERT_BOTTOM))
        stall = exc_info.value
        assert isinstance(stall, InnerSolveStallError)
        assert stall.iterations == 2
        assert str(stall) == (f"inner CG stalled at relative residual "
                              f"{stall.achieved_residual:.3e} after 2 iterations")


def mirrored(a):
    """``a`` plus its point reflection j -> -j mod N: exactly even samples."""
    axes = tuple(range(a.ndim))
    return a + np.roll(np.flip(a, axes), 1, axes)


def parity_deviation(values):
    """min over s = +-1 of max |v(-j) - s v(j)| / max |v|."""
    axes = tuple(range(values.ndim))
    reflected = np.roll(np.flip(values, axes), 1, axes)
    return min(np.max(np.abs(reflected - s * values)) for s in (1, -1)) / np.max(np.abs(values))


class TestParityBlocks:
    """The dense path of an operator whose parts are both even solves its
    even and odd blocks apart; anything else runs on the whole space."""

    # (d, N): even and odd N (the Grid dataclass takes odd N; build_grid does not)
    GRIDS = [(1, 16), (1, 15), (2, 8), (2, 7), (3, 4), (3, 5)]

    @pytest.mark.parametrize("d, n", GRIDS)
    def test_split_matches_the_full_matrix_for_every_k(self, d, n):
        grid = Grid(d, n, 3.0)
        rng = np.random.default_rng(10 * d + n)
        op = build_multiplier_plus_potential(
            grid, mirrored(rng.random(grid.shape)), mirrored(rng.random(grid.shape))
        )
        blocks = eigensolve._dense_blocks(op)
        fixed = (2 - n % 2) ** d  # nodes that are their own mirror
        pairs = (grid.size - fixed) // 2
        assert [b.size for b in blocks] == [fixed + pairs, pairs]
        matrix = materialize_dense(op)
        for block in blocks:
            # Each block is the full matrix on the block's orthonormal columns.
            columns = block.lift(np.eye(block.size)).T
            np.testing.assert_allclose(columns.T @ columns, np.eye(block.size), atol=1e-15)
            dense_block = materialize_dense(op, block)
            assert dense_block.flags.f_contiguous
            np.testing.assert_allclose(dense_block, columns.T @ matrix @ columns, atol=1e-14)
        full = np.linalg.eigvalsh(matrix)
        tol = 1e-10
        # Past the odd block's size the smaller block runs out of pairs.
        for k in sorted({1, 3, pairs, pairs + 1, grid.size}):
            settings = SolveSettings(k=k, tol=tol, mode=Mode.DENSE_FULL)
            bottom = smallest_eigenpairs(op, settings)
            top = largest_eigenpairs(op, settings)
            np.testing.assert_allclose([p.value for p in bottom], full[:k], rtol=0, atol=1e-13)
            np.testing.assert_allclose([p.value for p in top], full[::-1][:k], rtol=0, atol=1e-13)
            assert certify(op, bottom, tol).passed and certify(op, top, tol).passed

    @pytest.mark.parametrize("d, n, half_length", [(1, 1024, 20.0), (1, 1792, 20.0),
                                                   (2, 48, 8.0), (3, 12, 5.0)])
    def test_model_eigenvectors_have_parity(self, d, n, half_length):
        # Each block's eigenvectors lift to exactly even or odd grid
        # functions; the Rayleigh-Ritz step over both blocks mixes them
        # only by rounding.
        a = make_catalog_profile("gaussian_power", [2], d)
        v = make_catalog_profile("gaussian_power", [2], d, role=ProfileRole.WEIGHT_V)
        op = build_model_operator(make_pair(a, v), build_grid(d, n, half_length))
        assert len(eigensolve._dense_blocks(op)) == 2
        pairs = smallest_eigenpairs(op, SolveSettings(k=6, tol=1e-8, mode=Mode.DENSE_FULL))
        assert max(parity_deviation(p.vector.values) for p in pairs) <= 1e-12

    def test_an_operator_without_the_symmetry_runs_the_whole_space(self, gaussian_pair):
        # The whole-space path: eigh on materialize_dense(op), then Rayleigh-Ritz
        # over its vectors, bit for bit.
        grid = build_grid(2, 12, 5.0)
        rng = np.random.default_rng(8)
        even = mirrored(rng.random(grid.shape))
        ops = [
            build_multiplier_plus_potential(grid, rng.random(grid.shape), even),  # complex
            build_multiplier_plus_potential(grid, even, rng.random(grid.shape)),  # real
            build_scaled_operator(gaussian_pair, 0.1, build_grid(1, 64, 6.0)),  # no parts
        ]
        for op in ops:
            assert len(eigensolve._dense_blocks(op)) == 1
            for which, solve in (("smallest", smallest_eigenpairs),
                                 ("largest", largest_eigenpairs)):
                pairs = solve(op, SolveSettings(k=3, tol=1e-9, mode=Mode.DENSE_FULL))
                lo = op.grid.size - 3 if which == "largest" else 0
                _, vecs = sla.eigh(materialize_dense(op), subset_by_index=[lo, lo + 2])
                values, vectors, residuals = eigensolve._rayleigh_ritz(op, vecs.T, 3, which)
                weight = np.sqrt(op.grid.cell_volume)
                assert [p.value for p in pairs] == list(values)
                assert [p.residual for p in pairs] == residuals
                for p, vec in zip(pairs, vectors):
                    assert np.array_equal(p.vector.values, vec / weight)

    def test_no_full_matrix_is_built(self, gaussian_pair, grid_1024):
        # The full matrix of 1024 unknowns takes 8 MiB; its two blocks of
        # 513 and 511 take a quarter each.
        op = build_model_operator(gaussian_pair, grid_1024)
        tracemalloc.start()
        try:
            pairs = smallest_eigenpairs(op, SolveSettings(k=3, tol=1e-9, mode=Mode.DENSE_FULL))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pairs) == 3
        assert peak < grid_1024.size**2 * 8


class TestRealArithmetic:
    def test_real_operators_give_float64_vectors(self, gaussian_pair, grid_256):
        scaled = build_scaled_operator(gaussian_pair, 0.1, grid_256)
        model = build_model_operator(gaussian_pair, grid_256)
        assert scaled.real and model.real
        solves = [
            largest_eigenpairs(scaled, SolveSettings(k=2, tol=1e-9, mode=Mode.LANCZOS)),
            smallest_eigenpairs(model, SolveSettings(k=2, tol=1e-9, mode=Mode.LANCZOS)),
            smallest_eigenpairs(model, SolveSettings(k=2, tol=1e-9, mode=Mode.DENSE_FULL)),
            smallest_eigenpairs(
                model, SolveSettings(k=2, tol=1e-9, mode=Mode.SHIFT_INVERT_BOTTOM)
            ),
        ]
        for pairs in solves:
            for p in pairs:
                assert p.vector.values.dtype == np.float64


class TestOracleEquivalence:
    def test_random_operators_match_dense(self, grid_256):
        tol = 1e-9
        for seed in range(5):
            rng = np.random.default_rng(1000 + seed)
            op = random_mult_pot_operator(grid_256, rng)
            scale = max(1.0, op.upper_bound)
            mat = materialize_dense(op)
            dense_vals = np.linalg.eigvalsh(mat)
            top = largest_eigenpairs(op, SolveSettings(k=3, tol=tol, rng_seed=seed))
            np.testing.assert_allclose(
                [p.value for p in top], dense_vals[-3:][::-1], atol=10 * tol * scale
            )
            bottom = smallest_eigenpairs(
                op, SolveSettings(k=3, tol=tol, rng_seed=seed, mode=Mode.SHIFT_INVERT_BOTTOM)
            )
            np.testing.assert_allclose(
                [p.value for p in bottom], dense_vals[:3], atol=10 * tol * scale
            )

    def test_determinism_same_seed_bit_identical(self, gaussian_pair, grid_512):
        op = build_scaled_operator(gaussian_pair, 0.07, grid_512)
        settings = SolveSettings(k=3, tol=1e-9, rng_seed=99)
        first = largest_eigenpairs(op, settings)
        second = largest_eigenpairs(op, settings)
        assert [p.value for p in first] == [p.value for p in second]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.vector.values, b.vector.values)

    def test_different_seeds_agree_to_tolerance(self, gaussian_pair, grid_512):
        op = build_scaled_operator(gaussian_pair, 0.07, grid_512)
        tol = 1e-10
        a = largest_eigenpairs(op, SolveSettings(k=2, tol=tol, rng_seed=1))
        b = largest_eigenpairs(op, SolveSettings(k=2, tol=tol, rng_seed=2))
        for pa, pb in zip(a, b):
            assert abs(pa.value - pb.value) <= 10 * tol


class TestCertify:
    def test_solver_output_certifies(self, gaussian_pair, grid_256):
        op = build_scaled_operator(gaussian_pair, 0.1, grid_256)
        pairs = largest_eigenpairs(op, SolveSettings(k=3, tol=1e-9))
        assert certify(op, pairs, 1e-9).passed

    def test_scaled_vector_fails_norm_check(self, gaussian_pair, grid_256):
        op = build_scaled_operator(gaussian_pair, 0.1, grid_256)
        pairs = largest_eigenpairs(op, SolveSettings(k=2, tol=1e-9))
        pairs[0].vector.values *= 2.0
        report = certify(op, pairs, 1e-9)
        assert not report.norms_ok
        assert not report.passed

    def test_duplicate_vector_fails_orthogonality(self, gaussian_pair, grid_256):
        op = build_scaled_operator(gaussian_pair, 0.1, grid_256)
        pairs = largest_eigenpairs(op, SolveSettings(k=2, tol=1e-9))
        pairs[1].vector.values = pairs[0].vector.values.copy()
        report = certify(op, pairs, 1e-9)
        assert not report.orthogonality_ok
        assert not report.passed


class TestClusters:
    def test_grouping(self):
        values = [1.0, 1.0 + 1e-7, 2.0, 3.0, 3.0 + 5e-8, 3.0 + 1e-7]
        clusters = cluster_eigenvalues(values, tol=1e-9)  # window 1e-6
        assert [len(c) for c in clusters] == [2, 1, 3]

    def test_singletons_when_far_apart(self):
        clusters = cluster_eigenvalues([1.0, 2.0, 4.0], tol=1e-9)
        assert [len(c) for c in clusters] == [1, 1, 1]
