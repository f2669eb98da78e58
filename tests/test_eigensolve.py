import dataclasses

import numpy as np
import pytest

from specgap import (
    InnerSolveStallError,
    Mode,
    NoConvergenceError,
    ProfileRole,
    SolveSettings,
    build_grid,
    build_model_operator,
    build_multiplier_operator,
    build_multiplier_plus_potential,
    build_scaled_operator,
    certify,
    cluster_eigenvalues,
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
from specgap.operators import (
    HermitianOperator,
    principal_frequency_samples,
    principal_position_samples,
)

# frozen two-resolution regression value for the quartic-multiplier model
# operator op(xi^4) + 2 x^2 on [-30, 30] (no analytic spectrum available)
QUARTIC_MODEL_GROUND = 1.6832198980


def counting(op):
    """``op`` with an apply that counts its calls in ``calls[0]``."""
    calls = [0]

    def apply_values(values):
        calls[0] += 1
        return op.apply_values(values)

    return dataclasses.replace(op, apply_values=apply_values), calls


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
        op = build_multiplier_operator(grid, m)
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
            "(3/3 pairs certified; completeness probe unfinished)"
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
            "(0/3 pairs certified)"
        )
        residuals = exc_info.value.best_residuals
        assert len(residuals) == 3
        assert 0.1 * 1e-9 < max(residuals) < 1e-8

    def test_k_capped_at_the_grid_dimension(self):
        grid = build_grid(1, 32, 4.0)
        op = build_multiplier_operator(grid, np.ones(grid.shape))
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
        grid = build_grid(2, n, half_length)
        op = build_multiplier_plus_potential(
            grid,
            -principal_frequency_samples(pair, grid),
            -2.0 * principal_position_samples(pair, grid),
        )
        tol = 1e-9
        pairs = largest_eigenpairs(op, SolveSettings(k=3, tol=tol, rng_seed=seed))
        values = [p.value for p in pairs]
        dense = smallest_eigenpairs(
            build_model_operator(pair, grid), SolveSettings(k=3, tol=tol, mode=Mode.DENSE_FULL)
        )
        scale = op.upper_bound
        np.testing.assert_allclose(
            values, [-p.value for p in dense], rtol=0, atol=10 * tol * scale
        )
        assert [len(c) for c in cluster_eigenvalues(values, tol * scale)] == [1, 2]
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
        grid = build_grid(2, 20, 5.0)
        rng = np.random.default_rng(5)
        op = random_mult_pot_operator(grid, rng)  # not even: complex path
        mat = materialize_dense(op)
        assert not op.real and mat.flags.f_contiguous
        basis = np.zeros(grid.size)
        for j in (0, 77, grid.size - 1):
            basis[j] = 1.0
            column = op.apply_values(basis.reshape(grid.shape)).ravel()
            basis[j] = 0.0
            np.testing.assert_allclose(mat[:, j], column, rtol=0, atol=1e-12)

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
        big = build_grid(1, 8192, 20.0)
        op = build_model_operator(gaussian_pair, big)
        assert big.size > DENSE_SIZE_LIMIT
        with pytest.raises(ValueError, match="dense"):
            smallest_eigenpairs(op, SolveSettings(k=1, tol=1e-8, mode=Mode.DENSE_FULL))

    def test_bottom_mode_switches_above_dense_limit(self):
        def model(symbol_power, d, n, half_length):
            a = make_catalog_profile("gaussian_power", [symbol_power], d)
            v = make_catalog_profile("gaussian_power", [2], d, role=ProfileRole.WEIGHT_V)
            return build_model_operator(make_pair(a, v), build_grid(d, n, half_length))

        # (operator, explicit mode) -> choice, words of the reason
        no_potential = build_multiplier_operator(build_grid(1, 2048, 20.0), np.ones(2048))
        table = [
            ((model(2, 1, 1024, 20.0), None), Mode.DENSE_FULL, "1024 unknowns <= 1024"),
            ((model(2, 2, 80, 10.0), None), Mode.LANCZOS, "< 500"),
            ((model(4, 2, 56, 8.0), None), Mode.SHIFT_INVERT_BOTTOM, ">= 500"),
            ((model(2, 1, 8192, 20.0), None), Mode.SHIFT_INVERT_BOTTOM, ">= 500"),
            ((no_potential, None), Mode.SHIFT_INVERT_BOTTOM, "no parts"),
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
        # Plain Lanczos on -A takes ~400 applies here; shift-invert ~4500
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
