import numpy as np
import pytest

from specgap import (
    Mode,
    OperatorError,
    ProfileRole,
    SolveSettings,
    build_grid,
    build_model_operator,
    build_multiplier_operator,
    build_multiplier_plus_potential,
    build_original_operator,
    build_scaled_operator,
    inner,
    largest_eigenpairs,
    make_catalog_profile,
    make_pair,
    make_scaled_symbols,
    model_form,
    norm,
    random_state,
    residual_form,
    smallest_eigenpairs,
    state,
    symbol_flatness_form,
    to_frequency,
    validate_profile,
    weight_flatness_form,
)
from specgap.eigensolve import materialize_dense
from specgap.grid import to_frequency_values, to_position_values
from specgap.operators import normalized_pair
from specgap.profiles import expression_profile

from conftest import constant_profile


def trivial_pair(a_constant=False, v_constant=False, d=1, a_params=(2,), v_params=(2,)):
    a = (
        constant_profile(ProfileRole.SYMBOL_A, d)
        if a_constant
        else make_catalog_profile("gaussian_power", list(a_params), d)
    )
    v = (
        constant_profile(ProfileRole.WEIGHT_V, d)
        if v_constant
        else make_catalog_profile("gaussian_power", list(v_params), d, role=ProfileRole.WEIGHT_V)
    )
    return make_pair(a, v)


def oscillator_ground_state(grid):
    # analytic ground state of -u'' + 2 x^2: exp(-x^2 / sqrt(2)), normalized
    x = grid.position_points[..., 0]
    vals = np.exp(-(x**2) / np.sqrt(2.0))
    u = state(grid, vals)
    return state(grid, u.values / norm(u))


class TestSandwichOperators:
    def test_identity_composition(self, grid_256):
        pair = trivial_pair(a_constant=True, v_constant=True)
        op = build_scaled_operator(pair, 0.3, grid_256)
        rng = np.random.default_rng(0)
        u = random_state(grid_256, rng)
        out = op.apply(u)
        assert np.max(np.abs(out.values - u.values)) <= 1e-13 * norm(u)

    def test_multiplier_eigenvector(self, grid_256):
        pair = trivial_pair(v_constant=True)
        alpha = 0.2
        op = build_scaled_operator(pair, alpha, grid_256)
        sym = make_scaled_symbols(pair, alpha, grid_256)
        k = 11
        e_k = state(grid_256, np.exp(1j * grid_256.freq_axis[k] * grid_256.node_axis))
        out = op.apply(e_k)
        np.testing.assert_allclose(
            out.values, sym.multiplier_values[k] * e_k.values, rtol=0, atol=1e-12
        )

    def test_rayleigh_quotient_bracketed_by_first_order_law(self, gaussian_pair, grid_1024):
        alpha = 0.1
        op = build_scaled_operator(gaussian_pair, alpha, grid_1024)
        u = oscillator_ground_state(grid_1024)
        mu1 = np.sqrt(2.0)
        quotient = op.rayleigh(u)
        assert quotient <= 1.0
        assert quotient >= 1.0 - 1.05 * alpha * mu1

    def test_original_form_with_flat_symbol_is_weight_squared(self, grid_256):
        pair = trivial_pair(a_constant=True)
        op = build_original_operator(pair, 1.0, grid_256)
        rng = np.random.default_rng(1)
        u = random_state(grid_256, rng)
        w = pair.v_profile.evaluate(grid_256.position_points)
        np.testing.assert_allclose(
            op.apply(u).values, w**2 * u.values, rtol=0, atol=1e-12 * norm(u)
        )

    def test_original_and_scaled_forms_share_top_eigenvalue(self, gaussian_pair):
        alpha = 0.1
        settings = SolveSettings(k=1, tol=1e-10)
        scaled = build_scaled_operator(gaussian_pair, alpha, build_grid(1, 1024, 20.0))
        original = build_original_operator(gaussian_pair, alpha, build_grid(1, 1024, 6.4))
        lam_scaled = largest_eigenpairs(scaled, settings)[0].value
        lam_original = largest_eigenpairs(original, settings)[0].value
        assert abs(lam_scaled - lam_original) <= 1e-6 * lam_scaled

    def test_flat_weight_rational_symbol_peaks_at_one(self, grid_256):
        a = make_catalog_profile("rational_power", [2], 1)
        pair = make_pair(a, constant_profile(ProfileRole.WEIGHT_V, 1))
        op = build_original_operator(pair, 0.5, grid_256)
        top = largest_eigenpairs(op, SolveSettings(k=1, tol=1e-10))[0].value
        # 0 is a lattice frequency, so the top of the multiplier is hit exactly
        assert top == pytest.approx(1.0, abs=1e-10)

    def test_upper_bound_uses_sampled_maxima(self, gaussian_pair, grid_256):
        op = build_scaled_operator(gaussian_pair, 0.2, grid_256)
        assert op.upper_bound == pytest.approx(1.0, rel=1e-12)

    def test_upper_bound_bounds_the_norm_for_negative_samples(self):
        grid = build_grid(2, 12, 4.0)
        rng = np.random.default_rng(8)
        m = rng.random(grid.shape) * 3.0
        q = rng.random(grid.shape) * 2.0
        positive = build_multiplier_plus_potential(grid, m, q)
        negative = build_multiplier_plus_potential(grid, -m, -q)
        assert positive.upper_bound == float(np.max(m) + np.max(q))
        assert negative.upper_bound == positive.upper_bound
        norm_a = np.max(np.abs(np.linalg.eigvalsh(materialize_dense(negative))))
        assert norm_a <= negative.upper_bound

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_nonfinite_symbol_sample_rejected(self, grid_256):
        import specgap

        # overflows to inf at the outer nodes (e^(12^4))
        blow_up = specgap.ProfileSpec(
            dimension=1,
            role=ProfileRole.WEIGHT_V,
            evaluate=lambda p: np.exp(np.sum(np.asarray(p) ** 2, axis=-1) ** 2),
            max_value=1.0,
            principal=lambda p: np.sum(np.asarray(p) ** 2, axis=-1),
            degree=2.0,
            lower_bound_margin=1.0,
        )
        pair = make_pair(make_catalog_profile("gaussian_power", [2], 1), blow_up)
        with pytest.raises(OperatorError, match="non-finite"):
            build_original_operator(pair, 0.1, grid_256)

    def test_grid_dimension_mismatch_rejected(self, gaussian_pair):
        g2 = build_grid(2, 16, 4.0)
        with pytest.raises(OperatorError):
            build_scaled_operator(gaussian_pair, 0.1, g2)


class TestInputChecks:
    """Each builder and form names a grid, shape or alpha mismatch; ``w``
    lives on another grid than ``u``."""

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda p, g, u, w: build_scaled_operator(p, 0.1, g).apply(w), "grid does not match"),
            (lambda p, g, u, w: build_scaled_operator(p, 0.0, g), "alpha must be positive"),
            (lambda p, g, u, w: build_model_operator(p, build_grid(2, 8, 3.0)),
             "dimension does not match"),
            (lambda p, g, u, w: build_multiplier_operator(g, np.ones(8)), "frequency lattice"),
            (lambda p, g, u, w: build_multiplier_plus_potential(g, np.ones(g.shape), np.ones(8)),
             "shapes must match"),
            (lambda p, g, u, w: symbol_flatness_form(p, 0.1, u, w), "grids do not match"),
            (lambda p, g, u, w: weight_flatness_form(p, 0.1, u, w), "grids do not match"),
            (lambda p, g, u, w: model_form(p, u, w), "grids do not match"),
            (lambda p, g, u, w: residual_form(p, -0.1, u), "alpha must be positive"),
        ],
        ids=["apply", "sandwich-alpha", "model-dimension", "multiplier-shape",
             "potential-shape", "symbol-form", "weight-form", "model-form", "residual-alpha"],
    )
    def test_rejected(self, gaussian_pair, grid_256, call, match):
        u = oscillator_ground_state(grid_256)
        w = state(build_grid(1, 16, 4.0), np.ones(16))
        with pytest.raises(OperatorError, match=match):
            call(gaussian_pair, grid_256, u, w)


class TestModelOperator:
    def test_harmonic_ground_value(self, gaussian_pair, grid_512):
        op = build_model_operator(gaussian_pair, grid_512)
        mus = smallest_eigenpairs(op, SolveSettings(k=4, tol=1e-9, mode=Mode.DENSE_FULL))
        exact = np.sqrt(2.0) * (2 * np.arange(1, 5) - 1)
        for pair_, target in zip(mus, exact):
            assert pair_.value == pytest.approx(target, rel=1e-8)

    def test_constant_vector_feels_only_the_potential(self, gaussian_pair, grid_256):
        op = build_model_operator(gaussian_pair, grid_256)
        u = state(grid_256, np.ones(grid_256.shape))
        phi = grid_256.position_points[..., 0] ** 2
        np.testing.assert_allclose(
            op.apply(u).values, 2.0 * phi * u.values, rtol=0, atol=1e-10
        )

    def test_2d_harmonic_degenerate_triple(self):
        pair = trivial_pair(d=2)
        grid = build_grid(2, 32, 7.0)
        op = build_model_operator(pair, grid)
        mus = smallest_eigenpairs(op, SolveSettings(k=3, tol=1e-8, mode=Mode.DENSE_FULL))
        values = [p.value for p in mus]
        expected = [2 * np.sqrt(2), 4 * np.sqrt(2), 4 * np.sqrt(2)]
        np.testing.assert_allclose(values, expected, rtol=1e-5)

    def test_spectrum_nonnegative(self, gaussian_pair, grid_256):
        op = build_model_operator(gaussian_pair, grid_256)
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = random_state(grid_256, rng)
            assert op.rayleigh(u) >= -1e-12


class TestForms:
    def test_symbol_form_vanishes_for_flat_symbol(self, grid_256):
        pair = trivial_pair(a_constant=True)
        rng = np.random.default_rng(7)
        u = random_state(grid_256, rng)
        assert abs(symbol_flatness_form(pair, 0.3, u)) <= 1e-14 * norm(u) ** 2

    def test_weight_form_vanishes_for_flat_weight(self, grid_256):
        pair = trivial_pair(v_constant=True)
        rng = np.random.default_rng(8)
        u = random_state(grid_256, rng)
        assert abs(weight_flatness_form(pair, 0.3, u)) == 0.0

    def test_symbol_form_single_bin(self, gaussian_pair, grid_256):
        alpha = 0.2
        k = 9
        sym = make_scaled_symbols(gaussian_pair, alpha, grid_256)
        e_k = state(grid_256, np.exp(1j * grid_256.freq_axis[k] * grid_256.node_axis))
        got = symbol_flatness_form(gaussian_pair, alpha, e_k)
        expected = alpha ** (-1.0) * (1 - sym.multiplier_values[k]) * norm(e_k) ** 2
        assert got.real == pytest.approx(expected, rel=1e-12)
        assert abs(got.imag) <= 1e-12 * abs(expected)

    def test_weight_form_single_node(self, gaussian_pair, grid_256):
        alpha = 0.2
        sym = make_scaled_symbols(gaussian_pair, alpha, grid_256)
        j = 40
        vals = np.zeros(grid_256.shape, dtype=complex)
        vals[j] = 2.0 - 1.0j
        u = state(grid_256, vals)
        got = weight_flatness_form(gaussian_pair, alpha, u)
        expected = (
            alpha ** (-1.0)
            * (1 - sym.weight_values[j] ** 2)
            * abs(vals[j]) ** 2
            * grid_256.spacing
        )
        assert got.real == pytest.approx(expected, rel=1e-12)

    def test_symbol_form_ladder_converges_to_principal_quadrature(
        self, gaussian_pair, grid_512
    ):
        u = oscillator_ground_state(grid_512)
        u_hat = to_frequency(u)
        xi = grid_512.freq_axis
        target = grid_512.freq_cell_volume * np.sum(xi**2 * np.abs(u_hat.values) ** 2)
        errs = [
            abs(symbol_flatness_form(gaussian_pair, a, u).real - target)
            for a in (0.2, 0.1, 0.05)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_weight_form_ladder_converges_to_potential_quadrature(
        self, gaussian_pair, grid_512
    ):
        u = oscillator_ground_state(grid_512)
        x = grid_512.node_axis
        target = 2.0 * grid_512.cell_volume * np.sum(x**2 * np.abs(u.values) ** 2)
        errs = [
            abs(weight_flatness_form(gaussian_pair, a, u).real - target)
            for a in (0.2, 0.1, 0.05)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_model_form_matches_operator_quadratic_form(self, gaussian_pair, grid_256):
        rng = np.random.default_rng(12)
        op = build_model_operator(gaussian_pair, grid_256)
        for _ in range(5):
            u = random_state(grid_256, rng)
            lhs = model_form(gaussian_pair, u)
            rhs = inner(op.apply(u), u)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_residual_form_identity_exact(self, gaussian_pair, grid_256):
        # the defect form equals alpha^sigma * (model - symbol - weight forms)
        rng = np.random.default_rng(13)
        alpha = 0.17
        sym = make_scaled_symbols(gaussian_pair, alpha, grid_256)
        for _ in range(5):
            u = random_state(grid_256, rng)
            w = state(grid_256, sym.weight_values * u.values)
            lhs = residual_form(gaussian_pair, alpha, u)
            rhs = alpha**gaussian_pair.sigma * (
                model_form(gaussian_pair, u).real
                - symbol_flatness_form(gaussian_pair, alpha, w, symbols=sym).real
                - weight_flatness_form(gaussian_pair, alpha, u, symbols=sym).real
            )
            scale = max(abs(lhs), abs(rhs), 1e-30)
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_gap_identity_exact_on_random_vectors(self, gaussian_pair, grid_256):
        # alpha^-sigma * (<u,v> - <B u, v>) == K[w,y] + S[u,v], exactly
        rng = np.random.default_rng(14)
        alpha = 0.17
        op = build_scaled_operator(gaussian_pair, alpha, grid_256)
        sym = make_scaled_symbols(gaussian_pair, alpha, grid_256)
        for _ in range(10):
            u = random_state(grid_256, rng)
            v = random_state(grid_256, rng)
            w = state(grid_256, sym.weight_values * u.values)
            y = state(grid_256, sym.weight_values * v.values)
            lhs = (inner(u, v) - inner(op.apply(u), v)) / alpha**gaussian_pair.sigma
            rhs = symbol_flatness_form(
                gaussian_pair, alpha, w, y, symbols=sym
            ) + weight_flatness_form(gaussian_pair, alpha, u, v, symbols=sym)
            scale = max(abs(lhs), abs(rhs))
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_forms_nonnegative_on_squares(self, gaussian_pair, grid_256):
        rng = np.random.default_rng(15)
        for alpha in (0.4, 0.1):
            for _ in range(5):
                u = random_state(grid_256, rng)
                assert symbol_flatness_form(gaussian_pair, alpha, u).real >= 0.0
                assert weight_flatness_form(gaussian_pair, alpha, u).real >= 0.0

    def test_residual_ladder_shrinks_for_smooth_state(self, gaussian_pair, grid_512):
        u = oscillator_ground_state(grid_512)
        vals = [
            abs(residual_form(gaussian_pair, a, u)) / a**gaussian_pair.sigma
            for a in (0.2, 0.1, 0.05, 0.025)
        ]
        assert vals[0] > vals[1] > vals[2] > vals[3]

    def test_domination_by_principal_quadratures(self, gaussian_pair, grid_256):
        # flatness forms are bounded by the validator's domination constant
        # times the principal-part quadratures
        c_a = validate_profile(gaussian_pair.a_profile).domination_constant
        c_v = validate_profile(gaussian_pair.v_profile).domination_constant
        rng = np.random.default_rng(16)
        xi = grid_256.freq_axis
        x = grid_256.node_axis
        for alpha in (0.3, 0.1, 0.03):
            for _ in range(3):
                u = random_state(grid_256, rng)
                u_hat = to_frequency(u)
                k_bound = c_a * grid_256.freq_cell_volume * np.sum(
                    xi**2 * np.abs(u_hat.values) ** 2
                )
                k_val = symbol_flatness_form(gaussian_pair, alpha, u).real
                assert k_val <= k_bound * (1 + 1e-10)
                # weight side: 1 - W^2 = (1-W)(1+W) <= 2*Phi_scaled*c_v... use
                # the two-sided constant 2*c_v + c_v^2 covering the square
                s_bound = (2 * c_v + c_v**2) * grid_256.cell_volume * np.sum(
                    x**2 * np.abs(u.values) ** 2
                )
                s_val = weight_flatness_form(gaussian_pair, alpha, u).real
                assert s_val <= s_bound * (1 + 1e-10)


class TestHermitianContract:
    @pytest.mark.parametrize("builder", ["scaled", "original", "model", "raw"])
    def test_hermitian_to_machine_precision(self, gaussian_pair, grid_256, builder):
        rng = np.random.default_rng(17)
        if builder == "scaled":
            op = build_scaled_operator(gaussian_pair, 0.23, grid_256)
        elif builder == "original":
            op = build_original_operator(gaussian_pair, 0.23, grid_256)
        elif builder == "model":
            op = build_model_operator(gaussian_pair, grid_256)
        else:
            op = build_multiplier_plus_potential(
                grid_256,
                rng.random(grid_256.shape),
                rng.random(grid_256.shape),
            )
        scale = max(1.0, op.upper_bound or 1.0)
        for _ in range(5):
            u = random_state(grid_256, rng)
            v = random_state(grid_256, rng)
            lhs = inner(op.apply(u), v)
            rhs = inner(u, op.apply(v))
            assert abs(lhs - rhs) <= 1e-12 * scale * norm(u) * norm(v)

    def test_rayleigh_quotient_within_spectral_band(self, gaussian_pair, grid_256):
        op = build_scaled_operator(gaussian_pair, 0.15, grid_256)
        bound = gaussian_pair.peak_product
        rng = np.random.default_rng(18)
        for _ in range(10):
            u = random_state(grid_256, rng)
            q = op.rayleigh(u)
            assert -bound * (1 + 1e-12) <= q <= bound * (1 + 1e-12)

    def test_linearity_of_apply(self, gaussian_pair, grid_256):
        op = build_scaled_operator(gaussian_pair, 0.3, grid_256)
        rng = np.random.default_rng(19)
        u, v = random_state(grid_256, rng), random_state(grid_256, rng)
        a, b = 1.3 - 0.2j, -0.7 + 2.1j
        lhs = op.apply(state(grid_256, a * u.values + b * v.values)).values
        rhs = a * op.apply(u).values + b * op.apply(v).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (norm(u) + norm(v))


class TestNormalization:
    def test_scaling_is_exactly_linear(self, grid_256):
        import dataclasses

        base_a = make_catalog_profile("gaussian_power", [2], 1)
        base_v = make_catalog_profile("gaussian_power", [2], 1, role=ProfileRole.WEIGHT_V)
        a3 = dataclasses.replace(
            base_a,
            evaluate=lambda p: 3.0 * base_a.evaluate(p),
            principal=lambda p: 3.0 * base_a.principal(p),
            max_value=3.0,
        )
        v2 = dataclasses.replace(
            base_v,
            evaluate=lambda p: 2.0 * base_v.evaluate(p),
            principal=lambda p: 2.0 * base_v.principal(p),
            max_value=2.0,
            lower_bound_margin=2.0,
        )
        pair = make_pair(a3, v2)
        assert pair.peak_product == pytest.approx(12.0)
        norm_pair, scale = normalized_pair(pair)
        assert scale == pytest.approx(12.0)
        rng = np.random.default_rng(20)
        u = random_state(grid_256, rng)
        big = build_scaled_operator(pair, 0.2, grid_256).apply(u)
        unit = build_scaled_operator(norm_pair, 0.2, grid_256).apply(u)
        deviation = np.max(np.abs(big.values - 12.0 * unit.values))
        assert deviation <= 1e-13 * np.max(np.abs(big.values))


def _transform_apply(grid, m, values):
    """op(m) through the unitary transforms, phase and scales included."""
    return to_position_values(grid, m * to_frequency_values(grid, values))


# catalog (symbol, weight) pairs, a grid size per dimension, and whether
# the sampled symbol is even on the lattice
_CATALOG_PAIRS = [
    (1, ("gaussian_power", [2]), ("gaussian_power", [2]), 64, True),
    (1, ("rational_power", [3]), ("gaussian_power", [4]), 64, True),
    (2, ("aniso_gaussian", [2.0, 0.0, 0.0, 1.0]), ("rational_power", [2]), 16, True),
    (2, ("gaussian_power", [1.5]), ("aniso_gaussian", [1.0, -0.3, -0.3, 0.7]), 16, True),
    (3, ("rational_power", [2]), ("gaussian_power", [2]), 8, True),
    (3, ("aniso_gaussian", [2.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.5]),
     ("gaussian_power", [2]), 8, True),
    # A cross term is odd in each coordinate, and the lattice holds -N/2 but
    # not +N/2: on the Nyquist rows the sampled symbol is not even.
    (2, ("aniso_gaussian", [2.0, 0.5, 0.5, 1.0]), ("rational_power", [2]), 16, False),
]

_NON_EVEN_EXPR = "exp(-(norm(x) + x1/2))"
_NON_EVEN_PRINCIPAL = "norm(x) + x1/2"


class TestRealApply:
    @pytest.mark.parametrize("d, a_spec, v_spec, n, even", _CATALOG_PAIRS)
    def test_catalog_operators_match_the_transform_apply(self, d, a_spec, v_spec, n, even):
        a = make_catalog_profile(a_spec[0], a_spec[1], d)
        v = make_catalog_profile(v_spec[0], v_spec[1], d, role=ProfileRole.WEIGHT_V)
        pair = make_pair(a, v)
        grid = build_grid(d, n, 5.0)
        sym = make_scaled_symbols(pair, 0.3, grid)
        w, b = sym.weight_values, sym.multiplier_values
        scaled = build_scaled_operator(pair, 0.3, grid)
        model = build_model_operator(pair, grid)
        assert scaled.real is even and model.real is even

        def scaled_reference(x):
            return w * _transform_apply(grid, b, w * x)

        def model_reference(x):
            return _transform_apply(grid, model.multiplier_part, x) + model.potential_part * x

        rng = np.random.default_rng(30 + d)
        real_in = rng.standard_normal(grid.shape)
        complex_in = real_in + 1j * rng.standard_normal(grid.shape)
        for op, reference in ((scaled, scaled_reference), (model, model_reference)):
            real_out = op.apply_values(real_in)
            assert real_out.dtype == (np.float64 if even else np.complex128)
            for x, got in ((real_in, real_out), (complex_in, op.apply_values(complex_in))):
                want = reference(x)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_non_even_symbol_validates_and_stays_complex(self):
        a = expression_profile(_NON_EVEN_EXPR, _NON_EVEN_PRINCIPAL, 1, 1)
        assert validate_profile(a).passed
        v = make_catalog_profile("gaussian_power", [2], 1, role=ProfileRole.WEIGHT_V)
        pair = make_pair(a, v)
        grid = build_grid(1, 64, 5.0)
        model = build_model_operator(pair, grid)
        assert not model.real
        assert not build_scaled_operator(pair, 0.3, grid).real
        x = np.random.default_rng(36).standard_normal(grid.shape)
        want = _transform_apply(grid, model.multiplier_part, x) + model.potential_part * x
        got = model.apply_values(x)
        assert np.iscomplexobj(got)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_non_even_symbol_dense_and_shift_invert_agree(self):
        a = expression_profile(_NON_EVEN_EXPR, _NON_EVEN_PRINCIPAL, 1, 1)
        v = make_catalog_profile("gaussian_power", [2], 1, role=ProfileRole.WEIGHT_V)
        op = build_model_operator(make_pair(a, v), build_grid(1, 256, 20.0))
        values = {
            mode: [p.value for p in smallest_eigenpairs(op, SolveSettings(k=3, tol=1e-9, mode=mode))]
            for mode in (Mode.DENSE_FULL, Mode.SHIFT_INVERT_BOTTOM)
        }
        dense, si = values[Mode.DENSE_FULL], values[Mode.SHIFT_INVERT_BOTTOM]
        np.testing.assert_allclose(dense, si, rtol=1e-11)
        np.testing.assert_allclose(
            dense, [1.0915782382417, 2.3844137370876, 3.3986951675210], rtol=1e-11
        )
