import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from specgap import (
    ProfileError,
    ProfileRole,
    ProfileSpec,
    expression_profile,
    make_catalog_profile,
    make_pair,
    sigma_exponent,
    validate_profile,
)


def pts(*coords):
    return np.array(coords, dtype=float)


class TestCatalog:
    def test_gaussian_power_definition(self):
        spec = make_catalog_profile("gaussian_power", [2], 1)
        assert spec.evaluate(pts(0.0)) == 1.0
        assert spec.max_value == 1.0
        assert spec.degree == 2.0
        x = np.linspace(-3, 3, 13).reshape(-1, 1)
        np.testing.assert_allclose(spec.principal(x), x[:, 0] ** 2, rtol=1e-15)
        np.testing.assert_allclose(spec.evaluate(x), np.exp(-x[:, 0] ** 2), rtol=1e-15)

    def test_rational_power(self):
        spec = make_catalog_profile("rational_power", [3], 1)
        assert spec.evaluate(pts(1.0)) == 0.5
        assert spec.principal(pts(1.0)) == 1.0
        assert spec.degree == 3.0

    def test_aniso_gaussian(self):
        spec = make_catalog_profile("aniso_gaussian", [2, 0, 0, 1], 2)
        assert spec.principal(pts(1.0, 1.0)) == pytest.approx(3.0, rel=1e-15)
        assert spec.degree == 2.0
        assert spec.evaluate(pts(0.0, 0.0)) == 1.0

    @pytest.mark.parametrize(
        "name,params,d",
        [
            ("no_such_profile", [2], 1),
            ("gaussian_power", [-1], 1),
            ("gaussian_power", [0], 1),
            ("rational_power", [2, 3], 1),
            ("aniso_gaussian", [1, 0, 0, -1], 2),  # not positive definite
            ("aniso_gaussian", [1, 2, 0, 1], 2),  # not symmetric
            ("aniso_gaussian", [1, 0, 0], 2),  # wrong count
            ("gaussian_power", [float("inf")], 1),  # the degree must be finite
        ],
    )
    def test_rejects_bad_parameters(self, name, params, d):
        with pytest.raises(ProfileError):
            make_catalog_profile(name, params, d)


# The hand-written catalog functions that the catalog expressions replaced;
# kept here as the reference they must reproduce.
def _radius(points):
    return np.sqrt(np.sum(np.square(np.asarray(points, dtype=float)), axis=-1))


def _reference(name, p):
    evaluate = {
        "gaussian_power": lambda x: np.exp(-_radius(x) ** p),
        "rational_power": lambda x: 1.0 / (1.0 + _radius(x) ** p),
    }[name]
    return evaluate, lambda x: _radius(x) ** p


class TestCatalogExpressions:
    """Every catalog profile is an expression of :mod:`specgap.expr`."""

    @pytest.mark.parametrize("name", ["gaussian_power", "rational_power"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_power_kinds_match_the_closures_bit_for_bit(self, name, d):
        rng = np.random.default_rng(100 + d)
        points = rng.standard_normal((500, d)) * rng.uniform(0.0, 6.0, (500, 1))
        points[0] = 0.0
        exponents = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, *rng.uniform(0.05, 8.0, 18)]
        for p in map(float, exponents):
            spec = make_catalog_profile(name, [p], d)
            evaluate, principal = _reference(name, p)
            assert np.array_equal(spec.evaluate(points), evaluate(points)), p
            assert np.array_equal(spec.principal(points), principal(points)), p
            assert (spec.max_value, spec.degree, spec.label) == (1.0, p, f"{name}({p:g})")

    @pytest.mark.parametrize("d", [2, 3])
    def test_aniso_gaussian_matches_the_quadratic_form(self, d):
        rng = np.random.default_rng(200 + d)
        for _ in range(20):
            m = rng.standard_normal((d, d))
            q = m @ m.T + 0.5 * np.eye(d)  # off-diagonals of both signs
            spec = make_catalog_profile("aniso_gaussian", q.ravel(), d)
            points = rng.standard_normal((500, d)) * 3.0
            form = np.einsum("...i,ij,...j->...", points, q, points)
            np.testing.assert_allclose(spec.principal(points), form, rtol=1e-15, atol=0)
            assert np.array_equal(spec.evaluate(points), np.exp(-spec.principal(points)))
            assert (spec.max_value, spec.degree, spec.label) == (1.0, 2.0, "aniso_gaussian")

    def test_every_kind_is_a_parsed_expression(self):
        for spec in (make_catalog_profile("gaussian_power", [0.1], 1),
                     make_catalog_profile("rational_power", [2], 3),
                     make_catalog_profile("aniso_gaussian", [2, -0.3, -0.3, 1], 2)):
            assert spec.evaluate.source and spec.principal.source
        spec = make_catalog_profile("aniso_gaussian", [2, -0.3, -0.3, 1], 2)
        assert spec.principal.source == "2.0*x1*x1 + -0.3*x1*x2 + -0.3*x2*x1 + 1.0*x2*x2"
        assert spec.evaluate.source == f"exp(-({spec.principal.source}))"

    @pytest.mark.parametrize(
        "name, params, d, message",
        [
            ("gaussian_power", [float("nan")], 1, "degree must be positive"),
            ("rational_power", [float("inf")], 2, "degree must be positive and finite"),
            ("gaussian_power", [0], 1, "gaussian_power needs a positive exponent, got 0.0"),
            ("rational_power", [-1], 1, "rational_power needs a positive exponent, got -1.0"),
            ("gaussian_power", [1, 2], 1,
             "gaussian_power takes exactly one parameter, got [1.0, 2.0]"),
            ("aniso_gaussian", [1, 0, 0], 2,
             "aniso_gaussian in dimension 2 needs 4 coefficients, got 3"),
            ("aniso_gaussian", [1, 2, 0, 1], 2,
             "aniso_gaussian coefficient matrix must be symmetric"),
            ("aniso_gaussian", [1, float("nan"), float("nan"), 1], 2,
             "aniso_gaussian coefficient matrix must be symmetric"),
            ("aniso_gaussian", [1, 0, 0, -1], 2,
             "aniso_gaussian coefficient matrix must be positive definite"),
            ("aniso_gaussian", [1, 0, 0, float("inf")], 2,
             "aniso_gaussian coefficient q22 = inf must be finite"),
            ("aniso_gaussian", [1, float("-inf"), float("-inf"), 1], 2,
             "aniso_gaussian coefficient q12 = -inf must be finite"),
            ("no_such_profile", [2], 1, "unknown catalog profile 'no_such_profile'"),
        ],
    )
    def test_error_texts(self, name, params, d, message):
        with pytest.raises(ProfileError) as exc_info:
            make_catalog_profile(name, params, d)
        assert str(exc_info.value) == message


class TestSigmaExponent:
    @pytest.mark.parametrize(
        "beta,gamma,expected",
        [(2, 2, 1.0), (2, 4, 4.0 / 3.0), (1, 1, 0.5)],
    )
    def test_values(self, beta, gamma, expected):
        assert sigma_exponent(beta, gamma) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("beta,gamma", [(0, 1), (1, 0), (-2, 3)])
    def test_rejects_nonpositive(self, beta, gamma):
        with pytest.raises(ProfileError):
            sigma_exponent(beta, gamma)

    @given(
        beta=st.floats(min_value=1e-3, max_value=1e3),
        gamma=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_below_both_degrees(self, beta, gamma):
        assert sigma_exponent(beta, gamma) < min(beta, gamma)


class TestHomogeneity:
    @pytest.mark.parametrize(
        "spec",
        [
            make_catalog_profile("gaussian_power", [2], 1),
            make_catalog_profile("gaussian_power", [1.5], 1),
            make_catalog_profile("rational_power", [3], 2),
            make_catalog_profile("aniso_gaussian", [2, 0.3, 0.3, 1], 2),
        ],
        ids=["gauss2", "gauss1.5", "rational3-d2", "aniso"],
    )
    def test_principal_scales_with_declared_degree(self, spec):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((16, spec.dimension))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        base = spec.principal(x)
        for t in (0.5, 2.0, 10.0):
            scaled = spec.principal(t * x)
            np.testing.assert_allclose(
                scaled, t**spec.degree * base, rtol=1e-12
            )


class TestValidation:
    def test_gaussian_passes_and_expansion_residual_matches_taylor(self):
        spec = make_catalog_profile("gaussian_power", [2], 1)
        report = validate_profile(spec)
        assert report.passed
        # expansion radii 0.1, 0.01, 0.001; independent oracle: the exact
        # remainder |1 - e^{-r^2} - r^2| / r^2
        r = 0.01
        expected = abs(-np.expm1(-(r**2)) - r**2) / r**2
        assert report.expansion_residuals[1] == pytest.approx(expected, rel=1e-9)
        assert report.expansion_residuals[1] == pytest.approx(5e-5, rel=1e-3)
        deltas = np.diff(report.expansion_residuals)
        assert np.all(deltas < 0)

    def test_shifted_maximum_fails_global_max_check(self):
        def evaluate(points):
            x = np.asarray(points, dtype=float)[..., 0]
            return np.exp(-((x - 1.0) ** 2))

        spec = ProfileSpec(
            dimension=1,
            role=ProfileRole.SYMBOL_A,
            evaluate=evaluate,
            max_value=1.0,
            principal=lambda p: np.asarray(p, dtype=float)[..., 0] ** 2,
            degree=2.0,
            label="shifted-gaussian",
        )
        report = validate_profile(spec)
        assert not report.passed
        assert any("maximum" in msg or "evaluate(0)" in msg for msg in report.failures)

    def test_rational_three_halves_passes(self):
        spec = make_catalog_profile("rational_power", [1.5], 1)
        report = validate_profile(spec)
        assert report.passed, report.failures

    def test_wrong_principal_fails_expansion(self):
        base = make_catalog_profile("gaussian_power", [4], 1)
        spec = ProfileSpec(
            dimension=1,
            role=ProfileRole.SYMBOL_A,
            evaluate=base.evaluate,
            max_value=1.0,
            principal=lambda p: np.asarray(p, dtype=float)[..., 0] ** 2,
            degree=2.0,
            label="quartic-with-quadratic-principal",
        )
        report = validate_profile(spec)
        assert not report.passed
        assert any("do not decrease toward 0" in msg for msg in report.failures)

    def test_nonfinite_samples_fail_report(self):
        def evaluate(points):
            x = np.asarray(points, dtype=float)[..., 0]
            out = np.exp(-(x**2))
            return np.where(np.abs(x) > 3.0, np.nan, out)

        spec = ProfileSpec(
            dimension=1,
            role=ProfileRole.SYMBOL_A,
            evaluate=evaluate,
            max_value=1.0,
            principal=lambda p: np.asarray(p, dtype=float)[..., 0] ** 2,
            degree=2.0,
        )
        report = validate_profile(spec)
        assert not report.passed
        assert any("non-finite" in msg for msg in report.failures)

    def test_weight_lower_bound_checked(self):
        # Dips to about -1.83 V0 in a narrow well at |x| = 1: the pair
        # rejects it, while the validator, which has no role branch, judges
        # it as it would a symbol.
        dipping = expression_profile(
            "exp(-x1^2) - 2.2*exp(-400*(abs(x1)-1)^2)", "x1^2", 2.0, 1,
            role=ProfileRole.WEIGHT_V,
        )
        symbol = make_catalog_profile("gaussian_power", [2], 1)
        with pytest.raises(ProfileError, match=r"sampled minimum -1\.83.* <= -V0 = -1"):
            make_pair(symbol, dipping)
        as_symbol = dataclasses.replace(dipping, role=ProfileRole.SYMBOL_A)
        assert validate_profile(dipping) == validate_profile(as_symbol)
        assert validate_profile(dipping).passed

    def test_every_catalog_profile_passes_default_plan(self):
        specs = [
            make_catalog_profile("gaussian_power", [2], 1),
            make_catalog_profile("gaussian_power", [4], 1),
            make_catalog_profile("rational_power", [2], 1),
            make_catalog_profile("rational_power", [1.5], 2),
            make_catalog_profile("aniso_gaussian", [2, 0, 0, 1], 2),
            make_catalog_profile("gaussian_power", [2], 1, role=ProfileRole.WEIGHT_V),
            make_catalog_profile("rational_power", [2], 1, role=ProfileRole.WEIGHT_V),
            # d > 1, where positivity is also checked on the coordinate axes.
            make_catalog_profile("gaussian_power", [4], 2),
            make_catalog_profile("gaussian_power", [2], 3),
            make_catalog_profile("rational_power", [2], 3),
            make_catalog_profile("gaussian_power", [2], 2, role=ProfileRole.WEIGHT_V),
            make_catalog_profile("rational_power", [2], 3, role=ProfileRole.WEIGHT_V),
        ]
        for spec in specs:
            assert validate_profile(spec).passed, spec.label

    def test_nan_homogeneity_residual_fails(self):
        base = make_catalog_profile("gaussian_power", [2], 2)

        def principal(points):
            r2 = np.sum(np.square(points), axis=-1)
            return np.where(r2 < 25.0, r2, np.nan)  # undefined beyond |x| = 5

        spec = ProfileSpec(2, ProfileRole.SYMBOL_A, base.evaluate, 1.0, principal, 2.0)
        report = validate_profile(spec)
        assert np.isnan(report.homogeneity_residual_max)
        assert "homogeneity residual nan exceeds 1e-12" in report.failures
        # 0.5**2000 underflows to 0, so the residual at t = 0.5 is 0/0
        steep = ProfileSpec(
            2, ProfileRole.SYMBOL_A, base.evaluate, 1.0,
            lambda p: np.sum(np.square(p), axis=-1) ** 1000, 2000.0,
        )
        report = validate_profile(steep)
        assert np.isnan(report.homogeneity_residual_max) and not report.passed

    def test_every_point_is_sampled_once(self):
        base = make_catalog_profile("gaussian_power", [2], 2)
        seen = {"evaluate": 0, "principal": 0}

        def counted(name, fn):
            def wrapped(points):
                seen[name] += np.asarray(points).size // 2
                return fn(points)
            return wrapped

        spec = dataclasses.replace(
            base,
            evaluate=counted("evaluate", base.evaluate),
            principal=counted("principal", base.principal),
        )
        assert validate_profile(spec) == validate_profile(base)
        # 32 directions: evaluate sees 4 bulk and 3 near radii plus the
        # origin; principal the unit sphere, 4 axis points, 3 homogeneity
        # factors and the 7 radii again.
        assert seen == {"evaluate": 7 * 32 + 1, "principal": 32 + 4 + 3 * 32 + 7 * 32}

    def test_wrong_declared_degree_fails_homogeneity(self):
        spec = expression_profile("exp(-x1^2)", "x1^2", 3.0, 1)
        report = validate_profile(spec)
        assert not report.passed
        assert any("homogeneity residual" in msg for msg in report.failures)


class TestPair:
    def test_sigma_relation_exact(self):
        a = make_catalog_profile("gaussian_power", [4], 1)
        v = make_catalog_profile("gaussian_power", [2], 1, role=ProfileRole.WEIGHT_V)
        pair = make_pair(a, v)
        assert pair.sigma == sigma_exponent(2, 4)
        assert 1 / pair.sigma == pytest.approx(1 / 2 + 1 / 4, rel=1e-15)

    def test_dimension_mismatch_rejected(self):
        a = make_catalog_profile("gaussian_power", [2], 1)
        v = make_catalog_profile("gaussian_power", [2], 2, role=ProfileRole.WEIGHT_V)
        with pytest.raises(ProfileError):
            make_pair(a, v)

    def test_roles_enforced(self):
        a = make_catalog_profile("gaussian_power", [2], 1)
        v = make_catalog_profile("gaussian_power", [2], 1, role=ProfileRole.WEIGHT_V)
        with pytest.raises(ProfileError):
            make_pair(v, v)
        with pytest.raises(ProfileError):
            make_pair(a, a)

    @pytest.mark.parametrize(
        "field, value, match",
        [("dimension", 0, "dimension"), ("max_value", 0.0, "max_value"),
         ("degree", -1.0, "degree"), ("degree", np.inf, "degree must be positive and finite")],
    )
    def test_spec_rejects_a_nonpositive_field(self, field, value, match):
        fields = dict(
            dimension=1,
            role=ProfileRole.SYMBOL_A,
            evaluate=lambda p: np.ones(np.asarray(p).shape[:-1]),
            max_value=1.0,
            principal=lambda p: np.asarray(p, dtype=float)[..., 0] ** 2,
            degree=2.0,
        )
        with pytest.raises(ProfileError, match=match):
            ProfileSpec(**{**fields, field: value})


class TestExpressionProfiles:
    def test_expression_gaussian_matches_catalog(self):
        spec = expression_profile("exp(-norm(x)^2)", "norm(x)^2", 2.0, 2)
        catalog = make_catalog_profile("gaussian_power", [2], 2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((50, 2))
        np.testing.assert_allclose(spec.evaluate(x), catalog.evaluate(x), rtol=1e-14)
        np.testing.assert_allclose(spec.principal(x), catalog.principal(x), rtol=1e-14)
        assert validate_profile(spec).passed

    @pytest.mark.parametrize("expr", ["x1", "-exp(-x1^2)"])
    def test_nonpositive_origin_value_rejected(self, expr):
        with pytest.raises(ProfileError, match="at the origin"):
            expression_profile(expr, "x1^2", 2.0, 1)

    def test_flat_profile_rejected_by_positivity_check(self):
        # a constant symbol has no decay and a vanishing principal part
        spec = expression_profile("1 + 0*x1", "0*x1", 2.0, 1)
        report = validate_profile(spec)
        assert not report.passed
        assert "principal part is not positive on the sphere sample" in report.failures

    def test_principal_part_ignoring_a_coordinate_fails_positivity(self):
        # x1^2 is positive on every random direction but 0 on the x2 axis.
        spec = expression_profile("exp(-x1^2)", "x1^2", 2.0, 2)
        report = validate_profile(spec)
        assert not report.passed
        assert "principal part is not positive on the sphere sample" in report.failures

    def test_sign_changing_weight_via_expression(self):
        # dips to about -0.45 near |x| = sqrt(3), above -V0 = -1: the pair
        # takes it
        spec = expression_profile(
            "(1 - x1^2) * exp(-x1^2 / 2)",
            "3 * x1^2 / 2",
            2.0,
            1,
            role=ProfileRole.WEIGHT_V,
        )
        assert spec.max_value == 1.0
        assert make_pair(make_catalog_profile("gaussian_power", [2], 1), spec).v_profile is spec
        report = validate_profile(spec)
        assert report.passed, report.failures
