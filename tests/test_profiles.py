import numpy as np
import pytest
from hypothesis import given, strategies as st

from specgap import (
    ProfileError,
    ProfileRole,
    ProfileSpec,
    SamplePlan,
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

    def test_weight_role_gets_margin(self):
        spec = make_catalog_profile(
            "gaussian_power", [2], 1, role=ProfileRole.WEIGHT_V
        )
        assert spec.role is ProfileRole.WEIGHT_V
        assert spec.lower_bound_margin == 1.0

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
        ],
    )
    def test_rejects_bad_parameters(self, name, params, d):
        with pytest.raises(ProfileError):
            make_catalog_profile(name, params, d)


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
        plan = SamplePlan(radii=(4.0, 2.0, 1.0), expansion_radii=(0.1, 0.01, 0.001))
        report = validate_profile(spec, plan)
        assert report.passed
        # independent oracle: the exact remainder |1 - e^{-r^2} - r^2| / r^2
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
        assert not report.global_max_ok
        assert not report.passed
        assert any("maximum" in msg or "evaluate(0)" in msg for msg in report.failures)

    def test_rational_three_halves_passes(self):
        spec = make_catalog_profile("rational_power", [1.5], 1)
        report = validate_profile(spec)
        assert report.homogeneity_ok
        assert report.expansion_ok
        assert report.passed

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
        assert not report.expansion_ok

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
        assert not report.finite_ok
        assert not report.passed
        assert any("non-finite" in msg for msg in report.failures)

    def test_weight_lower_bound_checked(self):
        spec = make_catalog_profile("gaussian_power", [2], 1, role=ProfileRole.WEIGHT_V)
        report = validate_profile(spec)
        assert report.lower_bound_ok
        # symbols carry no lower-bound check
        sym = make_catalog_profile("gaussian_power", [2], 1)
        assert validate_profile(sym).lower_bound_ok is None

    def test_every_catalog_profile_passes_default_plan(self):
        specs = [
            make_catalog_profile("gaussian_power", [2], 1),
            make_catalog_profile("gaussian_power", [4], 1),
            make_catalog_profile("rational_power", [2], 1),
            make_catalog_profile("rational_power", [1.5], 2),
            make_catalog_profile("aniso_gaussian", [2, 0, 0, 1], 2),
            make_catalog_profile("gaussian_power", [2], 1, role=ProfileRole.WEIGHT_V),
            make_catalog_profile("rational_power", [2], 1, role=ProfileRole.WEIGHT_V),
        ]
        for spec in specs:
            assert validate_profile(spec).passed, spec.label

    def test_plan_rejects_increasing_expansion_radii(self):
        with pytest.raises(ProfileError):
            SamplePlan(expansion_radii=(0.001, 0.01))

    @pytest.mark.parametrize(
        "plan, match",
        [({"radii": ()}, "must contain"), ({"radii": (1.0, -2.0)}, "positive")],
    )
    def test_plan_rejects_empty_or_nonpositive_radii(self, plan, match):
        with pytest.raises(ProfileError, match=match):
            SamplePlan(**plan)

    def test_wrong_declared_degree_fails_homogeneity(self):
        spec = expression_profile("exp(-x1^2)", "x1^2", 3.0, 1)
        report = validate_profile(spec)
        assert not report.homogeneity_ok
        assert any("homogeneity residual" in msg for msg in report.failures)

    def test_weight_margin_above_the_dip_fails_lower_bound(self):
        # dips to about -0.45; a declared margin of 0.9 allows only -0.1
        spec = expression_profile(
            "(1 - x1^2) * exp(-x1^2 / 2)", "3 * x1^2 / 2", 2.0, 1,
            role=ProfileRole.WEIGHT_V, lower_bound_margin=0.9,
        )
        assert spec.lower_bound_margin == 0.9
        report = validate_profile(spec)
        assert report.lower_bound_ok is False
        assert any("drops below" in msg for msg in report.failures)


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
         ("degree", -1.0, "degree")],
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

    def test_weight_requires_positive_margin(self):
        with pytest.raises(ProfileError):
            ProfileSpec(
                dimension=1,
                role=ProfileRole.WEIGHT_V,
                evaluate=lambda p: np.ones(np.asarray(p).shape[:-1]),
                max_value=1.0,
                principal=lambda p: np.asarray(p, dtype=float)[..., 0] ** 2,
                degree=2.0,
                lower_bound_margin=0.0,
            )


class TestExpressionProfiles:
    def test_expression_gaussian_matches_catalog(self):
        spec = expression_profile("exp(-norm(x)^2)", "norm(x)^2", 2.0, 2)
        catalog = make_catalog_profile("gaussian_power", [2], 2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((50, 2))
        np.testing.assert_allclose(spec.evaluate(x), catalog.evaluate(x), rtol=1e-14)
        np.testing.assert_allclose(spec.principal(x), catalog.principal(x), rtol=1e-14)
        assert validate_profile(spec).passed

    def test_expression_weight_margin_estimated(self):
        spec = expression_profile(
            "1/(1+x1^2)", "x1^2", 2.0, 1, role=ProfileRole.WEIGHT_V
        )
        assert spec.lower_bound_margin == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("expr", ["x1", "-exp(-x1^2)"])
    def test_nonpositive_origin_value_rejected(self, expr):
        with pytest.raises(ProfileError, match="at the origin"):
            expression_profile(expr, "x1^2", 2.0, 1)

    def test_flat_profile_rejected_by_positivity_check(self):
        # a constant symbol has no decay and a vanishing principal part
        spec = expression_profile("1 + 0*x1", "0*x1", 2.0, 1)
        report = validate_profile(spec)
        assert not report.positivity_ok
        assert not report.passed

    def test_sign_changing_weight_via_expression(self):
        # dips to about -0.45 near |x| = sqrt(3); margin stays positive
        spec = expression_profile(
            "(1 - x1^2) * exp(-x1^2 / 2)",
            "3 * x1^2 / 2",
            2.0,
            1,
            role=ProfileRole.WEIGHT_V,
        )
        assert spec.max_value == 1.0
        assert 0 < spec.lower_bound_margin < 1.0
        report = validate_profile(spec)
        assert report.passed, report.failures
