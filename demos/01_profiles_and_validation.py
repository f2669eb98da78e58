"""Profiles and their validation.

A profile is a decaying function on R^d with a single global maximum at
the origin and a principal homogeneous expansion there.  This script
builds a few catalog profiles plus one custom expression profile, runs
the validator on each, and shows what a deliberately broken profile
looks like in the report.  A weight must also stay above -V0, its
maximum negated; the symbol/weight pair checks that when it is built.
"""

import numpy as np

from specgap import (
    ProfileError,
    ProfileRole,
    expression_profile,
    make_catalog_profile,
    make_pair,
    sigma_exponent,
    validate_profile,
)

print("=" * 70)
print("catalog profiles")
print("=" * 70)

profiles = [
    make_catalog_profile("gaussian_power", [2], 1),
    make_catalog_profile("gaussian_power", [4], 1),
    make_catalog_profile("rational_power", [2], 1),
    make_catalog_profile("aniso_gaussian", [2, 0.5, 0.5, 1], 2),
]

for spec in profiles:
    report = validate_profile(spec)
    print(f"\n{spec.label} (d={spec.dimension}, degree {spec.degree:g})")
    print(f"  passed: {report.passed}")
    print("  expansion residual ladder:",
          ", ".join(f"{r:.3e}" for r in report.expansion_residuals))
    print(f"  homogeneity residual: {report.homogeneity_residual_max:.2e}")
    print(f"  empirical domination constant: {report.domination_constant:.4f}")

print()
print("=" * 70)
print("custom expression profile (the grammar: x1..xd, + - * / ^, exp, abs, norm)")
print("=" * 70)

custom = expression_profile(
    "(1 - x1^2) * exp(-x1^2 / 2)",
    "3 * x1^2 / 2",
    degree=2.0,
    d=1,
    role=ProfileRole.WEIGHT_V,
)
report = validate_profile(custom)
x = np.linspace(-10.0, 10.0, 4001)[:, None]
print(f"\n{custom.label}")
print(f"  sign-changing weight, sampled minimum {custom.evaluate(x).min():.4f} "
      f"against -V0 = {-custom.max_value:g}")
print(f"  passed: {report.passed}")
gauss_symbol = make_catalog_profile("gaussian_power", [2], 1)
make_pair(gauss_symbol, custom)
print("  the pair accepts it as a weight")

deep = expression_profile(
    "exp(-x1^2) - 2.2*exp(-400*(abs(x1)-1)^2)", "x1^2", degree=2.0, d=1,
    role=ProfileRole.WEIGHT_V,
)
print(f"\n{deep.label}")
print(f"  sampled minimum {deep.evaluate(x).min():.4f} against -V0 = {-deep.max_value:g}")
try:
    make_pair(gauss_symbol, deep)
except ProfileError as exc:
    print(f"  the pair rejects it: {exc}")

print()
print("=" * 70)
print("a broken profile: maximum sits at x = 1, not at the origin")
print("=" * 70)

broken = expression_profile("exp(-(x1 - 1)^2)", "x1^2", degree=2.0, d=1)
report = validate_profile(broken)
print(f"\n{broken.label}")
print(f"  passed: {report.passed}")
for failure in report.failures:
    print(f"  failure: {failure}")

print()
print("=" * 70)
print("the coupling exponent")
print("=" * 70)
for beta, gamma in [(2, 2), (2, 4), (1, 1)]:
    print(f"  degrees (beta={beta}, gamma={gamma}) -> sigma = {sigma_exponent(beta, gamma):.6g}")

# the validator probes the expansion at |x| = 0.1, 0.01, 0.001
gauss = make_catalog_profile("gaussian_power", [2], 1)
report = validate_profile(gauss)
print("\ngaussian remainder ladder on the validator's radius schedule:")
for r, res in zip((1e-1, 1e-2, 1e-3), report.expansion_residuals):
    print(f"  |x| = {r:<6g} normalized remainder = {res:.3e}")
print("\n(the remainder shrinks like |x|^2: the quadratic principal part is correct)")
