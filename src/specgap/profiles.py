"""Decaying symbol/weight profiles and their validation.

A profile is a real function on R^d that attains its positive global
maximum only at the origin and admits a principal homogeneous expansion
there:  f(x) = max - principal(x) + o(|x|^degree).  Two such profiles
(one acting as a Fourier-multiplier symbol, one as a position weight)
form a :class:`ProfilePair`; the coupling exponent sigma combines their
degrees harmonically, 1/sigma = 1/degree_weight + 1/degree_symbol.

Every profile is evaluated by the checked steps of :mod:`specgap.expr`.
The catalog is a set of named expressions in that grammar:
:func:`make_catalog_profile` writes one from its parameters and builds
it with :func:`expression_profile`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .expr import ExpressionError, parse_expression

__all__ = [
    "ProfileRole",
    "ProfileSpec",
    "ProfilePair",
    "ProfileError",
    "ValidationReport",
    "sigma_exponent",
    "make_catalog_profile",
    "expression_profile",
    "make_pair",
    "validate_profile",
    "CATALOG_NAMES",
]

PointFn = Callable[[np.ndarray], np.ndarray]


class ProfileError(ValueError):
    """Invalid profile construction or parameters."""


class ProfileRole(enum.Enum):
    SYMBOL_A = "symbol"
    WEIGHT_V = "weight"


@dataclass(frozen=True)
class ProfileSpec:
    """A decaying function with its maximum and principal expansion.

    ``evaluate`` and ``principal`` are vectorized over points of shape
    ``(..., d)`` (trailing coordinate axis) and return shape ``(...)``.
    ``principal`` is positively homogeneous of order ``degree`` and
    positive away from the origin.  The degree must satisfy
    0 < degree < inf, else :class:`ProfileError`.  A weight's lower
    bound is a property of the pair it joins; :class:`ProfilePair`
    checks it.
    """

    dimension: int
    role: ProfileRole
    evaluate: PointFn
    max_value: float
    principal: PointFn
    degree: float
    label: str = ""

    def __post_init__(self):
        if self.dimension < 1:
            raise ProfileError("dimension must be a positive integer")
        if not (self.max_value > 0):
            raise ProfileError("max_value must be positive")
        _check_degree(self.degree)


def _check_degree(degree: float) -> None:
    """The rule of :class:`ProfileSpec`: 0 < degree < inf."""
    if not (degree > 0):
        raise ProfileError("degree must be positive")
    if degree == np.inf:
        raise ProfileError("degree must be positive and finite")


@dataclass(frozen=True)
class ProfilePair:
    """Symbol profile + weight profile; ``sigma`` follows from their degrees.

    The theorem needs |V| to reach its maximum V0 only at the origin, so
    a real weight must also stay above -V0.  The pair samples the
    weight once, on 40 radii from 1e-2 to 1e3 along 16 seeded directions
    and on :func:`validate_profile`'s 7 radii along its 32 (94 points in
    1-D, 864 in d >= 2), and raises :class:`ProfileError` when the
    smallest sample is <= -V0.
    """

    a_profile: ProfileSpec
    v_profile: ProfileSpec

    def __post_init__(self):
        if self.a_profile.dimension != self.v_profile.dimension:
            raise ProfileError("profiles must share the same dimension")
        v = self.v_profile
        with np.errstate(all="ignore"):
            values = np.asarray(v.evaluate(_weight_probe_points(v.dimension)), dtype=float)
        low = float(np.min(values, initial=np.inf, where=~np.isnan(values)))
        if low <= -v.max_value:
            raise ProfileError(
                f"sampled minimum {low:.6g} <= -V0 = {-v.max_value:.6g}; "
                "the weight must stay above -V0"
            )

    @property
    def dimension(self) -> int:
        return self.a_profile.dimension

    @property
    def sigma(self) -> float:
        return sigma_exponent(self.v_profile.degree, self.a_profile.degree)

    @property
    def peak_product(self) -> float:
        """Top of the spectrum of the sandwiched operator: A0 * V0^2."""
        return self.a_profile.max_value * self.v_profile.max_value**2


def sigma_exponent(beta: float, gamma: float) -> float:
    """Harmonic combination of the two degrees: 1/sigma = 1/beta + 1/gamma."""
    if beta <= 0 or gamma <= 0:
        raise ProfileError("degrees must be positive")
    return beta * gamma / (beta + gamma)


def make_pair(a_profile: ProfileSpec, v_profile: ProfileSpec) -> ProfilePair:
    """Bundle a symbol and a weight profile, checking their roles."""
    if a_profile.role is not ProfileRole.SYMBOL_A:
        raise ProfileError("a_profile must have role SYMBOL_A")
    if v_profile.role is not ProfileRole.WEIGHT_V:
        raise ProfileError("v_profile must have role WEIGHT_V")
    return ProfilePair(a_profile=a_profile, v_profile=v_profile)


CATALOG_NAMES = ("gaussian_power", "rational_power", "aniso_gaussian")


def make_catalog_profile(
    name: str,
    params: Sequence[float],
    d: int,
    role: ProfileRole = ProfileRole.SYMBOL_A,
) -> ProfileSpec:
    """A catalog profile: a named expression in the :mod:`specgap.expr`
    grammar, built by :func:`expression_profile` and labelled by name.

    gaussian_power(p): exp(-norm(x)^p), principal norm(x)^p, degree p.
    rational_power(p): 1 / (1 + norm(x)^p), principal norm(x)^p, degree p.
    aniso_gaussian(Q): exp(-(q11*x1*x1 + q12*x1*x2 + ...)) for a symmetric
    positive-definite Q (given as a row-major list of d*d entries), whose
    principal is that quadratic form, degree 2.
    Every number is written as ``repr(float(...))``, which parses back to
    the same float64.  All three peak at 1 and are positive, so every one
    serves as a weight.
    """
    params = [float(p) for p in params]
    if name in ("gaussian_power", "rational_power"):
        if len(params) != 1:
            raise ProfileError(f"{name} takes exactly one parameter, got {params!r}")
        p = params[0]
        if p <= 0:
            raise ProfileError(f"{name} needs a positive exponent, got {p}")
        # nan and inf have no literal in the grammar, so the degree rule runs first.
        _check_degree(p)
        principal = f"norm(x)^{p!r}"
        expr = f"exp(-{principal})" if name == "gaussian_power" else f"1 / (1 + {principal})"
        degree, label = p, f"{name}({p:g})"
    elif name == "aniso_gaussian":
        if len(params) != d * d:
            raise ProfileError(
                f"aniso_gaussian in dimension {d} needs {d * d} coefficients, got {len(params)}"
            )
        q = np.asarray(params, dtype=float).reshape(d, d)
        if not np.allclose(q, q.T, rtol=0.0, atol=1e-12):
            raise ProfileError("aniso_gaussian coefficient matrix must be symmetric")
        # A NaN entry already fails the symmetry check; an infinite one
        # passes it and would reach the eigenvalues and the expression.
        for (i, j), qij in np.ndenumerate(q):
            if not np.isfinite(qij):
                raise ProfileError(f"aniso_gaussian coefficient q{i + 1}{j + 1} = {qij} "
                                   "must be finite")
        if np.linalg.eigvalsh(q)[0] <= 0:
            raise ProfileError("aniso_gaussian coefficient matrix must be positive definite")
        principal = " + ".join(
            f"{float(qij)!r}*x{i + 1}*x{j + 1}" for (i, j), qij in np.ndenumerate(q)
        )
        expr = f"exp(-({principal}))"
        degree, label = 2.0, "aniso_gaussian"
    else:
        raise ProfileError(f"unknown catalog profile {name!r}")
    return replace(expression_profile(expr, principal, degree, d, role=role), label=label)


def expression_profile(
    expr: str,
    principal_expr: str,
    degree: float,
    d: int,
    role: ProfileRole = ProfileRole.SYMBOL_A,
) -> ProfileSpec:
    """Build a profile from expression strings (see :mod:`specgap.expr`).

    ``max_value`` is the value at the origin.  Whether a weight stays
    above -max_value is checked by the :class:`ProfilePair` it joins.
    An expression outside the grammar raises :class:`ExpressionError`
    with ``expr:`` or ``principal:`` in front of the message.
    """
    parsed = []
    for name, src in (("expr", expr), ("principal", principal_expr)):
        try:
            parsed.append(parse_expression(src, d))
        except ExpressionError as exc:
            raise ExpressionError(f"{name}: {exc}") from exc
    evaluate, principal = parsed
    origin = np.zeros((d,))
    max_value = float(evaluate(origin))
    if not np.isfinite(max_value) or max_value <= 0:
        raise ProfileError(f"expression value at the origin must be positive, got {max_value}")
    return ProfileSpec(
        dimension=d,
        role=role,
        evaluate=evaluate,
        max_value=max_value,
        principal=principal,
        degree=float(degree),
        label=expr,
    )


def _sphere_directions(d: int, count: int, seed: int) -> np.ndarray:
    """Deterministic quasi-uniform unit directions, shape (count, d)."""
    if d == 1:
        return np.array([[1.0], [-1.0]])
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count, d))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


# The fixed probe of validate_profile: 32 seeded directions at the bulk
# radii and at the expansion radii, which decrease toward 0.
_BULK_RADII = (8.0, 4.0, 2.0, 1.0)
_EXPANSION_RADII = (1e-1, 1e-2, 1e-3)


def _shells(radii, dirs: np.ndarray) -> np.ndarray:
    return np.concatenate([r * dirs for r in radii], axis=0)


def _weight_probe_points(d: int) -> np.ndarray:
    """The points on which :class:`ProfilePair` samples its weight."""
    return np.concatenate([
        _shells(np.geomspace(1e-2, 1e3, 40), _sphere_directions(d, 16, seed=11)),
        _shells(_BULK_RADII + _EXPANSION_RADII, _sphere_directions(d, 32, seed=7)),
    ])


@dataclass(frozen=True)
class ValidationReport:
    """One line per failed check plus the raw residuals behind the verdict."""

    label: str
    expansion_residuals: tuple[float, ...]
    homogeneity_residual_max: float
    domination_constant: float
    failures: tuple[str, ...] = ()
    notes: tuple[str, ...] = (
        "smoothness of the principal part away from 0 is assumed, not machine-checked",
    )

    @property
    def passed(self) -> bool:
        return not self.failures


_HOMOGENEITY_RTOL = 1e-12


def validate_profile(spec: ProfileSpec) -> ValidationReport:
    """Probe a profile against its declared metadata on the fixed probe:
    32 seeded directions at radii 8, 4, 2, 1 and 1e-1, 1e-2, 1e-3, with
    homogeneity factors 0.5, 2 and 10.

    Checks, in order: all sampled values finite; global maximum attained
    at the origin and nowhere else among the samples; principal part
    positively homogeneous of the declared degree and positive on the
    sphere (random directions and the coordinate axes); and normalized
    expansion residuals ``|max - evaluate - principal| / r^degree``
    nonincreasing along the (decreasing) expansion radii.  Every failed
    check adds one line to ``failures``.  The asymptotic smallness of the
    expansion remainder cannot be decided from finitely many samples;
    monotone decrease along the radius ladder is what "pass" means here.
    A weight's lower bound belongs to its pair, see :class:`ProfilePair`.
    """
    failures: list[str] = []
    # As a float64, t**degree and r**degree overflow to inf or underflow to
    # 0, and the check they feed fails, where Python floats would raise.
    degree = np.float64(spec.degree)
    dirs = _sphere_directions(spec.dimension, 32, seed=7)

    bulk_points = _shells(_BULK_RADII, dirs)
    near_points = _shells(_EXPANSION_RADII, dirs)
    points = np.concatenate([bulk_points, near_points], axis=0)
    with np.errstate(all="ignore"):
        bulk_values = np.asarray(spec.evaluate(bulk_points), dtype=float)
        near_values = np.asarray(spec.evaluate(near_points), dtype=float)
        origin_value = float(spec.evaluate(np.zeros((spec.dimension,))))
    values = np.concatenate([bulk_values, near_values])

    finite_ok = bool(np.all(np.isfinite(values)) and np.isfinite(origin_value))
    if not finite_ok:
        bad = points[~np.isfinite(values)][:3]
        failures.append(f"non-finite evaluation at sample points {bad.tolist()}")

    # (i) global maximum: attained at the origin, strictly below at the bulk
    # radii, and nowhere above it (near-zero samples may tie in float).
    if finite_ok:
        if not math.isclose(origin_value, spec.max_value, rel_tol=1e-12, abs_tol=0.0):
            failures.append(
                f"evaluate(0) = {origin_value!r} does not equal max_value = {spec.max_value!r}"
            )
        if np.any(bulk_values >= spec.max_value):
            worst = bulk_points[int(np.argmax(bulk_values))]
            failures.append(
                f"maximum not attained only near 0: evaluate({worst.tolist()}) = "
                f"{float(bulk_values.max())!r} >= max_value"
            )
        if np.any(near_values > spec.max_value):
            failures.append("evaluate exceeds max_value at a near-zero sample")

    # (ii) homogeneity and positivity of the principal part on a sphere sample;
    # positivity also on the coordinate axes, where a principal part that
    # ignores a coordinate vanishes but random directions never land.
    axes = np.concatenate([np.eye(spec.dimension), -np.eye(spec.dimension)])
    with np.errstate(all="ignore"):
        base = np.asarray(spec.principal(dirs), dtype=float)
        on_axes = np.asarray(spec.principal(axes), dtype=float)
    positive = np.concatenate([base, on_axes])
    positivity_ok = bool(np.all(np.isfinite(positive)) and np.all(positive > 0))
    if not positivity_ok:
        failures.append("principal part is not positive on the sphere sample")
    hom_max = np.inf
    if positivity_ok:
        hom_residuals = []
        for t in (0.5, 2.0, 10.0):
            with np.errstate(all="ignore"):
                scaled = np.asarray(spec.principal(t * dirs), dtype=float)
                expected = t**degree * base  # 0 if t**degree underflows
                hom_residuals.append(np.max(np.abs(scaled - expected) / expected))
        # np.max keeps a NaN residual, which then fails the comparison.
        hom_max = float(np.max(hom_residuals))
        if not hom_max <= _HOMOGENEITY_RTOL:
            failures.append(
                f"homogeneity residual {hom_max:.3e} exceeds {_HOMOGENEITY_RTOL:.0e}"
            )

    # (iii) expansion residuals along the shrinking radius ladder.  The
    # subtraction max - evaluate cancels to eps*max_value, so dividing by
    # r^degree sets a noise floor below which a residual counts as zero.
    # The ladder reuses the near samples of evaluate, and shares one sample
    # of principal at all the points with the domination constant.
    residuals: list[float] = []
    domination = np.nan
    if finite_ok and positivity_ok:
        floors: list[float] = []
        rows = (len(_EXPANSION_RADII), len(dirs))
        with np.errstate(all="ignore"):
            princ = np.asarray(spec.principal(points), dtype=float)
            near_principal = princ[len(bulk_points):].reshape(rows)
            for r, ev, pr in zip(_EXPANSION_RADII, near_values.reshape(rows), near_principal):
                scale = r**degree
                residuals.append(float(np.max(np.abs(spec.max_value - ev - pr)) / scale))
                floors.append(16.0 * np.finfo(float).eps * spec.max_value / scale)
        if not all(
            nxt <= prv * (1.0 + 1e-9) + 1e-14 or nxt <= floor
            for prv, nxt, floor in zip(residuals, residuals[1:], floors[1:])
        ):
            failures.append(
                f"expansion residuals {residuals} do not decrease toward 0"
            )
        # Empirical domination constant: sup (max - evaluate) / principal over samples.
        ok = np.isfinite(princ) & (princ > 0)
        if np.any(ok):
            domination = float(np.max((spec.max_value - values[ok]) / princ[ok]))

    return ValidationReport(
        label=spec.label or "profile",
        expansion_residuals=tuple(residuals),
        homogeneity_residual_max=hom_max,
        domination_constant=domination,
        failures=tuple(failures),
    )
