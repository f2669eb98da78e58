"""Decaying symbol/weight profiles and their validation.

A profile is a real function on R^d that attains its positive global
maximum only at the origin and admits a principal homogeneous expansion
there:  f(x) = max - principal(x) + o(|x|^degree).  Two such profiles
(one acting as a Fourier-multiplier symbol, one as a position weight)
form a :class:`ProfilePair`; the coupling exponent sigma combines their
degrees harmonically, 1/sigma = 1/degree_weight + 1/degree_symbol.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
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
    positive away from the origin.  ``lower_bound_margin`` is the
    positive constant c in ``evaluate >= -max_value + c`` and is only
    meaningful for weight profiles: exact for catalog profiles, measured
    by :func:`expression_profile` for expressions.
    """

    dimension: int
    role: ProfileRole
    evaluate: PointFn
    max_value: float
    principal: PointFn
    degree: float
    lower_bound_margin: float = 0.0
    label: str = ""

    def __post_init__(self):
        if self.dimension < 1:
            raise ProfileError("dimension must be a positive integer")
        if not (self.max_value > 0):
            raise ProfileError("max_value must be positive")
        if not (self.degree > 0):
            raise ProfileError("degree must be positive")
        if self.role is ProfileRole.WEIGHT_V and not (self.lower_bound_margin > 0):
            raise ProfileError("weight profiles need a positive lower_bound_margin")


@dataclass(frozen=True)
class ProfilePair:
    """Symbol profile + weight profile; ``sigma`` follows from their degrees."""

    a_profile: ProfileSpec
    v_profile: ProfileSpec

    def __post_init__(self):
        if self.a_profile.dimension != self.v_profile.dimension:
            raise ProfileError("profiles must share the same dimension")

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


def _radius(points: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.square(np.asarray(points, dtype=float)), axis=-1))


def _gaussian_power(p: float):
    def evaluate(points):
        return np.exp(-_radius(points) ** p)

    def principal(points):
        return _radius(points) ** p

    return evaluate, principal


def _rational_power(p: float):
    def evaluate(points):
        return 1.0 / (1.0 + _radius(points) ** p)

    def principal(points):
        return _radius(points) ** p

    return evaluate, principal


def _aniso_gaussian(q: np.ndarray):
    def quad_form(points):
        pts = np.asarray(points, dtype=float)
        return np.einsum("...i,ij,...j->...", pts, q, pts)

    def evaluate(points):
        return np.exp(-quad_form(points))

    return evaluate, quad_form


CATALOG_NAMES = ("gaussian_power", "rational_power", "aniso_gaussian")


def make_catalog_profile(
    name: str,
    params: Sequence[float],
    d: int,
    role: ProfileRole = ProfileRole.SYMBOL_A,
) -> ProfileSpec:
    """Instantiate a catalog profile with exact analytic metadata.

    gaussian_power(p): exp(-|x|^p), max 1, principal |x|^p, degree p.
    rational_power(p): 1/(1+|x|^p), max 1, principal |x|^p, degree p.
    aniso_gaussian(Q): exp(-<x,Qx>) for symmetric positive-definite Q
    (given as a row-major list of d*d entries), principal <x,Qx>, degree 2.

    Catalog profiles are nonnegative, so weight-role instances get the
    analytic lower-bound margin c = max_value (evaluate >= 0 = -max + c).
    """
    params = [float(p) for p in params]
    if name in ("gaussian_power", "rational_power"):
        if len(params) != 1:
            raise ProfileError(f"{name} takes exactly one parameter, got {params!r}")
        p = params[0]
        if p <= 0:
            raise ProfileError(f"{name} needs a positive exponent, got {p}")
        evaluate, principal = (
            _gaussian_power(p) if name == "gaussian_power" else _rational_power(p)
        )
        degree = p
        label = f"{name}({p:g})"
    elif name == "aniso_gaussian":
        if len(params) != d * d:
            raise ProfileError(
                f"aniso_gaussian in dimension {d} needs {d * d} coefficients, got {len(params)}"
            )
        q = np.asarray(params, dtype=float).reshape(d, d)
        if not np.allclose(q, q.T, rtol=0.0, atol=1e-12):
            raise ProfileError("aniso_gaussian coefficient matrix must be symmetric")
        if np.linalg.eigvalsh(q)[0] <= 0:
            raise ProfileError("aniso_gaussian coefficient matrix must be positive definite")
        evaluate, principal = _aniso_gaussian(q)
        degree = 2.0
        label = "aniso_gaussian"
    else:
        raise ProfileError(f"unknown catalog profile {name!r}")
    margin = 1.0 if role is ProfileRole.WEIGHT_V else 0.0
    return ProfileSpec(
        dimension=d,
        role=role,
        evaluate=evaluate,
        max_value=1.0,
        principal=principal,
        degree=degree,
        lower_bound_margin=margin,
        label=label,
    )


def expression_profile(
    expr: str,
    principal_expr: str,
    degree: float,
    d: int,
    role: ProfileRole = ProfileRole.SYMBOL_A,
) -> ProfileSpec:
    """Build a profile from expression strings (see :mod:`specgap.expr`).

    ``max_value`` is the value at the origin.  A weight's lower-bound
    margin is measured, never declared: c = max_value + min(0, sampled
    infimum) over coarse radial sampling, so a weight that dips to
    -max_value or below gets c <= 0 and is rejected.  An expression
    outside the grammar raises :class:`ExpressionError` with ``expr:`` or
    ``principal:`` in front of the message.
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
    margin = 0.0
    if role is ProfileRole.WEIGHT_V:
        sampled = evaluate(_margin_probe_points(d))
        sampled = sampled[np.isfinite(sampled)]
        low = float(sampled.min()) if sampled.size else 0.0
        margin = max_value + min(0.0, low)
    return ProfileSpec(
        dimension=d,
        role=role,
        evaluate=evaluate,
        max_value=max_value,
        principal=principal,
        degree=float(degree),
        lower_bound_margin=margin,
        label=expr,
    )


def _margin_probe_points(d: int) -> np.ndarray:
    radii = np.geomspace(1e-2, 1e3, 40)
    dirs = _sphere_directions(d, 16, seed=11)
    return radii[:, None, None] * dirs[None, :, :]


def _sphere_directions(d: int, count: int, seed: int) -> np.ndarray:
    """Deterministic quasi-uniform unit directions, shape (count, d)."""
    if d == 1:
        return np.array([[1.0], [-1.0]])
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count, d))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


@dataclass(frozen=True)
class ValidationReport:
    """Pass/fail per check plus the raw residuals behind each verdict."""

    label: str
    finite_ok: bool
    global_max_ok: bool
    homogeneity_ok: bool
    positivity_ok: bool
    expansion_ok: bool
    lower_bound_ok: bool | None
    expansion_residuals: tuple[float, ...]
    expansion_noise_floors: tuple[float, ...]
    homogeneity_residual_max: float
    domination_constant: float
    failures: tuple[str, ...] = ()
    notes: tuple[str, ...] = (
        "smoothness of the principal part away from 0 is assumed, not machine-checked",
    )

    @property
    def passed(self) -> bool:
        checks = [
            self.finite_ok,
            self.global_max_ok,
            self.homogeneity_ok,
            self.positivity_ok,
            self.expansion_ok,
        ]
        if self.lower_bound_ok is not None:
            checks.append(self.lower_bound_ok)
        return all(checks)


_HOMOGENEITY_RTOL = 1e-12

# The expansion radii of the fixed probe, decreasing toward 0.
_EXPANSION_RADII = (1e-1, 1e-2, 1e-3)


def validate_profile(spec: ProfileSpec) -> ValidationReport:
    """Probe a profile against its declared metadata on the fixed probe:
    32 seeded directions at radii 8, 4, 2, 1 and 1e-1, 1e-2, 1e-3, with
    homogeneity factors 0.5, 2 and 10.

    Checks, in order: all sampled values finite; global maximum attained
    at the origin and nowhere else among the samples; principal part
    positively homogeneous of the declared degree and positive on the
    sphere (random directions and the coordinate axes); normalized
    expansion residuals ``|max - evaluate - principal| / r^degree``
    nonincreasing along the (decreasing) expansion radii; and, for
    weights, the lower bound ``evaluate >= -max + margin``.  The
    asymptotic smallness of the expansion remainder cannot be decided
    from finitely many samples; monotone decrease along the radius ladder
    is what "pass" means here.
    """
    failures: list[str] = []
    # As a float64, t**degree and r**degree overflow to inf or underflow to
    # 0, and the check they feed fails, where Python floats would raise.
    degree = np.float64(spec.degree)
    dirs = _sphere_directions(spec.dimension, 32, seed=7)

    bulk_points = np.concatenate([r * dirs for r in (8.0, 4.0, 2.0, 1.0)], axis=0)
    near_points = np.concatenate([r * dirs for r in _EXPANSION_RADII], axis=0)
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
    global_max_ok = finite_ok
    if finite_ok:
        if not math.isclose(origin_value, spec.max_value, rel_tol=1e-12, abs_tol=0.0):
            global_max_ok = False
            failures.append(
                f"evaluate(0) = {origin_value!r} does not equal max_value = {spec.max_value!r}"
            )
        if np.any(bulk_values >= spec.max_value):
            global_max_ok = False
            worst = bulk_points[int(np.argmax(bulk_values))]
            failures.append(
                f"maximum not attained only near 0: evaluate({worst.tolist()}) = "
                f"{float(bulk_values.max())!r} >= max_value"
            )
        if np.any(near_values > spec.max_value):
            global_max_ok = False
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
    homogeneity_ok = False
    if positivity_ok:
        hom_residuals = []
        for t in (0.5, 2.0, 10.0):
            with np.errstate(all="ignore"):
                scaled = np.asarray(spec.principal(t * dirs), dtype=float)
                expected = t**degree * base  # 0 if t**degree underflows
                hom_residuals.append(np.max(np.abs(scaled - expected) / expected))
        # np.max keeps a NaN residual, which then fails the comparison.
        hom_max = float(np.max(hom_residuals))
        homogeneity_ok = hom_max <= _HOMOGENEITY_RTOL
        if not homogeneity_ok:
            failures.append(
                f"homogeneity residual {hom_max:.3e} exceeds {_HOMOGENEITY_RTOL:.0e}"
            )

    # (iii) expansion residuals along the shrinking radius ladder.  The
    # subtraction max - evaluate cancels to eps*max_value, so dividing by
    # r^degree sets a noise floor below which a residual counts as zero.
    # The ladder reuses the near samples of evaluate, and shares one sample
    # of principal at all the points with the domination constant.
    residuals: list[float] = []
    floors: list[float] = []
    domination = np.nan
    if finite_ok and positivity_ok:
        rows = (len(_EXPANSION_RADII), len(dirs))
        with np.errstate(all="ignore"):
            princ = np.asarray(spec.principal(points), dtype=float)
            near_principal = princ[len(bulk_points):].reshape(rows)
            for r, ev, pr in zip(_EXPANSION_RADII, near_values.reshape(rows), near_principal):
                scale = r**degree
                residuals.append(float(np.max(np.abs(spec.max_value - ev - pr)) / scale))
                floors.append(16.0 * np.finfo(float).eps * spec.max_value / scale)
        expansion_ok = all(
            nxt <= prv * (1.0 + 1e-9) + 1e-14 or nxt <= floor
            for prv, nxt, floor in zip(residuals, residuals[1:], floors[1:])
        )
        if not expansion_ok:
            failures.append(
                f"expansion residuals {residuals} do not decrease toward 0"
            )
        # Empirical domination constant: sup (max - evaluate) / principal over samples.
        ok = np.isfinite(princ) & (princ > 0)
        if np.any(ok):
            domination = float(np.max((spec.max_value - values[ok]) / princ[ok]))
    else:
        expansion_ok = False

    # (iv) lower bound, weights only.
    lower_bound_ok: bool | None = None
    if spec.role is ProfileRole.WEIGHT_V:
        lower_bound_ok = finite_ok and bool(
            spec.lower_bound_margin > 0
            and np.all(values >= -spec.max_value + spec.lower_bound_margin - 1e-12)
        )
        if not lower_bound_ok:
            failures.append(
                f"weight drops below -max_value + margin (margin = {spec.lower_bound_margin})"
            )

    return ValidationReport(
        label=spec.label or "profile",
        finite_ok=finite_ok,
        global_max_ok=global_max_ok,
        homogeneity_ok=homogeneity_ok,
        positivity_ok=positivity_ok,
        expansion_ok=expansion_ok,
        lower_bound_ok=lower_bound_ok,
        expansion_residuals=tuple(residuals),
        expansion_noise_floors=tuple(floors),
        homogeneity_residual_max=hom_max,
        domination_constant=domination,
        failures=tuple(failures),
    )
