"""Matrix-free Hermitian operators and their quadratic forms.

Three operator shapes are built here, all acting on grid functions:

* the weighted multiplier sandwich  u -> W * op(m) (W * u), where W is a
  position weight, m a frequency multiplier and op(m) = inverse-transform
  * m * transform (the scaled and original forms of the compact family),
* the model operator  u -> V0^2 * op(Psi) u + 2*A0*V0 * Phi * u built
  from the principal homogeneous parts,
* plain multiplier-plus-potential operators for oracle tests.

Every apply goes through :func:`fourier_multiplier`.  Inside op(m) the
transform's centering shift and its (h/sqrt(2 pi))^(+-d) scales
cancel, so op(m) is just ifftn(m * fftn(v)), taken over the trailing
grid axes: every apply accepts one grid function or a stack of them,
shape (..., *grid.shape), and maps each alike.  When the samples m are
even on the lattice (m[k] == m[-k mod N] on every axis; true for radial
symbols, not for a quadratic form with cross terms, which differs on the
Nyquist rows) op(m) maps real vectors to real vectors and is computed
with the half-spectrum real FFT; the operator is then marked ``real``
and the solvers run in real arithmetic.  The unitary transforms of
:mod:`specgap.grid` remain where frequency-side values are read: the
forms below.

All forms use the same h^d / (pi/L)^d quadrature weights as the inner
product, which turns the flatness/gap identities into exact discrete
algebra instead of asymptotic statements.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.fft as sfft

from .grid import Grid, StateVector, inner, norm, to_frequency_values
from .profiles import ProfilePair, ProfileSpec

__all__ = [
    "OperatorError",
    "HermitianOperator",
    "ScaledSymbols",
    "make_scaled_symbols",
    "build_scaled_operator",
    "build_original_operator",
    "build_model_operator",
    "build_multiplier_plus_potential",
    "fourier_multiplier",
    "symbol_flatness_form",
    "weight_flatness_form",
    "model_form",
    "residual_form",
    "normalized_pair",
]


class OperatorError(ValueError):
    """Invalid operator construction (non-finite samples, grid mismatch)."""


@dataclass(frozen=True)
class HermitianOperator:
    """Matrix-free Hermitian apply contract on a fixed grid.

    ``upper_bound`` bounds the operator norm ||A|| (not just the top of
    the spectrum); certification scales its tolerance by it.
    ``multiplier_part``/``potential_part`` are optional structural hints
    (real samples on the frequency lattice / nodes); they never change
    what ``apply_values`` does.  Shift-invert runs only on an operator
    that carries both, because its preconditioner is built from them;
    :func:`~specgap.eigensolve.bottom_mode`'s Weyl estimate reads them
    too, and :func:`model_form` reads the model operator's.  Only
    :func:`build_multiplier_plus_potential` sets them, and it sets both;
    sandwiches carry neither, so their solves run dense or Lanczos.
    ``real`` is set by the builders when the multiplier samples are even
    on the lattice, so the operator maps real vectors to real vectors and
    solvers may work in float64.

    ``guess`` is another hint: flat rows, shape ``(rows, grid.size)``,
    that span an estimate of the eigenvectors a solve wants.  The Lanczos
    modes start their first cycle from its rows, one band Lanczos cycle as
    wide as the rows that lie outside the locked span (a real operator
    takes the real and imaginary parts of a complex guess, and a cycle at
    most half its basis cap of rows); the random completeness probe
    that follows, and the certification, do not read it, so a poor guess
    costs applies but never changes what is certified.  No builder sets
    it; :func:`~specgap.asymptotics.run_sweep` puts the model eigenvectors
    on every sandwich it solves.

    ``apply_values`` takes an array of shape ``(..., *grid.shape)``: one
    grid function, or a stack of them along the leading axes.  The
    operators built here transform over the trailing grid axes only, so
    a stack of b vectors gives exactly the b single applies, in one call.
    """

    grid: Grid
    apply_values: Callable[[np.ndarray], np.ndarray]
    upper_bound: float
    label: str = ""
    multiplier_part: np.ndarray | None = None
    potential_part: np.ndarray | None = None
    real: bool = False
    guess: np.ndarray | None = None

    def apply(self, u: StateVector) -> StateVector:
        if u.grid != self.grid:
            raise OperatorError("state vector grid does not match the operator grid")
        return StateVector(self.grid, self.apply_values(u.values))


def _finite_or_raise(samples: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(samples)):
        raise OperatorError(f"non-finite {what} sample")
    return samples


@dataclass(frozen=True)
class ScaledSymbols:
    """Samples of the flattened weight/multiplier at coupling alpha.

    weight_values[j] = V(alpha^(gamma/(gamma+beta)) * x_j) on the nodes,
    multiplier_values[k] = a(alpha^(beta/(gamma+beta)) * xi_k) on the
    frequency lattice.
    """

    grid: Grid
    alpha: float
    weight_values: np.ndarray
    multiplier_values: np.ndarray


def _sandwich_samples(pair: ProfilePair, alpha: float, grid: Grid,
                      scaled: bool) -> tuple[np.ndarray, np.ndarray]:
    """Finite weight samples V(s x) and multiplier samples a(t xi) on
    ``grid``: (s, t) = (alpha^(gamma/(gamma+beta)), alpha^(beta/(gamma+beta)))
    for the scaled sandwich, (1, alpha) for the original one.  A weight
    sample at or below -V0 raises :class:`OperatorError`."""
    if alpha <= 0:
        raise OperatorError("alpha must be positive")
    if grid.dimension != pair.dimension:
        raise OperatorError("grid dimension does not match the profile pair")
    pos_scale, freq_scale = 1.0, alpha
    if scaled:
        gamma = pair.a_profile.degree
        beta = pair.v_profile.degree
        pos_scale = alpha ** (gamma / (gamma + beta))
        freq_scale = alpha ** (beta / (gamma + beta))
    w = _finite_or_raise(
        np.asarray(pair.v_profile.evaluate(pos_scale * grid.position_points), dtype=float),
        "weight",
    )
    # The pair's probe has fixed radii; the grid's own nodes can still
    # hold a narrow well at or below -V0.
    if (low := float(w.min())) <= -pair.v_profile.max_value:
        raise OperatorError(
            f"weight sample minimum {low:.6g} <= -V0 = {-pair.v_profile.max_value:.6g} "
            f"at alpha={alpha:g}; the weight must stay above -V0"
        )
    b = _finite_or_raise(
        np.asarray(pair.a_profile.evaluate(freq_scale * grid.frequency_points), dtype=float),
        "multiplier",
    )
    return w, b


def make_scaled_symbols(pair: ProfilePair, alpha: float, grid: Grid) -> ScaledSymbols:
    w, b = _sandwich_samples(pair, alpha, grid, scaled=True)
    return ScaledSymbols(grid=grid, alpha=float(alpha), weight_values=w, multiplier_values=b)


def _symbols_at(pair: ProfilePair, alpha: float, grid: Grid,
                symbols: ScaledSymbols | None) -> ScaledSymbols:
    """``symbols``, or a fresh sample at ``alpha`` on ``grid``; passed
    samples must be of that grid and that alpha."""
    if symbols is None:
        return make_scaled_symbols(pair, alpha, grid)
    if symbols.grid != grid:
        raise OperatorError("symbols sampled on another grid")
    if symbols.alpha != alpha:
        raise OperatorError(f"symbols sampled at alpha={symbols.alpha:g}, not at alpha={alpha:g}")
    return symbols


def _is_even(m: np.ndarray) -> bool:
    """m[k] == m[-k mod N] on every axis (the mirror of FFT order)."""
    axes = tuple(range(m.ndim))
    return bool(np.array_equal(m, np.roll(np.flip(m, axes), 1, axes)))


def fourier_multiplier(m: np.ndarray) -> tuple[Callable[[np.ndarray], np.ndarray], bool]:
    """``(v -> op(m) v, real)`` for real samples m on the frequency lattice.

    ``real`` says m is even on the lattice; the apply then uses the
    half-spectrum real FFT and returns float64 for float64 input (complex
    input goes through as its real and imaginary parts).  Otherwise the
    apply is the complex ifftn(m * fftn(v)).  The transforms run over the
    trailing ``m.ndim`` axes, so ``v`` may be a stack of grid functions,
    shape ``(..., *m.shape)``.
    """
    shape = m.shape
    axes = tuple(range(-m.ndim, 0))
    if not _is_even(m):
        def complex_apply(values: np.ndarray) -> np.ndarray:
            return sfft.ifftn(m * sfft.fftn(values, axes=axes), axes=axes)

        return complex_apply, False

    half = np.ascontiguousarray(m[..., : shape[-1] // 2 + 1])

    def real_apply(values: np.ndarray) -> np.ndarray:
        return sfft.irfftn(half * sfft.rfftn(values, axes=axes), s=shape, axes=axes)

    def apply(values: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(values):
            return real_apply(values.real) + 1j * real_apply(values.imag)
        return real_apply(values)

    return apply, True


def _sandwich(grid: Grid, weight: np.ndarray, multiplier: np.ndarray, label: str) -> HermitianOperator:
    op_m, real = fourier_multiplier(multiplier)

    def apply_values(values: np.ndarray) -> np.ndarray:
        return weight * op_m(weight * values)

    bound = float(np.max(np.abs(multiplier)) * np.max(np.abs(weight)) ** 2)
    return HermitianOperator(
        grid=grid, apply_values=apply_values, upper_bound=bound, label=label, real=real
    )


def build_scaled_operator(pair: ProfilePair, alpha: float, grid: Grid,
                          symbols: ScaledSymbols | None = None) -> HermitianOperator:
    """The scaled sandwich W_alpha op(b_alpha) W_alpha.

    Unitarily equivalent to the original family at the same alpha; after
    the scaling both the weight and the multiplier flatten at rate
    alpha^sigma, so eigenfunctions stay on O(1) scales and one grid
    serves a whole alpha ladder.  Pass the ``symbols`` of this alpha and
    grid to build from them instead of resampling.
    """
    sym = _symbols_at(pair, alpha, grid, symbols)
    return _sandwich(
        grid, sym.weight_values, sym.multiplier_values, f"scaled-sandwich(alpha={alpha:g})"
    )


def build_original_operator(pair: ProfilePair, alpha: float, grid: Grid) -> HermitianOperator:
    """The unscaled sandwich V op(a(alpha .)) V, for cross-checks only."""
    w, m = _sandwich_samples(pair, alpha, grid, scaled=False)
    return _sandwich(grid, w, m, f"original-sandwich(alpha={alpha:g})")


def _principal_samples(profile: ProfileSpec, points: np.ndarray, radii: np.ndarray, what: str) -> np.ndarray:
    # The principal part is homogeneous of positive degree, so its value
    # at the origin is 0 by continuity; force that before checking finiteness.
    with np.errstate(all="ignore"):
        vals = np.asarray(profile.principal(points), dtype=float)
    vals = np.where(radii == 0.0, 0.0, vals)
    return _finite_or_raise(vals, what)


def build_model_operator(pair: ProfilePair, grid: Grid) -> HermitianOperator:
    """The positive model operator op(V0^2 Psi) + 2 A0 V0 Phi.

    Its ascending eigenvalues are the limits of the scaled spectral gaps.
    Its ``multiplier_part`` is V0^2 Psi on the frequency lattice and its
    ``potential_part`` 2 A0 V0 Phi on the nodes.
    """
    if grid.dimension != pair.dimension:
        raise OperatorError("grid dimension does not match the profile pair")
    a0 = pair.a_profile.max_value
    v0 = pair.v_profile.max_value
    psi = _principal_samples(
        pair.a_profile, grid.frequency_points, grid.frequency_radii, "principal multiplier"
    )
    phi = _principal_samples(
        pair.v_profile, grid.position_points, grid.position_radii, "principal potential"
    )
    return build_multiplier_plus_potential(
        grid, v0**2 * psi, 2.0 * a0 * v0 * phi, label="model-operator"
    )


def build_multiplier_plus_potential(
    grid: Grid,
    multiplier_values: np.ndarray,
    potential_values: np.ndarray,
    label: str = "multiplier+potential",
) -> HermitianOperator:
    """op(m) + q with real samples m on the frequency lattice, q on nodes."""
    m = _finite_or_raise(np.asarray(multiplier_values, dtype=float), "multiplier")
    q = _finite_or_raise(np.asarray(potential_values, dtype=float), "potential")
    if m.shape != grid.shape or q.shape != grid.shape:
        raise OperatorError("sample shapes must match the grid")
    op_m, real = fourier_multiplier(m)

    def apply_values(values: np.ndarray) -> np.ndarray:
        return op_m(values) + q * values

    bound = float(np.max(np.abs(m)) + np.max(np.abs(q)))
    return HermitianOperator(
        grid=grid,
        apply_values=apply_values,
        upper_bound=bound,
        label=label,
        multiplier_part=m,
        potential_part=q,
        real=real,
    )


# ---------------------------------------------------------------------------
# Quadratic forms
# ---------------------------------------------------------------------------

def _common_grid(u: StateVector, v: StateVector) -> Grid:
    if u.grid != v.grid:
        raise OperatorError("grids do not match")
    return u.grid


def symbol_flatness_form(
    pair: ProfilePair,
    alpha: float,
    u: StateVector,
    v: StateVector | None = None,
    symbols: ScaledSymbols | None = None,
) -> complex:
    """Frequency-side flatness form:
    alpha^-sigma * sum (1 - b_alpha) * u_hat * conj(v_hat) * (pi/L)^d.

    Nonnegative on the diagonal since b_alpha <= 1 for normalized
    profiles.  Pass precomputed ``symbols`` of the same alpha to avoid
    resampling.
    """
    v = u if v is None else v
    sym = _symbols_at(pair, alpha, _common_grid(u, v), symbols)
    u_hat = to_frequency_values(u.grid, u.values)
    v_hat = u_hat if v is u else to_frequency_values(v.grid, v.values)
    prod = np.abs(u_hat) ** 2 if v is u else u_hat * np.conj(v_hat)
    acc = np.sum((1.0 - sym.multiplier_values) * prod)
    return complex(alpha ** (-pair.sigma) * u.grid.freq_cell_volume * acc)


def weight_flatness_form(
    pair: ProfilePair,
    alpha: float,
    u: StateVector,
    v: StateVector | None = None,
    symbols: ScaledSymbols | None = None,
) -> complex:
    """Position-side flatness form:
    alpha^-sigma * sum (1 - W_alpha^2) * u * conj(v) * h^d."""
    v = u if v is None else v
    sym = _symbols_at(pair, alpha, _common_grid(u, v), symbols)
    prod = np.abs(u.values) ** 2 if v is u else u.values * np.conj(v.values)
    acc = np.sum((1.0 - sym.weight_values**2) * prod)
    return complex(alpha ** (-pair.sigma) * u.grid.cell_volume * acc)


def model_form(pair: ProfilePair, u: StateVector, v: StateVector | None = None) -> complex:
    """Quadratic form of the model operator; equals <model u, v> exactly."""
    v = u if v is None else v
    grid = _common_grid(u, v)
    model = build_model_operator(pair, grid)
    u_hat = to_frequency_values(grid, u.values)
    v_hat = u_hat if v is u else to_frequency_values(grid, v.values)
    freq_part = grid.freq_cell_volume * np.sum(model.multiplier_part * u_hat * np.conj(v_hat))
    pos_part = grid.cell_volume * np.sum(model.potential_part * u.values * np.conj(v.values))
    return complex(freq_part + pos_part)


def residual_form(pair: ProfilePair, alpha: float, u: StateVector) -> float:
    """Defect of the first-order approximation:
    <B u, u> - ||u||^2 + alpha^sigma * model_form(u)."""
    op = build_scaled_operator(pair, alpha, u.grid)
    quad = np.real(inner(op.apply(u), u))
    return float(quad - norm(u) ** 2 + alpha**pair.sigma * np.real(model_form(pair, u)))


def normalized_pair(pair: ProfilePair) -> tuple[ProfilePair, float]:
    """Rescale both profiles to unit maxima.

    Returns the normalized pair and the spectral scale A0*V0^2; the
    sandwiched operator scales linearly, so eigenvalues just multiply by
    that factor while eigenvectors are unchanged.
    """
    scale = pair.peak_product
    if pair.a_profile.max_value == 1.0 and pair.v_profile.max_value == 1.0:
        return pair, scale

    def scaled_profile(p: ProfileSpec) -> ProfileSpec:
        c = p.max_value
        return replace(
            p,
            evaluate=lambda pts, _f=p.evaluate, _c=c: np.asarray(_f(pts)) / _c,
            principal=lambda pts, _f=p.principal, _c=c: np.asarray(_f(pts)) / _c,
            max_value=1.0,
            label=f"{p.label}/max",
        )

    norm_pair = ProfilePair(scaled_profile(pair.a_profile), scaled_profile(pair.v_profile))
    return norm_pair, scale
