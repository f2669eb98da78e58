"""Hermitian eigensolvers with residual certification.

Three modes:

* ``LANCZOS`` -- Lanczos with full reorthogonalization, restarted
  with deflation of converged pairs until the requested extreme
  eigenpairs are certified.  It serves both ends of the spectrum: the
  largest pairs of A, and the smallest as the largest of -A.  Grid
  sizes here are modest, so full (not selective) reorthogonalization is
  used throughout; ghost eigenvalues would poison an asymptotic sweep.
  Each new Krylov vector is orthogonalized against the locked vectors
  and the cycle basis at once (classical Gram-Schmidt run twice over one
  2-D array).  Every cycle starts from a random vector outside the
  locked span and has no length cap.  One test ends it and decides what
  it locks: once the Ritz residual estimates beta_m*|s_m,i| of the
  wanted pairs are below a tenth of the lock tolerance (or on breakdown,
  or over the whole complement) it locks all of them; cut by the step
  budget, it locks nothing.  With full reorthogonalization the estimates
  are the residuals up to rounding (Parlett 1998); the certification
  below is the one explicit residual check.  Once k pairs are locked, a
  completeness probe runs one more cycle.  A value beyond the k-th
  locked one (a degenerate copy the earlier cycles could not see) is
  locked and the probe repeats; otherwise the solve is done.
* ``DENSE_FULL`` -- materialize the operator column by column into one
  Fortran-ordered matrix, which LAPACK then overwrites; permitted only up
  to ``DENSE_SIZE_LIMIT`` unknowns.  The matrix is not symmetrized:
  ``eigh`` reads only its lower triangle.
* ``SHIFT_INVERT_BOTTOM`` -- the same Lanczos core on (A + c I)^-1 with
  inner conjugate-gradient solves, matrix-free.

Both spectrum ends and all three modes go through one routine with one
k rule: any 1 <= k <= size is valid in every mode (Lanczos run over the
whole complement of the locked span is exact), and a larger k is a
``ValueError``.  The locked Lanczos rows (of A, of -A or of the inverse)
or eigh's vectors span the wanted pairs; one Rayleigh-Ritz step against
the operator itself gives the values, vectors and residuals of the k
extreme Ritz pairs over that span, and those are what the solve returns
and certifies.

A ``real`` operator (even multiplier samples) runs in real arithmetic
throughout: float64 start vectors, Krylov bases, dense matrices and CG
solves, and float64 eigenvectors.  Other operators run in complex128.

:func:`bottom_mode` is the one place that picks the mode of a
model-operator solve.  Up to ``DENSE_CHOICE_LIMIT`` (1024) unknowns it
materializes (eigh costs at most 0.17 s there).  Above that, plain
Lanczos on -A converges at a rate set by the wanted gap against the
spread of the spectrum (Parlett, *The Symmetric Eigenvalue Problem*,
SIAM 1998), so the choice rests on the stiffness ||A|| / mu_k, with
mu_k estimated by Weyl's law from the multiplier and potential samples
(:func:`weyl_estimate`).  Lanczos runs below ``STIFFNESS_LIMIT`` (500),
shift-invert from there on.  Measured on a 2-core box (k=3, tol 1e-9,
Gaussian pairs unless noted), Lanczos beat shift-invert at ratios 63
(d=2, 48^2: 0.06 vs 0.58 s), 103 (80^2: 0.29 vs 1.16 s), 164 (128^2:
0.76 vs 3.06 s) and 219 (128^2, L=8: 0.95 vs 2.21 s), and lost 1.5-2.1x
at 1283-1804 (1-D, N=1280 and 1536) and 5.4x at 5417 (d=2 quartic
symbol, 56^2).  Above 1024 unknowns shift-invert also beats dense on
stiff operators (56^2 quartic: 0.67 vs 1.74 s; 1-D N=4096: 1.14 vs
4.28 s), except in 1-D up to about 2048 unknowns (N=1536: 0.28 vs
0.55 s).

All randomness flows from the seed in :class:`SolveSettings`; identical
settings produce bit-identical results within one build.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.sparse.linalg import LinearOperator, cg

from .grid import StateVector, inner, norm
from .operators import HermitianOperator, fourier_multiplier

__all__ = [
    "Mode",
    "SolveSettings",
    "EigenPair",
    "CertReport",
    "NoConvergenceError",
    "InnerSolveStallError",
    "largest_eigenpairs",
    "smallest_eigenpairs",
    "bottom_mode",
    "certify",
    "cluster_eigenvalues",
    "weyl_estimate",
    "DENSE_SIZE_LIMIT",
]

# Materialization cap of the dense path.
DENSE_SIZE_LIMIT = 4096
# bottom_mode materializes up to this many unknowns ...
DENSE_CHOICE_LIMIT = 1024
# ... and above it runs plain Lanczos on -A while ||A|| < STIFFNESS_LIMIT * mu_k.
STIFFNESS_LIMIT = 500.0
# Shift-invert runs Lanczos on (A + _SHIFT I)^-1; model operators are
# positive, so the inverse has norm <= 1/_SHIFT.
_SHIFT = 1.0
# CG iteration cap of one shift-invert inner solve.
INNER_MAX_ITERATIONS = 50000


class Mode(enum.Enum):
    LANCZOS = "lanczos"
    DENSE_FULL = "dense_full"
    SHIFT_INVERT_BOTTOM = "shift_invert_bottom"


@dataclass(frozen=True)
class SolveSettings:
    """Knobs for a single eigensolve.

    ``k`` is the number of pairs; every mode accepts any 1 <= k <= the
    grid size, and a solve raises ``ValueError`` for a larger k.
    ``tol`` is the residual tolerance relative to the operator's
    spectral scale: a pair certifies when ||A v - value*v|| does not
    exceed tol * max(1, |upper_bound|).  For the sandwiched operators
    (norm <= 1) this coincides with an absolute tolerance.
    """

    k: int = 1
    tol: float = 1e-9
    max_iterations: int = 6000
    rng_seed: int = 74082
    mode: Mode | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")


@dataclass
class EigenPair:
    value: float
    vector: StateVector
    residual: float


@dataclass(frozen=True)
class CertReport:
    norms_ok: bool
    residuals_ok: bool
    orthogonality_ok: bool
    max_norm_deviation: float
    max_residual: float
    max_gram_offdiagonal: float

    @property
    def passed(self) -> bool:
        return self.norms_ok and self.residuals_ok and self.orthogonality_ok


class NoConvergenceError(RuntimeError):
    """Iteration budget exhausted before all requested pairs certified, or
    a certified residual above its threshold.

    ``best_residuals`` holds the residual estimates of the last Lanczos
    cycle when the budget ran out, and the Rayleigh-Ritz residuals when
    certification failed.
    """

    def __init__(self, message: str, best_residuals=()):
        super().__init__(message)
        self.best_residuals = tuple(float(r) for r in best_residuals)


class InnerSolveStallError(RuntimeError):
    """Inner conjugate-gradient solve hit its iteration cap."""

    def __init__(self, achieved_residual: float, iterations: int):
        super().__init__(
            f"inner CG stalled at relative residual {achieved_residual:.3e} "
            f"after {iterations} iterations"
        )
        self.achieved_residual = achieved_residual
        self.iterations = iterations


# ---------------------------------------------------------------------------
# Lanczos core (full reorthogonalization, deflated restarts)
# ---------------------------------------------------------------------------

# A cycle stops and locks its wanted Ritz pairs once every residual estimate
# beta_m * |s_{m,i}| is below this fraction of the lock tolerance.
_CONVERGED = 0.1


def _vdot(a: np.ndarray, b: np.ndarray):
    # A numpy scalar, so a real Krylov basis stays real.
    return np.vdot(a.ravel(), b.ravel())


def _norm2(a: np.ndarray) -> float:
    return float(np.linalg.norm(a.ravel()))


def _project_out(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Remove from the flat vector ``w``, in place, its components along the
    orthonormal ``rows``: classical Gram-Schmidt run twice, each pass one
    product with the whole block."""
    if len(rows):
        for _ in range(2):
            w -= (rows @ w.conj()).conj() @ rows
    return w


class _Rows:
    """Locked vectors followed by the current cycle's Lanczos basis, as
    the rows of one 2-D array that grows when a cycle outruns it."""

    def __init__(self, capacity: int, size: int, dtype):
        self.array = np.empty((capacity, size), dtype=dtype)
        self.locked = 0

    def reserve(self, count: int) -> None:
        if count > len(self.array):
            grown = np.empty((max(count, int(1.5 * len(self.array))), self.array.shape[1]),
                             dtype=self.array.dtype)
            grown[: len(self.array)] = self.array
            self.array = grown

    def lock(self, y: np.ndarray) -> None:
        # A Ritz vector of the cycle just run: its row is a basis row, so it fits.
        self.array[self.locked] = y
        self.locked += 1

    def start(self, rng: np.random.Generator) -> None:
        """Make a random vector minus its locked components the first basis
        row.  Real rows get a real start, which keeps the iteration real."""
        self.reserve(self.locked + 1)
        size = self.array.shape[1]
        for _ in range(20):
            v = rng.standard_normal(size)
            if np.iscomplexobj(self.array):
                v = v + 1j * rng.standard_normal(size)
            w = _project_out(v, self.array[: self.locked])
            nw = _norm2(w)
            if nw > 1e-8:
                self.array[self.locked] = w / nw
                return
        raise NoConvergenceError("could not generate a start vector outside the locked span")


def _leading_ritz(alphas: list[float], betas: list[float], count: int):
    """The ``count`` largest eigenvalues (descending) of the Lanczos
    tridiagonal matrix and their eigenvectors as columns."""
    m = len(alphas)
    theta, s_mat = sla.eigh_tridiagonal(
        np.array(alphas), np.array(betas[: m - 1]), select="i", select_range=(m - count, m - 1)
    )
    return theta[::-1], s_mat[:, ::-1]


def _lanczos_cycle(apply_values, shape, rows: _Rows, max_steps: int, want: int,
                   stop_tol: float):
    """Run Lanczos from the first basis row, reorthogonalizing each new
    vector against the locked rows and the basis so far.

    Stops after ``max_steps`` steps, on breakdown (an invariant subspace),
    or once the ``want`` leading Ritz pairs have residual estimates
    beta_m*|s_m,i| below ``stop_tol``.  Returns ``(theta, s_mat, m,
    estimates, converged)``: the leading Ritz values and tridiagonal
    eigenvectors, the cycle length, the final residual estimates, and
    whether the leading pairs are final (estimates met or breakdown).
    """
    arr, base = rows.array, rows.locked
    alphas: list[float] = []
    betas: list[float] = []
    scale = 1.0
    converged = False
    for j in range(max_steps):
        q = arr[base + j]
        av = apply_values(q.reshape(shape)).ravel()
        alpha = float(np.real(_vdot(q, av)))
        alphas.append(alpha)
        w = av - alpha * q
        if j:
            w -= betas[-1] * arr[base + j - 1]
        _project_out(w, arr[: base + j + 1])
        beta = _norm2(w)
        scale = max(scale, abs(alpha), beta)
        m = j + 1
        if beta <= 1e-14 * scale:
            converged = True  # invariant subspace exhausted
            break
        betas.append(beta)
        if m >= want:
            _, s_mat = _leading_ritz(alphas, betas, want)
            if np.all(beta * np.abs(s_mat[-1]) < stop_tol):
                converged = True
                break
        if m == max_steps:
            break
        rows.reserve(base + m + 1)
        arr = rows.array
        arr[base + m] = w / beta
    theta, s_mat = _leading_ritz(alphas, betas, min(m, want))
    return theta, s_mat, m, beta * np.abs(s_mat[-1]), converged


def _lanczos_largest(apply_values, op: HermitianOperator, settings: SolveSettings,
                     lock_tol: float):
    """Return the locked rows, at least ``settings.k`` of them, that span
    the k largest eigenvectors of the Hermitian operator ``apply_values``
    on the grid of ``op`` (``op`` itself, -``op`` or an inverse of it).

    Every cycle, main or probe, runs for up to min(size - locked,
    max_iterations - steps) steps.  One that converged (estimates below
    ``_CONVERGED * lock_tol``, or breakdown) or spans the whole complement
    locks all of its Ritz pairs; one cut by the step budget locks nothing,
    and the solve raises.  Once k pairs are locked, a probe cycle must
    find nothing beyond the k-th value plus ``lock_tol``; what it does
    find beyond is locked and probed past in turn, so a degenerate copy
    that the earlier cycles could not see is not lost.
    """
    shape, size, k = op.grid.shape, op.grid.size, settings.k
    rng = np.random.default_rng(settings.rng_seed)
    rows = _Rows(k + 81, size, np.float64 if op.real else np.complex128)  # grows on demand
    locked_vals: list[float] = []
    steps = 0
    estimates = ()

    while True:
        probe = len(locked_vals) >= k
        if probe and rows.locked == size:
            break
        if steps >= settings.max_iterations:
            note = "; completeness probe unfinished" if probe else ""
            raise NoConvergenceError(
                f"{op.label}: no convergence after {steps} Lanczos steps "
                f"({min(len(locked_vals), k)}/{k} pairs certified{note})",
                best_residuals=estimates,
            )
        rows.start(rng)
        want = 1 if probe else k - len(locked_vals)
        length = min(size - rows.locked, settings.max_iterations - steps)
        theta, s_mat, m, estimates, converged = _lanczos_cycle(
            apply_values, shape, rows, length, want, _CONVERGED * lock_tol
        )
        steps += m
        if not (converged or m == size - rows.locked):
            continue  # cut by the step budget
        if probe and theta[0] <= sorted(locked_vals, reverse=True)[k - 1] + lock_tol:
            break
        for y, value in zip(s_mat.T @ rows.array[rows.locked : rows.locked + m], theta):
            rows.lock(y / _norm2(y))
            locked_vals.append(float(value))

    return rows.array[: rows.locked]


def _rayleigh_ritz(op: HermitianOperator, basis: np.ndarray, k: int, which: str):
    """Return (values, vectors, residuals) of the k ``which`` ("largest" or
    "smallest") Ritz pairs of ``op`` over the span of the flat ``basis``
    rows, ordered from the extreme inward.

    Orthonormal basis, small projected matrix, rotate: this fixes ordering
    and orthogonality at once, and keeps only k when the basis has more.
    """
    shape = op.grid.shape
    v_mat, _ = np.linalg.qr(basis.T)
    a_cols = np.stack(
        [op.apply_values(v_mat[:, j].reshape(shape)).ravel() for j in range(v_mat.shape[1])],
        axis=1,
    )
    small = v_mat.conj().T @ a_cols
    small = 0.5 * (small + small.conj().T)
    vals, rot = np.linalg.eigh(small)
    order = np.argsort(vals)
    sel = (order[::-1] if which == "largest" else order)[:k]
    values = vals[sel]
    vectors = v_mat @ rot[:, sel]
    # The residuals come from the applies above: A (V R) = (A V) R.
    residuals = np.linalg.norm(a_cols @ rot[:, sel] - vectors * values, axis=0)
    return values, [vectors[:, j].reshape(shape) for j in range(k)], [float(r) for r in residuals]


# ---------------------------------------------------------------------------
# Dense reference path
# ---------------------------------------------------------------------------

def materialize_dense(op: HermitianOperator) -> np.ndarray:
    """Apply the operator to every basis vector; only for small grids.
    The matrix is float64 for a ``real`` operator, else complex128, and
    Fortran-ordered, so LAPACK can work on it without a copy.  It is not
    symmetrized: column j is exactly A e_j, and ``eigh`` reads only the
    lower triangle."""
    n = op.grid.size
    if n > DENSE_SIZE_LIMIT:
        raise ValueError(
            f"dense materialization permitted only up to {DENSE_SIZE_LIMIT} unknowns, got {n}"
        )
    shape = op.grid.shape
    dtype = np.float64 if op.real else np.complex128
    mat = np.empty((n, n), dtype=dtype, order="F")
    basis = np.zeros(n, dtype=dtype)
    for j in range(n):
        basis[j] = 1.0
        mat[:, j] = op.apply_values(basis.reshape(shape)).ravel()
        basis[j] = 0.0
    return mat


# ---------------------------------------------------------------------------
# Shift-invert machinery
# ---------------------------------------------------------------------------

def _make_inverse_apply(op: HermitianOperator, settings: SolveSettings):
    n = op.grid.size
    shape = op.grid.shape

    def shifted_matvec(x: np.ndarray) -> np.ndarray:
        arr = x.reshape(shape)
        return (op.apply_values(arr) + _SHIFT * arr).ravel()

    dtype = np.float64 if op.real else np.complex128
    a_op = LinearOperator((n, n), matvec=shifted_matvec, dtype=dtype)

    m_op = None
    if op.multiplier_part is not None:
        # Frequency-diagonal preconditioner: exact inverse of the stiff
        # multiplier part plus the mean of the potential.
        q_mean = float(np.mean(op.potential_part)) if op.potential_part is not None else 0.0
        diag = op.multiplier_part + _SHIFT + q_mean
        diag = np.maximum(diag, 1e-8 * np.max(np.abs(diag)))
        inverse_diag, _ = fourier_multiplier(1.0 / diag)

        def precond(x: np.ndarray) -> np.ndarray:
            return inverse_diag(x.reshape(shape)).ravel()

        m_op = LinearOperator((n, n), matvec=precond, dtype=dtype)

    inner_tol = max(1e-13, settings.tol * 1e-4)

    def inverse_apply(values: np.ndarray) -> np.ndarray:
        rhs = values.ravel()
        x, info = cg(a_op, rhs, M=m_op, rtol=inner_tol, atol=0.0,
                     maxiter=INNER_MAX_ITERATIONS)
        if info != 0:
            achieved = _norm2(shifted_matvec(x) - rhs) / max(_norm2(rhs), 1e-300)
            raise InnerSolveStallError(achieved, INNER_MAX_ITERATIONS)
        return x.reshape(shape)

    return inverse_apply


# ---------------------------------------------------------------------------
# Public solves
# ---------------------------------------------------------------------------

def _operator_scale(op: HermitianOperator) -> float:
    # Every Ritz value lies in [-||A||, ||A||], inside +-upper_bound.
    return max(1.0, abs(op.upper_bound))


def _extreme_pairs(op: HermitianOperator, settings: SolveSettings, mode: Mode,
                   which: str) -> list[EigenPair]:
    """The k ``which`` ("largest" or "smallest") eigenpairs of ``op`` in
    ``mode``, ordered from the extreme inward and certified.

    Any 1 <= k <= size is valid in every mode.  The mode builds a basis
    that spans the wanted pairs (eigh's vectors, the locked Lanczos rows
    of A or -A, or those of the shift-invert inverse); the Rayleigh-Ritz
    step against ``op`` itself then gives the values, vectors and
    residuals, and every residual must be within tol * max(1, |upper_bound|).
    """
    k, size = settings.k, op.grid.size
    if k > size:  # SolveSettings holds k >= 1
        raise ValueError(f"{op.label}: requested {k} pairs from a {size}-dimensional operator")
    threshold = settings.tol * _operator_scale(op)
    if mode is Mode.DENSE_FULL:
        lo = size - k if which == "largest" else 0
        # eigh's values are accurate only to ~eps*|A| (1e-9 for a quartic
        # symbol at N=1024) and move with the BLAS path.  The Ritz values over
        # its vectors, from the applies the residuals need anyway, are off by
        # ~residual^2/gap plus the apply's rounding on a smooth vector.
        _, vecs = sla.eigh(materialize_dense(op), subset_by_index=[lo, lo + k - 1],
                           overwrite_a=True)
        basis = vecs.T
    elif mode is Mode.LANCZOS:
        apply_values = (op.apply_values if which == "largest"
                        else lambda values: -op.apply_values(values))
        basis = _lanczos_largest(apply_values, op, settings, threshold)
    else:
        basis = _lanczos_largest(
            _make_inverse_apply(op, settings), op, settings,
            lock_tol=0.1 * settings.tol,  # inverse has norm <= 1/_SHIFT
        )
    values, vectors, residuals = _rayleigh_ritz(op, basis, k, which)
    worst = max(residuals)
    if worst > threshold:
        raise NoConvergenceError(
            f"{op.label}: worst residual {worst:.3e} exceeds the certification "
            f"threshold {threshold:.3e}",
            best_residuals=residuals,
        )
    weight = np.sqrt(op.grid.cell_volume)
    return [
        EigenPair(value=float(val), vector=StateVector(op.grid, vec / weight), residual=res)
        for val, vec, res in zip(values, vectors, residuals)
    ]


def largest_eigenpairs(op: HermitianOperator, settings: SolveSettings) -> list[EigenPair]:
    """The k largest eigenpairs, descending, pairwise orthogonal.

    Default mode is restarted Lanczos with full reorthogonalization;
    ``DENSE_FULL`` is available as an oracle on small grids.  Raises
    ``ValueError`` for shift-invert or for k above the grid size, and
    :class:`NoConvergenceError` when the iteration budget runs out.
    """
    mode = settings.mode or Mode.LANCZOS
    if mode is Mode.SHIFT_INVERT_BOTTOM:
        raise ValueError("shift-invert targets the smallest pairs; use smallest_eigenpairs")
    return _extreme_pairs(op, settings, mode, "largest")


def weyl_estimate(multiplier: np.ndarray, potential: np.ndarray, k: int) -> float:
    """Weyl's estimate of the k-th smallest eigenvalue of op(m) + q from
    its samples m (frequency lattice) and q (nodes).

    A node and a lattice frequency together cover the phase-space volume
    (2 pi)^d / size, so the eigenvalue count below E is about the number
    of sample pairs with m_i + q_j < E over the grid size.  Returns the
    smallest E > 0, to 1 %, with sum_j #{i : m_i < E - q_j} >= k * size,
    by bisection on log E; 0.0 when m + q has no positive sample sum.
    """
    m = np.sort(np.ravel(multiplier))
    # Symmetric potentials repeat their samples; count each value once.
    q, copies = np.unique(np.ravel(potential), return_counts=True)
    target = k * m.size

    def enough(e: float) -> bool:
        return int(np.searchsorted(m, e - q) @ copies) >= target

    top = float(m[-1] + q[-1])
    if top <= 0:
        return 0.0
    # Above m_max + q_max every pair counts, and k <= size.
    lo, hi = 2.0 ** -60 * top, 2.0 * top
    while hi > 1.01 * lo:
        mid = np.sqrt(lo * hi)
        lo, hi = (lo, mid) if enough(mid) else (mid, hi)
    return float(hi)


def bottom_mode(op: HermitianOperator, k: int, mode: Mode | None = None) -> tuple[Mode, str]:
    """The model-solve mode for the k smallest pairs of ``op``, and a
    one-line reason.

    ``mode`` passes through when given.  Otherwise ``DENSE_FULL`` up to
    ``DENSE_CHOICE_LIMIT`` unknowns; above it ``LANCZOS`` (on -A) when
    ||A|| < ``STIFFNESS_LIMIT`` times the Weyl estimate of mu_k, else
    ``SHIFT_INVERT_BOTTOM``.  An operator without both a multiplier and a
    potential part has no estimate and runs shift-invert above the limit.
    """
    if mode is not None:
        return mode, "set in the config"
    size = op.grid.size
    if size <= DENSE_CHOICE_LIMIT:
        return Mode.DENSE_FULL, f"{size} unknowns <= {DENSE_CHOICE_LIMIT}"
    if op.multiplier_part is None or op.potential_part is None:
        return Mode.SHIFT_INVERT_BOTTOM, (
            f"{size} unknowns > {DENSE_CHOICE_LIMIT}, no parts for a stiffness estimate"
        )
    scale = _operator_scale(op)
    mu = weyl_estimate(op.multiplier_part, op.potential_part, k)
    ratio = scale / mu if mu > 0 else np.inf
    stiff = ratio >= STIFFNESS_LIMIT
    reason = (
        f"|A| <= {scale:.4g}, Weyl mu_{k} ~ {mu:.4g}: ratio {ratio:.4g} "
        f"{'>=' if stiff else '<'} {STIFFNESS_LIMIT:g}"
    )
    return (Mode.SHIFT_INVERT_BOTTOM if stiff else Mode.LANCZOS), reason


def smallest_eigenpairs(op: HermitianOperator, settings: SolveSettings) -> list[EigenPair]:
    """The k smallest eigenpairs, ascending, for positive model-type
    operators.

    ``LANCZOS`` runs the top solve's Lanczos on -A, locking at the
    certification threshold; ``DENSE_FULL`` materializes the operator;
    ``SHIFT_INVERT_BOTTOM`` runs Lanczos on (A + shift)^-1 with inner CG
    solves.  Without an explicit mode, :func:`bottom_mode` picks one from
    the grid size and the stiffness of ``op``.  Raises ``ValueError`` for
    k above the grid size in every mode.
    """
    mode, _ = bottom_mode(op, settings.k, settings.mode)
    return _extreme_pairs(op, settings, mode, "smallest")


def certify(op: HermitianOperator, pairs: list[EigenPair], tol: float) -> CertReport:
    """Recompute norms, residuals and pairwise orthogonality from scratch.

    ``tol`` has the same scale-relative meaning as in
    :class:`SolveSettings`, so pairs returned by a solve at a given
    tolerance certify at that tolerance.
    """
    norm_dev = 0.0
    max_res = 0.0
    for pair in pairs:
        norm_dev = max(norm_dev, abs(norm(pair.vector) - 1.0))
        applied = op.apply(pair.vector)
        res_vec = applied.values - pair.value * pair.vector.values
        max_res = max(
            max_res, float(np.sqrt(op.grid.cell_volume) * np.linalg.norm(res_vec.ravel()))
        )
    gram_off = 0.0
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            gram_off = max(gram_off, abs(inner(pairs[i].vector, pairs[j].vector)))
    threshold = tol * _operator_scale(op)
    return CertReport(
        norms_ok=norm_dev <= 1e-10,
        residuals_ok=max_res <= threshold,
        orthogonality_ok=gram_off <= 1e-8,
        max_norm_deviation=norm_dev,
        max_residual=max_res,
        max_gram_offdiagonal=gram_off,
    )


def cluster_eigenvalues(values, tol: float, factor: float = 1e3) -> list[list[int]]:
    """Group indices of eigenvalues that agree within factor*tol.

    Degenerate levels (guaranteed by symmetry in d >= 2) are only defined
    up to rotation inside a cluster, so comparisons should use cluster
    sums or traces, not individual vectors.
    """
    clusters: list[list[int]] = []
    for i, val in enumerate(values):
        if clusters and abs(val - values[clusters[-1][-1]]) <= factor * tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters
