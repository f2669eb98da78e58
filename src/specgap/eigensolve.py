"""Hermitian eigensolvers with residual certification.

Three modes:

* ``LANCZOS`` -- Lanczos with full reorthogonalization and thick
  restarts, with deflation of converged pairs until the requested
  extreme eigenpairs are certified.  It serves both ends of the
  spectrum: the largest pairs of A, and the smallest as the largest of
  -A.  Grid sizes here are modest, so full (not selective)
  reorthogonalization is used throughout; ghost eigenvalues would poison
  an asymptotic sweep.  Each new Krylov vector is orthogonalized against
  the locked vectors and the cycle basis at once (classical Gram-Schmidt
  over one 2-D array) in one pass, and in a second only when the first
  cut its norm below 1/sqrt(2) of its norm on entry (the
  Daniel-Gragg-Kaufman-Stewart test).  Every cycle runs band Lanczos
  (Ruhe, *Math. Comp.* 33, 1979) from its start rows: one random row
  outside the locked span, or, for the first cycle of an operator that
  carries a ``guess`` (flat rows spanning an estimate of the wanted
  eigenvectors), the guess rows outside it, at most half the cycle's cap
  of them.  One basis row enters per step, with the same arithmetic for
  every start; a start of b rows couples each row to the b before it, so
  the projected matrix is banded (tridiagonal for one row), and the rows
  not yet applied go through one stacked apply.  A cycle's basis holds
  at most a cap of rows that depends only on the grid size and the
  wanted count: about 2^17 / size, where one more row of
  reorthogonalization costs about one apply (20 rows at 80^2, 128 at
  N = 1024; a grid of at most 362 unknowns never restarts).  A cycle from
  several rows does not restart: once its basis is full or the budget is
  spent, it locks the leading wanted pairs whose estimates meet the
  target.  A full basis of a one-row cycle is restarted in Krylov-Schur
  fashion (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 2000; Stewart,
  SIAM J. Matrix Anal. Appl. 23, 2001): leading wanted pairs that
  have converged are locked, the other wanted Ritz vectors and a quarter
  of the remaining rows' worth of unwanted ones are kept with the
  residual vector, and the kept vectors are rotated into a Lanczos
  chain, so the projected matrix stays tridiagonal.  Where the rate at
  which the estimates fall across restarts would not reach the target
  within the whole complement of the locked span, or within half the
  remaining budget, the cap doubles instead; at the complement the cycle
  is plain Lanczos, exact over the complement.  One test ends a cycle
  and decides what it locks: once the Ritz residual estimates of the
  wanted pairs (the norms of their couplings to the rows after the
  basis, beta_m*|s_m,i| for one row) are below a tenth of the lock
  tolerance (or once the basis spans an invariant subspace, the whole
  complement at most) it locks all of them; cut by the step budget, it
  locks only what its restarts, or its full basis of several rows,
  locked.  With full reorthogonalization the estimates are the residuals
  up to rounding (Parlett 1998); the certification below is the one
  explicit residual check.  The test solves the banded Ritz problem, so
  it runs on a schedule, not at every step: the estimates fall about
  geometrically, and a failed test puts the next one half way to the
  step where the rate since the test before reaches the target, at most
  one step further off than the last gap (Saad, *Numerical Methods for
  Large Eigenvalue Problems*, SIAM 2011, ch. 6).  A full basis and the
  last step of a budget-cut cycle are always tested.  Once k pairs are
  locked, a completeness probe runs one more cycle, from a random start.
  A value beyond the k-th locked one (a degenerate copy the earlier
  cycles could not see, or a level the guess missed) is locked and the
  probe repeats; otherwise the solve is done.  The guess only starts the
  first cycle: the random probe alone vouches for completeness, and a
  poor guess costs applies, never a pair.
* ``DENSE_FULL`` -- materialize the operator and hand it to ``eigh``;
  permitted only up to ``DENSE_SIZE_LIMIT`` unknowns.  An operator whose
  multiplier and potential parts are both even samples commutes with the
  grid's point reflection j -> -j mod N on every axis, so its
  eigenvectors can be taken even or odd.  Its n x n matrix is never
  built: the even and the odd block are materialized apart, on the
  symmetry-adapted columns e_i at the fixed nodes of the reflection
  (2^d of them for even N; even block only) and
  (e_i +- e_mirror(i))/sqrt(2) for the node pairs (Fassler & Stiefel,
  *Group Theoretical Methods and Their Applications*, 1992).  Each block
  has about n/2 unknowns, so the two eigh calls do about a quarter of
  the work of one on the whole matrix.  Any other operator (a part that
  is not even, or a sandwich, which carries no parts) runs the same
  loop over one block, the whole space, on the identity columns.  A
  block is built by applying the operator to a stack of columns per
  call, into a Fortran-ordered matrix that LAPACK then overwrites; it is
  not symmetrized, since ``eigh`` reads only its lower triangle.  The
  min(k, block size) extreme eigenvectors of each block, lifted back to
  the grid, span the wanted pairs.
* ``SHIFT_INVERT_BOTTOM`` -- the same Lanczos core on (A + c I)^-1 with
  inner conjugate-gradient solves, matrix-free, preconditioned by the
  inverse of the operator's multiplier part; only operators that carry
  their parts (model and multiplier-plus-potential operators) run it.

Both spectrum ends and all three modes go through one routine with one
k rule: any 1 <= k <= size is valid in every mode (Lanczos run over the
whole complement of the locked span is exact), and a larger k is a
``ValueError``.  The locked Lanczos rows (of A, of -A or of the inverse)
or the dense blocks' eigenvectors span the wanted pairs; one
Rayleigh-Ritz step against the operator itself gives the values,
vectors and residuals of the k extreme Ritz pairs over that span, and
those are what the solve returns and certifies.

A ``real`` operator (even multiplier samples) runs in real arithmetic
throughout: float64 start vectors, Krylov bases, dense matrices and CG
solves, and float64 eigenvectors.  Other operators run in complex128.

:func:`bottom_mode` is the one place that picks the mode of a
model-operator solve.  Up to ``DENSE_CHOICE_LIMIT`` (1024) unknowns it
materializes.  Above that, plain Lanczos on -A converges at a rate set
by the wanted gap against the spread of the spectrum (Parlett, *The
Symmetric Eigenvalue Problem*, SIAM 1998), so the choice rests on the
stiffness ratio ||A|| / mu_k, with mu_k estimated by Weyl's law from the
multiplier and potential samples (:func:`weyl_estimate`).  Lanczos runs
below ``STIFFNESS_LIMIT`` (500).  From there on a stiff operator runs
dense while its larger parity block has at most ``DENSE_CHOICE_LIMIT``
unknowns, and shift-invert beyond; an operator without the parts has
neither the estimate nor the preconditioner, and runs Lanczos.

The rule is a heuristic, and on the grids that
:func:`~specgap.asymptotics.suggest_grid` picks it often misses.  Model
solves of symbol ``gaussian_power(p)`` with the Gaussian weight
``gaussian_power(2)``, tol 1e-9, one BLAS thread on a 2-core x86 box, in
seconds ("split dense" is the dense path in parity blocks, forced):

    d, p, k      grid, ratio -> mode picked        Lanczos  shift-invert  split dense
    1, 4, 32     2048, L=167, 548 -> shift-invert   4.50     3.87          0.258
    1, 2, 16     2048, L=42, 206 -> Lanczos         0.416    -             0.229
    1, 1, 3      2048, L=13, 126 -> Lanczos         0.047    -             0.215
    2, 4, 1      128^2, L=13, 4.3e4 -> shift-invert 2.37     1.02          -
    2, 4, 3      128^2, L=19, 4712 -> shift-invert  1.96     3.50          -
    2, 4, 6      128^2, L=25, 1111 -> shift-invert  2.31     5.73          -
    3, 4, 4      128^3, L=22, 4962 -> shift-invert  693      > 846 CPU-s   -

It picks a slower mode on five of these seven grids: split dense is 15x
faster on the first row and 1.8x on the second; Lanczos is 1.8x and
2.5x faster on the d=2 rows with k=3 and k=6, and at least 1.2x in
d=3.  A rule on size alone (dense while each parity block fits, else
Lanczos) would lose instead: 2.3x on the d=2 row with k=1 and 4.6x on
the p=1 row.

All randomness flows from the seed in :class:`SolveSettings`; identical
settings produce bit-identical results within one build.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
from scipy.sparse.linalg import LinearOperator, cg

from .grid import StateVector
from .operators import HermitianOperator, _is_even, fourier_multiplier

__all__ = [
    "Mode",
    "SolveSettings",
    "EigenPair",
    "NoConvergenceError",
    "InnerSolveStallError",
    "largest_eigenpairs",
    "smallest_eigenpairs",
    "bottom_mode",
    "weyl_estimate",
    "DENSE_SIZE_LIMIT",
]

# Materialization cap of the dense path.
DENSE_SIZE_LIMIT = 4096
# bottom_mode materializes up to this many unknowns ...
DENSE_CHOICE_LIMIT = 1024
# ... and above it runs plain Lanczos on -A while ||A|| < STIFFNESS_LIMIT * mu_k,
# and a stiffer operator dense while no block of the dense path is larger.
STIFFNESS_LIMIT = 500.0
# Shift-invert runs Lanczos on (A + _SHIFT I)^-1; model operators are
# positive, so the inverse has norm <= 1/_SHIFT.
_SHIFT = 1.0
# CG iteration cap of one shift-invert inner solve.
INNER_MAX_ITERATIONS = 50000
# materialize_dense applies the operator to this many columns per call:
# one batched FFT instead of one call per column, whose argument handling
# dominates a small transform.  More rows per block save little and raise
# the peak memory of the block's FFT buffers.
_DENSE_BLOCK = 16


class Mode(enum.Enum):
    """A solve's mode; each value is its word in ``[solver] model_mode``."""

    LANCZOS = "lanczos"
    DENSE_FULL = "dense"
    SHIFT_INVERT_BOTTOM = "shift_invert"


@dataclass(frozen=True)
class SolveSettings:
    """Knobs for a single eigensolve.

    ``k`` is the number of pairs; every mode accepts any 1 <= k <= the
    grid size, and a solve raises ``ValueError`` for a larger k.
    ``tol`` is the residual tolerance relative to the operator's
    spectral scale: a pair certifies when ||A v - value*v|| does not
    exceed tol * max(1, |upper_bound|).  For the sandwiched operators
    (norm <= 1) this coincides with an absolute tolerance.

    The class owns the ranges of its fields: 1 <= k, 0 < tol <= 1e-2,
    1 <= max_iterations and 0 <= rng_seed; anything else raises
    ``ValueError`` with the field's name first.  NaN fails every check.
    """

    k: int = 1
    tol: float = 1e-9
    max_iterations: int = 6000
    rng_seed: int = 74082
    mode: Mode | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not 0 < self.tol <= 1e-2:
            raise ValueError(f"tol must lie in (0, 1e-2], got {self.tol}")
        if not self.max_iterations >= 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.rng_seed >= 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


@dataclass
class EigenPair:
    value: float
    vector: StateVector
    residual: float


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


class InnerSolveStallError(NoConvergenceError):
    """Inner conjugate-gradient solve hit its iteration cap; its
    ``best_residuals`` are empty."""

    def __init__(self, achieved_residual: float, iterations: int):
        super().__init__(
            f"inner CG stalled at relative residual {achieved_residual:.3e} "
            f"after {iterations} iterations"
        )
        self.achieved_residual = achieved_residual
        self.iterations = iterations


# ---------------------------------------------------------------------------
# Lanczos core (full reorthogonalization, thick restarts, deflation)
# ---------------------------------------------------------------------------

# A cycle stops and locks its wanted Ritz pairs once every residual estimate
# (beta_m * |s_{m,i}| in a one-row cycle) is below this fraction of the lock
# tolerance.
_CONVERGED = 0.1
# The Daniel-Gragg-Kaufman-Stewart test (Math. Comp. 30, 1976; Parlett,
# *The Symmetric Eigenvalue Problem*, SIAM 1998, ch. 6): a classical
# Gram-Schmidt pass that keeps at least this fraction of the vector's norm
# leaves it orthogonal to working precision; only one that cancels more of
# it needs a second pass.
_DGKS = 1 / np.sqrt(2)
# The Ritz test costs as much as reorthogonalization, and the estimates fall
# about geometrically, so a failed test schedules the next one this fraction
# of the way to the step where the rate since the test before reaches the
# target (see _test_gap).
_TEST_AHEAD = 0.5
# A cycle's basis holds at most _cycle_cap rows; see there for this product of
# rows and grid size.
_CAP_AREA = 2**17
# A restart keeps the wanted Ritz pairs and this fraction of the other rows
# as unwanted ones.  Measured against a third and a half, a quarter gave the
# fastest solves on the d=2 Gaussian models at 48^2 and 80^2 and on 1-D
# Gaussian models with 2048 and 4096 nodes.
_KEEP = 0.25


def _cycle_cap(size: int, want: int) -> int:
    """The basis rows that a cycle for ``want`` pairs on ``size`` unknowns
    holds before it restarts.

    One step reorthogonalizes against every row, at a cost of about rows *
    size, while an apply costs about size * log(size) plus a fixed call
    overhead that dominates small grids.  One more row costs about as much
    as one apply where rows * size reaches ``_CAP_AREA``: measured on a
    2-core box with one BLAS thread, one classical Gram-Schmidt pass costs
    as much as one model apply at rows * size = 0.75e5 to 1.2e5 for
    N = 256 to 4096 in 1-D and for 48^2 and 80^2, and at 1.7e5 and 2.3e5
    for 20^3 and 128^2.  So the cap is 20 rows at 80^2, 56 at 48^2 and
    128 at N = 1024, and a grid of at most 362 unknowns never restarts.
    At least 2 * want + 10 rows leave a restart room for the wanted pairs
    and some unwanted ones."""
    return max(2 * want + 10, _CAP_AREA // size)


def _norm2(a: np.ndarray) -> float:
    # np.linalg.norm's own arithmetic, without its argument handling.
    a = a.ravel()
    if a.dtype.kind == "c":
        return math.sqrt(a.real.dot(a.real) + a.imag.dot(a.imag))
    return math.sqrt(a.dot(a))


def _project_out(w: np.ndarray, rows: np.ndarray) -> float:
    """Remove from the flat vector ``w``, in place, its components along the
    orthonormal ``rows``, and return the norm of what is left.

    One classical Gram-Schmidt pass, one product with the whole block; a
    second pass runs only when the first cut the norm of ``w`` below
    ``_DGKS`` times its norm on entry."""
    nw = _norm2(w)
    if len(rows):
        entry = nw
        w -= (rows @ w.conj()).conj() @ rows
        nw = _norm2(w)
        if nw < _DGKS * entry:
            w -= (rows @ w.conj()).conj() @ rows
            nw = _norm2(w)
    return nw


class _Rows:
    """Locked vectors followed by the current cycle's basis rows, those
    taken and then those not yet taken, as the rows of one 2-D array
    with at most one row per grid node."""

    def __init__(self, size: int, dtype):
        self.array = np.empty((0, size), dtype=dtype)
        self.locked = 0

    def reserve(self, cap: int, used: int) -> None:
        """Make room for ``cap`` basis rows and one more row after the
        locked ones; a larger array keeps the first ``used`` rows."""
        count = min(self.locked + cap + 1, self.array.shape[1])
        if count > len(self.array):
            grown = np.empty((count, self.array.shape[1]), dtype=self.array.dtype)
            grown[:used] = self.array[:used]
            self.array = grown

    def lock(self, y: np.ndarray) -> None:
        # A Ritz vector of the cycle just run: its row is a basis row, so it fits.
        self.array[self.locked] = y
        self.locked += 1

    def start(self, candidates: np.ndarray) -> int:
        """Orthonormalize the flat ``candidates`` rows, in place and in
        order, outside the locked rows into the first basis rows, dropping
        each one that keeps at most 1e-8 of its norm; return how many are
        kept."""
        kept = 0
        for row in candidates:
            entry = _norm2(row)
            left = _project_out(row, self.array[: self.locked + kept])
            if left > 1e-8 * entry:
                self.array[self.locked + kept] = row / left
                kept += 1
        return kept


def _leading_ritz(band: np.ndarray, count: int):
    """The ``count`` largest eigenvalues (descending) of the projected
    matrix T over m basis rows, given as its lower band of m columns,
    band[d, j] = T[j + d, j], and their eigenvectors as columns.

    A tridiagonal T, the band of every single-vector cycle, goes to
    ``eigh_tridiagonal``.  ``eig_banded`` is faster per call on it (29
    against 39 us at m = 20, one BLAS thread), but its values and vectors
    differ in the last bits, and those reach every model solve's mu."""
    m = band.shape[1]
    select = {"select": "i", "select_range": (m - count, m - 1)}
    if len(band) == 2:
        theta, s_mat = sla.eigh_tridiagonal(band[0], band[1, : m - 1], **select)
    else:  # m columns hold at most m diagonals
        theta, s_mat = sla.eig_banded(band[:m], lower=True, **select)
    return theta[::-1], s_mat[:, ::-1]


def _estimates(band: np.ndarray, m: int, top: int, s_mat: np.ndarray) -> np.ndarray:
    """The residual estimates of the Ritz vectors whose coefficients over
    the first ``m`` basis rows are the columns of ``s_mat``: the norms of
    their couplings, through the lower ``band`` of T (as in
    :func:`_leading_ritz`), to the basis rows m to top - 1 (Ruhe, *Math.
    Comp.* 33, 1979); beta_m * |s_m,i| for a tridiagonal band."""
    b = len(band) - 1
    if b == 1:
        return band[1, m - 1] * np.abs(s_mat[-1])
    cols = np.arange(max(0, m - b), m)
    d = np.arange(m, top)[:, None] - cols  # T[i, c] is band[d, c] where d <= b
    coupling = np.where(d <= b, band[np.minimum(d, b), cols], 0)
    return np.linalg.norm(coupling @ s_mat[cols[0] :], axis=0)


def _chain(theta: np.ndarray, coupling: np.ndarray):
    """Rotate Ritz pairs into a Lanczos chain that ends at the residual row.

    The kept Ritz vectors y_i satisfy A y_i = theta_i y_i + coupling_i r
    for the residual row r: an arrow, not a tridiagonal matrix.  The
    Householder reduction of the arrow with r first fixes r (Golub & Van
    Loan, *Matrix Computations*, 4th ed., 2013, sec. 8.3.1), so the
    rotated vectors, taken last to first, form a chain in which only the
    last one couples to r.  Returns the rotation ``u`` (the new vectors
    are y @ u) and the chain's diagonal and off-diagonal, whose last entry
    couples to r; the projected matrix stays tridiagonal across a restart."""
    arrow = np.diag(np.concatenate(([0.0], theta)))
    arrow[0, 1:] = arrow[1:, 0] = coupling
    h, q = sla.hessenberg(arrow, calc_q=True)
    off = np.diag(h, -1)
    return q[1:, :0:-1], np.diag(h)[:0:-1], np.append(off[:0:-1], off[0])


def _test_gap(last_step: int, last_worst: float, step: int, worst: float,
              stop_tol: float) -> int:
    """Steps from a failed Ritz test at ``step``, whose worst estimate is
    ``worst``, to the next one, given the test before it.

    While the estimates fall, the next test comes ``_TEST_AHEAD`` of the
    way to where their rate since the last test reaches ``stop_tol``, but
    at most one step later than the gap between the last two tests: a rate
    measured across a plateau is near 0 and would skip far past the target.
    Otherwise (no earlier test, estimates that did not fall, or
    ``stop_tol`` 0) the next step is tested."""
    if not last_worst > worst >= stop_tol > 0:
        return 1
    gap = step - last_step
    rate = math.log(last_worst / worst) / gap
    if rate == 0:  # two estimates one rounding apart
        return 1
    return max(1, min(int(_TEST_AHEAD * math.log(worst / stop_tol) / rate), gap + 1))


def _stalls(first, step: int, best: float, stop_tol: float, cap: int, limit: int) -> bool:
    """Whether a cycle whose basis of ``cap`` rows is full at ``step``
    should grow it rather than restart.

    It should when, at the rate its worst estimate fell from its first
    restart, ``first`` = (step, worst), to the ``best`` estimate of its
    full bases since, it would reach ``stop_tol`` only after ``limit``
    steps.  The rate is read only over at least ``cap`` steps, since the
    estimates do not fall steadily, and never with ``stop_tol`` 0."""
    if first is None or step - first[0] < cap or stop_tol <= 0:
        return False
    rate = math.log(first[1] / best) / (step - first[0])
    return rate <= 0 or step + math.log(best / stop_tol) / rate > limit


def _restart(rows: _Rows, m: int, band: np.ndarray, want: int, stop_tol: float):
    """Thick-restart a full basis: the ``m`` rows after the locked ones,
    whose tridiagonal matrix has the diagonal ``band[0, :m]`` and the
    off-diagonal ``band[1, :m]`` (its last entry couples row m to the
    residual row after it).

    Locks the leading wanted Ritz pairs whose estimates meet ``stop_tol``
    and keeps the next wanted ones and ``_KEEP`` of the other rows as
    unwanted ones, rotated into a chain by :func:`_chain` whose band
    overwrites the first columns of ``band``, with the residual row moved
    up behind them.  Returns the locked values and the chain's length."""
    keep = want + int(_KEEP * (m - want))
    theta, s_mat = _leading_ritz(band[:, :m], keep)
    coupling = band[1, m - 1] * s_mat[-1]
    # The first unmet estimate; the Ritz test before found one.
    done = int(np.argmin(np.abs(coupling[:want]) < stop_tol))
    u, band[0, : keep - done], band[1, : keep - done] = _chain(theta[done:], coupling[done:])
    arr, base = rows.array, rows.locked
    turn = np.concatenate([s_mat[:, :done], s_mat[:, done:] @ u], axis=1)
    arr[base : base + keep] = turn.T @ arr[base : base + m]
    arr[base + keep] = arr[base + m]
    rows.locked += done
    return theta[:done].tolist(), keep - done


@dataclass
class _Cycle:
    """What a Lanczos cycle leaves: the leading Ritz values ``theta`` and
    their eigenvectors ``s_mat`` of the banded projected matrix over the
    ``m`` basis rows after the locked ones, their residual ``estimates``,
    whether they are final (``converged``), the values it ``locked`` on its
    own (at restarts, or at the end of a wide start), and its ``steps``
    (applies), ``restarts`` and largest ``cap``."""

    theta: np.ndarray
    s_mat: np.ndarray
    m: int
    estimates: np.ndarray
    converged: bool
    locked: list[float]
    steps: int
    restarts: int
    cap: int


def _lanczos_cycle(apply_values, shape, rows: _Rows, start: np.ndarray, max_steps: int,
                   want: int, stop_tol: float) -> _Cycle:
    """Run band Lanczos (Ruhe, *Math. Comp.* 33, 1979) from the flat
    ``start`` rows, reorthogonalizing each new vector against the locked
    rows and the basis so far.

    :meth:`_Rows.start` orthonormalizes at most half the cap of the start
    rows outside the locked ones; the number b it keeps is the band
    width, and a start of one row is single-vector Lanczos.  Each step
    takes the next basis row q: alpha = <q, A q>; from A q - alpha q it
    removes the known couplings to the b rows before q, and records and
    removes the coefficients along the rows after q that are already in
    the basis; :func:`_project_out` then leaves the next basis row.  A
    new row that keeps at most 1e-14 of the largest entry seen, or that
    the complement of the locked rows has no room for, narrows the band;
    once no row is left to take, the basis spans an invariant subspace.
    When every applied row is taken, the basis rows not yet applied go
    through one stacked apply, as many as fit in the cap and in
    ``max_steps``; each counts as one step.  The projected matrix T is
    kept as its lower band; for b = 1 its rows 0 and 1 are the Lanczos
    alphas and betas.

    The basis holds at most ``_cycle_cap(size, want)`` rows after the
    locked ones, and the rows not yet taken follow it.  A full basis of a
    single-vector cycle is tested and, unless the test passes, restarted
    by :func:`_restart` (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 2000;
    Stewart's Krylov-Schur form, SIAM J. Matrix Anal. Appl. 23, 2001),
    which may lock leading pairs; T stays tridiagonal, so a Ritz test
    costs O(rows) at any basis size, not a dense eigensolve.  Where
    :func:`_stalls` finds that restarts would need more steps than the
    whole complement of the locked rows, or than half of ``max_steps``,
    the cap doubles instead, up to the complement, where the cycle no
    longer restarts.  A wider start never restarts: once its basis is
    full or ``max_steps`` is spent, it locks the leading wanted pairs
    whose estimates meet ``stop_tol`` and stops.

    Stops after ``max_steps`` steps, when no row is left to take, or once
    the leading wanted Ritz pairs have residual estimates
    (:func:`_estimates`) below ``stop_tol``.  The estimates are tested
    only when every applied row is taken: at the steps :func:`_test_gap`
    schedules (from step ``want`` on), at every full basis and at step
    ``max_steps``, so a cycle stops only at a step whose test passed;
    ``stop_tol`` 0 tests every step.  A start with no row outside the
    locked ones returns at once, with 0 steps and not converged.
    """
    size = rows.array.shape[1]
    cap = _cycle_cap(size, want)
    start = start[: cap // 2]
    rows.reserve(cap + len(start) - 1, rows.locked)
    top = width = rows.start(start)  # top: the basis rows after the locked ones
    if not width:
        return _Cycle(np.empty(0), np.empty((0, 0)), 0, np.empty(0), False, [], 0, 0, cap)
    arr, base = rows.array, rows.locked
    limit = min(size - base, max_steps // 2)
    band = np.zeros((width + 1, cap), dtype=arr.dtype if width > 1 else np.float64)
    locked: list[float] = []
    scale = 1.0
    converged = False
    m = steps = restarts = 0  # m: the basis rows taken, over which T is known
    pending = 0  # the rows of the last apply not yet taken
    next_test, tested = want, (0, 0.0)  # (step, worst estimate) of the last Ritz test
    first, best = None, math.inf  # (step, worst) at the first restart; least worst since
    while True:
        if not pending:  # apply the basis rows not yet applied, as many as fit
            pending = min(top, cap, m + max_steps - steps) - m
            new = arr[base + m : base + m + pending]
            applied = apply_values(new.reshape(pending, *shape) if pending > 1 else new.reshape(shape))
            applied = applied.reshape(pending, size)
            steps += pending
        q, av = arr[base + m], applied[-pending]
        pending -= 1
        alpha = float(np.vdot(q, av).real)
        band[0, m] = alpha
        w = av - alpha * q
        # The known couplings to the rows before, so that _project_out removes
        # only what rounding left and rarely needs its second pass.
        for d in range(1, min(m, width) + 1):
            w -= band.item(d, m - d).conjugate() * arr[base + m - d]
        if top > m + 1:  # the basis rows after q
            ahead = arr[base + m + 1 : base + top]
            band[1 : top - m, m] = ahead.conj() @ w
            w -= band[1 : top - m, m] @ ahead
        beta = _project_out(w, arr[: base + top])
        scale = max(scale, abs(alpha), beta)
        fits = beta > 1e-14 * scale and base + top < size
        band[top - m, m] = beta if fits else 0.0  # else the band narrows
        m += 1
        if fits:
            arr[base + top] = w / beta
            top += 1
        elif top == m:
            converged = True  # an invariant subspace, or the whole complement
            break
        if pending:
            continue
        if steps >= next_test or steps == max_steps or m == cap:
            theta, s_mat = _leading_ritz(band[:, :m], min(m, want))
            estimates = _estimates(band, m, top, s_mat)
            worst = float(np.max(estimates))
            next_test = steps + _test_gap(*tested, steps, worst, stop_tol)
            tested = (steps, worst)
            if worst < stop_tol:
                converged = True
                break
        if width > 1 and (steps == max_steps or m == cap):
            # A wide start does not restart: it locks the leading pairs that met the target.
            met = int(np.argmin(np.append(estimates < stop_tol, False)))
            _lock(rows, theta[:met], s_mat[:, :met], m, locked)
            break
        if steps == max_steps:
            break
        if m < cap:
            continue
        best = min(best, worst)
        if _stalls(first, steps, best, stop_tol, cap, limit):
            band = np.pad(band, ((0, 0), (0, cap)))
            cap *= 2  # grow the basis instead of restarting it
        else:
            first = first or (steps, worst)
            values, m = _restart(rows, m, band, want, stop_tol)
            locked += values
            base, want, top = rows.locked, want - len(values), m + 1
            restarts += 1
        rows.reserve(cap, base + top)
        arr = rows.array
    if tested[0] != steps:  # the band closed, or a cycle shorter than want
        theta, s_mat = _leading_ritz(band[:, :m], min(m, want))
        estimates = _estimates(band, m, top, s_mat)
    return _Cycle(theta, s_mat, m, estimates, converged, locked, steps, restarts, cap)


def _guess_rows(guess: np.ndarray, dtype) -> np.ndarray:
    """The rows of ``guess`` as a new ``dtype`` array; float64 rows take
    the real and then the imaginary part of each complex row."""
    rows = np.asarray(guess).reshape(len(guess), -1)
    if np.iscomplexobj(rows) and dtype == np.float64:
        rows = np.stack([rows.real, rows.imag], axis=1).reshape(-1, rows.shape[1])
    return rows.astype(dtype)


def _lock(rows: _Rows, theta: np.ndarray, s_mat: np.ndarray, m: int,
          values: list[float]) -> None:
    """Lock the Ritz pairs (``theta``, the columns of ``s_mat``) over the
    ``m`` basis rows after the locked ones, appending their values."""
    basis = rows.array[rows.locked : rows.locked + m]
    for y, value in zip(s_mat.T @ basis, theta):
        rows.lock(y / _norm2(y))
        values.append(float(value))


def _lanczos_largest(apply_values, op: HermitianOperator, settings: SolveSettings,
                     lock_tol: float):
    """Return the locked rows, at least ``settings.k`` of them, that span
    the k largest eigenvectors of the Hermitian operator ``apply_values``
    on the grid of ``op`` (``op`` itself, -``op`` or an inverse of it).

    The first cycle starts from the rows of ``op.guess`` when it carries
    one; every other cycle, and the first when no guess row lies outside
    the locked span, from one random row drawn from the settings' seed.
    Every cycle, main or probe, may take the rest of the budget of
    ``max_iterations`` applies, with a basis capped by
    :func:`_cycle_cap`.  One that converged (estimates below
    ``_CONVERGED * lock_tol``, or a basis that spans an invariant
    subspace) locks its wanted Ritz pairs; one that did not locks only
    what it locked on its own.  The random-start cycles take what a
    guessed cycle whose basis filled left; once the step budget is spent,
    the solve raises, naming the steps, the restarts and the largest cap.
    Once k pairs are locked, a probe cycle must find nothing beyond the
    k-th value plus ``lock_tol``; what it does find beyond is locked and
    probed past in turn, so a degenerate copy that the earlier cycles
    could not see is not lost.
    """
    shape, size, k = op.grid.shape, op.grid.size, settings.k
    rng = np.random.default_rng(settings.rng_seed)
    rows = _Rows(size, np.float64 if op.real else np.complex128)
    # Room for the k pairs too, so that the probe cycles reuse the array.
    rows.reserve(k + _cycle_cap(size, k), 0)
    locked_vals: list[float] = []
    steps = restarts = cap = 0
    estimates = ()
    stop_tol = _CONVERGED * lock_tol
    start = None if op.guess is None else _guess_rows(op.guess, rows.array.dtype)
    while True:
        probe = len(locked_vals) >= k
        if probe and rows.locked == size:
            break
        if steps >= settings.max_iterations:
            note = "; completeness probe unfinished" if probe else ""
            raise NoConvergenceError(
                f"{op.label}: no convergence after {steps} Lanczos steps (restarts: "
                f"{restarts}, basis cap: {cap} rows; "
                f"{min(len(locked_vals), k)}/{k} pairs certified{note})",
                best_residuals=estimates,
            )
        want = 1 if probe else k - len(locked_vals)
        if start is None:  # real rows get a real start, which keeps the iteration real
            start = rng.standard_normal((1, size))
            if not op.real:
                start = start + 1j * rng.standard_normal((1, size))
        cycle = _lanczos_cycle(apply_values, shape, rows, start, settings.max_iterations - steps,
                               want, stop_tol)
        start = None
        steps += cycle.steps
        restarts += cycle.restarts
        cap = max(cap, min(cycle.cap, size))
        locked_vals.extend(cycle.locked)
        estimates = cycle.estimates
        if not cycle.converged:
            continue  # cut by the step budget or, from several rows, by its cap
        if probe and cycle.theta[0] <= sorted(locked_vals, reverse=True)[k - 1] + lock_tol:
            break
        _lock(rows, cycle.theta, cycle.s_mat, cycle.m, locked_vals)

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
    count = v_mat.shape[1]
    a_cols = op.apply_values(v_mat.T.reshape(count, *shape)).reshape(count, -1).T
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

@dataclass(frozen=True, eq=False)
class _Block:
    """The unit columns (e_nodes[c] + sign * e_mirrors[c]) * scale[c] that
    span one block of the dense path, on a grid of ``n`` nodes (flat, C
    order).  ``scale`` is 1/sqrt(2) on a node pair and 1/2 where a node is
    its own mirror, whose column (sign +1) is then e_i exactly."""

    nodes: np.ndarray
    mirrors: np.ndarray
    sign: float
    n: int

    @property
    def size(self) -> int:
        return len(self.nodes)

    @cached_property
    def scale(self) -> np.ndarray:
        return np.where(self.nodes == self.mirrors, 0.5, np.sqrt(0.5))

    def columns(self, start: int, stop: int, dtype) -> np.ndarray:
        """Columns ``start`` to ``stop - 1``, as flat rows."""
        scale = self.scale[start:stop]
        rows = np.zeros((len(scale), self.n), dtype=dtype)
        at = np.arange(len(scale))
        rows[at, self.nodes[start:stop]] = scale
        rows[at, self.mirrors[start:stop]] += self.sign * scale
        return rows

    def lift(self, coeffs: np.ndarray) -> np.ndarray:
        """The flat grid vectors, as rows, whose coordinates along the
        columns are the columns of ``coeffs``.  The two values of a pair
        are one value and its copy or its exact negative."""
        rows = np.zeros((coeffs.shape[1], self.n), dtype=coeffs.dtype)
        scaled = coeffs.T * self.scale
        rows[:, self.nodes] = scaled
        rows[:, self.mirrors] += self.sign * scaled
        return rows

    def restrict(self, rows: np.ndarray, out: np.ndarray) -> None:
        """Write the coordinates along the columns of the flat ``rows`` into
        ``out``."""
        combine = np.add if self.sign > 0 else np.subtract
        combine(rows.take(self.nodes, axis=1), rows.take(self.mirrors, axis=1), out=out)
        out *= self.scale


def _whole_space(n: int) -> _Block:
    flat = np.arange(n)
    return _Block(flat, flat, 1.0, n)


def _dense_blocks(op: HermitianOperator) -> list[_Block]:
    """The blocks the dense path solves ``op`` in: the even and the odd
    block when ``op`` commutes with the point reflection j -> -j mod N on
    every axis, which holds when it carries both parts and both are even
    samples; else the whole space."""
    grid = op.grid
    parts = (op.multiplier_part, op.potential_part)
    if any(p is None or not _is_even(p) for p in parts):
        return [_whole_space(grid.size)]
    axes = tuple(range(grid.dimension))
    flat = np.arange(grid.size)
    mirror = np.roll(np.flip(flat.reshape(grid.shape), axes), 1, axes).ravel()
    even, odd = flat[flat <= mirror], flat[flat < mirror]
    return [_Block(even, mirror[even], 1.0, grid.size), _Block(odd, mirror[odd], -1.0, grid.size)]


def materialize_dense(op: HermitianOperator, block: _Block | None = None) -> np.ndarray:
    """The matrix of ``op`` on the span of ``block``'s columns, by default
    the whole space; only for small grids.  The matrix is float64 for a
    ``real`` operator, else complex128, and Fortran-ordered, so LAPACK can
    work on it without a copy.  It is not symmetrized: column c is exactly
    the block's restriction of A s_c, for the block's column s_c (A e_j on
    the whole space), and ``eigh`` reads only the lower triangle.

    The operator is applied to ``_DENSE_BLOCK`` columns per call, and row
    c of the C-ordered result is the restriction of A s_c; its transpose
    is the matrix."""
    n = op.grid.size
    if n > DENSE_SIZE_LIMIT:
        raise ValueError(
            f"dense materialization permitted only up to {DENSE_SIZE_LIMIT} unknowns, got {n}"
        )
    if block is None:
        block = _whole_space(n)
    size = block.size
    shape = op.grid.shape
    dtype = np.float64 if op.real else np.complex128
    rows = np.empty((size, size), dtype=dtype)
    for start in range(0, size, _DENSE_BLOCK):
        count = min(_DENSE_BLOCK, size - start)
        columns = block.columns(start, start + count, dtype)
        applied = op.apply_values(columns.reshape(count, *shape)).reshape(count, n)
        block.restrict(applied, out=rows[start : start + count])
    return rows.T


def _dense_basis(op: HermitianOperator, block: _Block, k: int, which: str) -> np.ndarray:
    """Flat rows spanning the min(k, block size) ``which`` eigenvectors of
    ``op`` on ``block``; the block's matrix lives only for this call."""
    count = min(k, block.size)
    lo = block.size - count if which == "largest" else 0
    _, vecs = sla.eigh(materialize_dense(op, block), subset_by_index=[lo, lo + count - 1],
                       overwrite_a=True)
    return block.lift(vecs)


# ---------------------------------------------------------------------------
# Shift-invert machinery
# ---------------------------------------------------------------------------

def _make_inverse_apply(op: HermitianOperator, settings: SolveSettings):
    """Apply (A + _SHIFT I)^-1 by CG, preconditioned with the exact inverse
    of the stiff multiplier part plus the mean of the potential, which is
    diagonal in frequency.  Without the parts there is no preconditioner,
    and CG on the stiff operator alone does not pay, so an operator that
    lacks them raises ``ValueError``."""
    if op.multiplier_part is None or op.potential_part is None:
        raise ValueError(
            f"{op.label}: shift-invert needs the operator's multiplier_part and "
            f"potential_part for its preconditioner"
        )
    n = op.grid.size
    shape = op.grid.shape

    def shifted_matvec(x: np.ndarray) -> np.ndarray:
        arr = x.reshape(shape)
        return (op.apply_values(arr) + _SHIFT * arr).ravel()

    diag = op.multiplier_part + _SHIFT + float(np.mean(op.potential_part))
    diag = np.maximum(diag, 1e-8 * np.max(np.abs(diag)))
    inverse_diag, _ = fourier_multiplier(1.0 / diag)

    def precond(x: np.ndarray) -> np.ndarray:
        return inverse_diag(x.reshape(shape)).ravel()

    dtype = np.float64 if op.real else np.complex128
    a_op = LinearOperator((n, n), matvec=shifted_matvec, dtype=dtype)
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
    that spans the wanted pairs (eigh's vectors of each dense block, the
    locked Lanczos rows of A or -A, or those of the shift-invert inverse);
    the Rayleigh-Ritz step against ``op`` itself then gives the values,
    vectors and residuals, and every residual must be within
    tol * max(1, |upper_bound|).
    """
    k, size = settings.k, op.grid.size
    if k > size:  # SolveSettings holds k >= 1
        raise ValueError(f"{op.label}: requested {k} pairs from a {size}-dimensional operator")
    threshold = settings.tol * _operator_scale(op)
    if mode is Mode.DENSE_FULL:
        # The k wanted pairs are among the k extreme ones of each block.
        # eigh's values are accurate only to ~eps*|A| (1e-9 for a quartic
        # symbol at N=1024) and move with the BLAS path.  The Ritz values over
        # its vectors, from the applies the residuals need anyway, are off by
        # ~residual^2/gap plus the apply's rounding on a smooth vector.
        basis = np.concatenate([_dense_basis(op, block, k, which) for block in _dense_blocks(op)])
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
    ``DENSE_FULL`` is available as an oracle on small grids and ignores
    ``op.guess``.  A Lanczos solve of an operator with a ``guess`` starts
    its first cycle from the guess rows; only the random completeness
    probe after it vouches that no pair is missed, so the guess changes
    the applies, not what is certified.  Raises
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
    ``DENSE_CHOICE_LIMIT`` unknowns.  Above it ``LANCZOS`` (on -A) when
    ||A|| < ``STIFFNESS_LIMIT`` times the Weyl estimate of mu_k; a stiffer
    operator runs ``DENSE_FULL`` when each block of the dense path (the
    two parity blocks of a reflection-invariant operator) has at most
    ``DENSE_CHOICE_LIMIT`` unknowns, else ``SHIFT_INVERT_BOTTOM``.  An
    operator without parts, a sandwich, has neither the estimate nor
    shift-invert's preconditioner, and runs ``LANCZOS`` above the limit.
    The reason names the parity blocks whenever the choice is dense.
    The limits are heuristic: the module docstring lists auto grids
    where this rule picks a slower mode.
    """
    if mode is not None:
        return mode, "set in the config"
    size = op.grid.size
    # A grid over the materialization cap has no dense path to split.
    blocks = [b.size for b in _dense_blocks(op)] if size <= DENSE_SIZE_LIMIT else [size]
    split = f"; parity blocks {blocks[0]} + {blocks[1]}" if len(blocks) == 2 else ""
    if size <= DENSE_CHOICE_LIMIT:
        return Mode.DENSE_FULL, f"{size} unknowns <= {DENSE_CHOICE_LIMIT}{split}"
    if op.multiplier_part is None or op.potential_part is None:
        return Mode.LANCZOS, (
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
    if not stiff:
        return Mode.LANCZOS, reason
    if max(blocks) <= DENSE_CHOICE_LIMIT:
        return Mode.DENSE_FULL, f"{reason}{split} <= {DENSE_CHOICE_LIMIT} each"
    return Mode.SHIFT_INVERT_BOTTOM, reason


def smallest_eigenpairs(op: HermitianOperator, settings: SolveSettings) -> list[EigenPair]:
    """The k smallest eigenpairs, ascending, for positive model-type
    operators.

    ``LANCZOS`` runs the top solve's Lanczos on -A, locking at the
    certification threshold; ``DENSE_FULL`` materializes the operator;
    ``SHIFT_INVERT_BOTTOM`` runs Lanczos on (A + shift)^-1 with inner
    preconditioned CG solves.  Without an explicit mode, :func:`bottom_mode`
    picks one from the grid size and the stiffness of ``op``.  Raises
    ``ValueError`` for k above the grid size in every mode, and for
    ``SHIFT_INVERT_BOTTOM`` on an operator without parts.
    """
    mode, _ = bottom_mode(op, settings.k, settings.mode)
    return _extreme_pairs(op, settings, mode, "smallest")
