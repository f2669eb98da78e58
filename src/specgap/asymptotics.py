"""Alpha sweeps, scaled spectral gaps, extrapolation and verdicts.

The central quantity is the scaled spectral gap

    gap_n(alpha) = alpha^-sigma * (A0*V0^2 - lambda_n(alpha)),

whose limit as alpha -> 0 is the n-th ascending eigenvalue mu_n of the
model operator.  A limit is not machine-checkable, so the law is
restated as a three-part finite-alpha criterion: the final ladder point
must sit within ``rel_final`` of mu_n, the alpha -> 0 limit of the
series limit + c1*alpha^sigma + c2*alpha^(2*sigma) fitted to the ladder
within ``rel_extrap``, and |gap_n - mu_n| must be nonincreasing along
the ladder (the last check is advisory and downgrades to "inconclusive"
rather than failing, since the approach direction at finite alpha is
not guaranteed).  A one-sided bound gap_n <= mu_n*(1+slack) is checked
alongside, matching the limsup inequality the gap satisfies.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from . import __version__ as _pkg_version
from .eigensolve import (
    EigenPair,
    Mode,
    NoConvergenceError,
    SolveSettings,
    bottom_mode,
    largest_eigenpairs,
    smallest_eigenpairs,
)
from .grid import DEFAULT_NODE_BUDGET, Grid, StateVector, build_grid, norm, to_frequency_values
from .operators import (
    ScaledSymbols,
    build_model_operator,
    build_scaled_operator,
    make_scaled_symbols,
    normalized_pair,
    symbol_flatness_form,
    weight_flatness_form,
)
from .profiles import ProfilePair, _sphere_directions

__all__ = [
    "LocalizationMetrics",
    "SweepRecord",
    "ExtrapolationResult",
    "Verdict",
    "VerdictStatus",
    "StudyReport",
    "SweepSettings",
    "suggest_grid",
    "model_spectrum",
    "scaled_gap",
    "alpha_ladder",
    "extrapolate_limit",
    "localization_metrics",
    "run_sweep",
    "verify_limit_law",
    "REPORT_SCHEMA",
]

REPORT_SCHEMA = "specgap.report.v1"


class VerdictStatus(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class LocalizationMetrics:
    """How concentrated an eigenfunction is, in both domains.

    Masses are fractions of the squared norm outside the centered ball
    of each localization radius, in ascending radius order;
    ``k_form``/``s_form`` are the frequency/position flatness forms
    whose sum equals the scaled gap exactly in the discrete model, and
    ``identity_rel_gap`` is the relative defect of that sum.
    ``c_hat_*`` are the empirical constants outside_mass * R^degree / mu
    implied by the localization bounds (the true constants are
    existential, so only these ladders are reported).  The forms and
    ``c_hat_*`` are in the units of the pair whose mu they use; the
    masses and the defect have none.
    """

    position_mass_outside: tuple[float, ...]
    frequency_mass_outside: tuple[float, ...]
    k_form: float
    s_form: float
    identity_rel_gap: float
    c_hat_pos: tuple[float, ...]
    c_hat_freq: tuple[float, ...]


@dataclass(frozen=True)
class SweepRecord:
    alpha: float
    n: int
    lam: float
    scaled_gap: float
    residual: float
    converged: bool = True
    note: str = ""
    localization: LocalizationMetrics | None = None
    vector: object | None = None  # StateVector when the sweep keeps eigenfunctions


@dataclass(frozen=True)
class ExtrapolationResult:
    limit: float
    fit_residual: float
    degenerate: bool = False
    note: str = ""


@dataclass(frozen=True)
class Verdict:
    n: int
    status: VerdictStatus
    mu: float
    final_rel_err: float
    extrap_rel_err: float
    monotone_ok: bool
    one_sided_ok: bool
    reasons: tuple[str, ...] = ()


@dataclass
class StudyReport:
    config: dict
    model_eigenvalues: list[tuple[float, float]]  # (mu, residual), ascending
    records: list[SweepRecord]
    extrapolations: dict[int, ExtrapolationResult]
    verdicts: list[Verdict]
    provenance: dict

    def to_dict(self) -> dict:
        """The ``specgap.report.v1`` payload; keys follow the field order,
        and every non-finite float is None, so the payload is strict JSON."""

        def record(r: SweepRecord) -> dict:
            # Field by field: asdict would deep-copy the eigenvector, which
            # the report leaves out.
            row = {("lambda" if f.name == "lam" else f.name): getattr(r, f.name)
                   for f in fields(r) if f.name != "vector"}
            if r.localization is not None:
                row["localization"] = asdict(r.localization)
            return row

        def finite(value):
            # JSON has no NaN or infinity: a failed solve or a degenerate
            # fit writes null there.
            if isinstance(value, float):
                return value if np.isfinite(value) else None
            if isinstance(value, dict):
                return {key: finite(item) for key, item in value.items()}
            if isinstance(value, (list, tuple)):
                return [finite(item) for item in value]
            return value

        return finite({
            "schema": REPORT_SCHEMA,
            "config": self.config,
            "model_eigenvalues": [
                {"n": i + 1, "mu": mu, "residual": res}
                for i, (mu, res) in enumerate(self.model_eigenvalues)
            ],
            "records": [record(r) for r in self.records],
            "extrapolations": {str(n): asdict(e) for n, e in self.extrapolations.items()},
            "verdicts": [{**asdict(v), "status": v.status.value} for v in self.verdicts],
            "provenance": self.provenance,
        })


@dataclass(frozen=True)
class SweepSettings:
    """Everything a sweep needs besides the pair, the ladder and k.

    ``grid`` and ``solver`` also drive the model step,
    :func:`model_spectrum`: ``solver.mode`` picks the model solve
    (``None`` lets :func:`bottom_mode` choose from the grid size and the
    stiffness of the model operator); the top solves always run
    ``LANCZOS``.  ``solver.k`` is not read: k is the argument of
    :func:`run_sweep` and :func:`model_spectrum`.
    ``config.sweep_settings`` maps a run configuration to these settings.

    The class owns the ranges of its own fields: ``rel_final`` and
    ``rel_extrap`` lie in (0, 1], and the localization ``radii`` are
    positive, finite and distinct as ``{r:g}``, the label of their
    records.csv columns; anything else raises ``ValueError`` with the
    field's name first.
    """

    solver: SolveSettings = field(default_factory=SolveSettings)
    grid: Grid | None = None
    radii: tuple[float, ...] = (2.0, 4.0, 8.0)
    rel_final: float = 0.05
    rel_extrap: float = 0.02
    keep_vectors: bool = False

    def __post_init__(self):
        for name in ("rel_final", "rel_extrap"):
            if not 0 < getattr(self, name) <= 1:
                raise ValueError(f"{name} must lie in (0, 1], got {getattr(self, name)}")
        if not self.radii or not all(0 < r < np.inf for r in self.radii):
            raise ValueError(f"radii must be positive and finite, got {list(self.radii)}")
        if len({f"{r:g}" for r in self.radii}) != len(self.radii):
            raise ValueError(
                f"radii must be distinct to 6 significant digits, got {list(self.radii)}"
            )


def scaled_gap(lam: float, alpha: float, pair: ProfilePair) -> float:
    """alpha^-sigma * (A0*V0^2 - lambda)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return float(alpha ** (-pair.sigma) * (pair.peak_product - lam))


# ---------------------------------------------------------------------------
# Extrapolation
# ---------------------------------------------------------------------------

def alpha_ladder(alphas: Sequence[float]) -> list[float]:
    """The alphas as floats, checked: at least 3 of them, positive,
    finite and strictly decreasing.  NaN fails every check."""
    alphas = [float(a) for a in alphas]
    if len(alphas) < 3:
        raise ValueError(f"the alpha ladder needs at least 3 entries, got {len(alphas)}")
    if not all(0 < a < np.inf for a in alphas):
        raise ValueError("alphas must be positive and finite")
    if not all(b < a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be strictly decreasing")
    return alphas


def extrapolate_limit(
    alphas: Sequence[float], gaps: Sequence[float], sigma: float
) -> ExtrapolationResult:
    """Fit the gap ladder and return its alpha -> 0 limit.

    The model is the series gap(alpha) = limit + c1 * alpha^sigma +
    c2 * alpha^(2*sigma), fitted by least squares (an exact interpolation
    on three points).  This assumes the corrections to the scaled-gap
    law come in integer powers of alpha^sigma.  The paper gives no rate
    for its o(alpha^sigma) remainder; the assumption holds for the
    catalog profiles, whose expansions go in powers of |xi|^gamma and
    |x|^beta, so that after scaling the corrections come in powers of
    alpha^sigma.  Where the alpha^(2*sigma) term is large, a free rate
    drifts away from sigma and biases the limit.

    The alphas must pass :func:`alpha_ladder`.  Non-monotone ladders
    cannot carry the model; they are flagged degenerate and the last gap
    is returned as the limit estimate.  A constant ladder returns its
    value.
    """
    a = np.asarray(alpha_ladder(alphas))
    g = np.asarray(list(gaps), dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("gaps must be finite")
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be positive and finite")

    scale = float(np.max(np.abs(g))) or 1.0
    diffs = np.diff(g)
    if np.all(np.abs(diffs) <= 1e-14 * scale):
        return ExtrapolationResult(limit=float(np.mean(g)), fit_residual=0.0,
                                   note="constant ladder")
    tol_m = 1e-12 * scale
    if not (np.all(diffs >= -tol_m) or np.all(diffs <= tol_m)):
        return ExtrapolationResult(
            limit=float(g[-1]),
            fit_residual=float("nan"),
            degenerate=True,
            note="non-monotone ladder; falling back to the last point",
        )

    design = np.column_stack([np.ones_like(a), a**sigma, a ** (2 * sigma)])
    coef, *_ = np.linalg.lstsq(design, g, rcond=None)
    return ExtrapolationResult(
        limit=float(coef[0]),
        fit_residual=float(np.sqrt(np.mean((design @ coef - g) ** 2))),
        note="fixed-rate fit limit + c1*alpha^sigma + c2*alpha^(2*sigma)",
    )


# ---------------------------------------------------------------------------
# Localization diagnostics
# ---------------------------------------------------------------------------

def localization_metrics(
    pair: ProfilePair,
    symbols: ScaledSymbols,
    eigpair: EigenPair,
    radii: Sequence[float],
    mu: float,
) -> LocalizationMetrics:
    """Outside-masses, flatness forms and the exact gap identity.

    ``pair`` has unit maxima (see
    :func:`~specgap.operators.normalized_pair`); anything else raises
    ``ValueError``.  ``symbols`` are its scaled samples at the alpha of
    the solve, as :func:`model_spectrum` returns them, and give that
    alpha.  ``eigpair`` comes from the scaled-operator solve of ``pair``
    at that alpha, and ``mu`` is the matching model eigenvalue of
    ``pair``, which scales the empirical constants ``c_hat_*``.  Per unit
    squared norm of psi, ``k_form`` is :func:`symbol_flatness_form` of
    W_alpha*psi and ``s_form`` is :func:`weight_flatness_form` of psi;
    their sum is checked against :func:`scaled_gap` of lambda.  All of
    them are in the units of ``pair``, which :func:`run_sweep` converts
    to those of the pair it was given.  Radii may arrive in any order;
    the masses follow them sorted ascending.
    """
    if not pair.a_profile.max_value == pair.v_profile.max_value == 1.0:
        raise ValueError("localization_metrics needs a pair with unit maxima")
    alpha, grid = symbols.alpha, symbols.grid
    radii_sorted = tuple(sorted(float(r) for r in radii))
    psi = eigpair.vector
    total = norm(psi) ** 2

    pos_out = _mass_outside(np.abs(psi.values) ** 2, grid.position_radii,
                            grid.cell_volume, radii_sorted, total)
    frq_out = _mass_outside(np.abs(to_frequency_values(grid, psi.values)) ** 2,
                            grid.frequency_radii, grid.freq_cell_volume, radii_sorted, total)

    theta = StateVector(grid, symbols.weight_values * psi.values)
    k_form = symbol_flatness_form(pair, alpha, theta, symbols=symbols).real / total
    s_form = weight_flatness_form(pair, alpha, psi, symbols=symbols).real / total

    target = scaled_gap(eigpair.value, alpha, pair)
    identity_rel = abs(k_form + s_form - target) / max(abs(target), 1e-300)

    gamma = pair.a_profile.degree
    beta = pair.v_profile.degree
    c_hat_pos = tuple(out * r**beta / mu for out, r in zip(pos_out, radii_sorted))
    c_hat_freq = tuple(out * r**gamma / mu for out, r in zip(frq_out, radii_sorted))

    return LocalizationMetrics(
        position_mass_outside=pos_out,
        frequency_mass_outside=frq_out,
        k_form=k_form,
        s_form=s_form,
        identity_rel_gap=identity_rel,
        c_hat_pos=c_hat_pos,
        c_hat_freq=c_hat_freq,
    )


def _mass_outside(values: np.ndarray, radius_field: np.ndarray, cell_volume: float,
                  radii: Sequence[float], total: float) -> tuple[float, ...]:
    """Share of ``total`` that the density ``values`` puts outside each radius."""
    return tuple(float(cell_volume * np.sum(values[radius_field > r]) / total) for r in radii)


# ---------------------------------------------------------------------------
# Grid choice
# ---------------------------------------------------------------------------

# The suggested box and resolution put both principal walls at this
# multiple of the coarse model-eigenvalue scale.
_WALL_MARGIN = 50.0

# Neither the box half-length nor the top lattice frequency of a
# suggested grid falls below this.
_MIN_REACH = 8.0


def suggest_grid(pair: ProfilePair, k: int) -> tuple[Grid, tuple[str, ...]]:
    """Pick a box size and resolution from the model operator of
    ``pair``; returns the grid and the reasoning behind it.

    After the scaling reduction the top eigenfunctions of every B_alpha
    live where the model symbol V0^2*Psi(xi) + 2*A0*V0*Phi(x) is a few
    model eigenvalues, so one grid serves any alpha ladder.  A coarse
    model solve estimates the k-th model eigenvalue.  The box is sized so
    the potential wall 2*A0*V0*Phi reaches ``_WALL_MARGIN`` times that
    estimate in every sampled direction, stretched by 1.25, and the
    resolution so the multiplier wall V0^2*Psi does the same at the top
    lattice frequency; both reaches are at least ``_MIN_REACH``.  The
    node count is a power of two per axis, halved until it fits the node
    budget.  The coarse estimate runs in the mode :func:`bottom_mode`
    picks: dense on the 128 and 32^2 probes of d = 1, 2, by stiffness on
    the 16^3 of d = 3.  A probe with fewer than k unknowns doubles its
    nodes per axis until it has k.
    """
    d = pair.dimension
    reasoning: list[str] = []

    n_coarse = {1: 128, 2: 32}.get(d, 16)
    while n_coarse**d < k:
        n_coarse *= 2
    coarse = build_grid(d, n_coarse, 10.0)
    pairs = smallest_eigenpairs(
        build_model_operator(pair, coarse),
        SolveSettings(k=k, tol=1e-6, rng_seed=0),
    )
    mu_scale = max(pairs[-1].value, 1e-6)
    reasoning.append(
        f"coarse solve on {coarse.describe()} puts the target eigenvalue scale at {mu_scale:.3g}"
    )
    target = _WALL_MARGIN * mu_scale

    dirs = _sphere_directions(d, 64, seed=3)
    dirs_min_phi = _min_on_sphere(pair.v_profile, dirs)
    dirs_min_psi = _min_on_sphere(pair.a_profile, dirs)
    a0 = pair.a_profile.max_value
    v0 = pair.v_profile.max_value

    # Potential wall 2*A0*V0*Phi(L) >= target.
    L = (target / (2.0 * a0 * v0 * dirs_min_phi)) ** (1.0 / pair.v_profile.degree)
    L = max(_MIN_REACH, float(np.ceil(1.25 * L)))
    reasoning.append(
        f"half_length {L:g} makes the position wall reach {_WALL_MARGIN:g}x the eigenvalue scale"
    )

    # Multiplier wall V0^2*Psi(xi_max) >= target.
    xi_max = max(_MIN_REACH, (target / (v0**2 * dirs_min_psi)) ** (1.0 / pair.a_profile.degree))

    n = 2 ** int(np.ceil(np.log2(max(16.0, 2.0 * L * xi_max / np.pi))))
    while n**d > DEFAULT_NODE_BUDGET and n > 16:
        n //= 2
        reasoning.append(f"halved the resolution to {n} per axis to respect the node budget")
    reasoning.append(
        f"{n} nodes per axis put the top lattice frequency at {np.pi * n / (2 * L):.3g}"
    )
    return build_grid(d, n, L), tuple(reasoning)


def _min_on_sphere(profile, dirs: np.ndarray) -> float:
    vals = np.asarray(profile.principal(dirs), dtype=float)
    vals = vals[np.isfinite(vals) & (vals > 0)]
    return float(vals.min()) if vals.size else 1.0


# ---------------------------------------------------------------------------
# The model step and the sweep
# ---------------------------------------------------------------------------

def model_spectrum(
    norm_pair: ProfilePair, alphas: Sequence[float], k: int, settings: SweepSettings
) -> tuple[Grid, tuple[str, ...], Mode, str, list[EigenPair], list[ScaledSymbols]]:
    """The lowest k eigenpairs of the model operator of ``norm_pair``
    (maxima normalized to 1) on the study grid.

    The grid is ``settings.grid`` when supplied, else
    :func:`suggest_grid`'s choice; :func:`bottom_mode` picks the solve
    from ``settings.solver.mode``.  Before the solve it samples the
    scaled sandwich on that grid at each of ``alphas``, so a weight
    sample at or below -V0, or a non-finite sample, raises the
    :class:`~specgap.operators.OperatorError` that the sweep would.
    Returns the grid, the grid reasoning, the mode, the reason for the
    mode, the pairs, ascending, and those samples, one
    :class:`~specgap.operators.ScaledSymbols` per alpha in the order of
    ``alphas``; the sweep builds its operators and localization from them.
    """
    if settings.grid is not None:
        grid, grid_reasoning = settings.grid, ("grid supplied explicitly",)
    else:
        grid, grid_reasoning = suggest_grid(norm_pair, k)
    symbols = [make_scaled_symbols(norm_pair, alpha, grid) for alpha in alphas]
    op = build_model_operator(norm_pair, grid)
    mode, reason = bottom_mode(op, k, settings.solver.mode)
    pairs = smallest_eigenpairs(op, replace(settings.solver, k=k, mode=mode))
    return grid, grid_reasoning, mode, reason, pairs, symbols


def run_sweep(
    pair: ProfilePair,
    alphas: Sequence[float],
    k: int,
    settings: SweepSettings | None = None,
) -> StudyReport:
    """Solve the top-k spectrum along a decreasing alpha ladder, compare
    the scaled gaps against the model spectrum and attach verdicts.

    Each index's alpha -> 0 limit is ``extrapolate_limit`` with
    ``sigma=pair.sigma``: the series limit + c1*alpha^sigma +
    c2*alpha^(2*sigma), which assumes the corrections come in integer
    powers of alpha^sigma (see ``extrapolate_limit``).

    Every top solve starts from the k model eigenvectors, which the
    sweep puts on each sandwich as its ``guess``: they span nearly an
    invariant subspace of every B_alpha on the study grid, the trial
    space of the paper's upper bound.  The guess only starts the first
    Lanczos cycle, a band cycle k rows wide; the random completeness
    probe alone vouches that no pair beyond the k found is missed.

    Solver non-convergence at an individual (alpha, n) produces a
    flagged record and an inconclusive verdict for the affected index,
    not a crash.  Maxima are normalized to 1 internally (the sandwich
    scales linearly, so eigenvalues rescale exactly), and every number of
    a record, its localization included, is converted back to the units
    of ``pair``.  The report records the rescaling and, from
    :func:`model_spectrum`, the grid reasoning, the model-solve mode that
    ran and why :func:`bottom_mode` picked it.
    """
    settings = settings or SweepSettings()
    alphas = alpha_ladder(alphas)

    norm_pair, scale = normalized_pair(pair)
    grid, grid_reasoning, model_mode, model_mode_reason, model_pairs, symbols = model_spectrum(
        norm_pair, alphas, k, settings
    )
    model_eigenvalues = [(scale * p.value, scale * p.residual) for p in model_pairs]

    solve_settings = replace(settings.solver, k=k, mode=Mode.LANCZOS)
    guess = np.stack([p.vector.values.ravel() for p in model_pairs])

    def solve_one(sym: ScaledSymbols) -> list[SweepRecord]:
        alpha = sym.alpha
        op = replace(build_scaled_operator(norm_pair, alpha, grid, symbols=sym), guess=guess)
        try:
            pairs = largest_eigenpairs(op, solve_settings)
        except NoConvergenceError as exc:
            return [
                SweepRecord(
                    alpha=alpha,
                    n=n,
                    lam=float("nan"),
                    scaled_gap=float("nan"),
                    residual=float("nan"),
                    converged=False,
                    note=str(exc),
                )
                for n in range(1, k + 1)
            ]
        records = []
        for n, eig in enumerate(pairs, start=1):
            lam = scale * eig.value
            loc = localization_metrics(
                norm_pair, sym, eig, settings.radii, mu=model_pairs[n - 1].value
            )
            # Back to the units of ``pair``, whose mu is scale times as large.
            loc = replace(
                loc,
                k_form=scale * loc.k_form,
                s_form=scale * loc.s_form,
                c_hat_pos=tuple(c / scale for c in loc.c_hat_pos),
                c_hat_freq=tuple(c / scale for c in loc.c_hat_freq),
            )
            records.append(
                SweepRecord(
                    alpha=alpha,
                    n=n,
                    lam=lam,
                    scaled_gap=scaled_gap(lam, alpha, pair),
                    residual=scale * eig.residual,
                    converged=True,
                    localization=loc,
                    vector=eig.vector if settings.keep_vectors else None,
                )
            )
        return records

    records = [rec for sym in symbols for rec in solve_one(sym)]

    extrapolations: dict[int, ExtrapolationResult] = {}
    for n in range(1, k + 1):
        series = [(r.alpha, r.scaled_gap) for r in records if r.n == n and r.converged]
        if len(series) >= 3:
            xs, ys = zip(*series)
            extrapolations[n] = extrapolate_limit(xs, ys, sigma=pair.sigma)

    report = StudyReport(
        config={
            "alphas": alphas,
            "k": k,
            "radii": list(settings.radii),
            "rel_final": settings.rel_final,
            "rel_extrap": settings.rel_extrap,
            "profiles": {
                "symbol": pair.a_profile.label,
                "weight": pair.v_profile.label,
                "dimension": pair.dimension,
                "sigma": pair.sigma,
            },
        },
        model_eigenvalues=model_eigenvalues,
        records=records,
        extrapolations=extrapolations,
        verdicts=[],
        provenance={
            "package_version": _pkg_version,
            "rng_seed": settings.solver.rng_seed,
            "solver_tol": settings.solver.tol,
            "grid": grid.describe(),
            "grid_reasoning": list(grid_reasoning),
            "max_rescaling": scale,
            "model_mode": model_mode.value,
            "model_mode_reason": model_mode_reason,
        },
    )
    report.verdicts = verify_limit_law(report)
    return report


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

def verify_limit_law(report: StudyReport) -> list[Verdict]:
    """Evaluate the three-part finite-alpha criterion per index, with the
    tolerances ``rel_final`` and ``rel_extrap`` that :func:`run_sweep`
    records in ``report.config``.

    PASS requires the final-point and extrapolated relative errors to be
    within their tolerances, the error ladder to be nonincreasing, the
    one-sided upper bound to hold at the smallest alpha, and no gap to
    be negative beyond solver slack.  Non-monotonicity alone downgrades
    to INCONCLUSIVE (the approach direction is not guaranteed); anything
    else that misses is a FAIL.  Every verdict carries its reasons.
    """
    sigma = report.config["profiles"]["sigma"]
    rel_final, rel_extrap = report.config["rel_final"], report.config["rel_extrap"]
    verdicts: list[Verdict] = []

    def unjudged(n: int, status: VerdictStatus, mu: float, reason: str) -> None:
        nan = float("nan")
        verdicts.append(Verdict(n, status, mu, nan, nan, False, False, (reason,)))

    k = max((r.n for r in report.records), default=0)
    for n in range(1, k + 1):
        recs = sorted((r for r in report.records if r.n == n), key=lambda r: -r.alpha)
        mu = report.model_eigenvalues[n - 1][0] if len(report.model_eigenvalues) >= n else None
        if mu is None or mu <= 0:
            unjudged(n, VerdictStatus.INCONCLUSIVE, float("nan"), "model eigenvalue unavailable")
            continue
        bad = [r for r in recs if not r.converged]
        if bad:
            unjudged(n, VerdictStatus.INCONCLUSIVE, mu,
                     "inconclusive: solver did not converge at alpha="
                     + ", ".join(f"{r.alpha:g}" for r in bad))
            continue
        if len(recs) < 3:
            unjudged(n, VerdictStatus.INCONCLUSIVE, mu, "inconclusive: insufficient ladder")
            continue

        sigma_slack = [
            10.0 * r.residual * r.alpha ** (-sigma) + 1e-12 * mu for r in recs
        ]
        negative = [
            r for r, s in zip(recs, sigma_slack) if r.scaled_gap < -s
        ]
        if negative:
            unjudged(n, VerdictStatus.FAIL, mu,
                     f"negative scaled gap at alpha={negative[0].alpha:g} "
                     f"(lambda above the spectral bound)")
            continue

        reasons: list[str] = []
        final = recs[-1]
        final_rel = abs(final.scaled_gap - mu) / mu
        final_ok = final_rel <= rel_final
        if not final_ok:
            reasons.append(
                f"final-point error {final_rel:.3%} exceeds rel_final {rel_final:.3%}"
            )

        extr = report.extrapolations.get(n)
        if extr is None or extr.degenerate:
            extrap_rel = final_rel
            if extr is not None and extr.degenerate:
                reasons.append("degenerate fit; extrapolation check fell back to the last point")
        else:
            extrap_rel = abs(extr.limit - mu) / mu
        extrap_ok = extrap_rel <= rel_extrap
        if not extrap_ok:
            reasons.append(
                f"extrapolated-limit error {extrap_rel:.3%} exceeds rel_extrap {rel_extrap:.3%}"
            )

        errs = [abs(r.scaled_gap - mu) for r in recs]
        mono_ok = all(
            err_next <= err_prev + s_prev + s_next
            for err_prev, err_next, s_prev, s_next in zip(
                errs, errs[1:], sigma_slack, sigma_slack[1:]
            )
        )
        if not mono_ok:
            reasons.append("error ladder |gap - mu| is not nonincreasing")

        one_slack = max(final.residual * final.alpha ** (-sigma), 1e-3)
        one_sided_ok = final.scaled_gap <= mu * (1.0 + one_slack)
        if not one_sided_ok:
            reasons.append(
                f"one-sided bound violated: gap {final.scaled_gap:.6g} exceeds "
                f"mu*(1+{one_slack:.2g})"
            )

        if final_ok and extrap_ok and one_sided_ok and mono_ok:
            status = VerdictStatus.PASS
        elif final_ok and extrap_ok and one_sided_ok:
            status = VerdictStatus.INCONCLUSIVE
        else:
            status = VerdictStatus.FAIL
        verdicts.append(
            Verdict(
                n=n,
                status=status,
                mu=mu,
                final_rel_err=final_rel,
                extrap_rel_err=extrap_rel,
                monotone_ok=mono_ok,
                one_sided_ok=one_sided_ok,
                reasons=tuple(reasons),
            )
        )
    return verdicts

