"""The scaled spectral-gap law, end to end.

The top eigenvalues of the weighted-multiplier sandwich approach the top
of the band A0*V0^2 as the coupling alpha shrinks, and the scaled gaps

    gap_n(alpha) = alpha^-sigma * (A0*V0^2 - lambda_n(alpha))

converge to the ascending model eigenvalues mu_n.  This script runs the
whole study for the Gaussian pair, prints the ladder, extrapolates the
alpha -> 0 limits, and renders the verdicts.  If matplotlib is present
it also saves a figure.
"""

import numpy as np

from specgap import (
    ProfileRole,
    SolveSettings,
    SweepSettings,
    build_grid,
    make_catalog_profile,
    make_pair,
    run_sweep,
)

pair = make_pair(
    make_catalog_profile("gaussian_power", [2], 1),
    make_catalog_profile("gaussian_power", [2], 1, role=ProfileRole.WEIGHT_V),
)

alphas = [0.2, 0.1, 0.05, 0.025]
report = run_sweep(
    pair,
    alphas,
    2,
    SweepSettings(
        solver=SolveSettings(tol=1e-9),
        grid=build_grid(1, 1024, 20.0),
    ),
)

mus = [mu for mu, _ in report.model_eigenvalues]
print("model eigenvalues:", ", ".join(f"{mu:.8f}" for mu in mus))
print(f"analytic targets:  {np.sqrt(2):.8f}, {3*np.sqrt(2):.8f}")
print()
print(f"{'alpha':>8} {'n':>3} {'lambda':>16} {'scaled gap':>14} {'gap - mu':>12}")
for rec in report.records:
    print(
        f"{rec.alpha:>8g} {rec.n:>3} {rec.lam:>16.10f} {rec.scaled_gap:>14.8f} "
        f"{rec.scaled_gap - mus[rec.n - 1]:>12.2e}"
    )

print("\nextrapolated alpha -> 0 limits (fit gap = limit + c1 * alpha^sigma + c2 * alpha^(2 sigma)):")
for n, extr in sorted(report.extrapolations.items()):
    print(
        f"  n={n}: limit = {extr.limit:.8f} (target {mus[n-1]:.8f}), "
        f"fit residual = {extr.fit_residual:.1e}"
    )

print("\nverdicts:")
for v in report.verdicts:
    print(
        f"  n={v.n}: {v.status.value:12s} final error {v.final_rel_err:.3%}, "
        f"extrapolated error {v.extrap_rel_err:.3%}"
    )

print("""
Note the honest finite-alpha picture: the deviation of gap_n from mu_n
shrinks like alpha * mu_n^2 / 2 in this family (the exact spectrum
follows from Mehler's formula), so at alpha = 0.025 the higher indices
still sit several percent away from their limits even though every
ladder is cleanly monotone and the extrapolations land much closer.
Halving alpha twice more brings n=2 inside the default 5% final-point
tolerance; the verdict machinery reports exactly what the computed
ladder supports.""")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    for n in sorted({r.n for r in report.records}):
        series = [(r.alpha, r.scaled_gap) for r in report.records if r.n == n]
        xs, ys = zip(*sorted(series))
        ax.plot(xs, ys, "o-", label=f"n={n}")
        ax.axhline(mus[n - 1], color="gray", linestyle="--", linewidth=0.8)
    ax.set_xscale("log")
    ax.set_xlabel("alpha")
    ax.set_ylabel("scaled spectral gap")
    ax.set_title("scaled gaps approaching the model eigenvalues")
    ax.legend()
    fig.tight_layout()
    fig.savefig("scaled_gap_sweep.png", dpi=150)
    print("\nsaved scaled_gap_sweep.png")
except ImportError:
    print("\n(matplotlib not installed; skipping the figure)")
