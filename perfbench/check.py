"""Output check for one `specgap verify` study, read from its report.json.

A study's outputs are correct when

* every model eigenvalue mu and every record lambda is certified: its
  residual is within the study's certification bound tol * scale
  (stored per study in reference.json, computed at generation time the
  way the solver computes it);
* the model spectrum has k entries and its leading values match their
  closed forms within tol * max(1, |mu|) -- a dropped degenerate copy
  shows up here as the next level;
* every mu and lambda agrees with the reference record set within
  tol * max(1, |value|).

A FAIL verdict in the report is a scientific result, not a failed check.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference(path=REFERENCE_PATH) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))["studies"]


def _close(value: float, expected: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= tol * max(1.0, abs(expected))


def problems(report: dict, closed_form, ref: dict | None) -> list[str]:
    """Every way the report misses the checks above; empty when correct."""
    if ref is None:
        return ["no reference record for this study"]
    out = []
    tol = ref["tol"]
    if report["provenance"]["solver_tol"] != tol:
        out.append(f"solver tol {report['provenance']['solver_tol']} != reference tol {tol}")
    mus = [row["mu"] for row in report["model_eigenvalues"]]
    if len(mus) != report["config"]["k"]:
        out.append(f"{len(mus)} model eigenvalues for k={report['config']['k']}")
    for n, row in enumerate(report["model_eigenvalues"], start=1):
        if not row["residual"] <= ref["mu_residual_bound"]:
            out.append(f"mu_{n} residual {row['residual']:.3e} > {ref['mu_residual_bound']:.3e}")
    for n, exact in enumerate(closed_form, start=1):
        if n > len(mus) or not _close(mus[n - 1], exact, tol):
            got = mus[n - 1] if n <= len(mus) else "missing"
            out.append(f"mu_{n} = {got} misses its closed form {exact!r}")
    if len(mus) != len(ref["mu"]) or not all(map(_close, mus, ref["mu"], [tol] * len(mus))):
        out.append(f"model spectrum {mus} disagrees with reference {ref['mu']}")

    seen = {}
    for rec in report["records"]:
        key = f"{rec['alpha']!r}:{rec['n']}"
        seen[key] = rec["lambda"]
        if not rec["converged"]:
            out.append(f"lambda at {key} did not converge")
        elif not rec["residual"] <= ref["lambda_residual_bound"]:
            out.append(
                f"lambda at {key} residual {rec['residual']:.3e} > {ref['lambda_residual_bound']:.3e}"
            )
    if set(seen) != set(ref["lambda"]):
        out.append(f"records cover {sorted(seen)}, reference covers {sorted(ref['lambda'])}")
    for key, expected in ref["lambda"].items():
        if key in seen and not _close(seen[key], expected, tol):
            out.append(f"lambda at {key} = {seen[key]!r} disagrees with reference {expected!r}")
    return out


def limit_errors(report: dict) -> tuple[float, float]:
    """(largest |extrapolated limit - mu_n| / mu_n, the same for the gap at
    the smallest alpha), over all n of the study."""
    mus = {row["n"]: row["mu"] for row in report["model_eigenvalues"]}
    limit = max(
        abs(e["limit"] - mus[int(n)]) / mus[int(n)] for n, e in report["extrapolations"].items()
    )
    smallest = min(rec["alpha"] for rec in report["records"])
    final = max(
        abs(rec["scaled_gap"] - mus[rec["n"]]) / mus[rec["n"]]
        for rec in report["records"]
        if rec["alpha"] == smallest
    )
    return limit, final
