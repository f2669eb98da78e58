"""Structured outputs of a study: records CSV, JSON report, plot script
and eigenfunction stack.

:func:`write_report_files` puts these files in the output directory:

    records.csv         one row per (alpha, n), schema below
    report.json         the whole report (schema specgap.report.v1)
    plot_gaps.py        a fixed script that plots records.csv against the
                        model eigenvalues mu it reads from report.json
    eigenfunctions.sgv  only when the sweep keeps eigenfunctions: one state
                        dump (see :mod:`specgap.grid`) holding the state of
                        each record that has one, in records.csv row order;
                        otherwise an earlier run's stack is removed

Every file goes through one writer, :func:`write_text_atomic`: temp file
plus rename, so a reader finds the old file or the new one, never part of
one.  The writer skips a file that already holds exactly the new bytes
(sizes first, then contents), so rerunning a study into the same directory
replaces only the files whose content changed; replacing a file can cost
tens of milliseconds whatever its size.

The records CSV schema is versioned; its first line is a comment
``# schema: specgap.records.v1`` and the column order is fixed:

    alpha, n, lambda, scaled_gap, residual, k_form, s_form,
    pos_mass_out_R<r>..., frq_mass_out_R<r>...

with one mass column per localization radius (ascending), rows ordered
ladder-first (alpha descending, then n ascending).  lambda, scaled_gap,
residual, k_form and s_form are in the units of the configured pair, so
k_form + s_form is that row's scaled_gap; the masses are fractions.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from .asymptotics import StudyReport
from .grid import save_states, write_text_atomic

__all__ = [
    "RECORDS_SCHEMA",
    "MODEL_SCHEMA",
    "write_text_atomic",
    "records_csv_text",
    "model_csv_text",
    "PLOT_SCRIPT",
    "write_report_files",
    "render_report",
]

RECORDS_SCHEMA = "specgap.records.v1"
MODEL_SCHEMA = "specgap.model.v1"


def records_csv_text(report: StudyReport) -> str:
    radii = sorted(report.config.get("radii", ()))  # the order localization_metrics uses
    buf = io.StringIO()
    buf.write(f"# schema: {RECORDS_SCHEMA}\n")
    writer = csv.writer(buf)
    header = ["alpha", "n", "lambda", "scaled_gap", "residual", "k_form", "s_form"]
    header += [f"pos_mass_out_R{r:g}" for r in radii]
    header += [f"frq_mass_out_R{r:g}" for r in radii]
    writer.writerow(header)
    for rec in report.records:
        loc = rec.localization
        row = [
            f"{rec.alpha:.17g}",
            rec.n,
            f"{rec.lam:.17g}",
            f"{rec.scaled_gap:.17g}",
            f"{rec.residual:.3e}",
            "" if loc is None else f"{loc.k_form:.17g}",
            "" if loc is None else f"{loc.s_form:.17g}",
        ]
        if loc is None:
            row += [""] * (2 * len(radii))
        else:
            row += [f"{m:.6e}" for m in loc.position_mass_outside]
            row += [f"{m:.6e}" for m in loc.frequency_mass_outside]
        writer.writerow(row)
    return buf.getvalue()


def model_csv_text(model_rows: list[dict]) -> str:
    """Rows: dicts with n, mu, residual, N, L, mode."""
    buf = io.StringIO()
    buf.write(f"# schema: {MODEL_SCHEMA}\n")
    writer = csv.writer(buf)
    writer.writerow(["n", "mu", "residual", "N", "L", "mode"])
    for row in model_rows:
        writer.writerow(
            [row["n"], f"{row['mu']:.17g}", f"{row['residual']:.3e}", row["N"],
             f"{row['L']:g}", row["mode"]]
        )
    return buf.getvalue()


# The script depends on no run: it reads the run's files when it plots, so
# a rerun never has to replace it.
PLOT_SCRIPT = '''"""Plot scaled spectral gaps against the model eigenvalues.

Written alongside records.csv and report.json; run it in their directory
with any Python that has matplotlib and pandas installed.
"""
import json

import pandas as pd
import matplotlib.pyplot as plt

with open("report.json", encoding="utf-8") as fh:
    model_eigenvalues = json.load(fh)["model_eigenvalues"]
df = pd.read_csv("records.csv", comment="#")
fig, ax = plt.subplots(figsize=(6, 4))
for n, group in df.groupby("n"):
    group = group.sort_values("alpha")
    ax.plot(group["alpha"], group["scaled_gap"], "o-", label=f"n={n}")
for row in model_eigenvalues:
    if row["mu"] is None:  # report.json writes a non-finite mu as null
        continue
    ax.axhline(row["mu"], color="gray", linewidth=0.8, linestyle="--")
    ax.annotate(f"mu({row['n']})", xy=(df["alpha"].max(), row["mu"]), fontsize=8, color="gray")
ax.set_xscale("log")
ax.set_xlabel("alpha")
ax.set_ylabel("scaled spectral gap")
ax.legend()
fig.tight_layout()
fig.savefig("scaled_gaps.png", dpi=150)
print("wrote scaled_gaps.png")
'''


def write_report_files(report: StudyReport, out_dir) -> dict[str, Path]:
    """Write records.csv, report.json, plot_gaps.py and, when records keep
    eigenfunctions, eigenfunctions.sgv; a file that already holds its new
    content is left alone, and a stack that this report does not write is
    removed.  Returns the paths, keyed records, report, plot and
    eigenfunctions."""
    out = Path(out_dir)
    paths = {
        "records": out / "records.csv",
        "report": out / "report.json",
        "plot": out / "plot_gaps.py",
    }
    write_text_atomic(paths["records"], records_csv_text(report))
    write_text_atomic(paths["report"], json.dumps(report.to_dict(), indent=2) + "\n")
    write_text_atomic(paths["plot"], PLOT_SCRIPT)
    stack = out / "eigenfunctions.sgv"
    kept = [rec.vector for rec in report.records if rec.vector is not None]
    if kept:
        paths["eigenfunctions"] = stack
        save_states(kept, stack)
    else:
        stack.unlink(missing_ok=True)  # an earlier run's, which no row matches
    return paths


def _num(value, spec: str) -> str:
    # report.json writes a non-finite number as null.
    return "n/a" if value is None else format(value, spec)


def render_report(report_dict: dict) -> str:
    """Human-readable summary of a report.json payload; a null number
    prints as n/a."""
    lines = []
    cfg = report_dict.get("config", {})
    prov = report_dict.get("provenance", {})
    lines.append("== scaled spectral gap study ==")
    profiles = cfg.get("profiles", {})
    lines.append(
        f"symbol: {profiles.get('symbol', '?')}   weight: {profiles.get('weight', '?')}   "
        f"d={profiles.get('dimension', '?')}  sigma={profiles.get('sigma', '?')}"
    )
    reason = f" ({prov['model_mode_reason']})" if "model_mode_reason" in prov else ""
    lines.append(
        f"grid: {prov.get('grid', '?')}   model solve: {prov.get('model_mode', '?')}{reason}"
    )
    lines.append("grid reasoning:")
    lines += [f"  {entry}" for entry in prov.get("grid_reasoning", [])]
    lines.append(f"alphas: {cfg.get('alphas')}")
    lines.append("")
    lines.append("model eigenvalues:")
    for row in report_dict.get("model_eigenvalues", []):
        lines.append(f"  n={row['n']}: mu={_num(row['mu'], '.10g')}  "
                     f"(residual {_num(row['residual'], '.2e')})")
    lines.append("")
    lines.append(f"{'alpha':>10} {'n':>3} {'lambda':>18} {'scaled_gap':>14} {'residual':>10}")
    for row in report_dict.get("records", []):
        lines.append(
            f"{row['alpha']:>10.5g} {row['n']:>3} {_num(row['lambda'], '.12g'):>18} "
            f"{_num(row['scaled_gap'], '.8g'):>14} {_num(row['residual'], '.2e'):>10}"
            + ("" if row.get("converged", True) else "   [not converged]")
        )
    lines.append("")
    extr = report_dict.get("extrapolations", {})
    if extr:
        lines.append("extrapolations:")
        for n, e in sorted(extr.items(), key=lambda kv: int(kv[0])):
            lines.append(
                f"  n={n}: limit={_num(e['limit'], '.8g')} "
                f"fit_residual={_num(e['fit_residual'], '.2e')}"
                + ("  [degenerate]" if e.get("degenerate") else "")
            )
    verdicts = report_dict.get("verdicts", [])
    if verdicts:
        lines.append("")
        lines.append("verdicts:")
        for v in verdicts:
            reason = f"  ({'; '.join(v['reasons'])})" if v.get("reasons") else ""
            lines.append(
                f"  n={v['n']}: {v['status']}  final_err={_num(v['final_rel_err'], '.3%')} "
                f"extrap_err={_num(v['extrap_rel_err'], '.3%')}{reason}"
            )
    return "\n".join(lines) + "\n"
