"""Regenerate reference.json, the record set the output check compares to.

    PYTHONPATH=src python3 perfbench/make_reference.py

Runs every study of every workload (full and shrunk grids) once with the
configs' own solver seed and stores, per study, its tol, every mu and
lambda, and the certification bounds tol * scale the solver applies to
their residuals.  Run it only at a commit whose results are trusted: the
benchmark counts any later disagreement beyond tol as a failed study.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import check
import workloads


def _grid(description: str):
    from specgap import build_grid

    m = re.match(r"d=(\d+) N=(\d+) L=(\S+)", description)
    return build_grid(int(m.group(1)), int(m.group(2)), float(m.group(3)))


def record(study, out_dir: Path) -> dict:
    from specgap.cli import main
    from specgap.config import build_profiles, parse_config
    from specgap.operators import build_model_operator, build_scaled_operator, normalized_pair

    out_dir.mkdir(parents=True, exist_ok=True)
    ini = out_dir / "study.ini"
    ini.write_text(study.ini, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["verify", "--config", str(ini), "--out", str(out_dir)])
    if rc not in (0, 1):
        raise SystemExit(f"{study.name}: verify exited with code {rc}")
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    tol = report["provenance"]["solver_tol"]
    scale = report["provenance"]["max_rescaling"]
    norm_pair, _ = normalized_pair(build_profiles(parse_config(study.ini)))
    grid = _grid(report["provenance"]["grid"])
    mus = [row["mu"] for row in report["model_eigenvalues"]]
    model_bound = build_model_operator(norm_pair, grid).upper_bound
    top_bound = max(
        build_scaled_operator(norm_pair, alpha, grid).upper_bound
        for alpha in report["config"]["alphas"]
    )
    return {
        "tol": tol,
        "mu": mus,
        "lambda": {f"{r['alpha']!r}:{r['n']}": r["lambda"] for r in report["records"]},
        "mu_residual_bound": tol * scale * max([1.0, model_bound] + [m / scale for m in mus]),
        "lambda_residual_bound": tol * scale * max(1.0, top_bound),
    }


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                            capture_output=True, text=True).stdout.strip()
    studies = {}
    work_dir = workloads.ROOT / ".perfbench" / "reference"
    try:
        for workload in workloads.WORKLOADS:
            for shrink in (False, True):
                for study in workloads.studies(workload, shrink):
                    if study.name not in studies:
                        studies[study.name] = record(study, work_dir / study.name)
                        print(f"recorded {study.name}", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    payload = {"generated_at_commit": commit, "solver_seed": "config", "studies": studies}
    check.REFERENCE_PATH.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
