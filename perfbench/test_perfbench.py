"""Tests of the benchmark itself, on shrunk workloads (small grids).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import worker
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, seed: int, trace: int, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--shrink"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_shrunk_workload_emits_every_metric_with_its_unit(workload):
    # Two seeds per workload: the reference agreement must not depend on
    # the solver seed the workload seed picks.
    for trace, key, seed in ((0, "end_to_end", 11), (1, "per_layer", 12)):
        proc = _run(workload, seed, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, proc.stdout
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
        for name, unit in expected.items():
            assert any(line.startswith(f"{workload}  {name} = ") and line.endswith(f" {unit}")
                       for line in lines), name
        assert any(f"{workload}  failed_frac = 0 ratio" in line for line in lines)
        if trace:
            layers = result["metrics"]
            # The spans cover the study: what no span covers is a small share.
            assert 0 <= layers["trace.unattributed_s"]["value"] < 0.25 * layers[
                "trace.study_s"]["value"]


def test_run_refuses_without_the_package(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK), encoding="utf-8")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("verify-iterative", 1, 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.fixture(scope="module")
def dense_report(tmp_path_factory):
    from specgap.cli import main

    study = next(s for s in workloads.studies("verify-dense", shrink=True)
                 if s.name.startswith("gaussian_2d_dense"))
    reference = check.load_reference()
    out = tmp_path_factory.mktemp("dense")
    result = worker.run_study(main, study, 7, out, reference)
    assert result["problems"] == []
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    return study, report, reference[study.name]


def test_checker_accepts_the_reference_study(dense_report):
    study, report, ref = dense_report
    assert check.problems(report, study.closed_form, ref) == []


def test_checker_counts_a_lambda_perturbed_by_ten_tol(dense_report):
    study, report, ref = dense_report
    key = next(iter(ref["lambda"]))
    small = copy.deepcopy(ref)
    small["lambda"][key] += 0.5 * ref["tol"]
    assert check.problems(report, study.closed_form, small) == []
    large = copy.deepcopy(ref)
    large["lambda"][key] += 10 * ref["tol"]
    found = check.problems(report, study.closed_form, large)
    assert len(found) == 1 and key in found[0]


def test_checker_counts_a_dropped_degenerate_copy(dense_report):
    study, report, ref = dense_report
    # A solver that skips the second copy of the double level 4*sqrt(2)
    # returns the next level, 6*sqrt(2), as the third eigenvalue.
    dropped = copy.deepcopy(report)
    dropped["model_eigenvalues"][2]["mu"] = 6 * math.sqrt(2)
    found = check.problems(dropped, study.closed_form, ref)
    assert any("closed form" in p for p in found)
    assert any("reference" in p for p in found)
    # The same miss in the top solve returns a lower level as lambda_3.
    top = copy.deepcopy(report)
    next(r for r in top["records"] if r["n"] == 3)["lambda"] -= 0.1
    assert any("disagrees with reference" in p for p in check.problems(top, study.closed_form, ref))


def test_checker_counts_an_uncertified_residual(dense_report):
    study, report, ref = dense_report
    bad = copy.deepcopy(report)
    bad["records"][0]["residual"] = 2 * ref["lambda_residual_bound"]
    assert check.problems(bad, study.closed_form, ref)
