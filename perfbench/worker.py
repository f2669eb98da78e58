"""One workload's studies, run in-process through `specgap.cli.main`.

Started by run.py in a child process of its own.  It repeats rounds of
the workload's studies until the next round would overrun the time
budget (at least one round; two when traced, one untraced and one
traced, alternating), checks every study's outputs, and prints one JSON
object with the per-study results on its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import check
import spans
import workloads


def run_study(main, study, seed: int, out_dir: Path, reference: dict, tracer=None) -> dict:
    """Time one `verify` call from INI text to written report, then check it."""
    out_dir.mkdir(parents=True, exist_ok=True)
    ini = out_dir / "study.ini"
    ini.write_text(study.ini, encoding="utf-8")
    argv = ["verify", "--config", str(ini), "--out", str(out_dir), "--seed", str(seed)]
    result = {"study": study.name, "seed": seed, "traced": tracer is not None}
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        root = tracer.begin(spans.STUDY) if tracer else None
        try:
            rc = main(argv)
        except Exception as exc:  # a crash is a failed study, not a crashed benchmark
            rc = None
            result["error"] = repr(exc)
        finally:
            if tracer:
                tracer.end(root)
        result["seconds"] = time.perf_counter() - start
    result["rc"] = rc
    spans_of_study = tracer.take() if tracer else None
    # Exit 0 is PASS and 1 a FAIL verdict; 2 and 3 are failed operations.
    if rc not in (0, 1):
        result["problems"] = [f"exit code {rc}"]
        return result
    try:
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        result["problems"] = check.problems(report, study.closed_form, reference.get(study.name))
        result["limit_rel_err"], result["final_rel_err"] = check.limit_errors(report)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        result["problems"] = [f"unreadable report: {exc!r}"]
    if spans_of_study:
        result["layers"] = spans.layer_metrics(spans_of_study)
    return result


def run_rounds(workload: str, seed: int, seconds: float, trace: bool, shrink: bool,
               out_dir: Path) -> list[dict]:
    from specgap.cli import main

    studies = workloads.studies(workload, shrink)
    reference = check.load_reference()
    seeds = workloads.solver_seeds(workload, seed)
    tracer = spans.Tracer()
    results = []
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        traced = trace and rounds % 2 == 1
        with spans.installed(tracer) if traced else contextlib.nullcontext():
            for study in studies:
                results.append(
                    run_study(main, study, next(seeds), out_dir / study.name, reference,
                              tracer if traced else None)
                )
        rounds += 1
        now = time.perf_counter()
        if rounds >= (2 if trace else 1) and now - start + (now - round_start) > seconds:
            return results


def provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "python": sys.version.split()[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shrink", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    results = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace), args.shrink,
                         Path(args.out))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"studies": results, "peak_rss_mb": peak_kb / 1024.0,
                      "provenance": provenance()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
