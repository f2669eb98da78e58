"""End-to-end (and, with --trace 1, per-layer) benchmark of `specgap verify`.

    python3 perfbench/run.py --workload verify-dense --seed 1 --seconds 50 --trace 0

Run from the repository root.  The package is imported from ./src, so
nothing is installed or built.  With --trace 0 the run

1. times SETUP_SAMPLES fresh interpreters through `import specgap`,
   `parse_config` and `build_profiles` of the workload's first study;
2. runs the workload's studies in a child process (worker.py) for
   --seconds, checks every output and reads the child's peak RSS.

With --trace 1 it skips step 1 and alternates untraced and traced
rounds, reporting the per-layer numbers of the traced ones.  Human
readable lines come first; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The run exits non-zero,
without a result, when the package or the shipped configs are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
# The whole run, set-up included, must end within this many seconds.
RUN_LIMIT_S = 170.0
# One BLAS thread per process: the workloads run one at a time on a
# shared two-core box, and a second thread turns neighbours' load into
# run-to-run spread.
BLAS_THREADS = "1"

E2E_UNITS = {
    "study_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "limit_rel_err": "ratio",
    "final_rel_err": "ratio",
}

SETUP_PROBE = (
    "import pathlib, sys\n"
    "import specgap\n"
    "from specgap.config import build_profiles, parse_config\n"
    "build_profiles(parse_config(pathlib.Path(sys.argv[1]).read_text(encoding='utf-8')))\n"
)


def per_study_summary(samples) -> float:
    """Mean over studies of the median within each study's samples, so a
    round-robin of unequal studies does not depend on where the run stopped."""
    by_study = defaultdict(list)
    for name, value in samples:
        by_study[name].append(value)
    return statistics.fmean(statistics.median(v) for v in by_study.values())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def time_setup(ini_text: str, work_dir: Path, env: dict) -> list[float]:
    ini = work_dir / "setup.ini"
    ini.write_text(ini_text, encoding="utf-8")
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_PROBE, str(ini)], env=env,
                                stdout=subprocess.DEVNULL)
        # wait() with a timeout polls in steps of up to 50 ms, which would
        # quantize the timing; block instead and let a timer enforce the limit.
        killer = threading.Timer(60, proc.kill)
        killer.start()
        try:
            returncode = proc.wait()
        finally:
            killer.cancel()
        times.append(time.perf_counter() - start)
        if returncode != 0:
            raise RuntimeError(f"set-up probe exited with code {returncode}")
    return times


def run_worker(args, work_dir: Path, env: dict, budget: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(work_dir / "studies")]
    if args.shrink:
        cmd.append("--shrink")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=budget)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_identity() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "specgap").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def summarize(args, data: dict, setup: list[float]) -> dict:
    studies = data["studies"]
    failed = [s for s in studies if s["problems"]]
    untraced = [s for s in studies if not s["traced"]]
    traced = [s for s in studies if "layers" in s]
    if args.trace:
        metrics = {
            name: per_study_summary((s["study"], s["layers"][name]) for s in traced)
            for name in spans.LAYER_UNITS
        }
        metrics["trace.overhead_s"] = per_study_summary(
            (s["study"], s["seconds"]) for s in traced
        ) - per_study_summary((s["study"], s["seconds"]) for s in untraced)
        units = dict(spans.LAYER_UNITS, **{"trace.overhead_s": "s"})
    else:
        # A run in which no study left a readable report has failed anyway
        # (correct is false); its errors read as 100% rather than NaN,
        # which JSON cannot carry.
        checked = [s for s in studies if "limit_rel_err" in s] or [
            {"limit_rel_err": 1.0, "final_rel_err": 1.0}
        ]
        metrics = {
            "study_s": per_study_summary((s["study"], s["seconds"]) for s in untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": data["peak_rss_mb"],
            "limit_rel_err": max(s["limit_rel_err"] for s in checked),
            "final_rel_err": max(s["final_rel_err"] for s in checked),
        }
        units = E2E_UNITS
    counts = defaultdict(int)
    for s in studies:
        counts[s["study"]] += 1
    provenance = dict(
        source_identity(),
        **data["provenance"],
        nproc=os.cpu_count(),
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        samples_per_study=dict(counts),
        setup_samples=len(setup),
    )
    for name, value in metrics.items():
        print(f"{args.workload}  {name} = {value:.6g} {units[name]}")
    print(f"{args.workload}  failed_frac = {len(failed) / len(studies):.6g} ratio "
          f"({len(failed)} of {len(studies)} studies)")
    for s in failed:
        print(f"failed: {s['study']} seed={s['seed']}: {'; '.join(s['problems'])}")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    return {
        "correct": not failed,
        "attempted": len(studies),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shrink", action="store_true",
                        help="small grids, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "specgap" / "__init__.py").is_file() or not workloads.SHIPPED_CONFIGS.is_dir():
        print(f"no specgap package under {SRC} or no configs/; run from a full checkout",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    env = child_env()
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench"))
    try:
        first = workloads.studies(args.workload, args.shrink)[0]
        setup = [] if args.trace else time_setup(first.ini, work_dir, env)
        data = run_worker(args, work_dir, env, RUN_LIMIT_S - (time.perf_counter() - started))
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work_dir.parent.rmdir()
    print(json.dumps(summarize(args, data, setup)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
