"""Spans around specgap's layers, recorded from outside the package.

`installed(tracer)` replaces, for its duration, the module globals that
`specgap.cli`, `specgap.asymptotics` and `specgap.eigensolve` look up at
call time with timing wrappers.  The two operator constructors additionally
return their operator with a counting `apply_values`, so every apply is
a span too.  Nothing inside `src/` changes; time spent in calls not
listed in `PATCHES` counts as self time of the enclosing span, or as
`trace.unattributed_s` at the top level of a study.

Spans assume one thread, which the benchmark configs pin (`threads = 1`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import math
import statistics
import time
from pathlib import Path

# module -> the globals it calls that get a span
PATCHES = {
    "specgap.cli": ("parse_config", "build_profiles", "suggest_grid", "write_report_files"),
    "specgap.asymptotics": (
        "suggest_grid",
        "build_model_operator",
        "build_scaled_operator",
        "smallest_eigenpairs",
        "largest_eigenpairs",
        "localization_metrics",
        "extrapolate_limit",
        "verify_limit_law",
    ),
    "specgap.eigensolve": ("materialize_dense", "cg"),
}

# function -> the specgap module (layer) that defines it
LAYER = {
    "parse_config": "config",
    "build_profiles": "config",
    "suggest_grid": "grid",
    "build_model_operator": "operators",
    "build_scaled_operator": "operators",
    "smallest_eigenpairs": "eigensolve",
    "largest_eigenpairs": "eigensolve",
    "materialize_dense": "eigensolve",
    "cg": "eigensolve",
    "localization_metrics": "asymptotics",
    "extrapolate_limit": "asymptotics",
    "verify_limit_law": "asymptotics",
    "write_report_files": "reportio",
}

STUDY = "cli.verify"
MODEL_SOLVE = "eigensolve.smallest_eigenpairs"
TOP_SOLVE = "eigensolve.largest_eigenpairs"
MATERIALIZE = "eigensolve.materialize_dense"
SUGGEST = "grid.suggest_grid"
MODEL_APPLY = "operators.model_apply"
SCALED_APPLY = "operators.scaled_apply"

# per-layer metrics of one study: name -> unit
LAYER_UNITS = {
    "config.parse_s": "s",
    "grid.suggest_s": "s",
    "operators.build_s": "s",
    "operators.model_applies": "count",
    "operators.scaled_applies": "count",
    "operators.model_apply_us": "us",
    "operators.scaled_apply_us": "us",
    "operators.apply_bytes_computed": "bytes",
    "eigensolve.model_solve_s": "s",
    "eigensolve.model_self_s": "s",
    "eigensolve.dense_materialize_s": "s",
    "eigensolve.dense_eigh_s": "s",
    "eigensolve.cg_calls": "count",
    "eigensolve.cg_iters": "count",
    "eigensolve.model_applies_per_pair": "count",
    "eigensolve.model_residual_margin": "log10",
    "eigensolve.top_solve_s": "s",
    "eigensolve.top_self_s": "s",
    "eigensolve.top_applies_per_pair": "count",
    "asymptotics.localization_s": "s",
    "asymptotics.extrapolate_s": "s",
    "asymptotics.verdict_s": "s",
    "reportio.write_s": "s",
    "reportio.bytes_written": "bytes",
    "trace.study_s": "s",
    "trace.unattributed_s": "s",
}


class Tracer:
    """In-memory spans: [name, start, end, parent index, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, 0.0, 0.0, parent, None])
        self._open.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


def _timed(tracer: Tracer, name: str, fn, attrs=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if attrs is not None:
            tracer.spans[idx][4] = attrs(result, *args, **kwargs)
        return result

    return traced


def _counting(tracer: Tracer, name: str, op):
    inner = op.apply_values

    def apply_values(values):
        idx = tracer.begin(name)
        try:
            out = inner(values)
        finally:
            tracer.end(idx)
        tracer.spans[idx][4] = values.nbytes + out.nbytes
        return out

    return dataclasses.replace(op, apply_values=apply_values)


def _operator_factory(tracer: Tracer, name: str, fn, apply_name: str):
    timed = _timed(tracer, name, fn)

    @functools.wraps(fn)
    def build(*args, **kwargs):
        return _counting(tracer, apply_name, timed(*args, **kwargs))

    return build


def _cg(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced_cg(*args, callback=None, **kwargs):
        iters = 0

        def count(xk):
            nonlocal iters
            iters += 1
            if callback is not None:
                callback(xk)

        idx = tracer.begin("eigensolve.cg")
        try:
            return fn(*args, callback=count, **kwargs)
        finally:
            tracer.end(idx)
            tracer.spans[idx][4] = iters

    return traced_cg


def _solve_attrs(pairs, op, settings):
    # Mirrors the certification threshold of specgap.eigensolve:
    # tol * max(1, |upper bound|, |computed values|).
    scale = max([1.0, abs(op.upper_bound or 0.0)] + [abs(p.value) for p in pairs])
    worst = max((p.residual for p in pairs), default=0.0)
    return {"k": settings.k, "margin": math.log10(settings.tol * scale / max(worst, 1e-300))}


def _written_bytes(paths, *args, **kwargs):
    return sum(Path(p).stat().st_size for p in paths.values())


def _wrapper(tracer: Tracer, attr: str, fn):
    name = f"{LAYER[attr]}.{attr}"
    if attr == "build_model_operator":
        return _operator_factory(tracer, name, fn, MODEL_APPLY)
    if attr == "build_scaled_operator":
        return _operator_factory(tracer, name, fn, SCALED_APPLY)
    if attr == "cg":
        return _cg(tracer, fn)
    if attr in ("smallest_eigenpairs", "largest_eigenpairs"):
        return _timed(tracer, name, fn, _solve_attrs)
    if attr == "write_report_files":
        return _timed(tracer, name, fn, _written_bytes)
    return _timed(tracer, name, fn)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every global in PATCHES for the duration of the block."""
    saved = []
    try:
        for module_name, attrs in PATCHES.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, _wrapper(tracer, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer numbers of one study whose root span is spans[0]."""
    names = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    parent = [s[3] for s in spans]

    # Nearest enclosing span of a given kind (or -1); parents precede children.
    def enclosing(kinds):
        out = []
        for i, name in enumerate(names):
            out.append(i if name in kinds else (out[parent[i]] if parent[i] >= 0 else -1))
        return out

    solve_of = enclosing({MODEL_SOLVE, TOP_SOLVE})
    mat_of = enclosing({MATERIALIZE})
    suggest_of = enclosing({SUGGEST})

    def total(name):
        return sum(d for n, d in zip(names, dur) if n == name)

    model_solves = [i for i, n in enumerate(names) if n == MODEL_SOLVE and suggest_of[i] < 0]
    top_solves = [i for i, n in enumerate(names) if n == TOP_SOLVE]
    in_model = set(model_solves)
    in_top = set(top_solves)
    model_applies = [i for i, n in enumerate(names) if n == MODEL_APPLY]
    scaled_applies = [i for i, n in enumerate(names) if n == SCALED_APPLY]
    model_solve_applies = [i for i in model_applies if solve_of[i] in in_model]
    top_solve_applies = [i for i in scaled_applies if solve_of[i] in in_top]
    materialize = [i for i, n in enumerate(names) if n == MATERIALIZE and solve_of[i] in in_model]
    cg_calls = [i for i, n in enumerate(names) if n == "eigensolve.cg" and solve_of[i] in in_model]

    dense_eigh = 0.0
    for s in model_solves:
        mats = [i for i in materialize if solve_of[i] == s]
        if mats:
            loose = [i for i in model_solve_applies if solve_of[i] == s and mat_of[i] < 0]
            dense_eigh += dur[s] - sum(dur[i] for i in mats) - sum(dur[i] for i in loose)

    def mean_us(idx):
        return 1e6 * statistics.fmean(dur[i] for i in idx) if idx else 0.0

    model_k = sum(spans[i][4]["k"] for i in model_solves)
    top_k = sum(spans[i][4]["k"] for i in top_solves)
    model_solve_s = sum(dur[i] for i in model_solves)
    top_solve_s = sum(dur[i] for i in top_solves)
    return {
        "config.parse_s": total("config.parse_config"),
        "grid.suggest_s": total(SUGGEST),
        "operators.build_s": total("operators.build_model_operator")
        + total("operators.build_scaled_operator"),
        "operators.model_applies": len(model_applies),
        "operators.scaled_applies": len(scaled_applies),
        "operators.model_apply_us": mean_us(model_applies),
        "operators.scaled_apply_us": mean_us(scaled_applies),
        "operators.apply_bytes_computed": sum(
            spans[i][4] for i in model_applies + scaled_applies
        ),
        "eigensolve.model_solve_s": model_solve_s,
        "eigensolve.model_self_s": model_solve_s - sum(dur[i] for i in model_solve_applies),
        "eigensolve.dense_materialize_s": sum(dur[i] for i in materialize),
        "eigensolve.dense_eigh_s": dense_eigh,
        "eigensolve.cg_calls": len(cg_calls),
        "eigensolve.cg_iters": sum(spans[i][4] for i in cg_calls),
        "eigensolve.model_applies_per_pair": len(model_solve_applies) / model_k if model_k else 0.0,
        "eigensolve.model_residual_margin": min(
            (spans[i][4]["margin"] for i in model_solves), default=0.0
        ),
        "eigensolve.top_solve_s": top_solve_s,
        "eigensolve.top_self_s": top_solve_s - sum(dur[i] for i in top_solve_applies),
        "eigensolve.top_applies_per_pair": len(top_solve_applies) / top_k if top_k else 0.0,
        "asymptotics.localization_s": total("asymptotics.localization_metrics"),
        "asymptotics.extrapolate_s": total("asymptotics.extrapolate_limit"),
        "asymptotics.verdict_s": total("asymptotics.verify_limit_law"),
        "reportio.write_s": total("reportio.write_report_files"),
        "reportio.bytes_written": sum(
            spans[i][4] for i, n in enumerate(names) if n == "reportio.write_report_files"
        ),
        "trace.study_s": dur[0],
        "trace.unattributed_s": dur[0] - sum(d for d, p in zip(dur, parent) if p == 0),
    }
