"""Benchmark workloads: the `specgap verify` studies each one runs.

A workload is a list of studies.  Each study is an INI document plus the
leading model eigenvalues that are known in closed form (empty when the
model operator has none).  The workload seed never enters the INI text:
it only picks the `--seed` passed to each `verify` call, so the inputs
of a run are a pure function of (workload, seed).

Why these workloads (see README.md for the measured costs): each one
exercises one of the two model-solve paths and bypasses the other.

* ``verify-dense``   the shipped 1-D configs (dense N=1024 model solve),
  an auto-grid copy of gaussian.ini (the only study that runs grid
  suggestion) and the d=2 Gaussian pair on 48^2, under the 4096-unknown
  dense limit, where materialize plus complex eigh dominate.  No study
  runs shift-invert or CG.
* ``verify-iterative``   the same d=2 pair on 80^2, over the dense limit,
  so the model solve is shift-invert Lanczos with inner CG and the apply
  kernel is hot; eigenfunction dumps exercise the write path.  It
  bypasses the dense path.
"""

from __future__ import annotations

import configparser
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHIPPED_CONFIGS = ROOT / "configs"
OWN_CONFIGS = Path(__file__).resolve().parent / "configs"

WORKLOADS = ("verify-dense", "verify-iterative")

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)

# Harmonic-oscillator closed forms of the model operators (see the
# comments in configs/*.ini): sqrt(c) * (2n - 1) in 1-D, and in d=2 the
# levels sqrt(2) * 2 * (n1 + n2 + 1) with the second one doubly degenerate.
_CLOSED_FORMS = {
    "gaussian": tuple(_SQRT2 * (2 * n - 1) for n in (1, 2, 3)),
    "gaussian_auto": tuple(_SQRT2 * (2 * n - 1) for n in (1, 2, 3)),
    "custom_expression": (_SQRT3,),
    "mixed_degree": (),
    "gaussian_2d": (2 * _SQRT2, 4 * _SQRT2, 4 * _SQRT2),
}


@dataclass(frozen=True)
class Study:
    name: str  # key into reference.json
    ini: str
    closed_form: tuple[float, ...]


def _gaussian_2d(n: int, half_length: float, model_mode: str, emit: bool) -> str:
    return f"""[symbol]
kind = catalog
name = gaussian_power
params = 2

[weight]
kind = catalog
name = gaussian_power
params = 2

[problem]
dimension = 2
alphas = 0.2, 0.1, 0.05, 0.025
eigen_count = 3

[grid]
mode = manual
n = {n}
half_length = {half_length:g}

[solver]
tol = 1e-9
seed = 74082
model_mode = {model_mode}

[output]
emit_eigenfunctions = {"true" if emit else "false"}

[run]
threads = 1
"""


def _with_grid_n(text: str, n: int) -> str:
    parser = configparser.ConfigParser()
    parser.read_string(text)
    parser["grid"]["n"] = str(n)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def studies(workload: str, shrink: bool = False) -> list[Study]:
    """The studies of one round of ``workload``.

    ``shrink`` gives small grids of the same shape, for the benchmark's
    own tests; they have their own reference records.
    """
    suffix = "-small" if shrink else ""
    if workload == "verify-dense":
        out = []
        for name in ("gaussian", "custom_expression", "mixed_degree"):
            text = (SHIPPED_CONFIGS / f"{name}.ini").read_text(encoding="utf-8")
            if shrink:
                text = _with_grid_n(text, 256)
            out.append(Study(name + suffix, text, _CLOSED_FORMS[name]))
        text = (OWN_CONFIGS / "gaussian_auto.ini").read_text(encoding="utf-8")
        out.append(Study("gaussian_auto", text, _CLOSED_FORMS["gaussian_auto"]))
        # 48^2 = 2304 unknowns: under the 4096 dense limit, so auto mode
        # materializes and calls eigh.
        ini = _gaussian_2d(32, 6, "auto", False) if shrink else _gaussian_2d(48, 8, "auto", False)
        out.append(Study("gaussian_2d_dense" + suffix, ini, _CLOSED_FORMS["gaussian_2d"]))
        return out
    if workload == "verify-iterative":
        # 80^2 = 6400 unknowns: over the dense limit, so auto mode runs
        # shift-invert; the small grid forces that mode explicitly.
        ini = (
            _gaussian_2d(32, 6, "shift_invert", True)
            if shrink
            else _gaussian_2d(80, 10, "auto", True)
        )
        return [Study("gaussian_2d_iterative" + suffix, ini, _CLOSED_FORMS["gaussian_2d"])]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def solver_seeds(workload: str, seed: int):
    """Endless stream of `--seed` values for successive studies."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(1, 2**31)
