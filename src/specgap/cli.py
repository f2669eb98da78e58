"""Command-line front end.

Subcommands: validate | model-spectrum | sweep | verify | report.
Exit codes: 0 success, 1 verification/validation failure,
2 configuration error, 3 numerical failure.  All randomness flows from
the single config seed (overridable with --seed).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .asymptotics import REPORT_SCHEMA, SweepSettings, VerdictStatus, choose_grid, run_sweep
from .config import (
    ConfigError,
    RunConfig,
    build_profiles,
    emit_config,
    grid_of,
    model_mode_of,
    parse_config,
    validate_config,
)
from .eigensolve import (
    InnerSolveStallError,
    NoConvergenceError,
    SolveSettings,
    bottom_mode,
    smallest_eigenpairs,
)
from .operators import build_model_operator, normalized_pair
from .profiles import validate_profile
from .reportio import (
    model_csv_text,
    render_report,
    write_report_files,
    write_text_atomic,
)

__all__ = ["main", "console_entry"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specgap",
        description="Scaled spectral-gap laboratory for weighted Fourier-multiplier operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("validate", "check both configured profiles against their declared expansions"),
        ("model-spectrum", "compute the lowest model-operator eigenvalues"),
        ("sweep", "run the alpha ladder and write records, report and plot script"),
        ("verify", "run the sweep and judge the scaled-gap law; exit 0 only on PASS"),
        ("report", "re-render a previously written report.json"),
    ]:
        p = sub.add_parser(name, help=help_text)
        if name != "report":  # a report is rendered from its own file alone
            p.add_argument("--config", required=True,
                           help="path to the INI run configuration")
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
        p.add_argument("--out", default="specgap-out", help="output directory")
    return parser


def _configured_run(args) -> RunConfig:
    # fold CLI overrides into the config so the report echo reproduces
    # the run exactly
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    cfg = parse_config(text)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    validate_config(cfg)
    return cfg


def _solve_settings(cfg: RunConfig) -> SolveSettings:
    return SolveSettings(
        k=cfg.eigen_count,
        tol=cfg.tol,
        max_iterations=cfg.max_iterations,
        rng_seed=cfg.seed,
        mode=model_mode_of(cfg),
    )


def cmd_validate(args) -> int:
    pair = build_profiles(_configured_run(args))
    ok = True
    for role_name, spec in [("symbol", pair.a_profile), ("weight", pair.v_profile)]:
        report = validate_profile(spec)
        print(f"[{role_name}] {spec.label}: {'pass' if report.passed else 'FAIL'}")
        print(f"  expansion residual ladder: "
              + ", ".join(f"{r:.3e}" for r in report.expansion_residuals))
        print(f"  homogeneity residual: {report.homogeneity_residual_max:.3e}")
        print(f"  empirical domination constant: {report.domination_constant:.6g}")
        for failure in report.failures:
            print(f"  failure: {failure}")
        for note in report.notes:
            print(f"  note: {note}")
        ok = ok and report.passed
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_model_spectrum(args) -> int:
    cfg = _configured_run(args)
    norm_pair, scale = normalized_pair(build_profiles(cfg))
    grid, grid_reasoning = choose_grid(norm_pair, cfg.eigen_count, grid_of(cfg))
    settings = _solve_settings(cfg)
    op = build_model_operator(norm_pair, grid)
    mode, reason = bottom_mode(op, settings.k, settings.mode)
    pairs = smallest_eigenpairs(op, replace(settings, mode=mode))
    rows = [
        {
            "n": i + 1,
            "mu": scale * p.value,
            "residual": scale * p.residual,
            "N": grid.n_per_axis,
            "L": grid.half_length,
            "mode": mode.value,
        }
        for i, p in enumerate(pairs)
    ]
    print(f"model solve: {mode.value} ({reason})")
    print("grid reasoning:")
    for entry in grid_reasoning:
        print(f"  {entry}")
    print(f"model spectrum on {grid.describe()}:")
    for row in rows:
        print(f"  n={row['n']}: mu={row['mu']:.12g}  residual={row['residual']:.2e}")
    out = Path(args.out)
    write_text_atomic(out / "model_spectrum.csv", model_csv_text(rows))
    print(f"wrote {out / 'model_spectrum.csv'}")
    return EXIT_OK


def _run_configured_sweep(args):
    """Run the configured sweep, write its files and print the report."""
    cfg = _configured_run(args)
    pair = build_profiles(cfg)
    settings = SweepSettings(
        solver=_solve_settings(cfg),
        grid=grid_of(cfg),
        radii=cfg.radii,
        rel_final=cfg.rel_final,
        rel_extrap=cfg.rel_extrap,
        keep_vectors=cfg.emit_eigenfunctions,
    )
    report = run_sweep(pair, cfg.alphas, cfg.eigen_count, settings)
    report.config["source"] = emit_config(cfg)
    paths = write_report_files(report, args.out)
    print(render_report(report.to_dict()))
    print(f"wrote {paths['records']}, {paths['report']}, {paths['plot']}")
    return report


def cmd_sweep(args) -> int:
    report = _run_configured_sweep(args)
    if any(not record.converged for record in report.records):
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_verify(args) -> int:
    report = _run_configured_sweep(args)
    if any(not record.converged for record in report.records):
        return EXIT_NUMERICAL
    if all(v.status is VerdictStatus.PASS for v in report.verdicts):
        return EXIT_OK
    return EXIT_VERIFY_FAIL


def cmd_report(args) -> int:
    path = Path(args.out) / "report.json"
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot render {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != REPORT_SCHEMA:
        raise ConfigError(f"cannot render {path}: not a {REPORT_SCHEMA} report")
    try:
        text = render_report(payload)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"cannot render {path}: malformed report ({exc!r})") from exc
    print(text)
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "model-spectrum": cmd_model_spectrum,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:  # every specgap input error is a ValueError
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoConvergenceError, InnerSolveStallError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
