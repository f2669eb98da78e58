"""Command-line front end.

Subcommands: validate | model-spectrum | sweep | verify | report.  All
randomness flows from the single config seed (overridable with --seed).

Exit codes, the same for each input in every command:

* 0: success;
* 1: a profile fails :func:`~specgap.profiles.validate_profile` (every
  command but ``report`` validates both profiles before any solve and
  prints the failing profile's lines), or a verdict is not PASS
  (``verify``);
* 2: a document, settings or pair error, a non-finite degree or
  ``aniso_gaussian`` coefficient (both at parse time), or a weight at
  or below -V0 on the pair's probe or on the study grid at any alpha
  of the ladder (checked before the model solve, so ``model-spectrum``
  exits 2 on it too and no command writes a file); also an unreadable
  or malformed report for ``report``;
* 3: a numerical failure (:class:`~specgap.eigensolve.NoConvergenceError`,
  an inner CG stall included).

``config.sweep_settings`` maps the run configuration to settings;
``asymptotics.model_spectrum`` is the model step of ``model-spectrum``
and ``asymptotics.run_sweep`` the study of ``sweep`` and ``verify``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .asymptotics import REPORT_SCHEMA, VerdictStatus, model_spectrum, run_sweep
from .config import (
    ConfigError,
    RunConfig,
    build_profiles,
    emit_config,
    parse_config,
    sweep_settings,
)
from .eigensolve import NoConvergenceError
from .operators import normalized_pair
from .profiles import ProfilePair, validate_profile
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
        cfg = replace(cfg, rng_seed=args.seed)
    return cfg


class _ProfileRejected(Exception):
    """A profile failed the validator; its lines are printed."""


def _validated_pair(cfg: RunConfig, show_passing: bool = False) -> ProfilePair:
    """The configured pair, after :func:`validate_profile` has passed
    both profiles.  Prints the validator's lines for each failing
    profile, and for the passing ones too with ``show_passing``; raises
    :class:`_ProfileRejected` if either fails."""
    pair = build_profiles(cfg)
    ok = True
    for role_name, spec in [("symbol", pair.a_profile), ("weight", pair.v_profile)]:
        report = validate_profile(spec)
        ok = ok and report.passed
        if report.passed and not show_passing:
            continue
        print(f"[{role_name}] {spec.label}: {'pass' if report.passed else 'FAIL'}")
        print(f"  expansion residual ladder: "
              + ", ".join(f"{r:.3e}" for r in report.expansion_residuals))
        print(f"  homogeneity residual: {report.homogeneity_residual_max:.3e}")
        print(f"  empirical domination constant: {report.domination_constant:.6g}")
        for failure in report.failures:
            print(f"  failure: {failure}")
        for note in report.notes:
            print(f"  note: {note}")
    if not ok:
        raise _ProfileRejected
    return pair


def cmd_validate(args) -> int:
    _validated_pair(_configured_run(args), show_passing=True)
    return EXIT_OK


def cmd_model_spectrum(args) -> int:
    cfg = _configured_run(args)
    norm_pair, scale = normalized_pair(_validated_pair(cfg))
    grid, grid_reasoning, mode, reason, pairs, _ = model_spectrum(
        norm_pair, cfg.alphas, cfg.eigen_count, sweep_settings(cfg)
    )
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
    report = run_sweep(_validated_pair(cfg), cfg.alphas, cfg.eigen_count, sweep_settings(cfg))
    report.config["source"] = emit_config(cfg)
    paths = write_report_files(report, args.out)
    print(render_report(report.to_dict()))
    print("wrote " + ", ".join(str(path) for path in paths.values()))
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
    except _ProfileRejected:
        return EXIT_VERIFY_FAIL
    except ValueError as exc:  # every specgap input error is a ValueError
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
