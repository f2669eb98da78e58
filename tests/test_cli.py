import ast
import csv
import json
import os
import re
import subprocess
import sys
import textwrap
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import specgap
from specgap import Mode, SolveSettings, SweepSettings, load_states, run_sweep, suggest_grid
from specgap import config
from specgap.cli import main
from specgap.config import (
    ConfigError,
    ProfileConfig,
    RunConfig,
    build_profiles,
    emit_config,
    parse_config,
    sweep_settings,
)
from specgap.operators import normalized_pair
from specgap.reportio import write_text_atomic

SRC = Path(specgap.__file__).resolve().parent.parent
ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN_EMIT = Path(__file__).resolve().parent / "golden_emit.json"
EXPRESSION_SYMBOL = "[symbol]\nkind = expression\nexpr = exp(-x1^2)\nprincipal = x1^2\ndegree = 2\n"
# Peaks at V0 = 1 at x = 0 but dips to about -1.15 V0, below -V0.
DIPPING_WEIGHT = (
    "[weight]\nkind = expression\nexpr = (1 - 2*x1^2)*exp(-x1^2/2)\n"
    "principal = 5*x1^2/2\ndegree = 2\n"
)
CATALOG_WEIGHT = "[weight]\nkind = catalog\nname = gaussian_power\nparams = 2\n"
CATALOG_SYMBOL = CATALOG_WEIGHT.replace("[weight]", "[symbol]")
INFINITE_DEGREE_SYMBOL = EXPRESSION_SYMBOL.replace("degree = 2", "degree = inf")
SHIFTED_SYMBOL = EXPRESSION_SYMBOL.replace("exp(-x1^2)", "exp(-(x1-1)^2)")


def well_weight(depth: float, width: float, at: float) -> str:
    """A Gaussian weight with a narrow well of the given depth at |x1| = at."""
    return (f"[weight]\nkind = expression\n"
            f"expr = exp(-x1^2) - {depth:g}*exp(-{width:g}*(abs(x1)-{at:g})^2)\n"
            "principal = x1^2\ndegree = 2\n")

GAUSSIAN_MINI = textwrap.dedent(
    """
    [symbol]
    kind = catalog
    name = gaussian_power
    params = 2

    [weight]
    kind = catalog
    name = gaussian_power
    params = 2

    [problem]
    dimension = 1
    alphas = 0.2, 0.1, 0.05
    eigen_count = 1

    [grid]
    mode = manual
    n = 512
    half_length = 14
    """
)

# A d=2 run with an aniso_gaussian symbol.
ANISO_MINI = (
    GAUSSIAN_MINI.replace(CATALOG_SYMBOL, CATALOG_SYMBOL.replace(
        "name = gaussian_power\nparams = 2", "name = aniso_gaussian\nparams = 2, 0, 0, 1"))
    .replace("dimension = 1", "dimension = 2").replace("n = 512", "n = 32")
    .replace("half_length = 14", "half_length = 6")
)


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigRoundTrip:
    def test_emit_parse_is_idempotent(self):
        cfg = parse_config(GAUSSIAN_MINI)
        normalized = emit_config(cfg)
        again = emit_config(parse_config(normalized))
        assert normalized == again
        assert parse_config(normalized) == cfg

    def test_defaults_fill_missing_sections(self):
        cfg = parse_config("[problem]\ndimension = 1\n")
        assert cfg.symbol.kind == "catalog"
        assert cfg.rel_final == 0.05
        assert cfg.alphas == (0.2, 0.1, 0.05, 0.025)
        assert parse_config("") == RunConfig()
        run, solve, sweep = RunConfig(), SolveSettings(), SweepSettings()
        assert (run.tol, run.rng_seed, run.max_iterations) == (
            solve.tol, solve.rng_seed, solve.max_iterations
        )
        assert (run.rel_final, run.rel_extrap, run.radii) == (
            sweep.rel_final, sweep.rel_extrap, sweep.radii
        )

    def test_emitted_values_round_trip_exactly(self):
        catalog = GAUSSIAN_MINI.replace("0.2, 0.1, 0.05", "0.2, 0.0333333333, 0.01").replace(
            "half_length = 14", "half_length = 12.3456789"
        ) + "\n[solver]\ntol = 1.23456789e-9\n"
        expression = (CONFIGS / "custom_expression.ini").read_text(encoding="utf-8")
        shown = {
            catalog: ("0.0333333333", "half_length = 12.3456789", "tol = 1.23456789e-09"),
            expression: ("principal = norm(x)^2\ndegree = 2\n",),
        }
        for text, lines in shown.items():
            cfg = parse_config(text)
            normalized = emit_config(cfg)
            for line in lines:
                assert line in normalized
            assert parse_config(normalized) == cfg
            assert emit_config(parse_config(normalized)) == normalized

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"dimension": 4}, "dimension must be 1..3, got 4"),
            ({"alphas": (0.2, 0.1)}, "[problem] alphas: the alpha ladder needs at least 3"),
            ({"grid_mode": "manual", "grid_n": 6}, "[grid] "),
            ({"rng_seed": -1}, "[solver] seed: rng_seed must be >= 0, got -1"),
            ({"radii": (2.0, 2.0)}, "[localization] radii: radii must be distinct"),
            ({"symbol": ProfileConfig(kind="expression", expr="exp(-y^2)", principal="x1^2",
                                      degree=2.0)},
             "[symbol] expr: unknown identifier 'y'"),
        ],
    )
    def test_an_invalid_run_config_cannot_be_built(self, change, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            RunConfig(**change)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            replace(parse_config(GAUSSIAN_MINI), **change)

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_every_mode_value_is_a_model_mode_word(self, mode):
        cfg = parse_config(f"[solver]\nmodel_mode = {mode.value}\n")
        assert sweep_settings(cfg).solver.mode is mode
        assert parse_config(emit_config(cfg)) == cfg

    def test_a_run_threads_key_is_ignored(self):
        # perfbench/workloads.py still writes this key into its INIs.
        assert parse_config("[run]\nthreads = 1\n") == RunConfig()

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[solver]\ntols = 1e-3\n", "[solver] tols"),
            ("[symbol]\nkind = catalog\nnmae = rational_power\n", "[symbol] nmae"),
            # an expression weight's margin is measured, never declared
            (EXPRESSION_SYMBOL + "margin = 0.5\n", "[symbol] margin: unknown key"),
            (DIPPING_WEIGHT + "margin = 0.5\n", "[weight] margin: unknown key"),
        ],
    )
    def test_unknown_key_in_a_known_section_rejected(self, text, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            parse_config(text)

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[weight]\nkind = catalog\nexpr = exp(-x1^2 - abs(x1)^3)\n",
             "[weight] expr: not read with kind = catalog"),
            (EXPRESSION_SYMBOL + "name = gaussian_power\n",
             "[symbol] name: not read with kind = expression"),
            (EXPRESSION_SYMBOL + "params = 2\n", "[symbol] params: not read with kind = expression"),
            ("[grid]\nmode = auto\nn = 31\nhalf_length = -5\n", "[grid] n: not read with mode = auto"),
            ("[grid]\nhalf_length = 14\n", "[grid] half_length: not read with mode = auto"),
            ("[solvr]\ntol = 1e-3\n", "[solvr] unknown section"),
            ("[DEFAULT]\ntol = 1e-3\n", "[DEFAULT] unknown section"),
            # a profile that does not build fails here, not in build_profiles
            ("[symbol]\nname = gausian_power\n", "[symbol] unknown catalog profile 'gausian_power'"),
            ("[weight]\nparams = 1, 2\n", "[weight] gaussian_power takes exactly one parameter"),
            (EXPRESSION_SYMBOL.replace("exp(-x1^2)", "sin(x1)"), "[symbol] expr: only exp, abs"),
            ("[weight]\nkind = expression\nexpr = exp(-x1^2)\nprincipal = x2^2\ndegree = 2\n",
             "[weight] principal: coordinate 'x2' out of range"),
            (INFINITE_DEGREE_SYMBOL, "[symbol] degree must be positive and finite"),
            ("[symbol]\nparams = inf\n", "[symbol] degree must be positive and finite"),
        ],
    )
    def test_input_the_run_would_not_read_or_build_is_rejected(self, text, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            parse_config(text)

    def test_every_field_has_exactly_one_row(self):
        profiles = ("symbol", "weight")
        run_rows = [name for section, _, name, *_ in config._SCHEMA if section not in profiles]
        assert sorted(run_rows) == sorted(
            f.name for f in fields(RunConfig) if f.name not in profiles
        )
        for profile in profiles:
            rows = [name for section, _, name, *_ in config._SCHEMA if section == profile]
            assert sorted(rows) == sorted(f.name for f in fields(ProfileConfig))

    def test_normalized_form_of_every_shipped_ini_is_unchanged(self, workloads):
        # tests/golden_emit.json pins emit_config(parse_config(text)), the
        # `config.source` of report.json, for configs/*.ini and every
        # benchmark study at full size and shrunk.
        texts = {
            path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
            for path in [*sorted(CONFIGS.glob("*.ini")), workloads.OWN_CONFIGS / "gaussian_auto.ini"]
        }
        for workload in workloads.WORKLOADS:
            for shrink in (False, True):
                for study in workloads.studies(workload, shrink):
                    texts[f"{workload}/{study.name}"] = study.ini
        golden = json.loads(GOLDEN_EMIT.read_text(encoding="utf-8"))
        assert sorted(texts) == sorted(golden)
        for name, text in texts.items():
            assert emit_config(parse_config(text)) == golden[name], name

    @pytest.mark.parametrize(
        "text",
        [
            "not an ini at all [",
            "[problem]\ndimension = 7\n",
            "[problem]\nalphas = 0.1, 0.2\n",  # increasing
            "[problem]\nalphas = -0.1\n",
            "[problem]\neigen_count = 0\n",
            "[grid]\nmode = manual\nn = 31\n",
            "[solver]\ntol = -1\n",
            "[solver]\ntol = nan\n",
            "[solver]\nseed = -1\n",
            "[symbol]\nkind = expression\nexpr = x1\n",  # missing principal/degree
            "[symbol]\nkind = nonsense\n",
            "[tolerances]\nrel_final = 2\n",
            "[localization]\nradii = 0\n",
            "[localization]\nradii = nan\n",
            "[output]\nemit_eigenfunctions = ture\n",
            "[problem]\nalphas =\n",
            "[grid]\nmode = bogus\n",
            "[grid]\nmode = manual\nn = 32\nhalf_length = 0\n",
            "[solver]\nmax_iterations = 0\n",
            "[solver]\nmodel_mode = bogus\n",
            "[symbol]\nkind = expression\nexpr = norm(x)^2\nprincipal = norm(x)^2\n",
            "[solver]\ntol = 1e-9%\n",
            # expressions outside the grammar fail here, not in build_profiles
            "[symbol]\nkind = expression\nexpr = exp(-x1^2) % 2\nprincipal = x1^2\ndegree = 2\n",
            "[symbol]\nkind = expression\nexpr = sin(x1)\nprincipal = x1^2\ndegree = 2\n",
            "[weight]\nkind = expression\nexpr = exp(-x1^2)\nprincipal = x2^2\ndegree = 2\n",
            DIPPING_WEIGHT,
            # manual grids are checked by build_grid: 512^3 nodes exceed the
            # node budget, 6 nodes are too few, an infinite box is no box
            "[problem]\ndimension = 3\n[grid]\nmode = manual\nn = 512\n",
            "[grid]\nmode = manual\nn = 6\n",
            "[grid]\nmode = manual\nn = 32\nhalf_length = inf\n",
            "[problem]\nalphas = 0.2, 0.1\n",  # run_sweep needs 3 points
            "[problem]\nalphas = 0.2\n",
        ],
    )
    def test_rejects_bad_configs(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)

    @pytest.mark.parametrize(
        "text, key",
        [
            ("[solver]\ntol = 0.5\n", "[solver] tol"),
            ("[solver]\nmax_iterations = 0\n", "[solver] max_iterations"),
            ("[solver]\nseed = -1\n", "[solver] seed"),
            ("[tolerances]\nrel_final = 0\n", "[tolerances] rel_final"),
            ("[tolerances]\nrel_extrap = 1.5\n", "[tolerances] rel_extrap"),
            ("[localization]\nradii = 2, 2.0000001\n", "[localization] radii"),
            ("[problem]\nalphas = 0.2, 0.1, 0\n", "[problem] alphas"),
        ],
    )
    def test_an_out_of_range_value_names_its_key(self, text, key):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
            parse_config(text)


class TestValidateCommand:
    def test_gaussian_passes(self, tmp_path, capsys):
        rc = main(["validate", "--config", write(tmp_path, GAUSSIAN_MINI)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pass" in out

    def test_shifted_maximum_fails_with_named_check(self, tmp_path, capsys):
        text = GAUSSIAN_MINI.replace(
            "[symbol]\nkind = catalog\nname = gaussian_power\nparams = 2",
            "[symbol]\nkind = expression\nexpr = exp(-(x1-1)^2)\n"
            "principal = x1^2\ndegree = 2",
        )
        rc = main(["validate", "--config", write(tmp_path, text)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "maximum" in out

    @pytest.mark.parametrize("command", ["model-spectrum", "sweep", "verify"])
    def test_study_commands_stop_on_a_profile_the_validator_fails(self, tmp_path, capsys,
                                                                   command):
        # The symbol peaks at x = 1, so the theorem does not cover the pair.
        config = write(tmp_path, GAUSSIAN_MINI.replace(CATALOG_SYMBOL, SHIFTED_SYMBOL))
        assert main(["validate", "--config", config]) == 1
        validated = capsys.readouterr().out
        symbol_lines = validated[:validated.index("[weight]")]
        out = tmp_path / "out"
        assert main([command, "--config", config, "--out", str(out)]) == 1
        assert capsys.readouterr().out == symbol_lines
        assert "[symbol] exp(-(x1-1)^2): FAIL\n  expansion residual" in symbol_lines
        assert "  failure: maximum not attained only near 0" in symbol_lines
        assert not out.exists()

    def test_malformed_expression_exits_2(self, tmp_path, capsys):
        text = GAUSSIAN_MINI.replace(
            "[symbol]\nkind = catalog\nname = gaussian_power\nparams = 2",
            "[symbol]\nkind = expression\nexpr = sin(x1)\nprincipal = x1^2\ndegree = 2",
        )
        rc = main(["validate", "--config", write(tmp_path, text)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "configuration error" in err

    def test_a_literal_power_tower_exits_2_promptly(self, tmp_path):
        # Literals are float64, so the tower overflows to inf and the origin
        # check rejects the profile; as an exact integer it would not finish.
        text = GAUSSIAN_MINI.replace(
            "[symbol]\nkind = catalog\nname = gaussian_power\nparams = 2",
            "[symbol]\nkind = expression\nexpr = 1 + 0*9^9^9\nprincipal = x1^2\ndegree = 2",
        )
        proc = subprocess.run(
            [sys.executable, "-m", "specgap", "validate", "--config", write(tmp_path, text)],
            capture_output=True, text=True, cwd=tmp_path, timeout=20,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 2, proc.stderr
        assert "configuration error" in proc.stderr

    @pytest.mark.parametrize(
        "expr", ["-" * 5000 + "1", "+".join(["1"] * 20000)], ids=["unary-minus", "long-sum"]
    )
    def test_deeply_nested_expression_exits_2(self, tmp_path, capsys, expr):
        text = GAUSSIAN_MINI.replace(
            "[symbol]\nkind = catalog\nname = gaussian_power\nparams = 2",
            f"[symbol]\nkind = expression\nexpr = {expr}\nprincipal = x1^2\ndegree = 2",
        )
        assert main(["validate", "--config", write(tmp_path, text)]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("expr", ["exp(-x01^2)", "x\u0661 + 1"], ids=["leading-zero", "non-ascii"])
    def test_unbound_coordinate_exits_2(self, tmp_path, capsys, expr):
        text = GAUSSIAN_MINI.replace(
            "[symbol]\nkind = catalog\nname = gaussian_power\nparams = 2",
            f"[symbol]\nkind = expression\nexpr = {expr}\nprincipal = x1^2\ndegree = 2",
        )
        rc = main(["validate", "--config", write(tmp_path, text)])
        assert rc == 2
        assert "unknown identifier" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[solver]\ntol = 1e-9%\n", "[solver] tol: invalid value"),
            ("[symbol]\nkind = expression\nexpr = exp(-x1^2) % 2\nprincipal = x1^2\n"
             "degree = 2\n", "disallowed operator 'Mod'"),
        ],
        ids=["percent-value", "percent-operator"],
    )
    def test_percent_sign_is_a_plain_character(self, tmp_path, capsys, text, message):
        assert main(["validate", "--config", write(tmp_path, text)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, text, message",
        [
            # the weight dips below -V0; a declared margin cannot hide that
            ("verify", GAUSSIAN_MINI.replace("[weight]\nkind = catalog\nname = gaussian_power\n"
                                             "params = 2\n", DIPPING_WEIGHT + "margin = 0.5\n"),
             "[weight] margin: unknown key"),
            ("validate", GAUSSIAN_MINI.replace("dimension = 1", "dimension = 3"),
             "[grid] grid with 512^3 nodes exceeds the node budget"),
            ("validate", GAUSSIAN_MINI.replace("0.2, 0.1, 0.05", "0.2, 0.1"),
             "the alpha ladder needs at least 3 entries"),
            ("validate", GAUSSIAN_MINI.replace("0.2, 0.1, 0.05", "0.2"),
             "the alpha ladder needs at least 3 entries, got 1"),
            # dips to -1.83 V0 in a narrow well at |x| = 1
            *(
                (command, GAUSSIAN_MINI.replace(CATALOG_WEIGHT, well_weight(2.2, 400, 1)),
                 "[weight] sampled minimum -1.83")
                for command in ("verify", "validate", "model-spectrum")
            ),
            # dips to -2.14 V0 at |x| = 3, between the pair probe's radii but
            # on the study grid's nodes at the first alpha; found before the
            # model solve, so model-spectrum stops too
            *(
                (command, GAUSSIAN_MINI.replace(CATALOG_WEIGHT, well_weight(2.2, 400, 3)),
                 "weight sample minimum -2.14136 <= -V0 = -1 at alpha=0.2")
                for command in ("sweep", "verify", "model-spectrum")
            ),
            *(
                (command, GAUSSIAN_MINI.replace(CATALOG_SYMBOL, INFINITE_DEGREE_SYMBOL),
                 "[symbol] degree must be positive and finite")
                for command in ("validate", "model-spectrum", "verify")
            ),
            *(
                (command, ANISO_MINI.replace("params = 2, 0, 0, 1", f"params = {params}"),
                 f"[symbol] aniso_gaussian coefficient {message}")
                for command in ("validate", "model-spectrum", "verify")
                for params, message in (("1, 0, 0, inf", "q22 = inf must be finite"),
                                        ("1, nan, nan, 1", "matrix must be symmetric"))
            ),
        ],
        ids=["dipping-weight-with-margin", "over-budget-grid", "two-point-ladder",
             "one-point-ladder", "well-below-minus-v0-verify", "well-below-minus-v0-validate",
             "well-below-minus-v0-model-spectrum", "well-between-probe-radii-sweep",
             "well-between-probe-radii-verify", "well-between-probe-radii-model-spectrum",
             "infinite-degree-validate", "infinite-degree-model-spectrum",
             "infinite-degree-verify", "infinite-aniso-coefficient-validate",
             "nan-aniso-coefficient-validate", "infinite-aniso-coefficient-model-spectrum",
             "nan-aniso-coefficient-model-spectrum", "infinite-aniso-coefficient-verify",
             "nan-aniso-coefficient-verify"],
    )
    def test_input_the_run_would_reject_exits_2(self, tmp_path, capsys, command, text, message):
        out = tmp_path / "out"
        assert main([command, "--config", write(tmp_path, text), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_weight_with_a_well_above_minus_v0_passes(self, tmp_path, capsys):
        # dips to -0.48 V0 at |x| = 2, a radius of the validator's probe
        text = GAUSSIAN_MINI.replace(CATALOG_WEIGHT, well_weight(0.5, 100, 2))
        assert main(["validate", "--config", write(tmp_path, text)]) == 0
        assert "[weight] exp(-x1^2) - 0.5*exp(-100*(abs(x1)-2)^2): pass" in capsys.readouterr().out

    def test_missing_config_exits_2(self, tmp_path):
        rc = main(["validate", "--config", str(tmp_path / "absent.ini")])
        assert rc == 2

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        rc = main(["validate", "--config", write(tmp_path, GAUSSIAN_MINI), "--seed", "-1"])
        assert rc == 2
        assert "[solver] seed" in capsys.readouterr().err

    def test_runs_as_a_module(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "specgap.cli", "validate",
             "--config", str(CONFIGS / "gaussian.ini")],
            capture_output=True, text=True, cwd=tmp_path, timeout=300,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert any(line.startswith("[symbol] ") and line.endswith(": pass") for line in lines)
        assert any(line.startswith("[weight] ") and line.endswith(": pass") for line in lines)

    def test_runs_as_a_package(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "specgap", "validate",
             "--config", str(CONFIGS / "gaussian.ini")],
            capture_output=True, text=True, cwd=tmp_path, timeout=300,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == "[symbol] gaussian_power(2): pass"

    @pytest.mark.parametrize("name", ["gaussian", "custom_expression", "mixed_degree",
                                      "gaussian_3d"])
    def test_every_shipped_config_passes(self, name, capsys):
        assert main(["validate", "--config", str(CONFIGS / f"{name}.ini")]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_principal_part_vanishing_on_an_axis_fails(self, tmp_path, capsys):
        # x1^2 vanishes along x2, where no random sphere direction lands.
        text = GAUSSIAN_MINI.replace(
            "[symbol]\nkind = catalog\nname = gaussian_power\nparams = 2",
            "[symbol]\nkind = expression\nexpr = exp(-x1^2)\nprincipal = x1^2\ndegree = 2",
        ).replace("dimension = 1", "dimension = 2")
        rc = main(["validate", "--config", write(tmp_path, text)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[symbol] exp(-x1^2): FAIL" in out
        assert "failure: principal part is not positive on the sphere sample" in out


class TestModelSpectrumCommand:
    def test_harmonic_csv(self, tmp_path, capsys):
        text = GAUSSIAN_MINI.replace("eigen_count = 1", "eigen_count = 4")
        rc = main(
            ["model-spectrum", "--config", write(tmp_path, text), "--out", str(tmp_path)]
        )
        assert rc == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == "model solve: dense (512 unknowns <= 1024; parity blocks 257 + 255)"
        lines = (tmp_path / "model_spectrum.csv").read_text().splitlines()
        assert lines[0] == "# schema: specgap.model.v1"
        assert lines[1] == "n,mu,residual,N,L,mode"
        exact = np.sqrt(2.0) * (2 * np.arange(1, 5) - 1)
        for row, target in zip(lines[2:], exact):
            fields = row.split(",")
            assert abs(float(fields[1]) - target) <= 1e-8 * target
            assert fields[3] == "512"

    def test_auto_grid_does_not_depend_on_the_ladder(self, tmp_path):
        auto = GAUSSIAN_MINI.replace("mode = manual\nn = 512\nhalf_length = 14", "mode = auto")
        written = []
        for ladder in ("0.2, 0.1, 0.05", "0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625"):
            out = tmp_path / ladder.replace(", ", "_")
            text = auto.replace("alphas = 0.2, 0.1, 0.05", f"alphas = {ladder}")
            assert main(["model-spectrum", "--config", write(tmp_path, text),
                         "--out", str(out)]) == 0
            written.append((out / "model_spectrum.csv").read_bytes())
        assert written[0] == written[1]

    def test_zero_eigen_count_exits_2(self, tmp_path):
        text = GAUSSIAN_MINI.replace("eigen_count = 1", "eigen_count = 0")
        rc = main(
            ["model-spectrum", "--config", write(tmp_path, text), "--out", str(tmp_path)]
        )
        assert rc == 2

    def test_more_pairs_than_unknowns_exits_2(self, tmp_path, capsys):
        text = (
            GAUSSIAN_MINI.replace("eigen_count = 1", "eigen_count = 9")
            .replace("n = 512\nhalf_length = 14", "n = 8\nhalf_length = 4")
            + "\n[solver]\nmodel_mode = shift_invert\n"
        )
        rc = main(
            ["model-spectrum", "--config", write(tmp_path, text), "--out", str(tmp_path)]
        )
        assert rc == 2
        assert "requested 9 pairs from a 8-dimensional operator" in capsys.readouterr().err


class TestModelSpectrumAgreesWithVerify:
    """``model-spectrum`` and ``verify`` share one model step, so they
    report the same spectrum, mode, mode reason and grid reasoning."""

    @pytest.mark.parametrize(
        "text, mode",
        [
            (GAUSSIAN_MINI, "dense"),
            (GAUSSIAN_MINI.replace("mode = manual\nn = 512\nhalf_length = 14", "mode = auto"),
             "dense"),
            (GAUSSIAN_MINI + "\n[solver]\nmodel_mode = lanczos\n", "lanczos"),
        ],
        ids=["manual-grid", "auto-grid", "lanczos"],
    )
    def test_same_spectrum_mode_and_reasons(self, tmp_path, capsys, text, mode):
        config = write(tmp_path, text.replace("eigen_count = 1", "eigen_count = 2"))
        assert main(["model-spectrum", "--config", config, "--out", str(tmp_path / "m")]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert main(["verify", "--config", config, "--out", str(tmp_path / "v")]) in (0, 1)
        report = json.loads((tmp_path / "v" / "report.json").read_text(encoding="utf-8"))
        prov = report["provenance"]

        lines = (tmp_path / "m" / "model_spectrum.csv").read_text(encoding="utf-8").splitlines()
        rows = list(csv.DictReader(lines[1:]))
        assert [(row["mu"], row["residual"]) for row in rows] == [
            (f"{e['mu']:.17g}", f"{e['residual']:.3e}") for e in report["model_eigenvalues"]
        ]
        assert len(rows) == 2
        assert {row["mode"] for row in rows} == {prov["model_mode"]} == {mode}
        # the mode a report records is a word the config accepts
        recorded = parse_config(f"[solver]\nmodel_mode = {prov['model_mode']}\n")
        assert sweep_settings(recorded).solver.mode.value == mode
        assert printed[0] == f"model solve: {mode} ({prov['model_mode_reason']})"
        start = printed.index("grid reasoning:") + 1
        assert printed[start:printed.index(f"model spectrum on {prov['grid']}:")] == [
            f"  {entry}" for entry in prov["grid_reasoning"]
        ]


class TestSweepAndVerify:
    def test_sweep_writes_all_outputs(self, tmp_path, capsys):
        rc = main(["sweep", "--config", write(tmp_path, GAUSSIAN_MINI),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        records = (tmp_path / "out" / "records.csv").read_text().splitlines()
        assert records[0] == "# schema: specgap.records.v1"
        header = records[1].split(",")
        assert header[:7] == [
            "alpha", "n", "lambda", "scaled_gap", "residual", "k_form", "s_form",
        ]
        assert "pos_mass_out_R2" in header and "frq_mass_out_R8" in header
        assert len(records) == 2 + 3  # comment + header + one row per (alpha, n)
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["schema"] == "specgap.report.v1"
        # the plot script is valid Python that takes mu from report.json
        plot = (tmp_path / "out" / "plot_gaps.py").read_text()
        ast.parse(plot)
        assert 'open("report.json"' in plot
        # no kept eigenfunctions: no stack, and the wrote line names none
        assert not list((tmp_path / "out").glob("*.sgv"))
        out = tmp_path / "out"
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"wrote {out / 'records.csv'}, {out / 'report.json'}, {out / 'plot_gaps.py'}"
        )

    def test_final_row_scaled_gap_close_to_model_value(self, tmp_path):
        rc = main(["sweep", "--config", write(tmp_path, GAUSSIAN_MINI),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        rows = (tmp_path / "out" / "records.csv").read_text().splitlines()[2:]
        final_alpha, n = rows[-1].split(",")[:2]
        assert (float(final_alpha), int(n)) == (0.05, 1)
        gap = float(rows[-1].split(",")[3])
        assert abs(gap - np.sqrt(2.0)) <= 0.05 * np.sqrt(2.0)

    def test_verify_passes_mini_ladder(self, tmp_path):
        rc = main(["verify", "--config", write(tmp_path, GAUSSIAN_MINI),
                   "--out", str(tmp_path / "out")])
        assert rc == 0

    def test_verify_with_unreachable_tolerance_exits_1(self, tmp_path):
        text = GAUSSIAN_MINI + "\n[tolerances]\nrel_final = 1e-6\nrel_extrap = 1e-6\n"
        rc = main(["verify", "--config", write(tmp_path, text),
                   "--out", str(tmp_path / "out")])
        assert rc == 1

    def test_verify_needs_three_ladder_points(self, tmp_path):
        text = GAUSSIAN_MINI.replace("alphas = 0.2, 0.1, 0.05", "alphas = 0.2, 0.1")
        rc = main(["verify", "--config", write(tmp_path, text),
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    def test_sweep_solver_failure_exits_3(self, tmp_path, command, capsys):
        text = GAUSSIAN_MINI + "\n[solver]\ntol = 1e-13\nmax_iterations = 3\nmodel_mode = dense\n"
        out = tmp_path / "out"
        rc = main([command, "--config", write(tmp_path, text), "--out", str(out)])
        assert rc == 3

        def reject(token):
            raise ValueError(f"report.json holds {token}")

        # The failed solve's NaN numbers are written as null, so the file is strict JSON.
        payload = json.loads((out / "report.json").read_text(), parse_constant=reject)
        assert payload["records"][0]["lambda"] is None
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        rendered = capsys.readouterr().out
        assert "final_err=n/a" in rendered and "nan" not in rendered

    def test_an_inner_cg_stall_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(specgap.eigensolve, "INNER_MAX_ITERATIONS", 2)
        text = GAUSSIAN_MINI + "\n[solver]\nmodel_mode = shift_invert\n"
        rc = main(["model-spectrum", "--config", write(tmp_path, text),
                   "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "numerical failure: inner CG stalled" in capsys.readouterr().err

    def test_model_solve_failure_exits_3_and_names_the_operator(self, tmp_path, capsys):
        text = GAUSSIAN_MINI + "\n[solver]\nmax_iterations = 3\nmodel_mode = lanczos\n"
        rc = main(["sweep", "--config", write(tmp_path, text),
                   "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "numerical failure: model-operator: no convergence" in capsys.readouterr().err

    def test_auto_grid_reasoning_reaches_the_report(self, tmp_path):
        text = GAUSSIAN_MINI.replace("mode = manual\nn = 512\nhalf_length = 14", "mode = auto")
        out = tmp_path / "out"
        assert main(["sweep", "--config", write(tmp_path, text), "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        cfg = parse_config(text)
        norm_pair, _ = normalized_pair(build_profiles(cfg))
        _, expected = suggest_grid(norm_pair, k=cfg.eigen_count)
        assert payload["provenance"]["grid_reasoning"] == list(expected)

    @pytest.mark.parametrize("command", ["model-spectrum", "sweep", "verify", "report"])
    def test_auto_grid_reasoning_is_printed(self, tmp_path, capsys, command):
        text = GAUSSIAN_MINI.replace("mode = manual\nn = 512\nhalf_length = 14", "mode = auto")
        out = tmp_path / "out"
        config = ["--config", write(tmp_path, text)]
        if command == "report":
            assert main(["sweep", *config, "--out", str(out)]) == 0
            capsys.readouterr()
            config = []
        assert main([command, *config, "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        cfg = parse_config(text)
        norm_pair, _ = normalized_pair(build_profiles(cfg))
        _, reasoning = suggest_grid(norm_pair, k=cfg.eigen_count)
        assert len(reasoning) >= 3
        for entry in reasoning:
            assert f"  {entry}" in printed

    def test_records_columns_follow_their_radii_in_any_order(self, tmp_path):
        text = GAUSSIAN_MINI + "\n[localization]\nradii = 8, 2, 4\n"
        out = tmp_path / "out"
        assert main(["sweep", "--config", write(tmp_path, text), "--out", str(out)]) == 0
        lines = (out / "records.csv").read_text().splitlines()
        rows = list(csv.DictReader(lines[1:]))
        payload = json.loads((out / "report.json").read_text())
        records, radii = payload["records"], sorted(payload["config"]["radii"])
        assert len(rows) == len(records) == 3
        for row, record in zip(rows, records):
            loc = record["localization"]
            for r in (8, 2, 4):
                i = radii.index(r)
                assert float(row[f"pos_mass_out_R{r}"]) == pytest.approx(
                    loc["position_mass_outside"][i], rel=1e-6)
                assert float(row[f"frq_mass_out_R{r}"]) == pytest.approx(
                    loc["frequency_mass_outside"][i], rel=1e-6)

    def test_duplicate_radii_exit_2(self, tmp_path, capsys):
        text = GAUSSIAN_MINI + "\n[localization]\nradii = 2, 2\n"
        rc = main(["sweep", "--config", write(tmp_path, text), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "radii must be distinct" in capsys.readouterr().err

    def test_radii_with_one_column_label_exit_2(self, tmp_path, capsys):
        # Both would be named pos_mass_out_R2 in records.csv.
        text = GAUSSIAN_MINI + "\n[localization]\nradii = 2, 2.0000001\n"
        rc = main(["sweep", "--config", write(tmp_path, text), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "radii must be distinct to 6 significant digits" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_eigenfunction_dumps_loadable(self, tmp_path, capsys):
        text = GAUSSIAN_MINI + "\n[output]\nemit_eigenfunctions = true\n"
        out = tmp_path / "out"
        rc = main(["sweep", "--config", write(tmp_path, text), "--out", str(out)])
        assert rc == 0
        stack = out / "eigenfunctions.sgv"
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"wrote {out / 'records.csv'}, {out / 'report.json'}, {out / 'plot_gaps.py'}, {stack}"
        )
        assert sorted(p.name for p in out.iterdir()) == [
            "eigenfunctions.sgv", "plot_gaps.py", "records.csv", "report.json",
        ]
        # the same seeded sweep in process: one state per records.csv row, in order
        cfg = parse_config(text)
        report = run_sweep(build_profiles(cfg), cfg.alphas, cfg.eigen_count, sweep_settings(cfg))
        rows = list(csv.DictReader((out / "records.csv").read_text().splitlines()[1:]))
        states = load_states(stack)
        assert len(states) == len(rows) == len(report.records) == 3
        for row, record, vec in zip(rows, report.records, states):
            assert (float(row["alpha"]), int(row["n"])) == (record.alpha, record.n)
            assert vec.grid.n_per_axis == 512
            np.testing.assert_array_equal(vec.values, record.vector.values)

    def test_a_sweep_without_eigenfunctions_removes_a_stale_stack(self, tmp_path, capsys):
        emit = GAUSSIAN_MINI + "\n[output]\nemit_eigenfunctions = true\n"
        out = tmp_path / "out"
        stack = out / "eigenfunctions.sgv"
        assert main(["sweep", "--config", write(tmp_path, emit), "--out", str(out)]) == 0
        assert stack.exists()
        plain = write(tmp_path, GAUSSIAN_MINI, "plain.ini")
        assert main(["sweep", "--config", plain, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "plot_gaps.py", "records.csv", "report.json",
        ]
        # emitting again writes a stack that matches the new records.csv
        emit_two = emit.replace("eigen_count = 1", "eigen_count = 2")
        assert main(["sweep", "--config", write(tmp_path, emit_two), "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith(f", {stack}")
        cfg = parse_config(emit_two)
        report = run_sweep(build_profiles(cfg), cfg.alphas, cfg.eigen_count, sweep_settings(cfg))
        rows = list(csv.DictReader((out / "records.csv").read_text().splitlines()[1:]))
        states = load_states(stack)
        assert len(states) == len(rows) == len(report.records) == 6
        for row, record, vec in zip(rows, report.records, states):
            assert (float(row["alpha"]), int(row["n"])) == (record.alpha, record.n)
            np.testing.assert_array_equal(vec.values, record.vector.values)

    def test_seed_override_recorded_and_echoed(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["sweep", "--config", write(tmp_path, GAUSSIAN_MINI),
                   "--out", str(out), "--seed", "123"])
        assert rc == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["provenance"]["rng_seed"] == 123
        assert "seed = 123" in payload["config"]["source"]

    def test_reports_reproduce_from_their_own_echo(self, tmp_path):
        # a report embeds the normalized config; re-running it reproduces
        # the eigenvalue records bit-for-bit
        out1 = tmp_path / "one"
        out2 = tmp_path / "two"
        assert main(["sweep", "--config", write(tmp_path, GAUSSIAN_MINI),
                     "--out", str(out1)]) == 0
        payload = json.loads((out1 / "report.json").read_text())
        echoed = payload["config"]["source"]
        assert main(["sweep", "--config", write(tmp_path, echoed, "echo.ini"),
                     "--out", str(out2)]) == 0
        second = json.loads((out2 / "report.json").read_text())
        assert [r["lambda"] for r in payload["records"]] == [
            r["lambda"] for r in second["records"]
        ]


class TestReportCommand:
    def test_renders_existing_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["sweep", "--config", write(tmp_path, GAUSSIAN_MINI), "--out", str(out)])
        capsys.readouterr()
        rc = main(["report", "--out", str(out)])
        printed = capsys.readouterr().out
        assert rc == 0
        assert "model eigenvalues" in printed
        assert "verdicts" in printed

    def test_needs_no_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "--config", write(tmp_path, GAUSSIAN_MINI), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        assert "== scaled spectral gap study ==" in capsys.readouterr().out

    def test_atomic_write_removes_its_temp_file_on_failure(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="replace refused"):
            write_text_atomic(tmp_path / "report.json", "{}\n")
        assert list(tmp_path.iterdir()) == []

    def test_atomic_write_skips_only_identical_bytes(self, tmp_path):
        path = tmp_path / "report.json"
        write_text_atomic(path, "ab\n")
        inode = path.stat().st_ino
        write_text_atomic(path, b"ab\n")  # text goes out as UTF-8: the same bytes
        assert path.stat().st_ino == inode
        write_text_atomic(path, "ba\n")  # same size, other bytes
        assert path.read_text() == "ba\n"
        assert path.stat().st_ino != inode
        assert list(tmp_path.iterdir()) == [path]

    def test_missing_report_exits_2(self, tmp_path):
        rc = main(["report", "--out", str(tmp_path / "void")])
        assert rc == 2

    @pytest.mark.parametrize(
        "payload",
        ["[]", '{"records": [{"alpha": 0.1}]}', "{}",
         '{"schema": "specgap.report.v1", "records": [{"alpha": 0.1}]}',
         '{"schema": "specgap.report.v1", "config": []}'],
        ids=["list", "no-schema", "empty", "missing-keys", "wrong-type"],
    )
    def test_a_payload_that_is_not_a_report_exits_2(self, tmp_path, capsys, payload):
        (tmp_path / "report.json").write_text(payload, encoding="utf-8")
        assert main(["report", "--out", str(tmp_path)]) == 2
        assert "cannot render" in capsys.readouterr().err

    def test_config_and_seed_are_not_report_options(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "--config", write(tmp_path, GAUSSIAN_MINI), "--out", str(out)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc_info:
            main(["report", "--out", str(out), "--config", str(tmp_path / "no.ini"),
                  "--seed", "3"])
        assert exc_info.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
