import csv
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import specgap
from specgap import Mode, SolveSettings, SweepSettings, load_state, suggest_grid
from specgap.cli import main
from specgap.config import (
    ConfigError,
    RunConfig,
    build_profiles,
    emit_config,
    model_mode_of,
    parse_config,
)
from specgap.operators import normalized_pair
from specgap.reportio import write_text_atomic

SRC = Path(specgap.__file__).resolve().parent.parent
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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
        assert (run.tol, run.seed, run.max_iterations) == (
            solve.tol, solve.rng_seed, solve.max_iterations
        )
        assert (run.rel_final, run.rel_extrap, run.radii) == (
            sweep.rel_final, sweep.rel_extrap, sweep.radii
        )

    def test_emitted_values_round_trip_exactly(self):
        catalog = GAUSSIAN_MINI.replace("0.2, 0.1, 0.05", "0.2, 0.0333333333, 0.01").replace(
            "half_length = 14", "half_length = 12.3456789"
        ) + "\n[solver]\ntol = 1.23456789e-9\n"
        expression = (CONFIGS / "custom_expression.ini").read_text(encoding="utf-8").replace(
            "degree = 2\n\n[weight]", "degree = 2\nmargin = 0.125\n\n[weight]"
        )
        shown = {
            catalog: ("0.0333333333", "half_length = 12.3456789", "tol = 1.23456789e-09"),
            expression: ("principal = norm(x)^2\ndegree = 2\nmargin = 0.125\n",),
        }
        for text, lines in shown.items():
            cfg = parse_config(text)
            normalized = emit_config(cfg)
            for line in lines:
                assert line in normalized
            assert parse_config(normalized) == cfg
            assert emit_config(parse_config(normalized)) == normalized

    def test_model_mode_accepts_lanczos(self):
        cfg = parse_config("[solver]\nmodel_mode = lanczos\n")
        assert model_mode_of(cfg) is Mode.LANCZOS
        assert parse_config(emit_config(cfg)) == cfg

    def test_a_run_threads_key_is_ignored(self):
        # perfbench/workloads.py still writes this key into its INIs.
        assert parse_config("[run]\nthreads = 1\n") == RunConfig()

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[solver]\ntols = 1e-3\n", "[solver] tols"),
            ("[symbol]\nkind = catalog\nnmae = rational_power\n", "[symbol] nmae"),
        ],
    )
    def test_unknown_key_in_a_known_section_rejected(self, text, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            parse_config(text)

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
        ],
    )
    def test_rejects_bad_configs(self, text):
        with pytest.raises(ConfigError):
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

    def test_malformed_expression_exits_2(self, tmp_path, capsys):
        text = GAUSSIAN_MINI.replace(
            "[symbol]\nkind = catalog\nname = gaussian_power\nparams = 2",
            "[symbol]\nkind = expression\nexpr = sin(x1)\nprincipal = x1^2\ndegree = 2",
        )
        rc = main(["validate", "--config", write(tmp_path, text)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "configuration error" in err

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


class TestModelSpectrumCommand:
    def test_harmonic_csv(self, tmp_path, capsys):
        text = GAUSSIAN_MINI.replace("eigen_count = 1", "eigen_count = 4")
        rc = main(
            ["model-spectrum", "--config", write(tmp_path, text), "--out", str(tmp_path)]
        )
        assert rc == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == "model solve: dense_full (512 unknowns <= 1024)"
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
        assert (tmp_path / "out" / "plot_gaps.py").exists()

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
        records = json.loads((out / "report.json").read_text())["records"]
        assert len(rows) == len(records) == 3
        for row, record in zip(rows, records):
            loc = record["localization"]
            for r in (8, 2, 4):
                i = loc["radii"].index(r)
                assert float(row[f"pos_mass_out_R{r}"]) == pytest.approx(
                    loc["position_mass_outside"][i], rel=1e-6)
                assert float(row[f"frq_mass_out_R{r}"]) == pytest.approx(
                    loc["frequency_mass_outside"][i], rel=1e-6)

    def test_duplicate_radii_exit_2(self, tmp_path, capsys):
        text = GAUSSIAN_MINI + "\n[localization]\nradii = 2, 2\n"
        rc = main(["sweep", "--config", write(tmp_path, text), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "radii must be distinct" in capsys.readouterr().err

    def test_eigenfunction_dumps_loadable(self, tmp_path):
        text = GAUSSIAN_MINI + "\n[output]\nemit_eigenfunctions = true\n"
        out = tmp_path / "out"
        rc = main(["sweep", "--config", write(tmp_path, text), "--out", str(out)])
        assert rc == 0
        dumps = sorted(out.glob("eigenfunction_*.sgv"))
        assert len(dumps) == 3
        vec = load_state(dumps[0])
        assert vec.grid.n_per_axis == 512

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
