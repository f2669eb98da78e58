import csv
import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from specgap import (
    Mode,
    OperatorError,
    ProfileRole,
    SolveSettings,
    StudyReport,
    SweepRecord,
    SweepSettings,
    VerdictStatus,
    build_grid,
    build_scaled_operator,
    expression_profile,
    extrapolate_limit,
    largest_eigenpairs,
    load_states,
    localization_metrics,
    make_catalog_profile,
    make_pair,
    make_scaled_symbols,
    run_sweep,
    scaled_gap,
    verify_limit_law,
)
from specgap import asymptotics, operators
from specgap.asymptotics import ExtrapolationResult, model_spectrum
from specgap.cli import main
from specgap.reportio import render_report, write_report_files

from certification import cluster_eigenvalues
from conftest import constant_profile
from test_acceptance import LADDER


class TestScaledGap:
    def test_zero_gap_at_the_top(self, gaussian_pair):
        assert scaled_gap(1.0, 0.5, gaussian_pair) == 0.0

    def test_linear_case(self, gaussian_pair):
        assert scaled_gap(0.9, 0.1, gaussian_pair) == pytest.approx(1.0, rel=1e-12)

    def test_fractional_exponent(self):
        a4 = make_catalog_profile("gaussian_power", [4], 1)
        v2 = make_catalog_profile("gaussian_power", [2], 1, role=ProfileRole.WEIGHT_V)
        pair = make_pair(a4, v2)  # sigma = 4/3
        expected = 0.01 * 10 ** (4.0 / 3.0)
        assert scaled_gap(0.99, 0.1, pair) == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonpositive_alpha(self, gaussian_pair):
        with pytest.raises(ValueError):
            scaled_gap(0.9, 0.0, gaussian_pair)


class TestExtrapolation:
    def test_non_monotone_flagged_degenerate(self):
        result = extrapolate_limit([0.2, 0.1, 0.05, 0.025], [1.0, 3.0, 2.0, 2.5], sigma=1.0)
        assert result.degenerate
        assert result.limit == 2.5  # last point
        assert np.isnan(result.fit_residual)

    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            extrapolate_limit([0.2, 0.1], [1.0, 2.0], sigma=1.0)

    def test_requires_decreasing_alphas(self):
        with pytest.raises(ValueError):
            extrapolate_limit([0.1, 0.2, 0.3], [1.0, 2.0, 3.0], sigma=1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            extrapolate_limit([0.2, 0.1, 0.05], [1.0, np.nan, 2.0], sigma=1.0)

    @pytest.mark.parametrize("last", [0.0, -0.05])
    def test_rejects_a_nonpositive_alpha(self, last):
        with pytest.raises(ValueError, match="alphas must be positive and finite"):
            extrapolate_limit([0.2, 0.1, last], [1.0, 1.5, 1.7], sigma=1.0)

    def test_constant_ladder(self):
        result = extrapolate_limit([0.2, 0.1, 0.05], [4.0, 4.0, 4.0], sigma=1.0)
        assert result.limit == 4.0
        assert not result.degenerate
        assert result.fit_residual == 0.0

    def test_sigma_is_required(self):
        with pytest.raises(TypeError):
            extrapolate_limit([0.2, 0.1, 0.05], [1.0, 1.5, 1.7])

    @pytest.mark.parametrize("sigma", [1.0, 4.0 / 3.0])
    def test_sigma_series_recovers_limit_on_four_points(self, sigma):
        alphas = [0.2, 0.1, 0.05, 0.025]
        gaps = [2 - 1.5 * a**sigma + 2 * a ** (2 * sigma) for a in alphas]
        result = extrapolate_limit(alphas, gaps, sigma=sigma)
        assert abs(result.limit - 2.0) <= 1e-10
        assert result.fit_residual <= 1e-12
        assert not result.degenerate
        assert "alpha^sigma" in result.note

    def test_sigma_series_interpolates_three_points(self):
        alphas = np.array([0.2, 0.1, 0.05])
        gaps = np.array([1.0, 1.5, 1.7])
        result = extrapolate_limit(alphas, gaps, sigma=1.0)
        vandermonde = np.column_stack([np.ones(3), alphas, alphas**2])
        assert result.limit == pytest.approx(np.linalg.solve(vandermonde, gaps)[0], rel=1e-12)
        assert result.fit_residual <= 1e-14

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
    def test_sigma_must_be_positive_and_finite(self, sigma):
        with pytest.raises(ValueError):
            extrapolate_limit([0.2, 0.1, 0.05], [1.0, 1.5, 1.7], sigma=sigma)


class TestLocalization:
    def test_flat_weight_reduces_identity_to_symbol_form(self, grid_256):
        pair = make_pair(
            make_catalog_profile("gaussian_power", [2], 1),
            constant_profile(ProfileRole.WEIGHT_V, 1),
        )
        alpha = 0.2
        op = build_scaled_operator(pair, alpha, grid_256)
        top = largest_eigenpairs(op, SolveSettings(k=1, tol=1e-10))[0]
        # the flat weight's model operator has no eigenvalue; any mu serves
        # the forms, which do not read it
        sym = make_scaled_symbols(pair, alpha, grid_256)
        metrics = localization_metrics(pair, sym, top, radii=(2.0, 4.0), mu=1.0)
        assert metrics.s_form == 0.0
        assert metrics.k_form == pytest.approx(
            (1 - top.value) / alpha, rel=1e-9, abs=1e-12
        )

    def test_radius_order_insensitive(self, gaussian_pair, grid_512):
        alpha = 0.05
        op = build_scaled_operator(gaussian_pair, alpha, grid_512)
        top = largest_eigenpairs(op, SolveSettings(k=1, tol=1e-10))[0]
        sym = make_scaled_symbols(gaussian_pair, alpha, grid_512)
        sorted_m = localization_metrics(
            gaussian_pair, sym, top, radii=(2.0, 4.0, 8.0), mu=np.sqrt(2.0)
        )
        shuffled = localization_metrics(
            gaussian_pair, sym, top, radii=(8.0, 2.0, 4.0), mu=np.sqrt(2.0)
        )
        assert sorted_m == shuffled
        # the masses follow the radii ascending, so they fall
        assert sorted(sorted_m.position_mass_outside, reverse=True) == list(
            sorted_m.position_mass_outside
        )

    def test_masses_decay_and_identity_holds(self, gaussian_pair, grid_512):
        alpha = 0.05
        op = build_scaled_operator(gaussian_pair, alpha, grid_512)
        top = largest_eigenpairs(op, SolveSettings(k=1, tol=1e-10))[0]
        sym = make_scaled_symbols(gaussian_pair, alpha, grid_512)
        m = localization_metrics(
            gaussian_pair, sym, top, radii=(2.0, 4.0, 8.0), mu=np.sqrt(2.0)
        )
        assert m.identity_rel_gap <= 1e-10
        for masses in (m.position_mass_outside, m.frequency_mass_outside):
            assert all(0.0 <= x <= 1.0 for x in masses)
            assert masses[0] > masses[1] > masses[2]
        assert all(c >= 0 for c in m.c_hat_freq)

    def test_requires_unit_maxima_not_a_unit_peak_product(self, grid_256):
        # A0 * V0^2 = 4 * 0.5^2 = 1, yet neither maximum is 1.
        pair = make_pair(
            expression_profile("4*exp(-x1^2)", "4*x1^2", 2, 1),
            expression_profile("0.5*exp(-x1^2)", "0.5*x1^2", 2, 1, role=ProfileRole.WEIGHT_V),
        )
        assert pair.peak_product == 1.0
        top = largest_eigenpairs(build_scaled_operator(pair, 0.2, grid_256), SolveSettings(k=1))[0]
        with pytest.raises(ValueError, match="unit maxima"):
            localization_metrics(pair, make_scaled_symbols(pair, 0.2, grid_256), top, (2.0,), 1.0)


def mehler_eigenvalues(alpha, count):
    """The ``count`` largest eigenvalues of the 1-D Gaussian pair's sandwich.

    With W = exp(-alpha x^2) and b = exp(-alpha xi^2) the sandwich is a
    Gaussian integral operator; Mehler's formula gives its spectrum
    lambda_n = sqrt(pi/(p+s))/(2 alpha sqrt(pi)) * (q/(p+s))^(n-1).
    """
    q = 1.0 / (4.0 * alpha**2)
    p = 1.0 + q
    s = np.sqrt(p**2 - q**2)
    return [
        np.sqrt(np.pi / (p + s)) / (2 * alpha * np.sqrt(np.pi)) * (q / (p + s)) ** (n - 1)
        for n in range(1, count + 1)
    ]


def synthetic_report(gaps_by_n, mus, alphas, residual=1e-12, sigma=1.0,
                     converged=True, with_extrapolation=True,
                     rel_final=SweepSettings.rel_final, rel_extrap=SweepSettings.rel_extrap):
    records = []
    for n, gaps in gaps_by_n.items():
        for alpha, gap in zip(alphas, gaps):
            records.append(
                SweepRecord(
                    alpha=alpha,
                    n=n,
                    lam=1.0 - alpha**sigma * gap,
                    scaled_gap=gap,
                    residual=residual,
                    converged=converged,
                )
            )
    extrapolations = {}
    if with_extrapolation and len(alphas) >= 3:
        for n, gaps in gaps_by_n.items():
            extrapolations[n] = extrapolate_limit(alphas, gaps, sigma=sigma)
    return StudyReport(
        config={"alphas": list(alphas), "k": len(gaps_by_n),
                "rel_final": rel_final, "rel_extrap": rel_extrap,
                "profiles": {"sigma": sigma}},
        model_eigenvalues=[(mu, 1e-12) for mu in mus],
        records=records,
        extrapolations=extrapolations,
        verdicts=[],
        provenance={},
    )


class TestVerdicts:
    def test_clean_ladder_passes(self):
        alphas = [0.2, 0.1, 0.05, 0.025]
        report = synthetic_report({1: [2.0 - 0.5 * a for a in alphas]}, [2.0], alphas)
        verdicts = verify_limit_law(report)
        assert verdicts[0].status is VerdictStatus.PASS
        assert verdicts[0].monotone_ok and verdicts[0].one_sided_ok

    def test_lambda_above_spectral_bound_fails_with_reason(self):
        alphas = [0.2, 0.1, 0.05]
        gaps = [2.0 - 0.5 * a for a in alphas]
        gaps[-1] = -0.3  # lambda fabricated above the top of the band
        report = synthetic_report({1: gaps}, [2.0], alphas, with_extrapolation=False)
        verdicts = verify_limit_law(report)
        assert verdicts[0].status is VerdictStatus.FAIL
        assert any("negative scaled gap" in r for r in verdicts[0].reasons)

    def test_two_point_ladder_inconclusive(self):
        report = synthetic_report({1: [1.9, 1.95]}, [2.0], [0.2, 0.1],
                                  with_extrapolation=False)
        verdicts = verify_limit_law(report)
        assert verdicts[0].status is VerdictStatus.INCONCLUSIVE
        assert any("insufficient ladder" in r for r in verdicts[0].reasons)

    def test_unconverged_records_inconclusive(self):
        alphas = [0.2, 0.1, 0.05]
        report = synthetic_report({1: [1.9, 1.95, 1.97]}, [2.0], alphas,
                                  converged=False, with_extrapolation=False)
        verdicts = verify_limit_law(report)
        assert verdicts[0].status is VerdictStatus.INCONCLUSIVE
        assert any("converge" in r for r in verdicts[0].reasons)

    def test_final_point_out_of_tolerance_fails(self):
        alphas = [0.2, 0.1, 0.05]
        report = synthetic_report({1: [1.0, 1.2, 1.3]}, [2.0], alphas,
                                  rel_final=0.05, rel_extrap=0.5)
        verdicts = verify_limit_law(report)
        assert verdicts[0].status is VerdictStatus.FAIL
        assert any("final-point" in r for r in verdicts[0].reasons)

    def test_non_monotone_ladder_downgrades_to_inconclusive(self):
        alphas = [0.2, 0.1, 0.05, 0.025]
        # final point and extrapolation fine, but the error ladder wiggles
        gaps = [1.90, 1.999, 1.95, 1.999]
        report = synthetic_report({1: gaps}, [2.0], alphas, rel_final=0.05, rel_extrap=0.05)
        verdicts = verify_limit_law(report)
        assert verdicts[0].status is VerdictStatus.INCONCLUSIVE
        assert not verdicts[0].monotone_ok

    def test_one_sided_bound_violation_fails(self):
        alphas = [0.2, 0.1, 0.05]
        gaps = [2.2, 2.1, 2.05]  # approaches from above, final 2.5% high
        report = synthetic_report({1: gaps}, [2.0], alphas, rel_final=0.05, rel_extrap=0.05)
        verdicts = verify_limit_law(report)
        assert verdicts[0].status is VerdictStatus.FAIL
        assert not verdicts[0].one_sided_ok

    def test_missing_model_eigenvalue_inconclusive_and_strict_json(self):
        alphas = [0.2, 0.1, 0.05, 0.025]
        gaps = {1: [2.0 - 0.5 * a for a in alphas], 2: [5.9, 5.99, 5.95, 5.999]}
        report = synthetic_report(gaps, [2.0], alphas)  # no mu_2
        report.verdicts = verify_limit_law(report)
        assert report.verdicts[0].status is VerdictStatus.PASS
        assert report.verdicts[1].status is VerdictStatus.INCONCLUSIVE
        assert report.verdicts[1].reasons == ("model eigenvalue unavailable",)
        # n = 2's ladder is not monotone, so its fit is degenerate (NaN
        # fit residual), and its verdict errors are NaN: all become null.
        assert report.extrapolations[2].degenerate
        payload = json.loads(json.dumps(report.to_dict(), allow_nan=False))
        assert payload["extrapolations"]["2"]["fit_residual"] is None
        assert payload["verdicts"][1]["final_rel_err"] is None
        rendered = render_report(payload)
        assert "fit_residual=n/a" in rendered and "final_err=n/a" in rendered


@pytest.fixture(scope="module")
def mini_report(gaussian_pair):
    grid = build_grid(1, 512, 14.0)
    return run_sweep(
        gaussian_pair,
        [0.2, 0.1, 0.05],
        2,
        SweepSettings(solver=SolveSettings(tol=1e-9), grid=grid),
    )


class TestModelSpectrum:
    @pytest.mark.parametrize("study", [model_spectrum, run_sweep], ids=["model", "sweep"])
    def test_a_weight_below_minus_v0_on_the_grid_stops_before_the_model_solve(
        self, grid_512, monkeypatch, study
    ):
        # dips to -2.14 V0 at |x| = 3, between the radii of the pair's probe
        well = expression_profile("exp(-x1^2) - 2.2*exp(-400*(abs(x1)-3)^2)", "x1^2", 2, 1,
                                  role=ProfileRole.WEIGHT_V)
        pair = make_pair(make_catalog_profile("gaussian_power", [2], 1), well)

        def no_model_solve(*args):
            raise AssertionError("the model operator was built")

        monkeypatch.setattr(asymptotics, "build_model_operator", no_model_solve)
        with pytest.raises(OperatorError, match="weight sample minimum -2.14136 <= -V0"):
            study(pair, [0.2, 0.1, 0.05], 1, SweepSettings(grid=grid_512))


class TestRunSweep:
    def test_record_layout_and_ordering(self, mini_report):
        keys = [(r.alpha, r.n) for r in mini_report.records]
        assert keys == sorted(keys, key=lambda t: (-t[0], t[1]))
        assert len(mini_report.records) == 6

    def test_gap_ordering_in_n(self, mini_report):
        by_alpha = {}
        for r in mini_report.records:
            by_alpha.setdefault(r.alpha, []).append(r.scaled_gap)
        for gaps in by_alpha.values():
            assert gaps == sorted(gaps)

    def test_gap_identity_per_record(self, mini_report):
        for r in mini_report.records:
            loc = r.localization
            combined = loc.k_form + loc.s_form
            assert abs(combined - r.scaled_gap) <= 1e-10 * abs(r.scaled_gap)

    def test_first_index_passes(self, mini_report):
        assert mini_report.verdicts[0].status is VerdictStatus.PASS

    def test_each_alpha_is_sampled_once_and_built_through_the_module_global(
        self, gaussian_pair, grid_256, monkeypatch
    ):
        # The pre-solve check's samples feed both the operator and
        # localization.  The benchmark counts scaled applies by wrapping the
        # global build_scaled_operator of specgap.asymptotics and the
        # apply_values of what it returns, so the sweep must build there.
        samples, builds, applies = [], [], []
        sample = operators._sandwich_samples
        build = asymptotics.build_scaled_operator

        def counted_sample(pair, alpha, grid, scaled):
            samples.append(alpha)
            return sample(pair, alpha, grid, scaled)

        def counted_build(pair, alpha, *args, **kwargs):
            builds.append(alpha)
            op = build(pair, alpha, *args, **kwargs)
            apply_values = op.apply_values

            def counted_apply(values):
                applies.append(alpha)
                return apply_values(values)

            return dataclasses.replace(op, apply_values=counted_apply)

        monkeypatch.setattr(operators, "_sandwich_samples", counted_sample)
        monkeypatch.setattr(asymptotics, "build_scaled_operator", counted_build)
        alphas = [0.2, 0.1, 0.05, 0.025]
        run_sweep(gaussian_pair, alphas, 3, SweepSettings(grid=grid_256))
        assert samples == alphas
        assert builds == alphas
        assert sorted(set(applies), reverse=True) == alphas

    def test_report_carries_provenance_and_config(self, mini_report, gaussian_pair):
        assert mini_report.provenance["rng_seed"] == 74082
        assert "grid" in mini_report.provenance
        assert mini_report.config["alphas"] == [0.2, 0.1, 0.05]
        payload = mini_report.to_dict()
        assert payload["schema"] == "specgap.report.v1"
        assert len(payload["records"]) == 6
        # the specgap.report.v1 layout, key order included
        assert list(payload) == [
            "schema", "config", "model_eigenvalues", "records", "extrapolations",
            "verdicts", "provenance",
        ]
        assert list(payload["model_eigenvalues"][0]) == ["n", "mu", "residual"]
        record = payload["records"][0]
        assert list(record) == [
            "alpha", "n", "lambda", "scaled_gap", "residual", "converged", "note",
            "localization",
        ]
        assert list(record["localization"]) == [
            "position_mass_outside", "frequency_mass_outside", "k_form", "s_form",
            "identity_rel_gap", "c_hat_pos", "c_hat_freq",
        ]
        assert list(payload["extrapolations"]) == ["1", "2"]
        assert list(payload["extrapolations"]["1"]) == [
            "limit", "fit_residual", "degenerate", "note",
        ]
        verdict = payload["verdicts"][0]
        assert list(verdict) == [
            "n", "status", "mu", "final_rel_err", "extrap_rel_err", "monotone_ok",
            "one_sided_ok", "reasons",
        ]
        assert verdict["status"] == "PASS"

        kept = run_sweep(
            gaussian_pair, [0.2, 0.1, 0.05], 1,
            SweepSettings(grid=build_grid(1, 256, 12.0), keep_vectors=True),
        )
        assert all(r.vector is not None for r in kept.records)
        kept_payload = json.loads(json.dumps(kept.to_dict()))
        assert all("vector" not in row for row in kept_payload["records"])

    @pytest.mark.parametrize(
        "mode, recorded",
        [
            (Mode.SHIFT_INVERT_BOTTOM, "shift_invert"),
            (None, "dense"),
            (Mode.LANCZOS, "lanczos"),
        ],
    )
    def test_report_records_the_model_solve_mode(self, gaussian_pair, mode, recorded):
        report = run_sweep(
            gaussian_pair, [0.2, 0.1, 0.05], 1,
            SweepSettings(solver=SolveSettings(mode=mode), grid=build_grid(1, 256, 12.0)),
        )
        assert report.provenance["model_mode"] == recorded
        reason = report.provenance["model_mode_reason"]
        assert reason == ("256 unknowns <= 1024; parity blocks 129 + 127" if mode is None
                          else "set in the config")
        assert f"model solve: {recorded} ({reason})" in render_report(report.to_dict())

    def test_solver_failure_flagged_not_raised(self, gaussian_pair):
        grid = build_grid(1, 256, 12.0)
        report = run_sweep(
            gaussian_pair,
            [0.2, 0.1, 0.05],
            1,
            SweepSettings(
                solver=SolveSettings(tol=1e-13, max_iterations=3, mode=Mode.DENSE_FULL),
                grid=grid,
            ),
        )
        assert any(not r.converged for r in report.records)
        assert report.verdicts[0].status is VerdictStatus.INCONCLUSIVE

    def test_dumps_of_alphas_that_print_alike_stay_apart(self, gaussian_pair, tmp_path):
        # 0.1000001 and 0.1 agree to the 6 digits that {:g} prints.
        report = run_sweep(
            gaussian_pair, [0.2, 0.1000001, 0.1], 1,
            SweepSettings(grid=build_grid(1, 256, 12.0), keep_vectors=True),
        )
        paths = write_report_files(report, tmp_path)
        states = load_states(paths["eigenfunctions"])
        assert [r.alpha for r in report.records] == [0.2, 0.1000001, 0.1]
        assert len(states) == 3
        for vec, record in zip(states, report.records):
            np.testing.assert_array_equal(vec.values, record.vector.values)
        for a, b in itertools.combinations(states, 2):
            assert not np.array_equal(a.values, b.values)

    def test_rewrite_replaces_only_changed_files(self, gaussian_pair, tmp_path):
        report = run_sweep(
            gaussian_pair, [0.2, 0.1, 0.05], 1,
            SweepSettings(grid=build_grid(1, 256, 12.0), keep_vectors=True),
        )

        def stamps():
            return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in tmp_path.iterdir()}

        paths = write_report_files(report, tmp_path)
        first = stamps()
        assert sorted(first) == sorted(p.name for p in paths.values()) == [
            "eigenfunctions.sgv", "plot_gaps.py", "records.csv", "report.json",
        ]
        write_report_files(report, tmp_path)
        assert stamps() == first

        shorter = dataclasses.replace(report, records=report.records[:-1])
        write_report_files(shorter, tmp_path)
        second = stamps()
        assert sorted(second) == sorted(first)  # no temp file left behind
        assert second["plot_gaps.py"] == first["plot_gaps.py"]
        for name in ("records.csv", "report.json", "eigenfunctions.sgv"):
            assert second[name][0] != first[name][0]
        assert len(load_states(paths["eigenfunctions"])) == 2

    def test_pair_with_non_unit_maxima_rescales_exactly(self, gaussian_pair, grid_256):
        # A record is in the units of the pair it was asked about: lambda,
        # the gap and the forms scale with A0 * V0^2, c_hat (through mu)
        # inversely, and the masses not at all.
        a, v = gaussian_pair.a_profile, gaussian_pair.v_profile

        def times(spec, c):
            return dataclasses.replace(spec, evaluate=lambda p: c * spec.evaluate(p),
                                       principal=lambda p: c * spec.principal(p), max_value=c)

        settings = SweepSettings(solver=SolveSettings(tol=1e-9), grid=grid_256)
        unit = run_sweep(gaussian_pair, [0.2, 0.1, 0.05], 2, settings)
        unit_mus = [mu for mu, _ in unit.model_eigenvalues]
        for a0, v0 in [(3.0, 2.0), (0.1, 0.3)]:  # A0 * V0^2 = 12 and 0.009
            big = make_pair(times(a, a0), times(v, v0))
            scale = a0 * v0**2
            scaled = run_sweep(big, [0.2, 0.1, 0.05], 2, settings)
            assert scaled.provenance["max_rescaling"] == scale
            mus = [mu for mu, _ in scaled.model_eigenvalues]
            np.testing.assert_allclose(mus, scale * np.array(unit_mus), rtol=1e-12, atol=0.0)
            for r, u in zip(scaled.records, unit.records):
                assert (r.alpha, r.n) == (u.alpha, u.n)
                np.testing.assert_allclose([r.lam, r.scaled_gap],
                                           [scale * u.lam, scale * u.scaled_gap],
                                           rtol=1e-12, atol=0.0)
                loc, unit_loc = r.localization, u.localization
                assert abs(loc.k_form + loc.s_form - r.scaled_gap) <= 1e-12 * r.scaled_gap
                for name in ("k_form", "s_form"):
                    assert getattr(loc, name) == pytest.approx(
                        scale * getattr(unit_loc, name), rel=1e-12)
                for name in ("position_mass_outside", "frequency_mass_outside"):
                    np.testing.assert_allclose(getattr(loc, name), getattr(unit_loc, name),
                                               rtol=0.0, atol=1e-12)
                for name in ("c_hat_pos", "c_hat_freq"):
                    np.testing.assert_allclose(scale * np.array(getattr(loc, name)),
                                               getattr(unit_loc, name), rtol=0.0, atol=1e-12)
                assert loc.identity_rel_gap <= 1e-10

    @pytest.mark.parametrize(
        "field, value",
        [("rel_final", 0.0), ("rel_extrap", 1.5), ("radii", (1.0, 1.0000001)), ("radii", ())],
    )
    def test_settings_reject_a_field_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            SweepSettings(**{field: value})

    def test_input_validation(self, gaussian_pair):
        with pytest.raises(ValueError):
            run_sweep(gaussian_pair, [0.1, 0.2, 0.3], 1)
        with pytest.raises(ValueError):
            run_sweep(gaussian_pair, [0.2, 0.1], 1)
        with pytest.raises(ValueError):
            run_sweep(gaussian_pair, [0.2, 0.1, 0.05], 0)
        with pytest.raises(ValueError, match="positive"):
            run_sweep(gaussian_pair, [0.2, 0.1, -0.05], 1)

    def test_principal_part_sufficiency_first_index(self, gaussian_pair):
        # same principal parts, different tails: verdicts agree on the
        # same model targets
        rational = make_pair(
            make_catalog_profile("rational_power", [2], 1),
            make_catalog_profile("gaussian_power", [2], 1, role=ProfileRole.WEIGHT_V),
        )
        grid = build_grid(1, 512, 14.0)
        ladder = [0.2, 0.1, 0.05, 0.025]
        settings = SweepSettings(solver=SolveSettings(tol=1e-9), grid=grid)
        rep_g = run_sweep(gaussian_pair, ladder, 1, settings)
        rep_r = run_sweep(rational, ladder, 1, settings)
        assert rep_g.model_eigenvalues[0][0] == pytest.approx(
            rep_r.model_eigenvalues[0][0], rel=1e-10
        )
        assert rep_g.verdicts[0].status is VerdictStatus.PASS
        assert rep_r.verdicts[0].status is VerdictStatus.PASS

    @pytest.mark.parametrize("alpha", [0.025, 0.00625])
    def test_gaussian_pair_matches_mehler_closed_form(self, gaussian_pair, grid_1024, alpha):
        exact = [scaled_gap(lam, alpha, gaussian_pair) for lam in mehler_eigenvalues(alpha, 3)]
        op = build_scaled_operator(gaussian_pair, alpha, grid_1024)
        top = largest_eigenpairs(op, SolveSettings(k=3, tol=1e-9))
        computed = [scaled_gap(pair.value, alpha, gaussian_pair) for pair in top]
        np.testing.assert_allclose(computed, exact, rtol=1e-8, atol=0.0)

    def test_grid_independence_of_reported_gaps(self, gaussian_pair):
        alpha = 0.1
        gaps = {}
        for n, length in [(1024, 20.0), (2048, 20.0), (2048, 40.0)]:
            grid = build_grid(1, n, length)
            op = build_scaled_operator(gaussian_pair, alpha, grid)
            lam = largest_eigenpairs(op, SolveSettings(k=1, tol=1e-11))[0].value
            gaps[(n, length)] = scaled_gap(lam, alpha, gaussian_pair)
        base = gaps[(1024, 20.0)]
        for value in gaps.values():
            assert abs(value - base) <= 1e-6 * base


class TestTensorProductOracle:
    """The Gaussian pair is separable, and so are the lattice and the DFT,
    so in d dimensions the sandwich is the tensor product of the 1-D
    ones: its eigenvalues are the products of d Mehler eigenvalues, and
    each level's multiplicity is its number of index tuples."""

    @pytest.mark.parametrize(
        "d, n, half_length, k, alphas, sizes",
        [
            (2, 48, 7.0, 6, LADDER, [1, 2, 3]),  # ends at a cluster boundary
            (2, 48, 7.0, 5, LADDER, [1, 2, 2]),  # ends inside the triple level
            (3, 32, 7.0, 4, (0.1, 0.00625), [1, 3]),
            (3, 32, 7.0, 3, (0.1, 0.00625), [1, 2]),
        ],
        ids=["d2-boundary", "d2-inside", "d3-boundary", "d3-inside"],
    )
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_top_solve_matches_products_of_1d_levels(
        self, d, n, half_length, k, alphas, sizes, seed
    ):
        pair = make_pair(
            make_catalog_profile("gaussian_power", [2], d),
            make_catalog_profile("gaussian_power", [2], d, role=ProfileRole.WEIGHT_V),
        )
        grid = build_grid(d, n, half_length)
        tol = 1e-11
        for alpha in alphas:
            levels = mehler_eigenvalues(alpha, k)
            exact = sorted(
                (np.prod(lams) for lams in itertools.product(levels, repeat=d)), reverse=True
            )[:k]
            top = largest_eigenpairs(
                build_scaled_operator(pair, alpha, grid),
                SolveSettings(k=k, tol=tol, rng_seed=seed),
            )
            values = [p.value for p in top]
            np.testing.assert_allclose(
                1.0 - np.array(values), 1.0 - np.array(exact), rtol=1e-9, atol=0.0
            )
            assert [len(c) for c in cluster_eigenvalues(values, tol)] == sizes

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_sweep_whose_guess_ends_inside_a_level_matches_the_products(self, seed):
        # The d2-inside case through run_sweep: its k = 5 model eigenvectors,
        # the guess of every top solve, hold two of the three copies of the
        # third level.
        pair = make_pair(
            make_catalog_profile("gaussian_power", [2], 2),
            make_catalog_profile("gaussian_power", [2], 2, role=ProfileRole.WEIGHT_V),
        )
        tol = 1e-11
        settings = SweepSettings(solver=SolveSettings(tol=tol, rng_seed=seed),
                                 grid=build_grid(2, 48, 7.0))
        report = run_sweep(pair, LADDER, 5, settings)
        for alpha in LADDER:
            levels = mehler_eigenvalues(alpha, 5)
            exact = sorted(
                (np.prod(lams) for lams in itertools.product(levels, repeat=2)), reverse=True
            )[:5]
            values = [r.lam for r in report.records if r.alpha == alpha]
            np.testing.assert_allclose(
                1.0 - np.array(values), 1.0 - np.array(exact), rtol=1e-9, atol=0.0
            )
            assert [len(c) for c in cluster_eigenvalues(values, tol)] == [1, 2, 2]

    def test_d2_sweep_passes_with_the_model_sums(self):
        # Model levels are sums of the 1-D sqrt(2)*(2n - 1): 2*sqrt(2) and
        # the doubled 4*sqrt(2).
        pair = make_pair(
            make_catalog_profile("gaussian_power", [2], 2),
            make_catalog_profile("gaussian_power", [2], 2, role=ProfileRole.WEIGHT_V),
        )
        report = run_sweep(pair, LADDER, 3, SweepSettings(grid=build_grid(2, 32, 6.0)))
        mus = [mu for mu, _ in report.model_eigenvalues]
        np.testing.assert_allclose(mus, np.sqrt(2.0) * np.array([2, 4, 4]), rtol=0, atol=1e-9)
        assert [v.status for v in report.verdicts] == [VerdictStatus.PASS] * 3

    def test_shipped_3d_config_verifies_against_the_products(self, tmp_path):
        config = Path(__file__).resolve().parent.parent / "configs" / "gaussian_3d.ini"
        assert main(["verify", "--config", str(config), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "records.csv").read_text(encoding="utf-8").splitlines()
        rows = list(csv.DictReader(lines[1:]))
        alphas = sorted({float(row["alpha"]) for row in rows}, reverse=True)
        assert alphas == [0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625]
        for row in rows:
            levels = mehler_eigenvalues(float(row["alpha"]), 2)
            exact = sorted(
                (np.prod(lams) for lams in itertools.product(levels, repeat=3)), reverse=True
            )[int(row["n"]) - 1]
            assert abs(float(row["lambda"]) - exact) <= float(row["residual"]) + 1e-9, row

    def test_shipped_anisotropic_2d_config_verifies_against_the_products(self, tmp_path):
        # Weight exp(-(x1^2 + 2 x2^2)): an axis with coefficient q has the
        # 1-D levels lambda_n(alpha * sqrt(q)) and mu = sqrt(2q) * (2n - 1).
        config = Path(__file__).resolve().parent.parent / "configs" / "aniso_gaussian_2d.ini"
        assert main(["verify", "--config", str(config), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        mus = [row["mu"] for row in report["model_eigenvalues"]]
        exact_mus = sorted(np.sqrt(2.0) * (2 * n1 - 1) + 2.0 * (2 * n2 - 1)
                           for n1 in (1, 2, 3) for n2 in (1, 2, 3))[:3]
        np.testing.assert_allclose(mus, exact_mus, rtol=0, atol=1e-10)
        assert [len(c) for c in cluster_eigenvalues(mus, 1e-9)] == [1, 1, 1]
        assert [v["status"] for v in report["verdicts"]] == ["PASS"] * 3
        lines = (tmp_path / "records.csv").read_text(encoding="utf-8").splitlines()
        rows = list(csv.DictReader(lines[1:]))
        alphas = sorted({float(row["alpha"]) for row in rows}, reverse=True)
        assert alphas == [0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625]
        for row in rows:
            alpha = float(row["alpha"])
            axes = [mehler_eigenvalues(alpha * np.sqrt(q), 3) for q in (1.0, 2.0)]
            exact = sorted((l1 * l2 for l1, l2 in itertools.product(*axes)),
                           reverse=True)[int(row["n"]) - 1]
            assert abs(float(row["lambda"]) - exact) <= 1e-12, row
