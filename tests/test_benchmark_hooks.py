"""The benchmark runs `perfbench/` against specgap; these tests pin what
it relies on.

The benchmark's per-layer metrics come from wrappers that
`perfbench/spans.py` puts around module globals of specgap.  A global it
names but cannot find is skipped without an error, so a refactor of what
those modules import would zero its metrics silently; the first test
pins the set of names that are missing.  A study whose input a new rule
rejects would turn a benchmark run into a failed operation; the second
test keeps every study inside the rules.  A change to the model-mode
policy changes what each workload measures; the third test pins the mode
every study's model solve runs in.  The top solves start from a guess
that the sweep puts on each operator, after the hooks have replaced its
apply; the last test checks that a traced sweep takes exactly the top
solve applies of an untraced one."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from specgap import asymptotics
from specgap.asymptotics import run_sweep, suggest_grid
from specgap.config import build_profiles, parse_config, sweep_settings
from specgap.eigensolve import Mode, bottom_mode
from specgap.operators import build_model_operator, make_scaled_symbols, normalized_pair
from specgap.profiles import validate_profile

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_global_exists_except_the_stale_cli_hook():
    spans = load_spans()
    missing = {
        (module, name)
        for module, names in spans.PATCHES.items()
        for name in names
        if not hasattr(importlib.import_module(module), name)
    }
    # specgap.cli reaches suggest_grid only through asymptotics.model_spectrum,
    # where the specgap.asymptotics hook traces it.
    assert missing == {("specgap.cli", "suggest_grid")}


def benchmark_studies(workloads):
    """Every benchmark study, full size and shrunk, with its parsed config,
    pair, normalized pair, settings and study grid."""
    for workload in workloads.WORKLOADS:
        for shrink in (False, True):
            for study in workloads.studies(workload, shrink):
                cfg = parse_config(study.ini)
                pair = build_profiles(cfg)
                norm_pair, _ = normalized_pair(pair)
                settings = sweep_settings(cfg)
                grid = settings.grid or suggest_grid(norm_pair, cfg.eigen_count)[0]
                yield study, cfg, pair, norm_pair, settings, grid


def test_every_benchmark_study_is_an_input_the_rules_accept(workloads):
    for study, cfg, pair, norm_pair, _, grid in benchmark_studies(workloads):
        for spec in (pair.a_profile, pair.v_profile):
            assert validate_profile(spec).passed, (study.name, spec.label)
        for alpha in cfg.alphas:
            low = make_scaled_symbols(norm_pair, alpha, grid).weight_values.min()
            assert low > -norm_pair.v_profile.max_value, (study.name, alpha)


_DENSE_1024 = (Mode.DENSE_FULL, "1024 unknowns <= 1024; parity blocks 513 + 511")
_DENSE_256 = (Mode.DENSE_FULL, "256 unknowns <= 1024; parity blocks 129 + 127")
MODEL_MODES = {
    "gaussian": _DENSE_1024,
    "custom_expression": _DENSE_1024,
    "mixed_degree": _DENSE_1024,
    "gaussian_auto": _DENSE_256,
    "gaussian_2d_dense": (Mode.LANCZOS, "|A| <= 433.7, Weyl mu_3 ~ 6.92: ratio 62.67 < 500"),
    "gaussian_2d_iterative": (Mode.LANCZOS,
                              "|A| <= 715.8, Weyl mu_3 ~ 6.959: ratio 102.9 < 500"),
    "gaussian-small": _DENSE_256,
    "custom_expression-small": _DENSE_256,
    "mixed_degree-small": _DENSE_256,
    "gaussian_2d_dense-small": (Mode.DENSE_FULL,
                                "1024 unknowns <= 1024; parity blocks 514 + 510"),
    "gaussian_2d_iterative-small": (Mode.SHIFT_INVERT_BOTTOM, "set in the config"),
}


def test_every_benchmark_study_runs_its_pinned_model_mode(workloads):
    # bottom_mode reads the operator's samples and parts; it solves nothing.
    modes = {
        study.name: bottom_mode(build_model_operator(norm_pair, grid), cfg.eigen_count,
                                settings.solver.mode)
        for study, cfg, _, norm_pair, settings, grid in benchmark_studies(workloads)
    }
    assert modes == MODEL_MODES


def test_a_traced_sweep_takes_the_top_solve_applies_of_an_untraced_one(workloads, monkeypatch):
    spans = load_spans()
    (study,) = workloads.studies("verify-iterative", shrink=True)
    cfg = parse_config(study.ini)
    pair, settings = build_profiles(cfg), sweep_settings(cfg)

    def sweep():
        return run_sweep(pair, cfg.alphas, cfg.eigen_count, settings)

    tracer = spans.Tracer()
    with spans.installed(tracer):
        root = tracer.begin(spans.STUDY)
        sweep()
        tracer.end(root)
    layers = spans.layer_metrics(tracer.take())
    traced = layers["eigensolve.top_applies_per_pair"] * cfg.eigen_count * len(cfg.alphas)

    calls = [0]
    build = asymptotics.build_scaled_operator

    def counted_build(*args, **kwargs):
        op = build(*args, **kwargs)

        def apply_values(values):
            calls[0] += 1
            return op.apply_values(values)

        return dataclasses.replace(op, apply_values=apply_values)

    monkeypatch.setattr(asymptotics, "build_scaled_operator", counted_build)
    sweep()
    # The sandwiches are applied only inside their top solves.
    assert calls[0] == traced
