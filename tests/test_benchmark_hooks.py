"""The benchmark runs `perfbench/` against specgap; these tests pin what
it relies on.

The benchmark's per-layer metrics come from wrappers that
`perfbench/spans.py` puts around module globals of specgap.  A global it
names but cannot find is skipped without an error, so a refactor of what
those modules import would zero its metrics silently; the first test
pins the set of names that are missing.  A study whose input a new rule
rejects would turn a benchmark run into a failed operation; the second
test keeps every study inside the rules."""

import importlib
import importlib.util
from pathlib import Path

from specgap.asymptotics import suggest_grid
from specgap.config import build_profiles, parse_config, sweep_settings
from specgap.operators import make_scaled_symbols, normalized_pair
from specgap.profiles import validate_profile

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_global_exists_except_the_stale_cli_hook():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = {
        (module, name)
        for module, names in spans.PATCHES.items()
        for name in names
        if not hasattr(importlib.import_module(module), name)
    }
    # specgap.cli reaches suggest_grid only through asymptotics.model_spectrum,
    # where the specgap.asymptotics hook traces it.
    assert missing == {("specgap.cli", "suggest_grid")}


def test_every_benchmark_study_is_an_input_the_rules_accept(workloads):
    for workload in workloads.WORKLOADS:
        for shrink in (False, True):
            for study in workloads.studies(workload, shrink):
                cfg = parse_config(study.ini)
                pair = build_profiles(cfg)
                for spec in (pair.a_profile, pair.v_profile):
                    assert validate_profile(spec).passed, (study.name, spec.label)
                norm_pair, _ = normalized_pair(pair)
                grid = sweep_settings(cfg).grid or suggest_grid(norm_pair, cfg.eigen_count)[0]
                for alpha in cfg.alphas:
                    low = make_scaled_symbols(norm_pair, alpha, grid).weight_values.min()
                    assert low > -norm_pair.v_profile.max_value, (study.name, alpha)
