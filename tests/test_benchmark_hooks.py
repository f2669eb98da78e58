"""The benchmark's per-layer metrics come from wrappers that
`perfbench/spans.py` puts around module globals of specgap.  A global it
names but cannot find is skipped without an error, so a refactor of what
those modules import would zero its metrics silently; this pins the set
of names that are missing."""

import importlib
import importlib.util
from pathlib import Path

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
