import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from specgap import (
    ProfileRole,
    ProfileSpec,
    build_grid,
    make_catalog_profile,
    make_pair,
)


@pytest.fixture(scope="session")
def workloads():
    """``perfbench/workloads.py``, loaded by path: the benchmark's studies."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def gaussian_pair():
    a = make_catalog_profile("gaussian_power", [2], 1)
    v = make_catalog_profile("gaussian_power", [2], 1, role=ProfileRole.WEIGHT_V)
    return make_pair(a, v)


@pytest.fixture(scope="session")
def grid_1024():
    return build_grid(1, 1024, 20.0)


@pytest.fixture(scope="session")
def grid_512():
    return build_grid(1, 512, 14.0)


@pytest.fixture(scope="session")
def grid_256():
    return build_grid(1, 256, 12.0)


def constant_profile(role=ProfileRole.SYMBOL_A, d=1):
    """evaluate == 1 everywhere; degenerate but handy for operator tests."""

    def one(points):
        pts = np.asarray(points, dtype=float)
        return np.ones(pts.shape[:-1])

    def principal(points):
        pts = np.asarray(points, dtype=float)
        return np.sum(pts**2, axis=-1)

    return ProfileSpec(
        dimension=d,
        role=role,
        evaluate=one,
        max_value=1.0,
        principal=principal,
        degree=2.0,
        label="constant-one",
    )
