import os

import numpy as np
import pytest

from specgap import (
    Grid,
    GridError,
    ProfileRole,
    SolveSettings,
    StateVector,
    SweepSettings,
    build_grid,
    build_model_operator,
    inner,
    load_state,
    load_states,
    make_catalog_profile,
    make_pair,
    norm,
    random_state,
    run_sweep,
    save_state,
    save_states,
    state,
    suggest_grid,
    to_frequency_values,
    to_position_values,
)
from specgap.operators import _is_even, normalized_pair


class TestBuildGrid:
    def test_basic_spacing_and_frequencies(self):
        g = build_grid(1, 8, 4.0)
        assert g.spacing == 1.0
        assert g.freq_spacing == pytest.approx(np.pi / 4)
        np.testing.assert_allclose(
            np.sort(g.freq_axis), (np.pi / 4) * np.arange(-4, 4), rtol=0, atol=1e-15
        )
        assert g.max_frequency == pytest.approx(np.pi)
        np.testing.assert_allclose(g.node_axis, -4.0 + np.arange(8))

    def test_2d_counts(self):
        g = build_grid(2, 16, 8.0)
        assert g.size == 256
        assert g.freq_spacing == pytest.approx(np.pi / 8)
        assert g.position_points.shape == (16, 16, 2)

    def test_spacing_times_n_is_exactly_two_l(self):
        g = build_grid(1, 1024, 12.8)
        assert g.spacing * g.n_per_axis == 2 * 12.8

    @pytest.mark.parametrize("n, length", [(1792, 20.0), (48, 8.0), (1024, 20.0), (9, 3.0),
                                           (15, 0.7), (1025, 20.0)])
    def test_nodes_are_exactly_odd_under_the_reflection(self, n, length):
        # x[-j mod N] == -x[j] for j = 1 .. N-1, bit for bit, also where h is
        # not dyadic (1792 and 48 nodes) and N is odd (Grid itself allows
        # it); x[0] = -L is its own mirror on the periodic box.
        x = Grid(1, n, length).node_axis
        assert np.array_equal(x[1:][::-1], -x[1:])
        assert x[0] == pytest.approx(-length, rel=1e-15)
        # So an even profile gives exactly even potential samples.
        pair = make_pair(make_catalog_profile("gaussian_power", [2], 1),
                         make_catalog_profile("gaussian_power", [2], 1, role=ProfileRole.WEIGHT_V))
        assert _is_even(build_model_operator(pair, Grid(1, n, length)).potential_part)

    @pytest.mark.parametrize(
        "d,n,length",
        [(1, 7, 4.0), (1, 6, 4.0), (1, 8, 0.0), (1, 8, -2.0), (0, 8, 4.0),
         (1, 8, float("nan")), (1, 8, float("inf"))],
    )
    def test_rejects_bad_parameters(self, d, n, length):
        with pytest.raises(GridError):
            build_grid(d, n, length)

    def test_rejects_budget_overflow(self):
        with pytest.raises(GridError, match="budget"):
            build_grid(2, 4096, 10.0)

    def test_huge_dimension_rejected_before_the_node_count(self):
        # 8**(2**40) would be an integer of about 400 GB.
        with pytest.raises(GridError, match="budget"):
            build_grid(2**40, 8, 1.0)


class TestTransforms:
    def test_constant_concentrates_at_zero_frequency(self):
        g = build_grid(1, 64, 5.0)
        u_hat = to_frequency_values(g, np.ones(64))
        zero_bin = int(np.argmin(np.abs(g.freq_axis)))
        expected_peak = 2 * g.half_length / np.sqrt(2 * np.pi)
        assert u_hat[zero_bin] == pytest.approx(expected_peak, rel=1e-12)
        others = np.delete(u_hat, zero_bin)
        assert np.max(np.abs(others)) < 1e-12 * expected_peak

    def test_lattice_exponential_concentrates_at_its_bin(self):
        g = build_grid(1, 64, 5.0)
        k = 7
        xi_k = g.freq_axis[k]
        u_hat = to_frequency_values(g, np.exp(1j * xi_k * g.node_axis))
        mass = np.abs(u_hat) ** 2
        assert mass[k] / np.sum(mass) == pytest.approx(1.0, abs=1e-24)

    def test_gaussian_maps_to_gaussian(self):
        g = build_grid(1, 512, 16.0)
        u_hat = to_frequency_values(g, np.exp(-g.node_axis**2 / 2))
        target = np.exp(-g.freq_axis**2 / 2)
        assert np.max(np.abs(u_hat - target)) <= 1e-10

    def test_round_trip_and_parseval_on_random_vectors(self):
        g = build_grid(2, 32, 6.0)
        rng = np.random.default_rng(11)
        for _ in range(5):
            u = random_state(g, rng)
            u_hat = to_frequency_values(g, u.values)
            back = to_position_values(g, u_hat)
            assert np.max(np.abs(back - u.values)) <= 1e-12 * norm(u)
            norm_hat = np.sqrt(g.freq_cell_volume) * np.linalg.norm(u_hat.ravel())
            assert norm_hat == pytest.approx(norm(u), rel=1e-12)

    def test_linearity(self):
        g = build_grid(1, 128, 8.0)
        rng = np.random.default_rng(2)
        u = random_state(g, rng)
        v = random_state(g, rng)
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        lhs = to_frequency_values(g, a * u.values + b * v.values)
        rhs = a * to_frequency_values(g, u.values) + b * to_frequency_values(g, v.values)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(norm(u), norm(v))


class TestInnerProduct:
    def test_constant_norm_squared(self):
        g = build_grid(1, 8, 4.0)
        u = state(g, np.ones(8))
        assert inner(u, u) == pytest.approx(8.0, rel=1e-15)

    def test_conjugate_symmetry(self):
        g = build_grid(1, 64, 4.0)
        rng = np.random.default_rng(4)
        u, v = random_state(g, rng), random_state(g, rng)
        assert inner(u, v) == pytest.approx(np.conj(inner(v, u)), rel=1e-13)

    def test_sesquilinear_in_second_argument(self):
        g = build_grid(1, 32, 4.0)
        rng = np.random.default_rng(5)
        u, v = random_state(g, rng), random_state(g, rng)
        c = 2.0 + 1.5j
        assert inner(u, state(g, c * v.values)) == pytest.approx(
            np.conj(c) * inner(u, v), rel=1e-13
        )

    def test_parseval_identity_random(self):
        g = build_grid(1, 256, 10.0)
        rng = np.random.default_rng(6)
        u, v = random_state(g, rng), random_state(g, rng)
        lhs = inner(u, v)
        u_hat, v_hat = to_frequency_values(g, u.values), to_frequency_values(g, v.values)
        rhs = g.freq_cell_volume * np.vdot(v_hat, u_hat)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_grid_mismatch_raises(self):
        g1, g2 = build_grid(1, 32, 4.0), build_grid(1, 32, 5.0)
        u = state(g1, np.ones(32))
        v = state(g2, np.ones(32))
        with pytest.raises(GridError):
            inner(u, v)

    def test_state_shape_checked(self):
        g = build_grid(1, 32, 4.0)
        with pytest.raises(GridError):
            state(g, np.ones(16))


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        g = build_grid(2, 16, 3.0)
        rng = np.random.default_rng(9)
        u = random_state(g, rng)
        # a -0.0 real part keeps its sign, and an infinite imaginary part
        # leaves the finite real part alone
        u.values[0, :2] = [complex(-0.0, 1.0), complex(1.0, np.inf)]
        path = tmp_path / "vec.sgv"
        save_state(u, path)
        back = load_state(path)
        assert back.grid == g
        np.testing.assert_array_equal(back.values, u.values)
        assert np.signbit(back.values[0, 0].real)
        assert back.values[0, 1] == complex(1.0, np.inf)

        # real-valued vectors (real solves) dump with zero imaginary parts
        real = StateVector(g, rng.standard_normal(g.shape))
        save_state(real, path)
        back = load_state(path)
        np.testing.assert_array_equal(back.values.real, real.values)
        assert not np.any(back.values.imag)

    def test_header_layout(self, tmp_path):
        import struct

        g = build_grid(1, 8, 2.5)
        u = state(g, np.arange(8, dtype=complex))
        path = tmp_path / "vec.sgv"
        save_state(u, path)
        raw = path.read_bytes()
        assert raw[:4] == b"SGV1"
        d, n, half = struct.unpack("<qqd", raw[4:28])
        assert (d, n, half) == (1, 8, 2.5)
        floats = np.frombuffer(raw[28:], dtype="<f8")
        assert floats.size == 16
        np.testing.assert_allclose(floats[0::2], np.arange(8.0))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.sgv"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(GridError):
            load_state(path)

    def test_payload_mismatch_rejected(self, tmp_path):
        path = tmp_path / "vec.sgv"
        save_state(state(build_grid(1, 8, 2.5), np.ones(8)), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(GridError, match="payload"):
            load_state(path)

    @pytest.mark.parametrize(
        "d, n, payload",
        [
            (2**62, 8, 20),  # a 48-byte file; N^d has ~1.4e19 bits
            (2**62, 8, 128),
            (-1, 0, 128),  # 0^-1 divides by zero
        ],
        ids=["48-byte-file", "128-byte-payload", "zero-n-negative-d"],
    )
    def test_forged_dimension_rejected_before_the_node_count(self, tmp_path, d, n, payload):
        import struct

        path = tmp_path / "forged.sgv"
        path.write_bytes(b"SGV1" + struct.pack("<qqd", d, n, 2.5) + bytes(payload))
        with pytest.raises(GridError, match="payload"):
            load_state(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "short.sgv"
        path.write_bytes(b"SGV1" + b"\x00" * 10)
        with pytest.raises(GridError, match="truncated"):
            load_state(path)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("kind", ["complex", "real"])
    def test_stack_round_trip_exact(self, tmp_path, m, kind):
        g = build_grid(2, 16, 3.0)
        rng = np.random.default_rng(m)
        if kind == "complex":
            states = [random_state(g, rng) for _ in range(m)]
            states[-1].values[0, :2] = [complex(-0.0, 1.0), complex(1.0, np.inf)]
        else:
            states = [StateVector(g, rng.standard_normal(g.shape)) for _ in range(m)]
            states[-1].values[0, :2] = [-0.0, -np.inf]
        path = tmp_path / "stack.sgv"
        save_states(states, path)
        assert path.stat().st_size == 28 + 16 * m * g.size
        back = load_states(path)
        assert len(back) == m
        for u, v in zip(states, back):
            assert v.grid == g
            assert v.values.dtype == np.complex128
            np.testing.assert_array_equal(v.values.real, u.values.real)
            np.testing.assert_array_equal(v.values.imag, np.imag(u.values))
        last = back[-1].values[0]
        assert np.signbit(last[0].real)
        assert np.isinf(last[1].real if kind == "real" else last[1].imag)
        if m == 1:  # a one-state dump is what save_state writes
            raw = path.read_bytes()
            save_state(states[0], path)
            assert path.read_bytes() == raw
            np.testing.assert_array_equal(load_state(path).values, back[0].values)
        else:  # the states are separate arrays
            back[0].values[...] = 0
            np.testing.assert_array_equal(back[1].values, states[1].values)

    def test_stack_payload_of_partial_state_rejected(self, tmp_path):
        g = build_grid(1, 8, 2.5)
        path = tmp_path / "stack.sgv"
        save_states([state(g, np.ones(8)), state(g, np.zeros(8))], path)
        # drop one whole complex value: 15 values are not a whole number of 8-value states
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(GridError, match="not a whole number of 8-value states"):
            load_states(path)
        path.write_bytes(path.read_bytes()[:28])  # a header and no state
        with pytest.raises(GridError, match="payload"):
            load_states(path)

    def test_load_state_rejects_a_stack_of_three(self, tmp_path):
        g = build_grid(1, 8, 2.5)
        path = tmp_path / "stack.sgv"
        save_states([state(g, np.ones(8))] * 3, path)
        with pytest.raises(GridError, match="holds 3 states"):
            load_state(path)

    def test_stack_needs_states_of_one_grid(self, tmp_path):
        path = tmp_path / "stack.sgv"
        with pytest.raises(GridError, match="at least one"):
            save_states([], path)
        a = state(build_grid(1, 8, 2.5), np.ones(8))
        b = state(build_grid(1, 8, 3.0), np.ones(8))
        with pytest.raises(GridError, match="different grids"):
            save_states([a, b], path)
        assert list(tmp_path.iterdir()) == []

    def test_dump_replaced_atomically(self, tmp_path, monkeypatch):
        g = build_grid(1, 8, 2.5)
        path = tmp_path / "vec.sgv"
        save_state(state(g, np.ones(8)), path)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="replace refused"):
            save_state(state(g, np.zeros(8)), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


class TestSuggestGrid:
    def test_reasonable_and_deterministic(self, gaussian_pair):
        norm_pair, _ = normalized_pair(gaussian_pair)
        grid, reasoning = suggest_grid(norm_pair, k=3)
        assert (grid, reasoning) == suggest_grid(norm_pair, k=3)
        assert grid.half_length >= 8.0
        assert grid.n_per_axis >= 64 and (grid.n_per_axis & (grid.n_per_axis - 1)) == 0
        assert reasoning
        assert grid.dimension == 1

    def test_probe_grows_until_it_holds_k_pairs(self, gaussian_pair):
        # The 128-node probe of d = 1 has room for 128 pairs; k = 130 needs 256.
        grid, reasoning = suggest_grid(normalized_pair(gaussian_pair)[0], k=130)
        assert reasoning[0].startswith("coarse solve on d=1 N=256 ")
        assert grid.size >= 130

    @pytest.mark.parametrize("k", [3, 4])
    def test_3d_gaussian_pair_probe_gives_the_dense_probe_grid(self, k):
        # The 16^3 probe is solved by Lanczos on -A; a dense solve of the
        # same probe gave this grid too.
        symbol = make_catalog_profile("gaussian_power", [2], 3)
        weight = make_catalog_profile("gaussian_power", [2], 3, role=ProfileRole.WEIGHT_V)
        grid, _ = suggest_grid(make_pair(symbol, weight), k=k)
        assert (grid.dimension, grid.n_per_axis, grid.half_length) == (3, 128, 18.0)

    def test_anisotropic_symbol_grid_ignores_which_axis_is_slow(self):
        # exp(-<xi, Q xi>) with one slow axis; which axis is slow must not
        # change the grid.
        weight = make_catalog_profile("gaussian_power", [2], 2, role=ProfileRole.WEIGHT_V)
        grids = []
        for q in ([1.0, 0.0, 0.0, 0.01], [0.01, 0.0, 0.0, 1.0]):
            symbol = make_catalog_profile("aniso_gaussian", q, 2)
            grid, _ = suggest_grid(make_pair(symbol, weight), k=3)
            grids.append(grid)
        assert grids[0] == grids[1]

    def test_rational_symbol_grid_matches_a_fine_grid(self):
        # The slowly decaying symbol 1/(1+xi^2) has the model operator of
        # the Gaussian pair, so it gets the same modest grid, and that grid
        # already gives the spectrum of a far finer one at every alpha.
        symbol = make_catalog_profile("rational_power", [2], 1)
        weight = make_catalog_profile("gaussian_power", [2], 1, role=ProfileRole.WEIGHT_V)
        pair = make_pair(symbol, weight)
        grid, _ = suggest_grid(normalized_pair(pair)[0], k=3)
        assert grid.size <= 1024
        auto, fine = (
            run_sweep(pair, [0.2, 0.1, 0.05], 3,
                      SweepSettings(solver=SolveSettings(tol=1e-9), grid=g))
            for g in (None, build_grid(1, 2048, 25.0))
        )
        assert auto.provenance["grid"] == grid.describe()
        values = [
            (mu, mu_fine)
            for (mu, _), (mu_fine, _) in zip(auto.model_eigenvalues, fine.model_eigenvalues)
        ] + [(rec.lam, rec_fine.lam) for rec, rec_fine in zip(auto.records, fine.records)]
        assert len(values) == 3 + 9
        for value, reference in values:
            assert abs(value - reference) <= 1e-10 * max(1.0, abs(reference))
