import numpy as np
import pytest

from specgap import (
    GridError,
    ProfileRole,
    SolveSettings,
    StateVector,
    SweepSettings,
    build_grid,
    inner,
    inner_freq,
    load_state,
    make_catalog_profile,
    make_pair,
    norm,
    norm_freq,
    random_state,
    run_sweep,
    save_state,
    state,
    suggest_grid,
    to_frequency,
    to_position,
)
from specgap.operators import normalized_pair


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
        # same size fits with a raised budget
        build_grid(2, 4096, 10.0, max_nodes=4096**2)


class TestTransforms:
    def test_constant_concentrates_at_zero_frequency(self):
        g = build_grid(1, 64, 5.0)
        u = state(g, np.ones(64))
        u_hat = to_frequency(u)
        zero_bin = int(np.argmin(np.abs(g.freq_axis)))
        expected_peak = 2 * g.half_length / np.sqrt(2 * np.pi)
        assert u_hat.values[zero_bin] == pytest.approx(expected_peak, rel=1e-12)
        others = np.delete(u_hat.values, zero_bin)
        assert np.max(np.abs(others)) < 1e-12 * expected_peak

    def test_lattice_exponential_concentrates_at_its_bin(self):
        g = build_grid(1, 64, 5.0)
        k = 7
        xi_k = g.freq_axis[k]
        u = state(g, np.exp(1j * xi_k * g.node_axis))
        u_hat = to_frequency(u)
        mass = np.abs(u_hat.values) ** 2
        assert mass[k] / np.sum(mass) == pytest.approx(1.0, abs=1e-24)

    def test_gaussian_maps_to_gaussian(self):
        g = build_grid(1, 512, 16.0)
        u = state(g, np.exp(-g.node_axis**2 / 2))
        u_hat = to_frequency(u)
        target = np.exp(-g.freq_axis**2 / 2)
        assert np.max(np.abs(u_hat.values - target)) <= 1e-10

    def test_round_trip_and_parseval_on_random_vectors(self):
        g = build_grid(2, 32, 6.0)
        rng = np.random.default_rng(11)
        for _ in range(5):
            u = random_state(g, rng)
            u_hat = to_frequency(u)
            back = to_position(u_hat)
            assert np.max(np.abs(back.values - u.values)) <= 1e-12 * norm(u)
            assert norm_freq(u_hat) == pytest.approx(norm(u), rel=1e-12)

    def test_linearity(self):
        g = build_grid(1, 128, 8.0)
        rng = np.random.default_rng(2)
        u = random_state(g, rng)
        v = random_state(g, rng)
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        lhs = to_frequency(state(g, a * u.values + b * v.values)).values
        rhs = a * to_frequency(u).values + b * to_frequency(v).values
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
        rhs = inner_freq(to_frequency(u), to_frequency(v))
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
        path = tmp_path / "vec.sgv"
        save_state(u, path)
        back = load_state(path)
        assert back.grid == g
        np.testing.assert_array_equal(back.values, u.values)

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

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "short.sgv"
        path.write_bytes(b"SGV1" + b"\x00" * 10)
        with pytest.raises(GridError, match="truncated"):
            load_state(path)


class TestSuggestGrid:
    def test_reasonable_and_deterministic(self, gaussian_pair):
        norm_pair, _ = normalized_pair(gaussian_pair)
        grid, reasoning = suggest_grid(norm_pair, k=3)
        assert (grid, reasoning) == suggest_grid(norm_pair, k=3)
        assert grid.half_length >= 8.0
        assert grid.n_per_axis >= 64 and (grid.n_per_axis & (grid.n_per_axis - 1)) == 0
        assert reasoning
        assert grid.dimension == 1

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
