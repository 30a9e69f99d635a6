"""Random model generation, simulation, and population covariance tests."""

import tracemalloc

import numpy as np
import pytest

import latentvar as lv
from conftest import gen_stationary_model
from latentvar.simulate import DEFAULT_BURN_IN


def scalar_ar1(a=0.5, sigma2=1.0):
    blocks = lv.BlockTransitionMatrix(
        [[a]], np.zeros((1, 0)), np.zeros((0, 1)), np.zeros((0, 0))
    )
    return lv.LatentVarModel(blocks, sigma2, 1.0)


class TestGenDrg:
    def test_zero_probabilities(self):
        model = lv.gen_drg(lv.DrgConfig(n=3, m=2, p=0.0, q=0.0, p_obs=0.0, seed=1))
        assert not model.blocks.full().any()

    def test_full_probability_latent_block(self):
        model = lv.gen_drg(lv.DrgConfig(n=2, m=3, p=1.0, q=1.0, seed=5))
        # acyclic sampling forces exactly one direction per latent pair
        assert np.count_nonzero(model.blocks.a22) == 3
        assert lv.nilpotency_index(model.blocks.a22) == 3

    def test_large_instance(self):
        cfg = lv.DrgConfig(n=50, m=50, p=0.4, q=0.4, a=0.1, seed=11)
        model = lv.gen_drg(cfg)
        assert lv.nilpotency_index(model.blocks.a22) <= 50
        assert model.stationary

    def test_deterministic_given_seed(self):
        cfg = lv.DrgConfig(n=4, m=3, p=0.5, q=0.5, seed=123)
        a = lv.gen_drg(cfg)
        b = lv.gen_drg(cfg)
        assert np.array_equal(a.blocks.full(), b.blocks.full())

    @pytest.mark.parametrize("seed", range(25))
    def test_always_nilpotent_and_stationary(self, seed):
        rng = np.random.default_rng(seed)
        cfg = lv.DrgConfig(
            n=int(rng.integers(1, 20)),
            m=int(rng.integers(1, 20)),
            p=float(rng.uniform(0, 1)),
            q=float(rng.uniform(0, 1)),
            a=float(rng.uniform(0.05, 1.0)),
            seed=seed,
        )
        model = lv.gen_drg(cfg)
        lv.nilpotency_index(model.blocks.a22)
        assert model.spectral_radius() < 1.0


class TestNonFiniteParameters:
    @pytest.mark.parametrize("field", ["a", "sigma_x2", "sigma_z2"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_drg_config(self, field, value):
        with pytest.raises(ValueError, match="positive and finite"):
            lv.DrgConfig(n=2, m=1, p=0.5, q=0.5, **{field: value})

    @pytest.mark.parametrize("sigmas", [(np.nan, 1.0), (1.0, np.inf)])
    def test_model_variances(self, sigmas):
        with pytest.raises(ValueError, match="positive and finite"):
            lv.LatentVarModel(scalar_ar1().blocks, *sigmas)

    @pytest.mark.parametrize("block", range(4))
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_transition_blocks(self, block, value):
        blocks = [np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((1, 1))]
        blocks[block][0, 0] = value
        with pytest.raises(ValueError, match="finite entries"):
            lv.BlockTransitionMatrix(*blocks)


class TestSimulate:
    def test_white_noise_autocovariance_vanishes(self):
        blocks = lv.BlockTransitionMatrix(
            np.zeros((2, 2)), np.zeros((2, 0)), np.zeros((0, 2)), np.zeros((0, 0))
        )
        panel = lv.simulate(lv.LatentVarModel(blocks), 10_000, seed=2)
        assert np.abs(lv.autocov(panel, 1)).max() < 0.05

    def test_ar1_stationary_variance(self):
        panel = lv.simulate(scalar_ar1(), 100_000, seed=3)
        assert abs(panel.data.var() - 1 / (1 - 0.25)) < 0.05

    def test_same_seed_same_panel(self):
        model = lv.gen_drg(lv.DrgConfig(n=3, m=2, p=0.5, q=0.5, seed=9))
        a = lv.simulate(model, 50, seed=4)
        b = lv.simulate(model, 50, seed=4)
        assert np.array_equal(a.data, b.data)

    def test_non_stationary_rejected(self):
        blocks = lv.BlockTransitionMatrix(
            [[1.01]], np.zeros((1, 0)), np.zeros((0, 1)), np.zeros((0, 0))
        )
        with pytest.raises(lv.NonStationary):
            lv.simulate(lv.LatentVarModel(blocks), 10)

    def test_returns_observed_coordinates_only(self):
        model = lv.gen_drg(lv.DrgConfig(n=3, m=4, p=0.5, q=0.5, seed=1))
        panel = lv.simulate(model, 25, seed=1)
        assert panel.data.shape == (25, 3)
        assert panel.names == ("x1", "x2", "x3")


def reference_simulate(model, t_len, burn_in=DEFAULT_BURN_IN, seed=0):
    """The one-step-per-sample loop that simulate replaced, kept as its reference."""
    n, m = model.n, model.m
    full = model.blocks.full()
    rng = np.random.default_rng(seed)
    scale = np.concatenate(
        [np.full(n, np.sqrt(model.sigma_x2)), np.full(m, np.sqrt(model.sigma_z2))]
    )
    noise = rng.standard_normal((burn_in + t_len, n + m)) * scale
    out = np.empty((burn_in + t_len, n))
    state = np.zeros(n + m)
    for t in range(burn_in + t_len):
        state = full @ state + noise[t]
        out[t] = state[:n]
    return out[burn_in:]


def observed_only(a11):
    n = len(a11)
    blocks = lv.BlockTransitionMatrix(a11, np.zeros((n, 0)), np.zeros((0, n)), np.zeros((0, 0)))
    return lv.LatentVarModel(blocks)


def rotation(radius, angle):
    c, s = np.cos(angle), np.sin(angle)
    return observed_only(radius * np.array([[c, -s], [s, c]]))


REFERENCE_MODELS = {
    "near_unit_root": scalar_ar1(0.999),
    "rotation": rotation(0.995, 0.3),
    # powers grow to ~1e8 before they decay
    "non_normal": observed_only(0.9 * np.eye(7) + np.triu(np.full((7, 7), 3.0), 1)),
    "latent": lv.gen_drg(lv.DrgConfig(n=3, m=4, p=0.6, q=0.6, a=0.5, seed=2)),
}


class TestSimulateAgainstStepReference:
    """simulate sums the recursion in chunks; the one-step loop is the reference."""

    @staticmethod
    def assert_close(model, t_len, burn_in, seed):
        got = lv.simulate(model, t_len, burn_in=burn_in, seed=seed).data
        want = reference_simulate(model, t_len, burn_in=burn_in, seed=seed)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    # k = isqrt(N): chunks of one sample (N <= 3), more chunks than samples
    # per chunk (99 = 11 * 9), one square (100), and a leftover tail of one
    # sample (101) or many (20500 = 143 * 143 + 51)
    @pytest.mark.parametrize("total", [1, 2, 3, 99, 100, 101, 20500])
    @pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
    def test_no_burn_in(self, name, total):
        self.assert_close(REFERENCE_MODELS[name], total, 0, total)

    def test_burn_in_inside_a_chunk(self):
        self.assert_close(REFERENCE_MODELS["latent"], 90, 11, 4)

    def test_drg_40_40(self):
        model = lv.gen_drg(lv.DrgConfig(n=40, m=40, p=0.4, q=0.4, a=0.1, seed=3))
        self.assert_close(model, 20_000, DEFAULT_BURN_IN, 3)

    def test_zero_transition_returns_scaled_noise_bytes(self):
        # the RNG stream and the noise scaling are those of the reference
        blocks = lv.BlockTransitionMatrix(
            np.zeros((3, 3)), np.zeros((3, 2)), np.zeros((2, 3)), np.zeros((2, 2))
        )
        model = lv.LatentVarModel(blocks, sigma_x2=2.0, sigma_z2=3.0)
        got = lv.simulate(model, 101, burn_in=10, seed=6).data
        noise = np.random.default_rng(6).standard_normal((111, 5)) * np.sqrt([2.0] * 3 + [3.0] * 2)
        assert got.tobytes() == np.ascontiguousarray(noise[10:, :3]).tobytes()

    def test_traced_memory_peak(self):
        # noise 12.5 MiB, output 6.3 MiB and the observed rows of the powers
        # 3.5 MiB; one more full-size copy of the noise would cross the bound
        model = lv.gen_drg(lv.DrgConfig(n=40, m=40, p=0.4, q=0.4, a=0.1, seed=5))
        lv.simulate(model, 20_000, seed=5)
        tracemalloc.start()
        try:
            lv.simulate(model, 20_000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20


class TestPopulationCovariance:
    def test_zero_transition_gives_noise_cov(self):
        blocks = lv.BlockTransitionMatrix(
            np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((1, 1))
        )
        model = lv.LatentVarModel(blocks, 2.0, 3.0)
        gamma = lv.population_covariance(model)
        assert np.allclose(gamma, np.diag([2.0, 2.0, 3.0]))

    def test_scalar_closed_form(self):
        gamma = lv.population_covariance(scalar_ar1())
        assert abs(gamma[0, 0] - 1 / (1 - 0.25)) < 1e-9

    def test_near_unit_root(self):
        # the plain fixed-point iteration needs ~1.4M steps here
        a = 0.99999
        gamma = lv.population_covariance(scalar_ar1(a))
        assert gamma[0, 0] == pytest.approx(1 / (1 - a**2), rel=1e-9)

    def test_symmetric_positive_definite(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            model = gen_stationary_model(rng)
            gamma = lv.population_covariance(model)
            assert np.allclose(gamma, gamma.T)
            assert np.min(np.linalg.eigvalsh(gamma)) > 0

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            model = gen_stationary_model(rng)
            gamma = lv.population_covariance(model)
            full = model.blocks.full()
            resid = gamma - (full @ gamma @ full.T + model.noise_cov())
            assert np.abs(resid).max() < 1e-10

    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_long_simulation(self, seed):
        rng = np.random.default_rng(300 + seed)
        model = gen_stationary_model(rng, n_max=3, m_max=3)
        pop = lv.population_covariance(model)[: model.n, : model.n]
        panel = lv.simulate(model, 100_000, seed=seed)
        emp = lv.autocov(panel, 0)
        rel = np.linalg.norm(emp - pop) / np.linalg.norm(pop)
        assert rel < 0.05

    def test_non_stationary_rejected(self):
        blocks = lv.BlockTransitionMatrix(
            [[1.05]], np.zeros((1, 0)), np.zeros((0, 1)), np.zeros((0, 0))
        )
        with pytest.raises(lv.NonStationary):
            lv.population_covariance(lv.LatentVarModel(blocks))


class TestComputeMlRatio:
    def test_zero_transition(self):
        blocks = lv.BlockTransitionMatrix(
            np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))
        )
        model = lv.LatentVarModel(blocks, sigma_x2=4.0, sigma_z2=2.0)
        m_val, l_val = lv.compute_ml_ratio(model)
        assert m_val == 2.0
        assert abs(l_val - 4.0) < 1e-9

    def test_monotone_in_noise_ratio(self):
        rng = np.random.default_rng(17)
        model = gen_stationary_model(rng)
        ratios = []
        for r in (0.1, 1.0, 10.0, 100.0):
            scaled = lv.LatentVarModel(model.blocks, sigma_x2=r, sigma_z2=1.0)
            m_val, l_val = lv.compute_ml_ratio(scaled)
            ratios.append(m_val / l_val)
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_vanishing_latent_noise(self):
        rng = np.random.default_rng(23)
        model = gen_stationary_model(rng)
        small = lv.LatentVarModel(model.blocks, sigma_x2=1.0, sigma_z2=1e-9)
        m_val, l_val = lv.compute_ml_ratio(small)
        assert m_val / l_val < 1e-8


class TestPanelValidation:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            lv.TimeSeriesPanel(("a",), np.array([[np.nan]]))

    def test_rejects_no_series(self):
        # estimation once failed on it with a bare IndexError
        with pytest.raises(ValueError, match="panel needs at least one series"):
            lv.TimeSeriesPanel((), np.zeros((10, 0)))

    def test_rejects_name_mismatch(self):
        with pytest.raises(ValueError):
            lv.TimeSeriesPanel(("a", "b"), np.zeros((3, 1)))

    def test_rejects_string_names(self):
        # a bare str was once split into its characters, ("a", "b")
        with pytest.raises(ValueError, match="names must be a sequence of strings, got 'ab'"):
            lv.TimeSeriesPanel("ab", np.zeros((3, 2)))
