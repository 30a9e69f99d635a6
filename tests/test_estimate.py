"""Estimation tests: autocovariances, lagged fits, lag selection, bounds, and
support extraction.  Expected values for the derived cases were computed with
the independent oracles named in each test (closed forms, population
covariances, direct formula evaluation)."""

import math

import numpy as np
import pytest

import latentvar as lv
from conftest import gen_stationary_model


def scalar_ar1(a=0.5):
    blocks = lv.BlockTransitionMatrix(
        [[a]], np.zeros((1, 0)), np.zeros((0, 1)), np.zeros((0, 0))
    )
    return lv.LatentVarModel(blocks)


def var1_model(rng, n):
    a11 = np.where(rng.random((n, n)) < 0.7, rng.uniform(-0.4, 0.4, (n, n)), 0.0)
    radius = np.max(np.abs(np.linalg.eigvals(a11)))
    if radius >= 0.9:
        a11 *= 0.85 / radius
    blocks = lv.BlockTransitionMatrix(
        a11, np.zeros((n, 0)), np.zeros((0, n)), np.zeros((0, 0))
    )
    return lv.LatentVarModel(blocks)


def population_fit(model, lag):
    gammas = [lv.population_autocov(model, h) for h in range(lag + 2)]
    return lv.fit_from_autocovariances(gammas, lag)


class TestAutocov:
    def test_constant_panel_is_zero(self):
        panel = lv.TimeSeriesPanel(("a", "b"), np.full((50, 2), 3.0))
        assert not lv.autocov(panel, 1).any()

    def test_lag_zero_symmetric_psd(self):
        rng = np.random.default_rng(1)
        panel = lv.TimeSeriesPanel(("a", "b", "c"), rng.standard_normal((200, 3)))
        g0 = lv.autocov(panel, 0)
        assert np.allclose(g0, g0.T)
        assert np.min(np.linalg.eigvalsh(g0)) >= 0

    def test_ar1_lag_one(self):
        # closed form a * sigma^2 / (1 - a^2) = 2/3
        panel = lv.simulate(scalar_ar1(), 100_000, seed=3)
        assert abs(lv.autocov(panel, 1)[0, 0] - 2 / 3) < 0.05

    def test_insufficient_data(self):
        panel = lv.TimeSeriesPanel(("a",), np.zeros((5, 1)))
        with pytest.raises(lv.InsufficientData):
            lv.autocov(panel, 5)


class TestBlockToeplitz:
    def test_lag_zero_is_gamma0(self):
        g0 = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert np.array_equal(lv.block_toeplitz([g0], 0), g0)

    def test_scalar_layout(self):
        out = lv.block_toeplitz([np.array([[1.0]]), np.array([[0.5]])], 1)
        assert np.array_equal(out, [[1.0, 0.5], [0.5, 1.0]])

    def test_symmetric_for_any_input(self):
        rng = np.random.default_rng(2)
        gammas = [rng.standard_normal((3, 3)) for _ in range(3)]
        gammas[0] = gammas[0] + gammas[0].T  # gamma(0) symmetric by definition
        big = lv.block_toeplitz(gammas, 2)
        assert np.allclose(big, big.T)

    def test_matches_stacked_covariance(self):
        # oracle: E[XX^T] of the stacked lag vector, from population gammas
        rng = np.random.default_rng(4)
        model = gen_stationary_model(rng)
        n = model.n
        l = 2
        gammas = [lv.population_autocov(model, h) for h in range(l + 1)]
        big = lv.block_toeplitz(gammas, l)
        for r in range(l + 1):
            for c in range(l + 1):
                want = gammas[c - r] if c >= r else gammas[r - c].T
                assert np.allclose(big[r * n : (r + 1) * n, c * n : (c + 1) * n], want)


class TestSelectLag:
    def test_var1_monte_carlo(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed + 1000)
            panel = lv.simulate(var1_model(rng, 4), 10_000, seed=seed)
            if lv.select_lag(panel, 4, "aic") == 1:
                hits += 1
        assert hits >= 95

    def test_white_noise_prefers_smallest(self):
        blocks = lv.BlockTransitionMatrix(
            np.zeros((4, 4)), np.zeros((4, 0)), np.zeros((0, 4)), np.zeros((0, 0))
        )
        panel = lv.simulate(lv.LatentVarModel(blocks), 5000, seed=0)
        assert lv.select_lag(panel, 5, "aic") == 1
        assert lv.select_lag(panel, 5, "fpe") == 1

    def test_single_candidate(self):
        panel = lv.simulate(scalar_ar1(), 500, seed=1)
        assert lv.select_lag(panel, 1, "aic") == 1

    def test_l_max_guard(self):
        panel = lv.simulate(scalar_ar1(), 40, seed=1)
        with pytest.raises(lv.InsufficientData):
            lv.select_lag(panel, 30, "aic")

    def test_unknown_criterion(self):
        panel = lv.simulate(scalar_ar1(), 500, seed=1)
        with pytest.raises(ValueError):
            lv.select_lag(panel, 2, "bic")


class TestFitCoefficients:
    def test_population_latent_free_exactness(self):
        rng = np.random.default_rng(1)
        n, m = 3, 2
        blocks = lv.BlockTransitionMatrix(
            rng.uniform(-0.3, 0.3, (n, n)),
            np.zeros((n, m)),
            rng.uniform(-0.3, 0.3, (m, n)),
            np.zeros((m, m)),
        )
        model = lv.LatentVarModel(blocks)
        coeffs, _ = population_fit(model, 2)
        assert np.abs(coeffs[0] - blocks.a11).max() < 1e-8
        assert np.abs(coeffs[1]).max() < 1e-8
        assert np.abs(coeffs[2]).max() < 1e-8

    def test_scalar_chain_population_projection(self):
        # oracle: by hand, gamma(1) = 0 for this chain, so the lag-1 fit
        # returns exactly [0, a12 * a21] = [0, 0.25]
        blocks = lv.BlockTransitionMatrix([[0.0]], [[0.5]], [[0.5]], [[0.0]])
        model = lv.LatentVarModel(blocks, 1.0, 1.0)
        coeffs, _ = population_fit(model, 1)
        assert abs(coeffs[0][0, 0]) < 1e-9
        assert abs(coeffs[1][0, 0] - 0.25) < 1e-9

    def test_large_drg_fit_is_finite(self):
        cfg = lv.DrgConfig(
            n=50, m=50, p=0.4, q=0.4, a=0.1, sigma_x2=0.1, sigma_z2=0.1, seed=3
        )
        model = lv.gen_drg(cfg)
        panel = lv.simulate(model, 1000, seed=3)
        report = lv.fit_coefficients(panel, 2)
        assert all(np.isfinite(b).all() for b in report.b_hat)
        assert all((s > 0).all() for s in report.entry_stderr)

    def test_short_panel_rejected(self):
        panel = lv.TimeSeriesPanel(("a",), np.zeros((3, 1)))
        with pytest.raises((lv.InsufficientData, lv.SingularCovariance)):
            lv.fit_coefficients(panel, 2)

    def test_constant_panel_singular(self):
        panel = lv.TimeSeriesPanel(("a", "b"), np.ones((100, 2)))
        with pytest.raises(lv.SingularCovariance):
            lv.fit_coefficients(panel, 1)


class TestProp1Bound:
    def test_zero_at_top_lag(self):
        # zero only where the correlated latent noise vanishes (l = 1); for
        # l >= 2 the projection residue reaches the top lag as well
        assert lv.prop1_bound(5, 1, 0, 0.5, 0.4, 0.3) == 0.0
        got = lv.prop1_bound(5, 3, 2, 0.5, 0.4, 0.3)
        want = math.sqrt(5 * 2 * 0.5) * 0.4 * 0.3
        assert abs(got - want) < 1e-12

    def test_zero_without_latent_block(self):
        assert lv.prop1_bound(5, 3, 0, 0.5, 0.0, 0.3) == 0.0

    def test_direct_formula(self):
        got = lv.prop1_bound(5, 3, 0, 0.5, 0.4, 0.3)
        want = math.sqrt(5 * 2 * 0.5) * 0.4 * 0.3**1
        assert abs(got - want) < 1e-12

    def test_rejects_k_beyond_range(self):
        # a lag-l fit has blocks B_0..B_l, so k = l is in range and k = l + 1 not
        with pytest.raises(ValueError):
            lv.prop1_bound(5, 3, 4, 0.5, 0.4, 0.3)

    def test_top_block_gets_the_flat_bound(self):
        assert lv.prop1_bound(5, 3, 3, 0.5, 0.4, 0.3) == lv.prop1_bound(5, 3, 0, 0.5, 0.4, 0.3)


class TestRecoverabilityCheck:
    def test_huge_magnitude_floor_passes(self):
        priors = lv.BoundPriors(0.4, 0.3, 1.0, (math.inf,))
        assert lv.recoverability_check(priors, 5, 3, 0, 1.0)

    def test_top_lag_always_passes(self):
        # with l = 1 the bound vanishes, so any magnitude floor is recoverable
        for a_min in (0.0, 1e-9, 0.05):
            priors = lv.BoundPriors(0.4, 0.3, 1.0, (a_min,))
            assert lv.recoverability_check(priors, 5, 1, 0, 1e-6)
            assert lv.recoverability_check(priors, 5, 1, 0, 0.0)
        # with l >= 2 the top lag needs a_min >= 2 * bound, bound = sqrt(5*2*1)*0.4*0.3
        bound = math.sqrt(5 * 2 * 1.0) * 0.4 * 0.3
        priors = lv.BoundPriors(0.4, 0.3, 1.0, (0.05,))
        assert not lv.recoverability_check(priors, 5, 3, 2, 1.0)
        assert not lv.recoverability_check(priors, 5, 3, 2, 0.0)
        priors = lv.BoundPriors(0.4, 0.3, 1.0, (2 * bound * (1 + 1e-9),))
        assert lv.recoverability_check(priors, 5, 3, 2, 1.0)
        priors = lv.BoundPriors(0.4, 0.3, 1.0, (2 * bound * (1 - 1e-9),))
        assert not lv.recoverability_check(priors, 5, 3, 2, 1.0)

    def test_arithmetic_case_fails(self):
        # 4*5*2*0.16/0.0025 * 0.09 = 230.4 > 100
        priors = lv.BoundPriors(0.4, 0.3, 1.0, (0.05,))
        assert not lv.recoverability_check(priors, 5, 3, 0, 100.0)

    def test_lag_zero_passes(self):
        # prop1_bound is 0 at l = 0, so the check passes whatever l_hat is
        priors = lv.BoundPriors(0.4, 0.3, 1.0, (0.05,))
        assert lv.prop1_bound(5, 0, 0, 1.0, 0.4, 0.3) == 0.0
        for l_hat in (1.0, 0.0, -1.0):
            assert lv.recoverability_check(priors, 5, 0, 0, l_hat)


class TestBoundPriors:
    @pytest.mark.parametrize("a_min", [0.05, (0.05,), [0.0, 0.1], math.inf])
    def test_accepts_nonnegative_floors(self, a_min):
        priors = lv.BoundPriors(0.4, 0.3, 1.0, a_min)
        assert priors.a_min_at(0) == np.atleast_1d(a_min)[0]

    @pytest.mark.parametrize("a_min", [(), [], -0.1, (0.1, -1e-9), math.nan, (0.1, math.nan)])
    def test_rejects_unusable_floors(self, a_min):
        with pytest.raises(ValueError, match="a_min"):
            lv.BoundPriors(0.4, 0.3, 1.0, a_min)


class TestExtractSupport:
    def _report(self, b_hat, stderr, names=("a", "b")):
        n = len(names)
        return lv.EstimationReport(
            lag=len(b_hat) - 1,
            names=tuple(names),
            nobs=1000,
            b_hat=tuple(np.asarray(b, dtype=float) for b in b_hat),
            residual_cov=np.eye(n),
            entry_stderr=tuple(np.asarray(s, dtype=float) for s in stderr),
            gamma0=np.eye(n),
        )

    def test_all_zero_coefficients(self):
        rep = self._report([np.zeros((2, 2))], [np.full((2, 2), 0.1)])
        meas = lv.extract_support(rep)
        assert meas.max_k == 0
        assert not meas.supports[0].any()

    def test_z_test_thresholding(self):
        b = np.array([[0.5, 0.01], [0.0, 0.3]])
        rep = self._report([b], [np.full((2, 2), 0.1)])
        meas = lv.extract_support(rep, alpha=0.05)
        assert meas.supports[0].tolist() == [[1, 0], [0, 1]]

    def test_alpha_monotonicity(self):
        rng = np.random.default_rng(5)
        b = rng.normal(scale=0.2, size=(3, 3))
        rep = self._report(
            [b, rng.normal(scale=0.2, size=(3, 3))],
            [np.full((3, 3), 0.1)] * 2,
            names=("a", "b", "c"),
        )
        tight = lv.extract_support(rep, alpha=0.01)
        loose = lv.extract_support(rep, alpha=0.10)
        for k in range(max(tight.max_k, loose.max_k) + 1):
            s_tight = tight.supports[k] if k <= tight.max_k else np.zeros_like(loose.supports[0])
            s_loose = loose.supports[k] if k <= loose.max_k else np.zeros_like(tight.supports[0])
            assert (s_tight <= s_loose).all()

    def test_prior_bound_conjoined(self):
        # entry passes the z-test but sits below the analytic bound
        b = np.array([[0.08]])
        rep = self._report(
            [b, np.zeros((1, 1)), np.zeros((1, 1))],
            [np.full((1, 1), 0.01)] * 3,
            names=("a",),
        )
        plain = lv.extract_support(rep, alpha=0.05)
        assert plain.supports[0][0, 0] == 1
        priors = lv.BoundPriors(rho12=1.0, rho22=0.5, sigma_z2_max=1.0)
        gated = lv.extract_support(rep, alpha=0.05, priors=priors)
        # bound at k=0, l=2: sqrt(1 * (l-k-1) * 1/1) * 1 * 0.5 = 0.5 > 0.08
        assert gated.supports[0][0, 0] == 0
        assert rep.bounds is not None and abs(rep.bounds[0] - 0.5) < 1e-12

    def test_prior_gate_covers_every_block(self):
        # the projection bound covers the whole stack B - A, block l included;
        # on this panel the lag-3 fit once kept S_3 entries with |B_3| = 0.032
        # under a bound of 0.874
        model = lv.gen_drg(lv.DrgConfig(n=6, m=4, p=0.4, q=0.4, a=0.2, seed=7))
        rep = lv.fit_coefficients(lv.simulate(model, 4000, seed=7), 3)
        priors = lv.BoundPriors(rho12=0.5, rho22=0.5, sigma_z2_max=1.0)
        meas = lv.extract_support(rep, alpha=0.05, priors=priors)
        assert len(rep.bounds) == len(rep.b_hat) == 4
        for k, s in enumerate(meas.supports):
            assert (np.abs(rep.b_hat[k])[s.astype(bool)] > rep.bounds[k]).all()
        plain = lv.extract_support(rep, alpha=0.05)
        assert plain.max_k == 3 and plain.supports[3].any()

    @pytest.mark.parametrize("lam", [0.0, -1e-17])
    def test_prior_gate_on_singular_gamma0(self, lam):
        # lambda_min(gamma(0)) divides the prior bound: zero once raised
        # ZeroDivisionError, a tiny negative value a math-domain ValueError
        rep = self._report([np.full((2, 2), 0.5)] * 3, [np.full((2, 2), 0.01)] * 3)
        rep.gamma0 = np.diag([1.0, lam])
        priors = lv.BoundPriors(rho12=0.5, rho22=0.5, sigma_z2_max=1.0)
        with pytest.raises(lv.SingularCovariance, match="lambda_min"):
            lv.extract_support(rep, priors=priors)

    def test_report_records_decisions(self):
        rep = self._report([np.zeros((2, 2))], [np.full((2, 2), 0.1)])
        meas = lv.extract_support(rep, alpha=0.07)
        assert rep.alpha == 0.07
        assert rep.supports == meas


class TestProp1Soundness:
    """Bound checks against population fits (acceptance runs the full sweep)."""

    def test_bounds_hold_below_top_lag(self):
        rng = np.random.default_rng(7)
        tested = 0
        for _ in range(30):
            model = gen_stationary_model(rng)
            b = model.blocks
            l = lv.nilpotency_index(b.a22)
            if l < 2:
                continue
            coeffs, _ = population_fit(model, l)
            m_val, l_val = lv.compute_ml_ratio(model)
            rho12 = np.linalg.norm(b.a12, 2)
            rho22 = np.linalg.norm(b.a22, 2)
            a_true = [b.a11] + [
                b.a12 @ np.linalg.matrix_power(b.a22, k - 1) @ b.a21
                for k in range(1, l + 1)
            ]
            for k in range(l - 1):
                err = np.abs(coeffs[k] - a_true[k]).sum(axis=0).max()
                bound = lv.prop1_bound(model.n, l, k, m_val / l_val, rho12, rho22)
                assert err <= bound + 1e-8
                tested += 1
        assert tested > 10

    def test_bound_holds_at_every_lag_on_small_rho22_draw(self):
        # 625th scale-0.9 draw: n=2, m=3, l=3, rho22 ~ 0.037.  Its k=1 gap
        # (2.1e-3) breaks a bound that decays like rho22^(k+1) (1.4e-3) and
        # its k=2 gap is nonzero, so the bound must be flat across lags.
        rng = np.random.default_rng(123)
        for _ in range(625):
            model = gen_stationary_model(rng, scale=0.9)
        b = model.blocks
        l = lv.nilpotency_index(b.a22)
        assert (model.n, model.m, l) == (2, 3, 3)
        coeffs, _ = population_fit(model, l)
        m_val, l_val = lv.compute_ml_ratio(model)
        rho12 = np.linalg.norm(b.a12, 2)
        rho22 = np.linalg.norm(b.a22, 2)
        a_true = [b.a11] + [
            b.a12 @ np.linalg.matrix_power(b.a22, k - 1) @ b.a21
            for k in range(1, l + 1)
        ]
        for k in range(l):
            err = np.abs(coeffs[k] - a_true[k]).sum(axis=0).max()
            bound = lv.prop1_bound(model.n, l, k, m_val / l_val, rho12, rho22)
            assert err <= bound + 1e-8

    def test_lag_one_models_are_exact(self):
        # with a22 = 0 the latent noise is orthogonal to every regressor
        rng = np.random.default_rng(9)
        for _ in range(10):
            model = gen_stationary_model(rng)
            b = model.blocks
            blocks = lv.BlockTransitionMatrix(b.a11, b.a12, b.a21, np.zeros_like(b.a22))
            flat = lv.LatentVarModel(blocks, model.sigma_x2, model.sigma_z2)
            coeffs, _ = population_fit(flat, 1)
            assert np.abs(coeffs[0] - b.a11).max() < 1e-9
            assert np.abs(coeffs[1] - b.a12 @ b.a21).max() < 1e-9


class TestConsistencyInT:
    def test_support_error_non_increasing_in_t(self):
        # median S_0 support error over 50 seeds for growing sample sizes
        cfg = lv.DrgConfig(n=3, m=2, p=0.5, q=0.5, a=0.3, seed=77)
        model = lv.gen_drg(cfg)
        true0 = (np.abs(model.blocks.a11) > 1e-12).astype(int)
        medians = []
        for t_len in (1_000, 10_000, 100_000):
            errs = []
            for seed in range(50):
                panel = lv.simulate(model, t_len, seed=seed)
                report = lv.fit_coefficients(panel, 2)
                meas = lv.extract_support(report, 0.05)
                errs.append(float(((meas.supports[0] - true0) ** 2).sum()))
            medians.append(np.median(errs))
        assert medians[0] >= medians[1] >= medians[2]
