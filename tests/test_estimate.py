"""Estimation tests: autocovariances, lagged fits, lag selection, bounds, and
support extraction.  Expected values for the derived cases were computed with
the independent oracles named in each test (closed forms, population
covariances, direct formula evaluation)."""

import math

import numpy as np
import pytest

import latentvar as lv
from conftest import gen_stationary_model, var1_model


def scalar_ar1(a=0.5):
    blocks = lv.BlockTransitionMatrix(
        [[a]], np.zeros((1, 0)), np.zeros((0, 1)), np.zeros((0, 0))
    )
    return lv.LatentVarModel(blocks)


def population_fit(model, lag):
    gammas = [lv.population_autocov(model, h) for h in range(lag + 2)]
    return lv.fit_from_autocovariances(gammas, lag)


def drg_panel(seed, t_len=2000):
    model = lv.gen_drg(lv.DrgConfig(n=5, m=4, p=0.4, q=0.4, a=0.3, seed=seed))
    return lv.simulate(model, t_len, seed=seed)


def dup_panel():
    """A DRG panel plus a copy of its first series: every Gamma(l) is singular."""
    panel = drg_panel(11)
    return lv.TimeSeriesPanel(panel.names + ("dup",), np.column_stack([panel.data, panel.data[:, 0]]))


def cos_panel():
    """Gamma(1) below COND_LIMIT (9.5e9) and Gamma(2) above it (5.3e12): a faint
    sinusoid beside white noise is nearly a linear function of its two lags."""
    t_len = 2000
    noise = np.random.default_rng(0).standard_normal(t_len)
    return lv.TimeSeriesPanel(("a", "b"), np.column_stack([noise, 3e-5 * np.cos(0.7 * np.arange(t_len))]))


@pytest.fixture
def no_lagged_fit(monkeypatch):
    """Make the per-lag dense fit raise, so that a test shows select_lag scores
    every lag by the recursion."""
    def refuse(*args, **kwargs):
        raise AssertionError("the per-lag fit was reached")

    monkeypatch.setattr(lv.estimate, "_lagged_fit", refuse)


def reference_residual_cov(panel, report):
    """Covariance of the one-step-ahead residuals of report's fit, taken from
    the T x n(l+1) design matrix of the lagged data."""
    x = panel.data - panel.data.mean(axis=0)
    l = report.lag
    n_eff = x.shape[0] - l - 1
    design = np.hstack([x[l - k : l - k + n_eff] for k in range(l + 1)])
    resid = x[l + 1 :] - design @ np.hstack(report.b_hat).T
    return (resid.T @ resid) / n_eff


def reference_select_lag(panel, l_max, criterion):
    """select_lag's AIC / FPE loop over the design-matrix residual covariance."""
    t_len, n = panel.t_len, panel.n
    best_l, best_score = 1, math.inf
    for l in range(1, l_max + 1):
        sigma = reference_residual_cov(panel, lv.fit_coefficients(panel, l))
        sign, logdet = np.linalg.slogdet(sigma)
        if sign <= 0:
            logdet = -math.inf
        if criterion == "aic":
            score = logdet + 2.0 * l * n * n / t_len
        else:
            ratio = (t_len + n * l + 1) / (t_len - n * l - 1)
            score = ratio**n * sign * math.exp(logdet)
        if score < best_score:
            best_l, best_score = l, score
    return best_l


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
        assert np.array_equal(lv.block_toeplitz([g0]), g0)

    def test_scalar_layout(self):
        out = lv.block_toeplitz([np.array([[1.0]]), np.array([[0.5]])])
        assert np.array_equal(out, [[1.0, 0.5], [0.5, 1.0]])

    def test_symmetric_for_any_input(self):
        rng = np.random.default_rng(2)
        gammas = [rng.standard_normal((3, 3)) for _ in range(3)]
        gammas[0] = gammas[0] + gammas[0].T  # gamma(0) symmetric by definition
        big = lv.block_toeplitz(gammas)
        assert np.allclose(big, big.T)

    def test_matches_stacked_covariance(self):
        # oracle: E[XX^T] of the stacked lag vector, from population gammas
        rng = np.random.default_rng(4)
        model = gen_stationary_model(rng)
        n = model.n
        l = 2
        gammas = [lv.population_autocov(model, h) for h in range(l + 1)]
        big = lv.block_toeplitz(gammas)
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
        # lags with l n < T/2 are tried: 1..19 at T = 40, n = 1, none at T = 2
        panel = lv.simulate(scalar_ar1(), 40, seed=1)
        assert lv.select_lag(panel, 30, "aic") == lv.select_lag(panel, 19, "aic")
        with pytest.raises(lv.InsufficientData):
            lv.select_lag(lv.simulate(scalar_ar1(), 2, seed=1), 1, "aic")

    def test_unknown_criterion(self):
        panel = lv.simulate(scalar_ar1(), 500, seed=1)
        for criterion in ("bic", "AIC"):  # one spelling, as the CLI's choices
            with pytest.raises(ValueError):
                lv.select_lag(panel, 2, criterion)

    def test_fpe_ignores_the_units(self):
        # FPE's product form underflowed to 0 at every lag at scale 1e-4, so
        # lag 1 won the tie, and overflowed at 1e4; ln FPE only shifts
        rng = np.random.default_rng(3)
        n, t_len, burn = 50, 3000, 200
        a1, a3 = rng.uniform(0.1, 0.4, n), rng.uniform(0.1, 0.3, n)
        x, e = np.zeros((t_len + burn, n)), rng.standard_normal((t_len + burn, n))
        for t in range(3, t_len + burn):
            x[t] = a1 * x[t - 1] + a3 * x[t - 3] + e[t]
        names = tuple(f"s{i}" for i in range(n))
        lags = [lv.select_lag(lv.TimeSeriesPanel(names, x[burn:] * s), 4, "fpe") for s in (1.0, 1e-4, 1e4)]
        assert lags == [2, 2, 2]  # the lag-2 fit regresses on X(t), X(t-1), X(t-2)


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


class TestLaggedMoments:
    """The residual covariance read off the lagged moments, against the
    design-matrix residuals of the same fit."""

    @staticmethod
    def assert_matches_reference(panel, l):
        report = lv.fit_coefficients(panel, l)
        scale = np.max(np.abs(report.gamma0))
        want = reference_residual_cov(panel, report)
        np.testing.assert_allclose(report.residual_cov, want, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("l", [0, 1, 3])
    def test_drg_panels(self, seed, l):
        self.assert_matches_reference(drg_panel(seed), l)

    def test_ridge_firing_panel(self):
        dup = dup_panel()
        gammas = [lv.autocov(dup, h) for h in range(2)]
        assert np.linalg.cond(lv.block_toeplitz(gammas)) >= lv.estimate.COND_LIMIT
        self.assert_matches_reference(dup, 1)

    @pytest.mark.parametrize("l", [0, 1, 3])
    @pytest.mark.parametrize("extra", [2, 3])
    def test_shortest_panels(self, l, extra):
        # T = l + 2 leaves one regression row, T = l + 3 two
        rng = np.random.default_rng(10 * l + extra)
        self.assert_matches_reference(lv.TimeSeriesPanel(("a", "b"), rng.standard_normal((l + extra, 2))), l)

    @pytest.mark.parametrize("l", [1, 2])
    def test_near_unit_root(self, l):
        blocks = lv.BlockTransitionMatrix(
            np.diag([0.9999, 0.5]), np.zeros((2, 0)), np.zeros((0, 2)), np.zeros((0, 0))
        )
        self.assert_matches_reference(lv.simulate(lv.LatentVarModel(blocks), 5000, seed=2), l)

    @pytest.mark.parametrize("criterion", ["aic", "fpe"])
    def test_select_lag_matches_reference(self, criterion, request):
        panels = [drg_panel(100 + seed, t_len=1000) for seed in range(20)]
        want = [reference_select_lag(panel, 4, criterion) for panel in panels]
        request.getfixturevalue("no_lagged_fit")
        assert [lv.select_lag(panel, 4, criterion) for panel in panels] == want

    def test_population_residual_is_gamma0_minus_fit(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            model = gen_stationary_model(rng)
            l = int(rng.integers(0, 4))
            gammas = [lv.population_autocov(model, h) for h in range(l + 2)]
            assert np.linalg.cond(lv.block_toeplitz(gammas[: l + 1])) < lv.estimate.COND_LIMIT
            blocks, sigma = lv.fit_from_autocovariances(gammas, l)
            want = gammas[0] - sum(b @ gammas[k + 1].T for k, b in enumerate(blocks))
            np.testing.assert_allclose(sigma, want, rtol=0, atol=1e-12 * np.max(np.abs(gammas[0])))


class TestWhittleScan:
    """select_lag's recursion against the dense per-lag fit, and the one
    eigvalsh of Gamma(l_top) that chooses between them."""

    @staticmethod
    def assert_matches_dense_fit(gammas, l_top, x):
        for l, (coeffs, sigma) in enumerate(lv.estimate._whittle(gammas, l_top, x)):
            blocks, want_sigma = lv.estimate._lagged_fit(gammas, l, x)[1:]
            want = np.hstack(blocks)
            np.testing.assert_allclose(coeffs, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
            np.testing.assert_allclose(sigma, want_sigma, rtol=0, atol=1e-12 * np.max(np.abs(want_sigma)))
        assert l == l_top

    def test_population_autocovariances(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            model = gen_stationary_model(rng)
            l_top = int(rng.integers(1, 6))
            gammas = [lv.population_autocov(model, h) for h in range(l_top + 2)]
            # a zero panel has zero boundary rows: both Sigmas are the
            # Toeplitz residual covariance scaled by T / (T - l - 1)
            self.assert_matches_dense_fit(gammas, l_top, np.zeros((100, model.n)))

    @pytest.mark.parametrize("t_len", [12, 40, 2000])
    def test_panels_with_the_boundary_correction(self, t_len):
        # at T = 12 (l_top = 1) the 4 boundary rows weigh a third of the moments
        for seed in range(3):
            panel = drg_panel(seed, t_len)
            x = panel.data - panel.data.mean(axis=0)
            l_top = min(4, (t_len - 1) // (2 * panel.n))
            self.assert_matches_dense_fit([lv.autocov(panel, h) for h in range(l_top + 2)], l_top, x)

    @pytest.mark.parametrize("criterion", ["aic", "fpe"])
    def test_mc_sized_panel(self, criterion, request):
        # DRG(40, 40) at T = 20000 and l_max = 6, the mc-estimate benchmark's size
        model = lv.gen_drg(lv.DrgConfig(n=40, m=40, p=0.4, q=0.4, a=0.1, seed=1))
        panel = lv.simulate(model, 20_000, seed=1)
        x = panel.data - panel.data.mean(axis=0)
        self.assert_matches_dense_fit([lv.autocov(panel, h) for h in range(8)], 6, x)
        want = reference_select_lag(panel, 6, criterion)
        request.getfixturevalue("no_lagged_fit")
        assert lv.select_lag(panel, 6, criterion) == want

    @pytest.mark.parametrize("criterion", ["aic", "fpe"])
    @pytest.mark.parametrize("make_panel", [dup_panel, cos_panel])
    def test_ill_conditioned_panels_fit_each_lag(self, make_panel, criterion, monkeypatch):
        panel = make_panel()
        want = reference_select_lag(panel, 4, criterion)
        fitted, fit = [], lv.estimate._lagged_fit

        def spy(gammas, l, x=None):
            fitted.append(l)
            return fit(gammas, l, x)

        monkeypatch.setattr(lv.estimate, "_lagged_fit", spy)
        assert lv.select_lag(panel, 4, criterion) == want
        assert fitted == [1, 2, 3, 4]

    def test_cos_panel_straddles_the_limit(self):
        gammas = [lv.autocov(cos_panel(), h) for h in range(3)]
        conds = [np.linalg.cond(lv.block_toeplitz(gammas[: l + 1])) for l in (1, 2)]
        assert conds[0] < lv.estimate.COND_LIMIT / 2 and conds[1] > lv.estimate.COND_LIMIT


class TestProp1Bound:
    def test_zero_at_top_lag(self):
        # zero only where the correlated latent noise vanishes (l = 1); for
        # l >= 2 the projection residue reaches the top lag as well
        assert lv.prop1_bound(5, 1, 0.5, 0.4, 0.3) == 0.0
        got = lv.prop1_bound(5, 3, 0.5, 0.4, 0.3)
        want = math.sqrt(5 * 2 * 0.5) * 0.4 * 0.3
        assert abs(got - want) < 1e-12

    def test_zero_without_latent_block(self):
        assert lv.prop1_bound(5, 3, 0.5, 0.0, 0.3) == 0.0

    def test_direct_formula(self):
        got = lv.prop1_bound(5, 3, 0.5, 0.4, 0.3)
        want = math.sqrt(5 * 2 * 0.5) * 0.4 * 0.3**1
        assert abs(got - want) < 1e-12


class TestBoundPriors:
    @pytest.mark.parametrize("a_min", [0.05, (0.05,), [0.0, 0.1], math.inf])
    def test_accepts_nonnegative_floors(self, a_min):
        priors = lv.BoundPriors(0.4, 0.3, 1.0, a_min)
        assert priors.a_min == tuple(np.atleast_1d(a_min).tolist())

    @pytest.mark.parametrize("a_min", [(), [], -0.1, (0.1, -1e-9), math.nan, (0.1, math.nan)])
    def test_rejects_unusable_floors(self, a_min):
        with pytest.raises(ValueError, match="a_min"):
            lv.BoundPriors(0.4, 0.3, 1.0, a_min)


    @pytest.mark.parametrize("rho12, sigma_z2_max", [(math.nan, 1.0), (math.inf, 1.0), (-0.1, 1.0),
                                                      (0.4, math.nan), (0.4, math.inf), (0.4, 0.0)])
    def test_rejects_unusable_norm_and_variance_bounds(self, rho12, sigma_z2_max):
        # a NaN or infinite bound made every support entry fail the gate
        with pytest.raises(ValueError, match="rho12 must lie in"):
            lv.BoundPriors(rho12, 0.3, sigma_z2_max)


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
                bound = lv.prop1_bound(model.n, l, m_val / l_val, rho12, rho22)
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
            bound = lv.prop1_bound(model.n, l, m_val / l_val, rho12, rho22)
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
