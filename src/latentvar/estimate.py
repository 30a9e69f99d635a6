"""Least-squares estimation of the lagged coefficient matrix from an observed
panel, entry significance tests, and the analytic error bounds used to gate
support extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .errors import InsufficientData, SingularCovariance
from .model import LinearMeasurements
from .simulate import TimeSeriesPanel

#: Condition number above which the lagged covariance gets a ridge.
COND_LIMIT = 1e12

#: Ridge strength relative to the mean diagonal of the lagged covariance.
RIDGE_FACTOR = 1e-8


@dataclass(frozen=True)
class BoundPriors:
    """Prior bounds needed to evaluate the coefficient error bound on data.

    ``rho12`` bounds the spectral norm of the latent-to-observed block,
    ``rho22`` (< 1) that of the latent block, ``sigma_z2_max`` the latent
    noise variance, and ``a_min`` the smallest nonzero path-coefficient
    magnitude per lag index (a single value broadcasts to all lags).
    """

    rho12: float
    rho22: float
    sigma_z2_max: float
    a_min: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        if not 0.0 < self.rho22 < 1.0:
            raise ValueError("rho22 must lie in (0, 1)")
        if not (0 <= self.rho12 < math.inf and 0 < self.sigma_z2_max < math.inf):  # NaN fails both
            raise ValueError("rho12 must lie in [0, inf) and sigma_z2_max in (0, inf)")
        a_min = tuple(float(v) for v in np.atleast_1d(self.a_min))
        if not a_min or not all(v >= 0 for v in a_min):  # NaN fails v >= 0
            raise ValueError(f"a_min must hold one or more values >= 0, got {a_min}")
        object.__setattr__(self, "a_min", a_min)

    def a_min_at(self, k: int) -> float:
        return self.a_min[min(k, len(self.a_min) - 1)]


@dataclass
class EstimationReport:
    """Fit artifacts: coefficient blocks B_0..B_l plus everything the support
    test needs (standard errors, residual covariance, lag-0 autocovariance).

    ``alpha``, ``bounds`` and ``supports`` are filled in by extract_support.
    """

    lag: int
    names: tuple[str, ...]
    nobs: int
    b_hat: tuple[np.ndarray, ...]
    residual_cov: np.ndarray
    entry_stderr: tuple[np.ndarray, ...]
    gamma0: np.ndarray
    alpha: float | None = None
    bounds: tuple[float, ...] | None = None
    supports: LinearMeasurements | None = None

    @property
    def n(self) -> int:
        return len(self.names)


def _centered(panel: TimeSeriesPanel) -> np.ndarray:
    return panel.data - panel.data.mean(axis=0)


def _autocov_at(x: np.ndarray, h: int) -> np.ndarray:
    """Biased (1/T) autocovariance at lag h of the centered data x."""
    t_len = x.shape[0]
    return (x[h:].T @ x[: t_len - h]) / t_len


def autocov(panel: TimeSeriesPanel, h: int) -> np.ndarray:
    """Biased (1/T) sample autocovariance at lag h, after mean removal."""
    t_len = panel.t_len
    if h < 0:
        raise ValueError("h must be >= 0")
    if t_len <= h:
        raise InsufficientData(f"need T > {h}, got T = {t_len}")
    return _autocov_at(_centered(panel), h)


def block_toeplitz(gammas: Sequence[np.ndarray], l: int) -> np.ndarray:
    """Lagged covariance of the stacked vector [X(t); ...; X(t-l)].

    Block (r, c) is E[X(t-r) X(t-c)^T] = gamma(c - r) above the diagonal and
    gamma(r - c)^T below it, which makes the result symmetric by construction.
    """
    if len(gammas) != l + 1:
        raise ValueError(f"need gammas 0..{l}, got {len(gammas)} matrices")
    n = gammas[0].shape[0]
    out = np.empty((n * (l + 1), n * (l + 1)))
    for r in range(l + 1):
        for c in range(l + 1):
            block = gammas[c - r] if c >= r else gammas[r - c].T
            out[r * n : (r + 1) * n, c * n : (c + 1) * n] = block
    return out


def _cond(lam: np.ndarray) -> float:
    """Condition number of a symmetric matrix from its ascending eigenvalues;
    inf unless it is positive definite (Python floats overflow to inf silently)."""
    return float(lam[-1]) / float(lam[0]) if lam[0] > 0 else math.inf


def _lagged_fit(
    gammas: Sequence[np.ndarray], l: int, x: np.ndarray | None = None
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """(Gamma(l), [B_0 .. B_l], Sigma) of the lag-l Yule-Walker fit, read off
    G = block_toeplitz(gamma(0..l+1), l+1), the covariance of [X(t+1); ..; X(t-l)]:
    Gamma(l) = G[n:, n:], ridged when ill-conditioned, B = G[:n, n:] Gamma(l)^-1
    and Sigma = [I, -B] G [I, -B]^T.  Given the centred data x, G becomes
    (T G - E^T E) / (T - l - 1), E the zero-padded rows [x_u; ..; x_{u-l-1}]
    for u = 0..l and T..T+l: the Gram of the rows the fit regresses on, so Sigma
    is the covariance of its one-step-ahead residuals (Lütkepohl 2005, sec. 3.2).
    """
    n = gammas[0].shape[0]
    g = block_toeplitz(list(gammas[: l + 2]), l + 1)
    big = g[n:, n:]
    lam = np.linalg.eigvalsh(big)  # ascending; the ridge shifts each by eps
    if _cond(lam) >= COND_LIMIT:
        eps = RIDGE_FACTOR * np.trace(big) / big.shape[0]
        big = big + eps * np.eye(big.shape[0])
        if (cond := _cond(lam + eps)) >= COND_LIMIT:
            raise SingularCovariance(f"lagged covariance condition number {cond:.3g} after ridge")
    coeffs = np.linalg.solve(big, g[n:, :n]).T
    if x is not None:
        k, t_len = l + 1, x.shape[0]
        edge = np.vstack([np.zeros((k, n)), x[:k], x[-k:], np.zeros((k, n))])
        e = np.hstack([edge[np.r_[k : 2 * k, 3 * k : 4 * k] - j] for j in range(k + 1)])
        g = (t_len * g - e.T @ e) / (t_len - k)
    w = np.hstack([np.eye(n), -coeffs])
    return big, [coeffs[:, j * n : (j + 1) * n] for j in range(l + 1)], w @ g @ w.T


def fit_from_autocovariances(
    gammas: Sequence[np.ndarray], l: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Moment-level fit: blocks of [gamma(1)..gamma(l+1)] Gamma(l)^-1.

    Takes gamma(0..l+1) and returns (B_0..B_l, residual covariance), all at
    the population level.  Useful on exact autocovariances, where the result
    matches the probability-limit coefficients.
    """
    return _lagged_fit(gammas, l)[1:]


def fit_coefficients(panel: TimeSeriesPanel, l: int) -> EstimationReport:
    """Fit the lag-l coefficient matrix of the observed process.

    B-hat comes from the sample Yule-Walker relation
    [gamma(1)..gamma(l+1)] Gamma(l)^-1; the residual covariance, that of the
    one-step-ahead residuals, from the lagged moments; entry standard errors
    from the diagonal of (Gamma(l)^-1 kron Sigma-hat) / T.
    """
    if l < 0:
        raise ValueError("lag must be >= 0")
    t_len, n = panel.t_len, panel.n
    if t_len <= l + 1:
        raise InsufficientData(f"need T > l + 1 = {l + 1}, got T = {t_len}")
    x = _centered(panel)
    gammas = [_autocov_at(x, h) for h in range(l + 2)]
    big, blocks, sigma = _lagged_fit(gammas, l, x)

    inv_big = np.linalg.inv(big)
    col_var = np.diag(inv_big)  # variance factor per stacked regressor
    stderr = tuple(
        np.sqrt(np.outer(np.diag(sigma), col_var[k * n : (k + 1) * n]) / t_len)
        for k in range(l + 1)
    )
    return EstimationReport(
        lag=l,
        names=panel.names,
        nobs=t_len,
        b_hat=tuple(blocks),
        residual_cov=sigma,
        entry_stderr=stderr,
        gamma0=gammas[0],
    )


def select_lag(panel: TimeSeriesPanel, l_max: int, criterion: str = "aic") -> int:
    """Pick the fit lag in 1..l_max by AIC or FPE; ties go to the smaller lag.

    AIC(l) = ln det Sigma(l) + 2 l n^2 / T and
    FPE(l) = ((T + n l + 1) / (T - n l - 1))^n det Sigma(l), with Sigma(l)
    the residual covariance of the lag-l fit (fit_coefficients' residual_cov).
    The autocovariances gamma(0..l_max+1) are computed once and shared by
    every lag.
    """
    crit = criterion.lower()
    if crit not in ("aic", "fpe"):
        raise ValueError(f"criterion must be 'aic' or 'fpe', got {criterion!r}")
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    t_len, n = panel.t_len, panel.n
    if l_max * n >= t_len / 2:
        raise InsufficientData(f"l_max * n = {l_max * n} must stay below T/2 = {t_len / 2}")
    x = _centered(panel)
    gammas = [_autocov_at(x, h) for h in range(l_max + 2)]
    best_l, best_score = 1, math.inf
    for l in range(1, l_max + 1):
        sigma = _lagged_fit(gammas, l, x)[2]
        sign, logdet = np.linalg.slogdet(sigma)
        if sign <= 0:
            logdet = -math.inf
        if crit == "aic":
            score = logdet + 2.0 * l * n * n / t_len
        else:
            ratio = (t_len + n * l + 1) / (t_len - n * l - 1)
            score = ratio**n * sign * math.exp(logdet)
        if score < best_score:
            best_l, best_score = l, score
    return best_l


def prop1_bound(n: int, l: int, k: int, m_over_l: float, rho12: float, rho22: float) -> float:
    """Analytic bound on the induced 1-norm gap between B_k and the true A_k*.

    sqrt(n (l-1) M/L) * rho12 * rho22, the same value at every k <= l.

    Unrolling the nilpotent latent block leaves, in the lag-l regression of
    X(t+1) on Y = [X(t); ...; X(t-l)], the noise e = w1(t+1) + sum_{j=0}^{l-1}
    A12 A22^j w2(t-j).  Only e_c = sum_{j=1}^{l-1} A12 A22^j w2(t-j) is
    correlated with Y, so the population fit gives B - A = E[e_c Y^T] Gamma(l)^-1
    with Gamma(l) the covariance of Y.  Gamma(l)^-1 is not block-diagonal, so
    the residue reaches every lag block, the top one included.  As a
    projection, E[e_c Y^T] Gamma(l)^-1 E[Y e_c^T] <= Cov(e_c), hence
    ||B - A||_2 <= sqrt(||Cov e_c|| / L) <= sqrt((l-1) M / L) * rho12 * rho22,
    where M bounds the latent noise variance and L = lambda_min(Gamma(l)).
    Each B_k - A_k, k = 0..l, is a column block of B - A, and sqrt(n) turns
    its spectral norm into a bound on its induced 1-norm.  The bound is zero
    only when e_c vanishes, that is, when l <= 1 or rho12 = 0 (rho22 = 0
    means A22 = 0, hence l = 1 for the true model).

    The rigorous L is lambda_min of the stacked Gamma(l).  compute_ml_ratio
    and extract_support pass lambda_min of gamma(0) instead, which is at
    least as large, so the value they get is no larger than the rigorous one.
    """
    if k > l:
        raise ValueError("bound is only defined for k <= l")
    if not 0.0 <= rho22 < 1.0:
        raise ValueError("rho22 must lie in [0, 1)")
    return math.sqrt(n * max(l - 1, 0) * m_over_l) * rho12 * rho22


def recoverability_check(priors: BoundPriors, n: int, l: int, k: int, l_hat: float) -> bool:
    """Whether the support of the lag-k block is recoverable under the priors.

    True iff 2 * prop1_bound(n, l, k, sigma_z2_max / l_hat, rho12, rho22)
    <= a_min,k: a gap of at most the bound then cannot hide a nonzero entry
    or fake a zero one.  Squared, this reads
    4 n (l-1) rho12^2 rho22^2 / a_min,k^2 <= l_hat / sigma_z2_max.  Where the
    bound vanishes (l <= 1 or rho12 = 0) every lag passes; otherwise a
    nonpositive l_hat leaves the bound unbounded and the check fails.
    """
    a_min = priors.a_min_at(k)
    if a_min == math.inf or l <= 1 or priors.rho12 == 0:
        return True
    if l_hat <= 0:
        return False
    bound = prop1_bound(n, l, k, priors.sigma_z2_max / l_hat, priors.rho12, priors.rho22)
    return 2.0 * bound <= a_min


def extract_support(
    report: EstimationReport,
    alpha: float = 0.05,
    priors: BoundPriors | None = None,
) -> LinearMeasurements:
    """Threshold the fitted blocks into 0/1 supports.

    Entry (j, i) of S_k is set iff the two-sided z-test at level alpha rejects
    zero, and, when priors are supplied, |B_k[j, i]| additionally exceeds the
    analytic bound (prop1_bound) at every block k = 0..l, the top one
    included, since the bound covers the whole stack B - A; it has the same
    value at each of them.  L in M/L is lambda_min of
    the sample gamma(0), which is at least lambda_min of the stacked Gamma(l)
    that the derivation calls for; switching to Gamma(l) would raise the
    bound and drop more entries on data.  The decisions are recorded on the report
    (alpha, bounds, supports) and the trimmed measurements returned.  With
    priors, a gamma(0) whose lambda_min is not positive (a constant series,
    say) leaves M/L undefined and raises SingularCovariance.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    z_crit = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    l = report.lag
    n = report.n
    bounds: list[float] = []
    if priors is not None:
        l_hat = float(np.min(np.linalg.eigvalsh(report.gamma0)))
        if l_hat <= 0:
            raise SingularCovariance(
                f"gamma(0) has lambda_min = {l_hat!r}; the prior bound needs it positive"
            )
        m_over_l = priors.sigma_z2_max / l_hat
        bounds = [
            prop1_bound(n, l, k, m_over_l, priors.rho12, priors.rho22) for k in range(l + 1)
        ]
    supports = []
    for k, (b, se) in enumerate(zip(report.b_hat, report.entry_stderr)):
        mask = np.abs(b) > z_crit * se
        if priors is not None:
            mask &= np.abs(b) > bounds[k]
        supports.append(mask.astype(np.uint8))
    meas = LinearMeasurements(n, supports, report.names)
    report.alpha = alpha
    report.bounds = tuple(bounds) if priors is not None else None
    report.supports = meas
    return meas
