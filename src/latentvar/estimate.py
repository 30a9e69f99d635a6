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
    ``rho22`` (< 1) that of the latent block and ``sigma_z2_max`` the latent
    noise variance.
    """

    rho12: float
    rho22: float
    sigma_z2_max: float

    def __post_init__(self):
        if not 0.0 < self.rho22 < 1.0:
            raise ValueError("rho22 must lie in (0, 1)")
        if not (0 <= self.rho12 < math.inf and 0 < self.sigma_z2_max < math.inf):  # NaN fails both
            raise ValueError("rho12 must lie in [0, inf) and sigma_z2_max in (0, inf)")


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


def block_toeplitz(gammas: Sequence[np.ndarray]) -> np.ndarray:
    """Lagged covariance of the stacked vector [X(t); ...; X(t-l)], given
    gamma(0..l); l is len(gammas) - 1.

    Block (r, c) is E[X(t-r) X(t-c)^T] = gamma(c - r) above the diagonal and
    gamma(r - c)^T below it, which makes the result symmetric by construction.
    """
    l = len(gammas) - 1
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


def _edge_rows(x: np.ndarray, k: int) -> np.ndarray:
    """The 2k zero-padded rows [x_u; ..; x_{u-k}], u = 0..k-1 and T..T+k-1, of
    the centred data x: the rows of the lagged moments that a lag-(k-1)
    regression has no sample for, one n(k+1) stacked row each."""
    n = x.shape[1]
    edge = np.vstack([np.zeros((k, n)), x[:k], x[-k:], np.zeros((k, n))])
    return np.hstack([edge[np.r_[k : 2 * k, 3 * k : 4 * k] - j] for j in range(k + 1)])


def _lagged_fit(
    gammas: Sequence[np.ndarray], l: int, x: np.ndarray | None = None
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """(Gamma(l), [B_0 .. B_l], Sigma) of the lag-l Yule-Walker fit, read off
    G = block_toeplitz(gamma(0..l+1)), the covariance of [X(t+1); ..; X(t-l)]:
    Gamma(l) = G[n:, n:], ridged when ill-conditioned, B = G[:n, n:] Gamma(l)^-1
    and Sigma = [I, -B] G [I, -B]^T.  Given the centred data x, G becomes
    (T G - E^T E) / (T - l - 1), E the zero-padded rows [x_u; ..; x_{u-l-1}]
    for u = 0..l and T..T+l: the Gram of the rows the fit regresses on, so Sigma
    is the covariance of its one-step-ahead residuals (Lütkepohl 2005, sec. 3.2).
    """
    n = gammas[0].shape[0]
    g = block_toeplitz(gammas[: l + 2])
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
        e = _edge_rows(x, k)
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


def _whittle(gammas: Sequence[np.ndarray], l_top: int, x: np.ndarray):
    """Yield ([B_0 .. B_l] side by side, Sigma) for l = 0..l_top, what
    _lagged_fit(gammas, l, x) gives without its Gamma(l), by Whittle's
    recursion over gamma(0..l_top+1) (P. Whittle, Biometrika 50, 1963);
    Gamma(l_top) must be positive definite.

    A = [A_1 .. A_p] predicts X(t) from X(t-1..t-p) and D = [D_p .. D_1]
    X(t-p-1) from the same p values, with error covariances V and U.  Their
    errors' cross covariance delta = gamma(p+1) - A [gamma(p); ..; gamma(1)]
    takes order p to p + 1: A gains delta U^-1 as its last block, D gains
    delta^T V^-1 as its first, and each loses that gain times the other's
    blocks in reverse.  Each order costs two n x n solves.  The lag-l fit is
    order p = l + 1, with B = A and V the Toeplitz residual covariance
    w G w^T, w = [I, -B]; Sigma is _lagged_fit's correction of V by the
    centred data x, (T V - (E w^T)^T (E w^T)) / (T - l - 1), E its boundary
    rows (_edge_rows).
    """
    n = gammas[0].shape[0]
    down = np.vstack(gammas[l_top:0:-1])  # [gamma(l_top); ..; gamma(1)]
    fwd = bwd = np.empty((n, 0))
    v = u = gammas[0]
    for k in range(1, l_top + 2):  # the order reached, l + 1
        delta = gammas[k] - fwd @ down[(l_top + 1 - k) * n :]
        k_f = np.linalg.solve(u, delta.T).T  # delta U^-1; U, V are symmetric
        k_b = np.linalg.solve(v, delta).T  # delta^T V^-1
        fwd, bwd = np.hstack([fwd - k_f @ bwd, k_f]), np.hstack([k_b, bwd - k_b @ fwd])
        v, u = v - k_f @ delta.T, u - k_b @ delta
        ew = _edge_rows(x, k) @ np.hstack([np.eye(n), -fwd]).T
        yield fwd, (x.shape[0] * v - ew.T @ ew) / (x.shape[0] - k)


def select_lag(panel: TimeSeriesPanel, l_max: int, criterion: str = "aic") -> int:
    """Pick the fit lag in 1..min(l_max, (T - 1) // 2n), the lags with
    l n < T/2, by AIC or FPE; ties go to the smaller lag.

    InsufficientData is raised only when no lag is left, at T <= 2n.
    AIC(l) = ln det Sigma(l) + 2 l n^2 / T and
    ln FPE(l) = ln det Sigma(l) + n ln((T + n l + 1) / (T - n l - 1)), with
    Sigma(l) the residual covariance of the lag-l fit (fit_coefficients'
    residual_cov); ln FPE has FPE's argmin and does not underflow or overflow
    with the data's units.

    The autocovariances are computed once and shared by every lag, and one
    eigvalsh of Gamma(l_top) picks how the lags are fitted.  Each Gamma(l) is
    a leading principal submatrix of Gamma(l_top), so by Cauchy interlacing
    none has a larger condition number.  Below COND_LIMIT / 2, a margin far
    wider than eigvalsh's rounding there, no lag would get the ridge, and
    Whittle's recursion (_whittle) gives every lag's Sigma(l) from n x n
    solves.  Otherwise each lag is fitted on its own by _lagged_fit, ridge
    and SingularCovariance included.  fit_coefficients still solves Gamma(l)
    densely, so the reported fit does not depend on the path taken here.
    """
    if criterion not in ("aic", "fpe"):
        raise ValueError(f"criterion must be 'aic' or 'fpe', got {criterion!r}")
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    t_len, n = panel.t_len, panel.n
    l_top = min(l_max, (t_len - 1) // (2 * n))
    if l_top < 1:
        raise InsufficientData(f"panel too short to select any lag: T = {t_len} <= 2n = {2 * n}")
    x = _centered(panel)
    gammas = [_autocov_at(x, h) for h in range(l_top + 2)]
    if _cond(np.linalg.eigvalsh(block_toeplitz(gammas[: l_top + 1]))) < COND_LIMIT / 2:
        sigmas = [sigma for _, sigma in _whittle(gammas, l_top, x)][1:]
    else:
        sigmas = [_lagged_fit(gammas, l, x)[2] for l in range(1, l_top + 1)]
    best_l, best_score = 1, math.inf
    for l, sigma in enumerate(sigmas, start=1):
        sign, logdet = np.linalg.slogdet(sigma)
        if sign <= 0:
            logdet = -math.inf
        if criterion == "aic":
            score = logdet + 2.0 * l * n * n / t_len
        else:
            score = logdet + n * math.log((t_len + n * l + 1) / (t_len - n * l - 1))
        if score < best_score:
            best_l, best_score = l, score
    return best_l


def prop1_bound(n: int, l: int, m_over_l: float, rho12: float, rho22: float) -> float:
    """Analytic bound on the induced 1-norm gap between B_k and the true A_k*,
    one value for every lag block k = 0..l: sqrt(n (l-1) M/L) * rho12 * rho22.

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
    if not 0.0 <= rho22 < 1.0:
        raise ValueError("rho22 must lie in [0, 1)")
    return math.sqrt(n * max(l - 1, 0) * m_over_l) * rho12 * rho22


def extract_support(
    report: EstimationReport,
    alpha: float = 0.05,
    priors: BoundPriors | None = None,
) -> LinearMeasurements:
    """Threshold the fitted blocks into 0/1 supports.

    Entry (j, i) of S_k is set iff the two-sided z-test at level alpha rejects
    zero, and, when priors are supplied, |B_k[j, i]| additionally exceeds the
    analytic bound (prop1_bound).  That bound covers the whole stack B - A, so
    one value gates every block k = 0..l, the top one included, and the report
    lists it once per block.  L in M/L is lambda_min of
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
    bound = None
    if priors is not None:
        l_hat = float(np.min(np.linalg.eigvalsh(report.gamma0)))
        if l_hat <= 0:
            raise SingularCovariance(
                f"gamma(0) has lambda_min = {l_hat!r}; the prior bound needs it positive"
            )
        m_over_l = priors.sigma_z2_max / l_hat
        bound = prop1_bound(report.n, report.lag, m_over_l, priors.rho12, priors.rho22)
    supports = []
    for b, se in zip(report.b_hat, report.entry_stderr):
        mask = np.abs(b) > z_crit * se
        if bound is not None:
            mask &= np.abs(b) > bound
        supports.append(mask.astype(np.uint8))
    meas = LinearMeasurements(report.n, supports, report.names)
    report.alpha = alpha
    report.bounds = None if bound is None else (bound,) * (report.lag + 1)
    report.supports = meas
    return meas
