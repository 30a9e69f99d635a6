"""Output checks, computed apart from the package.

Each check returns a list of problems; an empty list means the output passed.
The census, autocovariances, Yule-Walker system, AIC and graph matching here
are the benchmark's own code: they share no function with ``latentvar``, so a
fault introduced in the package is not hidden by the same fault in its check.
"""

from __future__ import annotations

import math
from itertools import permutations
from statistics import NormalDist

import numpy as np

#: Relative residual allowed in the sample Yule-Walker equations B Gamma(l) = [gamma(1)..gamma(l+1)].
YW_RTOL = 1e-8

#: Relative slack when comparing AIC values, so float noise cannot flip a tie.
AIC_RTOL = 1e-9


# ---------------------------------------------------------------------------
# graphs as boolean blocks


def blocks_of(n: int, m: int, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(obs->obs, obs->latent, latent->latent, latent->obs) boolean blocks,
    each indexed [target, source]; nodes below n are observed."""
    a_oo = np.zeros((n, n), dtype=bool)
    a_ol = np.zeros((m, n), dtype=bool)
    a_ll = np.zeros((m, m), dtype=bool)
    a_lo = np.zeros((n, m), dtype=bool)
    for u, v in edges:
        if u < n and v < n:
            a_oo[v, u] = True
        elif u < n:
            a_ol[v - n, u] = True
        elif v < n:
            a_lo[v, u - n] = True
        else:
            a_ll[v - n, u - n] = True
    return a_oo, a_ol, a_ll, a_lo


def bool_mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.astype(np.int64) @ b.astype(np.int64)) > 0


def trim(supports) -> list[np.ndarray]:
    """Boolean copies with trailing all-zero matrices dropped (S_0 always kept)."""
    mats = [np.asarray(s).astype(bool) for s in supports]
    while len(mats) > 1 and not mats[-1].any():
        mats.pop()
    return mats


def same_supports(a, b) -> bool:
    a, b = trim(a), trim(b)
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def census(n: int, m: int, edges) -> list[np.ndarray] | None:
    """S_0..S_m by boolean matrix powers; None when the latent part has a cycle.

    S_k[j, i] is set iff a path i -> ... -> j with k latent interior nodes
    exists; S_0 is the observed adjacency.
    """
    a_oo, a_ol, a_ll, a_lo = blocks_of(n, m, edges)
    power = a_ll
    for _ in range(m):
        power = bool_mm(a_ll, power)
    if m and power.any():  # a_ll^(m+1) != 0 means a cycle
        return None
    supports = [a_oo]
    reach = a_ol
    for _ in range(m):
        supports.append(bool_mm(a_lo, reach))
        reach = bool_mm(a_ll, reach)
    return trim(supports)


def path_counts(n: int, m: int, edges) -> list[np.ndarray]:
    """Number of latent paths per (target, source) and length, lengths >= 2."""
    _, a_ol, a_ll, a_lo = (b.astype(np.int64) for b in blocks_of(n, m, edges))
    out, reach = [], a_ol
    for _ in range(m):
        out.append(a_lo @ reach)
        reach = a_ll @ reach
    return out


def same_up_to_latents(n: int, m: int, edges_a, edges_b) -> bool:
    """Whether some relabelling of the m latent nodes maps edges_a onto edges_b."""
    edges_a, edges_b = set(edges_a), set(edges_b)
    if len(edges_a) != len(edges_b):
        return False
    for perm in permutations(range(m)):
        f = {n + z: n + perm[z] for z in range(m)}
        if {(f.get(u, u), f.get(v, v)) for u, v in edges_a} == edges_b:
            return True
    return False


def same_network_sets(n: int, got, want) -> bool:
    """Equal as sets of networks up to latent relabelling (a bijection)."""
    if len(got) != len(want):
        return False
    unused = list(want)
    for g in got:
        match = next(
            (
                h
                for h in unused
                if h.latent_count == g.latent_count
                and same_up_to_latents(n, g.latent_count, g.edges, h.edges)
            ),
            None,
        )
        if match is None:
            return False
        unused.remove(match)
    return True


def tree_contract(n: int, m: int, true_edges, got_m: int, got_edges) -> bool:
    """Tree-recovery contract: under some latent bijection the latent->latent
    and latent->observed edges are equal and observed->latent edges contained."""
    if got_m != m:
        return False
    got_edges = set(got_edges)
    t22 = {(u, v) for u, v in true_edges if u >= n and v >= n}
    t12 = {(u, v) for u, v in true_edges if u >= n > v}
    t21 = {(u, v) for u, v in true_edges if u < n <= v}
    r22 = {(u, v) for u, v in got_edges if u >= n and v >= n}
    r12 = {(u, v) for u, v in got_edges if u >= n > v}
    r21 = {(u, v) for u, v in got_edges if u < n <= v}
    for perm in permutations(range(m)):
        f = {n + z: n + perm[z] for z in range(m)}
        if (
            {(f[a], f[b]) for a, b in t22} == r22
            and {(f[a], b) for a, b in t12} == r12
            and {(a, f[b]) for a, b in t21} <= r21
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# estimation


def sample_autocovs(x: np.ndarray, h_max: int) -> list[np.ndarray]:
    """gamma(0..h_max) with the 1/T normalisation, after mean removal."""
    t_len = x.shape[0]
    xc = x - x.mean(axis=0)
    return [(xc[h:].T @ xc[: t_len - h]) / t_len for h in range(h_max + 1)]


def toeplitz(gammas: list[np.ndarray], l: int) -> np.ndarray:
    """Covariance of [X(t); ..; X(t-l)]: block (r, c) is gamma(c-r), or gamma(r-c)^T below."""
    rows = []
    for r in range(l + 1):
        rows.append([gammas[c - r] if c >= r else gammas[r - c].T for c in range(l + 1)])
    return np.block(rows)


def yw_coefficients(gammas: list[np.ndarray], l: int) -> np.ndarray:
    rhs = np.hstack(gammas[1 : l + 2])
    return np.linalg.solve(toeplitz(gammas, l), rhs.T).T


def aic_scores(x: np.ndarray, gammas: list[np.ndarray], l_max: int) -> list[float]:
    """AIC(l) = ln det Sigma(l) + 2 l n^2 / T for l = 1..l_max, Sigma(l) the
    covariance of the one-step residuals of the Yule-Walker fit."""
    t_len, n = x.shape
    xc = x - x.mean(axis=0)
    scores = []
    for l in range(1, l_max + 1):
        coeffs = yw_coefficients(gammas, l)
        n_eff = t_len - l - 1
        resid = xc[l + 1 :].copy()
        for k in range(l + 1):
            resid -= xc[l - k : l - k + n_eff] @ coeffs[:, k * n : (k + 1) * n].T
        sign, logdet = np.linalg.slogdet(resid.T @ resid / n_eff)
        scores.append((logdet if sign > 0 else -math.inf) + 2.0 * l * n * n / t_len)
    return scores


def check_estimate(x: np.ndarray, lag: int, l_max: int, alpha: float, b_hat, stderr, supports) -> list[str]:
    """Fit of one panel: Yule-Walker residual, z-test supports, AIC-minimal lag."""
    problems = []
    gammas = sample_autocovs(x, l_max + 1)
    if len(b_hat) != lag + 1:
        problems.append(f"{len(b_hat)} coefficient blocks for lag {lag}")
        return problems
    coeffs = np.hstack(b_hat)
    rhs = np.hstack(gammas[1 : lag + 2])
    resid = np.abs(coeffs @ toeplitz(gammas, lag) - rhs).max()
    if not resid <= YW_RTOL * np.abs(rhs).max():
        problems.append(f"Yule-Walker residual {resid:.3g} above {YW_RTOL:g} relative")
    z_crit = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    expected = [np.abs(b) > z_crit * se for b, se in zip(b_hat, stderr)]
    if not same_supports(expected, supports):
        problems.append("supports differ from the z-test on the reported coefficients")
    scores = aic_scores(x, gammas, l_max)
    best = min(scores)
    if not scores[lag - 1] <= best + AIC_RTOL * (1.0 + abs(best)):
        problems.append(f"lag {lag} has AIC {scores[lag - 1]:.9g}, the minimum is {best:.9g}")
    return problems
