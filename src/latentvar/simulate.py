"""Random model generation, trajectory simulation, and population covariance
quantities for the estimation error bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import NonStationary
from .model import BlockTransitionMatrix, LatentVarModel, default_names, name_tuple

#: Transient samples discarded by default before a trajectory is returned.
DEFAULT_BURN_IN = 500

#: Spectral radius that generated models are rescaled to when unstable.
STABLE_RADIUS = 0.95

#: Largest entry of the last doubling increment in population_covariance.
LYAPUNOV_TOL = 1e-12


@dataclass(frozen=True)
class DrgConfig:
    """Parameters of the directed-random-graph model family.

    ``p`` is the link probability in both directions between observed and
    latent nodes, ``q`` the latent-to-latent link probability (drawn below a
    random topological order, so the latent block is always acyclic), and
    ``p_obs`` the observed-to-observed link probability, defaulting to ``p``.
    Nonzero weights are uniform on [-a, a].
    """

    n: int
    m: int
    p: float
    q: float
    p_obs: float | None = None
    a: float = 0.1
    sigma_x2: float = 1.0
    sigma_z2: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise ValueError("node counts must be non-negative")
        for name in ("p", "q"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.p_obs is not None and not 0.0 <= self.p_obs <= 1.0:
            raise ValueError("p_obs must lie in [0, 1]")
        if not 0 < self.a < np.inf:  # NaN fails too
            raise ValueError(f"weight half-range a must be positive and finite, got {self.a}")
        if not (0 < self.sigma_x2 < np.inf and 0 < self.sigma_z2 < np.inf):
            raise ValueError("noise variances must be positive and finite")

    @property
    def obs_link_prob(self) -> float:
        return self.p if self.p_obs is None else self.p_obs


@dataclass(frozen=True)
class TimeSeriesPanel:
    """Observed samples, rows time-ascending, one column per named series."""

    names: tuple[str, ...]
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise ValueError("data must be a T x n matrix")
        if data.shape[0] < 1:
            raise ValueError("panel needs at least one sample")
        if data.shape[1] < 1:
            raise ValueError("panel needs at least one series")
        names = name_tuple(self.names, "names")
        if data.shape[1] != len(names):
            raise ValueError("number of columns must match names")
        if not np.isfinite(data).all():
            raise ValueError("panel entries must be finite")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "data", data)

    @property
    def t_len(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


def gen_drg(cfg: DrgConfig) -> LatentVarModel:
    """Draw one DRG(p, q) model, deterministically from cfg.seed.

    Latent-to-latent links are only sampled below a random topological order,
    which makes a22 nilpotent by construction.  If the assembled matrix has
    spectral radius >= 1, every block is rescaled by STABLE_RADIUS / radius.
    """
    rng = np.random.default_rng(cfg.seed)
    n, m = cfg.n, cfg.m
    mask11 = rng.random((n, n)) < cfg.obs_link_prob
    mask21 = rng.random((m, n)) < cfg.p  # observed -> latent
    mask12 = rng.random((n, m)) < cfg.p  # latent -> observed
    order = rng.permutation(m)
    pos = np.empty(m, dtype=int)
    pos[order] = np.arange(m)
    # edge src -> dst allowed only when src precedes dst in the random order
    allowed = pos[None, :] < pos[:, None]  # [dst, src]
    mask22 = (rng.random((m, m)) < cfg.q) & allowed

    def draw(mask):
        return np.where(mask, rng.uniform(-cfg.a, cfg.a, size=mask.shape), 0.0)

    blocks = BlockTransitionMatrix(draw(mask11), draw(mask12), draw(mask21), draw(mask22))
    radius = LatentVarModel(blocks, cfg.sigma_x2, cfg.sigma_z2).spectral_radius()
    if radius >= 1.0:
        scale = STABLE_RADIUS / radius
        blocks = BlockTransitionMatrix(
            blocks.a11 * scale, blocks.a12 * scale, blocks.a21 * scale, blocks.a22 * scale
        )
    return LatentVarModel(blocks, cfg.sigma_x2, cfg.sigma_z2)


def simulate(
    model: LatentVarModel,
    t_len: int,
    burn_in: int = DEFAULT_BURN_IN,
    seed: int = 0,
) -> TimeSeriesPanel:
    """Run the VAR recursion x_t = A x_{t-1} + e_t with Gaussian noise e_t.

    The joint state starts at zero; the first ``burn_in`` samples are dropped
    so the A22^t transient of the latent block has died out, and the observed
    part of the rest is returned, named x1..xn (default_names).

    The N = burn_in + t_len steps are summed in c = N // k chunks of
    k = isqrt(N) samples.  Every chunk is first run from a zero state at
    once, in place in the noise array; the chunk-end states are carried
    forward with A^k; then A^(j+1) times the state before its chunk is added
    to sample j of every chunk in one matrix product.  Leftover samples take
    one step each.  That is ~3*N*d^2 flops (d = n + m) in k + c Python
    steps, not N.  It is the exact recursion with its sums taken in another
    order, so the panel is not bit-identical to stepping it one sample at a
    time: entries differ in the last bits.
    """
    if t_len < 1:
        raise ValueError("t_len must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    if not model.stationary:
        raise NonStationary(f"spectral radius {model.spectral_radius():.4f} >= 1")
    n, m = model.n, model.m
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((burn_in + t_len, n + m))
    noise *= np.concatenate(
        [np.full(n, np.sqrt(model.sigma_x2)), np.full(m, np.sqrt(model.sigma_z2))]
    )
    out = _observed_path(model.blocks.full(), noise, n)
    return TimeSeriesPanel(default_names(n), out[burn_in:])


def _observed_path(full: np.ndarray, noise: np.ndarray, n: int) -> np.ndarray:
    """The first n coordinates of x_t = full @ x_{t-1} + noise[t] from x_{-1} = 0,
    summed in chunks as ``simulate`` describes; ``noise`` is overwritten."""
    total, d = noise.shape
    k = isqrt(total)
    c = total // k
    chunks = noise[: c * k].reshape(c, k, d)  # a view: row j becomes the local state
    rows = np.empty((k, n, d))  # rows[j]: the observed rows of full^(j+1)
    rows[0] = full[:n]
    for j in range(1, k):
        chunks[:, j] += chunks[:, j - 1] @ full.T
        np.matmul(rows[j - 1], full, out=rows[j])
    carry = np.zeros((c + 1, d))  # carry[i]: the state before chunk i
    step_k = np.linalg.matrix_power(full, k).T
    for i in range(c):
        carry[i + 1] = chunks[i, -1] + carry[i] @ step_k
    out = np.empty((total, n))
    head = out[: c * k].reshape(c, k, n)
    np.matmul(carry[:c], rows.reshape(k * n, d).T, out=head.reshape(c, k * n))
    head += chunks[..., :n]
    state = carry[c]
    for t in range(c * k, total):
        state = full @ state + noise[t]
        out[t] = state[:n]
    return out


def population_covariance(model: LatentVarModel) -> np.ndarray:
    """Stationary covariance of the joint state.

    Solves Gamma = A Gamma A^T + Sigma by Smith's (1968) doubling, S <- S +
    A S A^T then A <- A^2, so S sums 2^k terms A^j Sigma A^jT after k steps;
    it stops once an increment's largest entry is below LYAPUNOV_TOL.
    """
    if not model.stationary:
        raise NonStationary(f"spectral radius {model.spectral_radius():.4f} >= 1")
    full = model.blocks.full()
    gamma = model.noise_cov()
    for _ in range(64):  # up to 2^64 terms of the series
        step = full @ gamma @ full.T
        gamma = gamma + step
        if not step.size or np.abs(step).max() < LYAPUNOV_TOL:
            return gamma
        full = full @ full
    raise NonStationary("Lyapunov iteration failed to converge")


def population_autocov(model: LatentVarModel, h: int) -> np.ndarray:
    """Exact lag-h autocovariance of the observed coordinates."""
    if h < 0:
        raise ValueError("h must be >= 0")
    gamma = population_covariance(model)
    full = model.blocks.full()
    lagged = np.linalg.matrix_power(full, h) @ gamma
    return lagged[: model.n, : model.n]


def compute_ml_ratio(model: LatentVarModel) -> tuple[float, float]:
    """(M, L): the latent noise power and the observed covariance floor.

    M is the largest eigenvalue of the latent noise covariance (sigma_z2 for
    the diagonal noise used here); L the smallest eigenvalue of the observed
    block of the stationary covariance.  M/L scales the coefficient error
    bound and shrinks as sigma_x2/sigma_z2 grows.
    """
    gamma = population_covariance(model)
    obs = gamma[: model.n, : model.n]
    l_val = float(np.min(np.linalg.eigvalsh(obs)))
    return float(model.sigma_z2), l_val
