"""Core data model: block VAR transition matrices, latent-path measurements,
unobserved networks, and canonical forms.

Conventions
-----------
Matrix entries are indexed ``[target, source]``: a nonzero ``A[j, i]`` means
node ``i`` influences node ``j``, i.e. a directed edge ``i -> j``.  Networks
use integer node ids: observed nodes are ``0 .. n-1`` (positions in the label
list), latent nodes are ``n .. n+m-1``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import CyclicLatent

#: Magnitudes below this are treated as exact zeros when extracting supports.
ZERO_TOL = 1e-12


def default_names(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(n))


def name_tuple(names: Sequence[str], key: str) -> tuple[str, ...]:
    """names as a tuple of non-empty, distinct str without surrounding
    whitespace or a leading U+FEFF, so that the panel CSV reader, which strips
    names and takes a leading U+FEFF for a byte order mark, and the JSON
    readers give back the names written; a bare str is refused, not split."""
    if isinstance(names, str):
        raise ValueError(f"{key} must be a sequence of strings, got {names!r}")
    out = tuple(str(x) for x in names)
    seen = set()
    for i, s in enumerate(out, 1):
        if not s or s != s.strip():
            raise ValueError(f"{key}: name {i} ({s!r}) is empty or has surrounding whitespace")
        if s[0] == "\ufeff":
            raise ValueError(f"{key}: name {i} ({s!r}) starts with U+FEFF, a byte order mark")
        if s in seen:
            raise ValueError(f"duplicate series name {s!r}")
        seen.add(s)
    return out


def _as_matrix(a, rows: int, cols: int, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != (rows, cols):
        raise ValueError(f"{name} must have shape {(rows, cols)}, got {a.shape}")
    return a


@dataclass(frozen=True)
class BlockTransitionMatrix:
    """The four blocks of a first-order VAR transition matrix with a latent part.

    ``a11`` is observed->observed (n x n), ``a12`` latent->observed (n x m),
    ``a21`` observed->latent (m x n) and ``a22`` latent->latent (m x m).
    """

    a11: np.ndarray
    a12: np.ndarray
    a21: np.ndarray
    a22: np.ndarray

    def __post_init__(self):
        a11 = np.asarray(self.a11, dtype=float)
        if a11.ndim != 2 or a11.shape[0] != a11.shape[1]:
            raise ValueError(f"a11 must be square, got shape {a11.shape}")
        n = a11.shape[0]
        a22 = np.asarray(self.a22, dtype=float)
        if a22.ndim != 2 or a22.shape[0] != a22.shape[1]:
            raise ValueError(f"a22 must be square, got shape {a22.shape}")
        m = a22.shape[0]
        object.__setattr__(self, "a11", a11)
        object.__setattr__(self, "a12", _as_matrix(self.a12, n, m, "a12"))
        object.__setattr__(self, "a21", _as_matrix(self.a21, m, n, "a21"))
        object.__setattr__(self, "a22", a22)
        if not np.isfinite(self.full()).all():
            raise ValueError("transition blocks must have finite entries")

    @property
    def n(self) -> int:
        return self.a11.shape[0]

    @property
    def m(self) -> int:
        return self.a22.shape[0]

    def full(self) -> np.ndarray:
        """Assemble the (n+m) x (n+m) transition matrix."""
        return np.block([[self.a11, self.a12], [self.a21, self.a22]])


@dataclass(frozen=True)
class LatentVarModel:
    """Transition blocks plus diagonal noise variances for observed and latent parts."""

    blocks: BlockTransitionMatrix
    sigma_x2: float = 1.0
    sigma_z2: float = 1.0

    def __post_init__(self):
        if not (0 < self.sigma_x2 < np.inf and 0 < self.sigma_z2 < np.inf):  # NaN fails too
            raise ValueError("noise variances must be positive and finite")

    @property
    def n(self) -> int:
        return self.blocks.n

    @property
    def m(self) -> int:
        return self.blocks.m

    def spectral_radius(self) -> float:
        full = self.blocks.full()
        if full.size == 0:
            return 0.0
        return float(np.max(np.abs(np.linalg.eigvals(full))))

    @property
    def stationary(self) -> bool:
        return self.spectral_radius() < 1.0

    def noise_cov(self) -> np.ndarray:
        """Block-diagonal noise covariance diag(sigma_x2 * I_n, sigma_z2 * I_m)."""
        d = np.concatenate(
            [np.full(self.n, self.sigma_x2), np.full(self.m, self.sigma_z2)]
        )
        return np.diag(d)


class LinearMeasurements:
    """Ordered supports S_0..S_K of the latent-path coefficient matrices.

    ``S_k[j, i] == 1`` encodes a directed path ``i -> j`` of length ``k + 1``
    whose interior nodes are all latent; ``S_0`` is the direct observed
    adjacency.  Trailing all-zero matrices are trimmed on construction so that
    two structurally equal measurement sets compare equal.
    """

    __slots__ = ("n", "supports", "names")

    def __init__(self, n: int, supports: Sequence[np.ndarray], names: Sequence[str] | None = None):
        if n < 0:
            raise ValueError("n must be non-negative")
        mats = []
        for k, s in enumerate(supports):
            s = np.asarray(s)
            if s.shape != (n, n):
                raise ValueError(f"S_{k} must be {n}x{n}, got {s.shape}")
            if not ((s == 0) | (s == 1)).all():
                raise ValueError(f"S_{k} must be a 0/1 matrix")
            mats.append(s.astype(np.uint8))
        if not mats:
            mats = [np.zeros((n, n), dtype=np.uint8)]
        while len(mats) > 1 and not mats[-1].any():
            mats.pop()
        self.n = n
        self.supports = tuple(m_.copy() for m_ in mats)
        for m_ in self.supports:
            m_.flags.writeable = False
        if names is None:
            names = default_names(n)
        names = name_tuple(names, "names")
        if len(names) != n:
            raise ValueError("names must have length n")
        self.names = names

    @property
    def max_k(self) -> int:
        """Largest retained index K (0 when only S_0 is present)."""
        return len(self.supports) - 1

    def has_latent_paths(self) -> bool:
        return any(s.any() for s in self.supports[1:])

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearMeasurements):
            return NotImplemented
        return (
            self.n == other.n
            and len(self.supports) == len(other.supports)
            and all(np.array_equal(a, b) for a, b in zip(self.supports, other.supports))
        )

    def __hash__(self):
        return hash((self.n, tuple(s.tobytes() for s in self.supports)))

    def __repr__(self):
        return f"LinearMeasurements(n={self.n}, K={self.max_k})"


@dataclass(frozen=True)
class UnobservedNetwork:
    """Directed graph over n labeled observed nodes and m anonymous latent nodes.

    Edge ``(u, v)`` means ``u`` influences ``v``.  Node ids below ``n`` are
    observed (position in ``observed``), ids ``n .. n+latent_count-1`` latent.
    """

    observed: tuple[str, ...]
    latent_count: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "observed", name_tuple(self.observed, "observed"))
        object.__setattr__(self, "edges", frozenset((int(u), int(v)) for u, v in self.edges))
        if self.latent_count < 0:
            raise ValueError(f"latent_count must be >= 0, got {self.latent_count}")
        total = self.n + self.latent_count
        for u, v in self.edges:
            if not (0 <= u < total and 0 <= v < total):
                raise ValueError(f"edge ({u}, {v}) out of range for {total} nodes")
            if u == v and u >= self.n:
                raise ValueError("self-loops on latent nodes are not allowed")

    @property
    def n(self) -> int:
        return len(self.observed)

    @property
    def latent_ids(self) -> range:
        return range(self.n, self.n + self.latent_count)

    def parents(self, v: int) -> set[int]:
        return {u for u, w in self.edges if w == v}

    def children(self, v: int) -> set[int]:
        return {w for u, w in self.edges if u == v}

    @property
    def observed_edges(self) -> set[tuple[int, int]]:
        return {(u, v) for u, v in self.edges if u < self.n and v < self.n}

    @property
    def latent_edges(self) -> set[tuple[int, int]]:
        return {(u, v) for u, v in self.edges if u >= self.n and v >= self.n}

    def adjacency_blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Boolean blocks (obs->obs, obs->latent, latent->latent, latent->obs).

        Each block is indexed ``[target, source]`` like the transition matrix.
        """
        n, m = self.n, self.latent_count
        a_oo = np.zeros((n, n), dtype=bool)
        a_ol = np.zeros((m, n), dtype=bool)  # observed source -> latent target
        a_ll = np.zeros((m, m), dtype=bool)
        a_lo = np.zeros((n, m), dtype=bool)  # latent source -> observed target
        for u, v in self.edges:
            if u < n and v < n:
                a_oo[v, u] = True
            elif u < n:
                a_ol[v - n, u] = True
            elif v < n:
                a_lo[v, u - n] = True
            else:
                a_ll[v - n, u - n] = True
        return a_oo, a_ol, a_ll, a_lo

    @classmethod
    def from_blocks(cls, observed, a_ol, a_ll, a_lo, a_oo=None) -> "UnobservedNetwork":
        """Inverse of adjacency_blocks: the network whose nonzero block entries
        are its edges (no observed->observed edges when ``a_oo`` is None)."""
        n = len(observed)
        edges = {(n + int(z), n + int(w)) for w, z in zip(*np.nonzero(a_ll))}
        edges.update((int(i), n + int(z)) for z, i in zip(*np.nonzero(a_ol)))
        edges.update((n + int(z), int(j)) for j, z in zip(*np.nonzero(a_lo)))
        if a_oo is not None:
            edges.update((int(i), int(j)) for j, i in zip(*np.nonzero(a_oo)))
        return cls(tuple(observed), a_ll.shape[0], frozenset(edges))

    def latent_subgraph_is_dag(self) -> bool:
        """Whether the latent-induced subgraph is acyclic (its block is nilpotent)."""
        try:
            nilpotency_index(self.adjacency_blocks()[2])
        except CyclicLatent:
            return False
        return True


def nilpotency_index(a22) -> int:
    """Smallest l with a22^l == 0 (entries below ZERO_TOL count as zero).

    Raises CyclicLatent when no such l <= m exists, i.e. when the latent
    subgraph has a directed cycle.
    """
    a22 = np.asarray(a22, dtype=float)
    if a22.ndim != 2 or a22.shape[0] != a22.shape[1]:
        raise ValueError("a22 must be square")
    m = a22.shape[0]
    if m == 0:
        return 1
    power = np.where(np.abs(a22) > ZERO_TOL, a22, 0.0)
    for l in range(1, m + 1):
        # inf and NaN read as nonzero: a power that overflowed is not zero
        if (np.abs(power) <= ZERO_TOL).all():
            return l
        with np.errstate(over="ignore", invalid="ignore"):
            power = power @ a22
    raise CyclicLatent(f"a22 is not nilpotent up to power {m}")


def _walk(a11, a12, a21, a22) -> list[np.ndarray]:
    """``[A11, A12 A21, A12 A22 A21, .., A12 A22^(l-1) A21]`` with l the
    nilpotency index of A22; raises CyclicLatent when A22 has none.

    Boolean network blocks give path existence, which cannot overflow.
    """
    walk = [a11]
    path = a21
    for _ in range(nilpotency_index(a22)):
        walk.append(a12 @ path)
        path = a22 @ path
    return walk


def true_linear_measurements(model: LatentVarModel, names: Sequence[str] | None = None) -> LinearMeasurements:
    """Exact measurements of a model: supports of A11 and A12 A22^(k-1) A21."""
    b = model.blocks
    walk = _walk(b.a11, b.a12, b.a21, b.a22)
    return LinearMeasurements(model.n, [np.abs(w) > ZERO_TOL for w in walk], names)


def network_of(model: LatentVarModel, names: Sequence[str] | None = None) -> UnobservedNetwork:
    """Support graph of the transition matrix, observed edges included."""
    b = model.blocks
    if names is None:
        names = default_names(b.n)
    a11, a12, a21, a22 = (np.abs(a) > ZERO_TOL for a in (b.a11, b.a12, b.a21, b.a22))
    return UnobservedNetwork.from_blocks(names, a21, a22, a12, a11)


def complete_census(network: UnobservedNetwork) -> LinearMeasurements:
    """Supports of every latent path between observed nodes.

    ``S_k[j, i] = 1`` iff a directed path ``i -> ... -> j`` of length ``k + 1``
    with all-latent interior exists; ``S_0`` is the observed adjacency.  No
    such path is longer than latent_count + 1, so S_0..S_K is the whole
    census.  Raises CyclicLatent when the latent subgraph has a cycle.
    """
    a_oo, a_ol, a_ll, a_lo = network.adjacency_blocks()
    return LinearMeasurements(network.n, _walk(a_oo, a_lo, a_ol, a_ll), network.observed)


def consistent(network: UnobservedNetwork, meas: LinearMeasurements) -> bool:
    """Whether the network's latent paths reproduce the measurements exactly.

    Only the latent parts S_1.. are compared; S_0 is compared iff the network
    carries observed->observed edges (recovered networks never do).
    """
    if network.n != meas.n:
        return False
    census = complete_census(network)
    if not network.observed_edges:
        census = LinearMeasurements(meas.n, meas.supports[:1] + census.supports[1:])
    return census == meas


def _refine_latent_colors(network: UnobservedNetwork) -> list[list[int]]:
    """Partition latent nodes into classes by iterated neighborhood signatures.

    Observed endpoints keep their identity; latent neighbors contribute their
    current color.  Classes come back in a canonical (signature-sorted) order.
    """
    n, m = network.n, network.latent_count
    in_nbrs: list[list[int]] = [[] for _ in range(m)]
    out_nbrs: list[list[int]] = [[] for _ in range(m)]
    for u, v in network.edges:
        if v >= n:
            in_nbrs[v - n].append(u)
        if u >= n:
            out_nbrs[u - n].append(v)
    colors = [0] * m

    def tag(node: int) -> tuple[int, int]:
        return (0, node) if node < n else (1, colors[node - n])

    # Each signature starts with the node's current color, so a round only
    # splits classes; the partition is stable once no class splits.
    while True:
        sigs = []
        for z in range(m):
            sig = (
                colors[z],
                tuple(sorted(tag(u) for u in in_nbrs[z])),
                tuple(sorted(tag(v) for v in out_nbrs[z])),
            )
            sigs.append(sig)
        rank = {s: c for c, s in enumerate(sorted(set(sigs)))}
        done = len(rank) == len(set(colors))
        colors = [rank[s] for s in sigs]
        if done:
            break
    classes: dict[int, list[int]] = {}
    for z, c in enumerate(colors):
        classes.setdefault(c, []).append(z)
    return [classes[c] for c in sorted(classes)]


def canonical_form(network: UnobservedNetwork) -> bytes:
    """Byte key identifying a network up to any permutation of its latent ids.

    Color refinement first; residual symmetry classes are broken by trying
    every within-class ordering and keeping the lexicographically smallest
    edge encoding (worst-case factorial, fine for the small latent counts
    this package works at).
    """
    n, m = network.n, network.latent_count
    header = repr((n, network.observed, m)).encode()
    classes = _refine_latent_colors(network)
    best = None
    for perms in itertools.product(*(itertools.permutations(c) for c in classes)):
        order = [z for perm in perms for z in perm]
        relabel = {n + z: n + pos for pos, z in enumerate(order)}
        enc = sorted((relabel.get(u, u), relabel.get(v, v)) for u, v in network.edges)
        if best is None or enc < best:
            best = enc
    return header + repr(best).encode()
