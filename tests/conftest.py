"""Shared fixtures: the two-network ambiguity example, the dairy and
macroeconomic case measurements, and random-instance generators."""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest

import latentvar as lv
from latentvar.model import _walk

AMBIG_NAMES = ("1", "2", "3", "4")


@pytest.fixture
def ambig_left() -> lv.UnobservedNetwork:
    # 1->l1->l2->4, 2->l1, 2->l3->3  (node ids: observed 0..3, latents 4,5,6)
    return lv.UnobservedNetwork(
        AMBIG_NAMES, 3, frozenset({(0, 4), (4, 5), (5, 3), (1, 4), (1, 6), (6, 2)})
    )


@pytest.fixture
def ambig_right() -> lv.UnobservedNetwork:
    # 1->l1->l2->4, 2->l3->l2, l3->3
    return lv.UnobservedNetwork(
        AMBIG_NAMES, 3, frozenset({(0, 4), (4, 5), (5, 3), (1, 6), (6, 5), (6, 2)})
    )


@pytest.fixture
def ambig_meas(ambig_left) -> lv.LinearMeasurements:
    return lv.complete_census(ambig_left)


@pytest.fixture
def dairy_meas() -> lv.LinearMeasurements:
    return lv.LinearMeasurements(
        2,
        [np.array([[1, 1], [1, 0]]), np.array([[0, 0], [1, 0]])],
        ("milk", "cheese"),
    )


@pytest.fixture
def west_german_meas() -> lv.LinearMeasurements:
    return lv.LinearMeasurements(
        2,
        [np.array([[0, 0], [1, 1]]), np.array([[1, 0], [1, 0]])],
        ("expend", "invest"),
    )


@pytest.fixture
def no_merge_search(monkeypatch):
    """Make the merge search and its initial graph raise, so that a test shows
    the route it runs never reaches them."""
    def refuse(*args, **kwargs):
        raise AssertionError("the merge search was reached")

    monkeypatch.setattr("latentvar.recover.nm", refuse)
    monkeypatch.setattr("latentvar.recover.init_graph", refuse)


def canon_keys(nets) -> set[bytes]:
    return {lv.canonical_form(g) for g in nets}


def gen_unique_parent_tree(
    rng: np.random.Generator, n_max: int = 12, m_max: int = 5, p_extra: float = 0.15
) -> lv.UnobservedNetwork:
    """Random network whose latent part is a rooted tree, every latent node
    has a unique observed parent, every latent leaf a unique observed child,
    plus extra links (each with probability ``p_extra``) that keep both
    uniqueness conditions intact."""
    m = int(rng.integers(1, m_max + 1))
    n = int(rng.integers(max(m, 2), n_max + 1))
    tree_parent = {z: int(rng.integers(0, z)) for z in range(1, m)}
    kids: dict[int, list[int]] = {z: [] for z in range(m)}
    for z, p in tree_parent.items():
        kids[p].append(z)
    leaves = [z for z in range(m) if not kids[z]]

    edges = {(n + p, n + z) for z, p in tree_parent.items()}
    obs_order = list(rng.permutation(n))
    reserved_parents = obs_order[:m]
    child_order = list(rng.permutation(n))
    reserved_children = {z: child_order[i] for i, z in enumerate(leaves)}
    for z in range(m):
        edges.add((int(reserved_parents[z]), n + z))
    for z, u in reserved_children.items():
        edges.add((n + z, int(u)))

    nonreserved = [i for i in range(n) if i not in set(reserved_parents)]
    avoid = set(reserved_children.values())
    for i in nonreserved:
        for z in range(m):
            if rng.random() < p_extra:
                edges.add((i, n + z))
    for z in range(m):
        for j in range(n):
            if j not in avoid and rng.random() < p_extra:
                edges.add((n + z, j))
    names = tuple(str(i + 1) for i in range(n))
    return lv.UnobservedNetwork(names, m, frozenset(edges))


def latent_path_counts(network: lv.UnobservedNetwork) -> list[np.ndarray]:
    """Exact number of distinct latent paths per (target, source) and length.

    Entry ``[k][j, i]`` (k = 0..m) counts paths ``i -> j`` of length ``k + 1``
    with all-latent interior (k = 0 is the plain adjacency).  A DAG path is
    fixed by its set of interior nodes, so counts stay below 2**m: int64 up
    to m = 62, Python ints above it.  The count reference of the tests; the
    package's census reads path existence off boolean blocks instead.
    Raises CyclicLatent when the latent subgraph has a cycle.
    """
    m = network.latent_count
    dtype = np.int64 if m <= 62 else object
    a_oo, a_ol, a_ll, a_lo = (a.astype(np.int64).astype(dtype) for a in network.adjacency_blocks())
    walk = _walk(a_oo, a_lo, a_ol, a_ll)
    return (walk + [np.zeros_like(walk[0])] * m)[: m + 1]


def single_path_per_length(network: lv.UnobservedNetwork) -> bool:
    """True when no ordered observed pair has two latent paths of equal length."""
    return all((c <= 1).all() for c in latent_path_counts(network)[1:])


def parallel_latents(k: int) -> lv.UnobservedNetwork:
    """a -> k parallel latents -> one join latent w -> b: k latent paths of
    length 3 from a to b."""
    lat = range(2, 2 + k)
    w = 2 + k
    edges = {(0, z) for z in lat} | {(z, w) for z in lat} | {(w, 1)}
    return lv.UnobservedNetwork(("a", "b"), k + 1, frozenset(edges))


def diamond_chain(t: int) -> lv.UnobservedNetwork:
    """a -> t diamonds of two latents, each closed by a join latent -> b:
    3t latents and 2**t latent paths of length 2t + 1 from a to b."""
    edges, prev = set(), 0
    for d in range(t):
        u, v, join = 2 + 3 * d, 3 + 3 * d, 4 + 3 * d
        edges |= {(prev, u), (prev, v), (u, join), (v, join)}
        prev = join
    edges.add((prev, 1))
    return lv.UnobservedNetwork(("a", "b"), 3 * t, frozenset(edges))


def gen_single_path_instance(rng: np.random.Generator, n_max: int = 5, init_cap: int = 8):
    """Random latent-DAG network with single-multiplicity paths, small enough
    for the exhaustive search; returns (network, measurements) or None."""
    for _ in range(300):
        n = int(rng.integers(2, n_max + 1))
        m = int(rng.integers(1, 5))
        edges = set()
        order = rng.permutation(m)
        pos = np.empty(m, dtype=int)
        pos[order] = np.arange(m)
        for z1 in range(m):
            for z2 in range(m):
                if pos[z1] < pos[z2] and rng.random() < 0.3:
                    edges.add((n + z1, n + z2))
        for i in range(n):
            for z in range(m):
                if rng.random() < 0.3:
                    edges.add((i, n + z))
                if rng.random() < 0.3:
                    edges.add((n + z, i))
        names = tuple(str(i + 1) for i in range(n))
        net = lv.UnobservedNetwork(names, m, frozenset(edges))
        if not single_path_per_length(net):
            continue
        meas = lv.complete_census(net)
        if not meas.has_latent_paths() or meas.max_k > 4:
            continue
        init = sum(k * int(s.sum()) for k, s in enumerate(meas.supports))
        if init > init_cap:
            continue
        return net, meas
    return None


def gen_degree_tree(rng: np.random.Generator, m_max: int = 3) -> lv.UnobservedNetwork:
    """Random tree-shaped unobserved network whose latent nodes all end up
    with at least two parents and two children (latent tree edges count;
    fresh observed leaves pad the rest, so the skeleton stays a tree)."""
    m = int(rng.integers(1, m_max + 1))
    lat_edges = []
    for z in range(1, m):
        other = int(rng.integers(0, z))
        lat_edges.append((other, z) if rng.random() < 0.5 else (z, other))
    indeg = {z: 0 for z in range(m)}
    outdeg = {z: 0 for z in range(m)}
    for a, b in lat_edges:
        outdeg[a] += 1
        indeg[b] += 1
    n = 0
    obs_parents = {}
    obs_children = {}
    for z in range(m):
        need_p = max(2 - indeg[z], 0) + int(rng.random() < 0.3)
        need_c = max(2 - outdeg[z], 0) + int(rng.random() < 0.3)
        obs_parents[z] = list(range(n, n + need_p))
        n += need_p
        obs_children[z] = list(range(n, n + need_c))
        n += need_c
    names = tuple(str(i + 1) for i in range(n))
    edges = {(n + a, n + b) for a, b in lat_edges}
    for z in range(m):
        edges |= {(p, n + z) for p in obs_parents[z]}
        edges |= {(n + z, c) for c in obs_children[z]}
    return lv.UnobservedNetwork(names, m, frozenset(edges))


def gen_stationary_model(rng: np.random.Generator, n_max: int = 5, m_max: int = 5, scale: float = 0.35) -> lv.LatentVarModel:
    """Random stationary model with nilpotent latent block and ||a22||_2 < 1."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    a = scale / max(n, m)

    def block(rows, cols, tri=False):
        mask = rng.random((rows, cols)) < 0.6
        if tri:
            mask &= np.tril(np.ones((rows, cols)), -1).astype(bool)
        return np.where(mask, rng.uniform(-a, a, (rows, cols)), 0.0)

    blocks = lv.BlockTransitionMatrix(
        block(n, n), block(n, m), block(m, n), block(m, m, tri=True)
    )
    return lv.LatentVarModel(
        blocks, float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0))
    )


def var1_model(rng: np.random.Generator, n: int) -> lv.LatentVarModel:
    """Random latent-free VAR(1) with spectral radius below 0.9."""
    a11 = np.where(rng.random((n, n)) < 0.7, rng.uniform(-0.4, 0.4, (n, n)), 0.0)
    radius = np.max(np.abs(np.linalg.eigvals(a11)))
    if radius >= 0.9:
        a11 *= 0.85 / radius
    blocks = lv.BlockTransitionMatrix(
        a11, np.zeros((n, 0)), np.zeros((0, n)), np.zeros((0, 0))
    )
    return lv.LatentVarModel(blocks)


def matches_tree_recovery(true_net: lv.UnobservedNetwork, rec_net: lv.UnobservedNetwork) -> bool:
    """Tree-recovery contract under some latent bijection: latent-latent and
    latent-to-observed edges exactly equal, observed-to-latent contained."""
    n, m = true_net.n, true_net.latent_count
    if rec_net.latent_count != m or rec_net.n != n:
        return False
    t22, r22 = true_net.latent_edges, rec_net.latent_edges
    t12 = {(u, v) for u, v in true_net.edges if u >= n > v}
    r12 = {(u, v) for u, v in rec_net.edges if u >= n > v}
    t21 = {(u, v) for u, v in true_net.edges if u < n <= v}
    r21 = {(u, v) for u, v in rec_net.edges if u < n <= v}
    for perm in permutations(range(m)):
        f = {n + z: n + perm[z] for z in range(m)}
        if {(f[a], f[b]) for a, b in t22} != r22:
            continue
        if {(f[a], b) for a, b in t12} != r12:
            continue
        if {(a, f[b]) for a, b in t21} <= r21:
            return True
    return False


def gen_latent_digraph(rng: np.random.Generator, m_max: int = 7) -> lv.UnobservedNetwork:
    """Random network whose latent subgraph is any digraph without self-loops:
    cycles, 2-cycles, isolated latents and disconnected latent parts all
    arise often at the drawn densities."""
    n = int(rng.integers(1, 4))
    m = int(rng.integers(0, m_max + 1))
    density = rng.uniform(0.05, 0.45)
    edges = {
        (n + a, n + b) for a in range(m) for b in range(m) if a != b and rng.random() < density
    }
    edges |= {(i, n + z) for i in range(n) for z in range(m) if rng.random() < 0.3}
    edges |= {(n + z, j) for j in range(n) for z in range(m) if rng.random() < 0.3}
    return lv.UnobservedNetwork(tuple(f"x{i}" for i in range(n)), m, frozenset(edges))
