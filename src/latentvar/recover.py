"""Network reconstruction from linear measurements.

Three recovery routes plus a small-scale exhaustive oracle:

* ``dtr``          -- directed-tree recovery of the latent subnetwork when
                      every latent node has a unique observed parent and
                      every latent leaf a unique observed child.
* ``nm``           -- node-merging search returning every consistent network
                      with the minimum number of latent nodes.
* ``recover_tree`` -- the unique realization when the unobserved network is a
                      directed tree whose latent nodes all have two parents
                      and two children, built in one pass from the latent
                      path lengths (no search).
* ``oracle_minimal`` -- exhaustive enumeration, the test oracle for the two
                      search algorithms (the underlying minimization is
                      NP-hard, so scale limits are enforced).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousDistance,
    CapExceeded,
    InconsistentRecovery,
    NotIdentifiable,
    ScaleExceeded,
)
from .model import (
    LinearMeasurements,
    UnobservedNetwork,
    _walk,
    canonical_form,
    consistent,
)

#: Initial-graph latent budget per connected class before NM gives up.
DEFAULT_CAP = 40

#: Hard limits of the exhaustive oracle.
ORACLE_MAX_N = 6
ORACLE_MAX_M = 5
ORACLE_MAX_K = 4

@dataclass(frozen=True)
class NodeProfile:
    """Latent-path profile of one observed node.

    ``l_i`` is the length of the longest directed latent path leaving the
    node (0 when there is none), ``r_i`` the observed nodes reached at that
    length, and ``m_i`` every (target, length) pair with length >= 2.
    """

    node: int
    l_i: int
    r_i: frozenset[int]
    m_i: frozenset[tuple[int, int]]


def node_profiles(meas: LinearMeasurements) -> list[NodeProfile]:
    """Profiles of all observed nodes, read off S_1.. (path lengths >= 2)."""
    profiles = []
    for i in range(meas.n):
        pairs = {(int(j), k + 1) for k in range(1, meas.max_k + 1) for j in np.flatnonzero(meas.supports[k][:, i])}
        l_i = max((r for _, r in pairs), default=0)
        profiles.append(NodeProfile(i, l_i, frozenset(j for j, r in pairs if r == l_i), frozenset(pairs)))
    return profiles


def unique_parents(profiles: list[NodeProfile]) -> list[int]:
    """Observed nodes that are the unique parent of some latent node, ascending.

    A node qualifies when, against every other node of equal longest length,
    either its top reach set is not covered or the two profiles are nested
    the right way; among nodes with identical profiles only the smallest
    index survives.
    """
    chosen: list[int] = []
    for p in profiles:
        if p.l_i < 2:
            continue
        ok = True
        for q in profiles:
            if q.node == p.node or q.l_i != p.l_i:
                continue
            if not (not q.r_i <= p.r_i or (q.r_i == p.r_i and p.m_i <= q.m_i)):
                ok = False
                break
        if not ok:
            continue
        twin = min(
            q.node for q in profiles if q.r_i == p.r_i and q.m_i == p.m_i
        )
        if twin == p.node:
            chosen.append(p.node)
    return chosen


def dtr(meas: LinearMeasurements) -> UnobservedNetwork:
    """Directed-tree recovery of the unobserved network.

    Creates one latent z_s per unique observed parent s (an anchor), attaches
    observed children from S_1, widens observed parent sets by profile
    containment, and wires the latent tree in one pass.  Anchor k is viable
    as parent of z_s when k's profile holds s's profile one step longer; z_s
    gets the first viable k of exact depth (l_k = l_s + 1, r_s within r_k),
    else the viable k of smallest (l_k, k), else no parent.  Under the tree
    assumptions the true parent's anchor is viable (each latent path out of
    z_s extends through it) and has the smallest l_k of z_s's ancestors; no
    proof excludes other viable anchors, so the rule is checked against the
    former search over all assignments (``reference_dtr`` in the tests).
    Raises InconsistentRecovery when the one wiring misses the measurements.
    """
    n = meas.n
    profiles = node_profiles(meas)
    prof = {p.node: p for p in profiles}
    anchors = unique_parents(profiles)
    m = len(anchors)
    empty = UnobservedNetwork(meas.names, 0, frozenset())
    if m == 0:
        if meas.has_latent_paths():
            raise InconsistentRecovery("measurements carry latent paths but no unique parent was found")
        return empty

    latent_id = {s: n + pos for pos, s in enumerate(anchors)}
    edges: set[tuple[int, int]] = set()
    s1 = meas.supports[1]
    for s in anchors:
        edges.add((s, latent_id[s]))
        for j in np.flatnonzero(s1[:, s]):
            edges.add((latent_id[s], int(j)))
    for i in range(n):
        for s in anchors:
            if prof[s].m_i <= prof[i].m_i:
                edges.add((i, latent_id[s]))

    for s in anchors:
        shifted = {(j, r + 1) for j, r in prof[s].m_i}
        viable = [k for k in anchors if k != s and shifted <= prof[k].m_i]
        exact = [
            k
            for k in viable
            if prof[k].l_i == prof[s].l_i + 1 and prof[s].r_i <= prof[k].r_i
        ]
        if viable:
            parent = exact[0] if exact else min(viable, key=lambda k: (prof[k].l_i, k))
            edges.add((latent_id[parent], latent_id[s]))
    candidate = UnobservedNetwork(meas.names, m, frozenset(edges))
    if not consistent(candidate, meas):
        raise InconsistentRecovery("no latent tree reproduces the measurements")
    return candidate


def distance_matrix(meas: LinearMeasurements) -> np.ndarray:
    """Latent-path lengths d[i, j] = k + 1 where S_k[j, i] = 1 (k >= 1), 0
    where there is no path; raises AmbiguousDistance for two lengths per pair."""
    n = meas.n
    d = np.zeros((n, n), dtype=int)
    for k in range(1, meas.max_k + 1):
        for j, i in zip(*np.nonzero(meas.supports[k])):
            if d[i, j] != 0:
                raise AmbiguousDistance(
                    f"pair ({i}, {j}) has latent paths of lengths {d[i, j]} and {k + 1}"
                )
            d[i, j] = k + 1
    return d


def _components(adj: np.ndarray) -> list[list[int]]:
    """Components of the undirected graph ``adj | adj.T``, from the boolean
    closure of its adjacency; each ascending, ordered by smallest member."""
    reach = adj | adj.T | np.eye(len(adj), dtype=bool)
    while not np.array_equal(closed := reach @ reach, reach):
        reach = closed
    return [np.flatnonzero(row).tolist() for k, row in enumerate(reach) if row.argmax() == k]


def connected_classes(meas: LinearMeasurements) -> list[frozenset[int]]:
    """Components of the undirected share-a-latent-path graph.

    Nodes without any incident latent path are omitted; classes come back
    ordered by their smallest member.
    """
    paths = np.zeros((meas.n, meas.n), dtype=bool)
    for s in meas.supports[1:]:
        paths |= s.astype(bool)
    incident = paths.any(axis=0) | paths.any(axis=1)
    return [frozenset(c) for c in _components(paths) if incident[c[0]]]


def init_graph(meas: LinearMeasurements, cls: frozenset[int], cap: int = DEFAULT_CAP) -> UnobservedNetwork:
    """Initial merge graph: one private latent chain per measurement entry.

    Every S_r[j, i] = 1 with i, j in the class contributes r fresh latent
    nodes forming a path i -> ... -> j of length r + 1.
    """
    n = meas.n
    members = sorted(cls)
    ones = [(k, i, j) for k in range(1, meas.max_k + 1) for i in members for j in members if meas.supports[k][j, i]]
    needed = sum(k for k, _, _ in ones)
    if needed > cap:
        raise CapExceeded(f"initial graph needs {needed} latent nodes, cap is {cap}")
    edges: set[tuple[int, int]] = set()
    m = 0
    for k, i, j in ones:
        chain = [i] + [n + m + t for t in range(k)] + [j]
        m += k
        edges.update(zip(chain, chain[1:]))
    return UnobservedNetwork(meas.names, m, frozenset(edges))


def _merge_blocks(p, b, q, x: int, y: int):
    """Fold latent y into latent x in the (obs->latent, latent->latent,
    latent->obs) blocks: drop the pair's mutual edges, hand y's parents and
    children to x, and delete y's row and column."""
    keep = np.arange(b.shape[0]) != y
    p2, b2, q2 = p[keep], b[keep][:, keep], q[:, keep]
    x -= x > y  # x's index once y is gone
    p2[x] |= p[y]
    b2[x] |= b[y, keep]
    b2[:, x] |= b[keep, y]
    b2[x, x] = 0  # edges between the merged pair vanish
    q2[:, x] |= q[:, y]
    return p2, b2, q2


def _blocks_valid(p, b, q, supports) -> bool:
    """Census of the block-form network equals ``supports`` (the S_1.. list)
    entrywise with at most one path per pair and length, and the walk from
    the observed nodes dies within the latent count (so no latent reachable
    from an observed node lies on a cycle).  Past the supports only
    reachability matters, so the walk saturates at 1 there, which keeps the
    counts of a cyclic graph from overflowing.  The one census check of nm,
    recover_tree and the oracle; int64 blocks, as boolean ones cap counts at 1."""
    m = b.shape[0]
    reach = p
    for s in supports:
        cnt = q @ reach
        if (cnt > 1).any() or not np.array_equal(cnt > 0, s):
            return False
        reach = b @ reach
    for _ in range(m):
        if not reach.any():
            return True
        if (q @ reach).any():
            return False
        reach = np.minimum(b @ reach, 1)
    return not reach.any()


def _screened_pairs(p, q) -> list[list[int]]:
    """Latent pairs x < y, in combinations order, whose merge adds no length-2 path (see nm)."""
    sp, sq = p.sum(1), q.sum(0)
    new = np.outer(sp, sq) - sp[:, None] * (q.T @ q) - (p @ p.T) * sq
    return np.argwhere(np.triu((new == 0) & (new.T == 0), 1)).tolist()


def _disjoint_union(names: tuple[str, ...], nets: tuple[UnobservedNetwork, ...]) -> UnobservedNetwork:
    n = len(names)
    edges: set[tuple[int, int]] = set()
    offset = 0
    for g in nets:
        for a, b in g.edges:
            edges.add((a + offset if a >= n else a, b + offset if b >= n else b))
        offset += g.latent_count
    return UnobservedNetwork(names, offset, frozenset(edges))


def nm(meas: LinearMeasurements, cap: int = DEFAULT_CAP) -> list[UnobservedNetwork]:
    """Node-merging search for all minimal consistent unobserved networks.

    Per connected class: start from the private-path graph and, level by
    level, collect every valid merge of the previous level, keyed by the
    partition of the class's initial latents (it alone fixes a merge's
    labelled result, as _merge_blocks keeps latents ordered by their smallest
    member, so each partition is merged once per level).  The last non-empty
    level holds the class's minimal networks; only they are built, and
    deduplicated by canonical key keeping the first of each isomorphism
    class.  By induction over levels a per-level dedup returns the same:
    isomorphic partitions have isomorphic screened, valid successors, and a
    partition it drops comes after the kept member of its class, so every
    class it reaches that member reached first.  So at every level the first
    partition of each class is the one it keeps, in the same class order;
    isomorphic partitions meeting in one level change only the work.  The
    search stays inside the single-path-per-length universe the merge
    operation lives in: a merge result with duplicated same-length paths is
    dropped (splitting such a node back would not reproduce the private-path
    graph, so no minimal in-universe network is lost).  Classes combine by
    disjoint union; output is sorted by canonical key.

    No separate acyclicity test is needed.  Every latent of a merge graph
    lies on a path from an observed node: init_graph builds chains that start
    at observed nodes, and a merge keeps every other in-edge, so walks from
    the observed nodes survive it.  A latent cycle therefore keeps the walk
    from the observed nodes alive past the latent count, and _blocks_valid
    rejects the merge.

    The pair screen skips only merges that cannot be valid: a valid
    frontier network makes no length-2 path twice, so new[x, y] in
    _screened_pairs counts exactly the paths parent(x) -> z -> child(y) that
    neither x nor y makes, and _blocks_valid rejects a merge adding one.

    ``cap`` bounds only each class's initial merge graph (CapExceeded), not
    the levels after it: the 31-latent class of ``simulate --n 10 --m 5
    --a 0.3 --seed 3`` still runs out of a 2 GB memory limit within a minute.
    """
    classes = connected_classes(meas)
    per_class: list[list[UnobservedNetwork]] = []
    for cls in classes:
        member = np.zeros(meas.n, dtype=bool)
        member[list(cls)] = True
        inside = np.outer(member, member)
        # An all-zero trailing target asks only what the post-support walk
        # of _blocks_valid checks anyway, so the targets are not trimmed.
        targets = [s.astype(bool) & inside for s in meas.supports[1:]]
        g0 = init_graph(meas, cls, cap)
        _, *blocks0 = (a.astype(np.int64) for a in g0.adjacency_blocks())
        # index of each initial latent -> int64 blocks
        frontier = {tuple(range(g0.latent_count)): blocks0}
        while True:
            nxt: dict[tuple[int, ...], tuple] = {}
            seen: set[tuple[int, ...]] = set()  # partitions merged this level
            for part, (p, b, q) in frontier.items():
                for x, y in _screened_pairs(p, q):
                    if (merged_part := tuple(x if t == y else t - (t > y) for t in part)) in seen:
                        continue
                    seen.add(merged_part)
                    merged = _merge_blocks(p, b, q, x, y)
                    if _blocks_valid(*merged, targets):
                        nxt[merged_part] = merged
            if not nxt:
                break
            frontier = nxt
        nets = [UnobservedNetwork.from_blocks(meas.names, *blocks) for blocks in frontier.values()]
        firsts = {canonical_form(g).key: g for g in reversed(nets)}
        per_class.append([firsts[key] for key in sorted(firsts)])
    if not per_class:
        return [UnobservedNetwork(meas.names, 0, frozenset())]
    combos = {}
    for choice in itertools.product(*per_class):
        g = _disjoint_union(meas.names, choice)
        combos[canonical_form(g).key] = g
    return [g for _, g in sorted(combos.items())]


def _latent_forest(a_ll: np.ndarray) -> bool:
    """Whether the latent skeleton of the boolean block a_ll, each directed
    edge an undirected one, is a forest: a multigraph is one iff its edge
    and component counts sum to its node count."""
    return a_ll.sum() + len(_components(a_ll)) == len(a_ll)


def recover_tree(meas: LinearMeasurements) -> UnobservedNetwork:
    """Unique tree realization of the measurements, built in one pass.

    For a directed tree whose latents all have two parents and two children.
    A node's *profile* holds (i, d) for each observed i with a latent path of
    length d into it (a sink's is its ``distance_matrix`` column); profiles a
    and b *agree* on {(i, k - 1) : (i, k) in both, k >= 2}.  Argued, not
    proved (the tests compare this route with its former body, the merge
    search's output filtered for trees): observed nodes cut latent paths, so
    each is a leaf of any latent component it touches; latents have distinct
    profiles, as each has a parent branch whose sources reach another latent
    only through it; an agreement of u with any node lies in one parent's
    profile; and each latent's profile is the agreement of two of its
    children, so the sink profiles (a multiset, as observed siblings share
    one) closed under agreement hold every latent's, by induction on height.
    A node's latent parents are then the members whose shift {(i, k + 1)}
    fits in its profile, maximal by inclusion, and (i, 1) is the edge i ->
    node.  Walking up from the sinks skips spurious agreements, like those of
    an observed node that feeds two latent components.  The closure is
    capped at sum_k k |S_k| members, the initial merge graph's latent count,
    which bounds any consistent tree's.  Raises NotIdentifiable past the cap
    or when the network fails the tree filter (latent forest, two parents and
    children per latent, checked first) or _blocks_valid's census, and
    AmbiguousDistance when no tree can give the measurements.
    """
    d = distance_matrix(meas)
    sinks = [(j, frozenset((int(i), int(d[i, j])) for i in np.flatnonzero(d[:, j]))) for j in range(meas.n) if d[:, j].any()]
    profiles = [a for _, a in sinks]
    bound = sum(k * int(s.sum()) for k, s in enumerate(meas.supports))
    pool = list(dict.fromkeys(profiles))  # grows with the agreements
    derived: dict[frozenset, frozenset] = {}  # agreement -> its shift, in the order they turn up
    for t, a in enumerate(pool):
        for b in pool[: t + 1]:
            c = frozenset((i, k - 1) for i, k in a & b if k >= 2)
            if c and c not in derived and (b != a or profiles.count(a) > 1):
                derived[c] = frozenset((i, k + 1) for i, k in c)
                if len(derived) > bound:
                    raise NotIdentifiable(f"profile closure passed its cap of {bound} members")
                if c not in profiles:
                    pool.append(c)
    latent: dict[frozenset, int] = {}  # profile -> node id
    edges: set[tuple[int, int]] = set()
    walk = list(sinks)
    for node, a in walk:
        under = [c for c, shifted in derived.items() if shifted <= a]
        for c in under:
            if not any(c < e for e in under):
                if c not in latent:
                    latent[c] = meas.n + len(latent)
                    walk.append((latent[c], c))
                edges.add((latent[c], node))
        if node >= meas.n:
            edges.update((i, node) for i, k in a if k == 1)
    g = UnobservedNetwork(meas.names, len(latent), frozenset(edges))
    _, p, b, q = (a.astype(np.int64) for a in g.adjacency_blocks())
    indeg, outdeg = p.sum(1) + b.sum(1), q.sum(0) + b.sum(0)
    if not (_latent_forest(b > 0) and (indeg >= 2).all() and (outdeg >= 2).all()
            and _blocks_valid(p, b, q, meas.supports[1:])):
        raise NotIdentifiable("0 candidate networks satisfy the tree conditions")
    return g


def _latent_dags_up_to_iso(m: int) -> list[np.ndarray]:
    """Strictly lower-triangular adjacency masks, one per latent isomorphism class."""
    pairs = [(r, c) for r in range(m) for c in range(r)]
    seen: set[bytes] = set()
    out = []
    for bits in range(1 << len(pairs)):
        adj = np.zeros((m, m), dtype=bool)
        for idx, (r, c) in enumerate(pairs):
            if bits >> idx & 1:
                adj[r, c] = True  # edge c -> r
        g = UnobservedNetwork(
            (), m, frozenset((int(c), int(r)) for r, c in zip(*np.nonzero(adj)))
        )
        key = canonical_form(g).key
        if key not in seen:
            seen.add(key)
            out.append(adj)
    return out


def _submasks(mask: int):
    """All subsets of a bitmask, including 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _enumerate_consistent(meas: LinearMeasurements, m: int) -> list[UnobservedNetwork]:
    """All consistent networks with exactly m latent nodes.

    For each latent DAG shape, backtracks over per-latent (observed parent
    set, observed child set) bitmask pairs.  Pruning is sound: a pair
    (i in parents(u), j in children(v)) forces a latent path of every length
    the DAG admits between u and v, so it is allowed only where the matching
    supports are 1; requirements are checked once all pairs that could cover
    them are assigned.  Survivors are confirmed by _blocks_valid on their
    int64 blocks, and only they become networks.
    """
    n = meas.n
    k_meas = meas.max_k
    required = [
        (k, int(i), int(j))
        for k in range(1, k_meas + 1)
        for j, i in zip(*np.nonzero(meas.supports[k]))
    ]
    full_mask = (1 << n) - 1
    # scol[k][i]: targets j with S_k[j, i] = 1, as a bitmask
    scol = [
        [int(sum(1 << int(j) for j in np.flatnonzero(meas.supports[k][:, i]))) for i in range(n)]
        for k in range(k_meas + 1)
    ]
    solutions: list[UnobservedNetwork] = []

    for adj in _latent_dags_up_to_iso(m):
        # paths[d] = adj^d counts latent paths of d edges: the walk with A12 = A21 = I
        eye = np.eye(m, dtype=np.int64)
        paths = _walk(eye, eye, eye, adj.astype(np.int64))[1:]
        depth: dict[tuple[int, int], list[int]] = {}
        for u in range(m):
            for v in range(m):
                ds = [d for d, mat in enumerate(paths) if mat[v, u]]
                if ds:
                    depth[(u, v)] = ds
        # a too-long chain always forces an out-of-range path: its endpoints
        # have no latent parents/children, so they need observed ones
        if any(d + 1 > k_meas for ds in depth.values() for d in ds):
            continue
        if any(
            all((k - 1) not in ds for ds in depth.values()) for k, _, _ in required
        ):
            continue
        indeg = adj.sum(axis=1)
        outdeg = adj.sum(axis=0)

        colmask = {
            pair: [_and_all(scol[d + 1][i] for d in ds) for i in range(n)]
            for pair, ds in depth.items()
        }
        target_cache: dict[tuple[int, int, int], int] = {}

        def allowed_targets(pair: tuple[int, int], p: int) -> int:
            key = (pair[0], pair[1], p)
            got = target_cache.get(key)
            if got is None:
                cols = colmask[pair]
                got = full_mask
                for i in range(n):
                    if p >> i & 1:
                        got &= cols[i]
                target_cache[key] = got
            return got

        # static bit filters: source i at u is impossible when a descendant v
        # that is forced to keep observed children admits no target for i;
        # dually for target bits under forced-parent ancestors
        p_allow = [full_mask] * m
        q_allow = [full_mask] * m
        for (u, v), cols in colmask.items():
            if outdeg[v] == 0:
                for i in range(n):
                    if cols[i] == 0:
                        p_allow[u] &= ~(1 << i)
            if indeg[u] == 0:
                for j in range(n):
                    if not any(cols[i] >> j & 1 for i in range(n)):
                        q_allow[v] &= ~(1 << j)

        cover_pairs: list[list[tuple[int, int]]] = []
        deadlines: dict[int, list[int]] = {}
        for ridx, (k, _, _) in enumerate(required):
            prs = [pair for pair, ds in depth.items() if (k - 1) in ds]
            cover_pairs.append(prs)
            deadlines.setdefault(max(max(pair) for pair in prs), []).append(ridx)

        pmask = [0] * m
        qmask = [0] * m
        covered = [False] * len(required)
        a_ll = adj.astype(np.int64)  # strictly lower-triangular: a latent DAG

        def backtrack(z: int):
            if z == m:
                a_ol = np.array(pmask)[:, None] >> np.arange(n) & 1  # [z, i]: edge i -> z
                a_lo = np.array(qmask) >> np.arange(n)[:, None] & 1  # [j, z]: edge z -> j
                if _blocks_valid(a_ol, a_ll, a_lo, meas.supports[1:]):
                    solutions.append(UnobservedNetwork.from_blocks(meas.names, a_ol, a_ll, a_lo))
                return
            for p in _submasks(p_allow[z]):
                if p == 0 and indeg[z] == 0:
                    continue
                if any(
                    (z, u) in colmask and qmask[u] & ~allowed_targets((z, u), p)
                    for u in range(z)
                ):
                    continue
                qlim = q_allow[z] & allowed_targets((z, z), p)
                for u in range(z):
                    if (u, z) in colmask:
                        qlim &= allowed_targets((u, z), pmask[u])
                for q in _submasks(qlim):
                    if q == 0 and outdeg[z] == 0:
                        continue
                    pmask[z], qmask[z] = p, q
                    newly = []
                    feasible = True
                    for ridx in deadlines.get(z, []):
                        if covered[ridx]:
                            continue
                        _, i, j = required[ridx]
                        if any(
                            pmask[u] >> i & 1 and qmask[v] >> j & 1
                            for u, v in cover_pairs[ridx]
                        ):
                            covered[ridx] = True
                            newly.append(ridx)
                        else:
                            feasible = False
                            break
                    if feasible:
                        backtrack(z + 1)
                    for ridx in newly:
                        covered[ridx] = False
            pmask[z] = qmask[z] = 0

        backtrack(0)
    return solutions


def _and_all(masks) -> int:
    out = None
    for v in masks:
        out = v if out is None else out & v
    return out if out is not None else 0


def oracle_minimal(meas: LinearMeasurements, m_max: int) -> list[UnobservedNetwork]:
    """Exhaustive minimal-network search for verification at small scale.

    Enumerates every latent-DAG network with up to m_max latent nodes (up to
    canonical form), keeps the consistent ones within the merge search's
    universe (at most one latent path per length between any ordered pair;
    networks outside it are unreachable by node merges), and returns those
    with the smallest latent count, sorted by canonical key.
    """
    if meas.n > ORACLE_MAX_N or m_max > ORACLE_MAX_M or meas.max_k > ORACLE_MAX_K:
        raise ScaleExceeded(
            f"oracle limited to n <= {ORACLE_MAX_N}, m_max <= {ORACLE_MAX_M}, K <= {ORACLE_MAX_K}"
        )
    if not meas.has_latent_paths():
        return [UnobservedNetwork(meas.names, 0, frozenset())]
    start = meas.max_k  # a length-(k+1) path needs k interior latents
    for m in range(start, m_max + 1):
        sols = _enumerate_consistent(meas, m)
        if sols:
            dedup = {canonical_form(g).key: g for g in sols}
            return [g for _, g in sorted(dedup.items())]
    return []
