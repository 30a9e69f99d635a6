"""Network reconstruction from linear measurements.

Three recovery routes plus a small-scale exhaustive oracle:

* ``dtr``          -- directed-tree recovery of the latent subnetwork when
                      every latent node has a unique observed parent and
                      every latent leaf a unique observed child.
* ``nm``           -- node-merging search returning every consistent network
                      with the minimum number of latent nodes: the valid
                      partitions of each class's initial merge graph with
                      the fewest blocks, searched from below within one
                      budget of row entries.
* ``recover_tree`` -- one realization when the unobserved network is a
                      directed tree whose latent nodes all have two parents
                      and two children, built in one pass from the latent
                      path lengths (no search).
* ``oracle_minimal`` -- exhaustive enumeration, the test oracle for ``nm``
                      and ``recover_tree``'s census check (the underlying
                      minimization is NP-hard, so scale limits are enforced).
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

#: Partition rows nm checks at once; bounds its float32 block stacks and
#: walk arrays.
_CHUNK = 2048

#: Row entries nm may check in one class before it gives up on it
#: (CapExceeded): each row checked, prefixes included and over all block
#: counts, counts as the class's initial latent count m0.  A row holds up to
#: m0 entries and its quotient costs O(m0) edges, so this one number bounds
#: both the search's memory and its work at any m0: 2,000,000 rows at m0 = 40.
_BUDGET = 80_000_000

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


def init_graph(meas: LinearMeasurements, cls: frozenset[int]) -> UnobservedNetwork:
    """Initial merge graph: one private latent chain per measurement entry.

    Every S_r[j, i] = 1 with i, j in the class contributes r fresh latent
    nodes forming a path i -> ... -> j of length r + 1.
    """
    n = meas.n
    members = sorted(cls)
    ones = [(k, i, j) for k in range(1, meas.max_k + 1) for i in members for j in members if meas.supports[k][j, i]]
    edges: set[tuple[int, int]] = set()
    m = 0
    for k, i, j in ones:
        chain = [i] + [n + m + t for t in range(k)] + [j]
        m += k
        edges.update(zip(chain, chain[1:]))
    return UnobservedNetwork(meas.names, m, frozenset(edges))


def _quotients(parts, edges, n):
    """The float32 (obs->latent, latent->latent, latent->obs) block stacks
    of a class's init_graph, as the sorted (E, 2) array ``edges``,
    quotiented by each row of ``parts`` (F, m0), all of one latent count:
    initial latent t becomes latent parts[r, t], edges inside one vanish."""
    f, m = len(parts), int(parts.max()) + 1
    u, v = edges.T
    r, ol, ll, lo = np.arange(f)[:, None], u < n, (u >= n) & (v >= n), v < n
    p, b, q = np.zeros((f, m, n), np.float32), np.zeros((f, m, m), np.float32), np.zeros((f, n, m), np.float32)
    p[r, parts[:, v[ol] - n], u[ol]] = 1
    b[r, parts[:, v[ll] - n], parts[:, u[ll] - n]] = 1
    q[r, v[lo], parts[:, u[lo] - n]] = 1
    b[:, np.arange(m), np.arange(m)] = 0
    return p, b, q


def _blocks_valid(p, b, q, supports, _prefix=False) -> np.ndarray:
    """One verdict per network of the stacked blocks: its census equals
    ``supports`` (the S_1.. list) entrywise with at most one path per pair
    and length, and the walk from the observed nodes dies within the latent
    count (so no latent reachable from an observed node lies on a cycle).
    The one census check of nm, recover_tree and the oracle, the latter two
    on a stack of one.  With ``_prefix`` a count may fall short of its
    target (cnt <= target): nm's check of a partial quotient.  The walk runs
    in float32, where matmul is BLAS's, and saturates at 2: min(sum b min(r,
    2), 2) = min(sum b r, 2) for non-negative integers, so every product
    entry is at most 2m, exact far below 2^24, and a cyclic graph's counts
    stay small.  Networks that fail a step leave the walk."""
    p, b, q = (np.asarray(a, np.float32) for a in (p, b, q))
    alive = np.arange(len(b))
    reach = p
    for k in range(len(supports) + b.shape[1]):
        cnt = q @ reach
        target = supports[k] if k < len(supports) else False  # no path past S_K
        fits = ((cnt <= target) if _prefix else (cnt == target)).all(axis=(1, 2))
        if not fits.all():
            alive, reach, b, q = alive[fits], reach[fits], b[fits], q[fits]
        reach = np.minimum(b @ reach, 2)
        if not len(alive) or k + 1 >= len(supports) and not reach.any():
            break
    valid = np.zeros(len(p), dtype=bool)
    valid[alive[~reach.any(axis=(1, 2))]] = True
    return valid


def _disjoint_union(names: tuple[str, ...], nets: tuple[UnobservedNetwork, ...]) -> UnobservedNetwork:
    n = len(names)
    edges: set[tuple[int, int]] = set()
    offset = 0
    for g in nets:
        for a, b in g.edges:
            edges.add((a + offset if a >= n else a, b + offset if b >= n else b))
        offset += g.latent_count
    return UnobservedNetwork(names, offset, frozenset(edges))


def _exact_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by Bareiss's fraction-free elimination: after
    each pivot every entry is a minor of the original, so the division by the
    previous pivot is exact and no rounding tolerance is needed."""
    rows, rank, prev = [r[:] for r in rows], 0, 1
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            rows[i] = [(top[c] * x - rows[i][c] * y) // prev for x, y in zip(rows[i], top)]
        prev, rank = top[c], rank + 1
    return rank


def _prefix_fits(rows, opened, edges, targets, n, m) -> np.ndarray:
    """Whether each restricted-growth row of initial latents 0..t-1, whose
    first opened[r] blocks are open, may still complete to a valid
    partition of m blocks (see nm): the quotient of the edges it assigns
    passes _blocks_valid with counts allowed to fall short (at full length,
    _blocks_valid itself), and m blocks can still cover its uncovered S_1
    entries.  An open block can take an uncovered entry i -> j only if each
    path its new parent i or child j adds is an uncovered target; blocks
    only grow, so an entry no open block can take, an orphan, needs a new
    block.  Orphans picked greedily, none able to share a biclique of
    uncovered targets with one picked before, need one each, and m - opened
    remain.  The float32 products count at most n 0/1 terms."""
    t, m0 = rows.shape[1], edges.max() - n + 1  # the last initial latent has an observed child
    p, b, q = _quotients(rows, edges[edges.max(1) - n < t], n)
    ok = _blocks_valid(p, b, q, targets, t < m0)
    p, q, opened = p[ok], q[ok], opened[ok]
    free, spare = targets[0] & (q @ p == 0), m - opened  # q @ p [r, j, i]: paths i -> z -> j
    if (free.sum((1, 2)) <= spare).all():  # each uncovered entry may still get a block of its own
        return ok
    taken = (~free).astype(np.float32)
    live = (np.arange(p.shape[1]) < opened[:, None])[:, :, None]  # a chunk may hold more blocks than a row opened
    parent = ((q.transpose(0, 2, 1) @ taken == 0) | (p > 0)) & live  # [r, z, i]: z may gain parent i
    child = ((p @ taken.transpose(0, 2, 1) == 0) | (q.transpose(0, 2, 1) > 0)) & live  # [r, z, j]
    takes = child.transpose(0, 2, 1).astype(np.float32) @ parent.astype(np.float32) > 0  # [r, j, i]
    ej, ei = np.nonzero(targets[0])
    orphans = free[:, ej, ei] & ~takes[:, ej, ei]
    need, r = np.zeros(len(p), np.intp), np.arange(len(p))[:, None]
    for _ in range(int(spare.max()) + 1):  # enough to tell need > spare
        need += orphans.any(1)
        o = orphans.argmax(1)[:, None]
        orphans &= ~(free[r, ej, ei[o]] & free[r, ej[o], ei])  # drop the orphans that could share o's block
    ok[ok] = need <= spare
    return ok


def _min_partitions(g0: UnobservedNetwork, edges: np.ndarray, targets: list[np.ndarray], n: int) -> np.ndarray:
    """The valid partitions of a class's initial latents (``g0``, with its
    sorted (E, 2) ``edges`` and S_1.. ``targets``) with the fewest blocks,
    as restricted-growth rows in lexicographic order: row r puts initial
    latent t in block rows[r, t], each block opened by its smallest member.

    The block count m is deepened from max(K, rank S_1): a longest path has
    K distinct interior latents, and S_1 sums one rank-one 0/1 block per
    latent with an observed parent and child.  At each m the initial latents
    are assigned in init_graph's order, each to an open block or to the next
    new one, up to m; the rows that can still open m blocks are checked by
    _prefix_fits after each step, _CHUNK at a time.  Raises CapExceeded once
    the rows checked over all m, times m0, pass _BUDGET.
    """
    m0 = g0.latent_count
    depth = max(k + 1 for k, target in enumerate(targets) if target.any())
    m, checked = max(depth, _exact_rank(targets[0].astype(int).tolist())), 0
    while True:
        rows, opened, block = np.zeros((1, 0), np.min_scalar_type(m0)), np.zeros(1, np.intp), np.arange(m)
        for t in range(m0):  # row r may put latent t in block b <= opened[r] if it can still open m blocks
            grow = (block <= opened[:, None]) & (np.maximum(opened[:, None], block + 1) + m0 - 1 - t >= m)
            checked += int(grow.sum()) * m0
            if checked > _BUDGET:
                raise CapExceeded(f"nm's partition search passed its budget of {_BUDGET} row entries "
                                  f"(rows checked x {m0} initial latents): no partition has fewer than "
                                  f"{m} blocks, and the search for {m} did not end")
            r, z = np.nonzero(grow)
            rows, opened = np.column_stack([rows[r], z.astype(rows.dtype)]), np.maximum(opened[r], z + 1)
            ok = np.concatenate([_prefix_fits(rows[s : s + _CHUNK], opened[s : s + _CHUNK], edges, targets, n, m)
                                 for s in range(0, len(rows), _CHUNK)])
            rows, opened = rows[ok], opened[ok]
            if not len(rows):
                break
        if len(rows):
            return rows
        m += 1


def nm(meas: LinearMeasurements) -> list[UnobservedNetwork]:
    """Node-merging search for all minimal consistent unobserved networks.

    A merge graph of a class is a partition of its init_graph's latents,
    held as the quotient by it: each initial latent replaced by its block,
    blocks ordered by their smallest member, edges inside a block dropped.
    Every minimal network with one latent path per pair and length is such a
    quotient: send position s of the chain for S_k[j, i] to the s-th
    interior latent of the one length-(k + 1) path i -> j.  A minimal
    network has no latent off an observed-to-observed path (it could be
    dropped), and every edge of such a network lies on one, so the map is
    onto and the network is the quotient by its fibres.

    Per class, _min_partitions finds the valid partitions with the fewest
    blocks from below.  Its prune is sound: an assigned latent never moves
    and blocks never merge, so a prefix's quotient is a subgraph of every
    completion's, its walk counts and reachable cycles can only grow, and
    an S_1 entry no open block can take stays so (_prefix_fits).  So every
    prefix of a valid partition passes, and each block count yields exactly
    its valid partitions.  No separate acyclicity test is needed:
    init_graph's chains start at observed nodes, so a latent cycle in a
    quotient keeps the walk alive past the latent count.  Only the minimal
    partitions are built, and deduplicated by canonical key keeping the
    first of each isomorphism class in restricted-growth order.

    Classes combine by disjoint union, sorted by canonical key: no class's
    list holds two isomorphic networks, and an isomorphism keeps each latent
    in its class, so no two unions are isomorphic, and each union is keyed
    once.  The one bound is the search's budget: it raises CapExceeded once
    a class's rows checked, times its initial latent count, pass _BUDGET,
    naming the block count reached.
    """
    per_class: list[list[UnobservedNetwork]] = []
    for cls in connected_classes(meas):
        member = np.zeros(meas.n, dtype=bool)
        member[list(cls)] = True
        inside = np.outer(member, member)
        # An all-zero trailing target asks only what the post-support walk
        # of _blocks_valid checks anyway, so the targets are not trimmed.
        targets = [s.astype(bool) & inside for s in meas.supports[1:]]
        g0 = init_graph(meas, cls)
        edges = np.array(sorted(g0.edges))
        blocks = _quotients(_min_partitions(g0, edges, targets, meas.n), edges, meas.n)
        nets = [UnobservedNetwork.from_blocks(meas.names, *net) for net in zip(*blocks)]
        per_class.append(list({canonical_form(g): g for g in reversed(nets)}.values()))
    return sorted((_disjoint_union(meas.names, choice) for choice in itertools.product(*per_class)), key=canonical_form)


def _latent_forest(a_ll: np.ndarray) -> bool:
    """Whether the latent skeleton of the boolean block a_ll, each directed
    edge an undirected one, is a forest: a multigraph is one iff its edge
    and component counts sum to its node count."""
    return a_ll.sum() + len(_components(a_ll)) == len(a_ll)


def recover_tree(meas: LinearMeasurements) -> UnobservedNetwork:
    """A tree realization of the measurements, built in one pass.

    For a directed tree whose latents all have two parents and two children.
    It need not be the only one: when an observed node feeds several latent
    components, nm can find two minimal networks that pass the tree filter,
    and this returns one of them.  A node's *profile* holds (i, d) for each
    observed i with a latent path of length d into it (a sink's is its ``distance_matrix`` column); profiles a
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
            and _blocks_valid(p[None], b[None], q[None], meas.supports[1:])[0]):
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
        key = canonical_form(g)
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
        # paths[d][v, u]: a latent path u -> v of d edges, the walk with A12 = A21 = I
        eye = np.eye(m, dtype=bool)
        paths = _walk(eye, eye, eye, adj)[1:]
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
                if _blocks_valid(a_ol[None], a_ll[None], a_lo[None], meas.supports[1:])[0]:
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
            dedup = {canonical_form(g): g for g in sols}
            return [g for _, g in sorted(dedup.items())]
    return []
