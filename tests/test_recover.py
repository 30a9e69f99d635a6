"""Recovery tests: node profiles, unique parents, DTR, the merge search, the
tree route, and the exhaustive oracle."""

import itertools
import sys

import numpy as np
import pytest

import latentvar as lv
from latentvar.errors import InconsistentRecovery, NotIdentifiable
from latentvar.model import LinearMeasurements, UnobservedNetwork, consistent
from latentvar.recover import (
    _blocks_valid,
    _disjoint_union,
    _exact_rank,
    _latent_forest,
    _min_partitions,
    _prefix_fits,
    _quotients,
    canonical_form,
    connected_classes,
    distance_matrix,
    init_graph,
    nm,
    node_profiles,
    unique_parents,
)
from conftest import (
    canon_keys,
    gen_degree_tree,
    gen_latent_digraph,
    gen_single_path_instance,
    gen_unique_parent_tree,
    latent_path_counts,
    matches_tree_recovery,
    single_path_per_length,
)


def meas_from_entries(n, entries, names=None):
    """entries: iterable of (k, source, target) with k >= 1."""
    k_max = max((k for k, _, _ in entries), default=0)
    supports = [np.zeros((n, n), dtype=int) for _ in range(k_max + 1)]
    for k, i, j in entries:
        supports[k][j, i] = 1
    return lv.LinearMeasurements(n, supports, names)


@pytest.fixture
def nested_tree_network():
    # observed 1..5 (ids 0..4), latent a,b,c,d (ids 5..8)
    edges = {
        (0, 5), (2, 6), (1, 7), (3, 8),        # unique observed parents
        (5, 6), (5, 7), (6, 8),                # latent tree a->b, a->c, b->d
        (6, 3), (8, 1), (8, 3), (7, 4),        # latent -> observed
        (4, 6), (4, 8),                        # extra observed parents of b, d
    }
    names = tuple(str(i + 1) for i in range(5))
    return lv.UnobservedNetwork(names, 4, frozenset(edges))


class TestNodeProfiles:
    def test_ambiguous_example(self, ambig_meas):
        prof = {p.node: p for p in node_profiles(ambig_meas)}
        assert prof[0].l_i == 3 and prof[0].r_i == {3}
        assert prof[1].l_i == 3 and prof[1].r_i == {3}
        assert prof[1].m_i == {(2, 2), (3, 3)}
        assert prof[2].l_i == 0 and prof[3].l_i == 0

    def test_no_latent_paths(self):
        meas = lv.LinearMeasurements(3, [np.eye(3, dtype=int)])
        for p in node_profiles(meas):
            assert p.l_i == 0 and not p.r_i and not p.m_i

    def test_single_entry(self):
        meas = meas_from_entries(4, [(1, 1, 2)])
        prof = {p.node: p for p in node_profiles(meas)}
        assert prof[1].l_i == 2
        assert prof[1].r_i == {2}
        assert prof[1].m_i == {(2, 2)}


class TestUniqueParents:
    def test_dairy(self, dairy_meas):
        assert unique_parents(node_profiles(dairy_meas)) == [0]

    def test_nested_tree(self, nested_tree_network):
        meas = lv.complete_census(nested_tree_network)
        assert unique_parents(node_profiles(meas)) == [0, 1, 2, 3]

    def test_empty(self):
        meas = lv.LinearMeasurements(2, [np.zeros((2, 2), dtype=int)])
        assert unique_parents(node_profiles(meas)) == []


class TestDtr:
    def test_dairy(self, dairy_meas):
        net = lv.dtr(dairy_meas)
        assert net.latent_count == 1
        assert net.edges == frozenset({(0, 2), (2, 1)})  # milk -> h -> cheese

    def test_west_german(self, west_german_meas):
        net = lv.dtr(west_german_meas)
        assert net.latent_count == 1
        assert net.edges == frozenset({(0, 2), (2, 0), (2, 1)})

    def test_empty_measurements(self):
        meas = lv.LinearMeasurements(3, [np.eye(3, dtype=int)])
        net = lv.dtr(meas)
        assert net.latent_count == 0

    def test_uneven_sibling_depths(self):
        # tree a->b, a->c, b->d where c's subtree is shallower than b's;
        # the exact-depth parent rule alone misses a->c
        n = 6
        names = tuple(str(i + 1) for i in range(n))
        edges = {
            (0, 6), (2, 7), (1, 8), (3, 9),    # 1->a, 3->b, 2->c, 4->d
            (6, 7), (6, 8), (7, 9),            # a->b, a->c, b->d
            (8, 4), (9, 5),                    # c->5, d->6
        }
        g = lv.UnobservedNetwork(names, 4, frozenset(edges))
        meas = lv.complete_census(g)
        rec = lv.dtr(meas)
        assert matches_tree_recovery(g, rec)

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_random_trees(self, seed):
        rng = np.random.default_rng(1000 + seed)
        for _ in range(25):
            g = gen_unique_parent_tree(rng)
            rec = lv.dtr(lv.complete_census(g))
            assert matches_tree_recovery(g, rec)

    def test_inconsistent_input_raises(self, ambig_meas):
        # the ambiguous measurements admit no unique-parent tree
        with pytest.raises(lv.InconsistentRecovery):
            lv.dtr(ambig_meas)


#: Safety valve for the tree-assignment search inside reference_dtr.
_DTR_SEARCH_LIMIT = 200_000


def reference_dtr(meas):
    """``dtr`` as it was when it searched every parent assignment (the
    exact-depth candidates, then the other viable ones by (l_i, index), then
    root, for each anchor) and returned the first consistent one.  Kept as
    the reference for the one-pass wiring; its body is unchanged."""
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
    base_edges: set[tuple[int, int]] = set()
    s1 = meas.supports[1]
    for s in anchors:
        base_edges.add((s, latent_id[s]))
        for j in np.flatnonzero(s1[:, s]):
            base_edges.add((latent_id[s], int(j)))
    for i in range(n):
        for s in anchors:
            if prof[s].m_i <= prof[i].m_i:
                base_edges.add((i, latent_id[s]))

    options: list[list[int | None]] = []
    for s in anchors:
        shifted = {(j, r + 1) for j, r in prof[s].m_i}
        viable = [k for k in anchors if k != s and shifted <= prof[k].m_i]
        exact = [
            k
            for k in viable
            if prof[k].l_i == prof[s].l_i + 1 and prof[s].r_i <= prof[k].r_i
        ]
        rest = sorted((k for k in viable if k not in exact), key=lambda k: (prof[k].l_i, k))
        options.append([*exact, *rest, None])

    tried = 0
    for assignment in itertools.product(*options):
        tried += 1
        if tried > _DTR_SEARCH_LIMIT:
            raise InconsistentRecovery("tree-assignment search exceeded its limit")
        edges = set(base_edges)
        for s, parent in zip(anchors, assignment):
            if parent is not None:
                edges.add((latent_id[parent], latent_id[s]))
        candidate = UnobservedNetwork(meas.names, m, frozenset(edges))
        if consistent(candidate, meas):
            return candidate
    raise InconsistentRecovery("no latent tree reproduces the measurements")


def flip_one_entry(rng, meas):
    """The measurements with one random entry of one random S_k (k >= 1)
    flipped; None when that leaves no latent path."""
    supports = [s.copy() for s in meas.supports]
    k = int(rng.integers(1, len(supports)))
    i, j = (int(v) for v in rng.integers(0, meas.n, size=2))
    supports[k][i, j] ^= 1
    out = lv.LinearMeasurements(meas.n, supports, meas.names)
    return out if out.has_latent_paths() else None


def dtr_comparison_inputs(scale):
    """Seeded measurements for comparing dtr with reference_dtr; ``scale``
    multiplies the count of each family (1 gives 56 inputs)."""
    rng = np.random.default_rng(11)
    for n_max, m_max, count in ((12, 5, 3), (20, 12, 2), (30, 20, 1)):
        for _ in range(count * scale):
            yield lv.complete_census(gen_unique_parent_tree(rng, n_max, m_max))
    rng = np.random.default_rng(12)
    for _ in range(30 * scale):
        got = gen_single_path_instance(rng, n_max=6, init_cap=30)
        if got is not None:
            yield got[1]
    rng = np.random.default_rng(99)
    for i in range(12 * scale):
        yield lv.complete_census(gen_unique_parent_tree(rng, p_extra=(0.3, 0.5)[i % 2]))
    for _ in range(8 * scale):
        got = flip_one_entry(rng, lv.complete_census(gen_unique_parent_tree(rng)))
        if got is not None:
            yield got


def route_outcome(fn, meas):
    """Canonical key of fn's network, or the type of the error it raised."""
    try:
        return lv.canonical_form(fn(meas))
    except lv.LatentVarError as exc:
        return type(exc)


class TestDtrMatchesSearch:
    def test_same_network_or_error_as_the_search(self):
        outcomes = [
            (route_outcome(lv.dtr, meas), route_outcome(reference_dtr, meas))
            for meas in dtr_comparison_inputs(scale=30)
        ]
        assert len(outcomes) > 1600
        assert all(got == want for got, want in outcomes)
        # both kinds of outcome are exercised
        assert any(isinstance(got, bytes) for got, _ in outcomes)
        assert InconsistentRecovery in {got for got, _ in outcomes}

    def test_consistency_checked_once(self, monkeypatch):
        # node 1 reaches 0 in two steps, node 0 reaches 0 and 1 in three: the
        # search tries two wirings before giving up, dtr checks its one wiring
        meas = meas_from_entries(2, [(1, 1, 0), (2, 0, 0), (2, 0, 1)])
        calls = []

        def counting(g, meas):
            calls.append(g)
            return lv.consistent(g, meas)

        monkeypatch.setattr(sys.modules[__name__], "consistent", counting)
        with pytest.raises(InconsistentRecovery):
            reference_dtr(meas)
        assert len(calls) == 2
        calls.clear()
        monkeypatch.setattr("latentvar.recover.consistent", counting)
        with pytest.raises(InconsistentRecovery):
            lv.dtr(meas)
        assert len(calls) == 1


class TestDistanceMatrix:
    def test_single_entry(self):
        meas = meas_from_entries(4, [(1, 1, 2)])
        assert distance_matrix(meas)[1, 2] == 2

    def test_all_zero(self):
        meas = lv.LinearMeasurements(3, [np.zeros((3, 3), dtype=int)])
        assert not distance_matrix(meas).any()

    def test_ambiguous_example(self, ambig_meas):
        d = distance_matrix(ambig_meas)
        want = np.zeros((4, 4), dtype=int)
        want[1, 2] = 2
        want[0, 3] = 3
        want[1, 3] = 3
        assert np.array_equal(d, want)

    def test_ambiguous_pair(self):
        meas = meas_from_entries(3, [(1, 0, 1), (2, 0, 1)])
        with pytest.raises(lv.AmbiguousDistance):
            distance_matrix(meas)


def initial_latents(meas):
    """Latent count of the merge search's initial graph, sum_k k |S_k|."""
    return sum(k * int(s.sum()) for k, s in enumerate(meas.supports))


def star_network(parents, children):
    """One latent with ``parents`` observed parents and ``children`` observed children."""
    n = parents + children
    edges = {(i, n) for i in range(parents)} | {(n, j) for j in range(parents, n)}
    return lv.UnobservedNetwork(tuple(str(i + 1) for i in range(n)), 1, frozenset(edges))


@pytest.mark.usefixtures("no_merge_search")
class TestRecoverTree:
    def test_star(self):
        star = star_network(2, 2)
        rec = lv.recover_tree(lv.complete_census(star))
        assert lv.canonical_form(rec) == lv.canonical_form(star)

    def test_dairy_not_identifiable(self, dairy_meas):
        with pytest.raises(lv.NotIdentifiable, match="0 candidate networks satisfy the tree conditions"):
            lv.recover_tree(dairy_meas)

    def test_empty_measurements(self):
        meas = lv.LinearMeasurements(2, [np.zeros((2, 2), dtype=int)])
        assert lv.recover_tree(meas).latent_count == 0

    def test_seven_by_seven_star_needs_no_cap(self):
        # 49 initial merge latents, built in one pass with no search
        star = star_network(7, 7)
        meas = lv.complete_census(star)
        assert initial_latents(meas) == 49
        assert lv.recover_tree(meas) == star

    def test_observed_node_feeding_two_latent_components(self):
        # a feeds latents A and B, so the sink profiles agree on a spurious
        # profile; walking up from the sinks never reaches it
        names = tuple("abcdef")
        a_parents, a_children, b_parents, b_children = (0, 3, 5), (0, 4, 5), (0, 4), (1, 3)
        edges = {(i, 6) for i in a_parents} | {(6, j) for j in a_children}
        edges |= {(i, 7) for i in b_parents} | {(7, j) for j in b_children}
        g = lv.UnobservedNetwork(names, 2, frozenset(edges))
        rec = lv.recover_tree(lv.complete_census(g))
        assert lv.canonical_form(rec) == lv.canonical_form(g)

    def test_random_hidden_trees(self):
        # >= 100 random tree networks whose latent nodes all have >= 2
        # parents and >= 2 children recover to the exact ground truth
        rng = np.random.default_rng(2000)
        for _ in range(100):
            g = gen_degree_tree(rng, m_max=12)
            rec = lv.recover_tree(lv.complete_census(g))
            assert lv.canonical_form(rec) == lv.canonical_form(g)

    def test_random_hidden_trees_up_to_32_latents(self):
        # the census check's float32 walk on trees past the sizes above
        rng = np.random.default_rng(2032)
        sizes = []
        for _ in range(20):
            g = gen_degree_tree(rng, m_max=32)
            rec = lv.recover_tree(lv.complete_census(g))
            assert lv.canonical_form(rec) == lv.canonical_form(g)
            sizes.append(g.latent_count)
        assert max(sizes) > 20


def test_recover_tree_returns_one_of_several_tree_shaped_minima():
    # n = 6: the merge search finds two minimal networks that pass the tree
    # filter, and recover_tree returns one of them, so it is not unique here
    edges = {(0, 7), (0, 8), (1, 6), (1, 8), (2, 8), (4, 6), (4, 7), (6, 0), (6, 2), (6, 3), (7, 3), (7, 5), (8, 3), (8, 5)}
    meas = lv.complete_census(lv.UnobservedNetwork(tuple("abcdef"), 3, frozenset(edges)))
    rec = lv.recover_tree(meas)
    assert lv.consistent(rec, meas)
    keys = [lv.canonical_form(g) for g in lv.nm(meas)]
    assert len(keys) == 2 and lv.canonical_form(rec) in keys


def reference_recover_tree(meas):
    """``recover_tree`` as it was when it ran the merge search and kept the
    one minimal network passing the tree and degree filters.  Kept as the
    reference for the one-pass construction; its body is unchanged."""
    distance_matrix(meas)
    keep = []
    for g in nm(meas):
        _, a_ol, a_ll, a_lo = g.adjacency_blocks()
        indeg, outdeg = a_ol.sum(1) + a_ll.sum(1), a_lo.sum(0) + a_ll.sum(0)
        if _latent_forest(a_ll) and (indeg >= 2).all() and (outdeg >= 2).all():
            keep.append(g)
    if len(keep) != 1:
        raise NotIdentifiable(f"{len(keep)} candidate networks satisfy the tree conditions")
    return keep[0]


def tree_comparison_inputs(count):
    """Seeded measurements from the three tree-route families, each with at
    most 12 initial merge latents (the reference's cost is exponential)."""
    rng = np.random.default_rng(77)
    draws = [gen_single_path_instance(rng, n_max=6, init_cap=12) for _ in range(count)]
    for got in filter(None, draws):
        yield got[1]
    for gen in (gen_unique_parent_tree, gen_degree_tree):
        for _ in range(count):
            meas = lv.complete_census(gen(rng))
            if initial_latents(meas) <= 12:
                yield meas


class TestRecoverTreeMatchesReference:
    def test_same_network_or_error_as_the_search(self, monkeypatch):
        inputs = list(tree_comparison_inputs(count=80))
        want = [route_outcome(reference_recover_tree, meas) for meas in inputs]
        # the reference is done with the merge search; the new route never calls it
        monkeypatch.setattr("latentvar.recover.nm", None)
        monkeypatch.setattr("latentvar.recover.init_graph", None)
        got = [route_outcome(lv.recover_tree, meas) for meas in inputs]
        assert got == want
        assert len(got) > 140
        assert {type(o) if isinstance(o, bytes) else o for o in got} == {bytes, NotIdentifiable, lv.AmbiguousDistance}


def reference_single_path_consistent(g, meas):
    """The census check recover_tree and the oracle ran before both moved to
    _blocks_valid: ``consistent(g, meas) and single_path_per_length(g)`` from
    one read of the latent path counts.  Kept as the reference; body unchanged."""
    counts = latent_path_counts(g)
    return (all((c <= 1).all() for c in counts[1:])
            and LinearMeasurements(meas.n, [meas.supports[0], *counts[1:]]) == meas)


def one_edge_toggles(g):
    """g with one edge added or removed, for every pair but observed ->
    observed and latent self-loops, where the latent part stays a DAG."""
    nodes = range(g.n + g.latent_count)
    for u, v in itertools.product(nodes, nodes):
        if u != v and max(u, v) >= g.n:
            h = UnobservedNetwork(g.observed, g.latent_count, g.edges ^ {(u, v)})
            if h.latent_subgraph_is_dag():
                yield h


class TestBlocksValidMatchesReference:
    # Only latent DAGs are compared.  On a latent cycle the reference raises
    # CyclicLatent, while _blocks_valid returns False, or True when no observed
    # node reaches the cycle; neither caller hands it one: recover_tree runs
    # its forest test first and the oracle's latent shapes are strictly
    # lower-triangular.
    @pytest.mark.parametrize("family", ["single_path", "degree_tree"])
    def test_networks_and_their_one_edge_perturbations(self, family):
        rng = np.random.default_rng(91)
        if family == "single_path":
            bases = [got[0] for got in (gen_single_path_instance(rng, n_max=6, init_cap=12) for _ in range(30)) if got]
        else:
            bases = [gen_degree_tree(rng, m_max=5) for _ in range(20)]
        outcomes, multi = [], 0
        for g in bases:
            meas = lv.complete_census(g)
            for h in [g, *one_edge_toggles(g)]:
                multi += not single_path_per_length(h)
                # h against g's census, and g against h's
                for net, target in ((h, meas), (g, lv.complete_census(h))):
                    want = reference_single_path_consistent(net, target)
                    assert valid_one(int_blocks(net), target.supports[1:]) == want
                    outcomes.append(want)
        assert len(outcomes) > 1000 and multi > 0
        assert {True, False} <= set(outcomes)


class TestConnectedClasses:
    def test_ambiguous_example_single_class(self, ambig_meas):
        assert connected_classes(ambig_meas) == [frozenset({0, 1, 2, 3})]

    def test_two_pairs(self):
        meas = meas_from_entries(4, [(1, 0, 1), (1, 2, 3)])
        assert connected_classes(meas) == [frozenset({0, 1}), frozenset({2, 3})]

    def test_no_latent_entries(self):
        meas = lv.LinearMeasurements(3, [np.eye(3, dtype=int)])
        assert connected_classes(meas) == []

    def test_self_path_counts_as_incident(self):
        meas = meas_from_entries(3, [(1, 1, 1)])
        assert connected_classes(meas) == [frozenset({1})]


def reference_connected_classes(meas):
    """connected_classes as it was when it walked each class by depth-first
    search; kept as the reference for the closure-based routine, body unchanged."""
    n = meas.n
    und = np.zeros((n, n), dtype=bool)
    for s in meas.supports[1:]:
        und |= s.astype(bool) | s.astype(bool).T
    incident = und.any(axis=0)
    classes = []
    seen: set[int] = set()
    for start in range(n):
        if not incident[start] or start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in np.flatnonzero(und[u]):
                if int(v) not in comp:
                    comp.add(int(v))
                    stack.append(int(v))
        seen |= comp
        classes.append(frozenset(comp))
    return classes


def reference_latent_skeleton_is_forest(g):
    """The union-find forest filter recover_tree ran on the latent edge set
    before it read the blocks; kept as the reference for _latent_forest,
    body unchanged."""
    parent = {z: z for z in g.latent_ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in g.latent_edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


class TestComponentsAgainstReferences:
    @pytest.mark.parametrize("seed", range(4))
    def test_connected_classes_match_dfs(self, seed):
        rng = np.random.default_rng(1400 + seed)
        several = omitted = self_path = 0
        for _ in range(150):
            n = int(rng.integers(0, 9))
            k_max = int(rng.integers(1, 4))
            density = rng.uniform(0.0, 0.15)
            supports = [rng.random((n, n)) < 0.3] + [rng.random((n, n)) < density for _ in range(k_max)]
            meas = lv.LinearMeasurements(n, [s.astype(int) for s in supports])
            want = reference_connected_classes(meas)
            assert connected_classes(meas) == want
            several += len(want) > 1
            omitted += sum(map(len, want)) < n
            self_path += any(len(c) == 1 for c in want)
        assert several and omitted and self_path

    @pytest.mark.parametrize("seed", range(4))
    def test_forest_filter_matches_union_find(self, seed):
        rng = np.random.default_rng(1500 + seed)
        not_forest = two_cycle = isolated = split = 0
        for _ in range(150):
            g = gen_latent_digraph(rng)
            want = reference_latent_skeleton_is_forest(g)
            assert _latent_forest(g.adjacency_blocks()[2]) == want
            edges = g.latent_edges
            not_forest += not want
            two_cycle += any((v, u) in edges for u, v in edges)
            isolated += any(not any(z in e for e in edges) for z in g.latent_ids)
            # a forest with m - E components: at least two, one of them not a lone node
            split += want and 1 <= len(edges) <= g.latent_count - 2
        assert not_forest and two_cycle and isolated and split

    @pytest.mark.parametrize(
        "latent_edges, want",
        [
            ((), True),                          # isolated latents
            (((0, 1), (1, 0)), False),           # 2-cycle
            (((0, 1), (2, 3)), True),            # two disconnected chains
            (((0, 1), (1, 2), (0, 2)), False),   # undirected triangle, acyclic digraph
            (((0, 1), (0, 2), (0, 3)), True),    # star
            (((0, 1), (2, 3), (3, 2)), False),   # a 2-cycle in one of two parts
        ],
    )
    def test_forest_filter_fixed_shapes(self, latent_edges, want):
        g = lv.UnobservedNetwork(("a",), 4, frozenset((1 + u, 1 + v) for u, v in latent_edges))
        assert reference_latent_skeleton_is_forest(g) == want
        assert _latent_forest(g.adjacency_blocks()[2]) == want


class TestInitGraph:
    def test_single_entry(self):
        meas = meas_from_entries(4, [(1, 1, 2)])
        g = init_graph(meas, frozenset({1, 2}))
        assert g.latent_count == 1
        assert g.edges == frozenset({(1, 4), (4, 2)})

    def test_ambiguous_example_count(self, ambig_meas):
        g = init_graph(ambig_meas, frozenset({0, 1, 2, 3}))
        assert g.latent_count == 5

    def test_empty_class(self, ambig_meas):
        g = init_graph(ambig_meas, frozenset())
        assert g.latent_count == 0 and not g.edges


def int_blocks(g):
    """g's (obs->latent, latent->latent, latent->obs) blocks as int64 arrays."""
    return [a.astype(np.int64) for a in g.adjacency_blocks()[1:]]


def census_targets(meas):
    """The S_1.. supports as the boolean targets _blocks_valid compares with."""
    return [s.astype(bool) for s in meas.supports[1:]]


def merge_blocks(p, b, q, f, x, y):
    """Fold latent y[c] into latent x[c] of stacked network f[c], for every
    candidate c, in the (obs->latent, latent->latent, latent->obs) block
    stacks: drop the pair's mutual edges, hand y's parents and children to x,
    and delete y's row and column.  nm's former merge step, kept as the
    reference for _quotients: any order of folds that reaches a partition
    gives the quotient by it."""
    m = b.shape[1]
    c = np.arange(len(f))
    keep = np.arange(m - 1) + (np.arange(m - 1) >= y[:, None])  # old index of each kept latent
    x = x - (x > y)  # x's index once y is gone
    fk, yk = f[:, None], y[:, None]
    p2 = p[fk, keep]
    b2 = b[fk[:, :, None], keep[:, :, None], keep[:, None, :]]
    q2 = q[fk[:, :, None], np.arange(q.shape[1])[:, None], keep[:, None, :]]
    p2[c, x] |= p[f, y]
    b2[c, x] |= b[fk, yk, keep]
    b2[c, :, x] |= b[fk, keep, yk]
    b2[c, x, x] = 0  # edges between the merged pair vanish
    q2[c, :, x] |= q[f, :, y]
    return p2, b2, q2


def merge_one(blocks, x, y):
    """merge_blocks on a stack of one network and one pair, unstacked."""
    one = np.zeros(1, dtype=np.intp)
    return [a[0] for a in merge_blocks(*(a[None] for a in blocks), one, one + x, one + y)]


def valid_one(blocks, targets):
    """_blocks_valid's verdict on one network, as a stack of one."""
    (verdict,) = _blocks_valid(*(a[None] for a in blocks), targets)
    return bool(verdict)


class TestMerge:
    def test_parallel_paths(self):
        g = lv.UnobservedNetwork(
            ("1", "2"), 2, frozenset({(0, 2), (2, 1), (0, 3), (3, 1)})
        )
        merged = UnobservedNetwork.from_blocks(g.observed, *merge_one(int_blocks(g), 0, 1))
        assert merged.latent_count == 1
        assert merged.edges == frozenset({(0, 2), (2, 1)})

    def test_chain_drops_mutual_edge(self):
        g = lv.UnobservedNetwork(("1", "2"), 2, frozenset({(0, 2), (2, 3), (3, 1)}))
        merged = UnobservedNetwork.from_blocks(g.observed, *merge_one(int_blocks(g), 0, 1))
        assert merged.edges == frozenset({(0, 2), (2, 1)})

    def test_observed_set_preserved(self):
        g = lv.UnobservedNetwork(("a", "b"), 2, frozenset({(0, 2), (3, 1)}))
        p, b, q = merge_one(int_blocks(g), 0, 1)
        assert p.shape == (1, 2) and b.shape == (1, 1) and q.shape == (2, 1)


class TestCheck:
    def test_shortening_required_path_fails(self):
        meas = meas_from_entries(2, [(2, 0, 1)])
        g = init_graph(meas, frozenset({0, 1}))
        assert not valid_one(merge_one(int_blocks(g), 0, 1), census_targets(meas))

    def test_ambiguous_example_level_one_merge(self, ambig_meas):
        g = init_graph(ambig_meas, frozenset({0, 1, 2, 3}))
        targets = census_targets(ambig_meas)
        # interior nodes of the two length-3 chains 1 -> h -> t -> 4 and
        # 2 -> h -> t -> 4: the latents next to an observed node and a latent
        heads = sorted(v - 4 for u, v in g.edges if u < 4 <= v and any(a == v and b >= 4 for a, b in g.edges))
        tails = sorted(u - 4 for u, v in g.edges if v < 4 <= u and any(b == u and a >= 4 for a, b in g.edges))
        assert len(heads) == len(tails) == 2
        # one shared tail keeps a single path per length; one shared head
        # gives 1 two paths of length 3 to 4
        assert valid_one(merge_one(int_blocks(g), *tails), targets)
        assert not valid_one(merge_one(int_blocks(g), *heads), targets)

    def test_cycle_creating_merge_fails(self):
        # 1 -> a -> b -> 2 and 1 -> c -> a; merging b and c makes a 2-cycle
        g = lv.UnobservedNetwork(
            ("1", "2"), 3, frozenset({(0, 2), (2, 3), (3, 1), (0, 4), (4, 2)})
        )
        meas = lv.complete_census(g)
        assert not valid_one(merge_one(int_blocks(g), 1, 2), census_targets(meas))


class TestNm:
    def test_ambiguous_example_pair(self, ambig_left, ambig_right, ambig_meas):
        nets = lv.nm(ambig_meas)
        assert [g.latent_count for g in nets] == [3, 3]
        assert canon_keys(nets) == canon_keys([ambig_left, ambig_right])

    def test_single_path(self):
        meas = meas_from_entries(4, [(1, 1, 2)])
        nets = lv.nm(meas)
        assert len(nets) == 1
        assert nets[0].edges == frozenset({(1, 4), (4, 2)})

    def test_two_disjoint_classes(self):
        meas = meas_from_entries(4, [(1, 0, 1), (1, 2, 3)])
        nets = lv.nm(meas)
        assert len(nets) == 1
        assert nets[0].latent_count == 2

    def test_no_latent_entries(self):
        meas = lv.LinearMeasurements(3, [np.eye(3, dtype=int)])
        nets = lv.nm(meas)
        assert len(nets) == 1 and nets[0].latent_count == 0

    def test_cap_respected(self, ambig_meas, monkeypatch):
        # the search checks 20 rows of 5 initial latents, 100 row entries
        monkeypatch.setattr("latentvar.recover._BUDGET", 99)
        with pytest.raises(lv.CapExceeded, match=r"budget of 99 row entries \(rows checked x 5 initial latents\)"):
            lv.nm(ambig_meas)

    def test_outputs_sorted_and_deterministic(self, ambig_meas):
        a = lv.nm(ambig_meas)
        b = lv.nm(ambig_meas)
        assert [lv.canonical_form(g) for g in a] == [
            lv.canonical_form(g) for g in b
        ]
        keys = [lv.canonical_form(g) for g in a]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("seed", range(10))
    def test_soundness_and_uniform_count(self, seed):
        rng = np.random.default_rng(3000 + seed)
        got = gen_single_path_instance(rng)
        if got is None:
            pytest.skip("no instance drawn")
        _, meas = got
        nets = lv.nm(meas)
        assert nets
        counts = {g.latent_count for g in nets}
        assert len(counts) == 1
        for g in nets:
            assert lv.consistent(g, meas)
            assert g.latent_subgraph_is_dag()


def pipeline_seed3_measurements():
    """S_1 of ``latentvar pipeline panel.csv --mode nm`` on the panel of
    ``latentvar simulate --n 10 --m 5 --p 0.4 --q 0.4 --a 0.3 --T 20000
    --seed 3``: one class of 31 initial merge latents, nothing past S_1.
    Row j, column i is the entry i -> z -> j; S_0 is left empty."""
    rows = ["0000010110", "0000010110", "0001101001", "0001010110", "1001111000",
            "0001101111", "0000000000", "0000010110", "0000010000", "0000000110"]
    s1 = np.array([[int(c) for c in row] for row in rows])
    return lv.LinearMeasurements(10, [np.zeros((10, 10), dtype=int), s1])


class TestNmLag1:
    # classes whose measurements stop at S_1: a valid partition there has no
    # latent -> latent edge, so it is a partition of the S_1 entries into
    # bicliques P x C, and the search starts at the rank of S_1
    @pytest.mark.parametrize("parents, children", [(3, 5), (2, 7), (7, 7)])
    def test_star_census_is_its_star(self, parents, children):
        # 15, 14 and 49 initial latents; merging from the top took 5.8 s and
        # 10.9 s on the first two
        star = star_network(parents, children)
        assert lv.nm(lv.complete_census(star)) == [star]

    def test_31_latent_class_in_a_few_thousand_nodes(self, monkeypatch):
        # merging from the top ran out of a 2 GB memory limit on this class;
        # the search from below checks 1,424 rows of 31 initial latents
        meas = pipeline_seed3_measurements()
        assert initial_latents(meas) == 31
        monkeypatch.setattr("latentvar.recover._BUDGET", 3_000 * 31)
        nets = lv.nm(meas)
        assert len(nets) == 15 and {g.latent_count for g in nets} == {5}
        assert all(lv.consistent(g, meas) for g in nets)

    def test_budget_names_itself_and_the_blocks_reached(self, monkeypatch):
        # the 8-cycle as a 4 x 4 S_1 has rank 3 but needs 4 bicliques
        meas = meas_from_entries(4, [(1, i, j) for i, j in [(0, 2), (0, 3), (1, 1), (1, 2), (2, 0), (2, 3), (3, 0), (3, 1)]])
        assert np.linalg.matrix_rank(meas.supports[1]) == 3
        assert [g.latent_count for g in lv.nm(meas)] == [4, 4]
        # 3 blocks fail within 10 rows of 8 initial latents; 4 take 62 rows
        monkeypatch.setattr("latentvar.recover._BUDGET", 10 * 8)
        with pytest.raises(lv.CapExceeded, match=r"budget of 80 row entries \(rows checked x 8 initial latents\): "
                                                 "no partition has fewer than 4 blocks"):
            lv.nm(meas)

    def test_exact_rank_matches_the_svd_rank(self):
        rng = np.random.default_rng(38)
        for _ in range(2000):
            rows, cols = rng.integers(1, 12, size=2)
            mat = (rng.random((rows, cols)) < rng.random()).astype(int)
            if rng.random() < 0.5:  # low rank: a boolean product of thin factors
                k = rng.integers(1, 4)
                mat = ((rng.random((rows, k)) < 0.5).astype(int) @ (rng.random((k, cols)) < 0.5) > 0).astype(int)
            assert _exact_rank(mat.tolist()) == np.linalg.matrix_rank(mat)
        assert _exact_rank([]) == 0

    def test_dense_classes_past_the_merge_tests_reach(self):
        # 13-30 initial latents, past the 12 the nm comparison draws reach:
        # every output is consistent, and its one latent count lies between
        # the rank of S_1 and the star count, as each source's star (or each
        # target's) is a valid partition
        rng = np.random.default_rng(39)
        drawn = 0
        while drawn < 12:
            n = int(rng.integers(4, 9))
            s1 = (rng.random((n, n)) < rng.uniform(0.3, 0.9)).astype(int)
            meas = lv.LinearMeasurements(n, [np.zeros((n, n), dtype=int), s1])
            if not 13 <= s1.sum() <= 30 or len(connected_classes(meas)) != 1:
                continue
            nets = lv.nm(meas)
            assert all(lv.consistent(g, meas) for g in nets)
            (k,) = {g.latent_count for g in nets}
            assert _exact_rank(s1.tolist()) <= k <= min(s1.any(0).sum(), s1.any(1).sum())
            drawn += 1


def test_degree_tree_censuses_past_40_initial_latents():
    # hidden trees of up to 12 latents whose censuses give 41-396 initial
    # latents: the one minimal network is the generator's
    rng = np.random.default_rng(2040)
    drawn = 0
    while drawn < 10:
        g = gen_degree_tree(rng, m_max=12)
        meas = lv.complete_census(g)
        if initial_latents(meas) <= 40:
            continue
        nets = lv.nm(meas)
        assert len(nets) == 1 and lv.consistent(nets[0], meas)
        assert nets[0].latent_count == g.latent_count
        assert lv.canonical_form(nets[0]) == lv.canonical_form(g)
        drawn += 1


def reference_nm(meas):
    """``nm`` as it was when every level tried every latent pair of every
    frontier network and merged each one, from the top down.  Kept as the
    reference for the search from below; its body is unchanged but for
    calling the stacked helpers on one pair at a time."""
    classes = connected_classes(meas)
    per_class: list[list[UnobservedNetwork]] = []
    for cls in classes:
        member = np.zeros(meas.n, dtype=bool)
        member[list(cls)] = True
        inside = np.outer(member, member)
        # An all-zero trailing target asks only what the post-support walk
        # of _blocks_valid checks anyway, so the targets are not trimmed.
        targets = [s.astype(bool) & inside for s in meas.supports[1:]]
        g0 = init_graph(meas, cls)
        _, *blocks0 = (a.astype(np.int64) for a in g0.adjacency_blocks())
        # canonical key -> (network, its int64 blocks), one merge level each
        frontier = {canonical_form(g0): (g0, blocks0)}
        while True:
            nxt: dict[bytes, tuple] = {}
            for _, (p, b, q) in frontier.values():
                for x, y in itertools.combinations(range(b.shape[0]), 2):
                    merged = merge_one((p, b, q), x, y)
                    if not valid_one(merged, targets):
                        continue
                    g = UnobservedNetwork.from_blocks(meas.names, *merged)
                    nxt.setdefault(canonical_form(g), (g, merged))
            if not nxt:
                break
            frontier = nxt
        per_class.append([frontier[key][0] for key in sorted(frontier)])
    if not per_class:
        return [UnobservedNetwork(meas.names, 0, frozenset())]
    combos = {}
    for choice in itertools.product(*per_class):
        g = _disjoint_union(meas.names, choice)
        combos[canonical_form(g)] = g
    return [g for _, g in sorted(combos.items())]


def catalogue_stream(rng):
    """Endless stream of latent-DAG networks with one latent path per length
    and ordered pair, K <= 4 and 9-10 initial merge latents; the draws of
    the benchmark's nm-search catalogue when ``rng`` is default_rng(2017)."""
    while True:
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 6))
        order = rng.permutation(m)
        pos = np.empty(m, dtype=int)
        pos[order] = np.arange(m)
        edges = set()
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
        net = UnobservedNetwork(tuple(str(i + 1) for i in range(n)), m, frozenset(edges))
        if not single_path_per_length(net):
            continue
        meas = lv.complete_census(net)
        init = sum(k * int(s.sum()) for k, s in enumerate(meas.supports))
        if 1 <= meas.max_k <= 4 and 9 <= init <= 10:
            yield meas


def side_by_side(a, b):
    """Measurements of two networks on disjoint observed nodes (two classes)."""
    fa = lambda v: v + b.n * (v >= a.n)  # noqa: E731
    fb = lambda v: v + a.n + a.latent_count * (v >= b.n)  # noqa: E731
    edges = {(fa(u), fa(v)) for u, v in a.edges} | {(fb(u), fb(v)) for u, v in b.edges}
    names = tuple(str(i + 1) for i in range(a.n + b.n))
    return lv.complete_census(UnobservedNetwork(names, a.latent_count + b.latent_count, frozenset(edges)))


def nm_comparison_inputs(draws, stream, unions):
    """Seeded measurements for comparing nm with reference_nm."""
    rng = np.random.default_rng(35)
    singles = [got for got in (gen_single_path_instance(rng, n_max=6, init_cap=12) for _ in range(draws)) if got]
    yield from (meas for _, meas in singles)
    yield from itertools.islice(catalogue_stream(np.random.default_rng(2017)), stream)
    for (a, _), (b, _) in zip(singles[:unions], singles[unions: 2 * unions]):
        yield side_by_side(a, b)


def assert_nm_matches_reference(meas):
    got, want = lv.nm(meas), reference_nm(meas)
    assert [lv.canonical_form(g) for g in got] == [lv.canonical_form(g) for g in want]
    assert got == want


class TestNmMatchesReference:
    def test_same_networks_in_the_same_order(self):
        compared = 0
        for meas in nm_comparison_inputs(draws=50, stream=4, unions=5):
            assert_nm_matches_reference(meas)
            compared += 1
        assert compared > 50

    def test_lag1_draws(self):
        # at most 7 initial latents: reference_nm took 118 s on the 473
        # lag-1 draws of nm_comparison_inputs' generator at 12, and 3.4 s on
        # the 11 draws of 8 among 400 here; the test above reaches 9
        rng = np.random.default_rng(36)
        compared = 0
        while compared < 400:
            got = gen_single_path_instance(rng, n_max=6, init_cap=7)
            if got and got[1].max_k == 1:
                assert_nm_matches_reference(got[1])
                compared += 1

    def test_lag1_class_beside_a_deeper_class(self):
        rng = np.random.default_rng(37)
        draws = [got for got in (gen_single_path_instance(rng, n_max=4, init_cap=8) for _ in range(80)) if got]
        shallow = [net for net, meas in draws if meas.max_k == 1]
        deep = [net for net, meas in draws if meas.max_k > 1]
        for a, b in zip(shallow[:8], deep[:8]):
            assert_nm_matches_reference(side_by_side(a, b))
            assert_nm_matches_reference(side_by_side(b, a))
        assert len(shallow) >= 8 and len(deep) >= 8


def class_targets(meas, cls):
    """The S_1.. targets nm checks a class against: the supports inside it."""
    inside = np.zeros(meas.n, dtype=bool)
    inside[list(cls)] = True
    return [s.astype(bool) & np.outer(inside, inside) for s in meas.supports[1:]]


def min_partitions(meas, cls):
    """_min_partitions on one class."""
    g0 = init_graph(meas, cls)
    return _min_partitions(g0, np.array(sorted(g0.edges)), class_targets(meas, cls), meas.n)


class TestNmKeysOnlyItsOutput:
    # one class: a key per minimal partition, then one per disjoint union
    @pytest.mark.parametrize("source, partitions, networks", [("ambiguous", 2, 2), ("catalogue", 6, 2), ("lag-1", 2, 2)],
                             ids=["ambiguous", "catalogue", "lag-1"])
    def test_keys_per_minimal_partition_and_union(self, source, partitions, networks, ambig_meas, monkeypatch):
        if source == "ambiguous":
            meas = ambig_meas
        else:
            meas = next(m for m in catalogue_stream(np.random.default_rng(2017)) if (m.max_k == 1) == (source == "lag-1"))
        (cls,) = connected_classes(meas)
        assert len(min_partitions(meas, cls)) == partitions
        calls = []
        monkeypatch.setattr("latentvar.recover.canonical_form", lambda g: calls.append(g) or canonical_form(g))
        assert len(lv.nm(meas)) == networks
        assert len(calls) == partitions + networks


def merged_partition(part, x, y):
    """Current index of each initial latent after y is folded into x."""
    return tuple(x if t == y else t - (t > y) for t in part)


class TestMergeScreen:
    @pytest.mark.parametrize("seed", range(3))
    def test_a_partition_merged_in_any_order_gives_the_same_blocks(self, seed):
        # nm holds each merge graph as a partition of the initial latents, and
        # _quotients gives the blocks any order of folds reaching it gives
        rng = np.random.default_rng(8000 + seed)
        for _ in range(20):
            got = gen_single_path_instance(rng, n_max=6, init_cap=12)
            if got is None:
                continue
            meas = got[1]
            g0 = init_graph(meas, frozenset(range(meas.n)))
            _, *blocks0 = (a.astype(np.int64) for a in g0.adjacency_blocks())
            m0 = blocks0[1].shape[0]
            label = rng.integers(0, max(1, m0 // 2), size=m0)
            same = [(a, c) for a, c in itertools.combinations(range(m0), 2) if label[a] == label[c]]
            results = []
            merges = 0
            for _order in range(2):
                blocks, part = blocks0, tuple(range(m0))
                for a, c in (same[i] for i in rng.permutation(len(same))):
                    x, y = sorted((part[a], part[c]))
                    if x != y:
                        blocks, part = merge_one(blocks, x, y), merged_partition(part, x, y)
                        merges += 1
                results.append((part, [blk.tobytes() for blk in blocks], [blk.shape for blk in blocks]))
            assert results[0] == results[1]
            quotient = _quotients(np.array([part]), np.array(sorted(g0.edges)), meas.n)
            assert [blk[0].dtype for blk in quotient] == [np.float32] * 3
            assert [(blk[0].shape, blk[0].astype(np.int64).tobytes()) for blk in quotient] == [(blk.shape, blk.tobytes()) for blk in blocks]
            # latents stay ordered by their smallest member
            firsts = sorted({int(np.flatnonzero(label == lab)[0]) for lab in label})
            assert part == tuple(firsts.index(int(np.flatnonzero(label == label[t])[0])) for t in range(m0))
            assert merges == 2 * (m0 - len(set(label.tolist())))


class TestOracleMinimal:
    def test_single_path(self):
        meas = meas_from_entries(4, [(1, 1, 2)])
        nets = lv.oracle_minimal(meas, 3)
        assert len(nets) == 1
        assert nets[0].edges == frozenset({(1, 4), (4, 2)})

    def test_ambiguous_example(self, ambig_left, ambig_right, ambig_meas):
        nets = lv.oracle_minimal(ambig_meas, 4)
        assert {g.latent_count for g in nets} == {3}
        assert canon_keys(nets) >= canon_keys([ambig_left, ambig_right])

    def test_unsatisfiable_returns_empty(self):
        meas = meas_from_entries(2, [(3, 0, 1)])  # needs 3 latents
        assert lv.oracle_minimal(meas, 2) == []

    def test_scale_guard(self):
        meas = lv.LinearMeasurements(7, [np.zeros((7, 7), dtype=int)])
        with pytest.raises(lv.ScaleExceeded):
            lv.oracle_minimal(meas, 3)

    def test_assumption2_networks_are_minimal(self):
        # unique-parent trees hit the oracle's minimum latent count
        rng = np.random.default_rng(404)
        checked = 0
        while checked < 10:
            g = gen_unique_parent_tree(rng, n_max=5, m_max=3)
            if not single_path_per_length(g):
                continue
            meas = lv.complete_census(g)
            if meas.max_k > 4 or not meas.has_latent_paths():
                continue
            init = sum(k * int(s.sum()) for k, s in enumerate(meas.supports))
            if init > 8:
                continue
            nets = lv.oracle_minimal(meas, 5)
            assert nets and nets[0].latent_count == g.latent_count
            checked += 1


class TestNmMatchesOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_equality_on_random_instances(self, seed):
        rng = np.random.default_rng(5000 + seed)
        got = gen_single_path_instance(rng)
        if got is None:
            pytest.skip("no instance drawn")
        _, meas = got
        assert canon_keys(lv.nm(meas)) == canon_keys(lv.oracle_minimal(meas, 5))


def merge_by_edges(g, u, v):
    """Reference contraction on the edge list: v's edges go to u, the pair's
    mutual edges vanish, latents above v shift down by one."""
    edges = {(u if a == v else a, u if b == v else b) for a, b in g.edges if {a, b} != {u, v}}
    shift = lambda x: x - 1 if x > v else x  # noqa: E731
    return lv.UnobservedNetwork(
        g.observed, g.latent_count - 1, frozenset((shift(a), shift(b)) for a, b in edges)
    )


class TestMergeMatchesEdgeContraction:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_networks(self, seed):
        rng = np.random.default_rng(6000 + seed)
        pairs = 0
        while pairs < 100:
            got = gen_single_path_instance(rng)
            if got is None:
                continue
            net, _ = got
            for u in net.latent_ids:
                for v in net.latent_ids:
                    if u != v:
                        merged = merge_one(int_blocks(net), u - net.n, v - net.n)
                        assert UnobservedNetwork.from_blocks(net.observed, *merged) == merge_by_edges(net, u, v)
                        pairs += 1


class TestMergeSearchRejectsCycles:
    @pytest.mark.parametrize(
        "entries",
        [
            [(3, 0, 1)],
            [(2, 0, 1), (2, 1, 0)],
            [(2, 0, 1), (3, 1, 2), (1, 2, 0)],
            [(1, 1, 2), (2, 0, 3), (2, 1, 3)],
        ],
    )
    def test_every_cyclic_merge_fails_the_census_walk(self, entries):
        # nm relies on this instead of a separate acyclicity test: merge graphs
        # keep every latent reachable from an observed node, so a cycle keeps
        # the walk alive and _blocks_valid rejects the merge
        meas = meas_from_entries(4, entries)
        targets = census_targets(meas)
        frontier = [int_blocks(init_graph(meas, frozenset(range(4))))]
        cyclic = 0
        for _level in range(2):
            nxt = []
            for blocks in frontier:
                for x, y in itertools.combinations(range(blocks[1].shape[0]), 2):
                    merged = merge_one(blocks, x, y)
                    if not UnobservedNetwork.from_blocks(meas.names, *merged).latent_subgraph_is_dag():
                        cyclic += 1
                        assert not valid_one(merged, targets)
                    nxt.append(merged)
            frontier = nxt
        assert cyclic > 0


class TestStackedCensusCheck:
    def test_stack_verdicts_equal_the_verdicts_of_its_slices(self):
        # every merge of the first two levels, one stack per level: valid,
        # census-breaking and cyclic candidates side by side, checked against
        # the targets and against them with an all-zero trailing target
        kinds = []
        for entries in ([(2, 0, 1), (2, 1, 0)], [(2, 0, 1), (3, 1, 2), (1, 2, 0)], [(1, 1, 2), (2, 0, 3), (2, 1, 3)]):
            meas = meas_from_entries(4, entries)
            targets = census_targets(meas)
            stack = [a[None] for a in int_blocks(init_graph(meas, frozenset(range(4))))]
            for _level in range(2):
                xs, ys = np.triu_indices(stack[1].shape[1], 1)
                size = len(stack[0])
                stack = merge_blocks(*stack, np.repeat(np.arange(size), len(xs)), np.tile(xs, size), np.tile(ys, size))
                nets = list(zip(*stack))
                cyclic = np.array([not UnobservedNetwork.from_blocks(meas.names, *net).latent_subgraph_is_dag() for net in nets])
                verdicts = _blocks_valid(*stack, targets)
                assert verdicts.dtype == bool and verdicts.shape == (len(nets),)
                assert verdicts.tolist() == [valid_one(net, targets) for net in nets]
                trailing = [*targets, np.zeros_like(targets[0])]
                assert _blocks_valid(*stack, trailing).tolist() == [valid_one(net, trailing) for net in nets] == verdicts.tolist()
                assert not (verdicts & cyclic).any()
                kinds.append({kind for kind, seen in (("valid", verdicts), ("cyclic", cyclic), ("census", ~verdicts & ~cyclic)) if seen.any()})
        assert {"valid", "cyclic", "census"} in kinds  # one stack holds all three

    def test_the_same_stacks_in_any_dtype_give_the_same_masks_and_verdicts(self):
        # nm hands over float32 stacks, recover_tree and the oracle int64
        # ones, and the tests uint8 ones: the masks of nm's prefix check, by
        # which its prune keeps rows, and the full check's verdicts, on every
        # pair of a first-level stack; a 24-latent chain beside the complete
        # latent DAG on its latents, which has 2^22 latent paths from its
        # first latent to its last, and both with one observed edge added;
        # and 256 parallel i -> z -> j, whose walk sum reaches 256, where
        # uint8 arithmetic wraps to 0
        parallel = np.ones((1, 256, 2), np.int64), np.zeros((1, 256, 256), np.int64), np.ones((1, 2, 256), np.int64)
        parallel[0][0, :, 1] = parallel[2][0, 0] = 0
        stacks = [(parallel, [np.zeros((2, 2), bool)])]
        for entries in ([(2, 0, 1), (2, 1, 0)], [(2, 0, 1), (3, 1, 2), (1, 2, 0)], [(1, 1, 2), (2, 0, 3), (2, 1, 3)]):
            meas = meas_from_entries(4, entries)
            stack = [a[None] for a in int_blocks(init_graph(meas, frozenset(range(4))))]
            xs, ys = np.triu_indices(stack[1].shape[1], 1)
            stacks.append((merge_blocks(*stack, np.zeros_like(xs), xs, ys), census_targets(meas)))
        m, names = 24, tuple("abcd")
        chain = {(0, 4), (1, 4), (4 + m - 1, 2), (4 + m - 1, 3)} | {(4 + z, 5 + z) for z in range(m - 1)}
        dense = chain | {(4 + u, 4 + v) for u, v in itertools.combinations(range(m), 2)}
        nets = [UnobservedNetwork(names, m, frozenset(e)) for e in (chain, dense, chain | {(2, 4 + m // 2)}, dense | {(2, 4 + m // 2)})]
        blocks = [np.stack(a) for a in zip(*(int_blocks(g) for g in nets))]
        for g in nets[:2]:
            stacks.append((blocks, census_targets(lv.complete_census(g))))
        masks, verdicts = [], []
        for (p, b, q), targets in stacks:
            want = [_blocks_valid(p, b, q, targets, prefix) for prefix in (True, False)]
            for dtype in (np.uint8, np.int64, np.float32):
                p2, b2, q2 = (a.astype(dtype) for a in (p, b, q))
                assert [_blocks_valid(p2, b2, q2, targets, prefix).tolist() for prefix in (True, False)] == [w.tolist() for w in want]
            masks.extend(want[0].tolist())
            verdicts.extend(want[1].tolist())
        assert _blocks_valid(*blocks, stacks[-2][1]).tolist() == [True, False, False, False]
        assert not _blocks_valid(*parallel, stacks[0][1]).any() and not _blocks_valid(*parallel, stacks[0][1], True).any()
        assert True in verdicts and False in verdicts
        assert (True, False) in zip(masks, verdicts) and (False, False) in zip(masks, verdicts)


def two_level_census():
    """Census of a latent with observed parents 1, 2 and child 3 that feeds
    a latent with children 4, 5: K = 2 and 10 initial merge latents."""
    edges = {(0, 5), (1, 5), (5, 2), (5, 6), (6, 3), (6, 4)}
    return lv.complete_census(UnobservedNetwork(tuple("12345"), 2, frozenset(edges)))


class TestNmChunks:
    def test_chunk_boundaries_do_not_change_the_output(self, monkeypatch):
        inputs = [*nm_comparison_inputs(draws=50, stream=0, unions=0), two_level_census()]
        want = [reference_nm(meas) for meas in inputs]
        for chunk in (1, 3):
            monkeypatch.setattr("latentvar.recover._CHUNK", chunk)
            got = [lv.nm(meas) for meas in inputs]
            assert [[lv.canonical_form(g) for g in nets] for nets in got] == [[lv.canonical_form(g) for g in nets] for nets in want]
            assert got == want


def valid_partitions(meas, cls):
    """Every valid partition of a class's initial latents that valid merges
    reach from init_graph's, level by level, as restricted-growth tuples:
    the former top-down search without its screen and without stopping at
    its last level.  An independent source of valid partitions of every
    block count."""
    g0 = init_graph(meas, cls)
    edges, targets = np.array(sorted(g0.edges)), class_targets(meas, cls)
    level, found = [tuple(range(g0.latent_count))], []
    while level:
        found.extend(level)
        merged = sorted({merged_partition(part, x, y) for part in level for x, y in itertools.combinations(range(max(part) + 1), 2)})
        if not merged:
            break
        level = [part for part, ok in zip(merged, _blocks_valid(*_quotients(np.array(merged), edges, meas.n), targets)) if ok]
    return np.array(found), edges, targets


class TestNmFromBelow:
    def test_every_prefix_of_a_valid_partition_passes_the_prune(self):
        # the prune may only cut prefixes that no valid partition extends: a
        # prefix's quotient is a subgraph of every completion's, and its
        # orphans need new blocks
        checked = 0
        for meas in nm_comparison_inputs(draws=50, stream=4, unions=5):
            for cls in connected_classes(meas):
                rows, edges, targets = valid_partitions(meas, cls)
                for m in set(rows.max(1) + 1):  # the block count at which the search meets a row
                    same = rows[rows.max(1) + 1 == m]
                    for t in range(1, same.shape[1] + 1):
                        assert _prefix_fits(same[:, :t], same[:, :t].max(1) + 1, edges, targets, meas.n, m).all()
                checked += len(rows)
        assert checked > 1000

    def test_ladder_past_the_levels_reach(self):
        # 20 K > 1 draws of 16-24 initial latents, where merging from the top
        # took up to 80 s a draw: every output is consistent, of one latent
        # count between max(K, rank S_1) and the generator's, and the first 4
        # give the oracle's networks
        rng = np.random.default_rng(7)
        drawn = 0
        while drawn < 20:
            got = gen_single_path_instance(rng, n_max=6, init_cap=24)
            if got is None or got[1].max_k == 1 or initial_latents(got[1]) < 16:
                continue
            net, meas = got
            nets = lv.nm(meas)
            assert all(lv.consistent(g, meas) for g in nets)
            (k,) = {g.latent_count for g in nets}
            assert max(meas.max_k, _exact_rank(meas.supports[1].tolist())) <= k <= net.latent_count
            if drawn < 4:
                assert canon_keys(nets) == canon_keys(lv.oracle_minimal(meas, net.latent_count))
            drawn += 1


class TestMergeSearchLevels:
    def test_merge_decreases_count_by_one(self, ambig_meas):
        g = init_graph(ambig_meas, frozenset({0, 1, 2, 3}))
        p, b, q = merge_one(int_blocks(g), 0, 1)
        assert b.shape == (g.latent_count - 1, g.latent_count - 1)
        assert p.shape[0] == q.shape[1] == g.latent_count - 1
