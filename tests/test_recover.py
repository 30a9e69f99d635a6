"""Recovery tests: node profiles, unique parents, DTR, the merge search, the
tree route, and the exhaustive oracle."""

import inspect
import itertools
import sys

import numpy as np
import pytest

import latentvar as lv
from latentvar.errors import InconsistentRecovery, NotIdentifiable
from latentvar.model import LinearMeasurements, UnobservedNetwork, consistent, latent_path_counts
from latentvar.recover import (
    DEFAULT_CAP,
    _blocks_valid,
    _disjoint_union,
    _latent_forest,
    _merge_blocks,
    _screened_pairs,
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
    matches_tree_recovery,
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
        prof = {p.node: p for p in lv.node_profiles(ambig_meas)}
        assert prof[0].l_i == 3 and prof[0].r_i == {3}
        assert prof[1].l_i == 3 and prof[1].r_i == {3}
        assert prof[1].m_i == {(2, 2), (3, 3)}
        assert prof[2].l_i == 0 and prof[3].l_i == 0

    def test_no_latent_paths(self):
        meas = lv.LinearMeasurements(3, [np.eye(3, dtype=int)])
        for p in lv.node_profiles(meas):
            assert p.l_i == 0 and not p.r_i and not p.m_i

    def test_single_entry(self):
        meas = meas_from_entries(4, [(1, 1, 2)])
        prof = {p.node: p for p in lv.node_profiles(meas)}
        assert prof[1].l_i == 2
        assert prof[1].r_i == {2}
        assert prof[1].m_i == {(2, 2)}


class TestUniqueParents:
    def test_dairy(self, dairy_meas):
        assert lv.unique_parents(lv.node_profiles(dairy_meas)) == [0]

    def test_nested_tree(self, nested_tree_network):
        meas = lv.complete_census(nested_tree_network)
        assert lv.unique_parents(lv.node_profiles(meas)) == [0, 1, 2, 3]

    def test_empty(self):
        meas = lv.LinearMeasurements(2, [np.zeros((2, 2), dtype=int)])
        assert lv.unique_parents(lv.node_profiles(meas)) == []


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
        return lv.canonical_form(fn(meas)).key
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
        assert lv.distance_matrix(meas)[1, 2] == 2

    def test_all_zero(self):
        meas = lv.LinearMeasurements(3, [np.zeros((3, 3), dtype=int)])
        assert not lv.distance_matrix(meas).any()

    def test_ambiguous_example(self, ambig_meas):
        d = lv.distance_matrix(ambig_meas)
        want = np.zeros((4, 4), dtype=int)
        want[1, 2] = 2
        want[0, 3] = 3
        want[1, 3] = 3
        assert np.array_equal(d, want)

    def test_ambiguous_pair(self):
        meas = meas_from_entries(3, [(1, 0, 1), (2, 0, 1)])
        with pytest.raises(lv.AmbiguousDistance):
            lv.distance_matrix(meas)


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
        assert lv.canonical_form(rec).key == lv.canonical_form(star).key

    def test_dairy_not_identifiable(self, dairy_meas):
        with pytest.raises(lv.NotIdentifiable, match="0 candidate networks satisfy the tree conditions"):
            lv.recover_tree(dairy_meas)

    def test_empty_measurements(self):
        meas = lv.LinearMeasurements(2, [np.zeros((2, 2), dtype=int)])
        assert lv.recover_tree(meas).latent_count == 0

    def test_seven_by_seven_star_needs_no_cap(self):
        # 49 initial merge latents, past the merge search's default cap of 40
        star = star_network(7, 7)
        meas = lv.complete_census(star)
        assert initial_latents(meas) > DEFAULT_CAP
        assert "cap" not in inspect.signature(lv.recover_tree).parameters
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
        assert lv.canonical_form(rec).key == lv.canonical_form(g).key

    def test_random_hidden_trees(self):
        # >= 100 random tree networks whose latent nodes all have >= 2
        # parents and >= 2 children recover to the exact ground truth
        rng = np.random.default_rng(2000)
        for _ in range(100):
            g = gen_degree_tree(rng, m_max=12)
            rec = lv.recover_tree(lv.complete_census(g))
            assert lv.canonical_form(rec).key == lv.canonical_form(g).key


def reference_recover_tree(meas, cap=DEFAULT_CAP):
    """``recover_tree`` as it was when it ran the merge search and kept the
    one minimal network passing the tree and degree filters.  Kept as the
    reference for the one-pass construction; its body is unchanged."""
    distance_matrix(meas)
    keep = []
    for g in nm(meas, cap):
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
                multi += not lv.single_path_per_length(h)
                # h against g's census, and g against h's
                for net, target in ((h, meas), (g, lv.complete_census(h))):
                    want = reference_single_path_consistent(net, target)
                    assert _blocks_valid(*int_blocks(net), target.supports[1:]) == want
                    outcomes.append(want)
        assert len(outcomes) > 1000 and multi > 0
        assert {True, False} <= set(outcomes)


class TestConnectedClasses:
    def test_ambiguous_example_single_class(self, ambig_meas):
        assert lv.connected_classes(ambig_meas) == [frozenset({0, 1, 2, 3})]

    def test_two_pairs(self):
        meas = meas_from_entries(4, [(1, 0, 1), (1, 2, 3)])
        assert lv.connected_classes(meas) == [frozenset({0, 1}), frozenset({2, 3})]

    def test_no_latent_entries(self):
        meas = lv.LinearMeasurements(3, [np.eye(3, dtype=int)])
        assert lv.connected_classes(meas) == []

    def test_self_path_counts_as_incident(self):
        meas = meas_from_entries(3, [(1, 1, 1)])
        assert lv.connected_classes(meas) == [frozenset({1})]


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
        g = lv.init_graph(meas, frozenset({1, 2}))
        assert g.latent_count == 1
        assert g.edges == frozenset({(1, 4), (4, 2)})

    def test_ambiguous_example_count(self, ambig_meas):
        g = lv.init_graph(ambig_meas, frozenset({0, 1, 2, 3}))
        assert g.latent_count == 5

    def test_empty_class(self, ambig_meas):
        g = lv.init_graph(ambig_meas, frozenset())
        assert g.latent_count == 0 and not g.edges

    def test_cap(self, ambig_meas):
        with pytest.raises(lv.CapExceeded):
            lv.init_graph(ambig_meas, frozenset({0, 1, 2, 3}), cap=4)


def int_blocks(g):
    """g's (obs->latent, latent->latent, latent->obs) blocks in the int64 form nm holds."""
    return [a.astype(np.int64) for a in g.adjacency_blocks()[1:]]


def census_targets(meas):
    """The S_1.. supports as the boolean targets _blocks_valid compares with."""
    return [s.astype(bool) for s in meas.supports[1:]]


class TestMerge:
    def test_parallel_paths(self):
        g = lv.UnobservedNetwork(
            ("1", "2"), 2, frozenset({(0, 2), (2, 1), (0, 3), (3, 1)})
        )
        merged = UnobservedNetwork.from_blocks(g.observed, *_merge_blocks(*int_blocks(g), 0, 1))
        assert merged.latent_count == 1
        assert merged.edges == frozenset({(0, 2), (2, 1)})

    def test_chain_drops_mutual_edge(self):
        g = lv.UnobservedNetwork(("1", "2"), 2, frozenset({(0, 2), (2, 3), (3, 1)}))
        merged = UnobservedNetwork.from_blocks(g.observed, *_merge_blocks(*int_blocks(g), 0, 1))
        assert merged.edges == frozenset({(0, 2), (2, 1)})

    def test_observed_set_preserved(self):
        g = lv.UnobservedNetwork(("a", "b"), 2, frozenset({(0, 2), (3, 1)}))
        p, b, q = _merge_blocks(*int_blocks(g), 0, 1)
        assert p.shape == (1, 2) and b.shape == (1, 1) and q.shape == (2, 1)


class TestCheck:
    def test_shortening_required_path_fails(self):
        meas = meas_from_entries(2, [(2, 0, 1)])
        g = lv.init_graph(meas, frozenset({0, 1}))
        assert not _blocks_valid(*_merge_blocks(*int_blocks(g), 0, 1), census_targets(meas))

    def test_ambiguous_example_level_one_merge(self, ambig_meas):
        g = lv.init_graph(ambig_meas, frozenset({0, 1, 2, 3}))
        targets = census_targets(ambig_meas)
        # interior nodes of the two length-3 chains 1 -> h -> t -> 4 and
        # 2 -> h -> t -> 4: the latents next to an observed node and a latent
        heads = sorted(v - 4 for u, v in g.edges if u < 4 <= v and any(a == v and b >= 4 for a, b in g.edges))
        tails = sorted(u - 4 for u, v in g.edges if v < 4 <= u and any(b == u and a >= 4 for a, b in g.edges))
        assert len(heads) == len(tails) == 2
        # one shared tail keeps a single path per length; one shared head
        # gives 1 two paths of length 3 to 4
        assert _blocks_valid(*_merge_blocks(*int_blocks(g), *tails), targets)
        assert not _blocks_valid(*_merge_blocks(*int_blocks(g), *heads), targets)

    def test_cycle_creating_merge_fails(self):
        # 1 -> a -> b -> 2 and 1 -> c -> a; merging b and c makes a 2-cycle
        g = lv.UnobservedNetwork(
            ("1", "2"), 3, frozenset({(0, 2), (2, 3), (3, 1), (0, 4), (4, 2)})
        )
        meas = lv.complete_census(g)
        assert not _blocks_valid(*_merge_blocks(*int_blocks(g), 1, 2), census_targets(meas))


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

    def test_cap_respected(self, ambig_meas):
        with pytest.raises(lv.CapExceeded):
            lv.nm(ambig_meas, cap=4)

    def test_outputs_sorted_and_deterministic(self, ambig_meas):
        a = lv.nm(ambig_meas)
        b = lv.nm(ambig_meas)
        assert [lv.canonical_form(g).key for g in a] == [
            lv.canonical_form(g).key for g in b
        ]
        keys = [lv.canonical_form(g).key for g in a]
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


def reference_nm(meas, cap=DEFAULT_CAP):
    """``nm`` as it was when every level tried every latent pair of every
    frontier network and merged each one.  Kept as the reference for the
    length-2 screen and the partition memo; its body is unchanged."""
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
        # canonical key -> (network, its int64 blocks), one merge level each
        frontier = {canonical_form(g0).key: (g0, blocks0)}
        while True:
            nxt: dict[bytes, tuple] = {}
            for _, (p, b, q) in frontier.values():
                for x, y in itertools.combinations(range(b.shape[0]), 2):
                    merged = _merge_blocks(p, b, q, x, y)
                    if not _blocks_valid(*merged, targets):
                        continue
                    g = UnobservedNetwork.from_blocks(meas.names, *merged)
                    nxt.setdefault(canonical_form(g).key, (g, merged))
            if not nxt:
                break
            frontier = nxt
        per_class.append([frontier[key][0] for key in sorted(frontier)])
    if not per_class:
        return [UnobservedNetwork(meas.names, 0, frozenset())]
    combos = {}
    for choice in itertools.product(*per_class):
        g = _disjoint_union(meas.names, choice)
        combos[canonical_form(g).key] = g
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
        if not lv.single_path_per_length(net):
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


class TestNmMatchesReference:
    def test_same_networks_in_the_same_order(self):
        compared = 0
        for meas in nm_comparison_inputs(draws=50, stream=4, unions=5):
            got, want = lv.nm(meas), reference_nm(meas)
            assert [lv.canonical_form(g).key for g in got] == [lv.canonical_form(g).key for g in want]
            assert got == want
            compared += 1
        assert compared > 50


class TestNmKeysOnlyItsOutput:
    # one class: a key per last-level network, then one per disjoint union
    @pytest.mark.parametrize("source", ["ambiguous", "catalogue"])
    def test_two_canonical_forms_per_returned_network(self, source, ambig_meas, monkeypatch):
        meas = ambig_meas if source == "ambiguous" else next(catalogue_stream(np.random.default_rng(2017)))
        assert len(connected_classes(meas)) == 1
        calls = []
        monkeypatch.setattr("latentvar.recover.canonical_form", lambda g: calls.append(g) or canonical_form(g))
        nets = lv.nm(meas)
        assert len(calls) == 2 * len(nets)
        if source == "ambiguous":
            assert len(calls) == 4


def merged_partition(part, x, y):
    """Current index of each initial latent after y is folded into x."""
    return tuple(x if t == y else t - (t > y) for t in part)


class TestMergeScreen:
    @pytest.mark.parametrize("seed", range(3))
    def test_screen_admits_exactly_the_length2_valid_merges(self, seed):
        # first two levels: every pair, screened or not, against q2 @ p2
        rng = np.random.default_rng(7000 + seed)
        verdicts = []
        while len(verdicts) < 3000:
            got = gen_single_path_instance(rng, n_max=6, init_cap=12)
            if got is None:
                continue
            meas = got[1]
            for cls in connected_classes(meas):
                inside = np.zeros(meas.n, dtype=bool)
                inside[list(cls)] = True
                targets = [s.astype(bool) & np.outer(inside, inside) for s in meas.supports[1:]]
                _, *blocks = (a.astype(np.int64) for a in init_graph(meas, cls).adjacency_blocks())
                frontier = [blocks]
                for _level in range(2):
                    nxt = []
                    for p, b, q in frontier:
                        screened = {tuple(xy) for xy in _screened_pairs(p, q)}
                        for x, y in itertools.combinations(range(b.shape[0]), 2):
                            merged = _merge_blocks(p, b, q, x, y)
                            cnt = merged[2] @ merged[0]
                            exact = (cnt <= 1).all() and np.array_equal(cnt > 0, targets[0])
                            assert ((x, y) in screened) == exact
                            verdicts.append(exact)
                            if _blocks_valid(*merged, targets):
                                nxt.append(merged)
                    frontier = nxt
        assert any(verdicts) and not all(verdicts)

    def test_screened_pairs_in_combinations_order(self):
        p = np.zeros((5, 1), dtype=np.int64)
        q = np.zeros((1, 5), dtype=np.int64)
        assert _screened_pairs(p, q) == [list(xy) for xy in itertools.combinations(range(5), 2)]

    @pytest.mark.parametrize("seed", range(3))
    def test_a_partition_merged_in_any_order_gives_the_same_blocks(self, seed):
        # nm merges each partition of the initial latents once per level
        rng = np.random.default_rng(8000 + seed)
        for _ in range(20):
            got = gen_single_path_instance(rng, n_max=6, init_cap=12)
            if got is None:
                continue
            meas = got[1]
            _, *blocks0 = (a.astype(np.int64) for a in init_graph(meas, frozenset(range(meas.n)), 12).adjacency_blocks())
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
                        blocks, part = _merge_blocks(*blocks, x, y), merged_partition(part, x, y)
                        merges += 1
                results.append((part, [blk.tobytes() for blk in blocks], [blk.shape for blk in blocks]))
            assert results[0] == results[1]
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
            if not lv.single_path_per_length(g):
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
                        merged = _merge_blocks(*int_blocks(net), u - net.n, v - net.n)
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
        frontier = [int_blocks(lv.init_graph(meas, frozenset(range(4))))]
        cyclic = 0
        for _level in range(2):
            nxt = []
            for blocks in frontier:
                for x, y in itertools.combinations(range(blocks[1].shape[0]), 2):
                    merged = _merge_blocks(*blocks, x, y)
                    if not UnobservedNetwork.from_blocks(meas.names, *merged).latent_subgraph_is_dag():
                        cyclic += 1
                        assert not _blocks_valid(*merged, targets)
                    nxt.append(merged)
            frontier = nxt
        assert cyclic > 0


class TestMergeSearchLevels:
    def test_merge_decreases_count_by_one(self, ambig_meas):
        g = lv.init_graph(ambig_meas, frozenset({0, 1, 2, 3}))
        p, b, q = _merge_blocks(*int_blocks(g), 0, 1)
        assert b.shape == (g.latent_count - 1, g.latent_count - 1)
        assert p.shape[0] == q.shape[1] == g.latent_count - 1
