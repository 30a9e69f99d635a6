"""Core model tests: nilpotency, exact measurements, path census, consistency,
and canonical forms."""

import numpy as np
import pytest

import latentvar as lv
from conftest import canon_keys, gen_latent_digraph, gen_single_path_instance, gen_stationary_model


def chain_model(a11=0.0, a21=0.5, a12=0.5, sigma_x2=1.0, sigma_z2=1.0):
    blocks = lv.BlockTransitionMatrix([[a11]], [[a12]], [[a21]], [[0.0]])
    return lv.LatentVarModel(blocks, sigma_x2, sigma_z2)


class TestNilpotencyIndex:
    def test_zero_matrix(self):
        assert lv.nilpotency_index(np.zeros((2, 2))) == 1

    def test_full_chain(self):
        a22 = np.tril(np.full((3, 3), 0.1), -1)
        assert lv.nilpotency_index(a22) == 3

    def test_two_cycle(self):
        with pytest.raises(lv.CyclicLatent):
            lv.nilpotency_index(np.array([[0.0, 0.5], [0.5, 0.0]]))

    def test_empty_latent_block(self):
        assert lv.nilpotency_index(np.zeros((0, 0))) == 1

    def test_tiny_entries_are_zero(self):
        assert lv.nilpotency_index(np.array([[0.0, 1e-14], [1e-13, 0.0]])) == 1

    def test_overflowing_cycle_is_not_nilpotent(self):
        # the square of this 3-cycle block is all inf and its cube all NaN,
        # which must not read as the zero matrix
        with pytest.raises(lv.CyclicLatent):
            lv.nilpotency_index(1e200 * (np.ones((3, 3)) - np.eye(3)))


class TestTrueLinearMeasurements:
    def test_no_latent_influence(self):
        # A11 = A0* = B0* when the latent-to-observed block vanishes
        rng = np.random.default_rng(0)
        blocks = lv.BlockTransitionMatrix(
            rng.uniform(-0.3, 0.3, (3, 3)),
            np.zeros((3, 2)),
            rng.uniform(-0.3, 0.3, (2, 3)),
            np.zeros((2, 2)),
        )
        meas = lv.true_linear_measurements(lv.LatentVarModel(blocks))
        assert meas.max_k == 0
        assert np.array_equal(meas.supports[0], np.abs(blocks.a11) > 1e-12)

    def test_single_chain(self):
        # 1 -> h -> 2: only S_1[2, 1] is set
        blocks = lv.BlockTransitionMatrix(
            np.zeros((2, 2)), [[0.0], [0.5]], [[0.5, 0.0]], [[0.0]]
        )
        meas = lv.true_linear_measurements(lv.LatentVarModel(blocks))
        assert meas.max_k == 1
        assert meas.supports[1].tolist() == [[0, 0], [1, 0]]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_path_census_on_random_draws(self, seed):
        # supports of the coefficient products equal the graph path census
        # except on a measure-zero cancellation set; many draws per seed
        rng = np.random.default_rng(seed)
        checked = 0
        for _ in range(12):
            model = gen_stationary_model(rng)
            blocks = model.blocks
            l = lv.nilpotency_index(blocks.a22)
            mats = [blocks.a11]
            path = blocks.a21
            for _ in range(l):
                mats.append(blocks.a12 @ path)
                path = blocks.a22 @ path
            if any(((np.abs(m_) > 0) & (np.abs(m_) < 1e-9)).any() for m_ in mats):
                continue  # non-generic near-cancellation, skip per the contract
            assert lv.true_linear_measurements(model) == lv.complete_census(
                lv.network_of(model)
            )
            checked += 1
        assert checked > 0


class TestNetworkOf:
    def test_all_zero_blocks(self):
        blocks = lv.BlockTransitionMatrix(
            np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((1, 1))
        )
        net = lv.network_of(lv.LatentVarModel(blocks))
        assert net.edges == frozenset()

    def test_dairy_ground_truth(self):
        # milk -> butter -> cheese, milk -> cheese, cheese -> milk (butter latent)
        a11 = np.array([[0.0, 0.3], [0.4, 0.0]])  # milk<->cheese
        a12 = np.array([[0.0], [0.5]])  # butter -> cheese
        a21 = np.array([[0.5, 0.0]])  # milk -> butter
        net = lv.network_of(
            lv.LatentVarModel(lv.BlockTransitionMatrix(a11, a12, a21, [[0.0]])),
            names=("milk", "cheese"),
        )
        assert net.edges == frozenset({(0, 1), (1, 0), (0, 2), (2, 1)})

    def test_diagonal_a11_gives_self_loops(self):
        blocks = lv.BlockTransitionMatrix(
            np.eye(3) * 0.5, np.zeros((3, 0)), np.zeros((0, 3)), np.zeros((0, 0))
        )
        net = lv.network_of(lv.LatentVarModel(blocks))
        assert net.edges == frozenset({(i, i) for i in range(3)})


class TestPathCensus:
    def test_single_latent_path(self):
        net = lv.UnobservedNetwork(("1", "2"), 1, frozenset({(0, 2), (2, 1)}))
        meas = lv.path_census(net, 2)
        assert meas.supports[1].tolist() == [[0, 0], [1, 0]]
        assert not meas.supports[0].any()

    def test_ambiguous_example_left(self, ambig_left):
        meas = lv.complete_census(ambig_left)
        assert meas.max_k == 2
        s1 = np.zeros((4, 4), dtype=int)
        s1[2, 1] = 1
        s2 = np.zeros((4, 4), dtype=int)
        s2[3, 0] = s2[3, 1] = 1
        assert np.array_equal(meas.supports[1], s1)
        assert np.array_equal(meas.supports[2], s2)

    def test_no_latents(self):
        net = lv.UnobservedNetwork(("a", "b"), 0, frozenset({(0, 1)}))
        meas = lv.path_census(net, 3)
        assert meas.max_k == 0
        assert meas.supports[0].tolist() == [[0, 0], [1, 0]]

    def test_cyclic_latent_rejected(self):
        net = lv.UnobservedNetwork(("1",), 2, frozenset({(1, 2), (2, 1)}))
        with pytest.raises(lv.CyclicLatent):
            lv.path_census(net, 3)

    @pytest.mark.parametrize("seed", range(20))
    def test_monotone_under_edge_addition(self, seed):
        rng = np.random.default_rng(seed)
        got = gen_single_path_instance(rng)
        if got is None:
            pytest.skip("no instance drawn")
        net, _ = got
        before = lv.path_census(net, net.latent_count + 2)
        total = net.n + net.latent_count
        for _ in range(20):
            u = int(rng.integers(0, total))
            v = int(rng.integers(0, total))
            if u == v and u >= net.n:
                continue
            bigger = lv.UnobservedNetwork(
                net.observed, net.latent_count, net.edges | {(u, v)}
            )
            if not bigger.latent_subgraph_is_dag():
                continue
            after = lv.path_census(bigger, net.latent_count + 2)
            for k, s in enumerate(before.supports):
                assert (after.supports[k] >= s).all()
            break

    @pytest.mark.parametrize("seed", range(20))
    def test_census_self_consistency(self, seed):
        # consistent(G, path_census(G)) for random latent-DAG networks
        rng = np.random.default_rng(100 + seed)
        got = gen_single_path_instance(rng)
        if got is None:
            pytest.skip("no instance drawn")
        net, meas = got
        assert lv.consistent(net, meas)


def brute_force_path_counts(net: lv.UnobservedNetwork) -> list[np.ndarray]:
    """Reference for latent_path_counts: enumerate every path i -> .. -> j
    with all-latent interior by depth-first search over the edge list."""
    n, m = net.n, net.latent_count
    children = {v: sorted(net.children(v)) for v in range(n + m)}
    counts = [np.zeros((n, n), dtype=np.int64) for _ in range(m + 1)]

    def walk(source: int, node: int, length: int):
        for nxt in children[node]:
            if nxt < n:
                counts[length][nxt, source] += 1
            else:
                walk(source, nxt, length + 1)

    for i in range(n):
        walk(i, i, 0)
    return counts


def gen_latent_dag_network(rng: np.random.Generator) -> lv.UnobservedNetwork:
    """Random network on a random latent DAG, dense enough that parallel
    same-length paths and latent nodes with several latent parents are common."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(0, 7))
    order = rng.permutation(m)
    edges = set()
    for a in range(m):
        for b in range(a + 1, m):
            if rng.random() < 0.45:
                edges.add((n + int(order[a]), n + int(order[b])))
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.2:
                edges.add((i, j))
        for z in range(m):
            if rng.random() < 0.4:
                edges.add((i, n + z))
            if rng.random() < 0.4:
                edges.add((n + z, i))
    return lv.UnobservedNetwork(tuple(str(i) for i in range(n)), m, frozenset(edges))


class TestPathCountsAgainstEnumeration:
    @pytest.mark.parametrize("seed", range(6))
    def test_counts_and_census_match_dfs(self, seed):
        rng = np.random.default_rng(700 + seed)
        multi_path = multi_parent = 0
        for _ in range(40):
            net = gen_latent_dag_network(rng)
            want = brute_force_path_counts(net)
            got = lv.latent_path_counts(net)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            for max_len in range(1, net.latent_count + 3):
                census = lv.path_census(net, max_len)
                full = [(w > 0).astype(np.uint8) for w in want[:max_len]]
                assert census == lv.LinearMeasurements(net.n, full)
            multi_path += any((w > 1).any() for w in want[1:])
            multi_parent += any(
                len(net.parents(z) & set(net.latent_ids)) >= 2 for z in net.latent_ids
            )
        assert multi_path and multi_parent

    def test_counts_past_uint8(self):
        # 0 -> 256 parallel latents -> w -> 1: S_2[1, 0] has 256 paths, which
        # a uint8 walk wraps to zero
        lat = range(2, 258)
        w = 258
        edges = {(0, z) for z in lat} | {(z, w) for z in lat} | {(w, 1)}
        net = lv.UnobservedNetwork(("a", "b"), 257, frozenset(edges))
        assert lv.latent_path_counts(net)[2][1, 0] == 256
        meas = lv.path_census(net, 3)
        assert meas.max_k == 2
        assert meas.supports[2].tolist() == [[0, 0], [1, 0]]

    def test_cyclic_latent_rejected(self):
        net = lv.UnobservedNetwork(("1",), 2, frozenset({(0, 1), (1, 2), (2, 1), (2, 0)}))
        with pytest.raises(lv.CyclicLatent):
            lv.latent_path_counts(net)


class TestFromBlocks:
    @pytest.mark.parametrize("seed", range(3))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(900 + seed)
        for _ in range(20):
            net = gen_latent_dag_network(rng)
            a_oo, a_ol, a_ll, a_lo = net.adjacency_blocks()
            assert lv.UnobservedNetwork.from_blocks(net.observed, a_ol, a_ll, a_lo, a_oo) == net

    def test_without_observed_block(self):
        net = lv.UnobservedNetwork(("a", "b"), 1, frozenset({(0, 1), (0, 2), (2, 1)}))
        _, *latent = net.adjacency_blocks()
        got = lv.UnobservedNetwork.from_blocks(net.observed, *latent)
        assert got.edges == frozenset({(0, 2), (2, 1)})


class TestConsistent:
    def test_ambiguous_example_both_networks(self, ambig_left, ambig_right, ambig_meas):
        assert lv.consistent(ambig_left, ambig_meas)
        assert lv.consistent(ambig_right, ambig_meas)

    def test_edge_removal_breaks_it(self, ambig_left, ambig_meas):
        # dropping 2 -> l1 kills the (4,2) path
        pruned = lv.UnobservedNetwork(
            ambig_left.observed, 3, ambig_left.edges - {(1, 4)}
        )
        assert not lv.consistent(pruned, ambig_meas)

    def test_observed_edges_compared_when_present(self):
        net = lv.UnobservedNetwork(("a", "b"), 0, frozenset({(0, 1)}))
        meas_match = lv.path_census(net, 1)
        assert lv.consistent(net, meas_match)
        other = lv.LinearMeasurements(2, [np.array([[0, 1], [0, 0]])], ("a", "b"))
        assert not lv.consistent(net, other)


def reference_latent_subgraph_is_dag(net: lv.UnobservedNetwork) -> bool:
    """Kahn's algorithm on the latent-induced subgraph, the acyclicity test
    latent_subgraph_is_dag ran before it read nilpotency_index; kept as its
    reference with the body unchanged."""
    _, _, a_ll, _ = net.adjacency_blocks()
    indeg = a_ll.sum(axis=1)
    ready = [z for z in range(net.latent_count) if indeg[z] == 0]
    seen = 0
    while ready:
        z = ready.pop()
        seen += 1
        for w in np.flatnonzero(a_ll[:, z]):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(int(w))
    return seen == net.latent_count


class TestLatentDagAgainstKahn:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_digraphs(self, seed):
        rng = np.random.default_rng(1300 + seed)
        dag = cyclic = two_cycle = 0
        for _ in range(150):
            net = gen_latent_digraph(rng)
            want = reference_latent_subgraph_is_dag(net)
            assert net.latent_subgraph_is_dag() == want
            if want:
                dag += 1
                assert len(lv.latent_path_counts(net)) == net.latent_count + 1
            else:
                cyclic += 1
                with pytest.raises(lv.CyclicLatent):
                    lv.complete_census(net)
            two_cycle += any((v, u) in net.edges for u, v in net.latent_edges)
        assert dag and cyclic and two_cycle

    def test_dense_cycle_past_float_range(self):
        # walk counts of 160 fully linked latents pass 1e308 before the
        # 160th power; the block is still cyclic
        m = 160
        edges = {(1 + a, 1 + b) for a in range(m) for b in range(m) if a != b} | {(0, 1)}
        net = lv.UnobservedNetwork(("a",), m, frozenset(edges))
        assert not reference_latent_subgraph_is_dag(net)
        assert not net.latent_subgraph_is_dag()
        with pytest.raises(lv.CyclicLatent):
            lv.complete_census(net)

    @pytest.mark.parametrize(
        "latent_edges, want",
        [
            ((), True),                          # isolated latents
            (((0, 1), (1, 0)), False),           # 2-cycle
            (((0, 1), (2, 3)), True),            # two disconnected chains
            (((0, 1), (1, 2), (2, 0)), False),   # 3-cycle
            (((0, 1), (2, 3), (3, 2)), False),   # a cycle in one of two parts
            (((0, 1), (0, 2), (1, 3), (2, 3)), True),  # diamond
        ],
    )
    def test_fixed_shapes(self, latent_edges, want):
        net = lv.UnobservedNetwork(("a",), 4, frozenset((1 + u, 1 + v) for u, v in latent_edges))
        assert reference_latent_subgraph_is_dag(net) == want
        assert net.latent_subgraph_is_dag() == want


class TestCanonicalForm:
    def test_latent_relabeling_invariance(self, ambig_left):
        n, m = ambig_left.n, ambig_left.latent_count
        rng = np.random.default_rng(3)
        for _ in range(10):
            perm = rng.permutation(m)
            f = {n + z: n + int(perm[z]) for z in range(m)}
            permuted = lv.UnobservedNetwork(
                ambig_left.observed,
                m,
                frozenset((f.get(u, u), f.get(v, v)) for u, v in ambig_left.edges),
            )
            assert lv.canonical_form(permuted).key == lv.canonical_form(ambig_left).key

    def test_ambiguous_example_networks_differ(self, ambig_left, ambig_right):
        assert lv.canonical_form(ambig_left).key != lv.canonical_form(ambig_right).key

    def test_edgeless_networks_equal(self):
        a = lv.UnobservedNetwork(("x", "y"), 2, frozenset())
        b = lv.UnobservedNetwork(("x", "y"), 2, frozenset())
        assert lv.canonical_form(a).key == lv.canonical_form(b).key

    def test_observed_endpoints_separate(self):
        a = lv.UnobservedNetwork(("x", "y"), 1, frozenset({(0, 2), (2, 1)}))
        b = lv.UnobservedNetwork(("x", "y"), 1, frozenset({(1, 2), (2, 0)}))
        assert lv.canonical_form(a).key != lv.canonical_form(b).key

    @pytest.mark.parametrize("seed", range(10))
    def test_random_permutation_invariance(self, seed):
        rng = np.random.default_rng(200 + seed)
        got = gen_single_path_instance(rng)
        if got is None:
            pytest.skip("no instance drawn")
        net, _ = got
        n, m = net.n, net.latent_count
        perm = rng.permutation(m)
        f = {n + z: n + int(perm[z]) for z in range(m)}
        permuted = lv.UnobservedNetwork(
            net.observed, m, frozenset((f.get(u, u), f.get(v, v)) for u, v in net.edges)
        )
        assert lv.canonical_form(permuted).key == lv.canonical_form(net).key


class TestLinearMeasurements:
    def test_trailing_zero_trim(self):
        s0 = np.array([[1, 0], [0, 0]])
        z = np.zeros((2, 2), dtype=int)
        meas = lv.LinearMeasurements(2, [s0, z, z])
        assert meas.max_k == 0

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            lv.LinearMeasurements(1, [np.array([[2]])])

    def test_equality_is_structural(self):
        a = lv.LinearMeasurements(2, [np.eye(2, dtype=int)], ("a", "b"))
        b = lv.LinearMeasurements(2, [np.eye(2, dtype=int)], ("c", "d"))
        assert a == b  # names are labels, not structure

    def test_latent_self_loop_rejected(self):
        with pytest.raises(ValueError):
            lv.UnobservedNetwork(("a",), 1, frozenset({(1, 1)}))
