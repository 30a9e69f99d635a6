"""Property tests on random single-path networks past the oracle's scale
(n <= 15 observed, m <= 10 latent): the census reproduces its own network,
JSON round trips are exact, canonical keys ignore latent labels, and the
merge search returns consistent networks of one latent count, no more than
the generator's (n <= 8, at most INIT_LATENTS initial merge latents).

Examples are derandomized and bounded, so every run checks the same cases."""

import json

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import latentvar as lv
from latentvar import cli
from conftest import single_path_per_length

SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)
#: Initial merge latents a draw of the nm test may have.
INIT_LATENTS = 40


@st.composite
def single_path_networks(draw, m_max=10, n_max=15):
    """A network of 1..n_max observed and 1..m_max latent nodes whose latent
    part is a DAG and whose ordered observed pairs have at most one latent
    path of each length."""
    n = draw(st.integers(1, n_max))
    m = draw(st.integers(1, m_max))
    rank = draw(st.permutations(range(m)))  # the latent DAG's topological order
    obs, lat = st.integers(0, n - 1), st.integers(0, m - 1)
    size = dict(max_size=n + m)
    chain = draw(st.lists(st.tuples(lat, lat), min_size=m, **size))
    into = draw(st.lists(st.tuples(obs, lat), min_size=1, **size))
    out = draw(st.lists(st.tuples(lat, obs), min_size=1, **size))
    direct = draw(st.lists(st.tuples(obs, obs), max_size=2))
    edges = {(n + a, n + b) for a, b in chain if rank[a] < rank[b]}
    edges |= {(i, n + z) for i, z in into} | {(n + z, j) for z, j in out} | set(direct)
    net = lv.UnobservedNetwork(tuple(f"x{i}" for i in range(n)), m, frozenset(edges))
    assume(single_path_per_length(net))
    return net


def relabel_latents(net, perm):
    n = net.n
    f = lambda v: v if v < n else n + perm[v - n]  # noqa: E731
    return lv.UnobservedNetwork(net.observed, net.latent_count, frozenset((f(u), f(v)) for u, v in net.edges))


@SETTINGS
@given(single_path_networks())
def test_census_is_consistent_with_its_network(net):
    assert lv.consistent(net, lv.complete_census(net))


@SETTINGS
@given(single_path_networks())
def test_network_json_round_trip(net):
    again = cli.network_from_json(json.loads(json.dumps(cli.network_to_json(net))))
    assert again == net


@SETTINGS
@given(single_path_networks())
def test_measurements_json_round_trip(net):
    meas = lv.complete_census(net)
    again = cli.measurements_from_json(json.loads(json.dumps(cli.measurements_to_json(meas))))
    assert again == meas
    assert again.names == meas.names
    assert all(a.dtype == b.dtype for a, b in zip(again.supports, meas.supports))


@SETTINGS
@given(st.data())
def test_canonical_form_ignores_latent_labels(data):
    # m <= 6: canonical_form tries every ordering of each class of
    # interchangeable latents, which is factorial from about 8 of them
    net = data.draw(single_path_networks(m_max=6))
    perm = data.draw(st.permutations(range(net.latent_count)))
    assert lv.canonical_form(relabel_latents(net, perm)) == lv.canonical_form(net)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(single_path_networks(m_max=6, n_max=8))
def test_nm_outputs_are_consistent_with_one_latent_count(net):
    meas = lv.complete_census(net)
    init = sum(k * int(s.sum()) for k, s in enumerate(meas.supports))
    assume(init <= INIT_LATENTS)
    nets = lv.nm(meas)
    assert all(lv.consistent(g, meas) for g in nets)
    counts = {g.latent_count for g in nets}
    assert len(counts) == 1 and counts.pop() <= net.latent_count
