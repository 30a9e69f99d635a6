"""Golden outputs: the merge search's canonical keys (in order), the
exhaustive oracle's edge lists (in order) on the same inputs, the
canonical keys of fixed networks, and the estimation path's lag, supports,
coefficients, residual covariance and standard errors on fixed inputs, pinned in
``golden_outputs.json`` so that refactors of the graph core or the
Yule-Walker path cannot change what the package returns.

Regenerate the file only for an intended output change:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import latentvar as lv
from conftest import gen_single_path_instance

GOLDEN = Path(__file__).with_name("golden_outputs.json")

#: Seeds of gen_single_path_instance draws whose nm output is pinned.
NM_SEEDS = (5001, 5004, 5006, 5007, 5008, 5012, 5013, 5015)

#: Latent budget of the exhaustive oracle on the nm cases.
ORACLE_M_MAX = 5

#: Seeds of gen_single_path_instance draws whose own canonical key is pinned.
CANON_SEEDS = (6001, 6002, 6003, 6004, 6005, 6006, 6007, 6008)

#: Sizes of the interchangeable-latent families (one refinement class each).
CANON_KS = (2, 3, 4, 5)

#: Lengths of latent chains whose middle latents need several refinement
#: rounds to tell apart (stopping after one round changes their keys).
CHAIN_KS = (5, 6)

PANEL_CFG = dict(n=6, m=4, p=0.4, q=0.4, a=0.2, seed=7)
PANEL_T = 4000
LAG_MAX = 4
FIXED_LAG = 3


def ambiguity_meas() -> lv.LinearMeasurements:
    left = lv.UnobservedNetwork(
        ("1", "2", "3", "4"), 3, frozenset({(0, 4), (4, 5), (5, 3), (1, 4), (1, 6), (6, 2)})
    )
    return lv.complete_census(left)


def nm_cases() -> dict[str, lv.LinearMeasurements]:
    cases = {"ambiguity": ambiguity_meas()}
    for seed in NM_SEEDS:
        got = gen_single_path_instance(np.random.default_rng(seed))
        assert got is not None
        cases[f"single_path_{seed}"] = got[1]
    return cases


def twin_latents(k: int) -> lv.UnobservedNetwork:
    """k latents sharing one observed parent and one observed child."""
    edges = {(0, 2 + z) for z in range(k)} | {(2 + z, 1) for z in range(k)}
    return lv.UnobservedNetwork(("a", "b"), k, frozenset(edges))


def latent_cycle(k: int) -> lv.UnobservedNetwork:
    """k latents on a directed cycle, each fed by the one observed node:
    refinement leaves one class and only some orderings give the least key."""
    edges = {(0, 1 + z) for z in range(k)}
    edges |= {(1 + z, 1 + (z + 1) % k) for z in range(k)}
    return lv.UnobservedNetwork(("a",), k, frozenset(edges))


def matched_layers(k: int) -> lv.UnobservedNetwork:
    """Two classes of k latents, top z -> bottom z, tops fed by observed a
    and bottoms feeding observed b: the orderings of both classes interact."""
    edges = {(0, 2 + z) for z in range(k)} | {(2 + k + z, 1) for z in range(k)}
    edges |= {(2 + z, 2 + k + z) for z in range(k)}
    return lv.UnobservedNetwork(("a", "b"), 2 * k, frozenset(edges))


def latent_chain(k: int) -> lv.UnobservedNetwork:
    """a -> k latents in a row -> b."""
    edges = {(0, 2), (1 + k, 1)} | {(2 + z, 3 + z) for z in range(k - 1)}
    return lv.UnobservedNetwork(("a", "b"), k, frozenset(edges))


def canonical_cases() -> dict[str, lv.UnobservedNetwork]:
    meas = ambiguity_meas()
    cases = {
        "ambiguity_left": lv.UnobservedNetwork(
            meas.names, 3, frozenset({(0, 4), (4, 5), (5, 3), (1, 4), (1, 6), (6, 2)})
        ),
        "ambiguity_right": lv.UnobservedNetwork(
            meas.names, 3, frozenset({(0, 4), (4, 5), (5, 3), (1, 6), (6, 5), (6, 2)})
        ),
    }
    for seed in CANON_SEEDS:
        got = gen_single_path_instance(np.random.default_rng(seed))
        assert got is not None
        cases[f"single_path_{seed}"] = got[0]
    for k in CANON_KS:
        cases[f"twins_{k}"] = twin_latents(k)
        cases[f"cycle_{k}"] = latent_cycle(k)
        if k <= 4:
            cases[f"layers_{k}"] = matched_layers(k)
    for k in CHAIN_KS:
        cases[f"chain_{k}"] = latent_chain(k)
    return cases


def relabel_latents(g: lv.UnobservedNetwork, perm) -> lv.UnobservedNetwork:
    n = g.n
    f = {n + z: n + int(p) for z, p in enumerate(perm)}
    edges = frozenset((f.get(u, u), f.get(v, v)) for u, v in g.edges)
    return lv.UnobservedNetwork(g.observed, g.latent_count, edges)


def nm_keys(meas: lv.LinearMeasurements) -> list[str]:
    return [lv.canonical_form(g).key.decode() for g in lv.nm(meas)]


def oracle_edges(meas: lv.LinearMeasurements) -> list[str]:
    return [repr(sorted(g.edges)) for g in lv.oracle_minimal(meas, ORACLE_M_MAX)]


def golden_panel() -> lv.TimeSeriesPanel:
    model = lv.gen_drg(lv.DrgConfig(**PANEL_CFG))
    return lv.simulate(model, PANEL_T, seed=PANEL_CFG["seed"])


def estimation_outputs(panel: lv.TimeSeriesPanel) -> dict:
    lag = lv.select_lag(panel, LAG_MAX)
    out = {"lag_aic": lag, "lag_fpe": lv.select_lag(panel, LAG_MAX, "fpe"), "fits": {}}
    for l in sorted({lag, FIXED_LAG}):
        report = lv.fit_coefficients(panel, l)
        meas = lv.extract_support(report)
        out["fits"][str(l)] = {
            "b_hat": [b.tolist() for b in report.b_hat],
            "entry_stderr": [se.tolist() for se in report.entry_stderr],
            "residual_cov": report.residual_cov.tolist(),
            "supports": [s.tolist() for s in meas.supports],
        }
    return out


def compute_golden() -> dict:
    return {
        "nm": {name: nm_keys(meas) for name, meas in nm_cases().items()},
        "canonical": {
            name: lv.canonical_form(g).key.decode() for name, g in canonical_cases().items()
        },
        "estimation": estimation_outputs(golden_panel()),
        "exhaustive": {name: oracle_edges(meas) for name, meas in nm_cases().items()},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def panel() -> lv.TimeSeriesPanel:
    return golden_panel()


@pytest.mark.parametrize("name", ["ambiguity", *(f"single_path_{s}" for s in NM_SEEDS)])
def test_nm_keys_in_order(golden, name):
    assert nm_keys(nm_cases()[name]) == golden["nm"][name]


@pytest.mark.parametrize("name", ["ambiguity", *(f"single_path_{s}" for s in NM_SEEDS)])
def test_oracle_edge_lists_in_order(golden, name):
    assert oracle_edges(nm_cases()[name]) == golden["exhaustive"][name]


@pytest.mark.parametrize("name", sorted(canonical_cases()))
def test_canonical_keys(golden, name):
    g = canonical_cases()[name]
    want = golden["canonical"][name]
    assert lv.canonical_form(g).key.decode() == want
    perm = np.random.default_rng(len(name)).permutation(g.latent_count)
    assert lv.canonical_form(relabel_latents(g, perm)).key.decode() == want


def test_selected_lags(golden, panel):
    want = golden["estimation"]
    assert lv.select_lag(panel, LAG_MAX) == want["lag_aic"]
    assert lv.select_lag(panel, LAG_MAX, "fpe") == want["lag_fpe"]


@pytest.mark.parametrize("lag", [FIXED_LAG, "selected"])
def test_coefficients_and_supports(golden, panel, lag):
    est = golden["estimation"]
    l = est["lag_aic"] if lag == "selected" else lag
    want = est["fits"][str(l)]
    report = lv.fit_coefficients(panel, l)
    assert len(report.b_hat) == len(want["b_hat"])
    for b, w in zip(report.b_hat, want["b_hat"]):
        np.testing.assert_allclose(b, np.array(w), rtol=1e-12, atol=0)
    scale = np.max(np.abs(report.gamma0))
    np.testing.assert_allclose(report.residual_cov, np.array(want["residual_cov"]), rtol=0, atol=1e-12 * scale)
    assert len(report.entry_stderr) == len(want["entry_stderr"])
    for se, w in zip(report.entry_stderr, want["entry_stderr"]):
        np.testing.assert_allclose(se, np.array(w), rtol=1e-12, atol=0)
    meas = lv.extract_support(report)
    assert [s.tolist() for s in meas.supports] == want["supports"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n")
