"""Tests of the benchmark's own checks and a short end-to-end run of each workload.

    python3 -m pytest bench

Each check must pass on the package's real output and fail on a corrupted
copy of it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import latentvar as lv  # noqa: E402
from latentvar import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import NullTracer  # noqa: E402

AMBIG = workloads.NM_WARMUP  # two minimal networks


def test_census_matches_package():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, m, edges = workloads.random_single_path_network(rng)
        net = lv.UnobservedNetwork(tuple(map(str, range(n))), m, edges)
        assert checks.same_supports(checks.census(n, m, edges), lv.complete_census(net).supports)


def test_census_flags_a_latent_cycle():
    assert checks.census(1, 2, {(0, 1), (1, 2), (2, 1), (2, 0)}) is None


# ---------------------------------------------------------------------------
# mc-estimate


@pytest.fixture(scope="module")
def fitted():
    model = lv.gen_drg(lv.DrgConfig(n=6, m=6, p=0.4, q=0.4, a=0.3, seed=3))
    panel = lv.simulate(model, 4000, seed=3)
    lag = lv.select_lag(panel, 4)
    report = lv.fit_coefficients(panel, lag)
    meas = lv.extract_support(report, 0.05)
    return panel.data, lag, report, meas


def _check_fit(fitted, lag=None, b_hat=None, supports=None):
    x, lag0, report, meas = fitted
    return checks.check_estimate(
        x,
        lag0 if lag is None else lag,
        4,
        0.05,
        report.b_hat if b_hat is None else b_hat,
        report.entry_stderr,
        meas.supports if supports is None else supports,
    )


def test_estimate_check_passes_real_fit(fitted):
    assert _check_fit(fitted) == []


def test_estimate_check_fails_on_wrong_support_entry(fitted):
    supports = [s.copy() for s in fitted[3].supports]
    supports[0][1, 2] ^= 1
    assert any("z-test" in p for p in _check_fit(fitted, supports=supports))


def test_estimate_check_fails_on_perturbed_coefficient(fitted):
    b_hat = [b.copy() for b in fitted[2].b_hat]
    b_hat[0][0, 0] += 1e-3
    assert any("Yule-Walker" in p for p in _check_fit(fitted, b_hat=b_hat))


def test_estimate_check_fails_on_non_minimal_lag(fitted):
    x, lag, _, _ = fitted
    other = 4 if lag != 4 else 1
    report = lv.fit_coefficients(lv.TimeSeriesPanel(lv.default_names(x.shape[1]), x), other)
    meas = lv.extract_support(report, 0.05)
    problems = checks.check_estimate(x, other, 4, 0.05, report.b_hat, report.entry_stderr, meas.supports)
    assert any("AIC" in p for p in problems)


# ---------------------------------------------------------------------------
# nm-search


@pytest.fixture(scope="module")
def nm_case():
    wl = workloads.NmSearch(0, NullTracer(), count=0)
    meas = lv.LinearMeasurements(4, checks.census(4, 3, AMBIG))
    wl.inputs = [workloads.NmInput(4, 3, AMBIG, meas)]
    nets = lv.nm(meas)
    assert len(nets) >= 2
    return wl, nets


def test_nm_check_passes_real_search(nm_case):
    wl, nets = nm_case
    assert wl.check(0, nets) == []


def test_nm_check_fails_on_dropped_network(nm_case):
    wl, nets = nm_case
    assert wl.check(0, nets[1:])


def test_nm_check_fails_on_extra_network(nm_case):
    wl, nets = nm_case
    g = nets[0]
    extra = lv.UnobservedNetwork(g.observed, g.latent_count, g.edges | {(0, 2)})
    assert wl.check(0, [*nets, extra])


def test_nm_check_fails_on_duplicated_network(nm_case):
    wl, nets = nm_case
    assert wl.check(0, [*nets[1:], nets[0], nets[0]])


# ---------------------------------------------------------------------------
# cli-pipeline


@pytest.fixture(scope="module")
def tree_case():
    blocks, edges = workloads.random_tree_model(np.random.default_rng(4))
    n, m = workloads.CLI_N, blocks[3].shape[0]
    sup = checks.census(n, m, edges)
    meas = lv.LinearMeasurements(n, sup, lv.default_names(n))
    net = lv.dtr(meas)
    bundle = {
        "measurements": cli.measurements_to_json(meas),
        "networks": [cli.network_to_json(net)],
    }
    assert m >= 1
    return json.loads(json.dumps(bundle)), n, m, edges


def test_bundle_check_passes_real_recovery(tree_case):
    bundle, n, m, edges = tree_case
    assert workloads.check_bundle(bundle, n, m, edges) == []


def test_bundle_check_fails_on_wrong_support_entry(tree_case):
    bundle, n, m, edges = tree_case
    bad = json.loads(json.dumps(bundle))
    bad["measurements"]["supports"][0][0][1] ^= 1
    assert workloads.check_bundle(bad, n, m, edges) == ["supports differ from the true supports"]


def test_bundle_check_fails_on_miswired_edge(tree_case):
    bundle, n, m, edges = tree_case
    bad = json.loads(json.dumps(bundle))
    net = bad["networks"][0]
    src, dst = next((u, v) for u, v in net["edges"] if u.startswith("L") and not v.startswith("L"))
    free = next(x for x in net["observed"] if [src, x] not in net["edges"])
    net["edges"] = [e for e in net["edges"] if e != [src, dst]] + [[src, free]]
    assert workloads.check_bundle(bad, n, m, edges) == ["the network breaks the tree-recovery contract"]


def test_tree_models_are_stable_latent_trees():
    rng = np.random.default_rng(5)
    for _ in range(20):
        blocks, edges = workloads.random_tree_model(rng)
        a11, a12, a21, a22 = blocks
        assert (a22 >= 0).all() and (np.triu(a22) == 0).all()
        assert np.abs(np.linalg.eigvals(np.block([[a11, a12], [a21, a22]]))).max() < workloads.CLI_RADIUS


# ---------------------------------------------------------------------------
# end to end


def _run(*args, cwd=BENCH.parent):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["mc-estimate", "nm-search", "cli-pipeline"])
def test_short_run(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--count", "2")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2, proc.stderr
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert all(v["value"] > 0 for k, v in result["metrics"].items() if k != "trace.overhead_pct")


def test_fails_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "nm-search", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
