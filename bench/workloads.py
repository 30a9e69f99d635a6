"""The three workloads: their inputs, their operations and their checks.

A workload is built from ``--seed`` and holds a fixed list of operations.
Set-up (``prepare``) generates the inputs and warms the code up; ``run_op``
is the timed operation; ``check`` compares its output with the benchmark's
own computations in ``checks``.  Every call into ``latentvar`` goes through
the tracer, so the traced run times exactly the calls the untraced run makes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import latentvar as lv
from latentvar import cli

import checks

# ---------------------------------------------------------------------------
# mc-estimate: one replication of the synthetic DRG experiment

MC_OPS = 6
MC_T = 20_000
MC_L_MAX = 6
MC_ALPHA = 0.05
MC_DRG = dict(n=40, m=40, p=0.4, q=0.4, a=0.1)

# ---------------------------------------------------------------------------
# nm-search: exact measurements of small latent-DAG networks

#: Seed of the stream the catalogue networks are drawn from.
NM_CATALOGUE_SEED = 2017
#: Positions in that stream of the networks searched, in order.  They are the
#: ones on which nm tries 4700-9600 merge pairs (0.5-1.1 s on a 2-core box);
#: with operations of similar cost the median is steady.  --seed relabels the
#: nodes of each network, which leaves the pairs tried unchanged.
NM_CATALOGUE = (0, 7, 8, 10, 21, 30, 36, 38)
NM_OPS = len(NM_CATALOGUE)
NM_N_MAX, NM_M_MAX, NM_K_MAX = 6, 5, 4
NM_INIT_LATENTS = (9, 10)
NM_LINK_P = 0.3
#: Warm-up network: the two-network ambiguity example (4 observed, 3 latents).
NM_WARMUP = frozenset({(0, 4), (4, 5), (5, 3), (1, 4), (1, 6), (6, 2)})

# ---------------------------------------------------------------------------
# cli-pipeline: `latentvar pipeline <panel.csv> --mode dtr --alpha 1e-6`

CLI_OPS = 4
CLI_T = 20_000
CLI_N = 12
CLI_M_MAX = 5
CLI_ALPHA = 1e-6
CLI_L_MAX = 8  # the CLI's default --lag-max
CLI_EXTRA_P = 0.15  # extra observed<->latent links that keep the tree unique-parent
CLI_OBS_P = 0.03  # observed->observed links
CLI_WEIGHTS = (0.5, 0.9)
CLI_RADIUS = 0.9  # blocks are scaled to 0.85 / radius when the radius reaches this
CLI_SIGMA_X2 = 1.0
#: Latent noise variance.  At 0.05 the latent-noise bias of the lagged fit
#: (Proposition 1) made 7 of 80 prototype panels miss or add a support entry
#: at T = 20000; at 0.01 none of 600 did.
CLI_SIGMA_Z2 = 0.01
#: Smallest latent-path coefficient a panel may carry, so T = 20000 resolves it.
CLI_MIN_PATH_COEF = 0.1


def _seed_int(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


class Workload:
    name = ""
    #: Whether the timed work runs in child processes rather than this one.
    work_in_children = False

    def __init__(self, seed: int, tracer, count: int | None = None, workdir: Path | None = None):
        self.seed = seed
        self.tr = tracer
        self.count = self.default_count if count is None else count
        self.workdir = workdir
        self.inputs: list = []
        #: cli-pipeline runs its operations in this process (the traced run).
        self.in_process = tracer.enabled

    def prepare(self) -> None:
        raise NotImplementedError

    def run_op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError


# ---------------------------------------------------------------------------


@dataclass
class McOutput:
    model: lv.LatentVarModel
    panel: lv.TimeSeriesPanel
    lag: int
    report: lv.EstimationReport
    meas: lv.LinearMeasurements
    support_errors: int


class McEstimate(Workload):
    """gen_drg -> simulate -> select_lag -> fit_coefficients -> extract_support -> score."""

    name = "mc-estimate"
    default_count = MC_OPS

    def prepare(self) -> None:
        self.inputs = [_seed_int(self.seed, i) for i in range(self.count)]
        self._replicate(_seed_int(self.seed, 1_000_000))  # warm-up, not checked

    def _replicate(self, s: int) -> McOutput:
        tr = self.tr
        model = tr.call("simulate.gen_drg", lv.gen_drg, lv.DrgConfig(**MC_DRG, seed=s))
        panel = tr.call("simulate.simulate", lv.simulate, model, MC_T, seed=s)
        lag = tr.call("estimate.select_lag", lv.select_lag, panel, MC_L_MAX)
        report = tr.call("estimate.fit_coefficients", lv.fit_coefficients, panel, lag)
        meas = tr.call("estimate.extract_support", lv.extract_support, report, MC_ALPHA)
        true = tr.call("model.true_linear_measurements", lv.true_linear_measurements, model)
        k = max(len(meas.supports), len(true.supports))
        pad = lambda s: list(s) + [np.zeros_like(s[0])] * (k - len(s))  # noqa: E731
        errors = sum(int((a != b).sum()) for a, b in zip(pad(meas.supports), pad(true.supports)))
        return McOutput(model, panel, lag, report, meas, errors)

    def run_op(self, i: int) -> McOutput:
        return self._replicate(self.inputs[i])

    def check(self, i: int, out: McOutput) -> list[str]:
        r = out.report
        problems = checks.check_estimate(
            out.panel.data, out.lag, MC_L_MAX, MC_ALPHA, r.b_hat, r.entry_stderr, out.meas.supports
        )
        if r.lag != out.lag:
            problems.append(f"report lag {r.lag} differs from selected lag {out.lag}")
        return problems


# ---------------------------------------------------------------------------


def random_single_path_network(rng: np.random.Generator):
    """(n, m, edges) of a latent-DAG network with at most one latent path per
    length between any ordered observed pair, K <= NM_K_MAX and an initial
    merge graph of NM_INIT_LATENTS latent nodes."""
    while True:
        n = int(rng.integers(2, NM_N_MAX + 1))
        m = int(rng.integers(1, NM_M_MAX + 1))
        order = rng.permutation(m)
        pos = np.empty(m, dtype=int)
        pos[order] = np.arange(m)
        edges = set()
        for z1 in range(m):
            for z2 in range(m):
                if pos[z1] < pos[z2] and rng.random() < NM_LINK_P:
                    edges.add((n + z1, n + z2))
        for i in range(n):
            for z in range(m):
                if rng.random() < NM_LINK_P:
                    edges.add((i, n + z))
                if rng.random() < NM_LINK_P:
                    edges.add((n + z, i))
        if any((c > 1).any() for c in checks.path_counts(n, m, edges)):
            continue
        sup = checks.census(n, m, edges)
        if len(sup) < 2 or len(sup) - 1 > NM_K_MAX:
            continue
        init = sum(k * int(s.sum()) for k, s in enumerate(sup))
        if NM_INIT_LATENTS[0] <= init <= NM_INIT_LATENTS[1]:
            return n, m, frozenset(edges)


def relabel(n: int, m: int, edges, rng: np.random.Generator):
    po, pl = rng.permutation(n), rng.permutation(m)
    f = lambda v: int(po[v]) if v < n else n + int(pl[v - n])  # noqa: E731
    return frozenset((f(u), f(v)) for u, v in edges)


def nm_catalogue(count: int) -> list[tuple[int, int, frozenset]]:
    """The first `count` networks of NM_CATALOGUE."""
    rng = np.random.default_rng(NM_CATALOGUE_SEED)
    stream = [random_single_path_network(rng) for _ in range(max(NM_CATALOGUE[:count], default=-1) + 1)]
    return [stream[k] for k in NM_CATALOGUE[:count]]


@dataclass
class NmInput:
    n: int
    m: int
    edges: frozenset
    meas: lv.LinearMeasurements


class NmSearch(Workload):
    """One nm call per network of the catalogue, relabelled by --seed."""

    name = "nm-search"
    default_count = NM_OPS

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        for n, m, edges in nm_catalogue(self.count):
            edges = relabel(n, m, edges, rng)
            sup = checks.census(n, m, edges)
            names = tuple(str(i + 1) for i in range(n))
            self.inputs.append(NmInput(n, m, edges, lv.LinearMeasurements(n, sup, names)))
        warm = lv.LinearMeasurements(4, checks.census(4, 3, NM_WARMUP))
        self.tr.call("recover.nm", lv.nm, warm)

    def run_op(self, i: int) -> list[lv.UnobservedNetwork]:
        return self.tr.call("recover.nm", lv.nm, self.inputs[i].meas)

    def check(self, i: int, nets) -> list[str]:
        inp = self.inputs[i]
        problems = []
        if not nets:
            return ["nm returned no network"]
        counts = {g.latent_count for g in nets}
        if len(counts) != 1:
            problems.append(f"networks with different latent counts {sorted(counts)}")
        elif counts.pop() > inp.m:
            problems.append("more latents than the generating network")
        for g in nets:
            sup = checks.census(g.n, g.latent_count, g.edges)
            if sup is None or not checks.same_supports(sup, inp.meas.supports):
                problems.append("a network does not reproduce the measurements")
                break
        oracle = lv.oracle_minimal(inp.meas, NM_M_MAX)
        if not checks.same_network_sets(inp.n, nets, oracle):
            problems.append(f"{len(nets)} networks differ from the oracle's {len(oracle)}")
        return problems


# ---------------------------------------------------------------------------


def random_tree_model(rng: np.random.Generator):
    """(blocks, edges) of a unique-parent latent tree with sparse observed links.

    Each latent node has a reserved observed parent, each latent leaf a
    reserved observed child; extra observed->latent and latent->observed links
    avoid the reserved nodes, so both uniqueness conditions hold.  Weights are
    drawn from CLI_WEIGHTS and all positive, so no two paths cancel.  Models
    whose weakest latent-path coefficient is below CLI_MIN_PATH_COEF are
    redrawn.
    """
    n = CLI_N
    while True:
        m = int(rng.integers(1, CLI_M_MAX + 1))
        tree_parent = {z: int(rng.integers(0, z)) for z in range(1, m)}
        leaves = [z for z in range(m) if z not in tree_parent.values()]
        a11, a12 = np.zeros((n, n)), np.zeros((n, m))
        a21, a22 = np.zeros((m, n)), np.zeros((m, m))
        w = lambda: rng.uniform(*CLI_WEIGHTS)  # noqa: E731
        for z, p in tree_parent.items():
            a22[z, p] = w()
        parents = [int(v) for v in rng.permutation(n)[:m]]
        child_order = rng.permutation(n)
        reserved_child = {z: int(child_order[i]) for i, z in enumerate(leaves)}
        for z in range(m):
            a21[z, parents[z]] = w()
        for z, j in reserved_child.items():
            a12[j, z] = w()
        for i in set(range(n)) - set(parents):
            for z in range(m):
                if rng.random() < CLI_EXTRA_P:
                    a21[z, i] = w()
        avoid = set(reserved_child.values())
        for z in range(m):
            for j in range(n):
                if j not in avoid and rng.random() < CLI_EXTRA_P:
                    a12[j, z] = w()
        obs = rng.random((n, n)) < CLI_OBS_P
        a11[obs] = rng.uniform(*CLI_WEIGHTS, size=int(obs.sum()))
        full = np.block([[a11, a12], [a21, a22]])
        radius = float(np.abs(np.linalg.eigvals(full)).max())
        if radius >= CLI_RADIUS:
            a11, a12, a21, a22 = (b * (0.85 / radius) for b in (a11, a12, a21, a22))
        path, coefs = a21, []
        for _ in range(m):
            c = a12 @ path
            coefs.extend(c[c > 0])
            path = a22 @ path
        if min(coefs) < CLI_MIN_PATH_COEF:
            continue
        edges = {(int(i), n + int(z)) for z, i in zip(*np.nonzero(a21))}
        edges |= {(n + int(z), int(j)) for j, z in zip(*np.nonzero(a12))}
        edges |= {(n + int(p), n + int(z)) for z, p in zip(*np.nonzero(a22))}
        edges |= {(int(i), int(j)) for j, i in zip(*np.nonzero(a11))}
        return (a11, a12, a21, a22), frozenset(edges)


@dataclass
class CliInput:
    m: int
    edges: frozenset
    path: Path


def src_env() -> dict[str, str]:
    """Environment of a child interpreter that imports the package from this checkout."""
    env = dict(os.environ)
    src = str(Path(lv.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliPipeline(Workload):
    """One `latentvar pipeline` run per panel, in a fresh interpreter.

    The traced run calls, in process, the public functions the pipeline
    command calls, and times a fresh interpreter's import of latentvar.cli.
    """

    name = "cli-pipeline"
    default_count = CLI_OPS
    work_in_children = True

    def prepare(self) -> None:
        self.env = src_env()
        for i in range(self.count):
            rng = np.random.default_rng([self.seed, i])
            blocks, edges = random_tree_model(rng)
            model = lv.LatentVarModel(lv.BlockTransitionMatrix(*blocks), CLI_SIGMA_X2, CLI_SIGMA_Z2)
            panel = self.tr.call("simulate.simulate", lv.simulate, model, CLI_T, seed=_seed_int(self.seed, i))
            path = self.workdir / f"panel{i}.csv"
            self.tr.call("cli.write_panel_csv", cli.write_panel_csv, str(path), panel)
            self.inputs.append(CliInput(model.m, edges, path))
        self.run_op(0)  # warm-up: file cache, byte code, first BLAS calls

    def _command(self, i: int) -> list[str]:
        return [
            sys.executable, "-m", "latentvar.cli", "pipeline", str(self.inputs[i].path),
            "--mode", "dtr", "--alpha", repr(CLI_ALPHA), "--out", str(self._out(i)),
        ]

    def _out(self, i: int) -> Path:
        return self.workdir / f"bundle{i}.json"

    def run_op(self, i: int) -> dict:
        out = self._out(i)
        out.unlink(missing_ok=True)
        if not self.in_process:
            proc = subprocess.run(self._command(i), env=self.env, capture_output=True, text=True)
            if proc.returncode != 0:
                raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
        else:
            self._run_in_process(i)
        return json.loads(out.read_text(encoding="utf-8"))

    def _run_in_process(self, i: int) -> None:
        tr = self.tr
        tr.call(
            "cli.startup",
            subprocess.run,
            [sys.executable, "-c", "import latentvar.cli"],
            env=self.env,
            check=True,
        )
        panel = tr.call("cli.read_panel_csv", cli.read_panel_csv, str(self.inputs[i].path))
        feasible = int((panel.t_len / 2 - 1) // panel.n)
        lag = tr.call("estimate.select_lag", lv.select_lag, panel, min(CLI_L_MAX, feasible))
        report = tr.call("estimate.fit_coefficients", lv.fit_coefficients, panel, lag)
        meas = tr.call("estimate.extract_support", lv.extract_support, report, CLI_ALPHA)
        net = tr.call("recover.dtr", lv.dtr, meas)
        with tr.span("cli.to_json"):
            bundle = {
                "report": cli.report_to_json(report),
                "measurements": cli.measurements_to_json(meas),
                "networks": [cli.network_to_json(net)],
            }
        tr.call("cli.write_json", cli.write_json, str(self._out(i)), bundle)

    def check(self, i: int, bundle: dict) -> list[str]:
        inp = self.inputs[i]
        return check_bundle(bundle, CLI_N, inp.m, inp.edges)


def check_bundle(bundle: dict, n: int, m: int, true_edges) -> list[str]:
    """A pipeline bundle against the generating network: exact supports, and
    the tree-recovery contract on the single returned network."""
    problems = []
    true_sup = checks.census(n, m, true_edges)
    if not checks.same_supports(bundle["measurements"]["supports"], true_sup):
        problems.append("supports differ from the true supports")
    nets = bundle["networks"]
    if len(nets) != 1:
        return problems + [f"{len(nets)} networks, expected 1"]
    names = nets[0]["observed"]
    index = {name: k for k, name in enumerate(names)}
    got_m = int(nets[0]["latent_count"])
    index.update({f"L{z}": n + z for z in range(got_m)})
    got_edges = {(index[u], index[v]) for u, v in nets[0]["edges"]}
    if not checks.tree_contract(n, m, true_edges, got_m, got_edges):
        problems.append("the network breaks the tree-recovery contract")
    return problems


WORKLOADS = {w.name: w for w in (McEstimate, NmSearch, CliPipeline)}
