"""Command-line front end: simulate / estimate / recover / pipeline / census.

File formats
------------
* panel CSV: first row series names, then one row per time step (UTF-8,
  comma separator, decimal point).
* measurements JSON: ``{"n": int, "names": [...], "supports": [S_0, S_1, ...]}``
  with each S_k a row-major 0/1 matrix.
* network JSON: ``{"observed": [names], "latent_count": m, "edges": [[src, dst], ...]}``
  where latent nodes are called "L0" .. "L{m-1}", never an observed name.
* model JSON: the four blocks plus noise variances.

Exit codes: 0 ok, 2 input error, 3 algorithmic failure (condition named on
stderr).  The environment variable LVL_SEED supplies a default seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import estimate as est
from . import model as mdl
from . import recover as rec
from .errors import InsufficientData, LatentVarError
from .simulate import DEFAULT_BURN_IN, DrgConfig, TimeSeriesPanel, gen_drg, simulate


@dataclass
class RunConfig:
    """Resolved command parameters (flags override the config file)."""

    seed: int = 0
    lag: int | None = None
    lag_max: int = 8
    criterion: str = "aic"
    alpha: float = 0.05
    cap: int = rec.DEFAULT_CAP
    mode: str = "dtr"
    rho12: float | None = None
    rho22: float | None = None
    sigma_z2_max: float | None = None

    def priors(self) -> est.BoundPriors | None:
        given = [self.rho12, self.rho22, self.sigma_z2_max]
        if all(v is None for v in given):
            return None
        if any(v is None for v in given):
            raise ValueError("--rho12, --rho22 and --sigma-z2-max must be given together")
        return est.BoundPriors(self.rho12, self.rho22, self.sigma_z2_max)


class InputError(Exception):
    """Bad file contents or inconsistent options (exit code 2)."""


# ---------------------------------------------------------------------------
# serialization

def measurements_to_json(meas: mdl.LinearMeasurements) -> dict:
    return {
        "n": meas.n,
        "names": list(meas.names),
        "supports": [s.tolist() for s in meas.supports],
    }


def _unique_names(names: Sequence[str], where: str) -> None:
    dup = next((s for i, s in enumerate(names) if s in names[:i]), None)
    if dup is not None:
        raise InputError(f"{where}: duplicate series name {dup!r}")


def measurements_from_json(obj: dict) -> mdl.LinearMeasurements:
    try:
        meas = mdl.LinearMeasurements(
            int(obj["n"]),
            [np.asarray(s) for s in obj["supports"]],
            obj.get("names"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad measurements JSON: {exc}") from exc
    _unique_names(meas.names, "bad measurements JSON")
    return meas


def _label(net: mdl.UnobservedNetwork, v: int) -> str:
    return net.observed[v] if v < net.n else f"L{v - net.n}"


def network_to_json(net: mdl.UnobservedNetwork) -> dict:
    edges = sorted([_label(net, u), _label(net, v)] for u, v in net.edges)
    return {"observed": list(net.observed), "latent_count": net.latent_count, "edges": edges}


def network_from_json(obj: dict) -> mdl.UnobservedNetwork:
    try:
        observed = [str(x) for x in obj["observed"]]
        m = int(obj["latent_count"])
        _unique_names(observed, "bad network JSON")
        index = {name: i for i, name in enumerate(observed)}
        for i in range(m):
            if index.setdefault(f"L{i}", len(observed) + i) != len(observed) + i:
                raise ValueError(f"observed name 'L{i}' is also a latent label")
        edges = {(index[str(u)], index[str(v)]) for u, v in obj["edges"]}
        return mdl.UnobservedNetwork(tuple(observed), m, frozenset(edges))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad network JSON: {exc}") from exc


def model_to_json(model: mdl.LatentVarModel, names: Sequence[str] | None = None) -> dict:
    b = model.blocks
    return {
        "n": model.n,
        "m": model.m,
        "names": list(names) if names is not None else list(mdl.default_names(model.n)),
        "a11": b.a11.tolist(),
        "a12": b.a12.tolist(),
        "a21": b.a21.tolist(),
        "a22": b.a22.tolist(),
        "sigma_x2": model.sigma_x2,
        "sigma_z2": model.sigma_z2,
    }


def model_from_json(obj: dict) -> tuple[mdl.LatentVarModel, tuple[str, ...]]:
    try:
        blocks = mdl.BlockTransitionMatrix(
            np.asarray(obj["a11"], dtype=float).reshape(int(obj["n"]), int(obj["n"])),
            np.asarray(obj["a12"], dtype=float).reshape(int(obj["n"]), int(obj["m"])),
            np.asarray(obj["a21"], dtype=float).reshape(int(obj["m"]), int(obj["n"])),
            np.asarray(obj["a22"], dtype=float).reshape(int(obj["m"]), int(obj["m"])),
        )
        model = mdl.LatentVarModel(blocks, float(obj["sigma_x2"]), float(obj["sigma_z2"]))
        names = tuple(str(x) for x in obj.get("names", mdl.default_names(model.n)))
        return model, names
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad model JSON: {exc}") from exc


def report_to_json(report: est.EstimationReport) -> dict:
    return {
        "lag": report.lag,
        "names": list(report.names),
        "nobs": report.nobs,
        "b_hat": [b.tolist() for b in report.b_hat],
        "residual_cov": report.residual_cov.tolist(),
        "entry_stderr": [s.tolist() for s in report.entry_stderr],
        "gamma0": report.gamma0.tolist(),
        "alpha": report.alpha,
        "bounds": list(report.bounds) if report.bounds is not None else None,
        "supports": measurements_to_json(report.supports) if report.supports else None,
    }


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc


def write_panel_csv(path: str, panel: TimeSeriesPanel) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(panel.names)
        writer.writerows(panel.data.tolist())  # csv writes floats with repr


def read_panel_csv(path: str) -> TimeSeriesPanel:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise InputError(str(exc)) from exc
    if len(rows) < 2:
        raise InputError(f"{path}: need a header row and at least one sample")
    names = [c.strip() for c in rows[0]]
    _unique_names(names, path)
    for r, row in enumerate(rows[1:], 2):
        if len(row) != len(names):
            raise InputError(f"{path}: ragged rows: row {r} has {len(row)} cells, header has {len(names)}")
    try:
        data = np.array(rows[1:], dtype=float)  # parses each cell as float() does
    except ValueError as exc:
        raise InputError(f"{path}: non-numeric cell ({exc})") from exc
    try:
        return TimeSeriesPanel(tuple(names), data)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _dot_id(name: str) -> str:
    """Quoted DOT id; a backslash or quote in the name is escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def networks_to_dot(nets: Sequence[mdl.UnobservedNetwork]) -> str:
    """Observed nodes as filled boxes, latent nodes as dashed circles."""
    chunks = []
    for g_idx, net in enumerate(nets):
        lines = [f"digraph g{g_idx} {{"]
        for name in net.observed:
            lines.append(f"  {_dot_id(name)} [shape=box, style=filled];")
        for z in net.latent_ids:
            lines.append(f"  {_dot_id(_label(net, z))} [shape=circle, style=dashed];")
        for u, v in sorted((_label(net, a), _label(net, b)) for a, b in net.edges):
            lines.append(f"  {_dot_id(u)} -> {_dot_id(v)};")
        lines.append("}")
        chunks.append("\n".join(lines))
    return "\n".join(chunks) + "\n"


# ---------------------------------------------------------------------------
# config resolution

#: Every key some command reads through _resolve (one file may serve several commands).
_CONFIG_KEYS = {f.name for f in fields(RunConfig)} | {
    "n", "m", "p", "q", "p_obs", "a", "sigma_x2", "sigma_z2", "t_len", "burn_in"}


def _load_config_file(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InputError(f"{path}:{lineno}: expected key = value")
                key, val = line.split("=", 1)
                key = key.strip().replace("-", "_")
                if key not in _CONFIG_KEYS:
                    raise InputError(f"{path}:{lineno}: no command reads config key {key!r}")
                out[key] = val.strip()
    except OSError as exc:
        raise InputError(str(exc)) from exc
    return out


def _resolve(args: argparse.Namespace, key: str, cast, default):
    """Flag value if given, else config-file value, else default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    filecfg = getattr(args, "_filecfg", {})
    if key in filecfg:
        try:
            return cast(filecfg[key])
        except ValueError as exc:
            raise InputError(f"config key {key}: {exc}") from exc
    return default


def _default_seed() -> int:
    env = os.environ.get("LVL_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError as exc:
        raise InputError(f"LVL_SEED must be an integer, got {env!r}") from exc


def _run_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(
        seed=_resolve(args, "seed", int, _default_seed()),
        lag=_resolve(args, "lag", int, None),
        lag_max=_resolve(args, "lag_max", int, 8),
        criterion=_resolve(args, "criterion", str, "aic"),
        alpha=_resolve(args, "alpha", float, 0.05),
        cap=_resolve(args, "cap", int, rec.DEFAULT_CAP),
        mode=_resolve(args, "mode", str, "dtr"),
        rho12=_resolve(args, "rho12", float, None),
        rho22=_resolve(args, "rho22", float, None),
        sigma_z2_max=_resolve(args, "sigma_z2_max", float, None),
    )
    if not 0.0 < cfg.alpha < 1.0:
        raise InputError("alpha must lie in (0, 1)")
    if cfg.lag_max < 1 or cfg.cap < 1:
        raise InputError("lag-max and cap must be >= 1")
    if cfg.mode not in ("tree", "dtr", "nm"):
        raise InputError(f"unknown mode {cfg.mode!r}")
    if cfg.criterion.lower() not in ("aic", "fpe"):
        raise InputError(f"unknown criterion {cfg.criterion!r}")
    return cfg


# ---------------------------------------------------------------------------
# commands

def _cmd_simulate(args) -> int:
    cfg = _run_config(args)
    drg = DrgConfig(
        n=_resolve(args, "n", int, 4),
        m=_resolve(args, "m", int, 2),
        p=_resolve(args, "p", float, 0.4),
        q=_resolve(args, "q", float, 0.4),
        p_obs=_resolve(args, "p_obs", float, None),
        a=_resolve(args, "a", float, 0.1),
        sigma_x2=_resolve(args, "sigma_x2", float, 1.0),
        sigma_z2=_resolve(args, "sigma_z2", float, 1.0),
        seed=cfg.seed,
    )
    t_len = _resolve(args, "t_len", int, 1000)
    burn_in = _resolve(args, "burn_in", int, DEFAULT_BURN_IN)
    model = gen_drg(drg)
    panel = simulate(model, t_len, burn_in=burn_in, seed=cfg.seed)
    write_json(args.out_model, model_to_json(model))
    write_panel_csv(args.out_panel, panel)
    return 0


def _effective_lag(panel: TimeSeriesPanel, cfg: RunConfig) -> int:
    if cfg.lag is not None:
        return cfg.lag
    l_max = cfg.lag_max
    feasible = int((panel.t_len / 2 - 1) // panel.n)
    if feasible < 1:
        raise InsufficientData(f"panel too short to select any lag (T={panel.t_len})")
    return est.select_lag(panel, min(l_max, feasible), cfg.criterion)


def _estimate(panel: TimeSeriesPanel, cfg: RunConfig) -> est.EstimationReport:
    lag = _effective_lag(panel, cfg)
    report = est.fit_coefficients(panel, lag)
    est.extract_support(report, cfg.alpha, cfg.priors())
    return report


def _cmd_estimate(args) -> int:
    cfg = _run_config(args)
    panel = read_panel_csv(args.panel)
    report = _estimate(panel, cfg)
    write_json(args.out_measurements, measurements_to_json(report.supports))
    write_json(args.out_report, report_to_json(report))
    return 0


def _recover_networks(meas: mdl.LinearMeasurements, cfg: RunConfig) -> list[mdl.UnobservedNetwork]:
    if clash := [s for s in meas.names if s[1:].isdecimal() and s == f"L{int(s[1:])}"]:
        raise InputError(f"observed name {clash[0]!r} has the form L<k> of a latent label")
    if cfg.mode == "dtr":
        return [rec.dtr(meas)]
    if cfg.mode == "tree":
        return [rec.recover_tree(meas, cap=cfg.cap)]
    return rec.nm(meas, cap=cfg.cap)


def _cmd_recover(args) -> int:
    cfg = _run_config(args)
    meas = measurements_from_json(read_json(args.measurements))
    nets = _recover_networks(meas, cfg)
    payload = [network_to_json(g) for g in nets]
    write_json(args.out, payload if cfg.mode == "nm" else payload[0])
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(networks_to_dot(nets))
    return 0


def _cmd_pipeline(args) -> int:
    cfg = _run_config(args)
    panel = read_panel_csv(args.panel)
    report = _estimate(panel, cfg)
    nets = _recover_networks(report.supports, cfg)
    bundle = {
        "report": report_to_json(report),
        "measurements": measurements_to_json(report.supports),
        "networks": [network_to_json(g) for g in nets],
    }
    write_json(args.out, bundle)
    return 0


def _cmd_census(args) -> int:
    obj = read_json(args.source)
    if "a11" in obj:
        model, names = model_from_json(obj)
        meas = mdl.true_linear_measurements(model, names)
    elif "edges" in obj:
        net = network_from_json(obj)
        meas = mdl.complete_census(net)
    else:
        raise InputError(f"{args.source}: neither a model nor a network JSON")
    write_json(args.out, measurements_to_json(meas))
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key = value file; flags take precedence")
    sub.add_argument("--seed", type=int, help="RNG seed (default: $LVL_SEED or 0)")


def _add_estimation_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--lag", type=int, help="fixed fit lag (skips selection)")
    sub.add_argument("--lag-max", dest="lag_max", type=int, help="largest lag tried (default 8)")
    sub.add_argument("--criterion", choices=("aic", "fpe"), help="lag selection rule")
    sub.add_argument("--alpha", type=float, help="significance level (default 0.05)")
    sub.add_argument("--rho12", type=float, help="prior bound on the latent-to-observed norm")
    sub.add_argument("--rho22", type=float, help="prior bound (< 1) on the latent-block norm")
    sub.add_argument("--sigma-z2-max", dest="sigma_z2_max", type=float, help="prior bound on the latent noise variance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentvar",
        description="Learn latent-VAR network structure from observed time series.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_sim = subs.add_parser("simulate", help="draw a random model and a trajectory")
    p_sim.add_argument("--n", type=int, help="observed node count (default 4)")
    p_sim.add_argument("--m", type=int, help="latent node count (default 2)")
    p_sim.add_argument("--p", type=float, help="observed<->latent link probability")
    p_sim.add_argument("--q", type=float, help="latent->latent link probability")
    p_sim.add_argument("--p-obs", dest="p_obs", type=float, help="observed->observed link probability (default: p)")
    p_sim.add_argument("--a", type=float, help="weight half-range (default 0.1)")
    p_sim.add_argument("--sigma-x2", dest="sigma_x2", type=float, help="observed noise variance")
    p_sim.add_argument("--sigma-z2", dest="sigma_z2", type=float, help="latent noise variance")
    p_sim.add_argument("--T", dest="t_len", type=int, help="samples to keep (default 1000)")
    p_sim.add_argument("--burn-in", dest="burn_in", type=int, help="transient samples to drop")
    p_sim.add_argument("--out-model", default="model.json")
    p_sim.add_argument("--out-panel", default="panel.csv")
    _add_common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_est = subs.add_parser("estimate", help="fit the panel and extract measurement supports")
    p_est.add_argument("panel", help="input panel CSV")
    _add_estimation_flags(p_est)
    p_est.add_argument("--out-measurements", default="measurements.json")
    p_est.add_argument("--out-report", default="report.json")
    _add_common(p_est)
    p_est.set_defaults(func=_cmd_estimate)

    p_rec = subs.add_parser("recover", help="reconstruct unobserved networks from measurements")
    p_rec.add_argument("measurements", help="input measurements JSON")
    p_rec.add_argument("--mode", choices=("tree", "dtr", "nm"), help="recovery algorithm (default dtr)")
    p_rec.add_argument("--cap", type=int, help="latent budget per connected class, read by --mode nm and tree (default 40)")
    p_rec.add_argument("--dot", help="also write Graphviz DOT here")
    p_rec.add_argument("--out", default="networks.json")
    _add_common(p_rec)
    p_rec.set_defaults(func=_cmd_recover)

    p_pipe = subs.add_parser("pipeline", help="estimate then recover in one go")
    p_pipe.add_argument("panel", help="input panel CSV")
    _add_estimation_flags(p_pipe)
    p_pipe.add_argument("--mode", choices=("tree", "dtr", "nm"), help="recovery algorithm (default dtr)")
    p_pipe.add_argument("--cap", type=int, help="latent budget per connected class, read by --mode nm and tree (default 40)")
    p_pipe.add_argument("--out", default="pipeline.json")
    _add_common(p_pipe)
    p_pipe.set_defaults(func=_cmd_pipeline)

    p_cen = subs.add_parser("census", help="exact measurements of a model or network JSON")
    p_cen.add_argument("source", help="model or network JSON")
    p_cen.add_argument("--out", default="measurements.json")
    _add_common(p_cen)
    p_cen.set_defaults(func=_cmd_census)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._filecfg = _load_config_file(getattr(args, "config", None))
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InsufficientData as exc:
        print(f"InsufficientData: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LatentVarError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
