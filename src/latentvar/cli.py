"""Command-line front end: simulate / estimate / recover / pipeline / census.

File formats
------------
* panel CSV: first row series names, then one row per time step.  UTF-8,
  with or without a byte order mark; csv's default dialect: comma
  separator, double-quote quoting, LF, CRLF or CR line ends.  Names are
  stripped of surrounding space, and must be non-empty and unique.  Each
  cell is a float() literal that is finite.  A plain file (no quote, LF or
  CRLF line ends only, no blank line) is parsed by numpy, with the same
  values and errors as csv gives.
* measurements JSON: ``{"n": int, "names": [...], "supports": [S_0, S_1, ...]}``
  with each S_k a row-major 0/1 matrix.
* network JSON: ``{"observed": [names], "latent_count": m, "edges": [[src, dst], ...]}``
  where latent node k is called "L<k>"; no observed name has that form.
* model JSON: the four blocks plus noise variances.

Names (``names``, ``observed``) are JSON arrays of strings.  Every series
name, in any format, follows model.name_tuple: non-empty, unique, with no
surrounding whitespace or leading U+FEFF; only the panel reader strips names.

Exit codes: 0 ok, 2 input error, 3 algorithmic failure (condition named on
stderr).  The environment variable LVL_SEED supplies simulate's default seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Sequence

import numpy as np

from . import estimate as est
from . import model as mdl
from . import recover as rec
from .errors import InsufficientData, LatentVarError
from .simulate import DEFAULT_BURN_IN, DrgConfig, TimeSeriesPanel, gen_drg, simulate


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


def _count(obj: dict, key: str) -> int:
    """obj[key] as a count: a JSON integer, so 2.9, 2.0 and true are refused."""
    if type(obj[key]) is not int:
        raise ValueError(f"{key} must be an integer, got {obj[key]!r}")
    return obj[key]


def _names(obj: dict, key: str) -> list[str]:
    """obj[key] as names: a JSON array of strings, so "ab" is not read as 'a', 'b'."""
    names = obj[key]
    if type(names) is not list or not all(type(x) is str for x in names):
        raise ValueError(f"{key} must be an array of strings, got {names!r}")
    return names


def measurements_from_json(obj: dict) -> mdl.LinearMeasurements:
    try:
        meas = mdl.LinearMeasurements(
            _count(obj, "n"),
            [np.asarray(s) for s in obj["supports"]],
            _names(obj, "names") if "names" in obj else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad measurements JSON: {exc}") from exc
    return meas


def _label(net: mdl.UnobservedNetwork, v: int) -> str:
    return net.observed[v] if v < net.n else f"L{v - net.n}"


def _refuse_latent_labels(names: Sequence[str]) -> None:
    """Latent node k is written "L<k>", so no observed name may have that form."""
    if clash := [s for s in names if s[1:].isdecimal() and s == f"L{int(s[1:])}"]:
        raise ValueError(f"observed name {clash[0]!r} has the form L<k> of a latent label")


def network_to_json(net: mdl.UnobservedNetwork) -> dict:
    _refuse_latent_labels(net.observed)
    edges = sorted([_label(net, u), _label(net, v)] for u, v in net.edges)
    return {"observed": list(net.observed), "latent_count": net.latent_count, "edges": edges}


def network_from_json(obj: dict) -> mdl.UnobservedNetwork:
    try:
        observed = _names(obj, "observed")
        m = _count(obj, "latent_count")
        _refuse_latent_labels(observed)
        index = {name: i for i, name in enumerate(observed)}
        index.update((f"L{i}", len(observed) + i) for i in range(m))
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
        n, m = _count(obj, "n"), _count(obj, "m")
        blocks = mdl.BlockTransitionMatrix(
            np.asarray(obj["a11"], dtype=float).reshape(n, n),
            np.asarray(obj["a12"], dtype=float).reshape(n, m),
            np.asarray(obj["a21"], dtype=float).reshape(m, n),
            np.asarray(obj["a22"], dtype=float).reshape(m, m),
        )
        model = mdl.LatentVarModel(blocks, float(obj["sigma_x2"]), float(obj["sigma_z2"]))
        names = mdl.name_tuple(_names(obj, "names"), "names") if "names" in obj else mdl.default_names(n)
        _refuse_latent_labels(names)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad model JSON: {exc}") from exc
    return model, names


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
        csv.writer(fh).writerow(panel.names)  # names may need quoting
        # the bytes csv writes: each float as its repr, never quoted, CRLF
        # after each row.  row.tolist() gives Python floats (numpy 2 reprs a
        # float64 as np.float64(...)), one row at a time, so no copy of the
        # whole panel is held.
        fh.writelines(",".join(map(repr, row.tolist())) + "\r\n" for row in panel.data)


def read_panel_csv(path: str) -> TimeSeriesPanel:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(str(exc)) from exc
    panel = _plain_panel(text)
    return panel if panel is not None else _csv_panel(path, text)


def _plain_panel(text: str) -> TimeSeriesPanel | None:
    """The panel of a plain file, read by numpy's parser; None for any other.

    A plain file has no quote, no line end but LF and CRLF, a header and no
    empty line (one final newline aside).  csv splits such a file into the
    same cells, and numpy rounds each float() literal as float() does.  numpy
    also strips \\x1c-\\x1f around a number, which float() refuses, so a file
    holding one is not plain.  A file numpy refuses or reads into another
    shape, or whose names TimeSeriesPanel refuses, is left to the csv path,
    which alone words the error.
    """
    if any(c in text for c in '"\x1c\x1d\x1e\x1f') or text.count("\r") != text.count("\r\n"):
        return None
    lines = text.split("\n")  # a line keeps its CRLF's \r: strip() and numpy drop it
    if lines[-1] == "":
        lines.pop()
    if len(lines) < 2 or "" in lines or "\r" in lines:
        return None
    names = [c.strip() for c in lines[0].split(",")]
    try:
        data = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2, dtype=float)
        if data.shape != (len(lines) - 1, len(names)):
            return None
        return TimeSeriesPanel(tuple(names), data)
    except ValueError:
        return None


def _csv_panel(path: str, text: str) -> TimeSeriesPanel:
    """The panel of any file csv reads, with an error naming what is wrong."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if len(rows) < 2:
        raise InputError(f"{path}: need a header row and at least one sample")
    names = [c.strip() for c in rows[0]]
    if not names:
        raise InputError(f"{path}: header names no series")
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
# options

#: Every option a config file may set, grouped by the commands that read it:
#: (flag, key, type, default, help).  A file names an option by its key.
_OPTIONS = {
    "simulate": (
        ("--n", "n", int, 4, "observed node count"),
        ("--m", "m", int, 2, "latent node count"),
        ("--p", "p", float, 0.4, "observed<->latent link probability"),
        ("--q", "q", float, 0.4, "latent->latent link probability"),
        ("--p-obs", "p_obs", float, None, "observed->observed link probability; None takes p"),
        ("--a", "a", float, 0.1, "weight half-range"),
        ("--sigma-x2", "sigma_x2", float, 1.0, "observed noise variance"),
        ("--sigma-z2", "sigma_z2", float, 1.0, "latent noise variance"),
        ("--T", "t_len", int, 1000, "samples to keep"),
        ("--burn-in", "burn_in", int, DEFAULT_BURN_IN, "transient samples to drop"),
        ("--seed", "seed", int, None, "RNG seed; None takes $LVL_SEED, else 0"),
    ),
    "estimation": (
        ("--lag", "lag", int, None, "fixed fit lag (skips selection)"),
        ("--lag-max", "lag_max", int, 8, "largest lag tried"),
        ("--criterion", "criterion", str, "aic", "lag selection rule"),
        ("--alpha", "alpha", float, 0.05, "significance level"),
        ("--rho12", "rho12", float, None, "prior bound on the latent-to-observed norm"),
        ("--rho22", "rho22", float, None, "prior bound (< 1) on the latent-block norm"),
        ("--sigma-z2-max", "sigma_z2_max", float, None, "prior bound on the latent noise variance"),
    ),
    "recovery": (
        ("--mode", "mode", str, "dtr", "recovery algorithm"),
    ),
}
_CHOICES = {"criterion": ("aic", "fpe"), "mode": ("tree", "dtr", "nm")}

#: Every key some command reads (one file may serve several commands).
_CONFIG_KEYS = {row[1] for rows in _OPTIONS.values() for row in rows}


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


def _check_options(args: argparse.Namespace) -> None:
    """Ranges and allowed values of the options the running command has,
    whether a flag or a config file set them."""
    opts = vars(args)
    if "alpha" in opts and not 0.0 < args.alpha < 1.0:
        raise InputError("alpha must lie in (0, 1)")
    if opts.get("lag_max", 1) < 1:
        raise InputError("lag-max must be >= 1")
    if "mode" in opts and args.mode not in _CHOICES["mode"]:
        raise InputError(f"unknown mode {args.mode!r}")
    if "criterion" in opts and args.criterion not in _CHOICES["criterion"]:
        raise InputError(f"unknown criterion {args.criterion!r}")


# ---------------------------------------------------------------------------
# commands

def _cmd_simulate(args) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get("LVL_SEED", "0")
        try:
            seed = int(env)
        except ValueError as exc:
            raise InputError(f"LVL_SEED must be an integer, got {env!r}") from exc
    model = gen_drg(DrgConfig(n=args.n, m=args.m, p=args.p, q=args.q, p_obs=args.p_obs, a=args.a,
                              sigma_x2=args.sigma_x2, sigma_z2=args.sigma_z2, seed=seed))
    panel = simulate(model, args.t_len, burn_in=args.burn_in, seed=seed)
    write_json(args.out_model, model_to_json(model))
    write_panel_csv(args.out_panel, panel)
    return 0


def _priors(args) -> est.BoundPriors | None:
    given = [args.rho12, args.rho22, args.sigma_z2_max]
    if all(v is None for v in given):
        return None
    if any(v is None for v in given):
        raise ValueError("--rho12, --rho22 and --sigma-z2-max must be given together")
    return est.BoundPriors(*given)


def _estimate(panel: TimeSeriesPanel, args) -> est.EstimationReport:
    lag = args.lag if args.lag is not None else est.select_lag(panel, args.lag_max, args.criterion)
    report = est.fit_coefficients(panel, lag)
    est.extract_support(report, args.alpha, _priors(args))
    return report


def _cmd_estimate(args) -> int:
    panel = read_panel_csv(args.panel)
    report = _estimate(panel, args)
    write_json(args.out_measurements, measurements_to_json(report.supports))
    write_json(args.out_report, report_to_json(report))
    return 0


def _recover_networks(meas: mdl.LinearMeasurements, args) -> list[mdl.UnobservedNetwork]:
    _refuse_latent_labels(meas.names)
    if args.mode == "dtr":
        return [rec.dtr(meas)]
    if args.mode == "tree":
        return [rec.recover_tree(meas)]
    return rec.nm(meas)


def _cmd_recover(args) -> int:
    meas = measurements_from_json(read_json(args.measurements))
    nets = _recover_networks(meas, args)
    payload = [network_to_json(g) for g in nets]
    write_json(args.out, payload if args.mode == "nm" else payload[0])
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(networks_to_dot(nets))
    return 0


def _cmd_pipeline(args) -> int:
    panel = read_panel_csv(args.panel)
    report = _estimate(panel, args)
    nets = _recover_networks(report.supports, args)
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentvar",
        description="Learn latent-VAR network structure from observed time series.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, func, text, *groups) -> argparse.ArgumentParser:
        sub = subs.add_parser(name, help=text, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        if groups:
            sub.add_argument("--config", help="key = value file setting the options below; flags take precedence")
        for flag, key, type_, default, help_ in (row for group in groups for row in _OPTIONS[group]):
            sub.add_argument(flag, dest=key, type=type_, default=default, help=help_, choices=_CHOICES.get(key))
        sub.set_defaults(func=func, parser=sub)
        return sub

    p = command("simulate", _cmd_simulate, "draw a random model and a trajectory", "simulate")
    p.add_argument("--out-model", default="model.json", help="model JSON to write")
    p.add_argument("--out-panel", default="panel.csv", help="panel CSV to write")

    p = command("estimate", _cmd_estimate, "fit the panel and extract measurement supports", "estimation")
    p.add_argument("panel", help="input panel CSV")
    p.add_argument("--out-measurements", default="measurements.json", help="measurements JSON to write")
    p.add_argument("--out-report", default="report.json", help="report JSON to write")

    p = command("recover", _cmd_recover, "reconstruct unobserved networks from measurements", "recovery")
    p.add_argument("measurements", help="input measurements JSON")
    p.add_argument("--dot", help="also write Graphviz DOT here")
    p.add_argument("--out", default="networks.json", help="network JSON to write")

    p = command("pipeline", _cmd_pipeline, "estimate then recover in one go", "estimation", "recovery")
    p.add_argument("panel", help="input panel CSV")
    p.add_argument("--out", default="pipeline.json", help="bundle JSON to write")

    p = command("census", _cmd_census, "exact measurements of a model or network JSON")
    p.add_argument("source", help="model or network JSON")
    p.add_argument("--out", default="measurements.json", help="measurements JSON to write")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        filecfg = _load_config_file(getattr(args, "config", None))
        if filecfg:  # file values become the command's defaults, so flags still win
            args.parser.set_defaults(**{k: v for k, v in filecfg.items() if hasattr(args, k)})
            args = parser.parse_args(argv)
        _check_options(args)
        return args.func(args)
    except LatentVarError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InsufficientData) else 3
    except (InputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
