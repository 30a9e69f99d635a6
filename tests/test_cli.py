"""End-to-end CLI tests: every command, file formats, determinism, and exit
codes.  The dairy and West-German panels are synthetic fixtures simulated from
hand-built ground-truth models chosen so the estimation stage reproduces the
expected measurement supports."""

import csv
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import latentvar as lv
from latentvar import cli

from conftest import AMBIG_NAMES


def run(argv):
    return cli.main(list(argv))


@pytest.fixture(scope="session")
def dairy_csv(tmp_path_factory):
    a11 = np.array([[0.30, 0.25], [0.35, 0.0]])
    a12 = np.array([[0.0], [0.45]])
    a21 = np.array([[0.45, 0.0]])
    model = lv.LatentVarModel(lv.BlockTransitionMatrix(a11, a12, a21, [[0.0]]))
    panel = lv.TimeSeriesPanel(("milk", "cheese"), lv.simulate(model, 8000, seed=3).data)
    path = tmp_path_factory.mktemp("fixtures") / "dairy.csv"
    cli.write_panel_csv(str(path), panel)
    return str(path)


@pytest.fixture(scope="session")
def west_german_csv(tmp_path_factory):
    a11 = np.array([[0.0, 0.0], [0.35, 0.30]])
    a12 = np.array([[0.40], [0.45]])
    a21 = np.array([[0.45, 0.0]])
    model = lv.LatentVarModel(lv.BlockTransitionMatrix(a11, a12, a21, [[0.0]]))
    panel = lv.TimeSeriesPanel(("expend", "invest"), lv.simulate(model, 8000, seed=3).data)
    path = tmp_path_factory.mktemp("fixtures") / "west_german.csv"
    cli.write_panel_csv(str(path), panel)
    return str(path)


@pytest.fixture
def ambig_meas_json(tmp_path, ambig_meas):
    path = tmp_path / "ambig.json"
    cli.write_json(str(path), cli.measurements_to_json(ambig_meas))
    return str(path)


@pytest.fixture
def dairy_meas_json(tmp_path, dairy_meas):
    path = tmp_path / "dairy_meas.json"
    cli.write_json(str(path), cli.measurements_to_json(dairy_meas))
    return str(path)


class TestSimulateCommand:
    def test_byte_identical_rerun(self, tmp_path):
        args = [
            "simulate", "--n", "4", "--m", "2", "--p", "0.4", "--q", "0.4",
            "--a", "0.1", "--T", "200", "--seed", "7",
        ]
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        out1.mkdir(), out2.mkdir()
        for out in (out1, out2):
            code = run(args + [
                "--out-model", str(out / "model.json"),
                "--out-panel", str(out / "panel.csv"),
            ])
            assert code == 0
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()
        assert (out1 / "panel.csv").read_bytes() == (out2 / "panel.csv").read_bytes()

    def test_zero_probability_model(self, tmp_path):
        model_path = tmp_path / "model.json"
        code = run([
            "simulate", "--n", "3", "--m", "2", "--p", "0", "--q", "0",
            "--p-obs", "0", "--T", "50", "--seed", "1",
            "--out-model", str(model_path), "--out-panel", str(tmp_path / "p.csv"),
        ])
        assert code == 0
        obj = json.loads(model_path.read_text())
        assert not np.asarray(obj["a11"]).any()
        assert not np.asarray(obj["a12"]).any()

    def test_large_instance(self, tmp_path):
        code = run([
            "simulate", "--n", "50", "--m", "50", "--p", "0.4", "--q", "0.4",
            "--a", "0.1", "--T", "1000", "--seed", "2",
            "--out-model", str(tmp_path / "m.json"),
            "--out-panel", str(tmp_path / "p.csv"),
        ])
        assert code == 0
        panel = cli.read_panel_csv(str(tmp_path / "p.csv"))
        assert panel.data.shape == (1000, 50)

    def test_invalid_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--n", "not-a-number"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--a", "nan", "weight half-range a must be positive and finite, got nan"),
        ("--a", "inf", "weight half-range a must be positive and finite, got inf"),
        ("--sigma-x2", "nan", "noise variances must be positive and finite"),
        ("--sigma-z2", "inf", "noise variances must be positive and finite"),
    ])
    def test_non_finite_parameter_exits_2(self, tmp_path, capsys, flag, value, message):
        # a non-finite a once crashed rng.uniform with an OverflowError, and a
        # non-finite variance was only caught as a non-finite panel
        out = tmp_path / "model.json"
        code = run(["simulate", "--n", "3", "--m", "1", flag, value, "--T", "50", "--seed", "1",
                    "--out-model", str(out), "--out-panel", str(tmp_path / "p.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_no_series_exits_2(self, tmp_path, capsys):
        # it once wrote a header-less panel that estimate refused
        code = run(["simulate", "--n", "0", "--m", "1", "--T", "50", "--seed", "1",
                    "--out-model", str(tmp_path / "m.json"), "--out-panel", str(tmp_path / "p.csv")])
        assert code == 2
        assert capsys.readouterr().err == "error: panel needs at least one series\n"
        assert not (tmp_path / "p.csv").exists()


class TestEstimateCommand:
    def test_dairy_fixture_supports(self, dairy_csv, tmp_path):
        meas_path = tmp_path / "meas.json"
        code = run([
            "estimate", dairy_csv,
            "--out-measurements", str(meas_path),
            "--out-report", str(tmp_path / "report.json"),
        ])
        assert code == 0
        obj = json.loads(meas_path.read_text())
        assert obj["names"] == ["milk", "cheese"]
        assert obj["supports"] == [[[1, 1], [1, 0]], [[0, 0], [1, 0]]]

    def test_report_contents(self, dairy_csv, tmp_path):
        report_path = tmp_path / "report.json"
        code = run([
            "estimate", dairy_csv, "--lag", "2",
            "--out-measurements", str(tmp_path / "m.json"),
            "--out-report", str(report_path),
        ])
        assert code == 0
        rep = json.loads(report_path.read_text())
        assert rep["lag"] == 2
        assert len(rep["b_hat"]) == 3
        assert rep["alpha"] == 0.05
        assert rep["supports"]["n"] == 2

    def test_constant_panel_exits_3(self, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("a,b\n" + "1.0,2.0\n" * 100)
        code = run(["estimate", str(path), "--lag", "1",
                    "--out-measurements", str(tmp_path / "m.json"),
                    "--out-report", str(tmp_path / "r.json")])
        assert code == 3

    def test_alpha_monotonicity(self, dairy_csv, tmp_path):
        outs = {}
        for alpha in ("0.01", "0.10"):
            meas_path = tmp_path / f"meas{alpha}.json"
            assert run([
                "estimate", dairy_csv, "--alpha", alpha, "--lag", "3",
                "--out-measurements", str(meas_path),
                "--out-report", str(tmp_path / f"r{alpha}.json"),
            ]) == 0
            outs[alpha] = cli.measurements_from_json(json.loads(meas_path.read_text()))
        tight, loose = outs["0.01"], outs["0.10"]
        for k in range(tight.max_k + 1):
            assert (tight.supports[k] <= loose.supports[k]).all()

    def test_malformed_csv_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,oops\n2.0,3.0\n")
        assert run(["estimate", str(path)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert run(["estimate", str(tmp_path / "nope.csv")]) == 2

    def test_singular_gamma0_with_priors_exits_3(self, tmp_path, capsys):
        # a constant series makes lambda_min(gamma(0)) zero, which the prior
        # bound divides by; this once escaped as a ZeroDivisionError
        data = np.random.default_rng(0).standard_normal((500, 3))
        data[:, 2] = 1.5
        path = tmp_path / "const.csv"
        cli.write_panel_csv(str(path), lv.TimeSeriesPanel(("a", "b", "c"), data))
        code = run(["estimate", str(path), "--lag", "2", "--rho12", "0.5",
                    "--rho22", "0.5", "--sigma-z2-max", "1.0",
                    "--out-measurements", str(tmp_path / "m.json"),
                    "--out-report", str(tmp_path / "r.json")])
        assert code == 3
        assert "SingularCovariance" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--rho12", "nan"), ("--rho12", "inf"), ("--sigma-z2-max", "inf")])
    def test_non_finite_prior_exits_2(self, dairy_csv, tmp_path, capsys, flag, value):
        # these once zeroed every support and wrote NaN bounds into the report
        priors = {"--rho12": "0.5", "--rho22": "0.5", "--sigma-z2-max": "1.0", flag: value}
        code = run(["estimate", dairy_csv, "--lag", "1", *(x for kv in priors.items() for x in kv),
                    "--out-measurements", str(tmp_path / "m.json"),
                    "--out-report", str(tmp_path / "r.json")])
        assert code == 2
        assert "rho12 must lie in" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_panel_without_series_exits_2(self, tmp_path, capsys):
        # blank lines read as a T x 0 panel, which once crashed lag selection
        path = tmp_path / "blank.csv"
        path.write_text("\n" * 5)
        assert run(["estimate", str(path)]) == 2
        assert "header names no series" in capsys.readouterr().err


def reference_write_panel_csv(path, panel):
    """The per-cell writer that write_panel_csv replaced, kept as its reference."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(panel.names)
        for row in panel.data:
            writer.writerow([repr(float(v)) for v in row])


def reference_read_cells(path) -> np.ndarray:
    """The per-cell parse that read_panel_csv replaced, kept as its reference."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(c) for c in row] for row in rows[1:]], dtype=float)


def read_outcome(path: str):
    """read_panel_csv's names and data bytes, or the text of its InputError."""
    try:
        panel = cli.read_panel_csv(path)
    except cli.InputError as exc:
        return str(exc)
    return panel.names, panel.data.tobytes()


def read_both_paths(path: str, monkeypatch) -> tuple:
    """read_outcome as read_panel_csv gives it, and with numpy's path
    declining every file, so that only the csv path reads it."""
    fast = read_outcome(path)
    with monkeypatch.context() as m:
        m.setattr(cli, "_plain_panel", lambda text: None)
        return fast, read_outcome(path)


def refuse_csv_reader(*args, **kwargs):
    raise AssertionError("csv.reader was reached")


def random_panel_lines(rng, formats) -> list[str]:
    values = rng.standard_normal((300, 3)) * 10.0 ** rng.integers(-20, 20, (300, 3))
    return [",".join(formats[rng.integers(len(formats))].format(v) for v in row) for row in values.tolist()]


#: Files where numpy's parser and csv + float() could part ways.  Each reads
#: the same on both paths: the same names and data, or the same error.
TRAP_PANELS = [
    "a\n1.0\n \n2.0\n",  # whitespace-only row at n = 1
    "a\n1.0\n\t\n2.0\n",
    "a,b\n1.0\x0c,2.0\n\x0c3.0,4.0\n",
    "a,b\n1.0\x85,2.0\n3.0,\x854.0\n",
    "a,b\n1.0\u2028,2.0\n3.0,4.0\n",
    "a,b\n1.0\x00,2.0\n3.0,4.0\n",
    "a,b\n1.0\x1c,2.0\n3.0,4.0\n",  # numpy strips \x1c-\x1f, float() refuses them
    "a,b\n1.0,\x1f2.0\n3.0,4.0\n",
    "a,b\n1_0,2.0\n3.0,4.0\n",
    "a,b\n\u0663,2.0\n3.0,4.0\n",  # Arabic-Indic three
    "a,b\r1.0,2.0\r3.0,4.0\r",  # lone CR line ends
    "a,b\r\n1.0,2.0\r3.0,4.0\r\n",
    "a,b\r\n1.0,2.0\r\n3.0,4.0\r\n",
    "a,b\n1.0,2.0\n3.0,4.0",  # no final newline
    "a,b\n1.0,2.0\n\n3.0,4.0\n",  # blank line
    "a,b\n1.0,2.0\n3.0,4.0\n\n",  # final blank line
    "a,b\r\n1.0,2.0\r\n\r\n",
    "a,b\n\n\n",  # a body of blank lines, which numpy would warn of
    "a,b\r\n\r\n\r\n",
    "a,b\n1.0,2.0\n3.0\n",  # ragged
    "a,b\n1.0,2.0,3.0\n4.0\n",  # ragged, with rows x n cells in all
    "a,b\n#1.0,2.0\n3.0,4.0\n",
    "a,b\n1.0,2.0\n#3.0,4.0\n",
    "a,b\nTrue,2.0\n3.0,4.0\n",
    "a,b\n-inf,2.0\n3.0,4.0\n",
    "a,b\n1e999,2.0\n3.0,4.0\n",
    "a,b\n1.0,2.0\n3.0\r4.0\n",
    "a\rb,c\n1.0,2.0\n",  # csv ends the header at the CR
    "a,b,\n1.0,2.0,3.0\n",  # empty series name
    " ,b\n1.0,2.0\n",
    "a,a \n1.0,2.0\n",
    "a,b\n",
    "",
    "\n\n",
    "\ufeffa,b\r\n1.0,2.0\r\n",  # UTF-8 byte order mark
    'a,"b"\n1.0,2.0\n',
]


class TestPanelCsvAgainstPerCellReference:
    def test_write_bytes(self, tmp_path):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((200, 4)) * 10.0 ** rng.integers(-300, 300, (200, 4))
        data[0] = [-0.0, 5e-324, 1e308, -1e308]
        data[1] = [0.0, -5e-324, 2.2250738585072014e-308, 0.1]
        panel = lv.TimeSeriesPanel(("a,b", 'x"y', "le ad", "d"), data)  # two names csv quotes
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        cli.write_panel_csv(str(got), panel)
        reference_write_panel_csv(str(want), panel)
        assert got.read_bytes() == want.read_bytes()
        back = cli.read_panel_csv(str(got))
        assert back.names == panel.names
        assert back.data.tobytes() == data.tobytes()

    def test_written_panel_does_not_reach_csv_reader(self, tmp_path, monkeypatch):
        panel = lv.TimeSeriesPanel(("a", "b", "c"), np.random.default_rng(13).standard_normal((300, 3)))
        path = tmp_path / "p.csv"
        cli.write_panel_csv(str(path), panel)
        monkeypatch.setattr(cli.csv, "reader", refuse_csv_reader)
        assert cli.read_panel_csv(str(path)).data.tobytes() == panel.data.tobytes()

    def test_write_holds_no_copy_of_the_panel(self, tmp_path):
        # peak_rss_mb on cli-pipeline counts what the set-up's writes hold:
        # a list of the whole 20000 x 12 panel took 8.6 MiB, one string 14.1
        data = np.random.default_rng(14).standard_normal((20000, 12))
        panel = lv.TimeSeriesPanel(tuple("abcdefghijkl"), data)
        tracemalloc.start()
        try:
            cli.write_panel_csv(str(tmp_path / "p.csv"), panel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_read_bit_identical(self, tmp_path):
        rng = np.random.default_rng(12)
        formats = ("{!r}", "{:.17g}", "{:.3e}", " {} ", "\t{:.6f}", '"{!r}"')
        lines = ["a, b ,c", " 1.5 ,1_000,-0.0", "+7,1_0.5e1_0, 5e-324", *random_panel_lines(rng, formats)]
        path = tmp_path / "p.csv"
        path.write_text("\n".join(lines) + "\n")
        panel = cli.read_panel_csv(str(path))
        assert panel.names == ("a", "b", "c")
        assert panel.data.tobytes() == reference_read_cells(str(path)).tobytes()

    def test_read_bit_identical_on_numpy_path(self, tmp_path, monkeypatch):
        # the randomized file without quotes or underscores, which numpy reads
        rng = np.random.default_rng(12)
        formats = ("{!r}", "{:.17g}", "{:.3e}", " {} ", "\t{:.6f}", "{:.40e}")
        text = "\n".join(["a, b ,c", " 1.5 ,-0.0,+7", "5e-324, 1e308 ,-2.2250738585072014e-308",
                          *random_panel_lines(rng, formats)]) + "\n"
        assert cli._plain_panel(text) is not None
        path = tmp_path / "p.csv"
        path.write_text(text)
        fast, general = read_both_paths(str(path), monkeypatch)
        assert fast == general == (("a", "b", "c"), reference_read_cells(str(path)).tobytes())

    @pytest.mark.parametrize("text", TRAP_PANELS)
    def test_read_paths_agree(self, tmp_path, monkeypatch, text):
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode())
        fast, general = read_both_paths(str(path), monkeypatch)
        assert fast == general

    @pytest.mark.parametrize(
        "char",
        [c for c in map(chr, range(0x3001)) if c.isspace()] + ["\x00", "\u200b", "\ufeff"],
        ids=lambda c: f"U+{ord(c):04X}",
    )
    def test_read_paths_agree_around_spaces(self, tmp_path, monkeypatch, char):
        path = tmp_path / "p.csv"
        path.write_bytes(f"{char}a,b{char}\n{char}1.5,2.0{char}\n3.0,{char}4.0\n".encode())
        fast, general = read_both_paths(str(path), monkeypatch)
        assert fast == general

    def test_utf8_bom_is_not_part_of_a_name(self, tmp_path, monkeypatch):
        # Excel's "CSV UTF-8" starts the file with a byte order mark
        path = tmp_path / "p.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\r\n1.5,2.0\r\n3.0,4.0\r\n")
        fast, general = read_both_paths(str(path), monkeypatch)
        assert fast == general == (("a", "b"), np.array([[1.5, 2.0], [3.0, 4.0]]).tobytes())

    def test_empty_series_name_named(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,\n1,2,3\n")
        assert run(["estimate", str(path)]) == 2
        assert "bad.csv: names: name 3 ('') is empty or has surrounding whitespace" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            "a,b\n1.0,2.0\n3.0\n",  # ragged
            "a,b\n1.0,2.0,3.0\n4.0,5.0,6.0\n",  # rows wider than the header
            "a,b\n1.0,\n",  # empty cell
            "a,b\n0x10,1.0\n",  # hex is not a float literal
            "a,b\n1.0,2.0\n\n3.0,4.0\n",  # blank line
            "a,b\n1.0,nan\n",  # non-finite
            "a,b,\n1,2,3\n",  # a trailing comma names no series
        ],
    )
    def test_bad_panels_exit_2(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert run(["estimate", str(path)]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b\n1.0,2.0\n3.0\n", "row 3 has 1 cells, header has 2"),
            ("a,b\n1.0,2.0,3.0\n4.0,5.0,6.0\n", "row 2 has 3 cells, header has 2"),
            ("a,b\n1.0,2.0\n\n3.0,4.0\n", "row 3 has 0 cells, header has 2"),
        ],
    )
    def test_ragged_rows_named(self, tmp_path, capsys, text, message):
        # numpy once reported these as a non-numeric cell
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert run(["estimate", str(path)]) == 2
        assert f"ragged rows: {message}" in capsys.readouterr().err


def _src_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def test_cli_imports_only_stdlib_and_numpy():
    # numpy is the only runtime dependency, although more is installed
    env = _src_env()
    code = (
        "import sys; base = set(sys.modules); import latentvar.cli; "
        "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - base}))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout.split()
    assert "latentvar" in out
    allowed = set(sys.stdlib_module_names) | {"numpy", "latentvar"}
    assert sorted(set(out) - allowed) == []


PUBLIC_NAMES = [
    "AmbiguousDistance", "BlockTransitionMatrix", "BoundPriors", "CapExceeded",
    "CyclicLatent", "DEFAULT_CAP", "DrgConfig", "EstimationReport", "InconsistentRecovery",
    "InsufficientData", "LatentVarError", "LatentVarModel", "LinearMeasurements",
    "NonStationary", "NotIdentifiable", "ScaleExceeded", "SingularCovariance", "TimeSeriesPanel",
    "UnobservedNetwork", "autocov", "block_toeplitz", "canonical_form", "complete_census",
    "compute_ml_ratio", "consistent", "default_names", "dtr", "extract_support",
    "fit_coefficients", "fit_from_autocovariances", "gen_drg", "network_of", "nilpotency_index",
    "nm", "oracle_minimal", "population_autocov", "population_covariance", "prop1_bound",
    "recover_tree", "select_lag", "simulate", "true_linear_measurements",
]


def test_public_names_are_pinned():
    # an added or removed export shows up in this list's diff; submodules
    # are left out, as importing latentvar.cli adds one
    got = sorted(k for k, v in vars(lv).items() if not k.startswith("_") and not isinstance(v, types.ModuleType))
    assert got == PUBLIC_NAMES


def test_readme_command_line_block_runs(tmp_path):
    # the README's examples, run in order, keep its flags in step with the parser
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", text, re.S)
    lines = [ln for b in blocks for ln in b.replace("\\\n", " ").splitlines() if ln.startswith("latentvar ")]
    assert len(lines) == 5
    for line in lines:
        proc = subprocess.run([sys.executable, "-m", "latentvar.cli", *shlex.split(line)[1:]], cwd=tmp_path,
                              env=_src_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (line, proc.stderr)


class TestRecoverCommand:
    def test_dairy_dtr(self, dairy_meas_json, tmp_path):
        out = tmp_path / "net.json"
        assert run(["recover", dairy_meas_json, "--mode", "dtr", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["latent_count"] == 1
        assert sorted(map(tuple, obj["edges"])) == [("L0", "cheese"), ("milk", "L0")]

    def test_ambiguous_example_nm(self, ambig_meas_json, tmp_path, ambig_left, ambig_right):
        out = tmp_path / "nets.json"
        assert run(["recover", ambig_meas_json, "--mode", "nm", "--out", str(out)]) == 0
        objs = json.loads(out.read_text())
        assert isinstance(objs, list) and len(objs) == 2
        got = {lv.canonical_form(cli.network_from_json(o)) for o in objs}
        want = {lv.canonical_form(ambig_left), lv.canonical_form(ambig_right)}
        assert got == want

    def test_ambiguous_example_tree_not_identifiable(self, ambig_meas_json, tmp_path, capsys):
        code = run(["recover", ambig_meas_json, "--mode", "tree",
                    "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert "NotIdentifiable" in capsys.readouterr().err

    def test_dot_output(self, dairy_meas_json, tmp_path):
        dot = tmp_path / "net.dot"
        assert run(["recover", dairy_meas_json, "--dot", str(dot),
                    "--out", str(tmp_path / "n.json")]) == 0
        text = dot.read_text()
        assert '"milk" [shape=box, style=filled];' in text
        assert '"L0" [shape=circle, style=dashed];' in text
        assert '"milk" -> "L0";' in text

    def test_dot_escapes_quotes_and_backslashes(self, ambig_meas, tmp_path):
        # every DOT id must be one quoted string whose \" and \\ escapes
        # give back the name, and the edges must match the network JSON
        obj = cli.measurements_to_json(ambig_meas)
        obj["names"] = ['a"b', "c\\", 'say "hi"', "d\\\"e"]
        path = tmp_path / "meas.json"
        cli.write_json(str(path), obj)
        dot, out = tmp_path / "nets.dot", tmp_path / "nets.json"
        assert run(["recover", str(path), "--mode", "nm", "--dot", str(dot), "--out", str(out)]) == 0
        quoted = r'"((?:[^"\\]|\\.)*)"'
        node = re.compile(rf"  {quoted} \[shape=(box, style=filled|circle, style=dashed)\];")
        edge = re.compile(rf"  {quoted} -> {quoted};")

        def unescape(s):
            return re.sub(r"\\(.)", r"\1", s)

        graphs = dot.read_text().split("}\n")[:-1]
        nets = json.loads(out.read_text())
        assert len(graphs) == len(nets) == 2
        for text, net in zip(graphs, nets):
            lines = text.splitlines()[1:]
            nodes = [node.fullmatch(ln) for ln in lines if "->" not in ln]
            edges = [edge.fullmatch(ln) for ln in lines if "->" in ln]
            assert all(nodes) and all(edges)
            want_nodes = obj["names"] + [f"L{z}" for z in range(net["latent_count"])]
            assert [unescape(m.group(1)) for m in nodes] == want_nodes
            assert sorted([unescape(m.group(1)), unescape(m.group(2))] for m in edges) == net["edges"]

    def test_cap_exceeded_exits_3(self, ambig_meas_json, tmp_path, capsys):
        code = run(["recover", ambig_meas_json, "--mode", "nm", "--cap", "4",
                    "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert "CapExceeded" in capsys.readouterr().err

    def test_tree_mode_ignores_cap(self, tmp_path, no_merge_search):
        # one latent with 7 observed parents and 7 observed children: its
        # initial merge graph has 49 latents, so the merge search would stop at
        # any cap below that, but tree mode neither reads --cap nor searches
        star = lv.UnobservedNetwork(tuple(f"x{i}" for i in range(14)), 1,
                                    frozenset({(i, 14) for i in range(7)} | {(14, j) for j in range(7, 14)}))
        path, out = tmp_path / "star.json", tmp_path / "net.json"
        cli.write_json(str(path), cli.measurements_to_json(lv.complete_census(star)))
        assert run(["recover", str(path), "--mode", "tree", "--cap", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == cli.network_to_json(star)

    def test_bad_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["recover", str(path), "--out", str(tmp_path / "o.json")]) == 2

    @pytest.mark.parametrize("count", [2.9, 2.0, True, "2"])
    def test_non_integer_count_exits_2(self, tmp_path, capsys, dairy_meas, count):
        # 2.9 once ran as if n were 2
        obj = cli.measurements_to_json(dairy_meas)
        obj["n"] = count
        path, out = tmp_path / "meas.json", tmp_path / "o.json"
        cli.write_json(str(path), obj)
        assert run(["recover", str(path), "--out", str(out)]) == 2
        assert f"bad measurements JSON: n must be an integer, got {count!r}" in capsys.readouterr().err
        assert not out.exists()


class TestPipelineCommand:
    def test_west_german_recovers_expected_network(self, west_german_csv, tmp_path):
        out = tmp_path / "bundle.json"
        assert run(["pipeline", west_german_csv, "--out", str(out)]) == 0
        bundle = json.loads(out.read_text())
        assert bundle["measurements"]["supports"] == [
            [[0, 0], [1, 1]],
            [[1, 0], [1, 0]],
        ]
        nets = bundle["networks"]
        assert len(nets) == 1
        net = cli.network_from_json(nets[0])
        assert net.latent_count == 1
        assert net.edges == frozenset({(0, 2), (2, 0), (2, 1)})

    def test_dairy_nm_agrees_with_dtr(self, dairy_csv, tmp_path):
        outs = {}
        for mode in ("dtr", "nm"):
            out = tmp_path / f"{mode}.json"
            assert run(["pipeline", dairy_csv, "--mode", mode, "--out", str(out)]) == 0
            bundle = json.loads(out.read_text())
            outs[mode] = [cli.network_from_json(o) for o in bundle["networks"]]
        assert len(outs["nm"]) == 1
        assert (
            lv.canonical_form(outs["nm"][0])
            == lv.canonical_form(outs["dtr"][0])
        )

    def test_bundle_bytes_equal_on_both_read_paths(self, dairy_csv, tmp_path, monkeypatch):
        fast, general = tmp_path / "fast.json", tmp_path / "general.json"
        with monkeypatch.context() as m:
            m.setattr(cli.csv, "reader", refuse_csv_reader)
            assert run(["pipeline", dairy_csv, "--out", str(fast)]) == 0
        with monkeypatch.context() as m:
            m.setattr(cli, "_plain_panel", lambda text: None)
            assert run(["pipeline", dairy_csv, "--out", str(general)]) == 0
        assert fast.read_bytes() == general.read_bytes()

    def test_latent_free_panel(self, tmp_path):
        rng = np.random.default_rng(10)
        a11 = np.diag([0.5, -0.4, 0.3])
        blocks = lv.BlockTransitionMatrix(
            a11, np.zeros((3, 0)), np.zeros((0, 3)), np.zeros((0, 0))
        )
        panel = lv.simulate(lv.LatentVarModel(blocks), 5000, seed=11)
        csv_path = tmp_path / "panel.csv"
        cli.write_panel_csv(str(csv_path), panel)
        out = tmp_path / "bundle.json"
        assert run(["pipeline", str(csv_path), "--out", str(out)]) == 0
        bundle = json.loads(out.read_text())
        assert bundle["networks"][0]["latent_count"] == 0
        s0 = np.asarray(bundle["measurements"]["supports"][0])
        assert np.array_equal(s0, np.eye(3))


class TestCensusCommand:
    def test_model_json(self, tmp_path):
        model = lv.gen_drg(lv.DrgConfig(n=3, m=2, p=0.6, q=0.6, seed=5))
        model_path = tmp_path / "model.json"
        cli.write_json(str(model_path), cli.model_to_json(model))
        out = tmp_path / "meas.json"
        assert run(["census", str(model_path), "--out", str(out)]) == 0
        got = cli.measurements_from_json(json.loads(out.read_text()))
        assert got == lv.true_linear_measurements(model)

    def test_network_json_round_trip_census(self, tmp_path, ambig_left, ambig_meas):
        net_path = tmp_path / "net.json"
        cli.write_json(str(net_path), cli.network_to_json(ambig_left))
        out = tmp_path / "meas.json"
        assert run(["census", str(net_path), "--out", str(out)]) == 0
        got = cli.measurements_from_json(json.loads(out.read_text()))
        assert got == ambig_meas

    def test_edgeless_model(self, tmp_path):
        model = lv.gen_drg(lv.DrgConfig(n=2, m=1, p=0.0, q=0.0, p_obs=0.0, seed=1))
        path = tmp_path / "m.json"
        cli.write_json(str(path), cli.model_to_json(model))
        out = tmp_path / "meas.json"
        assert run(["census", str(path), "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["supports"] == [[[0, 0], [0, 0]]]

    def test_negative_latent_count_exits_2(self, tmp_path, capsys):
        # this once exited 2 with the unrelated "max_len must be >= 1"
        path = tmp_path / "net.json"
        cli.write_json(str(path), {"observed": ["a", "b"], "latent_count": -1, "edges": []})
        assert run(["census", str(path), "--out", str(tmp_path / "o.json")]) == 2
        assert "bad network JSON: latent_count must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [1.7, True, "1"])
    def test_non_integer_latent_count_exits_2(self, tmp_path, capsys, count):
        # 1.7 once ran as if the count were 1
        path, out = tmp_path / "net.json", tmp_path / "o.json"
        cli.write_json(str(path), {"observed": ["a", "b"], "latent_count": count,
                                   "edges": [["a", "L0"], ["L0", "b"]]})
        assert run(["census", str(path), "--out", str(out)]) == 2
        assert f"bad network JSON: latent_count must be an integer, got {count!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, count", [("n", 3.5), ("m", 2.0), ("n", False)])
    def test_non_integer_model_count_exits_2(self, tmp_path, capsys, key, count):
        # n = 3.5 once ran as if n were 3
        obj = cli.model_to_json(lv.gen_drg(lv.DrgConfig(n=3, m=2, p=0.6, q=0.6, seed=5)))
        obj[key] = count
        path, out = tmp_path / "model.json", tmp_path / "o.json"
        cli.write_json(str(path), obj)
        assert run(["census", str(path), "--out", str(out)]) == 2
        assert f"bad model JSON: {key} must be an integer, got {count!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, message", [
        ("a12", "transition blocks must have finite entries"),
        ("sigma_x2", "noise variances must be positive and finite"),
    ])
    def test_nan_model_entry_exits_2(self, tmp_path, capsys, key, message):
        # a NaN a12 entry once dropped its latent path from the census, exit 0
        obj = cli.model_to_json(lv.gen_drg(lv.DrgConfig(n=3, m=2, p=0.6, q=0.6, seed=5)))
        if key == "a12":
            obj["a12"][0][0] = float("nan")
        else:
            obj[key] = float("nan")
        path, out = tmp_path / "model.json", tmp_path / "o.json"
        cli.write_json(str(path), obj)  # json writes NaN, and reads it back
        assert run(["census", str(path), "--out", str(out)]) == 2
        assert f"bad model JSON: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_cyclic_latent_exits_3(self, tmp_path, capsys):
        blocks = {
            "n": 1, "m": 2, "names": ["x1"],
            "a11": [[0.0]], "a12": [[0.0, 0.0]], "a21": [[0.0], [0.0]],
            "a22": [[0.0, 0.5], [0.5, 0.0]],
            "sigma_x2": 1.0, "sigma_z2": 1.0,
        }
        path = tmp_path / "cyclic.json"
        cli.write_json(str(path), blocks)
        assert run(["census", str(path), "--out", str(tmp_path / "o.json")]) == 3
        assert "CyclicLatent" in capsys.readouterr().err


class TestSerializationRoundTrips:
    def test_measurements_identity(self, ambig_meas):
        again = cli.measurements_from_json(cli.measurements_to_json(ambig_meas))
        assert again == ambig_meas
        assert again.names == ambig_meas.names

    def test_network_preserves_canonical_form(self, ambig_left):
        again = cli.network_from_json(cli.network_to_json(ambig_left))
        assert lv.canonical_form(again) == lv.canonical_form(ambig_left)

    def test_model_round_trip(self):
        model = lv.gen_drg(lv.DrgConfig(n=3, m=2, p=0.5, q=0.5, seed=9))
        again, names = cli.model_from_json(cli.model_to_json(model))
        assert np.array_equal(again.blocks.full(), model.blocks.full())
        assert names == ("x1", "x2", "x3")


class TestObservedNames:
    """Observed names must round-trip through network JSON: no duplicates,
    and none that reads as a latent label L<k>."""

    def test_duplicate_panel_names_exit_2(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("a,a\n1,2\n3,4\n1,2\n2,1\n")
        code = run(["estimate", str(path), "--lag", "1",
                    "--out-measurements", str(tmp_path / "m.json"),
                    "--out-report", str(tmp_path / "r.json")])
        assert code == 2
        assert "duplicate series name 'a'" in capsys.readouterr().err

    def test_duplicate_measurement_names_exit_2(self, tmp_path, capsys):
        path = tmp_path / "dup.json"
        cli.write_json(str(path), {"n": 2, "names": ["b", "b"], "supports": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]})
        assert run(["recover", str(path), "--out", str(tmp_path / "o.json")]) == 2
        assert "duplicate series name 'b'" in capsys.readouterr().err

    def test_duplicate_model_names_exit_2(self, tmp_path, capsys):
        # census once passed them through to measurements that recover rejects
        obj = cli.model_to_json(lv.gen_drg(lv.DrgConfig(n=4, m=2, p=0.6, q=0.6, seed=5)))
        obj["names"] = ["a", "a", "b", "c"]
        path, out = tmp_path / "model.json", tmp_path / "meas.json"
        cli.write_json(str(path), obj)
        assert run(["census", str(path), "--out", str(out)]) == 2
        assert "bad model JSON: duplicate series name 'a'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["dtr", "nm", "tree"])
    def test_latent_label_name_exits_2_in_recover(self, tmp_path, capsys, ambig_meas, mode):
        path = tmp_path / "meas.json"
        obj = cli.measurements_to_json(ambig_meas)
        obj["names"][1] = "L0"
        cli.write_json(str(path), obj)
        assert run(["recover", str(path), "--mode", mode, "--out", str(tmp_path / "o.json")]) == 2
        assert "'L0'" in capsys.readouterr().err

    def test_latent_label_name_exits_2_in_pipeline(self, tmp_path, capsys, dairy_csv):
        path = tmp_path / "l3.csv"
        lines = Path(dairy_csv).read_text().splitlines(keepends=True)
        path.write_text("L3,cheese\n" + "".join(lines[1:]))
        assert run(["pipeline", str(path), "--out", str(tmp_path / "o.json")]) == 2
        assert "'L3'" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["L01", "L", "Lx", "l0"])
    def test_other_names_are_accepted(self, tmp_path, dairy_meas, name):
        path = tmp_path / "meas.json"
        obj = cli.measurements_to_json(dairy_meas)
        obj["names"][0] = name
        cli.write_json(str(path), obj)
        out = tmp_path / "o.json"
        assert run(["recover", str(path), "--out", str(out)]) == 0
        assert cli.network_from_json(json.loads(out.read_text())).observed[0] == name

    def test_network_json_rejects_observed_latent_label(self, tmp_path, capsys):
        # read naively, "L0" would silently become the latent and x its parent
        obj = {"observed": ["L0", "x"], "latent_count": 1, "edges": [["x", "L0"]]}
        with pytest.raises(cli.InputError, match="'L0' has the form L<k> of a latent label"):
            cli.network_from_json(obj)
        path = tmp_path / "net.json"
        cli.write_json(str(path), obj)
        assert run(["census", str(path), "--out", str(tmp_path / "o.json")]) == 2
        # a name past the latent labels is refused too, as recover refuses it
        with pytest.raises(cli.InputError, match="'L1' has the form L<k> of a latent label"):
            cli.network_from_json({"observed": ["L1", "x"], "latent_count": 1, "edges": [["x", "L0"], ["L0", "L1"]]})

    def test_census_refuses_what_recover_refuses(self, tmp_path, capsys):
        # census once wrote measurements naming "L5", which recover then refused
        obj = {"observed": ["a", "L5", "b"], "latent_count": 1, "edges": [["a", "L0"], ["L0", "b"], ["L5", "L0"]]}
        path, out = tmp_path / "net.json", tmp_path / "meas.json"
        cli.write_json(str(path), obj)
        assert run(["census", str(path), "--out", str(out)]) == 2
        assert "observed name 'L5' has the form L<k> of a latent label" in capsys.readouterr().err
        assert not out.exists()

    def test_census_of_a_model_refuses_what_recover_refuses(self, tmp_path, capsys):
        # census once wrote measurements of a model naming "L1", which recover then refused
        obj = cli.model_to_json(lv.gen_drg(lv.DrgConfig(n=3, m=1, p=0.6, q=0.6, seed=5)), ["L1", "b", "c"])
        path, out = tmp_path / "model.json", tmp_path / "meas.json"
        cli.write_json(str(path), obj)
        assert run(["census", str(path), "--out", str(out)]) == 2
        assert "bad model JSON: observed name 'L1' has the form L<k> of a latent label" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(cli.InputError, match="'L1' has the form L<k>"):
            cli.model_from_json(obj)

    def test_network_writer_refuses_observed_latent_label(self):
        # written, the edges would read ["L0", "L0"] and ["L0", "x"]
        net = lv.UnobservedNetwork(("L0", "x"), 1, frozenset({(0, 2), (2, 1)}))
        with pytest.raises(ValueError, match="'L0' has the form L<k> of a latent label"):
            cli.network_to_json(net)

    @pytest.mark.parametrize("names", ["ab", ["a", 1], None, {"a": 0}])
    @pytest.mark.parametrize("kind", ["measurements", "network", "model"])
    def test_names_must_be_an_array_of_strings(self, tmp_path, capsys, kind, names):
        # a string was once split into one name per character
        if kind == "measurements":
            obj, key, cmd = {"n": 2, "names": names, "supports": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}, "names", "recover"
        elif kind == "network":
            obj, key, cmd = {"observed": names, "latent_count": 1, "edges": [["a", "L0"], ["L0", "b"]]}, "observed", "census"
        else:
            obj = cli.model_to_json(lv.gen_drg(lv.DrgConfig(n=2, m=1, p=0.6, q=0.6, seed=5)))
            obj["names"] = names
            key, cmd = "names", "census"
        path = tmp_path / "in.json"
        cli.write_json(str(path), obj)
        assert run([cmd, str(path), "--out", str(tmp_path / "o.json")]) == 2
        assert f"bad {kind} JSON: {key} must be an array of strings" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_non_square_supports_exit_2(self, tmp_path, capsys):
        path = tmp_path / "meas.json"
        cli.write_json(str(path), {"n": 2, "supports": [[[0, 0], [0, 0]], [[0, 1, 0], [0, 0, 0]]]})
        assert run(["recover", str(path), "--out", str(tmp_path / "o.json")]) == 2
        assert "S_1 must be 2x2" in capsys.readouterr().err


#: Characters drawn into series names: inner spaces and non-ASCII letters,
#: and in NAME_CHARS also csv's delimiter, quote and line end, and U+FEFF,
#: which the rule refuses only at the start of a name.
PLAIN_NAME_CHARS = list("abxé ßΩжλ\t")
NAME_CHARS = PLAIN_NAME_CHARS + list(',"\n\ufeff')

#: Names the rule refuses, and what the panel reader, which strips names,
#: makes of them (None: it refuses them too).
BAD_NAMES = [
    pytest.param(("", "b"), None, id="empty"),
    pytest.param((" a", "b"), ("a", "b"), id="leading-space"),
    pytest.param(("a\t", "b"), ("a", "b"), id="trailing-tab"),
    pytest.param(("a", "a"), None, id="repeated"),
    pytest.param(("\ufeffa", "b"), ("a", "b"), id="leading-bom"),  # read as a byte order mark
    pytest.param(("a", "\ufeffb"), None, id="leading-bom-2"),
]


def drawn_names(rng, chars, n) -> tuple[str, ...]:
    names: list[str] = []
    while len(names) < n:
        s = "".join(rng.choice(chars, int(rng.integers(1, 6))))
        if s == s.strip() and s[0] != "\ufeff" and s not in names:
            names.append(s)
    return tuple(names)


class TestNameRule:
    """One rule for series names, model.name_tuple's, in every type and file."""

    def test_drawn_names_round_trip(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(20)
        for i in range(40):
            names = drawn_names(rng, NAME_CHARS if i % 2 else PLAIN_NAME_CHARS, int(rng.integers(1, 5)))
            n = len(names)
            panel = lv.TimeSeriesPanel(names, rng.standard_normal((5, n)))
            path = tmp_path / "p.csv"
            cli.write_panel_csv(str(path), panel)
            assert read_both_paths(str(path), monkeypatch) == ((names, panel.data.tobytes()),) * 2
            meas = lv.LinearMeasurements(n, [np.eye(n)], names)
            cli.write_json(str(tmp_path / "m.json"), cli.measurements_to_json(meas))
            assert cli.measurements_from_json(cli.read_json(str(tmp_path / "m.json"))).names == names
            net = lv.UnobservedNetwork(names, 1, frozenset({(0, n), (n, n - 1)}))
            cli.write_json(str(tmp_path / "n.json"), cli.network_to_json(net))
            assert cli.network_from_json(cli.read_json(str(tmp_path / "n.json"))) == net

    @pytest.mark.parametrize("names, stripped", BAD_NAMES)
    def test_types_refuse(self, names, stripped):
        with pytest.raises(ValueError):
            lv.TimeSeriesPanel(names, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            lv.LinearMeasurements(2, [np.zeros((2, 2))], names)
        with pytest.raises(ValueError):
            lv.UnobservedNetwork(names, 0)

    @pytest.mark.parametrize("kind", ["measurements", "network", "model"])
    @pytest.mark.parametrize("names, stripped", BAD_NAMES)
    def test_json_files_exit_2(self, tmp_path, capsys, kind, names, stripped):
        if kind == "measurements":
            obj, cmd = {"n": 2, "names": list(names), "supports": [[[0, 0], [0, 0]]]}, "recover"
        elif kind == "network":
            obj, cmd = {"observed": list(names), "latent_count": 0, "edges": []}, "census"
        else:
            obj, cmd = cli.model_to_json(lv.gen_drg(lv.DrgConfig(n=2, m=1, p=0.6, q=0.6, seed=5)), names), "census"
        path = tmp_path / "in.json"
        cli.write_json(str(path), obj)
        assert run([cmd, str(path), "--out", str(tmp_path / "o.json")]) == 2
        assert f"error: bad {kind} JSON: " in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("names, stripped", BAD_NAMES)
    def test_panel_csv_strips_names(self, tmp_path, monkeypatch, names, stripped):
        path = tmp_path / "p.csv"
        path.write_text(",".join(names) + "\n1.0,2.0\n3.0,4.0\n1.5,0.5\n", encoding="utf-8")
        fast, general = read_both_paths(str(path), monkeypatch)
        assert fast == general
        if stripped is not None:
            assert fast[0] == stripped
        else:
            assert isinstance(fast, str)
            assert run(["estimate", str(path), "--lag", "1", "--out-measurements", str(tmp_path / "m.json"),
                        "--out-report", str(tmp_path / "r.json")]) == 2


class TestLagBound:
    """The CLI selects among exactly the lags select_lag tries, those with l n < T/2."""

    @staticmethod
    def cli_lag(tmp_path, panel) -> int | None:
        path, report = tmp_path / "p.csv", tmp_path / "r.json"
        cli.write_panel_csv(str(path), panel)
        code = run(["estimate", str(path), "--out-measurements", str(tmp_path / "m.json"),
                    "--out-report", str(report)])
        return json.loads(report.read_text())["lag"] if code == 0 else None

    def test_odd_t_reaches_the_top_lag(self, tmp_path):
        # T = 13, n = 2 allows l <= 3; the CLI once clamped it to 2
        panel = lv.TimeSeriesPanel(("a", "b"), np.random.default_rng(5).standard_normal((13, 2)))
        assert lv.select_lag(panel, 8) == 3
        assert self.cli_lag(tmp_path, panel) == 3

    def test_cli_agrees_with_library(self, tmp_path):
        for t_len in range(5, 42):
            for n in range(1, 5):
                data = np.random.default_rng(100 * t_len + n).standard_normal((t_len, n))
                panel = lv.TimeSeriesPanel(tuple("abcd"[:n]), data)
                try:
                    want = lv.select_lag(panel, 8)
                except lv.LatentVarError:
                    want = None
                assert self.cli_lag(tmp_path, panel) == want, (t_len, n)


class TestConfigResolution:
    def test_config_file_supplies_values(self, tmp_path, dairy_meas_json):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("mode = dtr\ncap = 30\n# a comment\n")
        out = tmp_path / "out.json"
        assert run(["recover", dairy_meas_json, "--config", str(cfgfile),
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["latent_count"] == 1

    def test_flags_override_config(self, tmp_path, ambig_meas_json):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("mode = tree\n")
        out = tmp_path / "out.json"
        # tree mode would exit 3 on the ambiguous example; the flag must win
        assert run(["recover", ambig_meas_json, "--config", str(cfgfile),
                    "--mode", "nm", "--out", str(out)]) == 0

    def test_env_seed_default(self, tmp_path, monkeypatch):
        outs = []
        for env in ("123", "123", "124"):
            monkeypatch.setenv("LVL_SEED", env)
            out = tmp_path / f"m{len(outs)}.json"
            assert run(["simulate", "--n", "2", "--m", "1", "--p", "0.5",
                        "--q", "0.5", "--T", "30",
                        "--out-model", str(out),
                        "--out-panel", str(tmp_path / f"p{len(outs)}.csv")]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]

    def test_bad_config_line_exits_2(self, tmp_path, dairy_meas_json):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("mode dtr\n")
        assert run(["recover", dairy_meas_json, "--config", str(cfgfile),
                    "--out", str(tmp_path / "o.json")]) == 2

    @pytest.mark.parametrize("line, key", [("alpa = 0.5", "alpa"), ("out = x.json", "out")])
    def test_key_no_command_reads_exits_2(self, tmp_path, capsys, dairy_csv, line, key):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"lag_max = 1\n{line}\n")
        out = tmp_path / "p.json"
        assert run(["pipeline", dairy_csv, "--config", str(cfgfile), "--out", str(out)]) == 2
        assert f"run.cfg:2: no command reads config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["AIC", "FpE"])
    def test_config_criterion_meets_the_flag_choices(self, tmp_path, capsys, dairy_csv, value):
        # a file value once got round the choices by its letter case
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"criterion = {value}\n")
        out = tmp_path / "m.json"
        assert run(["estimate", dairy_csv, "--config", str(cfgfile), "--out-measurements", str(out),
                    "--out-report", str(tmp_path / "r.json")]) == 2
        assert f"unknown criterion {value!r}" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(SystemExit) as exc:
            run(["estimate", dairy_csv, "--criterion", value])
        assert exc.value.code == 2

    def test_a_min_is_not_an_option(self, tmp_path, capsys, dairy_csv):
        # no command path reads a per-lag minimum magnitude
        out = tmp_path / "p.json"
        with pytest.raises(SystemExit) as exc:
            run(["pipeline", dairy_csv, "--a-min", "0.1", "--out", str(out)])
        assert exc.value.code == 2
        assert "--a-min" in capsys.readouterr().err
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("a_min = 0.1\n")
        assert run(["pipeline", dairy_csv, "--config", str(cfgfile), "--out", str(out)]) == 2
        assert "run.cfg:1: no command reads config key 'a_min'" in capsys.readouterr().err
        assert not out.exists()

    def test_flag_spelling_of_a_key_exits_2(self, tmp_path, capsys):
        # the --T flag stores t_len; a file must use the stored name
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("T = 2000\n")
        model = tmp_path / "m.json"
        assert run(["simulate", "--config", str(cfgfile), "--out-model", str(model),
                    "--out-panel", str(tmp_path / "p.csv")]) == 2
        assert "no command reads config key 'T'" in capsys.readouterr().err
        assert not model.exists()

    def test_one_file_serves_simulate_and_estimate(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n = 3\nm = 1\nt-len = 300\nseed = 5\nlag = 1\nalpha = 0.01\n")
        panel = tmp_path / "p.csv"
        assert run(["simulate", "--config", str(cfgfile), "--out-model", str(tmp_path / "m.json"),
                    "--out-panel", str(panel)]) == 0
        assert len(panel.read_text().splitlines()) == 301
        report = tmp_path / "r.json"
        assert run(["estimate", str(panel), "--config", str(cfgfile), "--out-report", str(report),
                    "--out-measurements", str(tmp_path / "meas.json")]) == 0
        obj = json.loads(report.read_text())
        assert (obj["lag"], obj["alpha"]) == (1, 0.01)

    #: a value for each of the 20 config keys, off its default and within its checks
    KEY_VALUES = {
        "n": 5, "m": 3, "p": 0.25, "q": 0.3, "p_obs": 0.2, "a": 0.2, "sigma_x2": 2.0, "sigma_z2": 0.5,
        "t_len": 77, "burn_in": 9, "seed": 11, "lag": 2, "lag_max": 3, "criterion": "fpe", "alpha": 0.01,
        "rho12": 0.5, "rho22": 0.4, "sigma_z2_max": 1.5, "mode": "nm", "cap": 7,
    }
    ESTIMATION = ["lag", "lag_max", "criterion", "alpha", "rho12", "rho22", "sigma_z2_max"]
    READERS = {
        "simulate": ["n", "m", "p", "q", "p_obs", "a", "sigma_x2", "sigma_z2", "t_len", "burn_in", "seed"],
        "estimate": ESTIMATION,
        "recover": ["mode", "cap"],
        "pipeline": ESTIMATION + ["mode", "cap"],
    }

    def test_each_config_key_reaches_the_commands_that_read_it(self, tmp_path, monkeypatch):
        table_keys = {row[1] for rows in cli._OPTIONS.values() for row in rows}
        assert cli._CONFIG_KEYS == table_keys == set(self.KEY_VALUES)
        seen = []
        for command in self.READERS:
            monkeypatch.setattr(cli, f"_cmd_{command}", lambda args: seen.append(args) or 0)
        inputs = {"simulate": [], "estimate": ["p.csv"], "recover": ["m.json"], "pipeline": ["p.csv"]}
        cfgfile = tmp_path / "run.cfg"
        for key, value in self.KEY_VALUES.items():
            cfgfile.write_text(f"{key} = {value}\n")
            for command, keys in self.READERS.items():
                assert run([command, *inputs[command], "--config", str(cfgfile)]) == 0
                args = seen.pop()
                if key in keys:
                    assert (getattr(args, key), type(getattr(args, key))) == (value, type(value))
                else:
                    assert not hasattr(args, key)

    def test_unparsable_file_value_fails_as_the_flag_would(self, tmp_path, capsys, dairy_csv):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("alpha = abc\n")
        with pytest.raises(SystemExit) as exc:
            run(["estimate", dairy_csv, "--config", str(cfgfile)])
        assert exc.value.code == 2
        assert "argument --alpha: invalid float value: 'abc'" in capsys.readouterr().err

    def test_only_simulate_reads_lvl_seed(self, tmp_path, monkeypatch, capsys, dairy_csv, dairy_meas_json):
        # a seed no command but simulate reads once failed the other three
        monkeypatch.setenv("LVL_SEED", "abc")
        assert run(["estimate", dairy_csv, "--out-measurements", str(tmp_path / "m.json"),
                    "--out-report", str(tmp_path / "r.json")]) == 0
        assert run(["recover", dairy_meas_json, "--out", str(tmp_path / "n.json")]) == 0
        assert run(["pipeline", dairy_csv, "--out", str(tmp_path / "b.json")]) == 0
        assert run(["simulate", "--T", "30", "--out-model", str(tmp_path / "model.json"),
                    "--out-panel", str(tmp_path / "p.csv")]) == 2
        assert "LVL_SEED must be an integer, got 'abc'" in capsys.readouterr().err

    def test_each_command_checks_only_the_options_it_reads(self, tmp_path, dairy_csv, dairy_meas_json):
        # simulate once rejected a recovery mode it never reads
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("mode = banana\n")
        assert run(["simulate", "--config", str(cfgfile), "--T", "30", "--out-model", str(tmp_path / "m.json"),
                    "--out-panel", str(tmp_path / "p.csv")]) == 0
        assert run(["recover", dairy_meas_json, "--config", str(cfgfile), "--out", str(tmp_path / "o.json")]) == 2
        cfgfile.write_text("n = abc\n")
        assert run(["estimate", dairy_csv, "--config", str(cfgfile), "--out-measurements", str(tmp_path / "x.json"),
                    "--out-report", str(tmp_path / "r.json")]) == 0

    @pytest.mark.parametrize("argv", [
        ["estimate", "p.csv", "--seed", "1"],
        ["recover", "m.json", "--seed", "1"],
        ["pipeline", "p.csv", "--seed", "1"],
        ["census", "m.json", "--seed", "1"],
        ["census", "m.json", "--config", "run.cfg"],
    ])
    def test_flags_no_command_path_reads_exit_2(self, capsys, argv):
        # --seed belongs to simulate alone, and census reads no option
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[2:])}" in capsys.readouterr().err

    def test_bad_mode_exits_2(self, tmp_path, dairy_meas_json):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("mode = banana\n")
        assert run(["recover", dairy_meas_json, "--config", str(cfgfile),
                    "--out", str(tmp_path / "o.json")]) == 2
