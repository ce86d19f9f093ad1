"""End-to-end command-line checks: exit codes, artifacts, reproducibility.

Runs use small grids; the numerical content of the artifacts is covered
by the module test suites, so these tests pin plumbing: configuration
precedence, file layouts, determinism, and the exit-code contract
(0 ok, 1 bad config, 2 solver/artifact failure, 3 strict certificate).
"""

import ast
import collections
import ctypes
import dataclasses
import json
import os
import re
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from dirac_mfp import cli, errors, fields, rescale
from dirac_mfp.errors import FormatError, InvalidParameterError
from dirac_mfp.metrics import rate_report
from dirac_mfp.profile import make_profile
from dirac_mfp.solver import SolverConfig, make_grid, solve
from dirac_mfp.target import power_bump

from conftest import write_table

FAST = ["--nt", "48", "--ny", "48"]
# horizon at which power_bump(-1,1) equals the theta=1 self-similar slice
T_SLICE = "0.38490017945975052"


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def read_tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------

def test_config_roundtrip():
    cfg = cli.RunConfig(theta=3.0, eps=1e-4, fit_window=(1e-3, 0.25),
                        target=cli.TargetConfig(kind="self_similar"),
                        outdir="x")
    doc = json.loads(json.dumps(dataclasses.asdict(cfg)))
    assert cli.nested_to_config(doc) == cfg


def test_config_invariants():
    with pytest.raises(InvalidParameterError, match="nt"):
        cli.RunConfig(nt=8)
    with pytest.raises(InvalidParameterError, match="theta"):
        cli.RunConfig(theta=-1.0)
    with pytest.raises(InvalidParameterError, match="path"):
        cli.TargetConfig(kind="file")
    with pytest.raises(InvalidParameterError, match="kind"):
        cli.TargetConfig(kind="gaussian")
    with pytest.raises(InvalidParameterError, match="window"):
        cli.RunConfig(fit_window=(0.5, 0.1))
    with pytest.raises(InvalidParameterError, match="a < b"):
        cli.TargetConfig(a=1.0, b=-1.0)


# (config document, the key the message must name); each was accepted, or
# ended in a traceback, before the config types checked their own fields
REJECTED = [
    ({"strict": "no"}, "strict"),
    ({"theta": True}, "theta"),
    ({"solver": {"newton_max_iter": 2.5}}, "newton_max_iter"),
    ({"solver": {"newton_max_iter": True}}, "newton_max_iter"),
    ({"solver": {"residual_tol": "x"}}, "residual_tol"),
    ({"solver": {"residual_tol": -1}}, "residual_tol"),
    ({"outdir": 5}, "outdir"),
    ({"target": {"path": 7}}, "target.path"),
]


@pytest.mark.parametrize("doc,key", REJECTED,
                         ids=[json.dumps(d) for d, _ in REJECTED])
def test_config_rejects_wrong_types_and_ranges(tmp_path, capsys, doc, key):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    with pytest.raises((FormatError, InvalidParameterError), match=key):
        cli.load_config(path)
    assert run_cli("solve", "--config", path, "--outdir", tmp_path / "r") == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_solve_rejects_solver_config_out_of_range():
    p = make_profile(1.0)
    with pytest.raises(InvalidParameterError, match="newton_max_iter"):
        solve(p, power_bump(-1.0, 1.0, 1.0), make_grid(p, 1e-3, 1.0, 16, 16),
              SolverConfig(newton_max_iter=0))


def test_int_in_float_field_loads_and_echoes(tmp_path):
    doc = tmp_path / "c.json"
    doc.write_text(json.dumps({"theta": 3, "outdir": str(tmp_path / "r")}))
    assert cli.load_config(doc).theta == 3
    assert run_cli("solve", "--config", doc, *FAST) == 0
    assert '\n  "theta": 3,\n' in (tmp_path / "r" / "config.json").read_text()


# for every flag of cli.CONFIG_FLAGS: its key in config.json, a value other
# than the default, and the setting that value must give
FLAG_VALUES = {
    "--theta": ("theta", ["0.37"], 0.37),
    "--eps": ("eps", ["0.37"], 0.37),
    "--T": ("T", ["0.37"], 0.37),
    "--nt": ("nt", ["37"], 37),
    "--ny": ("ny", ["37"], 37),
    "--target": ("target.kind", ["self_similar"], "self_similar"),
    "--a": ("target.a", ["0.37"], 0.37),
    "--b": ("target.b", ["0.37"], 0.37),
    "--target-path": ("target.path", ["t.csv"], "t.csv"),
    "--outdir": ("outdir", ["o"], "o"),
    "--window": ("fit_window", ["0.01", "0.2"], (0.01, 0.2)),
    "--max-iter": ("solver.newton_max_iter", ["37"], 37),
    "--tol": ("solver.residual_tol", ["0.37"], 0.37),
    "--strict": ("strict", [], True),
}


def setting(cfg, path):
    for key in path.split("."):
        cfg = getattr(cfg, key)
    return cfg


@pytest.mark.parametrize("fl", cli.CONFIG_FLAGS, ids=lambda fl: fl.flag)
def test_config_flag_sets_its_path(fl):
    path, argv, expected = FLAG_VALUES[fl.flag]
    assert fl.path == path
    args = cli.build_parser().parse_args(["solve", fl.flag, *argv])
    assert setting(cli.RunConfig(), fl.path) != expected
    assert setting(cli._config_from_args(args), fl.path) == expected


def test_solve_help_lists_the_flag_table(capsys):
    with pytest.raises(SystemExit):
        cli.main(["solve", "--help"])
    flag = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")
    listed = set(flag.findall(capsys.readouterr().out))
    table = {fl.flag for fl in cli.CONFIG_FLAGS}
    assert listed == table | {"--help", "--config"}
    assert set(FLAG_VALUES) == table


def test_load_config_reports_line_numbers(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "theta": 1.0,\n  "eps": oops\n}\n')
    with pytest.raises(FormatError, match=r"bad\.json:3:"):
        cli.load_config(bad)
    with pytest.raises(FormatError, match="no such config"):
        cli.load_config(tmp_path / "absent.json")


def test_load_config_rejects_unknown_keys(tmp_path):
    doc = tmp_path / "c.json"
    doc.write_text('{"epz": 0.1}\n')
    with pytest.raises(FormatError, match="epz"):
        cli.load_config(doc)
    doc.write_text('{"solver": {"newton_max_iters": 5}}\n')
    with pytest.raises(FormatError, match="newton_max_iters"):
        cli.load_config(doc)
    doc.write_text('{"fit_window": [0.1]}\n')
    with pytest.raises(FormatError, match="fit_window"):
        cli.load_config(doc)


def test_messages_name_their_source(tmp_path, capsys):
    doc = tmp_path / "c.json"
    doc.write_text('{"eps": 0}\n')
    message = "eps must be a positive number, got 0"
    assert run_cli("solve", "--config", doc, "--outdir", tmp_path / "r") == 1
    assert capsys.readouterr().err == f"{doc}: {message}\n"
    assert run_cli("solve", "--eps", "0", "--outdir", tmp_path / "r") == 1
    assert capsys.readouterr().err == f"config: {message}.0\n"
    table = tmp_path / "bump.csv"
    x = np.linspace(-1.0, 1.0, 201)
    write_table(table, x, 1.0 - x * x)
    for flags in (["--theta", "0"], ["--theta", "1", "--ratio-bound", "nan"]):
        assert run_cli("validate", table, *flags) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{flags[-2]} must be a positive number")
        assert "config:" not in err
    assert not (tmp_path / "r").exists()


def test_flags_override_config_file(tmp_path):
    doc = tmp_path / "c.json"
    doc.write_text(json.dumps({"theta": 3.0, "eps": 1e-2, "nt": 48, "ny": 48,
                               "outdir": str(tmp_path / "r")}))
    out = tmp_path / "r"
    assert run_cli("solve", "--config", doc, "--eps", "1e-3") == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["theta"] == 3.0          # from the file
    assert echoed["eps"] == 1e-3           # flag wins
    assert echoed["nt"] == 48


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_writes_run_directory(tmp_path):
    out = tmp_path / "run"
    assert run_cli("solve", "--outdir", out, *FAST) == 0
    for name in ("config.json", "flow.csv", "boundary.csv", "series.csv",
                 "rates.json", "manifest.json"):
        assert (out / name).is_file()
    snaps = sorted((out / "snapshots").glob("slice_*.csv"))
    assert len(snaps) == 8

    manifest = json.loads((out / "manifest.json").read_text())
    # the manifest lists the run files of the table, in its order
    artifacts = manifest["artifacts"]
    assert list(artifacts) == list(cli.RUN_FILES)
    assert artifacts["snapshots"] == [p.relative_to(out).as_posix()
                                      for p in snaps]
    assert all((out / artifacts[k]).is_file()
               for k in cli.RUN_FILES if k != "snapshots")
    assert manifest["solver"]["iterations"] >= 1
    assert manifest["solver"]["grad_norm"] <= 1e-10
    # no axis above 64 intervals: one level, the requested grid, which is
    # its own coarsest level and solves each step by its band factor, with
    # no CG iteration
    (level,) = manifest["solver"]["levels"]
    assert level == [48, 48, manifest["solver"]["iterations"], 0]
    # every certificate key is one that some flow can fail
    assert set(manifest["certificates"]) == {
        "boundary_curvature_signs", "rates_all_pass", "laws_out_of_band"}
    assert manifest["certificates"]["boundary_curvature_signs"] is True
    # the manifest alone reconstructs the configuration
    cfg = cli.nested_to_config(manifest["config"])
    assert cfg == cli.nested_to_config(json.loads((out / "config.json").read_text()))

    t, y, gamma = cli.load_flow_csv(out / "flow.csv")
    assert gamma.shape == (49, 49)
    assert t[0] == 0.0 and t[-1] == 1.0
    assert np.all(np.diff(gamma[-1]) > 0.0)


def test_solve_reports_newton_steps_per_level(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("solve", "--outdir", out, "--nt", "128", "--ny", "128") == 0
    solver_doc = json.loads((out / "manifest.json").read_text())["solver"]
    (nt0, ny0, k0, c0), (nt1, ny1, k1, c1) = solver_doc["levels"]
    assert (nt0, ny0, nt1, ny1) == (64, 64, 128, 128)
    assert k1 == solver_doc["iterations"]
    # the coarsest level solves by its band factor, the fine one by CG: at
    # least one iteration per step
    assert c0 == 0 and 1 <= k1 <= c1
    assert (f"({k1} Newton steps, {c1} CG iterations "
            f"(64x64: {k0}/{c0}, 128x128: {k1}/{c1}), "
            in capsys.readouterr().out)


def test_solve_reruns_bit_identical(tmp_path):
    out = tmp_path / "run"
    args = ("solve", "--outdir", out, "--eps", "1e-3", *FAST)
    assert run_cli(*args) == 0
    first = read_tree(out)
    assert run_cli(*args) == 0
    assert read_tree(out) == first


def test_solve_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json\n")
    assert run_cli("solve", "--config", bad) == 1
    assert run_cli("solve", "--outdir", tmp_path / "d", *FAST,
                   "--max-iter", "1", "--tol", "1e-16") == 2
    # default horizon leaves the slow-datum laws out of band -> strict trips
    assert run_cli("solve", "--outdir", tmp_path / "s", *FAST,
                   "--strict") == 3


# the exit code the README states for each error class
EXIT_CODES = {
    errors.FormatError: 1,
    errors.InvalidParameterError: 1,
    errors.UnsupportedParameterError: 1,
    errors.DegenerateStateError: 2,
    errors.NewtonDivergenceError: 2,
    errors.CrossingCharacteristicsError: 2,
    cli._MissingArtifact: 2,
    errors.CompatibilityError: 3,
}


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_every_error_class_has_a_stated_exit_code():
    assert set(subclasses(errors.DiracMfpError)) == set(EXIT_CODES)


@pytest.mark.parametrize("exc", EXIT_CODES, ids=lambda c: c.__name__)
def test_main_maps_each_error_to_its_exit_code(tmp_path, capsys,
                                               monkeypatch, exc):
    def fail(cfg):
        raise exc("the message")

    monkeypatch.setattr(cli, "_run_pipeline", fail)
    assert run_cli("solve", "--outdir", tmp_path / "r") == EXIT_CODES[exc]
    captured = capsys.readouterr()
    assert captured.err == "the message\n"
    assert captured.out == ""


def test_theta_too_small_for_the_profile_exits_1(tmp_path, capsys):
    # the profile radius overflows below theta of about 0.008
    out = tmp_path / "run"
    assert run_cli("solve", "--theta", "0.005", "--outdir", out) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("theta=0.005 is too small: the profile radius "
                            "overflows\n")
    assert not out.exists()


def test_small_theta_exits_1_without_warnings(tmp_path, capsys):
    # the power_bump's terminal row is not monotone at theta 0.009; numpy
    # must not warn before the one-line error
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("solve", "--theta", "0.009", "--nt", "64",
                       "--ny", "64", "--outdir", out) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1


def test_missing_target_csv_exits_1(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    out = tmp_path / "run"
    assert run_cli("solve", "--target", "file", "--target-path", missing,
                   "--outdir", out, "--nt", "32", "--ny", "32") == 1
    assert f"{missing}: no such target file" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli("validate", missing, "--theta", "1") == 1
    assert f"{missing}: no such target file" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("x,density\n0,1\n1,1,1\n", "expected exactly two columns"),
    ("x,density\n", "need >= 8 (x, density) rows, got 0"),
    ("x,density\n" + "".join(f"{v},1\n" for v in (0, 1, 2, 1.5, 4, 5, 6, 7)),
     "x column must be strictly increasing"),
], ids=["three-fields", "header-only", "non-increasing-x"])
def test_malformed_target_csv_names_its_fault(tmp_path, capsys, text,
                                              message):
    table = tmp_path / "t.csv"
    table.write_text(text)
    out = tmp_path / "run"
    for argv in (["validate", table, "--theta", "1"],
                 ["solve", "--target", "file", "--target-path", table,
                  "--outdir", out, "--nt", "32", "--ny", "32"]):
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{table}: {message}\n"
    assert not out.exists()


def test_eps_too_large_for_horizon_rejected_before_solve(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("solve", "--eps", "0.5", "--T", "2", "--nt", "64",
                   "--ny", "64", "--outdir", out) == 1
    assert "fewer than four slices with t >= 5.0" in capsys.readouterr().err
    assert not out.exists()


def forbid_solve(monkeypatch):
    from dirac_mfp import solver

    def fail(*args, **kwargs):
        raise AssertionError("solve ran")

    monkeypatch.setattr(solver, "solve", fail)


@pytest.mark.parametrize("command", [
    ["solve"], ["sweep", "--axis", "eps", "--values", "1e-2,1e-3"]],
    ids=["solve", "sweep"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "under-file"])
def test_outdir_naming_a_file_exits_1(tmp_path, capsys, monkeypatch,
                                      command, below):
    forbid_solve(monkeypatch)
    a_file = tmp_path / "F"
    a_file.write_text("keep")
    outdir = a_file / "sub" if below else a_file
    assert run_cli(*command, "--outdir", outdir, *FAST) == 1
    assert capsys.readouterr().err \
        == f"outdir {outdir}: {a_file} is not a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["F"]
    assert a_file.read_text() == "keep"


@pytest.mark.parametrize("flags, window", [
    (["--window", "2", "3"], "[2, 3]"),            # window beyond T
    (["--eps", "0.01", "--T", "0.3"], "[0.1, 0.075]"),  # default window empty
], ids=["window-beyond-T", "default-window-inverted"])
def test_strict_fails_when_no_law_fitted(tmp_path, capsys, flags, window):
    note = f"no law fitted in window {window}"
    grid = ["--nt", "32", "--ny", "32"]
    out = tmp_path / "run"
    assert run_cli("solve", *flags, *grid, "--outdir", out) == 0
    assert note in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["certificates"]["rates_all_pass"] is False
    assert run_cli("solve", *flags, *grid, "--outdir", tmp_path / "s",
                   "--strict") == 3
    assert note in capsys.readouterr().out
    # rates refits over the window the run recorded
    assert run_cli("rates", out) == 0
    assert note in capsys.readouterr().out
    assert run_cli("rates", out, "--strict") == 3
    assert note in capsys.readouterr().out


def test_solve_strict_passes_on_clean_run(tmp_path):
    out = tmp_path / "clean"
    assert run_cli("solve", "--outdir", out, "--eps", "1e-4",
                   "--T", T_SLICE, "--window", "1e-3", "0.25",
                   "--strict") == 0
    report = json.loads((out / "rates.json").read_text())
    assert all(r["pass"] for r in report["laws"])


# ---------------------------------------------------------------------------
# rates / validate / export
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def solved_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    assert cli.main(["solve", "--outdir", str(out), *FAST]) == 0
    return out


def test_rates_refits_run_directory(solved_run, capsys):
    assert run_cli("rates", solved_run) == 0
    out = capsys.readouterr().out
    assert "support_radius" in out and "kappa" in out
    # the default theta=1 horizon leaves two laws out of band
    assert run_cli("rates", solved_run, "--strict") == 3
    assert run_cli("rates", tmp_path_nonexistent()) == 2


def tmp_path_nonexistent():
    return "/tmp/dirac-mfp-no-such-run"


def test_rates_window_override_and_write(solved_run, capsys):
    assert run_cli("rates", solved_run, "--window", "0.02", "0.2",
                   "--write") == 0
    report = json.loads((solved_run / "rates.json").read_text())
    assert report["window"] == [0.02, 0.2]
    capsys.readouterr()


def test_rates_rejects_inverted_window(solved_run, tmp_path, capsys):
    before = (solved_run / "rates.json").read_bytes()
    assert run_cli("rates", solved_run, "--window", "0.3", "0.2",
                   "--strict") == 1
    message = capsys.readouterr().err
    assert "fit window must satisfy 0 < lo < hi" in message
    assert run_cli("solve", "--window", "0.3", "0.2",
                   "--outdir", tmp_path / "r") == 1
    assert capsys.readouterr().err == message
    assert (solved_run / "rates.json").read_bytes() == before


def test_write_onto_the_wrong_kind_of_path_exits_1(solved_run, tmp_path,
                                                   capsys):
    # export onto a file, rates --write onto a directory: one stderr line,
    # and nothing printed or written
    run = copy_run(solved_run, tmp_path / "run")
    (run / "export").write_text("keep")
    before = read_tree(run)
    assert run_cli("export", run) == 1
    assert capsys.readouterr() == (
        "", f"outdir {run / 'export'}: {run / 'export'} is not a directory\n")
    (run / "export").unlink()
    (run / "rates.json").mkdir()
    del before["export"]
    assert run_cli("rates", run, "--write") == 1
    assert capsys.readouterr() == (
        "", f"cannot write {run / 'rates.json'}: it is a directory\n")
    assert read_tree(run) == before
    assert not any((run / "rates.json").iterdir())


@pytest.mark.parametrize("argv, message", [
    (["solve", "--nt", "abc"],
     "dirac-mfp solve: argument --nt: invalid int value: 'abc'"),
    (["rates"], "dirac-mfp rates: the following arguments are required: "
                "rundir"),
    (["solve", "--no-such-flag"], None),
    (["no-such-command"], None),
    ([], None),
], ids=["bad-value", "missing", "unknown-flag", "unknown-command", "none"])
def test_usage_errors_exit_1(tmp_path, capsys, monkeypatch, argv, message):
    # argparse would print the usage and exit 2, the solver-failure code
    monkeypatch.chdir(tmp_path)
    forbid_solve(monkeypatch)
    assert run_cli(*argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("dirac-mfp")
    if message is not None:
        assert err == message + "\n"
    assert not any(tmp_path.iterdir())
    # --help of the same parser still exits 0
    parser = argv[:1] if argv[:1] in (["solve"], ["rates"]) else []
    with pytest.raises(SystemExit) as exc:
        run_cli(*parser, "--help")
    assert exc.value.code == 0


def test_main_builds_the_parser_once(capsys, monkeypatch):
    cli.build_parser.cache_clear()
    errs = []
    for _ in range(3):
        assert run_cli("solve", "--nt", "abc") == 1
        errs.append(capsys.readouterr().err)
    assert errs == 3 * ["dirac-mfp solve: argument --nt: invalid int value: "
                        "'abc'\n"]
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    # --help of that one parser reads the terminal width when it prints
    widths = []
    for columns in ("60", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit):
            run_cli("solve", "--help")
        widths.append(max(map(len, capsys.readouterr().out.splitlines())))
    assert widths[0] < widths[1]
    assert cli.build_parser.cache_info().misses == 1


def test_validate_reports_envelope(tmp_path, capsys):
    path = tmp_path / "bump.csv"
    x = np.linspace(-1.0, 1.0, 201)
    write_table(path, x, 1.0 - x * x)
    assert run_cli("validate", path, "--theta", "1") == 0
    out = capsys.readouterr().out
    assert "c_lower=" in out and "c_upper=" in out and "pass" in out
    # tightening the envelope bound below the measured ratio trips strict
    assert run_cli("validate", path, "--theta", "1",
                   "--ratio-bound", "1.5", "--strict") == 3
    assert run_cli("validate", tmp_path / "absent.csv", "--theta", "1") == 1


@pytest.mark.parametrize("value", ["0", "-1", "nan"])
@pytest.mark.parametrize("flag", ["--theta", "--ratio-bound"])
def test_validate_rejects_nonpositive_flags(tmp_path, capsys, flag, value):
    path = tmp_path / "bump.csv"
    x = np.linspace(-1.0, 1.0, 201)
    write_table(path, x, 1.0 - x * x)
    flags = {"--theta": "1", "--ratio-bound": "1000", flag: value}
    assert run_cli("validate", path, *[a for kv in flags.items()
                                       for a in kv]) == 1
    captured = capsys.readouterr()
    assert f"{flag} must be a positive number" in captured.err
    assert captured.out == ""


def truncate_config(run):
    text = (run / "config.json").read_text()
    (run / "config.json").write_text(text[:len(text) // 2])


def edit_flow(run, edit):
    lines = (run / "flow.csv").read_text().splitlines(keepends=True)
    edit(lines)
    (run / "flow.csv").write_text("".join(lines))


def truncate_last_flow_row(run):
    def edit(lines):
        lines[-1] = ",".join(lines[-1].split(",")[:-3]) + "\n"
    edit_flow(run, edit)


def set_flow_cell(run, text):
    def edit(lines):
        cells = lines[2].split(",")
        cells[3] = text
        lines[2] = ",".join(cells)
    edit_flow(run, edit)


def non_numeric_flow_cell(run):
    set_flow_cell(run, "abc")


def non_numeric_flow_label(run):
    def edit(lines):
        cells = lines[0].split(",")
        cells[1] = "y0"
        lines[0] = ",".join(cells)
    edit_flow(run, edit)


def header_only_flow(run):
    # what a solve killed right after opening the file leaves behind
    def edit(lines):
        del lines[1:]
    edit_flow(run, edit)


def nan_flow_cell(run):
    set_flow_cell(run, "nan")


def edit_config(run, **changes):
    doc = json.loads((run / "config.json").read_text())
    (run / "config.json").write_text(json.dumps({**doc, **changes}, indent=2))


def config_of_another_theta(run):
    # same grid sizes: the labels of the theta = 1 flow are not theta = 3's
    edit_config(run, theta=3.0)


def config_of_another_grid(run):
    # the flow has the 49 time rows of nt = 48
    edit_config(run, nt=64)


@pytest.mark.parametrize("command", ["rates", "export"])
@pytest.mark.parametrize("corrupt", [truncate_config, truncate_last_flow_row,
                                     non_numeric_flow_cell,
                                     non_numeric_flow_label,
                                     header_only_flow, nan_flow_cell,
                                     config_of_another_theta,
                                     config_of_another_grid])
def test_corrupt_run_artifacts_exit_1(solved_run, tmp_path, capsys,
                                      command, corrupt):
    run = tmp_path / "run"
    run.mkdir()
    for name in ("config.json", "flow.csv"):
        (run / name).write_bytes((solved_run / name).read_bytes())
    corrupt(run)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(command, run) == 1
    err = capsys.readouterr().err
    name = "config.json" if corrupt is truncate_config else "flow.csv"
    assert str(run / name) in err and err.count("\n") == 1


def test_retired_config_keys_still_load(solved_run, tmp_path):
    # config.json as written while seed, solver.linear_solver and
    # solver.gamma_y_floor existed
    old = tmp_path / "old"
    old.mkdir()
    doc = json.loads((solved_run / "config.json").read_text())
    doc["seed"] = 0
    doc["solver"]["linear_solver"] = "banded-direct"
    doc["solver"]["gamma_y_floor"] = 1e-8
    (old / "config.json").write_text(json.dumps(doc, indent=2) + "\n")
    (old / "flow.csv").write_bytes((solved_run / "flow.csv").read_bytes())
    assert run_cli("rates", old) == 0
    assert run_cli("export", old) == 0


def test_export_emits_plot_data(solved_run):
    assert run_cli("export", solved_run) == 0
    exp = solved_run / "export"
    with open(exp / "mu_overlay.csv") as fh:
        assert fh.readline().strip() == "tau,eta,mu,phi"
    with open(exp / "lyapunov.csv") as fh:
        assert fh.readline().strip() == "tau,H,dH_fd,dH_identity,envelope"
    data = np.loadtxt(exp / "support_radius.csv", delimiter=",", skiprows=1)
    assert data.shape[1] == 3 and np.all(data[:, 1] > 0.0)
    fan = np.loadtxt(exp / "boundary_fan.csv", delimiter=",", skiprows=1)
    assert set(np.unique(fan[:, 0])) == {0.0, 1.0}

    first = read_tree(exp)
    assert run_cli("export", solved_run) == 0
    assert read_tree(exp) == first      # idempotent

    assert run_cli("export", tmp_path_nonexistent()) == 2


# ---------------------------------------------------------------------------
# run-directory files: `cli` writes and reads every one
# ---------------------------------------------------------------------------

def test_snapshot_csv_roundtrip(solved_run):
    _, f = cli._load_run(solved_run)
    i = int(cli._snapshot_rows(f.grid.nt)[3])
    snap = fields.snapshot(f, i)
    path = solved_run / cli.RUN_FILES["snapshots"].format(i=i)
    with open(path) as fh:
        assert fh.readline().strip() == "t,x,m,u,ux"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (snap.x_nodes.size, 5)
    assert np.all(data[:, 0] == snap.t)
    assert np.array_equal(data[:, 1], snap.x_nodes)
    assert np.array_equal(data[:, 2], snap.m)
    assert np.array_equal(data[:, 3], snap.u)
    assert np.array_equal(data[:, 4], snap.u_x)


def test_boundary_csv_roundtrip(solved_run):
    _, f = cli._load_run(solved_run)
    ddg = fields.boundary_curvature(f)
    path = solved_run / cli.RUN_FILES["boundary"]
    with open(path) as fh:
        assert fh.readline().strip() == "t,gammaL,gammaR,dgL,dgR,ddgL,ddgR"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], f.grid.t)
    assert np.array_equal(data[:, 1], f.gamma[:, 0])
    assert np.array_equal(data[:, 6], ddg[:, 1])


def test_boundary_csv_is_the_flow_columns_and_curvature(solved_run):
    # every column bit for bit: the time nodes, the two boundary columns of
    # gamma and of gamma_t, and the curvature of `boundary_curvature`
    _, f = cli._load_run(solved_run)
    data = np.loadtxt(solved_run / cli.RUN_FILES["boundary"], delimiter=",",
                      skiprows=1)
    expected = np.column_stack([f.grid.t, f.gamma[:, 0], f.gamma[:, -1],
                                f.gamma_t[:, 0], f.gamma_t[:, -1],
                                fields.boundary_curvature(f)])
    assert data.shape == expected.shape
    assert np.array_equal(data, expected)


def test_series_columns_and_csv_roundtrip(solved_run):
    _, f = cli._load_run(solved_run)
    series = rescale.build_series(f)
    assert set(series) == set(rescale.SERIES_COLUMNS)
    n = series["tau"].size
    assert all(series[k].size == n for k in rescale.SERIES_COLUMNS)
    path = solved_run / cli.RUN_FILES["series"]
    back = np.genfromtxt(path, delimiter=",", names=True)
    assert list(back.dtype.names) == list(rescale.SERIES_COLUMNS)
    for k in rescale.SERIES_COLUMNS:
        assert np.allclose(back[k], series[k], rtol=0, atol=0)


def test_series_csv_reads_back_only_its_own_flow(solved_run, tmp_path):
    _, f = cli._load_run(solved_run)
    series = rescale.build_series(f)
    path = solved_run / cli.RUN_FILES["series"]
    back = cli._load_series(path, f)
    for k in rescale.SERIES_COLUMNS:
        assert back[k].tobytes() == series[k].tobytes()
    assert cli._load_series(tmp_path / "absent.csv", f) is None
    # the same file against a flow on a different time grid
    p = f.profile
    other = solve(p, power_bump(-1.0, 1.0, 1.0),
                  make_grid(p, eps=2e-3, T=1.0, nt=48, ny=32))
    assert cli._load_series(path, other) is None


def test_report_json_roundtrip(solved_run, tmp_path):
    _, f = cli._load_run(solved_run)
    rep = rate_report(f)
    path = tmp_path / "rates.json"
    cli._write_json(rep, path)
    loaded = json.loads(path.read_text())
    assert loaded["theta"] == pytest.approx(rep["theta"])
    assert [r["law"] for r in loaded["laws"]] == [r["law"] for r in rep["laws"]]
    for ra, rb in zip(loaded["laws"], rep["laws"]):
        assert ra["fitted_exponent"] == pytest.approx(rb["fitted_exponent"])
        assert ra["pass"] == rb["pass"]


def test_report_json_writes_unfitted_laws_as_null(solved_run, tmp_path):
    # a window of fewer than four time nodes fits no law
    _, f = cli._load_run(solved_run)
    rep = rate_report(f, window=(0.2, 0.201))
    path = tmp_path / "rates.json"
    cli._write_json(rep, path)
    assert json.loads(path.read_text())["laws"][0]["fitted_exponent"] is None


def test_write_json_rejects_nan(tmp_path):
    # NaN is no JSON value; a manifest carrying one is refused
    manifest = {"schema_version": 1, "solver": {"grad_norm": np.nan}}
    with pytest.raises(ValueError, match="JSON compliant"):
        cli._write_json(manifest, tmp_path / "manifest.json")


# modules that compute and return, and leave every file to `cli`
NO_FILE_IO = ("fields", "rescale", "metrics", "solver", "profile")
FILE_CALLS = {"open", "savetxt", "loadtxt", "genfromtxt", "dump", "dumps",
              "load", "loads", "read_text", "write_text"}


def file_calls(source):
    """Names of the file-reading and -writing calls in ``source``."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            fn = node.func
            name = (fn.id if isinstance(fn, ast.Name) else
                    fn.attr if isinstance(fn, ast.Attribute) else None)
            if name in FILE_CALLS:
                out.add(name)
    return out


def test_file_calls_finds_each_kind():
    source = ("open(p)\nnp.savetxt(p, a)\njson.dump(d, fh)\n"
              "Path(p).read_text()\nnp.gradient(a)\n")
    assert file_calls(source) == {"open", "savetxt", "dump", "read_text"}


@pytest.mark.parametrize("module", NO_FILE_IO)
def test_only_cli_touches_files(module):
    path = Path(cli.__file__).with_name(f"{module}.py")
    assert file_calls(path.read_text()) == set()


def test_no_module_calls_savetxt():
    # every CSV artifact goes through `cli._write_csv`, one row at a time
    for path in Path(cli.__file__).parent.glob("*.py"):
        assert "savetxt" not in file_calls(path.read_text()), path.name


@pytest.mark.parametrize("header,columns", [
    (("t", "a", "b", "c"), [np.geomspace(1e-3, 1.0, 5) - 1e-3,
                            np.linspace(-1.0, 1.0, 15).reshape(5, 3) ** 3]),
    (("t", "x", "y"), [np.array([0.5]), np.array([[1.0 / 3.0, 2.0e-17]])]),
    (("side", "s"), [np.array([0, 1, 1]), np.array([0.1, 0.2, 0.3])]),
    (("i",), [np.arange(4)]),
    (("x", "y"), [np.array([-0.0, 0.0]), np.array([np.nan, -np.inf])]),
])
def test_write_csv_gives_the_bytes_of_savetxt(tmp_path, header, columns):
    cli._write_csv(tmp_path / "rows.csv", header, columns)
    np.savetxt(tmp_path / "ref.csv", np.column_stack(columns), fmt="%.17g",
               delimiter=",", header=",".join(header), comments="")
    assert ((tmp_path / "rows.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


def test_write_csv_gives_the_bytes_of_savetxt_on_a_flow(tmp_path):
    p = make_profile(3.0)
    f = solve(p, power_bump(-1.0, 1.0, 3.0),
              make_grid(p, eps=1e-3, T=1.0, nt=16, ny=16))
    cli.save_flow_csv(f, tmp_path / "flow.csv")
    np.savetxt(tmp_path / "ref.csv", np.column_stack([f.grid.t, f.gamma]),
               fmt="%.17g", delimiter=",", comments="",
               header=",".join(["t", *(f"{v:.17g}" for v in f.grid.y)]))
    assert ((tmp_path / "flow.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_eps_writes_summary_and_cauchy(tmp_path):
    out = tmp_path / "sw"
    assert run_cli("sweep", "--axis", "eps", "--values", "1e-2,1e-3",
                   "--outdir", out, *FAST) == 0
    with open(out / "sweep.csv") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh]
    assert header[:2] == ["eps", "status"]
    assert [r[1] for r in rows] == ["ok", "ok"]
    assert (out / "eps=0.01" / "rates.json").is_file()

    cauchy = np.loadtxt(out / "cauchy_d1.csv", delimiter=",", skiprows=1)
    assert cauchy.shape == (3, 4)
    assert np.all(cauchy[:, 3] > 0.0)


@pytest.fixture(scope="module")
def theta_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("theta-sweep") / "sw"
    assert run_cli("sweep", "--axis", "theta", "--values", "1,3",
                   "--outdir", out, *FAST) == 0
    return out


def test_sweep_theta_tracks_support_exponent(theta_sweep):
    out = theta_sweep
    with open(out / "sweep.csv") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh]
    col = header.index("support_radius")
    for row, theta in zip(rows, (1.0, 3.0)):
        fitted = float(row[col])
        expected = 2.0 / (2.0 + theta)
        assert abs(fitted - expected) <= 0.1 * expected
    # no Cauchy table on a theta sweep
    assert not (out / "cauchy_d1.csv").exists()


def test_sweep_csv_matches_rates_json_law_for_law(theta_sweep):
    # each row holds exactly the fitted exponents of its run's rates.json,
    # so a law that `rate_report` adds cannot drop out of the summary
    with open(theta_sweep / "sweep.csv") as fh:
        laws = fh.readline().strip().split(",")[2:]
        rows = [line.strip().split(",") for line in fh]
    assert len(rows) == 2
    for row, run in zip(rows, ("theta=1", "theta=3")):
        report = json.loads((theta_sweep / run / "rates.json").read_text())
        fitted = {r["law"]: r["fitted_exponent"] for r in report["laws"]
                  if r["fitted_exponent"] is not None}
        assert fitted and set(fitted) <= set(laws), run
        assert row[2:] == [f"{fitted.get(law, float('nan')):.17g}"
                           for law in laws], run


def test_sweep_rejects_bad_values(tmp_path, capsys, monkeypatch):
    forbid_solve(monkeypatch)
    out = tmp_path / "sw"
    for axis, values in (("eps", ""), ("eps", "1e-2,zzz"),
                         ("eps", "1e-3,-1"), ("theta", "nan")):
        assert run_cli("sweep", "--axis", axis, "--values", values,
                       "--outdir", out) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()


def test_sweep_records_per_run_failures(tmp_path):
    out = tmp_path / "sw"
    # second value diverges under the starved iteration budget? no:
    # force failure by an eps too large for the horizon ordering instead
    assert run_cli("sweep", "--axis", "eps", "--values", "1e-2,1e-3",
                   "--outdir", out, *FAST, "--max-iter", "1",
                   "--tol", "1e-16") == 2
    with open(out / "sweep.csv") as fh:
        fh.readline()
        statuses = [line.split(",")[1] for line in fh]
    assert statuses == ["failed", "failed"]


@pytest.mark.parametrize("axis, values, name", [
    ("theta", "1,1.0000001", "theta=1"),
    ("eps", "1e-3,0.001", "eps=0.001"),
])
def test_sweep_rejects_values_sharing_a_directory(tmp_path, capsys, axis,
                                                  values, name):
    out = tmp_path / "sw"
    assert run_cli("sweep", "--axis", axis, "--values", values,
                   "--outdir", out, *FAST) == 1
    err = capsys.readouterr().err
    a, b = values.split(",")
    assert f"{a} -> {name}, {b} -> {name}" in err
    assert not out.exists()


def test_sweep_records_strict_compatibility_failure(tmp_path):
    # (1 - x^2)_+ vanishes like dist^1: compatible at theta = 1, far out of
    # the envelope bound at theta = 0.25
    table = tmp_path / "T.csv"
    x = np.linspace(-1.0, 1.0, 101)
    table.write_text("x,density\n" + "".join(
        f"{a:.17g},{max(1.0 - a * a, 0.0):.17g}\n" for a in x))
    out = tmp_path / "sw"
    assert run_cli("sweep", "--axis", "theta", "--values", "1,0.25",
                   "--strict", "--target", "file", "--target-path", table,
                   "--outdir", out, *FAST) == 2
    with open(out / "sweep.csv") as fh:
        fh.readline()
        statuses = [line.split(",")[1] for line in fh]
    assert statuses == ["ok", "failed"]
    assert (out / "theta=1" / "rates.json").is_file()


def test_sweep_runs_in_order_on_the_calling_thread(tmp_path, monkeypatch):
    calls = []

    def pipeline(cfg):
        calls.append((cfg.eps, threading.get_ident()))
        raise errors.NewtonDivergenceError("not solved")

    monkeypatch.setattr(cli, "_run_pipeline", pipeline)
    assert run_cli("sweep", "--axis", "eps", "--values", "1e-2,1e-4,1e-3",
                   "--outdir", tmp_path / "sw", *FAST) == 2
    me = threading.get_ident()
    assert calls == [(1e-2, me), (1e-4, me), (1e-3, me)]


# ---------------------------------------------------------------------------
# threads
# ---------------------------------------------------------------------------

_BLAS_GET_THREADS = ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads")


def openblas_threads(set_to=None):
    """The thread count of each loaded OpenBLAS, after setting it to
    ``set_to`` when given."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh}
    except OSError:
        return []
    counts = []
    for path in sorted(paths):
        name = os.path.basename(path).lower()
        if not (path.startswith("/") and name.startswith("lib")
                and "blas" in name):
            continue
        lib = ctypes.CDLL(path)
        for get, put in zip(_BLAS_GET_THREADS, cli._BLAS_SET_THREADS):
            if hasattr(lib, get):
                if set_to is not None:
                    getattr(lib, put)(ctypes.c_int(set_to))
                counts.append(getattr(lib, get)())
                break
    return counts


def test_cli_runs_blas_on_one_thread(tmp_path):
    if not openblas_threads():
        pytest.skip("no OpenBLAS with a thread count is loaded")
    openblas_threads(set_to=2)
    cli._one_blas_thread.cache_clear()      # as in a fresh process
    try:
        assert run_cli("solve", "--outdir", tmp_path / "run", *FAST) == 0
        assert set(openblas_threads()) == {1}
    finally:
        openblas_threads(set_to=1)          # the session's setting


# ---------------------------------------------------------------------------
# series read-back in rates and export
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def supercritical_run(tmp_path_factory):
    # theta = 3: rates fits the exponential laws, so it reads the series
    out = tmp_path_factory.mktemp("cli3") / "run"
    assert cli.main(["solve", "--outdir", str(out), "--theta", "3",
                     *FAST]) == 0
    return out


def rates_and_export(rundir, capsys):
    """stdout of `rates`, and the export tree, of a copy of ``rundir``;
    neither command writes to stderr."""
    capsys.readouterr()
    assert run_cli("rates", rundir) == 0
    rates = capsys.readouterr()
    assert run_cli("export", rundir) == 0
    assert rates.err == capsys.readouterr().err == ""
    return rates.out, read_tree(rundir / "export")


def copy_run(src, dst):
    dst.mkdir()
    for name in ("config.json", "flow.csv", "series.csv"):
        (dst / name).write_bytes((src / name).read_bytes())
    return dst


def count_series_builds(monkeypatch):
    from dirac_mfp import rescale
    calls = []
    build = rescale.build_series

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(rescale, "build_series", counted)
    return calls


def test_rates_and_export_reuse_series_csv(supercritical_run, tmp_path,
                                           capsys, monkeypatch):
    calls = count_series_builds(monkeypatch)
    kept = copy_run(supercritical_run, tmp_path / "kept")
    reused = rates_and_export(kept, capsys)
    assert calls == []
    rebuilt_dir = copy_run(supercritical_run, tmp_path / "rebuilt")
    (rebuilt_dir / "series.csv").unlink()
    rebuilt = rates_and_export(rebuilt_dir, capsys)
    assert len(calls) == 2
    assert reused == rebuilt
    assert "lyapunov" in reused[0]


def drop_last_row(text):
    return "".join(text.splitlines(keepends=True)[:-1])


def header_only(text):
    return text.split("\n", 1)[0] + "\n"


def foreign_header(text):
    head, rest = text.split("\n", 1)
    return head.replace("duality_pairing", "duality") + "\n" + rest


def tau_one_ulp_up(text):
    head, first, rest = text.split("\n", 2)
    cells = first.split(",")
    cells[0] = f"{np.nextafter(float(cells[0]), np.inf):.17g}"
    return "\n".join([head, ",".join(cells), rest])


@pytest.mark.parametrize("corrupt", [foreign_header, drop_last_row,
                                     tau_one_ulp_up, header_only])
def test_mismatched_series_csv_is_rebuilt(supercritical_run, tmp_path,
                                          capsys, monkeypatch, corrupt):
    expected = rates_and_export(copy_run(supercritical_run, tmp_path / "ok"),
                                capsys)
    calls = count_series_builds(monkeypatch)
    bad = copy_run(supercritical_run, tmp_path / "bad")
    text = (bad / "series.csv").read_text()
    (bad / "series.csv").write_text(corrupt(text))
    assert (bad / "series.csv").read_text() != text
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rates_and_export(bad, capsys) == expected
    assert len(calls) == 2


def test_rates_write_reproduces_solve(supercritical_run, tmp_path, capsys):
    run = copy_run(supercritical_run, tmp_path / "run")
    assert run_cli("rates", run, "--write") == 0
    assert (run / "rates.json").read_bytes() \
        == (supercritical_run / "rates.json").read_bytes()
    (run / "series.csv").unlink()
    assert run_cli("rates", run, "--write") == 0
    assert (run / "rates.json").read_bytes() \
        == (supercritical_run / "rates.json").read_bytes()
    capsys.readouterr()


def test_each_command_takes_its_snapshots_in_one_call(tmp_path, capsys,
                                                     monkeypatch):
    # solve: one stacked snapshot for the slices and one for the series;
    # export: one for its overlays (the series is the run's series.csv);
    # rates: none
    calls = []
    take = fields.snapshot

    def counted(*args, **kwargs):
        calls.append(1)
        return take(*args, **kwargs)

    monkeypatch.setattr(fields, "snapshot", counted)
    monkeypatch.setattr(rescale, "snapshot", counted)
    run = tmp_path / "run"
    for argv, expected in ((["solve", "--outdir", run, "--theta", "3", *FAST],
                            2), (["export", run], 1), (["rates", run], 0)):
        calls.clear()
        assert run_cli(*argv) == 0
        assert len(calls) == expected, argv[0]
    capsys.readouterr()


# ---------------------------------------------------------------------------
# derived fields of the flow
# ---------------------------------------------------------------------------

DERIVATIONS = ("gamma_y", "gamma_t", "value_on_support")


def count_derivations(monkeypatch):
    """Calls of the label slopes, gamma_t, the value and the boundary
    curvature of any flow, by name."""
    from dirac_mfp import fields
    from dirac_mfp.solver import FlowField
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("gamma_y", "gamma_t"):
        prop = FlowField.__dict__[name]
        monkeypatch.setattr(prop, "func", counted(name, prop.func))
    for name in ("value_on_support", "boundary_curvature"):
        monkeypatch.setattr(fields, name, counted(name, getattr(fields, name)))
    return calls


def test_each_command_derives_each_field_once(tmp_path, capsys, monkeypatch):
    # theta = 3: rates fits the exponential laws, so every consumer runs
    calls = count_derivations(monkeypatch)
    run = tmp_path / "run"
    for argv in (["solve", "--outdir", run, "--theta", "3", *FAST],
                 ["export", run], ["rates", run]):
        calls.clear()
        assert run_cli(*argv) == 0
        once = {name: 1 for name in DERIVATIONS}
        if argv[0] == "solve":
            once["boundary_curvature"] = 1
        assert calls == once, argv[0]
    capsys.readouterr()
