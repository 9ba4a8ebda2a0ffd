"""Tests for the command-line interface: exit codes, artifact structure,
and byte-identical replay."""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import stat
import subprocess
import sys
from fractions import Fraction

import pytest
from helpers import ref_unit_cells_shatter_a_pair

import stratdef
from stratdef import __version__, families, transform
from stratdef import formula as fm
from stratdef.cli import main


def run(argv):
    return main([str(a) for a in argv])


def _read_artifact(path):
    doc = json.loads(path.read_text())
    assert set(doc) == {"version", "config", "result"}
    assert doc["version"] == __version__
    return doc


# ---------------------------------------------------------------------------
# Dispatcher and exit codes


def test_no_subcommand_is_usage_error(capsys):
    assert run([]) == 2


def test_unknown_spec_is_usage_error(tmp_path, capsys):
    rc = run(["transform", "--hypothesis", "no-such-family:l=2",
              "--neighborhood", "identity:l=2",
              "--out", tmp_path / "a.json"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    rc = run(["growth", "--family", "halfspace:l=2",
              "--neighborhood", "lp:l=2,radius=1/2",
              "--csv", tmp_path / "g.csv"])
    assert rc == 2
    assert "radius" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["growth", "--family", "threshold:l=1", "--m", "8,x"],
    ["growth", "--family", "threshold:l=1", "--m", "-3"],
    ["growth", "--family", "threshold:l=1", "--trials", "0"],
    ["learn", "--family", "threshold:l=1", "--eps", "0"],
    ["learn", "--family", "threshold:l=1", "--eps", "nan"],
    ["learn", "--family", "threshold:l=1", "--trials", "0"],
    # numpy rejects a negative seed; the held-out sample would pass M_CAP
    ["--seed", "-1", "growth", "--family", "halfspace:l=2", "--m", "8"],
    ["learn", "--family", "threshold", "--eps", "1e-300", "--trials", "1",
     "--budget", "5"],
    ["verify-blowup", "--construction", "fixed", "--r", "abc"],
    ["verify-blowup", "--construction", "all-radii", "--s", "3/10", "--n",
     "2", "--cert-cap", "-1"],
    # sizes above the caps: a blowup builds 2^n supports
    ["verify-blowup", "--construction", "fixed", "--n", "17"],
    ["verify-blowup", "--construction", "all-radii", "--s", "3/10", "--n",
     "2", "--cert-cap", "17"],
    ["verify-blowup", "--construction", "all-radii", "--s", "3/10", "--n",
     "2", "--t", "16385"],
    # above M_CAP points or draws: a trial's label matrix passes 256 MiB
    ["growth", "--family", "halfspace:l=2", "--m", "8",
     "--param-draws", "1000000000"],
    ["growth", "--family", "halfspace:l=2", "--m", "8,1000000000"],
])
def test_hostile_arguments_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "out"
    rc = run(argv + (["--out", out] if argv[0] == "verify-blowup"
                     else ["--csv", out]))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("family,neigh", [
    ("threshold", "gauss_kl:r=-1"),
    ("halfspace:l=2", "lp:l=2,p=2,r=1e400"),
    ("halfspace:l=2", "linf:l=2,r=1e400"),
    ("threshold", "gauss_kl:r=1e400"),
    ("threshold", "gauss_kl:r=1e308"),
    ("threshold", "interval:r=1e400"),
    ("tree:l=2,depth=2,q=-1", "identity:l=2"),
    ("tree:l=2,depth=1000", "identity:l=2"),
    ("halfspace:l=2", "lp:l=2,p=1e400,r=1"),
    ("halfspace:l=2", "lp:l=2,p=1e-400,r=1"),
    # dimensions above MAX_PARAM_DIM: rejected before any atom or draw
    ("halfspace:l=99999999999", "identity:l=2"),
    ("halfspace:l=5000", "identity:l=5000"),
    ("ptf:l=99999999999,D=0", "identity:l=2"),
    ("tree:l=2,depth=99999999999", "identity:l=2"),
    ("halfspace:l=2", "lp_var:l=99999999999,coord=1"),
    ("halfspace:l=2", "kl:l=99999999999"),
])
def test_hostile_specs_are_usage_errors(tmp_path, capsys, family, neigh):
    csv = tmp_path / "g.csv"
    assert run(["growth", "--family", family, "--neighborhood", neigh,
                "--m", 4, "--csv", csv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not csv.exists()


@pytest.mark.parametrize("neigh", ["identity:l=0", "lp:l=0", "linf:l=0",
                                   "l1:l=0", "kl:l=0", "lp:l=-1",
                                   "lp_var:l=0,coord=0",
                                   # or more than MAX_PARAM_DIM of them
                                   "identity:l=99999999999",
                                   "lp:l=99999999999", "linf:l=99999999999",
                                   "l1:l=99999999999",
                                   "lp_var:l=99999999999",
                                   "kl:l=99999999999", "identity:l=5001"])
def test_neighborhoods_without_coordinates_are_usage_errors(tmp_path, capsys,
                                                            neigh):
    out = tmp_path / "t.json"
    assert run(["transform", "--hypothesis", "threshold",
                "--neighborhood", neigh, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("hypothesis, neighborhood, extra", [
    ("halfspace:l=2", "lp:l=2,p=2,r=1/2", ["--input-dim", 10 ** 9]),
    ("halfspace:l=2", "lp:l=2,p=2,r=1/2", ["--input-dim", 5001]),
    # the dimension inferred from the neighborhood's largest x index
    ("threshold", "n.sexp", []),
], ids=["input-dim-1e9", "input-dim-5001", "file-x99999999999"])
def test_transform_huge_dimension_is_usage_error(tmp_path, monkeypatch,
                                                 capsys, hypothesis,
                                                 neighborhood, extra):
    # rejected before the witness block of l target coordinates is built
    monkeypatch.chdir(tmp_path)
    (tmp_path / "n.sexp").write_text("(<= x99999999999 1)")
    out = tmp_path / "t.json"
    assert run(["transform", "--hypothesis", hypothesis,
                "--neighborhood", neighborhood, *extra, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_missing_input_file_is_usage_error(tmp_path, capsys):
    rc = run(["fm-elim", "--in", tmp_path / "absent.json", "--drop", "x",
              "--out", tmp_path / "o.json"])
    assert rc == 2


@pytest.mark.parametrize("hypothesis, neighborhood, message", [
    ("threshold", "floor", "has no formula"),
    ("threshold", "interval:r=1/2", None),
    ("halfspace:l=2,q=1", "identity:l=2", "unknown key(s) q"),
], ids=["formula-less-neighborhood", "spec-beside-directory", "unknown-key"])
def test_registry_specs_resolve_before_files(tmp_path, monkeypatch, capsys,
                                             hypothesis, neighborhood,
                                             message):
    # a directory named like a registry spec does not shadow the spec, and
    # a spec's own error is the one reported
    monkeypatch.chdir(tmp_path)
    (tmp_path / "threshold").mkdir()
    rc = run(["transform", "--hypothesis", hypothesis,
              "--neighborhood", neighborhood, "--out", "t.json"])
    err = capsys.readouterr().err
    if message is None:
        assert rc == 0, err
    else:
        assert rc == 2
        assert message in err, err


def test_regular_file_named_like_a_spec_is_read_as_formula(tmp_path,
                                                          monkeypatch):
    # a regular file wins over the registry spec of the same name
    monkeypatch.chdir(tmp_path)
    (tmp_path / "threshold").write_text("(>= x0 (* 2 a0))")
    assert run(["transform", "--hypothesis", "threshold",
                "--neighborhood", "interval:r=1/2", "--out", "t.json"]) == 0
    got = fm.parse(_read_artifact(tmp_path / "t.json")["result"]["formula"])
    want = transform.strategic_transform(
        fm.parse("(>= x0 (* 2 a0))"),
        families.make_neighborhood("interval:r=1/2").formula())
    assert got == want.transformed
    assert got != transform.strategic_transform(
        families.make_family("threshold").formula(),
        families.make_neighborhood("interval:r=1/2").formula()).transformed


def test_spec_too_long_for_a_file_name_is_usage_error(tmp_path, capsys):
    # the file lookup must not raise "File name too long" before the
    # registry has been consulted
    assert run(["transform", "--hypothesis", "x" * 300,
                "--neighborhood", "identity:l=1",
                "--out", tmp_path / "t.json"]) == 2
    assert "neither a readable file" in capsys.readouterr().err


def test_malformed_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = run(["fm-elim", "--in", bad, "--drop", "x",
              "--out", tmp_path / "o.json"])
    assert rc == 2


_ROW = {"coeffs": ["1"], "rel": "<=", "rhs": "1"}


@pytest.mark.parametrize("command, content, message", [
    ("transform", None, None),
    ("shatter", None, None),
    ("transform", b"(<= x0 \xff)", None),
    ("fm-elim", b"{not json", "input' is not JSON: Expecting property"),
    ("shatter", b"not json", "input' is not JSON: Expecting value"),
    ("fm-elim", json.dumps([_ROW]).encode(), "must be a JSON object"),
    ("fm-elim", json.dumps({"variables": ["x"], "constraints": [
        dict(_ROW, rhs="abc")]}).encode(), None),
    ("fm-elim", json.dumps({"variables": ["x"], "constraints": [
        dict(_ROW, rel="<>")]}).encode(), "unknown relation '<>'"),
    ("fm-elim", json.dumps({"variables": ["x", "x"], "constraints": [
        dict(_ROW, coeffs=["1", "1"])]}).encode(), None),
    ("fm-elim", json.dumps({"variables": "xy", "constraints": [
        dict(_ROW, coeffs=["1", "1"])]}).encode(), None),
    ("fm-elim", json.dumps({"variables": ["x"], "constraints": [
        dict(_ROW, coeffs=[True])]}).encode(), None),
    ("fm-elim", json.dumps({"variables": ["x"], "constraints": [
        dict(_ROW, rhs=True)]}).encode(), None),
    ("fm-elim", json.dumps({"variables": ["x"], "constraints": [
        dict(_ROW, rhs=float("inf"))]}).encode(), None),
    ("fm-elim", json.dumps({"variables": ["x", "y"], "constraints": [
        dict(_ROW, coeffs="12")]}).encode(), None),
    ("fm-elim-drop-twice", json.dumps({"variables": ["x"], "constraints": [
        _ROW]}).encode(), None),
    ("fm-elim", json.dumps({"variables": ["y"], "constraints": [
        _ROW]}).encode(), None),
    ("fm-elim", json.dumps({"constraints": [_ROW]}).encode(),
     "the file has no 'variables'"),
    ("fm-elim", json.dumps({"variables": ["x"]}).encode(),
     "the file has no 'constraints'"),
    ("fm-elim", json.dumps({"variables": ["x"], "constraints": [
        _ROW, {"coeffs": ["1"], "rel": "<="}]}).encode(),
     "constraint 1 has no 'rhs'"),
    ("fm-elim", json.dumps({"variables": ["x"], "constraints": [
        {"rel": "<=", "rhs": "1"}]}).encode(),
     "constraint 0 has no 'coeffs'"),
    ("fm-elim", json.dumps({"variables": ["x"], "constraints": [
        _ROW, "x <= 1"]}).encode(), "constraint 1 must be a JSON object"),
    ("fm-elim", json.dumps({"variables": ["x"], "constraints": [
        _ROW, dict(_ROW, coeffs=["1", "2"])]}).encode(),
     "row 1 has 2 coefficients for 1 variables"),
], ids=["transform-directory", "shatter-directory", "formula-not-utf8",
        "fm-elim-not-json", "shatter-not-json", "fm-elim-list", "fm-elim-bad-rhs", "fm-elim-bad-rel",
        "fm-elim-repeated-variable", "fm-elim-variables-string",
        "fm-elim-bool-coeff", "fm-elim-bool-rhs", "fm-elim-infinite-rhs",
        "fm-elim-coeffs-string", "fm-elim-drop-twice",
        "fm-elim-drop-unknown", "fm-elim-no-variables",
        "fm-elim-no-constraints", "fm-elim-no-rhs", "fm-elim-no-coeffs",
        "fm-elim-constraint-string", "fm-elim-long-row"])
def test_hostile_input_files_are_usage_errors(tmp_path, capsys, command,
                                              content, message):
    # content None: the input path names a directory; a message, when
    # given, is part of the error line
    src = tmp_path / "input"
    if content is None:
        src.mkdir()
    else:
        src.write_bytes(content)
    out = tmp_path / "o.json"
    argv = {"transform": ["transform", "--hypothesis", src,
                          "--neighborhood", "identity:l=1", "--out", out],
            "shatter": ["shatter", "--instance", src],
            "fm-elim": ["fm-elim", "--in", src, "--drop", "x",
                        "--out", out],
            "fm-elim-drop-twice": ["fm-elim", "--in", src, "--drop", "x,x",
                                   "--out", out]}[command]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message is None or message in err, err
    assert not out.exists()


def test_construction_error_is_verification_failure(tmp_path, capsys):
    rc = run(["verify-blowup", "--construction", "fixed", "--n", 2,
              "--r", "1/2", "--rp", "1", "--out", tmp_path / "c.json"])
    assert rc == 1
    assert "verification failure:" in capsys.readouterr().err


def test_every_error_class_has_one_exit_code():
    # the CLI's exit code is the error's base class: UsageError exits 2,
    # VerificationFailure 1, so each error class derives from exactly one
    bases = (stratdef.UsageError, stratdef.VerificationFailure)
    errors = []
    for info in pkgutil.iter_modules(stratdef.__path__):
        module = importlib.import_module(f"stratdef.{info.name}")
        errors += [obj for obj in vars(module).values()
                   if isinstance(obj, type) and issubclass(obj, Exception)
                   and obj.__module__ == module.__name__]
    assert len(errors) >= 9, errors
    for cls in errors:
        assert sum(issubclass(cls, base) for base in bases) == 1, cls


# ---------------------------------------------------------------------------
# Cold processes: the command as a fresh interpreter runs it, with only the
# modules the command itself imports


def _cold_env():
    src = os.path.dirname(os.path.dirname(stratdef.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _edit_artifact(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _write_files(files):
    def setup(d):
        for name, text in files.items():
            (d / name).write_text(text)
    return setup


# existential but not prenex, which the fragment check reads as general
_NON_PRENEX = "(and (exists (w0) (>= (+ x0 w0) a0)) (exists (w1) (<= w1 x0)))"
_BALL = "(and (<= (+ x0 (* -1 x1)) 1/2) (<= (+ x1 (* -1 x0)) 1/2))"


@pytest.mark.parametrize("setup, argv, code, message", [
    (lambda d: (d / "sys.json").write_text('{"variables": ["x"]}'),
     ["fm-elim", "--in", "sys.json", "--drop", "x", "--out", "o.json"], 2,
     "error: 'sys.json' is not a linear system: the file has no "
     "'constraints'"),
    (None, ["verify-blowup", "--construction", "all-radii", "--out",
            "o.json"], 2, "error: all-radii needs --s"),
    (None, ["transform", "--hypothesis", "threshold", "--neighborhood",
            "nosuch:l=2", "--out", "o.json"], 2,
     "error: 'nosuch:l=2' is neither a readable file"),
    (None, ["verify-blowup", "--construction", "fixed", "--n", 2, "--r",
            "1/2", "--rp", 1, "--out", "o.json"], 1,
     "verification failure: "),
    (lambda d: (run(["verify-blowup", "--construction", "fixed", "--n", 2,
                     "--out", d / "c.json"]),
                _edit_artifact(d / "c.json", lambda doc: doc["result"][
                    "certificates"][0].update(passed=False))),
     ["shatter", "--instance", "c.json"], 1, None),
    (_write_files({"h.sexp": _NON_PRENEX, "n.sexp": _BALL}),
     ["transform", "--hypothesis", "h.sexp", "--neighborhood", "n.sexp",
      "--out", "o.json"], 2,
     "error: hypothesis formula is outside the existential fragment"),
    (None, ["verify-blowup", "--construction", "bogus", "--out", "o.json"],
     2, "error: unknown construction"),
    (_write_files({"sys.json": json.dumps({"variables": ["x"], "constraints": [
        {"coeffs": ["1"], "rel": "<>", "rhs": "1"}]})}),
     ["fm-elim", "--in", "sys.json", "--drop", "x", "--out", "o.json"], 2,
     "error: 'sys.json' is not a linear system: unknown relation '<>'"),
    (lambda d: (run(["verify-blowup", "--construction", "fixed", "--n", 2,
                     "--out", d / "c.json"]),
                _edit_artifact(d / "c.json", lambda doc: doc["config"]
                               .update(construction="bogus"))),
     ["shatter", "--instance", "c.json"], 2, "error: unknown construction"),
], ids=["fm-elim-no-constraints", "all-radii-no-s", "unknown-neighborhood",
        "fixed-bad-radii", "shatter-edited-certificate",
        "transform-non-prenex", "unknown-construction", "fm-elim-bad-rel",
        "shatter-unknown-construction"])
def test_cold_process_sorts_errors(tmp_path, capsys, setup, argv, code,
                                   message):
    # in-process tests run with every module already imported, so they
    # cannot see a handler that names a module the command did not load
    if setup is not None:
        setup(tmp_path)
    proc = subprocess.run([sys.executable, "-m", "stratdef.cli",
                           *map(str, argv)], env=_cold_env(), cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    assert message is None or proc.stderr.startswith(message), proc.stderr


_SYSTEM = json.dumps({"variables": ["x", "y"], "constraints": [
    {"coeffs": ["1", "-1"], "rel": "<=", "rhs": "0"},
    {"coeffs": ["-1", "0"], "rel": "<", "rhs": "-1"}]})
_CONSTRUCTION_ONLY = {"formula", "solve", "transform", "families"}
_KINDS = (("fixed", []), ("all-radii", ["--s", "1/3", "--t", 40]),
          ("partition", []), ("frac", []))


@pytest.mark.parametrize("setup, argv, loads, skips", [
    *((None, ["verify-blowup", "--construction", kind, "--n", 2, *extra,
              "--out", "c.json"], "constructions", _CONSTRUCTION_ONLY)
      for kind, extra in _KINDS),
    (lambda d: run(["verify-blowup", "--construction", "fixed", "--n", 2,
                    "--out", d / "c.json"]),
     ["shatter", "--instance", "c.json"], "constructions",
     _CONSTRUCTION_ONLY),
    (_write_files({"sys.json": _SYSTEM}),
     ["fm-elim", "--in", "sys.json", "--drop", "x", "--out", "o.json"],
     "solve", {"constructions", "transform"}),
    (_write_files({"h.sexp": "(>= x0 a0)", "n.sexp": _BALL}),
     ["transform", "--hypothesis", "h.sexp", "--neighborhood", "n.sexp",
      "--out", "o.json"], "transform", {"constructions", "solve"}),
    # a registry spec reads the formula of families, which loads no solver
    (None, ["transform", "--hypothesis", "halfspace:l=2", "--neighborhood",
            "lp:l=2,p=2,r=1/2", "--out", "o.json"], "families",
     {"constructions", "solve", "capacity", "learn"}),
    (None, ["growth", "--family", "threshold", "--m", 4, "--trials", 1,
            "--param-draws", 10, "--csv", "g.csv"], "capacity",
     {"constructions", "solve", "transform"}),
    (None, ["learn", "--family", "halfspace:l=2", "--neighborhood",
            "lp:l=2,p=2,r=1/2", "--eps", "0.5", "--trials", 1, "--budget",
            10, "--csv", "l.csv"], "learn",
     {"constructions", "solve", "transform"}),
], ids=["fixed", "all-radii", "partition", "frac", "shatter", "fm-elim",
        "transform-files", "transform-registry", "growth", "learn"])
def test_cold_commands_load_only_their_modules(tmp_path, setup, argv, loads,
                                               skips):
    # a command imports the modules it runs, when it runs, and no others;
    # none loads dataclasses
    if setup is not None:
        setup(tmp_path)
    code = ("import sys\n"
            "from stratdef.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print('dataclasses' in sys.modules)\n"
            "print(*(m.partition('.')[2] for m in sys.modules\n"
            "        if m.startswith('stratdef.')))\n")
    proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                          env=_cold_env(), cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *_, dataclasses, modules = proc.stdout.splitlines()
    loaded = set(modules.split())
    assert loads in loaded, loaded
    assert not loaded & skips, sorted(loaded & skips)
    assert dataclasses == "False"


def test_families_reads_solve_names_when_first_read():
    # families binds no name of solve when it loads; reading one of them
    # gives solve's own object, which a tracer can patch under either module
    from stratdef import solve
    for name in ("lp_solve", "eval_qf", "LinConstraint"):
        assert getattr(families, name) is getattr(solve, name)
    with pytest.raises(AttributeError):
        families.witness_search


def test_exact_commands_load_no_numpy(tmp_path):
    code = """
import json, sys
numeric = {"numpy", "scipy"}
import stratdef.constructions, stratdef.families, stratdef.solve
import stratdef.transform
assert not numeric & set(sys.modules), "import"
# every registry formula is built on the exact core
from stratdef import families
for name in families._FAMILIES:
    families.make_family(name).formula()
for name in families._NEIGHBORHOODS.keys() - {"floor"}:
    families.make_neighborhood(name).formula()
from stratdef.cli import main
assert main(["transform", "--hypothesis", "halfspace:l=2", "--neighborhood",
             "lp:l=2,p=2,r=1/2", "--out", "readme.json"]) == 0
assert not numeric & set(sys.modules), sorted(numeric & set(sys.modules))
json.dump({"variables": ["x", "y"], "constraints": [
    {"coeffs": ["1", "-1"], "rel": "<=", "rhs": "0"},
    {"coeffs": ["-1", "0"], "rel": "<", "rhs": "-1"}]}, open("sys.json", "w"))
for name, extra in (("fixed", []), ("all-radii", ["--s", "1/3", "--t", "40"]),
                    ("partition", []), ("frac", [])):
    assert main(["verify-blowup", "--construction", name, "--n", "2",
                 "--out", name + ".json", *extra]) == 0, name
    assert main(["shatter", "--instance", name + ".json"]) == 0, name
assert main(["fm-elim", "--in", "sys.json", "--drop", "x",
             "--out", "fm.json"]) == 0
open("h.sexp", "w").write("(>= x0 a0)")
open("n.sexp", "w").write("(and (<= (+ x0 (* -1 x1)) 1/2) "
                          "(<= (+ x1 (* -1 x0)) 1/2))")
assert main(["transform", "--hypothesis", "h.sexp", "--neighborhood",
             "n.sexp", "--out", "t.json"]) == 0
# failing commands: the error handler sorts the exit code without them
open("bad.json", "w").write("{not json")
assert main(["fm-elim", "--in", "bad.json", "--drop", "x",
             "--out", "fm.json"]) == 2
assert main(["shatter", "--instance", "bad.json"]) == 2
doc = json.load(open("fixed.json"))
doc["config"]["rp"] = "2"
json.dump(doc, open("forged.json", "w"))
assert main(["shatter", "--instance", "forged.json"]) == 1
assert not numeric & set(sys.modules), sorted(numeric & set(sys.modules))
assert main(["growth", "--family", "threshold", "--m", "4", "--trials", "1",
             "--param-draws", "10", "--csv", "g.csv"]) == 0
assert "numpy" in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", code], env=_cold_env(),
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_witness_search_loads_no_scipy(tmp_path):
    code = """
import sys
from stratdef import families, solve, transform
spec = transform.strategic_transform(
    families.make_family("halfspace:l=3").formula(),
    families.make_neighborhood("kl:l=3,r=1/2").formula())
runs, nelder_mead = [], solve._nelder_mead
solve._nelder_mead = lambda read, start: runs.append(start) or \\
    nelder_mead(read, start)
res = solve.witness_search(spec.transformed, [0.125, 0.75, 0.125],
                           [0.75, -1.75, 0.375, 0.875])
assert runs and res.margin is not None, (len(runs), res)
assert "scipy" not in sys.modules, sorted(m for m in sys.modules
                                          if m.startswith("scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", code], env=_cold_env(),
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# transform


def test_transform_artifact_and_replay(tmp_path, capsys):
    out = tmp_path / "t.json"
    argv = ["transform", "--hypothesis", "halfspace:l=2",
            "--neighborhood", "lp:l=2,p=2,r=1/2", "--out", out]
    umask = os.umask(0o022)
    try:
        assert run(argv) == 0
    finally:
        os.umask(umask)
    for path in (out, tmp_path / "t.json.meta.json"):
        assert stat.S_IMODE(path.stat().st_mode) == 0o644
    doc = _read_artifact(out)
    assert doc["config"]["command"] == "transform"
    rep = doc["result"]["report"]
    assert rep["transformed"]["format"] <= 2 * max(
        rep["hypothesis"]["format"], rep["neighborhood"]["format"])
    first = out.read_bytes()
    assert run(argv) == 0
    assert out.read_bytes() == first
    assert (tmp_path / "t.json.meta.json").exists()
    assert "transform:" in capsys.readouterr().out


def test_transform_reads_formula_files(tmp_path):
    h = tmp_path / "h.formula"
    h.write_text("(>= (+ (* a0 x0) (* a1 x1) a2) 0)")
    out = tmp_path / "t.json"
    rc = run(["transform", "--hypothesis", h,
              "--neighborhood", "identity:l=2", "--out", out])
    assert rc == 0
    doc = _read_artifact(out)
    spec = transform.strategic_transform(fm.parse(h.read_text()),
                                         families.identity(2).formula())
    assert fm.parse(doc["result"]["formula"]) == spec.transformed


# ---------------------------------------------------------------------------
# fm-elim


def test_fm_elim_projects_and_reports(tmp_path, capsys):
    system = {
        "variables": ["x", "y"],
        "constraints": [
            {"coeffs": ["1", "1"], "rel": "<=", "rhs": "4"},
            {"coeffs": ["1", "-1"], "rel": "<=", "rhs": "0"},
            {"coeffs": ["-1", "0"], "rel": "<=", "rhs": "0"},
        ],
    }
    infile = tmp_path / "sys.json"
    infile.write_text(json.dumps(system))
    out = tmp_path / "proj.json"
    assert run(["fm-elim", "--in", infile, "--drop", "y",
                "--out", out]) == 0
    doc = _read_artifact(out)
    assert doc["result"]["variables"] == ["x"]
    assert doc["result"]["trivially_infeasible"] is False
    first = out.read_bytes()
    assert run(["fm-elim", "--in", infile, "--drop", "y",
                "--out", out]) == 0
    assert out.read_bytes() == first


def test_fm_elim_sidecar_counts_each_step(tmp_path):
    # x = y is substituted away; z, bounded by two rows above and one below,
    # is paired; the counters go to the sidecar, not the artifact
    system = {
        "variables": ["x", "y", "z"],
        "constraints": [
            {"coeffs": ["1", "-1", "0"], "rel": "=", "rhs": "0"},
            {"coeffs": ["1", "0", "1"], "rel": "<=", "rhs": "4"},
            {"coeffs": ["0", "1", "1"], "rel": "<=", "rhs": "3"},
            {"coeffs": ["0", "0", "-1"], "rel": "<=", "rhs": "0"},
        ],
    }
    infile = tmp_path / "sys.json"
    infile.write_text(json.dumps(system))
    out = tmp_path / "proj.json"
    assert run(["fm-elim", "--in", infile, "--drop", "x,z",
                "--out", out]) == 0
    doc = _read_artifact(out)
    assert set(doc["result"]) == {"variables", "constraints",
                                  "trivially_infeasible"}
    meta = json.loads((tmp_path / "proj.json.meta.json").read_text())
    assert set(meta) == {"written_at_unix", "fm_steps"}
    assert meta["fm_steps"] == [
        {"variable": "x", "method": "substituted", "pairs": 0,
         "skipped": 0, "rows": 3},
        {"variable": "z", "method": "paired", "pairs": 2, "skipped": 0,
         "rows": 2},
    ]


# ---------------------------------------------------------------------------
# verify-blowup and shatter


def test_verify_blowup_fixed_and_shatter_roundtrip(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert run(["verify-blowup", "--construction", "fixed", "--n", 2,
                "--out", out]) == 0
    doc = _read_artifact(out)
    assert doc["result"]["passed"] is True
    assert doc["result"]["construction_id"] == "fixed_blowup"
    assert all(c["passed"] for c in doc["result"]["certificates"])
    summary = capsys.readouterr().out
    assert "fixed_blowup: n=2 PASS" in summary

    assert run(["shatter", "--instance", out]) == 0
    assert "matches" in capsys.readouterr().out

    # frac's default radius is valid (0 < r < 1/2)
    assert run(["verify-blowup", "--construction", "frac", "--n", 2,
                "--out", out]) == 0
    assert _read_artifact(out)["config"]["r"] == "1/4"
    assert run(["shatter", "--instance", out]) == 0
    assert "matches" in capsys.readouterr().out


def test_shatter_detects_tampered_verdict(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert run(["verify-blowup", "--construction", "partition", "--n", 2,
                "--out", out]) == 0
    doc = json.loads(out.read_text())
    doc["result"]["passed"] = False
    out.write_text(json.dumps(doc))
    assert run(["shatter", "--instance", out]) == 1
    assert "DIFFERS" in capsys.readouterr().out


@pytest.mark.parametrize("path, value", [
    (("supports", "1", 0), "999"),
    (("certificates", 0, "detail"), "forged"),
])
def test_shatter_detects_forged_result(tmp_path, capsys, path, value):
    # the stored verdict still reads passed; only the evidence is edited
    out = tmp_path / "cert.json"
    assert run(["verify-blowup", "--construction", "fixed", "--n", 2,
                "--out", out]) == 0
    doc = json.loads(out.read_text())
    node = doc["result"]
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["shatter", "--instance", out]) == 1
    assert f"stored {path[0]!r} DIFFERS FROM re-verification" in \
        capsys.readouterr().out


@pytest.mark.parametrize("field, option", [
    ("n", "--n"), ("t", "--t"), ("cert_cap", "--cert-cap")])
def test_shatter_bad_stored_config_is_usage_error(tmp_path, capsys, field,
                                                  option):
    out = tmp_path / "cert.json"
    assert run(["verify-blowup", "--construction", "all-radii", "--s", "1/3",
                "--n", 2, "--t", 40, "--cert-cap", 2, "--out", out]) == 0
    doc = json.loads(out.read_text())
    # int() would truncate 2.7 to 2 and read true as 1: a stored n of 2.7
    # rebuilt at n = 2 would match
    for value in (None, 2.7, True, -1, 10 ** 6):
        doc["config"][field] = value
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["shatter", "--instance", out]) == 2, value
        err = capsys.readouterr().err
        assert err.startswith(f"error: {option} must be ") and \
            err.count("\n") == 1, err


@pytest.mark.parametrize("text", [
    "[]", "3", '"cert"', '{"config": []}', '{"config": "fixed"}'])
def test_shatter_non_object_instance_is_usage_error(tmp_path, capsys, text):
    out = tmp_path / "cert.json"
    out.write_text(text)
    assert run(["shatter", "--instance", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("n", range(1, 7))
def test_partition_cells_certificate_matches_pair_search(tmp_path, n):
    out = tmp_path / "p.json"
    assert run(["verify-blowup", "--construction", "partition", "--n", n,
                "--out", out]) == 0
    res = _read_artifact(out)["result"]
    points = [Fraction(q) for q in res["anchors"]] + \
        [Fraction(q) for pts in res["supports"].values() for q in pts]
    cells, distinct, shattered = ref_unit_cells_shatter_a_pair(points)
    assert not shattered
    cert, = (c for c in res["certificates"]
             if c["name"] == "partition_cells_vc_at_most_one")
    assert cert["passed"] == (not shattered)
    assert cert["detail"] == \
        f"{cells} cells over {distinct} points, no pair shattered"


@pytest.mark.parametrize("n", range(1, 12))
def test_frac_verifies_and_replays_for_every_n(tmp_path, capsys, n):
    # n = 12 runs in CI, as a cold command; MAX_ANCHORS allows 16
    out = tmp_path / "frac.json"
    assert run(["verify-blowup", "--construction", "frac", "--n", n,
                "--out", out]) == 0
    assert f"frac_construction: n={n} PASS" in capsys.readouterr().out
    assert run(["shatter", "--instance", out]) == 0
    assert "matches" in capsys.readouterr().out


def test_verify_blowup_replay_is_byte_identical(tmp_path):
    out = tmp_path / "cert.json"
    argv = ["verify-blowup", "--construction", "frac", "--n", 3,
            "--r", "1/4", "--out", out]
    assert run(argv) == 0
    first = out.read_bytes()
    assert run(argv) == 0
    assert out.read_bytes() == first


# ---------------------------------------------------------------------------
# growth and learn (CSV artifacts)


def _csv_lines(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# version=" + __version__
    assert lines[1].startswith("# config=")
    json.loads(lines[1].removeprefix("# config="))
    return lines


def test_growth_csv_and_replay(tmp_path, capsys):
    csv = tmp_path / "growth.csv"
    argv = ["growth", "--family", "threshold:l=1", "--m", "4,8",
            "--trials", 2, "--param-draws", 200, "--csv", csv]
    assert run(argv) == 0
    lines = _csv_lines(csv)
    assert lines[2] == "m,distinct_traces"
    assert len(lines) == 5
    counts = [int(line.split(",")[1]) for line in lines[3:]]
    assert counts[0] <= counts[1]
    first = csv.read_bytes()
    assert run(argv) == 0
    assert csv.read_bytes() == first


def test_growth_dimension_mismatch_is_usage_error(tmp_path, capsys):
    rc = run(["growth", "--family", "threshold:l=1",
              "--neighborhood", "identity:l=2",
              "--csv", tmp_path / "g.csv"])
    assert rc == 2


def test_learn_csv_and_replay(tmp_path, capsys):
    csv = tmp_path / "learn.csv"
    argv = ["learn", "--family", "threshold:l=1", "--eps", "0.5,0.25",
            "--trials", 3, "--budget", 40, "--csv", csv]
    assert run(argv) == 0
    lines = _csv_lines(csv)
    assert lines[2] == ("eps,m_hat,m_hat_times_eps,success_rate,"
                        "zero_empirical_error_rate")
    assert len(lines) == 5
    first = csv.read_bytes()
    assert run(argv) == 0
    assert csv.read_bytes() == first


# sampled pairs, seed 1: counts and m_hat pinned so that a change to the
# neighbor draws or to the parameter stream shows
@pytest.mark.parametrize("family,neigh,counts", [
    ("ptf:l=2,D=2", "lp:l=2,p=2,r=1/4", [56, 113]),
    ("tree:l=2,depth=2,q=1,labels=0110", "linf:l=2,r=1/4", [49, 100]),
    ("halfspace:l=2", "lp_var:l=2,coord=1", [34, 74]),
    ("threshold", "gauss_kl:r=1/2", [9, 15]),
    ("ptf:l=2,D=2", "lp:l=2,p=2,r=1/3", [56, 110]),
    ("tree:l=2,depth=3,q=2", "lp:l=2,p=2,r=1/4", [72, 138]),
    ("ptf:l=2,D=2", "lp_var:l=2,coord=1", [50, 103]),
    ("ptf:l=1,D=3", "gauss_kl:r=1/2", [17, 28]),
    ("tree:l=2,depth=2,q=1,labels=0110", "linf:l=2,r=1/3", [45, 92]),
])
def test_growth_sampled_counts_pinned(tmp_path, capsys, family, neigh,
                                      counts):
    csv = tmp_path / "growth.csv"
    assert run(["--seed", 1, "growth", "--family", family, "--neighborhood",
                neigh, "--m", "8,16", "--trials", 1, "--param-draws", 200,
                "--csv", csv]) == 0
    assert _csv_lines(csv)[3:] == [f"{m},{c}" for m, c in zip((8, 16), counts)]


def test_learn_sampled_m_hat_pinned(tmp_path, capsys):
    csv = tmp_path / "learn.csv"
    assert run(["--seed", 1, "learn", "--family", "ptf:l=2,D=2",
                "--neighborhood", "lp:l=2,p=2,r=1/4", "--eps", 0.2,
                "--trials", 3, "--budget", 40, "--csv", csv]) == 0
    assert _csv_lines(csv)[3] == "0.2,10,2.0,1.0,1.0"


@pytest.mark.parametrize("family,neigh,row", [
    ("tree:l=2,depth=2,q=1,labels=0110", "identity:l=2", "0.2,9,1.8,1.0,1.0"),
    ("ptf:l=2,D=2", "lp:l=2,p=2,r=1/3", "0.2,10,2.0,1.0,1.0"),
    ("tree:l=2,depth=3,q=2", "lp:l=2,p=2,r=1/4",
     "0.2,12,2.4000000000000004,1.0,1.0"),
])
def test_learn_sampled_rows_pinned(tmp_path, capsys, family, neigh, row):
    csv = tmp_path / "learn.csv"
    assert run(["--seed", 1, "learn", "--family", family, "--neighborhood",
                neigh, "--eps", 0.2, "--trials", 3, "--budget", 40,
                "--csv", csv]) == 0
    assert _csv_lines(csv)[3:] == [row]
