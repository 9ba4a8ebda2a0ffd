"""Tests of the benchmark's own checkers.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import oracles  # noqa: E402
import run as bench  # noqa: E402


def rng(seed=0):
    return np.random.default_rng(seed)


# -- witness verdicts ---------------------------------------------------------

HS, LINF = "halfspace:l=2", "linf:l=2,r=1/2"


def test_correct_witness_passes():
    x, params = [0.0, 0.0], [1.0, 1.0, 0.5]       # margin 1.0 - 0.5 > 0
    witness = (9.0, 9.0, 0.5, 0.5)                  # y = the last l entries
    assert oracles.check_witness_result(HS, LINF, x, params, True, witness,
                                        0.0, rng()) == []


def test_flipped_verdicts_are_failures():
    x = [0.0, 0.0]
    reachable, unreachable = [1.0, 1.0, 0.5], [1.0, 1.0, 3.0]
    assert oracles.check_witness_result(HS, LINF, x, reachable, False, None,
                                        None, rng())
    assert oracles.check_witness_result(HS, LINF, x, unreachable, True,
                                        (0.5, 0.5), 0.0, rng())


def test_inconclusive_is_not_a_failure():
    assert oracles.check_witness_result(HS, LINF, [0.0, 0.0], [1.0, 1.0, 0.5],
                                        False, None, 0.3, rng()) == []


def test_witness_outside_neighborhood_fails():
    fails = oracles.check_witness_result(HS, LINF, [0.0, 0.0],
                                         [1.0, 1.0, 0.5], True, (2.0, 2.0),
                                         0.0, rng())
    assert any("neighborhood" in f for f in fails)


def test_exact_no_refuted_by_sampling():
    # splits x0 - 0.1 at the root and x1 at both children: x lands in
    # leaf 0 (label 0), while y = (0, 0.05) in its linf ball reaches leaf 1
    # (label 1); trees have no closed form, so only sampling can refute
    tree = "tree:l=2,depth=2,q=1,labels=0110"
    params = [-0.1, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0]
    x = [0.0, -0.2]
    assert oracles.hypothesis_margin(tree, params, [x])[0] < 0
    fails = oracles.check_witness_result(tree, "linf:l=2,r=1/4", x, params,
                                         False, None, None, rng())
    assert any("exact no" in f for f in fails)


# -- oracles agree with the package on random inputs --------------------------


@pytest.mark.parametrize("fam,neigh", gen.WITNESS_PAIRS)
def test_oracles_match_package_semantics(fam, neigh):
    from stratdef import families
    f = families.make_family(fam)
    n = families.make_neighborhood(neigh)
    r = rng(1)
    l, k = gen.family_shape(fam)
    assert (l, k) == (f.input_dim, f.param_dim)
    simplex = gen.spec_kwargs(neigh)[0] in ("kl", "emd")
    for _ in range(40):
        params = r.uniform(-2, 2, size=k).tolist()
        y = r.uniform(-1, 1, size=l)
        margin = oracles.hypothesis_margin(fam, params, [y])[0]
        if abs(margin) > 1e-9:
            assert bool(f.evaluate(params, y.tolist())) == (margin >= 0)
        if neigh.startswith("emd"):
            continue    # float masses; test_line_emd_matches_transport_lp
        x = r.dirichlet(np.ones(l)) if simplex else r.uniform(-1, 1, size=l)
        for z in oracles.sample_neighbors(neigh, x, r, n=8)[-4:]:
            assert n.contains(x.tolist(), z.tolist())


def test_line_emd_matches_transport_lp():
    from stratdef import families
    r = rng(2)
    ground = families.footnote_metric()
    for _ in range(10):
        x = r.dirichlet(np.ones(3))
        y = r.dirichlet(np.ones(3))
        xq = [round(v, 4) for v in x[:2]]
        yq = [round(v, 4) for v in y[:2]]
        xq.append(round(1 - sum(xq), 4))
        yq.append(round(1 - sum(yq), 4))
        xf = [Fraction(str(v)) for v in xq]
        yf = [Fraction(str(v)) for v in yq]
        exact = float(families.emd_value(xf, yf, ground))
        assert abs(oracles.line_emd(xq, np.asarray([yq]))[0] - exact) < 1e-9


# -- CLI artifact checks ------------------------------------------------------


def fm_artifact(variables, rows):
    return {"result": {"variables": variables, "trivially_infeasible": False,
                       "constraints": [{"coeffs": [str(c) for c in co],
                                        "rel": "<=", "rhs": str(b)}
                                       for co, b in rows]}}


SYSTEM = {"variables": ["v0", "u"],
          "constraints": [{"coeffs": ["1", "0"], "rel": "<=", "rhs": "1"},
                          {"coeffs": ["-1", "0"], "rel": "<=", "rhs": "1"},
                          {"coeffs": ["-1", "1"], "rel": "<=", "rhs": "0"}]}


def test_fm_check_accepts_the_projection():
    fails, n_in, n_out = oracles.check_fm(
        SYSTEM, fm_artifact(["u"], [([1], 1)]), ["v0"], rng())
    assert fails == [] and n_in and n_out


@pytest.mark.parametrize("rhs", ["1/2", "7/5"])
def test_fm_check_rejects_wrong_projections(rhs):
    fails, _, _ = oracles.check_fm(
        SYSTEM, fm_artifact(["u"], [([1], rhs)]), ["v0"], rng(), n_points=200)
    assert fails


def test_certificate_failure_detected():
    art = {"result": {"passed": True, "certificates": [
        {"name": "a", "passed": True}, {"name": "b", "passed": False}]}}
    assert oracles.check_certificates(art)


def test_transform_bookkeeping_detected():
    art = {"result": {"formula": "(exists (w0) (= w0 (exp x0)))", "report": {
        "hypothesis": {"witnesses": 1, "format": 3, "degree": 2},
        "neighborhood": {"witnesses": 0, "format": 4, "degree": 2},
        "transformed": {"witnesses": 3, "format": 5, "degree": 4}}}}
    text = "(= w0 (exp x0))"
    assert oracles.check_transform(art, text, 0, 2) == []
    art["result"]["report"]["transformed"]["witnesses"] = 4
    assert oracles.check_transform(art, text, 0, 2)


def test_growth_and_learn_checks():
    rows = [{"m": "8", "distinct_traces": "20"},
            {"m": "16", "distinct_traces": "19"}]
    assert oracles.check_growth(rows, [8, 16])               # decreasing
    rows = [{"m": "8", "distinct_traces": "94"}]
    assert oracles.check_growth(rows, [8], vc_dim=3)         # > Sauer 93
    assert oracles.check_growth(rows[:1], [8]) == []
    assert oracles.check_learn([{"eps": "0.2", "success_rate": "0.85"}],
                               [0.2], 0.1)
    assert oracles.check_learn([{"eps": "0.2", "success_rate": "0.9"}],
                               [0.2], 0.1) == []


def test_percentile_nearest_rank():
    vals = list(range(1, 101))
    assert bench.percentile(vals, 50) == 50
    assert bench.percentile(vals, 90) == 90
    assert bench.percentile([3.0], 90) == 3.0


# -- the command line contract ------------------------------------------------


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_match_benchmark_json(trace):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(bench.WORKLOADS)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "witness-mix", "--seed", "3", "--seconds", "1",
                           "--trace", str(trace)], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    specs = doc["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in specs}
    assert out["correct"] and out["failed"] == 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "witness-mix", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
