"""stratdef benchmark: three seeded closed-loop workloads with output checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload witness-mix --seed 1 --seconds 20 --trace 0

Workloads (one client, one operation at a time, no threads, BLAS pinned to
one thread):

* witness-mix  -- in-process `solve.witness_search` queries over 11 family x
  neighborhood pairs; set-up builds every pair's strategic transform.
* exact-cli    -- cold `stratdef` processes: verify-blowup for the four
  constructions, shatter on their artifacts, a byte-identical replay,
  transform on two large generated formula files, fm-elim on generated
  linear systems.
* label-sweeps -- cold `growth` and `learn` processes on a closed-form pair
  and on two pairs that take the per-row sampling fallback.

A run repeats the workload's fixed list of operations (a "round") a number
of times fixed by --seconds, so every count repeats exactly for a seed.
With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 the same rounds run in one process, first
untraced and then traced, and the line carries the per-layer metrics.
Everything the run writes goes to .perfbench_out/ at the repository root;
spans of a traced run go to spans.jsonl there.
"""

from __future__ import annotations

import os

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"      # before numpy is imported anywhere

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import gen
import oracles
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
CMD_TIMEOUT_S = 60
# commands not started by this many seconds into a run count as failed, so
# a run ends well inside the three minutes it is allowed
DEADLINE_S = 140
# nominal seconds per round on a 2-core x86 VM; --seconds / nominal gives
# the round count, so the work done depends on the arguments only
NOMINAL_ROUND_S = {"witness-mix": 0.5, "exact-cli": 20.0,
                   "label-sweeps": 16.0}


def n_rounds(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, -(-q * len(s) // 100) - 1))
    return s[int(k)]


class Op:
    """One operation of a round: a query or a CLI command."""

    def __init__(self, group: str, name: str):
        self.group, self.name = group, name
        self.seconds = 0.0
        self.fails = []
        self.out = None


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace = trace
        self.dir = (ROOT / ".perfbench_out"
                    / f"{workload}-s{seed}-t{int(trace)}")
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.ops = []
        self.report = {}
        self.started = time.perf_counter()


# ---------------------------------------------------------------------------
# Set-up time: median of several cold processes


class SetupProbe:
    """Median time of SETUP_REPEATS cold set-up processes.  The samples are
    taken between operations, spread over the run, because the host's speed
    drifts over tens of seconds and back-to-back samples would share one
    slow or fast stretch."""

    def __init__(self, argv, n_ops: int):
        self.argv = argv
        self.at = {k * n_ops // SETUP_REPEATS for k in range(SETUP_REPEATS)}
        self.times = []

    def between(self, op_index: int) -> None:
        if op_index in self.at:
            self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *self.argv], env=cli_env(),
                       check=True, capture_output=True, timeout=CMD_TIMEOUT_S,
                       cwd=ROOT)
        self.times.append(time.perf_counter() - t0)

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.sample()
        return statistics.median(self.times)


def import_profile() -> dict:
    """Cumulative import time of stratdef.cli and of sympy, in ms."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import stratdef.cli"], env=cli_env(), check=True,
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=CMD_TIMEOUT_S)
    cum = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cum[parts[2].strip()] = int(parts[1]) / 1e3
    return {"cli.import_ms": cum.get("stratdef.cli", 0.0),
            "cli.import_sympy_ms": cum.get("sympy", 0.0)}


# ---------------------------------------------------------------------------
# witness-mix


def witness_setup_code() -> str:
    return ("from stratdef import families as F, transform as T\n"
            f"for f, n in {gen.WITNESS_PAIRS!r}:\n"
            "    T.complexity_report(T.strategic_transform("
            "F.make_family(f).formula(), F.make_neighborhood(n).formula()))\n")


def build_specs():
    from stratdef import families, transform
    specs = []
    for fam, neigh in gen.WITNESS_PAIRS:
        spec = transform.strategic_transform(
            families.make_family(fam).formula(),
            families.make_neighborhood(neigh).formula())
        transform.complexity_report(spec)
        specs.append(spec)
    return specs


def witness_rounds(run: Run, specs, rounds, tracer=None,
                   between=None) -> list:
    from stratdef import solve
    first = len(run.ops)
    for r, batch in enumerate(rounds):
        for i, x, params in batch:
            if between is not None:
                between(len(run.ops) - first)
            fam, neigh = gen.WITNESS_PAIRS[i]
            op = Op("query", f"witness {fam} x {neigh} round {r}")
            if tracer is not None:
                tracer.op = len(run.ops)
            t0 = time.perf_counter()
            try:
                res = solve.witness_search(specs[i].transformed, x, params)
                op.seconds = time.perf_counter() - t0
                op.out = (i, x, params, res.found, res.witness, res.margin)
            except Exception:
                op.seconds = time.perf_counter() - t0
                op.fails.append(traceback.format_exc(limit=2))
            run.ops.append(op)
    # checks run after the timed loop
    for k, op in enumerate(run.ops[first:]):
        if op.out is None:
            continue
        i, x, params, found, witness, margin = op.out
        fam, neigh = gen.WITNESS_PAIRS[i]
        rng = np.random.default_rng([run.seed, 0xC4, k])
        op.fails += oracles.check_witness_result(fam, neigh, x, params, found,
                                                 witness, margin, rng)
    return round_seconds(run.ops[first:], [len(b) for b in rounds])


def round_seconds(ops, sizes) -> list:
    """Time of each round: the sum of its operations' times."""
    out, k = [], 0
    for n in sizes:
        out.append(sum(op.seconds for op in ops[k:k + n]))
        k += n
    return out


def witness_report(run: Run, ops) -> dict:
    answered = [op for op in ops if op.out is not None]
    lat = [op.seconds * 1e3 for op in answered]
    per_pair = {" x ".join(p): {"sat": 0, "unsat": 0, "inconclusive": 0}
                for p in gen.WITNESS_PAIRS}
    decided = 0
    for op in answered:
        i, _, _, found, _, margin = op.out
        v = oracles.verdict(found, margin)
        per_pair[" x ".join(gen.WITNESS_PAIRS[i])][v] += 1
        decided += v != "inconclusive"
    p90 = percentile(lat, 90)
    return {
        "queries_per_s": {"value": len(ops) / sum(op.seconds for op in ops),
                          "unit": "1/s"},
        "latency_p50_ms": {"value": percentile(lat, 50), "unit": "ms",
                           "samples": len(lat)},
        "latency_p90_ms": {"value": p90, "unit": "ms", "samples": len(lat),
                           "beyond": sum(v > p90 for v in lat)},
        "decided_ratio": {"value": decided / len(answered), "unit": "ratio",
                          "decided": decided, "base": len(answered)},
        "verdicts_per_pair": per_pair,
    }


def run_witness_mix(run: Run) -> dict:
    if run.trace:
        return traced(run, lambda n, tag: gen.witness_queries(run.seed, n))
    specs = build_specs()
    rounds = gen.witness_queries(run.seed, n_rounds(run.workload,
                                                    run.seconds))
    setup = SetupProbe(["-c", witness_setup_code()],
                       sum(len(b) for b in rounds))
    round_s = witness_rounds(run, specs, rounds, between=setup.between)
    run.report.update(witness_report(run, run.ops))
    run.report["known_gaps"] = {
        f"{pair} always inconclusive": run.report["verdicts_per_pair"][pair]
        for pair in (" x ".join(p) for p in gen.WITNESS_PAIRS
                     if p[0].startswith("nn") or p[1].startswith("kl"))}
    return {
        "wall_s": statistics.median(round_s),
        "setup_s": setup.median(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


# ---------------------------------------------------------------------------
# CLI workloads: a round is a list of commands plus a checker per command


class Command(Op):
    def __init__(self, group: str, argv, check=None):
        super().__init__(group, " ".join(argv))
        self.argv = list(argv)
        self.check = check
        self.stdout = ""
        self.returncode = None


def exec_cold(run: Run, cmd: Command) -> None:
    t0 = time.perf_counter()
    if t0 - run.started > DEADLINE_S:
        cmd.fails.append(f"not started: run past {DEADLINE_S} s")
        return
    try:
        proc = subprocess.run([sys.executable, "-m", "stratdef.cli",
                               *cmd.argv], env=cli_env(), cwd=run.dir,
                              capture_output=True, text=True,
                              timeout=CMD_TIMEOUT_S)
        cmd.stdout, cmd.returncode = proc.stdout, proc.returncode
        if proc.returncode != 0:
            cmd.fails.append(f"exit {proc.returncode}: "
                             f"{proc.stderr.strip()[-300:]}")
    except subprocess.TimeoutExpired:
        cmd.fails.append(f"timed out after {CMD_TIMEOUT_S} s")
    cmd.seconds = time.perf_counter() - t0


def exec_inproc(run: Run, cmd: Command) -> None:
    from stratdef import cli
    buf = io.StringIO()
    cwd = os.getcwd()
    t0 = time.perf_counter()
    try:
        os.chdir(run.dir)
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            cmd.returncode = cli.main(cmd.argv)
        if cmd.returncode != 0:
            cmd.fails.append(f"exit {cmd.returncode}: "
                             f"{err.getvalue().strip()[-300:]}")
    except Exception:
        cmd.fails.append(traceback.format_exc(limit=2))
    finally:
        cmd.seconds = time.perf_counter() - t0
        os.chdir(cwd)
    cmd.stdout = buf.getvalue()


def run_commands(run: Run, rounds, execute, tracer=None,
                 between=None) -> list:
    first = len(run.ops)
    for cmds in rounds:
        for cmd in cmds:
            if between is not None:
                between(len(run.ops) - first)
            if tracer is not None:
                tracer.op = len(run.ops)
            execute(run, cmd)
            run.ops.append(cmd)
    for cmds in rounds:
        for cmd in cmds:
            if not cmd.fails and cmd.check is not None:
                try:
                    cmd.fails += cmd.check(cmd)
                except Exception:
                    cmd.fails.append("check raised: "
                                     + traceback.format_exc(limit=2))
    return round_seconds(run.ops[first:], [len(c) for c in rounds])


def group_sums(ops, n: int) -> dict:
    """Per-round mean of the time each command group takes."""
    out = {}
    for op in ops:
        key = op.group + "_s"
        out[key] = out.get(key, 0.0) + op.seconds / n
    return {k: {"value": v, "unit": "s"} for k, v in sorted(out.items())}


def exact_cli_rounds(run: Run, n: int, tag: str) -> list:
    """Commands of n rounds; inputs are generated from the seed."""
    rounds = []
    for r in range(n):
        rng = np.random.default_rng([run.seed, 0xEC, r])
        p = f"{tag}{r}-"
        tree = run.dir / f"{p}tree.sexp"
        tree.write_text(gen.tree_sexpr(3, 5, 2, rng) + "\n")
        nn = run.dir / f"{p}nn.sexp"
        nn.write_text(gen.nn_sexpr((6, 16, 16, 1)) + "\n")
        systems = []
        for k, (nv, rows) in enumerate(((6, 20), (6, 24))):
            path = run.dir / f"{p}sys{k}.json"
            doc = gen.linear_system(rng, nv, rows)
            path.write_text(json.dumps(doc, indent=1) + "\n")
            systems.append((path.name, doc))

        def certified(cmd):
            return oracles.check_certificates(
                oracles.load_json(run.dir / cmd.argv[-1]))

        def matches(cmd):
            ok = "stored verdict matches re-verification" in cmd.stdout
            return [] if ok else ["shatter did not report a match"]

        def replayed(cmd):
            a = (run.dir / cmd.argv[-1]).read_bytes()
            b = (run.dir / f"{p}fixed.json").read_bytes()
            fails = certified(cmd)
            return fails + ([] if a == b else
                            ["replayed artifact differs byte-wise"])

        def transformed(text, neigh_exp, l):
            def check(cmd):
                return oracles.check_transform(
                    oracles.load_json(run.dir / cmd.argv[-1]), text,
                    neigh_exp, l)
            return check

        def projected(doc, seed):
            def check(cmd):
                fails, n_in, n_out = oracles.check_fm(
                    doc, oracles.load_json(run.dir / cmd.argv[-1]),
                    ["v0", "v1"], np.random.default_rng([seed, 0xF3]))
                if n_in == 0 or n_out == 0:
                    fails.append(f"check exercised only one direction "
                                 f"({n_in} in, {n_out} out)")
                return fails
            return check

        seed = str(run.seed)
        builds = [
            ("fixed", ["--n", "9"]),
            ("all-radii", ["--s", "3/10", "--n", "8", "--t", "260",
                           "--cert-cap", "8"]),
            ("partition", ["--n", "5"]),
            ("frac", ["--n", "3", "--r", "1/4"]),
        ]
        cmds = []
        for kind, extra in builds:
            cmds.append(Command("verify_blowup", [
                "--seed", seed, "verify-blowup", "--construction", kind,
                *extra, "--out", f"{p}{kind}.json"], certified))
        for kind, _ in builds:
            cmds.append(Command("shatter", ["--seed", seed, "shatter",
                                            "--instance", f"{p}{kind}.json"],
                                matches))
        cmds.append(Command("verify_blowup", [
            "--seed", seed, "verify-blowup", "--construction", "fixed",
            "--n", "9", "--out", f"{p}fixed-replay.json"], replayed))
        cmds.append(Command("transform", [
            "--seed", seed, "transform", "--hypothesis", tree.name,
            "--neighborhood", "lp:l=3,p=2,r=1/2", "--out", f"{p}tree-t.json"],
            transformed(tree.read_text(), 0, 3)))
        cmds.append(Command("transform", [
            "--seed", seed, "transform", "--hypothesis", nn.name,
            "--neighborhood", "linf:l=6,r=1/4", "--out", f"{p}nn-t.json"],
            transformed(nn.read_text(), 0, 6)))
        for k, (name, doc) in enumerate(systems):
            cmds.append(Command("fm_elim", [
                "--seed", seed, "fm-elim", "--in", name, "--drop", "v0,v1",
                "--out", f"{p}sys{k}-fm.json"], projected(doc, run.seed + k)))
        rounds.append(cmds)
    return rounds


# learn draws its target from --seed, and the target alone moves a sweep's
# cost from 1 s to 2.7 s (closed form) and from 2 s to 16 s (ptf); learn
# keeps one target so that the workload seed varies only the growth inputs
LEARN_SEED = "0"


def label_sweep_rounds(run: Run, n: int, tag: str) -> list:
    closed = ("halfspace:l=2", "lp:l=2,p=2,r=1/4")
    ptf = ("ptf:l=2,D=2", "lp:l=2,p=2,r=1/4")
    tree = ("tree:l=2,depth=2,q=1,labels=0110", "linf:l=2,r=1/4")
    rounds = []
    for r in range(n):
        p = f"{tag}{r}-"

        def seed(k):
            return str((run.seed * 7919 + r * 31 + k) % (1 << 31))

        def growth(k, pair, m_values, extra, vc_dim):
            csv = f"{p}growth{k}.csv"

            def check(cmd):
                return oracles.check_growth(
                    oracles.read_csv(run.dir / csv)[1], m_values, vc_dim)
            return Command("growth", [
                "--seed", seed(k), "growth", "--family", pair[0],
                "--neighborhood", pair[1],
                "--m", ",".join(map(str, m_values)), *extra, "--csv", csv],
                check)

        def learn(k, pair, eps, extra, cli_seed, delta=0.1):
            csv = f"{p}learn{k}.csv"

            def check(cmd):
                return oracles.check_learn(
                    oracles.read_csv(run.dir / csv)[1], eps, delta)
            return Command("learn", [
                "--seed", cli_seed, "learn", "--family", pair[0],
                "--neighborhood", pair[1], "--eps", ",".join(map(str, eps)),
                "--delta", str(delta), *extra, "--csv", csv], check)

        rounds.append([
            # closed form: a strategic halfspace is a halfspace (VC 3)
            growth(0, closed, [8, 16, 32, 64], [], 3),
            learn(1, closed, [0.2, 0.1, 0.05], [], LEARN_SEED),
            growth(2, ptf, [8, 16], ["--trials", "1", "--param-draws", "200"],
                   None),
            growth(3, tree, [8, 16], ["--trials", "1", "--param-draws",
                                      "200"], None),
            learn(4, ptf, [0.2], ["--trials", "5", "--budget", "50"],
                  LEARN_SEED),
        ])
    return rounds


CLI_ROUNDS = {"exact-cli": exact_cli_rounds,
              "label-sweeps": label_sweep_rounds}

# known gaps of the program, probed after the timed rounds so the report
# shows how they behave today; they are not workload operations
KNOWN_GAPS = {
    "exact-cli": {"frac with the default --r": [
        "verify-blowup", "--construction", "frac", "--n", "3",
        "--out", "gap-frac.json"]},
    "label-sweeps": {
        f"growth with {n}": ["growth", "--family", "halfspace:l=3",
                             "--neighborhood", f"{n}:r=1/2", "--m", "8",
                             "--csv", f"gap-{n}.csv"]
        for n in ("kl", "emd")},
}


def probe_gaps(run: Run) -> dict:
    out = {}
    for gap, argv in KNOWN_GAPS[run.workload].items():
        cmd = Command("gap", argv)
        exec_cold(run, cmd)
        out[gap] = {"exit": cmd.returncode,
                    "message": (cmd.fails or [""])[0][-160:]}
    return out


def run_cli_workload(run: Run) -> dict:
    make = CLI_ROUNDS[run.workload]
    if run.trace:
        return traced(run, lambda n, tag: make(run, n, tag))
    n = n_rounds(run.workload, run.seconds)
    rounds = make(run, n, "r")
    setup = SetupProbe(["-c", "import stratdef.cli"],
                       sum(len(c) for c in rounds))
    round_s = run_commands(run, rounds, exec_cold, between=setup.between)
    run.report.update(group_sums(run.ops, n))
    run.report["commands"] = {"value": len(run.ops), "unit": "count"}
    run.report["known_gaps"] = probe_gaps(run)
    return {
        "wall_s": statistics.median(round_s),
        "setup_s": setup.median(),
        # the largest child: the benchmark process itself runs no workload
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        / 1024,
    }


# ---------------------------------------------------------------------------
# Traced run: the same rounds in one process, untraced then traced


def traced(run: Run, make_rounds) -> dict:
    """make_rounds(n, tag) gives n rounds; the tag keeps file names of the
    two passes apart.  Each pass gets half of --seconds."""
    per_layer = import_profile()
    n = n_rounds(run.workload, run.seconds / 2)

    def execute(rounds, tracer=None):
        if run.workload == "witness-mix":
            if tracer is not None:
                tracer.op = "setup"
            return witness_rounds(run, build_specs(), rounds, tracer)
        return run_commands(run, rounds, exec_inproc, tracer)

    untraced_s = execute(make_rounds(n, "u"))
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        traced_s = execute(make_rounds(n, "t"), tracer)
    finally:
        spans.uninstall(tracer)
    tracer.write_spans(run.dir / "spans.jsonl")
    per_layer.update(layer_metrics(tracer))
    wall_u, wall_t = statistics.median(untraced_s), statistics.median(traced_s)
    per_layer.update({"trace.untraced_wall_s": wall_u,
                      "trace.wall_s": wall_t,
                      "trace.overhead_s": wall_t - wall_u,
                      "trace.spans": len(tracer.spans)})
    return per_layer


def layer_metrics(tr) -> dict:
    self_ms, calls, c = tr.self_ms(), tr.calls(), tr.counts
    out = {}
    for name in ("formula.parse", "formula.to_graph_form",
                 "formula.classify_fragment", "solve.witness_search",
                 "solve.lp_solve", "solve.eval_qf", "solve.nelder_mead",
                 "solve.fm_eliminate", "transform.strategic_transform",
                 "transform.complexity_report",
                 "families.batch_strategic_labels", "families.strategic_label",
                 "families.emd_value", "constructions.build_fixed_blowup",
                 "constructions.build_all_radii",
                 "constructions.build_partition_pathology",
                 "constructions.build_frac_construction",
                 "capacity.growth_estimate", "learn.erm_fit",
                 "learn.generate_realizable", "learn.heldout_error",
                 "cli.main", "cli.write_artifact", "cli.write_csv"):
        out[name + ".self_ms"] = self_ms.get(name, 0.0)
        out[name + ".calls"] = calls.get(name, 0)
    out["intervals.sqrt2_enclosure.calls"] = calls.get(
        "intervals.sqrt2_enclosure", 0)
    out["intervals.sqrt2_enclosure.max_bits"] = c[
        "intervals.sqrt2_enclosure.max_bits"]
    out["intervals.exp_enclosure.calls"] = calls.get(
        "intervals.exp_enclosure", 0)
    out["intervals.undecided"] = c["intervals.decide.raised"]
    for key in ("sat", "unsat", "inconclusive"):
        out["solve.witness_search." + key] = c["solve.witness_search." + key]
    nm = calls.get("solve.nelder_mead", 0)
    out["solve.nelder_mead.success_ratio"] = (
        c["solve.nelder_mead.success"] / nm if nm else 0.0)
    out["solve.fm_eliminate.rows_in"] = c["solve.fm_eliminate.rows_in"]
    out["solve.fm_eliminate.rows_out"] = c["solve.fm_eliminate.rows_out"]
    rows = c["families.batch_strategic_labels.rows"]
    out["families.batch_strategic_labels.rows"] = rows
    out["families.sampled_label_ratio"] = (
        c["families.sampled_rows.calls"] / rows if rows else 0.0)
    out["capacity.label_fn.calls"] = c["capacity.label_fn.calls"]
    out["learn.erm_fit.candidates"] = c["learn.erm_fit.candidates"]
    return out


# ---------------------------------------------------------------------------
# Environment and output


def environment() -> dict:
    from importlib import metadata
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    env = {"git_sha": sha, "python": platform.python_version(),
           "machine": platform.machine(), "nproc": os.cpu_count(),
           "cpus_usable": len(os.sched_getaffinity(0)),
           "blas_threads": {v: os.environ[v] for v in BLAS_VARS}}
    for pkg in ("numpy", "scipy", "sympy", "mpmath"):
        try:
            env[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            env[pkg] = "missing"
    return env


WORKLOADS = {"witness-mix": run_witness_mix, "exact-cli": run_cli_workload,
             "label-sweeps": run_cli_workload}


def expected_metrics(trace: bool) -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "stratdef" / "cli.py").is_file():
        print(f"error: no stratdef sources under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print("error: BENCHMARK.json not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    want = expected_metrics(bool(args.trace))

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    values = WORKLOADS[args.workload](run)
    if set(values) != set(want):
        print(f"error: metric names {sorted(set(values) ^ set(want))} do "
              "not match BENCHMARK.json", file=sys.stderr)
        return 3
    failed = [op for op in run.ops if op.fails]
    run.report["failed_ratio"] = {"value": len(failed) / len(run.ops),
                                  "unit": "ratio", "failed": len(failed),
                                  "base": len(run.ops)}
    doc = {"workload": run.workload, "seed": run.seed,
           "seconds": run.seconds, "trace": run.trace,
           "environment": environment(),
           "metrics": {k: {"value": v, "unit": want[k]}
                       for k, v in values.items()},
           "report": run.report,
           "failures": [{"op": op.name, "fails": op.fails} for op in failed],
           "ops": [{"op": op.name, "seconds": op.seconds} for op in run.ops]}
    (run.dir / "result.json").write_text(json.dumps(doc, indent=1) + "\n")
    print("environment: " + json.dumps(doc["environment"], sort_keys=True))
    for key, val in run.report.items():
        print(f"report {key}: {json.dumps(val, sort_keys=True)}")
    for op in failed:
        print(f"FAILED {op.name}: {' | '.join(op.fails)[:500]}")
    print(json.dumps({"correct": not failed, "attempted": len(run.ops),
                      "failed": len(failed), "metrics": doc["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
