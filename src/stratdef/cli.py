"""Command-line entry point.

Subcommands: transform, fm-elim, verify-blowup, shatter, growth, learn.
Each imports what it runs, when it runs: verify-blowup and shatter load
constructions alone, fm-elim solve, transform formula and transform (and
families and solve for a registry spec, one that names no regular file),
growth and learn families, capacity, learn and numpy.
Exit codes: 0 success, 1 verification failure, 2 usage error (a bad option,
input file or formula).

Artifacts are written atomically (temp file + rename) and are byte-identical
across replays with the same config and seed: the resolved config and the
toolkit version are embedded in every artifact, while wall-clock timestamps
go to a separate sidecar file (<out>.meta.json).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from . import __version__


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Serialization


def _jsonable(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return v
    if isinstance(v, dict):
        return {_key(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (str, int, bool)) or v is None:
        return v
    return str(v)


def _key(k):
    if isinstance(k, tuple):
        return ",".join(str(x) for x in k)
    return str(k)


def _atomic_write(path: str, data: str) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name,
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_with_sidecar(path: str, data: str, meta=None) -> None:
    _atomic_write(path, data)
    meta = {"written_at_unix": time.time(), **(meta or {})}
    _atomic_write(str(path) + ".meta.json", json.dumps(meta) + "\n")


def write_artifact(path: str, config: dict, result, meta=None) -> None:
    """The artifact at path, and its sidecar with the write time and the
    run's counters `meta`, which do not belong in the replayable bytes."""
    doc = {"version": __version__, "config": _jsonable(config),
           "result": _jsonable(result)}
    _write_with_sidecar(path, json.dumps(doc, indent=2, sort_keys=True) + "\n",
                        meta)


def write_csv(path: str, header: list, rows: list, config: dict) -> None:
    lines = ["# version=" + __version__,
             "# config=" + json.dumps(_jsonable(config), sort_keys=True),
             ",".join(header)]
    lines += [",".join(str(_jsonable(v)) for v in row) for row in rows]
    _write_with_sidecar(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommands


def _read(path) -> str:
    """The UTF-8 text of an input file; one that cannot be read is a usage
    error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {str(path)!r}: {exc}") from exc


def _read_json(path):
    """The JSON document of an input file; one that is not JSON is a usage
    error naming the file."""
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise UsageError(f"{str(path)!r} is not JSON: {exc}") from exc


def _load_formula(spec: str):
    """The s-expression formula in the regular file at path spec, otherwise
    the formula of a registry spec string ('halfspace:l=2') whose name
    before ':' is a registered family or neighborhood."""
    if os.path.isfile(spec):  # False, not an error, for a name too long
        from . import formula
        return formula.parse(_read(spec))
    from . import families
    name = spec.partition(":")[0]
    for make, names in ((families.make_family, families._FAMILIES),
                        (families.make_neighborhood, families._NEIGHBORHOODS)):
        if name in names:
            return make(spec).formula()
    raise UsageError(f"{spec!r} is neither a readable file nor a known "
                     "family/neighborhood spec")


def cmd_transform(args) -> int:
    from . import transform
    phi_h = _load_formula(args.hypothesis)
    phi_n = _load_formula(args.neighborhood)
    spec = transform.strategic_transform(phi_h, phi_n,
                                         input_dim=args.input_dim)
    report = transform.complexity_report(spec)
    result = {"formula": str(spec.transformed), "report": report}
    config = {"command": "transform", "hypothesis": args.hypothesis,
              "neighborhood": args.neighborhood, "input_dim": args.input_dim,
              "seed": args.seed}
    write_artifact(args.out, config, result)
    print(f"transform: F_out={report['transformed']['format']} "
          f"D_out={report['transformed']['degree']} -> {args.out}")
    return 0


def _rational(v) -> Fraction:
    """Fraction(v) for a JSON number or string; a bool, which Fraction
    would read as 0 or 1, is refused."""
    if isinstance(v, bool):
        raise TypeError(f"{v!r} is not a number")
    return Fraction(v)


def _field(obj, key: str, where: str):
    """obj[key] of a JSON object read from a file; the error names `where`
    when obj is not an object or has no key."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    if key not in obj:
        raise ValueError(f"{where} has no {key!r}")
    return obj[key]


def _load_system(path: str):
    from . import solve
    doc = _read_json(path)
    try:
        names = _field(doc, "variables", "the file")
        if not (isinstance(names, list) and
                all(isinstance(v, str) for v in names) and
                len(set(names)) == len(names)):
            raise ValueError("variables must be a list of distinct names")
        constraints = _field(doc, "constraints", "the file")
        if not isinstance(constraints, list):
            raise ValueError("constraints must be a list")
        rows = []
        for i, c in enumerate(constraints):
            where = f"constraint {i}"
            coeffs = _field(c, "coeffs", where)
            if not isinstance(coeffs, list):
                raise ValueError(f"{where}: coeffs must be a list")
            rows.append(([_rational(v) for v in coeffs],
                         _field(c, "rel", where),
                         _rational(_field(c, "rhs", where))))
        return solve.LinearSystem.make(names, rows)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError,
            solve.SolveError) as exc:
        raise UsageError(f"{path!r} is not a linear system: {exc}") from exc


def cmd_fm_elim(args) -> int:
    from . import solve
    sys_in = _load_system(args.infile)
    drop = [v.strip() for v in args.drop.split(",") if v.strip()]
    if len(set(drop)) != len(drop):
        raise UsageError(f"--drop names a variable twice: {args.drop!r}")
    unknown = [v for v in drop if v not in sys_in.variables]
    if unknown:
        raise UsageError(f"--drop names unknown variables {unknown}")
    out = solve.fm_eliminate(sys_in, drop)
    result = {
        "variables": list(out.variables),
        "constraints": [{"coeffs": list(c.coeffs), "rel": c.rel,
                         "rhs": c.rhs} for c in out.constraints],
        "trivially_infeasible": out.is_trivially_infeasible(),
    }
    config = {"command": "fm-elim", "in": args.infile, "drop": drop,
              "seed": args.seed}
    write_artifact(args.out, config, result, {"fm_steps": list(out.steps)})
    print(f"fm-elim: {len(sys_in.constraints)} -> {len(out.constraints)} "
          f"constraints over {list(out.variables)} -> {args.out}")
    return 0


def _value(text, option: str, conv=Fraction, ok=None,
           what: str = "a number"):
    """conv(text), or a usage error naming the option unless it converts
    and passes ok."""
    try:
        v = conv(text)
        if ok is None or ok(v):
            return v
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    raise UsageError(f"--{option} must be {what}, got {text!r}")


def _integer(v) -> int:
    """int(v) for an int or a string: a float or a bool read from a stored
    config is refused, where int would truncate it or read it as 0 or 1."""
    if isinstance(v, (bool, float)):
        raise TypeError
    return int(v)


def _positive(text, option: str) -> int:
    return _value(text, option, _integer, lambda v: v >= 1,
                  "a positive integer")


def _build_construction(kind: str, args):
    """Validates every field it reads: shatter's fields come from a file."""
    from . import constructions
    n = _positive(args.n, "n")
    if kind == "fixed":
        radii = None
        if args.s:
            radii = [_value(v, "s") for v in str(args.s).split(",")]
        return constructions.build_fixed_blowup(
            n, _value(args.r, "r"), _value(args.rp, "rp"), radii=radii)
    if kind == "all-radii":
        if not args.s:
            raise UsageError("all-radii needs --s")
        return constructions.build_all_radii(
            _positive(args.t, "t"), _value(args.s, "s"), n,
            _value(args.cert_cap, "cert-cap", _integer, lambda v: v >= 0,
                   "a nonnegative integer"))
    if kind == "partition":
        return constructions.build_partition_pathology(n)
    if kind == "frac":
        return constructions.build_frac_construction(n, _value(args.r, "r"))
    raise UsageError(f"unknown construction {kind!r}")


def _instance_result(inst) -> dict:
    return {
        "construction_id": inst.construction_id,
        "n": inst.n,
        "params": inst.params,
        "anchors": inst.anchors,
        "supports": {k: list(v) for k, v in inst.supports.items()},
        "certificates": [{"name": c.name, "passed": c.passed,
                          "detail": c.detail} for c in inst.certificates],
        "passed": inst.passed(),
        "metadata": inst.metadata,
    }


def cmd_verify_blowup(args) -> int:
    if args.r is None:
        args.r = "1/4" if args.construction == "frac" else "1"
    inst = _build_construction(args.construction, args)
    config = {"command": "verify-blowup", "construction": args.construction,
              "n": args.n, "r": args.r, "rp": args.rp, "s": args.s,
              "t": args.t, "cert_cap": args.cert_cap, "seed": args.seed}
    write_artifact(args.out, config, _instance_result(inst))
    print(inst.summary())
    return 0 if inst.passed() else 1


def cmd_shatter(args) -> int:
    doc = _read_json(args.instance)
    cfg = doc.get("config", {}) if isinstance(doc, dict) else None
    if not isinstance(cfg, dict):
        raise UsageError("instance file must be a JSON object whose config "
                         "is an object")
    kind = cfg.get("construction")
    if kind is None:
        raise UsageError("instance file lacks a construction config")
    ns = argparse.Namespace(
        construction=kind, n=cfg.get("n"), r=cfg.get("r"),
        rp=cfg.get("rp"), s=cfg.get("s"), t=cfg.get("t"),
        cert_cap=cfg.get("cert_cap", 10))
    inst = _build_construction(kind, ns)
    fresh = _jsonable(_instance_result(inst))
    stored = doc.get("result")
    stored = stored if isinstance(stored, dict) else {}
    key = min((k for k in fresh.keys() | stored.keys()
               if stored.get(k) != fresh.get(k)), default=None)
    print(inst.summary())
    print("shatter: stored verdict matches re-verification" if key is None
          else f"shatter: stored {key!r} DIFFERS FROM re-verification")
    return 0 if inst.passed() and key is None else 1


def _family_pair(args) -> tuple:
    from . import families
    family = families.make_family(args.family)
    neigh = families.make_neighborhood(args.neighborhood) \
        if args.neighborhood else families.identity(family.input_dim)
    if neigh.dim != family.input_dim:
        raise UsageError("family and neighborhood dimensions differ")
    return family, neigh


def cmd_growth(args) -> int:
    from . import capacity, families, learn
    family, neigh = _family_pair(args)
    m_values = [_positive(v, "m") for v in args.m.split(",")]
    _positive(args.trials, "trials")
    _positive(args.param_draws, "param-draws")
    report = capacity.growth_series(
        lambda params, X: families.batch_strategic_labels(family, neigh,
                                                          params, X),
        learn.uniform_box_sampler(family.input_dim), family.draw_params,
        m_values, args.trials, seed=args.seed, param_draws=args.param_draws)
    config = {"command": "growth", "family": args.family,
              "neighborhood": args.neighborhood, "m": m_values,
              "trials": args.trials, "param_draws": args.param_draws,
              "seed": args.seed}
    rows = [(m, c) for m, c in zip(report.m_values, report.counts)]
    write_csv(args.csv, ["m", "distinct_traces"], rows, config)
    slope = "n/a" if report.slope is None else f"{report.slope:.3f}"
    print(f"growth: counts={list(report.counts)} log-log slope={slope} "
          f"-> {args.csv}")
    return 0


def cmd_learn(args) -> int:
    import numpy as np
    from . import learn
    family, neigh = _family_pair(args)
    eps_grid = [_value(v, "eps", float, lambda e: 0 < e <= 1,
                       "a number in (0, 1]") for v in args.eps.split(",")]
    _value(args.delta, "delta", float, lambda d: 0 <= d < 1,
           "a number in [0, 1)")
    _positive(args.trials, "trials")
    _positive(args.budget, "budget")
    target = family.draw_params(np.random.default_rng([args.seed, 0xA5]))
    report = learn.sample_complexity_sweep(
        family, neigh, target, eps_grid, args.delta, args.trials, args.seed,
        budget=args.budget)
    config = {"command": "learn", "family": args.family,
              "neighborhood": args.neighborhood, "eps": eps_grid,
              "delta": args.delta, "trials": args.trials,
              "budget": args.budget, "seed": args.seed}
    rows = [(r.eps, r.m_hat, r.product, r.success_rate, r.zero_error_rate)
            for r in report.rows]
    write_csv(args.csv,
              ["eps", "m_hat", "m_hat_times_eps", "success_rate",
               "zero_empirical_error_rate"], rows, config)
    print(f"learn: m_hat={[r.m_hat for r in report.rows]} "
          f"slope={report.slope} -> {args.csv}")
    return 0


# ---------------------------------------------------------------------------
# Dispatcher


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stratdef",
        description="Definability toolkit for strategic classification")
    p.add_argument("--seed", type=int, default=0)
    sub = p.add_subparsers(dest="command")

    t = sub.add_parser("transform", help="strategic transform of a "
                       "hypothesis and neighborhood formula")
    t.add_argument("--hypothesis", required=True)
    t.add_argument("--neighborhood", required=True)
    t.add_argument("--input-dim", type=int, default=None)
    t.add_argument("--out", required=True)
    t.set_defaults(fn=cmd_transform)

    e = sub.add_parser("fm-elim", help="Fourier-Motzkin projection of a "
                       "linear system")
    e.add_argument("--in", dest="infile", required=True)
    e.add_argument("--drop", required=True,
                   help="comma-separated variables to eliminate")
    e.add_argument("--out", required=True)
    e.set_defaults(fn=cmd_fm_elim)

    v = sub.add_parser("verify-blowup", help="build and certify a "
                       "lower-bound construction")
    v.add_argument("--construction", required=True,
                   metavar="KIND", help="fixed, all-radii, partition or frac")
    v.add_argument("--n", type=int, default=3)
    v.add_argument("--r", default=None,
                   help="radius (default 1; frac: 1/4)")
    v.add_argument("--rp", default="1/2")
    v.add_argument("--s", default=None,
                   help="radius (all-radii) or comma list (fixed)")
    v.add_argument("--t", type=int, default=260,
                   help="all-radii: number of enumerated blocks")
    v.add_argument("--cert-cap", type=int, default=10)
    v.add_argument("--out", default="cert.json")
    v.set_defaults(fn=cmd_verify_blowup)

    s = sub.add_parser("shatter", help="re-verify a stored certificate")
    s.add_argument("--instance", required=True)
    s.set_defaults(fn=cmd_shatter)

    g = sub.add_parser("growth", help="sampled growth-function estimates")
    g.add_argument("--family", required=True)
    g.add_argument("--neighborhood", default=None)
    g.add_argument("--m", default="8,16,32,64")
    g.add_argument("--trials", type=int, default=3)
    g.add_argument("--param-draws", type=int, default=2000)
    g.add_argument("--csv", required=True)
    g.set_defaults(fn=cmd_growth)

    l = sub.add_parser("learn", help="sample-complexity sweep for "
                       "approximate strategic ERM")
    l.add_argument("--family", required=True)
    l.add_argument("--neighborhood", default=None)
    l.add_argument("--eps", default="0.2,0.1,0.05")
    l.add_argument("--delta", type=float, default=0.1)
    l.add_argument("--trials", type=int, default=20)
    l.add_argument("--budget", type=int, default=400)
    l.add_argument("--csv", required=True)
    l.set_defaults(fn=cmd_learn)
    return p


def _loaded_errors(*names) -> tuple:
    """The error classes 'module.Class' of this package's modules that are
    already imported: a module never imported raised nothing, and importing
    it here would load the modules the command skipped."""
    out = []
    for name in names:
        module, _, cls = name.rpartition(".")
        loaded = sys.modules.get(f"{__package__}.{module}")
        if loaded is not None:
            out.append(getattr(loaded, cls))
    return tuple(out)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "fn", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.fn(args)
    except Exception as exc:
        if isinstance(exc, (UsageError, FileNotFoundError, *_loaded_errors(
                "formula.FormulaError", "families.FamilyError",
                "transform.TransformError"))):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if isinstance(exc, _loaded_errors(
                "constructions.ConstructionError", "solve.SolveError",
                "intervals.UndecidedComparison", "learn.LearnError",
                "capacity.CapacityError")):
            print(f"verification failure: {exc}", file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
