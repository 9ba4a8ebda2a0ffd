"""Independent oracles for the benchmark's correctness checks.

Nothing here imports the package under test: hypothesis and neighborhood
semantics are re-derived from their definitions with numpy, earth-mover
distance uses the closed form for the three-point line metric, and the
Fourier-Motzkin check uses scipy's LP solver.  Each checker returns a list
of failure messages (empty when the output is correct).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from gen import monomials, spec_kwargs

TOL = 1e-7          # boundary slack when re-checking a reported witness
STRICT = 1e-7       # acceptance margin a refuting sample must clear
N_SAMPLES = 256     # neighbor samples per exact "no"


# ---------------------------------------------------------------------------
# Hypotheses: margin >= 0 means accepted (> 0 for strict families)


def _poly_values(params, base: int, monos, Y: np.ndarray) -> np.ndarray:
    out = np.zeros(len(Y))
    for j, mono in enumerate(monos):
        term = np.full(len(Y), float(params[base + j]))
        for i in mono:
            term = term * Y[:, i]
        out += term
    return out


def hypothesis_margin(spec: str, params, Y: np.ndarray) -> np.ndarray:
    """Signed acceptance margin of each row of Y (n x l)."""
    name, kw = spec_kwargs(spec)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    p = np.asarray(params, dtype=float)
    if name == "halfspace":
        l = int(kw.get("l", 2))
        return Y @ p[:l] - p[l]
    if name == "threshold":
        return Y[:, 0] - p[0]
    if name == "ptf":
        l, deg = int(kw.get("l", 2)), int(kw.get("D", 2))
        return _poly_values(p, 0, monomials(l, deg), Y)
    if name == "tree":
        l, depth = int(kw.get("l", 2)), int(kw.get("depth", 2))
        monos = monomials(l, int(kw.get("q", 1)))
        labels = kw.get("labels", "01" * (1 << (depth - 1)))
        n_leaves = 1 << depth
        node_val = {node: _poly_values(p, (node - 1) * len(monos), monos, Y)
                    for node in range(1, n_leaves)}
        best = np.full(len(Y), -np.inf)
        for leaf in range(n_leaves):
            if labels[leaf] != "1":
                continue
            node, path = leaf + n_leaves, np.full(len(Y), np.inf)
            while node > 1:
                v = node_val[node // 2]
                # right child iff poly >= 0; left iff poly < 0
                path = np.minimum(path, v if node % 2 == 1 else -v)
                node //= 2
            best = np.maximum(best, path)
        return best
    if name == "nn":
        widths = [int(d) for d in kw["widths"].split("-")]
        z, pos, r = Y, 0, None
        for prev, d in zip(widths, widths[1:]):
            W = np.stack([p[pos + i * (prev + 1): pos + i * (prev + 1) + prev]
                          for i in range(d)])
            b = np.asarray([p[pos + i * (prev + 1) + prev] for i in range(d)])
            pos += d * (prev + 1)
            r = z @ W.T + b
            z = 1.0 / (1.0 + np.exp(-r))
        return r[:, 0]
    raise ValueError(f"no oracle for family {spec!r}")


# ---------------------------------------------------------------------------
# Neighborhoods


def _frac(v) -> float:
    return float(Fraction(v))


def line_emd(x, Y: np.ndarray) -> np.ndarray:
    """EMD on the ground metric d(1,2)=1, d(1,3)=2, d(2,3)=1, which is the
    line metric on the points 0, 1, 2: the cost is the L1 distance between
    the cumulative distributions."""
    cx = np.cumsum(np.asarray(x, dtype=float))[:-1]
    cy = np.cumsum(np.atleast_2d(Y), axis=1)[:, :-1]
    return np.abs(cy - cx).sum(axis=1)


def neighborhood_excess(spec: str, x, Y: np.ndarray) -> np.ndarray:
    """How far each row of Y lies outside N_x (<= 0 inside)."""
    name, kw = spec_kwargs(spec)
    x = np.asarray(x, dtype=float)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    r = _frac(kw.get("r", "1"))
    D = Y - x
    if name in ("linf", "interval"):
        return np.abs(D).max(axis=1) - r
    if name == "l1":
        return np.abs(D).sum(axis=1) - r
    if name == "lp":
        p = float(Fraction(kw.get("p", "2")))
        return (np.abs(D) ** p).sum(axis=1) - r ** p
    if name == "gauss_kl":
        return D[:, 0] ** 2 - 2 * r
    if name in ("kl", "emd"):
        off = np.maximum(np.abs(Y.sum(axis=1) - x.sum()), -Y.min(axis=1))
        if name == "emd":
            return np.maximum(off, line_emd(x, Y) - r)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(x > 0, x * np.log(x / np.maximum(Y, 1e-300)), 0.0)
        return np.maximum(off, terms.sum(axis=1) - r)
    raise ValueError(f"no oracle for neighborhood {spec!r}")


def sample_neighbors(spec: str, x, rng, n: int = N_SAMPLES) -> np.ndarray:
    """Points of N_x: the extreme points a linear objective would pick plus
    random interior points.  Every returned row passes neighborhood_excess."""
    name, kw = spec_kwargs(spec)
    x = np.asarray(x, dtype=float)
    l = len(x)
    r = _frac(kw.get("r", "1"))
    if name in ("linf", "interval"):
        corners = np.asarray(list(np.ndindex(*(2,) * l)), dtype=float) * 2 - 1
        Y = np.vstack([x + r * corners, x + rng.uniform(-r, r, size=(n, l))])
    elif name in ("l1", "lp"):
        p = 1.0 if name == "l1" else float(Fraction(kw.get("p", "2")))
        axes = np.vstack([np.eye(l), -np.eye(l)]) * r
        Z = rng.normal(size=(n, l))
        Z /= (np.abs(Z) ** p).sum(axis=1, keepdims=True) ** (1 / p)
        Y = np.vstack([x + axes, x + Z * r * rng.uniform(0, 1, size=(n, 1))])
    elif name == "gauss_kl":
        s = math.sqrt(2 * r)
        Y = np.vstack([[x - s], [x + s], x + rng.uniform(-s, s, size=(n, 1))])
    elif name in ("kl", "emd"):
        U = np.vstack([np.eye(l), rng.dirichlet(np.ones(l), size=n)])
        t = rng.uniform(0, 1, size=(len(U), 1))
        Y = (1 - t) * x + t * U
    else:
        raise ValueError(f"no sampler for neighborhood {spec!r}")
    # the 1e-12 slack keeps rounding at the boundary from dropping corners
    return Y[neighborhood_excess(spec, x, Y) <= 1e-12]


def closed_form_margin(fam: str, neigh: str, x, params):
    """Best-response margin from geometry alone, or None without a closed
    form: a halfspace w.y >= b over a p-ball of radius r around x gains
    r * ||w||_q with 1/p + 1/q = 1; a threshold over an interval gains r."""
    fname, fkw = spec_kwargs(fam)
    nname, nkw = spec_kwargs(neigh)
    p_arr = np.asarray(params, dtype=float)
    r = _frac(nkw.get("r", "1"))
    if fname == "threshold" and nname == "interval":
        return float(x[0]) + r - p_arr[0]
    if fname != "halfspace":
        return None
    l = int(fkw.get("l", 2))
    w, b = p_arr[:l], p_arr[l]
    if nname == "linf":
        gain = r * np.abs(w).sum()
    elif nname == "l1":
        gain = r * np.abs(w).max()
    elif nname == "lp":
        p = float(Fraction(nkw.get("p", "2")))
        q = p / (p - 1)
        gain = r * (np.abs(w) ** q).sum() ** (1 / q)
    elif nname == "gauss_kl":
        gain = math.sqrt(2 * r) * abs(w[0])
    else:
        return None
    return float(np.dot(w, x) + gain - b)


# ---------------------------------------------------------------------------
# Witness-search verdicts


def verdict(found: bool, margin) -> str:
    """sat (witness), unsat (exact "no": False with margin None) or
    inconclusive (any other False)."""
    if found:
        return "sat"
    return "unsat" if margin is None else "inconclusive"


def check_witness_result(fam: str, neigh: str, x, params, found: bool,
                         witness, margin, rng) -> list:
    """Failures of one witness_search answer against the oracles."""
    v = verdict(found, margin)
    fails = []
    cf = closed_form_margin(fam, neigh, x, params)
    if cf is not None and abs(cf) >= 1e-9 and v != "inconclusive":
        if (v == "sat") != (cf > 0):
            fails.append(f"verdict {v} contradicts closed-form margin "
                         f"{cf:.3g}")
    l = len(x)
    if v == "sat":
        y = np.asarray(witness[-l:], dtype=float)
        out = float(neighborhood_excess(neigh, x, y[None, :])[0])
        acc = float(hypothesis_margin(fam, params, y[None, :])[0])
        if not out <= TOL:
            fails.append(f"witness leaves the neighborhood by {out:.3g}")
        if not acc >= -TOL:
            fails.append(f"witness is rejected by the classifier ({acc:.3g})")
    elif v == "unsat":
        Y = sample_neighbors(neigh, x, rng)
        acc = hypothesis_margin(fam, params, Y)
        if (acc > STRICT).any():
            fails.append(f"exact no, but neighbor {Y[int(np.argmax(acc))]} "
                         "is accepted")
    return fails


# ---------------------------------------------------------------------------
# CLI artifacts


def check_certificates(artifact: dict) -> list:
    res = artifact.get("result", {})
    fails = [f"certificate {c['name']} failed: {c.get('detail', '')}"
             for c in res.get("certificates", []) if not c.get("passed")]
    if not res.get("certificates"):
        fails.append("artifact carries no certificates")
    if res.get("passed") is not True:
        fails.append("artifact verdict is not passed")
    return fails


def check_transform(artifact: dict, hyp_text: str, neigh_exp_atoms: int,
                    l: int) -> list:
    """The paper's bookkeeping: witnesses add up (N + H + l target
    coordinates), F_out <= 2 max(F_H, F_N), D_out <= D_H + D_N, and every
    exp atom of the inputs survives into the output formula."""
    rep = artifact["result"]["report"]
    h, n, o = rep["hypothesis"], rep["neighborhood"], rep["transformed"]
    fails = []
    if o["witnesses"] != h["witnesses"] + n["witnesses"] + l:
        fails.append(f"witness count {o['witnesses']} != "
                     f"{h['witnesses']} + {n['witnesses']} + {l}")
    if o["format"] > 2 * max(h["format"], n["format"]):
        fails.append(f"format {o['format']} exceeds 2 max(F_H, F_N)")
    if o["degree"] > h["degree"] + n["degree"]:
        fails.append(f"degree {o['degree']} exceeds D_H + D_N")
    want = hyp_text.count("(exp ") + neigh_exp_atoms
    got = artifact["result"]["formula"].count("(exp ")
    if got != want:
        fails.append(f"output has {got} exp atoms, inputs have {want}")
    return fails


def _rows(doc: dict):
    A = np.asarray([[float(Fraction(c)) for c in row["coeffs"]]
                    for row in doc["constraints"]], dtype=float)
    b = np.asarray([float(Fraction(row["rhs"])) for row in doc["constraints"]])
    rels = {row["rel"] for row in doc["constraints"]}
    return A, b, rels


def check_fm(system: dict, projected: dict, drop, rng, n_points: int = 48,
             margin: float = 1e-6) -> tuple:
    """Compare a projection with the original system on seeded points of the
    kept coordinates, in both directions: a point strictly inside the
    projection must extend to a solution, and a point outside it by more
    than the margin must not.  Returns (failures, points inside, outside)."""
    from scipy.optimize import linprog

    out = projected["result"]
    names = system["variables"]
    keep = [i for i, v in enumerate(names) if v not in drop]
    elim = [i for i, v in enumerate(names) if v in drop]
    if out["variables"] != [names[i] for i in keep]:
        return ["projected variables do not match the kept ones"], 0, 0
    if not out["constraints"] or out["trivially_infeasible"]:
        return ["projection of a feasible system is empty"], 0, 0
    A, b, _ = _rows(system)
    P, c, prels = _rows(out)
    if prels != {"<="}:
        return [f"unexpected projected relations {sorted(prels)}"], 0, 0
    Pn = np.maximum(np.abs(P).max(axis=1), 1.0)
    An = np.linalg.norm(A, axis=1)
    fails, n_in, n_out = [], 0, 0
    for _ in range(n_points):
        # the origin is strictly feasible (b > 0): scaling towards it puts
        # points on both sides of the projection's boundary
        u = rng.uniform(-1.5, 1.5, size=len(keep)) * rng.uniform() ** 2
        slack = ((c - P @ u) / Pn).min()
        if abs(slack) < margin:
            continue
        # max t s.t. A_e v + t*|a| <= b - A_k u, t <= 1: t > 0 iff the
        # original system is strictly feasible at u
        A_ub = np.hstack([A[:, elim], An[:, None]])
        res = linprog(np.r_[np.zeros(len(elim)), -1.0], A_ub=A_ub,
                      b_ub=b - A[:, keep] @ u,
                      bounds=[(None, None)] * len(elim) + [(None, 1.0)],
                      method="highs")
        if res.status != 0:
            fails.append(f"reference LP status {res.status} at {u}")
            continue
        t = -res.fun
        if slack > 0:
            n_in += 1
            if t < -margin:
                fails.append(f"projection contains {u.round(4)}, which has "
                             "no preimage")
        else:
            n_out += 1
            if t > margin:
                fails.append(f"projection excludes {u.round(4)}, which has "
                             "a preimage")
    return fails, n_in, n_out


def sauer(m: int, d: int) -> int:
    return sum(math.comb(m, i) for i in range(min(d, m) + 1))


def read_csv(path) -> tuple:
    """(header, rows) of a stratdef CSV, skipping '#' comment lines."""
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def check_growth(rows: list, m_values, vc_dim=None) -> list:
    fails = []
    counts = [int(r["distinct_traces"]) for r in rows]
    if [int(r["m"]) for r in rows] != list(m_values):
        fails.append("growth rows do not match the requested m values")
    if any(b < a for a, b in zip(counts, counts[1:])):
        fails.append(f"growth counts {counts} decrease in m")
    for m, cnt in zip(m_values, counts):
        cap = 2 ** m if vc_dim is None else sauer(m, vc_dim)
        if not 1 <= cnt <= cap:
            fails.append(f"growth count {cnt} at m={m} outside [1, {cap}]")
    return fails


def check_learn(rows: list, eps_grid, delta: float) -> list:
    fails = []
    if [float(r["eps"]) for r in rows] != list(eps_grid):
        fails.append("learn rows do not match the requested eps grid")
    for r in rows:
        if float(r["success_rate"]) < 1 - delta:
            fails.append(f"success rate {r['success_rate']} < 1 - {delta} "
                         f"at eps={r['eps']}")
    return fails


def load_json(path):
    return json.loads(Path(path).read_text())
