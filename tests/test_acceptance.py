"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
pass/fail line (visible under `pytest -s`).  Every check runs against an
oracle that is independent of the code path under test: closed-form
geometry, vertex enumeration, exhaustive scans, or exact grid evaluation.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from stratdef import capacity, constructions, families, learn, solve
from stratdef import formula as fm
from stratdef import transform as tr
from stratdef.cli import main as cli_main
from stratdef.intervals import in_open_interval, sqrt2_enclosure, \
    frac_enclosure

from helpers import (
    feasible_with_one_witness,
    np_eval_formula,
    system_holds,
)
from test_transform import _random_existential_pair


def _report(num: int, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. Fixed-radius blowup reproduction


def test_criterion_01_fixed_blowup():
    radii = [Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    elapsed_12 = None
    ok = True
    for n in (3, 8, 12):
        t0 = time.perf_counter()
        inst = constructions.build_fixed_blowup(n, 1, Fraction(1, 2),
                                                radii=radii)
        dt = time.perf_counter() - t0
        if n == 12:
            elapsed_12 = dt
        names = {c.name for c in inst.certificates if c.passed}
        ok = ok and inst.passed()
        ok = ok and {"supports_pairwise_disjoint",
                     "class_shatters_a_singleton"} <= names
        for s in ("1/2", "3/4", "1"):
            ok = ok and f"strategic_shattering_s={s}" in names
        # exact disjointness: n points per subset, all distinct
        pts = [q for v in inst.supports.values() for q in v]
        ok = ok and len(pts) == n * (1 << n) == len(set(pts))
        ok = ok and all(isinstance(q, Fraction) for q in pts)
    ok = ok and elapsed_12 is not None and elapsed_12 < 60.0
    _report(1, ok, f"n=12 in {elapsed_12:.1f}s")


# ---------------------------------------------------------------------------
# 2. All-radii construction


def test_criterion_02_all_radii():
    expected = {Fraction(3, 10): 1, Fraction(3, 5): 0, Fraction(6, 5): -1}
    ok = True
    for s, m in expected.items():
        inst = constructions.build_all_radii(260, s, 8)
        ok = ok and inst.passed() and inst.n == 8
        ok = ok and inst.params["m"] == m
        # the selected dyadic block actually covers s
        ok = ok and Fraction(2) ** (-m - 1) <= s <= Fraction(2) ** -m
        names = {c.name for c in inst.certificates if c.passed}
        ok = ok and f"strategic_shattering_s={s.numerator}/{s.denominator}" \
            in names
    _report(2, ok)


# ---------------------------------------------------------------------------
# 3. Partition pathology


def test_criterion_03_partition_pathology():
    inst = constructions.build_partition_pathology(4)
    passed = {c.name for c in inst.certificates if c.passed}
    ok = inst.passed()
    ok = ok and {"supports_pairwise_disjoint", "class_shatters_a_singleton",
                 "partition_cells_vc_at_most_one",
                 "strategic_shattering"} <= passed
    # independent exact re-check of the strategic labels at the half-integer
    # anchors 1.5, 2.5, 3.5, 4.5 (same unit cells as the integer anchors)
    anchors = [Fraction(2 * i + 1, 2) for i in range(1, 5)]
    traces = set()
    for key, pts in inst.supports.items():
        trace = tuple(i + 1 for i, anc in enumerate(anchors)
                      if any(math.floor(q) == math.floor(anc) for q in pts))
        ok = ok and trace == key
        traces.add(trace)
    ok = ok and len(traces) == 16
    ok = ok and all(isinstance(q, Fraction)
                    for v in inst.supports.values() for q in v)
    _report(3, ok)


# ---------------------------------------------------------------------------
# 4. Fractional-part construction


def test_criterion_04_frac_construction():
    r = Fraction(1, 4)
    inst = constructions.build_frac_construction(3, r)
    ok = inst.passed()
    names = {c.name for c in inst.certificates if c.passed}
    ok = ok and {"interval_induction", "witness_multipliers",
                 "strategic_shattering", "cross_cell_separation"} <= names

    # replay the interval induction from the reported moduli and verify the
    # growth condition b_{k+1} > 2 / v at every step
    moduli = inst.params["moduli"]
    intervals = {(): (Fraction(0), Fraction(1))}
    for k, b in enumerate(moduli, start=1):
        v = min(hi - lo for lo, hi in intervals.values())
        ok = ok and b > 2 / v
        nxt = {}
        for key, (lo, hi) in intervals.items():
            j = math.floor(lo * b) + 1
            ok = ok and lo < Fraction(j, b) and Fraction(j + 1, b) <= hi
            mid = Fraction(j) + Fraction(1, 2)
            nxt[key] = (Fraction(j, b), (mid - r) / b)
            nxt[key + (k,)] = ((mid - r) / b, (mid + r) / b)
        intervals = nxt

    mults = inst.metadata["witness_multipliers"]
    ok = ok and len(mults) == 8

    # certified spot re-check with independent sqrt(2) enclosures: the full
    # subset (1, 2, 3) must put frac(m * b * sqrt(2)) near 1/2 at every b
    m_full = mults["(1, 2, 3)"]
    for b in moduli:
        fn = lambda bits, mult=m_full * b: frac_enclosure(
            lambda bb: sqrt2_enclosure(bb).scale(mult), bits)
        ok = ok and in_open_interval(fn, Fraction(1, 2) - r,
                                     Fraction(1, 2) + r)
    _report(4, ok)


# ---------------------------------------------------------------------------
# 5. Strategic transform semantics


def test_criterion_05_transform_semantics():
    rng = np.random.default_rng(5)
    fam = families.halfspace(2)
    ok = True
    checked = 0
    for cfg in range(10):
        w = rng.uniform(-2.0, 2.0, 2)
        while float(np.linalg.norm(w)) < 0.2:
            w = rng.uniform(-2.0, 2.0, 2)
        b = float(rng.uniform(-1.0, 1.0))
        rho = Fraction(int(rng.integers(1, 9)), 8)
        neigh = families.lp_ball(2, 2, rho)
        spec = tr.strategic_transform(fam.formula(), neigh.formula())
        body = spec.transformed.body

        X = rng.uniform(-2.0, 2.0, size=(10 ** 5, 2))
        norm = float(np.linalg.norm(w))
        margin = X @ w - b + float(rho) * norm
        # the ball's best response moves along w: the strategic class is the
        # halfspace shifted by rho * ||w||, and that point also witnesses
        # the existential formula (or refutes it, being the maximizer)
        y_star = X + float(rho) * w / norm
        env = {"x": X, "a": np.tile([w[0], w[1], b], (len(X), 1)),
               "w": y_star}
        got = np_eval_formula(body, env)
        mask = np.abs(margin) > 1e-6
        checked += int(mask.sum())
        if np.any(got[mask] != (margin[mask] > 0)):
            ok = False

        # spot checks through the actual witness search
        for idx in np.nonzero(np.abs(margin) > 0.1)[0][:5]:
            res = solve.witness_search(spec.transformed, X[idx],
                                       [w[0], w[1], b])
            if res.found != (margin[idx] > 0):
                ok = False
    _report(5, ok, f"{checked} margin-separated points, 0 disagreements"
            if ok else "")


# ---------------------------------------------------------------------------
# 6. Complexity bookkeeping


def test_criterion_06_complexity_doubling():
    rng = random.Random(6)
    ok = True
    for _ in range(100):
        h, n, l = _random_existential_pair(rng)
        spec = tr.strategic_transform(h, n, input_dim=l)
        F = max(spec.hypothesis_profile.format,
                spec.neighborhood_profile.format)
        D = max(spec.hypothesis_profile.degree,
                spec.neighborhood_profile.degree)
        # the profile of the output is recomputed from scratch on the
        # transformed formula, not carried over from the inputs
        k = max((v.index for at in fm.formula_atoms(h)
                 for v in fm.atom_vars(at) if v.block == "a"), default=-1) + 1
        prof = fm.complexity(fm.to_graph_form(spec.transformed).formula,
                             input_dim=l, param_dim=k)
        if prof.format > 2 * F or prof.degree > 2 * D:
            ok = False
    _report(6, ok)


# ---------------------------------------------------------------------------
# 7. Fourier-Motzkin elimination vs a grid-feasibility oracle


def test_criterion_07_fm_oracle():
    rng = random.Random(7)
    grid = [Fraction(k, 4) for k in range(-8, 9)]
    ok = True
    points_checked = 0
    for _ in range(200):
        d = rng.choice([2, 2, 2, 3, 3, 4])
        names = [f"v{i}" for i in range(d)]
        rows = []
        for _ in range(rng.randint(2, 8)):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
            if all(c == 0 for c in coeffs):
                coeffs[rng.randrange(d)] = Fraction(1)
            rel = rng.choice(["<=", "<=", "<=", "<", "="])
            rows.append((coeffs, rel, Fraction(rng.randint(-4, 4))))
        sys_in = solve.LinearSystem.make(names, rows)
        drop = names[rng.randrange(d)]
        proj = solve.fm_eliminate(sys_in, [drop])
        rest = [v for v in names if v != drop]
        feasible = feasible_with_one_witness(sys_in, drop)
        holds = system_holds(proj)
        for combo in itertools.product(grid, repeat=len(rest)):
            point = dict(zip(rest, combo))
            want = feasible(point)
            if want != holds(point):
                ok = False
            points_checked += 1
        if not ok:
            break
    _report(7, ok, f"{points_checked} grid points")


# ---------------------------------------------------------------------------
# 8. Earth-mover distances vs transport-polytope vertex enumeration


def _peel_support(sup, x, y, l):
    """The coupling on the spanning tree sup of K_{l,l}: a leaf's one cell
    carries the leaf's remaining mass, so peeling leaves fixes every flow;
    None when mass is left over, i.e. the marginals' totals differ."""
    rest = list(x) + list(y)          # row nodes, then column nodes
    edges = {k: (i, l + j) for k, (i, j) in enumerate(sup)}
    degree = [0] * (2 * l)
    for u, v in edges.values():
        degree[u] += 1
        degree[v] += 1
    flow = [None] * len(sup)
    while edges:
        k, leaf, other = next((k, u, v) for k, e in edges.items()
                              for u, v in (e, e[::-1]) if degree[u] == 1)
        flow[k] = rest[leaf]
        rest[other] -= rest[leaf]
        rest[leaf] = 0
        degree[leaf] -= 1
        degree[other] -= 1
        del edges[k]
    return None if any(rest) else flow


def _is_spanning_tree(sup, l):
    """True when the 2l - 1 cells of sup, read as edges between l row nodes
    and l column nodes, close no cycle (union-find), i.e. span K_{l,l}."""
    root = list(range(2 * l))

    def find(u):
        while root[u] != u:
            u = root[u]
        return u
    for i, j in sup:
        a, b = find(i), find(l + j)
        if a == b:
            return False
        root[a] = b
    return True


def _emd_by_vertices(x, y, ground):
    """Exact minimum-cost coupling by enumerating vertex bases.

    Every vertex of the transport polytope, degenerate ones included, is the
    unique coupling on some basis of 2l - 1 cells that forms a spanning tree
    of K_{l,l}; enumerating those bases visits every vertex."""
    l = len(ground)
    x = [Fraction(v) for v in x]
    y = [Fraction(v) for v in y]
    cells = [(i, j) for i in range(l) for j in range(l)]
    best = None
    for sup in itertools.combinations(cells, 2 * l - 1):
        if not _is_spanning_tree(sup, l):
            continue
        vals = _peel_support(sup, x, y, l)
        if vals is None or any(v < 0 for v in vals):
            continue
        cost = sum(ground[i][j] * v for (i, j), v in zip(sup, vals))
        if best is None or cost < best:
            best = cost
    return best


def test_criterion_08_emd():
    ok = True
    ground = families.footnote_metric()
    ok = ok and families.emd_value((1, 0, 0), (0, 0, 1), ground) == 2
    ok = ok and families.emd_value((0, 1, 0), (0, 1, 0), ground) == 0

    rng = random.Random(8)
    for trial in range(50):
        l = (2, 2, 3, 3, 4)[trial % 5]
        g = [[Fraction(0)] * l for _ in range(l)]
        for i in range(l):
            for j in range(i + 1, l):
                g[i][j] = g[j][i] = Fraction(rng.randint(1, 5), 2)
        def simplex():
            cuts = sorted(rng.randint(0, 12) for _ in range(l - 1))
            parts = [a - b for a, b in zip(cuts + [12], [0] + cuts)]
            return [Fraction(p, 12) for p in parts]
        x, y = simplex(), simplex()
        want = _emd_by_vertices(x, y, g)
        got = families.emd_value(x, y, g)
        if want is None or got != want:
            ok = False
        if float(got) == 0.0 and x != y and any(gr != 0 for row in g
                                                for gr in row):
            # zero cost with distinct marginals is only possible when some
            # ground distance vanishes off the diagonal, which we excluded
            ok = False
    _report(8, ok)


# ---------------------------------------------------------------------------
# 9. Counting-lemma suite


def test_criterion_09_counting_lemmas():
    ok = capacity.erm_threshold(1, 1, 0.5, 0.5) == 17

    rng = random.Random(9)
    for _ in range(500):
        a = rng.uniform(0.0, 100.0)
        b = rng.uniform(1.0, 50.0)
        x_star = capacity.log_self_extremal(a, b)
        if x_star > capacity.log_self_bound(a, b) + 1e-6:
            ok = False
        # the extremal really satisfies the defining inequality
        if x_star >= 1 and x_star > a + b * math.log2(x_star) + 1e-6:
            ok = False

    for _ in range(200):
        A = rng.uniform(2.0, 10.0 ** 6)
        k = rng.randint(1, 40)
        d_star = capacity.vc_consistency_extremal(A, k)
        if d_star > capacity.vc_consistency_bound(A, k):
            ok = False
        if d_star >= 1 and d_star > k * math.log2(A * d_star / k) + 1e-9:
            ok = False
    _report(9, ok)


# ---------------------------------------------------------------------------
# 10. Growth-function shape


def test_criterion_10_growth_shape():
    fam = families.halfspace(2)
    neigh = families.lp_ball(2, 2, Fraction(1, 2))

    def label_fn(params, X):
        return families.batch_strategic_labels(fam, neigh, params, X)

    def point_sampler(m, rng):
        return rng.uniform(-1.0, 1.0, size=(m, 2))

    def param_sampler(rng, n):
        return rng.uniform(-2.0, 2.0, (n, 3))

    report = capacity.growth_series(label_fn, point_sampler, param_sampler,
                                    [8, 16, 32, 64], trials=3, seed=10)
    ok = report.slope is not None and report.slope <= 3.3

    # exact one-dimensional thresholds: m + 1 traces on m distinct points
    for m in (8, 16, 32, 64):
        points = [Fraction(i, m) for i in range(m)]
        cuts = [points[0] - 1] + \
            [(p + q) / 2 for p, q in zip(points, points[1:])] + \
            [points[-1] + 1]
        labelers = [lambda v, c=c: v >= c for c in cuts]
        count = capacity.trace_set(labelers, points).distinct
        if count != m + 1 or capacity.threshold_growth_exact(points) != m + 1:
            ok = False
    _report(10, ok, f"slope={report.slope:.2f} counts={report.counts}")


# ---------------------------------------------------------------------------
# 11. ERM sample-complexity sweep shape


def test_criterion_11_erm_sweep():
    fam = families.halfspace(2)
    neigh = families.lp_ball(2, 2, Fraction(1, 4))
    target = [1.0, 0.5, 0.1]
    report = learn.sample_complexity_sweep(
        fam, neigh, target, [0.2, 0.1, 0.05], delta=0.1, trials=20, seed=11)
    products = [r.product for r in report.rows]
    ok = len(products) == 3
    peak = max(products[0], 1.0)
    for p in products:
        if p > 4.0 * peak:
            ok = False
    ok = ok and all(r.success_rate >= 0.9 for r in report.rows)
    ok = ok and all(r.zero_error_rate >= 0.95 for r in report.rows)
    _report(11, ok, f"m_hat={[r.m_hat for r in report.rows]} "
            f"products={[round(p, 2) for p in products]}")


# ---------------------------------------------------------------------------
# 12. CLI determinism


def test_criterion_12_cli_determinism(tmp_path):
    runs = [
        ["transform", "--hypothesis", "halfspace:l=2",
         "--neighborhood", "lp:l=2,p=2,r=1/2", "--out",
         str(tmp_path / "t.json")],
        ["verify-blowup", "--construction", "fixed", "--n", "3",
         "--out", str(tmp_path / "c.json")],
        ["growth", "--family", "threshold:l=1", "--m", "8,16",
         "--trials", "2", "--param-draws", "300",
         "--csv", str(tmp_path / "g.csv")],
        ["learn", "--family", "threshold:l=1", "--eps", "0.5,0.25",
         "--trials", "3", "--budget", "40",
         "--csv", str(tmp_path / "l.csv")],
    ]
    ok = True
    for argv in runs:
        out = tmp_path / argv[argv.index("--out") + 1 if "--out" in argv
                              else argv.index("--csv") + 1].split("/")[-1]
        if cli_main(argv) != 0:
            ok = False
            continue
        first = out.read_bytes()
        if cli_main(argv) != 0 or out.read_bytes() != first:
            ok = False
        # the artifact embeds its config; timestamps live in the sidecar
        if out.suffix == ".json":
            doc = json.loads(first)
            if set(doc) != {"version", "config", "result"}:
                ok = False
    _report(12, ok)
