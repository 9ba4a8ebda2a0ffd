"""Shattering, growth estimation, sign patterns and the counting lemmas.

The exact pieces (trace sets on finite classes, Sauer sums, the ERM sample
threshold, the logarithmic bound lemmas, univariate sign-pattern counts) are
implemented with rational or high-precision arithmetic and are suitable as
test oracles; the sampled pieces (growth estimation for parametric classes,
multivariate sign patterns) report seeded lower bounds only.

Logarithms in the bound lemmas are base 2; the ERM threshold inequality uses
the natural exponential.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from .intervals import UndecidedComparison

if TYPE_CHECKING:  # sympy and mpmath are imported where they are used
    import sympy


class CapacityError(Exception):
    pass


# ---------------------------------------------------------------------------
# Trace sets and shattering


@dataclass
class LabelMatrix:
    """Deduplicated labelings of a point set by a class."""

    rows: tuple            # distinct label tuples
    points: tuple
    flagged_rows: int = 0   # hypotheses with an undecidable label, excluded

    @property
    def distinct(self) -> int:
        return len(self.rows)


def trace_set(labelers: Sequence[Callable], points: Sequence) -> LabelMatrix:
    """Distinct label vectors of a finite class on a point list.

    A labeler that raises UndecidedComparison on some point is excluded from
    the trace and counted in flagged_rows; labels are never guessed.
    """
    rows = set()
    flagged = 0
    for h in labelers:
        try:
            rows.add(tuple(bool(h(p)) for p in points))
        except UndecidedComparison:
            flagged += 1
    return LabelMatrix(tuple(sorted(rows)), tuple(points),
                       flagged_rows=flagged)


def is_shattered(labelers: Sequence[Callable], points: Sequence):
    """(shattered?, missing labelings)."""
    m = len(points)
    got = set(trace_set(labelers, points).rows)
    missing = [lab for lab in itertools.product((False, True), repeat=m)
               if lab not in got]
    return not missing, missing


def vc_lower_bound(labelers: Sequence[Callable], pool: Sequence,
                   budget: int = 20000):
    """Largest shattered subset of the pool found within the budget.

    Exhaustive over subsets by increasing size while the subset count fits
    the budget; returns (size, witness subset).  A lower bound only.
    """
    best = (0, ())
    spent = 0
    for size in range(1, len(pool) + 1):
        found = False
        for subset in itertools.combinations(pool, size):
            spent += 1
            if spent > budget:
                return best
            ok, _ = is_shattered(labelers, subset)
            if ok:
                best = (size, subset)
                found = True
                break
        if not found:
            return best
    return best


# ---------------------------------------------------------------------------
# Growth estimation


@dataclass
class GrowthReport:
    m_values: tuple
    counts: tuple          # max distinct traces observed per m
    slope: Optional[float]  # log2(count) vs log2(m) least-squares slope
    seed: int


def growth_estimate(label_fn: Callable, point_sampler: Callable,
                    param_sampler: Callable, m: int, trials: int,
                    seed: int = 0, param_draws: int = 2000) -> int:
    """Max distinct-trace count over sampled points and parameters.

    label_fn(params, points) -> label tuple.  A seeded lower estimate of the
    growth function at m.  Point and parameter streams use separate derived
    seeds that do not depend on m or on the trial count, so the estimate is
    monotone nondecreasing in both trials and m (larger point samples extend
    smaller ones, extra trials only add draws).
    """
    best = 0
    for trial in range(trials):
        point_rng = np.random.default_rng([seed, 1, trial])
        param_rng = np.random.default_rng([seed, 2, trial])
        points = point_sampler(m, point_rng)
        rows = set()
        for _ in range(param_draws):
            params = param_sampler(param_rng)
            rows.add(tuple(label_fn(params, points)))
        best = max(best, len(rows))
    return best


def growth_series(label_fn: Callable, point_sampler: Callable,
                  param_sampler: Callable, m_values: Sequence[int],
                  trials: int, seed: int = 0,
                  param_draws: int = 2000) -> GrowthReport:
    """Growth estimates over several m with a log-log slope fit."""
    counts = [growth_estimate(label_fn, point_sampler, param_sampler,
                              m, trials, seed, param_draws)
              for m in m_values]
    slope = None
    if len(m_values) >= 2 and all(c > 0 for c in counts):
        xs = np.log2(np.asarray(m_values, dtype=float))
        ys = np.log2(np.asarray(counts, dtype=float))
        slope = float(np.polyfit(xs, ys, 1)[0])
    return GrowthReport(tuple(m_values), tuple(counts), slope, seed)


def threshold_growth_exact(points: Sequence) -> int:
    """Exact growth of 1-D thresholds 1[x >= a] on a point multiset: the
    trace count equals (number of distinct points) + 1."""
    return len(set(points)) + 1


# ---------------------------------------------------------------------------
# Counting lemmas


def sauer_bound(m: int, d: int):
    """(exact sum of binomials, float (e*m/d)^d upper form)."""
    if d < 0 or m < d:
        raise CapacityError("need m >= d >= 0")
    exact = sum(math.comb(m, i) for i in range(d + 1))
    upper = 1.0 if d == 0 else (math.e * m / d) ** d
    return exact, upper


def erm_threshold(C, k: int, eps, delta) -> int:
    """Smallest m with C * (2m)^k * exp(-eps*m/2) <= delta.

    Evaluated at 50 decimal digits; the winning m and its predecessor are
    re-verified so the scan cannot be fooled by rounding.
    """
    import mpmath
    C = mpmath.mpf(str(C))
    eps_m = mpmath.mpf(str(eps))
    delta_m = mpmath.mpf(str(delta))
    if C < 1 or k < 1 or not 0 < eps_m or not 0 < delta_m:
        raise CapacityError("need C >= 1, k >= 1, eps > 0, delta > 0")
    with mpmath.workdps(50):
        def value(m):
            return C * (2 * mpmath.mpf(m)) ** k * mpmath.e ** (-eps_m * m / 2)

        m = 1
        while value(m) > delta_m:
            m += 1
            if m > 10 ** 9:
                raise CapacityError("threshold scan exceeded 10^9")
        assert value(m) <= delta_m
        assert m == 1 or value(m - 1) > delta_m
        return m


def log_self_bound(a, b) -> float:
    """Bound 2a + 4b*log2(4b) on any x satisfying x <= a + b*log2(x)."""
    a, b = float(a), float(b)
    if b < 1:
        raise CapacityError("need b >= 1")
    return 2 * a + 4 * b * math.log2(4 * b)


def log_self_extremal(a, b, hi: float = 1e12) -> float:
    """Largest x >= 1 with x <= a + b*log2(x), located by bisection on the
    decreasing side of a + b*log2(x) - x (brute-force companion to
    log_self_bound)."""
    a, b = float(a), float(b)

    def g(x):
        return a + b * math.log2(x) - x

    peak = max(b / math.log(2), 1.0)
    if g(peak) < 0:
        return 1.0 if g(1.0) >= 0 else 0.0
    lo, up = peak, peak * 2
    while g(up) >= 0:
        up *= 2
        if up > hi:
            raise CapacityError("extremal search escaped the cap")
    for _ in range(200):
        mid = (lo + up) / 2
        if g(mid) >= 0:
            lo = mid
        else:
            up = mid
    return lo


def vc_from_growth_bound(C, k) -> float:
    """Bound 2*log2(C) + 4k*log2(4k) on d whenever 2^d <= C * d^k."""
    C, k = float(C), float(k)
    if C < 1 or k < 1:
        raise CapacityError("need C >= 1 and k >= 1")
    return 2 * math.log2(C) + 4 * k * math.log2(4 * k)


def vc_consistency_bound(A, k) -> float:
    """Bound 4k*log2(A) on integers d with d <= k*log2(A*d/k)."""
    A, k = float(A), float(k)
    if A < 2 or k < 1:
        raise CapacityError("need A >= 2 and k >= 1")
    return 4 * k * math.log2(A)


def vc_consistency_extremal(A, k, cap: int = 10 ** 7) -> int:
    """Largest integer d with d <= k*log2(A*d/k), by scan."""
    A, k = float(A), float(k)
    best = 0
    d = 1
    while d <= cap:
        if d <= k * math.log2(A * d / k):
            best = d
            d += 1
        else:
            # the defining function d - k*log2(...) is eventually increasing;
            # once it fails past k/ln2 no larger d can satisfy it
            if d > k / math.log(2):
                break
            d += 1
    return best


# ---------------------------------------------------------------------------
# Sign patterns


def sign_pattern_count(polys: Sequence, mode: str = "exact-univariate",
                       samples: int = 2000, seed: int = 0,
                       n_vars: int = 1) -> int:
    """Number of sign vectors (sign p_1(t), ..., sign p_M(t)).

    exact-univariate: rational-coefficient polynomials in one variable; all
    real roots are isolated (multiplicities merged: a repeated root yields
    one root point) and the sign vector is evaluated at every root and at a
    rational point in every gap, below the smallest and above the largest
    root.  sampled: a seeded lower bound at uniform random points.
    """
    import sympy
    t = sympy.Symbol("t")
    exprs = [sympy.Poly(p, t) if not isinstance(p, sympy.Poly)
             else p for p in polys]
    if mode == "sampled":
        rng = np.random.default_rng(seed)
        syms = sorted(set().union(*[sympy.sympify(p).free_symbols
                                    for p in polys]) or {t}, key=str)
        if len(syms) > n_vars:
            raise CapacityError(f"polynomials use {len(syms)} variables, "
                                f"n_vars={n_vars}")
        pts = rng.uniform(-100, 100, size=(samples, len(syms)))
        seen = set()
        fns = [sympy.lambdify(syms, sympy.sympify(p), "numpy")
               for p in polys]
        for row in pts:
            vec = tuple(int(np.sign(f(*row))) for f in fns)
            seen.add(vec)
        return len(seen)
    if mode != "exact-univariate":
        raise CapacityError(f"unknown mode {mode!r}")

    roots = set()
    for p in exprs:
        if p.degree() <= 0:
            continue
        for root in sympy.real_roots(p.as_expr(), t):
            roots.add(root)
    ordered = sorted(roots, key=lambda r: r.evalf(50))
    # rational sample points: strictly between consecutive roots and on
    # both flanks, obtained from refined rational enclosures
    samples_at = list(ordered)
    rng_pts = []
    if ordered:
        # rational enclosure per root, refined until pairwise disjoint, so
        # midpoints between enclosures separate consecutive roots
        dx = Fraction(1, 2)
        while True:
            boxes = [_root_box(r, dx) for r in ordered]
            if all(boxes[i][1] < boxes[i + 1][0]
                   for i in range(len(boxes) - 1)):
                break
            dx /= 16
        rng_pts.append(boxes[0][0] - 1)
        for i in range(len(boxes) - 1):
            rng_pts.append((boxes[i][1] + boxes[i + 1][0]) / 2)
        rng_pts.append(boxes[-1][1] + 1)
    else:
        rng_pts.append(Fraction(0))

    seen = set()
    for q in rng_pts:
        seen.add(tuple(_sign_rational(p, q) for p in exprs))
    for r in samples_at:
        seen.add(tuple(_sign_at_root(p, r, t) for p in exprs))
    return len(seen)


def _root_box(root, dx: Fraction):
    import sympy
    if root.is_rational:
        r = sympy.Rational(root)
        v = Fraction(int(r.p), int(r.q))
        return (v, v)
    if hasattr(root, "eval_rational"):
        approx = Fraction(sympy.Rational(root.eval_rational(dx / 2)))
        return (approx - dx, approx + dx)
    digits = max(25, int(-math.log10(float(dx))) + 10)
    approx = Fraction(sympy.Rational(sympy.N(root, digits)))
    return (approx - dx, approx + dx)


def _sign_rational(p: sympy.Poly, q: Fraction) -> int:
    import sympy
    v = p.eval(sympy.Rational(q.numerator, q.denominator))
    return int(sympy.sign(v))


def _sign_at_root(p: sympy.Poly, root, t) -> int:
    import sympy
    if p.degree() <= 0:
        return int(sympy.sign(p.eval(0)))
    if root.is_rational:
        is_zero = p.eval(root) == 0
    else:
        minpoly = sympy.minimal_polynomial(root, t)
        is_zero = sympy.rem(p.as_expr(), minpoly, t) == 0
    if is_zero:
        return 0
    v = p.as_expr().subs(t, root)
    prec = 30
    while prec <= 480:
        approx = v.evalf(prec)
        if abs(approx) > 10 ** (-(prec // 2)):
            return int(sympy.sign(approx))
        prec *= 2
    raise CapacityError("could not certify a sign at an algebraic point")
