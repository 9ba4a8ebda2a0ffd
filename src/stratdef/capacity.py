"""Shattering, growth estimation, sign patterns and the counting lemmas.

The exact pieces (trace sets on finite classes, Sauer sums, the ERM sample
threshold, the logarithmic bound lemmas, univariate sign-pattern counts) are
decided over the rationals or with certified enclosures and are suitable as
test oracles; the one sampled piece, growth estimation for parametric
classes, reports seeded lower bounds only.

Logarithms in the bound lemmas are base 2; the ERM threshold inequality uses
the natural exponential.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from . import VerificationFailure
from .intervals import (RatInterval, UndecidedComparison, certified_sign,
                        exp_enclosure)


class CapacityError(VerificationFailure):
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


def growth_estimate(label_fn: Callable, point_sampler: Callable,
                    param_sampler: Callable, m: int, trials: int,
                    seed: int = 0, param_draws: int = 2000) -> int:
    """growth_series at the single sample size m: its count."""
    return growth_series(label_fn, point_sampler, param_sampler, [m], trials,
                         seed, param_draws).counts[0]


def growth_series(label_fn: Callable, point_sampler: Callable,
                  param_sampler: Callable, m_values: Sequence[int],
                  trials: int, seed: int = 0,
                  param_draws: int = 2000) -> GrowthReport:
    """Max distinct-trace count per m over sampled points and parameters,
    with a log-log slope fit.

    label_fn(Theta, points) -> bool matrix [param_draws, len(points)], one
    row of labels per row of Theta.  param_sampler(rng, n) returns n
    parameter vectors as the rows of a matrix.  Each trial draws Theta once
    (n = param_draws), draws and labels max(m_values) points once, and
    counts the distinct rows of the first m columns for each m.  A seeded
    lower estimate of the growth function at each m.  Point and parameter
    streams use separate derived seeds that do not depend on m or on the
    trial count, so the estimate is monotone nondecreasing in both trials
    and m (point_sampler's m points are the first m of a larger draw, a
    point's labels do not depend on the other points, and extra trials
    only add draws).
    """
    if any(m < 1 for m in m_values) or param_draws < 1:
        raise CapacityError("m and param_draws must be positive")
    counts = [0] * len(m_values)
    for trial in range(trials if counts else 0):
        points = point_sampler(max(m_values),
                               np.random.default_rng([seed, 1, trial]))
        theta = np.asarray(param_sampler(
            np.random.default_rng([seed, 2, trial]), param_draws))
        labels = np.asarray(label_fn(theta, points))
        for j, m in enumerate(m_values):
            rows = np.packbits(labels[:, :m], axis=1)
            # distinct rows by sorting: np.unique imports numpy.ma (0.6 MB)
            rows = rows[np.lexsort(rows.T)]
            counts[j] = max(counts[j],
                            1 + int((rows[1:] != rows[:-1]).any(1).sum()))
    slope = None
    if len(m_values) >= 2 and all(c > 0 for c in counts):
        xs = np.log2(np.asarray(m_values, dtype=float))
        ys = np.log2(np.asarray(counts, dtype=float))
        slope = float(np.polyfit(xs, ys, 1)[0])
    return GrowthReport(tuple(m_values), tuple(counts), slope)


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

    C, k, eps and delta are read exactly as Fractions.  Each comparison is
    decided by certified_sign on an enclosure of exp, and the answer's
    predecessor is one of the certified failures.
    """
    C, k, eps, delta = (Fraction(v) for v in (C, k, eps, delta))
    if C < 1 or k < 1 or k.denominator != 1 or not 0 < eps or not 0 < delta:
        raise CapacityError("need C >= 1, integer k >= 1, eps > 0, delta > 0")

    def holds(m: int) -> bool:
        lhs = RatInterval.point(C * (2 * m) ** k)
        return certified_sign(lambda bits: exp_enclosure(
            eps * m / 2, bits).scale(delta) - lhs) >= 0

    # the left side rises up to m = 2k/eps and falls after it: if m = 1
    # fails, so does every m <= 2k/eps, and past it the failures are a prefix.
    # lo is 0 or an m certified to fail, hi is the next m to try
    lo, hi = 0, 1
    while not holds(hi):
        lo, hi = hi, max(2 * hi, math.floor(2 * k / eps) + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


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
    """Bound 2*log2(C) + 4k*log2(4k) on d whenever 2^d <= C * d^k: taking
    log2, d <= log2(C) + k*log2(d), the log-self bound at a = log2 C, b = k."""
    if float(C) < 1 or float(k) < 1:
        raise CapacityError("need C >= 1 and k >= 1")
    return log_self_bound(math.log2(C), k)


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


def sign_pattern_count(polys: Sequence) -> int:
    """Number of sign vectors (sign p_1(t), ..., sign p_M(t)) over real t.

    Each polynomial is a coefficient sequence, highest degree first (the
    numpy.polyval order).  Decided over the rationals: the distinct real
    roots of the product of the inputs are isolated with Sturm sequences (a
    repeated root is one root point) and the sign vector is taken at every
    root and at a rational point in every gap and on both flanks.
    """
    ps = [_trim([Fraction(c) for c in p]) for p in polys]
    product = functools.reduce(np.polymul, [p for p in ps if len(p) > 1],
                               [Fraction(1)])
    roots = _isolate(_sturm(list(product)))
    points = [x for ab in roots for x in ab] or [Fraction(0)]
    seen = {tuple(_sign_at(p, x) for p in ps) for x in points}
    chains = [_sturm(p) for p in ps]
    for a, b in roots:
        # (a, b) holds one root of the product and no other root of any
        # input: p is 0 there iff it has a root in (a, b), else has p(b)'s sign
        seen.add(tuple(_sign_at(p, b) if _variations(c, a) == _variations(c, b)
                       else 0 for p, c in zip(ps, chains)))
    return len(seen)


def _trim(p: list) -> list:
    """p without leading zeros.  Polynomials here are lists of Fractions,
    highest degree first (np.polymul multiplies them exactly); [] is 0."""
    while p and p[0] == 0:
        p = p[1:]
    return p


def _sign_at(p: list, x: Fraction) -> int:
    v = Fraction(0)
    for c in p:
        v = v * x + c
    return (v > 0) - (v < 0)


def _sturm(p: list) -> list:
    """Sturm chain p, p', -rem(p, p'), ...  Its sign variations count the
    distinct real roots of p between two non-roots even when p is not
    squarefree (Basu, Pollack & Roy, ch. 2)."""
    n = len(p) - 1
    chain = [p, [c * (n - i) for i, c in enumerate(p[:-1])]]
    while chain[-1]:
        r, q = chain[-2], chain[-1]
        while len(r) >= len(q):
            f = r[0] / q[0]
            r = _trim([c - f * d for c, d in zip(r, q)] + r[len(q):])
        chain.append([-c for c in r])
    return chain[:-1]


def _variations(chain: list, x: Fraction) -> int:
    """Sign changes along the Sturm chain at x.  For non-roots a < b,
    _variations(a) - _variations(b) is the number of distinct roots of
    chain[0] in (a, b)."""
    signs = [s for s in (_sign_at(q, x) for q in chain) if s]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def _isolate(chain: list) -> list:
    """Disjoint open intervals (a, b), one per distinct real root of
    chain[0], each holding exactly that root; no endpoint is a root."""
    p = chain[0]
    bound = 1 + max(map(abs, p[1:]), default=0) / abs(p[0])  # Cauchy bound
    out = []
    todo = [(-bound, bound)]
    while todo:
        a, b = todo.pop()
        n = _variations(chain, a) - _variations(chain, b)
        if n == 1:
            out.append((a, b))
        elif n > 1:
            mid = (a + b) / 2
            while _sign_at(p, mid) == 0:
                mid = (a + mid) / 2
            todo += [(mid, b), (a, mid)]
    return out
