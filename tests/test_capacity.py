"""Tests for trace counting, growth estimates and capacity bound lemmas."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
import sympy

from stratdef import capacity as cap
from stratdef.capacity import (
    CapacityError,
    erm_threshold,
    growth_estimate,
    growth_series,
    is_shattered,
    log_self_bound,
    log_self_extremal,
    sauer_bound,
    sign_pattern_count,
    threshold_growth_exact,
    trace_set,
    vc_consistency_bound,
    vc_consistency_extremal,
    vc_from_growth_bound,
    vc_lower_bound,
)
from stratdef.constructions import build_fixed_blowup
from stratdef.intervals import UndecidedComparison


def _threshold_labelers(cuts):
    return [lambda x, c=c: x >= c for c in cuts]


# ---------------------------------------------------------------------------
# Traces and shattering


def test_trace_set_counts_distinct_rows():
    labelers = _threshold_labelers([0, 1, 2, 5])
    m = trace_set(labelers, [0.5, 1.5, 3.0])
    # cuts 0 -> (T,T,T); 1 -> (F,T,T); 2 -> (F,F,T); 5 -> (F,F,F)
    assert len(m.rows) == 4
    assert m.flagged_rows == 0


def test_trace_set_flags_undecided_labelers():
    def bad(x):
        raise UndecidedComparison("cannot decide")

    labelers = _threshold_labelers([0]) + [bad]
    m = trace_set(labelers, [1.0])
    assert len(m.rows) == 1
    assert m.flagged_rows == 1


def test_is_shattered_reports_missing():
    labelers = _threshold_labelers([0, 1, 2])
    ok, missing = is_shattered(labelers, [0.5])
    assert ok and missing == []
    ok, missing = is_shattered(labelers, [0.5, 1.5])
    assert not ok
    # thresholds cannot answer (True, False) on an increasing pair
    assert (True, False) in missing


def test_empty_point_set_is_shattered():
    ok, missing = is_shattered(_threshold_labelers([0]), [])
    assert ok and missing == []


def test_vc_lower_bound_halfspaces_in_plane():
    # 2-D halfspaces shatter 3 generic points but no 4
    rng = random.Random(3)
    pts = [(math.cos(2 * math.pi * i / 10 + 0.1),
            math.sin(2 * math.pi * i / 10 + 0.1)) for i in range(10)]
    labelers = []
    for _ in range(600):
        w = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = rng.uniform(-1, 1)
        labelers.append(lambda p, w=w, b=b: w[0] * p[0] + w[1] * p[1] >= b)
    size, witness = vc_lower_bound(labelers, pts, budget=6000)
    assert size == 3
    assert len(witness) == 3


def test_vc_lower_bound_blowup_class_is_one():
    inst = build_fixed_blowup(3, 1, Fraction(1, 2))
    labelers = [lambda x, s=frozenset(v): x in s
                for v in inst.supports.values()]
    pool = sorted({pt for v in inst.supports.values() for pt in v})[:12]
    size, _ = vc_lower_bound(labelers, pool, budget=4000)
    assert size == 1


def test_vc_lower_bound_blowup_anchors_shattered_strategically():
    # under the blowup the anchors are shattered: strategic labelers reach n
    inst = build_fixed_blowup(3, 1, Fraction(1, 2))
    s = Fraction(3, 4)
    labelers = [lambda x, pts=v: any(abs(q - x) <= s for q in pts)
                for v in inst.supports.values()]
    ok, missing = is_shattered(labelers, inst.anchors)
    assert ok, missing


# ---------------------------------------------------------------------------
# Growth estimates


def _threshold_label_fn(params, points):
    # one row of labels per parameter row
    return np.asarray(points)[None, :] >= params[:, :1]


def _point_sampler(m, rng):
    return list(rng.uniform(-1, 1, size=m))


def _param_sampler(rng, n):
    return rng.uniform(-1, 1, (n, 1))


def test_growth_estimate_thresholds_hits_exact_value():
    got = growth_estimate(_threshold_label_fn, _point_sampler,
                          _param_sampler, m=6, trials=8, seed=0,
                          param_draws=4000)
    assert got == 7  # m + 1 distinct traces for thresholds


def test_growth_estimate_monotone_in_trials_and_m():
    kw = dict(seed=1, param_draws=500)
    for m in (3, 5):
        prev = 0
        for trials in (1, 2, 4, 8):
            got = growth_estimate(_threshold_label_fn, _point_sampler,
                                  _param_sampler, m, trials, **kw)
            assert got >= prev
            prev = got
    a = growth_estimate(_threshold_label_fn, _point_sampler,
                        _param_sampler, 3, 4, **kw)
    b = growth_estimate(_threshold_label_fn, _point_sampler,
                        _param_sampler, 6, 4, **kw)
    assert b >= a


def test_growth_series_slope_linear_class():
    rep = growth_series(_threshold_label_fn, _point_sampler, _param_sampler,
                        m_values=[4, 8, 16, 32], trials=6, seed=0,
                        param_draws=3000)
    assert rep.counts == (5, 9, 17, 33)
    # growth ~ m + 1: log-log slope near 1, far below exponential
    assert 0.7 <= rep.slope <= 1.3


def test_threshold_growth_exact():
    assert threshold_growth_exact([1, 2, 3]) == 4
    assert threshold_growth_exact([1, 1, 2]) == 3
    assert threshold_growth_exact([]) == 1


# ---------------------------------------------------------------------------
# Counting lemmas


def test_sauer_bound_values():
    exact, upper = sauer_bound(10, 2)
    assert exact == 1 + 10 + 45
    assert upper == pytest.approx((math.e * 10 / 2) ** 2)
    assert sauer_bound(5, 0) == (1, 1.0)
    with pytest.raises(CapacityError):
        sauer_bound(1, 2)


def test_sauer_exact_below_upper_property():
    for m in range(1, 60):
        for d in range(1, m + 1):
            exact, upper = sauer_bound(m, d)
            assert exact <= upper * (1 + 1e-12), (m, d)


def test_erm_threshold_known_value():
    assert erm_threshold(1, 1, Fraction(1, 2), Fraction(1, 2)) == 17


def test_erm_threshold_definition_checked():
    import mpmath
    for C, k, eps, delta in ((1, 1, "0.5", "0.5"), (10, 2, "0.1", "0.05"),
                             (100, 3, "0.25", "0.01"),
                             (1000, 3, "0.001", "0.001")):
        m = erm_threshold(C, k, eps, delta)
        with mpmath.workdps(60):
            f = lambda mm: mpmath.mpf(C) * (2 * mm) ** k * \
                mpmath.e ** (-mpmath.mpf(eps) * mm / 2)
            assert f(m) <= mpmath.mpf(delta)
            assert m == 1 or f(m - 1) > mpmath.mpf(delta)


def test_erm_threshold_monotone_and_doubling_gap():
    eps = Fraction(1, 10)
    base = erm_threshold(5, 2, eps, Fraction(1, 20))
    doubled = erm_threshold(10, 2, eps, Fraction(1, 20))
    assert base < doubled
    # doubling C costs at most (2/eps)(ln 2 + k ln(m2/m1)) extra samples
    k = 2
    gap_bound = (2 / float(eps)) * (math.log(2)
                                    + k * math.log(doubled / base))
    assert doubled - base <= math.ceil(gap_bound) + 1
    # monotone in every argument that tightens the requirement
    assert erm_threshold(5, 3, eps, Fraction(1, 20)) >= base
    assert erm_threshold(5, 2, eps / 2, Fraction(1, 20)) >= base
    assert erm_threshold(5, 2, eps, Fraction(1, 40)) >= base


def test_log_self_bound_dominates_extremal():
    rng = random.Random(7)
    for _ in range(500):
        a = rng.uniform(0, 50)
        b = rng.uniform(1, 20)
        assert log_self_extremal(a, b) <= log_self_bound(a, b) + 1e-6, (a, b)


def test_log_self_extremal_is_a_solution():
    x = log_self_extremal(3, 2)
    assert x <= 3 + 2 * math.log2(x) + 1e-9
    assert (x + 1) > 3 + 2 * math.log2(x + 1)


def test_vc_from_growth_bound_dominates_scan():
    rng = random.Random(11)
    for _ in range(200):
        C = rng.uniform(1, 1000)
        k = rng.uniform(1, 10)
        bound = vc_from_growth_bound(C, k)
        # the lemma is the log-self bound at a = log2 C, b = k
        assert bound == log_self_bound(math.log2(C), k) == \
            2 * math.log2(C) + 4 * k * math.log2(4 * k), (C, k)
        # every integer d violating 2^d <= C*d^k must exceed no bound
        d = 1
        worst = 0
        while d <= 200000:
            if 2.0 ** min(d, 1023) <= C * float(d) ** k:
                worst = d
            d = d + 1 if d < 64 else int(d * 1.5)
        assert worst <= bound, (C, k)


def test_vc_consistency_bound_dominates_extremal():
    rng = random.Random(13)
    for _ in range(200):
        A = rng.uniform(2, 1000)
        k = rng.uniform(1, 10)
        assert vc_consistency_extremal(A, k) <= vc_consistency_bound(A, k), \
            (A, k)


def test_bound_lemma_input_validation():
    with pytest.raises(CapacityError):
        log_self_bound(1, 0.5)
    with pytest.raises(CapacityError):
        vc_from_growth_bound(0.5, 1)
    with pytest.raises(CapacityError):
        vc_consistency_bound(1.5, 1)
    with pytest.raises(CapacityError):
        erm_threshold(1, 1.5, "0.5", "0.5")  # (2m)^1.5 is no rational


# ---------------------------------------------------------------------------
# Sign patterns


def _coeffs(polys):
    """Coefficient lists, highest degree first, of sympy polynomials in t."""
    t = sympy.Symbol("t")
    return [[Fraction(int(c.p), int(c.q))
             for c in sympy.Poly(p, t).all_coeffs()] for p in polys]


def test_sign_pattern_count_linear_family():
    t = sympy.Symbol("t")
    # t, t - 1: patterns (-,-), (0,-), (+,-), (+,0), (+,+) = 5
    assert sign_pattern_count(_coeffs([t, t - 1])) == 5


def test_sign_pattern_count_single_poly():
    t = sympy.Symbol("t")
    assert sign_pattern_count(_coeffs([t**2 + 1])) == 1  # always positive
    assert sign_pattern_count(_coeffs([t**2])) == 2  # 0 at the double root


def test_sign_pattern_count_shared_irrational_root():
    t = sympy.Symbol("t")
    # t^2 - 2 and t - sqrt(2) share the root sqrt(2); counting must evaluate
    # exactly at the algebraic point, not nearby
    p1 = t**2 - 2
    p2 = t**3 - 2 * t  # roots 0, +-sqrt(2)
    got = sign_pattern_count(_coeffs([p1, p2]))
    # left to right: (+,-), (0,0) at -sqrt(2), (-,+), (-,0) at 0, (-,-),
    # (0,0) again at sqrt(2), (+,+) on the right flank -> 6 distinct
    assert got == 6
    # p/q is the first convergent of sqrt(2) with q^2 > 10^270, so q*t - p
    # has its root p/q about 10^-271 above sqrt(2): (+,-), (0,-) at
    # -sqrt(2), (-,-), (0,-) at sqrt(2), (+,-), (+,0) at p/q, (+,+)
    p, q = 1, 1
    while q * q <= 10 ** 270:
        p, q = p + 2 * q, p + q
    assert sign_pattern_count(_coeffs([t**2 - 2, q * t - p])) == 5


def test_sign_pattern_count_quadratics_bound():
    # M quadratics admit at most 4M + 1 sign patterns on the line
    t = sympy.Symbol("t")
    rng = random.Random(17)
    for _ in range(10):
        M = rng.randint(1, 5)
        polys = [rng.randint(-3, 3) * t**2 + rng.randint(-3, 3) * t
                 + rng.randint(-3, 3) for _ in range(M)]
        polys = [p if sympy.Poly(p, t).degree() >= 0 else p + 1
                 for p in polys]
        if any(p == 0 for p in polys):
            continue
        assert sign_pattern_count(_coeffs(polys)) <= 4 * M + 1


def test_sign_pattern_count_beyond_float_range():
    huge = [[10 ** 400, 1]]
    assert sign_pattern_count(huge) == 3


# ---------------------------------------------------------------------------
# Runtime dependencies


def test_runtime_loads_neither_sympy_nor_mpmath():
    # sympy and mpmath are test-only oracles: importing every module of the
    # package and running the exact capacity functions loads neither
    import stratdef
    code = (
        "import importlib, pkgutil, sys, stratdef\n"
        "for m in pkgutil.iter_modules(stratdef.__path__):\n"
        "    importlib.import_module('stratdef.' + m.name)\n"
        "from stratdef.capacity import erm_threshold, sign_pattern_count\n"
        "assert sign_pattern_count([[1, 0, -2], [1, 0]]) == 7\n"
        "assert erm_threshold(1, 1, '0.5', '0.5') == 17\n"
        "print(sorted({'sympy', 'mpmath'} & set(sys.modules)))\n")
    src = os.path.dirname(os.path.dirname(stratdef.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
