"""Tests for the certified lower-bound constructions."""

from __future__ import annotations

import ast
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stratdef import constructions as C
from stratdef.constructions import (
    AllRadiiFamily,
    ConstructionError,
    build_all_radii,
    build_fixed_blowup,
    build_frac_construction,
    build_partition_pathology,
)
from stratdef.intervals import frac_enclosure, in_open_interval, sqrt2_enclosure

from helpers import ref_frac_sqrt2_in, ref_least_sqrt2_multiplier


# ---------------------------------------------------------------------------
# Fixed blowup


def test_fixed_blowup_passes_certificates():
    inst = build_fixed_blowup(4, 1, Fraction(1, 2))
    assert inst.passed()
    names = [c.name for c in inst.certificates]
    assert "supports_pairwise_disjoint" in names
    assert "support_placement" in names
    assert sum(1 for n in names if n.startswith("strategic_shattering")) == 3


# (r, rp, offset, radii): dyadic, then denominators 3, 7, 9 and 5
BLOWUP_INPUTS = [
    (Fraction(1), Fraction(1, 2), 0,
     (Fraction(1, 2), Fraction(3, 4), Fraction(1))),
    (Fraction(1, 3), Fraction(1, 7), Fraction(2, 9),
     (Fraction(1, 7), Fraction(1, 5), Fraction(1, 3))),
]


def test_fixed_blowup_supports_disjoint_and_in_bands():
    for r, rp, offset, radii in BLOWUP_INPUTS:
        inst = build_fixed_blowup(3, r, rp, radii=radii, offset=offset)
        assert inst.anchors == [offset + 10 * r * i for i in (1, 2, 3)]
        seen = set()
        for key, pts in inst.supports.items():
            for pt in pts:
                assert pt not in seen
                seen.add(pt)
            sset = set(key)
            for i, (anchor, pt) in enumerate(zip(inst.anchors, pts),
                                             start=1):
                d = abs(pt - anchor)
                if i in sset:
                    assert d < rp
                else:
                    assert r < d < 2 * r


def test_fixed_blowup_shatters_all_radii_in_window():
    # independent re-check of strategic shattering: at each radius in
    # [rp, r] the blown-up label of anchor i under h_S must be [i in S]
    for r, rp, offset, radii in BLOWUP_INPUTS:
        inst = build_fixed_blowup(3, r, rp, radii=radii, offset=offset)
        for s in radii:
            for key, pts in inst.supports.items():
                for i, anchor in enumerate(inst.anchors, start=1):
                    reached = any(abs(q - anchor) <= s for q in pts)
                    assert reached == (i in set(key)), (s, key, i)


def test_fixed_blowup_base_class_not_shattering_pairs():
    # without the blowup the class itself must have VC dimension 1:
    # no pair of points realizes all four labelings
    inst = build_fixed_blowup(3, 1, Fraction(1, 2))
    points = sorted({pt for v in inst.supports.values() for pt in v})
    import itertools
    for p, q in itertools.combinations(points, 2):
        got = {(p in set(v), q in set(v)) for v in inst.supports.values()}
        got.add((False, False))
        assert len(got) < 4, (p, q)


def test_fixed_blowup_rejects_bad_params():
    with pytest.raises(ConstructionError):
        build_fixed_blowup(3, 1, 2)  # rp > r
    with pytest.raises(ConstructionError):
        build_fixed_blowup(0, 1, Fraction(1, 2))
    with pytest.raises(ConstructionError):
        build_fixed_blowup(2, 1, Fraction(1, 2), radii=[Fraction(1, 4)])


def test_fixed_blowup_scales_to_n_12():
    inst = build_fixed_blowup(12, 1, Fraction(1, 2),
                              radii=[Fraction(1, 2)])
    assert inst.passed()
    assert len(inst.supports) == 4096


# ---------------------------------------------------------------------------
# All radii at once


def test_radius_exponent_window():
    # unique m with 2^-(m+1) < s <= 2^-m
    assert AllRadiiFamily.radius_exponent(Fraction(1)) == 0
    assert AllRadiiFamily.radius_exponent(Fraction(1, 2)) == 1
    assert AllRadiiFamily.radius_exponent(Fraction(1, 3)) == 1
    assert AllRadiiFamily.radius_exponent(Fraction(2, 3)) == 0
    assert AllRadiiFamily.radius_exponent(Fraction(3)) == -2
    with pytest.raises(ConstructionError):
        AllRadiiFamily.radius_exponent(0)


def test_radius_exponent_window_property():
    for num in range(1, 40):
        for den in range(1, 40):
            s = Fraction(num, den)
            m = AllRadiiFamily.radius_exponent(s)
            assert Fraction(2) ** -(m + 1) < s <= Fraction(2) ** -m


def test_block_layout_unit_gaps_and_coverage():
    fam = AllRadiiFamily(40)
    assert len(fam.blocks) == 40
    prev_end = None
    for blk in fam.blocks:
        if prev_end is not None:
            assert blk.offset == prev_end + 1
        prev_end = blk.offset + blk.length
    # every block exponent lies in the enumeration window
    M = max(1, math.ceil(math.log2(40)))
    assert all(-M <= b.m <= M for b in fam.blocks)


def test_select_block_prefers_smallest_sufficient():
    fam = AllRadiiFamily(260)
    blk = fam.select_block(Fraction(1, 3), 8)
    assert blk.m == 1 and blk.n >= 8
    smaller = [b for b in fam.blocks if b.m == 1 and 8 <= b.n < blk.n]
    assert not smaller


def test_select_block_reports_sufficient_budget():
    fam = AllRadiiFamily(10)
    with pytest.raises(ConstructionError) as e:
        fam.select_block(Fraction(1, 3), 9)
    assert "suffices" in str(e.value)


import functools


@functools.lru_cache(maxsize=None)
def _all_radii(s_num, s_den):
    # cert_cap trimmed for unit-test speed; the default cap is exercised
    # by the acceptance suite
    return build_all_radii(260, Fraction(s_num, s_den), 8, cert_cap=5)


def test_build_all_radii_certified():
    for (num, den), want_m in (((1, 3), 1), ((1, 1), 0), ((3, 2), -1)):
        inst = _all_radii(num, den)
        assert inst.passed(), inst.summary()
        assert inst.params["m"] == want_m
        assert inst.n == 8


def test_build_all_radii_block_is_shifted_blowup():
    inst = _all_radii(1, 3)
    r = Fraction(2) ** -inst.params["m"]
    off = inst.params["offset"]
    assert inst.anchors[0] == off + 10 * r
    assert all(b - a == 10 * r
               for a, b in zip(inst.anchors, inst.anchors[1:]))


# ---------------------------------------------------------------------------
# Partition pathology


def test_partition_pathology_certified():
    inst = build_partition_pathology(4)
    assert inst.passed(), inst.summary()
    names = [c.name for c in inst.certificates]
    assert "partition_cells_vc_at_most_one" in names


def test_partition_pathology_certified_at_n_10():
    inst = build_partition_pathology(10)
    assert inst.passed(), inst.summary()
    assert len(inst.certificates) == 4


def test_partition_pathology_strategic_labels():
    inst = build_partition_pathology(3)
    for key, pts in inst.supports.items():
        for i, anchor in enumerate(inst.anchors, start=1):
            hit = any(math.floor(q) == math.floor(anchor) for q in pts)
            assert hit == (i in set(key)), (key, i)


def test_partition_pathology_supports_disjoint():
    inst = build_partition_pathology(4)
    seen = set()
    for pts in inst.supports.values():
        for pt in pts:
            assert pt not in seen
            seen.add(pt)


# ---------------------------------------------------------------------------
# Fractional-part construction


def test_shrink_intervals_nested_and_moduli_monotone():
    intervals, moduli = C._shrink_intervals(3, Fraction(1, 4))
    assert moduli == [3, 25, 201]
    assert moduli == sorted(moduli)
    assert len(intervals) == 8
    for lo, hi in intervals.values():
        assert 0 <= lo < hi <= 1


def test_frac_construction_certified():
    inst = build_frac_construction(3, Fraction(1, 4))
    assert inst.passed(), inst.summary()
    assert inst.params["moduli"] == [3, 25, 201]
    mults = inst.metadata["witness_multipliers"]
    assert mults == {"()": 701, "(1,)": 974, "(1, 2)": 257, "(1, 2, 3)": 18,
                     "(1, 3)": 158, "(2,)": 561, "(2, 3)": 153, "(3,)": 293}


def test_frac_construction_multipliers_verify_independently():
    # frozen multipliers re-checked directly against certified interval
    # arithmetic: frac(sqrt(2)*m*b) must land in P for i in A, in Q otherwise
    r = Fraction(1, 4)
    p_lo, p_hi = Fraction(1, 2) - r, Fraction(1, 2) + r
    moduli = [3, 25, 201]
    mults = {(): 701, (1,): 974, (1, 2): 257, (1, 2, 3): 18,
             (1, 3): 158, (2,): 561, (2, 3): 153, (3,): 293}
    for key, m in mults.items():
        for i, b in enumerate(moduli, start=1):
            fn = lambda bits, mb=m * b: frac_enclosure(
                lambda bb: sqrt2_enclosure(bb).scale(mb), bits)
            if i in set(key):
                assert in_open_interval(fn, p_lo, p_hi), (key, i)
            else:
                assert in_open_interval(fn, Fraction(0), p_lo), (key, i)


_unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=1000)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10 ** 6), _unit_fractions, _unit_fractions)
def test_frac_window_test_matches_enclosures(m, a, b):
    # the exact integer test against refined enclosures of frac(m*sqrt(2))
    assume(a != b)
    lo, hi = min(a, b), max(a, b)
    fn = lambda bits: frac_enclosure(
        lambda bb: sqrt2_enclosure(bb).scale(m), bits)
    assert C._frac_sqrt2_between(m, lo, hi) == in_open_interval(fn, lo, hi)


def test_first_residue_matches_a_scan():
    rng = random.Random(0)
    for _ in range(2000):
        q = rng.randint(1, 200)
        p = rng.randint(0, 3 * q)
        lo = rng.randrange(q)
        hi = rng.randint(lo, q - 1)
        want = next((x for x in range(q) if lo <= p * x % q <= hi), None)
        assert C._first_residue(p, q, lo, hi) == want, (p, q, lo, hi)


def test_frac_least_multiplier_matches_a_scan():
    # windows of widths 5e-5 to 0.3 at random offsets, each least
    # multiplier found by scanning m = 1, 2, ... with the integer test
    rng = random.Random(0)
    for _ in range(300):
        w = Fraction(round(10 ** rng.uniform(-4.3, -0.5) * 10 ** 7), 10 ** 7)
        lo = Fraction(rng.randint(1, 10 ** 6), 10 ** 6) * (1 - w)
        hi = lo + w
        m = 1
        while not ref_frac_sqrt2_in(m, lo, hi):
            m += 1
        assert m < 10 ** 5
        assert C._least_multiplier(lo, hi) == m, (lo, hi)


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_frac_construction_matches_the_integer_oracle(n):
    # past the n = 6 of a scan: every multiplier is the least in its
    # window, and its trace is the subset, both read by the oracle
    r = Fraction(1, 4)
    inst = build_frac_construction(n, r)
    assert inst.passed(), inst.summary()
    moduli = inst.params["moduli"]
    mults = inst.metadata["witness_multipliers"]
    assert len(mults) == 1 << n
    for key, (lo, hi) in inst.metadata["intervals"].items():
        m = mults[key]
        assert m == ref_least_sqrt2_multiplier(Fraction(lo), Fraction(hi))
        subset = ast.literal_eval(key)
        for i, b in enumerate(moduli, start=1):
            inside = ref_frac_sqrt2_in(m * b, Fraction(1, 2) - r,
                                       Fraction(1, 2) + r)
            assert inside == (i in subset), (key, i)
            assert inside or ref_frac_sqrt2_in(m * b, 0, Fraction(1, 2) - r)


def test_frac_construction_rejects_no_anchors():
    # n = 0 leaves the one window (0, 1), which touches 0: the multiplier
    # search needs a window above 0
    with pytest.raises(ConstructionError):
        build_frac_construction(0)


def test_frac_construction_rejects_bad_radius():
    with pytest.raises(ConstructionError):
        build_frac_construction(2, Fraction(1, 2))


def test_summary_format():
    inst = build_fixed_blowup(2, 1, Fraction(1, 2))
    s = inst.summary()
    assert s.startswith("fixed_blowup: n=2 PASS")
    assert "[ok ]" in s
