"""Tests for certified rational interval arithmetic."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratdef import intervals as iv
from stratdef.intervals import RatInterval, UndecidedComparison


_rats = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=1000
)


def _interval(lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    return RatInterval(lo, hi)


_ivs = st.builds(_interval, _rats, _rats)


@settings(max_examples=200, deadline=None)
@given(_ivs, _ivs, _rats, _rats)
def test_arithmetic_encloses_samples(a, b, ta, tb):
    # pick a point inside each operand and check closure under +, -, *
    pa = a.lo + (a.hi - a.lo) * Fraction(ta + 100, 200)
    pb = b.lo + (b.hi - b.lo) * Fraction(tb + 100, 200)
    assert (a + b).contains(pa + pb)
    assert (a - b).contains(pa - pb)
    assert (a * b).contains(pa * pb)
    assert (-a).contains(-pa)
    assert a.scale(Fraction(3, 7)).contains(pa * Fraction(3, 7))


def test_point_interval():
    p = RatInterval.point(Fraction(5, 3))
    assert p.width == 0
    assert p.contains(Fraction(5, 3))
    assert p.sign() == 1
    assert RatInterval.point(0).sign() == 0


def test_rat_interval_is_an_immutable_value():
    a = RatInterval(Fraction(1, 3), Fraction(2))
    b = RatInterval(Fraction(1, 3), Fraction(2))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != RatInterval(Fraction(1, 3), Fraction(3)) and a != (a.lo, a.hi)
    assert repr(a) == "RatInterval(lo=Fraction(1, 3), hi=Fraction(2, 1))"
    with pytest.raises(AttributeError):
        a.lo = Fraction(0)
    with pytest.raises(AttributeError):
        del a.hi
    assert (a.lo, a.hi) == (Fraction(1, 3), Fraction(2))
    with pytest.raises(ValueError):
        RatInterval(Fraction(1), Fraction(0))


def test_sign_undecided_on_straddling_interval():
    with pytest.raises(UndecidedComparison):
        RatInterval(Fraction(-1), Fraction(1)).sign()


@pytest.mark.parametrize("bits", [8, 16, 32, 64, 128])
def test_sqrt2_enclosure_tightens(bits):
    e = iv.sqrt2_enclosure(bits)
    assert e.lo * e.lo <= 2 <= e.hi * e.hi
    assert e.width <= Fraction(4, 2**bits)


def test_sqrt_enclosure_general():
    e = iv.sqrt_enclosure(Fraction(9, 4), 64)
    assert e.contains(Fraction(3, 2))
    assert e.width <= Fraction(1, 2**60)


@pytest.mark.parametrize(
    "x", [Fraction(0), Fraction(1), Fraction(-1), Fraction(7, 3), Fraction(-19, 5)]
)
def test_exp_enclosure_brackets_float(x):
    e = iv.exp_enclosure(x, 96)
    want = math.exp(float(x))
    assert float(e.lo) <= want <= float(e.hi) or abs(e.mid_float() - want) < 1e-12
    assert e.lo > 0


def test_exp_enclosure_exact_at_zero():
    e = iv.exp_enclosure(Fraction(0), 32)
    assert e.contains(Fraction(1))
    assert e.width <= Fraction(1, 2**30)


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=Fraction(-10), max_value=Fraction(10),
                    max_denominator=64))
def test_exp_enclosure_monotone_refinement(x):
    coarse = iv.exp_enclosure(x, 24)
    fine = iv.exp_enclosure(x, 72)
    assert coarse.lo <= fine.lo <= fine.hi <= coarse.hi
    assert fine.width < coarse.width or coarse.width == 0


def test_exp_interval_encloses_endpoints():
    box = RatInterval(Fraction(-1), Fraction(2))
    e = iv.exp_interval(box, 64)
    assert float(e.lo) <= math.exp(-1.0)
    assert float(e.hi) >= math.exp(2.0)


def test_exp_interval_of_a_point_is_one_enclosure(monkeypatch):
    x = Fraction(7, 3)
    original = iv.exp_enclosure
    want = original(x, 48)
    calls = []

    def counted(v, bits):
        calls.append((v, bits))
        return original(v, bits)

    monkeypatch.setattr(iv, "exp_enclosure", counted)
    assert iv.exp_interval(RatInterval.point(x), 48) == want
    assert calls == [(x, 48)]


def test_certified_sign_and_floor():
    # sqrt(2) - 1.4 > 0, sqrt(2) - 1.5 < 0
    assert iv.certified_sign(
        lambda b: iv.sqrt2_enclosure(b) - RatInterval.point(Fraction(7, 5))) == 1
    assert iv.certified_sign(
        lambda b: iv.sqrt2_enclosure(b) - RatInterval.point(Fraction(3, 2))) == -1
    assert iv.certified_floor(iv.sqrt2_enclosure) == 1
    assert iv.certified_floor(lambda b: iv.sqrt2_enclosure(b).scale(10)) == 14


def test_certified_sign_exact_zero_point():
    assert iv.certified_sign(lambda b: RatInterval.point(0)) == 0


def test_certified_sign_gives_up_on_persistent_straddle():
    with pytest.raises(UndecidedComparison):
        iv.certified_sign(
            lambda b: RatInterval(Fraction(-1), Fraction(1)), max_bits=64)


def test_frac_enclosure_of_sqrt2_multiples():
    # frac(5 * sqrt(2)) = 5*sqrt(2) - 7 ~ 0.0710678
    f = iv.frac_enclosure(lambda b: iv.sqrt2_enclosure(b).scale(5), 128)
    assert abs(f.mid_float() - (5 * math.sqrt(2) - 7)) < 1e-12
    assert Fraction(0) <= f.lo <= f.hi < Fraction(1)


def test_in_open_interval():
    fn = lambda b: iv.sqrt2_enclosure(b).scale(5)
    assert iv.in_open_interval(
        lambda b: iv.frac_enclosure(fn, b), Fraction(0), Fraction(1, 10))
    assert not iv.in_open_interval(
        lambda b: iv.frac_enclosure(fn, b), Fraction(1, 10), Fraction(1, 2))
