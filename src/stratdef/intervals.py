"""Certified rational interval arithmetic.

Supports the exact decision paths of the toolkit: enclosures of irrational
quantities (sqrt(2), exp of a rational) are rational intervals that can be
refined to any requested precision, so every comparison is either decided
with a certificate or reported as undecided -- never guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import VerificationFailure

DEFAULT_MAX_BITS = 4096


class UndecidedComparison(VerificationFailure):
    """A comparison could not be certified at the maximum precision."""

    def __init__(self, msg: str, interval: "RatInterval" = None):
        super().__init__(msg)
        self.interval = interval


@dataclass(frozen=True)
class RatInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(v) -> "RatInterval":
        v = Fraction(v)
        return RatInterval(v, v)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __add__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "RatInterval":
        return RatInterval(-self.hi, -self.lo)

    def __mul__(self, other: "RatInterval") -> "RatInterval":
        prods = [self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi]
        return RatInterval(min(prods), max(prods))

    def scale(self, c) -> "RatInterval":
        c = Fraction(c)
        if c >= 0:
            return RatInterval(self.lo * c, self.hi * c)
        return RatInterval(self.hi * c, self.lo * c)

    def contains(self, v: Fraction) -> bool:
        return self.lo <= v <= self.hi

    def strictly_inside(self, lo: Fraction, hi: Fraction) -> bool:
        """Whole interval inside the open interval (lo, hi)."""
        return lo < self.lo and self.hi < hi

    def strictly_outside(self, lo: Fraction, hi: Fraction) -> bool:
        """Whole interval disjoint from the closed interval [lo, hi]."""
        return self.hi < lo or self.lo > hi

    def sign(self) -> int:
        """-1, 0 or 1 if certified; raises UndecidedComparison otherwise."""
        if self.hi < 0:
            return -1
        if self.lo > 0:
            return 1
        if self.lo == 0 and self.hi == 0:
            return 0
        raise UndecidedComparison(f"sign of {self} undecided", self)

    def mid_float(self) -> float:
        return float((self.lo + self.hi) / 2)


def sqrt2_enclosure(bits: int) -> RatInterval:
    """Enclosure of sqrt(2) of width 2^-bits, via integer square root."""
    return sqrt_enclosure(2, bits)


def sqrt_enclosure(v, bits: int) -> RatInterval:
    """Enclosure of sqrt(v) for nonnegative rational v."""
    v = Fraction(v)
    if v < 0:
        raise ValueError("sqrt of negative rational")
    scale = 1 << bits
    lo = math.isqrt((v.numerator * scale * scale) // v.denominator)
    return RatInterval(Fraction(lo, scale), Fraction(lo + 1, scale))


def _exp_taylor(x: Fraction, bits: int) -> RatInterval:
    """Enclosure of exp(x) for |x| <= 1 via the Taylor series with tail bound."""
    target = Fraction(1, 1 << (bits + 2))
    total = Fraction(1)
    term = Fraction(1)
    n = 0
    while True:
        n += 1
        term = term * x / n
        total += term
        # tail bound: geometric ratio |x|/(n+1) <= 1/2 once n >= 2|x|+1
        if n >= 3:
            tail = 2 * abs(x) ** (n + 1)
            fact = math.factorial(n + 1)
            bound = Fraction(tail.numerator, tail.denominator * fact)
            if bound < target:
                return RatInterval(total - bound, total + bound)


def exp_enclosure(x, bits: int) -> RatInterval:
    """Certified enclosure of exp(x) for rational x.

    Uses argument halving exp(x) = exp(x/2^k)^(2^k) to reach |arg| <= 1/2,
    then a Taylor enclosure with an explicit tail bound.
    """
    x = Fraction(x)
    if x == 0:
        return RatInterval.point(1)
    k = 0
    y = x
    while abs(y) > Fraction(1, 2):
        y /= 2
        k += 1
    # extra precision to absorb the squaring steps
    enc = _exp_taylor(y, bits + 4 * k + 8)
    for _ in range(k):
        enc = enc * enc
    return enc


def exp_interval(iv: RatInterval, bits: int) -> RatInterval:
    """Enclosure of exp over an interval (exp is increasing); a point
    interval takes one enclosure."""
    if iv.lo == iv.hi:
        return exp_enclosure(iv.lo, bits)
    return RatInterval(exp_enclosure(iv.lo, bits).lo,
                       exp_enclosure(iv.hi, bits).hi)


EnclosureFn = Callable[[int], RatInterval]


def _refine(fn: EnclosureFn, decide: Callable, max_bits: int, what: str):
    """First non-None decide(fn(bits)) for bits = 16, 32, ... <= max_bits;
    raises UndecidedComparison when every enclosure up to the cap leaves
    the question open."""
    bits = 16
    last = None
    while bits <= max_bits:
        last = fn(bits)
        out = decide(last)
        if out is not None:
            return out
        bits *= 2
    raise UndecidedComparison(
        f"{what} undecided at {max_bits} bits: {last}", last)


def certified_sign(fn: EnclosureFn, max_bits: int = DEFAULT_MAX_BITS) -> int:
    """Sign of the real number enclosed by fn, refining precision as needed."""

    def decide(iv):
        try:
            return iv.sign()
        except UndecidedComparison:
            return None
    return _refine(fn, decide, max_bits, "sign")


def certified_floor(fn: EnclosureFn, max_bits: int = DEFAULT_MAX_BITS) -> int:
    """Floor of the enclosed real, certified by interval refinement.

    Fails (undecided) if the value is an integer or indistinguishably close
    to one at the precision cap.
    """

    def decide(iv):
        f = math.floor(iv.lo)
        return f if math.floor(iv.hi) == f else None
    return _refine(fn, decide, max_bits, "floor")


def frac_enclosure(fn: EnclosureFn, bits: int,
                   max_bits: int = DEFAULT_MAX_BITS) -> RatInterval:
    """Enclosure of the fractional part of the real enclosed by fn."""
    f = certified_floor(fn, max_bits)
    iv = fn(bits)
    return RatInterval(max(Fraction(0), iv.lo - f), min(Fraction(1), iv.hi - f))


def in_open_interval(fn: EnclosureFn, lo, hi,
                     max_bits: int = DEFAULT_MAX_BITS) -> bool:
    """Certified membership of the enclosed real in the open interval (lo, hi).

    Returns True/False with a certificate; raises UndecidedComparison if the
    value cannot be separated from an endpoint at the precision cap.
    """
    lo, hi = Fraction(lo), Fraction(hi)

    def decide(iv):
        if iv.strictly_inside(lo, hi):
            return True
        if iv.strictly_outside(lo, hi):
            return False
        return None
    return _refine(fn, decide, max_bits, f"membership in ({lo},{hi})")
