"""Lower-bound constructions: VC-1 classes whose strategic versions shatter.

Four builders, each returning a ConstructionInstance carrying machine-checked
certificates:

* fixed_blowup      -- n anchors, one hypothesis per subset, disjoint finite
                       supports; the class has VC dimension 1, yet under a
                       two-sided interval neighborhood of radius s the
                       strategic classifiers shatter all n anchors.
* all_radii         -- countably many shifted copies of the fixed blowup at
                       dyadic radii, so a single class witnesses the blowup
                       for every radius s > 0 simultaneously.
* partition_pathology -- supports placed against the unit-cell partition
                       N_x = [floor(x), floor(x) + 1); both the class and the
                       partition cells have VC dimension 1, the strategic
                       class shatters n anchors.
* frac_construction -- a one-parameter class h_t = indicator of
                       {b_i + frac(t * b_i)} that strategically shatters n
                       anchors; the witness parameters t = sqrt(2) * m are
                       certified with exact interval arithmetic.

Certificates never rely on floating point: rational comparisons are exact
and irrational quantities go through certified enclosures.  The blowup
certificates compare integers: one common denominator scales all the points
and radii of a block.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .intervals import (DEFAULT_MAX_BITS, RatInterval, certified_floor,
                        frac_enclosure, in_open_interval, sqrt2_enclosure)


class ConstructionError(Exception):
    pass


@dataclass
class Certificate:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ConstructionInstance:
    construction_id: str
    n: int
    params: dict
    anchors: list
    supports: dict  # subset (sorted tuple) -> tuple of support points
    certificates: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def passed(self) -> bool:
        return bool(self.certificates) and \
            all(c.passed for c in self.certificates)

    def summary(self) -> str:
        lines = [f"{self.construction_id}: n={self.n} "
                 f"{'PASS' if self.passed() else 'FAIL'}"]
        for c in self.certificates:
            mark = "ok " if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.name}: {c.detail}")
        return "\n".join(lines)


def _subsets(n: int):
    """All subsets of {1..n} as sorted tuples, in bitmask order."""
    for t in range(1 << n):
        yield t, tuple(i + 1 for i in range(n) if t >> i & 1)


def _check_disjoint_supports(supports: dict) -> Certificate:
    total = sum(len(v) for v in supports.values())
    distinct = len({pt for v in supports.values() for pt in v})
    ok = total == distinct
    return Certificate("supports_pairwise_disjoint", ok,
                       f"{distinct} distinct points out of {total}")


def _check_class_vc_one(supports: dict, unit: int = 1) -> list:
    """Disjoint finite supports + at least two hypotheses give VC exactly 1:
    no point lies in two hypotheses, so no pair can receive the label
    pattern (1, 0) and (1, 1) simultaneously, while any single support
    point is shattered.  Points are in units of 1/unit."""
    certs = [_check_disjoint_supports(supports)]
    some_point = next((pt for v in supports.values() if v for pt in v), None)
    lower = some_point is not None and len(supports) >= 2
    certs.append(Certificate(
        "class_shatters_a_singleton", lower,
        f"witness point {_fmt(Fraction(some_point, unit))}" if lower
        else "no point"))
    return certs


def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 \
            else str(v.numerator)
    return str(v)


def _strategic_traces(anchors, supports: dict, captured) -> Certificate:
    """captured(anchor, points) -> bool; passes iff the strategic labels
    realize all 2^n subsets, each by its own hypothesis."""
    n = len(anchors)
    ok = True
    bad = ""
    seen = set()
    for key, pts in supports.items():
        trace = tuple(i + 1 for i, anc in enumerate(anchors)
                      if captured(anc, pts))
        if trace != key:
            ok = False
            bad = f"subset {key} traced as {trace}"
            break
        seen.add(trace)
    if ok and len(seen) != 1 << n:
        ok = False
        bad = f"only {len(seen)} of {1 << n} traces"
    return Certificate("strategic_shattering", ok,
                       bad if bad else f"all {1 << n} traces realized")


# ---------------------------------------------------------------------------
# Fixed-radius blowup


def _blowup_grid(n: int, r: Fraction, rp: Fraction, offset: Fraction,
                 radii: Sequence) -> tuple:
    """(u, anchors, supports): the blowup's points as integer multiples of
    1/u, the lcm of the denominators of every point and of the radii."""
    u = math.lcm(offset.denominator, 2 * r.denominator,
                 (4 << n) * rp.denominator, *(s.denominator for s in radii))
    R, RP = int(r * u), int(rp * u)
    anchors = [int(offset * u) + 10 * R * i for i in range(1, n + 1)]
    step = RP // (4 << n)  # jitter rp * (2^n - 1) / (4 * 2^n) < rp / 4
    inner, outer = RP // 2, 3 * R // 2
    supports = {key: tuple(p + step * t + (inner if t >> i & 1 else outer)
                           for i, p in enumerate(anchors))
                for t, key in _subsets(n)}
    return u, anchors, supports


def build_fixed_blowup(n: int, r, rp, radii: Optional[Sequence] = None,
                       offset=0) -> ConstructionInstance:
    """Blowup at anchor spacing 10r with inner tolerance rp <= r.

    Anchor i sits at offset + 10*r*i with working cell U_i of half-width 2r.
    The hypothesis for subset S places one point per anchor: within rp of
    the anchor when i is in S, at distance in (r, 2r) otherwise, plus a
    per-subset jitter below rp/4 keeping all supports pairwise disjoint.
    Certificates check VC(class) = 1 and strategic shattering at every
    radius s in [rp, r] supplied through `radii` (default endpoints and
    midpoint).
    """
    r = Fraction(r)
    rp = Fraction(rp)
    offset = Fraction(offset)
    if not 0 < rp <= r:
        raise ConstructionError("need 0 < rp <= r")
    if n < 1:
        raise ConstructionError("need n >= 1")
    radii = [rp, (rp + r) / 2, r] if radii is None else \
        [Fraction(s) for s in radii]
    u, anchors, supports = _blowup_grid(n, r, rp, offset, radii)
    R, RP = int(r * u), int(rp * u)
    certs = _check_class_vc_one(supports, u)

    in_band = True
    detail = ""
    for key, pts in supports.items():
        sset = set(key)
        for i, (p, q) in enumerate(zip(anchors, pts), start=1):
            d = abs(q - p)
            if d >= 2 * R:
                in_band, detail = False, f"point escapes cell at anchor {i}"
            if i in sset and not d < RP:
                in_band, detail = False, f"inner point too far at anchor {i}"
            if i not in sset and not d > R:
                in_band, detail = False, f"outer point too close at anchor {i}"
    certs.append(Certificate("support_placement", in_band,
                             detail or "all points in their distance bands"))

    for s in radii:
        if not rp <= s <= r:
            raise ConstructionError(f"radius {s} outside [{rp}, {r}]")
        S = int(s * u)
        cert = _strategic_traces(anchors, supports, lambda anc, pts: any(
            abs(q - anc) <= S for q in pts))
        cert.name = f"strategic_shattering_s={_fmt(s)}"
        certs.append(cert)
    return ConstructionInstance(
        "fixed_blowup", n, {"r": r, "rp": rp, "offset": offset},
        [Fraction(p, u) for p in anchors],
        {key: tuple(Fraction(q, u) for q in pts)
         for key, pts in supports.items()},
        certs, metadata={"cell_halfwidth": 2 * r})


# ---------------------------------------------------------------------------
# All radii at once


@dataclass
class RadiiBlock:
    index: int          # position in the enumeration
    n: int
    m: int              # radius exponent: r = 2^-m, rp = 2^-(m+1)
    offset: Fraction

    @property
    def r(self) -> Fraction:
        return Fraction(2) ** -self.m

    @property
    def length(self) -> Fraction:
        return 10 * self.r * (self.n + 1)


def _enumerate_blocks(t: int):
    """First t pairs (n, m) of the diagonal enumeration of the positive
    integers against the window {-M..M}, M = max(1, ceil(log2 t))."""
    if t < 1:
        raise ConstructionError("need t >= 1")
    M = max(1, math.ceil(math.log2(t)))
    pairs = []
    for n in range(1, t + 2):
        for idx in range(2 * M + 1):
            pairs.append((n + idx, n, idx - M))
    pairs.sort()
    out = []
    offset = Fraction(0)
    for rank, (_, n, m) in enumerate(pairs[:t]):
        blk = RadiiBlock(rank, n, m, offset)
        out.append(blk)
        offset = offset + blk.length + 1
    return out


@dataclass
class AllRadiiFamily:
    """Shifted blowup blocks covering every dyadic radius window.

    Block (n, m) is a fixed blowup with r = 2^-m, rp = 2^-(m+1), so any
    radius s with 2^-(m+1) < s <= 2^-m shatters its n anchors.  Blocks are
    placed left to right with unit gaps; hypotheses restricted to distinct
    blocks have disjoint supports, so the whole class still has VC 1.
    """

    t: int
    blocks: list = field(default_factory=list)

    def __post_init__(self):
        if not self.blocks:
            self.blocks = _enumerate_blocks(self.t)

    @staticmethod
    def radius_exponent(s) -> int:
        """Unique m with 2^-(m+1) < s <= 2^-m."""
        s = Fraction(s)
        if s <= 0:
            raise ConstructionError("radius must be positive")
        m = 0
        while Fraction(2) ** -m < s:
            m -= 1
        while Fraction(2) ** -(m + 1) >= s:
            m += 1
        return m

    def select_block(self, s, n: int) -> RadiiBlock:
        m = self.radius_exponent(s)
        hits = [b for b in self.blocks if b.m == m and b.n >= n]
        if not hits:
            need = self.t
            hint = ""
            while need < 1 << 14:
                need *= 2
                if any(b.m == m and b.n >= n
                       for b in _enumerate_blocks(need)):
                    hint = f"; t={need} suffices"
                    break
            raise ConstructionError(
                f"no block for s={_fmt(Fraction(s))}, n={n} within "
                f"t={self.t}{hint}")
        return min(hits, key=lambda b: (b.n, b.index))

    def block_instance(self, block: RadiiBlock,
                       radii: Optional[Sequence] = None) \
            -> ConstructionInstance:
        return build_fixed_blowup(block.n, block.r, block.r / 2,
                                  radii=radii, offset=block.offset)


def build_all_radii(t: int, s, n: int,
                    cert_cap: int = 10) -> ConstructionInstance:
    """Verify the all-radii family at radius s and anchor count n.

    Builds the first t blocks, checks the global layout (unit gaps, block
    supports inside their segments), selects the block serving (s, n) and
    runs the full fixed-blowup certificates there.  Exhaustive per-block
    checks also run on every other block with at most cert_cap anchors.
    """
    fam = AllRadiiFamily(t)
    s = Fraction(s)
    block = fam.select_block(s, n)
    inst = fam.block_instance(block, radii=[s])
    certs = list(inst.certificates)

    layout_ok = True
    detail = ""
    prev_end = None
    for b in fam.blocks:
        if prev_end is not None and b.offset < prev_end + 1:
            layout_ok, detail = False, f"blocks overlap at index {b.index}"
            break
        prev_end = b.offset + b.length
    certs.append(Certificate("block_layout_disjoint", layout_ok,
                             detail or f"{len(fam.blocks)} blocks with unit "
                             "gaps"))

    small = [b for b in fam.blocks if b.n <= cert_cap and b is not block]
    all_ok = True
    for b in small:
        sub = fam.block_instance(b)
        u, _, grid = _blowup_grid(b.n, b.r, b.r / 2, b.offset, ())
        lo, hi = int(b.offset * u), int((b.offset + b.length) * u)
        inside = all(lo < q < hi for pts in grid.values() for q in pts)
        if not (sub.passed() and inside):
            all_ok = False
            detail = f"block (n={b.n}, m={b.m}) failed"
            break
    certs.append(Certificate(
        f"sibling_blocks_verified_n<={cert_cap}", all_ok,
        detail if not all_ok else f"{len(small)} sibling blocks re-checked"))

    out = ConstructionInstance(
        "all_radii", block.n,
        {"t": t, "s": s, "n": n, "m": block.m, "offset": block.offset},
        inst.anchors, inst.supports, certs,
        metadata={"selected_block_index": block.index,
                  "block_count": len(fam.blocks)})
    return out


# ---------------------------------------------------------------------------
# Partition pathology


def build_partition_pathology(n: int = 4) -> ConstructionInstance:
    """Supports placed against the unit-cell partition N_x = [floor x,
    floor x + 1).

    alpha(S) = 1/100 + sum_{j in S} 10^-(2+j) tags each subset with a
    distinct rational shift.  h_S has one point in cell [i, i+1) for each
    i in S (at i + 1/2 + alpha) and one negative point -i - alpha for each
    i not in S, so supports stay pairwise disjoint while the strategic
    label of anchor i is exactly [i in S].
    """
    if n < 1:
        raise ConstructionError("need n >= 1")
    anchors = [Fraction(i) for i in range(1, n + 1)]
    supports = {}
    for _, key in _subsets(n):
        alpha = Fraction(1, 100) + \
            sum((Fraction(1, 10 ** (2 + j)) for j in key), Fraction(0))
        pts = [Fraction(i) + Fraction(1, 2) + alpha for i in key]
        pts += [-Fraction(i) - alpha for i in range(1, n + 1)
                if i not in set(key)]
        supports[key] = tuple(pts)

    certs = _check_class_vc_one(supports)

    # the partition cells themselves form a VC-1 class: check exhaustively
    # on the finite set of relevant points that no pair is shattered
    points = sorted({pt for v in supports.values() for pt in v} |
                    set(anchors))
    cells = sorted({math.floor(pt) for pt in points})
    traces = [tuple(math.floor(pt) == c for pt in points) for c in cells]
    pair_shattered = False
    for i, j in itertools.combinations(range(len(points)), 2):
        got = {(tr[i], tr[j]) for tr in traces}
        got.add((False, False))  # empty set is available as a complement
        if len(got) == 4:
            pair_shattered = True
            break
    certs.append(Certificate(
        "partition_cells_vc_at_most_one", not pair_shattered,
        f"{len(cells)} cells over {len(points)} points, no pair shattered"))

    certs.append(_strategic_traces(
        anchors, supports,
        lambda anc, pts: any(math.floor(q) == math.floor(anc) for q in pts)))

    return ConstructionInstance("partition_pathology", n, {}, anchors,
                                supports, certs)


# ---------------------------------------------------------------------------
# One-parameter fractional-part construction

# the largest multiplier m the frac construction scans for a witness
FRAC_M_CAP = 2_000_000


def _shrink_intervals(n: int, r: Fraction):
    """Nested open intervals I_A, one per subset A of {1..n}, and moduli b_i
    such that frac(t) in I_A forces frac(t * b_i) in (1/2 - r, 1/2 + r) for
    i in A and in (0, 1/2 - r) otherwise."""
    intervals = {(): (Fraction(0), Fraction(1))}
    moduli = []
    for k in range(1, n + 1):
        v = min(hi - lo for lo, hi in intervals.values())
        b = max(int(2 / v) + 1, (moduli[-1] + 1) if moduli else 2)
        moduli.append(b)
        nxt = {}
        for key, (lo, hi) in intervals.items():
            j = math.floor(lo * b) + 1
            if not (lo < Fraction(j, b) and Fraction(j + 1, b) <= hi):
                raise ConstructionError("modulus too small for the window")
            mid = Fraction(j, 1) + Fraction(1, 2)
            nxt[key] = (Fraction(j, b), (mid - r) / b)
            nxt[key + (k,)] = ((mid - r) / b, (mid + r) / b)
        intervals = nxt
    return intervals, moduli


def build_frac_construction(n: int = 3, r=Fraction(1, 4),
                            max_bits: int = DEFAULT_MAX_BITS
                            ) -> ConstructionInstance:
    """One-parameter strategic shattering via fractional parts.

    The class is {h_t : t real} with h_t the indicator of
    {b_i + frac(t * b_i) : i = 1..n}; neighborhoods are closed intervals of
    radius r and the anchors are b_i + 1/2.  Nested intervals I_A pin the
    trace of h_t to A whenever frac(t) lies in I_A, and for each A a
    parameter t_A = sqrt(2) * m_A with frac(t_A) in I_A is found by scanning
    m up to FRAC_M_CAP and certified with exact enclosures of sqrt(2),
    refined up to max_bits bits (UndecidedComparison beyond).
    """
    r = Fraction(r)
    if not 0 < r < Fraction(1, 2):
        raise ConstructionError("need 0 < r < 1/2")
    intervals, moduli = _shrink_intervals(n, r)
    anchors = [Fraction(b) + Fraction(1, 2) for b in moduli]
    certs = []

    # induction bookkeeping: moduli strictly increasing integers, every
    # interval open, nonempty and inside (0, 1)
    ind_ok = all(b2 > b1 for b1, b2 in zip(moduli, moduli[1:])) and \
        all(0 <= lo < hi <= 1 for lo, hi in intervals.values())
    certs.append(Certificate("interval_induction", ind_ok,
                             f"moduli {moduli}"))

    def frac_of_sqrt2(mult: int) -> Callable[[int], RatInterval]:
        def fn(bits: int) -> RatInterval:
            return frac_enclosure(
                lambda bb: sqrt2_enclosure(bb).scale(mult), bits, max_bits)
        return fn

    witnesses = {}
    supports = {}
    labels_ok = True
    detail = ""
    p_lo, p_hi = Fraction(1, 2) - r, Fraction(1, 2) + r
    for key, (lo, hi) in sorted(intervals.items()):
        m_a = None
        for m in range(1, FRAC_M_CAP + 1):
            if in_open_interval(frac_of_sqrt2(m), lo, hi, max_bits):
                m_a = m
                break
        if m_a is None:
            certs.append(Certificate(
                "witness_multipliers", False,
                f"no multiplier below {FRAC_M_CAP} for subset {key}"))
            break
        witnesses[key] = m_a
        # certify the trace of t = sqrt(2) * m_a anchor by anchor
        pts = []
        for i, b in enumerate(moduli, start=1):
            fn = frac_of_sqrt2(m_a * b)
            inside = in_open_interval(fn, p_lo, p_hi, max_bits)
            want = i in set(key)
            if inside != want:
                labels_ok = False
                detail = f"subset {key}: anchor {i} mislabeled"
            if not inside and not in_open_interval(fn, Fraction(0), p_lo,
                                                   max_bits):
                labels_ok = False
                detail = f"subset {key}: frac at anchor {i} outside (0, " \
                         f"{_fmt(p_lo)})"
            pts.append(("enclosure", b, m_a * b))
        supports[key] = tuple(pts)
    else:
        certs.append(Certificate(
            "witness_multipliers", True,
            f"multipliers {[witnesses[k] for k in sorted(witnesses)]}"))
        certs.append(Certificate(
            "strategic_shattering", labels_ok,
            detail or f"all {1 << n} traces certified at radius {_fmt(r)}"))
        # cross-cell separation is structural: support point i lies in
        # (b_i, b_i + 1) and every anchor j != i is at distance > 1/2 > r
        gap_ok = all(b2 - b1 >= 1 for b1, b2 in zip(moduli, moduli[1:]))
        certs.append(Certificate("cross_cell_separation", gap_ok,
                                 "unit gaps between moduli"))

    return ConstructionInstance(
        "frac_construction", n,
        {"r": r, "moduli": moduli}, anchors, supports, certs,
        metadata={"witness_multipliers": {str(k): v
                                          for k, v in witnesses.items()},
                  "intervals": {str(k): (str(lo), str(hi))
                                for k, (lo, hi) in intervals.items()}})


BUILDERS = {
    "fixed": build_fixed_blowup,
    "all-radii": build_all_radii,
    "partition": build_partition_pathology,
    "frac": build_frac_construction,
}
