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
                       partition cells have VC dimension 1, certified by one
                       disjointness count, the strategic class shatters n
                       anchors.
* frac_construction -- a one-parameter class h_t = indicator of
                       {b_i + frac(t * b_i)} that strategically shatters n
                       anchors; the witness parameters t = sqrt(2) * m,
                       m the least multiplier of each window, are found
                       by a Euclid recursion and certified by exact
                       integer comparisons.

Certificates never rely on floating point, and every comparison is exact.
The blowup certificates compare integers: a block's points sit on an
integer grid relative to the block offset, in units of r/u, u the lcm of
the denominators of rp/r and of each radius over r, so the grid depends on
n and those ratios alone, and the offset and r are applied only to the
Fraction points a builder emits.  A strategic trace is an anchor bitmask,
the OR of its support points' masks; a blowup point's mask is found by
bisection among the endpoints a - s, a + s + 1 on that integer grid, and a
partition point's by its cell.  The all-radii sibling blocks are checked on
their integer grids alone, with no Fraction points, and the siblings that
share a grid are certified once per build.  The frac certificates
compare squares of integers: a window on frac(m * sqrt(2)) becomes a window
on 2 * m^2.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Optional, Sequence

from . import VerificationFailure
# unused here: perfbench/spans.py patches these names on this module, and a
# traced benchmark round fails when one of them is missing
from .intervals import certified_floor, in_open_interval, sqrt2_enclosure


class ConstructionError(VerificationFailure):
    pass


# the most anchors the CLI builds: a blowup has a support per anchor subset
MAX_ANCHORS = 16
# the most all-radii blocks, and so the largest t select_block proposes
MAX_BLOCKS = 1 << 14


class Certificate:
    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name = name
        self.passed = passed
        self.detail = detail


class ConstructionInstance:
    def __init__(self, construction_id: str, n: int, params: dict,
                 anchors: list, supports: dict, certificates: list,
                 metadata: Optional[dict] = None):
        self.construction_id = construction_id
        self.n = n
        self.params = params
        self.anchors = anchors
        self.supports = supports  # subset (sorted tuple) -> support points
        self.certificates = certificates
        self.metadata = metadata or {}

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


def _member_counts(sets) -> tuple:
    """(distinct, total) members of a family of sets, total counting each
    set's members; the sets are pairwise disjoint iff the two are equal.
    Pairwise-disjoint sets never shatter a pair: (1, 1) needs a set that
    holds both points, and (1, 0) a second set that holds one of them."""
    return len({pt for v in sets for pt in v}), sum(len(v) for v in sets)


def _check_disjoint_supports(supports: dict) -> Certificate:
    distinct, total = _member_counts(supports.values())
    return Certificate("supports_pairwise_disjoint", distinct == total,
                       f"{distinct} distinct points out of {total}")


def _check_class_vc_one(supports: dict, point=lambda q: q) -> list:
    """Disjoint finite supports + at least two hypotheses give VC exactly 1:
    no point lies in two hypotheses, so no pair can receive the label
    pattern (1, 0) and (1, 1) simultaneously, while any single support
    point is shattered.  A point q stands for point(q)."""
    certs = [_check_disjoint_supports(supports)]
    some_point = next((pt for v in supports.values() if v for pt in v), None)
    lower = some_point is not None and len(supports) >= 2
    certs.append(Certificate(
        "class_shatters_a_singleton", lower,
        f"witness point {point(some_point)}" if lower
        else "no point"))
    return certs


def _strategic_traces(n: int, supports: dict, reach) -> Certificate:
    """reach(point) -> bitmask of the anchors whose neighborhoods hold the
    point (bit i - 1 for anchor i); a support's trace is the OR of its
    points' masks.  Passes iff every support traces its own subset and the
    traces realize all 2^n subsets."""
    seen = set()
    for key, pts in supports.items():
        mask = 0
        for q in pts:
            mask |= reach(q)
        want = 0
        for i in key:
            want |= 1 << (i - 1)
        if mask != want:
            trace = tuple(i + 1 for i in range(n) if mask >> i & 1)
            return Certificate("strategic_shattering", False,
                               f"subset {key} traced as {trace}")
        seen.add(mask)
    if len(seen) != 1 << n:
        return Certificate("strategic_shattering", False,
                           f"only {len(seen)} of {1 << n} traces")
    return Certificate("strategic_shattering", True,
                       f"all {1 << n} traces realized")


# ---------------------------------------------------------------------------
# Fixed-radius blowup


def _blowup_grid(n: int, r: Fraction, rp: Fraction,
                 radii: Sequence) -> tuple:
    """(u, anchors, supports): the blowup's points relative to its offset as
    integer multiples of r/u, u the lcm of the denominators of rp/r and of
    each s/r (and of 2 and 4 * 2^n, so that every point is on the grid):
    the grid depends on n and those ratios alone."""
    ratio = rp / r
    u = math.lcm(2, (4 << n) * ratio.denominator,
                 *((s / r).denominator for s in radii))
    R, RP = u, int(ratio * u)
    anchors = [10 * R * i for i in range(1, n + 1)]
    step = RP // (4 << n)  # jitter rp * (2^n - 1) / (4 * 2^n) < rp / 4
    inner, outer = RP // 2, 3 * R // 2
    supports = {key: tuple(p + step * t + (inner if t >> i & 1 else outer)
                           for i, p in enumerate(anchors))
                for t, key in _subsets(n)}
    return u, anchors, supports


def _grid_point(offset: Fraction, unit: Fraction):
    """The map from a grid point q to the Fraction offset + q * unit, which
    builds one Fraction over one denominator."""
    den = offset.denominator * unit.denominator
    a = offset.numerator * unit.denominator
    c = unit.numerator * offset.denominator
    return lambda q: Fraction(a + c * q, den)


def _blowup_core(n: int, r: Fraction, rp: Fraction, offset: Fraction,
                 radii: Optional[Sequence] = None) -> tuple:
    """(u, anchors, supports, certificates) of the blowup with 0 < rp <= r
    and n >= 1, its points relative to offset and integer multiples of
    r/u, so that every certificate compares integers.  radii default to
    rp, (rp + r) / 2, r."""
    radii = [rp, (rp + r) / 2, r] if radii is None else radii
    for s in radii:
        if not rp <= s <= r:
            raise ConstructionError(f"radius {s} outside [{rp}, {r}]")
    u, anchors, supports = _blowup_grid(n, r, rp, radii)
    R, RP = u, int(rp / r * u)
    certs = _check_class_vc_one(supports, _grid_point(offset, r / u))

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
        # on the integer grid |q - a| <= S iff a - S <= q < a + S + 1, so
        # the anchor mask of q is constant between consecutive endpoints
        # a - S, a + S + 1; one bisection finds the segment of q
        S = int(s / r * u)
        ends = sorted({a + d for a in anchors for d in (-S, S + 1)})
        masks = [0] + [sum(1 << k for k, a in enumerate(anchors)
                           if abs(e - a) <= S) for e in ends]
        cert = _strategic_traces(
            n, supports, lambda q: masks[bisect_right(ends, q)])
        cert.name = f"strategic_shattering_s={s}"
        certs.append(cert)
    return u, anchors, supports, certs


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
    if radii is not None:
        radii = [Fraction(s) for s in radii]
    u, anchors, supports, certs = _blowup_core(n, r, rp, offset, radii)
    point = _grid_point(offset, r / u)
    return ConstructionInstance(
        "fixed_blowup", n, {"r": r, "rp": rp, "offset": offset},
        list(map(point, anchors)),
        {key: tuple(map(point, pts)) for key, pts in supports.items()},
        certs, metadata={"cell_halfwidth": 2 * r})


# ---------------------------------------------------------------------------
# All radii at once


class RadiiBlock:
    def __init__(self, index: int, n: int, m: int, offset: Fraction):
        self.index = index  # position in the enumeration
        self.n = n
        self.m = m  # radius exponent: r = 2^-m, rp = 2^-(m+1)
        self.offset = offset

    @property
    def r(self) -> Fraction:
        return Fraction(2) ** -self.m

    @property
    def length(self) -> Fraction:
        return 10 * self.r * (self.n + 1)


def _block_pairs(t: int) -> list:
    """First t pairs (n, m) of the diagonal enumeration of the positive
    integers n against the window m in {-M..M}, M = max(1, ceil(log2 t)):
    by n + m, then by n."""
    M = max(1, (t - 1).bit_length())
    pairs = []
    d = 1 - M  # n + m
    while len(pairs) < t:
        pairs += [(n, d - n) for n in range(max(1, d - M), d + M + 1)]
        d += 1
    return pairs[:t]


def _enumerate_blocks(t: int):
    """The blocks of the first t pairs (n, m), left to right with unit
    gaps."""
    if t < 1:
        raise ConstructionError("need t >= 1")
    out = []
    offset = Fraction(0)
    for rank, (n, m) in enumerate(_block_pairs(t)):
        blk = RadiiBlock(rank, n, m, offset)
        out.append(blk)
        offset = offset + blk.length + 1
    return out


class AllRadiiFamily:
    """Shifted blowup blocks covering every dyadic radius window.

    Block (n, m) is a fixed blowup with r = 2^-m, rp = 2^-(m+1), so any
    radius s with 2^-(m+1) < s <= 2^-m shatters its n anchors.  Blocks are
    placed left to right with unit gaps; hypotheses restricted to distinct
    blocks have disjoint supports, so the whole class still has VC 1.
    """

    def __init__(self, t: int):
        self.t = t
        self.blocks = _enumerate_blocks(t)

    @staticmethod
    def radius_exponent(s) -> int:
        """Unique m with 2^-(m+1) < s <= 2^-m, that is m = -ceil(log2 s).
        With e the bit length of the numerator of s less that of its
        denominator, 2^(e-1) < s < 2^(e+1), so ceil(log2 s) is e when
        s <= 2^e and e + 1 otherwise."""
        s = Fraction(s)
        if s <= 0:
            raise ConstructionError("radius must be positive")
        p, q = s.numerator, s.denominator
        e = p.bit_length() - q.bit_length()
        within = p <= q << e if e >= 0 else p << -e <= q
        return -e if within else -e - 1

    def select_block(self, s, n: int) -> RadiiBlock:
        m = self.radius_exponent(s)
        hits = [b for b in self.blocks if b.m == m and b.n >= n]
        if not hits:
            need = self.t
            hint = ""
            while need < MAX_BLOCKS:
                need *= 2
                if any(pm == m and pn >= n for pn, pm in _block_pairs(need)):
                    hint = f"; t={need} suffices"
                    break
            raise ConstructionError(
                f"no block for s={Fraction(s)}, n={n} within "
                f"t={self.t}{hint}")
        return min(hits, key=lambda b: (b.n, b.index))


def build_all_radii(t: int, s, n: int,
                    cert_cap: int = 10) -> ConstructionInstance:
    """Verify the all-radii family at radius s and anchor count n.

    Builds the first t blocks, checks the global layout (unit gaps, block
    supports inside their segments), selects the block serving (s, n) and
    runs the full fixed-blowup certificates there.  Exhaustive per-block
    checks also run on every other block with at most cert_cap anchors;
    those blocks all have rp/r = 1/2 and radii/r = 1/2, 3/4, 1, so their
    grids depend on n alone, and each distinct grid is certified once.
    """
    fam = AllRadiiFamily(t)
    s = Fraction(s)
    block = fam.select_block(s, n)
    inst = build_fixed_blowup(block.n, block.r, block.r / 2, radii=[s],
                              offset=block.offset)
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
    # a sibling's grid, and so its verdict, depends on its n alone: its
    # certificates pass and its points lie inside its segment (0, length)
    verdicts = {}
    for b in small:
        if b.n not in verdicts:
            u, _, grid, sub_certs = _blowup_core(b.n, b.r, b.r / 2, b.offset)
            pts = [q for qs in grid.values() for q in qs]
            verdicts[b.n] = all(c.passed for c in sub_certs) and \
                0 < min(pts) and max(pts) < 10 * (b.n + 1) * u
        if not verdicts[b.n]:
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

    # the partition cells themselves form a VC-1 class on the relevant
    # points: grouped by cell, they pass the class's disjointness count
    cells = {}
    for pt in {pt for v in supports.values() for pt in v} | set(anchors):
        cells.setdefault(math.floor(pt), []).append(pt)
    distinct, total = _member_counts(cells.values())
    certs.append(Certificate(
        "partition_cells_vc_at_most_one", distinct == total,
        f"{len(cells)} cells over {distinct} points, no pair shattered"))

    cell_mask = {}
    for i, anc in enumerate(anchors):
        cell = math.floor(anc)
        cell_mask[cell] = cell_mask.get(cell, 0) | 1 << i
    certs.append(_strategic_traces(
        n, supports, lambda q: cell_mask.get(math.floor(q), 0)))

    return ConstructionInstance("partition_pathology", n, {}, anchors,
                                supports, certs)


# ---------------------------------------------------------------------------
# One-parameter fractional-part construction

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


def _frac_sqrt2_between(m: int, lo: Fraction, hi: Fraction) -> bool:
    """lo < frac(m * sqrt(2)) < hi, decided exactly for an integer m >= 1
    and 0 <= lo < hi.  m * sqrt(2) is irrational with floor k =
    isqrt(2 * m^2), so the test is (k + lo)^2 < 2 * m^2 < (k + hi)^2, here
    multiplied through by the squared denominators of lo and hi."""
    two_m2 = 2 * m * m
    k = math.isqrt(two_m2)
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    return (k * b + a) ** 2 < two_m2 * b * b and \
        two_m2 * d * d < (k * d + c) ** 2


def _first_residue(p: int, q: int, lo: int, hi: int) -> Optional[int]:
    """The least x >= 0 with lo <= p * x mod q <= hi, for 0 <= lo <= hi < q,
    or None when there is none.  When no multiple of p lies in [lo, hi],
    the least x has the least number y of wraps past q, which solves the
    same problem for (q mod p, p): a Euclid recursion."""
    if lo == 0:
        return 0
    p %= q
    if p == 0:
        return None
    x = -(-lo // p)
    if p * x <= hi:
        return x
    y = _first_residue(q, p, p - hi % p, p - lo % p)
    return None if y is None else -(-(lo + q * y) // p)


def _least_multiplier(lo: Fraction, hi: Fraction) -> int:
    """The least m >= 1 with lo < frac(m * sqrt(2)) < hi, for
    0 < lo < hi <= 1.  With P/Q the lower bound isqrt(2 Q^2)/Q of sqrt(2),
    Q = 2^bits, frac(m' * sqrt(2)) lies in (s/Q, (s + m')/Q) for
    s = m' * P mod Q, so every multiplier m' <= m in the window has s in
    [L - m - 1, R], [L, R] the integers strictly inside the window in units
    of 1/Q, once floor(lo * Q) > m + 1 rules out a wrap past 1.  The least
    m with s in [L, R] is least when the search over [L - m - 1, R] returns
    it too, and it is checked exactly; otherwise bits doubles."""
    bits = 64
    while True:
        q = 1 << bits
        p = math.isqrt(2 * q * q)
        low, high = math.floor(lo * q), math.ceil(hi * q) - 1
        m = _first_residue(p, q, low + 1, high)
        if m is not None and low > m + 1 and \
                _frac_sqrt2_between(m, lo, hi) and \
                _first_residue(p, q, low - m, high) == m:
            return m
        bits *= 2


def build_frac_construction(n: int = 3, r=Fraction(1, 4)
                            ) -> ConstructionInstance:
    """One-parameter strategic shattering via fractional parts.

    The class is {h_t : t real} with h_t the indicator of
    {b_i + frac(t * b_i) : i = 1..n}; neighborhoods are closed intervals of
    radius r and the anchors are b_i + 1/2.  Nested intervals I_A pin the
    trace of h_t to A whenever frac(t) lies in I_A, and for each A the
    parameter t_A = sqrt(2) * m_A with the least m_A >= 1 that puts
    frac(t_A) in I_A is found by a Euclid recursion (_least_multiplier);
    each window test on the fractional part of an integer multiple of
    sqrt(2) is an exact integer comparison, so none is ever undecided.
    """
    if n < 1:
        raise ConstructionError("need n >= 1")
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

    witnesses = {}
    supports = {}
    labels_ok = True
    detail = ""
    p_lo, p_hi = Fraction(1, 2) - r, Fraction(1, 2) + r
    for key, (lo, hi) in sorted(intervals.items()):
        witnesses[key] = m_a = _least_multiplier(lo, hi)
        # certify the trace of t = sqrt(2) * m_a anchor by anchor
        pts = []
        for i, b in enumerate(moduli, start=1):
            inside = _frac_sqrt2_between(m_a * b, p_lo, p_hi)
            want = i in set(key)
            if inside != want:
                labels_ok = False
                detail = f"subset {key}: anchor {i} mislabeled"
            if not inside and not _frac_sqrt2_between(m_a * b, Fraction(0),
                                                     p_lo):
                labels_ok = False
                detail = f"subset {key}: frac at anchor {i} outside (0, " \
                         f"{p_lo})"
            pts.append(("enclosure", b, m_a * b))
        supports[key] = tuple(pts)
    certs.append(Certificate(
        "witness_multipliers", True,
        f"multipliers {[witnesses[k] for k in sorted(witnesses)]}"))
    certs.append(Certificate(
        "strategic_shattering", labels_ok,
        detail or f"all {1 << n} traces certified at radius {r}"))
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

