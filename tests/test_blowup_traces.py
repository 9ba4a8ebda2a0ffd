"""The blowup's trace certificates against a brute-force oracle, and the
all-radii block enumeration against its sorted definition."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ref_interval_trace
from stratdef import constructions as C
from stratdef.constructions import (
    AllRadiiFamily,
    ConstructionError,
    build_fixed_blowup,
)


def _name(s: Fraction) -> str:
    text = str(s.numerator) if s.denominator == 1 else \
        f"{s.numerator}/{s.denominator}"
    return f"strategic_shattering_s={text}"


def _first_mistrace(inst, s):
    """The oracle's first subset, in support order, whose trace at radius s
    is not itself, with that trace; None when there is none."""
    for key, pts in inst.supports.items():
        trace = ref_interval_trace(inst.anchors, pts, s)
        if trace != key:
            return key, trace
    return None


# fractions whose denominators have an odd factor
_odd_dens = st.sampled_from([3, 5, 6, 7, 9, 12, 15, 25])
_unit = st.builds(Fraction, st.integers(1, 12), st.sampled_from([13, 14, 15]))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5),
       r=st.builds(Fraction, st.integers(1, 60), _odd_dens),
       shrink=_unit,
       offset=st.builds(Fraction, st.integers(-50, 50), _odd_dens),
       spots=st.lists(_unit, min_size=1, max_size=3))
def test_blowup_certificates_agree_with_trace_oracle(n, r, shrink, offset,
                                                     spots):
    rp = r * shrink
    radii = sorted({rp + (r - rp) * f for f in spots} | {rp, r})
    inst = build_fixed_blowup(n, r, rp, radii=radii, offset=offset)
    certs = {c.name: c for c in inst.certificates}
    for s in radii:
        assert certs[_name(s)].passed
        assert _first_mistrace(inst, s) is None


def _moved(key, anchor, where):
    """A _blowup_grid whose support `key` has its point at `anchor` moved to
    where(anchor position, S), S the first radius on the grid."""
    grid = C._blowup_grid

    def forged(n, r, rp, radii):
        u, anchors, supports = grid(n, r, rp, radii)
        pts = list(supports[key])
        pts[anchor - 1] = where(anchors[anchor - 1], int(radii[0] / r * u))
        supports[key] = tuple(pts)
        return u, anchors, supports
    return forged


@pytest.mark.parametrize("forgeries, detail", [
    # the inner point at anchor 3 one grid step beyond the radius
    ([((1, 3), 3, lambda a, S: a + S + 1)], "subset (1, 3) traced as (1,)"),
    # an outer point at distance exactly s: the neighborhood is closed
    ([((2, 3), 1, lambda a, S: a - S)], "subset (2, 3) traced as (1, 2, 3)"),
    # of two forged subsets the first in support order is reported
    ([((2, 3), 1, lambda a, S: a - S), ((1, 3), 3, lambda a, S: a + S + 1)],
     "subset (1, 3) traced as (1,)"),
])
def test_forged_point_across_radius_fails(monkeypatch, forgeries, detail):
    for key, anchor, where in forgeries:
        monkeypatch.setattr(C, "_blowup_grid", _moved(key, anchor, where))
    s = Fraction(3, 4)
    inst = build_fixed_blowup(3, 1, Fraction(1, 2), radii=[s])
    cert = {c.name: c for c in inst.certificates}[_name(s)]
    key, trace = _first_mistrace(inst, s)
    assert not cert.passed
    assert cert.detail == f"subset {key} traced as {trace}" == detail


def test_blowup_grid_depends_on_n_and_ratios_alone():
    # build_all_radii certifies the siblings of one n once: their grids, and
    # so their certificates, are those of rp/r = 1/2 and radii/r = 1/2, 3/4,
    # 1 at every dyadic r and offset
    for n in range(1, 7):
        first = None
        for m in range(-3, 4):
            r = Fraction(2) ** -m
            grid = C._blowup_grid(n, r, r / 2, [r / 2, 3 * r / 4, r])
            first = first or grid
            assert grid == first, (n, m)
            for offset in (Fraction(0), Fraction(-7, 3), 10 * r + 1):
                *core, certs = C._blowup_core(n, r, r / 2, offset)
                assert tuple(core) == grid
                assert all(c.passed for c in certs)


# ---------------------------------------------------------------------------
# All-radii enumeration


def _sorted_pairs(t: int) -> list:
    """The first t pairs (n, m) by sorting (n + m + M, n, m) over n in
    1..t+1 and m in -M..M."""
    M = max(1, math.ceil(math.log2(t)))
    pairs = sorted((n + idx, n, idx - M) for n in range(1, t + 2)
                   for idx in range(2 * M + 1))
    return [(n, m) for _, n, m in pairs[:t]]


def test_block_pairs_follow_sorted_enumeration():
    for t in [*range(1, 300), 1000, 1024, 1025, 4096]:
        assert C._block_pairs(t) == _sorted_pairs(t), t


@pytest.mark.parametrize("s", [
    Fraction(1, 10 ** 3000), Fraction(10 ** 3000),
    Fraction(10 ** 3000 + 1, 10 ** 3000), Fraction(10 ** 3000 - 1, 10 ** 3000),
    Fraction(1, 2 ** 9966), Fraction(2 ** 9966), Fraction(2 ** 9966 + 1),
    Fraction(1, 2 ** 9966 - 1), Fraction(3, 2 ** 9967)])
def test_radius_exponent_window_far_from_one(s):
    m = AllRadiiFamily.radius_exponent(s)
    assert Fraction(2) ** -(m + 1) < s <= Fraction(2) ** -m


@pytest.mark.parametrize("t, s, n, message", [
    (260, Fraction(3, 10), 50,
     "no block for s=3/10, n=50 within t=260; t=2080 suffices"),
    (10, Fraction(1, 3), 9,
     "no block for s=1/3, n=9 within t=10; t=320 suffices"),
    (10, Fraction(1000), 2,
     "no block for s=1000, n=2 within t=10; t=640 suffices"),
    (1, Fraction(1), 1, "no block for s=1, n=1 within t=1; t=2 suffices"),
    (260, Fraction(3, 10), 5000, "no block for s=3/10, n=5000 within t=260"),
    (260, Fraction(1, 10 ** 30), 2,
     f"no block for s=1/{10 ** 30}, n=2 within t=260"),
])
def test_select_block_miss_message(t, s, n, message):
    with pytest.raises(ConstructionError) as e:
        AllRadiiFamily(t).select_block(s, n)
    assert str(e.value) == message


def test_all_radii_builds_each_sibling_grid_once(monkeypatch):
    # the 145 siblings at README's config have 8 distinct n; the selected
    # block (n = 8, m = 2) is built once more, at its own radius
    calls, grid = [], C._blowup_grid

    def counted(n, r, rp, radii):
        calls.append(n)
        return grid(n, r, rp, radii)

    monkeypatch.setattr(C, "_blowup_grid", counted)
    inst = C.build_all_radii(260, Fraction(3, 10), 8, cert_cap=8)
    assert inst.passed()
    assert calls == [8, *range(1, 9)]


def test_forged_sibling_grid_fails_its_block(monkeypatch):
    # the inner point of subset (1, 3) at anchor 3 moved one grid step
    # beyond the largest radius r, on the grid of n = 3 alone
    grid = C._blowup_grid

    def forged(n, r, rp, radii):
        u, anchors, supports = grid(n, r, rp, radii)
        if n == 3:
            pts = list(supports[(1, 3)])
            pts[2] = anchors[2] + u + 1
            supports[(1, 3)] = tuple(pts)
        return u, anchors, supports

    monkeypatch.setattr(C, "_blowup_grid", forged)
    inst = C.build_all_radii(260, Fraction(1, 3), 8, cert_cap=5)
    first = next(b for b in AllRadiiFamily(260).blocks if b.n == 3)
    certs = {c.name: c for c in inst.certificates}
    sibling = certs.pop("sibling_blocks_verified_n<=5")
    assert not sibling.passed
    assert sibling.detail == f"block (n=3, m={first.m}) failed"
    assert all(c.passed for c in certs.values())
