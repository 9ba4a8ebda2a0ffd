"""Tests for the strategic classifier transform and its complexity bounds."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from stratdef import formula as fm
from stratdef import transform as tr
from stratdef.families import lp_ball, halfspace, make_family, make_neighborhood
from stratdef.solve import witness_search


def _spec(l=2, p=2, r="1/2"):
    h = halfspace(l)
    n = lp_ball(l, p, r)
    return tr.strategic_transform(h.emit_formula(), n.emit_formula(),
                                  input_dim=l)


# ---------------------------------------------------------------------------
# Structure


def test_transform_output_is_existential():
    spec = _spec()
    assert fm.classify_fragment(spec.transformed) == fm.EXISTENTIAL
    assert isinstance(spec.transformed, fm.Exists)


def test_transform_infers_input_dim_from_doubled_block():
    h = halfspace(3)
    n = lp_ball(3, 2, "1/2")
    spec = tr.strategic_transform(h.emit_formula(), n.emit_formula())
    assert spec.input_dim == 3


def test_transform_rejects_odd_neighborhood_block():
    # a neighborhood over 3 x-variables cannot be a doubled block
    bad = fm.parse("(<= (+ x0 (+ x1 x2)) 1)")
    with pytest.raises(tr.TransformError):
        tr.strategic_transform(fm.parse("(<= x0 a0)"), bad)


def test_transform_rejects_universal_quantifiers():
    h = fm.parse("(forall (w0) (<= w0 a0))")
    n = fm.parse("(<= (- x1 x0) 1)")
    with pytest.raises(tr.TransformError):
        tr.strategic_transform(h, n, input_dim=1)


def test_transform_witness_blocks_disjoint():
    # hypothesis and neighborhood witness blocks must not collide after
    # renaming; every witness index below the quantifier must be distinct
    h = fm.parse("(exists (w0) (and (= w0 (exp x0)) (<= a0 w0)))")
    n = fm.parse("(exists (w0) (and (= w0 (- x1 x0)) (<= (* w0 w0) 1)))")
    spec = tr.strategic_transform(h, n, input_dim=1)
    idx = spec.transformed.indices
    assert len(idx) == len(set(idx))
    # one witness from each input, plus the moved point itself
    assert len(idx) == 1 + 1 + 1


# ---------------------------------------------------------------------------
# Semantics


def test_transform_semantics_halfspace_ball():
    # strategic label is 1 iff the ball of radius r around x meets the
    # halfspace: distance from x to the boundary plane <= r or x already in
    rng = random.Random(5)
    l, r = 2, 0.5
    spec = _spec(l=l, p=2, r="1/2")
    for _ in range(40):
        x = [rng.uniform(-2, 2) for _ in range(l)]
        a = [rng.uniform(-1, 1) for _ in range(l + 1)]
        gain = r * math.hypot(*a[:l])
        margin = sum(ai * xi for ai, xi in zip(a, x)) - a[l]
        if abs(margin + gain) < 1e-6:
            continue  # skip knife-edge cases for the float search
        want = margin + gain >= 0
        got = witness_search(spec.transformed, x, a).found
        assert got == want, (x, a)


def test_transform_semantics_identity_neighborhood():
    # with the identity neighborhood the strategic class is the base class
    l = 2
    h = make_family(f"halfspace:l={l}")
    n = make_neighborhood(f"identity:l={l}")
    spec = tr.strategic_transform(h.emit_formula(), n.emit_formula(),
                                  input_dim=l)
    rng = random.Random(9)
    for _ in range(40):
        x = [rng.uniform(-2, 2) for _ in range(l)]
        a = [rng.uniform(-1, 1) for _ in range(l + 1)]
        if abs(sum(ai * xi for ai, xi in zip(a, x)) - a[l]) < 1e-6:
            continue
        want = h.evaluate(a, x) == 1
        assert witness_search(spec.transformed, x, a).found == want


# ---------------------------------------------------------------------------
# Complexity accounting


def test_transform_format_and_degree_accounting():
    spec = _spec(l=2, p=2, r="1/2")
    ph, pn, po = (spec.hypothesis_profile, spec.neighborhood_profile,
                  spec.transformed_profile)
    # free variables: F_out = F_H + F_N - l (the doubled block is shared)
    assert po.format == ph.format + pn.format - spec.input_dim
    assert po.degree <= ph.degree + pn.degree
    assert po.witness_dim == ph.witness_dim + pn.witness_dim + spec.input_dim


@pytest.mark.parametrize("desc_h,desc_n", [
    ("halfspace:l=2", "lp:l=2,p=2,r=1/2"),
    ("threshold", "interval:r=1/2"),
    ("ptf:l=2,D=3", "l1:l=2,r=1"),
    ("nn:widths=2-2-1", "linf:l=2,r=1/2"),
])
def test_transform_doubling_bound(desc_h, desc_n):
    h = make_family(desc_h)
    n = make_neighborhood(desc_n)
    spec = tr.strategic_transform(h.emit_formula(), n.emit_formula(),
                                  input_dim=h.input_dim)
    F = max(spec.hypothesis_profile.format, spec.neighborhood_profile.format)
    D = max(spec.hypothesis_profile.degree, spec.neighborhood_profile.degree)
    assert spec.transformed_profile.format <= 2 * F
    assert spec.transformed_profile.degree <= 2 * D


def _random_existential_pair(rng: random.Random):
    """Random QF/existential hypothesis over (x, a) and neighborhood over a
    doubled x block, with small random polynomial atoms."""
    l = rng.randint(1, 3)

    def poly(vars_):
        terms = [fm.const(rng.randint(-2, 2))]
        for _ in range(rng.randint(1, 3)):
            factors = [fm.const(rng.randint(-2, 2))]
            for _ in range(rng.randint(1, 2)):
                factors.append(rng.choice(vars_))
            terms.append(fm.mul(*factors))
        return fm.add(*terms)

    def body(vars_):
        atoms = [fm.atom(poly(vars_), rng.choice(["<=", "<", "="]),
                         fm.const(rng.randint(-2, 2)))
                 for _ in range(rng.randint(1, 3))]
        return fm.conj(*atoms) if len(atoms) > 1 else atoms[0]

    hw = rng.randint(0, 2)
    h_vars = ([fm.x(i) for i in range(l)] + [fm.a(0)]
              + [fm.w(i) for i in range(hw)])
    h = body(h_vars)
    if hw:
        h = fm.Exists(tuple(range(hw)), h)

    nw = rng.randint(0, 2)
    n_vars = [fm.x(i) for i in range(2 * l)] + [fm.w(i) for i in range(nw)]
    # force both halves of the doubled block to appear so l is inferable
    n0 = fm.atom(fm.sub(fm.x(2 * l - 1), fm.x(0)), "<=", fm.const(1))
    n = fm.conj(n0, body(n_vars))
    if nw:
        n = fm.Exists(tuple(range(nw)), n)
    return h, n, l


def test_transform_doubling_bound_random_pairs():
    rng = random.Random(17)
    for _ in range(100):
        h, n, l = _random_existential_pair(rng)
        spec = tr.strategic_transform(h, n, input_dim=l)
        F = max(spec.hypothesis_profile.format,
                spec.neighborhood_profile.format)
        D = max(spec.hypothesis_profile.degree,
                spec.neighborhood_profile.degree)
        assert spec.transformed_profile.format <= 2 * F, (h, n)
        assert spec.transformed_profile.degree <= D + D, (h, n)


def test_complexity_report_fields():
    spec = _spec()
    rep = tr.complexity_report(spec)
    assert rep["input_dim"] == 2
    assert set(rep["hypothesis"]) == {"format", "degree", "witnesses",
                                      "exp_atoms"}
    assert rep["transformed"]["format"] == spec.transformed_profile.format
    assert "vc_dimension" in rep["symbolic_bounds"]
    assert "unspecified" in rep["symbolic_bounds"]["vc_dimension"]
