"""Tests for hypothesis families and neighborhood systems."""

from __future__ import annotations

import math
import random
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from stratdef import families as fam
from stratdef import formula as fm
from stratdef.families import (
    FamilyError,
    batch_strategic_labels,
    decision_tree,
    emd_ball,
    emd_value,
    floor_partition,
    footnote_metric,
    gaussian_kl_location,
    halfspace,
    identity,
    interval_radius,
    kl_ball,
    lp2_ball_variable_radius,
    lp_ball,
    make_family,
    make_neighborhood,
    monomial_exponents,
    polynomial_threshold,
    reach_margin,
    sigmoid_network,
    strategic_label,
    threshold,
)
from stratdef.solve import Assignment, eval_qf, witness_search

from helpers import (ref_in_gauss_kl_ball, ref_in_kl_ball, ref_in_lp_ball,
                     ref_in_lp_var_ball, ref_ptf, ref_sigmoid_net, ref_tree,
                     sampled_strategic_label)


def _check_family_formula(family, rng, trials=40, margin=1e-6):
    """evaluate() and the emitted formula must agree away from boundaries."""
    f = family.emit_formula()
    checked = 0
    for _ in range(trials):
        x = [rng.uniform(-2, 2) for _ in range(family.input_dim)]
        a = [rng.uniform(-1, 1) for _ in range(family.param_dim)]
        res = witness_search(f, x, a)
        want = bool(family.evaluate(a, x))
        if res.found != want:
            # tolerate only genuine knife-edge points
            flipped = [v + margin for v in x]
            assert bool(family.evaluate(a, flipped)) != want or \
                bool(family.evaluate(a, [v - margin for v in x])) != want, \
                (family.name, x, a)
        else:
            checked += 1
    assert checked >= trials // 2


def _member_by_formula(neigh, src, tgt):
    f = neigh.emit_formula()
    xs = [float(v) for v in src] + [float(v) for v in tgt]
    return witness_search(f, xs, []).found


# ---------------------------------------------------------------------------
# Hypothesis families


def test_halfspace_evaluate_and_formula():
    h = halfspace(2)
    assert h.evaluate([1, 0, Fraction(1, 2)], [1, 0]) is True
    assert h.evaluate([1, 0, Fraction(1, 2)], [0, 0]) is False
    _check_family_formula(h, random.Random(1))


def test_threshold_family():
    t = threshold()
    assert t.input_dim == 1 and t.param_dim == 1
    assert t.evaluate([Fraction(1, 2)], [Fraction(1, 2)]) is True
    assert t.evaluate([Fraction(1, 2)], [Fraction(49, 100)]) is False
    _check_family_formula(t, random.Random(2))


def test_monomial_exponents_graded_and_counted():
    monos = monomial_exponents(2, 2)
    # 1, x0, x1, x0^2, x0*x1, x1^2
    assert len(monos) == 6
    assert monos[0] == ()
    assert all(len(m) <= 2 for m in monos)


def test_polynomial_threshold_family():
    p = polynomial_threshold(2, 2)
    assert p.param_dim == 6
    # x0^2 + x1^2 - 1 > 0 outside the unit circle
    coeffs = [-1, 0, 0, 1, 0, 1]
    assert p.evaluate(coeffs, [1, 1]) is True
    assert p.evaluate(coeffs, [0.5, 0.5]) is False
    _check_family_formula(p, random.Random(3), trials=30)


def test_decision_tree_family():
    tr = decision_tree(1, 2, 1, [0, 1, 1, 0])
    # depth 2, linear splits over 1 variable: 3 nodes x 2 coeffs
    assert tr.param_dim == 6
    # root: x >= 0, left child: x >= -1, right child: x >= 1
    params = [0, 1, 1, 1, -1, 1]
    # x = -2: root left, node2 poly -2+1 < 0 -> leaf 0 -> label 0
    assert tr.evaluate(params, [-2]) is False
    # x = -0.5: root left, node2 poly 0.5 >= 0 -> leaf 1 -> label 1
    assert tr.evaluate(params, [-0.5]) is True
    # x = 0.5: root right, node3 poly -0.5 < 0 -> leaf 2 -> label 1
    assert tr.evaluate(params, [0.5]) is True
    # x = 2: root right, node3 poly 1 >= 0 -> leaf 3 -> label 0
    assert tr.evaluate(params, [2]) is False
    _check_family_formula(tr, random.Random(4), trials=30)


def test_decision_tree_formula_tests_each_node_once():
    rng = random.Random(24)
    for depth in range(1, 11):
        n = 1 << depth
        single = ["0"] * n
        single[rng.randrange(n)] = "1"
        for labels in ("0" * n, "1" * n, "".join(single),
                       "".join(rng.choice("01") for _ in range(n))):
            f = make_family(f"tree:l=2,depth={depth},q=1,"
                            f"labels={labels}").formula()
            assert fm.parse(str(f)) == f
            if "1" not in labels:
                assert f == fm.atom(fm.const(0), ">", fm.const(1))
                continue
            atoms = list(fm.formula_atoms(f))
            # each distinct atom once; a node's polynomial in at most two
            assert len(set(atoms)) == len(atoms), (depth, labels)
            tests = Counter(at.lhs for at in atoms)
            assert max(tests.values()) <= 2 and len(tests) <= n - 1
            if labels == "1" * n:
                assert len(atoms) == 2 * (n - 1)
            elif labels.count("1") == 1:
                assert len(atoms) == depth
    f = make_family("tree:l=1,depth=12,q=0").formula()
    assert fm.parse(str(f)) == f


def test_decision_tree_rejects_bad_labels():
    with pytest.raises(FamilyError):
        decision_tree(1, 2, 1, [0, 1, 1])
    with pytest.raises(FamilyError):
        decision_tree(1, 0, 1, [0])


@pytest.mark.parametrize("spec", ["halfspace:l=2", "threshold", "ptf:l=2,D=2",
                                  "tree:l=2,depth=2,q=1,labels=0110",
                                  "nn:widths=2-2-1"])
def test_evaluate_checks_arity(spec):
    family = make_family(spec)
    a, x = [0] * family.param_dim, [0] * family.input_dim
    for bad_a, bad_x in ((a[1:], x), (a + [0], x), (a, x[1:]), (a, x + [9])):
        with pytest.raises(FamilyError):
            family.evaluate(bad_a, bad_x)


# the registry family against a plain-Python reading of its semantics
_FAMILY_REFS = {
    "tree:l=2,depth=2,q=1,labels=0110":
        lambda a, x: ref_tree(a, x, 2, 2, 1, "0110"),
    "tree:l=2,depth=3,q=1,labels=10011101":
        lambda a, x: ref_tree(a, x, 2, 3, 1, "10011101"),
    "tree:l=2,depth=3,q=2": lambda a, x: ref_tree(a, x, 2, 3, 2, "01" * 4),
    "tree:l=2,depth=5,q=1,labels=01101001100101101001011001101001":
        lambda a, x: ref_tree(a, x, 2, 5, 1,
                              "01101001100101101001011001101001"),
    "tree:l=2,depth=1,q=1": lambda a, x: ref_tree(a, x, 2, 1, 1, "01"),
    "ptf:l=2,D=2": lambda a, x: ref_ptf(a, x, 2, 2),
    "ptf:l=2,D=3": lambda a, x: ref_ptf(a, x, 2, 3),
    "ptf:l=3,D=2": lambda a, x: ref_ptf(a, x, 3, 2),
    "ptf:l=3,D=3": lambda a, x: ref_ptf(a, x, 3, 3),
}


@pytest.mark.parametrize("spec", sorted(_FAMILY_REFS))
def test_family_evaluate_matches_reference(spec):
    family, ref = make_family(spec), _FAMILY_REFS[spec]
    rng = np.random.default_rng(31)
    # the kernel's shapes: params [k, rows, 1, 1] against points
    # [l, m, 1 + budget]
    A = family.draw_params(rng, 4)
    Y = rng.uniform(-1, 1, size=(family.input_dim, 5, 7))
    got = family.evaluate(A.T[:, :, None, None], Y)
    assert got.tolist() == [[[ref(list(a), list(Y[:, j, t]))
                              for t in range(7)] for j in range(5)]
                            for a in A]
    assert 0 < got.sum() < got.size
    # scalars: small rationals are exact and often land on a boundary
    seen = set()
    for _ in range(60):
        a = [Fraction(int(v), 4) for v in rng.integers(-4, 5, len(A[0]))]
        x = [Fraction(int(v), 2) for v in rng.integers(-2, 3, len(Y))]
        want = ref(a, x)
        assert family.evaluate(a, x) is want
        assert family.evaluate([float(v) for v in a],
                               [float(v) for v in x]) is want
        seen.add(want)
    assert seen == {True, False}


_NEIGHBORHOOD_REFS = {
    "identity:l=2": lambda x, y: all(u == v for u, v in zip(x, y)),
    "lp:l=2,p=2,r=1/3":
        lambda x, y: ref_in_lp_ball(x, y, 2, Fraction(1, 3)),
    "linf:l=2,r=1/3":
        lambda x, y: ref_in_lp_ball(x, y, math.inf, Fraction(1, 3)),
    "interval:r=1/7":
        lambda x, y: ref_in_lp_ball(x, y, math.inf, Fraction(1, 7)),
    "lp_var:l=2,coord=1": lambda x, y: ref_in_lp_var_ball(x, y, 1),
    "gauss_kl:r=1/2":
        lambda x, y: ref_in_gauss_kl_ball(x, y, Fraction(1, 2)),
}


@pytest.mark.parametrize("spec", sorted(_NEIGHBORHOOD_REFS))
def test_neighborhood_contains_matches_reference(spec):
    n, ref = make_neighborhood(spec), _NEIGHBORHOOD_REFS[spec]
    rng = np.random.default_rng(37)
    # the samplers' shapes: points [l, m, 1] against draws [l, m, budget]
    X = rng.uniform(-1, 1, size=(n.dim, 6, 1))
    Y = X + rng.uniform(-0.6, 0.6, size=(n.dim, 6, 9))
    Y[:, :, 0] = X[:, :, 0]  # the point itself
    got = n.contains(X, Y)
    assert got.tolist() == [[ref(list(X[:, j, 0]), list(Y[:, j, t]))
                             for t in range(9)] for j in range(6)]
    # scalar Fractions, offsets in 210ths that put y on the boundaries at
    # r = 1/7, 1/3 (also (1/5, 4/15) on the l2 sphere), 3/7 and 1
    steps = [0, 30, 42, 56, 70, 90, 100, 210, 250]
    seen = set()
    for _ in range(300):
        x = [Fraction(int(v), 7) for v in rng.integers(-7, 8, n.dim)]
        y = [u + Fraction(int(rng.choice(steps)) * int(rng.choice([-1, 1])),
                          210) for u in x]
        want = ref(x, y)
        assert n.contains(x, y) is want
        seen.add(want)
    assert seen == {True, False}


def test_sigmoid_network_family():
    nn = sigmoid_network((2, 2, 1))
    # 2 hidden neurons x 3 + output x 3
    assert nn.param_dim == 9
    _check_family_formula(nn, random.Random(5), trials=25)


def test_sigmoid_network_saturates_without_overflow():
    # hidden inputs of -1200: exp(1200) overflows, the logistic limit is 0
    nn = sigmoid_network((2, 2, 1))
    x = [1.0, 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, want in (([-400.0] * 9, False),
                        # output -z0 - z1 >= 0 holds only at the limit 0
                        ([-400.0] * 6 + [-1.0, -1.0, 0.0], True)):
            assert bool(nn.evaluate(a, x)) is want
            assert strategic_label(nn, identity(2), a, x) is want
            assert batch_strategic_labels(nn, identity(2), a,
                                          np.array([x])).tolist() == [want]


def test_sigmoid_network_shape_validation():
    with pytest.raises(FamilyError):
        sigmoid_network((2, 2))  # output width must be 1
    with pytest.raises(FamilyError):
        sigmoid_network((3,))


# ---------------------------------------------------------------------------
# Neighborhood systems: membership


def test_identity_neighborhood():
    n = identity(2)
    assert n.contains([Fraction(1), Fraction(2)], [Fraction(1), Fraction(2)])
    assert not n.contains([Fraction(1), Fraction(2)],
                          [Fraction(1), Fraction(3)])
    assert _member_by_formula(n, [0.5, -0.25], [0.5, -0.25])
    assert not _member_by_formula(n, [0.5, -0.25], [0.5, 0.25])


@pytest.mark.parametrize("p,inside,outside", [
    (1, (Fraction(1, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(3, 8))),
    (2, (Fraction(3, 10), Fraction(3, 10)), (Fraction(2, 5), Fraction(2, 5))),
    ("inf", (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(5, 8))),
])
def test_lp_ball_exact_membership(p, inside, outside):
    n = lp_ball(2, p, Fraction(1, 2))
    zero = (Fraction(0), Fraction(0))
    assert n.contains(zero, inside)
    assert not n.contains(zero, outside)
    assert _member_by_formula(n, zero, inside)
    assert not _member_by_formula(n, zero, outside)


def test_lp_ball_boundary_is_closed():
    n = lp_ball(1, 2, Fraction(1, 2))
    assert n.contains([Fraction(0)], [Fraction(1, 2)])
    assert not n.contains([Fraction(0)], [Fraction(1, 2) + Fraction(1, 1000)])


def test_lp_ball_general_exponent():
    n = lp_ball(2, Fraction(3, 2), 1)
    assert n.contains([0.0, 0.0], [0.5, 0.5])
    assert not n.contains([0.0, 0.0], [0.9, 0.9])
    with pytest.raises(FamilyError):
        lp_ball(2, Fraction(3, 2), Fraction(1, 2))
    f = n.emit_formula()
    assert fm.classify_fragment(f) == fm.EXISTENTIAL
    prof = fm.complexity(fm.to_graph_form(f).formula, input_dim=4)
    assert prof.exp_atoms == 4


def test_lp_ball_general_exponent_formula_agreement():
    n = lp_ball(1, Fraction(3, 2), 1)
    for y in (0.5, 0.99, -0.7):
        assert _member_by_formula(n, [0.0], [y]) == n.contains([0.0], [y])
    assert not _member_by_formula(n, [0.0], [1.4])


def test_lp2_variable_radius():
    n = lp2_ball_variable_radius(2, 0)
    # radius = x0 when positive
    assert n.contains([Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)])
    assert not n.contains([Fraction(1), Fraction(0)],
                          [Fraction(1), Fraction(11, 10)])
    # frozen when x0 < 0
    assert n.contains([Fraction(-1), Fraction(0)], [Fraction(-1), Fraction(0)])
    assert not n.contains([Fraction(-1), Fraction(0)],
                          [Fraction(-1), Fraction(1, 100)])
    assert _member_by_formula(n, [1.0, 0.0], [1.0, 0.9])
    assert not _member_by_formula(n, [-1.0, 0.0], [-1.0, 0.5])


def test_interval_radius():
    n = interval_radius(Fraction(1, 2))
    assert n.kind == "interval" and n.p == math.inf
    assert n.contains([Fraction(0)], [Fraction(1, 2)])
    assert not n.contains([Fraction(0)], [Fraction(51, 100)])


def test_gaussian_kl_location():
    n = gaussian_kl_location(Fraction(1, 2))
    # (m - m')^2 <= 2r = 1
    assert n.contains([Fraction(0)], [Fraction(1)])
    assert not n.contains([Fraction(0)], [Fraction(11, 10)])
    assert _member_by_formula(n, [0.0], [0.9])
    assert not _member_by_formula(n, [0.0], [1.1])


def test_kl_ball_membership():
    n = kl_ball(2, Fraction(1, 10))
    x = [0.5, 0.5]
    assert n.contains(x, [0.5, 0.5])
    assert n.contains(x, [0.6, 0.4])  # KL ~ 0.0204
    assert not n.contains(x, [0.95, 0.05])  # KL ~ 0.83
    with pytest.raises(FamilyError):
        n.contains([0.7, 0.7], [0.5, 0.5])
    # moving mass off the support of y while x has mass there is infinite KL
    assert not n.contains([0.5, 0.5], [1.0, 0.0])


def test_kl_ball_formula_against_float_divergence():
    n = kl_ball(2, Fraction(1, 10))
    x = [0.5, 0.5]
    for y0 in (0.5, 0.6, 0.35, 0.9):
        y = [y0, 1 - y0]
        kl = sum(xi * math.log(xi / yi) for xi, yi in zip(x, y))
        if abs(kl - 0.1) < 1e-3:
            continue
        assert _member_by_formula(n, x, y) == (kl <= 0.1), y


def test_emd_value_footnote_metric():
    g = footnote_metric()
    f = Fraction
    delta1 = (f(1), f(0), f(0))
    delta3 = (f(0), f(0), f(1))
    assert emd_value(delta1, delta1, g) == 0
    assert emd_value(delta1, delta3, g) == 2
    assert emd_value((f(1, 2), f(1, 2), f(0)),
                     (f(0), f(1, 2), f(1, 2)), g) == 1
    with pytest.raises(FamilyError):
        emd_value((f(1), f(0), f(0)), (f(0), f(0), f(2)), g)


def test_emd_ball_membership_and_formula():
    g = footnote_metric()
    n = emd_ball(g, 1)
    f = Fraction
    x = (f(1), f(0), f(0))
    assert n.contains(x, (f(0), f(1), f(0)))       # cost 1
    assert not n.contains(x, (f(0), f(0), f(1)))   # cost 2
    assert _member_by_formula(n, x, (0.0, 1.0, 0.0))
    assert not _member_by_formula(n, x, (0.0, 0.0, 1.0))


def test_emd_ball_rejects_bad_metric():
    f = Fraction
    with pytest.raises(FamilyError):
        emd_ball(((f(1), f(0)), (f(0), f(0))), 1)  # diagonal nonzero
    with pytest.raises(FamilyError):
        emd_ball(((f(0), f(1)), (f(2), f(0))), 1)  # asymmetric


def test_floor_partition_not_definable():
    n = floor_partition()
    assert n.contains([1.5], [1.9])
    assert not n.contains([1.5], [2.0])
    with pytest.raises(FamilyError):
        n.formula()


# ---------------------------------------------------------------------------
# Strategic labels


def test_reach_margin_halfspace_l2():
    h = halfspace(2)
    n = lp_ball(2, 2, Fraction(1, 2))
    # plane x0 = 1: point at 0.6 reaches with r = 0.5
    m = reach_margin(h, n, [1, 0, 1], [0.6, 0.0])
    assert m == pytest.approx(0.1)
    assert strategic_label(h, n, [1, 0, 1], [0.6, 0.0]) is True
    assert strategic_label(h, n, [1, 0, 1], [0.4, 0.0]) is False


def test_strategic_label_matches_formula_transform():
    from stratdef.transform import strategic_transform
    h = halfspace(2)
    n = lp_ball(2, "inf", Fraction(1, 4))
    spec = strategic_transform(h.emit_formula(), n.emit_formula(),
                               input_dim=2)
    rng = random.Random(11)
    for _ in range(30):
        x = [rng.uniform(-2, 2) for _ in range(2)]
        a = [rng.uniform(-1, 1) for _ in range(3)]
        m = reach_margin(h, n, a, x)
        if abs(m) < 1e-6:
            continue
        assert strategic_label(h, n, a, x) == \
            witness_search(spec.transformed, x, a).found, (x, a)


def test_batch_strategic_labels_match_scalar():
    rng = np.random.default_rng(13)
    h, t = halfspace(2), threshold()
    ah = [Fraction(1), Fraction(-1), Fraction(1, 4)]
    for family, desc, a in ((h, "lp:l=2,p=2,r=1/2", ah),
                            (h, "l1:l=2,r=1/2", ah),
                            (h, "linf:l=2,r=1/2", ah),
                            (t, "lp:l=1,p=2,r=1/2", [Fraction(0)]),
                            (t, "interval:r=1/2", [Fraction(0)]),
                            (h, "identity:l=2", ah)):
        n = make_neighborhood(desc)
        X = rng.uniform(-2, 2, size=(50, family.input_dim))
        got = batch_strategic_labels(family, n, a, X)
        want = [strategic_label(family, n, a, row) for row in X]
        assert list(got) == want
    # a 1-D l2 ball is an interval: -0.499 reaches the threshold at 0
    n = make_neighborhood("lp:l=1,p=2,r=1/2")
    assert strategic_label(t, n, [0], [-0.499]) is True
    assert list(batch_strategic_labels(t, n, [0], np.array([[-0.499]]))) \
        == [True]
    # a parameter matrix gives one row of labels per parameter vector
    n = make_neighborhood("lp:l=2,p=2,r=1/2")
    A = rng.uniform(-2, 2, size=(4, 3))
    X = rng.uniform(-2, 2, size=(50, 2))
    got = batch_strategic_labels(h, n, A, X)
    assert got.shape == (4, 50)
    for a, row in zip(A, got):
        assert list(row) == [x @ a[:2] + np.linalg.norm(a[:2]) / 2 >= a[2]
                             for x in X]
    # sampled pairs: each point's 64 neighbors, drawn by the oracle itself
    for spec, desc, p, r in (("ptf:l=2,D=2", "lp:l=2,p=2,r=1/4", 2, 0.25),
                             ("tree:l=2,depth=2,q=1,labels=0110",
                              "linf:l=2,r=1/4", math.inf, 0.25),
                             ("halfspace:l=2", "lp:l=2,p=3,r=1", 3, 1.0)):
        family, n = make_family(spec), make_neighborhood(desc)
        A = rng.uniform(-2, 2, size=(3, family.param_dim))
        X = rng.uniform(-1, 1, size=(40, 2))
        want = [[sampled_strategic_label(family, p, r, a, x) for x in X]
                for a in A]
        assert batch_strategic_labels(family, n, A, X).tolist() == want
        assert list(batch_strategic_labels(family, n, A[0], X)) == want[0]
        assert [strategic_label(family, n, A[0], x) for x in X] == want[0]
        # some point is accepted only through a neighbor
        assert any(w and not family.evaluate(list(a), list(x))
                   for a, row in zip(A, want) for x, w in zip(X, row))


@pytest.mark.parametrize("spec,desc", [
    ("ptf:l=2,D=2", "identity:l=2"),
    ("ptf:l=2,D=2", "lp:l=2,p=2,r=1/4"),
    ("ptf:l=2,D=2", "lp:l=2,p=3,r=1"),
    ("ptf:l=2,D=2", "linf:l=2,r=1/4"),
    ("ptf:l=2,D=2", "l1:l=2,r=1/4"),
    ("ptf:l=2,D=2", "lp_var:l=2,coord=1"),
    ("ptf:l=1,D=3", "interval:r=1/4"),
    ("ptf:l=1,D=3", "gauss_kl:r=1/2"),
    ("ptf:l=1,D=3", "floor"),
    ("ptf:l=3,D=2", "kl:l=3,r=1/2"),
    ("ptf:l=3,D=2", "emd:r=1/2"),
])
def test_batch_labels_match_per_row(spec, desc):
    # one call shares its neighbor draws among its points, and each point
    # keeps its own: labelling X at once equals labelling each row alone
    family, n = make_family(spec), make_neighborhood(desc)
    rng = np.random.default_rng(23)
    if n.kind in ("kl", "emd"):
        X = rng.dirichlet(np.ones(n.dim), size=4)
    else:
        X = rng.uniform(-1, 1, size=(30, n.dim))
    A = family.draw_params(rng, 5)
    got = batch_strategic_labels(family, n, A, X)
    assert got.shape == (5, len(X))
    for i, x in enumerate(X):
        assert got[:, i].tolist() == \
            batch_strategic_labels(family, n, A, x[None])[:, 0].tolist()


def _sampled(accepts, member):
    """Oracle of a sampled label: x, or one of its draws ys that lies in
    N_x, is accepted."""
    return lambda a, x, ys: accepts(a, x) or any(
        member(x, y) and accepts(a, y) for y in ys)


_PTF = {l: (lambda a, x, l=l, D=D: ref_ptf(a, x, l, D))
        for l, D in ((1, 3), (2, 2), (3, 2))}


@pytest.mark.parametrize("spec,desc,oracle", [
    ("ptf:l=2,D=2", "identity:l=2", lambda a, x, ys: _PTF[2](a, x)),
    ("ptf:l=2,D=2", "lp:l=2,p=2,r=1/4",
     _sampled(_PTF[2], lambda x, y: ref_in_lp_ball(x, y, 2, 0.25))),
    ("ptf:l=2,D=2", "linf:l=2,r=1/4",
     _sampled(_PTF[2], lambda x, y: ref_in_lp_ball(x, y, math.inf, 0.25))),
    ("ptf:l=2,D=2", "l1:l=2,r=1/4",
     _sampled(_PTF[2], lambda x, y: ref_in_lp_ball(x, y, 1, 0.25))),
    ("ptf:l=2,D=2", "lp:l=2,p=3,r=1",
     _sampled(_PTF[2], lambda x, y: ref_in_lp_ball(x, y, 3, 1))),
    ("ptf:l=2,D=2", "lp_var:l=2,coord=1",
     _sampled(_PTF[2], lambda x, y: ref_in_lp_var_ball(x, y, 1))),
    ("ptf:l=1,D=3", "interval:r=1/4",
     _sampled(_PTF[1], lambda x, y: ref_in_lp_ball(x, y, math.inf, 0.25))),
    ("ptf:l=1,D=3", "gauss_kl:r=1/2",
     _sampled(_PTF[1], lambda x, y: ref_in_gauss_kl_ball(x, y, 0.5))),
    ("ptf:l=3,D=2", "kl:l=3,r=1/2",
     _sampled(_PTF[3], lambda x, y: ref_in_kl_ball(x, y, 0.5))),
    ("ptf:l=3,D=2", "emd:r=1/2", None),
    ("ptf:l=1,D=3", "floor",
     _sampled(_PTF[1], lambda x, y: math.floor(x[0]) == math.floor(y[0]))),
    # the closed form: some y in [x - 1/4, x + 1/4] reaches a0 iff x + 1/4
    # does
    ("threshold", "interval:r=1/4", lambda a, x, ys: x[0] + 0.25 - a[0] >= 0),
    ("nn:widths=2-2-1", "lp:l=2,p=2,r=1/4",
     _sampled(lambda a, x: ref_sigmoid_net(a, x, (2, 2, 1)),
              lambda x, y: ref_in_lp_ball(x, y, 2, 0.25))),
], ids=lambda v: v if isinstance(v, str) else "")
def test_every_array_body_labels(spec, desc, oracle):
    # each sampler, membership test and numeric family body runs on arrays
    # through the label kernel, against a plain-Python oracle on the same
    # draws (emd, whose membership is a transport program, has none: its
    # labels only bound the base class from above)
    family, n = make_family(spec), make_neighborhood(desc)
    rng = np.random.default_rng(41)
    if n.kind in ("kl", "emd"):
        X = rng.dirichlet(np.ones(n.dim), size=4)
    else:
        X = rng.uniform(-2, 2, size=(6, n.dim))
    A = family.draw_params(rng, 3)
    got = batch_strategic_labels(family, n, A, X)
    assert got.shape == (3, len(X)) and got.dtype == np.bool_
    if oracle is None:
        base = [[bool(family.evaluate(list(a), list(x))) for x in X]
                for a in A]
        assert (got >= base).all() and got.any()
        return
    if fam._closed_form(family, n):
        draws = np.empty((len(X), 0, n.dim))
    else:
        draws, _ = n.sample(X, np.random.default_rng(0),
                            fam.SAMPLED_NEIGHBORS)
        assert draws.shape[::2] == (len(X), n.dim)
    want = [[oracle(list(a), list(x), [list(y) for y in ys])
             for x, ys in zip(X, draws)] for a in A]
    assert got.tolist() == want


def test_batch_identity_uses_base_class():
    h = halfspace(2)
    n = identity(2)
    X = np.random.default_rng(17).uniform(-2, 2, size=(40, 2))
    a = [Fraction(1), Fraction(1), Fraction(0)]
    got = batch_strategic_labels(h, n, a, X)
    want = [bool(h.evaluate(a, row)) for row in X]
    assert list(got) == want


# ---------------------------------------------------------------------------
# Registry


@pytest.mark.parametrize("desc,name,l,k", [
    ("halfspace:l=2", "halfspace", 2, 3),
    ("threshold", "threshold", 1, 1),
    ("ptf:l=2,D=3", "ptf_D3", 2, 10),
    ("tree:l=2,depth=2,q=1,labels=0110", "tree_d2_q1", 2, 9),
    ("nn:widths=2-2-1", "nn_2x2x1", 2, 9),
])
def test_make_family(desc, name, l, k):
    h = make_family(desc)
    assert h.input_dim == l and h.param_dim == k
    assert h.name.startswith(name.split("_")[0])


@pytest.mark.parametrize("desc,kind,dim", [
    ("identity:l=2", "identity", 2),
    ("lp:l=2,p=2,r=1/2", "lp", 2),
    ("linf:l=3,r=1", "lp", 3),
    ("l1:l=2,r=1/2", "lp", 2),
    ("lp_var:l=2,coord=0", "lp_var", 2),
    ("interval:r=1/2", "interval", 1),
    ("kl:l=3,r=1", "kl", 3),
    ("gauss_kl:r=1/2", "gauss_kl", 1),
    ("emd:r=1", "emd", 3),
    ("floor", "floor", 1),
])
def test_make_neighborhood(desc, kind, dim):
    n = make_neighborhood(desc)
    assert n.kind == kind and n.dim == dim


def test_neighborhood_formula_is_built_on_first_membership_test(
        monkeypatch):
    # a system whose membership reads its formula builds the formula on the
    # first test and once, not when it is made: a label path that reads a
    # closed form never needs it
    conjunctions = []

    def conj(*parts):
        conjunctions.append(len(parts))
        return fm.And(parts)

    monkeypatch.setattr(fm, "conj", conj)
    n = make_neighborhood("linf:l=3,r=1")
    assert conjunctions == []
    assert n.contains([0.0, 0.5, 1.0], [1.0, -0.5, 0.0])
    assert not n.contains([0.0, 0.5, 1.0], [1.0, -0.5, -1.0625])
    assert conjunctions == [6]
    # a usage error is still raised when the system is made
    with pytest.raises(FamilyError):
        make_neighborhood("linf:l=3,r=-1")
    with pytest.raises(FamilyError):
        fam.NeighborhoodSystem("no-membership", 1)


def test_registry_rejects_unknown():
    with pytest.raises(FamilyError):
        make_family("nope")
    with pytest.raises(FamilyError):
        make_neighborhood("nope:l=2")
    # a key the spec does not take is an error, not silently ignored
    with pytest.raises(FamilyError):
        make_neighborhood("lp:l=2,radius=1/2")
    with pytest.raises(FamilyError):
        make_family("threshold:l=5")
    with pytest.raises(FamilyError):
        make_family("halfspace:l=2,D=9")
    # a repeated key is an error, not a last value that wins
    with pytest.raises(FamilyError):
        make_family("halfspace:l=2,l=3")
