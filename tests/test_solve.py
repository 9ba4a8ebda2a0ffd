"""Tests for formula evaluation, projection, exact LP and witness search."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratdef import formula as fm
from stratdef import solve
from stratdef.intervals import UndecidedComparison
from stratdef.solve import (
    Assignment,
    LinearSystem,
    LPInstance,
    eval_qf,
    fm_eliminate,
    linear_system_from_formula,
    lp_solve,
    merge,
    witness_search,
)

from helpers import (
    feasible_with_one_witness,
    lp_by_vertex_enumeration,
    system_holds_at,
)


# ---------------------------------------------------------------------------
# Quantifier-free evaluation


def test_eval_float_and_exact_agree_on_linear_atom():
    f = fm.parse("(<= (+ x0 (* 2 a0)) 3)")
    sig = merge(x=[Fraction(1)], a=[Fraction(1)])
    assert eval_qf(f, sig, mode="exact") is True
    assert eval_qf(f, sig, mode="float") is True
    sig2 = merge(x=[Fraction(1)], a=[Fraction(3, 2)])
    assert eval_qf(f, sig2, mode="exact") is False


def test_eval_exact_boundary_cases():
    f = fm.parse("(< x0 1)")
    assert eval_qf(f, merge(x=[Fraction(1)]), mode="exact") is False
    g = fm.parse("(<= x0 1)")
    assert eval_qf(g, merge(x=[Fraction(1)]), mode="exact") is True
    h = fm.parse("(= (* 3 x0) 1)")
    assert eval_qf(h, merge(x=[Fraction(1, 3)]), mode="exact") is True


def test_eval_exact_exp_comparisons_certified():
    # exp(1) < 3 and exp(1) > 2 are decidable by interval refinement
    lt = fm.parse("(< (exp x0) 3)")
    gt = fm.parse("(< 2 (exp x0))")
    sig = merge(x=[Fraction(1)])
    assert eval_qf(lt, sig, mode="exact") is True
    assert eval_qf(gt, sig, mode="exact") is True
    # enclosures combined under + and *: e + 1 < 4 and 3 < 2e
    in_sum = fm.parse("(< (+ (exp x0) x0) 4)")
    in_product = fm.parse("(< 3 (* 2 (exp x0)))")
    assert eval_qf(in_sum, sig, mode="exact") is True
    assert eval_qf(in_product, sig, mode="exact") is True


def test_eval_exact_exp_graph_equality_is_refutable_only():
    # w0 = exp(x0) with a wrong witness is certified false...
    f = fm.Atom(fm.ExpGraph(fm.w(0), fm.x(0)))
    assert eval_qf(f, merge(x=[Fraction(1)], w=[Fraction(2)]),
                   mode="exact") is False
    # ...but a true transcendental equality cannot be certified
    # (except at argument 0, where exp is rational)
    assert eval_qf(f, merge(x=[Fraction(0)], w=[Fraction(1)]),
                   mode="exact") is True
    # a witness within 2^-60 of e is refuted only past 32 bits
    e = sum(Fraction(1, math.factorial(k)) for k in range(40))
    near_e = Fraction(math.floor(e * 2 ** 60), 2 ** 60)
    sigma = merge(x=[Fraction(1)], w=[near_e])
    assert eval_qf(f, sigma, mode="exact") is False
    with pytest.raises(UndecidedComparison):
        eval_qf(f, sigma, mode="exact", max_bits=32)


def test_eval_boolean_connectives():
    f = fm.parse("(and (<= x0 1) (not (< x0 0)))")
    assert eval_qf(f, merge(x=[Fraction(1, 2)]), mode="exact") is True
    assert eval_qf(f, merge(x=[Fraction(-1)]), mode="exact") is False
    g = fm.parse("(or (< x0 0) (< 1 x0))")
    assert eval_qf(g, merge(x=[Fraction(1, 2)]), mode="exact") is False


def test_eval_float_tolerance_at_boundary():
    f = fm.parse("(<= x0 1)")
    sig = Assignment((1.0 + 1e-12,), (), ())
    assert eval_qf(f, sig, mode="float") is True


def test_eval_float_exp_graph_gets_the_absolute_tolerance():
    # an exp-graph atom shares the one absolute boundary tolerance: at
    # e^3 ~ 20.1 a witness 1e-8 off is refuted, so its negation holds
    f = fm.Atom(fm.ExpGraph(fm.w(0), fm.x(0)))
    sig = Assignment((3.0,), (), (math.exp(3.0) + 1e-8,))
    assert eval_qf(f, sig, mode="float") is False
    assert eval_qf(fm.Not(f), sig, mode="float") is True


def test_eval_float_overflowed_difference_never_holds():
    # exp(1000) overflows on both sides: inf - inf has no reading, so the
    # atom fails and its negation holds
    f = fm.parse("(<= (exp x0) (exp x0))")
    sig = Assignment((1000.0,), (), ())
    assert eval_qf(f, sig, mode="float") is False
    assert eval_qf(fm.Not(f), sig, mode="float") is True


def test_eval_rejects_quantified_formula():
    f = fm.parse("(exists (w0) (<= w0 x0))")
    with pytest.raises(solve.SolveError):
        eval_qf(f, merge(x=[Fraction(0)]), mode="exact")


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination


def test_fm_eliminate_known_projection():
    # x + y <= 2, x - y <= 0, y <= 3  -- eliminating y gives 2x <= 2 (x <= 1)
    sys = LinearSystem.make(
        ("x", "y"),
        [((1, 1), "<=", 2), ((1, -1), "<=", 0), ((0, 1), "<=", 3)],
    )
    out = fm_eliminate(sys, ["y"])
    assert out.variables == ("x",)
    assert out.satisfied_by([Fraction(1)])
    assert not out.satisfied_by([Fraction(11, 10)])


def test_fm_equality_substitution():
    # x = 2y, y >= 1, x <= 3  ->  (x in [2, 3])
    sys = LinearSystem.make(
        ("x", "y"),
        [((1, -2), "=", 0), ((0, -1), "<=", -1), ((1, 0), "<=", 3)],
    )
    out = fm_eliminate(sys, ["y"])
    assert out.satisfied_by([Fraction(2)])
    assert out.satisfied_by([Fraction(3)])
    assert not out.satisfied_by([Fraction(19, 10)])
    assert not out.satisfied_by([Fraction(31, 10)])
    # x - y = 0 substituted into 2x - 2y = 0 leaves 0 = 0, a tautology
    sys = LinearSystem.make(
        ("x", "y"),
        [((1, -1), "=", 0), ((2, -2), "=", 0), ((0, 1), "<=", 3)],
    )
    out = fm_eliminate(sys, ["y"])
    assert [(c.coeffs, c.rel, c.rhs) for c in out.constraints] == [
        ((Fraction(1),), "<=", Fraction(3))]


def test_fm_detects_infeasibility():
    sys = LinearSystem.make(
        ("x", "y"), [((0, 1), "<=", 0), ((0, -1), "<", 0)])
    out = fm_eliminate(sys, ["y"])
    assert out.is_trivially_infeasible()
    # zero rows over one variable: 0 rel rhs
    for rel, rhs, infeasible in (("<", 0, True), ("=", 1, True),
                                 ("<=", -1, True), (">", 0, True),
                                 ("<=", 0, False), ("=", 0, False),
                                 (">=", 0, False)):
        sys = LinearSystem.make(("x",), [((0,), rel, rhs)])
        assert sys.is_trivially_infeasible() == infeasible, (rel, rhs)


def test_fm_strict_relations_propagate():
    sys = LinearSystem.make(
        ("x", "y"), [((1, 1), "<", 1), ((1, -1), "<=", 0)])
    out = fm_eliminate(sys, ["y"])
    # combination 2x < 1 must stay strict
    assert out.satisfied_by([Fraction(49, 100)])
    assert not out.satisfied_by([Fraction(1, 2)])


def _random_system(rng: random.Random, n_vars: int, n_rows: int
                   ) -> LinearSystem:
    names = tuple(f"v{i}" for i in range(n_vars))
    rows = []
    for _ in range(n_rows):
        coeffs = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n_vars))
        rel = rng.choice(["<=", "<", "=", ">=", ">"])
        if rel == "=" and all(c == 0 for c in coeffs):
            rel = "<="
        rows.append((coeffs, rel, Fraction(rng.randint(-4, 4))))
    return LinearSystem.make(names, rows)


def _grid(lo, hi, step):
    pts = []
    v = Fraction(lo)
    while v <= hi:
        pts.append(v)
        v += step
    return pts


def test_fm_single_elimination_matches_oracle_on_grid():
    # project out one variable; compare against an exact one-variable
    # feasibility oracle at every grid point of the remaining variables
    rng = random.Random(7)
    grid = _grid(-2, 2, Fraction(1, 2))
    for trial in range(60):
        n_vars = rng.randint(2, 3)
        sys = _random_system(rng, n_vars, rng.randint(2, 5))
        gone = sys.variables[-1]
        proj = fm_eliminate(sys, [gone])
        kept = proj.variables
        import itertools
        for pt in itertools.product(grid, repeat=len(kept)):
            want = feasible_with_one_witness(sys, gone, dict(zip(kept, pt)))
            got = proj.satisfied_by(pt)
            assert got == want, (trial, sys, pt)


def test_fm_sequential_elimination_consistent():
    # eliminating {y, z} at once agrees with eliminating y then z
    rng = random.Random(11)
    grid = _grid(-2, 2, Fraction(1, 2))
    for _ in range(30):
        sys = _random_system(rng, 3, rng.randint(2, 5))
        both = fm_eliminate(sys, ["v1", "v2"])
        seq = fm_eliminate(fm_eliminate(sys, ["v1"]), ["v2"])
        for x in grid:
            assert both.satisfied_by([x]) == seq.satisfied_by([x])


def test_linear_system_from_formula():
    f = fm.parse("(and (<= (+ x0 x1) 1) (< (- x0 x1) 0))")
    sys = linear_system_from_formula(f, [fm.x(0), fm.x(1)])
    assert sys.satisfied_by([Fraction(0), Fraction(1, 2)])
    assert not sys.satisfied_by([Fraction(1), Fraction(1)])
    # a constant inside a factor that carries the variable: 2*x0 <= -6
    for text in ("(<= (* 2 (+ x0 3)) 0)", "(<= (* (+ x0 3) 2) 0)"):
        row, = linear_system_from_formula(fm.parse(text), [fm.x(0)]).constraints
        assert (row.coeffs, row.rel, row.rhs) == ((Fraction(2),), "<=",
                                                  Fraction(-6))
    # > and >= are normalized to < and <= by negation
    for text, want in (("(> x0 -3)", ((-1, 0), "<", 3)),
                       ("(>= (* 2 x1) x0)", ((1, -2), "<=", 0))):
        row, = linear_system_from_formula(fm.parse(text),
                                          [fm.x(0), fm.x(1)]).constraints
        assert (row.coeffs, row.rel, row.rhs) == want, text
    with pytest.raises(solve.SolveError):
        linear_system_from_formula(fm.parse("(or (<= x0 0) (<= x1 0))"),
                                   [fm.x(0), fm.x(1)])


# ---------------------------------------------------------------------------
# Exact linear programming


def test_lp_known_optimum():
    # min -x - y  s.t.  x + 2y <= 4, 3x + y <= 6, x,y >= 0  -> opt at (8/5,6/5)
    lp = LPInstance(objective=(-1, -1),
                    matrix=((1, 2), (3, 1)),
                    relations=("<=", "<="),
                    rhs=(4, 6))
    res = lp_solve(lp)
    assert res.status == "optimal"
    assert res.value == Fraction(-14, 5)
    assert res.point == (Fraction(8, 5), Fraction(6, 5))


def test_lp_infeasible_and_unbounded():
    bad = LPInstance(objective=(1,), matrix=((1,), (-1,)),
                     relations=("<=", "<="), rhs=(0, -1))
    assert lp_solve(bad).status == "infeasible"
    unb = LPInstance(objective=(-1,), matrix=((0,),),
                     relations=("<=",), rhs=(1,))
    assert lp_solve(unb).status == "unbounded"


def test_lp_equality_rows_and_shifted_lower_bounds():
    # min x + y  s.t.  x + y = 2, x >= 1/2, y >= -1
    lp = LPInstance(objective=(1, 1), matrix=((1, 1),),
                    relations=("=",), rhs=(2,),
                    lower=(Fraction(1, 2), Fraction(-1)))
    res = lp_solve(lp)
    assert res.status == "optimal"
    assert res.value == 2
    assert sum(res.point) == 2 and res.point[0] >= Fraction(1, 2)


def test_lp_matches_vertex_enumeration_randomized():
    rng = random.Random(3)
    for trial in range(50):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        # a box row keeps the feasible region bounded so vertex
        # enumeration is a complete oracle (no unbounded cases)
        lp = LPInstance(
            objective=tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)),
            matrix=tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
                         for _ in range(m)) + ((Fraction(1),) * n,),
            relations=tuple(rng.choice(["<=", ">=", "="])
                            for _ in range(m)) + ("<=",),
            rhs=tuple(Fraction(rng.randint(-3, 3))
                      for _ in range(m)) + (Fraction(10),),
        )
        got = lp_solve(lp)
        want = lp_by_vertex_enumeration(lp)
        if want is None:
            assert got.status == "infeasible", (trial, lp)
            continue
        want_value, _ = want
        assert got.status == "optimal", (trial, lp)
        assert got.value == want_value, (trial, lp)
        # returned point must be feasible and attain the value
        pt = got.point
        assert all(v >= lo for v, lo in zip(pt, lp.lower))
        for row, rel, rhs in zip(lp.matrix, lp.relations, lp.rhs):
            lhs = sum(c * v for c, v in zip(row, pt))
            assert {"<=": lhs <= rhs, ">=": lhs >= rhs,
                    "=": lhs == rhs}[rel]
        assert sum(c * v for c, v in zip(lp.objective, pt)) == want_value


# ---------------------------------------------------------------------------
# Witness search


def test_witness_search_simple_ball():
    # exists y with |y - x| <= 1/2 and y >= a
    f = fm.parse(
        "(exists (w0) (and (<= (- w0 x0) 1/2) "
        "(and (<= (- x0 w0) 1/2) (<= a0 w0))))")
    res = witness_search(f, [0.0], [0.4])
    assert res.found and abs(res.witness[0]) <= 0.5 + 1e-9
    res2 = witness_search(f, [0.0], [0.6])
    assert not res2.found


def test_witness_search_propagates_equalities():
    # w0 pinned to x0 + 1, w1 pinned to exp(w0); only the final test matters
    f = fm.parse(
        "(exists (w0 w1) (and (= w0 (+ x0 1)) "
        "(and (= w1 (exp w0)) (<= a0 w1))))")
    res = witness_search(f, [0.0], [2.0])
    assert res.found
    assert res.witness[0] == pytest.approx(1.0)
    assert res.witness[1] == pytest.approx(2.718281828, abs=1e-6)
    res2 = witness_search(f, [0.0], [3.0])
    assert not res2.found


def test_witness_search_resolved_exp_atom_beside_linear_witness():
    # w0 and w1 = exp(w0) are forced, w2 is left to the exact LP, and the
    # resolved exp atom is checked when the whole body is read
    f = fm.parse(
        "(exists (w0 w1 w2) (and (= w0 x0) (= w1 (exp w0)) "
        "(<= w2 w1) (>= w2 0)))")
    res = witness_search(f, [0.0], [])
    assert res.found
    w0, w1, w2 = res.witness
    assert (w0, w1) == (0.0, 1.0) and 0 <= w2 <= 1


def test_witness_search_quantifier_free_input():
    f = fm.parse("(<= x0 a0)")
    assert witness_search(f, [0.0], [1.0]).found
    assert not witness_search(f, [1.0], [0.0]).found


def test_witness_search_rejects_universal():
    f = fm.parse("(forall (w0) (<= w0 x0))")
    with pytest.raises(solve.SolveError):
        witness_search(f, [0.0], [])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_witness_search_soundness_property(seed):
    # whatever witness_search returns must satisfy the body under eval_qf
    rng = random.Random(seed)
    conjuncts = []
    for _ in range(rng.randint(1, 3)):
        t = fm.add(fm.mul(fm.const(rng.randint(-2, 2)), fm.w(0)),
                   fm.mul(fm.const(rng.randint(-2, 2)), fm.x(0)))
        conjuncts.append(fm.atom(t, rng.choice(["<=", "<"]),
                                 fm.const(rng.randint(-3, 3))))
    body = fm.conj(*conjuncts) if len(conjuncts) > 1 else conjuncts[0]
    f = fm.Exists((0,), body)
    x0 = rng.uniform(-2, 2)
    res = witness_search(f, [x0], [])
    if res.found:
        sig = Assignment((x0,), (), res.witness)
        assert eval_qf(body, sig, mode="float") is True


def test_witness_search_deterministic():
    f = fm.parse(
        "(exists (w0) (and (<= (- w0 x0) 1) "
        "(and (<= (- x0 w0) 1) (<= a0 w0))))")
    r1 = witness_search(f, [0.3], [0.9])
    r2 = witness_search(f, [0.3], [0.9])
    assert r1.found == r2.found and r1.witness == r2.witness
