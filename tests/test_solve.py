"""Tests for formula evaluation, projection, exact LP and witness search."""

from __future__ import annotations

import functools
import itertools
import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratdef import families, transform
from stratdef import formula as fm
from stratdef import solve
from stratdef.intervals import UndecidedComparison
from stratdef.solve import (
    Assignment,
    LinConstraint,
    LinearSystem,
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
    ref_fm_eliminate,
    ref_lp_bland,
    ref_margin,
    ref_tree_box_verdict,
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
    f = fm.atom(fm.w(0), "=", fm.Exp(fm.x(0)))
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
    f = fm.atom(fm.w(0), "=", fm.Exp(fm.x(0)))
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


# HUGE stands for 10^400, beyond float range
_HUGE = "1" + "0" * 400


@pytest.mark.parametrize("text, x0, holds", [
    ("(>= x0 HUGE)", 0.0, False),
    ("(>= x0 -HUGE)", 0.0, True),
    ("(< (* HUGE x0) 1)", -0.5, True),
    # 10^400 x0 at x0 = 0 is inf * 0, nan: the atom fails
    ("(< (* HUGE x0) 1)", 0.0, False),
])
def test_eval_float_reads_constants_beyond_float_range_as_inf(text, x0,
                                                              holds):
    f = fm.parse(text.replace("HUGE", _HUGE))
    sig = Assignment((x0,), (), ())
    want = ref_margin(f, {"x": (x0,), "a": (), "w": ()})
    assert solve._violation(f, sig).hex() == want.hex()
    assert eval_qf(f, sig, mode="float") is holds
    assert (want <= 1e-9) is holds


_HUGE_BODIES = [
    # decided by the walk, its witness checked at the float 10^400 = inf
    ("(and (>= w0 x0) (<= w0 HUGE))", True),
    # past the walk: the search's kernel holds the folded inf
    ("(and (= (* w0 w0) 2) (< w0 HUGE))", True),
    ("(and (= (* w0 w0) 2) (< w0 -HUGE))", False),
    # an exact point beyond float range reads as inf, where no float
    # witness holds: not found, and not refuted
    ("(>= w0 HUGE)", False),
    ("(and (= w0 HUGE) (>= w0 x0))", False),
]


@pytest.mark.parametrize("text, found", _HUGE_BODIES)
def test_witness_search_reads_constants_beyond_float_range_as_inf(text,
                                                                  found):
    f = fm.parse(f"(exists (w0) {text.replace('HUGE', _HUGE)})")
    # no warning (an inf - inf in the search, say) escapes the search
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = witness_search(f, [0.0], [])
    assert res.found is found
    assert res.margin is not None
    if found:
        env = {"x": (0.0,), "a": (), "w": res.witness}
        assert ref_margin(f.body, env).hex() == res.margin.hex()


@pytest.mark.parametrize("text, found", _HUGE_BODIES)
def test_nelder_mead_never_starts_where_the_margin_is_inf(text, found,
                                                          monkeypatch):
    # from such a start every step would read inf - inf
    starts, nelder_mead = [], solve._nelder_mead

    def spy(read, start):
        starts.append(read(start))
        return nelder_mead(read, start)

    monkeypatch.setattr(solve, "_nelder_mead", spy)
    f = fm.parse(f"(exists (w0) {text.replace('HUGE', _HUGE)})")
    assert witness_search(f, [0.0], []).found is found
    assert all(m < math.inf for m in starts), starts


@pytest.mark.parametrize("sign, found", [(1, False), (-1, True)])
def test_witness_search_reads_inputs_beyond_float_range_as_inf(sign, found):
    # x0 = +-10^400 reads as +-inf: no float w0 is >= inf, and every one
    # is >= -inf; neither is decided by the exact walk, whose rows are
    # Fractions
    f = fm.parse("(exists (w0) (>= w0 x0))")
    res = witness_search(f, [Fraction(sign * 10 ** 400)], [])
    assert res.found is found
    assert res.margin == (0.0 if found else math.inf)
    if found:
        sig = Assignment((sign * math.inf,), (), res.witness)
        assert eval_qf(f.body, sig, mode="float") is True


@pytest.mark.parametrize("text, x0, found", [
    # the NNF of a negated = or <= holds at equality in the float margin,
    # the formula itself does not
    ("(not (= x0 1))", 1, False),
    ("(not (<= x0 1))", 1, False),
    # true, but not in the float margin: not found, and not refuted
    ("(not (= x0 1))", 1 + 1e-10, False),
    ("(exists (w0) (and (= (* w0 w0) 1) (>= w0 0) (not (= w0 1))))", 0, False),
    ("(exists (w0) (and (= (* w0 w0) 1) (not (= w0 1))))", 0, True),
    ("(exists (w0) (and (not (< w0 x0)) (not (= w0 x0))))", 0, True),
    ("(exists (w0 w1) (and (= w1 (exp w0)) (not (= w1 1)) (<= w0 x0)))",
     0, True),
    # true, but the float margin fails: inf - inf, rounding, and a
    # constant beyond float range against an input that is not
    ("(<= (exp x0) (exp (+ x0 1)))", 1000, False),
    ("(= x0 (* 3 (* 1/3 x0)))", 2 ** 60 + 256, False),
    pytest.param(f"(<= x0 {10 ** 401})", Fraction(10 ** 400), False,
                 id="(<= x0 10^401)-10^400-False"),
])
def test_witness_search_answers_for_the_formula_as_given(text, x0, found):
    f = fm.parse(text)
    _, matrix = fm.split_exists(f)
    res = witness_search(f, [x0], [])
    assert res.found is found
    if matrix is f and res.margin is None:  # a refutation is exact
        assert eval_qf(f, merge(x=[Fraction(x0)]), mode="exact") is False
    if found:
        sig = Assignment((float(x0),), (), res.witness)
        assert eval_qf(matrix, sig, mode="float") is True


@pytest.mark.parametrize("text, x0", [
    # a literal of x and constants: true exactly, and its margin is inf
    ("(and (>= w0 0) (<= (exp x0) (exp (+ x0 1))))", 1000),
    # ... or a rounding error
    ("(and (>= w0 0) (= x0 (* 3 (* 1/3 x0))))", 2 ** 60 + 256),
    # a literal on a forced witness w0 = 2 x0 = 2e200: w0 w0 x0 <= w0 w0
    # (x0 + 1) holds, and its margin reads inf - inf
    ("(and (= w0 (* 2 x0)) (<= (* w0 w0 x0) (* w0 w0 (+ x0 1))))", 1e200),
])
def test_witness_search_prunes_on_no_inexact_margin(text, x0):
    res = witness_search(fm.parse(f"(exists (w0) {text})"), [x0], [])
    assert not res.found and res.margin is not None


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
    # eliminating x leaves y + z <= -1 and -y - z <= 0, combined from four
    # input rows; the history rule would skip their pair at the second
    # pairing step, but a pair that forms a zero row is always formed
    sys = LinearSystem.make(
        ("x", "y", "z"), [((1, 1, 0), "<=", 0), ((-1, 0, 1), "<=", -1),
                          ((1, -1, 0), "<=", 0), ((-1, 0, -1), "<=", 0)])
    out = fm_eliminate(sys, ["x", "y"])
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


def _random_system(rng: random.Random, n_vars: int, n_rows: int,
                   rels=("<=", "<", "=", ">=", ">"), rhs=(-4, 4)
                   ) -> LinearSystem:
    names = tuple(f"v{i}" for i in range(n_vars))
    rows = []
    for _ in range(n_rows):
        coeffs = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n_vars))
        rel = rng.choice(rels)
        if rel == "=" and all(c == 0 for c in coeffs):
            rel = "<="
        rows.append((coeffs, rel, Fraction(rng.randint(*rhs))))
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
        feasible = feasible_with_one_witness(sys, gone)
        import itertools
        for pt in itertools.product(grid, repeat=len(kept)):
            want = feasible(dict(zip(kept, pt)))
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


def _rows(sys: LinearSystem) -> list:
    return [(c.coeffs, c.rel, c.rhs) for c in sys.constraints]


def test_fm_single_elimination_rows_match_reference():
    # one pairing step skips nothing: the rows are the plain projection's
    rng = random.Random(5)
    for _ in range(200):
        sys = _random_system(rng, rng.randint(2, 5), rng.randint(1, 8))
        gone = rng.choice(sys.variables)
        out = fm_eliminate(sys, [gone])
        assert _rows(out) == _rows(ref_fm_eliminate(sys, [gone])), sys
        assert out.steps[0]["skipped"] == 0


def test_fm_history_rule_matches_reference_on_grid():
    # eliminating 2-4 of 4-6 variables from systems with equalities and
    # strict rows: the same set as the plain projection at every grid point,
    # and a contradiction row only where the plain projection has one too;
    # few equalities and mostly positive rhs leave most projections
    # nonempty and most systems two or more pairing steps
    rng = random.Random(13)
    grid = _grid(-2, 2, Fraction(1, 2))
    skipped = 0
    for trial in range(40):
        n_vars = rng.randint(4, 6)
        sys = _random_system(rng, n_vars, rng.randint(7, 10),
                             ("<=", "<=", "<=", "<", ">=", "="), (-1, 6))
        gone = rng.sample(sys.variables, n_vars - 2)
        out = fm_eliminate(sys, gone)
        ref = ref_fm_eliminate(sys, gone)
        assert out.variables == ref.variables
        assert [s["variable"] for s in out.steps] == gone
        skipped += sum(s["skipped"] for s in out.steps)
        if out.is_trivially_infeasible():
            assert ref.is_trivially_infeasible(), (trial, sys, gone)
        for pt in itertools.product(grid, repeat=len(out.variables)):
            assert out.satisfied_by(pt) == ref.satisfied_by(pt), \
                (trial, sys, gone, pt)
    assert skipped > 0


def test_fm_history_rule_shrinks_benchmark_shaped_system():
    # 24 rows a.v <= b over 6 variables, b > 0, v0 bounded above by half
    # of the rows and below by the other half, no zero coefficient
    rng = random.Random(24)
    signs = [1] * 12 + [-1] * 12
    rng.shuffle(signs)
    rows = [([s * rng.randint(1, 9)] +
             [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(5)],
             "<=", rng.randint(1, 20)) for s in signs]
    sys = LinearSystem.make([f"v{i}" for i in range(6)], rows)
    out = fm_eliminate(sys, ["v0", "v1"])
    ref = ref_fm_eliminate(sys, ["v0", "v1"])
    assert len(out.constraints) < len(ref.constraints) / 4
    first, second = out.steps
    assert (first["method"], first["pairs"], first["skipped"]) == \
        ("paired", 144, 0)
    assert second["skipped"] > second["pairs"]
    assert second["rows"] == len(out.constraints)


def test_satisfied_by_refuses_wrong_length():
    sys = LinearSystem.make(["x", "y"], [((1, 1), "<=", 1)])
    assert sys.satisfied_by([0, 1])
    # one value too few (y would be dropped) and one too many (99 ignored)
    for values in ([5], [0, 0, 99]):
        with pytest.raises(solve.SolveError):
            sys.satisfied_by(values)


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


def _lp_rows(*rows):
    return [LinConstraint.make(*row) for row in rows]


def test_lp_known_optimum():
    # min -x - y  s.t.  x + 2y <= 4, 3x + y <= 6, x,y >= 0  -> opt at (8/5,6/5)
    res = lp_solve((-1, -1), _lp_rows(((1, 2), "<=", 4), ((3, 1), "<=", 6)))
    assert res.status == "optimal"
    assert res.value == Fraction(-14, 5)
    assert res.point == (Fraction(8, 5), Fraction(6, 5))


def test_lp_infeasible_and_unbounded():
    bad = _lp_rows(((1,), "<=", 0), ((-1,), "<=", -1))
    assert lp_solve((1,), bad).status == "infeasible"
    assert lp_solve((-1,), _lp_rows(((0,), "<=", 1))).status == "unbounded"


def test_lp_equality_rows():
    # min x + y  s.t.  x + y = 2, x >= 1/2
    res = lp_solve((1, 1), _lp_rows(((1, 1), "=", 2),
                                    ((1, 0), ">=", Fraction(1, 2))))
    assert res.status == "optimal"
    assert res.value == 2
    assert sum(res.point) == 2 and res.point[0] >= Fraction(1, 2)


@pytest.mark.parametrize("row", [
    LinConstraint.make((1, 1), "<", 1),
    LinConstraint.make((1,), "<=", 1),
    LinConstraint.make((1, 1, 1), "=", 1),
], ids=["strict", "short", "long"])
def test_lp_refuses_strict_and_misshapen_rows(row):
    with pytest.raises(solve.SolveError):
        lp_solve((1, 1), [LinConstraint.make((1, 0), "<=", 1), row])


def test_lp_matches_vertex_enumeration_randomized():
    rng = random.Random(3)
    for trial in range(50):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        # a box row keeps the feasible region bounded so vertex
        # enumeration is a complete oracle (no unbounded cases)
        objective = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
        matrix = [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                  for _ in range(m)]
        rels = [rng.choice(["<=", ">=", "="]) for _ in range(m)]
        rhs = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        rows = [LinConstraint.make(*row) for row in zip(matrix, rels, rhs)]
        rows.append(LinConstraint.make((1,) * n, "<=", 10))
        got = lp_solve(objective, rows)
        want = lp_by_vertex_enumeration(objective, rows)
        if want is None:
            assert got.status == "infeasible", (trial, rows)
            continue
        want_value, _ = want
        assert got.status == "optimal", (trial, rows)
        assert got.value == want_value, (trial, rows)
        # returned point must be feasible and attain the value
        pt = got.point
        assert all(v >= 0 for v in pt)
        for c in rows:
            lhs = sum(co * v for co, v in zip(c.coeffs, pt))
            assert {"<=": lhs <= c.rhs, "=": lhs == c.rhs}[c.rel]
        assert sum(c * v for c, v in zip(objective, pt)) == want_value


def test_lp_pivots_as_the_fraction_tableau_does():
    # the integer-row simplex against a dense Fraction tableau with the
    # same rule: the same status, value and vertex, on 52-bit dyadic
    # entries, equality rows, zero right-hand sides (degenerate vertices)
    # and rows that repeat an earlier row scaled (redundant)
    rng = random.Random(29)

    def entry():
        k = rng.random()
        if k < 0.3:
            return 0
        if k < 0.6:
            return rng.randint(-3, 3)
        return Fraction(rng.randint(-2 ** 52, 2 ** 52),
                        2 ** rng.randint(0, 60))

    statuses = set()
    for trial in range(400):
        n, rows = rng.randint(1, 6), []
        for _ in range(rng.randint(1, 7)):
            if rows and rng.random() < 0.2:
                r, k = rng.choice(rows), Fraction(rng.randint(1, 3),
                                                  rng.randint(1, 3))
                rows.append(LinConstraint(tuple(k * c for c in r.coeffs),
                                          r.rel, k * r.rhs))
                continue
            rhs = 0 if rng.random() < 0.3 else entry()
            rows.append(LinConstraint.make([entry() for _ in range(n)],
                                           rng.choice(["<=", ">=", "="]),
                                           rhs))
        objective = [entry() for _ in range(n)]
        got = lp_solve(objective, rows)
        want = ref_lp_bland(objective, rows)
        assert (got.status, got.value, got.point) == want, (trial, rows)
        statuses.add(got.status)
    assert statuses == {"optimal", "infeasible", "unbounded"}


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


def test_witness_search_reads_witness_free_literals_in_floats():
    # w0 = x0/3 is forced in floats, so x0 = 3*w0 holds only within the
    # float tolerance; read as an exact row it was a false refutation
    f = fm.parse("(exists (w0 w1) (and (= x0 (* 3 w0)) (> w1 0)))")
    res = witness_search(f, [0.1], [])
    assert res.found and res.witness[1] > 0
    assert res.witness[0] == pytest.approx(0.1 / 3)


def test_witness_search_resolves_definitions_after_the_forks():
    # the forks come before the definitions of w0 and w1: a prefix reads
    # w1 as a free witness, and the leaves force both
    f = fm.parse(
        "(exists (w0 w1) (and (or (<= a0 w1) (> a0 9)) (or (< x0 9) "
        "(> x0 10)) (= w0 (+ x0 1)) (= w1 (exp w0))))")
    res = witness_search(f, [0.0], [2.0])
    assert res.found
    assert res.witness == pytest.approx((1.0, math.e))
    res2 = witness_search(f, [0.0], [3.0])
    assert not res2.found and res2.margin is None


def test_witness_search_empty_disjunction_is_refuted():
    res = witness_search(fm.parse("(exists (w0) (or))"), [0.0], [])
    assert not res.found and res.margin is None


@pytest.mark.parametrize("forks, refuted", [
    (3, True), (solve.SOLVE_BUDGET.bit_length(), False)])
def test_witness_search_refutes_only_within_budget(forks, refuted):
    # every prefix is feasible and every leaf infeasible, through the last
    # three conjuncts: 2^3 leaves are refuted exactly, while 2^forks leaves
    # pass the budget of exact reads and the search answers, with a margin
    f = fm.parse(
        "(exists (w0 w1) (and " + "(or (>= w0 0) (>= w1 0)) " * forks +
        "(< (+ w0 w1) -100) (> w0 -1) (> w1 -1)))")
    res = witness_search(f, [0.0], [])
    assert not res.found
    assert (res.margin is None) == refuted


def _dyadic_query(seed: int, l: int, k: int) -> tuple:
    """A point in [-1, 1]^l and k parameters in [-2, 2], multiples of 1/8
    drawn from random.Random(seed)."""
    rng = random.Random(seed)
    return ([rng.randint(-8, 8) / 8 for _ in range(l)],
            [rng.randint(-16, 16) / 8 for _ in range(k)])


@pytest.mark.parametrize("depth", [8, 9, 10])
def test_witness_search_decides_deep_trees_like_box_clipping(depth):
    fam = families.make_family(f"tree:l=2,depth={depth},q=1")
    spec = transform.strategic_transform(
        fam.formula(), families.make_neighborhood("linf:l=2,r=1/4").formula())
    labels = "01" * 2 ** (depth - 1)
    checked = 0
    for seed in range(10):
        x, params = _dyadic_query(seed, 2, fam.param_dim)
        res = witness_search(spec.transformed, x, params)
        assert res.found or res.margin is None, (depth, seed)  # decided
        want = ref_tree_box_verdict(params, x, Fraction(1, 4), depth, labels)
        if want is not None:
            assert res.found == want, (depth, seed)
            checked += 1
    assert checked >= 8


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


# Dyadic queries, two or more per family x neighborhood pair of the
# benchmark's witness mix, with what witness_search returned for each, bit
# for bit: (family, neighborhood, x, parameters, found, witness as
# space-separated float.hex values, margin as float.hex).  A speed-up of the
# search must return exactly these.
_PINNED_QUERIES = (
    ("halfspace:l=2", "linf:l=2,r=1/2",
     [0.0, 0.375],
     [-1.875, 1.625, -0.125],
     True, "0x1.0000000000000p-1 0x1.0000000000000p-1", "0x0.0p+0"),
    ("halfspace:l=2", "linf:l=2,r=1/2",
     [-0.875, -0.375],
     [-1.125, 0.875, 1.75],
     False, None, None),
    ("halfspace:l=2", "l1:l=2,r=1/2",
     [-0.375, -0.375],
     [0.25, 0.5, -0.5],
     True,
     ("0x1.0000000000000p-3 0x1.8000000000000p-2 "
      "-0x1.0000000000000p-1 -0x1.8000000000000p-1"),
     "0x0.0p+0"),
    ("halfspace:l=2", "l1:l=2,r=1/2",
     [-0.25, -0.375],
     [-0.5, 1.0, 0.375],
     False, None, None),
    ("halfspace:l=3", "emd:r=1",
     [0.125, 0.25, 0.625],
     [0.375, -2.0, 0.625, -1.5],
     True,
     ("0x0.0p+0 0x1.0000000000000p-3 0x0.0p+0 0x0.0p+0 "
      "0x1.0000000000000p-2 0x0.0p+0 0x1.af286bca1af28p-3 "
      "0x1.a86bca1af286cp-2 0x0.0p+0 0x1.af286bca1af28p-3 "
      "0x1.9435e50d79436p-1 0x0.0p+0"),
     "0x0.0p+0"),
    ("halfspace:l=3", "emd:r=1",
     [0.5, 0.0, 0.5],
     [-0.625, -1.625, 0.0, -1.875],
     True,
     ("0x0.0p+0 0x1.0000000000000p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
      "0x0.0p+0 0x0.0p+0 0x1.0000000000000p-1 0x0.0p+0 0x0.0p+0 "
      "0x1.0000000000000p+0 0x0.0p+0"),
     "0x0.0p+0"),
    ("halfspace:l=3", "emd:r=1",
     [0.25, 0.25, 0.5],
     [0.5, 0.25, -1.0, 1.0],
     False, None, None),
    ("threshold", "interval:r=1/2",
     [0.375],
     [0.5],
     True, "0x1.0000000000000p-1", "0x0.0p+0"),
    ("threshold", "interval:r=1/2",
     [0.375],
     [1.125],
     False, None, None),
    ("tree:l=2,depth=2,q=1,labels=0110", "linf:l=2,r=1/4",
     [0.25, 0.0],
     [-1.375, 0.375, 0.5, 0.375, -0.625, -1.375, -0.875, 0.375, 1.75],
     True, "0x1.0000000000000p-1 0x1.745d1745d1746p-5", "0x0.0p+0"),
    ("tree:l=2,depth=2,q=1,labels=0110", "linf:l=2,r=1/4",
     [-0.625, 0.375],
     [0.25, -1.75, 1.375, -1.375, -0.375, 0.625, 2.0, 0.875, -0.875],
     False, None, None),
    ("halfspace:l=2", "lp:l=2,p=2,r=1/2",
     [-0.5, -0.5],
     [1.25, -1.25, -0.75],
     True, "-0x1.0000000000000p-1 -0x1.0000000000000p-1", "0x0.0p+0"),
    ("halfspace:l=2", "lp:l=2,p=2,r=1/2",
     [0.125, -0.5],
     [1.625, -0.75, 1.625],
     False, None, "0x1.cd66dd7805460p-5"),
    ("halfspace:l=2", "lp:l=2,p=3,r=1",
     [0.875, 0.25],
     [1.75, 0.125, 0.25],
     True,
     ("-0x0.0p+0 -0x0.0p+0 -0x0.0p+0 0x1.0000000000000p+0 "
      "-0x0.0p+0 -0x0.0p+0 -0x0.0p+0 0x1.0000000000000p+0 "
      "0x1.c000000000000p-1 0x1.0000000000000p-2"),
     "0x0.0p+0"),
    ("halfspace:l=2", "lp:l=2,p=3,r=1",
     [0.875, 0.5],
     [-0.875, -1.125, 1.0],
     False, None, "0x1.864881584be61p+0"),
    ("halfspace:l=3", "kl:l=3,r=1/2",
     [0.125, 0.75, 0.125],
     [0.75, -1.75, 0.375, 0.875],
     False, None, "0x1.f186f54f66704p-2"),
    ("halfspace:l=3", "kl:l=3,r=1/2",
     [0.375, 0.375, 0.25],
     [0.125, 1.625, 0.25, 2.0],
     False, None, "0x1.1138c1cbbcacep-1"),
    ("ptf:l=2,D=2", "lp:l=2,p=2,r=1/4",
     [0.375, 0.375],
     [0.125, 0.75, 1.25, 0.75, -0.625, 1.5],
     True, "0x1.8000000000000p-2 0x1.8000000000000p-2", "0x0.0p+0"),
    ("ptf:l=2,D=2", "lp:l=2,p=2,r=1/4",
     [-0.75, 0.625],
     [-0.75, 1.25, 0.375, 0.125, -1.875, -0.5],
     False, None, "0x1.1419ea0bc7d2cp-3"),
    ("nn:widths=2-2-1", "linf:l=2,r=1/4",
     [-0.375, -0.875],
     [-1.0, -1.125, 0.5, -0.625, 1.75, -0.5, -1.75, 1.25, 1.625],
     False, None, "0x1.f76b39d60621fp+0"),
    ("nn:widths=2-2-1", "linf:l=2,r=1/4",
     [0.625, 0.625],
     [0.875, 1.625, -0.875, -0.75, 1.0, 1.75, -0.5, -1.0, -1.375],
     False, None, "0x1.29f81cad6b71dp+1"),
    ("halfspace:l=1", "gauss_kl:r=1/2",
     [0.375],
     [-2.0, 1.0],
     True, "-0x1.05e353f7ced95p-1", "0x0.0p+0"),
    ("halfspace:l=1", "gauss_kl:r=1/2",
     [0.25],
     [1.0, 1.375],
     False, None, "0x1.57a3db08f9a70p-4"),
    ("tree:l=2,depth=3,q=1", "linf:l=2,r=1/4",
     [1.0, -0.625],
     [-0.375, -0.75, -0.5, -0.75, -1.375, -0.875, 0.25, -2.0, 1.5, 1.625,
      -1.125, -1.875, -0.75, 1.875, 1.5, 0.375, 1.875, -1.375, 0.0, -0.75,
      0.5],
     True, "0x1.4000000000000p+0 -0x1.8000000000000p-2", "0x0.0p+0"),
    ("tree:l=2,depth=3,q=1", "linf:l=2,r=1/4",
     [-0.5, -1.0],
     [1.75, 2.0, 0.0, 2.0, -0.25, -0.125, -1.375, -1.0, 0.0, 0.5, -0.25, 1.125,
      -0.375, 0.375, 1.125, -1.5, 1.75, 0.875, 0.5, 0.0, -0.625],
     False, None, None),
    ("tree:l=2,depth=3,q=1,labels=10011101", "lp:l=2,p=2,r=1/2",
     [1.375, 0.625],
     [-0.125, 0.875, -1.75, -1.625, 1.5, 0.5, 1.5, 1.5, -1.375, -1.75, -1.375,
      0.5, 1.25, 1.0, 1.875, 1.25, 1.125, -0.25, 0.25, 0.375, 0.875],
     True, "0x1.6000000000000p+0 0x1.4000000000000p-1", "0x0.0p+0"),
    ("tree:l=2,depth=3,q=1,labels=10011101", "lp:l=2,p=2,r=1/2",
     [1.0, -1.875],
     [-1.5, -0.125, 1.75, -2.0, -0.125, 2.0, 1.875, 1.875, -1.0, -0.25, 0.75,
      -1.25, -1.125, 0.625, -0.625, -0.25, -0.5, 0.625, -0.625, 1.25, -0.25],
     False, None, "0x1.217c14e8a4bd8p+0"),
    ("tree:l=2,depth=4,q=1,labels=0000000000000001", "l1:l=2,r=1/2",
     [-1.25, -0.25],
     [-0.25, -0.5, 0.75, 2.0, 1.5, -0.125, 1.5, -0.125, 1.75, 0.25, -0.5,
      1.125, -2.0, -1.625, 0.5, -1.0, -1.0, -0.5, 1.125, -0.75, -0.375, 0.25,
      -1.125, 0.375, 0.75, 1.75, 0.0, 0.5, -1.375, -1.0, 0.625, -1.625, 1.25,
      1.625, 2.0, 1.375, 1.625, 0.5, -1.0, -0.875, 0.25, -1.75, 1.0, -1.5,
      1.125],
     True,
     ("0x1.ccccccccccccdp-2 0x1.999999999999ap-5 "
      "-0x1.999999999999ap-1 -0x1.999999999999ap-3"),
     "0x0.0p+0"),
    ("tree:l=2,depth=4,q=1,labels=0000000000000001", "l1:l=2,r=1/2",
     [0.0, 1.75],
     [1.0, -1.625, 1.625, 0.875, 0.375, -0.5, 1.75, -0.125, -0.75, -2.0, 0.125,
      -1.0, -1.5, 2.0, -0.125, 1.5, 0.5, -0.5, -0.75, -2.0, 0.875, 1.75, -1.75,
      -1.0, -0.75, 0.625, 0.125, 1.375, -0.5, -1.125, -0.25, 1.375, 0.25, -0.5,
      1.75, -0.25, -0.375, 0.125, 1.375, -0.875, 2.0, -0.25, -1.125, 0.125,
      -1.125],
     False, None, None),
    ("tree:l=2,depth=1,q=1", "identity:l=2",
     [-1.875, 0.0],
     [0.125, -0.625, -1.25],
     True, "-0x1.e000000000000p+0 -0x0.0p+0", "0x0.0p+0"),
    ("tree:l=2,depth=1,q=1", "identity:l=2",
     [1.0, 1.375],
     [-1.25, -0.75, -0.125],
     False, None, None),
    # a depth-10 tree has 3,069 parameters, drawn by _dyadic_query
    ("tree:l=2,depth=10,q=1", "linf:l=2,r=1/4",
     *_dyadic_query(0, 2, 3069),
     True, "0x1.0000000000000p-1 0x1.0000000000000p-1", "0x0.0p+0"),
    ("tree:l=2,depth=10,q=1", "linf:l=2,r=1/4",
     *_dyadic_query(31, 2, 3069),
     False, None, None),
)


def test_witness_search_results_pinned():
    for fam, neigh, x, params, found, witness, margin in _PINNED_QUERIES:
        spec = transform.strategic_transform(
            families.make_family(fam).formula(),
            families.make_neighborhood(neigh).formula())
        res = witness_search(spec.transformed, x, params)
        got = (res.found,
               None if res.witness is None else
               " ".join(map(float.hex, res.witness)),
               None if res.margin is None else float.hex(res.margin))
        assert got == (found, witness, margin), (fam, neigh, x, params)


def _plateau(v) -> float:
    """A staircase of |v|^2: neighbouring vertices often read the same."""
    return float(math.floor(4 * sum(u * u for u in v)))


def test_nelder_mead_matches_scipy(monkeypatch):
    # scipy is the reference: the same vertex and value, bit for bit, on
    # the 9-witness kl and 11-witness nn margins from their witness-search
    # starts and seeded ones, and on a staircase whose vertices tie
    import numpy as np
    from scipy.optimize import minimize
    runs, nelder_mead = [], solve._nelder_mead

    def spy(read, start):
        runs.append((read, start))
        return nelder_mead(read, start)

    monkeypatch.setattr(solve, "_nelder_mead", spy)
    for fam, neigh, x, params, *_ in (_PINNED_QUERIES[15],
                                      _PINNED_QUERIES[19]):
        spec = transform.strategic_transform(
            families.make_family(fam).formula(),
            families.make_neighborhood(neigh).formula())
        witness_search(spec.transformed, x, params)
    assert sorted({len(start) for _, start in runs}) == [9, 11]
    rng = random.Random(29)
    cases = runs + [(read, [rng.uniform(-8, 8) for _ in start])
                    for read, start in runs[::2]]
    cases += [(_plateau, [rng.uniform(-2, 2) for _ in range(k)])
              for k in (2, 3, 4, 5, 6)]
    for read, start in cases:
        point, fun = nelder_mead(read, start)
        want = minimize(lambda v: read(v.tolist()), np.asarray(start),
                        method="Nelder-Mead",
                        options={"maxiter": solve.REFINE_STEPS,
                                 "xatol": 1e-12, "fatol": 1e-15})
        assert [*map(float.hex, point), fun.hex()] == \
            [*map(float.hex, want.x.tolist()), float(want.fun).hex()], start


def _margin_points(body, rng: random.Random, n: int):
    """n scalar points for body's variables, each with a random set of
    free witness indices; values mix small ones, signed zeros, exp
    overflows (800) and product overflows (1e200)."""
    size = {"x": 0, "a": 0, "w": 0}
    for at in fm.formula_atoms(body):
        for v in fm.atom_vars(at):
            size[v.block] = max(size[v.block], v.index + 1)
    for _ in range(n):
        env = {b: tuple(rng.choice((rng.uniform(-2, 2), rng.uniform(-2, 2),
                                    0.0, -0.0, 800.0, -800.0, 1e200))
                        for _ in range(k)) for b, k in size.items()}
        free = sorted(rng.sample(range(size["w"]), rng.randint(0, size["w"])))
        yield env, free


def _assert_margin_matches_reference(body, rng: random.Random, n: int):
    for env, free in _margin_points(body, rng, n):
        want = ref_margin(body, env).hex()
        sigma = Assignment(env["x"], env["a"], env["w"])
        assert solve._violation(body, sigma).hex() == want, (body, env)
        # the specialized margin never reads sigma at a free witness
        hidden = sigma.with_w([math.nan if i in free else v
                               for i, v in enumerate(env["w"])])
        read = solve._margin(body, hidden,
                             {fm.Var("w", i): k for k, i in enumerate(free)})
        vals = [env["w"][i] for i in free]
        got = read(vals) if callable(read) else read
        assert got.hex() == want, (body, env, free)


def test_margin_matches_reference_on_registry_transforms():
    rng = random.Random(23)
    # the depth-10 tree is left out: 300 reference reads of its 1,023 nodes
    # take half a minute, and the shallow trees hold the same atoms
    for fam, neigh in dict.fromkeys((q[0], q[1]) for q in _PINNED_QUERIES
                                    if "depth=10" not in q[0]):
        spec = transform.strategic_transform(
            families.make_family(fam).formula(),
            families.make_neighborhood(neigh).formula())
        _, matrix = fm.split_exists(spec.transformed)
        _assert_margin_matches_reference(solve._nnf(matrix), rng, 300)


@pytest.mark.parametrize("text", [
    # inf - inf between two overflowed exps, inside a sum and across sides
    "(<= (+ (exp w0) (* -1 (exp w1))) x0)",
    "(= (exp w0) (exp (* 2 w1)))",
    # exp overflow feeding a comparison and a product
    "(and (<= (exp (* w0 x0)) a0) (> (* (exp w1) w0) 1/3))",
    # Not of an exp-graph atom
    "(or (not (= w1 (exp w0))) (< w0 x0))",
    # nested And/Or with constant and free parts side by side
    "(and (or (< w0 x0) (and (>= w1 a0) (= (* w0 w1) 1))) "
    "(or (> (+ x0 w0 w1 1/3) a1) (<= w1 (* x0 x0)) (= a0 a1)) (<= x0 2))",
    # empty And and Or beside free parts
    "(or (and (or) (< w0 x0)) (and (and) (> w1 x0)))",
])
def test_margin_matches_reference_on_hand_written_bodies(text):
    _, body = fm.split_exists(fm.parse(f"(exists (w0 w1) {text})"))
    _assert_margin_matches_reference(body, random.Random(text), 400)


def _transform_body(fam: str, neigh: str):
    spec = transform.strategic_transform(
        families.make_family(fam).formula(),
        families.make_neighborhood(neigh).formula())
    return solve._nnf(fm.split_exists(spec.transformed)[1])


@pytest.mark.parametrize("body", [
    # a flat 1,000-term witness sum: one statement per addition
    lambda: fm.split_exists(fm.parse(
        "(exists (w0 w1 w2 w3) (<= (+ " +
        " ".join(f"(* {k % 7 - 3}/{k % 5 + 1} w{k % 4})" for k in range(1000))
        + ") x0))"))[1],
    # thousands of statements over the tree's 255 nodes
    functools.partial(_transform_body, "tree:l=2,depth=8,q=1",
                      "lp:l=2,p=2,r=1/4"),
    # a degree-4 polynomial threshold against a p = 3 ball
    functools.partial(_transform_body, "ptf:l=3,D=4", "lp:l=3,p=3,r=1"),
], ids=["sum-1000", "tree-depth-8-x-lp", "ptf-degree-4-x-lp-3"])
def test_margin_matches_reference_on_large_bodies(body):
    _assert_margin_matches_reference(body(), random.Random(1000), 20)


def test_margin_kernel_is_shared_and_holds_no_values(monkeypatch):
    # w0 * w0 takes both queries past the walk to the search, and w1 is
    # forced to x0 + a0: a value the kernel must read from its globals
    f = fm.parse("(exists (w0 w1) (and (= w1 (+ x0 a0)) "
                 "(<= (* w0 w0) w1) (>= (+ (* w0 w1) (exp w0)) a0)))")
    reads, margin = [], solve._margin

    def spy(f, sigma, free):
        read = margin(f, sigma, free)
        if free:
            reads.append((read, f, sigma, free))
        return read

    monkeypatch.setattr(solve, "_margin", spy)
    for x, a in (([0.5], [1.5]), ([-0.25], [3.0])):
        witness_search(f, x, a)
    (r1, f, s1, free), (r2, _, s2, _) = reads
    assert (s1.x, s1.a) != (s2.x, s2.a)
    forced = [i for i in range(len(s1.w)) if fm.Var("w", i) not in free]
    assert forced and [s1.w[i] for i in forced] != [s2.w[i] for i in forced]
    assert r1.__code__ is r2.__code__
    # no value and no formula text: only generated names and fixed helpers
    assert not any(isinstance(c, float) for c in r1.__code__.co_consts)
    assert all(n in ("inf", "zero", "abs") or n[0] == "g" and n[1:].isdigit()
               for n in r1.__code__.co_names)
    rng = random.Random(2)
    for read, sigma in ((r1, s1), (r2, s2)):
        for _ in range(20):
            vals = [rng.uniform(-2, 2) for _ in free]
            w = list(sigma.w)
            for v, k in free.items():
                w[v.index] = vals[k]
            assert read(vals).hex() == \
                solve._violation(f, sigma.with_w(w)).hex()
