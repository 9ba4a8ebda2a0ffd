"""Deciding and approximating formula semantics.

Terms are read by two folds over the term grammar (variables, rational
constants, +, *, exp): ``eval_term`` values a term in floats, Fractions,
certified ``RatInterval`` enclosures or float arrays, and ``affine`` reads
a term as coefficients over chosen unknowns plus a constant.  The float
reading of a rational beyond float range is +-inf.  The margin emitter
``_margin`` reads a formula as a float, or writes the part that depends on
the searched witnesses as one straight-line function of them.  Four
layers, from exact to heuristic, use them:

* ``eval_qf`` -- quantifier-free evaluation, exactly or as a float margin:
  exact rational (no tolerance; exp handled by certified enclosure
  refinement, an exp-graph atom u = exp(v) being a comparison like any
  other), or as the float witness-search margin: a
  formula holds when its ``_violation`` is at most ``FLOAT_TOL``, one
  absolute tolerance for every atom.  ``families`` owns the elementwise
  reading on float arrays, folding atoms with the same ``_fold``.
* ``fm_eliminate`` -- exact Fourier-Motzkin projection for linear systems
  (``linear_system_from_formula`` compiles them with ``affine``), the linear
  fragment of one-block quantifier elimination.  Rows are pruned to
  primitive integer coefficient tuples with a Fraction rhs, each with its
  history (the input inequalities it was combined from), and pairing skips
  the pairs that Chernikov's history rule proves redundant (Chernikov 1965;
  Imbert's first acceleration theorem, PPCP 1993).  The output defines the
  exact projection; ``is_trivially_infeasible`` reports a contradiction row
  in it, so True proves the input empty and False proves nothing.
* ``lp_solve`` -- exact rational simplex with Bland's rule over v >= 0.
* ``witness_search`` -- numerical instantiation of existential quantifiers:
  definitional equalities are solved with float ``affine``, and ``_walk``
  goes depth first over the disjunct choices, pruning a prefix that
  ``lp_solve`` proves infeasible, in at most ``SOLVE_BUDGET`` exact reads;
  the rest go to a fixed search (``SEARCH_GRID`` points per axis of
  ``SEARCH_BOX``, ``SEARCH_RESTARTS`` seeded random starts, ``REFINE_STEPS``
  steps of scipy's Nelder-Mead, run on float lists by ``_nelder_mead``) on
  the float margin, specialized once per query by ``_margin``, which folds
  every subterm free of the searched witnesses before the search starts
  and emits the rest as a kernel, one statement per operation; ``_kernel``
  caches its compiled code by its source, which holds no value, so the
  queries on one formula share it.  Sound when it
  reports a witness (its margin on the formula as given, not on its NNF,
  is within ``FLOAT_TOL``, so it re-verifies under the float eval_qf); a
  not_found is a refutation without a margin, which rests on no inexact
  float margin (see ``_decide``).

The exact linear layers share one row layer: ``LinConstraint`` is the only
row (Fourier-Motzkin rows carry their history in it, and the simplex reads
the same rows), ``_compare`` the only relation table, ``LinConstraint.make``
the only normalization of >= and >, ``_atom_row`` the only reading of an
atom as a row, ``_combine`` the only row combination (FM substitution and
pairing), ``_prune`` the only normalization and pruning of FM rows, and
``_pivot`` and ``_price`` the only tableau pivot and objective pricing of
the simplex.  Both apply ``_eliminate`` to rows of integers over one
denominator, so Bland's rule picks the pivots a tableau of Fractions would.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import types
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from . import VerificationFailure, formula as fm
from .intervals import (DEFAULT_MAX_BITS, RatInterval, UndecidedComparison,
                        certified_sign, exp_interval)
# unused here: perfbench/spans.py patches this name on this module, and a
# traced benchmark round fails when it is missing
from .intervals import exp_enclosure

FLOAT_TOL = 1e-9
# witness search: the most exact reads (forks and leaves) of the walk, the
# box every free witness is searched in, grid points per axis, seeded
# random starts and Nelder-Mead iterations per refined start
SOLVE_BUDGET = 256
SEARCH_BOX = (-8, 8)
SEARCH_GRID = 5
SEARCH_RESTARTS = 20
REFINE_STEPS = 200


def _safe_exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _float(v) -> float:
    """float(v), with a rational beyond float range read as +-inf: that is
    IEEE round-to-nearest overflow, since float(Fraction) raises exactly
    when the correctly rounded value is infinite."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


class SolveError(VerificationFailure):
    pass


# ---------------------------------------------------------------------------
# Assignments


@dataclass
class Assignment:
    """Per-block value vectors. Values are Fractions (exact path) or floats."""

    x: tuple = ()
    a: tuple = ()
    w: tuple = ()

    def lookup(self, v: fm.Var):
        vec = getattr(self, v.block)
        if v.index >= len(vec):
            raise SolveError(f"assignment does not cover {v}")
        return vec[v.index]

    def with_w(self, w: Sequence) -> "Assignment":
        return Assignment(self.x, self.a, tuple(w))

    def is_exact(self) -> bool:
        return all(isinstance(v, (Fraction, int))
                   for v in (*self.x, *self.a, *self.w))


def merge(x: Sequence = (), a: Sequence = (), w: Sequence = ()) -> Assignment:
    return Assignment(tuple(x), tuple(a), tuple(w))


# ---------------------------------------------------------------------------
# Term evaluation: one value fold and one affine fold over the term grammar


def eval_term(t: fm.Term, sigma: Assignment, lift: Callable, exp: Callable):
    """Value of a term in the domain that `lift` maps variable values and
    rational constants into; the domain's own + and * combine subterms and
    `exp` is its exponential.  Floats, Fractions, RatIntervals and numpy
    arrays all read terms through this fold.  Dispatch is on the exact node
    type."""
    kind = type(t)
    if kind is fm.Var:
        return lift(sigma.lookup(t))
    if kind is fm.Const:
        return lift(t.value)
    if kind is fm.Sum:
        terms = iter(t.terms)
        out = eval_term(next(terms), sigma, lift, exp)
        for s in terms:
            out = out + eval_term(s, sigma, lift, exp)
        return out
    if kind is fm.Product:
        factors = iter(t.factors)
        out = eval_term(next(factors), sigma, lift, exp)
        for s in factors:
            out = out * eval_term(s, sigma, lift, exp)
        return out
    return exp(eval_term(t.arg, sigma, lift, exp))


def eval_term_float(t: fm.Term, sigma: Assignment) -> float:
    return eval_term(t, sigma, _float, _safe_exp)


def affine(t: fm.Term, unknown: dict, value: Callable, lift: Callable,
           exp: Optional[Callable] = None):
    """(coefficients over the unknowns, constant) of a term affine in them,
    or None when it is not.  `unknown` maps each unknown Var to its column;
    `value` reads every other variable and `lift` maps values and constants
    into the coefficient domain.  An exp subterm free of unknowns is valued
    with `exp`; without `exp` every exp subterm makes the term non-affine.
    Coefficients are read off structurally: a finite-difference slope
    drowns in rounding when the constant is huge."""
    kind = type(t)
    if kind is fm.Var:
        co = [lift(0)] * len(unknown)
        col = unknown.get(t)
        if col is None:
            return co, lift(value(t))
        co[col] = lift(1)
        return co, lift(0)
    if kind is fm.Const:
        return [lift(0)] * len(unknown), lift(t.value)
    if kind is fm.Exp:
        arg = None if exp is None else affine(t.arg, unknown, value, lift, exp)
        if arg is None or any(arg[0]):
            return None
        return arg[0], exp(arg[1])
    parts = []
    for s in (t.terms if kind is fm.Sum else t.factors):
        part = affine(s, unknown, value, lift, exp)
        if part is None:
            return None
        parts.append(part)
    co, const = parts[0]
    if kind is fm.Sum:
        for c2, k2 in parts[1:]:
            co = [u + v for u, v in zip(co, c2)]
            const = const + k2
        return co, const
    for c2, k2 in parts[1:]:
        if any(c2):
            if any(co):
                return None  # product of two non-constant factors
            co = [const * v for v in c2]
        else:
            co = [k2 * v for v in co]
        const = const * k2
    return co, const


_RELATIONS = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
              ">=": operator.ge, ">": operator.gt}


def _compare(d, rel: str, rhs=0) -> bool:
    """d rel rhs: an exact difference or its sign against 0, or two float
    arrays elementwise."""
    return _RELATIONS[rel](d, rhs)


def _exact_atom(at: fm.Compare, sigma: Assignment, max_bits: int) -> bool:
    if not (fm.term_has_exp(at.lhs) or fm.term_has_exp(at.rhs)):
        diff = eval_term(at.lhs, sigma, Fraction, None) - \
            eval_term(at.rhs, sigma, Fraction, None)
        return _compare(diff, at.rel)

    # exp(v) is irrational for rational v != 0, so an equality with exp can
    # only be refuted, by enclosure separation; at v = 0 the enclosure is
    # the point 1
    def enclosure(bits: int) -> RatInterval:
        exp = functools.partial(exp_interval, bits=bits)
        return eval_term(at.lhs, sigma, RatInterval.point, exp) - \
            eval_term(at.rhs, sigma, RatInterval.point, exp)

    return _compare(certified_sign(enclosure, max_bits), at.rel)


# the source of an atom's margin (see _violation) from the difference {0}
# of its sides, which the margin emitter writes into a kernel
_ATOM_SOURCE = {"=": "abs({0}) if {0} == {0} else inf",
                "<": "{0} if {0} > zero else zero if {0} == {0} else inf",
                ">": "-{0} if {0} < zero else zero if {0} == {0} else inf"}
_ATOM_SOURCE.update({"<=": _ATOM_SOURCE["<"], ">=": _ATOM_SOURCE[">"]})
_KERNEL_GLOBALS = {"inf": math.inf, "zero": 0.0}


@functools.cache
def _atom_margin(rel: str) -> Callable:
    """_ATOM_SOURCE[rel] as a function of d, compiled on first use: at
    import it would grow the memory of every command."""
    return eval("lambda d: " + _ATOM_SOURCE[rel].format("d"),
                dict(_KERNEL_GLOBALS))


def _not_margin(m: float) -> float:
    return 0.0 if m > FLOAT_TOL else 1.0


# a body has one source per set of free witnesses; witness-mix's 11 pairs
# have at most 11, and a 2,700-statement kernel holds about 0.5 MB
@functools.lru_cache(maxsize=16)
def _kernel(source: str) -> types.CodeType:
    """The code of the one function that source defines."""
    return compile(source, "<margin>", "exec").co_consts[0]


def _margin(f: fm.Formula, sigma: Assignment, free: dict):
    """The margin of f (see _violation) specialized to sigma: its float
    when no free witness occurs in f, else a function that reads it at a
    list w of free witness values, free mapping each free witness Var to
    its position there (sigma's values at the free witnesses are never
    read).  Every subterm free of them is folded once, here, as _violation
    folds it, and the rest is emitted as one straight-line function, a
    statement per operation in _violation's order, so that it returns
    _violation's bits at every point.  Its source holds only generated
    names, positions in w and fixed operators: every folded float and every
    helper it calls is one of its globals, so the queries on one body with
    the same free witnesses share one compiled code object."""
    lines, env = [], dict(_KERNEL_GLOBALS)

    def name(v) -> str:
        """v when it is source, else the name of a new global holding v."""
        if isinstance(v, str):
            return v
        env[f"g{len(env)}"] = v
        return f"g{len(env) - 1}"

    def put(fn, *args, source=None):
        """fn(*args) now when every argument is a value, else the name of a
        new statement: source formatted with their names, or a call of fn."""
        if not any(isinstance(v, str) for v in args):
            return fn(*args)
        args = list(map(name, args))
        lines.append(f"    v{len(lines)} = " + (
            source.format(*args) if source
            else f"{name(fn)}({', '.join(args)})"))
        return f"v{len(lines) - 1}"

    def term(t: fm.Term):
        if not (free and any(v in free for v in fm.term_vars(t))):
            return eval_term_float(t, sigma)
        kind = type(t)
        if kind is fm.Var:
            return f"w[{free[t]}]"
        if kind is fm.Exp:
            return put(_safe_exp, term(t.arg))
        op, source = (operator.add, "{} + {}") if kind is fm.Sum else \
            (operator.mul, "{} * {}")
        return functools.reduce(lambda u, v: put(op, u, v, source=source),
                                map(term, t.terms if kind is fm.Sum else
                                    t.factors))

    def margin(g: fm.Formula):
        if isinstance(g, fm.Compare):
            d = put(operator.sub, term(g.lhs), term(g.rhs), source="{} - {}")
            return put(_atom_margin(g.rel), d, source=_ATOM_SOURCE[g.rel])
        if isinstance(g, fm.Not):
            return put(_not_margin, margin(g.body))
        if not isinstance(g, (fm.And, fm.Or)):
            raise SolveError("quantifier inside a quantifier-free reading")
        pick = max if isinstance(g, fm.And) else min
        parts = [margin(p) for p in g.parts]
        reads = [p for p in parts if isinstance(p, str)]
        values = [p for p in parts if not isinstance(p, str)]
        if not reads:
            return pick(values, default=0.0 if pick is max else 1.0)
        # a margin is never nan, -0.0 or negative, so max and min read margins
        # in any order, starting from 0.0 and inf respectively
        start = pick(values, default=0.0 if pick is max else math.inf)
        return put(pick, start, *reads)

    out = margin(f)
    if not isinstance(out, str):
        return out
    source = "def read(w):\n" + "\n".join(lines) + f"\n    return {out}\n"
    return types.FunctionType(_kernel(source), env)


def _violation(f: fm.Formula, sigma: Assignment) -> float:
    """The float reading of a quantifier-free formula: a margin that is 0
    when f holds exactly, f holding when it is at most FLOAT_TOL.  An atom
    reads the difference d of its sides, each side folded by
    eval_term_float: |d| for =, max(0, d) for < and <=, max(0, -d) for >
    and >=, inf for a nan d (inf - inf).  And takes the largest margin (0
    for no parts), Or the smallest (1 for no parts), and Not reads 0 when
    its body's margin exceeds FLOAT_TOL and 1 otherwise.  Witness search
    reads the same margin through _margin, specialized once per query."""
    return _margin(f, sigma, {})


def _fold(g: fm.Formula, atom: Callable, array=None):
    """g from atom(at) per atom: a bool, or a bool array when array is
    np.bool_.  Not a nested closure: its cycle would keep arrays alive."""
    if isinstance(g, fm.Compare):
        return atom(g)
    if isinstance(g, fm.Not):
        v = _fold(g.body, atom, array)
        return ~v if array else not v
    conj = isinstance(g, fm.And)
    parts = (_fold(p, atom, array) for p in g.parts)
    if array:
        return functools.reduce(operator.and_ if conj else operator.or_,
                                parts, array(conj))
    return all(parts) if conj else any(parts)


def _require_qf(f: fm.Formula) -> None:
    if fm.classify_fragment(f) != fm.QUANTIFIER_FREE:
        raise SolveError("eval_qf requires a quantifier-free formula")


def eval_qf(f: fm.Formula, sigma: Assignment, mode: str,
            max_bits: int = DEFAULT_MAX_BITS):
    """Evaluate a quantifier-free formula.

    mode 'exact' uses rational arithmetic with certified enclosure refinement
    for exp (no tolerance; raises UndecidedComparison when the
    enclosure cannot decide a comparison at max_bits).  mode 'float' is the
    margin witness search gates on: f holds when _violation(f, sigma) <=
    FLOAT_TOL, one absolute tolerance for every atom.
    """
    _require_qf(f)
    if mode == "exact":
        return _fold(f, lambda at: _exact_atom(at, sigma, max_bits))
    if mode == "float":
        return _violation(f, sigma) <= FLOAT_TOL
    raise SolveError(f"unknown eval_qf mode {mode!r}")


# ---------------------------------------------------------------------------
# Linear systems and Fourier-Motzkin elimination


class LinConstraint(NamedTuple):
    """sum_i coeffs[i]*v_i (rel) rhs, with rel in {<, <=, =}: the one row of
    the exact linear layer.  Its history, read only by fm_eliminate, holds
    the indices of the input inequalities the row was combined from (empty
    for an equality and outside elimination)."""

    coeffs: tuple
    rel: str
    rhs: Fraction
    history: frozenset = frozenset()

    @staticmethod
    def make(coeffs: Sequence, rel: str, rhs) -> "LinConstraint":
        """The row coeffs . v (rel) rhs with rel in {<, <=, =, >=, >};
        >= and > are normalized to <= and < by negation."""
        if rel not in _RELATIONS:
            raise SolveError(f"unknown relation {rel!r}")
        coeffs = tuple(Fraction(c) for c in coeffs)
        rhs = Fraction(rhs)
        if rel in (">=", ">"):
            return LinConstraint(tuple(-c for c in coeffs),
                                 rel.replace(">", "<"), -rhs)
        return LinConstraint(coeffs, rel, rhs)


@dataclass
class LinearSystem:
    """Rows over named variables.  A system that fm_eliminate returns also
    carries its `steps`: one dict of counters per eliminated variable."""

    variables: tuple
    constraints: list
    steps: tuple = ()

    @staticmethod
    def make(variables: Sequence[str], rows: Sequence) -> "LinearSystem":
        """rows: (coeffs, rel, rhs) with rel in {<, <=, =, >=, >}."""
        out = []
        for i, (coeffs, rel, rhs) in enumerate(rows):
            if len(coeffs) != len(variables):
                raise SolveError(f"row {i} has {len(coeffs)} coefficients "
                                 f"for {len(variables)} variables")
            out.append(LinConstraint.make(coeffs, rel, rhs))
        return LinearSystem(tuple(variables), out)

    def is_trivially_infeasible(self) -> bool:
        """Whether a row reads 0 rel rhs and is false: True proves the
        system empty, False proves nothing."""
        return any(not any(c.coeffs) and not _compare(-c.rhs, c.rel)
                   for c in self.constraints)

    def satisfied_by(self, values: Sequence) -> bool:
        """Whether every row holds at values, one per variable, decided in
        integers.  The values are put over one denominator den, and each
        row co . (nums / den) rel p / q is scaled by the lcm L of its
        coefficient denominators (1 for an integral row), so that it reads
        q * ((L * co) . nums) rel p * L * den."""
        if len(values) != len(self.variables):
            raise SolveError(f"{len(values)} values for "
                             f"{len(self.variables)} variables")
        vals = [Fraction(v) for v in values]
        den = math.lcm(*(v.denominator for v in vals))
        nums = [v.numerator * (den // v.denominator) for v in vals]
        for c in self.constraints:
            L = math.lcm(*(co.denominator for co in c.coeffs))
            lhs = sum(co.numerator * (L // co.denominator) * v
                      for co, v in zip(c.coeffs, nums))
            diff = lhs * c.rhs.denominator - c.rhs.numerator * L * den
            if not _compare(diff, c.rel):
                return False
        return True


def _atom_row(at: fm.Compare, unknown: dict,
              value: Callable) -> Optional[LinConstraint]:
    """The atom lhs rel rhs as a normalized row over the unknowns (columns
    as in `affine`), or None when a side is not affine in them."""
    left = affine(at.lhs, unknown, value, Fraction)
    right = affine(at.rhs, unknown, value, Fraction)
    if left is None or right is None:
        return None
    return LinConstraint.make([u - v for u, v in zip(left[0], right[0])],
                              at.rel, right[1] - left[1])


def _combine(c: LinConstraint, d: LinConstraint, j: int,
             rel: str) -> LinConstraint:
    """The row c - (c_j/d_j)*d, which is 0 in column j, with relation rel
    and the joined history.  A nonzero row comes scaled by |d_j|, so that
    integer rows stay integer (pruning makes it primitive); a zero row,
    which pruning keeps verbatim, comes unscaled."""
    m, n = d.coeffs[j], -c.coeffs[j]
    if m < 0:
        m, n = -m, -n
    coeffs = tuple(m * u + n * v for u, v in zip(c.coeffs, d.coeffs))
    rhs = m * c.rhs + n * d.rhs
    return LinConstraint(coeffs, rel, rhs if any(coeffs) else rhs / m,
                         c.history | d.history)


def _prune(rows: list) -> list:
    """Scale every nonzero row to primitive integer coefficients (by a
    positive factor), drop tautologies, and of rows with the same
    coefficients and history keep the tightest (smaller rhs, then strict
    before non-strict).  Equalities and contradictions are kept verbatim,
    once each.  Only rows with the same history compete: dropping a row for
    a parallel row with another history could skip a pair the history rule
    needs."""
    best = {}
    for co, rel, rhs, hist in rows:
        if any(co):
            den = math.lcm(*(v.denominator for v in co))
            ints = [int(v * den) for v in co]
            g = math.gcd(*ints)
            co, rhs = tuple(v // g for v in ints), Fraction(rhs * den, g)
        elif _compare(-rhs, rel):
            continue  # tautology
        if rel == "=" or not any(co):
            best.setdefault((co, rel, rhs), LinConstraint(co, rel, rhs, hist))
            continue
        prev = best.get((co, hist))
        if prev is None or (rhs, rel == "<=") < (prev.rhs, prev.rel == "<="):
            best[co, hist] = LinConstraint(co, rel, rhs, hist)
    return list(best.values())


def fm_eliminate(sys: LinearSystem, eliminate: Sequence[str]) -> LinearSystem:
    """Project a linear system onto the variables not in `eliminate`.

    Variables go in the order given.  One that an equality contains is
    substituted away with the first such equality; otherwise every row that
    bounds it from above is paired with every row that bounds it from below
    (strict + anything -> strict).  Pairing follows Chernikov's history
    rule (Chernikov, The convolution of finite systems of linear
    inequalities, USSR Comput. Math. 1965; Imbert's first acceleration
    theorem in Fourier's elimination: which to choose?, PPCP 1993): at the
    k-th pairing step a pair whose rows were combined from more than k + 1
    input inequalities in all is implied by the other rows, so it is
    skipped without being formed, unless its rows are opposite and would
    form a zero row.  The output defines the exact projection; it holds a
    contradiction row (is_trivially_infeasible) only when one was formed,
    so on an empty projection it may have none.

    The returned system's `steps` holds, per eliminated variable, its
    name, whether it was substituted or paired, the pairs formed and
    skipped, and the rows kept after pruning.
    """
    var_index = {v: i for i, v in enumerate(sys.variables)}
    for v in eliminate:
        if v not in var_index:
            raise SolveError(f"unknown variable {v!r}")
    rows = [c._replace(history=frozenset() if c.rel == "=" else
                       frozenset([i]))
            for i, c in enumerate(sys.constraints)]
    steps = []
    paired = 0
    for var in eliminate:
        j = var_index[var]
        eq = next((r for r in rows if r.rel == "=" and r.coeffs[j] != 0),
                  None)
        if eq is not None:
            rows = _prune([r if r.coeffs[j] == 0 else
                           _combine(r, eq, j, r.rel)
                           for r in rows if r is not eq])
            steps.append({"variable": var, "method": "substituted",
                          "pairs": 0, "skipped": 0, "rows": len(rows)})
            continue
        paired += 1
        uppers = [r for r in rows if r.coeffs[j] > 0]  # var <= ...
        lowers = [r for r in rows if r.coeffs[j] < 0]
        # rows are primitive from the first prune on, and before the second
        # pairing step no pair has more than two input inequalities
        formed = [_combine(lo, up, j, "<" if "<" in (up.rel, lo.rel) else "<=")
                  for up in uppers for lo in lowers
                  if len(up.history | lo.history) <= paired + 1 or
                  all(u == -v for u, v in zip(up.coeffs, lo.coeffs))]
        rows = _prune([r for r in rows if r.coeffs[j] == 0] + formed)
        steps.append({"variable": var, "method": "paired",
                      "pairs": len(formed),
                      "skipped": len(uppers) * len(lowers) - len(formed),
                      "rows": len(rows)})

    # drop the eliminated columns, then prune across histories, which no
    # later step reads
    dropped = {var_index[v] for v in eliminate}
    keep = [i for i in range(len(sys.variables)) if i not in dropped]
    out = []
    for r in rows:
        if any(r.coeffs[i] for i in dropped):
            raise SolveError("internal: eliminated variable survived")
        out.append(LinConstraint(tuple(r.coeffs[i] for i in keep), r.rel,
                                 r.rhs))
    return LinearSystem(tuple(sys.variables[i] for i in keep),
                        [r._replace(coeffs=tuple(map(Fraction, r.coeffs)))
                         for r in _prune(out)], tuple(steps))


def linear_system_from_formula(f: fm.Formula,
                               variables: Sequence[fm.Var]) -> LinearSystem:
    """Conjunction of linear atoms -> LinearSystem (helper for the linear
    fragment; rejects disjunction, negation and nonlinear atoms)."""
    idx = {v: i for i, v in enumerate(variables)}
    rows = []

    def undeclared(v: fm.Var):
        raise SolveError(f"variable {v} not declared")

    def visit(g: fm.Formula):
        if isinstance(g, fm.And):
            for p in g.parts:
                visit(p)
            return
        if not isinstance(g, fm.Compare):
            raise SolveError("only conjunctions of linear atoms are supported")
        row = _atom_row(g, idx, undeclared)
        if row is None:
            raise SolveError("nonlinear atom encountered")
        rows.append(row)

    visit(f)
    return LinearSystem(tuple(str(v) for v in variables), rows)


# ---------------------------------------------------------------------------
# Exact rational LP (simplex, Bland's rule)


@dataclass
class LPResult:
    status: str  # optimal | infeasible | unbounded
    value: Optional[Fraction] = None
    point: Optional[tuple] = None


def _eliminate(target: tuple, by: tuple, col: int) -> tuple:
    """The tableau row target = T / d minus the multiple of by = B / q that
    zeroes column col, where by reads 1 at col (B[col] == q): the row
    (q * T - T[col] * B) / (d * q), in lowest terms."""
    (row, d), (unit, q) = target, by
    f = row[col]
    row, d = [q * t - f * u for t, u in zip(row, unit)], d * q
    g = math.gcd(d, *row)
    return ([v // g for v in row], d // g) if g > 1 else (row, d)


def _pivot(tableau: list, basis: list, row: int, col: int) -> None:
    """Make column col basic in row: divide the row by its pivot p, which
    makes it (sign(p) * T, |p|), and eliminate col from every other row
    with a nonzero entry there, the objective row included."""
    unit, _ = tableau[row]
    p = unit[col]
    tableau[row] = by = ([-v for v in unit] if p < 0 else unit), abs(p)
    for i, r in enumerate(tableau):
        if i != row and r[0][col]:
            tableau[i] = _eliminate(r, by, col)
    basis[row] = col


def _price(cost: tuple, rows: list, basis: list) -> tuple:
    """Reduced costs: the cost row with each basic column basis[i] priced
    out by rows[i], which reads 1 there; rows past the basis (the objective
    row) are ignored."""
    for row, b in zip(rows, basis):
        if cost[0][b]:
            cost = _eliminate(cost, row, b)
    return cost


def _simplex(tableau: list, basis: list, n_cols: int) -> str:
    """Bland's rule simplex on a tableau in canonical form.

    tableau: a row (ints, rhs last, over a positive int) per basis entry,
    then the objective row of reduced costs (minus the value last); the
    first n_cols columns may enter.  Returns 'optimal' or 'unbounded'.
    """
    m = len(basis)
    while True:
        cost = tableau[m][0]
        enter = next((j for j in range(n_cols) if cost[j] < 0), None)
        if enter is None:
            return "optimal"
        # Bland: among minimal ratios (a row's denominator cancels) choose
        # the row whose basic variable has the smallest index
        ratios = [(Fraction(t[-1], t[enter]), basis[i], i)
                  for i, (t, _) in enumerate(tableau[:m]) if t[enter] > 0]
        if not ratios:
            return "unbounded"
        _pivot(tableau, basis, min(ratios)[2], enter)


def _integer_row(values: Sequence) -> tuple:
    """Fractions as one tableau row: integers over the lcm of their
    denominators."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def lp_solve(objective: Sequence, rows: Sequence[LinConstraint]) -> LPResult:
    """Exact rational optimum via two-phase simplex with Bland's rule:
    minimize objective . v over v >= 0 subject to rows, each with relation
    <= or =.  The objective and the rows are read as Fractions; a tableau
    row is integers over one positive denominator (fraction-free, as in
    Bareiss, Math. Comp. 1968)."""
    objective = tuple(Fraction(c) for c in objective)
    n, m = len(objective), len(rows)
    for r in rows:
        if r.rel not in ("<=", "="):
            raise SolveError(f"LP rows are <= or =, not {r.rel!r}")
        if len(r.coeffs) != n:
            raise SolveError("LP column dimension mismatch")
    slack_count = sum(1 for r in rows if r.rel == "<=")
    total = n + slack_count
    # one pass over the rows: add a slack column per inequality, make the
    # rhs nonnegative and give the row its artificial column
    tableau, si = [], n
    for i, r in enumerate(rows):
        ints, den = _integer_row([*map(Fraction, r.coeffs), Fraction(r.rhs)])
        full = [*ints[:-1], *[0] * (slack_count + m), ints[-1]]
        if r.rel == "<=":
            full[si] = den
            si += 1
        if full[-1] < 0:
            full = [-v for v in full]
        full[total + i] = den
        tableau.append((full, den))
    basis = [total + i for i in range(m)]
    # phase 1: minimize the sum of the artificials (cost 1 each)
    tableau.append(_price(([0] * total + [1] * m + [0], 1), tableau, basis))
    _simplex(tableau, basis, total + m)
    if tableau[m][0][-1] < 0:  # phase-1 objective positive: infeasible
        return LPResult("infeasible")
    # drive artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= total:
            col = next((j for j in range(total) if tableau[i][0][j]), None)
            if col is not None:  # None: a redundant row
                _pivot(tableau, basis, i, col)
    # phase 2: the real objective, never entering an artificial column
    tableau[m] = _price(
        _integer_row([*objective, *[Fraction(0)] * (slack_count + m + 1)]),
        tableau, basis)
    if _simplex(tableau, basis, total) == "unbounded":
        return LPResult("unbounded")
    point = [Fraction(0)] * n
    for (t, d), b in zip(tableau, basis):
        if b < n:
            point[b] = Fraction(t[-1], d)
    value = sum(c * v for c, v in zip(objective, point))
    return LPResult("optimal", value, tuple(point))


# ---------------------------------------------------------------------------
# Witness search


@dataclass
class WitnessResult:
    found: bool
    witness: Optional[tuple] = None
    margin: Optional[float] = None


def _nnf(f: fm.Formula, positive: bool = True) -> fm.Formula:
    if isinstance(f, fm.Compare):
        if positive:
            return f
        if fm.exp_graph(f):
            return fm.Not(f)  # negated transcendental equality stays wrapped
        flip = {"<": ">=", "<=": ">", "=": None, ">=": "<", ">": "<="}[f.rel]
        if flip is None:
            return fm.Or((fm.Compare(f.lhs, "<", f.rhs),
                          fm.Compare(f.lhs, ">", f.rhs)))
        return fm.Compare(f.lhs, flip, f.rhs)
    if isinstance(f, fm.Not):
        return _nnf(f.body, not positive)
    if isinstance(f, fm.And):
        parts = tuple(_nnf(p, positive) for p in f.parts)
        return fm.And(parts) if positive else fm.Or(parts)
    if isinstance(f, fm.Or):
        parts = tuple(_nnf(p, positive) for p in f.parts)
        return fm.Or(parts) if positive else fm.And(parts)
    raise SolveError("quantifier inside witness-search body")


def _conjunctive_atoms(f: fm.Formula):
    """Atoms that hold in every model of f (top-level conjunction spine)."""
    if isinstance(f, fm.Compare):
        yield f
    elif isinstance(f, fm.And):
        for p in f.parts:
            yield from _conjunctive_atoms(p)


def _propagate_definitions(body: fm.Formula, sigma: Assignment,
                           unknown: set) -> dict:
    """Resolve witnesses that are forced by definitional equalities
    (w = term over known variables, or w = exp(known w))."""
    values: dict = {}

    def known(v: fm.Var) -> bool:
        if v.block != "w":
            return True
        return v.index in values or v.index not in unknown

    def value(v: fm.Var) -> float:
        if v.block == "w" and v.index in values:
            return values[v.index]
        return float(sigma.lookup(v))

    changed = True
    while changed:
        changed = False
        for at in _conjunctive_atoms(body):
            graph = fm.exp_graph(at)
            if graph:
                u, v = graph
                if u.block == "w" and u.index in unknown \
                        and u.index not in values and known(v):
                    values[u.index] = _safe_exp(value(v))
                    changed = True
                elif v.block == "w" and v.index in unknown \
                        and v.index not in values and known(u):
                    # invert the graph atom: v = log(u) when u > 0
                    uval = value(u)
                    if uval > 0:
                        values[v.index] = math.log(uval)
                        changed = True
                continue
            if at.rel != "=":
                continue
            pending = {v.index for v in (*fm.term_vars(at.lhs),
                                         *fm.term_vars(at.rhs))
                       if v.block == "w" and v.index in unknown
                       and v.index not in values}
            if len(pending) != 1:
                continue
            wi = pending.pop()
            # solve equalities that are affine in the one remaining unknown
            part = affine(fm.sub(at.lhs, at.rhs), {fm.Var("w", wi): 0},
                          value, _float, _safe_exp)
            if part is not None and part[0][0] != 0.0:
                values[wi] = -part[1] / part[0][0]
                changed = True
    return values


def _strict_feasible_point(rows: Sequence[LinConstraint], n_rem: int):
    """Exact feasibility of linear rows over unbounded unknowns.

    Unknowns are split v = p - q with p, q >= 0; strict rows get a shared
    slack t that is maximized, so strict feasibility is certified by t > 0.
    Returns a tuple of Fractions, or None when the system has no solution.
    """
    has_strict = any(c.rel == "<" for c in rows)
    n = 2 * n_rem + 1
    t_col = n - 1
    zero = Fraction(0)
    lp_rows = []
    for c in rows:
        row = [zero] * n
        for j, v in enumerate(c.coeffs):
            row[2 * j] = v
            row[2 * j + 1] = -v
        if c.rel == "<":
            row[t_col] = Fraction(1)
        rel = "=" if c.rel == "=" else "<="
        lp_rows.append(LinConstraint(tuple(row), rel, c.rhs))
    # maximize t (minimize -t) subject to t <= 1
    unit = (zero,) * t_col + (Fraction(1),)
    lp_rows.append(LinConstraint(unit, "<=", Fraction(1)))
    res = lp_solve([-v for v in unit], lp_rows)
    if res.status != "optimal":
        return None
    if has_strict and res.point[t_col] == 0:
        return None
    return tuple(res.point[2 * j] - res.point[2 * j + 1]
                 for j in range(n_rem))


def _witness_vector(size: int, forced: dict, free: Sequence,
                    vals: Sequence = ()) -> tuple:
    """Float witness vector: forced values at their indices, vals at the
    free indices in order, 0.0 everywhere else."""
    wv = [0.0] * size
    for i, v in forced.items():
        wv[i] = v
    for i, v in zip(free, vals):
        wv[i] = _float(v)
    return tuple(wv)


def _accept(matrix: fm.Formula, sigma: Assignment,
            wv: tuple) -> WitnessResult:
    """The witness wv of matrix when its margin is within FLOAT_TOL, else an
    inconclusive not_found; either way with the margin of matrix at wv."""
    m = _violation(matrix, sigma.with_w(wv))
    return WitnessResult(True, wv, m) if m <= FLOAT_TOL else \
        WitnessResult(False, None, m)


def _exactly_false(f: fm.Formula, inputs: tuple) -> bool:
    """Whether the quantifier-free f, which reads no witness, is False
    under the exact eval_qf at the rational inputs (x, a): not when one is
    inf or nan or a comparison is undecided."""
    try:
        sigma = merge(*(map(Fraction, v) for v in inputs))
    except (OverflowError, ValueError):  # an inf or nan input
        return False
    try:
        return not _fold(f, lambda at: _exact_atom(at, sigma,
                                                   DEFAULT_MAX_BITS))
    except UndecidedComparison:
        return False


def _decide(lits, sigma: Assignment, inputs: tuple, unknown: set,
            size: int):
    """The conjunction of NNF literals lits, read exactly where it can be:
    ("unsat", None), ("unknown", None) or ("feasible", witness vector).
    Definitions are propagated, a literal free of the remaining witnesses
    is read by its float margin (x, a and the forced witnesses are floats),
    and the rest are rows for the rational simplex.  A literal's margin
    prunes only where it is exact: one that reads only x, a and constants
    must also read False exactly at the rational inputs, and one on forced
    witnesses must be finite."""
    forced = _propagate_definitions(fm.And(tuple(lits)), sigma, set(unknown))
    # a row holds Fractions, and no Fraction reads inf or nan
    if not all(map(math.isfinite, (*sigma.x, *sigma.a, *forced.values()))):
        return "unknown", None
    rem_idx = sorted(unknown - set(forced))
    rem = {fm.Var("w", i): j for j, i in enumerate(rem_idx)}
    base = sigma.with_w(_witness_vector(size, forced, rem_idx))
    rows = []
    for lit in lits:
        # after NNF a Not wraps only an exp-graph atom
        at = lit.body if isinstance(lit, fm.Not) else lit
        names = set(fm.atom_vars(at))
        if rem.keys().isdisjoint(names):
            m = _violation(lit, base)
            if m > FLOAT_TOL and (
                    m < math.inf if any(v.block == "w" for v in names)
                    else _exactly_false(lit, inputs)):
                return "unsat", None
            continue
        # an exp atom on a remaining witness is beyond the linear fragment:
        # affine without exp reads it as no row
        row = _atom_row(at, rem, base.lookup)
        if row is None:
            return "unknown", None
        rows.append(row)
    point = _strict_feasible_point(rows, len(rem_idx)) if rows else \
        (0,) * len(rem_idx)  # the simplex's point when there are no rows
    if point is None:
        return "unsat", None
    return "feasible", _witness_vector(size, forced, rem_idx, point)


def _walk(matrix: fm.Formula, body: fm.Formula, sigma: Assignment,
          inputs: tuple, unknown: set, size: int):
    """Decide the matrix by a depth-first walk over the disjunct choices of
    its NNF body (DPLL(T): Nieuwenhuis, Oliveras & Tinelli, JACM 2006).  A
    path holds its conjuncts to visit (the next last), its literals and
    their count at its last fork (inf before the first): an And pushes its
    parts, a literal joins the literals, an Or forks in order.  _decide
    reads each leaf and prunes each fork reached with new literals that it
    reads unsat.  The first leaf point that passes the matrix is the
    witness, all leaves unsat a refutation; None when one is unknown or
    past SOLVE_BUDGET reads."""
    budget, complete = SOLVE_BUDGET, True
    stack = [((body,), (), math.inf)]
    while stack:
        todo, lits, at_fork = stack.pop()
        while todo and not isinstance(todo[-1], fm.Or):
            g, todo = todo[-1], todo[:-1]
            if isinstance(g, fm.And):
                todo += g.parts[::-1]
            else:
                lits += (g,)
        if not todo or len(lits) > at_fork:
            budget -= 1
            if budget < 0:
                return None
            status, wv = _decide(lits, sigma, inputs, unknown, size)
            if status == "unsat":
                continue
            if not todo:
                res = wv and _accept(matrix, sigma, wv)
                if res and res.found:
                    return res
                complete = False
                continue
        stack.extend((todo[:-1] + (p,), lits, len(lits))
                     for p in reversed(todo[-1].parts))
    return WitnessResult(False) if complete else None


def _nelder_mead(read: Callable, start: Sequence) -> tuple:
    """(best vertex, its value) of scipy 1.17's Nelder-Mead on read from
    start (not adaptive, unbounded, REFINE_STEPS iterations counted from 1,
    xatol 1e-12, fatol 1e-15; Lagarias et al., SIAM J. Optim. 1998), its
    float operations made in scipy's order on lists of floats, so its
    iterates are scipy's bit for bit.  np.argsort orders the vertices, as in
    scipy: it is not stable, and tied margins are common."""
    from numpy import array
    x0 = [float(v) for v in start]
    n, sim = len(x0), [x0]
    for k, v in enumerate(x0):
        y = (1 + 0.05) * v if v != 0 else 0.00025
        sim.append([*x0[:k], y, *x0[k + 1:]])
    fsim = [read(v) for v in sim]
    # scipy sorts the first simplex twice, then once after every step
    for step in range(-1, REFINE_STEPS):
        order = array(fsim).argsort().tolist()
        sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
        if step < 0:
            continue
        best, f0, worst = sim[0], fsim[0], sim[-1]
        # scipy tests the vertices first; the margins are cheaper to test
        if step == REFINE_STEPS - 1 or (
                all(abs(f0 - f) <= 1e-15 for f in fsim[1:]) and
                all(abs(u - v) <= 1e-12 for x in sim[1:]
                    for u, v in zip(x, best))):
            break
        # the centroid of all but the worst vertex, summed left to right
        bar = [functools.reduce(operator.add, c) / n for c in zip(*sim[:-1])]
        xr = [2 * c - w for c, w in zip(bar, worst)]
        fxr = read(xr)
        if fxr < f0:  # expand
            xe = [3 * c - 2 * w for c, w in zip(bar, worst)]
            fxe = read(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:  # reflect
            sim[-1], fsim[-1] = xr, fxr
        else:  # contract outside when xr beats the worst vertex, else inside
            outside = fxr < fsim[-1]
            xc = [1.5 * c - 0.5 * w if outside else 0.5 * c + 0.5 * w
                  for c, w in zip(bar, worst)]
            fxc = read(xc)
            if fxc <= fxr if outside else fxc < fsim[-1]:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = [b + 0.5 * (v - b) for b, v in zip(best, sim[j])]
                    fsim[j] = read(sim[j])
    return sim[0], fsim[0]


def witness_search(f: fm.Formula, x_vals: Sequence,
                   a_vals: Sequence) -> WitnessResult:
    """Search for witnesses of an existential formula at (x, a).

    Layered: the exact walk decides the linear fragment (definitions
    propagated, the rest by the rational simplex); otherwise the free
    witnesses are searched on a grid with random restarts and Nelder-Mead
    refinement of the max-violation margin, every point read by one call
    of the kernel that _margin emits for this query, its compiled code
    shared with the queries on the same matrix and free witnesses.  A
    returned witness always re-verifies under the float eval_qf of the
    matrix as given, not of its NNF (soundness); a not_found with margin
    None is an exact refutation, one with a margin is inconclusive.
    """
    frag = fm.classify_fragment(f)
    if frag == fm.GENERAL:
        raise SolveError("witness_search requires an existential formula")
    indices, matrix = fm.split_exists(f)
    inputs = (tuple(x_vals), tuple(a_vals))
    sigma0 = Assignment(*(tuple(map(_float, v)) for v in inputs))
    # the NNF body gives the walk its forks and the definitions; a witness
    # is accepted on the matrix, where a negated = or <= fails at equality
    body = _nnf(matrix)
    if not indices:
        res = _accept(matrix, sigma0, ())
        return res if res.found or not _exactly_false(matrix, inputs) else \
            WitnessResult(False)
    size = max(indices) + 1
    unknown = set(indices)

    res = _walk(matrix, body, sigma0, inputs, unknown, size)
    if res is not None:
        return res

    forced = _propagate_definitions(body, sigma0, unknown)
    free = sorted(unknown - set(forced))

    def vector(vec) -> tuple:
        return _witness_vector(size, forced, free, vec)

    if not free:
        return _accept(matrix, sigma0, vector(()))
    # x, a and the forced witnesses are fixed from here on: every grid
    # point, restart and Nelder-Mead step reads one specialized margin
    read = _margin(matrix, sigma0.with_w(vector(())),
                   {fm.Var("w", i): k for k, i in enumerate(free)})
    margin = read if callable(read) else lambda w: read

    import numpy as np  # here, so that exact commands never load it
    lo, hi = SEARCH_BOX
    candidates = []
    # seed with the input coordinates cycled across the free slots: for
    # strategic transforms the witness block is a nearby point, and staying
    # put is often already feasible
    pool = [*sigma0.x, *sigma0.a] or [0.0]
    candidates.append(tuple(pool[i % len(pool)] for i in range(len(free))))
    if SEARCH_GRID ** len(free) <= 4096:
        axis = np.linspace(float(lo), float(hi), SEARCH_GRID).tolist()
        candidates.extend(itertools.product(axis, repeat=len(free)))
    rng = np.random.default_rng(0)
    for _ in range(SEARCH_RESTARTS):
        candidates.append(tuple(rng.uniform(lo, hi) for _ in free))

    scored = []
    for cand in candidates:
        mval = margin(cand)
        if mval <= FLOAT_TOL:
            return WitnessResult(True, vector(cand), mval)
        scored.append((mval, cand))
    scored.sort(key=lambda t: t[0])
    best_m = scored[0][0]
    # local refinement from the most promising starts
    for mval, cand in scored[:4]:
        if mval == math.inf:
            break  # Nelder-Mead would read inf - inf from here on
        point, fun = _nelder_mead(margin, cand)
        best_m = min(best_m, fun)
        if fun <= FLOAT_TOL:
            out = _accept(matrix, sigma0, vector(point))
            if out.found:
                return out
    return WitnessResult(False, None, best_m)
