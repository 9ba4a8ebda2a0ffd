"""Deciding and approximating formula semantics.

Terms are read by one fold over the term grammar (variables, rational
constants, +, *, exp), ``formula.eval_term``: it values a term in floats,
Fractions or certified ``RatInterval`` enclosures, or reads it as a
polynomial, a ``_Poly`` (the value of a formula, with its relation table
``_compare`` and Boolean fold ``_fold``, is defined in
:mod:`stratdef.formula` and imported here).  The float reading of a
rational beyond float range is +-inf.  The margin emitter ``_margin``
reads a formula as a float, or writes it once as a kernel of two
straight-line functions, one of the inputs and one of the searched
witnesses.  Four layers, from exact to heuristic, use them:

* ``eval_qf`` -- quantifier-free evaluation, exactly or as a float margin:
  exact rational (no tolerance; exp handled by certified enclosure
  refinement, an exp-graph atom u = exp(v) being a comparison like any
  other), or as the float witness-search margin: a
  formula holds when its ``_violation`` is at most ``FLOAT_TOL``, one
  absolute tolerance for every atom.  ``families`` reads formulas
  elementwise on float arrays through ``formula``'s fold alone, and loads
  this module only for exact rational input and the earth-mover cost.
* ``fm_eliminate`` -- exact Fourier-Motzkin projection for linear systems,
  the linear fragment of one-block quantifier elimination.  Rows are
  pruned to primitive integer coefficient tuples with a Fraction rhs, each
  with its history (the input inequalities it was combined from), and
  pairing skips the pairs that Chernikov's history rule proves redundant
  (Chernikov 1965; Imbert's first acceleration theorem, PPCP 1993).  The
  output defines the exact projection; ``is_trivially_infeasible`` reports
  a contradiction row in it, so True proves the input empty and False
  proves nothing.
* ``lp_solve`` -- exact rational simplex with Bland's rule over v >= 0.
* ``witness_search`` -- numerical instantiation of existential quantifiers:
  ``_walk`` goes depth first over the disjunct choices, every literal on a
  witness, definitions included, a row of ``lp_solve``, and prunes a prefix
  whose rows are infeasible, in at most ``SOLVE_BUDGET`` exact reads; the
  rest go to a fixed search over the base witnesses alone, those no
  definition fixes, chosen once per body by ``_completion`` (for a
  strategic transform, the target point less any coordinate a definition
  fixes): ``SEARCH_GRID`` points per axis of ``SEARCH_BOX``,
  ``SEARCH_RESTARTS`` seeded random starts, both made once per dimension
  by ``_starts``, and ``REFINE_STEPS`` steps of scipy's Nelder-Mead, a
  loop that ``_loop`` emits once per dimension, its vertices tuples sorted
  stably by margin and its trial points tuple displays, so that it answers
  alike on every CPU.  Everything that does not read the query's x and a
  is prepared once per formula: by ``_prepared`` the NNF body, a row
  template per literal and the margin kernel over every witness that
  accepts a point, and by ``_search_kernel``, when a query first gets past
  the walk, the base and the margin kernel that completes every other
  witness from its definition (an exp graph read either way, an equality
  affine in it; ``_complete`` plans where each is read) for the search.
  A query only binds its inputs: it evaluates the templates it needs at
  the rational inputs, and each kernel's prologue folds the subterms on x
  and a once.  Sound when it reports a witness
  (its margin on the formula as given, not on its NNF, is within
  ``FLOAT_TOL``, so it re-verifies under the float eval_qf); a not_found is a
  refutation without a margin, which rests only on exact readings of the
  inputs as given, not their floats: simplex rows, and witness-free literals
  that read False exactly (see ``_decide``).

The exact linear layers share one row layer: ``LinConstraint`` is the only
row (Fourier-Motzkin rows carry their history in it, and the simplex reads
the same rows), ``formula._compare`` the only relation table,
``_oriented`` the only normalization of >= and > (``LinConstraint.make``
applies it to values, ``_template`` once per atom to polynomials in the
inputs), ``_template`` the one reading of an atom as a row, through the
value fold into a ``_Poly`` (witness search evaluates each prepared
template at the rational inputs with ``_row``, into ints and Fractions),
``_combine`` the only row combination (FM substitution and pairing),
``_prune`` the only normalization and pruning of FM rows, ``_integer_row``
the only reading of rows or values as integers over one denominator, and
``_pivot`` and ``_price`` the only tableau pivot and objective pricing of
the simplex.  Both apply ``_eliminate`` to rows of integers over one
denominator, so Bland's rule picks the pivots a tableau of Fractions
would.  The simplex reads a row at the scale it is given, pricing its
phase-1 artificial at that scale, so rescaling a row can change Bland's
phase-1 path and the vertex it returns.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import re
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from . import VerificationFailure, formula as fm
from .formula import (_RELATIONS, Assignment, _compare, _fold, _require_qf,
                      eval_term, merge)
from .intervals import (DEFAULT_MAX_BITS, RatInterval, UndecidedComparison,
                        certified_sign, exp_interval)
# unused here: perfbench/spans.py patches this name on this module, and a
# traced benchmark round fails when it is missing
from .intervals import exp_enclosure

FLOAT_TOL = 1e-9
# witness search: the most exact reads (forks and leaves) of the walk, the
# box every base witness is searched in, grid points per axis, seeded
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
# Term evaluation: formula's value fold in floats


def eval_term_float(t: fm.Term, sigma: Assignment) -> float:
    return eval_term(t, sigma, _float, _safe_exp)


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
_KERNEL_GLOBALS = {"inf": math.inf, "zero": 0.0, "nan": math.nan,
                   "log": math.log}


@functools.cache
def _inline(source: str, arity: int) -> Callable:
    """A kernel source of {0}..{arity-1} as a function of values, which the
    margin emitter calls where every argument is one, compiled on first
    use: at import it would grow the memory of every command."""
    names = [f"a{k}" for k in range(arity)]
    return eval(f"lambda {', '.join(names)}: " + source.format(*names),
                dict(_KERNEL_GLOBALS))


def _not_margin(m: float) -> float:
    return 0.0 if m > FLOAT_TOL else 1.0


# the sources of a completed witness (see _Define) from its num {0} and den
# {1}, and of its margin term from its value {0}
_DEFINE = {"log": "log({0}) if {0} > zero else nan",
           "quotient": "{0} / {1} if {1} else nan"}
_DEFINED_MARGIN = "zero if {0} == {0} else inf"


def _margin(f: fm.Formula, free: dict, size: Optional[int] = None,
            sigma: Optional[Assignment] = None):
    """The margin of f (see _violation): with sigma, its float there (f
    reading no free witness); else bind(x, a, w=()), a kernel emitted and
    compiled once.  bind runs the prologue, every operation on the value
    blocks alone (w holding any witness that is not free), once per query,
    and returns read(w), the operations on the free witnesses at a list w
    of their values, free mapping each free witness Var to its position
    there.  Operations on constants alone are folded here.  Both are
    straight-line code, a statement per operation in _violation's order,
    so read returns _violation's bits at every point: a margin is never
    nan, -0.0 or negative, so an And or Or may take its prologue parts
    before its read parts.  The source holds only generated names,
    positions in the blocks and fixed operators: every folded float and
    every helper it calls is one of its globals.

    With size, f is a completion plan (see _complete) over the witnesses
    0..size-1, free its base: each _Define part assigns its witness, which
    adds no margin term but inf when the value is nan, and after an Or the
    witnesses every branch assigned are taken from the first branch of
    least margin.  read(w, True) is then (margin, the witness vector: base
    values, completed ones, 0.0 for the rest)."""
    pro, lines, env, inputs = [], [], dict(_KERNEL_GLOBALS), {}
    known = {v: f"w[{k}]" for v, k in free.items()}

    def name(v) -> str:
        """v when it is source, else the name of a new global holding v."""
        if isinstance(v, str):
            return v
        env[f"g{len(env)}"] = v
        return f"g{len(env) - 1}"

    def put(fn, *args, source=None):
        """fn(*args) now when every argument is a value, else the name of a
        new statement, in read when an argument is (p for prologue, v for
        read): source formatted with their names, or a call of fn.  Without
        fn, source is also read as the function of values."""
        if not any(isinstance(v, str) for v in args):
            return (fn or _inline(source, len(args)))(*args)
        stage = "v" if any(isinstance(v, str) and v[0] in "vw"
                           for v in args) else "p"
        out = lines if stage == "v" else pro
        args = list(map(name, args))
        out.append(f"{stage}{len(out)} = " + (
            source.format(*args) if source
            else f"{name(fn)}({', '.join(args)})"))
        return f"{stage}{len(out) - 1}"

    def term(t: fm.Term, known: dict):
        if sigma is not None:
            return eval_term_float(t, sigma)
        kind = type(t)
        if kind is fm.Const:
            return _float(t.value)
        if kind is fm.Var:
            if t in known:
                return known[t]
            if t not in inputs:
                inputs[t] = f"p{len(pro)}"
                pro.append(f"p{len(pro)} = {t.block}[{t.index}]")
            return inputs[t]
        if kind is fm.Exp:
            return put(_safe_exp, term(t.arg, known))
        op, source = (operator.add, "{} + {}") if kind is fm.Sum else \
            (operator.mul, "{} * {}")
        return functools.reduce(
            lambda u, v: put(op, u, v, source=source),
            (term(s, known) for s in (t.terms if kind is fm.Sum else
                                      t.factors)))

    def margin(g, known: dict):
        if isinstance(g, fm.Compare):
            d = put(operator.sub, term(g.lhs, known), term(g.rhs, known),
                    source="{} - {}")
            return put(None, d, source=_ATOM_SOURCE[g.rel])
        if isinstance(g, _Define):
            v = term(g.num, known)
            if g.how in _DEFINE:
                v = put(None, v, *([term(g.den, known)] if g.den else []),
                        source=_DEFINE[g.how])
            known[g.var] = v
            return put(None, v, source=_DEFINED_MARGIN) \
                if g.how in _DEFINE else 0.0
        if isinstance(g, fm.Not):
            return put(_not_margin, margin(g.body, known))
        if not isinstance(g, (fm.And, fm.Or)):
            raise SolveError("quantifier inside a quantifier-free reading")
        conj = isinstance(g, fm.And)
        # an Or's branches complete witnesses each for itself
        scopes = [known if conj or size is None else dict(known)
                  for _ in g.parts]
        parts = [margin(p, s) for p, s in zip(g.parts, scopes)]
        pick = max if conj else min
        # a margin is never nan, -0.0 or negative, so max and min read
        # margins in any order, starting from 0.0 and inf respectively
        out = pick((p for p in parts if not isinstance(p, str)),
                   default=0.0 if conj else math.inf if parts else 1.0)
        for stage in "pv":
            reads = [p for p in parts if isinstance(p, str) and p[0] == stage]
            if reads:
                out = put(pick, out, *reads)
        if not conj and size is not None and scopes:
            # branch i's margin and value are arguments 2i+1 and 2i+2
            k = len(scopes)
            first_least = "".join(f"{{{2 * i + 2}}} if {{{2 * i + 1}}} == "
                                  "{0} else " for i in range(k - 1)) + \
                f"{{{2 * k}}}"
            for v in sorted(set.intersection(*(s.keys() - known.keys()
                                               for s in scopes)),
                            key=lambda v: v.index):
                known[v] = put(None, out, *(u for m, s in zip(parts, scopes)
                                            for u in (m, s[v])),
                               source=first_least)
        return out

    out = margin(f, known)
    if sigma is not None:
        return out
    out = name(out)
    tail = [f"return {out}"]
    if size is not None:
        vector = "".join(name(known.get(fm.Var("w", i), 0.0)) + ", "
                         for i in range(size))
        tail[:0] = [f"if full:\n            return {out}, ({vector})"]
    source = "def bind(x, a, w=()):\n" + "".join(
        f"    {l}\n" for l in pro) + \
        f"    def read(w{'' if size is None else ', full=False'}):\n" + \
        "".join(f"        {l}\n" for l in lines + tail) + "    return read\n"
    exec(compile(source, "<margin>", "exec"), env)
    return env["bind"]


def _violation(f: fm.Formula, sigma: Assignment) -> float:
    """The float reading of a quantifier-free formula: a margin that is 0
    when f holds exactly, f holding when it is at most FLOAT_TOL.  An atom
    reads the difference d of its sides, each side folded by
    eval_term_float: |d| for =, max(0, d) for < and <=, max(0, -d) for >
    and >=, inf for a nan d (inf - inf).  And takes the largest margin (0
    for no parts), Or the smallest (1 for no parts), and Not reads 0 when
    its body's margin exceeds FLOAT_TOL and 1 otherwise.  Witness search
    reads the same margin through the kernels _margin emits once per
    formula."""
    return _margin(f, {}, sigma=sigma)


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


def _integer_row(values: Sequence) -> tuple:
    """(nums, den): ints or Fractions as integers over the lcm den of their
    denominators, each value nums[i] / den."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


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
        return LinConstraint(*_oriented(map(Fraction, coeffs), rel,
                                        Fraction(rhs)))


def _oriented(coeffs, rel: str, rhs) -> tuple:
    """(coeffs, rel, rhs) of coeffs . v (rel) rhs, with >= and > turned into
    <= and < by negating both sides."""
    if rel in (">=", ">"):
        return tuple(-c for c in coeffs), rel.replace(">", "<"), -rhs
    return tuple(coeffs), rel, rhs


class LinearSystem(NamedTuple):
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


class _Poly(dict):
    """A polynomial over the term variables: {monomial: coefficient}, a
    monomial a tuple of Vars sorted by key.  formula's value fold reads a
    term as one with the class itself as the assignment: `lookup` lifts
    each variable to its own monomial, `lift` each constant to a constant
    polynomial."""

    __slots__ = ()

    @staticmethod
    def lookup(v: fm.Var) -> "_Poly":
        return _Poly({(v,): 1})

    @staticmethod
    def lift(v) -> "_Poly":
        return v if type(v) is _Poly else _Poly({(): v})

    def __add__(self, other):
        out = _Poly(self)
        for m, c in other.items():
            out[m] = out.get(m, 0) + c
        return out

    def __neg__(self):
        return _Poly({m: -c for m, c in self.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        out = _Poly()
        for (m, c), (n, d) in itertools.product(self.items(), other.items()):
            m = tuple(sorted(m + n, key=operator.attrgetter("_key")))
            out[m] = out.get(m, 0) + c * d
        return out


def _template(at: fm.Compare, unknown: dict) -> Optional[tuple]:
    """The row template of an atom over the unknowns, unknown mapping each
    unknown Var to its column: (coefficients, rel, rhs) with >= and >
    already negated, each coefficient and rhs a tuple of terms (c, vars), c
    a nonzero int or Fraction.  The one reading of an atom as a row: the
    value fold reads lhs - rhs as a _Poly, whose monomials with no unknown
    factor go to the rhs and those with one to that unknown's coefficient.
    None when a side has an exp, or a monomial of nonzero coefficient two
    unknown factors."""
    if fm.term_has_exp(at.lhs) or fm.term_has_exp(at.rhs):
        return None
    diff = eval_term(at.lhs, _Poly, _Poly.lift, None) - \
        eval_term(at.rhs, _Poly, _Poly.lift, None)
    coeffs, rhs = [_Poly() for _ in unknown], _Poly()
    for m, c in diff.items():
        if not c:
            continue
        hits = [k for k, v in enumerate(m) if v in unknown]
        if len(hits) > 1:
            return None
        if hits:
            k = hits[0]
            coeffs[unknown[m[k]]][m[:k] + m[k + 1:]] = c
        else:
            rhs[m] = -c
    coeffs, rel, rhs = _oriented(coeffs, at.rel, rhs)

    def terms(p: _Poly) -> tuple:
        return tuple((c.numerator if c.denominator == 1 else c, m)
                     for m, c in p.items())
    return tuple(map(terms, coeffs)), rel, terms(rhs)


def _value(terms: tuple, value: Callable):
    """The sum of a template's terms with value(v) for each variable v: an
    int, or a Fraction built only where a term multiplies or adds one."""
    out = 0
    for c, vs in terms:
        for v in vs:
            c = value(v) if c == 1 else c * value(v)
        out = out + c if out else c
    return out


def _row(template: tuple, value: Callable) -> LinConstraint:
    """The row of a template (see _template) at value."""
    coeffs, rel, rhs = template
    return LinConstraint(tuple(_value(c, value) for c in coeffs), rel,
                         _value(rhs, value))


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
    return LinConstraint(coeffs, rel,
                         rhs if any(coeffs) else Fraction(rhs, m),
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
            ints, den = _integer_row(co)
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
    return LinearSystem(tuple(sys.variables[i] for i in keep), _prune(out),
                        tuple(steps))


# ---------------------------------------------------------------------------
# Exact rational LP (simplex, Bland's rule)


class LPResult(NamedTuple):
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
        # Bland: of the rows of least ratio t[-1] / t[enter], compared by
        # cross-multiplying, the one whose basic variable is the smallest
        best = u = None
        for i, (t, _) in enumerate(tableau[:m]):
            if t[enter] > 0 and (u is None or (t[-1] * u[enter], basis[i]) <
                                 (u[-1] * t[enter], basis[best])):
                best, u = i, t
        if u is None:
            return "unbounded"
        _pivot(tableau, basis, best, enter)


def lp_solve(objective: Sequence, rows: Sequence[LinConstraint]) -> LPResult:
    """Exact rational optimum via two-phase simplex with Bland's rule:
    minimize objective . v over v >= 0 subject to rows, each with relation
    <= or =, of ints or Fractions.  The objective is read as Fractions; a
    row becomes, at its given scale, a tableau row of integers over one
    positive denominator (fraction-free, as in Bareiss, Math. Comp. 1968)."""
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
        ints, den = _integer_row([*r.coeffs, r.rhs])
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
        _integer_row([*objective, *[0] * (slack_count + m + 1)]),
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


class WitnessResult(NamedTuple):
    found: bool
    witness: Optional[tuple] = None
    margin: Optional[float] = None


def _nnf(f: fm.Formula, positive: bool = True) -> fm.Formula:
    if isinstance(f, fm.Compare):
        if positive:
            return f
        flip = {"<": ">=", "<=": ">", "=": None, ">=": "<", ">": "<="}[f.rel]
        if flip is None:
            return fm.Or((fm.Compare(f.lhs, "<", f.rhs),
                          fm.Compare(f.lhs, ">", f.rhs)))
        return fm.Compare(f.lhs, flip, f.rhs)
    if isinstance(f, fm.Not):
        return _nnf(f.body, not positive)
    if isinstance(f, (fm.And, fm.Or)):
        conj = isinstance(f, fm.And) == positive  # negation swaps them
        return (fm.And if conj else fm.Or)(
            tuple(_nnf(p, positive) for p in f.parts))
    raise SolveError("quantifier inside witness-search body")


class _Define(NamedTuple):
    """A literal of a completion plan read as the definition of its one
    unresolved witness var: var = num ('term'), num / den ('quotient', nan
    where den is 0) or log(num) ('log', nan where num <= 0)."""

    var: fm.Var
    num: fm.Term
    den: Optional[fm.Term]
    how: str


_ONE = fm.const(1)


def _add(terms: list):
    """The sum of terms, _ONE standing for 1 and None (no terms) for 0."""
    return fm.add(*terms) if terms else None


def _minus(u, v):
    """u - v for terms, each None for 0."""
    return u if v is None else fm.neg(v) if u is None else fm.sub(u, v)


def _linear(t: fm.Term, var: fm.Var):
    """(c, k) with t = c*var + k, each a term or None for 0 (c is _ONE where
    var stands alone), read off structurally; None when t is not affine in
    var: var under exp, or in two factors of a product.  c and k keep t's
    term structure, not a _Poly's expanded monomials, since they fix the
    float operations of the margin kernel that completes var."""
    if var not in fm.term_vars(t):
        return None, t
    kind = type(t)
    if kind is fm.Var:
        return _ONE, None
    if kind is fm.Exp:
        return None
    parts = [_linear(s, var) for s in (t.terms if kind is fm.Sum else
                                       t.factors)]
    if None in parts:
        return None
    if kind is fm.Sum:
        return (_add([c for c, _ in parts if c is not None]),
                _add([k for _, k in parts if k is not None]))
    hits = [i for i, (c, _) in enumerate(parts) if c is not None]
    if len(hits) > 1:
        return None  # var in two factors
    (c, k), rest = parts[hits[0]], [k for c, k in parts if c is None]
    return (fm.mul(*rest) if c is _ONE and rest else fm.mul(c, *rest),
            k and fm.mul(k, *rest))


def _definition(lit: fm.Compare, resolved) -> Optional[_Define]:
    """The definition an equality gives of its one witness outside
    resolved: an exp graph u = exp(v) read either way (exp or log), or an
    equality affine in that witness, solved as w = -k/c."""
    if lit.rel != "=":
        return None
    pending = {v for v in fm.atom_vars(lit) if v.block == "w"} - resolved
    if len(pending) != 1:
        return None
    (var,) = pending
    graph = fm.exp_graph(lit)
    if graph and graph[1] == var != graph[0]:
        return _Define(var, graph[0], None, "log")
    left, right = _linear(lit.lhs, var), _linear(lit.rhs, var)
    if left is None or right is None:
        return None
    c, k = _minus(left[0], right[0]), _minus(right[1], left[1]) or \
        fm.const(0)
    if c is None:
        return None
    return _Define(var, k, None, "term") if c is _ONE else \
        _Define(var, k, c, "quotient")


def _complete(g: fm.Formula, resolved: frozenset, memo: dict) -> tuple:
    """(plan, defined, missing) of an NNF formula g when the witnesses in
    resolved have values: plan is g with nested Ands inlined, an And's one
    Or of literals that may define a witness distributed over the And, and
    an And's definitions (_Define) and the Ors that define witnesses each
    read as soon as what it reads is resolved, the rest after; defined the
    witnesses it resolves (an Or those every branch resolves), and missing
    those it reads before they are resolved.  memo holds each plan by node
    and resolved set (and the node, so its id stays unique)."""
    key = id(g), resolved
    if key not in memo:
        if isinstance(g, fm.Or):
            outs = [_complete(p, resolved, memo) for p in g.parts]
            memo[key] = g, (fm.Or(tuple(p for p, _, _ in outs)),
                            frozenset.intersection(*(d for _, d, _ in outs))
                            if outs else frozenset(),
                            frozenset().union(*(m for *_, m in outs)))
        else:
            memo[key] = g, _complete_and(
                g.parts if isinstance(g, fm.And) else (g,), resolved, memo)
    return memo[key][1]


def _complete_and(parts: Sequence, resolved: frozenset, memo: dict) -> tuple:
    """_complete of the conjunction of parts."""
    flat, stack = [], list(reversed(parts))
    while stack:
        p = stack.pop()
        if isinstance(p, fm.And):
            stack.extend(reversed(p.parts))
        else:
            flat.append(p)
    choices = [k for k, p in enumerate(flat) if isinstance(p, fm.Or) and all(
        isinstance(q, fm.Compare) for q in p.parts) and any(
        q.rel == "=" and any(v.block == "w" and v not in resolved
                             for v in fm.atom_vars(q)) for q in p.parts)]
    if len(choices) == 1:
        k = choices[0]
        return _complete(fm.Or(tuple(fm.And((*flat[:k], q, *flat[k + 1:]))
                                     for q in flat[k].parts)), resolved, memo)
    known, order, rest, progress = set(resolved), [], flat, True
    while progress:
        progress, later = False, []
        for p in rest:
            if isinstance(p, fm.Compare):
                step = _definition(p, known)
                new = step and {step.var}
            else:
                step, new, missing = _complete(p, frozenset(known), memo)
                new = not missing and new
            if new:
                order.append(step)
                known |= new
                progress = True
            else:
                later.append(p)
        rest = later
    missing = set()
    for p in rest:
        if isinstance(p, fm.Compare):
            order.append(p)
            missing |= {v for v in fm.atom_vars(p) if v.block == "w"} - known
        else:
            step, new, m = _complete(p, frozenset(known), memo)
            order.append(step)
            known |= new
            missing |= m
    return fm.And(tuple(order)), frozenset(known - resolved), \
        frozenset(missing)


def _completion(matrix: fm.Formula, indices: tuple) -> tuple:
    """(base, plan) of a matrix over the witnesses indices: the base, the
    witnesses witness search searches, grows from none by the
    highest-index witness not yet resolved until the plan of the NNF body
    (_complete) resolves every other one before it is read.  A matrix
    without definitions keeps every witness in the base and is its own
    plan."""
    body, ws = _nnf(matrix), sorted({fm.Var("w", i) for i in indices},
                                     key=lambda v: v.index)
    base = set()
    while True:
        plan, defined, missing = _complete(body, frozenset(base), {})
        pending = [v for v in ws
                   if v not in base and (v not in defined or v in missing)]
        if not pending:
            break
        base.add(pending[-1])
    return tuple(v.index for v in ws if v in base), \
        matrix if len(base) == len(ws) else plan


def _strict_feasible_point(rows: Sequence[LinConstraint], n_rem: int):
    """Exact feasibility of linear rows over unbounded unknowns.

    Unknowns are split v = p - q with p, q >= 0; strict rows get a shared
    slack t that is maximized, so strict feasibility is certified by t > 0.
    Returns a tuple of Fractions, or None when the system has no solution.
    """
    t_col = 2 * n_rem
    # v_j is column 2j minus column 2j + 1, and t is the last column
    lp_rows = [LinConstraint((*(w for v in c.coeffs for w in (v, -v)),
                              1 if c.rel == "<" else 0),
                             "=" if c.rel == "=" else "<=", c.rhs)
               for c in rows]
    # maximize t (minimize -t) subject to t <= 1
    unit = (0,) * t_col + (1,)
    lp_rows.append(LinConstraint(unit, "<=", 1))
    res = lp_solve([-v for v in unit], lp_rows)
    if res.status != "optimal" or res.point[t_col] == 0 and any(
            c.rel == "<" for c in rows):
        return None
    return tuple(res.point[2 * j] - res.point[2 * j + 1]
                 for j in range(n_rem))


def _witness_vector(size: int, values: dict) -> tuple:
    """Float witness vector: values at their indices, 0.0 elsewhere."""
    return tuple(_float(values.get(i, 0.0)) for i in range(size))


class _Prepared(NamedTuple):
    """What witness search reads of an existential formula that does not
    depend on the query (see _prepared)."""

    matrix: fm.Formula
    body: fm.Formula  # the NNF of the matrix
    idx: list  # the witness indices, sorted: the simplex's columns
    size: int
    cover: tuple  # the x and a values the matrix reads
    rows: dict  # by id of a body literal: True, a row template or None
    accept: Callable  # the kernel (bind) of the matrix over every witness


@functools.lru_cache(maxsize=16)
def _prepared(f: fm.Formula) -> _Prepared:
    """Witness search's reading of f, once per formula: its NNF body, each
    body literal's reading (True on no witness, else its row template over
    the witness columns, None when it has none), and the margin kernel over
    every witness that accepts a point."""
    if fm.classify_fragment(f) == fm.GENERAL:
        raise SolveError("witness_search requires an existential formula")
    indices, matrix = fm.split_exists(f)
    body, idx = _nnf(matrix), sorted(set(indices))
    cols = {fm.Var("w", i): j for j, i in enumerate(idx)}
    size = max(idx, default=-1) + 1
    return _Prepared(
        matrix, body, idx, size,
        tuple(fm.max_index(matrix, b) + 1 for b in "xa"),
        {id(lit): cols.keys().isdisjoint(fm.atom_vars(lit)) or
         _template(lit, cols) for lit in fm.formula_atoms(body)},
        _margin(matrix, {fm.Var("w", i): i for i in range(size)}))


@functools.lru_cache(maxsize=16)
def _search_kernel(f: fm.Formula) -> tuple:
    """(base, kernel) of the search over f, once per formula and only once
    a query gets past the exact walk: the base of _completion and the
    margin kernel of its plan over the base."""
    prep = _prepared(f)
    base, plan = _completion(prep.matrix, tuple(prep.idx))
    return base, _margin(plan, {fm.Var("w", i): k
                                for k, i in enumerate(base)}, prep.size)


def _exactly_false(f: fm.Formula, exact: Optional[Assignment]) -> bool:
    """Whether the quantifier-free f, which reads no witness, is False
    under the exact eval_qf at the rational inputs exact (None when one is
    inf or nan): not when they are None or a comparison is undecided."""
    if exact is None:
        return False
    try:
        return not _fold(f, lambda at: _exact_atom(at, exact,
                                                   DEFAULT_MAX_BITS))
    except UndecidedComparison:
        return False


def _decide(lits: tuple, read: Callable, prep: _Prepared,
            exact: Optional[Assignment]):
    """The conjunction of NNF literals, in order: False (unsat) at a
    literal on no witness that reads False (by its float margin, and then
    exactly at the rational inputs exact) or when the rows of the other
    literals are infeasible for the rational simplex, None (unknown) at a
    literal with no row (an exp atom on a witness, a product of two) or
    any other when an input is inf or nan (exact is None), else the
    simplex's witness vector.  So no refutation rests on a float.  Which
    literals have rows is fixed per formula, so a leaf that reaches one
    with none reads only the literals on no witness before it; read(lit)
    is a literal's reading, its bool or row."""
    kinds = [prep.rows[id(lit)] for lit in lits]
    stop = next((k for k, t in enumerate(kinds) if t is None or
                 exact is None and t is not True), None)
    if any(t is True and not read(lit) for lit, t in zip(lits[:stop], kinds)):
        return False
    if stop is not None:
        return None
    point = _strict_feasible_point(
        [read(lit) for lit, t in zip(lits, kinds) if t is not True],
        len(prep.idx))
    if point is None:
        return False
    return _witness_vector(prep.size, dict(zip(prep.idx, point)))


def _walk(prep: _Prepared, sigma: Assignment, exact: Optional[Assignment],
          accept: Callable):
    """Decide the matrix by a depth-first walk over the disjunct choices of its
    NNF body (DPLL(T): Nieuwenhuis, Oliveras & Tinelli, JACM 2006).  A path
    holds its conjuncts to visit (the next last), its literals and their count
    at its last fork (inf before the first): an And pushes its parts, a literal
    joins the literals, an Or forks in order.  _decide reads each leaf and
    prunes each fork reached with new literals that it reads unsat, each
    literal read once, when first needed.  The first leaf point that accept
    passes is the witness, all leaves unsat a refutation; None when one is
    unknown (its literals are no rows) or past SOLVE_BUDGET reads."""
    readings = {}  # by id: the literals are the body's, alive throughout

    def read(lit: fm.Formula):
        if id(lit) not in readings:
            t = prep.rows[id(lit)]
            if t is True:
                readings[id(lit)] = _violation(lit, sigma) <= FLOAT_TOL or \
                    not _exactly_false(lit, exact)
            else:
                readings[id(lit)] = _row(t, exact.lookup)
        return readings[id(lit)]

    budget, complete = SOLVE_BUDGET, True
    stack = [((prep.body,), (), math.inf)]
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
            wv = _decide(lits, read, prep, exact)
            if wv is False:
                continue
            if not todo:
                res = wv and accept(wv)
                if res and res.found:
                    return res
                complete = False
                continue
        stack.extend((todo[:-1] + (p,), lits, len(lits))
                     for p in reversed(todo[-1].parts))
    return WitnessResult(False) if complete else None


def _by_margin(sim: list, fsim: list) -> tuple:
    """sim and fsim sorted by margin, stably: tied margins keep their
    order, so the order is the same on every CPU."""
    order = sorted(range(len(fsim)), key=fsim.__getitem__)
    return [sim[i] for i in order], [fsim[i] for i in order]


# the Nelder-Mead loop, emitted once per dimension n (see _loop): a group
# {...} is written once per coordinate 0..n-1, @ standing for it, so that
# a vertex is n locals and a trial point one tuple display
_LOOP = """\
def nelder_mead(read, sim, fsim):
    sim, fsim = by_margin(sim, fsim)
    for step in range(STEPS):
        f0 = fsim[0]
        # scipy tests the vertices first; the margins are cheaper, and of
        # sorted margins the last differs most from f0
        if step == STEPS - 1 or fsim[N] - f0 <= 1e-15 and all(
                abs(u - v) <= 1e-12
                for x in sim[1:] for u, v in zip(x, sim[0])):
            break
        # the centroid of all but the worst vertex, summed left to right
        {s@,} = sim[0]
        for {v@,} in sim[1:N]:
            {s@ += v@;}
        {c@ = s@ / N;}
        {w@,} = sim[N]
        xr = ({2.0 * c@ - w@,})
        fxr = read(xr)
        if fxr < f0:  # expand
            xe = ({3.0 * c@ - 2.0 * w@,})
            fxe = read(xe)
            x, fx = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[N - 1]:  # reflect
            x, fx = xr, fxr
        else:  # contract outside when xr beats the worst vertex, else inside
            outside = fxr < fsim[N]
            if outside:
                x = ({1.5 * c@ - 0.5 * w@,})
            else:
                x = ({0.5 * c@ + 0.5 * w@,})
            fx = read(x)
            if not (fx <= fxr if outside else fx < fsim[N]):
                # shrink towards the best vertex, then sort again
                {b@,} = sim[0]
                for j in range(1, N + 1):
                    {v@,} = sim[j]
                    sim[j] = x = ({b@ + 0.5 * (v@ - b@),})
                    fsim[j] = read(x)
                sim, fsim = by_margin(sim, fsim)
                continue
        # the new vertex replaces the worst, after the kept vertices of equal
        # margin, where a stable sort would place it
        i = bisect(fsim, fx, 0, N)
        del sim[N], fsim[N]
        sim.insert(i, x)
        fsim.insert(i, fx)
    return sim[0], fsim[0]
"""


@functools.lru_cache(maxsize=16)
def _loop(n: int) -> Callable:
    """_LOOP for n coordinates, compiled on first use; its code is named
    <nelder-mead-n>, and its source grows linearly in n."""
    source = re.sub(r"\{(.*?)\}", lambda m: " ".join(
        m[1].replace("@", str(k)) for k in range(n)), _LOOP)
    env = {"N": n, "STEPS": REFINE_STEPS, "by_margin": _by_margin,
           "bisect": bisect.bisect_right}
    exec(compile(source, f"<nelder-mead-{n}>", "exec"), env)
    return env["nelder_mead"]


def _nelder_mead(read: Callable, start: Sequence) -> tuple:
    """(best vertex, its value) of scipy 1.17's Nelder-Mead on read from
    start (not adaptive, unbounded, REFINE_STEPS iterations counted from 1,
    xatol 1e-12, fatol 1e-15; Lagarias et al., SIAM J. Optim. 1998), its
    float operations made in scipy's order by the loop _loop emits for
    len(start) coordinates, on vertices that are tuples of floats.  The
    vertices are sorted stably by margin: a step's new vertex is placed
    after the kept ones of equal margin, and the simplex is sorted in full
    once per shrink.  So the iterates are scipy's bit for bit wherever
    margins are distinct, and the same on every CPU where they tie.  read
    gets a tuple."""
    x0 = tuple(map(float, start))
    sim = [x0, *(x0[:k] + ((1 + 0.05) * v if v != 0 else 0.00025,) +
                 x0[k + 1:] for k, v in enumerate(x0))]
    return _loop(len(x0))(read, sim, [read(v) for v in sim])


@functools.lru_cache(maxsize=16)
def _starts(n: int) -> tuple:
    """The grid points (when there are at most 4096) and the
    SEARCH_RESTARTS seeded random starts of a search over n base
    witnesses, which depend on n alone."""
    import numpy as np
    lo, hi = SEARCH_BOX
    grid = ()
    if SEARCH_GRID ** n <= 4096:
        axis = np.linspace(float(lo), float(hi), SEARCH_GRID).tolist()
        grid = itertools.product(axis, repeat=n)
    rng = np.random.default_rng(0)
    return (*grid, *(tuple(rng.uniform(lo, hi) for _ in range(n))
                     for _ in range(SEARCH_RESTARTS)))


def witness_search(f: fm.Formula, x_vals: Sequence,
                   a_vals: Sequence) -> WitnessResult:
    """Search for witnesses of an existential formula at (x, a).

    Layered: the exact walk decides the linear fragment, every literal on
    a witness, definitions included, a row of the rational simplex;
    otherwise only the base witnesses, those no definition fixes (for a
    strategic transform the target point, less any coordinate a definition
    such as sum(y) = 1 fixes), are searched, from the inputs as the target
    point, on a grid with random restarts and with Nelder-Mead refinement
    of the max-violation margin.  All that does not read x and a is
    prepared once per formula: the NNF body, a row template per literal and
    the accept kernel by _prepared, and the base and search kernel by
    _search_kernel when a query first gets past the walk, each kernel
    emitted and compiled once.  A query binds its inputs: each template is
    evaluated at the rational inputs, and each kernel's prologue folds the
    subterms on x and a alone once.  Every point of the search is read by
    one call of the search kernel, which completes the other witnesses
    from their definitions (exp graphs read either way, equalities affine
    in their witness).  A returned witness always re-verifies under the
    float eval_qf of the matrix as given, not of its NNF (soundness), read
    by the accept kernel; a not_found with margin None is a refutation that
    rests only on exact readings, one with a margin is inconclusive, the
    margin of the matrix at the best completed point.
    """
    prep = _prepared(f)
    inputs = (tuple(x_vals), tuple(a_vals))
    for vals, n, block in zip(inputs, prep.cover, "xa"):
        if len(vals) < n:
            raise SolveError(f"assignment does not cover {block}{n - 1}")
    sigma0 = Assignment(*(tuple(map(_float, v)) for v in inputs))
    try:
        exact = merge(*(map(Fraction, v) for v in inputs))
    except (OverflowError, ValueError):  # an inf or nan input
        exact = None
    check = None

    def accept(wv: tuple) -> WitnessResult:
        """The witness wv when the matrix's margin there is within
        FLOAT_TOL, else an inconclusive not_found; either way with that
        margin.  A witness is accepted on the matrix, where a negated = or
        <= fails at equality."""
        nonlocal check
        check = check or prep.accept(sigma0.x, sigma0.a)
        m = check(wv)
        return WitnessResult(True, wv, m) if m <= FLOAT_TOL else \
            WitnessResult(False, None, m)

    if not prep.idx:
        res = accept(())
        return res if res.found or not _exactly_false(prep.matrix, exact) \
            else WitnessResult(False)
    res = _walk(prep, sigma0, exact, accept)
    if res is not None:
        return res

    # every grid point, restart and Nelder-Mead step reads the search
    # kernel at the base witnesses, which completes the others, and a point
    # passes on the matrix itself
    base, search = _search_kernel(f)
    read = search(sigma0.x, sigma0.a)

    def accept_point(point) -> WitnessResult:
        return accept(read(point, True)[1])

    if not base:
        return accept_point(())
    # seed witness j with input coordinate j - size + len(x), the inputs
    # cycled: a strategic transform's target point is its last len(x)
    # witnesses, and staying put is often already feasible
    pool = [*sigma0.x, *sigma0.a] or [0.0]
    shift = len(sigma0.x) - prep.size
    candidates = [tuple(pool[(i + shift) % len(pool)] for i in base),
                  *_starts(len(base))]
    scored = []
    for cand in candidates:
        mval = read(cand)
        if mval <= FLOAT_TOL:
            out = accept_point(cand)
            if out.found:
                return out
        scored.append((mval, cand))
    scored.sort(key=lambda t: t[0])
    best = scored[0]
    # local refinement from the most promising starts
    for mval, cand in scored[:4]:
        if mval == math.inf:
            break  # Nelder-Mead would read inf - inf from here on
        point, fun = _nelder_mead(read, cand)
        if fun < best[0]:
            best = fun, point
        if fun <= FLOAT_TOL:
            out = accept_point(point)
            if out.found:
                return out
    return accept_point(best[1])
