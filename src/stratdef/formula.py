"""First-order formula AST over the reals with exponentiation.

Formulas are block-typed: variables live in the blocks ``x`` (inputs),
``a`` (parameters) and ``w`` (existential witnesses).  Constants are exact
rationals.  The module provides the s-expression grammar (parse / print),
fragment classification, the graph-form rewriting that isolates every
exponential into an atom ``u = exp(v)``, and the syntactic format/degree
complexity of a graph-form formula.  An atom is a ``Compare``, the leaf of
every formula; the exp-graph atom ``u = exp(v)`` is the comparison
(= u (exp v)) of two variables.

Each structural decision is made in one place: ``split_exists`` is the only
reader of the witness prefix (leading Exists blocks) and the matrix under
it, ``exp_graph`` the only recognizer of the exp-graph atom, ``atom`` the
only place that orients it (``exp(v) = u`` is stored as ``u = exp(v)``),
and trees are rebuilt only by ``map_term`` (terms, bottom-up) and
``map_atoms`` (formulas: atoms and quantifier indices), on which
``map_vars``, ``rename_witnesses`` and the graph-form rewrite are built.
Walks that only read use the ``subterms`` / ``subformulas`` iterators.

The value of a formula is defined here once, next to ``map_atoms``:
``eval_term`` folds a term over an ``Assignment`` of the blocks in any
domain with + and * (floats, Fractions, certified enclosures, float
arrays), ``_compare`` is the one relation table, and ``_fold`` combines
atom values through Not/And/Or.  :mod:`stratdef.solve` reads formulas
exactly, as float margins and as rows through them, and
:mod:`stratdef.families` elementwise on float arrays, so a command that
only labels points never loads the solvers.

Nodes and records are plain classes: a node is slotted, immutable, and
equal and hashed by its class and the field tuple ``_key`` that its own
``__init__`` stores once (the hash is kept once computed); records are
NamedTuples.
"""

from __future__ import annotations

import functools
import operator
import re
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from . import UsageError

BLOCKS = ("x", "a", "w")
# the largest point or parameter dimension of a family or a transform
MAX_PARAM_DIM = 5000


class FormulaError(UsageError):
    pass


class ParseError(FormulaError):
    def __init__(self, msg: str, pos: int = -1, line: int = -1, col: int = -1):
        loc = f" at line {line}, col {col}" if line >= 0 else ""
        super().__init__(msg + loc)
        self.pos, self.line, self.col = pos, line, col


# ---------------------------------------------------------------------------
# Terms


class _Node:
    """A syntax node: immutable, equal and hashed by its class and the tuple
    _key of its _fields, and shown with its fields named, as
    Var(block='x', index=0).  Each node's own __init__ stores the fields and
    _key once, through the slots' setters (_setters): a loop over the fields
    or object.__setattr__ would make building a node slower.  The hash of
    _key is kept in the slot _hash on first use, so that a cache keyed on a
    formula does not rehash the tree at every lookup."""

    __slots__ = ("_key", "_hash")
    _fields = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: "
                             f"cannot change {name}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            _set_hash(self, hash(self._key))
            return self._hash

    def __repr__(self):
        return type(self).__name__ + "(" + ", ".join(
            f"{name}={v!r}" for name, v in zip(self._fields, self._key)) + ")"

    def __reduce__(self):
        return type(self), self._key


def _setters(cls) -> tuple:
    """The setter of each field slot of cls, in _fields order."""
    return tuple(getattr(cls, name).__set__ for name in cls._fields)


_set_key, _set_hash = _Node._key.__set__, _Node._hash.__set__


class Var(_Node):
    __slots__ = _fields = ("block", "index")

    def __init__(self, block: str, index: int):
        if block not in BLOCKS:
            raise FormulaError(f"unknown block {block!r}")
        if index < 0:
            raise FormulaError("negative variable index")
        _var_block(self, block)
        _var_index(self, index)
        _set_key(self, (block, index))

    def __str__(self):
        return f"{self.block}{self.index}"


class Const(_Node):
    __slots__ = _fields = ("value",)

    def __init__(self, value: Fraction):
        _const_value(self, value)
        _set_key(self, (value,))

    def __str__(self):
        v = self.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


class Sum(_Node):
    __slots__ = _fields = ("terms",)

    def __init__(self, terms: tuple):
        _sum_terms(self, terms)
        _set_key(self, (terms,))

    def __str__(self):
        return "(+ " + " ".join(map(str, self.terms)) + ")"


class Product(_Node):
    __slots__ = _fields = ("factors",)

    def __init__(self, factors: tuple):
        _product_factors(self, factors)
        _set_key(self, (factors,))

    def __str__(self):
        return "(* " + " ".join(map(str, self.factors)) + ")"


class Exp(_Node):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg: "Term"):
        _exp_arg(self, arg)
        _set_key(self, (arg,))

    def __str__(self):
        return f"(exp {self.arg})"


_var_block, _var_index = _setters(Var)
(_const_value,), (_sum_terms,), (_product_factors,), (_exp_arg,) = \
    map(_setters, (Const, Sum, Product, Exp))

Term = Union[Var, Const, Sum, Product, Exp]


def const(v) -> Const:
    return Const(Fraction(v))


def x(i: int) -> Var:
    return Var("x", i)


def a(i: int) -> Var:
    return Var("a", i)


def w(i: int) -> Var:
    return Var("w", i)


def add(*terms: Term) -> Term:
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


def mul(*factors: Term) -> Term:
    return factors[0] if len(factors) == 1 else Product(tuple(factors))


def neg(t: Term) -> Term:
    return Product((Const(Fraction(-1)), t))


def sub(l: Term, r: Term) -> Term:
    return Sum((l, neg(r)))


# ---------------------------------------------------------------------------
# Atoms and formulas


RELATIONS = ("<", "<=", "=", ">=", ">")


class Compare(_Node):
    __slots__ = _fields = ("lhs", "rel", "rhs")

    def __init__(self, lhs: Term, rel: str, rhs: Term):
        if rel not in RELATIONS:
            raise FormulaError(f"unknown relation {rel!r}")
        _compare_lhs(self, lhs)
        _compare_rel(self, rel)
        _compare_rhs(self, rhs)
        _set_key(self, (lhs, rel, rhs))

    def __str__(self):
        return f"({self.rel} {self.lhs} {self.rhs})"


class Not(_Node):
    __slots__ = _fields = ("body",)

    def __init__(self, body: "Formula"):
        _not_body(self, body)
        _set_key(self, (body,))

    def __str__(self):
        return f"(not {self.body})"


class _Junction(_Node):
    """And or Or (its _op) of parts."""

    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple):
        _junction_parts(self, parts)
        _set_key(self, (parts,))

    def __str__(self):
        return f"({self._op}" + "".join(" " + str(p) for p in self.parts) + ")"


class And(_Junction):
    __slots__ = ()
    _op = "and"


class Or(_Junction):
    __slots__ = ()
    _op = "or"


class _Quantifier(_Node):
    """Exists or ForAll (its _op) of the w-block indices over body."""

    __slots__ = _fields = ("indices", "body")

    def __init__(self, indices: tuple, body: "Formula"):
        _quantifier_indices(self, indices)
        _quantifier_body(self, body)
        _set_key(self, (indices, body))

    def __str__(self):
        vs = " ".join(f"w{i}" for i in self.indices)
        return f"({self._op} ({vs}) {self.body})"


class Exists(_Quantifier):
    __slots__ = ()
    _op = "exists"


class ForAll(_Quantifier):
    __slots__ = ()
    _op = "forall"


_compare_lhs, _compare_rel, _compare_rhs = _setters(Compare)
(_not_body,), (_junction_parts,) = map(_setters, (Not, _Junction))
_quantifier_indices, _quantifier_body = _setters(_Quantifier)


Formula = Union[Compare, Not, And, Or, Exists, ForAll]


def conj(*parts: Formula) -> Formula:
    return And(tuple(parts))


def disj(*parts: Formula) -> Formula:
    return Or(tuple(parts))


def atom(lhs: Term, rel: str, rhs: Term) -> Compare:
    """The atom (rel lhs rhs); exp(v) = u for variables u and v is stored as
    the exp-graph atom u = exp(v)."""
    if rel == "=" and exp_graph(Compare(rhs, rel, lhs)):
        lhs, rhs = rhs, lhs
    return Compare(lhs, rel, rhs)


def exp_graph(at: Compare) -> Optional[tuple]:
    """(u, v) when at is the exp-graph atom u = exp(v) of variables u and v,
    else None."""
    if at.rel == "=" and isinstance(at.lhs, Var) and isinstance(at.rhs, Exp) \
            and isinstance(at.rhs.arg, Var):
        return at.lhs, at.rhs.arg
    return None


# ---------------------------------------------------------------------------
# Reading and rebuilding


def subterms(t: Term) -> Iterator[Term]:
    """t and every term below it, each node before its children."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, Sum):
            stack.extend(reversed(t.terms))
        elif isinstance(t, Product):
            stack.extend(reversed(t.factors))
        elif isinstance(t, Exp):
            stack.append(t.arg)


def subformulas(f: Formula) -> Iterator[Formula]:
    """f and every formula below it, each node before its children."""
    stack = [f]
    while stack:
        f = stack.pop()
        yield f
        if isinstance(f, (And, Or)):
            stack.extend(reversed(f.parts))
        elif not isinstance(f, Compare):
            stack.append(f.body)


def term_vars(t: Term) -> Iterator[Var]:
    return (s for s in subterms(t) if isinstance(s, Var))


def term_has_exp(t: Term) -> bool:
    return any(isinstance(s, Exp) for s in subterms(t))


def atom_vars(at: Compare) -> Iterator[Var]:
    yield from term_vars(at.lhs)
    yield from term_vars(at.rhs)


def formula_atoms(f: Formula) -> Iterator[Compare]:
    return (g for g in subformulas(f) if isinstance(g, Compare))


def _has_quantifier(f: Formula) -> bool:
    return any(isinstance(g, (Exists, ForAll)) for g in subformulas(f))


def split_exists(f: Formula) -> tuple:
    """(witness indices, matrix): the indices bound by the leading Exists
    blocks of f, in order, and the formula under them (f itself when f does
    not start with Exists)."""
    indices = []
    while isinstance(f, Exists):
        indices.extend(f.indices)
        f = f.body
    return tuple(indices), f


def max_index(f: Formula, block: str) -> int:
    """Largest index of a ``block`` variable in the atoms of f; -1 if none."""
    return max((v.index for at in formula_atoms(f) for v in atom_vars(at)
                if v.block == block), default=-1)


def free_vars(f: Formula) -> set:
    """Free variables of a formula (bound w-vars excluded)."""

    def go(g: Formula, bound: frozenset) -> set:
        if isinstance(g, Compare):
            return {v for v in atom_vars(g)
                    if not (v.block == "w" and v.index in bound)}
        if isinstance(g, Not):
            return go(g.body, bound)
        if isinstance(g, (And, Or)):
            out = set()
            for p in g.parts:
                out |= go(p, bound)
            return out
        return go(g.body, bound | frozenset(g.indices))

    return go(f, frozenset())


def validate(f: Formula) -> None:
    """Check the block discipline: every w-variable is bound."""
    for v in free_vars(f):
        if v.block == "w":
            raise FormulaError(f"unbound witness variable {v}")


def map_term(t: Term, fn) -> Term:
    """Rebuild t bottom-up: fn receives each node after its children have
    been rebuilt, and its result replaces the node."""
    if isinstance(t, Sum):
        t = Sum(tuple(map_term(s, fn) for s in t.terms))
    elif isinstance(t, Product):
        t = Product(tuple(map_term(s, fn) for s in t.factors))
    elif isinstance(t, Exp):
        t = Exp(map_term(t.arg, fn))
    return fn(t)


def map_atoms(f: Formula, fn, index=None) -> Formula:
    """Rebuild f with every atom replaced by fn(atom) and every quantifier
    index i by index(i) (unchanged when index is None)."""
    if isinstance(f, Compare):
        return fn(f)
    if isinstance(f, Not):
        return Not(map_atoms(f.body, fn, index))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(map_atoms(p, fn, index) for p in f.parts))
    indices = f.indices if index is None else tuple(map(index, f.indices))
    return type(f)(indices, map_atoms(f.body, fn, index))


def map_vars(f: Formula, fn) -> Formula:
    """Rebuild f, replacing every Var v by the term fn(v); a quantified
    witness index i becomes the index of fn(w_i), so fn must send bound
    witnesses to witnesses."""

    def var(t: Term) -> Term:
        return fn(t) if isinstance(t, Var) else t

    def atom_fn(at: Compare) -> Compare:
        return Compare(map_term(at.lhs, var), at.rel, map_term(at.rhs, var))

    return map_atoms(f, atom_fn, lambda i: fn(Var("w", i)).index)


def rename_witnesses(f: Formula, mapping: dict) -> Formula:
    """Rename w-variable indices throughout (bound and free occurrences)."""
    return map_vars(f, lambda v: Var("w", mapping[v.index])
                    if v.block == "w" and v.index in mapping else v)


# ---------------------------------------------------------------------------
# Values: one fold of terms and one of formulas


def _solve_error(msg: str) -> Exception:
    """A failed reading of values is solve's SolveError (a verification
    failure), loaded only when a reading fails."""
    from .solve import SolveError
    return SolveError(msg)


class Assignment(NamedTuple):
    """Per-block value vectors. Values are Fractions (exact path) or floats."""

    x: tuple = ()
    a: tuple = ()
    w: tuple = ()

    def lookup(self, v: Var):
        vec = getattr(self, v.block)
        if v.index >= len(vec):
            raise _solve_error(f"assignment does not cover {v}")
        return vec[v.index]

    def with_w(self, w: Sequence) -> "Assignment":
        return Assignment(self.x, self.a, tuple(w))

    def is_exact(self) -> bool:
        return all(isinstance(v, (Fraction, int))
                   for v in (*self.x, *self.a, *self.w))


def merge(x: Sequence = (), a: Sequence = (), w: Sequence = ()) -> Assignment:
    return Assignment(tuple(x), tuple(a), tuple(w))


def eval_term(t: Term, sigma: Assignment, lift: Callable, exp: Callable):
    """Value of a term in the domain that `lift` maps variable values and
    rational constants into; the domain's own + and * combine subterms and
    `exp` is its exponential.  Floats, Fractions, RatIntervals and numpy
    arrays all read terms through this fold.  Dispatch is on the exact node
    type."""
    kind = type(t)
    if kind is Var:
        return lift(sigma.lookup(t))
    if kind is Const:
        return lift(t.value)
    if kind is Sum:
        terms = iter(t.terms)
        out = eval_term(next(terms), sigma, lift, exp)
        for s in terms:
            out = out + eval_term(s, sigma, lift, exp)
        return out
    if kind is Product:
        factors = iter(t.factors)
        out = eval_term(next(factors), sigma, lift, exp)
        for s in factors:
            out = out * eval_term(s, sigma, lift, exp)
        return out
    return exp(eval_term(t.arg, sigma, lift, exp))


_RELATIONS = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
              ">=": operator.ge, ">": operator.gt}


def _compare(d, rel: str, rhs=0) -> bool:
    """d rel rhs: an exact difference or its sign against 0, or two float
    arrays elementwise."""
    return _RELATIONS[rel](d, rhs)


def _require_qf(f: Formula) -> None:
    if classify_fragment(f) != QUANTIFIER_FREE:
        raise _solve_error("eval_qf requires a quantifier-free formula")


def _fold(g: Formula, atom: Callable, array=None):
    """g from atom(at) per atom: a bool, or a bool array when array is
    np.bool_.  Not a nested closure: its cycle would keep arrays alive."""
    if isinstance(g, Compare):
        return atom(g)
    if isinstance(g, Not):
        v = _fold(g.body, atom, array)
        return ~v if array else not v
    conj = isinstance(g, And)
    parts = (_fold(p, atom, array) for p in g.parts)
    if array:
        return functools.reduce(operator.and_ if conj else operator.or_,
                                parts, array(conj))
    return all(parts) if conj else any(parts)


# ---------------------------------------------------------------------------
# Parsing


# Parenthesis nesting bounds the recursion depth of the reader and of every
# later walk over the formula; deeper input is rejected rather than left to
# exhaust the interpreter stack.
MAX_NESTING = 200
# a token is a parenthesis or a run of other non-whitespace characters; only
# "\n" ends a line, and every other character is one column wide
_TOKEN = re.compile(r"[()]|[^\s()]+")


def _tokenize(text: str):
    toks = []
    depth = offset = 0
    for line, row in enumerate(text.split("\n"), 1):
        for m in _TOKEN.finditer(row):
            tok, col = m.group(), m.start() + 1
            if tok in "()":
                depth += 1 if tok == "(" else -1
                if depth > MAX_NESTING:
                    raise ParseError(f"nesting deeper than {MAX_NESTING}",
                                     pos=offset + m.start(), line=line,
                                     col=col)
            toks.append((tok, line, col))
        offset += len(row) + 1
    return toks


def _parse_rational(tok: str) -> Optional[Fraction]:
    try:
        if "/" in tok or "." in tok or tok.lstrip("+-").isdigit():
            return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        return None
    return None


def _parse_var(tok: str) -> Optional[Var]:
    if len(tok) >= 2 and tok[0] in BLOCKS and tok[1:].isdigit():
        return Var(tok[0], int(tok[1:]))
    return None


class _Reader:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        if self.pos >= len(self.toks):
            raise ParseError("unexpected end of input")
        return self.toks[self.pos]

    def next(self):
        t = self.peek()
        self.pos += 1
        return t

    def expect(self, s: str):
        tok, line, col = self.next()
        if tok != s:
            raise ParseError(f"expected {s!r}, got {tok!r}", line=line, col=col)

    def done(self) -> bool:
        return self.pos >= len(self.toks)


def _read_term(r: _Reader) -> Term:
    tok, line, col = r.next()
    if tok == "(":
        op, oline, ocol = r.next()
        args = []
        while r.peek()[0] != ")":
            args.append(_read_term(r))
        r.next()  # ")"
        if op == "+":
            if not args:
                raise ParseError("empty sum", line=oline, col=ocol)
            return Sum(tuple(args)) if len(args) > 1 else args[0]
        if op == "*":
            if not args:
                raise ParseError("empty product", line=oline, col=ocol)
            return Product(tuple(args)) if len(args) > 1 else args[0]
        if op == "exp":
            if len(args) != 1:
                raise ParseError("exp takes one argument", line=oline, col=ocol)
            return Exp(args[0])
        if op == "-":
            if len(args) == 1:
                return neg(args[0])
            if len(args) == 2:
                return sub(args[0], args[1])
            raise ParseError("- takes one or two arguments", line=oline, col=ocol)
        raise ParseError(f"unknown term operator {op!r}", line=oline, col=ocol)
    v = _parse_var(tok)
    if v is not None:
        return v
    q = _parse_rational(tok)
    if q is not None:
        return Const(q)
    raise ParseError(f"cannot parse term token {tok!r}", line=line, col=col)


def _read_formula(r: _Reader) -> Formula:
    tok, line, col = r.next()
    if tok != "(":
        raise ParseError(f"expected '(', got {tok!r}", line=line, col=col)
    op, oline, ocol = r.next()
    if op in RELATIONS:
        lhs = _read_term(r)
        rhs = _read_term(r)
        r.expect(")")
        return atom(lhs, op, rhs)
    if op in ("and", "or"):
        parts = []
        while r.peek()[0] != ")":
            parts.append(_read_formula(r))
        r.next()
        return And(tuple(parts)) if op == "and" else Or(tuple(parts))
    if op == "not":
        body = _read_formula(r)
        r.expect(")")
        return Not(body)
    if op in ("exists", "forall"):
        r.expect("(")
        indices = []
        while r.peek()[0] != ")":
            vtok, vline, vcol = r.next()
            v = _parse_var(vtok)
            if v is None:
                raise ParseError(f"bad variable {vtok!r}", line=vline, col=vcol)
            if v.block != "w":
                raise ParseError(
                    f"cannot quantify {v}: only w-block variables may be bound",
                    line=vline, col=vcol)
            indices.append(v.index)
        r.next()  # ")"
        body = _read_formula(r)
        r.expect(")")
        node = Exists if op == "exists" else ForAll
        return node(tuple(indices), body)
    raise ParseError(f"unknown operator {op!r}", line=oline, col=ocol)


def parse(text: str) -> Formula:
    """Parse the s-expression grammar into a Formula; validates bindings."""
    r = _Reader(text)
    f = _read_formula(r)
    if not r.done():
        tok, line, col = r.peek()
        raise ParseError(f"trailing input {tok!r}", line=line, col=col)
    validate(f)
    return f


# ---------------------------------------------------------------------------
# Fragment classification

QUANTIFIER_FREE = "QuantifierFree"
EXISTENTIAL = "Existential"
GENERAL = "General"


def classify_fragment(f: Formula) -> str:
    _, matrix = split_exists(f)
    if _has_quantifier(matrix):
        return GENERAL
    return QUANTIFIER_FREE if matrix is f else EXISTENTIAL


# ---------------------------------------------------------------------------
# Graph form


class WitnessDef(NamedTuple):
    """Definition of a graph-form witness: either a polynomial term over
    earlier variables (kind='term') or the exp of another variable
    (kind='exp', with source the argument variable)."""

    index: int
    kind: str  # "term" | "exp"
    term: Optional[Term] = None
    source: Optional[Var] = None


class GraphForm(NamedTuple):
    """Result of to_graph_form: an equivalent existential formula whose
    atoms are polynomial comparisons and exp-graph atoms only, plus the
    completion recipe for the witnesses it introduced."""

    formula: Formula
    defs: tuple  # tuple[WitnessDef, ...] in dependency order


def is_graph_form(f: Formula) -> bool:
    """True if f is (optionally) an Exists prefix over a body whose atoms are
    polynomial comparisons and exp-graph atoms only."""
    _, matrix = split_exists(f)
    return not _has_quantifier(matrix) and all(
        exp_graph(at) or not (term_has_exp(at.lhs) or term_has_exp(at.rhs))
        for at in formula_atoms(matrix))


def to_graph_form(f: Formula) -> GraphForm:
    """Rewrite an existential/quantifier-free formula into graph form.

    Each nested exp(t) is replaced by fresh witnesses: v = t (skipped when t
    is already a variable) and u = exp(v).  Identical exp arguments share one
    witness.  The definitional constraints are conjoined at the top of the
    body, so the new witnesses are determined functions of the remaining
    variables.
    """
    prefix, matrix = split_exists(f)
    if _has_quantifier(matrix):
        raise FormulaError("graph form requires an existential or "
                           "quantifier-free formula")
    if is_graph_form(f):
        return GraphForm(f, ())

    base = max([max_index(matrix, "w"), *prefix]) + 1
    defs: list = []
    memo: dict = {}  # exp term -> its witness u

    def define(kind: str, **kw) -> Var:
        v = Var("w", base + len(defs))
        defs.append(WitnessDef(v.index, kind, **kw))
        return v

    def exp_witness(t: Term) -> Term:
        # bottom-up: the argument of t is already free of exp
        if not isinstance(t, Exp):
            return t
        if t not in memo:
            src = t.arg
            if not isinstance(src, Var):
                src = define("term", term=src)
            memo[t] = define("exp", source=src)
        return memo[t]

    def rewrite(at: Compare) -> Compare:
        if exp_graph(at):  # u = exp(v) needs no witness
            return at
        return Compare(map_term(at.lhs, exp_witness), at.rel,
                       map_term(at.rhs, exp_witness))

    body = map_atoms(matrix, rewrite)
    def_atoms = [Compare(Var("w", d.index), "=",
                         d.term if d.kind == "term" else Exp(d.source))
                 for d in defs]
    if def_atoms:
        body = And(tuple([body] + def_atoms))
    new_indices = prefix + tuple(d.index for d in defs)
    out = Exists(new_indices, body) if new_indices else body
    return GraphForm(out, tuple(defs))


# ---------------------------------------------------------------------------
# Complexity (format / degree)


class ComplexityProfile(NamedTuple):
    format: int      # free-tuple arity (l + k) + witnesses + exp-atoms
    degree: int      # sum of polynomial total degrees + exp-atoms
    input_dim: int   # l
    param_dim: int   # k
    witness_dim: int
    exp_atoms: int


def term_degree(t: Term) -> int:
    """Total polynomial degree after flattening; exp arguments are rejected."""
    if isinstance(t, Var):
        return 1
    if isinstance(t, Const):
        return 0
    if isinstance(t, Sum):
        return max((term_degree(s) for s in t.terms), default=0)
    if isinstance(t, Product):
        return sum(term_degree(s) for s in t.factors)
    raise FormulaError("exp term inside a polynomial atom; "
                       "call to_graph_form first")


def complexity(f: Formula, input_dim: Optional[int] = None,
               param_dim: Optional[int] = None) -> ComplexityProfile:
    """Format/degree of a graph-form formula.

    Duplicate atoms (structurally equal) are counted once: a formula is a
    Boolean combination over its atom inventory.
    """
    if not is_graph_form(f):
        raise FormulaError("complexity requires a graph-form formula")
    prefix, matrix = split_exists(f)
    witnesses = set(prefix)

    free = free_vars(f)
    atoms = []
    seen = set()
    for at in formula_atoms(matrix):
        if at not in seen:
            seen.add(at)
            atoms.append(at)
    r = sum(1 for at in atoms if exp_graph(at))
    deg = sum(max(term_degree(at.lhs), term_degree(at.rhs))
              for at in atoms if not exp_graph(at))
    x_idx = [v.index for v in free if v.block == "x"]
    a_idx = [v.index for v in free if v.block == "a"]
    l = input_dim if input_dim is not None else (max(x_idx) + 1 if x_idx else 0)
    k = param_dim if param_dim is not None else (max(a_idx) + 1 if a_idx else 0)
    # format counts the arity of the free-variable tuple (l + k), not the
    # occurrence count: a coordinate the formula ignores still belongs to
    # the signature, and the additivity law for composed formulas needs it
    return ComplexityProfile(
        format=l + k + len(witnesses) + r,
        degree=deg + r,
        input_dim=l,
        param_dim=k,
        witness_dim=len(witnesses),
        exp_atoms=r,
    )
