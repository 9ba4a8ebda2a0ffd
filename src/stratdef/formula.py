"""First-order formula AST over the reals with exponentiation.

Formulas are block-typed: variables live in the blocks ``x`` (inputs),
``a`` (parameters) and ``w`` (existential witnesses).  Constants are exact
rationals.  The module provides the s-expression grammar (parse / print),
fragment classification, the graph-form rewriting that isolates every
exponential into an atom ``u = exp(v)``, and the syntactic format/degree
complexity of a graph-form formula.

Each structural decision is made in one place: ``split_exists`` is the only
reader of the witness prefix (leading Exists blocks) and the matrix under
it, ``compare`` the only recognizer of the exp-graph atom ``u = exp(v)``,
and trees are rebuilt only by ``map_term`` (terms, bottom-up) and
``map_atoms`` (formulas: atoms and quantifier indices), on which
``map_vars``, ``rename_witnesses`` and the graph-form rewrite are built.
Walks that only read use the ``subterms`` / ``subformulas`` iterators.

Everything here is pure syntax; evaluation lives in :mod:`stratdef.solve`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

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


@dataclass(frozen=True)
class Var:
    block: str
    index: int

    def __post_init__(self):
        if self.block not in BLOCKS:
            raise FormulaError(f"unknown block {self.block!r}")
        if self.index < 0:
            raise FormulaError("negative variable index")

    def __str__(self):
        return f"{self.block}{self.index}"


@dataclass(frozen=True)
class Const:
    value: Fraction

    def __str__(self):
        v = self.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


@dataclass(frozen=True)
class Sum:
    terms: tuple

    def __str__(self):
        return "(+ " + " ".join(map(str, self.terms)) + ")"


@dataclass(frozen=True)
class Product:
    factors: tuple

    def __str__(self):
        return "(* " + " ".join(map(str, self.factors)) + ")"


@dataclass(frozen=True)
class Exp:
    arg: "Term"

    def __str__(self):
        return f"(exp {self.arg})"


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


@dataclass(frozen=True)
class Compare:
    lhs: Term
    rel: str
    rhs: Term

    def __post_init__(self):
        if self.rel not in RELATIONS:
            raise FormulaError(f"unknown relation {self.rel!r}")

    def __str__(self):
        return f"({self.rel} {self.lhs} {self.rhs})"


@dataclass(frozen=True)
class ExpGraph:
    """Atom lhs = exp(rhs), both sides plain variables."""

    lhs: Var
    rhs: Var

    def __str__(self):
        return f"(= {self.lhs} (exp {self.rhs}))"


AtomKind = Union[Compare, ExpGraph]


@dataclass(frozen=True)
class Atom:
    atom: AtomKind

    def __str__(self):
        return str(self.atom)


@dataclass(frozen=True)
class Not:
    body: "Formula"

    def __str__(self):
        return f"(not {self.body})"


@dataclass(frozen=True)
class And:
    parts: tuple

    def __str__(self):
        return "(and" + "".join(" " + str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class Or:
    parts: tuple

    def __str__(self):
        return "(or" + "".join(" " + str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class Exists:
    indices: tuple  # w-block indices
    body: "Formula"

    def __str__(self):
        vs = " ".join(f"w{i}" for i in self.indices)
        return f"(exists ({vs}) {self.body})"


@dataclass(frozen=True)
class ForAll:
    indices: tuple
    body: "Formula"

    def __str__(self):
        vs = " ".join(f"w{i}" for i in self.indices)
        return f"(forall ({vs}) {self.body})"


Formula = Union[Atom, Not, And, Or, Exists, ForAll]


def conj(*parts: Formula) -> Formula:
    return And(tuple(parts))


def disj(*parts: Formula) -> Formula:
    return Or(tuple(parts))


def atom(lhs: Term, rel: str, rhs: Term) -> Atom:
    return Atom(Compare(lhs, rel, rhs))


def compare(lhs: Term, rel: str, rhs: Term) -> AtomKind:
    """The atom (rel lhs rhs), as an ExpGraph when it reads u = exp(v) or
    exp(v) = u for variables u and v."""
    if rel == "=":
        u, e = (rhs, lhs) if isinstance(lhs, Exp) else (lhs, rhs)
        if isinstance(u, Var) and isinstance(e, Exp) and isinstance(e.arg, Var):
            return ExpGraph(u, e.arg)
    return Compare(lhs, rel, rhs)


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
        elif not isinstance(f, Atom):
            stack.append(f.body)


def term_vars(t: Term) -> Iterator[Var]:
    return (s for s in subterms(t) if isinstance(s, Var))


def term_has_exp(t: Term) -> bool:
    return any(isinstance(s, Exp) for s in subterms(t))


def atom_vars(at: AtomKind) -> Iterator[Var]:
    if isinstance(at, Compare):
        yield from term_vars(at.lhs)
        yield from term_vars(at.rhs)
    else:
        yield at.lhs
        yield at.rhs


def formula_atoms(f: Formula) -> Iterator[AtomKind]:
    return (g.atom for g in subformulas(f) if isinstance(g, Atom))


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
        if isinstance(g, Atom):
            return {v for v in atom_vars(g.atom)
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
    if isinstance(f, Atom):
        return Atom(fn(f.atom))
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

    def atom_fn(at: AtomKind) -> AtomKind:
        if isinstance(at, Compare):
            return Compare(map_term(at.lhs, var), at.rel, map_term(at.rhs, var))
        return compare(fn(at.lhs), "=", Exp(fn(at.rhs)))

    return map_atoms(f, atom_fn, lambda i: fn(Var("w", i)).index)


def rename_witnesses(f: Formula, mapping: dict) -> Formula:
    """Rename w-variable indices throughout (bound and free occurrences)."""
    return map_vars(f, lambda v: Var("w", mapping[v.index])
                    if v.block == "w" and v.index in mapping else v)


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
        return Atom(compare(lhs, op, rhs))
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


@dataclass(frozen=True)
class WitnessDef:
    """Definition of a graph-form witness: either a polynomial term over
    earlier variables (kind='term') or the exp of another variable
    (kind='exp', with source the argument variable)."""

    index: int
    kind: str  # "term" | "exp"
    term: Optional[Term] = None
    source: Optional[Var] = None


@dataclass(frozen=True)
class GraphForm:
    """Result of to_graph_form: an equivalent existential formula whose
    atoms are polynomial comparisons and exp-graph atoms only, plus the
    completion recipe for the witnesses it introduced."""

    formula: Formula
    defs: tuple  # tuple[WitnessDef, ...] in dependency order


def is_graph_form(f: Formula) -> bool:
    """True if f is (optionally) an Exists prefix over a body whose atoms are
    polynomial comparisons and ExpGraph atoms only."""
    _, matrix = split_exists(f)
    return not _has_quantifier(matrix) and not any(
        isinstance(at, Compare) and (term_has_exp(at.lhs) or term_has_exp(at.rhs))
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

    def rewrite(at: AtomKind) -> AtomKind:
        if isinstance(at, Compare):
            at = compare(at.lhs, at.rel, at.rhs)  # u = exp(v) needs no witness
        if isinstance(at, Compare):
            return Compare(map_term(at.lhs, exp_witness), at.rel,
                           map_term(at.rhs, exp_witness))
        return at

    body = map_atoms(matrix, rewrite)
    def_atoms = []
    for d in defs:
        if d.kind == "term":
            def_atoms.append(Atom(Compare(Var("w", d.index), "=", d.term)))
        else:
            def_atoms.append(Atom(ExpGraph(Var("w", d.index), d.source)))
    if def_atoms:
        body = And(tuple([body] + def_atoms))
    new_indices = prefix + tuple(d.index for d in defs)
    out = Exists(new_indices, body) if new_indices else body
    return GraphForm(out, tuple(defs))


# ---------------------------------------------------------------------------
# Complexity (format / degree)


@dataclass(frozen=True)
class ComplexityProfile:
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
    r = sum(1 for at in atoms if isinstance(at, ExpGraph))
    deg = sum(max(term_degree(at.lhs), term_degree(at.rhs))
              for at in atoms if isinstance(at, Compare))
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
