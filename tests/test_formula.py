"""Formula AST, parser, graph form and complexity accounting."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratdef import formula as fm
from stratdef import solve

from helpers import ref_tokenize

# ---------------------------------------------------------------------------
# Parsing and printing


def test_parse_print_roundtrip_examples():
    texts = [
        "(>= (+ (* a0 x0) (* a1 x1)) a2)",
        "(exists (w0 w1) (and (= w0 (exp x0)) (<= (+ w0 w1) 1)))",
        "(or (< x0 0) (not (= x0 x1)))",
        "(forall (w0) (> w0 x0))",
    ]
    for text in texts:
        f = fm.parse(text)
        assert str(f) == text
        assert str(fm.parse(str(f))) == text


def test_decimals_parse_exactly():
    f = fm.parse("(<= x0 0.1)")
    assert f.atom.rhs.value == Fraction(1, 10)
    g = fm.parse("(<= x0 3/7)")
    assert g.atom.rhs.value == Fraction(3, 7)
    h = fm.parse("(<= x0 -2.25)")
    assert h.atom.rhs.value == Fraction(-9, 4)


def test_parse_errors_carry_position():
    with pytest.raises(fm.ParseError):
        fm.parse("(<= x0")
    with pytest.raises(fm.ParseError):
        fm.parse("(<= q0 1)")
    with pytest.raises(fm.ParseError):
        fm.parse("(exists (x0) (<= x0 1))")  # only w-vars are quantifiable
    with pytest.raises(fm.FormulaError):
        fm.parse("(and (<= w0 1) (<= x0 1))")  # unbound witness
    # nesting past the cap is refused before it exhausts the stack
    with pytest.raises(fm.ParseError) as exc:
        fm.parse("(and " * 3000 + "(<= x0 1)" + ")" * 3000)
    assert exc.value.line == 1



# texts over parentheses, token characters and the whitespace that str.split
# and str.splitlines treat differently from "\n" (U+200B is not whitespace)
_scan_texts = st.lists(st.sampled_from(
    ["(", ")", "x0", "a", "-1/2", "\n", "\r", "\t", "\x0b", "\x0c", "\x1c",
     "\x85", "\xa0", "\u3000", "\u200b"]), max_size=40).map("".join)
# the same after leading newlines and a run of parentheses at or past the cap
_deep_texts = st.builds(
    lambda pre, k, d, post: pre + "\n" * k + "(" * d + post, _scan_texts,
    st.integers(1, 3), st.integers(fm.MAX_NESTING - 1, fm.MAX_NESTING + 1),
    _scan_texts)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_scan_texts, _deep_texts))
def test_tokenize_matches_character_scanner(text):
    toks, err = ref_tokenize(text, fm.MAX_NESTING)
    if err is None:
        assert fm._tokenize(text) == toks
        return
    with pytest.raises(fm.ParseError) as exc:
        fm._tokenize(text)
    assert (str(exc.value), exc.value.pos, exc.value.line,
            exc.value.col) == err


# random formula generator for the round-trip property

_terms = st.deferred(lambda: st.one_of(
    st.builds(fm.x, st.integers(0, 3)),
    st.builds(fm.a, st.integers(0, 3)),
    st.builds(lambda n, d: fm.const(Fraction(n, d)),
              st.integers(-9, 9), st.integers(1, 9)),
    st.builds(lambda l, r: fm.add(l, r), _terms, _terms),
    st.builds(lambda l, r: fm.mul(l, r), _terms, _terms),
    st.builds(lambda t: fm.Exp(t), _terms),
))

_rels = st.sampled_from(["<", "<=", "=", ">=", ">"])

_formulas = st.deferred(lambda: st.one_of(
    st.builds(fm.atom, _terms, _rels, _terms),
    st.builds(lambda p, q: fm.conj(p, q), _formulas, _formulas),
    st.builds(lambda p, q: fm.disj(p, q), _formulas, _formulas),
    st.builds(fm.Not, _formulas),
))


@settings(max_examples=200, deadline=None)
@given(_formulas)
def test_parse_print_roundtrip_property(f):
    # parsing canonicalizes equalities of the shape v = exp(u) into graph
    # atoms, so round-trip stability is asserted after one parse
    g = fm.parse(str(f))
    assert fm.parse(str(g)) == g


# ---------------------------------------------------------------------------
# Fragments


def test_fragment_classification():
    qf = fm.parse("(<= x0 1)")
    ex = fm.parse("(exists (w0) (<= w0 x0))")
    ge = fm.parse("(forall (w0) (<= w0 x0))")
    nested = fm.parse("(and (<= x0 1) (exists (w0) (<= w0 1)))")
    assert fm.classify_fragment(qf) == fm.QUANTIFIER_FREE
    assert fm.classify_fragment(ex) == fm.EXISTENTIAL
    assert fm.classify_fragment(ge) == fm.GENERAL
    # a quantifier not in prefix position is outside the managed fragment
    assert fm.classify_fragment(nested) == fm.GENERAL
    # an empty block and stacked blocks are still an existential prefix
    for text in ("(exists () (<= x0 1))",
                 "(exists (w0) (exists (w1) (<= w0 w1)))"):
        assert fm.classify_fragment(fm.parse(text)) == fm.EXISTENTIAL
    negated = fm.parse("(not (exists (w0) (<= w0 x0)))")
    assert fm.classify_fragment(negated) == fm.GENERAL


# ---------------------------------------------------------------------------
# Graph form


def test_graph_form_idempotent():
    f = fm.parse("(exists (w0) (and (= w0 (exp x0)) (<= w0 1)))")
    g = fm.to_graph_form(f)
    assert g.formula is f  # already in graph form: returned unchanged
    assert fm.is_graph_form(f)


def test_graph_form_shares_repeated_exp_args():
    # exp(x0) appears twice; the graph form introduces a single witness
    f = fm.parse("(and (<= (exp x0) 2) (>= (+ (exp x0) x1) 0))")
    g = fm.to_graph_form(f)
    exp_defs = [d for d in g.defs if d.kind == "exp"]
    assert len(exp_defs) == 1
    prof = fm.complexity(g.formula)
    assert prof.exp_atoms == 1


def test_graph_form_nested_exp():
    f = fm.parse("(<= (exp (exp x0)) 3)")
    g = fm.to_graph_form(f)
    assert fm.is_graph_form(g.formula)
    assert fm.complexity(g.formula).exp_atoms == 2


@settings(max_examples=150, deadline=None)
@given(_formulas, st.integers(0, 2 ** 32 - 1))
def test_graph_form_preserves_semantics(f, seed):
    """The graph form, with its witnesses filled in by definitional
    propagation, agrees with direct float evaluation of the original."""
    rng = np.random.default_rng(seed)
    g = fm.to_graph_form(f)
    sigma = solve.Assignment(tuple(rng.uniform(-2, 2, 4)),
                             tuple(rng.uniform(-2, 2, 4)), ())
    try:
        want = solve.eval_qf(f, sigma, mode="float")
    except OverflowError:
        return
    if _exp_overflows(f, sigma):
        # a saturated exp has no finite witness value in the graph form
        return
    got = solve.witness_search(g.formula, sigma.x, sigma.a)
    if got.found:
        assert want or _near_boundary(f, sigma)
    else:
        # not_found is inconclusive in general, but with purely
        # definitional witnesses the search is complete
        assert not want or _near_boundary(f, sigma)


def _exp_terms(t):
    if isinstance(t, fm.Exp):
        yield t
        yield from _exp_terms(t.arg)
    elif isinstance(t, fm.Sum):
        for s in t.terms:
            yield from _exp_terms(s)
    elif isinstance(t, fm.Product):
        for s in t.factors:
            yield from _exp_terms(s)


def _exp_overflows(f, sigma):
    """True when some exp subterm saturates to infinity under sigma."""
    for at in fm.formula_atoms(f):
        if isinstance(at, fm.ExpGraph):
            continue
        for side in (at.lhs, at.rhs):
            for e in _exp_terms(side):
                try:
                    v = solve.eval_term_float(e, sigma)
                except OverflowError:
                    return True
                if not np.isfinite(v):
                    return True
    return False


def _near_boundary(f, sigma, delta=1e-6):
    """True when some atom of f is within delta of its boundary, where the
    float tolerance makes both answers defensible."""
    for at in fm.formula_atoms(f):
        if isinstance(at, fm.ExpGraph):
            continue
        try:
            d = solve.eval_term_float(at.lhs, sigma) - \
                solve.eval_term_float(at.rhs, sigma)
        except OverflowError:
            return True
        if abs(d) <= delta or not np.isfinite(d):
            return True
    return False


# ---------------------------------------------------------------------------
# Complexity accounting


def test_complexity_halfspace():
    f = fm.parse("(>= (+ (* a0 x0) (* a1 x1)) a2)")
    prof = fm.complexity(f, input_dim=2, param_dim=3)
    # 5 free variables, no witnesses, no exp atoms; one degree-2 atom
    assert prof.format == 5
    assert prof.degree == 2
    assert prof.witness_dim == 0


def test_complexity_counts_witnesses_and_exp():
    f = fm.parse("(exists (w0 w1) (and (= w0 (exp x0)) "
                 "(<= (+ (* w0 w1) x0) 1)))")
    prof = fm.complexity(f)
    # free: x0; witnesses: 2; exp atoms: 1 -> F = 4
    assert prof.format == 4
    assert prof.exp_atoms == 1
    # degrees: exp atom contributes via r; polynomial atom has degree 2
    assert prof.degree == 2 + 1


def test_complexity_dedupes_identical_atoms():
    f = fm.parse("(and (<= x0 1) (<= x0 1) (<= x0 1))")
    assert fm.complexity(f).degree == 1


# ---------------------------------------------------------------------------
# Witness renaming


def test_rename_witnesses_keeps_semantics():
    f = fm.parse("(exists (w0) (<= (+ w0 x0) 1))")
    g = fm.rename_witnesses(f, {0: 5})
    assert str(g) == "(exists (w5) (<= (+ w5 x0) 1))"
    # binders at every depth and exp-graph atoms are renamed too
    f = fm.parse("(exists (w0 w1) (and (= w1 (exp w0)) "
                 "(forall (w2) (<= w2 w1))))")
    g = fm.rename_witnesses(f, {0: 5, 1: 6, 2: 7})
    assert str(g) == ("(exists (w5 w6) (and (= w6 (exp w5)) "
                      "(forall (w7) (<= w7 w6))))")
    assert isinstance(g.body.parts[0].atom, fm.ExpGraph)
