"""The strategic transform on definable classifier families.

Input: a hypothesis formula Phi_H(x, a) over input variables x0..x{l-1} and
parameters, and a neighborhood formula Phi_N(x, y) over a doubled input
block (source point x0..x{l-1}, target point x{l}..x{2l-1}).  Output: the
formula

    exists y . Phi_N(x, y) and Phi_H(y, a)

where y becomes a fresh block of witnesses, so the strategic classifier
(accept x iff some point reachable from x is accepted) stays in the
existential fragment.  Complexity accounting (format = free variables +
witnesses + exp atoms, degree = total atom degree + exp atoms) is computed
on the graph forms of the input and output formulas.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import UsageError, formula as fm


class TransformError(UsageError):
    pass


class StrategicClassSpec(NamedTuple):
    """A strategic classifier: its formula and complexity accounting."""

    transformed: fm.Formula
    input_dim: int
    hypothesis_profile: fm.ComplexityProfile
    neighborhood_profile: fm.ComplexityProfile
    transformed_profile: fm.ComplexityProfile


def strategic_transform(phi_h: fm.Formula, phi_n: fm.Formula,
                        input_dim: Optional[int] = None) -> StrategicClassSpec:
    """Build the formula for the strategic version of a definable family.

    input_dim is the dimension l of a single input point; when omitted it is
    inferred from the neighborhood formula (whose x block has 2l variables).
    Both inputs must be quantifier-free or existential, so the output is
    existential; formulas with universal quantifiers are rejected.
    """
    for name, f in (("hypothesis", phi_h), ("neighborhood", phi_n)):
        if fm.classify_fragment(f) == fm.GENERAL:
            raise TransformError(
                f"{name} formula is outside the existential fragment")
        # the matrix is quantifier-free, so every witness must be bound by
        # the exists prefix that relabel renames
        try:
            fm.validate(f)
        except fm.FormulaError as exc:
            raise TransformError(f"{name} formula: {exc}") from exc

    if input_dim is None:
        top = fm.max_index(phi_n, "x") + 1
        if top % 2 != 0:
            raise TransformError(
                "cannot infer input dimension: neighborhood formula has an "
                "odd number of point coordinates; pass input_dim explicitly")
        input_dim = top // 2
    l = input_dim
    # checked before anything that grows with l is built
    if not 1 <= l <= fm.MAX_PARAM_DIM:
        raise TransformError(f"input dimension must be in "
                             f"[1, {fm.MAX_PARAM_DIM}], got {l}")
    if fm.max_index(phi_h, "x") + 1 > l:
        raise TransformError("hypothesis formula uses more input coordinates "
                             "than the declared input dimension")
    if fm.max_index(phi_n, "x") + 1 > 2 * l:
        raise TransformError("neighborhood formula uses more than a doubled "
                             "input block")

    # disjoint witness blocks, then a fresh block for the target point y
    n_idx, n_body = fm.split_exists(phi_n)
    h_idx, h_body = fm.split_exists(phi_h)
    y_base = len(n_idx) + len(h_idx)

    def relabel(body: fm.Formula, indices: tuple, first: int, y_from: int):
        """Witness indices[j] -> w(first + j); x_i with i >= y_from -> the
        target coordinate y_(i - y_from)."""
        ren = {old: first + new for new, old in enumerate(indices)}

        def fn(v: fm.Var) -> fm.Var:
            if v.block == "w":
                return fm.Var("w", ren[v.index])
            if v.block == "x" and v.index >= y_from:
                return fm.Var("w", y_base + v.index - y_from)
            return v
        return fm.map_vars(body, fn)

    n_body = relabel(n_body, n_idx, 0, l)
    h_body = relabel(h_body, h_idx, len(n_idx), 0)
    all_idx = tuple(range(y_base + l))
    out = fm.Exists(all_idx, fm.conj(n_body, h_body))

    k = fm.max_index(phi_h, "a") + 1

    def profile(f: fm.Formula, **kw) -> fm.ComplexityProfile:
        return fm.complexity(fm.to_graph_form(f).formula, **kw)

    prof_h = profile(phi_h, input_dim=l, param_dim=k)
    prof_n = profile(phi_n, input_dim=2 * l)
    prof_out = profile(out, input_dim=l, param_dim=k)
    return StrategicClassSpec(out, l, prof_h, prof_n, prof_out)


def complexity_report(spec: StrategicClassSpec) -> dict:
    """Numeric format/degree accounting plus symbolic capacity bounds.

    The symbolic bounds are templates with unspecified absolute constants:
    they are reported as strings, not evaluated numbers.
    """
    ph, pn, po = (spec.hypothesis_profile, spec.neighborhood_profile,
                  spec.transformed_profile)

    def block(p: fm.ComplexityProfile) -> dict:
        return {"format": p.format, "degree": p.degree,
                "witnesses": p.witness_dim, "exp_atoms": p.exp_atoms}

    rep = {
        "input_dim": spec.input_dim,
        "param_dim": ph.param_dim,
        "fragment": fm.EXISTENTIAL,
        "hypothesis": block(ph),
        "neighborhood": block(pn),
        "transformed": block(po),
    }
    rep["format_additivity"] = {
        "expected_witnesses_upper":
            pn.witness_dim + ph.witness_dim + spec.input_dim,
    }
    rep["symbolic_bounds"] = {
        "vc_dimension":
            f"O_F(log D) with F={po.format}, D={po.degree}; "
            "absolute constant unspecified",
        "erm_sample_complexity":
            f"O((k*log(1/eps) + g(F)*log(D) + log(1/delta))/eps) with "
            f"k={ph.param_dim}, F={po.format}, D={po.degree}; "
            "function g and constant unspecified",
        "quantifier_elimination_atoms":
            f"s^((k+1)*(l+1)) * d^O(k*l) with s=atoms, d=degree for a "
            "one-block elimination; exponent constant unspecified",
    }
    return rep
