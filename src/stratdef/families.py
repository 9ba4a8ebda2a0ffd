"""Built-in hypothesis families and neighborhood systems.

A hypothesis family is a formula over the variable blocks x (inputs) and a
(parameters); a neighborhood system a formula over a doubled x block (source
point x0..x{l-1}, target point x{l}..x{2l-1}).  A quantifier-free formula is
also the evaluator or membership test: solve.eval_qf reads it exactly on
rational values, else this module reads it elementwise on float arrays (one
entry per parameter row, point and neighbor draw) with the value fold of
stratdef.formula (eval_term, _compare, _fold).  Formulas are built without
numpy, and loading this module loads neither numpy nor stratdef.solve: only
the array evaluation, the samplers and the label kernel load numpy, and
only exact rational input and the earth-mover cost load solve, each where
it runs.
The sigmoid network and the l1, general-exponent, KL and earth-mover balls,
whose formulas have witnesses, and the floor partition, which has none, keep
numeric bodies of their own.

Strategic labels have one kernel, batch_strategic_labels, over one parameter
vector or a matrix of them.  Its closed form is reach_margin: a family with a
linear form (w, b), accepting iff w.x >= b, under a constant-radius l_p ball
(p in {1, 2, inf}, intervals included) or the identity reaches acceptance iff
x.w + r*||w||_q - b >= 0, q the dual exponent of p.  Every other pair is
labelled on the point itself and 64 neighbor draws: one call draws them once
for all its points, and each point keeps, through contains, the draws that
land in its neighborhood.  The label is a lower bound on acceptance (exact
under the identity, x's only neighbor).
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import UsageError, formula as fm
from .formula import _compare, _fold, _require_qf, eval_term, merge


def __getattr__(name: str):
    """solve's names that this module reads, loaded when first read: exact
    rational input (eval_qf) and the earth-mover cost (LinConstraint,
    lp_solve).  The functions import them where they run; this keeps them
    readable (and patchable) as attributes of the module."""
    if name in ("LinConstraint", "eval_qf", "lp_solve"):
        from . import solve
        return getattr(solve, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class FamilyError(UsageError):
    pass


# every parameter coordinate is drawn uniform on this interval
PARAM_BOX = (-2, 2)


# ---------------------------------------------------------------------------
# Hypothesis families


class HypothesisFamily:
    """A parametric classifier family defined by its formula."""

    def __init__(self, name: str, input_dim: int, param_dim: int,
                 emit_formula: Callable, linear: Optional[Callable] = None,
                 numeric: Optional[Callable] = None):
        self.name = name
        self.input_dim = input_dim
        self.param_dim = param_dim
        self.emit_formula = functools.cache(emit_formula)  # () -> fm.Formula
        # params -> (w, b) when the class is {x : w.x >= b}; enables
        # reach_margin
        self.linear = linear
        # (params, x) -> bool when the formula has witnesses evaluate cannot
        # read
        self.numeric = numeric

    def formula(self) -> fm.Formula:
        return self.emit_formula()

    def evaluate(self, params, x):
        """Whether params accept x: a bool for scalar coordinates, a bool
        array of their broadcast shape for array coordinates."""
        if len(params) != self.param_dim or len(x) != self.input_dim:
            raise FamilyError(f"{self.name} takes {self.param_dim} "
                              f"parameters and {self.input_dim} inputs")
        if self.numeric is not None:
            return self.numeric(params, x)
        return _holds(self.formula(), merge(x=x, a=params))

    def draw_params(self, rng, n: Optional[int] = None):
        """One vector (or n, as matrix rows) with every coordinate uniform on
        PARAM_BOX, drawn by the numpy Generator rng."""
        return rng.uniform(*PARAM_BOX, (self.param_dim,) if n is None
                           else (n, self.param_dim))


def _dimension(l: int) -> None:
    """Reject a point dimension l outside [1, MAX_PARAM_DIM]: R^l needs a
    coordinate, and formulas and samplers grow with l."""
    if not 1 <= l <= fm.MAX_PARAM_DIM:
        raise FamilyError(f"dimension l must be in [1, {fm.MAX_PARAM_DIM}], "
                          f"got {l}")


def halfspace(l: int) -> HypothesisFamily:
    """a0*x0 + ... + a{l-1}*x{l-1} >= a{l}; param_dim = l + 1, rejected
    above MAX_PARAM_DIM."""
    _dimension(l)
    k = _capped(l + 1)

    def emit():
        return fm.atom(fm.add(*[fm.mul(fm.a(i), fm.x(i)) for i in range(l)]),
                       ">=", fm.a(l))

    return HypothesisFamily("halfspace", l, k, emit,
                            linear=lambda P: (P[..., :l], P[..., l]))


def threshold() -> HypothesisFamily:
    """One-dimensional threshold x0 >= a0."""

    def emit():
        return fm.atom(fm.x(0), ">=", fm.a(0))

    def linear(P):
        import numpy as np
        return np.ones_like(P), P[..., 0]

    return HypothesisFamily("threshold", 1, 1, emit, linear=linear)


def monomial_exponents(l: int, max_degree: int):
    """Exponent multisets of total degree <= max_degree, graded order."""
    return [mono for d in range(max_degree + 1)
            for mono in itertools.combinations_with_replacement(range(l), d)]


def _monomial_count(l: int, degree: int) -> int:
    _dimension(l)
    if degree < 0:
        raise FamilyError(f"need degree >= 0, got {degree}")
    return math.comb(l + degree, degree)


def _capped(k: int) -> int:
    if k > fm.MAX_PARAM_DIM:
        raise FamilyError(f"parameter dimension {k} exceeds cap "
                          f"{fm.MAX_PARAM_DIM}")
    return k


def _poly_term(base: int, monos) -> fm.Term:
    """sum_j a{base+j} * prod_{i in monos[j]} x[i]."""
    return fm.add(*[fm.mul(fm.a(base + j), *[fm.x(i) for i in mono])
                    for j, mono in enumerate(monos)])


def polynomial_threshold(l: int, degree: int) -> HypothesisFamily:
    """P_theta(x) > 0 over all monomials of total degree <= degree.

    param_dim = binomial(l + degree, degree), rejected above MAX_PARAM_DIM.
    """
    k = _capped(_monomial_count(l, degree))

    def emit():
        return fm.atom(_poly_term(0, monomial_exponents(l, degree)), ">",
                       fm.const(0))

    return HypothesisFamily(f"ptf_deg{degree}", l, k, emit)


def decision_tree(l: int, depth: int, split_degree: int,
                  leaf_labels: Optional[Sequence[int]] = None
                  ) -> HypothesisFamily:
    """Complete binary tree with polynomial splits of the given degree.

    Each of the 2^depth - 1 internal nodes owns its own coefficient block
    (binomial(l + q, q) entries); x moves right iff the node polynomial is
    >= 0.  Leaf labels are fixed at construction (default 0101...);
    parameters are the split coefficients only, so param_dim =
    (2^depth - 1) * binomial(l + q, q), rejected above MAX_PARAM_DIM.

    The formula tests each node once: node j reads (p_j < 0 and left) or
    (p_j >= 0 and right), without a side that has no positive leaf below
    it; a positive leaf adds no conjunct, and no positive leaf gives 0 > 1.
    """
    # above depth top the 2^depth - 1 nodes alone exceed MAX_PARAM_DIM:
    # rejected before 2^depth is computed
    top = fm.MAX_PARAM_DIM.bit_length() - 1
    if not 1 <= depth <= top:
        raise FamilyError(f"tree depth must be in [1, {top}], got {depth}")
    block = _monomial_count(l, split_degree)
    n_leaves = 1 << depth
    k = _capped((n_leaves - 1) * block)
    if leaf_labels is None:
        leaf_labels = [0, 1] * (n_leaves // 2)
    if len(leaf_labels) != n_leaves or \
            any(b not in (0, 1) for b in leaf_labels):
        raise FamilyError(f"need {n_leaves} leaf labels in {{0,1}}")

    def emit():
        monos = monomial_exponents(l, split_degree)
        # node j + 1 (heap order, root 1) splits on polys[j]
        polys = [_poly_term(j * block, monos) for j in range(n_leaves - 1)]

        def below(node):
            # node's class: True at a positive leaf, None with none below
            if node >= n_leaves:
                return True if leaf_labels[node - n_leaves] else None
            sides = [(fm.atom(polys[node - 1], rel, fm.const(0)), below(child))
                     for child, rel in ((2 * node, "<"), (2 * node + 1, ">="))]
            sides = [test if sub is True else fm.conj(test, sub)
                     for test, sub in sides if sub is not None]
            return fm.disj(*sides) if len(sides) == 2 else \
                next(iter(sides), None)
        # no positive leaf (None): the empty class
        return below(1) or fm.atom(fm.const(0), ">", fm.const(1))

    return HypothesisFamily(f"tree_d{depth}_q{split_degree}", l, k, emit)


def sigmoid_network(widths: Sequence[int]) -> HypothesisFamily:
    """Fully connected network with logistic activations.

    widths = (input_dim, d1, ..., 1).  The classifier accepts iff the affine
    input to the output neuron is >= 0.  The formula uses a witness triple
    (r, q, z) per neuron: r is the affine input, q = exp(r), and
    z*q + z - q = 0 pins z to the logistic value q / (1 + q) = sigma(r).
    """
    widths = tuple(int(d) for d in widths)
    if len(widths) < 2 or widths[-1] != 1 or any(d < 1 for d in widths):
        raise FamilyError("widths must be (input_dim, ..., 1)")
    l = widths[0]
    layer_dims = widths[1:]
    k = _capped(sum(d * (prev + 1)
                    for prev, d in zip(widths[:-1], widths[1:])))

    layout = {}  # (layer, neuron) -> (weight base index, bias index)
    pos = 0
    for j, (prev, d) in enumerate(zip(widths[:-1], widths[1:])):
        for i in range(d):
            layout[(j, i)] = (pos, pos + prev)
            pos += prev + 1

    def numeric(params, x):
        import numpy as np
        num = _field(params, x, exact=False)
        z = [num(v) for v in x]
        for j, d in enumerate(layer_dims):
            r = [sum(num(params[wbase + s]) * v for s, v in enumerate(z)) +
                 num(params[bidx])
                 for wbase, bidx in (layout[(j, i)] for i in range(d))]
            with np.errstate(over="ignore"):  # exp(-v) = inf: the limit 0
                z = [1.0 / (1.0 + np.exp(-v)) for v in r]
        return r[-1] >= 0

    def emit():
        atoms = []
        neuron = 0
        prev_z = [fm.x(s) for s in range(l)]
        final_r = None
        for j, d in enumerate(layer_dims):
            next_z = []
            for i in range(d):
                wr, wq, wz = (fm.w(3 * neuron), fm.w(3 * neuron + 1),
                              fm.w(3 * neuron + 2))
                neuron += 1
                wbase, bidx = layout[(j, i)]
                affine = fm.add(*[fm.mul(fm.a(wbase + s), prev_z[s])
                                  for s in range(len(prev_z))],
                                fm.a(bidx))
                atoms.append(fm.atom(wr, "=", affine))
                atoms.append(fm.atom(wq, "=", fm.Exp(wr)))
                atoms.append(fm.atom(fm.add(fm.mul(wz, wq), wz), "=", wq))
                next_z.append(wz)
                final_r = wr
            prev_z = next_z
        atoms.append(fm.atom(final_r, ">=", fm.const(0)))
        return fm.Exists(tuple(range(3 * neuron)), fm.conj(*atoms))

    return HypothesisFamily(f"nn_{'x'.join(map(str, widths))}", l, k, emit,
                            numeric=numeric)


# ---------------------------------------------------------------------------
# Neighborhood systems


class NeighborhoodSystem:
    """A map x -> N_x with membership test, emitter and sampler.

    The formula, which a system that is not definable lacks, is over a
    doubled x block: coordinates 0..dim-1 are the source point,
    dim..2*dim-1 the target.  Without a contains of its own, membership
    reads that formula, built on the first membership test: the label
    paths that read a closed form never build it.  radius is the constant
    radius of every N_x (0 for the identity) and p the exponent of an l_p
    ball; either is None where the system has none.
    """

    def __init__(self, name: str, dim: int,
                 contains: Optional[Callable] = None,
                 emit_formula: Optional[Callable] = None,
                 sample: Optional[Callable] = None, kind: str = "generic",
                 p: Optional[object] = None, radius: Optional[object] = None):
        self.name = name
        self.dim = dim
        self.emit_formula = emit_formula  # () -> fm.Formula
        if contains is None:
            if emit_formula is None:
                self.formula()  # raises: nothing decides membership
            f = functools.cache(emit_formula)
            contains = lambda x, y: _holds(f(), merge(x=(*x, *y)))
        self.contains = contains  # (x, y) -> bool
        # (X, rng, budget) -> (draws [m, budget, l], keep broadcasting to
        # [m, budget]): a call's draws are shared by its m points, and
        # keep[i, j] says whether draw j of point i lies in N_x
        self.sample = sample
        self.kind = kind
        self.p = p
        self.radius = radius

    def formula(self) -> fm.Formula:
        if self.emit_formula is None:
            raise FamilyError(f"neighborhood {self.name} has no formula")
        return self.emit_formula()


def _floats(v):
    """v as a float ndarray: the one conversion of the array code."""
    import numpy as np
    return np.asarray(v, dtype=float)


def _holds(f: fm.Formula, sigma):
    """f at sigma: eval_qf exactly when every value is rational, else
    elementwise on float arrays with no tolerance (Not/And/Or are ~/&/|),
    broadcast to the values' shape (a bool for scalar values).  Term values
    are kept by term object (f owns them for the whole call): a tree's node
    polynomial serves both tests of the node."""
    if sigma.is_exact():
        from .solve import eval_qf
        return eval_qf(f, sigma, mode="exact")
    import numpy as np
    shape = np.broadcast_shapes(*{np.shape(v) for v in (*sigma.x, *sigma.a)})
    _require_qf(f)
    sides = {}

    def side(t: fm.Term):
        if id(t) not in sides:
            sides[id(t)] = eval_term(t, sigma, _floats, np.exp)
        return sides[id(t)]

    def atom(at: fm.Compare):
        return _compare(side(at.lhs), at.rel, side(at.rhs))

    out = _fold(f, atom, np.bool_)
    return np.broadcast_to(out, shape) if shape else bool(out)


def _radius(r) -> Fraction:
    """r as a Fraction, rejected unless 0 <= 2r <= the largest float (2r is
    the width the samplers draw over)."""
    r = Fraction(r)
    if not 0 <= 2 * r <= sys.float_info.max:
        raise FamilyError("radius must be in [0, largest float / 2]")
    return r


def _field(*seqs, exact: bool = True) -> Callable:
    """Conversion to float arrays when an input is an array of arrays (one
    array per coordinate, broadcasting over parameter rows, points and
    neighbor draws), else Fraction when exact and every entry is rational,
    float otherwise."""
    if any(getattr(s, "ndim", 0) > 1 for s in seqs):
        return _floats
    exact = exact and all(isinstance(v, (Fraction, int))
                          for s in seqs for v in s)
    return Fraction if exact else float


def _with_box_sampler(neigh: NeighborhoodSystem,
                      radius_at: Callable) -> NeighborhoodSystem:
    """neigh with a sampler drawing budget offsets uniform on [-1, 1]^l once
    per call, each point scaling them by its half-width radius_at(x) and
    keeping the draws that land in N_x."""

    def sample(X, rng, budget):
        Xc = _floats(X).T[:, :, None]  # [l, m, 1]
        r = radius_at(Xc)
        # -r + 2r*U is rng.uniform(-r, r) to the bit
        Y = Xc + (-r + 2 * r * rng.random((budget, neigh.dim)).T[:, None, :])
        return Y.transpose(1, 2, 0), neigh.contains(Xc, Y)
    neigh.sample = sample
    return neigh


def identity(l: int) -> NeighborhoodSystem:
    _dimension(l)

    def emit():
        return fm.conj(*[fm.atom(fm.x(l + i), "=", fm.x(i))
                         for i in range(l)])

    def sample(X, rng, budget):
        return _floats(X)[:, None][:, :0], True  # no draws: [m, 0, l]

    return NeighborhoodSystem("identity", l, emit_formula=emit, sample=sample,
                              kind="identity", radius=Fraction(0))


def lp_ball(l: int, p, radius) -> NeighborhoodSystem:
    """N_x = closed l_p ball of the given radius around x.

    Exact membership for p in {1, 2, inf}, tolerance-free on floats.  For p
    outside {1, 2, inf} the radius must be 1: the formula encodes
    |x_i - y_i|^p through exp/log witnesses and a general rational radius
    would need the irrational constant r^p.
    """
    _dimension(l)
    inf = p in ("inf", math.inf)
    if not inf:
        p = Fraction(p)
        # membership on floats raises |x - y| to float(p)
        if not 0 < p <= sys.float_info.max or float(p) == 0:
            raise FamilyError("p must be positive with a nonzero, finite "
                              "float value")
    radius = _radius(radius)
    if not (inf or p in (1, 2)) and radius != 1:
        raise FamilyError("general-exponent balls support radius 1 only")

    def contains(x, y):  # p = 1 or a general p: the formula has witnesses
        num = _field(x, y, exact=p == 1)
        return sum(abs(num(u) - num(v)) ** num(p) for u, v in zip(x, y)) \
            <= num(radius) ** num(p)

    def emit():
        xs = [fm.x(i) for i in range(l)]
        ys = [fm.x(l + i) for i in range(l)]
        if inf:
            parts = []
            for xi, yi in zip(xs, ys):
                parts.append(fm.atom(fm.sub(xi, yi), "<=", fm.const(radius)))
                parts.append(fm.atom(fm.sub(yi, xi), "<=", fm.const(radius)))
            return fm.conj(*parts)
        if p == 2:
            sq = fm.add(*[fm.mul(fm.sub(xi, yi), fm.sub(xi, yi))
                          for xi, yi in zip(xs, ys)])
            return fm.atom(sq, "<=", fm.const(radius * radius))
        if p == 1:
            ts = [fm.w(i) for i in range(l)]
            parts = []
            for xi, yi, ti in zip(xs, ys, ts):
                parts.append(fm.atom(fm.sub(xi, yi), "<=", ti))
                parts.append(fm.atom(fm.sub(yi, xi), "<=", ti))
            parts.append(fm.atom(fm.add(*ts), "<=", fm.const(radius)))
            return fm.Exists(tuple(range(l)), fm.conj(*parts))
        # general exponent: witnesses per coordinate are
        #   y_i = |x_i - x'_i|^p, e_i = |x_i - x'_i|, z_i = log e_i,
        #   u_i = p * z_i, realized through two exp atoms.
        parts = []
        indices = []
        for i in range(l):
            wy, wz, wu, we = (fm.w(4 * i), fm.w(4 * i + 1),
                              fm.w(4 * i + 2), fm.w(4 * i + 3))
            indices.extend(v.index for v in (wy, wz, wu, we))
            xi, yi = xs[i], ys[i]
            zero_branch = fm.conj(fm.atom(xi, "=", yi),
                                  fm.atom(wy, "=", fm.const(0)),
                                  fm.atom(wz, "=", fm.const(0)),
                                  fm.atom(wu, "=", fm.const(0)),
                                  fm.atom(we, "=", fm.const(1)))
            pos_branch = fm.conj(
                fm.disj(fm.atom(we, "=", fm.sub(xi, yi)),
                        fm.atom(we, "=", fm.sub(yi, xi))),
                fm.atom(we, "=", fm.Exp(wz)),
                fm.atom(wu, "=", fm.mul(fm.const(p), wz)),
                fm.atom(wy, "=", fm.Exp(wu)))
            parts.append(fm.disj(zero_branch, pos_branch))
        parts.append(fm.atom(fm.add(*[fm.w(4 * i) for i in range(l)]),
                             "<=", fm.const(1)))
        return fm.Exists(tuple(indices), fm.conj(*parts))

    name = f"l{'inf' if inf else p}_ball_r{radius}"
    return _with_box_sampler(
        NeighborhoodSystem(name, l, None if inf or p == 2 else contains, emit,
                           kind="lp",
                           p=(math.inf if inf else p), radius=radius),
        lambda x: float(radius))


def lp2_ball_variable_radius(l: int, coord: int) -> NeighborhoodSystem:
    """Euclidean ball whose radius is max(x_coord, 0) at the source point."""
    _dimension(l)
    if not 0 <= coord < l:
        raise FamilyError("radius coordinate out of range")

    def emit():
        xs = [fm.x(i) for i in range(l)]
        ys = [fm.x(l + i) for i in range(l)]
        xc = xs[coord]
        sq = fm.add(*[fm.mul(fm.sub(xi, yi), fm.sub(xi, yi))
                      for xi, yi in zip(xs, ys)])
        moving = fm.conj(fm.atom(xc, ">=", fm.const(0)),
                         fm.atom(sq, "<=", fm.mul(xc, xc)))
        frozen = fm.conj(fm.atom(xc, "<", fm.const(0)),
                         *[fm.atom(xi, "=", yi) for xi, yi in zip(xs, ys)])
        return fm.disj(moving, frozen)

    return _with_box_sampler(
        NeighborhoodSystem(f"l2_ball_var_x{coord}", l, emit_formula=emit,
                           kind="lp_var"),
        lambda x: x[coord].clip(0))


def interval_radius(r) -> NeighborhoodSystem:
    """One-dimensional closed interval [x - r, x + r]."""
    sys = lp_ball(1, "inf", r)
    sys.name = f"interval_r{Fraction(r)}"
    sys.kind = "interval"
    return sys


def gaussian_kl_location(radius) -> NeighborhoodSystem:
    """Location family of unit-variance Gaussians under KL divergence.

    KL between unit-variance Gaussians with means m and m' is
    (m - m')^2 / 2, so the ball is defined by one quadratic atom.
    """
    radius = _radius(radius)

    def emit():
        d = fm.sub(fm.x(0), fm.x(1))
        return fm.atom(fm.mul(d, d), "<=", fm.const(2 * radius))

    def sample(X, rng, budget):
        r = math.sqrt(2 * float(radius))
        return _floats(X)[:, None] + rng.uniform(-r, r, (budget, 1)), True

    return NeighborhoodSystem(f"gauss_kl_r{radius}", 1, emit_formula=emit,
                              sample=sample, kind="gauss_kl", radius=radius)


def _check_simplex(x):
    num = _field(x)
    vals = [num(v) for v in x]
    sum_tol, neg_tol = (0, 0) if num is Fraction else (1e-7, 1e-12)
    if abs(sum(vals) - 1) > sum_tol or any(v < -neg_tol for v in vals):
        raise FamilyError(f"point {x} is not on the probability simplex")
    return vals


def kl_ball(l: int, radius) -> NeighborhoodSystem:
    """N_x = distributions y on the l-simplex with KL(x || y) <= radius.

    Membership uses float logarithms (the divergence is transcendental);
    the formula realizes log(x_i / y_i) through one exp witness per
    coordinate.
    """
    _dimension(l)
    radius = _radius(radius)

    def contains(x, y):
        xv = _check_simplex(x)
        yv = _check_simplex(y)
        total = 0.0
        for xi, yi in zip(xv, yv):
            if float(xi) <= 0:
                continue
            if float(yi) <= 0:
                return False
            total += float(xi) * math.log(float(xi) / float(yi))
        return total <= float(radius)

    def emit():
        xs = [fm.x(i) for i in range(l)]
        ys = [fm.x(l + i) for i in range(l)]
        parts = []
        for v in (*xs, *ys):
            parts.append(fm.atom(v, ">=", fm.const(0)))
        parts.append(fm.atom(fm.add(*xs), "=", fm.const(1)))
        parts.append(fm.atom(fm.add(*ys), "=", fm.const(1)))
        indices = []
        for i in range(l):
            wz, we = fm.w(2 * i), fm.w(2 * i + 1)
            indices.extend((wz.index, we.index))
            # z_i = log(x_i / y_i) realized as y_i * exp(z_i) = x_i
            pos = fm.conj(fm.atom(xs[i], ">", fm.const(0)),
                          fm.atom(ys[i], ">", fm.const(0)),
                          fm.atom(we, "=", fm.Exp(wz)),
                          fm.atom(fm.mul(ys[i], we), "=", xs[i]))
            zero = fm.conj(fm.atom(xs[i], "=", fm.const(0)),
                           fm.atom(wz, "=", fm.const(0)),
                           fm.atom(we, "=", fm.const(1)))
            parts.append(fm.disj(pos, zero))
        parts.append(fm.atom(fm.add(*[fm.mul(xs[i], fm.w(2 * i))
                                      for i in range(l)]),
                             "<=", fm.const(radius)))
        return fm.Exists(tuple(indices), fm.conj(*parts))

    def sample(X, rng, budget):
        U, t = _mixing_draws(rng, l, budget)
        Y = (1 - t) * _floats(X)[:, None] + t * U
        return Y, [[contains(x, y) for y in ys] for x, ys in zip(X, Y)]

    return NeighborhoodSystem(f"kl_r{radius}", l, contains, emit, sample,
                              kind="kl", radius=radius)


def _mixing_draws(rng, l: int, budget: int):
    """The kl and emd samplers' draws y = (1 - t) x + t u: U [budget, l]
    with Dirichlet(1, ..., 1) rows, t [budget, 1] uniform on [0, 1), drawn
    one (u, t) pair at a time."""
    U, t = map(_floats, zip(*[(rng.dirichlet([1.0] * l), rng.uniform(0, 1))
                              for _ in range(budget)]))
    return U, t[:, None]


def footnote_metric() -> tuple:
    """Ground metric on three points: d(1,2) = 1, d(1,3) = 2, d(2,3) = 1."""
    f = Fraction
    return ((f(0), f(1), f(2)),
            (f(1), f(0), f(1)),
            (f(2), f(1), f(0)))


def emd_value(x, y, ground: Sequence) -> Fraction:
    """Exact earth-mover cost between equal-mass nonnegative vectors."""
    l = len(ground)
    xv = [Fraction(v) for v in x]
    yv = [Fraction(v) for v in y]
    if len(xv) != l or len(yv) != l:
        raise FamilyError("mass vector dimension mismatch")
    if any(v < 0 for v in (*xv, *yv)) or sum(xv) != sum(yv):
        raise FamilyError("transport needs equal-mass nonnegative vectors")
    from .solve import LinConstraint, lp_solve
    cells = [(i, j) for i in range(l) for j in range(l)]
    # one variable per cell (i, j); row k sums the mass leaving x_k, row
    # l + k the mass reaching y_k
    rows = [LinConstraint(tuple(Fraction(c[side] == k) for c in cells), "=",
                          mass)
            for side, masses in enumerate((xv, yv))
            for k, mass in enumerate(masses)]
    res = lp_solve([ground[i][j] for i, j in cells], rows)
    if res.status != "optimal":
        raise FamilyError(f"transport program returned {res.status}")
    return res.value


def emd_ball(ground: Sequence, radius) -> NeighborhoodSystem:
    """Earth-mover ball over a finite ground metric.

    Membership solves the transport program exactly; the formula instead
    asserts existence of a coupling of cost <= radius (l^2 witnesses), which
    defines the same set.
    """
    l = len(ground)
    g = tuple(tuple(Fraction(v) for v in row) for row in ground)
    for i in range(l):
        if g[i][i] != 0:
            raise FamilyError("ground metric must vanish on the diagonal")
        for j in range(l):
            if g[i][j] != g[j][i] or g[i][j] < 0:
                raise FamilyError("ground metric must be symmetric and "
                                  "nonnegative")
    radius = _radius(radius)

    def contains(x, y):
        return emd_value(x, y, g) <= radius

    def emit():
        xs = [fm.x(i) for i in range(l)]
        ys = [fm.x(l + i) for i in range(l)]
        idx = lambda i, j: i * l + j
        indices = tuple(range(l * l))
        parts = [fm.atom(fm.w(k), ">=", fm.const(0)) for k in indices]
        for i in range(l):
            parts.append(fm.atom(fm.add(*[fm.w(idx(i, j)) for j in range(l)]),
                                 "=", xs[i]))
        for j in range(l):
            parts.append(fm.atom(fm.add(*[fm.w(idx(i, j)) for i in range(l)]),
                                 "=", ys[j]))
        cost_terms = [fm.mul(fm.const(g[i][j]), fm.w(idx(i, j)))
                      for i in range(l) for j in range(l) if g[i][j] != 0]
        parts.append(fm.atom(fm.add(*cost_terms), "<=", fm.const(radius)))
        return fm.Exists(indices, fm.conj(*parts))

    def sample(X, rng, budget):
        U, t = _mixing_draws(rng, l, budget)
        draws, keep = [], []
        for x in X:
            xv = _floats(x)
            mass = sum(Fraction(v) for v in x)
            # masses rounded to 6 decimals, the rounding gap put on y_0
            ys = [[Fraction(round(v, 6)) for v in row]
                  for row in (1 - t) * xv + t * (U * sum(xv))]
            ys = [(y[0] + mass - sum(y), *y[1:]) for y in ys]
            draws.append(ys)
            keep.append([y[0] >= 0 and contains(x, y) for y in ys])
        return _floats(draws), keep

    return NeighborhoodSystem(f"emd_r{radius}", l, contains, emit, sample,
                              kind="emd", radius=radius)


def floor_partition() -> NeighborhoodSystem:
    """N_x = the unit cell [floor(x), floor(x) + 1).

    Not definable over the reals with exp: the indicator of the integer
    lattice is not o-minimal, so this system is evaluator-only and is
    excluded from complexity reports.
    """

    def contains(x, y):
        return math.floor(x[0]) == math.floor(y[0])

    def sample(X, rng, budget):
        import numpy as np
        base = np.floor(_floats(X))[:, None]
        return base + rng.uniform(0, 1, (budget, 1)), True

    return NeighborhoodSystem("floor_partition", 1, contains, None, sample,
                              kind="floor")


# ---------------------------------------------------------------------------
# Strategic labels


# ord of the dual norm ||.||_q for each l_p exponent p (1/p + 1/q = 1)
_DUAL_ORD = {1: math.inf, 2: 2, math.inf: 1}
# neighbor draws of a sampled-label call, shared by its points; the most
# (parameter row, candidate point) pairs labelled at once, which bounds the
# working set
SAMPLED_NEIGHBORS = 64
_BLOCK = 1 << 15


def _closed_form(family: HypothesisFamily, neigh: NeighborhoodSystem) -> bool:
    return family.linear is not None and \
        neigh.kind in ("identity", "lp", "interval") and \
        not (neigh.radius and neigh.p not in _DUAL_ORD)


def reach_margin(family: HypothesisFamily, neigh: NeighborhoodSystem,
                 params, X):
    """Signed margin x.w + r*||w||_q - b of strategic acceptance, or None.

    params is one vector or a matrix with one vector per row, X one point or
    a matrix with one point per row; parameter rows come first, [draws, m].
    A nonnegative margin means some neighbor is accepted: the best neighbor
    moves by r along the dual-norm direction of w.  Covered: families with a
    linear form under the identity (r = 0) and constant-radius l_p balls
    with p in {1, 2, inf}, intervals included.  Other pairs give None.
    """
    if not _closed_form(family, neigh):
        return None
    import numpy as np
    w, b = family.linear(_floats(params))
    gain = float(neigh.radius) * \
        np.linalg.norm(w, _DUAL_ORD[neigh.p], axis=-1) if neigh.radius else 0.0
    # one matrix-vector product per parameter row, as for a single vector
    dots = (_floats(X) @ w[..., None])[..., 0]
    return (dots.T + gain - b).T


def batch_strategic_labels(family: HypothesisFamily,
                           neigh: NeighborhoodSystem, params,
                           X):
    """Strategic labels of the points X (one per row): shape [m] for one
    parameter vector, [draws, m] for a matrix with one vector per row.

    Closed-form pairs take reach_margin.  Otherwise one call
    neigh.sample(X, default_rng(0), SAMPLED_NEIGHBORS) draws the neighbors of
    every point, and x is accepted iff the family accepts x or one of its
    kept draws.  Parameter rows are labelled in blocks of at most _BLOCK
    (rows x candidates) pairs, each written into one preallocated label
    matrix.
    """
    import numpy as np
    P = _floats(params)
    rows = P.reshape(-1, P.shape[-1])
    if _closed_form(family, neigh):
        Y = _floats(X)
        cands = len(Y)
        label = lambda R: reach_margin(family, neigh, R, Y) >= 0
    else:
        if neigh.sample is None:
            raise FamilyError(f"no decision procedure for {family.name} "
                              f"under {neigh.name}")
        draws, keep = neigh.sample(X, np.random.default_rng(0),
                                   SAMPLED_NEIGHBORS)
        # each point in front of its draws: [l, m, 1 + budget]
        Y = np.concatenate([_floats(X)[:, None], draws], 1).transpose(2, 0, 1)
        keep = np.insert(np.broadcast_to(keep, draws.shape[:2]), 0, True, 1)
        cands = keep.size
        label = lambda R: (keep & family.evaluate(R.T[:, :, None, None],
                                                  Y)).any(-1)
    step = max(1, _BLOCK // max(1, cands))
    out = np.empty((len(rows), len(X)), dtype=bool)
    for i in range(0, len(rows), step):
        out[i:i + step] = label(rows[i:i + step])
    return out if P.ndim > 1 else out[0]


def strategic_label(family: HypothesisFamily, neigh: NeighborhoodSystem,
                    params, x) -> bool:
    """Label of the point x: row 0 of batch_strategic_labels on [x], except
    under the identity, where family.evaluate reads the formula exactly on
    rational input."""
    if neigh.kind == "identity":
        return bool(family.evaluate(params, x))
    return bool(batch_strategic_labels(family, neigh, params, [x])[0])


# ---------------------------------------------------------------------------
# Registry


def _parse_kwargs(body: str) -> dict:
    out = {}
    for piece in body.split(",") if body else ():
        if "=" not in piece:
            raise FamilyError(f"bad option {piece!r}; expected key=value")
        key, val = (s.strip() for s in piece.split("=", 1))
        if key in out:
            raise FamilyError(f"repeated option {key!r}")
        out[key] = val
    return out


def _num(v: str):
    if v == "inf":
        return math.inf
    try:
        return int(v)
    except ValueError:
        return Fraction(v)


def _threshold(l="1") -> HypothesisFamily:
    if int(l) != 1:
        raise ValueError("threshold is one-dimensional: l must be 1")
    return threshold()


def _tree(l="2", depth="2", q="1", labels=None) -> HypothesisFamily:
    return decision_tree(int(l), int(depth), int(q),
                         None if labels is None else [int(c) for c in labels])


# Spec name -> builder.  A builder's parameters are the keys its spec
# accepts and their defaults stand in for omitted keys; any other key is an
# error rather than silently ignored.
_FAMILIES = {
    "halfspace": lambda l="2": halfspace(int(l)),
    "threshold": _threshold,
    "ptf": lambda l="2", D="2": polynomial_threshold(int(l), int(D)),
    "tree": _tree,
    "nn": lambda widths="2-2-1": sigmoid_network(
        [int(d) for d in widths.split("-")]),
}

_NEIGHBORHOODS = {
    "identity": lambda l="2": identity(int(l)),
    "lp": lambda l="2", p="2", r="1": lp_ball(int(l), _num(p), Fraction(r)),
    "linf": lambda l="2", r="1": lp_ball(int(l), "inf", Fraction(r)),
    "l1": lambda l="2", r="1": lp_ball(int(l), 1, Fraction(r)),
    "lp_var": lambda l="2", coord="1": lp2_ball_variable_radius(int(l),
                                                                int(coord)),
    "interval": lambda r="1": interval_radius(Fraction(r)),
    "kl": lambda l="3", r="1": kl_ball(int(l), Fraction(r)),
    "gauss_kl": lambda r="1": gaussian_kl_location(Fraction(r)),
    "emd": lambda r="1": emd_ball(footnote_metric(), Fraction(r)),
    "floor": floor_partition,
}


def _from_spec(builders: dict, kind: str, spec: str):
    name, _, body = spec.partition(":")
    kw = _parse_kwargs(body)
    if name not in builders:
        raise FamilyError(f"unknown {kind} {name!r}")
    code = builders[name].__code__
    unknown = set(kw) - set(code.co_varnames[:code.co_argcount])
    if unknown:
        raise FamilyError(f"bad {kind} spec {spec!r}: unknown key(s) "
                          f"{', '.join(sorted(unknown))}")
    try:
        return builders[name](**kw)
    except (ValueError, ZeroDivisionError) as exc:
        raise FamilyError(f"bad {kind} spec {spec!r}: {exc}") from exc


def make_family(spec: str) -> HypothesisFamily:
    """Build a hypothesis family from a spec string.

    Examples: 'halfspace:l=2', 'threshold', 'ptf:l=2,D=3',
    'tree:l=2,depth=2,q=1,labels=0110', 'nn:widths=2-2-1'.
    """
    return _from_spec(_FAMILIES, "family", spec)


def make_neighborhood(spec: str) -> NeighborhoodSystem:
    """Build a neighborhood system from a spec string.

    Examples: 'identity:l=2', 'lp:l=2,p=2,r=1/2', 'linf:l=2,r=1',
    'l1:l=2,r=1', 'lp_var:l=2,coord=1', 'interval:r=1/2', 'kl:l=3,r=1',
    'gauss_kl:r=1/2', 'emd:r=1' (three-point ground metric), 'floor'.
    """
    return _from_spec(_NEIGHBORHOODS, "neighborhood", spec)
