"""Built-in hypothesis families and neighborhood systems.

Each hypothesis family couples a semantic evaluator with a formula emitter
over the variable blocks x (inputs) and a (parameters); each neighborhood
system couples a membership test with an emitter over a doubled x block
(source point x0..x{l-1}, target point x{l}..x{2l-1}).  Evaluators and
emitters are kept in lock-step so that formula-level reasoning and direct
evaluation can be cross-checked against each other.

Membership tests use exact rational arithmetic whenever the metric allows it
(p in {1, 2, inf}, Gaussian location, transport cost); otherwise floats with
a documented tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from . import formula as fm
from .solve import FLOAT_TOL, LPInstance, lp_solve


class FamilyError(Exception):
    pass


MAX_PARAM_DIM = 5000


# ---------------------------------------------------------------------------
# Hypothesis families


@dataclass
class HypothesisFamily:
    """A parametric classifier family with a matching formula."""

    name: str
    input_dim: int
    param_dim: int
    evaluate: Callable  # (params, x) -> bool
    emit_formula: Callable  # () -> fm.Formula
    param_box: tuple = ((-2, 2),)
    batch_evaluate: Optional[Callable] = None  # (params, X ndarray) -> bools

    def formula(self) -> fm.Formula:
        return self.emit_formula()


def _dot_term(weights, xs) -> fm.Term:
    return fm.add(*[fm.mul(wv, xv) for wv, xv in zip(weights, xs)])


def halfspace(l: int) -> HypothesisFamily:
    """a0*x0 + ... + a{l-1}*x{l-1} >= a{l}; param_dim = l + 1."""
    if l < 1:
        raise FamilyError("halfspace needs dimension >= 1")

    def evaluate(params, x):
        if len(params) != l + 1 or len(x) != l:
            raise FamilyError("halfspace arity mismatch")
        s = sum(Fraction(p) * Fraction(v) for p, v in zip(params, x)) \
            if _all_exact(params, x) else \
            sum(float(p) * float(v) for p, v in zip(params, x))
        return s >= (Fraction(params[l]) if _all_exact(params, x)
                     else float(params[l]))

    def emit():
        return fm.atom(_dot_term([fm.a(i) for i in range(l)],
                                 [fm.x(i) for i in range(l)]),
                       ">=", fm.a(l))

    def batch(params, X):
        w = np.asarray([float(v) for v in params[:l]])
        return X @ w >= float(params[l])

    return HypothesisFamily("halfspace", l, l + 1, evaluate, emit,
                            batch_evaluate=batch)


def threshold() -> HypothesisFamily:
    """One-dimensional threshold x0 >= a0."""

    def evaluate(params, x):
        return x[0] >= params[0]

    def emit():
        return fm.atom(fm.x(0), ">=", fm.a(0))

    def batch(params, X):
        return X[:, 0] >= float(params[0])

    return HypothesisFamily("threshold", 1, 1, evaluate, emit,
                            batch_evaluate=batch)


def monomial_exponents(l: int, max_degree: int):
    """Exponent multisets of total degree <= max_degree, graded order."""
    out = []
    for d in range(max_degree + 1):
        out.extend(itertools.combinations_with_replacement(range(l), d))
    return out


def polynomial_threshold(l: int, degree: int,
                         max_params: int = MAX_PARAM_DIM) -> HypothesisFamily:
    """P_theta(x) > 0 over all monomials of total degree <= degree.

    param_dim = binomial(l + degree, degree), rejected above max_params.
    """
    monos = monomial_exponents(l, degree)
    k = len(monos)
    assert k == math.comb(l + degree, degree)
    if k > max_params:
        raise FamilyError(f"coefficient dimension {k} exceeds cap "
                          f"{max_params}")

    def evaluate(params, x):
        if len(params) != k:
            raise FamilyError("coefficient arity mismatch")
        exact = _all_exact(params, x)
        total = Fraction(0) if exact else 0.0
        for th, mono in zip(params, monos):
            term = Fraction(th) if exact else float(th)
            for i in mono:
                term *= Fraction(x[i]) if exact else float(x[i])
            total += term
        return total > 0

    def emit():
        terms = []
        for j, mono in enumerate(monos):
            terms.append(fm.mul(fm.a(j), *[fm.x(i) for i in mono]))
        return fm.atom(fm.add(*terms), ">", fm.const(0))

    return HypothesisFamily(f"ptf_deg{degree}", l, k, evaluate, emit)


def decision_tree(l: int, depth: int, split_degree: int,
                  leaf_labels: Sequence[int],
                  max_params: int = MAX_PARAM_DIM) -> HypothesisFamily:
    """Complete binary tree with polynomial splits of the given degree.

    Each of the 2^depth - 1 internal nodes owns its own coefficient block
    (binomial(l + q, q) entries); x moves right iff the node polynomial is
    >= 0.  Leaf labels are fixed at construction; parameters are the split
    coefficients only, so param_dim = (2^depth - 1) * binomial(l + q, q).
    """
    if depth < 1:
        raise FamilyError("tree depth must be >= 1")
    n_leaves = 1 << depth
    if len(leaf_labels) != n_leaves or \
            any(b not in (0, 1) for b in leaf_labels):
        raise FamilyError(f"need {n_leaves} leaf labels in {{0,1}}")
    monos = monomial_exponents(l, split_degree)
    block = len(monos)
    n_nodes = n_leaves - 1
    k = n_nodes * block
    if k > max_params:
        raise FamilyError(f"coefficient dimension {k} exceeds cap "
                          f"{max_params}")

    def node_poly_value(params, node, x):
        base = (node - 1) * block
        total = 0.0
        for j, mono in enumerate(monos):
            term = float(params[base + j])
            for i in mono:
                term *= float(x[i])
            total += term
        return total

    def evaluate(params, x):
        if len(params) != k:
            raise FamilyError("coefficient arity mismatch")
        node = 1
        for _ in range(depth):
            right = node_poly_value(params, node, x) >= 0
            node = 2 * node + (1 if right else 0)
        return bool(leaf_labels[node - n_leaves])

    def node_poly_term(node):
        base = (node - 1) * block
        return fm.add(*[fm.mul(fm.a(base + j), *[fm.x(i) for i in mono])
                        for j, mono in enumerate(monos)])

    def emit():
        disjuncts = []
        for leaf in range(n_leaves):
            if not leaf_labels[leaf]:
                continue
            node = leaf + n_leaves
            conds = []
            while node > 1:
                parent = node // 2
                went_right = node % 2 == 1
                term = node_poly_term(parent)
                conds.append(fm.atom(term, ">=" if went_right else "<",
                                     fm.const(0)))
                node = parent
            disjuncts.append(fm.conj(*reversed(conds)))
        if not disjuncts:
            return fm.atom(fm.const(0), ">", fm.const(1))  # empty class
        return fm.disj(*disjuncts)

    return HypothesisFamily(f"tree_d{depth}_q{split_degree}", l, k,
                            evaluate, emit)


def sigmoid_network(widths: Sequence[int],
                    max_params: int = MAX_PARAM_DIM) -> HypothesisFamily:
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
    k = sum(d * (prev + 1)
            for prev, d in zip(widths[:-1], widths[1:]))
    if k > max_params:
        raise FamilyError(f"weight dimension {k} exceeds cap {max_params}")

    def param_layout():
        """(layer, neuron) -> (weight base index, bias index)."""
        out = {}
        pos = 0
        for j, (prev, d) in enumerate(zip(widths[:-1], widths[1:])):
            for i in range(d):
                out[(j, i)] = (pos, pos + prev)
                pos += prev + 1
        return out

    layout = param_layout()

    def evaluate(params, x):
        if len(params) != k:
            raise FamilyError("weight arity mismatch")
        z = [float(v) for v in x]
        r_out = 0.0
        for j, d in enumerate(layer_dims):
            nxt = []
            for i in range(d):
                wbase, bidx = layout[(j, i)]
                r = sum(float(params[wbase + s]) * z[s]
                        for s in range(len(z))) + float(params[bidx])
                r_out = r
                nxt.append(1.0 / (1.0 + math.exp(-r)))
            z = nxt
        return r_out >= 0

    def emit():
        indices = []
        atoms = []
        neuron = 0
        prev_z = [fm.x(s) for s in range(l)]
        final_r = None
        for j, d in enumerate(layer_dims):
            next_z = []
            for i in range(d):
                wr, wq, wz = (fm.w(3 * neuron), fm.w(3 * neuron + 1),
                              fm.w(3 * neuron + 2))
                indices.extend(v.index for v in (wr, wq, wz))
                neuron += 1
                wbase, bidx = layout[(j, i)]
                affine = fm.add(*[fm.mul(fm.a(wbase + s), prev_z[s])
                                  for s in range(len(prev_z))],
                                fm.a(bidx))
                atoms.append(fm.atom(wr, "=", affine))
                atoms.append(fm.Atom(fm.ExpGraph(wq, wr)))
                atoms.append(fm.atom(fm.add(fm.mul(wz, wq), wz), "=", wq))
                next_z.append(wz)
                final_r = wr
            prev_z = next_z
        atoms.append(fm.atom(final_r, ">=", fm.const(0)))
        return fm.Exists(tuple(indices), fm.conj(*atoms))

    return HypothesisFamily(f"nn_{'x'.join(map(str, widths))}", l, k,
                            evaluate, emit)


@dataclass
class FiniteSupportClass:
    """Hypotheses that are indicators of finite rational point sets."""

    supports: tuple  # tuple of tuples of Fractions

    def __post_init__(self):
        self.supports = tuple(tuple(Fraction(v) for v in s)
                              for s in self.supports)

    def labelers(self):
        return [(lambda x, s=frozenset(sup): Fraction(x) in s)
                for sup in self.supports]

    def pairwise_disjoint(self) -> bool:
        seen = set()
        for s in self.supports:
            for v in s:
                if v in seen:
                    return False
                seen.add(v)
        return True


# ---------------------------------------------------------------------------
# Neighborhood systems


@dataclass
class NeighborhoodSystem:
    """A map x -> N_x with membership test, emitter and sampler.

    The formula (when the system is definable) is over a doubled x block:
    coordinates 0..dim-1 are the source point, dim..2*dim-1 the target.
    """

    name: str
    dim: int
    contains: Callable  # (x, y) -> bool
    emit_formula: Optional[Callable] = None  # () -> fm.Formula
    sample: Optional[Callable] = None  # (x, rng, budget) -> list of points
    definable: bool = True
    kind: str = "generic"
    p: Optional[object] = None
    radius: Optional[object] = None

    def formula(self) -> fm.Formula:
        if not self.definable or self.emit_formula is None:
            raise FamilyError(f"neighborhood {self.name} has no formula")
        return self.emit_formula()


def _all_exact(*seqs) -> bool:
    return all(isinstance(v, (Fraction, int)) for s in seqs for v in s)


def _src(i: int) -> fm.Var:
    return fm.x(i)


def identity(l: int) -> NeighborhoodSystem:
    def contains(x, y):
        if _all_exact(x, y):
            return tuple(map(Fraction, x)) == tuple(map(Fraction, y))
        return all(abs(float(u) - float(v)) <= FLOAT_TOL
                   for u, v in zip(x, y))

    def emit():
        return fm.conj(*[fm.atom(fm.x(l + i), "=", fm.x(i))
                         for i in range(l)])

    def sample(x, rng, budget):
        return [tuple(x)]

    return NeighborhoodSystem("identity", l, contains, emit, sample,
                              kind="identity", radius=Fraction(0))


def lp_ball(l: int, p, radius) -> NeighborhoodSystem:
    """N_x = closed l_p ball of the given radius around x.

    Exact membership for p in {1, 2, inf}; float membership (tolerance-free
    comparison on floats) otherwise.  For p outside {1, 2, inf} the radius
    must be 1: the formula encodes |x_i - y_i|^p through exp/log witnesses
    and a general rational radius would need the irrational constant r^p.
    """
    inf = p in ("inf", math.inf)
    if not inf:
        p = Fraction(p)
        if p <= 0:
            raise FamilyError("p must be positive")
    radius = Fraction(radius)
    if radius < 0:
        raise FamilyError("radius must be nonnegative")
    special = inf or p in (1, 2)
    if not special and radius != 1:
        raise FamilyError("general-exponent balls support radius 1 only")

    def contains(x, y):
        if _all_exact(x, y) and special:
            dx = [Fraction(u) - Fraction(v) for u, v in zip(x, y)]
            if inf:
                return max((abs(d) for d in dx), default=Fraction(0)) <= radius
            if p == 1:
                return sum(abs(d) for d in dx) <= radius
            return sum(d * d for d in dx) <= radius * radius
        dx = [float(u) - float(v) for u, v in zip(x, y)]
        if inf:
            return max((abs(d) for d in dx), default=0.0) <= float(radius)
        return sum(abs(d) ** float(p) for d in dx) <= float(radius) ** float(p)

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
                fm.Atom(fm.ExpGraph(we, wz)),
                fm.atom(wu, "=", fm.mul(fm.const(p), wz)),
                fm.Atom(fm.ExpGraph(wy, wu)))
            parts.append(fm.disj(zero_branch, pos_branch))
        parts.append(fm.atom(fm.add(*[fm.w(4 * i) for i in range(l)]),
                             "<=", fm.const(1)))
        return fm.Exists(tuple(indices), fm.conj(*parts))

    def sample(x, rng, budget):
        out = [tuple(x)]
        r = float(radius)
        for _ in range(budget):
            d = rng.uniform(-r, r, size=l)
            y = tuple(float(v) + dv for v, dv in zip(x, d))
            if contains([float(v) for v in x], y):
                out.append(y)
        return out

    name = f"l{'inf' if inf else p}_ball_r{radius}"
    return NeighborhoodSystem(name, l, contains, emit, sample, kind="lp",
                              p=(math.inf if inf else p), radius=radius)


def lp2_ball_variable_radius(l: int, coord: int) -> NeighborhoodSystem:
    """Euclidean ball whose radius is max(x_coord, 0) at the source point."""
    if not 0 <= coord < l:
        raise FamilyError("radius coordinate out of range")

    def radius_at(x):
        r = Fraction(x[coord]) if _all_exact(x) else float(x[coord])
        return max(r, 0)

    def contains(x, y):
        r = radius_at(x)
        if _all_exact(x, y):
            dx = [Fraction(u) - Fraction(v) for u, v in zip(x, y)]
            return sum(d * d for d in dx) <= Fraction(r) * Fraction(r)
        dx = [float(u) - float(v) for u, v in zip(x, y)]
        return sum(d * d for d in dx) <= float(r) ** 2

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

    def sample(x, rng, budget):
        out = [tuple(x)]
        r = float(radius_at(x))
        for _ in range(budget):
            d = rng.uniform(-r, r, size=l) if r > 0 else np.zeros(l)
            y = tuple(float(v) + dv for v, dv in zip(x, d))
            if contains([float(v) for v in x], y):
                out.append(y)
        return out

    return NeighborhoodSystem(f"l2_ball_var_x{coord}", l, contains, emit,
                              sample, kind="lp_var", p=2, radius=coord)


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
    radius = Fraction(radius)

    def contains(x, y):
        if _all_exact(x, y):
            d = Fraction(x[0]) - Fraction(y[0])
            return d * d <= 2 * radius
        return (float(x[0]) - float(y[0])) ** 2 <= 2 * float(radius)

    def emit():
        d = fm.sub(fm.x(0), fm.x(1))
        return fm.atom(fm.mul(d, d), "<=", fm.const(2 * radius))

    def sample(x, rng, budget):
        r = math.sqrt(2 * float(radius))
        out = [tuple(x)]
        for _ in range(budget):
            out.append((float(x[0]) + rng.uniform(-r, r),))
        return out

    return NeighborhoodSystem(f"gauss_kl_r{radius}", 1, contains, emit,
                              sample, kind="gauss_kl", radius=radius)


def _check_simplex(x, strict: bool = False):
    if _all_exact(x):
        vals = [Fraction(v) for v in x]
        if sum(vals) != 1 or any(v < 0 for v in vals):
            raise FamilyError(f"point {x} is not on the probability simplex")
    else:
        vals = [float(v) for v in x]
        if abs(sum(vals) - 1) > 1e-7 or any(v < -1e-12 for v in vals):
            raise FamilyError(f"point {x} is not on the probability simplex")
    if strict and any(v <= 0 for v in vals):
        raise FamilyError("point must have full support")
    return vals


def kl_ball(l: int, radius) -> NeighborhoodSystem:
    """N_x = distributions y on the l-simplex with KL(x || y) <= radius.

    Membership uses float logarithms (the divergence is transcendental);
    the formula realizes log(x_i / y_i) through one exp witness per
    coordinate.
    """
    radius = Fraction(radius)

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
                          fm.Atom(fm.ExpGraph(we, wz)),
                          fm.atom(fm.mul(ys[i], we), "=", xs[i]))
            zero = fm.conj(fm.atom(xs[i], "=", fm.const(0)),
                           fm.atom(wz, "=", fm.const(0)),
                           fm.atom(we, "=", fm.const(1)))
            parts.append(fm.disj(pos, zero))
        parts.append(fm.atom(fm.add(*[fm.mul(xs[i], fm.w(2 * i))
                                      for i in range(l)]),
                             "<=", fm.const(radius)))
        return fm.Exists(tuple(indices), fm.conj(*parts))

    def sample(x, rng, budget):
        xv = [float(v) for v in x]
        out = [tuple(xv)]
        for _ in range(budget):
            u = rng.dirichlet(np.ones(l))
            t = rng.uniform(0, 1)
            y = tuple((1 - t) * xi + t * ui for xi, ui in zip(xv, u))
            if contains(xv, y):
                out.append(y)
        return out

    return NeighborhoodSystem(f"kl_r{radius}", l, contains, emit, sample,
                              kind="kl", radius=radius)


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
    nvars = l * l
    obj = [ground[i][j] for i in range(l) for j in range(l)]
    rows, rels, rhs = [], [], []
    for i in range(l):
        row = [Fraction(0)] * nvars
        for j in range(l):
            row[i * l + j] = Fraction(1)
        rows.append(row)
        rels.append("=")
        rhs.append(xv[i])
    for j in range(l):
        row = [Fraction(0)] * nvars
        for i in range(l):
            row[i * l + j] = Fraction(1)
        rows.append(row)
        rels.append("=")
        rhs.append(yv[j])
    res = lp_solve(LPInstance(tuple(obj), tuple(rows), tuple(rels),
                              tuple(rhs)))
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
    radius = Fraction(radius)

    def contains(x, y):
        return emd_value(x, y, g) <= radius

    def emit():
        xs = [fm.x(i) for i in range(l)]
        ys = [fm.x(l + i) for i in range(l)]
        idx = lambda i, j: i * l + j
        parts = []
        indices = tuple(range(l * l))
        for i in range(l):
            for j in range(l):
                parts.append(fm.atom(fm.w(idx(i, j)), ">=", fm.const(0)))
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

    def sample(x, rng, budget):
        xv = [float(v) for v in x]
        total = sum(xv)
        out = [tuple(xv)]
        for _ in range(budget):
            u = rng.dirichlet(np.ones(l)) * total
            t = rng.uniform(0, 1)
            y = tuple(Fraction(round((1 - t) * xi + t * ui, 6))
                      for xi, ui in zip(xv, u))
            gap = sum(Fraction(v) for v in x) - sum(y)
            y = (y[0] + gap,) + y[1:]
            if y[0] >= 0 and contains(x, y):
                out.append(tuple(map(float, y)))
        return out

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

    def sample(x, rng, budget):
        base = math.floor(float(x[0]))
        out = [tuple(x)]
        for _ in range(budget):
            out.append((base + rng.uniform(0, 1),))
        return out

    return NeighborhoodSystem("floor_partition", 1, contains, None, sample,
                              definable=False, kind="floor")


# ---------------------------------------------------------------------------
# Closed-form strategic labels


def reach_margin(family: HypothesisFamily, neigh: NeighborhoodSystem,
                 params, x) -> Optional[float]:
    """Signed margin of strategic acceptance in closed form, or None.

    Positive (or zero) margin means some neighbor is accepted.  Covered
    cases: halfspaces under constant-radius l_p balls (the best neighbor
    moves along the dual-norm direction) and thresholds under intervals.
    """
    if family.name == "halfspace" and neigh.kind in ("lp", "interval") \
            and isinstance(neigh.radius, Fraction):
        l = family.input_dim
        w = [float(v) for v in params[:l]]
        b = float(params[l])
        r = float(neigh.radius)
        if neigh.p == math.inf:
            gain = r * sum(abs(v) for v in w)
        elif neigh.p == 2:
            gain = r * math.sqrt(sum(v * v for v in w))
        elif neigh.p == 1:
            gain = r * max((abs(v) for v in w), default=0.0)
        else:
            return None
        return sum(wv * float(xv) for wv, xv in zip(w, x)) + gain - b
    if family.name == "threshold" and neigh.kind in ("interval", "lp") \
            and neigh.p == math.inf and isinstance(neigh.radius, Fraction):
        return float(x[0]) + float(neigh.radius) - float(params[0])
    if neigh.kind == "identity":
        return None  # callers should evaluate the family directly
    return None


def strategic_label(family: HypothesisFamily, neigh: NeighborhoodSystem,
                    params, x, rng=None, budget: int = 64) -> bool:
    """Label of x under the strategic version of the classifier.

    Uses the closed-form margin when available, the identity shortcut, and
    otherwise falls back to neighborhood sampling (a sound lower bound on
    acceptance).
    """
    if neigh.kind == "identity":
        return bool(family.evaluate(params, x))
    m = reach_margin(family, neigh, params, x)
    if m is not None:
        return m >= 0
    if bool(family.evaluate(params, x)):
        return True
    if neigh.sample is None:
        raise FamilyError(f"no decision procedure for {family.name} under "
                          f"{neigh.name}")
    rng = rng or np.random.default_rng(0)
    return any(family.evaluate(params, y)
               for y in neigh.sample(x, rng, budget))


def batch_strategic_labels(family: HypothesisFamily,
                           neigh: NeighborhoodSystem, params,
                           X: np.ndarray) -> np.ndarray:
    """Vectorized strategic labels; falls back to a Python loop."""
    if family.name == "halfspace" and neigh.kind in ("lp", "interval") \
            and isinstance(neigh.radius, Fraction) \
            and neigh.p in (1, 2, math.inf):
        l = family.input_dim
        w = np.asarray([float(v) for v in params[:l]])
        b = float(params[l])
        r = float(neigh.radius)
        if neigh.p == math.inf:
            gain = r * np.abs(w).sum()
        elif neigh.p == 2:
            gain = r * math.sqrt(float(w @ w))
        else:
            gain = r * (np.abs(w).max() if l else 0.0)
        return X @ w + gain >= b
    if family.name == "threshold" and neigh.p == math.inf \
            and isinstance(neigh.radius, Fraction):
        return X[:, 0] + float(neigh.radius) >= float(params[0])
    if neigh.kind == "identity" and family.batch_evaluate is not None:
        return np.asarray(family.batch_evaluate(params, X), dtype=bool)
    return np.asarray([strategic_label(family, neigh, params, row)
                       for row in X], dtype=bool)


# ---------------------------------------------------------------------------
# Registry


def _parse_kwargs(body: str) -> dict:
    out = {}
    if not body:
        return out
    for piece in body.split(","):
        if "=" not in piece:
            raise FamilyError(f"bad option {piece!r}; expected key=value")
        key, val = piece.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _num(v: str):
    if v == "inf":
        return math.inf
    try:
        return int(v)
    except ValueError:
        return Fraction(v)


def make_family(spec: str) -> HypothesisFamily:
    """Build a hypothesis family from a spec string.

    Examples: 'halfspace:l=2', 'threshold', 'ptf:l=2,D=3',
    'tree:l=2,depth=2,q=1,labels=0110', 'nn:widths=2-2-1'.
    """
    name, _, body = spec.partition(":")
    kw = _parse_kwargs(body)
    try:
        if name == "halfspace":
            return halfspace(int(kw.get("l", 2)))
        if name == "threshold":
            return threshold()
        if name == "ptf":
            return polynomial_threshold(int(kw.get("l", 2)),
                                        int(kw.get("D", 2)))
        if name == "tree":
            depth = int(kw.get("depth", 2))
            labels = kw.get("labels", "01" * (1 << (depth - 1)))
            return decision_tree(int(kw.get("l", 2)), depth,
                                 int(kw.get("q", 1)),
                                 [int(c) for c in labels])
        if name == "nn":
            widths = kw.get("widths", "2-2-1").split("-")
            return sigmoid_network([int(d) for d in widths])
    except (ValueError, ZeroDivisionError) as exc:
        raise FamilyError(f"bad family spec {spec!r}: {exc}") from exc
    raise FamilyError(f"unknown family {name!r}")


def make_neighborhood(spec: str) -> NeighborhoodSystem:
    """Build a neighborhood system from a spec string.

    Examples: 'identity:l=2', 'lp:l=2,p=2,r=1/2', 'linf:l=2,r=1',
    'l1:l=2,r=1', 'lp_var:l=2,coord=1', 'interval:r=1/2', 'kl:l=3,r=1',
    'gauss_kl:r=1/2', 'emd:r=1' (three-point ground metric), 'floor'.
    """
    name, _, body = spec.partition(":")
    kw = _parse_kwargs(body)
    try:
        if name == "identity":
            return identity(int(kw.get("l", 2)))
        if name == "lp":
            return lp_ball(int(kw.get("l", 2)), _num(kw.get("p", "2")),
                           Fraction(kw.get("r", "1")))
        if name == "linf":
            return lp_ball(int(kw.get("l", 2)), "inf",
                           Fraction(kw.get("r", "1")))
        if name == "l1":
            return lp_ball(int(kw.get("l", 2)), 1, Fraction(kw.get("r", "1")))
        if name == "lp_var":
            return lp2_ball_variable_radius(int(kw.get("l", 2)),
                                            int(kw.get("coord", 1)))
        if name == "interval":
            return interval_radius(Fraction(kw.get("r", "1")))
        if name == "kl":
            return kl_ball(int(kw.get("l", 3)), Fraction(kw.get("r", "1")))
        if name == "gauss_kl":
            return gaussian_kl_location(Fraction(kw.get("r", "1")))
        if name == "emd":
            return emd_ball(footnote_metric(), Fraction(kw.get("r", "1")))
        if name == "floor":
            return floor_partition()
    except (ValueError, ZeroDivisionError) as exc:
        raise FamilyError(f"bad neighborhood spec {spec!r}: {exc}") from exc
    raise FamilyError(f"unknown neighborhood {name!r}")
