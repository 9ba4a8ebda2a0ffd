"""Shared oracle helpers for the test suite.

Everything here is deliberately implemented independently of the package's
own algorithms (vectorized formula evaluation, exhaustive vertex
enumeration, one-variable interval feasibility, a character-by-character
tokenizer, polygon clipping down a decision tree) so tests compare two
separate computation paths.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from stratdef import formula as fm
from stratdef.solve import LinearSystem

TOL = 1e-9


# ---------------------------------------------------------------------------
# Vectorized formula evaluation over numpy arrays


def np_eval_term(t, env):
    if isinstance(t, fm.Var):
        return env[t.block][:, t.index]
    if isinstance(t, fm.Const):
        return float(t.value)
    if isinstance(t, fm.Sum):
        out = 0.0
        for s in t.terms:
            out = out + np_eval_term(s, env)
        return out
    if isinstance(t, fm.Product):
        out = 1.0
        for s in t.factors:
            out = out * np_eval_term(s, env)
        return out
    return np.exp(np_eval_term(t.arg, env))


def np_eval_formula(f, env):
    """Boolean array; env maps block -> (N, dim) arrays. Every atom gets
    the same absolute float boundary tolerance as the scalar evaluator,
    an exp-graph atom u = exp(v) included."""
    if isinstance(f, fm.Compare):
        d = np_eval_term(f.lhs, env) - np_eval_term(f.rhs, env)
        if f.rel == "=":
            return np.abs(d) <= TOL
        if f.rel in ("<", "<="):
            return d <= TOL
        return d >= -TOL
    if isinstance(f, fm.Not):
        return ~np_eval_formula(f.body, env)
    if isinstance(f, fm.And):
        out = None
        for p in f.parts:
            v = np_eval_formula(p, env)
            out = v if out is None else out & v
        return out if out is not None else np.ones(1, dtype=bool)
    if isinstance(f, fm.Or):
        out = None
        for p in f.parts:
            v = np_eval_formula(p, env)
            out = v if out is None else out | v
        return out if out is not None else np.zeros(1, dtype=bool)
    raise AssertionError("quantifier in vectorized evaluation")


# ---------------------------------------------------------------------------
# Scalar float margin of a quantifier-free formula


def ref_exp(v: float) -> float:
    """math.exp, with an overflow read as inf."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


# the least magnitude that IEEE round-to-nearest rounds to infinity: the
# midpoint between the largest double, 2**1024 - 2**971, and 2**1024, where
# a tie goes to 2**1024's even significand
FLOAT_OVERFLOW = 2 ** 1024 - 2 ** 970


def ref_float_term(t, env) -> float:
    """A term in floats, env mapping each block to a sequence of values:
    sums and products fold from their first operand, left to right, and a
    constant at or beyond FLOAT_OVERFLOW in magnitude reads as +-inf."""
    if isinstance(t, fm.Var):
        return float(env[t.block][t.index])
    if isinstance(t, fm.Const):
        if abs(t.value) >= FLOAT_OVERFLOW:
            return math.inf if t.value > 0 else -math.inf
        return float(t.value)
    if isinstance(t, fm.Exp):
        return ref_exp(ref_float_term(t.arg, env))
    parts = [ref_float_term(s, env)
             for s in (t.terms if isinstance(t, fm.Sum) else t.factors)]
    out = parts[0]
    for v in parts[1:]:
        out = out + v if isinstance(t, fm.Sum) else out * v
    return out


def ref_margin(f, env) -> float:
    """How far the scalar point env is from satisfying f: an atom reads
    the difference d of its sides (u - exp(v) for u = exp(v)), inf when d
    is nan, |d| for =, d when positive for < and <=, -d when negative for >
    and >=, and 0 otherwise; And is the largest of its parts (0 without
    parts), Or the smallest (1 without parts), and Not reads 0 when its
    body reads above TOL and 1 otherwise."""
    if isinstance(f, fm.Compare):
        d = ref_float_term(f.lhs, env) - ref_float_term(f.rhs, env)
        if math.isnan(d):
            return math.inf
        if f.rel == "=":
            return abs(d)
        if f.rel in ("<", "<="):
            return d if d > 0 else 0.0
        return -d if d < 0 else 0.0
    if isinstance(f, fm.Not):
        return 0.0 if ref_margin(f.body, env) > TOL else 1.0
    parts = [ref_margin(p, env) for p in f.parts]
    if isinstance(f, fm.And):
        return max(parts) if parts else 0.0
    if isinstance(f, fm.Or):
        return min(parts) if parts else 1.0
    raise AssertionError("quantifier in a margin reading")


# ---------------------------------------------------------------------------
# Exact linear algebra for vertex enumeration


def gauss_solve(rows, rhs):
    """Solve a square rational system; None when singular."""
    n = len(rows)
    a = [list(map(Fraction, r)) + [Fraction(v)]
         for r, v in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * p for v, p in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def lp_by_vertex_enumeration(objective, rows):
    """Exact optimum of a bounded LP by enumerating basic feasible points.

    Minimizes objective . v over v >= 0 subject to rows, each with
    .coeffs, .rel in {<=, =} and .rhs; assumes the feasible region is a
    bounded polytope (every vertex is an intersection of n constraint
    hyperplanes).  Returns (value, point) or None when infeasible.
    """
    n = len(objective)
    planes = []
    for c in rows:
        planes.append((list(c.coeffs), Fraction(c.rhs)))
    for i in range(n):
        row = [Fraction(0)] * n
        row[i] = Fraction(1)
        planes.append((row, Fraction(0)))

    def feasible(pt):
        for c in rows:
            lhs = sum(co * v for co, v in zip(c.coeffs, pt))
            if c.rel == "<=" and lhs > c.rhs:
                return False
            if c.rel == "=" and lhs != c.rhs:
                return False
        return all(v >= 0 for v in pt)

    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        a = [planes[i][0] for i in combo]
        b = [planes[i][1] for i in combo]
        pt = gauss_solve(a, b)
        if pt is None or not feasible(pt):
            continue
        val = sum(c * v for c, v in zip(objective, pt))
        if best is None or val < best[0]:
            best = (val, tuple(pt))
    return best


def ref_lp_bland(objective, rows):
    """(status, value, point) of min objective . v over v >= 0 subject to
    rows (.coeffs, .rel in {<=, =}, .rhs): a dense two-phase simplex over
    Fractions with Bland's rule.  Phase 1 minimizes the sum of one
    artificial per row, after each <= row gains a slack and each row with a
    negative rhs is negated; artificials left basic leave for the first
    nonzero column of their row, if any; phase 2 never enters an artificial
    column.  It pivots as the package's simplex must, so the optimum it
    returns is the same vertex, not just the same value."""
    objective = [Fraction(c) for c in objective]
    n, m = len(objective), len(rows)
    slacks = [i for i, r in enumerate(rows) if r.rel == "<="]
    total = n + len(slacks)
    width = total + m + 1
    tab = []
    for i, r in enumerate(rows):
        row = [Fraction(0)] * width
        row[:n] = map(Fraction, r.coeffs)
        row[-1] = Fraction(r.rhs)
        if r.rel == "<=":
            row[n + slacks.index(i)] = Fraction(1)
        if row[-1] < 0:
            row = [-v for v in row]
        row[total + i] = Fraction(1)
        tab.append(row)
    basis = [total + i for i in range(m)]

    def pivot(r, c):
        tab[r] = [v / tab[r][c] for v in tab[r]]
        for i in range(len(tab)):
            if i != r and tab[i][c] != 0:
                f = tab[i][c]
                tab[i] = [v - f * p for v, p in zip(tab[i], tab[r])]
        basis[r] = c

    def priced(cost):
        for i, b in enumerate(basis):
            cost = [v - cost[b] * p for v, p in zip(cost, tab[i])]
        return cost

    def run(cols):
        while True:
            enter = next((j for j in range(cols) if tab[m][j] < 0), None)
            if enter is None:
                return "optimal"
            cands = [(tab[i][-1] / tab[i][enter], basis[i], i)
                     for i in range(m) if tab[i][enter] > 0]
            if not cands:
                return "unbounded"
            pivot(min(cands)[2], enter)

    tab.append(priced([Fraction(0)] * total + [Fraction(1)] * m +
                      [Fraction(0)]))
    run(total + m)
    if tab[m][-1] < 0:
        return "infeasible", None, None
    for i in range(m):
        if basis[i] >= total:
            col = next((j for j in range(total) if tab[i][j] != 0), None)
            if col is not None:
                pivot(i, col)
    tab[m] = priced(objective + [Fraction(0)] * (width - n))
    if run(total) == "unbounded":
        return "unbounded", None, None
    point = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            point[b] = tab[i][-1]
    return "optimal", sum(c * v for c, v in zip(objective, point)), \
        tuple(point)


# ---------------------------------------------------------------------------
# One-variable feasibility oracle for projection tests


def feasible_with_one_witness(sys: LinearSystem, witness: str):
    """The exact test of 'exists witness: constraints hold' as a predicate
    of a point that pins every other variable, done by intersecting the
    induced one-variable bounds (no Fourier-Motzkin combination), in
    integers.

    Each row is scaled to integer coefficients once, here.  The returned
    predicate puts a point's rational values over one denominator den, so a
    row c*w + rest (rel) rhs reads c*t (rel) s in integers, with t = den*w
    and s = den*rhs - den*rest; each bound s/c is kept as the pair (s, c)
    with c > 0 and compared by cross-multiplication."""
    j = sys.variables.index(witness)
    rows = []
    for c in sys.constraints:
        vals = [Fraction(x) for x in (*c.coeffs, c.rhs)]
        scale = math.lcm(*(x.denominator for x in vals))
        ints = [x.numerator * (scale // x.denominator) for x in vals]
        rows.append((ints[j], ints[:j] + ints[j + 1:-1], c.rel, ints[-1]))
    others = [v for v in sys.variables if v != witness]

    def feasible(point: dict) -> bool:
        vals = [point[v] for v in others]       # ints or Fractions
        den = math.lcm(*(x.denominator for x in vals))
        nums = [x.numerator * (den // x.denominator) for x in vals]
        lo = hi = None              # (s, c, strict), the bound s/c with c > 0
        for cj, co, rel, rhs in rows:
            s = rhs * den - sum(a * n for a, n in zip(co, nums))
            if cj == 0:
                if not {"<": s > 0, "<=": s >= 0, "=": s == 0}[rel]:
                    return False
                continue
            strict = rel == "<"
            bound = (s, cj, strict) if cj > 0 else (-s, -cj, strict)
            if cj > 0 or rel == "=":    # an upper bound
                if hi is None or _tighter(bound, hi, -1):
                    hi = bound
            if cj < 0 or rel == "=":    # a lower bound
                if lo is None or _tighter(bound, lo, 1):
                    lo = bound
        if lo is None or hi is None:
            return True
        gap = hi[0] * lo[1] - lo[0] * hi[1]
        return gap > 0 or (gap == 0 and not (lo[2] or hi[2]))
    return feasible


def _tighter(new, old, sign) -> bool:
    """Whether the bound new is tighter than old: larger for a lower bound
    (sign 1), smaller for an upper one (sign -1), or equal and strict."""
    diff = sign * (new[0] * old[1] - old[0] * new[1])
    return diff > 0 or (diff == 0 and new[2])


def system_holds_at(sys: LinearSystem, point: dict) -> bool:
    return sys.satisfied_by([point[v] for v in sys.variables])


# ---------------------------------------------------------------------------
# Plain Fourier-Motzkin projection: every upper bound with every lower bound


def _ref_add(c, f, d, rel):
    """The row c + f*d with relation rel; rows are (coeffs, rel, rhs)."""
    return ([u + f * v for u, v in zip(c[0], d[0])], rel, c[2] + f * d[2])


def _ref_prune(rows):
    """Scale each nonzero row by a positive factor to primitive integer
    coefficients, drop rows 0 rel rhs that hold, and keep the tightest of
    rows with equal coefficients (smaller rhs, then strict); equalities and
    false zero rows are kept as they are, once each."""
    out = {}
    for coeffs, rel, rhs in rows:
        if any(coeffs):
            den = math.lcm(*(Fraction(c).denominator for c in coeffs))
            g = math.gcd(*(int(c * den) for c in coeffs))
            coeffs = [c * den / g for c in coeffs]
            rhs = rhs * den / g
        elif {"<": 0 < rhs, "<=": 0 <= rhs, "=": rhs == 0}[rel]:
            continue
        key = tuple(coeffs)
        if rel == "=" or not any(coeffs):
            out.setdefault((key, rel, rhs), (coeffs, rel, rhs))
        elif key not in out or rhs < out[key][2] or \
                (rhs == out[key][2] and rel == "<"):
            out[key] = (coeffs, rel, rhs)
    return list(out.values())


def ref_fm_eliminate(sys: LinearSystem, eliminate) -> LinearSystem:
    """Project onto the variables not in `eliminate`, in the order given: a
    variable that an equality contains is substituted with the first such
    equality, any other is removed by adding every row that bounds it from
    below to a positive multiple of every row that bounds it from above
    (strict if either is), and the rows are pruned after each step."""
    names = list(sys.variables)
    rows = [(list(c.coeffs), c.rel, c.rhs) for c in sys.constraints]
    for var in eliminate:
        j = names.index(var)
        eq = next((r for r in rows if r[1] == "=" and r[0][j] != 0), None)
        if eq is not None:
            rows = _ref_prune([r if r[0][j] == 0 else
                               _ref_add(r, -r[0][j] / eq[0][j], eq, r[1])
                               for r in rows if r is not eq])
            continue
        rows = _ref_prune([r for r in rows if r[0][j] == 0] + [
            _ref_add(lo, -lo[0][j] / up[0][j], up,
                     "<" if "<" in (lo[1], up[1]) else "<=")
            for up in rows if up[0][j] > 0
            for lo in rows if lo[0][j] < 0])
    keep = [i for i, v in enumerate(names) if v not in eliminate]
    return LinearSystem.make([names[i] for i in keep],
                             [([c[i] for i in keep], rel, rhs)
                              for c, rel, rhs in rows])


# ---------------------------------------------------------------------------
# Strategic traces of interval neighborhoods, by brute force


def ref_interval_trace(anchors, points, s) -> tuple:
    """The anchors (numbered from 1) that some point reaches in the closed
    interval neighborhood of radius s: any(|q - a| <= s), over Fractions."""
    s = Fraction(s)
    return tuple(i for i, a in enumerate(anchors, start=1)
                 if any(abs(Fraction(q) - Fraction(a)) <= s for q in points))


def ref_unit_cells_shatter_a_pair(points) -> tuple:
    """(cells, points, shattered) for the unit cells [k, k + 1) that hold
    one of the points: their number, the number of distinct points, and
    whether some pair of points gets all four labels from those cells and
    the empty set.  Every pair is tested against every cell."""
    pts = sorted(set(points))
    cells = sorted({math.floor(p) for p in pts})
    for p, q in itertools.combinations(pts, 2):
        got = {(False, False)}
        got |= {(math.floor(p) == c, math.floor(q) == c) for c in cells}
        if len(got) == 4:
            return len(cells), len(pts), True
    return len(cells), len(pts), False


# ---------------------------------------------------------------------------
# Sampled strategic labels


def sampled_strategic_label(family, p, r: float, params, x,
                            draws: int = 64) -> bool:
    """Strategic label of x under an l_p ball of radius r, sampled: the
    candidates are x and x + d for each of `draws` offsets d drawn uniformly
    from [-r, r]^l by default_rng(0), kept when ||d||_p <= r; x is accepted
    iff family.evaluate accepts a candidate."""
    rng = np.random.default_rng(0)
    x = np.asarray(x, dtype=float)
    cands = [x]
    for _ in range(draws):
        y = x + rng.uniform(-r, r, size=len(x))
        if np.linalg.norm(x - y, ord=p) <= r:
            cands.append(y)
    return any(bool(family.evaluate(params, list(y))) for y in cands)


# ---------------------------------------------------------------------------
# Plain-Python semantics of the registry families and quantifier-free
# neighborhoods, on scalars (Fractions stay exact)


def ref_monomials(l: int, degree: int) -> list:
    """Exponent multisets of total degree <= degree, degree by degree."""
    return [m for d in range(degree + 1)
            for m in itertools.combinations_with_replacement(range(l), d)]


def ref_poly(coeffs, monos, x):
    """sum_j coeffs[j] * prod_{i in monos[j]} x[i]."""
    total = 0
    for c, mono in zip(coeffs, monos):
        term = c
        for i in mono:
            term = term * x[i]
        total = total + term
    return total


def ref_ptf(params, x, l: int, degree: int) -> bool:
    return ref_poly(params, ref_monomials(l, degree), x) > 0


def ref_tree(params, x, l: int, depth: int, degree: int, labels) -> bool:
    """Walk from the root (node 1, children 2n and 2n + 1); node n owns
    coefficient block n - 1 and sends x right iff its polynomial is >= 0;
    labels is a string of 0s and 1s, leaf by leaf."""
    monos = ref_monomials(l, degree)
    b = len(monos)
    node = 1
    while node < 2 ** depth:
        right = ref_poly(params[(node - 1) * b:node * b], monos, x) >= 0
        node = 2 * node + int(right)
    return labels[node - 2 ** depth] == "1"


def _clip(poly: list, a, b, c, side: int) -> list:
    """The convex polygon poly (vertices in order) cut by the closed
    half-plane side * (a*u + b*v + c) >= 0, one Sutherland-Hodgman pass."""
    out = []
    for p, q in zip(poly, poly[1:] + poly[:1]):
        fp = side * (a * p[0] + b * p[1] + c)
        fq = side * (a * q[0] + b * q[1] + c)
        if fp >= 0:
            out.append(p)
        if fp * fq < 0:
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def ref_tree_box_verdict(params, x, r, depth: int, labels):
    """Whether some point of the box [x - r, x + r]^2 reaches a positive
    leaf of a degree-1 tree on two inputs (ref_tree's layout): the box is
    clipped down the tree in Fractions, each node's two closed sides, and
    only sides that meet it are entered.  True when a piece of positive
    area reaches a positive leaf (its interior passes the strict tests
    too), False when no piece does, None when only pieces of zero area
    (segments, points) do, so that the answer rests on a boundary."""
    r = Fraction(r)
    u, v = map(Fraction, x)
    answer = False
    stack = [(1, [(u - r, v - r), (u + r, v - r), (u + r, v + r),
                  (u - r, v + r)])]
    while stack:
        node, poly = stack.pop()
        if not poly:
            continue
        if node >= 2 ** depth:
            if labels[node - 2 ** depth] == "1":
                area2 = sum(p[0] * q[1] - q[0] * p[1]
                            for p, q in zip(poly, poly[1:] + poly[:1]))
                if area2 != 0:
                    return True
                answer = None
            continue
        # x goes right iff c + a*u + b*v >= 0
        c, a, b = map(Fraction, params[3 * (node - 1):3 * node])
        if a == b == 0:
            stack.append((2 * node + (c >= 0), poly))
            continue
        stack.append((2 * node, _clip(poly, a, b, c, -1)))
        stack.append((2 * node + 1, _clip(poly, a, b, c, 1)))
    return answer


def ref_in_lp_ball(x, y, p, r) -> bool:
    """Closed l_p ball of radius r around x."""
    if p == 2:
        return sum((u - v) * (u - v) for u, v in zip(x, y)) <= r * r
    if p == math.inf:
        return max(abs(u - v) for u, v in zip(x, y)) <= r
    return sum(abs(u - v) ** p for u, v in zip(x, y)) <= r ** p


def ref_in_lp_var_ball(x, y, coord: int) -> bool:
    """Euclidean ball of radius max(x[coord], 0)."""
    rad = max(x[coord], 0)
    return sum((u - v) * (u - v) for u, v in zip(x, y)) <= rad * rad


def ref_in_gauss_kl_ball(x, y, r) -> bool:
    """KL(N(x, 1) || N(y, 1)) = (x - y)^2 / 2 <= r."""
    return (x[0] - y[0]) * (x[0] - y[0]) <= 2 * r


def ref_in_kl_ball(x, y, r) -> bool:
    """KL(x || y) = sum over x_i > 0 of x_i log(x_i / y_i) <= r; a y_i = 0
    where x_i > 0 makes the divergence infinite."""
    if any(u > 0 and v <= 0 for u, v in zip(x, y)):
        return False
    return sum(u * math.log(u / v) for u, v in zip(x, y) if u > 0) <= r


def ref_sigmoid_net(params, x, widths) -> bool:
    """Forward pass of the logistic network with layer widths widths (input
    first, output 1): each neuron reads its weights over the previous layer,
    then its bias; x is accepted iff the output neuron's affine input is
    >= 0."""
    z, pos = list(x), 0
    for prev, d in zip(widths[:-1], widths[1:]):
        r = []
        for _ in range(d):
            r.append(sum(params[pos + s] * v for s, v in enumerate(z)) +
                     params[pos + prev])
            pos += prev + 1
        # exp(-v) overflows below v = -709: the logistic limit is 0
        z = [0.0 if v < -700 else 1.0 / (1.0 + math.exp(-v)) for v in r]
    return r[-1] >= 0


# ---------------------------------------------------------------------------
# Formula tokens, scanned one character at a time


def ref_tokenize(text: str, max_nesting: int):
    """(tokens, error) for the s-expression grammar: tokens are (token,
    line, col) triples, counted by hand (only "\\n" starts a line), and
    error is None or (message, pos, line, col) for the first parenthesis
    that opens more than max_nesting levels, with the tokens before it."""
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    depth = 0
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c.isspace():
            i += 1
            col += 1
        elif c in "()":
            depth += 1 if c == "(" else -1
            if depth > max_nesting:
                msg = f"nesting deeper than {max_nesting}"
                return toks, (f"{msg} at line {line}, col {col}", i, line, col)
            toks.append((c, line, col))
            i += 1
            col += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            toks.append((text[i:j], line, col))
            col += j - i
            i = j
    return toks, None
