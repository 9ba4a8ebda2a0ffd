"""Seeded input generators for the benchmark workloads.

Everything here depends only on numpy and the seed: the program under test
receives the generated query lists, formula files and linear-system JSON,
never the generator itself.
"""

from __future__ import annotations

import itertools

import numpy as np

# (family spec, neighborhood spec) pairs of the witness-mix workload.  The
# first group is decided by the exact branch/simplex layer (linear after
# fixing x and the parameters); the second falls through to grid search and
# Nelder-Mead (quadratic, exp or KL atoms).
WITNESS_PAIRS = (
    ("halfspace:l=2", "linf:l=2,r=1/2"),
    ("halfspace:l=2", "l1:l=2,r=1/2"),
    ("halfspace:l=3", "emd:r=1"),
    ("threshold", "interval:r=1/2"),
    ("tree:l=2,depth=2,q=1,labels=0110", "linf:l=2,r=1/4"),
    ("halfspace:l=2", "lp:l=2,p=2,r=1/2"),
    ("halfspace:l=2", "lp:l=2,p=3,r=1"),
    ("halfspace:l=3", "kl:l=3,r=1/2"),
    ("ptf:l=2,D=2", "lp:l=2,p=2,r=1/4"),
    ("nn:widths=2-2-1", "linf:l=2,r=1/4"),
    ("halfspace:l=1", "gauss_kl:r=1/2"),
)


def spec_kwargs(spec: str) -> tuple:
    """('lp', {'l': '2', 'p': '2', 'r': '1/2'}) from 'lp:l=2,p=2,r=1/2'."""
    name, _, body = spec.partition(":")
    kw = dict(piece.split("=", 1) for piece in body.split(",") if piece)
    return name, kw


def monomials(l: int, degree: int) -> list:
    """Exponent multisets of total degree <= degree in graded order (the
    documented parameter layout of polynomial families)."""
    out = []
    for d in range(degree + 1):
        out.extend(itertools.combinations_with_replacement(range(l), d))
    return out


def family_shape(spec: str) -> tuple:
    """(input_dim, param_dim) of a family spec, from its definition."""
    name, kw = spec_kwargs(spec)
    if name == "halfspace":
        l = int(kw.get("l", 2))
        return l, l + 1
    if name == "threshold":
        return 1, 1
    if name == "ptf":
        l = int(kw.get("l", 2))
        return l, len(monomials(l, int(kw.get("D", 2))))
    if name == "tree":
        l, depth = int(kw.get("l", 2)), int(kw.get("depth", 2))
        return l, ((1 << depth) - 1) * len(monomials(l, int(kw.get("q", 1))))
    if name == "nn":
        widths = [int(d) for d in kw["widths"].split("-")]
        return widths[0], sum(d * (p + 1) for p, d in zip(widths, widths[1:]))
    raise ValueError(f"unknown family {spec!r}")


def witness_queries(seed: int, rounds: int) -> list:
    """`rounds` lists of one (pair index, x, params) query per pair.

    Points are uniform on [-1, 1]^l, or Dirichlet(1) on the simplex for the
    KL and EMD balls; parameters are uniform on the family box [-2, 2]^k.
    """
    rng = np.random.default_rng([seed, 0x5A1])
    out = []
    for _ in range(rounds):
        batch = []
        for i, (fam, neigh) in enumerate(WITNESS_PAIRS):
            l, k = family_shape(fam)
            if spec_kwargs(neigh)[0] in ("kl", "emd"):
                x = rng.dirichlet(np.ones(l))
            else:
                x = rng.uniform(-1.0, 1.0, size=l)
            params = rng.uniform(-2.0, 2.0, size=k)
            batch.append((i, x.tolist(), params.tolist()))
        out.append(batch)
    return out


# ---------------------------------------------------------------------------
# Formula files


def _poly(base: int, l: int, degree: int) -> str:
    terms = []
    for j, mono in enumerate(monomials(l, degree)):
        factors = [f"a{base + j}"] + [f"x{i}" for i in mono]
        terms.append(factors[0] if len(factors) == 1
                     else "(* " + " ".join(factors) + ")")
    return "(+ " + " ".join(terms) + ")"


def tree_sexpr(l: int, depth: int, degree: int, rng) -> str:
    """Decision tree with polynomial splits; exactly half the leaves are
    positive, chosen by the seed, so the formula size does not vary."""
    n_leaves = 1 << depth
    block = len(monomials(l, degree))
    positive = set(rng.permutation(n_leaves)[: n_leaves // 2].tolist())
    disjuncts = []
    for leaf in sorted(positive):
        node = leaf + n_leaves
        conds = []
        while node > 1:
            parent = node // 2
            rel = ">=" if node % 2 == 1 else "<"
            conds.append(f"({rel} {_poly((parent - 1) * block, l, degree)} 0)")
            node = parent
        disjuncts.append("(and " + " ".join(reversed(conds)) + ")")
    return "(or " + " ".join(disjuncts) + ")"


def nn_sexpr(widths) -> str:
    """Logistic network with a witness triple (r, q = exp r, z) per neuron."""
    atoms, bound = [], []
    prev = [f"x{s}" for s in range(widths[0])]
    pos = neuron = 0
    final = None
    for d_prev, d in zip(widths, widths[1:]):
        nxt = []
        for _ in range(d):
            r, q, z = (f"w{3 * neuron + k}" for k in range(3))
            bound += [r, q, z]
            neuron += 1
            affine = [f"(* a{pos + s} {v})" for s, v in enumerate(prev)]
            affine.append(f"a{pos + d_prev}")
            pos += d_prev + 1
            atoms.append(f"(= {r} (+ {' '.join(affine)}))")
            atoms.append(f"(= {q} (exp {r}))")
            atoms.append(f"(= (+ (* {z} {q}) {z}) {q})")
            nxt.append(z)
            final = r
        prev = nxt
    atoms.append(f"(>= {final} 0)")
    return f"(exists ({' '.join(bound)}) (and {' '.join(atoms)}))"


# ---------------------------------------------------------------------------
# Linear systems for Fourier-Motzkin


def linear_system(rng, n_vars: int, n_rows: int) -> dict:
    """A bounded-coefficient system a.v <= b with b > 0 (the origin is
    strictly feasible).  The first column has exactly n_rows/2 positive and
    n_rows/2 negative entries and no entry is zero, so eliminating v0 then
    v1 yields close to a fixed number of rows whatever the seed."""
    half = n_rows // 2
    signs = np.array([1] * half + [-1] * (n_rows - half))
    rng.shuffle(signs)
    mags = rng.integers(1, 10, size=(n_rows, n_vars))
    other = rng.choice([-1, 1], size=(n_rows, n_vars))
    other[:, 0] = signs
    coeffs = (mags * other).tolist()
    rhs = rng.integers(1, 21, size=n_rows).tolist()
    return {"variables": [f"v{i}" for i in range(n_vars)],
            "constraints": [{"coeffs": [str(c) for c in row], "rel": "<=",
                             "rhs": str(b)} for row, b in zip(coeffs, rhs)]}
