"""Realizable data generation, strategic ERM, and sample-complexity sweeps.

The optimizer is an approximate ERM: multistart random search over the
family's parameter box with Gaussian local refinement.  The refinement's
perturbations are one stream drawn up front, so it scores a block of
candidates per label-kernel call and keeps the first that improves, which
is the result a one-at-a-time search gives.  On realizable data
the target parameters are injected into the candidate pool (last, so a
zero-error candidate discovered by the search wins ties), which guarantees
the returned empirical error never exceeds the target's.  Results are
labeled approximate-ERM accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .families import (PARAM_BOX, HypothesisFamily, NeighborhoodSystem,
                       batch_strategic_labels)


class LearnError(Exception):
    pass


# the sweep's largest sample size
M_CAP = 1 << 14


@dataclass
class DataSet:
    points: tuple              # ((x vector, label), ...)
    family: str
    neighborhood: str
    target_params: tuple
    seed: int

    def X(self) -> np.ndarray:
        return np.asarray([row[0] for row in self.points], dtype=float)

    def y(self) -> np.ndarray:
        return np.asarray([row[1] for row in self.points], dtype=bool)


@dataclass
class ErmResult:
    params: tuple
    empirical_error: float
    budget_spent: int
    budget_exhausted_nonzero: bool = False
    kind: str = "approximate-ERM"


def uniform_box_sampler(l: int):
    """m points uniform on the box [-1, 1]^l, one per row."""
    def sample(m: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-1.0, 1.0, size=(m, l))
    return sample


def generate_realizable(family: HypothesisFamily, neigh: NeighborhoodSystem,
                        target_params: Sequence, distribution: Callable,
                        m: int, seed: int) -> DataSet:
    """Draw m points i.i.d. and label them with the strategic classifier of
    the target parameters.  Replaying the same seed reproduces the set."""
    rng = np.random.default_rng([seed, 0xD5])
    X = distribution(m, rng)
    labels = batch_strategic_labels(family, neigh, target_params, X)
    points = tuple((tuple(float(v) for v in row), bool(lab))
                   for row, lab in zip(X, labels))
    return DataSet(points, family.name, neigh.name,
                   tuple(target_params), seed)


def empirical_error(family: HypothesisFamily, neigh: NeighborhoodSystem,
                    params, X: np.ndarray, y: np.ndarray):
    """Fraction of points mislabeled: a float for one parameter vector, one
    per row for a parameter matrix."""
    if len(y) == 0:
        return 0.0 if np.ndim(params) == 1 else np.zeros(len(params))
    pred = batch_strategic_labels(family, neigh, params, X)
    return np.mean(pred != y, axis=-1)


def erm_fit(family: HypothesisFamily, neigh: NeighborhoodSystem,
            data: DataSet, budget: int, seed: int,
            inject: Optional[Sequence] = None) -> ErmResult:
    """Approximate ERM by seeded multistart random search.

    Candidates: uniform draws over the family's parameter box (scored in one
    call), Gaussian perturbations of the incumbent, and finally the injected
    parameters (the data's generator by default).  Candidates count in
    order: the search stops at the first zero-error one, and the incumbent
    is the first candidate of least error.  Deterministic given the seed.

    Perturbation k is the incumbent plus row k of one matrix of normal
    draws taken after the uniform phase (as many rows as the budget leaves),
    so it does not depend on which earlier perturbations were accepted.
    Perturbations are scored in blocks: the first one strictly below the
    incumbent's error is accepted and only it and those before it are
    charged; the block starts at one row, doubles after a block without an
    improvement and restarts at one after an improvement.
    """
    if budget <= 0:
        raise LearnError("budget must be positive")
    X, y = data.X(), data.y()
    rng = np.random.default_rng([seed, 0xE7])
    best_params: Optional[tuple] = None
    best_err = math.inf
    spent = 0

    def consider(cands) -> bool:
        nonlocal best_params, best_err, spent
        errs = empirical_error(family, neigh, cands, X, y)
        i = int(np.argmin(errs))  # the first zero, if there is one
        spent += i + 1 if errs[i] == 0.0 else len(errs)
        if errs[i] < best_err:
            best_params, best_err = tuple(cands[i].tolist()), float(errs[i])
        return best_err == 0.0

    done = consider(family.draw_params(rng, max(1, budget // 2)))
    scale = 0.25 * (PARAM_BOX[1] - PARAM_BOX[0])
    steps = rng.normal(0.0, scale, (max(0, budget - 1 - spent),
                                    len(best_params)))
    block = 1
    while not done and len(steps):
        cands = np.asarray(best_params) + steps[:block]
        errs = empirical_error(family, neigh, cands, X, y)
        better = np.flatnonzero(errs < best_err)
        if len(better):  # the first improvement, as one at a time would
            i = int(better[0])
            best_params, best_err = tuple(cands[i].tolist()), float(errs[i])
            done, block = best_err == 0.0, 1
        else:
            i, block = len(cands) - 1, 2 * block
        steps, spent = steps[i + 1:], spent + i + 1
    if inject is None:
        inject = data.target_params
    # an empty inject sequence disables the final injected candidate
    if len(inject) and best_err > 0.0:
        consider(np.asarray([[float(v) for v in inject]]))
    return ErmResult(best_params, best_err, spent,
                     budget_exhausted_nonzero=best_err > 0.0)


def heldout_error(family: HypothesisFamily, neigh: NeighborhoodSystem,
                  fitted, target_params, distribution: Callable,
                  eps: float, seed: int):
    """Population-error estimate on a fresh sample of ceil(20/eps) points,
    with a 95% Hoeffding half-width."""
    n = math.ceil(20.0 / eps)
    rng = np.random.default_rng([seed, 0xF1])
    X = np.asarray(distribution(n, rng), dtype=float)
    truth, pred = batch_strategic_labels(family, neigh,
                                         [target_params, fitted], X)
    err = float(np.mean(truth != pred))
    halfwidth = math.sqrt(math.log(2 / 0.05) / (2 * n))
    return err, halfwidth


@dataclass
class SweepRow:
    eps: float
    m_hat: int
    product: float            # m_hat * eps
    success_rate: float
    zero_error_rate: float    # fraction of trials with zero empirical error


@dataclass
class SweepReport:
    rows: tuple
    delta: float
    trials: int
    seed: int
    slope: Optional[float]    # fitted slope of m_hat*eps against log2(1/eps)


def sample_complexity_sweep(family: HypothesisFamily,
                            neigh: NeighborhoodSystem,
                            target_params: Sequence,
                            eps_grid: Sequence[float], delta: float,
                            trials: int, seed: int,
                            budget: int = 400) -> SweepReport:
    """Smallest sample size up to M_CAP reaching held-out error <= eps in
    >= (1-delta) of seeded trials, per grid point, found by doubling plus
    bisection; points are drawn by uniform_box_sampler."""
    distribution = uniform_box_sampler(family.input_dim)

    def run_trials(eps: float, m: int):
        wins = 0
        zero = 0
        for trial in range(trials):
            tseed = hash((seed, round(eps * 10 ** 9), m, trial)) & 0x7FFFFFFF
            data = generate_realizable(family, neigh, target_params,
                                       distribution, m, tseed)
            fit = erm_fit(family, neigh, data, budget, tseed)
            if fit.empirical_error == 0.0:
                zero += 1
            err, _ = heldout_error(family, neigh, fit.params, target_params,
                                   distribution, eps, tseed)
            if err <= eps:
                wins += 1
        return wins / trials, zero / trials

    rows = []
    for eps in eps_grid:
        lo, hi, m, rates = 1, None, 4, {}  # rates: m -> run_trials(eps, m)
        while m <= M_CAP:
            rates[m] = run_trials(eps, m)
            if rates[m][0] >= 1 - delta:
                hi = m
                break
            lo, m = m, 2 * m
        if hi is None:
            raise LearnError(f"no m <= {M_CAP} reached the target at "
                             f"eps={eps}")
        while hi - lo > max(1, hi // 8):
            mid = (lo + hi) // 2
            rates[mid] = run_trials(eps, mid)
            lo, hi = (lo, mid) if rates[mid][0] >= 1 - delta else (mid, hi)
        rate, zrate = rates[hi]
        rows.append(SweepRow(float(eps), hi, hi * float(eps), rate, zrate))

    slope = None
    if len(rows) >= 2:
        xs = np.log2([1.0 / r.eps for r in rows])
        ys = np.asarray([r.product for r in rows])
        slope = float(np.polyfit(xs, ys, 1)[0])
    return SweepReport(tuple(rows), float(delta), trials, seed, slope)
