"""Tests for realizable data generation, approximate ERM and the sweep."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from stratdef.families import (
    halfspace,
    identity,
    interval_radius,
    lp_ball,
    make_family,
    make_neighborhood,
    threshold,
)
from stratdef.learn import (
    LearnError,
    empirical_error,
    erm_fit,
    generate_realizable,
    heldout_error,
    sample_complexity_sweep,
    uniform_box_sampler,
)


def _threshold_setup():
    return threshold(), interval_radius(Fraction(1, 4)), (Fraction(1, 10),)


# ---------------------------------------------------------------------------
# Data generation


def test_generate_realizable_replays_bit_exact():
    fam, neigh, target = _threshold_setup()
    dist = uniform_box_sampler(1)
    d1 = generate_realizable(fam, neigh, target, dist, 50, seed=7)
    d2 = generate_realizable(fam, neigh, target, dist, 50, seed=7)
    assert d1.points == d2.points
    d3 = generate_realizable(fam, neigh, target, dist, 50, seed=8)
    assert d1.points != d3.points


def test_generate_realizable_labels_are_strategic():
    fam, neigh, target = _threshold_setup()
    dist = uniform_box_sampler(1)
    data = generate_realizable(fam, neigh, target, dist, 200, seed=1)
    # threshold at 0.1, reach 0.25: label is x + 1/4 >= 1/10
    for (x,), lab in data.points:
        assert lab == (x + 0.25 >= 0.1)


def test_identity_neighborhood_gives_base_labels():
    fam = halfspace(2)
    target = (Fraction(1), Fraction(-1), Fraction(0))
    dist = uniform_box_sampler(2)
    data = generate_realizable(fam, identity(2), target, dist, 100, seed=3)
    for x, lab in data.points:
        assert lab == bool(fam.evaluate(target, x))


def test_radius_zero_ball_matches_identity():
    fam = halfspace(2)
    target = (Fraction(1), Fraction(1), Fraction(1, 4))
    dist = uniform_box_sampler(2)
    a = generate_realizable(fam, lp_ball(2, 2, 0), target, dist, 100, seed=5)
    b = generate_realizable(fam, identity(2), target, dist, 100, seed=5)
    assert a.points == b.points


# ---------------------------------------------------------------------------
# Empirical error and ERM


def test_empirical_error_zero_on_empty():
    fam, neigh, _ = _threshold_setup()
    err = empirical_error(fam, neigh, (0.0,), np.empty((0, 1)),
                          np.empty((0,), dtype=bool))
    assert err == 0.0


def test_erm_fit_deterministic_and_dominant():
    fam, neigh, target = _threshold_setup()
    dist = uniform_box_sampler(1)
    data = generate_realizable(fam, neigh, target, dist, 60, seed=11)
    r1 = erm_fit(fam, neigh, data, budget=200, seed=0)
    r2 = erm_fit(fam, neigh, data, budget=200, seed=0)
    assert r1.params == r2.params and r1.empirical_error == r2.empirical_error
    # the fitted error never exceeds the target's own (zero, realizable)
    assert r1.empirical_error == 0.0
    assert not r1.budget_exhausted_nonzero
    assert r1.kind == "approximate-ERM"


def test_erm_fit_error_decreases_with_budget():
    fam = halfspace(2)
    neigh = lp_ball(2, 2, Fraction(1, 4))
    target = (Fraction(1), Fraction(-1), Fraction(1, 10))
    dist = uniform_box_sampler(2)
    data = generate_realizable(fam, neigh, target, dist, 150, seed=13)
    # injection disabled so the search has to work for its error
    small = erm_fit(fam, neigh, data, budget=5, seed=2, inject=())
    big = erm_fit(fam, neigh, data, budget=400, seed=2, inject=())
    assert big.empirical_error <= small.empirical_error


def test_erm_fit_rejects_zero_budget():
    fam, neigh, target = _threshold_setup()
    dist = uniform_box_sampler(1)
    data = generate_realizable(fam, neigh, target, dist, 10, seed=1)
    with pytest.raises(LearnError):
        erm_fit(fam, neigh, data, budget=0, seed=0)


HALFSPACE_TARGET = (Fraction(1), Fraction(-1), Fraction(1, 10))


# (family, neighborhood, target: a tuple, or the seed of a draw as the CLI
# makes it, m, data seed, budget, fit seed, inject) -> ErmResult fields
@pytest.mark.parametrize("case, expected", [
    # closed form, five improvements in the local phase
    (("halfspace:l=2", "lp:l=2,p=2,r=1/4", HALFSPACE_TARGET, 150, 13, 60, 1,
      ()),
     ((2.2840690284974325, -1.8691346681120966, -0.10104955728199536),
      0.05333333333333334, 59, True)),
    # closed form, four improvements, the last one at zero error
    (("halfspace:l=2", "lp:l=2,p=2,r=1/4", HALFSPACE_TARGET, 20, 3, 60, 5,
      None),
     ((2.778400175413757, -2.764651007650471, 0.3189177296814316),
      0.0, 41, False)),
    # sampled neighbors, two improvements in the local phase
    (("ptf:l=2,D=2", "lp:l=2,p=2,r=1/4", 1, 64, 9, 60, 1, ()),
     ((0.38351700137028116, 1.520020609891587, -2.417101735531103,
       -4.15552942988498, -0.2288362159519567, 0.3076698319794443),
      0.046875, 59, True)),
    (("tree:l=2,depth=2,q=1,labels=0110", "linf:l=2,r=1/4", 0, 64, 9, 60, 0,
      ()),
     ((0.35744994624867266, -0.422016326317635, 0.9566910387918158,
       -2.2200997768223942, 1.2007553951545435, -2.501982743123141,
       2.185549588693937, -2.321648086715437, 1.5778818180950225),
      0.078125, 59, True)),
    # budgets 1 and 2 leave the local phase no step
    (("halfspace:l=2", "lp:l=2,p=2,r=1/4", HALFSPACE_TARGET, 150, 13, 1, 0,
      ()),
     ((1.9029142070142644, 0.8552616393730932, -1.3312210605718287),
      0.43333333333333335, 1, True)),
    (("halfspace:l=2", "lp:l=2,p=2,r=1/4", HALFSPACE_TARGET, 150, 13, 2, 0,
      ()),
     ((1.9029142070142644, 0.8552616393730932, -1.3312210605718287),
      0.43333333333333335, 1, True)),
    (("halfspace:l=2", "lp:l=2,p=2,r=1/4", HALFSPACE_TARGET, 150, 13, 2, 0,
      None),
     ((1.0, -1.0, 0.1), 0.0, 2, False)),
    # the uniform phase reaches zero error at its eighth candidate
    (("ptf:l=2,D=2", "lp:l=2,p=2,r=1/4", 0, 32, 5, 50, 1, None),
     ((-1.86058520481923, 0.11580822800904578, 0.23245730467618664,
       -1.704994849107862, -1.166670925046498, -1.130477524456087),
      0.0, 8, False)),
])
def test_erm_fit_results_pinned(case, expected):
    fspec, nspec, target, m, data_seed, budget, seed, inject = case
    fam, neigh = make_family(fspec), make_neighborhood(nspec)
    if isinstance(target, int):
        target = fam.draw_params(np.random.default_rng([target, 0xA5]))
    data = generate_realizable(fam, neigh, target,
                               uniform_box_sampler(fam.input_dim), m,
                               data_seed)
    fit = erm_fit(fam, neigh, data, budget, seed, inject=inject)
    assert (fit.params, fit.empirical_error, fit.budget_spent,
            fit.budget_exhausted_nonzero) == expected


def test_erm_threshold_zero_error_on_50_points():
    fam, neigh, target = _threshold_setup()
    dist = uniform_box_sampler(1)
    zero = 0
    for trial in range(20):
        data = generate_realizable(fam, neigh, target, dist, 50, seed=trial)
        fit = erm_fit(fam, neigh, data, budget=300, seed=trial)
        if fit.empirical_error == 0.0:
            zero += 1
    assert zero >= 19  # >= 95% of trials reach a consistent hypothesis


def test_heldout_error_sample_size_and_halfwidth():
    fam, neigh, target = _threshold_setup()
    dist = uniform_box_sampler(1)
    err, half = heldout_error(fam, neigh, target, target, dist,
                              eps=0.1, seed=0)
    assert err == 0.0  # target vs itself
    n = math.ceil(20 / 0.1)
    assert half == pytest.approx(math.sqrt(math.log(2 / 0.05) / (2 * n)))


# ---------------------------------------------------------------------------
# Sample-complexity sweep


def test_sweep_threshold_products_stay_bounded():
    fam, neigh, target = _threshold_setup()
    rep = sample_complexity_sweep(fam, neigh, target,
                                  eps_grid=[0.2, 0.1, 0.05],
                                  delta=0.1, trials=10, seed=0)
    assert len(rep.rows) == 3
    products = [r.product for r in rep.rows]
    # m_hat * eps should not blow up as eps shrinks (VC class)
    assert max(products) <= 4 * max(products[0], 1.0)
    for row in rep.rows:
        assert row.success_rate >= 0.9
        assert row.zero_error_rate >= 0.95
        assert row.m_hat >= 1
    assert rep.slope is not None


def test_sweep_is_deterministic():
    fam, neigh, target = _threshold_setup()
    kw = dict(eps_grid=[0.2], delta=0.1, trials=5, seed=4)
    r1 = sample_complexity_sweep(fam, neigh, target, **kw)
    r2 = sample_complexity_sweep(fam, neigh, target, **kw)
    assert r1.rows == r2.rows
