import math
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from sandwichlab.coupling import ModelParams
from sandwichlab.graphs import (
    SimpleGraph,
    canonical_key,
    complete_graph,
    random_regular_graph,
)
from sandwichlab.oracle import CapacityError, enumerate_regular
from sandwichlab.stats import (
    ModelViolationError,
    chernoff_bound,
    chi_square_uniformity,
    containment_rate,
    mcdiarmid_bound,
    path_polynomial_stats,
    schedule_mass,
    translation_check,
)
from sandwichlab.switching import count_alternating

from _reference import brute_force_path_polynomial


def test_chernoff_example():
    assert chernoff_bound(300, 0.1) == pytest.approx(2 * math.exp(-1))
    with pytest.raises(ValueError):
        chernoff_bound(10, 1.5)
    with pytest.raises(ValueError):
        chernoff_bound(-1, 0.5)


def test_mcdiarmid_trivia_and_monotonicity():
    assert mcdiarmid_bound(7.0, 0.0) == 1.0
    assert mcdiarmid_bound(10, 0.5) <= mcdiarmid_bound(5, 0.5)
    assert mcdiarmid_bound(10, 0.9) <= mcdiarmid_bound(10, 0.5)
    with pytest.raises(ValueError):
        mcdiarmid_bound(-1, 0.5)


def test_schedule_mass_zero_c0():
    mass = schedule_mass(ModelParams(n=10, d=4, c0=0.0))
    assert mass.e_s == 0.0 and mass.passed


def test_schedule_mass_exact_c0_scaling():
    base = schedule_mass(ModelParams(n=12, d=4, c0=1.0))
    for c0 in (0.5, 2.0, 7.0):
        scaled = schedule_mass(ModelParams(n=12, d=4, c0=c0))
        assert scaled.e_s == c0 * base.base_sum
        assert scaled.base_sum == base.base_sum


def test_schedule_mass_monotone_in_c0():
    values = [schedule_mass(ModelParams(n=12, d=4, c0=c)).e_s
              for c in (0.1, 0.5, 1.0, 2.0)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_schedule_mass_matches_direct_sum():
    params = ModelParams(n=10, d=4, c0=1.3, mu=0.2, eps=0.8)
    r = params.R
    direct = sum(
        params.stage_slack(i + r - 1) * (params.d * params.n / 2)
        / (params.steps_upper - r - i + 1)
        for i in range(1, params.n_budget + 1)
    )
    assert schedule_mass(params).e_s == pytest.approx(direct, rel=1e-12)


def test_path_polynomial_refuses_an_order_above_four_or_p_outside_0_1():
    k = random_regular_graph(6, 3, random.Random(61))
    with pytest.raises(CapacityError, match="k <= 4"):
        path_polynomial_stats(k, Fraction(1, 2), 1, 2, 5)
    for p in (-0.5, 1.5):
        with pytest.raises(ValueError, match=re.escape("p must lie in [0,1]")):
            path_polynomial_stats(k, p, 1, 2, 2)


def test_path_polynomial_p_zero_and_one():
    k = random_regular_graph(10, 3, random.Random(60))
    zero = path_polynomial_stats(k, 0, 1, 2, 2)
    assert zero.e_y == 0
    one = path_polynomial_stats(k, 1, 1, 2, 2, z=(4, 5))
    direct = count_alternating(complete_graph(10), k, 1, 4, y=2, avoid=(4, 5))
    assert one.e_y == direct


def test_path_polynomial_rejects_vertices_outside_range():
    k = random_regular_graph(8, 3, random.Random(63))
    for x, y, z in ((1, 99, ()), (0, 2, ()), (9, 2, ()), (1, 2, (3, 9)), (1, 2, (-1,))):
        with pytest.raises(ValueError, match="outside"):
            path_polynomial_stats(k, Fraction(1, 2), x, y, 2, z=z)


def test_path_polynomial_cross_check_many_instances():
    rng = random.Random(61)
    for _ in range(25):
        n = rng.randint(8, 10)
        d = rng.choice([2, 3])
        if (n * d) % 2:
            d += 1
        k = random_regular_graph(n, d, rng)
        x, y = rng.sample(range(1, n + 1), 2)
        order = rng.randint(1, 3)
        stat = path_polynomial_stats(k, 1, x, y, order)
        direct = count_alternating(complete_graph(n), k, x, 2 * order, y=y)
        assert stat.e_y == direct


def test_path_polynomial_matches_brute_force_paths():
    rng = random.Random(64)
    for _ in range(80):
        n = rng.randint(4, 8)
        density = rng.uniform(0.3, 0.7)
        k = SimpleGraph(n, [pair for pair in combinations(range(1, n + 1), 2)
                            if rng.random() < density])
        x, y = rng.sample(range(1, n + 1), 2)
        order = rng.randint(1, min(3, (n - 1) // 2))
        avoid = tuple(v for v in range(1, n + 1)
                      if v not in (x, y) and rng.random() < 0.15)
        p = Fraction(rng.randint(0, 5), 5)
        stat = path_polynomial_stats(k, p, x, y, order, z=avoid)
        count, e_y, by_order = brute_force_path_polynomial(k, p, x, y, order,
                                                           avoid)
        assert (stat.skeleton_count, stat.e_y, stat.by_order) == (count, e_y,
                                                                  by_order)


def test_path_polynomial_exact_rationals_and_orders():
    k = random_regular_graph(8, 3, random.Random(62))
    p = Fraction(1, 3)
    stat = path_polynomial_stats(k, p, 1, 2, 2)
    assert stat.e_y == stat.skeleton_count * p ** 2
    assert stat.e_max == max(stat.e_y, stat.e_prime)
    assert set(stat.by_order) == {0, 1, 2}
    assert stat.by_order[0] == stat.e_y
    # forcing one edge leaves a p^(k-1) factor
    assert stat.by_order[1].denominator in (1, 3)
    assert stat.deviation_bound > 0


def test_chi_square_single_atom():
    law = {"a": Fraction(1)}
    fit = chi_square_uniformity(["a"] * 50, law)
    assert fit.statistic == 0.0 and fit.p_value == 1.0


def test_chi_square_refuses_an_empty_sample():
    with pytest.raises(ValueError, match="no samples"):
        chi_square_uniformity([], {"a": Fraction(1, 2), "b": Fraction(1, 2)})


def test_chi_square_calibration():
    atoms = [canonical_key(g) for g in enumerate_regular(complete_graph(5), 2)]
    law = {a: Fraction(1, 12) for a in atoms}
    rng = random.Random(63)
    meta_pass = 0
    for _ in range(40):
        samples = [atoms[rng.randrange(12)] for _ in range(6000)]
        fit = chi_square_uniformity(samples, law)
        meta_pass += fit.p_value > 1e-3
    assert meta_pass >= 39


def test_chi_square_negative_control():
    atoms = [canonical_key(g) for g in enumerate_regular(complete_graph(5), 2)]
    law = {a: Fraction(1, 12) for a in atoms}
    rng = random.Random(64)
    samples = [atoms[rng.randrange(6)] for _ in range(6000)]  # half the atoms
    fit = chi_square_uniformity(samples, law)
    assert fit.p_value < 1e-6


def test_chi_square_unseen_key_is_model_violation():
    with pytest.raises(ModelViolationError):
        chi_square_uniformity(["mystery"], {"a": 1.0})


def test_chi_square_pooling_keeps_total_mass():
    law = {"a": 0.94} | {f"tiny{i}": 0.002 for i in range(30)}
    samples = ["a"] * 900 + [f"tiny{i % 30}" for i in range(100)]
    fit = chi_square_uniformity(samples, law)
    assert sum(exp for _, _, exp in fit.cells) == pytest.approx(1000)
    assert sum(obs for _, obs, exp in fit.cells) == 1000


def test_containment_rate_interval():
    est = containment_rate([True] * 90 + [False] * 10, confidence=0.99)
    assert est.rate == pytest.approx(0.9)
    assert est.lo < 0.9 < est.hi
    allgood = containment_rate([True] * 50)
    assert allgood.hi == 1.0 and allgood.lo < 1.0
    with pytest.raises(ValueError):
        containment_rate([])


def _binomial_tail(n, p, ks):
    return math.fsum(math.comb(n, k) * p ** k * (1 - p) ** (n - k) for k in ks)


def test_containment_rate_bounds_are_exact_binomial_tails():
    # a Clopper-Pearson bound leaves alpha/2 in the binomial tail beyond it
    for n, s in ((10, 3), (50, 49), (7, 1)):
        est = containment_rate([True] * s + [False] * (n - s))
        alpha = 1 - est.confidence
        assert abs(_binomial_tail(n, est.lo, range(s, n + 1)) - alpha / 2) < 1e-9
        assert abs(_binomial_tail(n, est.hi, range(s + 1)) - alpha / 2) < 1e-9
    assert containment_rate([False] * 7).lo == 0.0
    assert containment_rate([True] * 7).hi == 1.0


def test_chi_square_p_value_is_the_even_dof_tail():
    # with 2k degrees of freedom, P(chi2 > x) = exp(-x/2) sum_{i<k} (x/2)^i / i!
    for counts in ((30, 45, 25), (30, 25, 20, 15, 10), (9, 14, 21, 17, 12, 16, 11)):
        law = {i: Fraction(1, len(counts)) for i in range(len(counts))}
        samples = [i for i, c in enumerate(counts) for _ in range(c)]
        fit = chi_square_uniformity(samples, law)
        k, half = fit.dof // 2, fit.statistic / 2
        assert fit.dof == 2 * k == len(counts) - 1
        tail = math.exp(-half) * math.fsum(half ** i / math.factorial(i)
                                           for i in range(k))
        assert fit.p_value == pytest.approx(tail, rel=1e-12, abs=0)


def test_translation_trivial_predicates():
    params = ModelParams(n=5, d=2, m=2)
    always = translation_check(params, lambda f, k: True)
    assert always.lhs == 0 and always.rhs == 0 and always.equal
    assert all(v == 0 for v in always.bad_fraction_tail.values())
    never = translation_check(params, lambda f, k: False)
    assert never.lhs == 1 and never.rhs == 1 and never.equal
    assert all(never.bad_fraction_tail[t] == 1
               for t in never.bad_fraction_tail if t < 1)


def test_translation_edge_predicate_exact():
    params = ModelParams(n=5, d=2, m=2)
    report = translation_check(params, lambda f, k: k.has_edge(1, 2))
    # each edge lies in exactly half of the 12 two-regular graphs
    assert report.lhs == Fraction(1, 2)
    assert report.equal
