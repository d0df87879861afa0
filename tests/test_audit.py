import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandwichlab.audit import (
    _expansion_statistic,
    check_connection,
    check_degree_band,
    check_expansion_fk,
    check_expansion_k,
    check_fk_degrees,
    check_local_density,
    check_neighborhood_sums,
    check_uv_distribution,
    ell0,
)
from sandwichlab.coupling import ModelParams, sample_f
from sandwichlab.graphs import (
    SimpleGraph,
    complete_graph,
    cycle_graph,
    difference,
    edges_between,
    empty_graph,
    gnp_graph,
    graph_from_mask,
    multi_covered_edges,
    edges_inside,
    random_regular_graph,
    union,
    vertex_mask,
)

from _reference import expansion_instances, expansion_report


def _planted_pair(seed, n=12, d=4, m=24):
    rng = random.Random(seed)
    params = ModelParams(n=n, d=d, m=m)
    k, f = sample_f(params, rng)
    return k, f, 2 * m / n


def test_degree_band_exact_construction():
    # K plus exactly delta extra edges at every vertex: a disjoint 2-regular layer
    rng = random.Random(40)
    k = random_regular_graph(8, 3, rng)
    while True:
        layer = random_regular_graph(8, 2, rng)
        if not any(k.has_edge(*e) for e in layer.edges()):
            break
    f = union(k, layer)
    report = check_degree_band(f, 3, delta=2.0, eta=0.5)
    assert report.passed
    assert report.worst_margin == pytest.approx(0.5 * 2.0)


def test_degree_band_isolated_vertex_fails():
    f = SimpleGraph(5, [(1, 2), (2, 3), (3, 4), (1, 4)])  # vertex 5 isolated
    report = check_degree_band(f, 1, delta=1.0, eta=0.5)
    assert not report.passed
    assert report.witness == 5


def test_degree_band_monte_carlo_rate():
    passes = 0
    for seed in range(50):
        k, f, delta = _planted_pair(seed)
        passes += check_degree_band(f, 4, delta, eta=0.5).passed
    assert passes >= 25  # loose: the measured rate is reported, not asserted tight


def test_fk_degree_band_trivia():
    k = random_regular_graph(8, 3, random.Random(41))
    report = check_fk_degrees(k, k, delta=1.0, band_constant=0.1)
    assert not report.passed  # all F\K degrees 0, band excludes 0
    rng = random.Random(42)
    while True:
        layer = random_regular_graph(8, 2, rng)
        if not any(k.has_edge(*e) for e in layer.edges()):
            break
    f = union(k, layer)
    report = check_fk_degrees(f, k, delta=2.0, band_constant=0.5)
    assert report.passed


def test_fk_degrees_requires_containment():
    with pytest.raises(ValueError):
        check_fk_degrees(empty_graph(4), complete_graph(4), 1.0, 1.0)


def test_neighborhood_sums_empty_difference():
    k = random_regular_graph(8, 3, random.Random(43))
    report = check_neighborhood_sums(k, k, delta=1.0, d=3)
    assert report.passed  # all sums 0, centers 0


def test_neighborhood_sums_brute_recomputation():
    k, f, delta = _planted_pair(44)
    fk = difference(f, k)
    report = check_neighborhood_sums(f, k, delta, 4, tol=1.0)
    v = report.witness
    total = sum(fk.degree(u2) for u in fk.neighbors(v) for u2 in k.neighbors(u))
    center = fk.degree(v) * delta * 4
    margin = min(total - (1 - 1.0) * center, (1 + 1.0) * center - total)
    assert report.worst_margin == pytest.approx(margin)


def test_expansion_k_vacuous_and_thresholds():
    k, f, delta = _planted_pair(45)
    vac = check_expansion_k(f, k, lam=0.5, d=4, delta=delta, log_divisor=True)
    assert vac.passed and vac.instances == 0 and "vacuous" in vac.notes
    big = check_expansion_k(f, k, lam=50.0, d=4, delta=delta, log_divisor=False,
                            size_cap=4, rng=random.Random(0))
    assert big.passed and big.instances > 0
    zero = check_expansion_k(f, k, lam=0.0, d=4, delta=delta, log_divisor=False,
                             size_cap=4, rng=random.Random(0))
    assert not zero.passed and zero.witness is not None


def test_expansion_witness_reevaluates():
    k, f, delta = _planted_pair(46)
    report = check_expansion_k(f, k, lam=0.8, d=4, delta=delta,
                               log_divisor=False, size_cap=5,
                               rng=random.Random(3))
    uprime, u = report.witness
    stat = len(multi_covered_edges(k, u)) + edges_inside(k, u)
    assert report.worst_margin == pytest.approx(0.8 * 4 * len(u) - stat)
    fk_report = check_expansion_fk(f, k, lam=0.8, delta=delta, d=4,
                                   size_cap=5, rng=random.Random(3))
    if fk_report.witness is not None:
        uprime, u = fk_report.witness
        fk = difference(f, k)
        stat = len(multi_covered_edges(fk, u)) + edges_inside(fk, u)
        expected = (0.8 / math.log(f.n)) * delta * len(u) - stat
        assert fk_report.worst_margin == pytest.approx(expected)


def test_expansion_refuses_a_witness_cap_below_one():
    k, f, delta = _planted_pair(47)
    with pytest.raises(ValueError, match="witness_cap must be at least 1, got 0"):
        check_expansion_k(f, k, lam=0.8, d=4, delta=delta, log_divisor=False,
                          size_cap=4, witness_cap=0, rng=random.Random(0))
    with pytest.raises(ValueError, match="witness_cap must be at least 1, got -1"):
        check_expansion_fk(f, k, lam=0.8, delta=delta, d=4, size_cap=4,
                           witness_cap=-1)


@pytest.mark.parametrize("rng, samples, reason", [
    (None, 50, "no rng"),
    (random.Random(0), 0, "samples 0"),
])
def test_expansion_with_every_pool_over_the_cap_names_the_cap(rng, samples,
                                                              reason):
    k, f, delta = _planted_pair(47)
    for report in (
            check_expansion_k(f, k, lam=0.8, d=4, delta=delta,
                              log_divisor=False, size_cap=4, pool_cap=1,
                              samples=samples, rng=rng),
            check_expansion_fk(f, k, lam=0.8, delta=delta, d=4, size_cap=4,
                               pool_cap=1, samples=samples, rng=rng)):
        assert report.instances == 0 and report.passed
        assert report.notes == f"vacuous: every pool exceeds pool_cap 1 and {reason}"


def test_expansion_sampling_skips_pools_without_room_for_the_ratio():
    # delta 8 asks |U| >= 2|U'| with |U| <= 4: only the 3 pools {1, 2, 3} of
    # U' = {1}, {2}, {3} and the 9 pools {1, 2, 3, x} of U' = {a, x}, a <= 3 < x,
    # have room; the others, such as {4}, must not reach the sampler
    f = SimpleGraph(6, [(1, 2), (2, 3), (1, 3)])
    report = check_expansion_k(f, empty_graph(6), lam=0.8, d=3, delta=8.0,
                               log_divisor=False, size_cap=4, pool_cap=0,
                               samples=5, rng=random.Random(0))
    assert report.instances == 12 * 5


@st.composite
def _graph_and_set(draw, max_n=14):
    n = draw(st.integers(1, max_n))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return graph_from_mask(n, mask), draw(st.sets(st.integers(1, n)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(g_u=_graph_and_set())
def test_expansion_statistic_matches_edge_sets(g_u):
    g, drawn = g_u
    for u in (drawn, set(), set(g.vertices())):
        expected = len(multi_covered_edges(g, u)) + edges_inside(g, u)
        assert _expansion_statistic(g, vertex_mask(u)) == expected


# rows that must show a shape: "tie", several U of one (U', |U|) block at the
# worst margin; "sampled", pools above pool_cap sampled from the rng
_EXPANSION_SHAPES = {(12, 4, 24, 2, 1, 14): "tie", (12, 4, 24, 3, 2, 4): "sampled"}


@pytest.mark.parametrize("n, d, m, size_cap, witness_cap, pool_cap", [
    (10, 3, 12, 4, 3, 14),
    (12, 4, 24, 3, 3, 14),
    (14, 3, 21, 3, 2, 14),
    (12, 4, 24, 4, 3, 5),
    (14, 3, 21, 5, 3, 6),
    *_EXPANSION_SHAPES,
])
def test_expansion_reports_match_per_pair_reference(n, d, m, size_cap,
                                                    witness_cap, pool_cap):
    shape = _EXPANSION_SHAPES.get((n, d, m, size_cap, witness_cap, pool_cap))
    shapes = set()
    for seed in range(2):
        k, f, delta = _planted_pair(60 + seed, n=n, d=d, m=m)
        for lam in (0.8, 4.0):
            kw = dict(size_cap=size_cap, witness_cap=witness_cap,
                      pool_cap=pool_cap, samples=20)
            for counts_k, check, args, extra in (
                    (True, check_expansion_k, (lam, d, delta),
                     {"log_divisor": bool(seed)}),
                    (False, check_expansion_fk, (lam, delta, d), {})):
                got = check(f, k, *args, rng=random.Random(seed), **extra, **kw)
                ref = (f, k, counts_k, lam, delta, d)
                want = expansion_report(*ref, rng=random.Random(seed), **extra, **kw)
                assert got.as_dict() == want
                rng = random.Random(seed)
                _, _, stream = expansion_instances(*ref, rng=rng, **extra, **kw)
                at_worst = [(uprime, len(u)) for margin, (uprime, u) in stream
                            if margin == want["worst_margin"]]
                if max(Counter(at_worst).values()) > 1:
                    shapes.add("tie")
                if rng.random() != random.Random(seed).random():
                    shapes.add("sampled")
    assert shape is None or shape in shapes


def test_local_density_trivia():
    assert check_local_density(empty_graph(20)).passed
    full = complete_graph(20)
    tight = check_local_density(full, count_cap=2.0, enum_cap=1,
                                size_cap=12, degree_cap=1,
                                rng=random.Random(0))
    assert not tight.passed


def test_local_density_with_nothing_to_check_is_vacuous():
    report = check_local_density(cycle_graph(6), enum_cap=0)
    assert report.instances == 0
    assert report.notes == "vacuous: enum_cap 0 and no rng: no set checked"
    sampled = check_local_density(cycle_graph(6), enum_cap=0, samples=0,
                                  rng=random.Random(0))
    assert sampled.notes == "vacuous: enum_cap 0 and samples 0: no set checked"


def test_local_density_gnp_rate():
    rng = random.Random(47)
    passes = 0
    for _ in range(10):
        h = gnp_graph(64, 64 ** (0.1 - 1), rng)
        passes += check_local_density(h, rng=rng).passed
    assert passes == 10  # cap 100*log(64) is generous at this density


def test_connection_complete_and_empty():
    # F\K complete: every disjoint pair sees all |U||V| edges, ratio n/delta >= 1
    f = complete_graph(8)
    k = empty_graph(8)
    report = check_connection(f, k, lam=0.5, size_floor=2)
    assert report.passed
    assert report.witness["ratio"] >= 1.0
    kreg = random_regular_graph(8, 3, random.Random(48))
    flat = check_connection(kreg, kreg, lam=0.5, size_floor=2)
    assert flat.notes.startswith("vacuous")


def test_connection_without_samples_names_exhaustive_n():
    k, f, delta_unused = _planted_pair(56, n=10, d=3, m=10)
    report = check_connection(f, k, 0.5, size_floor=2, samples=0)
    assert report.instances == 0
    assert report.notes == "vacuous: n=10 is above exhaustive_n=8 and samples 0"


def test_uv_distribution_floor_above_n_skips_sampling():
    k = random_regular_graph(10, 3, random.Random(57))
    report = check_uv_distribution(k, 3, size_floor=11, samples=1,
                                   rng=random.Random(0))
    assert report.instances == 0
    assert report.notes == "vacuous: floor 11 exceeds n=10"


@pytest.mark.parametrize("floor", [0, -1])
def test_size_floor_below_one_is_refused(floor):
    # a set of size 0 would reach the density ratio's denominator
    k, f, delta_unused = _planted_pair(58, n=10, d=3, m=10)
    with pytest.raises(ValueError, match="size floor must be at least 1"):
        check_connection(f, k, 0.5, size_floor=floor, rng=random.Random(0))
    with pytest.raises(ValueError, match="size floor must be at least 1"):
        check_uv_distribution(k, 3, size_floor=floor, samples=50,
                              rng=random.Random(0))


def test_connection_witness_reevaluates():
    k, f, delta_unused = _planted_pair(49, n=8, d=3, m=8)
    report = check_connection(f, k, lam=0.5, size_floor=2)
    fk = difference(f, k)
    delta = 2 * fk.edge_count() / 8
    u, v = report.witness["pair"]
    e_uv = edges_between(fk, u, v)
    assert report.witness["ratio"] == pytest.approx(
        e_uv * 8 / (delta * len(u) * len(v)))


def test_uv_distribution_complete_graph_passes():
    for n in (6, 8, 10):
        report = check_uv_distribution(complete_graph(n), n - 1)
        assert report.passed


def test_uv_distribution_full_sets_ratio_one():
    k = random_regular_graph(16, 3, random.Random(50))
    report = check_uv_distribution(k, 3)
    assert report.instances >= 1
    # U = V = [n] gives ordered count dn, ratio exactly 1
    assert report.worst_margin == pytest.approx(16 ** -0.01)


def test_uv_distribution_sampled_margins():
    k = random_regular_graph(16, 3, random.Random(51))
    report = check_uv_distribution(k, 3, size_floor=6, samples=200,
                                   rng=random.Random(1))
    assert report.instances >= 200
    assert report.witness["ratio"] is not None


def test_ell0_examples():
    assert ell0(Fraction(100), 1, 10 ** 6) == 4
    assert ell0(10, 10, 10 ** 6) == 4
    assert ell0(20, 1, 10) == 2
    assert ell0(Fraction(3, 2), 2, 2) == 2
    with pytest.raises(ValueError):
        ell0(1, 1, 100)


def test_ell0_monotone_in_product():
    values = [ell0(Fraction(x), 1, 10 ** 5) for x in range(2, 60)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_degree_band_witness_reevaluates():
    k, f, delta = _planted_pair(52)
    report = check_degree_band(f, 4, delta, eta=0.5)
    v = report.witness
    deg = f.degree(v)
    lo, hi = 4 + (1 - 0.5) * delta, 4 + (1 + 0.5) * delta
    assert report.worst_margin == pytest.approx(min(deg - lo, hi - deg))


def test_fk_degrees_witness_reevaluates():
    k, f, delta = _planted_pair(53)
    report = check_fk_degrees(f, k, delta, band_constant=1.0)
    v = report.witness
    band = 1.0 * math.sqrt(math.log(f.n) / delta)
    deg = difference(f, k).degree(v)
    expected = min(deg - (1 - band) * delta, (1 + band) * delta - deg)
    assert report.worst_margin == pytest.approx(expected)


def test_uv_distribution_witness_reevaluates():
    k = random_regular_graph(12, 3, random.Random(54))
    report = check_uv_distribution(k, 3, size_floor=5, samples=100,
                                   rng=random.Random(2))
    u, v = report.witness["pair"]
    ratio = edges_between(k, u, v) * 12 / (3 * len(u) * len(v))
    assert report.witness["ratio"] == pytest.approx(ratio)
    assert report.worst_margin == pytest.approx(12 ** -0.01 - abs(ratio - 1))


def test_sampled_checks_are_seed_deterministic():
    k, f, delta = _planted_pair(55)
    first = check_expansion_k(f, k, lam=0.7, d=4, delta=delta,
                              log_divisor=False, size_cap=5,
                              rng=random.Random(9))
    second = check_expansion_k(f, k, lam=0.7, d=4, delta=delta,
                               log_divisor=False, size_cap=5,
                               rng=random.Random(9))
    assert first.worst_margin == second.worst_margin
    assert first.witness == second.witness
    assert first.instances == second.instances


def test_ties_keep_the_first_instance():
    # K a 6-cycle and F\K the perfect matching of opposite vertices: both are
    # regular, so every vertex has the same margin and vertex 1 must win
    k = cycle_graph(6)
    f = union(k, SimpleGraph(6, [(1, 4), (2, 5), (3, 6)]))
    assert check_degree_band(f, 2, 1.0, 0.5).witness == 1
    assert check_fk_degrees(f, k, 1.0, 1.0).witness == 1
    assert check_neighborhood_sums(f, k, 1.0, 2).witness == 1
    # each singleton has its two cycle neighbours as offenders
    density = check_local_density(cycle_graph(6), enum_cap=1, degree_cap=1)
    assert density.instances == 6
    assert density.worst_margin == 100 * math.log(6) - 2
    assert density.witness == (1,)
