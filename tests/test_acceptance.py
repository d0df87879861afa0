"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines and timings.  Exact checks carry zero tolerance; statistical checks use
significance 1e-3, calibrated so a correct implementation passes at least 99%
of meta-runs (all seeds below are fixed, so the suite itself is
deterministic).

Criterion 8 regression pilot (documented): master seed 20260808, per-trial
seeds derive_seed(master, "<upper|lower>-trial", t), 1000 trials each at
n=8, d=3, eps=0.9, eta=0.1, tau_floor=0.65 gave upper containment 553/1000
and lower containment 775/1000.  The acceptance interval is the pilot's
exact binomial confidence interval at confidence 1 - 1e-6:
upper [0.4752, 0.6291], lower [0.7057, 0.8353].  A future run (same seeds)
landing outside its interval fails.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from sandwichlab.coupling import (
    ModelParams,
    closed_form_law,
    exact_marginal,
    run_coupled_lower,
    run_coupled_upper,
    run_gstar,
    run_upper_deletion,
    verify_transcript_interleaving,
)
from sandwichlab.graphs import (
    canonical_key,
    complement,
    complete_graph,
    difference,
    gnp_graph,
    is_regular,
    parse_graph_literal,
    random_regular_graph,
)
from sandwichlab.oracle import (
    count_extensions,
    count_regular_spanning_subgraphs,
    count_with_edge,
    enumerate_regular,
)
from sandwichlab.stats import (
    chi_square_uniformity,
    containment_rate,
    path_polynomial_stats,
    schedule_mass,
    translation_check,
)
from sandwichlab.switching import (
    build_le_graph,
    build_lef_graph,
    build_six_cycle_graph,
    build_ten_cycle_graph,
    count_alternating,
    six_cycle_statistic,
    six_cycle_switches,
    switch_neighbors_le,
    switch_neighbors_lef,
    ten_cycle_switches,
    verify_double_count,
)
from sandwichlab.tape import RandomnessTape, derive_seed

from _reference import brute_force_regular_count, mitm_alternating_count


@contextmanager
def criterion(number, description, budget_s):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"CRITERION {number:2d}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"CRITERION {number:2d}: PASS in {elapsed:.2f}s "
          f"(budget {budget_s}s) - {description}")
    assert elapsed < budget_s


def test_criterion_01_upper_marginals_exact():
    with criterion(1, "upper stage laws equal the closed form exactly", 10):
        params = ModelParams(n=5, d=2)
        for stage in range(params.steps_upper + 1):
            kernel = exact_marginal(params, stage, "delete")
            closed = closed_form_law(params, stage, "delete")
            assert kernel.probs == closed.probs  # exact rational equality


def test_criterion_02_lower_marginals_exact():
    with criterion(2, "lower stage laws equal the closed form exactly", 10):
        params = ModelParams(n=5, d=2)
        for stage in range(params.steps_lower + 1):
            kernel = exact_marginal(params, stage, "add")
            closed = closed_form_law(params, stage, "add")
            assert kernel.probs == closed.probs


def test_criterion_03_oracle_identities_random_hosts():
    with criterion(3, "oracle identities on 1000 random hosts", 60):
        rng = random.Random(303)
        for _ in range(1000):
            n = rng.randint(4, 8)
            host = gnp_graph(n, rng.uniform(0.25, 0.85), rng)
            d = rng.randint(1, min(n - 1, 4))
            total = count_regular_spanning_subgraphs(host, d)
            if total:
                assert sum(count_with_edge(host, d, e) for e in host.edges()) \
                    == (d * n // 2) * total
            assert count_extensions(host, d) == \
                count_regular_spanning_subgraphs(complement(host), n - 1 - d)
            if host.edge_count():
                e = host.edges()[0]
                assert total == count_with_edge(host, d, e) + \
                    count_regular_spanning_subgraphs(host.without_edge(*e), d)


def test_criterion_04_enumeration_fixtures():
    with criterion(4, "|K_2(5)| = 12 and |K_3(6)| = 70", 1):
        # frozen fixtures, re-derived here by subset filtering
        assert brute_force_regular_count(5, 2) == 12
        assert brute_force_regular_count(6, 3) == 70
        assert count_regular_spanning_subgraphs(complete_graph(5), 2) == 12
        assert count_regular_spanning_subgraphs(complete_graph(6), 3) == 70
        assert len(list(enumerate_regular(complete_graph(5), 2))) == 12
        assert len(list(enumerate_regular(complete_graph(6), 3))) == 70


def test_criterion_05_path_counter_equivalence():
    with criterion(5, "two path enumerators agree on 1000 instances", 60):
        rng = random.Random(505)
        for _ in range(1000):
            n = rng.randint(6, 10)
            f = gnp_graph(n, rng.uniform(0.3, 0.65), rng)
            k = gnp_graph(n, rng.uniform(0.2, 0.55), rng)
            x, y = rng.sample(range(1, n + 1), 2)
            ell = rng.randint(1, 4)
            avoid = {v for v in range(1, n + 1)
                     if v not in (x, y) and rng.random() < 0.15}
            assert count_alternating(f, k, x, 2 * ell, y=y, avoid=avoid) == \
                mitm_alternating_count(f, k, x, y, 2 * ell, avoid)


def _rich_host(rng, n, d, extras):
    base = random_regular_graph(n, d, rng)
    host = base
    for e in rng.sample(complement(base).edges(), extras):
        host = host.with_edge(*e)
    return host


def _audit_le(host, d, ell):
    members = list(enumerate_regular(host, d))
    k = members[0]
    best = 0
    for e in k.edges():
        for kp in switch_neighbors_le(host, d, k, e, ell):
            assert is_regular(kp, d)
            assert kp.is_subgraph_of(host)
            assert not kp.has_edge(*e)
        report = verify_double_count(build_le_graph(host, d, e, ell))
        assert report["passed"], report
        best = max(best, report["edges"])
        if best:
            break
    return best


def test_criterion_06_switching_audits():
    with criterion(6, "switching outputs valid, double counts exact", 120):
        edge_totals = {"le": 0, "lef": 0, "six": 0, "ten": 0}
        rng = random.Random(606)
        for n in (6, 8, 10):
            host = _rich_host(rng, n, 3, 3 if n < 10 else 4)
            for ell in (1, 2):
                edge_totals["le"] += _audit_le(host, 3, ell)

        # two-path switchings: vacuous below n=10, substantive at n=10
        for n in (6, 8):
            host = _rich_host(rng, n, 3, 3)
            k = next(iter(enumerate_regular(host, 3)))
            e = k.edges()[0]
            f_edge = next(fe for fe in difference(host, k).edges()
                          if not set(fe) & set(e))
            assert switch_neighbors_lef(host, 3, k, e, f_edge, 1) == []
            report = verify_double_count(build_lef_graph(host, 3, e, f_edge, 1))
            assert report["passed"] and report["edges"] == 0
        host10 = parse_graph_literal(
            "n=10;edges=1-2,1-4,1-6,1-8,1-9,1-10,2-3,2-5,2-7,2-9,2-10,3-5,"
            "3-8,3-9,4-7,4-8,4-9,5-6,5-7,6-7,6-8,6-10,9-10")
        for k10 in enumerate_regular(host10, 3):
            if not k10.has_edge(1, 8) or k10.has_edge(2, 3):
                continue
            for kp in switch_neighbors_lef(host10, 3, k10, (1, 8), (2, 3), 1):
                assert is_regular(kp, 3)
                assert kp.is_subgraph_of(host10)
                assert kp.has_edge(2, 3) and not kp.has_edge(1, 8)
        lef_graph = build_lef_graph(host10, 3, (1, 8), (2, 3), 1)
        report = verify_double_count(lef_graph)
        assert report["passed"] and report["edges"] > 0, report
        edge_totals["lef"] += report["edges"]

        # six-cycle switchings.  A cycle with exactly two set vertices needs
        # four outside and one-in needs five, so n=6 only supports two-in
        # with a 2-set; n=8 runs both modes over full statistic classes of
        # all 19355 cubic graphs; n=10 uses a sampled family.
        members6 = list(enumerate_regular(complete_graph(6), 3))
        w6 = {1, 2}
        stats = {}
        for k in members6:
            stats.setdefault(six_cycle_statistic(k, w6, "two-in"), []).append(k)
        value, family = max((kv for kv in stats.items() if kv[0] > 0),
                            key=lambda kv: len(kv[1]))
        report = verify_double_count(build_six_cycle_graph(3, w6, "two-in", family))
        assert report["passed"] and report["edges"] > 0, report
        edge_totals["six"] += report["edges"]

        members8 = list(enumerate_regular(complete_graph(8), 3))
        w8 = {1, 2, 3}
        for mode in ("two-in", "one-in"):
            stats = {}
            for k in members8:
                stats.setdefault(six_cycle_statistic(k, w8, mode), []).append(k)
            value, family = max((kv for kv in stats.items() if kv[0] > 0),
                                key=lambda kv: len(kv[1]))
            for k in family[:3]:
                for kp in six_cycle_switches(k, w8, mode):
                    assert is_regular(kp, 3)
                    assert six_cycle_statistic(kp, w8, mode) == value - 1
            report = verify_double_count(build_six_cycle_graph(3, w8, mode, family))
            assert report["passed"] and report["edges"] > 0, (mode, report)
            edge_totals["six"] += report["edges"]

        w10 = {1, 2, 3, 4}
        pool = [random_regular_graph(10, 3, rng) for _ in range(40)]
        for mode in ("two-in", "one-in"):
            stats = {}
            for k in pool:
                stats.setdefault(six_cycle_statistic(k, w10, mode), []).append(k)
            value, family = max(stats.items(), key=lambda kv: len(kv[1]))
            for k in family[:3]:
                for kp in six_cycle_switches(k, w10, mode):
                    assert is_regular(kp, 3)
                    assert six_cycle_statistic(kp, w10, mode) == value - 1
            report = verify_double_count(build_six_cycle_graph(3, w10, mode, family))
            assert report["passed"], (mode, report)
            edge_totals["six"] += report["edges"]

        # ten-cycle switchings: zero below 10 vertices, full classes at n=10
        small_k = random_regular_graph(8, 3, rng)
        small_f = small_k.without_edge(*small_k.edges()[0])
        e8 = next(fe for fe in complement(small_f).edges()
                  if small_k.has_edge(*fe))
        f8 = next(fe for fe in complement(small_k).edges()
                  if not set(fe) & set(e8))
        assert len(ten_cycle_switches(small_f, 3, small_k, e8, f8)) == 0
        substantive = 0
        for seed in range(300):
            inner = random.Random(derive_seed(707, seed))
            k10 = random_regular_graph(10, 3, inner)
            drop = inner.sample(k10.edges(), 6)
            f10 = k10
            for e in drop:
                f10 = f10.without_edge(*e)
            e = drop[0]
            partners = [fe for fe in complement(k10).edges()
                        if not set(fe) & set(e)]
            if not partners:
                continue
            f_edge = partners[inner.randrange(len(partners))]
            for kp in ten_cycle_switches(f10, 3, k10, e, f_edge):
                assert is_regular(kp, 3)
                assert f10.with_edge(*f_edge).is_subgraph_of(kp)
                assert not kp.has_edge(*e)
            report = verify_double_count(build_ten_cycle_graph(f10, 3, e, f_edge))
            assert report["passed"], report
            if report["edges"]:
                substantive += 1
                edge_totals["ten"] += report["edges"]
            if substantive >= 3:
                break
        assert substantive >= 3
        # every family exercised with nonzero switchings somewhere
        assert all(v > 0 for v in edge_totals.values()), edge_totals


def test_criterion_07_sampler_distributions():
    with criterion(7, "process samplers match their exact laws", 600):
        params = ModelParams(n=6, d=3)
        atoms = {canonical_key(g): Fraction(1, 70)
                 for g in enumerate_regular(complete_graph(6), 3)}
        assert len(atoms) == 70
        samples = []
        for t in range(100_000):
            _, g = run_upper_deletion(
                params, RandomnessTape(6, derive_seed(7001, "uniform", t)))
            samples.append(canonical_key(g))
        fit = chi_square_uniformity(samples, atoms)
        assert fit.p_value > 1e-3, (fit.statistic, fit.dof, fit.p_value)

        p_star = params.p_upper
        law = {k: math.comb(params.npairs, k) * p_star ** k
               * (1 - p_star) ** (params.npairs - k)
               for k in range(params.npairs + 1)}
        counts = []
        for t in range(30_000):
            transcript, gstar = run_gstar(
                params, RandomnessTape(6, derive_seed(7002, "edges", t)))
            assert gstar.edge_count() == transcript.meta["M"]
            counts.append(gstar.edge_count())
        fit = chi_square_uniformity(counts, law)
        assert fit.p_value > 1e-3, (fit.statistic, fit.dof, fit.p_value)


# pilot numbers documented in the module docstring
PILOT = {
    "upper": {"successes": 553, "trials": 1000, "interval": (0.4752, 0.6291)},
    "lower": {"successes": 775, "trials": 1000, "interval": (0.7057, 0.8353)},
}
PILOT_MASTER_SEED = 20260808


def test_criterion_08_containment_regression():
    with criterion(8, "containment frequencies inside the pilot intervals", 600):
        params = ModelParams(n=8, d=3, eps=0.9, eta=0.1)
        upper = [run_coupled_upper(
            params, derive_seed(PILOT_MASTER_SEED, "upper-trial", t)).contained
            for t in range(1000)]
        lower = [run_coupled_lower(
            params, derive_seed(PILOT_MASTER_SEED, "lower-trial", t)).contained
            for t in range(1000)]
        for name, outcomes in (("upper", upper), ("lower", lower)):
            est = containment_rate(outcomes, confidence=1 - 1e-6)
            lo, hi = PILOT[name]["interval"]
            assert lo <= est.rate <= hi, (name, est.rate, (lo, hi))
            print(f"  {name}: {est.successes}/{est.trials} "
                  f"rate={est.rate:.3f} pilot interval [{lo}, {hi}] "
                  f"run CI [{est.lo:.4f}, {est.hi:.4f}]")


def test_criterion_09_transcript_invariants():
    with criterion(9, "k(i) <= l(i), m(i) in every trial", 60):
        params = ModelParams(n=6, d=3)
        for t in range(200):
            run = run_coupled_upper(params, derive_seed(909, "trial", t))
            report = verify_transcript_interleaving(run)
            assert report["k_le_ell"], t
            assert report["k_le_m"], t
            assert report["passed"], (t, report)


SCHEDULE_GRID = [
    # (n, d, eps, c0, mu)
    (8, 3, 0.9, 1.0, 0.1),
    (10, 4, 0.9, 1.0, 0.1),
    (12, 4, 0.5, 1.0, 0.1),
    (16, 6, 0.9, 1.0, 0.1),
    (16, 6, 0.9, 0.02, 0.1),
    (20, 6, 0.5, 0.02, 0.05),
]


def test_criterion_10_schedule_mass():
    with criterion(10, "schedule mass sum, budget verdicts, exact c0 scaling", 10):
        for n, d, eps, c0, mu in SCHEDULE_GRID:
            params = ModelParams(n=n, d=d, eps=eps, c0=c0, mu=mu)
            mass = schedule_mass(params)
            # independent recomputation of the finite sum
            r = params.R
            direct = 0.0
            for i in range(params.n_budget, 0, -1):  # reversed accumulation
                direct += params.stage_slack(i + r - 1) * (d * n / 2) \
                    / (params.steps_upper - r - i + 1)
            assert mass.e_s == pytest.approx(direct, rel=1e-12)
            # exact scaling in c0
            unit = schedule_mass(ModelParams(n=n, d=d, eps=eps, c0=1.0, mu=mu))
            assert mass.e_s == c0 * unit.base_sum
            print(f"  n={n} d={d} eps={eps} c0={c0} mu={mu}: "
                  f"E_S={mass.e_s:.4f} R/2={params.R / 2} "
                  f"{'PASS' if mass.passed else 'fail'}")


def test_criterion_11_path_polynomial_cross_check():
    with criterion(11, "polynomial expectation at p=1 equals the path count", 60):
        rng = random.Random(1111)
        for _ in range(100):
            n = rng.randint(8, 10)
            d = rng.choice([2, 3])
            if (n * d) % 2:
                d += 1
            k = random_regular_graph(n, d, rng)
            x, y = rng.sample(range(1, n + 1), 2)
            order = rng.randint(1, 3)
            avoid = tuple(v for v in range(1, n + 1)
                          if v not in (x, y) and rng.random() < 0.1)
            stat = path_polynomial_stats(k, 1, x, y, order, z=avoid)
            direct = count_alternating(complete_graph(n), k, x, 2 * order,
                                       y=y, avoid=avoid)
            assert stat.e_y == direct


def test_criterion_12_translation_identity():
    with criterion(12, "translation identity exact for three predicates", 60):
        params = ModelParams(n=5, d=2, m=2)
        predicates = [
            ("always-true", lambda f, k: True),
            ("always-false", lambda f, k: False),
            ("contains-edge-1-2", lambda f, k: k.has_edge(1, 2)),
        ]
        for name, predicate in predicates:
            report = translation_check(params, predicate)
            assert report.equal, name
            assert report.lhs == report.rhs
        assert translation_check(params, predicates[0][1]).lhs == 0
        assert translation_check(params, predicates[1][1]).lhs == 1
