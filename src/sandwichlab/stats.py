"""Path-polynomial quantities, concentration-bound evaluators, the schedule
mass check, and goodness-of-fit machinery.

The polynomial statistics treat the count of alternating x,y-paths as a
positive polynomial in independent edge indicators and compute its expectation
together with the conditioned expectations over forced edge subsets, all as
exact rationals.  The concentration bounds are evaluated literally; no
inequality is re-proved here, only computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations

from .graphs import (SimpleGraph, canonical_pair, complement, complete_graph,
                     pair_list)
from .oracle import CapacityError, enumerate_regular
from .coupling import ClassLaw, ModelParams, _closed_form
from .switching import alternating_paths


class ModelViolationError(ValueError):
    """An observed sample falls outside the support of the reference law."""


# -- path polynomial statistics ---------------------------------------------------

@dataclass
class PolynomialStat:
    """Expectation profile of the alternating-path count polynomial."""

    e_y: Fraction
    e_prime: Fraction
    e_max: Fraction
    by_order: dict
    skeleton_count: int
    deviation_bound: float


def path_polynomial_stats(k_graph: SimpleGraph, p, x: int, y: int, k: int,
                          z=()) -> PolynomialStat:
    """Expectation profile of Y = #((random excess, K)-alternating x,y-paths).

    Each non-K pair is present independently with probability p; Y sums over
    length-2k alternating paths avoiding interior vertices in z.  E Y is the
    skeleton count times p^k; the order-i value is the maximum over forced
    i-subsets A of the conditioned expectation, p^(k-i) times the number of
    skeletons whose non-K edges contain A.  The reported deviation bound is
    the standard multivariate-polynomial concentration bound evaluated at
    alpha = log^2 n.
    """
    if k < 1 or k > 4:
        raise CapacityError("path polynomial order limited to k <= 4")
    n = k_graph.n
    # with F = K_n the F\K edges are the non-edges of K
    paths = alternating_paths(complete_graph(n), k_graph, x, 2 * k, y, z)
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0,1]")
    # a skeleton is a path's set of odd-position (non-K) pairs
    skeletons = [frozenset(map(canonical_pair, path[0::2], path[1::2]))
                 for path in paths]
    e_y = Fraction(len(skeletons)) * p ** k
    by_order = {0: e_y}
    for order in range(1, k + 1):
        best = 0
        tally = {}
        for odd in skeletons:
            for subset in combinations(sorted(odd), order):
                tally[subset] = tally.get(subset, 0) + 1
        if tally:
            best = max(tally.values())
        by_order[order] = Fraction(best) * p ** (k - order)
    e_prime = max((by_order[i] for i in range(1, k + 1)), default=Fraction(0))
    e_max = max(e_y, e_prime)
    alpha = math.log(n) ** 2
    deviation = (8 ** k) * math.sqrt(math.factorial(k)) \
        * math.sqrt(float(e_max) * float(e_prime)) * alpha ** k
    return PolynomialStat(e_y, e_prime, e_max, by_order, len(skeletons),
                          deviation)


# -- concentration bound evaluators --------------------------------------------------

def mcdiarmid_bound(mu: float, eps: float) -> float:
    """Upper-tail bound exp(-eps^2*mu / (2*(1+eps/3))) for sums of [0,1] variables."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if eps == 0:
        return 1.0
    return math.exp(-eps * eps * mu / (2 * (1 + eps / 3)))


def chernoff_bound(mu: float, gamma: float) -> float:
    """Two-sided binomial bound 2*exp(-mu*gamma^2/3)."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0,1)")
    return 2 * math.exp(-mu * gamma * gamma / 3)


# -- schedule mass -------------------------------------------------------------------

@dataclass
class ScheduleMass:
    e_s: float
    passed: bool
    base_sum: float


def schedule_mass(params: ModelParams) -> ScheduleMass:
    """Finite sum E S of the companion-threshold failure probabilities.

    E S = sum over the first N = C(n,2)-dn/2-2R stages of the gaps
    1 - tau_i (ModelParams.threshold_gap); reported against the budget R/2.
    E S is computed as c0 times a c0-free base sum, so scaling in c0 is exact.
    """
    unit = replace(params, c0=1.0)
    base = 0.0
    # a plain left-to-right loop: sum() rounds floats differently from 3.12 on
    for i in range(1, params.n_budget + 1):
        base += unit.threshold_gap(i)
    e_s = params.c0 * base
    return ScheduleMass(e_s, e_s <= params.R / 2, base)


# -- goodness of fit -----------------------------------------------------------------

def _scipy_stats():
    """scipy.stats, imported on first use.

    Loading it is nearly all of what `import sandwichlab` would cost (about
    1.2 s and 80 MB on a 2-vCPU VM), and only a p-value or a Clopper-Pearson
    bound needs it; exact-law, switching and audit runs never do.
    """
    from scipy import stats
    return stats


@dataclass
class FitResult:
    statistic: float
    dof: int
    p_value: float
    cells: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"statistic": self.statistic, "dof": self.dof,
                "p_value": self.p_value, "cells": len(self.cells)}


# a cell expecting fewer samples than this is pooled
MIN_EXPECTED = 5.0


def chi_square_uniformity(samples, law) -> FitResult:
    """Pearson chi-square of observed sample keys against an exact law.

    law maps keys to probabilities, or is a ClassLaw, whose cells then carry
    the probability of the whole class (of one graph, for a labeled law).
    Cells with expected count below MIN_EXPECTED are pooled, smallest first.
    A key outside the law raises ModelViolationError, an empty sample ValueError.
    """
    if isinstance(law, ClassLaw):
        probs = {key: p * law.sizes[key] for key, p in law.probs.items()}
    else:
        probs = law
    counts = {}
    total = 0
    for key in samples:
        if key not in probs:
            raise ModelViolationError(f"sample key {key!r} not in the reference law")
        counts[key] = counts.get(key, 0) + 1
        total += 1
    if not total:
        raise ValueError("no samples")
    cells = sorted(((float(p) * total, counts.get(key, 0), key)
                    for key, p in probs.items()), key=lambda c: c[0])
    pooled_exp = 0.0
    pooled_obs = 0
    kept = []
    for exp, obs, key in cells:
        if exp < MIN_EXPECTED or (pooled_exp and pooled_exp < MIN_EXPECTED):
            pooled_exp += exp
            pooled_obs += obs
        else:
            kept.append((key, obs, exp))
    if pooled_exp:
        kept.append(("pooled", pooled_obs, pooled_exp))
    if len(kept) < 2:
        return FitResult(0.0, 0, 1.0, kept)
    statistic = sum((obs - exp) ** 2 / exp for _, obs, exp in kept)
    dof = len(kept) - 1
    p_value = float(_scipy_stats().chi2.sf(statistic, dof))
    return FitResult(statistic, dof, p_value, kept)


@dataclass
class RateEstimate:
    successes: int
    trials: int
    rate: float
    lo: float
    hi: float
    confidence: float


def containment_rate(outcomes, confidence: float = 0.99) -> RateEstimate:
    """Success frequency with an exact (Clopper-Pearson) binomial interval."""
    outcomes = list(outcomes)
    trials = len(outcomes)
    if trials == 0:
        raise ValueError("no trials")
    successes = sum(1 for o in outcomes if o)
    alpha = 1 - confidence
    if successes == 0:
        lo = 0.0
    else:
        lo = float(_scipy_stats().beta.ppf(alpha / 2, successes, trials - successes + 1))
    if successes == trials:
        hi = 1.0
    else:
        hi = float(_scipy_stats().beta.ppf(1 - alpha / 2, successes + 1,
                                           trials - successes))
    return RateEstimate(successes, trials, successes / trials, lo, hi, confidence)


# -- translation identity --------------------------------------------------------------

@dataclass
class TranslationReport:
    lhs: Fraction
    rhs: Fraction
    equal: bool
    bad_fraction_tail: dict
    pairs_checked: int


# the failing-subgraph proportions whose tail translation_check reports
TAIL_THRESHOLDS = (0.0, 0.25, 0.5, 0.75)


def translation_check(params: ModelParams, predicate) -> TranslationReport:
    """Exact identity transferring planted-pair properties to most subgraphs.

    The probability that the planted pair (F, K) fails the predicate equals
    the double enumeration over supergraphs F and their regular spanning
    subgraphs, both normalized by |K_d(n)| * C(C(n,2)-dn/2, m).  The report
    also carries, for each t in TAIL_THRESHOLDS, the exact probability that a random F
    has a failing-subgraph proportion exceeding t.
    """
    _, _, normaliser = _closed_form(params, "delete")
    # the planted pair is the delete process's stage with m non-K edges left
    denominator = normaliser(params.planted_stage("delete"))
    n, d, m = params.n, params.d, params.m
    # left side: enumerate the planted pairs (K, E)
    lhs_bad = 0
    pairs = 0
    for k in enumerate_regular(complete_graph(n), d):
        non_edges = complement(k).edges()
        for extra in combinations(non_edges, m):
            f = SimpleGraph(n, k.edges() + list(extra))
            pairs += 1
            if not predicate(f, k):
                lhs_bad += 1
    lhs = Fraction(lhs_bad, denominator)
    # right side: enumerate supergraphs and their regular spanning subgraphs
    rhs_bad = 0
    tail = {t: Fraction(0) for t in TAIL_THRESHOLDS}
    target_edges = params.steps_lower + m
    for edges in combinations(pair_list(n), target_edges):
        f = SimpleGraph(n, edges)
        members = list(enumerate_regular(f, d))
        if not members:
            continue
        bad = sum(1 for k in members if not predicate(f, k))
        rhs_bad += bad
        f_prob = Fraction(len(members), denominator)
        frac = Fraction(bad, len(members))
        for t in TAIL_THRESHOLDS:
            if frac > t:
                tail[t] += f_prob
    rhs = Fraction(rhs_bad, denominator)
    return TranslationReport(lhs, rhs, lhs == rhs, tail, pairs)
