import dataclasses
import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandwichlab import coupling
from sandwichlab.cli import main
from sandwichlab.coupling import (
    ModelParams,
    class_stage_laws,
    closed_form_class_laws,
    closed_form_law,
    companion_threshold,
    exact_kernel_step,
    exact_marginal,
    exact_stage_laws,
    run_coupled_lower,
    run_coupled_upper,
    run_gstar,
    run_gsub,
    run_lower_addition,
    run_reference_sequences,
    run_upper_deletion,
    sample_f,
    sample_fminus,
    verify_transcript_interleaving,
)
from sandwichlab.graphs import (
    SimpleGraph,
    canonical_key,
    canonical_labeling,
    complete_graph,
    empty_graph,
    is_regular,
)
from sandwichlab.oracle import CapacityError, spanning_profile
from sandwichlab.stats import chi_square_uniformity, schedule_mass
from sandwichlab.tape import MAX_DRAWS, RandomnessTape, TapeBoundError, derive_seed

from _reference import expand_class_law


def test_planted_stage_is_last_minus_m():
    # n=6, d=2: 9 deletion stages and 6 addition stages
    params = ModelParams(n=6, d=2, m=2)
    assert params.planted_stage("delete") == 7
    assert params.planted_stage("add") == 4
    for direction, m, model in (("delete", 10, "supergraph"), ("add", 7, "subgraph")):
        with pytest.raises(ValueError,
                           match=f"m={m} out of range for the planted {model} model"):
            ModelParams(n=6, d=2, m=m).planted_stage(direction)
    with pytest.raises(ValueError, match="needs the planted edge count m"):
        ModelParams(n=6, d=2).planted_stage("delete")
    with pytest.raises(ValueError, match="unknown direction 'sideways'"):
        params.planted_stage("sideways")


def test_kernel_step_refuses_an_unknown_direction():
    law = next(exact_stage_laws(ModelParams(n=4, d=2), "delete"))
    with pytest.raises(ValueError, match="unknown direction 'sideways'"):
        exact_kernel_step(law, 2, "sideways")


def test_interleaving_refuses_transcripts_of_different_vertex_counts():
    run = run_coupled_upper(ModelParams(n=5, d=2), 0)
    other = run_coupled_upper(ModelParams(n=6, d=3), 0)
    mixed = dataclasses.replace(run, gstar_transcript=other.gstar_transcript)
    with pytest.raises(ValueError, match="transcripts come from different vertex counts"):
        verify_transcript_interleaving(mixed)


def test_eta_schedule_formula_and_support():
    params = ModelParams(n=16, d=6, c0=1.0, mu=0.1)
    logn = math.log(16)
    expected = max(0.1 / logn, (16 * logn / 72) ** 0.125)
    assert params.stage_slack(0) == pytest.approx(expected, abs=1e-14)
    # frozen value from an independent calculator run
    assert params.stage_slack(0) == pytest.approx(0.9412589469421757, abs=1e-12)
    assert params.stage_slack(params.steps_upper) == 0.0
    assert params.stage_slack(params.steps_upper + 5) == 0.0
    values = [params.stage_slack(i) for i in range(params.steps_upper)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_companion_threshold_clamped_and_monotone():
    params = ModelParams(n=8, d=3)
    limit = params.steps_upper
    taus = [companion_threshold(params, i) for i in range(1, params.npairs + 1)]
    assert all(params.tau_floor <= t <= 1.0 for t in taus)
    regime = taus[: limit - params.R]
    assert all(a >= b - 1e-12 for a, b in zip(regime, regime[1:]))
    assert all(t == 1.0 for t in taus[limit - params.R:])
    # raw formula really is negative here, which is what forces the clamp
    assert 1.0 - params.threshold_gap(limit - params.R) < 0


def test_upper_deletion_already_regular():
    params = ModelParams(n=4, d=3)
    transcript, g = run_upper_deletion(params, RandomnessTape(4, 1))
    assert transcript.steps == []
    assert g == complete_graph(4)


def test_upper_deletion_reaches_two_regular_five_cycle():
    params = ModelParams(n=5, d=2)
    for seed in range(5):
        transcript, g = run_upper_deletion(params, RandomnessTape(5, seed))
        assert is_regular(g, 2)
        assert len(transcript.steps) == params.steps_upper
        assert all(s.max_count > 0 for s in transcript.steps)
        assert transcript.check_monotone()


def test_lower_addition_reaches_regular():
    params = ModelParams(n=5, d=2)
    for seed in range(5):
        transcript, g = run_lower_addition(params, RandomnessTape(5, seed))
        assert is_regular(g, 2)
        assert len(transcript.steps) == params.steps_lower


def test_gstar_edge_count_equals_binomial_draw():
    params = ModelParams(n=6, d=3)
    for seed in range(5):
        transcript, gstar = run_gstar(params, RandomnessTape(6, seed))
        assert gstar.edge_count() == transcript.meta["M"]


def test_tape_refuses_reads_past_its_bound():
    tape = RandomnessTape(6, 1)
    first = tape.pair(1), tape.x(1)
    for read in (tape.pair, tape.x):
        with pytest.raises(TapeBoundError, match=str(MAX_DRAWS)):
            read(MAX_DRAWS + 1)
    assert issubclass(TapeBoundError, CapacityError)
    # a refused read draws nothing, so the streams are unchanged
    assert (tape.pair(1), tape.x(1)) == first
    assert tape.pair(2) == RandomnessTape(6, 1).pair(2)


def test_coupled_runs_are_deterministic():
    params = ModelParams(n=6, d=3)
    a = run_coupled_upper(params, seed=42)
    b = run_coupled_upper(params, seed=42)
    assert a.g == b.g and a.gstar == b.gstar and a.contained == b.contained
    assert [s.tape_index for s in a.f_transcript.steps] == \
        [s.tape_index for s in b.f_transcript.steps]
    la = run_coupled_lower(params, seed=42)
    lb = run_coupled_lower(params, seed=42)
    assert la.g == lb.g and la.gsub == lb.gsub


def test_interleaving_checks_pass_on_real_runs():
    params = ModelParams(n=6, d=3)
    for seed in range(20):
        run = run_coupled_upper(params, seed=seed)
        report = verify_transcript_interleaving(run)
        assert report["k_le_ell"] and report["k_le_m"]
        assert report["passed"], report


def test_interleaving_negative_control():
    params = ModelParams(n=6, d=3)
    run = run_coupled_upper(params, seed=1)
    run.f_transcript.steps[1].tape_index = run.f_transcript.steps[0].tape_index
    report = verify_transcript_interleaving(run)
    assert not report["monotone"]
    assert not report["passed"]
    # a companion stage that deletes an edge of the final G breaks the
    # stagewise containment the chain checks
    run = run_coupled_upper(ModelParams(n=8, d=3), seed=1)
    run.gstar_transcript.steps[0].edge = run.g.edges()[0]
    report = verify_transcript_interleaving(run)
    assert report["containment_chain"] == {"checked": 1, "holds": False, "failures": [1]}
    assert not report["passed"]


def _transcript_record(transcript):
    return [transcript.kind, transcript.n, transcript.d,
            [dataclasses.astuple(s) for s in transcript.steps],
            transcript.final_edges, transcript.meta]


# SHA-256 prefixes of the four transcripts, the reference run and the
# verification report of one coupled upper and one coupled lower run
GOLDEN_DIGESTS = {
    6: ["067b7091111986ba", "e5d6eb51290a4478", "c23d787f064040b3", "1b60f6c4758a61fe",
        "e3dcb1a99e9df49e", "c534f60b0fc878dd", "e8b47a209bf37766", "5b095d5f1f950f85"],
    8: ["b27a4af1477ac09a", "e2fce54827ec1fc3", "4a4f90a0c0bb9933", "d3fec60bb54afb9b",
        "904a80cec1aa7ddb", "6b860a1b796a9959", "e67e52528cf63583", "0dabbd954443f92c"],
}


@pytest.mark.parametrize("n", [6, 8])
def test_golden_transcripts(n):
    params = ModelParams(n=n, d=3)
    digests = []
    checked = 0
    for seed in range(8):
        upper = run_coupled_upper(params, seed=seed)
        lower = run_coupled_lower(params, seed=seed)
        report = verify_transcript_interleaving(upper)
        checked += report["containment_chain"]["checked"]
        record = [_transcript_record(upper.f_transcript),
                  _transcript_record(upper.gstar_transcript),
                  _transcript_record(lower.f_transcript),
                  _transcript_record(lower.gsub_transcript),
                  upper.reference.k_indices, upper.reference.deleted, report]
        text = json.dumps(record, sort_keys=True)
        digests.append(hashlib.sha256(text.encode()).hexdigest()[:16])
    assert digests == GOLDEN_DIGESTS[n]
    # at n=8 these seeds reach the containment chain, so its loop is pinned too
    assert checked == {6: 0, 8: 6}[n]


# non-default constants; test_golden_transcripts covers the defaults
SCHEDULE_PIN_GRID = [(n, d, eps, c0, mu) for n in (6, 8, 12, 16) for d in (3, 4)
                     for eps in (0.0, 0.9, 1.1) for c0 in (0.0, 0.02, 1.0, 3.0)
                     for mu in (0.05, 0.1)]
SCHEDULE_PIN = "7bee15b7ceb78a6b5e13b211d43c8259d04e199a483bd6b35fca152a0364b24f"


def test_schedule_pin():
    # every bit of the clamped thresholds, the gaps 1 - raw tau_i inside the
    # scheduled regime, and the schedule mass with its c0-free base sum
    digest = hashlib.sha256()
    for n, d, eps, c0, mu in SCHEDULE_PIN_GRID:
        params = ModelParams(n=n, d=d, eps=eps, c0=c0, mu=mu)
        taus = [companion_threshold(params, i) for i in range(1, params.npairs + 1)]
        gaps = [params.threshold_gap(i) for i in range(1, params.steps_upper - params.R + 1)]
        mass = schedule_mass(params)
        digest.update(repr([x.hex() for x in (*taus, *gaps, mass.e_s, mass.base_sum)])
                      .encode())
    assert digest.hexdigest() == SCHEDULE_PIN


def test_reference_sequences_basics():
    params = ModelParams(n=6, d=3)
    ref = run_reference_sequences(params, RandomnessTape(6, 9))
    # H loses exactly one edge per distinct tape edge, G+ only those that
    # pass their threshold, so e(G+_N) - e(H_N) counts the failures
    horizon = params.n_budget
    e_h = params.npairs - horizon
    e_gplus = params.npairs - sum(ref.deleted[:horizon])
    assert e_gplus - e_h == ref.failures
    # zero-slack variant: thresholds never fail, shadow equals H
    flat = ModelParams(n=6, d=3, c0=0.0)
    ref0 = run_reference_sequences(flat, RandomnessTape(6, 9))
    assert ref0.failures == 0


def test_reference_horizon_is_clamped_at_zero():
    # N = C(6,2) - 12 - 2R = -1: no stage lies inside the horizon, so no
    # threshold can fail there (a negative slice once counted one)
    params = ModelParams(n=6, d=4)
    assert params.n_budget == 0
    ref = run_reference_sequences(params, RandomnessTape(6, 3))
    assert ref.failures == 0 and ref.budget_ok


@st.composite
def _model_params(draw):
    n = draw(st.integers(1, 14))
    d = draw(st.sampled_from([d for d in range(n) if d * n % 2 == 0]))
    return ModelParams(n=n, d=d, eps=draw(st.floats(0, 4)),
                       eta=draw(st.floats(0, 4)), c0=draw(st.floats(0, 3)),
                       mu=draw(st.floats(0, 1)), tau_floor=draw(st.floats(0.05, 1)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(params=_model_params(), seed=st.integers(0, 2**32))
def test_stage_horizons_lie_in_range(params, seed):
    assert 0 <= params.n_budget <= params.steps_upper
    assert 0 <= params.n_lower <= params.npairs
    ref = run_reference_sequences(params, RandomnessTape(params.n, seed))
    assert ref.failures <= params.n_budget


def test_kernel_step_from_complete_graph_is_uniform():
    dist = next(exact_stage_laws(ModelParams(n=5, d=2), "delete"))
    step = exact_kernel_step(dist, 2, "delete")
    assert len(step.probs) == 10
    assert set(step.probs.values()) == {Fraction(1, 10)}
    assert step.total() == 1


def test_kernel_step_add_from_empty_is_uniform_over_edges():
    dist = next(exact_stage_laws(ModelParams(n=5, d=2), "add"))
    step = exact_kernel_step(dist, 2, "add")
    assert len(step.probs) == 10
    assert set(step.probs.values()) == {Fraction(1, 10)}


def test_kernel_preserves_mass_exactly():
    params = ModelParams(n=5, d=2)
    dist = next(exact_stage_laws(params, "delete"))
    for _ in range(4):
        dist = exact_kernel_step(dist, 2, "delete")
        assert dist.total() == 1


@pytest.mark.parametrize("direction,stages", [("delete", 5), ("add", 5)])
def test_exact_marginals_match_closed_form(direction, stages):
    params = ModelParams(n=5, d=2)
    for stage in range(stages + 1):
        kernel = exact_marginal(params, stage, direction)
        closed = closed_form_law(params, stage, direction)
        assert kernel.probs == closed.probs


@pytest.mark.parametrize("direction", ["delete", "add"])
def test_labeled_kernel_laws_equal_closed_form_laws(direction):
    # whole laws, so every labeled class size the kernel double counts is 1
    params = ModelParams(n=5, d=2)
    last = params.steps_upper if direction == "delete" else params.steps_lower
    for stage in range(last + 1):
        kernel = exact_marginal(params, stage, direction)
        assert kernel == closed_form_law(params, stage, direction)


@pytest.mark.parametrize("direction", ["delete", "add"])
def test_labeled_kernel_fails_on_a_wrong_weight(monkeypatch, direction):
    # closed_form_law enumerates edge subsets and never reads the move
    # weights, so it still catches a fault in the shared kernel step
    weights = coupling._transition_weights

    def one_weight_raised(g, d, direction):
        out = weights(g, d, direction)
        if out:
            out[next(iter(out))] += 1
        return out

    params = ModelParams(n=5, d=2)
    last = params.steps_upper if direction == "delete" else params.steps_lower
    closed = [closed_form_law(params, stage, direction) for stage in range(last + 1)]
    monkeypatch.setattr(coupling, "_transition_weights", one_weight_raised)
    assert exact_marginal(params, 0, direction) == closed[0]
    assert any(exact_marginal(params, stage, direction) != closed[stage]
               for stage in range(1, last + 1))


def test_class_law_fit_equals_labeled_fit_summed_by_class():
    params = ModelParams(n=5, d=2, m=2)
    stage = params.steps_upper - params.m
    rng = random.Random(98)
    certs = [canonical_labeling(sample_f(params, rng)[1])[0] for _ in range(5000)]
    class_law = closed_form_class_laws(params, "delete")[stage]
    labeled = closed_form_law(params, stage, "delete")
    summed = dict.fromkeys(class_law.graphs, Fraction(0))
    for key, g in labeled.graphs.items():
        summed[canonical_labeling(g)[0]] += labeled.probs[key]
    fit = chi_square_uniformity(certs, class_law)
    assert fit == chi_square_uniformity(certs, summed)
    assert fit.dof > 0 and fit.p_value > 1e-3, fit.statistic


# At n = 6, d = 0 and d = 5 are left out: every move weight there is 1, and
# the labeled reference alone walks all 2^15 graphs, about 10 s.
@pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 7) for d in range(n)
                                 if d * n % 2 == 0 and (n < 6 or 0 < d < 5)])
def test_class_laws_expand_to_labeled_laws(n, d):
    params = ModelParams(n=n, d=d)
    for direction in ("delete", "add"):
        stages = zip(class_stage_laws(params, direction),
                     closed_form_class_laws(params, direction),
                     exact_stage_laws(params, direction), strict=True)
        for kernel, closed, labeled in stages:
            assert kernel == closed
            assert expand_class_law(kernel) == labeled.probs


def test_verify_marginals_fails_on_a_wrong_weight(monkeypatch, capsys):
    weights = coupling._transition_weights

    def one_weight_raised(g, d, direction):
        out = weights(g, d, direction)
        e = next(iter(out))
        out[e] += 1
        return out

    monkeypatch.setattr(coupling, "_transition_weights", one_weight_raised)
    assert main(["verify-marginals", "--n", "6", "--d", "3", "--format", "json"]) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["marginal_check"] == "fail"
    # stages 0 and 1 each hold a single class, whatever the weights
    for verdicts in results["stages"].values():
        assert verdicts[:2] == ["exact", "exact"]
        assert "fail" in verdicts[2:]


def test_verify_marginals_past_the_default_ceiling(capsys):
    assert main(["verify-marginals", "--n", "7", "--d", "2", "--exact-ceiling", "7",
                 "--format", "json"]) == 0
    stages = json.loads(capsys.readouterr().out)["results"]["stages"]
    assert len(stages["delete"]) == 15 and len(stages["add"]) == 8
    assert {v for verdicts in stages.values() for v in verdicts} == {"exact"}


def test_marginal_boundary_stages():
    params = ModelParams(n=5, d=2)
    final = exact_marginal(params, params.steps_upper, "delete")
    assert len(final.probs) == 12
    assert set(final.probs.values()) == {Fraction(1, 12)}
    start = exact_marginal(params, 0, "delete")
    assert start.probs == {canonical_key(complete_graph(5)): Fraction(1)}
    start_add = exact_marginal(params, 0, "add")
    assert start_add.probs == {canonical_key(empty_graph(5)): Fraction(1)}
    assert len(list(exact_stage_laws(params, "add"))) == params.steps_lower + 1
    for stage in (-1, params.steps_upper + 1):
        with pytest.raises(ValueError):
            exact_marginal(params, stage, "delete")


def test_zero_tau_floor_rejected():
    with pytest.raises(ValueError):
        ModelParams(n=6, d=3, tau_floor=0.0)
    assert ModelParams(n=6, d=3, tau_floor=1.0).tau_floor == 1.0


def test_odd_dn_rejected_when_built():
    with pytest.raises(ValueError, match="dn must be even"):
        ModelParams(n=5, d=3)


def test_negative_eta_rejected():
    # n_lower would be 21 > C(6,2) = 15, and the lower companion would scan forever
    with pytest.raises(ValueError, match="eta"):
        ModelParams(n=6, d=3, eta=-2)
    with pytest.raises(ValueError, match="eta"):
        ModelParams(n=6, d=3, eta=float("nan"))
    assert ModelParams(n=6, d=3, eta=0.0).n_lower == 9


def test_negative_eps_rejected():
    # R = floor(eps*d*n/8) would be negative, and p_lower above p_upper
    for eps in (-1, -0.1, float("nan")):
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            ModelParams(n=6, d=3, eps=eps)
    assert ModelParams(n=6, d=3, eps=0.0).R == 0
    assert ModelParams(n=8, d=3, eps=1.1).R == 3  # eps above 1 stays allowed


def test_nonfinite_and_negative_constants_rejected():
    # an infinite eps or eta overflowed int() in R or n_lower, a NaN c0 or
    # mu gave NaN thresholds, and a negative c0 a negative schedule mass
    inf, nan = float("inf"), float("nan")
    for name, value in [("eps", inf), ("eta", inf), ("c0", nan), ("c0", inf),
                        ("c0", -1.0), ("mu", nan), ("mu", inf), ("mu", -0.1)]:
        with pytest.raises(ValueError, match=f"{name} must be nonnegative and finite"):
            ModelParams(n=6, d=3, **{name: value})
    assert ModelParams(n=6, d=3, c0=0.0, mu=0.0).stage_slack(0) == 0.0


def test_exact_analysis_capacity():
    with pytest.raises(CapacityError):
        exact_marginal(ModelParams(n=8, d=3), 1, "delete")


def test_sampler_edge_cases():
    rng = random.Random(1)
    k, f = sample_f(ModelParams(n=5, d=2, m=0), rng)
    assert f == k
    k, f = sample_f(ModelParams(n=5, d=2, m=5), rng)
    assert f == complete_graph(5)
    k, f = sample_fminus(ModelParams(n=5, d=2, m=0), rng)
    assert f == k
    k, f = sample_fminus(ModelParams(n=5, d=2, m=5), rng)
    assert f == empty_graph(5)
    with pytest.raises(ValueError):
        sample_f(ModelParams(n=5, d=2, m=6), rng)
    with pytest.raises(ValueError):
        sample_fminus(ModelParams(n=5, d=2, m=6), rng)


def test_sample_f_matches_closed_form_law():
    params = ModelParams(n=5, d=2, m=2)
    law = closed_form_law(params, params.steps_upper - 2, "delete")
    rng = random.Random(99)
    samples = [canonical_key(sample_f(params, rng)[1]) for _ in range(20000)]
    fit = chi_square_uniformity(samples, law)
    assert fit.p_value > 1e-3, fit.statistic


def test_sample_fminus_matches_closed_form_law():
    params = ModelParams(n=5, d=2, m=2)
    law = closed_form_law(params, params.steps_lower - 2, "add")
    rng = random.Random(100)
    samples = [canonical_key(sample_fminus(params, rng)[1]) for _ in range(20000)]
    fit = chi_square_uniformity(samples, law)
    assert fit.p_value > 1e-3, fit.statistic


def test_gstar_law_is_binomial_random_graph():
    # uniform over graphs with each edge count, edge count binomial: the full
    # atom law of G(n, (1+eps)d/n)
    params = ModelParams(n=5, d=2)
    p_star = params.p_upper
    from sandwichlab.graphs import graph_from_mask
    law = {}
    for mask in range(1 << 10):
        g = graph_from_mask(5, mask)
        e = g.edge_count()
        law[canonical_key(g)] = p_star ** e * (1 - p_star) ** (10 - e)
    samples = []
    for seed in range(20000):
        _, gstar = run_gstar(params, RandomnessTape(5, derive_seed(7, seed)))
        samples.append(canonical_key(gstar))
    fit = chi_square_uniformity(samples, law)
    assert fit.p_value > 1e-3, (fit.statistic, fit.dof)


def test_gsub_law_is_binomial_random_graph():
    params = ModelParams(n=5, d=2, eps=0.5)
    p_sub = params.p_lower
    from sandwichlab.graphs import graph_from_mask
    law = {}
    for mask in range(1 << 10):
        g = graph_from_mask(5, mask)
        e = g.edge_count()
        law[canonical_key(g)] = p_sub ** e * (1 - p_sub) ** (10 - e)
    samples = []
    for seed in range(20000):
        _, gsub = run_gsub(params, RandomnessTape(5, derive_seed(8, seed)))
        samples.append(canonical_key(gsub))
    fit = chi_square_uniformity(samples, law)
    assert fit.p_value > 1e-3, (fit.statistic, fit.dof)


def test_literal_single_step_agrees_with_kernel_weights():
    # one deletion step from a fixed non-symmetric graph: the removed edge's
    # law must match the conditioned kernel weights
    params = ModelParams(n=5, d=2)
    start = complete_graph(5).without_edge(1, 2)
    total, with_edge = spanning_profile(start, 2)
    weights = {e: total - with_edge.get(e, 0) for e in start.edges()}
    denom = sum(weights.values())
    law = {e: Fraction(w, denom) for e, w in weights.items() if w}
    mx = max(weights.values())
    observed = []
    for seed in range(20000):
        tape = RandomnessTape(5, derive_seed(11, seed))
        t = 0
        while True:
            t += 1
            e = tape.pair(t)
            if not start.has_edge(*e):
                continue
            c = weights.get(e, 0)
            x = tape.x(t)
            a, b = x.as_integer_ratio()
            if c > 0 and a * mx <= c * b:
                observed.append(e)
                break
    fit = chi_square_uniformity(observed, law)
    assert fit.p_value > 1e-3, fit.statistic


def test_dn_odd_rejected_by_processes():
    with pytest.raises(ValueError):
        run_upper_deletion(ModelParams(n=5, d=3), RandomnessTape(5, 0))


def test_literal_single_add_step_agrees_with_kernel_weights():
    # one addition step from a fixed partial graph: the added edge's law must
    # match the extension-count kernel weights
    from sandwichlab.oracle import extension_profile
    start = SimpleGraph(5, [(1, 2), (3, 4)])
    _, tally = extension_profile(start, 2)
    weights = {e: c for e, c in tally.items() if c}
    denom = sum(weights.values())
    law = {e: Fraction(w, denom) for e, w in weights.items()}
    mx = max(weights.values())
    observed = []
    for seed in range(20000):
        tape = RandomnessTape(5, derive_seed(12, seed))
        t = 0
        while True:
            t += 1
            e = tape.pair(t)
            if start.has_edge(*e):
                continue
            c = weights.get(e, 0)
            x = tape.x(t)
            a, b = x.as_integer_ratio()
            if c > 0 and a * mx <= c * b:
                observed.append(e)
                break
    fit = chi_square_uniformity(observed, law)
    assert fit.p_value > 1e-3, fit.statistic


def test_transcript_records_argmax_diagnostics():
    params = ModelParams(n=5, d=2)
    transcript, _ = run_upper_deletion(params, RandomnessTape(5, 3))
    for step in transcript.steps:
        assert step.argmax_edges >= 1
    # at the first stage every edge of the complete graph achieves the max
    assert transcript.steps[0].argmax_edges == 10


def test_gsub_zero_slack_collects_first_distinct_edges():
    # with eta = 0 the lower reference graph keeps every first-appearance edge
    params = ModelParams(n=6, d=3, eta=0.0)
    transcript, _ = run_gsub(params, RandomnessTape(6, 5))
    assert transcript.meta["e_h_horizon"] == transcript.meta["horizon"]
    assert all(step.accepted for step in transcript.steps)
