"""The two coupled edge processes and their exact distribution analysis.

The upper pair (G, G*) comes from an edge-deletion process started at the
complete graph: at each stage the next tape edge inside the current graph is
removed with probability |K_d(F-e)| / max_f |K_d(F-f)|, while a companion
stage-indexed threshold rule deletes edges from an independent-looking copy
whose stage graphs are uniform given their edge count.  The lower pair
(G_*, G) is the mirror-image edge-addition process.  Simulation follows the
literal tape; exact verification pushes point masses through the conditioned
Markov kernel, over labeled graphs or over isomorphism classes: one law type
(`ClassLaw`) and one step (`_kernel_step`) serve both.  One function,
`_transition_weights`, gives the move weights (oracle counts) that the
kernel and the simulation read, and one loop, `_run_edge_process`, runs the
literal process in either direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice

from .graphs import (
    SimpleGraph,
    canonical_key,
    canonical_labeling,
    complement,
    complete_graph,
    empty_graph,
    is_regular,
    pair_list,
)
from .oracle import (
    CapacityError,
    count_extensions,
    count_regular_spanning_subgraphs,
    enumerate_regular,
    extension_profile,
    spanning_profile,
)
from .tape import RandomnessTape


@dataclass(frozen=True)
class ModelParams:
    """Model and process parameters; derived quantities are recomputed, never stored."""

    n: int
    d: int
    m: int = None
    eps: float = 0.9
    eta: float = 0.1
    c0: float = 1.0
    mu: float = 0.1
    tau_floor: float = 0.65
    exact_ceiling: int = 6

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0 <= self.d <= self.n - 1:
            raise ValueError("need 0 <= d <= n-1")
        if (self.d * self.n) % 2:
            raise ValueError("dn must be even for the coupled processes")
        if self.m is not None and self.m < 0:
            raise ValueError("m must be nonnegative")
        # a negative eps gives a negative horizon shift R and p_lower >
        # p_upper; a negative eta puts the lower horizon floor(dn/2 - eta*n)
        # above C(n,2), so the first-appearance scan would wait for pairs
        # that do not exist; a negative c0 or mu gives a negative slack
        # eta_i, so the schedule mass is negative and always within budget.
        # An infinite eps or eta overflows int() in R or n_lower, a NaN c0
        # or mu makes the companion thresholds NaN, and an infinite one the
        # schedule mass infinite.
        for name in ("eps", "eta", "c0", "mu"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite")
        # the companion waits for a tape variate in [0,1) at or below its
        # threshold, which is at least tau_floor: a zero floor can wait forever
        if not 0.0 < self.tau_floor <= 1.0:
            raise ValueError("tau_floor must lie in (0,1]")

    @property
    def npairs(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def dn_half(self) -> int:
        return self.d * self.n // 2

    @property
    def steps_upper(self) -> int:
        return self.npairs - self.dn_half

    @property
    def steps_lower(self) -> int:
        return self.dn_half

    @property
    def R(self) -> int:
        return int(self.eps * self.d * self.n / 8)

    @property
    def delta(self) -> float:
        """Expected excess degree 2m/n."""
        self._need_m()
        return 2 * self.m / self.n

    @property
    def p_upper(self) -> float:
        return min(1.0, (1 + self.eps) * self.d / self.n)

    @property
    def p_lower(self) -> float:
        return max(0.0, (1 - self.eps) * self.d / self.n)

    @property
    def n_budget(self) -> int:
        """Stage horizon N = C(n,2) - dn/2 - 2R for the reference sequences."""
        return self.steps_upper - 2 * self.R

    @property
    def n_lower(self) -> int:
        """Stage horizon N = floor(dn/2 - eta*n) for the lower reference graph."""
        return max(0, int(self.d * self.n / 2 - self.eta * self.n))

    def _need_m(self):
        if self.m is None:
            raise ValueError("this quantity needs the planted edge count m")

    def stage_slack(self, i: int) -> float:
        """The slack eta_i of the companion schedule; 0 from stage
        C(n,2) - dn/2 on."""
        limit = self.steps_upper
        if i >= limit:
            return 0.0
        logn = math.log(self.n)
        return self.c0 * max(self.mu / logn, (self.n * logn / (limit - i)) ** 0.125)

    def threshold_gap(self, i: int) -> float:
        """1 - tau_i for the raw companion threshold tau_i,
        eta_{i+R-1}*(dn/2)/(C(n,2)-dn/2-R-(i-1)), for stages i up to
        C(n,2) - dn/2 - R."""
        r = self.R
        return (self.stage_slack(i + r - 1) * (self.d * self.n / 2)
                / (self.steps_upper - r - (i - 1)))


def companion_threshold(params: ModelParams, i: int) -> float:
    """Stage-i acceptance threshold of the companion deletion rule.

    1 - params.threshold_gap(i) inside the scheduled regime, 1 afterwards.
    The raw value is negative at small n for the default constants, which
    would stall the stage process, so it is clamped into [tau_floor, 1]; the
    clamp depends on the stage index only, which is all the symmetry argument
    behind the stage law needs.
    """
    if i > params.steps_upper - params.R:
        return 1.0
    return min(1.0, max(params.tau_floor, 1.0 - params.threshold_gap(i)))


# -- transcripts ------------------------------------------------------------

@dataclass
class TranscriptStep:
    stage: int
    tape_index: int
    edge: tuple
    threshold: float
    accepted: bool = True
    min_count: int = None
    max_count: int = None
    argmax_edges: int = None


@dataclass
class ProcessTranscript:
    kind: str
    n: int
    d: int
    steps: list
    final_edges: tuple
    meta: dict = field(default_factory=dict)

    def indices(self) -> list:
        return [s.tape_index for s in self.steps if s.accepted]

    def check_monotone(self) -> bool:
        idx = [s.tape_index for s in self.steps]
        return all(a < b for a, b in zip(idx, idx[1:]))


def _leq_ratio(x: float, num: int, den: int) -> bool:
    """Exact comparison x <= num/den for a float x and integer counts."""
    a, b = x.as_integer_ratio()
    return a * den <= num * b


def _transition_weights(g: SimpleGraph, d: int, direction: str) -> dict:
    """Move weights at g: e -> |K_d(g-e)| over the edges of g (delete), or
    e -> |{K : g+e in K}| over the non-edges that some K contains (add).

    Both are fresh dicts in edge order: the caller owns them, and their order
    does not depend on the oracle cache's state.
    """
    if direction == "delete":
        total, with_edge = spanning_profile(g, d)
        return {e: total - with_edge.get(e, 0) for e in g.edges()}
    return extension_profile(g, d)[1]


def _weight_range(weights: dict) -> tuple:
    """(min, max, number of moves at the max) of the move weights, in one
    sweep; (None, 0, 0) when there is no move."""
    mn, mx, ties = None, 0, 0
    for w in weights.values():
        if w > mx:
            mx, ties = w, 1
        elif w == mx:
            ties += 1
        if mn is None or w < mn:
            mn = w
    return mn, mx, ties


def _run_edge_process(params: ModelParams, tape: RandomnessTape, direction: str):
    """The literal process in either direction; returns (transcript, G).

    At each stage the next tape pair that is a possible move is taken when its
    variate is at most weight / max weight, compared exactly.
    """
    n, d = params.n, params.d
    delete = direction == "delete"
    kind = "upper-deletion" if delete else "lower-addition"
    f = complete_graph(n) if delete else empty_graph(n)
    steps = []
    t = 0
    for i in range(1, (params.steps_upper if delete else params.steps_lower) + 1):
        weights = _transition_weights(f, d, direction)
        mn, mx, ties = _weight_range(weights)
        if mx <= 0:
            raise RuntimeError(f"{kind} process stalled: no move has positive weight")
        while True:
            t += 1
            e = tape.pair(t)
            if f.has_edge(*e) != delete:
                continue
            w = weights.get(e, 0)
            if w > 0 and _leq_ratio(tape.x(t), w, mx):
                break
        f = f.without_edge(*e) if delete else f.with_edge(*e)
        steps.append(TranscriptStep(
            stage=i, tape_index=t, edge=e, threshold=w / mx,
            min_count=mn, max_count=mx, argmax_edges=ties,
        ))
    assert is_regular(f, d)
    return ProcessTranscript(kind, n, d, steps, tuple(f.edges())), f


def _first_appearances(tape: RandomnessTape, k: int):
    """(tape index, pair) of the first k distinct pairs on the tape, in order."""
    seen = set()
    t = 0
    while len(seen) < k:
        t += 1
        e = tape.pair(t)
        if e not in seen:
            seen.add(e)
            yield t, e


@lru_cache
def _companion_thresholds(params: ModelParams) -> tuple:
    """(None, tau_1, ..., tau_C(n,2)): the clamped companion threshold of each stage."""
    return (None,) + tuple(companion_threshold(params, i)
                           for i in range(1, params.npairs + 1))


# -- upper processes ----------------------------------------------------------

def run_upper_deletion(params: ModelParams, tape: RandomnessTape):
    """Edge-deletion process from the complete graph down to a d-regular G.

    At each stage the acceptance ratio for removing e is
    |K_d(F-e)| / max_f |K_d(F-f)|, compared exactly against the tape variate.
    Returns (transcript, G); G is always d-regular on termination.
    """
    return _run_edge_process(params, tape, "delete")


def run_gstar(params: ModelParams, tape: RandomnessTape):
    """Companion deletion process; returns (transcript, G*).

    Stage graphs are uniform over all graphs with their edge count because the
    threshold depends on the stage index alone.  The final graph is the stage
    with index C(n,2) - M where M is binomial(C(n,2), (1+eps)d/n) drawn from a
    dedicated substream, so e(G*) = M.
    """
    n = params.n
    thresholds = _companion_thresholds(params)
    g = complete_graph(n)
    removed = []
    steps = []
    t = 0
    for i in range(1, params.npairs + 1):
        tau = thresholds[i]
        while True:
            t += 1
            e = tape.pair(t)
            if not g.has_edge(*e):
                continue
            if tape.x(t) <= tau:
                break
        g = g.without_edge(*e)
        removed.append(e)
        steps.append(TranscriptStep(stage=i, tape_index=t, edge=e, threshold=tau))
    m_rng = tape.rng("upper-M")
    p_star = params.p_upper
    M = sum(1 for _ in range(params.npairs) if m_rng.random() < p_star)
    gstar = complete_graph(n)
    for e in removed[: params.npairs - M]:
        gstar = gstar.without_edge(*e)
    transcript = ProcessTranscript("companion-deletion", n, params.d, steps,
                                   tuple(gstar.edges()),
                                   meta={"M": M, "p_upper": p_star})
    return transcript, gstar


@dataclass
class ReferenceRun:
    """First-appearance deletion sequence and its threshold-gated shadow.

    Holds what the tape gave: the first C(n,2) distinct tape pairs, their
    tape indices, and whether each passed its stage threshold.  Everything
    else is read off those and the parameters.
    """

    params: ModelParams
    k_indices: list
    edges: list
    deleted: list

    @property
    def R(self) -> int:
        return self.params.R

    @property
    def horizon(self) -> int:
        return self.params.n_budget

    @property
    def e_h_horizon(self) -> int:
        """e(H_N): H removes every edge on its first tape appearance."""
        return self.params.npairs - self.horizon

    @property
    def e_gplus_horizon(self) -> int:
        return self.params.npairs - sum(1 for ok in self.deleted[: self.horizon] if ok)

    @property
    def failures(self) -> int:
        return sum(1 for ok in self.deleted[: self.horizon] if not ok)

    @property
    def budget_ok(self) -> bool:
        return self.e_gplus_horizon <= self.e_h_horizon + self.R


def run_reference_sequences(params: ModelParams, tape: RandomnessTape) -> ReferenceRun:
    """Run the H (always-delete) and G+ (threshold-gated) reference sequences.

    H removes every edge on its first tape appearance, so e(H_i) = C(n,2) - i;
    G+ applies the same stage thresholds as the companion process but never
    revisits a survivor.  The gap e(G+_N) - e(H_N) counts threshold failures
    among the first N distinct edges.
    """
    thresholds = _companion_thresholds(params)
    k_indices = []
    edges = []
    deleted = []
    for i, (t, e) in enumerate(_first_appearances(tape, params.npairs), 1):
        k_indices.append(t)
        edges.append(e)
        deleted.append(tape.x(t) <= thresholds[i])
    return ReferenceRun(params, k_indices, edges, deleted)


@dataclass
class CoupledUpperRun:
    params: ModelParams
    seed: object
    g: SimpleGraph
    gstar: SimpleGraph
    contained: bool
    f_transcript: ProcessTranscript
    gstar_transcript: ProcessTranscript
    reference: ReferenceRun


def run_coupled_upper(params: ModelParams, seed) -> CoupledUpperRun:
    """Run both upper processes on one shared tape; contained = (G inside G*)."""
    tape = RandomnessTape(params.n, seed)
    f_tr, g = run_upper_deletion(params, tape)
    g_tr, gstar = run_gstar(params, tape)
    ref = run_reference_sequences(params, tape)
    return CoupledUpperRun(params, seed, g, gstar, g.is_subgraph_of(gstar),
                           f_tr, g_tr, ref)


def verify_transcript_interleaving(run: CoupledUpperRun) -> dict:
    """Deterministic cross-checks between the coupled transcripts.

    Checks the index interleaving k(i) <= l(i), m(i); the budget-conditional
    m(i) <= k(i+R); and, when the per-stage acceptance-ratio hypothesis holds
    along with m(j) <= l(j+R), the stagewise containment F_{i+R} inside G*_i.
    """
    params = run.params
    if run.f_transcript.n != run.gstar_transcript.n:
        raise ValueError("transcripts come from different vertex counts")
    ell = run.f_transcript.indices()
    m_idx = run.gstar_transcript.indices()
    k_idx = run.reference.k_indices
    report = {
        "monotone": run.f_transcript.check_monotone() and run.gstar_transcript.check_monotone()
        and all(a < b for a, b in zip(k_idx, k_idx[1:])),
        "k_le_ell": all(k_idx[i] <= ell[i] for i in range(len(ell))),
        "k_le_m": all(k_idx[i] <= m_idx[i] for i in range(len(ell))),
        "budget_ok": run.reference.budget_ok,
    }
    r = params.R
    horizon = params.n_budget
    if report["budget_ok"]:
        report["m_le_k_shifted"] = all(
            m_idx[i - 1] <= k_idx[i + r - 1] for i in range(1, max(0, horizon - r) + 1)
        )
    else:
        report["m_le_k_shifted"] = None

    # Per-stage hypothesis: min acceptance ratio at stage s at least the
    # (clamped) companion threshold R stages earlier.  hyp_upto[s] says it
    # holds at every stage up to s.
    thresholds = _companion_thresholds(params)
    hyp_upto = [True]
    for step in run.f_transcript.steps:
        tau = thresholds[max(step.stage - r, 1)]
        hyp_upto.append(hyp_upto[-1] and step.min_count >= tau * step.max_count)
    f_stages = [complete_graph(params.n)]
    for step in run.f_transcript.steps:
        f_stages.append(f_stages[-1].without_edge(*step.edge))
    g_stages = [complete_graph(params.n)]
    for step in run.gstar_transcript.steps:
        g_stages.append(g_stages[-1].without_edge(*step.edge))

    checked = 0
    holds = True
    failures = []
    for i in range(1, horizon + 1):
        # m(j) <= l(j+R) and the hypothesis must hold at every stage up to
        # i, so the first stage where either fails ends the chain
        if (i + r > len(f_stages) - 1 or m_idx[i - 1] > ell[i + r - 1]
                or not hyp_upto[i + r]):
            break
        checked += 1
        if not f_stages[i + r].is_subgraph_of(g_stages[i]):
            holds = False
            failures.append(i)
    report["containment_chain"] = {"checked": checked, "holds": holds, "failures": failures}
    report["contained_flag_consistent"] = (
        run.contained == run.g.is_subgraph_of(run.gstar)
    )
    report["passed"] = (
        report["monotone"] and report["k_le_ell"] and report["k_le_m"]
        and (report["m_le_k_shifted"] in (True, None))
        and holds and report["contained_flag_consistent"]
    )
    return report


# -- lower processes ----------------------------------------------------------

def run_lower_addition(params: ModelParams, tape: RandomnessTape):
    """Edge-addition process from the empty graph up to a d-regular G.

    The acceptance ratio for adding e is the extension-count ratio
    |{K : F+e in K}| / max_f |{K : F+f in K}|, compared exactly.
    """
    return _run_edge_process(params, tape, "add")


def run_gsub(params: ModelParams, tape: RandomnessTape):
    """Companion construction for the lower pair; returns (transcript, G_*).

    H collects each first-appearance edge with probability 1-eta; G_* is a
    uniform M-subset of E(H_N) when it is large enough, else of all pairs,
    with M binomial(C(n,2), (1-eps)d/n) from a dedicated substream.
    """
    n = params.n
    horizon = params.n_lower
    steps = []
    h = empty_graph(n)
    for i, (t, e) in enumerate(_first_appearances(tape, horizon), 1):
        accept = tape.x(t) <= 1.0 - params.eta
        if accept:
            h = h.with_edge(*e)
        steps.append(TranscriptStep(stage=i, tape_index=t, edge=e,
                                    threshold=1.0 - params.eta, accepted=accept))
    m_rng = tape.rng("lower-M")
    p_sub = params.p_lower
    M = sum(1 for _ in range(params.npairs) if m_rng.random() < p_sub)
    pick_rng = tape.rng("gsub-subset")
    h_edges = h.edges()
    if len(h_edges) >= M:
        chosen = pick_rng.sample(h_edges, M)
    else:
        chosen = pick_rng.sample(list(pair_list(n)), M)
    gsub = SimpleGraph(n, chosen)
    transcript = ProcessTranscript("companion-addition", n, params.d, steps,
                                   tuple(gsub.edges()),
                                   meta={"M": M, "p_lower": p_sub,
                                         "e_h_horizon": len(h_edges),
                                         "horizon": horizon})
    return transcript, gsub


@dataclass
class CoupledLowerRun:
    params: ModelParams
    seed: object
    g: SimpleGraph
    gsub: SimpleGraph
    contained: bool
    f_transcript: ProcessTranscript
    gsub_transcript: ProcessTranscript


def run_coupled_lower(params: ModelParams, seed) -> CoupledLowerRun:
    """Run both lower processes on one shared tape; contained = (G_* inside G)."""
    tape = RandomnessTape(params.n, seed)
    f_tr, g = run_lower_addition(params, tape)
    s_tr, gsub = run_gsub(params, tape)
    return CoupledLowerRun(params, seed, g, gsub, gsub.is_subgraph_of(g), f_tr, s_tr)


# -- exact distribution analysis ------------------------------------------------
#
# Every move weight is an oracle count, unchanged when the vertices are
# relabeled, and both processes start from a graph fixed by every relabeling.
# So each stage law gives isomorphic labeled graphs equal probability, and
# one entry per class can carry it.  A law over labeled graphs is the same
# object with every class a single graph, so one law type and one kernel
# step serve both.

@dataclass
class ClassLaw:
    """Exact law over classes of graphs sharing one edge count.

    graphs holds one representative per class, sizes its number of labeled
    members, and probs the probability of each labeled member.  Keyed by
    canonical_key with every size 1, it is a law over labeled graphs
    (DistributionTable); keyed by certificate (graphs.canonical_labeling)
    with each class's canonical form, a law over isomorphism classes.  The
    key fixes the representative, so two laws are equal exactly when they
    have the same classes, sizes and per-member probabilities.
    """

    n: int
    graphs: dict
    probs: dict
    sizes: dict

    def edge_count(self) -> int:
        counts = {g.edge_count() for g in self.graphs.values()}
        if len(counts) > 1:
            raise ValueError(f"mixed edge counts in support: {sorted(counts)}")
        return counts.pop() if counts else 0

    def total(self) -> Fraction:
        """Total probability over the labeled graphs."""
        return sum((p * self.sizes[c] for c, p in self.probs.items()), Fraction(0))

    def check(self):
        self.edge_count()
        if self.total() != 1:
            raise ValueError(f"probabilities sum to {self.total()}, not 1")
        return self


def DistributionTable(n: int, graphs: dict, probs: dict) -> ClassLaw:
    """Exact law over labeled graphs: a ClassLaw keyed by canonical_key whose
    classes are single graphs."""
    return ClassLaw(n, graphs, probs, dict.fromkeys(graphs, 1))


def _labeled_form(g: SimpleGraph):
    """(key, representative) of g's class when every graph is its own class."""
    return canonical_key(g), g


def _canonical_form(g: SimpleGraph):
    """(certificate, canonical form) of g's isomorphism class."""
    cert, _ = canonical_labeling(g)
    return cert, SimpleGraph._from_rows(g.n, cert)


def point_mass(g: SimpleGraph) -> ClassLaw:
    key = canonical_key(g)
    return DistributionTable(g.n, {key: g}, {key: Fraction(1)})


def _moved(g: SimpleGraph, e, delete: bool) -> SimpleGraph:
    return g.without_edge(*e) if delete else g.with_edge(*e)


def _kernel_step(law: ClassLaw, d: int, direction: str, form) -> ClassLaw:
    """Push the law through one step of the conditioned transition kernel.

    Conditioned on a move happening, edge e is chosen with probability
    proportional to |K_d(F-e)| (delete) or |{K : F+e in K}| (add).  Each
    class pushes p x size x w / denom to the class form(h) of each
    positive-weight move h of its representative.  All arithmetic is exact
    rational; the output sums to exactly 1 over labeled graphs.

    Class sizes come from double counting: every labeled graph H with m'
    edges has the same number of predecessors, its C(n,2) - m' supersets by
    one edge (delete) or its m' subgraphs less one edge (add).  The weight
    of each of those moves is the count at H, so when H is reached at all,
    every predecessor lies in the previous support and moves to H with
    positive weight.  A class's size is then the number of labeled
    (predecessor, move) pairs landing in it over that number, which is 1
    for single graphs when the weights are right.
    """
    if direction not in ("delete", "add"):
        raise ValueError(f"unknown direction {direction!r}")
    delete = direction == "delete"
    graphs = {}
    mass = {}
    moves = {}
    for key, g in law.graphs.items():
        weights = _transition_weights(g, d, direction)
        denom = sum(weights.values())
        if denom == 0:
            raise RuntimeError(f"zero total transition weight at {key}")
        size = law.sizes[key]
        q = law.probs[key] * size / denom
        for e, w in weights.items():
            if not w:
                continue
            hk, h = form(_moved(g, e, delete))
            graphs.setdefault(hk, h)
            mass[hk] = mass.get(hk, 0) + q * w
            moves[hk] = moves.get(hk, 0) + size
    m = law.edge_count() + (-1 if delete else 1)
    predecessors = math.comb(law.n, 2) - m if delete else m
    # a Fraction, so that a size that is not whole (a weight made positive
    # where the count is 0) shows as a failed comparison, not a crash
    sizes = {k: Fraction(c, predecessors) for k, c in moves.items()}
    probs = {k: mass[k] / sizes[k] for k in graphs}
    return ClassLaw(law.n, graphs, probs, sizes).check()


def exact_kernel_step(dist: ClassLaw, d: int, direction: str) -> ClassLaw:
    """One conditioned kernel step of a law over labeled graphs (_kernel_step)."""
    return _kernel_step(dist, d, direction, _labeled_form)


def class_kernel_step(law: ClassLaw, d: int, direction: str) -> ClassLaw:
    """One conditioned kernel step of a law over isomorphism classes (_kernel_step)."""
    return _kernel_step(law, d, direction, _canonical_form)


def _last_stage(params: ModelParams, direction: str) -> int:
    """Index of the final stage of the exact analysis in the given direction;
    CapacityError when n is above the exact-analysis ceiling."""
    if params.n > params.exact_ceiling:
        raise CapacityError(f"n={params.n} exceeds exact-analysis ceiling "
                            f"{params.exact_ceiling}")
    if direction == "delete":
        return params.steps_upper
    if direction == "add":
        return params.steps_lower
    raise ValueError(f"unknown direction {direction!r}")


def _stage_laws(params: ModelParams, direction: str, step, form):
    """Iterator over the laws of stages 0, 1, ..., last under the kernel step.

    Each law is one kernel step from the one before it, so the whole
    sequence costs one step per stage.  Arguments are checked when this is
    called, before any law is computed.
    """
    last = _last_stage(params, direction)
    start = complete_graph(params.n) if direction == "delete" else empty_graph(params.n)
    # every relabeling fixes the start graph, so its class is itself
    key, g = form(start)
    law = ClassLaw(params.n, {key: g}, {key: Fraction(1)}, {key: 1})
    return _iterate_kernel(step, law, params.d, direction, last)


def _iterate_kernel(step, law, d, direction, steps):
    yield law
    for _ in range(steps):
        law = step(law, d, direction)
        yield law


def exact_stage_laws(params: ModelParams, direction: str):
    """Iterator over the exact labeled laws of stages 0, 1, ..., last, in order."""
    return _stage_laws(params, direction, exact_kernel_step, _labeled_form)


def class_stage_laws(params: ModelParams, direction: str):
    """exact_stage_laws over isomorphism classes: an iterator over the
    ClassLaw of stages 0, 1, ..., last, in order."""
    return _stage_laws(params, direction, class_kernel_step, _canonical_form)


def exact_marginal(params: ModelParams, i: int, direction: str) -> ClassLaw:
    """Exact stage-i law obtained by iterating the conditioned kernel."""
    if not 0 <= i <= _last_stage(params, direction):
        raise ValueError("stage out of range")
    return next(islice(exact_stage_laws(params, direction), i, None))


def _closed_form(params: ModelParams, direction: str) -> tuple:
    """(weight, last, normaliser) of the closed-form stage laws.

    Stage i of 0..last gives each labeled F it can reach probability
    weight(F) / normaliser(i), where weight(F) is |K_d(F)| (delete) or
    |{K : F in K}| (add) and normaliser(i) = |K_d(n)| * C(last, last - i).
    """
    last = _last_stage(params, direction)
    d = params.d
    count = count_regular_spanning_subgraphs if direction == "delete" else count_extensions
    k_total = count_regular_spanning_subgraphs(complete_graph(params.n), d)
    return (lambda g: count(g, d)), last, (lambda i: k_total * math.comb(last, last - i))


def closed_form_law(params: ModelParams, i: int, direction: str) -> ClassLaw:
    """Exact stage-i law from the closed form, over labeled graphs.

    Delete direction: P(F) = |K_d(F)| / |K_d(n)| / C(C(n,2)-dn/2, C(n,2)-dn/2-i)
    over all F with C(n,2)-i edges.  Add direction: P(F) =
    |{K : F in K}| / |K_d(n)| / C(dn/2, dn/2-i) over all F with i edges.
    Every labeled edge subset is enumerated, so this is a reference that
    shares nothing with the kernel.
    """
    weight, last, normaliser = _closed_form(params, direction)
    if not 0 <= i <= last:
        raise ValueError("stage out of range")
    n = params.n
    denominator = normaliser(i)
    edge_count = params.npairs - i if direction == "delete" else i
    graphs = {}
    probs = {}
    for edges in combinations(pair_list(n), edge_count):
        g = SimpleGraph(n, edges)
        w = weight(g)
        if w:
            key = canonical_key(g)
            graphs[key] = g
            probs[key] = Fraction(w, denominator)
    return DistributionTable(n, graphs, probs).check()


# -- closed-form laws over isomorphism classes ------------------------------------

def _pair_invariant(g: SimpleGraph, e) -> tuple:
    """Endpoint degrees and common neighbours of the pair in g.

    Both can be read off the degree sequences and triangle counts of g and
    of g with the pair toggled, so two pairs whose toggles are isomorphic
    have equal invariants.
    """
    a, b = g.adj[e[0]].bit_count(), g.adj[e[1]].bit_count()
    return min(a, b), max(a, b), (g.adj[e[0]] & g.adj[e[1]]).bit_count()


def _earlier_support(graphs: dict, sizes: dict, delete: bool):
    """(graphs, sizes) of the support one stage earlier than the given one.

    The classes are those one backward move away (adding a non-edge for
    delete, removing an edge for add).  The closed form is positive exactly
    on the graphs above (delete) or below (add) some d-regular K, so those
    moves stay in the support, and each such graph one stage earlier is
    reached: from itself less an edge outside K (delete), or plus an edge
    of K that it lacks (add).  A class C' reached
    from C has size(C') = size(C) x back(C -> C') / fwd(C' -> C): both sides
    count the labeled pairs one move apart, where back is the number of
    backward moves from C's form into C' and fwd the number of forward moves
    from C''s form into C.  fwd starts from the pairs of C''s form that the
    backward moves landed on; another pair can only count when its
    _pair_invariant is one of theirs, and only those pairs get a
    certificate.  Of the classes reaching C', the one leaving the fewest
    such pairs is used.
    """
    found = {}
    into = {}  # C' -> {C: (back count, pairs of C''s form reaching C)}
    for cert, g in graphs.items():
        for e in (complement(g) if delete else g).edges():
            hc, relabel = canonical_labeling(_moved(g, e, not delete))
            if hc not in found:
                found[hc] = SimpleGraph._from_rows(g.n, hc)
            entry = into.setdefault(hc, {}).setdefault(cert, [0, set()])
            entry[0] += 1
            entry[1].add(tuple(sorted((relabel[e[0]], relabel[e[1]]))))
    earlier = {}
    for hc, h in found.items():
        looks = {f: _pair_invariant(h, f) for f in (h if delete else complement(h)).edges()}
        best = None
        for cert, (back, hits) in into[hc].items():
            wanted = {looks[f] for f in hits}
            unsure = [f for f, look in looks.items() if look in wanted and f not in hits]
            if best is None or len(unsure) < len(best[3]):
                best = (cert, back, hits, unsure)
        cert, back, hits, unsure = best
        fwd = len(hits) + sum(1 for f in unsure
                              if canonical_labeling(_moved(h, f, delete))[0] == cert)
        size, rest = divmod(sizes[cert] * back, fwd)
        if rest:
            raise RuntimeError(f"class sizes do not double count at {hc}")
        earlier[hc] = size
    return found, earlier


def _orbit(adj: tuple) -> set:
    """Adjacency rows of every relabeling of the graph, found by applying the
    transpositions (v v+1) until nothing new appears."""
    n = len(adj) - 1
    seen = {adj}
    stack = [adj]
    while stack:
        rows = stack.pop()
        for v in range(1, n):
            both = (1 << v) | (1 << (v + 1))
            swapped = [r ^ both if ((r >> v) ^ (r >> (v + 1))) & 1 else r for r in rows]
            swapped[v], swapped[v + 1] = swapped[v + 1], swapped[v]
            swapped = tuple(swapped)
            if swapped not in seen:
                seen.add(swapped)
                stack.append(swapped)
    return seen


@lru_cache(maxsize=None)
def _regular_classes(n: int, d: int):
    """(graphs, sizes) of the classes of d-regular graphs on {1..n}.

    Each class is labeled once, and its size is its orbit's, which also
    marks its other members as classified.
    """
    graphs = {}
    sizes = {}
    classified = set()
    for k in _all_regular(n, d):
        if k.adj in classified:
            continue
        orbit = _orbit(k.adj)
        classified |= orbit
        cert, g = _canonical_form(k)
        graphs[cert] = g
        sizes[cert] = len(orbit)
    return graphs, sizes


def closed_form_class_laws(params: ModelParams, direction: str) -> list:
    """closed_form_law over isomorphism classes, for stages 0, 1, ..., last.

    The support is found without the kernel: the last stage's classes are
    those of the d-regular graphs (_regular_classes), and each earlier
    stage's classes come from _earlier_support.
    The closed form is then evaluated once per class, and each law is
    checked to sum to exactly 1 over labeled graphs.
    """
    weight, last, normaliser = _closed_form(params, direction)
    n = params.n
    graphs, sizes = map(dict, _regular_classes(n, params.d))
    laws = []
    for stage in range(last, -1, -1):
        denominator = normaliser(stage)
        probs = {c: Fraction(weight(g), denominator) for c, g in graphs.items()}
        laws.append(ClassLaw(n, graphs, probs, sizes).check())
        if stage:
            graphs, sizes = _earlier_support(graphs, sizes, direction == "delete")
    return laws[::-1]


# -- planted-pair samplers -------------------------------------------------------

@lru_cache(maxsize=None)
def _all_regular(n: int, d: int) -> tuple:
    return tuple(enumerate_regular(complete_graph(n), d))


def uniform_regular(n: int, d: int, rng) -> SimpleGraph:
    """Exactly uniform d-regular graph on {1..n}.

    Small instances draw from the cached full enumeration; larger ones use the
    pairing model with restarts (uniform on simple graphs), run on the sparser
    of degree d and its complement degree.
    """
    from .graphs import random_regular_graph

    if (n * d) % 2:
        raise ValueError("dn must be even")
    if n <= 8:
        ks = _all_regular(n, d)
        if not ks:
            raise ValueError("no d-regular graph exists for these parameters")
        return rng.choice(ks)
    if d <= n - 1 - d:
        return random_regular_graph(n, d, rng)
    return complement(random_regular_graph(n, n - 1 - d, rng))


def sample_f(params: ModelParams, rng):
    """Sample the planted pair (K, F) with F = K plus m uniform non-edges."""
    params._need_m()
    if not 0 <= params.m <= params.steps_upper:
        raise ValueError(f"m={params.m} out of range for the planted supergraph model")
    k = uniform_regular(params.n, params.d, rng)
    extras = rng.sample(complement(k).edges(), params.m)
    f = SimpleGraph(params.n, k.edges() + extras)
    return k, f


def sample_fminus(params: ModelParams, rng):
    """Sample the planted pair (K, F) with F = K minus m uniform edges."""
    params._need_m()
    if not 0 <= params.m <= params.steps_lower:
        raise ValueError(f"m={params.m} out of range for the planted subgraph model")
    k = uniform_regular(params.n, params.d, rng)
    keep = set(k.edges()) - set(rng.sample(k.edges(), params.m))
    f = SimpleGraph(params.n, keep)
    return k, f
