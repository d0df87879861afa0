"""Which sandwichlab functions a traced pass wraps, and the per-layer metrics.

Each `_s` metric is the summed self time of the named spans (span duration
minus the time its traced callees cover), per traced pass; each count is per
traced pass too.  Counts a span cannot see are taken by after-call hooks
(profile completions on cache misses, law support sizes, auxiliary-graph
edges, audit instances, trial transcripts) or read from the oracle's
DEFAULT_CACHE after each pass.
"""

from __future__ import annotations

import hashlib
import math

PROFILE = ("oracle.spanning_profile", "oracle.extension_profile")
COUNT = ("oracle.count_regular_spanning_subgraphs", "oracle.count_extensions")
TRIALS = ("coupling.run_coupled_upper", "coupling.run_coupled_lower")
AUDIT_OTHER = tuple(f"audit.check_{p}" for p in (
    "degree_band", "fk_degrees", "neighborhood_sums", "local_density",
    "connection", "uv_distribution"))

SELF_TIME = {
    "oracle.profile_s": PROFILE,
    "oracle.count_s": COUNT,
    "coupling.process_self_s": ("coupling.run_upper_deletion", "coupling.run_lower_addition"),
    "coupling.companion_s": ("coupling.run_gstar", "coupling.run_gsub"),
    "coupling.reference_s": ("coupling.run_reference_sequences",),
    "coupling.verify_s": ("coupling.verify_transcript_interleaving",),
    "coupling.kernel_step_s": ("coupling.exact_kernel_step",),
    "coupling.closed_form_s": ("coupling.closed_form_law",),
    "graphs.canonical_key_s": ("graphs.canonical_key",),
    "stats.fit_s": ("stats.chi_square_uniformity", "stats.containment_rate"),
    "switching.le_s": ("switching.build_le_graph",),
    "switching.lef_s": ("switching.build_lef_graph",),
    "switching.six_s": ("switching.build_six_cycle_graph",),
    "switching.ten_s": ("switching.build_ten_cycle_graph",),
    "switching.verify_s": ("switching.verify_double_count",),
    "audit.expansion_k_s": ("audit.check_expansion_k",),
    "audit.expansion_fk_s": ("audit.check_expansion_fk",),
    "audit.other_s": AUDIT_OTHER,
    "cli.self_s": ("cli.run_experiment",),
}
CALLS = {
    "oracle.profile_calls": PROFILE,
    "oracle.count_calls": COUNT,
    "coupling.kernel_steps": ("coupling.exact_kernel_step",),
    "graphs.canonical_key_calls": ("graphs.canonical_key",),
}
# spans that carry no metric of their own but must exist so that the time
# under them is not counted as their caller's self time
STRUCTURE = TRIALS + ("coupling.exact_marginal",)

AUDIT_ALL = ("audit.check_expansion_k", "audit.check_expansion_fk") + AUDIT_OTHER


class Counters:
    """Counts taken by after-call hooks during the traced passes."""

    def __init__(self, cache):
        self.cache = cache
        self.completions = 0
        self.closed_form_graphs = 0
        self.aux_edges = 0
        self.double_counts = 0
        self.nonzero = 0
        self.instances = 0
        self.draws = 0
        self.stages = 0
        self.main_scanned = 0
        self.trials = 0
        self.transcripts = hashlib.sha256()
        self.cache_hits = self.cache_misses = self.cache_entries = 0

    def hooks(self, name):
        """(before, after) for the span name, or (None, None)."""
        if name in PROFILE:
            return (lambda: self.cache.misses), self._profile
        if name == "coupling.closed_form_law":
            return None, self._closed_form
        if name == "switching.verify_double_count":
            return None, self._double_count
        if name in AUDIT_ALL:
            return None, self._audit
        if name in TRIALS:
            return None, self._trial
        return None, None

    def _profile(self, misses_before, result):
        if self.cache.misses > misses_before:
            self.completions += result[0]

    def _closed_form(self, _, table):
        self.closed_form_graphs += len(table.graphs)

    def _double_count(self, _, report):
        self.double_counts += 1
        self.aux_edges += report["edges"]
        self.nonzero += report["edges"] > 0

    def _audit(self, _, report):
        self.instances += report.instances

    def _trial(self, _, run):
        main = run.f_transcript
        if hasattr(run, "gstar_transcript"):
            companion, reference = run.gstar_transcript, run.reference.k_indices
        else:
            companion, reference = run.gsub_transcript, []
        main_high = max((s.tape_index for s in main.steps), default=0)
        self.draws += max([main_high, *(s.tape_index for s in companion.steps), *reference])
        self.stages += len(main.steps)
        self.main_scanned += main_high
        self.trials += 1
        record = [run.contained, list(reference)]
        for tr in (main, companion):
            record.append([tr.kind, [(s.tape_index, s.edge, s.accepted) for s in tr.steps],
                           tr.final_edges])
        self.transcripts.update(repr(record).encode())

    def end_pass(self):
        """Read the cache after a traced pass; returns the pass's transcript digest."""
        self.cache_hits += self.cache.hits
        self.cache_misses += self.cache.misses
        self.cache_entries += len(self.cache)
        digest = self.transcripts.hexdigest()[:16]
        self.transcripts = hashlib.sha256()
        return digest


def targets(modules_by_short_name, counters):
    """(module, attr, span name, before, after) for every traced function."""
    names = sorted({n for group in (*SELF_TIME.values(), *CALLS.values(), STRUCTURE)
                    for n in group})
    out = []
    for name in names:
        short, attr = name.split(".")
        out.append((modules_by_short_name[short], attr, name, *counters.hooks(name)))
    return out


def _quantile(sorted_values, q):
    """Nearest-rank quantile of a sorted list (0 when empty)."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def metrics(summary: dict, counters: Counters, passes: int,
            traced_s: float, untraced_s: float) -> dict:
    """Every per-layer metric, as {name: (value, unit)}, per traced pass."""

    def self_s(names):
        return sum(summary[n]["self_ns"] for n in names if n in summary) / 1e9 / passes

    def calls(names):
        return sum(summary[n]["calls"] for n in names if n in summary) / passes

    out = {m: (self_s(names), "s") for m, names in SELF_TIME.items()}
    out.update({m: (calls(names), "count") for m, names in CALLS.items()})
    trial_s = sorted(d / 1e9 for n in TRIALS if n in summary
                     for d in summary[n]["durations_ns"])
    lookups = counters.cache_hits + counters.cache_misses
    audit_s = self_s(AUDIT_ALL)
    out.update({
        "oracle.completions": (counters.completions / passes, "count"),
        "oracle.cache_hits": (counters.cache_hits / passes, "count"),
        "oracle.cache_misses": (counters.cache_misses / passes, "count"),
        "oracle.cache_hit_ratio": (counters.cache_hits / lookups if lookups else 0.0, "ratio"),
        "oracle.cache_entries": (counters.cache_entries / passes, "count"),
        "tape.draws_per_trial": (counters.draws / counters.trials if counters.trials else 0.0,
                                 "count"),
        "tape.accept_ratio": (counters.stages / counters.main_scanned
                              if counters.main_scanned else 0.0, "ratio"),
        "coupling.trial_s_p50": (_quantile(trial_s, 0.5), "s"),
        "coupling.trial_s_p90": (_quantile(trial_s, 0.9), "s"),
        "coupling.closed_form_graphs": (counters.closed_form_graphs / passes, "count"),
        "switching.aux_edges": (counters.aux_edges / passes, "count"),
        "switching.nonzero_ratio": (counters.nonzero / counters.double_counts
                                    if counters.double_counts else 0.0, "ratio"),
        "audit.instances": (counters.instances / passes, "count"),
        "audit.instances_per_s": (counters.instances / passes / audit_s if audit_s else 0.0,
                                  "1/s"),
        "trace.overhead_ratio": (traced_s / untraced_s - 1, "ratio"),
    })
    return out
