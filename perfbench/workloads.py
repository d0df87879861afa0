"""The four benchmark workloads, their seeded input generators and their checks.

Inputs come only from the generators here, driven by the benchmark seed; the
package sees graphs, configs and `random.Random` objects, never the seed
itself except as `ExperimentConfig.seed`, which is what the CLI would pass.
Every workload is a closed loop with one client: each public call is made
after the previous one returns, always with jobs=1.

A workload runs in passes.  `prepare(sl, shared, seed, index)` builds the
inputs of pass `index` (untimed); `run(sl, call, inputs)` makes the pass's
public calls through `call`, which times each one and records its checks.
`sl` is a namespace of sandwichlab modules, read at call time so that span
wrappers installed for a traced pass are the functions actually called.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations


def derived_seed(seed, *labels) -> int:
    text = repr((seed,) + labels).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def report_digest(report: dict) -> str:
    """Digest of the determinism-contract fields of a run_experiment report.

    `timing` (and any future `diagnostics`) lies outside the contract and
    `version` is package metadata, so neither is digested.
    """
    return digest({k: report[k] for k in ("schema", "config", "results", "hard_pass")})


# -- seeded graph generators ---------------------------------------------------

def random_regular_edges(n: int, d: int, rng) -> list:
    """Uniform simple d-regular graph on 1..n by the pairing model with restarts."""
    while True:
        points = [v for v in range(1, n + 1) for _ in range(d)]
        rng.shuffle(points)
        edges = set()
        for i in range(0, len(points), 2):
            u, v = sorted(points[i:i + 2])
            if u == v or (u, v) in edges:
                break
            edges.add((u, v))
        else:
            return sorted(edges)


def non_edges(n: int, edges) -> list:
    present = set(edges)
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
            if (u, v) not in present]


def regular_edge_lists(n: int, d: int) -> list:
    """Every labelled d-regular graph on 1..n, as sorted edge tuples."""
    need = [d] * (n + 1)
    edges, out = [], []

    def rec(v):
        while v <= n and need[v] == 0:
            v += 1
        if v > n:
            out.append(tuple(edges))
            return
        k = need[v]
        cands = [w for w in range(v + 1, n + 1) if need[w]]
        need[v] = 0
        for combo in combinations(cands, k):
            for w in combo:
                need[w] -= 1
                edges.append((v, w))
            rec(v + 1)
            for w in combo:
                need[w] += 1
            del edges[-k:]
        need[v] = k

    rec(1)
    return out


def six_statistic(edges, wprime, mode: str) -> int:
    """Edges inside W' (two-in), or the excess W'-degree of outside vertices (one-in)."""
    if mode == "two-in":
        return sum(1 for u, v in edges if u in wprime and v in wprime)
    deg_in = {}
    for u, v in edges:
        if (u in wprime) != (v in wprime):
            outside = v if u in wprime else u
            deg_in[outside] = deg_in.get(outside, 0) + 1
    return sum(c - 1 for c in deg_in.values() if c > 1)


# -- checks ----------------------------------------------------------------------

def coupling_ok(report) -> bool:
    return report["hard_pass"] and report["results"]["transcript_checks_passed"]


def marginals_ok(report) -> bool:
    stages = report["results"]["stages"]
    return (report["hard_pass"] and report["results"]["marginal_check"] == "exact"
            and all(v == "exact" for verdicts in stages.values() for v in verdicts))


def double_count_ok(report) -> bool:
    return report["passed"]


def audit_ok(report) -> bool:
    """The inputs are sized so that every audit checks some instance."""
    return report.instances > 0


# -- workloads ---------------------------------------------------------------------

class RunExperiment:
    """One run_experiment call per pass, from a cold oracle cache."""

    def __init__(self, name, command, options, trials, trials_per_pass, check):
        self.name = name
        self.command = command
        self.options = options
        self.trials = trials
        self.trials_per_pass = trials_per_pass
        self.check = check

    def setup(self, sl):
        return None

    def prepare(self, sl, shared, seed, index):
        return sl.cli.ExperimentConfig(self.command, dict(self.options),
                                       seed=derived_seed(seed, self.name, index),
                                       trials=self.trials, jobs=1)

    def run(self, sl, call, config):
        call("run_experiment", sl.cli.run_experiment, config,
             check=self.check, digest=report_digest)


class SwitchAudit:
    """Switching double counts and property audits, one call list per pass."""

    name = "switch-audit"
    trials_per_pass = 1
    lef_needed, lef_cap = 2, 60
    ten_needed, ten_cap = 3, 300
    planted_pair_seed = 1

    def setup(self, sl):
        return regular_edge_lists(8, 3)

    def prepare(self, sl, cubic8, seed, index):
        graph = sl.graphs.SimpleGraph
        rng = random.Random(derived_seed(seed, self.name, index))
        inputs = {}

        def rich_host(n, extras):
            base = random_regular_edges(n, 3, rng)
            added = rng.sample(non_edges(n, base), extras)
            return base, graph(n, base + added), added

        inputs["le"] = []
        for n, extras in ((8, 3), (10, 4)):
            base, host, _ = rich_host(n, extras)
            inputs["le"].append((n, host, base))

        inputs["lef"] = []
        for _ in range(self.lef_cap):
            base, host, added = rich_host(10, 10)
            e = rng.choice(base)
            partners = [fe for fe in added if not set(fe) & set(e)]
            if partners:
                inputs["lef"].append((host, e, rng.choice(partners)))

        inputs["ten"] = []
        for _ in range(self.ten_cap):
            base = random_regular_edges(10, 3, rng)
            drop = rng.sample(base, 6)
            partial = graph(10, [e for e in base if e not in drop])
            e = drop[0]
            partners = [fe for fe in non_edges(10, base) if not set(fe) & set(e)]
            inputs["ten"].append((partial, e, rng.choice(partners)))

        wprime = frozenset(rng.sample(range(1, 9), 3))
        inputs["six"] = []
        for mode in ("two-in", "one-in"):
            classes = {}
            for edges in cubic8:
                classes.setdefault(six_statistic(edges, wprime, mode), []).append(edges)
            value = max((v for v in classes if v > 0), key=lambda v: (len(classes[v]), v))
            inputs["six"].append((mode, sorted(wprime),
                                  [graph(8, edges) for edges in classes[value]]))

        # The expansion checkers' work follows the planted pair's structure and
        # varied by +-15% between random pairs, more than every other source of
        # spread together; so the structure is fixed and the seed relabels it.
        n, d, m = 14, 4, 28
        shape = random.Random(self.planted_pair_seed)
        k_edges = random_regular_edges(n, d, shape)
        extras = shape.sample(non_edges(n, k_edges), m)
        perm = [0] + rng.sample(range(1, n + 1), n)
        k_edges, extras = ([tuple(sorted((perm[u], perm[v]))) for u, v in edges]
                           for edges in (k_edges, extras))
        inputs["audit"] = {
            "k": graph(n, k_edges), "f": graph(n, k_edges + extras),
            "fk": graph(n, extras), "d": d, "delta": 2 * m / n,
            "seeds": [rng.getrandbits(64) for _ in range(5)],
        }
        return inputs

    def run(self, sl, call, inputs):
        sw, au = sl.switching, sl.audit

        def double_count(label, build, *args):
            graph = call(f"{label}/build", build, *args)
            if graph is None:
                return 0
            report = call(f"{label}/verify", sw.verify_double_count, graph,
                          check=double_count_ok, digest=digest)
            return report["edges"] if report else 0

        for n, host, base in inputs["le"]:
            for ell in (1, 2):
                for e in base:
                    if double_count(f"le/n{n}/ell{ell}/{e}", sw.build_le_graph,
                                    host, 3, e, ell):
                        break

        found = 0
        for j, (host, e, f_edge) in enumerate(inputs["lef"]):
            found += bool(double_count(f"lef/{j}", sw.build_lef_graph,
                                       host, 3, e, f_edge, 1))
            if found >= self.lef_needed:
                break

        found = 0
        for j, (partial, e, f_edge) in enumerate(inputs["ten"]):
            found += bool(double_count(f"ten/{j}", sw.build_ten_cycle_graph,
                                       partial, 3, e, f_edge))
            if found >= self.ten_needed:
                break

        for mode, wprime, family in inputs["six"]:
            double_count(f"six/{mode}", sw.build_six_cycle_graph, 3, wprime, mode, family)

        a = inputs["audit"]
        f, k, d, delta = a["f"], a["k"], a["d"], a["delta"]
        rngs = [random.Random(s) for s in a["seeds"]]
        checks = [
            ("expansion-k", au.check_expansion_k,
             (f, k, 0.8, d, delta), {"log_divisor": False, "size_cap": 5, "rng": rngs[0]}),
            ("expansion-fk", au.check_expansion_fk,
             (f, k, 0.8, delta, d), {"size_cap": 5, "rng": rngs[1]}),
            ("degree-band", au.check_degree_band, (f, d, delta, 0.1), {}),
            ("fk-degrees", au.check_fk_degrees, (f, k, delta, 1.0), {}),
            ("neighborhood-sums", au.check_neighborhood_sums, (f, k, delta, d), {}),
            ("local-density", au.check_local_density, (a["fk"],), {"rng": rngs[2]}),
            ("connection", au.check_connection, (f, k, 0.5), {"rng": rngs[3]}),
            ("uv-distribution", au.check_uv_distribution, (k, d),
             {"size_floor": 10, "samples": 300, "rng": rngs[4]}),
        ]
        for label, fn, args, kwargs in checks:
            call(f"audit/{label}", fn, *args, check=audit_ok,
                 digest=lambda report: digest(report.as_dict()), **kwargs)


WORKLOADS = {w.name: w for w in (
    # Passes of about 1.5 s, so that a run's median pass is taken over a dozen.
    RunExperiment(
        "upper-n8d3", "couple-upper", {"n": 8, "d": 3}, trials=5, trials_per_pass=5,
        check=coupling_ok),
    RunExperiment(
        "lower-n8d3", "couple-lower", {"n": 8, "d": 3}, trials=10, trials_per_pass=10,
        check=coupling_ok),
    RunExperiment(
        "exact-laws-n6d3", "verify-marginals", {"n": 6, "d": 3}, trials=1,
        trials_per_pass=17, check=marginals_ok),
    SwitchAudit(),
)}
