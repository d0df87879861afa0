"""Experiment orchestration: argument parsing, seeding, parallel trials, reports.

Reports are self-describing JSON: they embed the full configuration, and
re-running the embedded configuration reproduces every non-timing field
exactly, independent of the worker count.  Exit code 0 means every hard
(exact) check passed; soft measured metrics never affect the exit status.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import typing
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .audit import (
    check_connection,
    check_degree_band,
    check_expansion_fk,
    check_expansion_k,
    check_fk_degrees,
    check_local_density,
    check_neighborhood_sums,
    check_uv_distribution,
)
from .coupling import (
    ModelParams,
    class_stage_laws,
    closed_form_class_laws,
    run_coupled_lower,
    run_coupled_upper,
    sample_f,
    sample_fminus,
    verify_transcript_interleaving,
)
from .graphs import canonical_labeling, difference, parse_graph_literal
from .oracle import DEFAULT_CACHE, CapacityError, count_regular_spanning_subgraphs
from .stats import (
    chi_square_uniformity,
    containment_rate,
    path_polynomial_stats,
    schedule_mass,
)
from .switching import (
    PathQuery,
    build_le_graph,
    build_lef_graph,
    build_six_cycle_graph,
    build_ten_cycle_graph,
    six_cycle_statistic,
    verify_double_count,
)
from .tape import derive_seed

import random

SCHEMA = "sandwichlab-report:1"


@dataclass
class ExperimentConfig:
    """Validated invocation record; embedded verbatim in every report."""

    command: str
    options: dict = field(default_factory=dict)
    seed: int = 0
    trials: int = 100
    jobs: int = 1
    out: str = None
    format: str = "json"

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")

    def as_dict(self) -> dict:
        # where the report is written is not part of what it reproduces
        return {k: v for k, v in vars(self).items() if k != "out"}


def _parse_edge(text: str) -> tuple:
    u, v = text.split("-")
    return int(u), int(v)


def _parse_vertices(text: str) -> tuple:
    return tuple(int(t) for t in text.split(",")) if text else ()


# the model options: each is a flag of its field's type and a sweepable param
_MODEL_TYPES = typing.get_type_hints(ModelParams)


def _params_from(options: dict) -> ModelParams:
    return ModelParams(**{k: options[k] for k in _MODEL_TYPES
                          if options.get(k) is not None})


# -- per-trial workers (top level so process pools can import them) --------------

def _upper_trial(payload):
    options, master, t = payload
    params = _params_from(options)
    run = run_coupled_upper(params, derive_seed(master, "trial", t))
    report = verify_transcript_interleaving(run)
    return (t, bool(run.contained), run.gstar.edge_count(), bool(report["passed"]))


def _lower_trial(payload):
    options, master, t = payload
    params = _params_from(options)
    run = run_coupled_lower(params, derive_seed(master, "trial", t))
    return (t, bool(run.contained), run.gsub.edge_count(), True)


def _map_trials(worker, payloads, jobs):
    # a fork-started pool forks all its workers at once, used or not
    jobs = min(jobs, len(payloads))
    if jobs <= 1:
        results = [worker(p) for p in payloads]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk = max(1, len(payloads) // (jobs * 4))
            results = list(pool.map(worker, payloads, chunksize=chunk))
    return sorted(results)


# -- subcommand handlers -----------------------------------------------------------

def _cmd_count(config):
    host = parse_graph_literal(config.options["host"])
    value = count_regular_spanning_subgraphs(host, config.options["d"])
    return {"count": str(value), "rows": [{"n": host.n, "d": config.options["d"],
                                           "count": str(value)}],
            "columns": ["n", "d", "count"]}, True


def _cmd_paths(config):
    opts = config.options
    query = PathQuery(
        f=parse_graph_literal(opts["f"]),
        k=parse_graph_literal(opts["k"]),
        x=opts["x"],
        y=opts.get("y"),
        half_length=opts["ell"],
        avoid=frozenset(_parse_vertices(opts.get("avoid", ""))),
        mode=opts.get("mode", "between-endpoints"),
        start_in_k=bool(opts.get("start_in_k")),
    )
    value = query.run()
    row = {"x": query.x, "y": query.y, "ell": query.half_length, "count": value}
    return {"count": value, "rows": [row], "columns": list(row)}, True


def _cmd_switchings(config):
    opts = config.options
    kind = opts["kind"]
    d = opts["d"]
    host = parse_graph_literal(opts["host"])
    statistic = None
    if kind == "le":
        graph = build_le_graph(host, d, _parse_edge(opts["e"]), opts.get("ell", 1))
    elif kind == "lef":
        graph = build_lef_graph(host, d, _parse_edge(opts["e"]),
                                _parse_edge(opts["f_edge"]), opts.get("ell", 1))
    elif kind == "ten":
        graph = build_ten_cycle_graph(host, d, _parse_edge(opts["e"]),
                                      _parse_edge(opts["f_edge"]))
    elif kind in ("six-two", "six-one"):
        mode = "two-in" if kind == "six-two" else "one-in"
        wprime = _parse_vertices(opts["wprime"])
        statistic = six_cycle_statistic(host, wprime, mode)
        graph = build_six_cycle_graph(d, wprime, mode, [host])
    else:
        raise ValueError(f"unknown switching kind {kind!r}")
    report = verify_double_count(graph)
    if statistic is not None:
        report["statistic"] = statistic
    row = {k: report[k] for k in ("kind", "edges", "left_sum", "right_sum", "passed")}
    return {"double_count": report, "rows": [row], "columns": list(row)}, report["passed"]


_AUDIT_PROPERTIES = ("degree-band", "fk-degrees", "neighborhood-sums",
                     "expansion-k", "expansion-fk", "local-density",
                     "connection", "uv-distribution")


def _cmd_audit(config):
    opts = config.options
    prop = opts["property"]
    params = _params_from(opts)
    rng = random.Random(derive_seed(config.seed, "audit"))
    k, f = sample_f(params, rng)
    delta = params.delta
    lam = opts.get("lam", 0.5)

    def given(*names):
        # the flags that were set; a checker keeps its own default for the rest
        return {name: opts[name] for name in names if name in opts}

    if prop == "degree-band":
        report = check_degree_band(f, params.d, delta, params.eta)
    elif prop == "fk-degrees":
        report = check_fk_degrees(f, k, delta, opts.get("band_constant", 1.0))
    elif prop == "neighborhood-sums":
        report = check_neighborhood_sums(f, k, delta, params.d,
                                         tol=opts.get("tol"))
    elif prop == "expansion-k":
        report = check_expansion_k(f, k, lam, params.d, delta,
                                   log_divisor=bool(opts.get("log_divisor")),
                                   rng=rng, **given("size_cap", "samples"))
    elif prop == "expansion-fk":
        report = check_expansion_fk(f, k, lam, delta, params.d, rng=rng,
                                    **given("size_cap", "samples"))
    elif prop == "local-density":
        report = check_local_density(difference(f, k), rng=rng,
                                     **given("size_cap", "samples"))
    elif prop == "connection":
        report = check_connection(f, k, lam, rng=rng, **given("size_floor", "samples"))
    elif prop == "uv-distribution":
        report = check_uv_distribution(k, params.d, rng=rng,
                                       **given("size_floor", "samples"))
    else:
        raise ValueError(f"unknown property {prop!r}")
    row = {"property": report.property_id, "n": params.n, "d": params.d,
           "m": params.m, "worst_margin": report.worst_margin,
           "passed": report.passed}
    return {"report": report.as_dict(), "rows": [row], "columns": list(row)}, True


def _cmd_kimvu(config):
    opts = config.options
    params = _params_from(opts)
    # F adds each non-edge of K with probability m / steps_upper
    if not params.steps_upper:
        raise ValueError("kimvu needs d < n-1: K_d(n) is complete, so F adds no edge")
    rng = random.Random(derive_seed(config.seed, "kimvu"))
    k_graph, _ = sample_f(params, rng)
    stat = path_polynomial_stats(k_graph, Fraction(params.m, params.steps_upper),
                                 opts["x"], opts["y"], opts.get("k", 2),
                                 z=_parse_vertices(opts.get("avoid", "")))
    results = {
        "e_y": str(stat.e_y),
        "e_prime": str(stat.e_prime),
        "e_max": str(stat.e_max),
        "by_order": {str(i): str(v) for i, v in stat.by_order.items()},
        "skeletons": stat.skeleton_count,
        "deviation_bound": stat.deviation_bound,
    }
    row = {"n": params.n, "d": params.d, "m": params.m,
           "e_y": float(stat.e_y), "e_prime": float(stat.e_prime),
           "deviation_bound": stat.deviation_bound}
    results.update({"rows": [row], "columns": list(row)})
    return results, True


def _cmd_schedule_mass(config):
    params = _params_from(config.options)
    mass = schedule_mass(params)
    # exact scaling in c0 is part of the contract; surface it in the report
    scaling_exact = mass.e_s == params.c0 * mass.base_sum
    row = {"n": params.n, "d": params.d, "eps": params.eps, "c0": params.c0,
           "mu": params.mu, "e_s": mass.e_s, "half_r": mass.r / 2,
           "passed": mass.passed}
    results = {"e_s": mass.e_s, "r": mass.r, "passed": mass.passed,
               "horizon": mass.horizon, "c0_scaling_exact": scaling_exact,
               "rows": [row], "columns": list(row)}
    return results, scaling_exact


def _cmd_fit(config):
    opts = config.options
    params = _params_from(opts)
    model = opts.get("model", "f")
    rng = random.Random(derive_seed(config.seed, "fit"))
    sampler = sample_f if model == "f" else sample_fminus
    stage = (params.steps_upper - params.m if model == "f" else
             params.steps_lower - params.m)
    # cells are isomorphism classes: at desk sizes most labeled graphs
    # would fall below the pooling threshold
    laws = closed_form_class_laws(params, "delete" if model == "f" else "add")
    if not 0 <= stage < len(laws):
        raise ValueError("stage out of range")
    samples = [canonical_labeling(sampler(params, rng)[1])[0]
               for _ in range(config.trials)]
    fit = chi_square_uniformity(samples, laws[stage])
    row = {"model": model, "n": params.n, "d": params.d, "m": params.m,
           "trials": config.trials, "statistic": fit.statistic,
           "dof": fit.dof, "p_value": fit.p_value}
    return {"chi_square": fit.as_dict(), "rows": [row], "columns": list(row)}, True


def _binomial_law(n_trials: int, p: float) -> dict:
    return {k: math.comb(n_trials, k) * p ** k * (1 - p) ** (n_trials - k)
            for k in range(n_trials + 1)}


def _cmd_couple(config, upper: bool):
    opts = config.options
    params = _params_from(opts)
    worker = _upper_trial if upper else _lower_trial
    payloads = [(opts, config.seed, t) for t in range(config.trials)]
    results = _map_trials(worker, payloads, config.jobs)
    contained = [r[1] for r in results]
    edge_counts = [r[2] for r in results]
    checks = [r[3] for r in results]
    rate = containment_rate(contained)
    p_edge = params.p_upper if upper else params.p_lower
    law = _binomial_law(params.npairs, p_edge)
    chi = chi_square_uniformity(edge_counts, law).as_dict()
    hist = {}
    for c in edge_counts:
        hist[c] = hist.get(c, 0) + 1
    row = {"n": params.n, "d": params.d, "eps": params.eps,
           "rate": rate.rate, "ci_lo": rate.lo, "ci_hi": rate.hi,
           "trials": config.trials}
    results_dict = {
        "params": {"n": params.n, "d": params.d, "eps": params.eps,
                   "eta": params.eta, "c0": params.c0, "mu": params.mu,
                   "tau_floor": params.tau_floor},
        "trials": config.trials,
        "containment_rate": {"successes": rate.successes, "rate": rate.rate,
                             "ci": [rate.lo, rate.hi]},
        "chi_square": chi,
        "marginal_check": None,
        "edge_count_hist": {str(k): v for k, v in sorted(hist.items())},
        "transcript_checks_passed": all(checks),
        "rows": [row],
        "columns": list(row),
    }
    return results_dict, all(checks)


def _cmd_verify_marginals(config):
    opts = config.options
    params = _params_from(opts)
    verdicts = {}
    for direction in ("delete", "add"):
        stages = zip(class_stage_laws(params, direction),
                     closed_form_class_laws(params, direction), strict=True)
        verdicts[direction] = ["exact" if kernel == closed else "fail"
                               for kernel, closed in stages]
    ok = all(v == "exact" for stage_verdicts in verdicts.values() for v in stage_verdicts)
    row = {"n": params.n, "d": params.d,
           "marginal_check": "exact" if ok else "fail"}
    results = {"params": {"n": params.n, "d": params.d}, "trials": None,
               "containment_rate": None, "chi_square": None,
               "marginal_check": "exact" if ok else "fail",
               "stages": verdicts, "rows": [row], "columns": list(row)}
    return results, ok


def _cmd_sweep(config):
    opts = config.options
    inner_command = opts["command"]
    param = opts["param"]
    values = [_MODEL_TYPES[param](v) for v in opts["values"].split(",")]
    rows = []
    sub_reports = []
    hard = True
    for value in values:
        sub_opts = dict(opts)
        sub_opts.pop("command"), sub_opts.pop("param"), sub_opts.pop("values")
        sub_opts[param] = value
        sub_config = ExperimentConfig(inner_command, sub_opts, config.seed,
                                      config.trials, config.jobs)
        handler = _HANDLERS[inner_command]
        results, sub_hard = handler(sub_config)
        hard = hard and sub_hard
        sub_reports.append({param: value, "results": results})
        for row in results.get("rows", []):
            row = dict(row)
            row[param] = value
            rows.append(row)
    columns = sorted({k for row in rows for k in row})
    return {"sweep": sub_reports, "rows": rows, "columns": columns}, hard


_HANDLERS = {
    "count": _cmd_count,
    "paths": _cmd_paths,
    "switchings": _cmd_switchings,
    "audit": _cmd_audit,
    "kimvu": _cmd_kimvu,
    "schedule-mass": _cmd_schedule_mass,
    "fit": _cmd_fit,
    "couple-upper": lambda c: _cmd_couple(c, upper=True),
    "couple-lower": lambda c: _cmd_couple(c, upper=False),
    "verify-marginals": _cmd_verify_marginals,
    "sweep": _cmd_sweep,
}


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute one configured experiment and return its self-describing report."""
    handler = _HANDLERS.get(config.command)
    if handler is None:
        raise ValueError(f"unknown command {config.command!r}")
    before = (DEFAULT_CACHE.hits, DEFAULT_CACHE.misses, len(DEFAULT_CACHE))
    started = time.time()
    results, hard_pass = handler(config)
    wall = time.time() - started
    after = (DEFAULT_CACHE.hits, DEFAULT_CACHE.misses, len(DEFAULT_CACHE))
    # lookups made in worker processes (jobs > 1) use the workers' caches
    # and are not counted here
    oracle_cache = {name: a - b for name, a, b in
                    zip(("hits", "misses", "entries"), after, before)}
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "config": config.as_dict(),
        "results": results,
        "hard_pass": bool(hard_pass),
        "timing": {"wall_time_s": wall, "oracle_cache": oracle_cache},
    }
    return report


def emit_plot_data(report: dict) -> str:
    """Tidy CSV (one row per measurement) from a report's rows."""
    results = report.get("results", {})
    rows = results.get("rows", [])
    columns = results.get("columns") or sorted({k for r in rows for k in r})
    lines = [",".join(str(c) for c in columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


def _csv_cell(value):
    if value is None:
        return ""
    text = str(value)
    return f'"{text}"' if "," in text else text


# -- argument parsing ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: _read_config reads --config before this parser runs,
    # so an abbreviated --conf would parse and then be ignored
    parser = argparse.ArgumentParser(
        prog="sandwichlab", allow_abbrev=False,
        description="Desk-scale laboratory for sandwich couplings of random "
                    "regular graphs.")
    parser.add_argument("--config", help="JSON file with default options")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, model=True, formats=("json", "csv")):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=int, default=100)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--out")
        # plain prints the bare count of count and paths
        p.add_argument("--format", choices=formats, default=formats[0])
        if model:
            for name, kind in _MODEL_TYPES.items():
                p.add_argument("--" + name.replace("_", "-"), type=kind)

    p = sub.add_parser("count", help="exact regular-subgraph count of a host")
    common(p, model=False, formats=("plain", "json", "csv"))
    p.add_argument("--host", help="graph literal")
    p.add_argument("--d", type=int)

    p = sub.add_parser("paths", help="exact alternating-path count")
    common(p, model=False, formats=("plain", "json", "csv"))
    p.add_argument("--f", help="graph literal")
    p.add_argument("--k", help="graph literal")
    p.add_argument("--x", type=int)
    p.add_argument("--y", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--avoid", default="")
    p.add_argument("--mode", default="between-endpoints",
                   choices=("between-endpoints", "from-vertex",
                            "weighted-endpoint-sum"))
    p.add_argument("--start-in-k", dest="start_in_k", action="store_true")

    p = sub.add_parser("switchings", help="auxiliary switching graph statistics")
    common(p, model=False)
    p.add_argument("--host")
    p.add_argument("--d", type=int)
    p.add_argument("--kind",
                   choices=("le", "lef", "six-two", "six-one", "ten"))
    p.add_argument("--e")
    p.add_argument("--f-edge", dest="f_edge")
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--wprime", default="")

    p = sub.add_parser("audit", help="pseudorandom property check on a sampled pair")
    common(p)
    p.add_argument("--property", choices=_AUDIT_PROPERTIES)
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--band-constant", dest="band_constant", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--size-cap", dest="size_cap", type=float)
    p.add_argument("--size-floor", dest="size_floor", type=int)
    p.add_argument("--log-divisor", dest="log_divisor", action="store_true")
    p.add_argument("--samples", type=int)

    p = sub.add_parser("kimvu", help="path polynomial expectation profile")
    common(p)
    p.add_argument("--x", type=int)
    p.add_argument("--y", type=int)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--avoid", default="")

    p = sub.add_parser("schedule-mass", help="threshold-failure mass check")
    common(p)

    p = sub.add_parser("fit", help="sampler goodness of fit against the exact law")
    common(p)
    p.add_argument("--model", choices=("f", "fminus"), default="f")

    for name in ("couple-upper", "couple-lower"):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} containment trials")
        common(p)

    p = sub.add_parser("verify-marginals", help="exact stage-law verification")
    common(p)

    p = sub.add_parser("sweep", help="repeat a subcommand over parameter values")
    common(p)
    p.add_argument("--command", choices=tuple(c for c in _HANDLERS if c != "sweep"))
    p.add_argument("--param", choices=tuple(_MODEL_TYPES))
    p.add_argument("--values")
    return parser


# the parsed values that ExperimentConfig holds as fields, not as options
_RUN_FIELDS = ("seed", "trials", "jobs", "out", "format")


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    values = dict(vars(args))
    command = values.pop("subcommand")
    del values["config"]
    run = {k: values.pop(k) for k in _RUN_FIELDS}
    options = {k: v for k, v in values.items() if v is not None}
    return ExperimentConfig(command, options, **run)


def _read_config(argv: list) -> tuple:
    """(the JSON options a --config file holds, argv without --config)."""
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False,
                                  exit_on_error=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    if known.config is None:
        return {}, rest
    with open(known.config) as handle:
        values = json.load(handle)
    if not isinstance(values, dict):
        raise ValueError(f"config file {known.config} does not hold a JSON object")
    return values, rest


def _with_file_flags(parser, command: str, argv: list, file_values: dict) -> list:
    """argv with a --config file's options put in as flags right after the
    subcommand, so argparse parses them exactly as typed flags.

    A switch set to true is the bare flag; a switch set to false, a null and
    an option the command line sets are left out.  A non-string value is
    written as its JSON text.
    """
    actions = next(a.choices for a in parser._actions
                   if isinstance(a.choices, dict))[command]._option_string_actions
    by_dest = {a.dest: a for a in actions.values() if a.dest != "help"}
    unknown = sorted(file_values.keys() - by_dest.keys())
    if unknown:
        raise ValueError(f"config key {unknown[0]!r} is not an option of {command}")
    typed = {actions[name].dest for name in (t.split("=", 1)[0] for t in argv)
             if name in actions}
    flags = []
    for dest, value in sorted(file_values.items()):
        action = by_dest[dest]
        switch = action.nargs == 0
        if dest in typed or value is None or (switch and value is False):
            continue
        flag = action.option_strings[0]
        if switch and value is True:
            flags.append(flag)
        else:
            flags.append(f"{flag}={value if isinstance(value, str) else json.dumps(value)}")
    at = argv.index(command) + 1
    return argv[:at] + flags + argv[at:]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        file_values, argv = _read_config(argv)
    except (argparse.ArgumentError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if file_values:
            args = parser.parse_args(
                _with_file_flags(parser, args.subcommand, argv, file_values))
        config = config_from_args(args)
        report = run_experiment(config)
    except SystemExit as exc:
        # argparse has printed why it refused a file value
        return exc.code
    except KeyError as exc:
        print(f"error: missing required option: {exc.args[0]}", file=sys.stderr)
        return 2
    except (ValueError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.format == "csv":
        payload = emit_plot_data(report)
    elif config.format == "plain":
        payload = str(report["results"]["count"]) + "\n"
    else:
        payload = json.dumps(report, indent=2, default=str) + "\n"
    if config.out:
        with open(config.out, "w") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)
    return 0 if report["hard_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
