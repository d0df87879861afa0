"""sandwichlab benchmark: end-to-end metrics, or the traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                      # every workload, both modes

Run from anywhere inside a checkout that has `src/sandwichlab`.  Each run
times `import sandwichlab` in fresh interpreters (set-up), then runs the
workload in one more fresh, single-threaded interpreter (perfbench/child.py)
and checks every operation: its hard checks always, and at the default seed
its output digests against perfbench/pinned.json.  Human-readable lines come
first; the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("upper-n8d3", "lower-n8d3", "exact-laws-n6d3", "switch-audit")
DEFAULT_SEED = 0
SETUP_PROBES = 2
RUN_LIMIT_S = 175


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def child(args, env, timeout) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "child.py"), *map(str, args)],
                         env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=timeout, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def setup_probe(env, timeout) -> float:
    """Scaled CPU seconds of a fresh interpreter up to `import sandwichlab` done."""
    return child(["probe"], env, timeout)["setup_s"]


def run_child(workload, seed, seconds, trace, env, timeout, passes=None) -> dict:
    args = [workload, seed, seconds, trace] + ([passes] if passes is not None else [])
    return child(args, env, timeout)


def judge(ops, pinned) -> tuple:
    """(failed operation keys, number of digests compared) for one run."""
    failed, compared = [], 0
    for op in ops:
        bad = not op["ok"]
        for key, value in op["digests"].items():
            if key in pinned:
                compared += 1
                bad = bad or pinned[key] != value
        if bad:
            failed.append(op["key"])
    return failed, compared


def run_workload(workload, seed, seconds, trace) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env()

    def remaining():
        return max(10.0, deadline - time.monotonic())

    setup = [setup_probe(env, remaining()) for _ in range(SETUP_PROBES)]
    result = run_child(workload, seed, seconds, trace, env, remaining())
    setup.append(result["setup_s"])

    pinned = {}
    if seed == DEFAULT_SEED:
        pinned = json.loads((HERE / "pinned.json").read_text()).get(workload, {})
    failed, compared = judge(result["ops"], pinned)
    errors = {op["key"]: op["error"] for op in result["ops"] if "error" in op}
    attempted = len(result["ops"])
    passes = result["pass_s"]
    # Pass costs vary with the seeded inputs, which a mean averages out, and a
    # few passes are hit by bursts of load, which trimming drops.
    pass_s = speed.trimmed_mean(passes)
    if trace:
        metrics = result["layers"]
    else:
        metrics = {
            "trials_per_s": {"value": result["trials_per_pass"] / pass_s, "unit": "1/s"},
            "wall_s": {"value": pass_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(f"# {workload} seed={seed} trace={int(trace)}: {len(passes)} passes, "
          f"CPU {sum(result['pass_cpu_s']):.3f} s scaled to {sum(passes):.3f} s, "
          f"{attempted} operations, {len(failed)} failed "
          f"(failed_ratio {len(failed) / attempted:.4f}), "
          f"{compared} digests compared with pinned.json")
    for key in failed:
        print(f"#   FAILED {key} {errors.get(key, '')}".rstrip())
    for name, m in metrics.items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": not failed, "attempted": attempted, "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sandwichlab" / "__init__.py").is_file():
        print(f"error: no sandwichlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        summary = run_workload(args.workload, args.seed, args.seconds, args.trace)
    else:
        runs = {(w, t): run_workload(w, args.seed, args.seconds, t)
                for w in WORKLOADS for t in (0, 1)}
        summary = {
            "correct": all(r["correct"] for r in runs.values()),
            "attempted": sum(r["attempted"] for r in runs.values()),
            "failed": sum(r["failed"] for r in runs.values()),
            "metrics": {f"{w}/{name}": m for (w, _), r in runs.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
