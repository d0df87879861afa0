"""One workload run in a fresh single-threaded interpreter (started by run.py).

    python3 perfbench/child.py WORKLOAD SEED SECONDS TRACE [PASSES]
    python3 perfbench/child.py probe

sandwichlab is imported first, with the speed sampler running (speed.py),
so the set-up time is the CPU time up to the end of that import,
scaled to the reference speed.  `probe` stops there and prints it.  The
child then runs passes of the workload until the next pass would end after
SECONDS (or exactly PASSES passes), each from an empty oracle cache.  Pass
time is the CPU time inside the workload's public calls, scaled to the
reference speed measured during the pass.  With TRACE=1 every pass runs
twice on the same inputs, untraced and then traced, so the traced pass's
per-layer split comes with its overhead; the sampler runs in both, so the
overhead compares scaled times.  The last line of standard output
is one JSON object with the measurements and every operation's checks and
digests.
"""

import sys
import time

import speed

SAMPLER = speed.Sampler()
SAMPLER.start()

import sandwichlab  # noqa: E402,F401  (first import: set-up ends here)

SETUP_S = (time.thread_time() - SAMPLER.spent) * SAMPLER.scale()
SAMPLER.stop()

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from sandwichlab import audit, cli, graphs, oracle, switching  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SL = SimpleNamespace(audit=audit, cli=cli, graphs=graphs, switching=switching)
OUT_DIR = Path(__file__).resolve().parent / "out"


def run_pass(workload, inputs, index, sampler=None):
    """Run one pass; returns (operation records, CPU seconds inside public calls).

    With a sampler, the CPU time its reference calls took inside the public
    calls is left out.
    """
    ops = []
    busy = 0.0

    def call(label, fn, *args, check=None, digest=None, **kwargs):
        nonlocal busy
        key = f"{index}/{label}"
        spent = sampler.spent if sampler else 0.0
        t0 = time.thread_time()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a raising call is one failed operation
            result, error = None, exc
        else:
            error = None
        busy += time.thread_time() - t0 - ((sampler.spent - spent) if sampler else 0.0)
        if error is not None:
            ops.append({"key": key, "ok": False, "error": repr(error)[:300], "digests": {}})
            return None
        try:
            ok = check is None or bool(check(result))
            digests = {key: digest(result)} if digest else {}
        except Exception as exc:  # malformed output is a failed operation too
            ops.append({"key": key, "ok": False, "error": repr(exc)[:300], "digests": {}})
            return None
        ops.append({"key": key, "ok": ok, "digests": digests})
        return result

    if sampler:
        sampler.start()
    try:
        workload.run(SL, call, inputs)
    finally:
        if sampler:
            sampler.stop()
    return ops, busy


def cold_cache(index):
    cache = oracle.DEFAULT_CACHE
    if index:
        cache.clear()
    if len(cache) or cache.hits or cache.misses:
        raise SystemExit(f"oracle.DEFAULT_CACHE is not empty before pass {index}")


def main(argv):
    if argv == ["probe"]:
        print(json.dumps({"setup_s": SETUP_S}))
        return
    name, seed, seconds, trace = argv[:4]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    fixed_passes = int(argv[4]) if len(argv) > 4 else None
    workload = workloads.WORKLOADS[name]
    shared = workload.setup(SL)
    modules = spans.package_modules()
    short_names = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    recorder = spans.Recorder() if trace else None
    counters = layers.Counters(oracle.DEFAULT_CACHE) if trace else None

    ops, pass_s, cpu_s, traced_s = [], [], [], []
    began = time.perf_counter()
    index = 0
    while True:
        inputs = workload.prepare(SL, shared, seed, index)
        round_began = time.perf_counter()
        spans.assert_untraced(modules)
        cold_cache(index)
        pass_ops, busy = run_pass(workload, inputs, index, SAMPLER)
        ops += pass_ops
        cpu_s.append(busy)
        pass_s.append(busy * SAMPLER.scale())
        if trace:
            oracle.DEFAULT_CACHE.clear()
            trials_before = counters.trials
            patch = spans.install(recorder, layers.targets(short_names, counters), modules)
            try:
                pass_ops, busy = run_pass(workload, inputs, index, SAMPLER)
            finally:
                patch.restore()
            transcripts = counters.end_pass()
            if counters.trials > trials_before and pass_ops:
                run_op = pass_ops[-1]
                run_op["digests"][run_op["key"] + "/transcripts"] = transcripts
            ops += pass_ops
            traced_s.append(busy * SAMPLER.scale())
        index += 1
        now = time.perf_counter()
        if fixed_passes is not None:
            if index >= fixed_passes:
                break
        elif now - began + (now - round_began) > seconds:
            break
    spans.assert_untraced(modules)

    result = {
        "setup_s": SETUP_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trials_per_pass": workload.trials_per_pass,
        "pass_s": pass_s,
        "pass_cpu_s": cpu_s,
        "ops": ops,
    }
    if trace:
        metrics = layers.metrics(spans.summarize(recorder), counters, len(traced_s),
                                 sum(traced_s), sum(pass_s))
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        OUT_DIR.mkdir(exist_ok=True)
        recorder.dump(OUT_DIR / f"{name}.spans.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
