"""Regenerate perfbench/pinned.json, the output digests at the default seed.

    python3 perfbench/pin.py

Runs every workload at the default seed for a fixed number of traced passes
(each pass also runs untraced), so report, double-count, audit and
transcript digests are all recorded; refuses to write if any operation fails
its hard checks.  Pin only from a commit whose outputs are known good: a
later run whose digests differ counts those operations as failed.
"""

import json
import sys

import run

# more passes than a run of the default length makes on this kind of machine
PASSES = {"upper-n8d3": 24, "lower-n8d3": 24, "exact-laws-n6d3": 5, "switch-audit": 2}


def main() -> int:
    env = run.child_env()
    pinned = {}
    for workload in run.WORKLOADS:
        result = run.run_child(workload, run.DEFAULT_SEED, 0, 1, env, timeout=900,
                               passes=PASSES[workload])
        failed, _ = run.judge(result["ops"], {})
        if failed:
            print(f"{workload}: {len(failed)} operations failed, e.g. {failed[:3]}",
                  file=sys.stderr)
            return 1
        digests = {}
        for op in result["ops"]:
            for key, value in op["digests"].items():
                if digests.setdefault(key, value) != value:
                    print(f"{workload}: {key} differs between its untraced and traced pass",
                          file=sys.stderr)
                    return 1
        pinned[workload] = dict(sorted(digests.items()))
        print(f"{workload}: {len(digests)} digests over {PASSES[workload]} passes")
    (run.HERE / "pinned.json").write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
