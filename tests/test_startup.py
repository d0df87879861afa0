"""What a fresh interpreter pays to start: `import sandwichlab` leaves scipy,
numpy and multiprocessing unloaded until a command computes a p-value or an
exact interval, and `python -m sandwichlab` runs the CLI."""

import json
import os
import subprocess
import sys

import sandwichlab

HEAVY = ("scipy", "numpy", "multiprocessing")

PROBE = """
import json, sys
import sandwichlab
from sandwichlab import ExperimentConfig, run_experiment

def loaded():
    return [m for m in %r if m in sys.modules]

seen = {"import": loaded()}
run_experiment(ExperimentConfig("verify-marginals", {"n": 5, "d": 2}))
seen["verify-marginals"] = loaded()
run_experiment(ExperimentConfig("couple-upper", {"n": 6, "d": 3}, trials=3))
seen["couple-upper"] = loaded()
print(json.dumps(seen))
""" % (HEAVY,)


def _python(*args):
    # the child imports the same sandwichlab these tests import
    src = os.path.dirname(os.path.dirname(sandwichlab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)


def test_import_and_exact_runs_leave_scipy_unloaded():
    done = _python("-c", PROBE)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["import"] == []
    assert seen["verify-marginals"] == []
    # the containment interval and the edge-count p-value load it
    assert "scipy" in seen["couple-upper"]


def test_python_m_runs_the_cli():
    done = _python("-m", "sandwichlab", "count",
                   "--host", "n=4;edges=1-2,2-3,3-4,1-4", "--d", "2")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1"
