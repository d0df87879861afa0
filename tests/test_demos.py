"""Smoke tests: the demos that exercise the coupling, switching, audit and
schedule APIs run to completion."""

import os
import subprocess
import sys

import pytest

import sandwichlab

DEMOS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "demos")


@pytest.mark.parametrize("demo", ["01_exact_stage_laws.py",
                                  "02_coupled_sandwich_run.py",
                                  "03_switchings_tour.py",
                                  "04_property_audits.py",
                                  "05_schedule_and_polynomials.py"])
def test_demo_runs(demo):
    # the demo imports the same sandwichlab these tests import
    src = os.path.dirname(os.path.dirname(sandwichlab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, os.path.join(DEMOS, demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
