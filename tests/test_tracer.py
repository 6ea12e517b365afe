"""The benchmark tracer (``perfbench/tracer.py``) wraps package functions by
name, so a function it wraps that is renamed or removed fails here too, not
only in a traced benchmark pass."""

import os
import subprocess
import sys

import eqmirror

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_on_the_package():
    src = os.path.dirname(os.path.dirname(eqmirror.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "perfbench"), src]))
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Tracer())"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
