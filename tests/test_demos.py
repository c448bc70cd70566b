"""Every demo script runs to completion in a fresh interpreter and prints its table."""

import os
import subprocess
import sys

import pytest

import nesslab as nl

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(DEMOS) if n.endswith(".py")))
def test_demo_runs(name, tmp_path):
    src = os.path.dirname(os.path.dirname(nl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
