"""The demos compile and run to the end.

Every demo is byte-compiled, and every demo runs in a fresh interpreter
with ``src`` on its path and must exit 0 (each takes 0.3 to 3.5 s).
Demo 04, the large-oscillation walk-through, must also end convex.
"""

import os
import py_compile
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")
NAMES = sorted(n for n in os.listdir(DEMOS) if n.endswith(".py"))


def test_six_demos():
    assert len(NAMES) == 6


@pytest.mark.parametrize("name", NAMES)
def test_demo_compiles(name, tmp_path):
    py_compile.compile(os.path.join(DEMOS, name),
                       cfile=str(tmp_path / (name + "c")), doraise=True)


def _run(name):
    """The demo's standard output; it must exit 0."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, name)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize("name", [n for n in NAMES if n[:3] != "04_"])
def test_demo_runs(name):
    assert _run(name).strip()


def test_demo_04_runs():
    assert "level-set convex: True" in _run("04_large_oscillation.py")
