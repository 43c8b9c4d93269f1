import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    # the benchmark wraps package functions and methods by name: a rename
    # that breaks its instrumentation fails here, not only in the benchmark
    script = os.path.join(ROOT, "perfbench", "selftest.py")
    proc = subprocess.run([sys.executable, script], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
