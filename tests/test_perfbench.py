import json
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


def test_traced_largeosc_run_is_correct():
    # one untraced and one traced largeosc_quartic pass: the artifacts
    # match the references and the entry span holds at least a third of
    # the traced wall time
    script = os.path.join(ROOT, "perfbench", "run.py")
    proc = subprocess.run([sys.executable, script, "--workload",
                           "largeosc_quartic", "--seed", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert metrics["max_dev"]["value"] == 0
    assert metrics["entry_share"]["value"] >= 1.0 / 3.0
