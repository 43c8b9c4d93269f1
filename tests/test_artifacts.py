"""The benchmark's configs rerun through ``cli.run``: every CSV artifact
must match its stored reference in ``perfbench/reference/`` byte for byte,
so bit drift fails here before it reaches the benchmark, and no run may
report an ``ExtrapolationUsed`` warning."""

import json
import os

import pytest

from hjhomog import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.mark.parametrize("workload,master,artifacts", [
    ("glue_steep", None, ("curves.csv",)),
    ("converge_quartic_small", None, ("convergence.csv",)),
    ("effective_checkerboard", 0, ("curves.csv", "sweep.csv")),
    ("largeosc_quartic", None, ("curves.csv", "levelsets.csv")),
    ("effective_checkerboard", 1, ("curves.csv", "sweep.csv")),
])
def test_benchmark_artifacts_bit_identical(tmp_path, workload, master,
                                           artifacts):
    with open(os.path.join(PERFBENCH, "configs", f"{workload}.json")) as fh:
        cfg = json.load(fh)
    # master None runs the config's own seeds: the "fixed" reference
    assert cli.run(cfg, str(tmp_path), seed_override=master) == 0
    tag = "fixed" if master is None else f"master-{master}"
    for name in artifacts:
        with open(os.path.join(PERFBENCH, "reference", workload, tag, name),
                  "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name
    # no run uses an effective-curve value read past that curve's support
    with open(tmp_path / "report.json") as fh:
        warned = json.load(fh)["warnings"]
    assert not [w for w in warned if w.startswith("ExtrapolationUsed")]
