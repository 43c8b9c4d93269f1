"""The benchmark's configs rerun through ``cli.run``: every CSV artifact
must match its stored reference in ``perfbench/reference/`` byte for byte,
so bit drift fails here before it reaches the benchmark, and no run may
report an ``ExtrapolationUsed`` warning.  A discounted sweep on windows,
which no benchmark config runs, is pinned by the hashes of its CSVs."""

import hashlib
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


# a two-seed discounted sweep on windows: a non-periodized checkerboard,
# which no benchmark config solves; sha256 of the CSVs it wrote when
# recorded, and the trend warnings of its three tilts
WINDOW_CFG = {
    "schema": "run/1", "task": "effective",
    "env": {"schema": "env/1", "kind": "checkerboard",
            "profile": "base_plus_v", "params": {"base": "abs"},
            "cell_length": 1.0, "value_range": [-1.0, 0.0]},
    "p_grid": [-1.0, 0.5, 1.5], "lambda_schedule": [0.04, 0.02, 0.01],
    "seeds": [0, 1], "solver": {"dx": 1 / 32}}
WINDOW_SHA256 = {
    "sweep.csv":
        "0875b7d81d488781e77d27e53e288a69c69517b0701d46a2a7197d7e2c3493b2",
    "curves.csv":
        "b0f7c8adb87bc325b2ad401211eb0c0565c629c962ae16614ee071be3fe5479f",
}


def test_window_sweep_bit_identical(tmp_path):
    assert cli.run(WINDOW_CFG, str(tmp_path)) == 0
    for name, digest in WINDOW_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() \
            == digest, name
    with open(tmp_path / "report.json") as fh:
        warned = json.load(fh)["warnings"]
    assert warned == [f"NoisyLimit: non-monotone discounted trend at p={p}"
                      for p in ("-1", "0.5", "1.5")]
