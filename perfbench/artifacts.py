"""Check a run's CSV artifacts against the stored seed-commit references.

A reference set lives in ``reference/<workload>/<tag>/`` where ``tag`` is
``master-<n>`` for a run at master seed ``n`` and ``fixed`` for a run of
the config's own seeds.  With a reference at hand every numeric cell is
compared (``max_dev`` is the largest absolute difference) and the bytes
are compared (``identical``).  At a master seed without a stored reference
the check falls back to: finite values and the row counts of any stored
reference, and ``max_dev`` is ``None`` (not measured).
"""

from __future__ import annotations

import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")


def reference_tag(master):
    return "fixed" if master is None else f"master-{master}"


def _read_rows(path):
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _compare_csv(path, ref_path):
    """(max_dev, problems) of one artifact against its reference."""
    header, rows = _read_rows(path)
    ref_header, ref_rows = _read_rows(ref_path)
    if header != ref_header:
        return math.inf, [f"header {header} != {ref_header}"]
    if len(rows) != len(ref_rows):
        return math.inf, [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    max_dev, problems = 0.0, []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        if len(row) != len(ref):
            problems.append(f"row {i}: {len(row)} cells, reference {len(ref)}")
            max_dev = math.inf
            continue
        for cell, ref_cell in zip(row, ref):
            a, b = _number(cell), _number(ref_cell)
            if a is None or b is None:
                if cell != ref_cell:
                    problems.append(f"row {i}: {cell!r} != {ref_cell!r}")
                    max_dev = math.inf
                continue
            if a == b or (math.isnan(a) and math.isnan(b)):
                continue
            dev = abs(a - b)
            max_dev = max(max_dev, dev if dev == dev else math.inf)
    return max_dev, problems


def _fallback_csv(path, like_path):
    header, rows = _read_rows(path)
    ref_header, ref_rows = _read_rows(like_path)
    problems = []
    if header != ref_header:
        problems.append(f"header {header} != {ref_header}")
    if len(rows) != len(ref_rows):
        problems.append(f"{len(rows)} rows, expected {len(ref_rows)}")
    for i, row in enumerate(rows):
        for cell in row:
            x = _number(cell)
            if x is not None and not math.isfinite(x):
                problems.append(f"row {i}: non-finite {cell!r}")
    return problems


def _any_reference(reference_dir, workload):
    root = os.path.join(reference_dir, workload)
    tags = sorted(os.listdir(root)) if os.path.isdir(root) else []
    return os.path.join(root, tags[0]) if tags else None


def check_outputs(out_dir, workload, artifacts, tag, tolerance,
                  reference_dir=REFERENCE_DIR):
    """Verdict on one run directory: a dict with ``ok``, ``referenced``,
    ``max_dev``, ``identical`` and ``problems``.  With ``tolerance`` 0 the
    artifacts must also be byte-identical to the reference."""
    problems = []
    try:
        with open(os.path.join(out_dir, "report.json")) as fh:
            status = json.load(fh).get("status")
    except (OSError, ValueError) as exc:
        status = f"unreadable report.json ({exc})"
    if status != "ok":
        problems.append(f"status {status!r}")
    ref_dir = os.path.join(reference_dir, workload, tag)
    referenced = os.path.isdir(ref_dir)
    like_dir = ref_dir if referenced \
        else _any_reference(reference_dir, workload)
    max_dev = 0.0 if referenced else None
    identical = referenced
    for name in artifacts:
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            problems.append(f"{name} missing")
            identical = False
            max_dev = math.inf
            continue
        if like_dir is None:
            problems.append(f"no reference of {workload} to check {name}")
            continue
        ref_path = os.path.join(like_dir, name)
        if not referenced:
            problems += [f"{name}: {p}" for p in _fallback_csv(path, ref_path)]
            continue
        dev, found = _compare_csv(path, ref_path)
        problems += [f"{name}: {p}" for p in found]
        max_dev = max(max_dev, dev)
        with open(path, "rb") as fa, open(ref_path, "rb") as fb:
            identical = identical and fa.read() == fb.read()
    if max_dev is not None and max_dev > tolerance:
        problems.append(f"max_dev {max_dev:.3g} > tolerance {tolerance:.3g}")
    elif referenced and not identical and tolerance == 0:
        problems.append("artifacts are not byte-identical to the reference")
    return {"ok": not problems, "referenced": referenced, "max_dev": max_dev,
            "identical": identical, "problems": problems}
