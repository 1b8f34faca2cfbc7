"""Self-tests of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads = run.load_program()
from slicepoly.quat import Quaternion  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, kind):
    proc = bench(ROOT, "--workload", "pointwise_oracle", "--seed", "7", "--seconds", "0.5",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[2] for line in report if len(line.split()) > 2}
    for name, unit in expected.items():
        assert printed.get(name) == unit, name
    if kind == "end_to_end":
        assert printed["failed_ratio"] == "ratio"


def corrupt(expected):
    if isinstance(expected, bool):
        return not expected
    if isinstance(expected, list):
        return [corrupt(expected[0]), *expected[1:]]
    if isinstance(expected, tuple):
        return (expected[0] + 1, *expected[1:])
    return expected + Quaternion(1e-3, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_corrupted_reference_counts_as_failed(name):
    wl = workloads.WORKLOADS[name](7, ROOT)
    wl.prepare()
    wl.ops = wl.ops[:1]
    assert run.measure(wl, 0).failures == []
    wl.ops[0].expected = corrupt(wl.ops[0].expected)
    phase = run.measure(wl, 0)
    assert phase.attempted == wl.cycle and len(phase.failures) == phase.attempted
    metrics, _ = run.end_to_end(wl, phase, [1.0])
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}


def test_corrupted_decompose_reference_counts_as_failed():
    wl = workloads.ExactVerify(7, ROOT)
    wl.prepare()
    op = wl.ops[wl.schedule.index("decompose")]
    assert wl.check(op, wl.execute(op, None)) is None
    f = [[list(c) for c in comp] for comp in op.spec["f"]]
    f[0][0][0] += 1
    op.expected = workloads.make_fn(f).trim()
    assert wl.check(op, wl.execute(op, None)) is not None


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_corpus_digest_depends_on_the_seed_alone(name):
    cls = workloads.WORKLOADS[name]
    first, again, other = (cls(seed, ROOT).digest() for seed in (7, 7, 8))
    assert first == again
    assert first != other


def test_fails_without_the_program_sources():
    stripped = ROOT / ".perfbench" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(HERE, stripped / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    try:
        proc = bench(stripped, "--workload", "exact_verify", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    finally:
        shutil.rmtree(stripped)
    assert proc.returncode != 0
    assert proc.stdout == ""
