"""Self-test of the benchmark at tiny size.

    python3 -m pytest -q perfbench

Each workload runs once untraced and twice traced on one seed, with one
batch and one set-up.  The test checks that every metric in BENCHMARK.json
is printed with its unit, and that two traced runs on one seed repeat their
call counts and output digest exactly.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DECLARED = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
            1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
SEED = 3


def run_bench(cwd: Path, workload: str, trace: int):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(SEED),
                             "--seconds", "0.1", "--trace", str(trace),
                             "--size", "tiny"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.fixture(scope="module")
def runs():
    """workload -> [untraced, traced, traced] completed processes."""
    out = {}
    for w in WORKLOADS:
        out[w] = [run_bench(ROOT, w, 0), run_bench(ROOT, w, 1),
                  run_bench(ROOT, w, 1)]
        for proc in out[w]:
            assert proc.returncode == 0, proc.stderr
    return out


def result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(proc) -> str:
    return re.search(r"digest sha256:([0-9a-f]{64})", proc.stdout).group(1)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_prints_every_metric_with_its_unit(runs, workload, trace):
    proc = runs[workload][trace]
    res = result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
    declared = DECLARED[trace]
    assert {n: m["unit"] for n, m in res["metrics"].items()} == declared
    for name, unit in declared.items():
        assert re.search(rf"^  {re.escape(name)} +\S+ {re.escape(unit)}$",
                         proc.stdout, re.M), name
    if trace == 0:
        assert all(m["value"] != 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_counts_and_digest(runs, workload):
    _, first, second = runs[workload]
    a, b = result(first)["metrics"], result(second)["metrics"]
    counts = [n for n in a if n.endswith(".calls") or n.endswith("_calls")
              or n in ("nafield.ratfunc_new", "constructions.refusals",
                       "kripke.domain_rejections")]
    assert counts
    assert {n: a[n]["value"] for n in counts} == {n: b[n]["value"] for n in counts}
    assert digest(first) == digest(second)
    assert "(untraced pass: same)" in first.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_only_the_arithmetic_label_fails(runs, workload):
    # two-sides-expressibility raises until arithmetic imports again
    for proc in runs[workload]:
        line = re.search(r"by label: (\{.*\})", proc.stdout).group(1)
        assert set(json.loads(line)) <= {"two-sides-expressibility"}
        if workload == "kripke-forcing":
            assert result(proc)["failed"] == 0


def test_fails_without_the_kernel(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
