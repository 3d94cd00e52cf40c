"""Self-test of the benchmark harness (short runs, about two minutes).

    python -m pytest bench/test_bench.py
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(workload, seed, trace, cwd=ROOT, script=BENCH / "run.py", seconds=1):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_repeats_counters_and_failures(workload):
    runs = [result(bench(workload, 7, 1)) for _ in range(2)]
    (lines_a, out_a), (lines_b, out_b) = runs
    exact = list(run.COUNTERS) + ["expansion.route_dev_max"]
    assert ({k: out_a["metrics"][k] for k in exact}
            == {k: out_b["metrics"][k] for k in exact})
    assert [l for l in lines_a if l.startswith(("FAIL", "inputs:"))] == \
        [l for l in lines_b if l.startswith(("FAIL", "inputs:"))]
    assert "counters repeat exactly: True" in "\n".join(lines_a)


def test_attempted_and_failed_do_not_depend_on_run_length():
    short, long = (result(bench("validate-sweep", 4, 0, seconds=s))[1] for s in (1, 4))
    assert (short["attempted"], short["failed"]) == (long["attempted"], long["failed"])
    assert short["failed"] > 0


@pytest.mark.parametrize("build", [
    lambda seed: workloads.cli_stock(seed, run.CLI_COMMANDS, ROOT, {}),
    workloads.high_order,
    workloads.validate_sweep,
])
def test_other_seed_changes_inputs(build):
    assert build(1).digest == build(1).digest
    assert build(1).digest != build(2).digest


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_with_unit(workload, trace):
    lines, out = result(bench(workload, 3, trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    for name, unit in expected.items():
        assert NAME.match(name) and UNIT.match(unit)
        assert math.isfinite(out["metrics"][name]["value"])
        assert any(l.startswith(f"{name}: ") and l.endswith(f" {unit}") for l in lines)


def test_validate_sweep_reports_underflow_as_failure():
    failures = [op_id for op_id, _, reasons, _ in
                run.run_pass(workloads.validate_sweep(5), NullTracer()) if reasons]
    assert "gamma N=800" in failures
    assert "center(eps=0.2) N=800" in failures


def test_fails_without_library_sources():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("validate-sweep", 1, 0, cwd=bare, script=bare / "bench" / "run.py")
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
