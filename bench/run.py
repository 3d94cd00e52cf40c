"""Benchmark of the saddlepoint library: one command, three workloads.

    python3 bench/run.py --workload {cli-stock,high-order,validate-sweep}
                         --seed N --seconds T --trace {0,1}

Run it from the root of a checkout; it imports the library from
``src/`` there and exits with status 2 when that is missing.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced passes over the same
operations and reports per-layer metrics from the spans; the spans are
written to ``.bench_out/`` when the run ends.  Both modes check every
operation's output.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``attempted`` is the number of distinct operations of the seeded
workload and ``failed`` the number of them that failed their check (no
oracle convergence, a zero or non-finite value, too few digits of
agreement, a coefficient off its exact table); failing operations are
listed by input.  Both depend on the seed alone, not on how many passes
fit in ``--seconds``: every pass repeats the same operations, and each
repeat must give the outcome of the first pass.  ``correct`` is false
when an operation could not be checked at all (it raised, or a CLI run
crashed or printed no JSON) or when a repeat gave another outcome.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import NullTracer, Tracer, self_times

WORKLOADS = ("cli-stock", "high-order", "validate-sweep")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: fresh-interpreter set-ups per run; setup_s is their median
SETUP_SAMPLES = 3
#: ``python -X importtime`` runs per traced run; medians are reported
IMPORTTIME_SAMPLES = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p75": "ms",
    "ops_ok_frac": "frac",
    "peak_rss_mb": "MB",
}

#: the README commands: (metric key, argv of ``saddlepoint.cli``)
CLI_COMMANDS = (
    ("example_gamma", ["example", "gamma"]),
    ("example_kepler", ["example", "kepler"]),
    ("example_center", ["example", "center"]),
    ("example_parabolic", ["example", "parabolic"]),
    ("example_sylvester", ["example", "sylvester", "--n", "2000"]),
    ("expand_center", ["expand", "demos/problems/center.txt"]),
    ("expand_gamma", ["expand", "demos/problems/gamma.txt"]),
    ("selftest", ["selftest"]),
)
CLI_KEYS = tuple(key for key, _ in CLI_COMMANDS)

BUSY_SPANS = ("cli.main", "problemfile.parse", "saddle.normal_form",
              "expansion.alpha_bell", "expansion.alpha_direct",
              "expansion.assemble", "expansion.evaluate",
              "classic.exact_tables", "waves.wave_coefficients",
              "quadrature.integrate", "quadrature.power_factor")

COUNTERS = ("problemfile.parse.calls", "expansion.alphas",
            "expansion.exact_mismatch", "quadrature.calls",
            "quadrature.evaluations", "quadrature.integrand_calls",
            "quadrature.not_converged")

PER_LAYER = {
    "import.total_s": "s",
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "import.saddlepoint_s": "s",
    **{f"{name}.busy_s": "s" for name in BUSY_SPANS},
    **{f"cli.main.{key}.busy_s": "s" for key in CLI_KEYS},
    **{name: "count" for name in COUNTERS},
    "expansion.route_dev_max": "ratio",
    "quadrature.us_per_eval": "us",
    "trace.overhead_frac": "frac",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def build_workload(name: str, seed: int, in_process: bool):
    import workloads
    if name == "cli-stock":
        if in_process:
            return workloads.cli_in_process(seed, CLI_COMMANDS, ROOT)
        return workloads.cli_stock(seed, CLI_COMMANDS, ROOT, child_env())
    if name == "high-order":
        return workloads.high_order(seed)
    return workloads.validate_sweep(seed)


def run_pass(workload, tracer) -> list:
    """Run every operation once: [(op id, seconds, reasons, checkable)]."""
    out = []
    for op in workload.ops:
        checkable = True
        t0 = time.perf_counter()
        tracer.begin_op(op.id)
        try:
            reasons = op.run(tracer)
        except Exception as exc:  # noqa: BLE001 - every failure is reported
            reasons = [f"raised {type(exc).__name__}: {exc}"]
            checkable = False
        finally:
            tracer.end_op()
        out.append((op.id, time.perf_counter() - t0, reasons, checkable))
    return out


def set_up(name: str, seed: int, in_process: bool):
    """Import the library and, for in-process workloads, run one
    warm-up pass that fills the library's caches.  Returns the seconds
    taken and the workload."""
    t0 = time.perf_counter()
    workload = build_workload(name, seed, in_process)
    if in_process:
        run_pass(workload, NullTracer())
    return time.perf_counter() - t0, workload


def probe_setup(name: str, seed: int) -> float:
    """set_up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def parse_importtime(stderr: str) -> dict:
    """Split a ``-X importtime`` log of ``import saddlepoint`` into the
    whole import, the outermost numpy and scipy imports (numpy imported
    from inside scipy is charged to numpy) and the rest."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, int(cumulative) * 1e-6, name.strip()))
    totals = {"total": 0.0, "numpy": 0.0, "scipy": 0.0, "numpy_in_scipy": 0.0}
    # the log lists children before their parent; walking it backwards
    # meets every module after its ancestors
    stack = []
    for depth, cumulative, module in reversed(rows):
        del stack[depth:]
        top = module.split(".")[0]
        if module == "saddlepoint" and depth == 0:
            totals["total"] = cumulative
        if top in ("numpy", "scipy") and top not in stack:
            totals[top] += cumulative
            if top == "numpy" and "scipy" in stack:
                totals["numpy_in_scipy"] += cumulative
        stack.append(top)
    scipy_own = totals["scipy"] - totals["numpy_in_scipy"]
    return {
        "import.total_s": totals["total"],
        "import.numpy_s": totals["numpy"],
        "import.scipy_s": scipy_own,
        "import.saddlepoint_s": totals["total"] - totals["numpy"] - scipy_own,
    }


def import_metrics() -> dict:
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import saddlepoint"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()[-500:]}")
        samples.append(parse_importtime(proc.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_passes(workload, seconds: float, make_tracers) -> list:
    """Rounds of whole passes until the next round would overrun
    ``seconds``; a round runs one pass per tracer that ``make_tracers()``
    gives.  Returns [(tracer, seconds, results)], one entry per pass."""
    passes = []
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for tracer in make_tracers():
            t0 = time.perf_counter()
            results = run_pass(workload, tracer)
            passes.append((tracer, time.perf_counter() - t0, results))
        round_s = time.perf_counter() - t_round
        if time.perf_counter() - start + round_s > seconds:
            return passes


def outcomes(passes) -> tuple:
    """Check outcome per distinct operation, from the first pass.

    Returns (attempted, failed, correct, lines): ``correct`` is false
    when an operation could not be checked or a later pass gave another
    outcome for it; ``lines`` lists the failing operations."""
    first = [(op_id, reasons, checkable)
             for op_id, _, reasons, checkable in passes[0][2]]
    repeat = all([(op_id, reasons, checkable)
                  for op_id, _, reasons, checkable in results] == first
                 for _, _, results in passes[1:])
    failed = [f"FAIL {op_id}: {'; '.join(reasons)}"
              for op_id, reasons, _ in first if reasons]
    correct = repeat and all(checkable for _, _, checkable in first)
    lines = [f"outcomes repeat in every pass: {repeat}"] + failed
    return len(first), len(failed), correct, lines


def end_to_end(args) -> tuple:
    in_process = args.workload != "cli-stock"
    probes = SETUP_SAMPLES - 1 if in_process else SETUP_SAMPLES
    samples = [probe_setup(args.workload, args.seed) for _ in range(probes)]
    if in_process:
        own, workload = set_up(args.workload, args.seed, True)
        samples.append(own)
    else:
        workload = build_workload(args.workload, args.seed, False)
    tracer = NullTracer()
    passes = timed_passes(workload, args.seconds, lambda: [tracer])
    # Each operation's latency is its best over the run's passes: on a
    # shared host the same pass can take 10-20 % longer from one second
    # to the next, and contention only ever adds time.
    latencies = [min(times) for times in
                 zip(*([seconds for _, seconds, _, _ in results]
                       for _, _, results in passes))]
    attempted, failed, correct, check_lines = outcomes(passes)
    usage = resource.getrusage(resource.RUSAGE_SELF if in_process
                               else resource.RUSAGE_CHILDREN)
    metrics = {
        "setup_s": statistics.median(samples),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_ms.p50": 1e3 * quantile(latencies, 50),
        "op_ms.p75": 1e3 * quantile(latencies, 75),
        "ops_ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    info = [
        f"inputs: {workload.digest} ({len(workload.ops)} operations per pass)",
        f"passes: {len(passes)}  latency samples: {len(latencies)} operations, "
        f"each its best of {len(passes)} passes",
        f"ops_failed_frac: {failed / attempted!r}",
        f"setup samples (s): {', '.join(f'{s:.4f}' for s in samples)}",
    ] + check_lines
    return metrics, END_TO_END, (attempted, failed, correct), info


def traced(args) -> tuple:
    _, workload = set_up(args.workload, args.seed, True)
    imports = import_metrics()
    null = NullTracer()
    passes = timed_passes(workload, args.seconds, lambda: [null, Tracer()])
    plain = [s for t, s, _ in passes if not t.enabled]
    traced_passes = [(t, s, r) for t, s, r in passes if t.enabled]
    tracers = [t for t, _, _ in traced_passes]
    n = len(tracers)
    busy = {name: 0.0 for name in BUSY_SPANS}
    per_command = {key: 0.0 for key in CLI_KEYS}
    for tracer in tracers:
        for name, seconds in self_times(tracer.spans).items():
            busy[name] = busy.get(name, 0.0) + seconds / n
        for (name, op_id), seconds in self_times(tracer.spans, by_op=True).items():
            if name == "cli.main":
                per_command[op_id] += seconds / n

    counters, gauges = tracers[0].counters, tracers[0].gauges
    exact = all(t.counters == counters and t.gauges == gauges for t in tracers)
    metrics = {**imports}
    metrics.update({f"{name}.busy_s": busy[name] for name in BUSY_SPANS})
    metrics.update({f"cli.main.{key}.busy_s": v for key, v in per_command.items()})
    metrics.update({name: counters.get(name, 0) for name in COUNTERS})
    metrics["expansion.route_dev_max"] = gauges.get("expansion.route_dev_max", 0.0)
    evaluations = counters.get("quadrature.evaluations", 0)
    quad_busy = busy["quadrature.integrate"] + busy["quadrature.power_factor"]
    metrics["quadrature.us_per_eval"] = 1e6 * quad_busy / evaluations if evaluations else 0.0
    traced_s = statistics.median(s for _, s, _ in traced_passes)
    metrics["trace.overhead_frac"] = traced_s / statistics.median(plain) - 1.0

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    Tracer.dump_all(tracers, spans_path)

    mean_traced_s = statistics.fmean(s for _, s, _ in traced_passes)
    modules = {}
    for name, seconds in busy.items():
        module = name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + seconds
    attempted, failed, correct, check_lines = outcomes(passes)
    info = [
        f"inputs: {workload.digest} ({len(workload.ops)} operations per pass)",
        f"passes: {len(plain)} untraced, {n} traced; counters repeat exactly: {exact}",
        f"spans: {sum(len(t.spans) for t in tracers)} written to "
        f"{spans_path.relative_to(ROOT)}",
        "self time per traced pass by module: " + ", ".join(
            f"{m} {s:.4f} s ({s / mean_traced_s:.1%})"
            for m, s in sorted(modules.items(), key=lambda kv: -kv[1])),
    ] + check_lines
    return metrics, PER_LAYER, (attempted, failed, correct and exact), info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "saddlepoint" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        seconds, _ = set_up(args.workload, args.seed, args.workload != "cli-stock")
        print(repr(seconds))
        return 0

    mode = traced if args.trace else end_to_end
    metrics, units, (attempted, failed, correct), info = mode(args)

    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds:g}  "
          f"trace: {args.trace}")
    for line in info:
        print(line)
    for name, unit in units.items():
        print(f"{name}: {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
