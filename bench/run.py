"""Concolic-run benchmark.

    python3 bench/run.py --workload nc-linf-dense --seed 1 --seconds 20 --trace 0

Builds one synthetic scenario for the workload (see ``scenarios.py``) and calls
``concolic_dnn.engine.run`` on it in a closed loop: one client, the next call
starts when the previous one returned, no other threads; BLAS is pinned to one
thread. Every call's outputs are checked (``checks.py``) and its ``report.json``
is hashed. With ``--trace 0`` the calls are untraced and the end-to-end metrics
are printed; with ``--trace 1`` untraced and traced calls alternate and the
per-layer metrics of the traced calls are printed (``spans.py``).

Every metric is printed as a line with its unit and sample count; the last line
of standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The program is imported from ``src/`` of the
checkout holding this directory; without it the benchmark exits with code 2.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7
MIN_RUNS = 2  # timed calls per invocation, after the warm-up call
SELF_SUM_TOL = 0.05  # per-module self times must sum to the traced wall time within 5%
# The end-to-end metrics that BENCHMARK.json gates.
E2E_METRICS = ("run_probes", "tests_per_kprobe", "coverage", "setup_s", "peak_rss_mb")
PROBE_LOOPS = 20_000  # one repeat: about 2 ms of plain Python on a 2-vCPU x86 VM
PROBE_REPEATS = 10

# Imports the package and builds the scenario in a fresh interpreter; prints seconds.
SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import scenarios
scenarios.WORKLOADS[sys.argv[3]](int(sys.argv[4]))
print(time.perf_counter() - start)
"""


class BenchError(Exception):
    """The benchmark cannot run here; reported with exit code 2."""


@dataclass
class Call:
    wall_s: float
    probe_s: float
    error: str = ""
    problems: list = field(default_factory=list)
    report_sha256: str = ""
    synthesized: int = 0
    coverage: float = 0.0
    adv_found: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.error or self.problems)


def import_program():
    """Import ``concolic_dnn`` from this checkout's ``src/`` and nowhere else."""
    package = SRC / "concolic_dnn"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no package at {package}: run from a full checkout")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import concolic_dnn

    if Path(concolic_dnn.__file__).resolve().parent != package:
        raise BenchError(f"imported {concolic_dnn.__file__}, expected the package in {package}")


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Import-plus-scenario time of fresh interpreters, one sample per probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def host_probe() -> float:
    """Median seconds of a fixed plain-Python loop: how fast the host runs now.

    The loop uses nothing from the package, so a change to the program cannot
    move it; a slower or faster host moves it and the program alike.
    """
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed_call(engine, checks, scenario) -> Call:
    probe_s = host_probe()
    start = time.perf_counter()
    try:
        result = engine.run(scenario.net, scenario.refs, scenario.seeds, scenario.cfg)
    except Exception as exc:  # a failed call is counted, and the loop goes on
        print(f"run() raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return Call(time.perf_counter() - start, probe_s, error=type(exc).__name__)
    wall_s = time.perf_counter() - start
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as out:
        engine.save_run(result, scenario.cfg, out)
        digest = hashlib.sha256(Path(out, "report.json").read_bytes()).hexdigest()
    return Call(
        wall_s,
        probe_s,
        problems=checks.check_run(scenario, result),
        report_sha256=digest,
        synthesized=len(result.suite) - len(scenario.seeds),
        coverage=result.report.coverage,
        adv_found=len(result.report.adversarial),
    )


def tail_percentile(values):
    """(p, value) of the highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return None


def show(name, value, unit, n, note=""):
    print(f"  {name:<26} {value:>14.6g} {unit:<6} n={n}{note}")


def end_to_end(calls, setup, peak_rss_mb):
    """(value, unit, samples, note) per metric; a failed call counts its wall
    time and yields no tests, coverage or adversarial records.

    ``run_probes`` is a call's wall time divided by the host probe timed just
    before it, and ``tests_per_kprobe`` the tests it admitted per 1000 probes:
    the shared host changes speed by up to 2x for minutes at a time, which
    moves ``run_s`` and ``tests_per_s`` from run to run, and the probe moves
    with it (see "Noise" in README.md).
    """
    walls = [c.wall_s for c in calls]
    tail = tail_percentile(walls)
    note = f"  min={min(walls):.6g} max={max(walls):.6g}"
    note += f" p{tail[0]:g}={tail[1]:.6g}" if tail else " (no tail percentile below 11 samples)"

    def per_call(value):
        return statistics.median(0.0 if c.failed else value(c) for c in calls)

    n = len(calls)
    return {
        "run_s": (statistics.median(walls), "s", n, note),
        "tests_per_s": (per_call(lambda c: c.synthesized / c.wall_s), "1/s", n, ""),
        "probe_ms": (statistics.median(c.probe_s for c in calls) * 1e3, "ms", n, ""),
        "run_probes": (statistics.median(c.wall_s / c.probe_s for c in calls), "probe", n, ""),
        "tests_per_kprobe": (per_call(lambda c: 1e3 * c.synthesized * c.probe_s / c.wall_s),
                             "1/kprobe", n, ""),
        "coverage": (per_call(lambda c: c.coverage), "ratio", n, ""),
        "adv_found": (per_call(lambda c: c.adv_found), "count", n, ""),
        "fail_frac": (sum(c.failed for c in calls) / n, "ratio", n, ""),
        "setup_s": (statistics.median(setup), "s", len(setup), ""),
        "peak_rss_mb": (peak_rss_mb, "MB", 1, ""),
    }


def report_problems(calls) -> list[str]:
    problems = [p for c in calls for p in c.problems]
    hashes = {c.report_sha256 for c in calls if not c.error}
    if len(hashes) > 1:
        problems.append(f"report.json differs across repeats of one seed: {sorted(hashes)}")
    return problems


def closed_loop(seconds, step, min_steps):
    """Repeat ``step`` at least ``min_steps`` times, then while the next step,
    taking the median step time, would end within ``seconds``."""
    results, durations = [], []
    start = time.perf_counter()
    while len(results) < min_steps or (
        time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        step_start = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - step_start)
    return results


def measure_end_to_end(engine, checks, scenario, seconds, setup):
    calls = closed_loop(seconds, lambda: timed_call(engine, checks, scenario), MIN_RUNS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = end_to_end(calls, setup, peak_rss_mb)
    for name, (value, unit, n, note) in metrics.items():
        show(name, value, unit, n, note)
    return calls, [], {name: metrics[name][:2] for name in E2E_METRICS}


def measure_layers(engine, checks, spans, scenario, seconds, rng, dump_path):
    """Alternate untraced and traced calls; per-layer metrics of the traced ones.
    One pair already compares the traced report with the untraced one."""
    traced: list[Call] = []
    per_run: list[dict] = []
    first = None  # the first traced run's spans give the phase split and the dump

    def pair():
        nonlocal first
        plain = timed_call(engine, checks, scenario)
        tracer = spans.Tracer(run_id=len(traced))
        with tracer.installed():
            call = timed_call(engine, checks, scenario)
        traced.append(call)
        if not call.error:
            # Self times sum to the root span's duration by construction; the
            # sum against the wall time measured around run() checks that no
            # span was lost.
            sum_err = abs(sum(tracer.module_self_s().values()) - call.wall_s) / call.wall_s
            per_run.append({**tracer.layer_metrics(), "trace.self_sum_err": sum_err})
            first = first or tracer
        return plain

    plain = closed_loop(seconds, pair, 1)
    problems = []
    values = {}
    for name, unit in spans.LAYER_METRICS:
        samples = [m[name] for m in per_run if name in m]
        if not samples:
            continue
        if name == "trace.self_sum_err":
            values[name] = max(samples)
            continue
        if unit != "s" and any(s != samples[0] for s in samples):
            problems.append(f"{name} differs across traced runs: {samples}")
        values[name] = statistics.median(samples) if unit == "s" else samples[0]
    if values.get("trace.self_sum_err", 0.0) > SELF_SUM_TOL:
        problems.append(f"module self times miss the traced wall time by "
                        f"{values['trace.self_sum_err']:.2%} (limit {SELF_SUM_TOL:.0%})")
    values["trace.overhead_s"] = (statistics.median(c.wall_s for c in traced)
                                  - statistics.median(c.wall_s for c in plain))
    values.update(spans.network_layer_us(scenario.net, rng))
    print(f"  traced runs: {len(traced)}; untraced runs: {len(plain)}")
    for name, unit in spans.LAYER_METRICS:
        show(name, values.get(name, 0.0), unit, len(per_run))
    if first is not None:
        split = first.module_self_s()
        total = sum(split.values())
        print("  self time by module (first traced run): " + ", ".join(
            f"{m} {s / total:.1%}" for m, s in sorted(split.items(), key=lambda kv: -kv[1])))
        first.dump(dump_path)
    return plain + traced, problems, {name: (values.get(name, 0.0), unit)
                                      for name, unit in spans.LAYER_METRICS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Before numpy is first imported; the setup probes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        import_program()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import checks
    import numpy as np
    import scenarios
    import spans
    from concolic_dnn import engine

    if args.workload not in scenarios.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(scenarios.WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    scenario = scenarios.WORKLOADS[args.workload](args.seed)
    print(f"workload {args.workload}  seed {args.seed}  closed loop, one client, "
          f"{args.seconds:g} s, trace {args.trace}")
    # One untimed call first keeps first-call costs out of the figures; its
    # outputs are checked and its report hashed like every other call's.
    warmup = timed_call(engine, checks, scenario)
    if args.trace:
        calls, problems, out = measure_layers(
            engine, checks, spans, scenario, args.seconds, np.random.default_rng(args.seed),
            OUT_DIR / f"trace-{args.workload}.jsonl")
    else:
        setup = setup_seconds(args.workload, args.seed)
        calls, problems, out = measure_end_to_end(engine, checks, scenario, args.seconds, setup)
    calls = [warmup, *calls]
    problems = report_problems(calls) + problems
    hashes = sorted({c.report_sha256 for c in calls if c.report_sha256})
    print(f"  report.json sha256: {', '.join(hashes) or 'none'}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(calls),
        "failed": sum(c.failed for c in calls),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
