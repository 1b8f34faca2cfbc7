"""Run one benchmark workload against the slicepoly source tree of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run builds its corpus from the seed, times its set-up, then runs
operations one after another (a closed loop with one client) until S seconds
have passed and the workload's schedule cycle is complete, checking every
result.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a readable report.

With ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json.
With ``--trace 1`` the run spends S/2 seconds untraced and S/2 traced, with
wrappers around every layer (see tracing.py), and reports the per-layer
metrics; spans go to ``.perfbench/`` in the checkout.

Set-up time is the median of three set-ups, each in a fresh interpreter: two
child processes started with ``--setup-only`` and the measuring process itself.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_CHILDREN = 2


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def load_program():
    """Import slicepoly from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "slicepoly" / "__init__.py").is_file():
        raise ImportError(f"no slicepoly sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import slicepoly

    if not Path(slicepoly.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"slicepoly was imported from {slicepoly.__file__}, not {SRC}")
    import workloads

    return workloads


class Phase:
    """Latencies and failures of one timed loop."""

    def __init__(self):
        self.latencies: list[float] = []
        self.ok: list[bool] = []
        self.failures: list[tuple[int, str, str]] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def measure(wl, seconds: float, tracer=None) -> Phase:
    """Run operations in corpus order for ``seconds``, then to the end of the schedule cycle.

    Ending on a whole cycle gives every run the same mix of operation shapes,
    so where the deadline falls does not move the medians; at least one
    cycle runs.
    """
    phase = Phase()
    op_span = tracer.name_id("op") if tracer is not None else None
    deadline = perf_counter() + seconds
    i = 0
    while i == 0 or i % wl.cycle or perf_counter() < deadline:
        op = wl.ops[i % len(wl.ops)]
        if tracer is not None:
            tracer.op = i
            tracer.enter(op_span)
        start = perf_counter()
        try:
            result = wl.execute(op, tracer)
            error = None
        except Exception as exc:  # a raising operation is a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        end = perf_counter()
        if tracer is not None:
            tracer.leave(end)
        if error is None:
            try:
                error = wl.check(op, result)
            except Exception as exc:  # an output the check cannot read is a failure
                error = f"unreadable result: {type(exc).__name__}: {exc}"
        phase.latencies.append(end - start)
        phase.ok.append(error is None)
        if error is not None:
            phase.failures.append((i, op.label, error))
        i += 1
    return phase


def tail(latencies: list[float], pct: float) -> tuple[float, float, int]:
    """Nearest-rank percentile ``pct``, stepping down until >= 10 samples lie beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in (pct, 95.0, 90.0, 75.0, 70.0, 50.0):
        rank = max(1, math.ceil(p / 100.0 * n))
        if p <= pct and (n - rank >= 10 or p == 50.0):
            return ordered[rank - 1], p, n - rank
    raise ValueError(f"tail percentile {pct} is below 50")


def end_to_end(wl, phase: Phase, setup_samples: list[float]) -> tuple[dict, list[str]]:
    # latency percentiles describe the operations that succeeded, if any did
    good = [t for t, ok in zip(phase.latencies, phase.ok) if ok] or phase.latencies
    tail_s, tail_p, beyond = tail(good, wl.tail_pct)
    n_ok = sum(phase.ok)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (n_ok / sum(phase.latencies), "1/s"),
        "op_p50_ms": (statistics.median(good) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
    }
    failed_ratio = len(phase.failures) / phase.attempted
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setup_samples),
        "ops_per_s": f"{n_ok} ops in {sum(phase.latencies):.3f} s of operations",
        "op_p50_ms": f"{len(good)} samples",
        "op_tail_ms": f"p{tail_p:g}, {beyond} samples beyond it, {len(good)} samples",
    }
    lines = [f"{name:<14} {value:>14.6g} {unit:<5} {notes.get(name, '')}"
             for name, (value, unit) in metrics.items()]
    lines.insert(4, f"{'failed_ratio':<14} {failed_ratio:>14.6g} {'ratio':<5} "
                    f"{len(phase.failures)} of {phase.attempted}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def traced_run(wl, seconds: float, plain: Phase):
    """The traced half of a ``--trace 1`` run: per-layer metrics and the span file."""
    import tracing
    from slicepoly import qpoly

    tracer = tracing.Tracer()
    tracing.install(tracer)
    cache_before = qpoly.expand_q_power.cache_info()
    traced = measure(wl, seconds, tracer)
    cache_after = qpoly.expand_q_power.cache_info()
    tracer.count("qpoly.expand_q_power.hits", cache_after.hits - cache_before.hits)
    tracer.count("qpoly.expand_q_power.misses", cache_after.misses - cache_before.misses)
    common = min(plain.attempted, traced.attempted)
    overhead = sum(traced.latencies[:common]) / sum(plain.latencies[:common])
    values = tracing.per_layer(tracer, traced.attempted, sum(traced.latencies), overhead)
    tracer.write(ROOT / ".perfbench" / f"spans-{wl.name}-{wl.seed}.bin")
    lines = [f"{name:<40} {value:>14.6g} {unit}" for name, (value, unit) in values.items()]
    lines.append(f"traced ops {traced.attempted}, untraced ops {plain.attempted}, "
                 f"spans {len(tracer.span_name)} kept, {tracer.dropped} dropped")
    return traced, {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, lines


def run_setup_children(name: str, seed: int) -> list[float]:
    from workloads import run_child

    samples = []
    for _ in range(SETUP_CHILDREN):
        argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                "--setup-only"]
        rc, out, err, _ = run_child(argv, ROOT, 60.0)
        if rc != 0:
            raise RuntimeError(f"set-up child exited {rc}: {err.strip()[-400:]}")
        samples.append(json.loads(out.decode().splitlines()[-1])["setup_s"])
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it; used for the set-up samples")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        return fail("--seconds must be nonnegative")

    start = perf_counter()
    try:
        workloads = load_program()
    except ImportError as exc:
        return fail(f"cannot load the program: {exc}")
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(workloads.WORKLOADS)}")
    import_s = perf_counter() - start
    if args.setup_only:
        wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
        wl.prepare()
        print(json.dumps({"setup_s": perf_counter() - start}))
        return 0

    setup_samples = [] if args.trace else run_setup_children(args.workload, args.seed)
    setup_start = perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    wl.prepare()
    setup_samples.append(import_s + perf_counter() - setup_start)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  corpus sha256 {wl.digest()}")

    if not args.trace:
        phase = measure(wl, args.seconds)
        metrics, lines = end_to_end(wl, phase, setup_samples)
        phases = [phase]
    else:
        plain = measure(wl, args.seconds / 2)
        traced, metrics, lines = traced_run(wl, args.seconds / 2, plain)
        phases = [plain, traced]
    for line in lines:
        print(line)
    failures = [f for p in phases for f in p.failures]
    for i, label, error in failures[:20]:
        print(f"FAILED op {i} ({label}): {error}")
    attempted = sum(p.attempted for p in phases)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
