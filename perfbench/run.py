"""Layered benchmark of the exact geometry kernel.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the kernel is imported from
``src/``.  Workloads (see README.md): audit-constructible, audit-nonarch,
kripke-forcing.

--trace 0 sets up five times (each a fresh kernel import plus warm-up
batches on another seed), then runs whole batches for --seconds of wall
time and reports the end-to-end metrics in reference time (a fixed loop
timed next to every op gauges the machine's speed; see workloads.py).
--trace 1 sets up the same way, runs the workload's digest batches twice
on the same seed, untraced and then traced, and reports the per-layer
metrics of the traced pass.  Either way the last line of standard output
is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WARM_SEED = 1_000_003
SETUP_REPS = 5

E2E_UNITS = {
    "throughput_ops_per_ref_s": "ops/ref-s",
    "latency_p50_ref_ms": "ref-ms",
    "latency_p95_ref_ms": "ref-ms",
    "verified_ops_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), ("_calls", "count"),
                         ("self_s", "s"), ("incl_s", "s"), (".us", "us"),
                         (".ms", "ms"), ("ratio", "ratio"),
                         ("max_degree", "degree"), ("max_depth", "depth")):
        if name.endswith(suffix):
            return unit
    return "count"


class KernelMissing(Exception):
    pass


def import_kernel() -> dict:
    """Import the six measured layers afresh from the checkout's src/."""
    if not (SRC / "geokernel" / "__init__.py").is_file():
        raise KernelMissing(f"no kernel sources under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "geokernel" or m.startswith("geokernel.")]:
        del sys.modules[name]
    kernel = {name: importlib.import_module(f"geokernel.{name}")
              for name in spans.LAYERS}
    for mod in kernel.values():
        if not Path(mod.__file__).resolve().is_relative_to(SRC):
            raise KernelMissing(f"{mod.__name__} imported from {mod.__file__}")
    return kernel


def set_up(spec: workloads.Spec, seed: int, reps: int):
    """`reps` set-ups, each a fresh kernel import plus the warm-up batches.
    Returns the last kernel, its workload and the median set-up time in
    reference seconds (CPU seconds over the reference loop's, as for ops)."""
    warm_seed = WARM_SEED if seed != WARM_SEED else WARM_SEED + 1
    times = []
    for _ in range(reps):
        gauged = Gauged()
        kernel = gauged(import_kernel)
        work = workloads.make(spec, kernel)
        for b in range(spec.warm_batches):
            gauged(work.batch, warm_seed, b)
        gauged(work.finish)
        times.append(gauged.ref_s)
    return kernel, work, statistics.median(times)


class Gauged:
    """Runs steps one after another and sums their reference seconds, each
    step's CPU time scaled by the reference loop timed on both its sides."""

    def __init__(self):
        self.ref_s = 0.0
        self.last = workloads.gauge()

    def __call__(self, step, *args):
        t0 = workloads.clock()
        out = step(*args)
        seconds = workloads.clock() - t0
        after = workloads.gauge()
        ref_s = (self.last + after) / 2
        self.ref_s += seconds / ref_s * workloads.REF_MS / 1e3
        self.last = after
        return out


class Tally:
    """Counts, op times and the output digest of one pass."""

    def __init__(self, workload: str):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.verified_timed = 0
        self.seconds: list[float] = []  # CPU time of each timed op
        self.latencies: list[float] = []  # the same in reference ms
        self.refs: list[float] = []  # reference loop ms around each
        self.labels: list[str] = []
        self.failed_labels: Counter[str] = Counter()
        self.digest = workloads.Digest(workload)

    def add(self, ops, in_digest: bool, timed: bool = True) -> None:
        for op in ops:
            self.attempted += 1
            self.failed += op.failed
            self.wrong += op.wrong
            if op.failed:
                self.failed_labels[op.label] += 1
            if timed:
                self.verified_timed += not op.failed
                self.seconds.append(op.seconds)
                self.latencies.append(op.ref_ms)
                self.refs.append(1e3 * op.ref_s)
                self.labels.append(op.label)
            if in_digest:
                self.digest.add(op.record)


def run_batches(work, spec, seed: int, batches: int | None = None,
                seconds: float = 0.0):
    """A pass over `batches` batches, or else over whole batches until
    `seconds` of wall time have passed (at least `spec.min_batches`).
    The first `spec.digest_batches` feed the digest.  Returns the tally,
    the pass's CPU time and its batch count."""
    tally = Tally(spec.name)
    deadline = time.monotonic() + seconds
    b = 0
    t0 = workloads.clock()
    while (b < batches if batches is not None else
           b < spec.min_batches or time.monotonic() < deadline):
        tally.add(work.batch(seed, b), in_digest=b < spec.digest_batches)
        b += 1
    elapsed = workloads.clock() - t0
    tally.add(work.finish(), in_digest=True, timed=False)
    return tally, elapsed, b


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(args, spec, reps: int) -> dict:
    _, work, setup_s = set_up(spec, args.seed, reps)
    tally, elapsed, batches = run_batches(work, spec, args.seed,
                                          seconds=args.seconds)
    lat = tally.latencies
    p95 = percentile(lat, 95)
    values = {
        "throughput_ops_per_ref_s": 1e3 * tally.verified_timed / sum(lat),
        "latency_p50_ref_ms": statistics.median(lat),
        "latency_p95_ref_ms": p95,
        "verified_ops_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"perfbench {spec.name} seed={args.seed} trace=0: {batches} batches, "
          f"{len(lat)} timed ops in {elapsed:.3f} CPU s with their reference "
          f"loops ({sum(x > p95 for x in lat)} above p95)")
    cpu = tally.seconds
    print(f"  in CPU time: {tally.verified_timed / sum(cpu)!r} ops/s, p50 "
          f"{1e3 * statistics.median(cpu)!r} ms, p95 "
          f"{1e3 * percentile(cpu, 95)!r} ms; the reference loop "
          f"took {statistics.median(tally.refs) / workloads.REF_MS!r} "
          f"times REF_MS at the median")
    print(f"  failed_ops_ratio {tally.failed / tally.attempted!r} "
          f"({tally.failed} of {tally.attempted}; by label: "
          f"{json.dumps(tally.failed_labels, sort_keys=True)})")
    print(f"  digest sha256:{tally.digest.hexdigest()} over "
          f"{tally.digest.count} ops (first {spec.digest_batches} batches)")
    return result(tally.wrong == 0, tally.attempted, tally.failed,
                  values, E2E_UNITS)


def per_layer(args, spec, reps: int) -> dict:
    kernel, work, _ = set_up(spec, args.seed, reps)
    plain, _, _ = run_batches(work, spec, args.seed, spec.digest_batches)
    tracer = spans.Tracer()
    tracer.install(kernel)
    try:
        traced, _, _ = run_batches(work, spec, args.seed, spec.digest_batches)
    finally:
        tracer.uninstall()
    plain_s, traced_s = sum(plain.seconds), sum(traced.seconds)
    values = tracer.metrics()
    label_s: dict[str, list[float]] = {}
    for label, seconds in zip(plain.labels, plain.seconds):
        label_s.setdefault(label, []).append(seconds)
    for label in workloads.LABELS:
        times = label_s.get(label)
        values[f"audit.label.{label}.ms"] = (
            1e3 * statistics.mean(times) if times else 0.0)
    values["trace.overhead_ratio"] = traced_s / plain_s
    dig_plain, dig_traced = plain.digest.hexdigest(), traced.digest.hexdigest()
    print(f"perfbench {spec.name} seed={args.seed} trace=1: "
          f"{spec.digest_batches} batches, {traced.attempted} ops, "
          f"untraced {plain_s:.3f} CPU s, traced {traced_s:.3f} CPU s")
    print(f"  digest sha256:{dig_traced} over {traced.digest.count} ops "
          f"(untraced pass: {'same' if dig_plain == dig_traced else dig_plain})")
    print(f"  failed ops by label: "
          f"{json.dumps(traced.failed_labels, sort_keys=True)}")
    out = ROOT / ".perfbench" / f"trace-{spec.name}-seed{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": spec.name, "seed": args.seed,
                               "metrics": values,
                               "functions": tracer.table()}, indent=1))
    print(f"  per-function totals written to {out.relative_to(ROOT)}")
    correct = plain.wrong == 0 and traced.wrong == 0 and dig_plain == dig_traced
    units = {name: layer_unit(name) for name in values}
    return result(correct, traced.attempted, traced.failed, values, units)


def result(correct: bool, attempted: int, failed: int, values: dict,
           units: dict) -> dict:
    for name, value in values.items():
        print(f"  {name:44s} {value!r} {units[name]}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: one batch and one set-up, for self-tests")
    args = parser.parse_args(argv)
    tiny = args.size == "tiny"
    spec = (workloads.TINY if tiny else workloads.SPECS)[args.workload]
    try:
        res = (per_layer if args.trace else end_to_end)(
            args, spec, 1 if tiny else SETUP_REPS)
    except KernelMissing as err:
        print(f"perfbench: cannot load the kernel: {err}", file=sys.stderr)
        return 2
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
