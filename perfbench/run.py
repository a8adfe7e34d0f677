#!/usr/bin/env python3
"""The mereoml benchmark: one seeded workload per process, metrics as JSON.

    python3 perfbench/run.py --workload credit-sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35

Run from the root of a source checkout; the package is imported from its
``src/``.  An op calls ``mereoml.cli.main(argv)`` in-process with stdout
captured.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of ops run with spans around the package's public calls
(see ``spans.py``).  ``--workload all`` runs every workload untraced and
traced, each in its own process, and prints their metrics.  For one workload the last line of stdout is one
JSON object; the lines before it give the same metrics for people.  See
README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("credit-sweep", "bulk-logic", "agents")
SETUP_REPS = 5
TAIL_BEYOND = 10

#: per-layer metrics of the traced run, with units; absent layers read 0
PER_LAYER = {
    "dataset.load_s": "s",
    "dataset.discretize_s": "s",
    "dataset.subset_s": "s",
    "dataset.cells": "count",
    "inclusion.matrix_s": "s",
    "inclusion.matrix_pairs": "count",
    "inclusion.matrix_bytes": "bytes",
    "inclusion.matrix_peak_mb": "MB",
    "granulation.folds_s": "s",
    "granulation.granules_s": "s",
    "granulation.granules_built": "count",
    "granulation.granule_members": "count",
    "granulation.covering_s": "s",
    "granulation.covering_size": "count",
    "granulation.covering_ratio": "ratio",
    "granulation.mirror_s": "s",
    "granulation.mirror_rows": "count",
    "granulation.classify_s": "s",
    "granulation.test_rows": "count",
    "logic.parse_s": "s",
    "logic.extension_s": "s",
    "logic.truth_s": "s",
    "logic.valid_s": "s",
    "logic.meaning_evals": "count",
    "net.load_s": "s",
    "net.universe_rows": "count",
    "net.propagate_s": "s",
    "net.targets_scanned": "count",
    "geometry.load_s": "s",
    "geometry.potential_s": "s",
    "geometry.navigate_s": "s",
    "geometry.steps": "count",
    "geometry.cells": "count",
    "geometry.write_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage_pct": "%",
}


def _cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the CPUs this process may use; return that count."""
    cpus = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(cpus, int(os.environ.get(var) or cpus)))
    return cpus


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def op_tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest nearest-rank
    percentile that still has TAIL_BEYOND samples above it.

    It is never taken below the median: with 2 * TAIL_BEYOND samples or
    fewer no percentile above the median qualifies, and the median is
    reported as p50.
    """
    xs = sorted(samples)
    rank = len(xs) - TAIL_BEYOND
    if rank <= len(xs) / 2:
        median = statistics.median(xs)
        return median, 50.0, sum(x > median for x in xs)
    return xs[rank - 1], 100.0 * rank / len(xs), TAIL_BEYOND


class Runner:
    """Runs ops of one workload in the current directory and checks them."""

    def __init__(self, workload, seed: int, size, canonical: bool):
        from mereoml import cli
        import spans
        import workloads

        self.cli, self.spans, self.workloads = cli, spans, workloads
        self.workload, self.seed, self.size = workload, seed, size
        self.canonical = canonical
        self.job = None
        self.inputs: str | None = None
        self.reference: bytes | None = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def setup(self) -> float:
        """Write the inputs and make one untimed warm-up op; return seconds."""
        t0 = perf_counter()
        self.job = self.workload.setup(self.seed, self.size, ROOT / "data")
        outs, _, error = self.op()
        elapsed = perf_counter() - t0
        inputs = self.job.input_digest()
        if self.inputs not in (None, inputs):
            error = error or "same seed gave different input files"
        self.inputs = inputs
        self.verify(outs, error)
        return elapsed

    def op(self, tracer=None) -> tuple[list[str] | None, float, str | None]:
        """One op, every CLI invocation of the job: (stdouts, seconds, error).

        With a tracer, each invocation runs inside ``spans.instrumented``.
        """
        gc.collect()
        outs = []
        t0 = perf_counter()
        for argv in self.job.argvs:
            out, err = io.StringIO(), io.StringIO()
            traced = self.spans.instrumented(tracer) if tracer else contextlib.nullcontext()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), traced:
                    code = self.cli.main(argv)
            except Exception as e:  # an op that raises is counted, not fatal
                return None, perf_counter() - t0, f"{argv[0]} raised {type(e).__name__}: {e}"
            if code != 0:
                return None, perf_counter() - t0, f"{argv[0]} exit {code}: {err.getvalue().strip()}"
            outs.append(out.getvalue())
        return outs, perf_counter() - t0, None

    def verify(self, outs: list[str] | None, error: str | None = None) -> None:
        """Count one op, as failed if it erred or any check does not hold."""
        self.attempted += 1
        problems = [error] if error else self._check(outs)
        if problems:
            self.failed += 1
            self.problems = (self.problems + problems)[:5]

    def _check(self, outs: list[str]) -> list[str]:
        data = b"".join([o.encode() for o in outs] + [Path(p).read_bytes() for p in self.job.writes])
        try:
            problems = self.workload.check(self.job, outs)
        except (ValueError, KeyError, TypeError) as e:
            problems = [f"output does not parse: {type(e).__name__}: {e}"]
        if self.reference is None:
            self.reference = data
        elif data != self.reference:
            problems.append("two runs on the same input gave different bytes")
        if self.canonical:
            recorded = self.workloads.DIGESTS[self.workload.name]
            if self.inputs != recorded["inputs"]:
                problems.append("canonical inputs differ from the recorded digest")
            if self.workloads.digest([data]) != recorded["outputs"]:
                problems.append("canonical output differs from the recorded digest")
        return problems


def measure(runner: Runner, seconds: float, ops_path: Path) -> dict:
    setups = [runner.setup() for _ in range(SETUP_REPS)]
    times = []
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        outs, dt, error = runner.op()
        runner.verify(outs, error)
        times.append(dt)
    elapsed = perf_counter() - start
    ops_path.write_text(json.dumps(times), encoding="utf-8")
    tail, pct, beyond = op_tail(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "metrics": {
            "setup_s": (statistics.median(setups), "s"),
            "op_tail_s": (tail, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        },
        "printed": {
            "op_p50_s": (statistics.median(times), "s"),
            "ops_per_s": (len(times) / elapsed, "1/s"),
        },
        "notes": {
            "setup_s": f"median of {SETUP_REPS} set-ups (inputs + warm-up op)",
            "op_tail_s": f"p{pct:.1f} of {len(times)} ops, {beyond} beyond",
            "op_p50_s": f"median of {len(times)} ops; printed, not in BENCHMARK.json",
            "ops_per_s": f"{len(times)} ops in {elapsed:.2f} s; printed, not in BENCHMARK.json",
        },
    }


def measure_traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced ops of the CLI; per-layer medians."""
    runner.setup()
    plain, traced, per_op, tracers = [], [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        outs, dt, error = runner.op()
        runner.verify(outs, error)
        plain.append(dt)
        tracer = runner.spans.Tracer()
        outs, dt, error = runner.op(tracer)
        runner.verify(outs, error)
        traced.append(dt)
        tracers.append(tracer)
        per_op.append(layer_values(tracer, dt))
    values = {
        name: statistics.median(op.get(name, 0.0) for op in per_op) for name in PER_LAYER
    }
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    shares: dict[str, float] = {}
    for op in per_op:
        for name, v in op.items():
            if name.endswith("_s") and not name.startswith("trace."):
                layer = name.split(".")[0]
                shares[layer] = shares.get(layer, 0.0) + v / len(per_op)
    total = statistics.fmean(traced)
    spans_path.write_text(
        json.dumps([t.spans for t in tracers], separators=(",", ":")), encoding="utf-8"
    )
    return {
        "metrics": {name: (values[name], unit) for name, unit in PER_LAYER.items()},
        "notes": {
            "trace.overhead_s": f"traced p50 over untraced p50 of {len(plain)} ops each",
            "trace.coverage_pct": f"median of {len(traced)} traced ops",
            "shares": ", ".join(
                f"{layer} {100 * v / total:.1f}%" for layer, v in sorted(shares.items())
            ),
        },
    }


def layer_values(tracer, wall: float) -> dict[str, float]:
    """Per-layer values of one traced op: span self times, counts, peaks.

    ``trace.coverage_pct`` is the share of the op's wall time, taken outside
    the spans, that the layer spans account for; the root span's self time
    ``cli.self_s`` is not part of it.
    """
    values: dict[str, float] = {}
    for name, self_time in tracer.self_times().items():
        values["cli.self_s" if name == "cli.op" else name + "_s"] = self_time
    values.update(tracer.counts)
    values.update(tracer.peaks)
    built = values.get("granulation.granules_built", 0)
    values["granulation.covering_ratio"] = (
        values.get("granulation.covering_size", 0) / built if built else 0.0
    )
    layers = sum(v for k, v in values.items() if k.endswith("_s") and k != "cli.self_s")
    values["trace.coverage_pct"] = 100 * layers / wall
    return values


def _print_result(result: dict, runner: Runner, header: str) -> None:
    print(header)
    for name, (value, unit) in {**result["metrics"], **result.get("printed", {})}.items():
        note = result["notes"].get(name, "")
        print(f"{name:28s} {value:14.6g} {unit:6s} {note}".rstrip())
    if "shares" in result["notes"]:
        print(f"layer share of traced op: {result['notes']['shares']}")
    rate = runner.failed / runner.attempted if runner.attempted else 0.0
    print(f"{'error_rate':28s} {rate:14.6g} {'ratio':6s} {runner.failed} of {runner.attempted} ops")
    for problem in runner.problems:
        print(f"problem: {problem}")
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()
                },
            }
        )
    )


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a process of its own."""
    failed = False
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]) if proc.returncode == 0 else proc.stdout + proc.stderr)
            if proc.returncode != 0 or not json.loads(lines[-1])["correct"]:
                failed = True
            print()
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mereoml" / "cli.py").is_file() or not (ROOT / "data" / "cross.frm").is_file():
        print(f"perfbench: no mereoml source checkout at {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    cpus = _cap_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import workloads

    size = workloads.SMOKE if args.smoke else workloads.FULL
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    runner = Runner(
        workloads.WORKLOADS[args.workload],
        args.seed,
        size,
        canonical=args.seed == workloads.CANONICAL_SEED and not args.smoke,
    )
    if args.trace:
        result = measure_traced(runner, args.seconds, work / "spans.json")
    else:
        result = measure(runner, args.seconds, work / "ops.json")
    header = (
        f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
        f" size={'smoke' if args.smoke else 'full'} | python {platform.python_version()}"
        f" numpy {numpy.__version__} nproc {cpus} cpu {_cpu_model()}"
    )
    _print_result(result, runner, header)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
