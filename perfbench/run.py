"""The ttagg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With `--trace 0` it times whole solutions of the workload's problem with
no tracing and prints the end-to-end metrics: steps_per_s, setup_s and
peak_rss_mb.  With `--trace 1` it runs the same problem with spans around
every layer and prints the per-layer metrics, plus the tracing overhead
and the 1-worker/2-worker speedup measured untraced.  Either way the
outputs are checked, and the last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` counts timed solutions and `failed` those that raised or
failed a check; their ratio is failed_share.  Workloads, metrics and
the layer each metric belongs to are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads as wl
from workloads import WORKLOADS, config_from_dict, ttagg

# Set-up is measured in fresh processes, so each sample pays the cold costs.
SETUP_PROBES = 7
TRACE_SHARE = 0.5  # of --seconds; the untraced 1- and 2-worker runs share the rest

END_TO_END_UNITS = {"steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **tracing.UNITS,
    "parallel.speedup_2w": "ratio",
    "trace.overhead_pct": "%",
}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    rates: list = field(default_factory=list)  # steps per second, per solution

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed

    def steps_per_s(self) -> float:
        if not self.rates:
            raise RuntimeError("no solution finished")
        return statistics.median(self.rates)


def timed_solutions(solver, seconds: float, accept) -> Tally:
    """Solve repeatedly for `seconds`; `accept(output)` checks each result."""
    tally = Tally()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            output = solver.solve()
        except Exception:
            if not tally.failed:
                traceback.print_exc(file=sys.stderr)
            tally.failed += 1
            continue
        tally.rates.append(solver.steps / (time.perf_counter() - t0))
        if not accept(output):
            tally.failed += 1
    return tally


def setup_samples(workload, seed: int) -> list[float]:
    cmd = [
        sys.executable, str(wl.HERE / "setup_probe.py"),
        "--workload", workload.name, "--seed", str(seed),
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            cmd, cwd=wl.ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def build(workload, config_dict):
    """Configuration and runtime kernels; the CLI workload builds its own."""
    config = config_from_dict(config_dict)
    if workload.via_cli:
        return config, None
    return config, ttagg.config.build_kernel_set(config)


def check_outputs(workload, solver, config_dict, output) -> list[str]:
    _, checks = wl.outputs_and_checks(workload, solver, config_dict, output)
    for name, (value, tol) in checks.items():
        print(f"check {name}: {value:.3e} (tolerance {tol:.1e})")
    return wl.failing(checks)


def run_end_to_end(workload, seed, seconds, workdir):
    config_dict = workload.config_dict(seed)
    setup = setup_samples(workload, seed)
    config, kernels = build(workload, config_dict)
    solver = wl.make_solver(workload, config_dict, config, kernels, workload.workers, workdir)
    reference = solver.solve()  # warm-up; every timed solution must match it
    tally = timed_solutions(solver, seconds, lambda out: solver.same(out, reference))
    # read before the checks, which allocate buffers of their own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if check_outputs(workload, solver, config_dict, reference):
        tally.failed = tally.attempted
    metrics = {
        "steps_per_s": tally.steps_per_s(),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    return tally, metrics


def run_traced(workload, seed, seconds, workdir):
    config_dict = workload.config_dict(seed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        config, kernels = build(workload, config_dict)
        if kernels is None:
            kernels = ttagg.config.build_kernel_set(config)
        state = config.initial.state(config.n_classes, config.time.t0)
        ttagg.rhs.rhs_total(kernels, state, config.execution_plan())  # the cold first call
        solver = wl.make_solver(
            workload, config_dict, config, kernels, workload.workers, workdir
        )
        reference = solver.solve()
        traced = timed_solutions(
            solver, TRACE_SHARE * seconds, lambda out: solver.same(out, reference)
        )
        if not workload.via_cli:
            # one single-step `ttagg simulate` of the same problem, so the CLI
            # writers are measured at this N as well
            leg = dict(config_dict, time=dict(config_dict["time"], steps=1), record_every=1)
            wl.CliSolver(leg, workdir / "cli_leg", workload.workers).solve()
    finally:
        tracer.restore()

    rest = (1.0 - TRACE_SHARE) * seconds / 2
    plain = timed_solutions(solver, rest, lambda out: solver.same(out, reference))
    other_workers = 1 if workload.workers > 1 else 2
    other = wl.make_solver(workload, config_dict, config, kernels, other_workers, workdir)
    other.solve()  # warm-up at this worker count
    other_tally = timed_solutions(
        other, rest, lambda out: other.spread(out, reference) <= wl.WORKER_RTOL
    )
    tally = Tally()
    for part in (traced, plain, other_tally):
        tally.add(part)
    if check_outputs(workload, solver, config_dict, reference):
        tally.failed = tally.attempted

    metrics = tracing.layer_metrics(tracer.spans)
    by_workers = {workload.workers: plain.steps_per_s(), other_workers: other_tally.steps_per_s()}
    metrics["parallel.speedup_2w"] = by_workers[2] / by_workers[1]
    metrics["trace.overhead_pct"] = 100.0 * (plain.steps_per_s() / traced.steps_per_s() - 1.0)
    trace_path = wl.HERE / "out" / f"trace-{workload.name}-s{seed}.csv"
    tracer.write(trace_path)
    print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(wl.ROOT)}")
    return tally, metrics


# ---------------------------------------------------------------------------
# machine and version stamp
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc_bytes() -> int | None:
    """Size of the highest cache level that cpu0 reports, in bytes."""
    caches = []
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
            caches.append((level, int(size.rstrip("KMG")) * scale))
        except (OSError, ValueError):
            continue
    return max(caches)[1] if caches else None


def _fft_backend() -> str:
    try:
        from scipy._lib import uarray

        backend = uarray.get_state()._pickle()[0]["numpy.scipy.fft"][0][0]
        return f"{backend.__module__}.{backend.__qualname__}"
    except Exception:  # private API; the stamp must not fail the run
        return "unknown"


def machine_stamp(seed: int, fft_bytes_per_gain: float | None) -> dict:
    import numpy
    import scipy

    stamp = {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "llc_bytes": _llc_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "scipy_fft_backend": _fft_backend(),
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ttagg": ttagg.__version__,
    }
    if fft_bytes_per_gain is not None and stamp["llc_bytes"]:
        stamp["fft_bytes_per_gain_computed"] = fft_bytes_per_gain
        stamp["fft_working_set_fits_llc"] = fft_bytes_per_gain <= stamp["llc_bytes"]
    return stamp


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ttagg benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    workdir = wl.workdir_for(workload, args.seed)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = run_traced if args.trace else run_end_to_end
        tally, metrics = run(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    stamp = machine_stamp(args.seed, metrics.get("fft.bytes_per_gain"))
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    for name, value in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {units[name]}")
    print(f"{workload.name} failed_share = {tally.failed}/{tally.attempted}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
