"""Execution plans for the right-hand-side paths, and the scaling harness.

An `ExecutionPlan` carries a worker count, and no right-hand side reads
it: a gain runs the path `rhs.gain_path` picks with `numpy.fft`, which
has no thread option, or `np.convolve`, and a loss takes its two
matrix-vector products, all in the calling thread.  Every worker count
therefore gives the same bits and, up to noise, the same time as one
worker: the acceptance suite's scaling problem (D = 3, N = 2^17, timed
by `run_scaling_benchmark` below) ran 0.90-1.12x at 4 workers against 1
in four runs on a 2-core Xeon.  The count is still accepted because the
CLI, the config and the benchmark harness pass it.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from .kernels import KernelError

__all__ = [
    "ExecutionPlan",
    "BenchReport",
    "run_scaling_benchmark",
]


@dataclass(frozen=True)
class ExecutionPlan:
    """How a right-hand-side evaluation is executed.

    `workers` is validated and kept, but no right-hand side reads it:
    every step of a gain and a loss runs in the calling thread, so results
    are bitwise equal for every worker count.

    `fft_length_policy` has one accepted value, "fast".  The field stays
    only because the benchmark harness passes it through from the config.
    """

    workers: int = 1
    fft_length_policy: str = "fast"

    def __post_init__(self):
        if self.workers < 1:
            raise KernelError("worker count must be >= 1")
        if self.fft_length_policy != "fast":
            raise KernelError(
                f"unknown fft_length_policy {self.fft_length_policy!r}; "
                "the only one is 'fast'"
            )


# ---------------------------------------------------------------------------
# scalability benchmark
# ---------------------------------------------------------------------------

@dataclass
class BenchReport:
    """Wall times and speedups of a fixed problem across worker counts."""

    n_classes: int
    dimension: int
    steps: int
    worker_counts: list[int]
    times_sec: list[float]
    speedups: list[float]
    repeats: int = 3

    def to_dict(self) -> dict:
        return {
            "N": self.n_classes,
            "D": self.dimension,
            "steps": self.steps,
            "worker_counts": list(self.worker_counts),
            "times_sec": list(self.times_sec),
            "speedups": list(self.speedups),
            "repeats": self.repeats,
        }

    def rows(self) -> list[tuple[int, float, float]]:
        return list(zip(self.worker_counts, self.times_sec, self.speedups))


def run_scaling_benchmark(config, worker_counts, *, repeats: int = 3) -> BenchReport:
    """Time the same integration across worker counts.

    Protocol: one warm-up run per worker count is discarded, then the
    median of `repeats` timed runs is reported.  Speedups are relative to
    the 1-worker time; when 1 is not in `worker_counts` a baseline
    measurement at 1 worker is taken but not reported as a row.
    """
    from .config import build_kernel_set
    from .integrator import integrate

    counts = [int(p) for p in worker_counts]
    if not counts:
        raise KernelError("worker_counts must not be empty")
    kernels = build_kernel_set(config)

    def timed(workers: int) -> float:
        plan = ExecutionPlan(
            workers=workers, fft_length_policy=config.fft_length_policy
        )
        integrate(config, kernels=kernels, plan=plan)  # warm-up, discarded
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            integrate(config, kernels=kernels, plan=plan)
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

    times = {p: timed(p) for p in counts}
    baseline = times.get(1)
    if baseline is None:
        baseline = timed(1)
    times_sec = [times[p] for p in counts]
    speedups = [baseline / t for t in times_sec]
    return BenchReport(
        n_classes=config.n_classes,
        dimension=config.dimension,
        steps=config.time.steps,
        worker_counts=counts,
        times_sec=times_sec,
        speedups=speedups,
        repeats=repeats,
    )
