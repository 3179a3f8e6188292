"""Execution plans for the right-hand-side paths, and the scaling harness.

An `ExecutionPlan` picks the transform length policy and the number of
threads scipy's FFT backend may use.  Everything else in a right-hand
side (fiber weighting, the per-frequency combine, the loss contractions)
runs in the calling thread.  The backend splits a batch of transforms by
whole rows and each row's arithmetic is fixed, so every worker count
gives the same bits as one worker.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass

from scipy.fft import next_fast_len

from .kernels import KernelError

__all__ = [
    "ExecutionPlan",
    "FFT_LENGTH_POLICIES",
    "SERIAL_PLAN",
    "BenchReport",
    "run_scaling_benchmark",
]


FFT_LENGTH_POLICIES = ("fast", "pow2")

# read once: every gain asks for its FFT thread count
_CPU_COUNT = os.cpu_count() or 1


@dataclass(frozen=True)
class ExecutionPlan:
    """How a right-hand-side evaluation is executed.

    `workers` only sets the threads of the FFT backend (`fft_workers`),
    which splits a batch of transforms by whole rows.  All other work runs
    in the calling thread, so results are bitwise equal for every worker
    count.

    fft_length_policy picks the transform length for an order-d gain on
    N size classes.  Sizes 1..N sit at columns 0..N-1, so index sums of d
    sizes fill columns 0..d(N-1) and any length of at least d(N-1) + 1 is
    alias-free.  "fast" (the default) takes the smallest 5-smooth length
    at or above that bound; "pow2" the smallest power of two.  The gain
    passes its state's occupied size for N: sizes above it are zero.
    """

    workers: int = 1
    fft_length_policy: str = "fast"

    def __post_init__(self):
        if self.workers < 1:
            raise KernelError("worker count must be >= 1")
        if self.fft_length_policy not in FFT_LENGTH_POLICIES:
            raise KernelError(
                f"unknown fft_length_policy {self.fft_length_policy!r}; "
                f"expected one of {', '.join(FFT_LENGTH_POLICIES)}"
            )

    def fft_length(self, order: int, n_classes: int) -> int:
        needed = order * (n_classes - 1) + 1
        if self.fft_length_policy == "pow2":
            return 1 << (needed - 1).bit_length()
        return next_fast_len(needed, real=True)

    @property
    def fft_workers(self) -> int:
        # transform backends gain nothing from oversubscription; per-transform
        # results do not depend on this, so capping cannot perturb outputs
        return min(self.workers, _CPU_COUNT)


SERIAL_PLAN = ExecutionPlan()


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
