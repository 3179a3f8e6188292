"""Block decomposition of the size coordinate and shared-memory execution.

The size axis 1..N is split into P contiguous blocks, block p owning
sizes (p-1)*N/P + 1 through p*N/P.  Parallel work inside the fast
right-hand-side paths follows the same decomposition: fiber weighting
and the loss contractions run per block and the per-frequency chain
products per bin range, on a pinned thread pool, while the independent
fiber transforms go to the FFT backend's own threads.
Reductions combine block partials in ascending block order, so results
depend on the worker count only at roundoff level.
"""

from __future__ import annotations

import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len

from .kernels import KernelError, TTKernel

__all__ = [
    "PartitionPlan",
    "ExecutionPlan",
    "FFT_LENGTH_POLICIES",
    "SERIAL_PLAN",
    "make_partition",
    "block_core",
    "run_blocked",
    "map_blocked",
    "BenchReport",
    "run_scaling_benchmark",
]


@dataclass(frozen=True)
class PartitionPlan:
    """Disjoint cover of sizes 1..N by P equal blocks (P must divide N)."""

    n_classes: int
    workers: int

    def __post_init__(self):
        if self.workers < 1:
            raise KernelError("worker count must be >= 1")
        if self.n_classes % self.workers:
            raise KernelError(
                f"{self.workers} workers do not divide N = {self.n_classes}; "
                "pad N (a power of two is recommended) or change the worker count"
            )

    @property
    def block_size(self) -> int:
        return self.n_classes // self.workers

    def bounds(self, p: int) -> tuple[int, int]:
        """1-based inclusive size range owned by block p (1-based)."""
        if not 1 <= p <= self.workers:
            raise KernelError(f"block index {p} outside [1, {self.workers}]")
        b = self.block_size
        return (p - 1) * b + 1, p * b

    def block_slice(self, p: int) -> slice:
        lo, hi = self.bounds(p)
        return slice(lo - 1, hi)


def make_partition(n_classes: int, workers: int) -> PartitionPlan:
    return PartitionPlan(n_classes, workers)


def block_core(kernel: TTKernel, level: int, p: int, partition: PartitionPlan) -> np.ndarray:
    """Slab of core `level` (1-based) owned by block p: shape (R_prev, N/P, R_next)."""
    if not 1 <= level <= kernel.dimension:
        raise KernelError(f"core level {level} outside [1, {kernel.dimension}]")
    if partition.n_classes != kernel.n_classes:
        raise KernelError("partition and kernel disagree on N")
    return kernel.cores[level - 1][:, partition.block_slice(p), :]


FFT_LENGTH_POLICIES = ("fast", "pow2")


@dataclass(frozen=True)
class ExecutionPlan:
    """How a right-hand-side evaluation is executed.

    `workers` chunks the weighting and per-frequency combine phases over a
    pinned thread pool and hands the batched transforms to the FFT backend
    with up to that many threads.  Block partials of reductions combine in
    ascending block order, so the worker count perturbs results at
    roundoff level only.

    fft_length_policy picks the transform length for an order-d gain on
    N size classes.  Sizes 1..N sit at columns 0..N-1, so index sums of d
    sizes fill columns 0..d(N-1) and any length of at least d(N-1) + 1 is
    alias-free.  "fast" (the default) takes the smallest 5-smooth length
    at or above that bound; "pow2" the smallest power of two.
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
        return min(self.workers, os.cpu_count() or 1)


SERIAL_PLAN = ExecutionPlan()

_POOLS: dict[int, ThreadPoolExecutor] = {}


def _pool(workers: int) -> ThreadPoolExecutor:
    pool = _POOLS.get(workers)
    if pool is None:
        pool = ThreadPoolExecutor(max_workers=workers)
        _POOLS[workers] = pool
    return pool


def run_blocked(total: int, workers: int, fn) -> None:
    """Apply fn(lo, hi) to contiguous chunks covering range(total).

    Chunks are disjoint, so workers never write to the same output slot;
    exceptions propagate to the caller.
    """
    if workers <= 1 or total <= 1:
        fn(0, total)
        return
    bounds = np.linspace(0, total, workers + 1).astype(int)
    pairs = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    if len(pairs) == 1:
        fn(*pairs[0])
        return
    futures = [_pool(workers).submit(fn, lo, hi) for lo, hi in pairs]
    for fut in futures:
        fut.result()


def map_blocked(total: int, workers: int, fn) -> list:
    """Collect fn(lo, hi) over contiguous chunks, in ascending chunk order,
    so reductions over the partials are reproducible for any worker count.
    """
    if workers <= 1 or total <= 1:
        return [fn(0, total)]
    bounds = np.linspace(0, total, workers + 1).astype(int)
    pairs = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    if len(pairs) == 1:
        return [fn(*pairs[0])]
    futures = [_pool(workers).submit(fn, lo, hi) for lo, hi in pairs]
    return [fut.result() for fut in futures]


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
