"""Block decomposition, execution plans, and the scaling harness."""

import dataclasses

import numpy as np
import pytest

from ttagg.config import SimulationConfig
from ttagg.integrator import InitialCondition, TimeGrid
from ttagg.kernels import BrownianSpec, KernelError, build_brownian_tt
from ttagg.parallel import (
    ExecutionPlan,
    block_core,
    make_partition,
    map_blocked,
    run_blocked,
    run_scaling_benchmark,
)


def test_partition_blocks_cover_the_size_axis():
    plan = make_partition(8, 2)
    assert plan.block_size == 4
    assert plan.bounds(1) == (1, 4)
    assert plan.bounds(2) == (5, 8)
    assert plan.block_slice(2) == slice(4, 8)


def test_partition_requires_divisibility():
    with pytest.raises(KernelError, match="pad N"):
        make_partition(8, 3)
    with pytest.raises(KernelError):
        make_partition(8, 0)


def test_partition_at_benchmark_scale():
    plan = make_partition(1 << 19, 128)
    assert plan.block_size == 4096
    assert plan.bounds(1) == (1, 4096)
    assert plan.bounds(128) == ((1 << 19) - 4095, 1 << 19)


def test_block_core_slabs_reassemble_the_core():
    kernel = build_brownian_tt(BrownianSpec((0.5, -0.5, 0.0)), 16)
    whole = block_core(kernel, 2, 1, make_partition(16, 1))
    np.testing.assert_array_equal(whole, kernel.cores[1])

    partition = make_partition(16, 4)
    slabs = [block_core(kernel, 2, p, partition) for p in range(1, 5)]
    for slab in slabs:
        assert slab.shape == (3, 4, 3)
    np.testing.assert_array_equal(np.concatenate(slabs, axis=1), kernel.cores[1])

    with pytest.raises(KernelError):
        block_core(kernel, 4, 1, partition)
    with pytest.raises(KernelError):
        partition.bounds(5)


def test_execution_plan_validation_and_fft_lengths():
    with pytest.raises(KernelError):
        ExecutionPlan(workers=0)
    with pytest.raises(KernelError, match="fast, pow2"):
        ExecutionPlan(fft_length_policy="welch")
    plan = ExecutionPlan()
    assert plan.fft_length_policy == "fast"
    assert plan.fft_length(3, 1024) == 3072  # needs 3070
    assert plan.fft_length(2, 2048) == 4096  # needs 4095
    pow2 = ExecutionPlan(fft_length_policy="pow2")
    assert pow2.fft_length(3, 1024) == 4096
    assert pow2.fft_length(2, 2048) == 4096
    # the benchmark shapes: D = 3 at N = 2^17, D = 4 at N = 2^15
    assert plan.fft_length(3, 1 << 17) == 3 << 17
    assert plan.fft_length(4, 1 << 15) == 1 << 17


def test_execution_plan_axis_toggles():
    # the worker count is the one parallel axis left: it sets the pool
    # size, and the FFT backend's threads are capped by the core count
    assert [f.name for f in dataclasses.fields(ExecutionPlan)] == [
        "workers",
        "fft_length_policy",
    ]
    full = ExecutionPlan(workers=8)
    assert 1 <= full.fft_workers <= 8
    assert ExecutionPlan(workers=1).fft_workers == 1


def _is_5_smooth(value):
    for prime in (2, 3, 5):
        while value % prime == 0:
            value //= prime
    return value == 1


@pytest.mark.parametrize("order", [2, 3, 4, 5, 7])
@pytest.mark.parametrize("n_classes", [2, 3, 24, 100, 1000, 1 << 12, 12345])
def test_fast_fft_length_is_5_smooth_alias_free_and_at_most_pow2(order, n_classes):
    needed = order * (n_classes - 1) + 1
    fast = ExecutionPlan(fft_length_policy="fast").fft_length(order, n_classes)
    pow2 = ExecutionPlan(fft_length_policy="pow2").fft_length(order, n_classes)
    assert _is_5_smooth(fast)
    assert needed <= fast <= pow2
    assert pow2 & (pow2 - 1) == 0 and pow2 // 2 < needed


def test_run_blocked_covers_range_without_overlap():
    for workers in (1, 2, 3, 7):
        hits = np.zeros(23, dtype=int)

        def mark(lo, hi):
            hits[lo:hi] += 1

        run_blocked(23, workers, mark)
        assert np.all(hits == 1)


def test_map_blocked_returns_partials_in_order():
    parts = map_blocked(10, 3, lambda lo, hi: (lo, hi))
    assert parts == sorted(parts)
    assert parts[0][0] == 0 and parts[-1][1] == 10


def test_scaling_benchmark_report_shape():
    config = SimulationConfig(
        n_classes=128,
        dimension=3,
        kernel_specs={3: BrownianSpec((1 / 3, -1 / 3, 0.0))},
        initial=InitialCondition.monodisperse(1.0),
        time=TimeGrid(0.0, 1e-3, 2),
        record_every=2,
    )
    report = run_scaling_benchmark(config, [1, 2], repeats=1)
    assert report.worker_counts == [1, 2]
    assert report.speedups[0] == pytest.approx(1.0)
    assert all(t > 0 for t in report.times_sec)
    data = report.to_dict()
    assert data["N"] == 128 and data["D"] == 3 and data["steps"] == 2
    assert len(data["times_sec"]) == len(data["speedups"]) == 2
    assert len(report.rows()) == 2
