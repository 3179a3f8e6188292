"""Execution plans, the whole-range seams, and the scaling harness."""

import dataclasses
import itertools
import threading

import numpy as np
import pytest

import ttagg.parallel
import ttagg.rhs
from ttagg.config import SimulationConfig
from ttagg.integrator import InitialCondition, TimeGrid
from ttagg.kernels import BrownianSpec, KernelError, constant_symmetrized_cp
from ttagg.parallel import ExecutionPlan, run_scaling_benchmark
from ttagg.rhs import ConcentrationState


def test_execution_plan_validation_and_fft_lengths():
    with pytest.raises(KernelError):
        ExecutionPlan(workers=0)
    for policy in ("welch", "pow2"):
        with pytest.raises(KernelError, match="'fast'"):
            ExecutionPlan(fft_length_policy=policy)
    assert ExecutionPlan().fft_length_policy == "fast"
    length = ttagg.rhs.fft_length
    assert length(3, 1024) == 3072  # needs 3070
    assert length(2, 2048) == 4096  # needs 4095
    # the benchmark shapes: D = 3 at N = 2^17, D = 4 at N = 2^15
    assert length(3, 1 << 17) == 3 << 17
    assert length(4, 1 << 15) == 1 << 17


def test_fft_length_equals_scipy_next_fast_len():
    # the library looks its lengths up itself and does not import
    # scipy.fft; this test may
    from scipy.fft import next_fast_len

    length = ttagg.rhs.fft_length
    # at d = 1 the bound d(m-1) + 1 is m, so this covers every target
    targets = range(1, (1 << 21) + 1)
    real = itertools.repeat(True)
    assert [length(1, t) for t in targets] == list(map(next_fast_len, targets, real))
    for order in (2, 3, 4, 5):
        for occupied in (2, 3, 1000, 12345, 1 << 15, 1 << 17):
            target = order * (occupied - 1) + 1
            assert length(order, occupied) == next_fast_len(target, real=True)
    # the top of the table, and targets above it
    top = ttagg.rhs._FAST_LENGTHS[-1]
    for target in (top - 1, top, top + 1, 10**12 + 7):
        assert length(1, target) == next_fast_len(target, real=True)


def test_execution_plan_axis_toggles():
    # the worker count is the one parallel axis left; it is kept and
    # validated, and no right-hand side reads it, so nothing derives a
    # thread count from it
    assert [f.name for f in dataclasses.fields(ExecutionPlan)] == [
        "workers",
        "fft_length_policy",
    ]
    assert ExecutionPlan(workers=8).workers == 8
    assert not hasattr(ExecutionPlan(workers=8), "fft_workers")
    # the gain works out its own transform length
    assert not hasattr(ExecutionPlan, "fft_length")


def _is_5_smooth(value):
    for prime in (2, 3, 5):
        while value % prime == 0:
            value //= prime
    return value == 1


@pytest.mark.parametrize("order", [2, 3, 4, 5, 7])
@pytest.mark.parametrize("n_classes", [2, 3, 24, 100, 1000, 1 << 12, 12345])
def test_fast_fft_length_is_5_smooth_alias_free_and_at_most_pow2(order, n_classes):
    # never longer than the smallest power of two at or above the bound
    needed = order * (n_classes - 1) + 1
    fast = ttagg.rhs.fft_length(order, n_classes)
    assert _is_5_smooth(fast)
    assert needed <= fast <= 1 << (needed - 1).bit_length()


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 7])
def test_split_lengths_are_odd_radix_5_smooth_and_alias_free(order):
    # a streamed gain transforms at L = q * M: q odd, M 5-smooth, M >= m,
    # and L at least the alias-free bound d(m-1) + 1
    split = ttagg.rhs.split_lengths
    occupied_sizes = [1, 2, 3, 7, 40, 1000, 1125, 3375, 12345, 1 << 15, 1 << 17, 1 << 18]
    for occupied in occupied_sizes:
        radix, block = split(order, occupied)
        assert radix % 2 == 1 and radix == (order if order % 2 else order - 1)
        assert _is_5_smooth(block) and block >= occupied
        assert radix * block >= order * (occupied - 1) + 1
        # the smallest 5-smooth M at that bound
        smaller = [m for m in range(occupied, block) if _is_5_smooth(m)]
        assert all(radix * m < order * (occupied - 1) + 1 for m in smaller)
    if order == 2:
        for occupied in occupied_sizes:
            assert split(2, occupied) == (1, ttagg.rhs.fft_length(2, occupied))


def test_split_lengths_pins():
    split = ttagg.rhs.split_lengths
    # brownian3_n17 at full support: L stays 3 * 2^17
    assert split(3, 1 << 17) == (3, 1 << 17)
    assert split(4, 1 << 15) == (3, 43740)  # M >= 43690
    assert split(5, 1 << 13) == (5, 8192)
    assert split(2, 1 << 17) == (1, ttagg.rhs.fft_length(2, 1 << 17))


def test_gain_path_pins():
    # a rank-1 CP gain on a state that occupies every size: batched up to
    # 256 KiB of real rows, streamed through the split above
    def path(order, size):
        kernel = constant_symmetrized_cp(1.0, order, size)
        return ttagg.rhs.gain_path(kernel, ConcentrationState(np.ones(size)))

    split = ttagg.rhs.split_lengths
    assert path(3, 1 << 11) == "batched FFT"  # 3 rows of 48 KiB
    assert path(3, 1 << 13) == "streamed FFT"  # 3 rows of 192 KiB
    assert split(3, 1 << 13) == (3, 1 << 13)
    assert path(3, 1 << 14) == "streamed FFT" and split(3, 1 << 14) == (3, 1 << 14)
    assert path(5, 1 << 13) == "streamed FFT" and split(5, 1 << 13) == (5, 1 << 13)
    # brownian3_n17
    assert path(3, 1 << 17) == "streamed FFT" and split(3, 1 << 17) == (3, 1 << 17)
    assert path(4, 1 << 15) == "streamed FFT" and split(4, 1 << 15) == (3, 43740)
    assert path(2, 1 << 17) == "streamed FFT" and split(2, 1 << 17) == (1, 1 << 18)
    # brownian4_n15_w2 convolves directly at 64 columns and transforms
    # its rows in one call at 1024
    assert path(4, 64) == "direct"
    assert path(4, 1024) == "batched FFT"


def test_run_blocked_covers_range_without_overlap():
    # no chunking and no pool: the seam calls fn(0, total) once, in the
    # calling thread, for every worker count
    assert not hasattr(ttagg.parallel, "run_blocked")
    for workers in (1, 2, 3, 7):
        hits = np.zeros(23, dtype=int)
        threads = []

        def mark(lo, hi):
            hits[lo:hi] += 1
            threads.append(threading.current_thread())

        assert ttagg.rhs.run_blocked(23, workers, mark) is None
        assert np.all(hits == 1)
        assert threads == [threading.current_thread()]


def test_map_blocked_returns_partials_in_order():
    # the one "partial" is the whole range, returned as fn returned it
    assert not hasattr(ttagg.parallel, "map_blocked")
    calls = []

    def record(lo, hi):
        calls.append((lo, hi, threading.current_thread()))
        return lo, hi

    for workers in (1, 3, 7):
        calls.clear()
        assert ttagg.rhs.map_blocked(10, workers, record) == (0, 10)
        assert calls == [(0, 10, threading.current_thread())]


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
