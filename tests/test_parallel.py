"""Execution plans, the whole-range seams, and the scaling harness."""

import dataclasses
import itertools
import threading
import types

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


def _split(order, occupied):
    # the split (q, B) `gain_path`'s rule gives a rank-1 CP gain of this
    # order that streams on a state occupying sizes 1..m; the rule reads
    # the kernel's order, rows and form only
    kernel = types.SimpleNamespace(dimension=order, fibers=range(order))
    path, _, split = ttagg.rhs._gain_rule(kernel, ConcentrationState(np.ones(max(2, occupied))))
    assert path == "streamed FFT"
    return split


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 7])
def test_split_lengths_are_odd_radix_5_smooth_and_alias_free(order, monkeypatch):
    # a streamed gain transforms at L = q * B, at least the alias-free
    # bound d(m-1) + 1.  Up to L = 2^15 it keeps one block: q odd (d for
    # odd d, d - 1 for even d) and B the smallest 5-smooth length at the
    # bound, so B >= m.  Above, B is the 5-smooth block constant and q the
    # fewest blocks that reach the bound
    monkeypatch.setattr(ttagg.rhs, "_BATCH_BYTES", 0)
    monkeypatch.setattr(ttagg.rhs, "_DIRECT_WORK", 0)
    block_length, single = ttagg.rhs._BLOCK, ttagg.rhs._SINGLE_LENGTH
    assert _is_5_smooth(block_length)
    occupied_sizes = [2, 3, 7, 40, 1000, 1125, 3375, 4096, 12345, 1 << 15, 1 << 17, 1 << 18]
    kinds = set()
    for occupied in occupied_sizes:
        bound = order * (occupied - 1) + 1
        radix, block = _split(order, occupied)
        assert radix * block >= bound
        odd = order if order % 2 else order - 1
        smallest = next(m for m in range(-(-bound // odd), 2 * bound) if _is_5_smooth(m))
        if odd * smallest <= single:
            kinds.add("one block")
            assert (radix, block) == (odd, smallest) and block >= occupied
        else:
            kinds.add("blocks")
            assert block == block_length and (radix - 1) * block < bound
    assert kinds == {"one block", "blocks"}


def test_split_lengths_pins(monkeypatch):
    monkeypatch.setattr(ttagg.rhs, "_BATCH_BYTES", 0)
    # brownian3_n17 at full support: L = 96 * 4096 = 3 * 2^17, as before
    assert _split(3, 1 << 17) == (96, 4096)
    assert _split(4, 1 << 15) == (32, 4096)  # 131069 <= 131072
    assert _split(5, 1 << 13) == (10, 4096)  # 5 * 8192 > 2^15
    assert _split(2, 1 << 17) == (64, 4096)  # even q: a self-conjugate class
    # one block up to L = 2^15
    assert _split(3, 1 << 13) == (3, 8192)
    assert _split(4, 1 << 13) == (8, 4096)  # 3 * 10935 > 2^15
    assert _split(5, 1 << 12) == (5, 4096)
    assert _split(2, 1 << 14) == (1, ttagg.rhs.fft_length(2, 1 << 14))


def test_gain_path_pins():
    # a rank-1 CP gain on a state that occupies every size: batched up to
    # 256 KiB of real rows, streamed above, through the split above
    def rule(order, size):
        kernel = constant_symmetrized_cp(1.0, order, size)
        path, _, split = ttagg.rhs._gain_rule(kernel, ConcentrationState(np.ones(size)))
        assert path == ttagg.rhs.gain_path(kernel, ConcentrationState(np.ones(size)))
        return path, split

    assert rule(3, 1 << 11) == ("batched FFT", None)  # 3 rows of 48 KiB
    assert rule(3, 1 << 13) == ("streamed FFT", (3, 1 << 13))  # 3 rows of 192 KiB
    assert rule(3, 1 << 14) == ("streamed FFT", (12, 4096))
    assert rule(5, 1 << 13) == ("streamed FFT", (10, 4096))
    # brownian3_n17
    assert rule(3, 1 << 17) == ("streamed FFT", (96, 4096))
    assert rule(4, 1 << 15) == ("streamed FFT", (32, 4096))
    assert rule(2, 1 << 17) == ("streamed FFT", (64, 4096))
    # brownian4_n15_w2 convolves directly at 64 columns and transforms
    # its rows in one call at 1024
    assert rule(4, 64) == ("direct", None)
    assert rule(4, 1024) == ("batched FFT", None)


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
