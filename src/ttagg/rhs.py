"""Gain and loss operators for simultaneous d-particle aggregation.

For each collision order d the gain vector collects, with weight 1/d!,
all d-tuples of sizes summing to k; the loss vector drains size k in
proportion to its concentration and the (d-1)-fold contraction of the
kernel with the state, weighted 1/(d-1)!.  Dense implementations cost
O(m**d) and serve as ground truth; the tensor-train and CP paths push
the gain through one shared FFT scaffold (`_fft_gain`: the kernel's own
fiber rows, weighted with size i stored at slot i-1 and zero-padded to
an alias-free length L of at least d(m-1) + 1, in buffers allocated per
call; a gain transforms all its rows in one call, except a CP gain
whose real rows exceed `_BATCH_BYTES`, as at full support, which
streams them one m-column row at a time, splits a long transform into
transforms of length M ~ m (radix q, L = q*M), and inverts into a
spent spectrum row, so it holds no real row of length L) and the loss
through two matrix-vector products with the same fiber rows, for
O(m log m) work per rank pair.
Here m is the state's occupied size, the largest k with n_k != 0: sizes
above m contribute nothing, so every path reads sizes 1..m only and
returns exact zeros where the sums are empty (gain above min(R, d*m),
loss above m).

Every operator takes a state over sizes 1..R for any R <= the kernel's
N, treats the sizes above R as empty, and returns vectors over 1..R:
entry k is entry k of the result for the state padded with zeros to N.
So a caller that knows where the result ends (`KernelSet.reach`) pays
for the sizes up to there, not for all N.  A symmetrized CP kernel sums
the plain CP form over all d! slot orders; every order gives the same
index-sum convolution, so its gain is one d-fold convolution with
weight 1, and its loss is a closed form in d moments of the state per
rank.
"""

from __future__ import annotations

import cmath
import ctypes
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce

import numpy as np
import numpy.fft as _fft

from .kernels import (
    CPKernel,
    DenseKernel,
    KernelError,
    SymmetrizedCPKernel,
    TTKernel,
    _check_budget,
    cp_element,
    symmetrized_cp_element,
    tt_element,
)
from .parallel import ExecutionPlan

__all__ = [
    "ConcentrationState",
    "KernelSet",
    "RhsResult",
    "kernel_element",
    "sample_symmetry_violation",
    "rhs_dense_P",
    "rhs_dense_Q",
    "rhs_tt_P",
    "rhs_tt_Q",
    "rhs_cp_P",
    "rhs_cp_Q",
    "rhs_gain_loss",
    "rhs_total",
]

# The FFT binding whose bits the gains carry, for the run manifest; read
# once here, because a tracer may replace `_fft` while a run is written.
FFT_BACKEND = _fft.__name__

# The complex transforms of a streamed gain's split, bound apart from
# `_fft`: a tracer that replaces `_fft` with its real transforms only
# leaves these in place.
_fft_c2c = _fft.fft
_ifft_c2c = _fft.ifft

# Largest sampled relative violation a KernelSet accepts as symmetric.
_SYMMETRY_TOL = 1e-8


@dataclass(frozen=True)
class ConcentrationState:
    """Per-size mean concentrations n_1..n_R at time t.

    R is N for a whole state; a right-hand side also takes a state over
    the first R <= N sizes, whose sizes above R are empty.  Entries must
    be finite; negative values are allowed here and watched by the
    integrator.
    """

    n: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        n = np.ascontiguousarray(self.n, dtype=np.float64)
        if n is self.n:
            n = n.copy()
        if n.ndim != 1 or n.size < 2:
            raise ValueError("concentration state must be a vector of length >= 2")
        if not np.all(np.isfinite(n)):
            raise ValueError("concentration state contains non-finite entries")
        n.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "t", float(self.t))

    @classmethod
    def _from_head(cls, head: np.ndarray, n_classes: int, t: float, bound: int):
        """The state (head, 0, ..., 0) of length `n_classes`, built from a
        fresh float64 head that the caller hands over, and whose entries
        at and above `bound` are exact zeros by construction: a stage of
        `rk2_step` reaches no further than `KernelSet.reach` of the
        occupied size it starts from.

        A full-length head becomes the state's array with no copy.  Every
        size at or above the bound is a zero, so the finiteness check and
        the occupied-size scan read head[:bound] only.
        """
        inside = head[:bound]
        if not np.isfinite(inside).all():
            raise ValueError("concentration state contains non-finite entries")
        n = head
        if head.size != n_classes:
            n = np.zeros(n_classes)
            n[: head.size] = head
        n.setflags(write=False)
        return cls._trusted(n, t, _last_nonzero_size(inside))

    @classmethod
    def _trusted(cls, n: np.ndarray, t: float, occupied: int):
        # a state over a read-only float64 vector the caller vouches for;
        # a frozen dataclass keeps its fields in the instance dict
        state = cls.__new__(cls)
        state.__dict__.update(n=n, t=float(t), occupied_size=occupied)
        return state

    def _head(self, reach: int):
        """This state over sizes 1..reach, for reach >= `occupied_size`: the
        sizes it drops are zeros.  It shares this state's array."""
        return self._trusted(self.n[:reach], self.t, self.occupied_size)

    @property
    def n_classes(self) -> int:
        return self.n.size

    @cached_property
    def occupied_size(self) -> int:
        """Largest size k with n_k != 0, or 0 for an all-zero state."""
        return _last_nonzero_size(self.n)


def _last_nonzero_size(n: np.ndarray) -> int:
    # 1-based index of the last nonzero entry, 0 if there is none
    if n.size == 0 or n[-1] != 0:
        return n.size
    nonzero = n[::-1] != 0
    last = int(np.argmax(nonzero))  # first True from the end
    return n.size - last if nonzero[last] else 0


def kernel_element(kernel, idx) -> float:
    """Evaluate one coefficient of any kernel representation."""
    if isinstance(kernel, TTKernel):
        return tt_element(kernel, idx)
    if isinstance(kernel, SymmetrizedCPKernel):
        return symmetrized_cp_element(kernel, idx)
    if isinstance(kernel, CPKernel):
        return cp_element(kernel, idx)
    if isinstance(kernel, DenseKernel):
        entries = tuple(int(i) - 1 for i in idx)
        return float(kernel.values[entries])
    raise KernelError(f"unsupported kernel representation {type(kernel).__name__}")


def sample_symmetry_violation(kernel, samples: int = 32, seed: int = 0) -> float:
    """Largest relative coefficient change under random index permutations.

    The loss operator fixes the particle size at the last mode, which is
    only valid for symmetric kernels; use this to vet user-provided ones.
    NaN if a sampled coefficient is NaN.
    """
    rng = np.random.default_rng(seed)
    d, n = kernel.dimension, kernel.n_classes
    worst = 0.0
    for _ in range(samples):
        idx = rng.integers(1, n + 1, size=d)
        ref = kernel_element(kernel, idx)
        # the reversal never degenerates to the identity relabeling
        for alt_idx in (idx[::-1], rng.permutation(idx)):
            alt = kernel_element(kernel, alt_idx)
            scale = max(abs(ref), abs(alt), 1e-300)
            violation = abs(ref - alt) / scale
            if math.isnan(violation):  # `max` would drop it
                return math.nan
            worst = max(worst, violation)
    return worst


@dataclass(frozen=True)
class KernelSet:
    """Kernels by collision order d (2 <= d), all sharing one mode size N.

    The sorted orders, N and the largest order are fixed at construction,
    so an evaluation reads prepared fields.
    """

    kernels: dict
    orders: tuple = field(init=False, repr=False, compare=False)
    _by_order: tuple = field(init=False, repr=False, compare=False)
    n_classes: int = field(init=False, repr=False, compare=False)
    _d_max: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.kernels:
            raise KernelError("no collision orders configured")
        checked = {}
        n_classes = None
        for order, kernel in self.kernels.items():
            d = int(order)
            if d < 2:
                raise KernelError(f"collision order must be >= 2, got {d}")
            if not isinstance(
                kernel, (TTKernel, SymmetrizedCPKernel, CPKernel, DenseKernel)
            ):
                raise KernelError(
                    f"unsupported kernel representation {type(kernel).__name__}"
                )
            if kernel.dimension != d:
                raise KernelError(
                    f"kernel for order {d} has dimension {kernel.dimension}"
                )
            if n_classes is None:
                n_classes = kernel.n_classes
            elif kernel.n_classes != n_classes:
                raise KernelError("all kernels in a set must share the same N")
            # min and max are NaN if any entry is, and need no temporary
            coeffs = kernel.values if isinstance(kernel, DenseKernel) else kernel.fibers
            if not (math.isfinite(coeffs.min()) and math.isfinite(coeffs.max())):
                raise KernelError(f"kernel for order {d} has a non-finite coefficient")
            checked[d] = kernel
        for d, kernel in checked.items():
            # a symmetrized CP kernel is symmetric by construction, and its
            # loss assumes no symmetry; every other loss fixes the particle
            # size at the last mode, which needs a symmetric kernel
            if isinstance(kernel, SymmetrizedCPKernel):
                continue
            violation = sample_symmetry_violation(kernel)
            if violation > _SYMMETRY_TOL:
                raise KernelError(
                    f"kernel for order {d} is not symmetric "
                    f"(sampled relative violation {violation:.2e})"
                )
        orders = tuple(sorted(checked))
        object.__setattr__(self, "kernels", checked)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "_by_order", tuple(checked[d] for d in orders))
        object.__setattr__(self, "n_classes", n_classes)
        object.__setattr__(self, "_d_max", orders[-1])

    def __getitem__(self, order: int):
        return self.kernels[order]

    def reach(self, occupied: int) -> int:
        """Sizes 1..reach hold every nonzero entry of the right-hand side of
        a state with occupied size `occupied`: an order-d gain ends at
        min(N, d * occupied), and every loss at `occupied`."""
        return min(self.n_classes, self._d_max * occupied)


@dataclass(frozen=True)
class RhsResult:
    """Gain p and loss q; their sum s = p + q is computed on access."""

    p: np.ndarray
    q: np.ndarray

    @property
    def s(self) -> np.ndarray:
        return self.p + self.q


# ---------------------------------------------------------------------------
# dense reference operators
# ---------------------------------------------------------------------------

def _check_pair(kernel, state: ConcentrationState) -> int:
    # a state may cover fewer sizes than the kernel, never more
    if state.n_classes > kernel.n_classes:
        raise KernelError(
            f"state has {state.n_classes} sizes, more than the kernel's "
            f"N = {kernel.n_classes}"
        )
    return kernel.dimension


def _loss(n: np.ndarray, tail: np.ndarray, weight: float, q: np.ndarray) -> np.ndarray:
    # q_k = -n_k tail_k / weight over the occupied sizes of n, written into
    # the zeroed q, whose entries above them stay exact zeros; the tail
    # may be q's own head
    head = q[: n.size]
    np.multiply(tail, n, out=head)
    np.divide(head, -weight, out=head)
    return q


def rhs_dense_P(kernel: DenseKernel, state: ConcentrationState) -> np.ndarray:
    """Gain vector by direct summation over all d-tuples of occupied
    sizes (O(m**d))."""
    d = _check_pair(kernel, state)
    _check_budget(kernel.n_classes, d)
    occupied = state.occupied_size
    n = state.n[:occupied]
    head = (slice(0, occupied),) * d
    weighted = kernel.values[head].copy()
    for axis in range(d):
        shape = [1] * d
        shape[axis] = occupied
        weighted *= n.reshape(shape)
    # the index sums of the occupied sizes, built per call: a grid kept
    # over all N sizes would hold N**d integers for the life of the process
    sizes = np.arange(1, occupied + 1, dtype=np.int64)
    sums = reduce(np.add.outer, [sizes] * d)
    totals = np.bincount(
        sums.ravel(), weights=weighted.ravel(), minlength=d * occupied + 1
    )
    top = min(state.n_classes, d * occupied)
    p = np.zeros(state.n_classes)
    p[d - 1 : top] = totals[d : top + 1] / math.factorial(d)
    return p


def rhs_dense_Q(kernel: DenseKernel, state: ConcentrationState) -> np.ndarray:
    """Loss vector by contracting the first d-1 modes with the occupied
    sizes of the state."""
    d = _check_pair(kernel, state)
    _check_budget(kernel.n_classes, d)
    occupied = state.occupied_size
    n = state.n[:occupied]
    w = kernel.values[(slice(0, occupied),) * d]
    for _ in range(d - 1):
        w = np.tensordot(n, w, axes=(0, 0))
    return _loss(n, w, math.factorial(d - 1), np.zeros(state.n_classes))


# ---------------------------------------------------------------------------
# FFT gain scaffold shared by the TT and CP paths
# ---------------------------------------------------------------------------

# Whole-range seams: each runs fn(0, total) once, in the calling thread.
# The TT and CP losses take their moments through `map_blocked`; nothing
# calls `run_blocked`.
# Both exist because the benchmark's tracer wraps these two names in this
# module and reads their (total, workers, fn) arguments.  ROADMAP
# direction 1 makes `run_blocked` the fan-out of a gain's rows over
# `workers` threads; if that direction is dropped, both seams go.
def run_blocked(total: int, workers: int, fn) -> None:
    fn(0, total)


def map_blocked(total: int, workers: int, fn):
    return fn(0, total)


# glibc's malloc mode parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@lru_cache(maxsize=None)
def _pin_malloc_thresholds() -> None:
    """Keep freed multi-MB blocks in the process instead of returning them.

    By default glibc serves a block above its mmap threshold with a fresh
    mapping and unmaps it on free, and trims the heap top above twice that
    threshold; both adapt to the largest block freed so far, so they stay
    near the size of pocketfft's per-row scratch (3 MB for a transform
    of length 393216).  A gain's per-call buffers (at full support two
    spectrum rows of 3 MiB each and a 1 MiB weighted row, see
    `_fft_gain`), that scratch and the step's 1 MB vectors then go back
    to the kernel after every call and are faulted back in on the next.
    On the D = 3, N = 2^17 full-support problem (`resource.getrusage`,
    2-core Xeon, glibc 2.36) a warm 2-step solution took 6,533-7,555
    minor faults with default thresholds while its gains transformed at
    L = 393216 (8,582-9,094 when the stream also held a 3 MiB real row,
    18,827 when a gain transformed all its rows in one call), and 0 with
    these fixed thresholds of 32 MiB (mmap) and 256 MiB (trim): freed
    blocks are reused from the heap, so no gain needs buffers kept
    between calls.  Its split gains, whose transforms have length
    2^17, took 0 with either.  Other C libraries have no `mallopt`, and
    there this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def _five_smooth(limit: int) -> tuple[int, ...]:
    """The numbers 2^a 3^b 5^c up to `limit`, in ascending order."""
    values = []
    fives = 1
    while fives <= limit:
        threes = fives
        while threes <= limit:
            value = threes
            while value <= limit:
                values.append(value)
                value *= 2
            threes *= 3
        fives *= 5
    return tuple(sorted(values))


# Every 5-smooth length up to 2^32, 1,849 of them: one row at the
# top would take 32 GiB.  Built once, so a length is one bisection.
_FAST_LENGTHS = _five_smooth(1 << 32)


def _fast_length(target: int) -> int:
    # the smallest 5-smooth number >= target, from `_FAST_LENGTHS` or, above
    # its top, from a table up to the next power of two, which is 5-smooth
    lengths = _FAST_LENGTHS
    if target > lengths[-1]:
        lengths = _five_smooth(1 << (target - 1).bit_length())
    return lengths[bisect_left(lengths, target)]


def fft_length(order: int, occupied: int) -> int:
    """Transform length of an order-d gain on a state with occupied size m.

    Sizes 1..m sit at columns 0..m-1, so index sums of d sizes fill
    columns 0..d(m-1) and any length of at least d(m-1) + 1 is
    alias-free; the length is the smallest 5-smooth one at that bound,
    the length pocketfft's real transforms run fastest at (the same as
    `scipy.fft.next_fast_len(target, real=True)`).  It is looked up in
    `_FAST_LENGTHS`; a bound above the table gets its own table, up to
    the next power of two, which is 5-smooth.
    """
    return _fast_length(order * (occupied - 1) + 1)


def split_lengths(order: int, occupied: int) -> tuple[int, int]:
    """Radix q and block length M of a streamed order-d gain on a state
    with occupied size m: it transforms at length L = q * M.

    q is d for odd d and d - 1 for even d, so q is odd, and M is the
    smallest 5-smooth length with q * M >= d(m-1) + 1, which keeps L
    alias-free and gives M >= m.  At q = 1 (d = 2) this is
    (1, `fft_length(2, m)`).  See `_cp_stream` for the split.
    """
    radix = order if order % 2 else order - 1
    return radix, _fast_length(-(-(order * (occupied - 1) + 1) // radix))


# Bytes of weighted real rows above which a CP gain streams its rows one
# per call.  A batched `rfft` costs less time, since numpy runs rows in
# SIMD pairs and pays its fixed cost per call once, but its buffers and
# numpy's scratch grow with its rows.  Measured on a 2-core Xeon with
# numpy 2.4.6: up to rows of 64 KiB (L = 8192) one call over 3 or 4 rows
# took 13-50% less time than a call per row, at a few hundred KiB of
# memory; at L = 393216 one call over 3 rows raised the peak RSS by 15.3
# MB and took 22.0 ms, one call per row raised it by 6.1 MB and took
# 27.6 ms in all.  256 KiB holds 4 rows of 64 KiB and no full-support row.
_BATCH_BYTES = 256 << 10

def stream_lengths(order: int, rows: int, occupied: int) -> tuple[int, int] | None:
    """(q, M) of an order-d CP gain with `rows` fiber rows on a state with
    occupied size m that streams its rows, or None for one that
    transforms them in one call at L = `fft_length(d, m)`.

    A gain streams when its real rows of length L take more than
    `_BATCH_BYTES`, and then splits its transform by `split_lengths`
    (q = 1 and M = L at d = 2).
    """
    if 8 * fft_length(order, occupied) * rows <= _BATCH_BYTES:
        return None
    return split_lengths(order, occupied)


def _fft_gain(kernel, state: ConcentrationState) -> np.ndarray:
    """Truncated order-d gain of a TT, CP or symmetrized CP kernel by FFT.

    The kernel's `fibers`, an (r, N) array, are read in place; the state
    covers sizes 1..R, R <= N.  Only the occupied sizes 1..m of the state
    (`ConcentrationState.occupied_size`) enter: a d-tuple with a size
    above m has a zero product.  Pipeline, in an (r, L) array `real`,
    whose padding columns m..L-1 are zero-filled once, and an (r, L // 2
    + 1) array `spectra`, both allocated per call: (1) weight the first m
    columns of every fiber row by the concentrations in one broadcast
    product, size i at column i-1; (2) transform all rows in one call;
    (3) `_tt_fold` or `_cp_fold` combines the spectra in place; (4)
    inverse-transform the combined spectrum into real row 0.

    A CP gain whose r real rows of length L take more than `_BATCH_BYTES`
    streams instead (`stream_lengths`), and keeps no real row of length
    L: `_cp_stream` weights each fiber row into one (1, m) row and
    transforms it at length q*M, from one real and (q-1)/2 complex
    transforms of length M ~ m (a radix-q split, `split_lengths`; at
    d = 2, q = 1 and M = L), and folds the spectra one row at a time;
    `_split_inverse` then inverts the total from transforms of length M
    too, into the bytes of a spectrum row that the fold has spent, and
    the total's own.  At full support on D = 3, N = 2^17, q = 3 and
    M = 2^17: a spectrum row is 3 MiB and the weighted row 1 MiB.

    (5) index sum k of d sizes sits at column k - d, so columns 0..top-d
    give p_d..p_top, times the kernel's scale, with top = min(R, d*m); p
    is allocated after the transforms, so it never coexists with the
    weighted rows of a stream.  The largest index sum fills column
    d(m-1), and both L = `fft_length(d, m)` and the stream's q*M keep
    every column alias-free.  Every other entry of p is an exact 0.0; so
    is all of p for an all-zero state, which skips the transforms.  The
    buffers are fresh per call; `_pin_malloc_thresholds` keeps their
    pages in the process between calls.

    A split gain's bits differ from the batched shape's by roundoff: it
    transforms at q*M with twiddles of its own, not at L in one `rfft`.
    At q = 1 (every d = 2) a streamed gain has the batched bits: a row
    transformed alone has the bits it has in one call over all rows, and
    `_cp_stream` runs `_cp_fold`'s operations in `_cp_fold`'s order.
    Every step runs in the calling thread, so the output is bitwise the
    same for every worker count.
    """
    order = _check_pair(kernel, state)
    fibers = kernel.fibers
    n = state.n
    occupied = state.occupied_size
    top = min(n.size, order * occupied)
    if top < order:
        return np.zeros(n.size)
    _pin_malloc_thresholds()
    tt = isinstance(kernel, TTKernel)
    rows = len(fibers)
    # a symmetrized kernel's d! slot orders each give the same
    # convolution, which cancels the gain's 1/d!
    scale = 1.0 if isinstance(kernel, SymmetrizedCPKernel) else 1.0 / math.factorial(order)
    stream = None if tt else stream_lengths(order, rows, occupied)
    if stream:
        radix, block = stream
        folded, spent = _cp_stream(fibers, n[:occupied], order, radix, block)
        p = np.zeros(n.size)
        _split_inverse(folded, spent, radix, block, scale, p[order - 1 : top])
        return p
    length = fft_length(order, occupied)
    real = np.empty((rows, length))
    real[:, occupied:] = 0.0
    spectra = np.empty((rows, length // 2 + 1), dtype=np.complex128)
    np.multiply(fibers[:, :occupied], n[:occupied], out=real[:, :occupied])
    _fft.rfft(real, axis=1, out=spectra)
    folded = _tt_fold(spectra, kernel.ranks) if tt else _cp_fold(spectra, order)
    _fft.irfft(folded, n=length, out=real[0])
    p = np.zeros(n.size)
    np.multiply(real[0, : top - order + 1], scale, out=p[order - 1 : top])
    return p


def _twiddles(count: int, shift: int, length: int, sign: float, factor: float = 1.0):
    """Tables (fine, coarse) of the twiddles factor * exp(sign * 2 pi i *
    shift * n / length), n < count: with w = len(fine), the twiddle of n
    is fine[n % w] * coarse[n // w], so a row's twiddles are never held
    at its length.  Phases are reduced modulo `length` in integers."""
    width = max(1, math.isqrt(count))
    turn = sign * 2j * math.pi / length
    fine = np.exp(turn * (shift * np.arange(width) % length))
    coarse = np.exp(turn * (shift * width * np.arange(-(-count // width)) % length))
    coarse *= factor
    return fine, coarse


def _twist(src, dst, tables) -> None:
    """dst[n] = src[n] times its twiddle from `_twiddles` `tables`, for
    n < src.size; `src` may be `dst`.

    The two broadcast products run with ufunc buffers of 512 items: at
    numpy's default of 8192 they buffer 128-256 KiB, and at M = 2^17
    (2-core Xeon) took 0.35-0.50 ms against 0.23-0.33 ms.
    """
    fine, coarse = tables
    count, width = src.size, fine.size
    whole = count - count % width
    blocks = dst[:whole].reshape(-1, width)
    with np.errstate():  # restores the buffer size on exit
        np.setbufsize(512)
        np.multiply(src[:whole].reshape(-1, width), fine, out=blocks)
        np.multiply(blocks, coarse[: len(blocks), None], out=blocks)
    if whole < count:
        np.multiply(src[whole:], fine[: count - whole] * coarse[len(blocks)], out=dst[whole:count])


def _split_inverse(total, spent, radix: int, block: int, scale: float, out) -> None:
    """Write `scale` times the first `out.size` values of the inverse
    transform of length L = radix * block of `total`, a half spectrum in
    `_cp_stream`'s bin order, into `out`; `total` is overwritten, and
    `spent`, a spectrum row whose values are no longer needed, receives
    the real block transform.

    With y[n] = (1/L) sum_j Y[j] exp(2 pi i j n / L) and n = t*M + r,
    the bins j = q*k + s give y[n] = (a[r] + sum_s 2 Re(exp(2 pi i s n /
    L) c_s[r])) / q, where a is `irfft` of the bins q*k and c_s `ifft` of
    the bins q*k + s, both of length M, s = 1..(q-1)/2: the bins of
    s > q/2 are the conjugates of those of q - s.  a lands in the first
    M floats of `spent` and each c_s in place of its bins; at full
    support (D = 3, N = 2^17, 2-core Xeon) an `ifft` of length M took
    2.5-2.6 ms in place and 3.2-4.1 ms into another row.  At q = 1, y is
    `irfft` of length M, the inverse of the batched path.
    """
    length = radix * block
    half = block // 2 + 1
    count = out.size
    real = spent.view(np.float64)[:block]
    _fft.irfft(total[:half], n=block, out=real)
    parts = []
    for shift in range(1, (radix + 1) // 2):
        start = half + (shift - 1) * block
        part = total[start : start + block]
        _ifft_c2c(part, out=part)
        part = part[: min(block, count)]
        _twist(part, part, _twiddles(part.size, shift, length, 1.0, 2.0))
        parts.append(part)
    for start in range(0, count, block):
        dest = out[start : start + block]
        width = dest.size
        acc = real[:width]
        for shift, part in enumerate(parts, 1):
            if start:
                # the next block of n turns the phase by exp(2 pi i s / q)
                np.multiply(part[:width], cmath.exp(2j * math.pi * shift / radix), out=part[:width])
            np.add(acc, part[:width].real, out=dest)
            acc = dest
        np.multiply(acc, scale / radix, out=dest)


# ---------------------------------------------------------------------------
# tensor-train fast paths
# ---------------------------------------------------------------------------

def _tt_fold(spectra, ranks):
    # per bin, chain the cores' R_prev x R_next spectral matrices left to
    # right into a scalar, in place in each core's rows: row (rp, rn)
    # becomes v[rp] S[rp, rn], and row (0, rn) adds them up over rp in
    # order and becomes the next v[rn]; the first core's rows are v
    v = spectra[: ranks[1]]
    start = ranks[1]
    for r_prev, r_next in zip(ranks[1:-1], ranks[2:]):
        core = spectra[start : start + r_prev * r_next].reshape(r_prev, r_next, -1)
        start += r_prev * r_next
        for rn in range(r_next):
            np.multiply(v[0], core[0, rn], out=core[0, rn])
            for rp in range(1, r_prev):
                np.multiply(v[rp], core[rp, rn], out=core[rp, rn])
                np.add(core[0, rn], core[rp, rn], out=core[0, rn])
        v = core[0]
    return v[0]


def rhs_tt_P(
    kernel: TTKernel, state: ConcentrationState, plan: ExecutionPlan | None = None
) -> np.ndarray:
    """Gain vector through the TT kernel, O(N d R^2 log N).

    Each of the R_prev * R_next fibers core[rp, :, rn] of every core
    (`TTKernel.fibers`) is weighted by the concentrations and transformed;
    per frequency bin the spectral matrices chain into a scalar, and one
    inverse transform gives the index-sum convolution, scaled by 1/d!.
    See `_fft_gain` for the layout and the alias-free transform length.
    """
    return _fft_gain(kernel, state)


def rhs_tt_Q(
    kernel: TTKernel, state: ConcentrationState, plan: ExecutionPlan | None = None
) -> np.ndarray:
    """Loss vector through the TT kernel, O(m R^2 d).

    With V_lam[rp, rn] = sum_i core_lam[rp, i, rn] n_i over the occupied
    sizes, the moments of every fiber row but the last core's come from
    one matrix-vector product with the kernel's fiber rows; the first d-1
    cores' blocks chain into a vector over the last internal rank, and
    one more matrix-vector product with the last core's rows gives the
    per-size tail.  Valid for symmetric kernels, where fixing the particle
    size at the last mode loses no generality.  Moments and tail run over
    the occupied sizes 1..m only; q_k is an exact 0.0 for k > m.
    """
    d = _check_pair(kernel, state)
    occupied = state.occupied_size
    n = state.n[:occupied]
    ranks = kernel.ranks
    fibers = kernel.fibers[:, :occupied]
    last_core = len(fibers) - ranks[d - 1]  # its R_{d-1} rows end `fibers`
    moments = map_blocked(
        occupied,
        plan.workers if plan is not None else 1,
        lambda lo, hi: np.dot(fibers[:last_core, lo:hi], n[lo:hi]),
    )
    w = moments[: ranks[1]]
    start = ranks[1]
    for r_prev, r_next in zip(ranks[1 : d - 1], ranks[2:d]):
        w = w @ moments[start : start + r_prev * r_next].reshape(r_prev, r_next)
        start += r_prev * r_next
    # the tail is formed in the head of q, then scaled there by `_loss`
    q = np.zeros(state.n.size)
    tail = q[:occupied]
    np.dot(w, fibers[last_core:], out=tail)
    return _loss(n, tail, math.factorial(d - 1), q)


# ---------------------------------------------------------------------------
# CP fast paths
# ---------------------------------------------------------------------------

def _cp_fold(spectra, order: int):
    # per bin, multiply each rank's d mode spectra in mode order into the
    # rank's first row, and add the ranks in order into row 0
    total = spectra[0]
    for start in range(0, len(spectra), order):
        product = spectra[start]
        for spec in spectra[start + 1 : start + order]:
            np.multiply(product, spec, out=product)
        if start:
            np.add(total, product, out=total)
    return total


def _cp_stream(fibers, head, order: int, radix: int, block: int):
    """`_cp_fold` of a CP gain's half spectra of length L = radix * block
    (`split_lengths`), one fiber row at a time: the folded total, and a
    spectrum row the fold has spent, whose bytes the caller may reuse.

    Each row is weighted by the occupied sizes' concentrations `head`
    into one (1, m) row x, m <= M = block, and transformed by a first
    decimation-in-frequency step of radix q = radix: the bins X[q*k] are
    `rfft(x, n=M)`, k = 0..M//2, and the bins X[q*k + s], k = 0..M-1,
    are the complex `fft` of length M of x[n] exp(-2 pi i s n / L), for
    s = 1..(q-1)/2, taken in place in the spectrum row.  The bins of
    s > q/2 mirror those of q - s as conjugates and are never formed, so
    a row holds the L // 2 + 1 values of a half spectrum, in the order
    (s = 0, 1, ..., (q-1)/2), and the fold's products and rank sums run
    on it as on `rfft` output.  At full support, D = 3, N = 2^17, M is
    2^17, and a length-M transform works in the 2 MB L2 cache that a
    length-3M one falls out of: in such gains on a 2-core Xeon an `rfft`
    at L = 393216 took 7.6-8.6 ms per row, and at M an `rfft` took
    1.9-2.5 ms and an in-place complex `fft` 2.5-3.5 ms.

    Rows are folded as their spectra arrive.  The last row of `spectra`
    holds the total (first rank 0's product), row 1 a later rank's
    product (absent at rank 1), and row 0 receives every mode >= 1 and
    is the spent row.  Row 0 lies below the total, so `_split_inverse`'s
    `irfft` into it lands below its input; written 3 MiB + 16 bytes above
    its input instead (full support, D = 3, N = 2^17, 2-core Xeon), an
    inverse took 0.7-1.0 ms longer, of 8-10 ms.
    """
    rows, occupied = len(fibers), head.size
    length = radix * block
    half = block // 2 + 1
    spectra = np.empty((2 if rows == order else 3, length // 2 + 1), dtype=np.complex128)
    weighted = np.empty((1, occupied))
    total = spectra[-1]
    tables = [_twiddles(occupied, s, length, -1.0) for s in range(1, (radix + 1) // 2)]
    for row in range(rows):
        mode = row % order
        out = spectra[:1] if mode else spectra[1:2] if row else spectra[-1:]
        np.multiply(fibers[row : row + 1, :occupied], head, out=weighted)
        _fft.rfft(weighted, n=block, axis=1, out=out[:, :half])
        for shift, twiddles in enumerate(tables, 1):
            start = half + (shift - 1) * block
            bins = out[:, start : start + block]
            _twist(weighted[0], bins[0, :occupied], twiddles)
            bins[:, occupied:] = 0.0
            _fft_c2c(bins, axis=1, out=bins)
        if not mode:
            product = out[0]
        else:
            np.multiply(product, out[0], out=product)
            if mode == order - 1 and row >= order:
                np.add(total, product, out=total)
    return total, spectra[0]


def rhs_cp_P(
    kernel: CPKernel | SymmetrizedCPKernel,
    state: ConcentrationState,
    plan: ExecutionPlan | None = None,
) -> np.ndarray:
    """Gain vector through a CP or symmetrized CP kernel, O(N d R log N).

    Each rank contributes an ordinary d-fold convolution of its weighted
    factor columns; spectra multiply elementwise (scalars per bin, no
    matrix chain), are summed over ranks, and a single inverse transform
    recovers the truncated gain (layout and length as in `_fft_gain`).  A
    CP kernel's gain carries the 1/d! of the gain sum; a symmetrized
    kernel's d! slot orders each contribute the same convolution, which
    cancels it, so its weight is 1.
    """
    return _fft_gain(kernel, state)


def rhs_cp_Q(
    kernel: CPKernel | SymmetrizedCPKernel,
    state: ConcentrationState,
    plan: ExecutionPlan | None = None,
) -> np.ndarray:
    """Loss vector through a CP or symmetrized CP kernel, O(m d R).

    With S_{m,r} = sum_i f_{m,r}(i) n_i over the occupied sizes, all d*R
    moments come from one matrix-vector product with the kernel's fiber
    rows.  CP: the moments of the first d-1 factors multiply into per-rank
    scalars and the last factor supplies the per-size tail, which assumes
    a symmetric kernel.  Symmetrized CP: the loss is
    Q_k = -n_k sum_r sum_m f_{m,r}(k) prod_{m' != m} S_{m',r}, one more
    matrix-vector product; the (d-1)! orders of the other slots cancel
    the 1/(d-1)!, and no symmetry is assumed.  Moments and tail run over
    the occupied sizes 1..m only; q_k is an exact 0.0 for k > m.
    """
    d = _check_pair(kernel, state)
    occupied = state.occupied_size
    n = state.n[:occupied]
    fibers = kernel.fibers[:, :occupied]
    # S[c] = sum_i fibers[c, i] * n_i for every fiber row c, in one BLAS
    # matrix-vector product; numpy's own matmul loop, which `@` takes for
    # an (m, 1) factor, took 0.94 ms against 0.095 ms at m = 2^17 (2-core
    # Xeon)
    moments = map_blocked(
        occupied,
        plan.workers if plan is not None else 1,
        lambda lo, hi: np.dot(fibers[:, lo:hi], n[lo:hi]),
    ).reshape(-1, d)
    # the tail is formed in the head of q, then scaled there by `_loss`
    q = np.zeros(state.n.size)
    tail = q[:occupied]
    if isinstance(kernel, SymmetrizedCPKernel):
        # others[r * d + m] = prod_{m' != m} S[m', r], the modes in order
        others = [
            math.prod(row[:m] + row[m + 1 :])
            for row in moments.tolist()
            for m in range(d)
        ]
        np.dot(others, fibers, out=tail)
        return _loss(n, tail, 1.0, q)
    np.dot(moments[:, : d - 1].prod(axis=1), fibers[d - 1 :: d], out=tail)
    return _loss(n, tail, math.factorial(d - 1), q)


# ---------------------------------------------------------------------------
# combined right-hand side
# ---------------------------------------------------------------------------

def rhs_gain_loss(
    kernel, state: ConcentrationState, plan: ExecutionPlan | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Gain and loss of one kernel through the fastest path its
    representation allows: TT, CP and symmetrized CP kernels use the
    FFT-accelerated operators, dense kernels the direct sums."""
    # the run-time form of analytic kernels first
    if isinstance(kernel, (SymmetrizedCPKernel, CPKernel)):
        return rhs_cp_P(kernel, state, plan), rhs_cp_Q(kernel, state, plan)
    if isinstance(kernel, TTKernel):
        return rhs_tt_P(kernel, state, plan), rhs_tt_Q(kernel, state, plan)
    if isinstance(kernel, DenseKernel):
        return rhs_dense_P(kernel, state), rhs_dense_Q(kernel, state)
    raise KernelError(f"unsupported kernel representation {type(kernel).__name__}")


def rhs_total(
    kernels: KernelSet,
    state: ConcentrationState,
    plan: ExecutionPlan | None = None,
) -> RhsResult:
    """Sum of gain and loss over every configured collision order, each
    through rhs_gain_loss, over the sizes 1..R of the state (R <= N)."""
    if state.n.size > kernels.n_classes:
        raise KernelError(
            f"state has {state.n_classes} sizes, more than the kernel set's "
            f"N = {kernels.n_classes}"
        )
    first, *rest = kernels._by_order
    # every operator returns fresh vectors, so the lowest order's become
    # the sums and higher orders add into them
    p, q = rhs_gain_loss(first, state, plan)
    for kernel in rest:
        p_d, q_d = rhs_gain_loss(kernel, state, plan)
        p += p_d
        q += q_d
    return RhsResult(p, q)
