"""Gain and loss operators for simultaneous d-particle aggregation.

For each collision order d the gain vector collects, with weight 1/d!,
all d-tuples of sizes summing to k; the loss vector drains size k in
proportion to its concentration and the (d-1)-fold contraction of the
kernel with the state, weighted 1/(d-1)!.  Dense implementations cost
O(m**d) and serve as ground truth.  A tensor-train or CP gain runs the
path `gain_path` picks from the kernel and the state (`_fft_gain`): a
small CP gain convolves each rank's d weighted fiber rows directly
(`np.convolve`), which costs less than a transform's fixed cost and is
exact to a few ulps in every component, where an FFT's roundoff is
relative to the largest entry of p; every other gain transforms the
kernel's own fiber rows, weighted with size i stored at slot i-1 and
zero-padded to an alias-free length L of at least d(m-1) + 1, in
buffers allocated per call, all rows in one call or, for a CP gain too
large for one, streamed one row at a time through transforms of length
M ~ m (radix q, L = q*M), folded and inverted one class of q bins at a
time, so it holds no real row of length L and no whole half spectrum.
The loss takes two matrix-vector products with the same fiber rows, for
O(m log m) work per rank pair.
Here m is the state's occupied size, the largest k with n_k != 0: sizes
above m contribute nothing, so every path reads sizes 1..m only and
returns exact zeros where the sums are empty (gain above min(R, d*m),
loss above m).  A gain not direct at m reads only the sizes of the
state's lattice first + stride*j (`gain_path`), and every other size of
p is an exact zero.

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

    @cached_property
    def size_lattice(self) -> tuple[int, int]:
        """(first, stride) with every occupied size first + stride*j
        (`_size_lattice`)."""
        return _size_lattice(self.n, self.occupied_size)


def _last_nonzero_size(n: np.ndarray) -> int:
    # 1-based index of the last nonzero entry, 0 if there is none
    if n.size == 0 or n[-1] != 0:
        return n.size
    nonzero = n[::-1] != 0
    last = int(np.argmax(nonzero))  # first True from the end
    return n.size - last if nonzero[last] else 0


def _size_lattice(n: np.ndarray, occupied: int) -> tuple[int, int]:
    """(first, stride) of the occupied sizes 1..m of n: the smallest,
    and the gap to the next if every one is first + stride*j, else 1;
    (1, 1) for none.  (1, 1) at once when sizes 1 and 2 are occupied,
    else one scan and one `count_nonzero` over n[first-1:m:stride]."""
    if occupied < 2 or (n[0] and n[1]):
        return 1, 1
    sizes = np.flatnonzero(n[:occupied])
    first = int(sizes[0]) + 1
    if sizes.size == 1:
        return first, 1
    stride = int(sizes[1] - sizes[0])
    if np.count_nonzero(n[first - 1 : occupied : stride]) != sizes.size:
        stride = 1
    return first, stride


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
    near the size of pocketfft's per-transform scratch.  A gain's per-call
    buffers (at full support two class rows of 2 MiB each and a 1 MiB
    weighted row, see `_fft_gain`), that scratch and the step's 1 MB
    vectors then go back to the kernel after a call and are faulted back
    in on a later one.  On the D = 3, N = 2^17 full-support problem
    (`resource.getrusage`, 2-core Xeon, glibc 2.36) warm 2-step solutions
    took 1,025-5,503 minor faults each with default thresholds (0-2,529
    when a gain held whole half-spectrum rows, 6,533-7,555 when it
    transformed at L = 393216), and with these fixed thresholds of 32 MiB
    (mmap) and 256 MiB (trim) 257 in the second solution and 0 from the
    third on: freed blocks are reused from the heap, so no gain needs
    buffers kept between calls.  Other C libraries have no `mallopt`, and
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

# Estimated work, in multiply-adds, up to which a CP gain convolves its
# weighted rows directly (`convolves_directly`), and the fixed cost of
# one `np.convolve` call in the same unit.  Measured on a 2-core Xeon
# with numpy 2.4.6, in-process, per gain on states of d = 2..5 at ranks
# 1, 3 and 24, each path timed in alternated blocks (`BENCH_23.json`):
# a rank-1 gain took 16-20 us on the FFT path at m <= 16, mostly the
# fixed cost of two `numpy.fft` calls and the fold, and 6-12 us direct;
# the direct chain costs about 0.2-0.5 ns per multiply-add and 1-3 us
# per call, so at rank 24, with 24(d - 1) calls, the FFT wins from m = 2
# on.  At rank 1 the FFT first won at m = 256, 128-160 and 96-128 for
# d = 3, 4 and 5 (100-200k multiply-adds), and not up to m = 256 at
# d = 2.  With these two constants no cell of the grid that goes direct
# was more than 5% slower than its FFT path (at worst 1.02x, rank 3 at
# d = 5, m = 12); the bound gives up some cells where direct was faster
# (rank 1 at d = 2, m = 256, or rank 24 at m = 1).
_DIRECT_WORK = 60_000
_CONVOLVE_CALL = 4_600


def convolves_directly(order: int, rank: int, occupied: int) -> bool:
    """True if `_fft_gain` computes an order-d CP gain of `rank` ranks on a
    state with occupied size m by direct convolution of its weighted rows.

    Each rank's chain convolves its j-th partial product, of length
    j(m-1) + 1, with a row of m values, so it makes d - 1 `np.convolve`
    calls and sum_{j=1..d-1} m(j(m-1)+1) = (d-1) m((m-1)d + 2)/2
    multiply-adds.  A gain goes direct when the R chains' multiply-adds
    plus `_CONVOLVE_CALL` per call are at most `_DIRECT_WORK`.
    """
    calls = rank * (order - 1)
    # m((m-1)d + 2) is even: m(m-1) is
    per_call = occupied * ((occupied - 1) * order + 2) // 2
    return calls * (per_call + _CONVOLVE_CALL) <= _DIRECT_WORK


def gain_path(kernel, state: ConcentrationState) -> str:
    """How `_fft_gain` computes the gain of a TT, CP or symmetrized CP
    kernel of order d with r fiber rows on `state`: "direct", "batched
    FFT" or "streamed FFT".  This is the one rule for a gain's path and
    the sizes it reads, with m the state's occupied size.

    A CP gain direct at m (`convolves_directly`) is "direct" on sizes
    1..m and looks up no lattice.  Every other gain reads the J = (m -
    first) // stride + 1 sizes first + stride*j of the state's lattice
    (`ConcentrationState.size_lattice`; J = m at full support), and J
    decides: a TT gain is "batched FFT"; a CP gain is "direct" if
    `convolves_directly` at J, "batched FFT" if its r real rows of
    length `fft_length(d, J)` take at most `_BATCH_BYTES`, and otherwise
    "streamed FFT", split by `split_lengths`.  A gain direct at m is
    direct at J <= m too, so the first test only spares the lattice scan.
    """
    return _gain_rule(kernel, state)[0]


def _gain_rule(kernel, state: ConcentrationState):
    # `gain_path`'s rule: the path, and the lattice (first, stride) whose
    # columns the gain reads, (1, 1) for a gain direct at m
    order, rows, occupied = kernel.dimension, len(kernel.fibers), state.occupied_size
    cp = not isinstance(kernel, TTKernel)
    if cp and convolves_directly(order, rows // order, occupied):
        return "direct", (1, 1)
    first, stride = state.size_lattice
    count = (occupied - first) // stride + 1
    if cp and convolves_directly(order, rows // order, count):
        return "direct", (first, stride)
    streams = cp and 8 * fft_length(order, count) * rows > _BATCH_BYTES
    return "streamed FFT" if streams else "batched FFT", (first, stride)


def _fft_gain(kernel, state: ConcentrationState) -> np.ndarray:
    """Truncated order-d gain of a TT, CP or symmetrized CP kernel on the
    path `gain_path` picks, by FFT or by direct convolution.

    The kernel's (r, N) `fibers` are read in place; the state covers
    sizes 1..R, R <= N, and only its occupied sizes 1..m enter.  The gain
    reads the J = (m - first) // stride + 1 columns first-1:m:stride of
    its rows and of n, with (first, stride) from the rule ((1, 1) for a
    gain direct at m), and writes their d-fold convolution, index sum
    d*first + stride*c at column c, into p[d*first-1:top:stride], top =
    min(R, d*m); every other entry of p is an exact 0.0.  Below, m means
    J.

    "direct" convolves each rank's d weighted rows in mode order
    (`_convolve_rows`), adds the ranks in order and scales: each entry is
    exact to a few ulps, not the FFT's bits.  "batched FFT" works in an
    (r, L) array `real`, padding columns m..L-1 zeroed, and an (r, L // 2
    + 1) array `spectra`: (1) weight the m columns of every row in one
    broadcast product; (2) transform all rows in one call; (3) `_tt_fold`
    or `_cp_fold` combines the spectra in place; (4) invert into real row
    0; (5) its first len(view) columns times the kernel's scale fill the
    view.  The largest column is d(m-1), and L = `fft_length(d, m)` keeps
    it alias-free.

    "streamed FFT" runs `_cp_stream`, which splits the transform at q*M
    into one real and (q-1)/2 complex transforms of length M ~ m
    (`split_lengths`; at d = 2, q = 1 and M = L), one per class of bins,
    weights each row in the head of p, and folds and inverts each class
    before the next, holding no real row of length L: at full support on
    D = 3, N = 2^17 (q = 3, M = 2^17) two 2 MiB class rows and p, 1 MiB.
    Its bits differ from the batched shape's by roundoff, except at q =
    1, where `_fold_class` runs `_cp_fold`'s operations in its order.

    All of p is an exact 0.0 for an all-zero state, which skips the
    transforms.  Buffers are fresh per call (`_pin_malloc_thresholds`
    keeps their pages), and every step runs in the calling thread, so
    the output is bitwise the same for every worker count.
    """
    order = _check_pair(kernel, state)
    n = state.n
    occupied = state.occupied_size
    top = min(n.size, order * occupied)
    if top < order:
        return np.zeros(n.size)
    _pin_malloc_thresholds()
    path, (first, stride) = _gain_rule(kernel, state)
    # a symmetrized kernel's d! slot orders each give the same
    # convolution, which cancels the gain's 1/d!
    scale = 1.0 if isinstance(kernel, SymmetrizedCPKernel) else 1.0 / math.factorial(order)
    columns = slice(first - 1, occupied, stride)
    fibers, head = kernel.fibers[:, columns], n[columns]
    count = head.size
    p = np.zeros(n.size)
    out = p[order * first - 1 : top : stride]
    if path == "direct":
        _convolve_rows(fibers, head, order, scale, out)
        return p
    if path == "streamed FFT":
        _cp_stream(fibers, head, order, *split_lengths(order, count), scale, out, p[:count])
        return p
    rows = len(fibers)
    length = fft_length(order, count)
    real = np.empty((rows, length))
    real[:, count:] = 0.0
    spectra = np.empty((rows, length // 2 + 1), dtype=np.complex128)
    np.multiply(fibers, head, out=real[:, :count])
    _fft.rfft(real, axis=1, out=spectra)
    tt = isinstance(kernel, TTKernel)
    folded = _tt_fold(spectra, kernel.ranks) if tt else _cp_fold(spectra, order)
    _fft.irfft(folded, n=length, out=real[0])
    np.multiply(real[0, : out.size], scale, out=out)
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

def convolved_gain(kernel: CPKernel | SymmetrizedCPKernel, state: ConcentrationState) -> np.ndarray:
    """Gain of a CP or symmetrized CP kernel by direct convolution, whatever
    its size: the "direct" path of `gain_path` over sizes 1..m, and the
    FFT-free reference `ttagg verify` holds the transformed gains to.
    """
    order = _check_pair(kernel, state)
    n = state.n
    occupied = state.occupied_size
    top = min(n.size, order * occupied)
    if top < order:
        return np.zeros(n.size)
    scale = 1.0 if isinstance(kernel, SymmetrizedCPKernel) else 1.0 / math.factorial(order)
    p = np.zeros(n.size)
    _convolve_rows(kernel.fibers[:, :occupied], n[:occupied], order, scale, p[order - 1 : top])
    return p


def _convolve_rows(fibers, head, order: int, scale: float, out) -> None:
    # per rank, a chain of `np.convolve` over its d fiber rows `fibers`
    # weighted by the concentrations `head` (the same columns), the ranks
    # added in order, and the first len(out) columns of the sum, times
    # `scale`, written into `out`; no transform, so every entry is exact
    # to a few ulps, and an index sum no d occupied sizes reach is 0.0
    weighted = fibers * head
    total = reduce(np.convolve, weighted[:order])
    for start in range(order, len(weighted), order):
        np.add(total, reduce(np.convolve, weighted[start : start + order]), out=total)
    np.multiply(total[: out.size], scale, out=out)


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


def _fold_class(fibers, head, order: int, radix: int, block: int, shift: int, slots, weighted):
    """`_cp_fold` of bin class s = `shift` of a CP gain's half spectra of
    length L = q * M (q = radix, M = block, `split_lengths`), one fiber
    row at a time: the folded class, in slots[0].

    Each of the (r, m) `fibers` is weighted by the concentrations `head`
    into the (1, m) row x = `weighted`, m <= M, and transformed by one
    branch of a
    first decimation-in-frequency step of radix q.  Class s = 0, the
    bins X[q*k], k = 0..M//2, is `rfft(x, n=M)`; class s = 1..(q-1)/2,
    the bins X[q*k + s], k = 0..M-1, is the in-place complex `fft` of
    length M of x[n] exp(-2 pi i s n / L), taken with `_twist`.  The
    bins of s > q/2 mirror those of q - s as conjugates and are never
    formed.  `slots` are (1, M//2 + 1) rows for s = 0 and (1, M) rows
    otherwise: slots[0] holds the total (first rank 0's product),
    slots[1] receives every mode >= 1, and slots[2] a later rank's
    product (absent at rank 1).  Rows are folded as their spectra
    arrive, by `_cp_fold`'s products and rank sums in its order, bin by
    bin, so a class gets the bits it has in a fold of the whole half
    spectrum.
    """
    total, row_bins, *later = slots
    columns = head.size
    twiddles = _twiddles(columns, shift, radix * block, -1.0) if shift else None
    for row in range(len(fibers)):
        mode = row % order
        out = row_bins if mode else later[0] if row else total
        np.multiply(fibers[row : row + 1], head, out=weighted)
        if not shift:
            _fft.rfft(weighted, n=block, axis=1, out=out)
        else:
            _twist(weighted[0], out[0, :columns], twiddles)
            out[:, columns:] = 0.0
            _fft_c2c(out, axis=1, out=out)
        if not mode:
            product = out[0]
        else:
            np.multiply(product, out[0], out=product)
            if mode == order - 1 and row >= order:
                np.add(total[0], product, out=total[0])
    return total[0]


def _cp_stream(fibers, head, order: int, radix: int, block: int, scale: float, out, weighted):
    """Gain of an order-d CP kernel whose rows stream (`gain_path`),
    written into `out`: `scale` times the first len(out) columns of the
    inverse transform of length L = q * M (q = radix, M = block) of the
    (r, m) rows' folded half spectrum, formed one bin class at a time by
    `_fold_class`, which weights each row into `weighted`, m values
    zeroed before `out` is written: the head of the p `out` views.

    With y[n] = (1/L) sum_j Y[j] exp(2 pi i j n / L) and n = t*M + r,
    the bins j = q*k + s give y[n] = (a[r] + sum_s 2 Re(exp(2 pi i s n /
    L) c_s[r])) / q, where a is `irfft` of class 0 and c_s `ifft` of
    class s, both of length M, s = 1..(q-1)/2: the bins of s > q/2 are
    the conjugates of those of q - s.  Classes never mix, so each is
    folded and inverted before the next is formed: s = 1..(q-1)/2 first,
    each c_s in place of its class, then class 0, whose a goes into a
    spent slot below the total.  At full support on D = 3, N = 2^17 (q =
    3, M = 2^17) the gain holds c_1 and one class's slots, 2 MiB each,
    beside p, 1 MiB, whose head is the weighted row.  There (2-core Xeon) an
    `ifft` took 2.5-2.6 ms in place and 3.2-4.1 ms into another row, and
    the `irfft` 1.9 ms below its input and 2.6-2.9 ms written 1 MiB + 16
    bytes above it.  At q = 1 (d = 2) y is `irfft` of length M = L.
    """
    length = radix * block
    half = block // 2 + 1
    count = out.size
    classes = (radix - 1) // 2
    slots = 2 if len(fibers) == order else 3
    # class s >= 1 folds in rows s - 1.. of 2 * half >= M values and
    # leaves c_s in row s - 1; class 0 folds in half rows above the last
    stride = 2 * half
    spectra = np.empty((classes + slots - 1) * stride if classes else slots * half, np.complex128)
    weighted = weighted.reshape(1, -1)
    parts = []
    for shift in range(1, classes + 1):
        start = (shift - 1) * stride
        rows = spectra[start : start + slots * stride].reshape(slots, 1, stride)[..., :block]
        part = _fold_class(fibers, head, order, radix, block, shift, rows, weighted)
        _ifft_c2c(part, out=part)
        part = part[: min(block, count)]
        _twist(part, part, _twiddles(part.size, shift, length, 1.0, 2.0))
        parts.append(part)
    rows = spectra[classes * stride :][: slots * half].reshape(slots, 1, half)
    # the total on top, so the inverse lands below its input
    total = _fold_class(fibers, head, order, radix, block, 0, rows[::-1], weighted)
    weighted[:] = 0.0
    real = rows[0, 0].view(np.float64)[:block]
    _fft.irfft(total, n=block, out=real)
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
        # others[r * d + m] = -prod_{m' != m} S[m', r], the modes in order
        # and the loss's sign folded in: negation is exact, so q has the
        # bits of -(others' products . fibers) n; an array, since `np.dot`
        # converts a list on every call
        others = np.array([
            -math.prod(row[:m] + row[m + 1 :])
            for row in moments.tolist()
            for m in range(d)
        ])
        np.dot(others, fibers, out=tail)
        np.multiply(tail, n, out=tail)
        return q
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
