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
large for one, streamed one row at a time through a four-step split L =
q*B into q // 2 + 1 classes of bins, each transformed at the block
length B (4096 above L = 2^15, so every transform stays in cache),
folded as the rows arrive and inverted once.
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
    sizes (O(m**d)).

    The weighted m**d block collapses its last two axes into their index
    sum, one axis at a time, so entry s of the last vector sums the
    tuples whose 0-based indices add to s; no grid of index sums is
    held, and after the block itself the largest buffer has about
    2 m**(d-1) values."""
    d = _check_pair(kernel, state)
    _check_budget(kernel.n_classes, d)
    occupied = state.occupied_size
    top = min(state.n_classes, d * occupied)
    p = np.zeros(state.n_classes)
    if top < d:
        return p
    n = state.n[:occupied]
    head = (slice(0, occupied),) * d
    sums = kernel.values[head].copy()
    for axis in range(d):
        shape = [1] * d
        shape[axis] = occupied
        sums *= n.reshape(shape)
    for _ in range(d - 1):
        *lead, rows, width = sums.shape
        collapsed = np.zeros((*lead, rows + width - 1))
        for row in range(rows):
            collapsed[..., row : row + width] += sums[..., row, :]
        sums = collapsed
    p[d - 1 : top] = sums[: top - d + 1] / math.factorial(d)
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
# direction 6 makes `run_blocked` the fan-out of a gain's rows over
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
    buffers (at full support a 3 MiB spectrum, 2 MiB of weighted blocks
    and a 1 MiB scratch, see `_fft_gain`), that scratch and the step's
    1 MB vectors then go back to the kernel after a call and are faulted
    back in on a later one.  On the D = 3, N = 2^17 full-support problem
    (`resource.getrusage`, 2-core Xeon, glibc 2.36) warm 2-step solutions
    of an earlier layout took 1,025-5,503 minor faults each with default
    thresholds (0-2,529 when a gain held whole half-spectrum rows,
    6,533-7,555 when it transformed at L = 393216), and with these fixed
    thresholds of 32 MiB
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


# The split of a streamed gain (`gain_path`, `_cp_stream`), which
# transforms at L = q * B.  Up to L = `_SINGLE_LENGTH` it keeps one
# block: q = d for odd d and d - 1 for even d, and B the smallest
# 5-smooth length with q * B >= d(m-1) + 1.  Above it B = `_BLOCK` and
# q = ceil((d(m-1) + 1) / B), so no transform runs past B.  Measured on
# a 2-core Xeon (2 MiB L2 per core) with numpy 2.4.6, in-process against
# the one-block split on full-support Brownian gains (`BENCH_27.json`):
# a complex `fft` of 2^17 took about twice the time per n log2 n of a
# batch of length 8192, because its row and pocketfft's scratch spill
# L2.  With B = 4096 a D = 3, N = 2^17 gain took 0.72-0.78x the parent's
# time (0.80-0.82x at B = 8192 and 16384, 0.85-0.86x at 2048).  Forced
# into blocks, d = 2 gains lost up to 1.11x at L <= 2^15 and won from
# 49152 on, and d = 3 and 4 won from L = 32805-36864 on, so one block is
# kept up to L = 2^15; at d = 5 one block stayed ahead up to L = 81920
# (0.81x against 0.86x), which the one bound gives up.  A row's classes
# are transformed `_GROUP_BYTES` of spectrum at a time into a scratch:
# at 256 KiB a D = 3, N = 2^17 gain took 1.1-1.2x, and at 128 KiB
# 1.4-1.8x, the time it took at 1 MiB, and a whole half spectrum was no
# faster than 1 MiB and held 2 MiB more.
_BLOCK = 4096
_SINGLE_LENGTH = 1 << 15
_GROUP_BYTES = 1 << 20


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
    "streamed FFT", at the radix q and block length B set next to
    `_BLOCK`.  A gain direct at m is direct at J <= m too, so the first
    test only spares the lattice scan.
    """
    return _gain_rule(kernel, state)[0]


def stream_split(kernel, state: ConcentrationState) -> tuple[int, int] | None:
    """The radix q and block length B, L = q * B, at which a gain that
    `gain_path` streams transforms (see `_BLOCK`), or None for a gain
    that does not stream."""
    return _gain_rule(kernel, state)[2]


def _gain_rule(kernel, state: ConcentrationState):
    # `gain_path`'s rule: the path, the lattice (first, stride) whose
    # columns the gain reads, (1, 1) for a gain direct at m, and for a
    # streamed gain its split (q, B), else None
    order, rows, occupied = kernel.dimension, len(kernel.fibers), state.occupied_size
    cp = not isinstance(kernel, TTKernel)
    if cp and convolves_directly(order, rows // order, occupied):
        return "direct", (1, 1), None
    first, stride = state.size_lattice
    count = (occupied - first) // stride + 1
    if cp and convolves_directly(order, rows // order, count):
        return "direct", (first, stride), None
    if not cp or 8 * fft_length(order, count) * rows <= _BATCH_BYTES:
        return "batched FFT", (first, stride), None
    bound = order * (count - 1) + 1
    radix = order if order % 2 else order - 1
    block = _fast_length(-(-bound // radix))
    if radix * block > _SINGLE_LENGTH:
        radix, block = -(-bound // _BLOCK), _BLOCK
    return "streamed FFT", (first, stride), (radix, block)


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

    "streamed FFT" runs `_cp_stream`, which splits the transform at L =
    q * B (the rule's split) into one real and q // 2 complex transforms
    of length B per row, one per class of bins, folds each row's classes
    into the running spectrum as they arrive and inverts them once: at
    full support on D = 3, N = 2^17 (q = 96, B = 4096) it holds the
    folded half spectrum, 3.0 MiB, the weighted row as 32 complex blocks,
    2 MiB, a 1 MiB scratch and p, 1 MiB.  Its bits differ from the
    batched shape's by roundoff, except at q = 1, where it runs the
    batched shape's operations in their order.

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
    path, (first, stride), split = _gain_rule(kernel, state)
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
        _cp_stream(fibers, head, order, *split, scale, out, p)
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


@lru_cache(maxsize=32)
def _block_dft(radix: int, blocks: int):
    """The (q // 2, nblk) block-DFT matrix exp(-2 pi i s t / q) of a
    streamed gain's classes s = 1..q // 2 and blocks t < nblk (q =
    `radix`, nblk = `blocks`), phases reduced modulo q in integers;
    read-only and cached, like `_twiddles`."""
    turns = np.arange(1, radix // 2 + 1)[:, None] * np.arange(blocks) % radix
    matrix = np.exp(-2j * math.pi / radix * turns)
    matrix.setflags(write=False)
    return matrix


@lru_cache(maxsize=32)
def _unfold_matrix(radix: int, outputs: int):
    """The (nout, q // 2) matrix e_s exp(2 pi i s t / q) / q that unfolds
    the inverted classes s = 1..q // 2 into the output blocks t < nout
    (q = `radix`, nout = `outputs`; e_s = 1 for the class q/2 of even q,
    2 otherwise, `_cp_stream`); read-only and cached."""
    weights = np.full(radix // 2, 2.0 / radix)
    if radix % 2 == 0:
        weights[-1] /= 2.0
    turns = np.arange(outputs)[:, None] * np.arange(1, radix // 2 + 1) % radix
    matrix = np.exp(2j * math.pi / radix * turns) * weights
    matrix.setflags(write=False)
    return matrix


@lru_cache(maxsize=32)
def _twiddles(classes: int, block: int, length: int, sign: float = -1.0):
    """Tables (fine, coarse) of the twiddles exp(sign * 2 pi i * s * c /
    L) of the bin classes s = 1..`classes` at columns c < B (B = `block`,
    L = `length`): with w the largest divisor of B at most sqrt(B), the
    twiddle of (s, c) is fine[s-1, 0, c % w] * coarse[s-1, c // w, 0], so
    no (classes, B) table is held.  Phases are reduced modulo L in
    integers.  Read-only, and cached: a run's gains meet a handful of
    splits."""
    width = max(w for w in range(1, math.isqrt(block) + 1) if block % w == 0)
    shifts = np.arange(1, classes + 1)[:, None]
    turn = sign * 2j * math.pi / length
    fine = np.exp(turn * (shifts * np.arange(width) % length))[:, None, :]
    coarse = np.exp(turn * (shifts * width * np.arange(block // width) % length))[:, :, None]
    for table in (fine, coarse):
        table.setflags(write=False)
    return fine, coarse


def _twist(src, dst, tables) -> None:
    """dst[s-1, c] = src[..., c] times the twiddle of (s, c) from
    `_twiddles` `tables`, for the columns c of `src`, and 0.0 in the
    columns of `dst` past them; `src` may be `dst`, or one row that every
    class shares.

    The broadcast products run with ufunc buffers of 512 items: at
    numpy's default of 8192 they buffer 128-256 KiB, and at (24, 8192)
    (2-core Xeon) took 0.56 ms against 0.46 ms.
    """
    fine, coarse = tables
    width = fine.shape[-1]
    count = src.shape[-1]
    whole = count - count % width
    # splitting the column axis of a slice is always a view
    blocks = dst[:, :whole].reshape(len(dst), -1, width)
    with np.errstate():  # restores the buffer size on exit
        np.setbufsize(512)
        np.multiply(src[..., :whole].reshape(-1, blocks.shape[1], width), fine, out=blocks)
        np.multiply(blocks, coarse[:, : blocks.shape[1]], out=blocks)
        if whole < count:
            tail = fine[:, 0, : count - whole] * coarse[:, blocks.shape[1]]
            np.multiply(src[..., whole:], tail, out=dst[:, whole:count])
    dst[:, count:] = 0.0


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


def _cp_stream(fibers, head, order: int, radix: int, block: int, scale: float, out, p) -> None:
    """Gain of an order-d CP kernel whose rows stream (`gain_path`),
    written into `out`, a view of the zeroed p: `scale` times the first
    len(out) columns of the inverse transform of length L = q * B (q =
    radix, B = block) of the (r, m) rows' folded half spectrum, which
    `_stream_spectrum` forms.

    With w_N = exp(-2 pi i / N), a = `irfft` of class 0 and z_s =
    w_L^(-s c) `ifft` of class s, both of length B, the real inverse is

        y[t*B + c] = (a[c] + sum_s e_s Re(w_q^(-s t) z_s[c])) / q,

    e_s = 1 for the class q/2 of even q and 2 otherwise: one (nout, q //
    2) matrix product for the nout = ceil(len(out) / B) blocks of `out`,
    over the columns c < min(B, len(out)) that `out` reaches.  At q = 1,
    y is a.
    """
    half = block // 2 + 1
    total = _stream_spectrum(fibers, head, order, radix, block, p)
    # the columns of one block that `out` reaches
    columns = min(block, out.size)
    base = _fft.irfft(total[:half], n=block)[:columns]
    if radix == 1:
        np.multiply(base, scale, out=out)
        return
    np.multiply(base, scale / radix, out=base)
    rest = total[half:].reshape(-1, block)
    _ifft_c2c(rest, axis=1, out=rest)
    rest = rest[:, :columns]
    _twist(rest, rest, _twiddles(len(rest), block, radix * block, 1.0))
    unfolded = np.matmul(_unfold_matrix(radix, -(-out.size // block)) * scale, rest).real
    for start, part in zip(range(0, out.size, block), unfolded):
        dest = out[start : start + block]
        np.add(part[: dest.size], base[: dest.size], out=dest)


def _stream_spectrum(fibers, head, order: int, radix: int, block: int, p):
    """The folded half spectrum of length L = q * B (q = radix, B = block)
    of a streamed CP gain's (r, m) `fibers` weighted by `head`, as one
    complex vector: class 0's B // 2 + 1 bins, then the B bins of each
    class s = 1..q // 2 in turn.

    Four-step (Bailey, J. Supercomputing 4, 1990): column n = t*B + c of
    a row x lies in block t < nblk = ceil(m / B), and its bin j = q*k + s
    in class s, so with w_N = exp(-2 pi i / N)

        X[q*k + s] = sum_c w_B^(k c) w_L^(s c) sum_t w_q^(s t) x_t[c].

    Class 0, k <= B // 2, is `rfft` of the block sum.  Classes s >= 1 are
    the complex `fft` of the (q // 2, nblk) block-DFT matrix w_q^(s t)
    times the (nblk, B) blocks, each twisted by w_L^(s c) (`_twist`); one
    block's matrix is a column of ones, so there every class twists the
    row itself.  Bins of s > q/2 are the conjugates of those of q - s and
    are never formed; at even q, class q/2 is its own mirror.

    Each row is weighted once, into p's head for one block (zeroed again
    before the return) and into complex blocks otherwise, and its
    classes are transformed `_GROUP_BYTES` at a time and folded bin by
    bin into the running spectrum by `_cp_fold`'s products and rank sums
    in its order.  The first row of a rank is transformed into the
    running spectrum itself (a second one for ranks after the first),
    every later mode into a scratch of one group.
    """
    count = head.size
    half = block // 2 + 1
    classes = radix // 2
    blocks = -(-count // block)
    if blocks == 1:
        # `rfft` pads class 0 to B, and `_twist` zeroes the other classes
        # past the row
        row, weighted, forward = p[:count], None, None
    else:
        weighted = np.zeros((blocks, block), np.complex128)
        row = weighted.real.reshape(-1)[:count]
        forward = _block_dft(radix, blocks)
    fine, coarse = _twiddles(classes, block, radix * block)
    group = max(1, _GROUP_BYTES // (16 * block))
    pieces = [(0, half)] + [
        (half + start * block, half + min(start + group, classes) * block)
        for start in range(0, classes, group)
    ]
    total = np.empty(pieces[-1][1], np.complex128)
    later = np.empty(total.size, np.complex128) if len(fibers) > order else None
    scratch = np.empty(max(hi - lo for lo, hi in pieces), np.complex128)
    for index, fiber in enumerate(fibers):
        mode = index % order
        product = later if index >= order else total
        np.multiply(fiber, head, out=row)
        for lo, hi in pieces:
            spec = scratch[: hi - lo] if mode else product[lo:hi]
            if not lo:
                _fft.rfft(row if blocks == 1 else weighted.real.sum(axis=0), n=block, out=spec)
            else:
                rows = spec.reshape(-1, block)
                first = (lo - half) // block
                span = slice(first, first + len(rows))
                if blocks > 1:
                    np.matmul(forward[span], weighted, out=rows)
                _twist(rows if blocks > 1 else row, rows, (fine[span], coarse[span]))
                _fft_c2c(rows, axis=1, out=rows)
            if mode:
                np.multiply(product[lo:hi], spec, out=product[lo:hi])
                if mode == order - 1 and product is later:
                    np.add(total[lo:hi], later[lo:hi], out=total[lo:hi])
    if blocks == 1:
        row[:] = 0.0
    return total


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
