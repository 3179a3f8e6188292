"""Gain and loss operators for simultaneous d-particle aggregation.

For each collision order d the gain vector collects, with weight 1/d!,
all d-tuples of sizes summing to k; the loss vector drains size k in
proportion to its concentration and the (d-1)-fold contraction of the
kernel with the state, weighted 1/(d-1)!.  Dense implementations cost
O(N**d) and serve as ground truth; the tensor-train and CP paths push
the gain through one shared FFT scaffold (`_fft_gain`: weighted fibers,
size i stored at slot i-1, zero-padded to an alias-free length of at
least d(m-1) + 1, in buffers the calling thread keeps between calls)
and the loss through mode contractions, for O(m log m) work per rank
pair.  Here m <= N is the state's occupied size,
the largest k with n_k != 0: sizes above m contribute nothing, so the
fast paths read sizes 1..m only and return exact zeros where the sums
are empty (gain above min(N, d*m), loss above m).  A
symmetrized CP kernel sums the plain CP form over all d! slot orders;
every order gives the same index-sum convolution, so its gain is one
d-fold convolution with weight 1, and its loss is a closed form in
d moments of the state per rank.
"""

from __future__ import annotations

import ctypes
import math
import threading
from dataclasses import dataclass
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
from .parallel import SERIAL_PLAN, ExecutionPlan

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

# Largest sampled relative violation a KernelSet accepts as symmetric.
_SYMMETRY_TOL = 1e-8


@dataclass(frozen=True)
class ConcentrationState:
    """Per-size mean concentrations n_1..n_N at time t.

    Entries must be finite; negative values are allowed here and watched
    by the integrator.
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
    def _from_head(cls, head: np.ndarray, n_classes: int, t: float):
        """The state (head, 0, ..., 0) of length `n_classes`, built by the
        integrator from a fresh float64 head that it hands over.

        A full-length head becomes the state's array with no copy.  Every
        size above the head is an exact zero by construction, so the
        finiteness check and the occupied-size scan read the head only.
        """
        if not np.all(np.isfinite(head)):
            raise ValueError("concentration state contains non-finite entries")
        n = _zero_padded(head, n_classes)
        n.setflags(write=False)
        state = cls.__new__(cls)
        object.__setattr__(state, "n", n)
        object.__setattr__(state, "t", float(t))
        state.__dict__["occupied_size"] = _last_nonzero_size(head)
        return state

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


def _zero_padded(head: np.ndarray, n_classes: int) -> np.ndarray:
    # a vector over sizes 1..len(head), extended by exact zeros to all N;
    # a full-length head is returned as it is
    if head.size == n_classes:
        return head
    out = np.zeros(n_classes)
    out[: head.size] = head
    return out


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
            worst = max(worst, abs(ref - alt) / scale)
    return worst


@dataclass(frozen=True)
class KernelSet:
    """Kernels by collision order d (2 <= d), all sharing one mode size N."""

    kernels: dict

    def __post_init__(self):
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
        object.__setattr__(self, "kernels", checked)

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(sorted(self.kernels))

    @property
    def n_classes(self) -> int:
        if not self.kernels:
            raise KernelError("empty kernel set has no mode size")
        return next(iter(self.kernels.values())).n_classes

    def __getitem__(self, order: int):
        return self.kernels[order]

    def reach(self, occupied: int) -> int:
        """Sizes 1..reach hold every nonzero entry of the right-hand side of
        a state with occupied size `occupied`: an order-d gain ends at
        min(N, d * occupied), and every loss at `occupied`."""
        return min(self.n_classes, max(self.orders) * occupied)


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

def _check_pair(kernel, state: ConcentrationState) -> tuple[int, int]:
    if kernel.n_classes != state.n_classes:
        raise KernelError(
            f"kernel has N = {kernel.n_classes}, state has N = {state.n_classes}"
        )
    return kernel.dimension, kernel.n_classes


@lru_cache(maxsize=8)
def _index_sum_grid(order: int, n_classes: int) -> np.ndarray:
    sizes = np.arange(1, n_classes + 1, dtype=np.int64)
    grid = reduce(np.add.outer, [sizes] * order)
    grid.setflags(write=False)
    return grid


def rhs_dense_P(kernel: DenseKernel, state: ConcentrationState) -> np.ndarray:
    """Gain vector by direct summation over all d-tuples (O(N**d))."""
    d, n_classes = _check_pair(kernel, state)
    _check_budget(n_classes, d)
    weighted = kernel.values.copy()
    for axis in range(d):
        shape = [1] * d
        shape[axis] = n_classes
        weighted *= state.n.reshape(shape)
    sums = _index_sum_grid(d, n_classes)
    totals = np.bincount(
        sums.ravel(), weights=weighted.ravel(), minlength=d * n_classes + 1
    )
    p = np.zeros(n_classes)
    p[d - 1:] = totals[d : n_classes + 1] / math.factorial(d)
    return p


def rhs_dense_Q(kernel: DenseKernel, state: ConcentrationState) -> np.ndarray:
    """Loss vector by contracting the first d-1 modes with the state."""
    d, _ = _check_pair(kernel, state)
    _check_budget(kernel.n_classes, d)
    w = kernel.values
    for _ in range(d - 1):
        w = np.tensordot(state.n, w, axes=(0, 0))
    return -(state.n * w) / math.factorial(d - 1)


# ---------------------------------------------------------------------------
# FFT gain scaffold shared by the TT and CP paths
# ---------------------------------------------------------------------------

# Whole-range seams: each runs fn(0, total) once, in the calling thread.
# The loss contractions call `map_blocked`; nothing calls `run_blocked`
# since the gain weights its fibers in its workspace.  Both exist only
# because the benchmark's tracer wraps these two names in this module and
# reads their (total, workers, fn) arguments; the benchmark change of
# ROADMAP direction 1 deletes them.
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
    near the size of pocketfft's per-row scratch (3 MB at full support).
    That scratch and the step's 1 MB vectors then went back to the kernel
    after every call and were faulted back in on the next.  On the
    D = 3, N = 2^17 full-support problem (`resource.getrusage`, 2-core
    Xeon, glibc 2.36) a warm 2-step solution took 14,189 minor faults with
    fresh buffers per gain, 12,160 with the gain workspace alone, and 0
    with these fixed thresholds of 32 MiB (mmap) and 256 MiB (trim).
    Other C libraries have no `mallopt`, and there this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


class _Workspace:
    """The buffers of the gains at one transform length L in one thread:
    `real` rows of L weighted fibers and as many `spectra` rows of
    L // 2 + 1 bins.  Every real row is zero at columns `dirty` and
    above."""

    def __init__(self, length: int, rows: int):
        self.length = length
        self.real = np.zeros((rows, length))
        self.spectra = np.empty((rows, length // 2 + 1), dtype=np.complex128)
        self.dirty = 0


_WORKSPACE = threading.local()


def _workspace(length: int, rows: int) -> _Workspace:
    # a thread keeps only its latest length: trimmed lengths grow with the
    # occupied size, and a set of orders alternates between its lengths
    workspace = getattr(_WORKSPACE, "held", None)
    if workspace is None or workspace.length != length or len(workspace.real) < rows:
        _pin_malloc_thresholds()
        workspace = _WORKSPACE.held = _Workspace(length, rows)
    return workspace


def _fft_gain(
    fibers, fold, scale: float, state: ConcentrationState, order: int,
    plan: ExecutionPlan,
) -> np.ndarray:
    """Truncated order-d gain from FFT convolutions of weighted fibers.

    Every entry of `fibers` is a vector over sizes 1..N.  Only the
    occupied sizes 1..m of the state (`ConcentrationState.occupied_size`)
    enter: a d-tuple with a size above m has a zero product.  Pipeline,
    in the calling thread's workspace (`_workspace`): (1) weight each
    fiber's first m entries by the concentrations into a real row, size i
    at column i-1, zeros above; (2) transform all rows in one call;
    (3) `fold(spectra)` combines the spectra in place and returns the row
    that holds the combined spectrum; (4) inverse-transform it into real
    row 0, whose tail is zeroed again afterwards; (5) index
    sum k of d sizes sits at column k - d, so columns 0..top-d give
    p_d..p_top, times `scale`, with top = min(N, d*m).  The largest index
    sum fills column d(m-1), so the plan's length L >= d(m-1) + 1 keeps
    every column alias-free.
    Every other entry of p is an exact 0.0; so is all of p for an
    all-zero state, which skips the transforms.  p is the only array a
    warm call allocates.

    Every step runs in the calling thread, so the output is bitwise the
    same for every worker count.
    """
    n = state.n
    occupied = state.occupied_size
    top = min(n.size, order * occupied)
    p = np.zeros(n.size)
    if top < order:
        return p
    length = plan.fft_length(order, occupied)
    workspace = _workspace(length, len(fibers))
    if workspace.dirty > occupied:
        workspace.real[:, occupied : workspace.dirty] = 0.0
    workspace.dirty = length  # until this call has cleared what it wrote
    real = workspace.real[: len(fibers)]
    spectra = workspace.spectra[: len(fibers)]
    head = n[:occupied]
    for fiber, row in zip(fibers, real):
        np.multiply(fiber[:occupied], head, out=row[:occupied])
    # one call for all rows: each numpy FFT call pays a cost that grows
    # with L (3 rows at L = 393216: 21-22 ms in one call, 23-25 ms in three)
    _fft.rfft(real, axis=1, out=spectra)
    coeffs = real[0]
    _fft.irfft(fold(spectra), n=length, out=coeffs)
    np.multiply(coeffs[: top - order + 1], scale, out=p[order - 1 : top])
    coeffs[occupied:] = 0.0
    workspace.dirty = occupied
    return p


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

    Each of the R_prev * R_next fibers core[rp, :, rn] of every core is
    weighted by the concentrations and transformed; per frequency bin the
    spectral matrices chain into a scalar, and one inverse transform
    gives the index-sum convolution, scaled by 1/d!.  See `_fft_gain` for
    the layout and the alias-free transform length.
    """
    d, _ = _check_pair(kernel, state)
    return _fft_gain(
        [
            core[rp, :, rn]
            for core in kernel.cores
            for rp in range(core.shape[0])
            for rn in range(core.shape[2])
        ],
        lambda spectra: _tt_fold(spectra, kernel.ranks),
        1.0 / math.factorial(d),
        state,
        d,
        plan or SERIAL_PLAN,
    )


def _contract_core(core: np.ndarray, n: np.ndarray, plan: ExecutionPlan) -> np.ndarray:
    # V[rp, rn] = sum_i core[rp, i, rn] * n_i
    return map_blocked(
        core.shape[1],
        plan.workers,
        lambda lo, hi: np.einsum("rns,n->rs", core[:, lo:hi, :], n[lo:hi]),
    )


def rhs_tt_Q(
    kernel: TTKernel, state: ConcentrationState, plan: ExecutionPlan | None = None
) -> np.ndarray:
    """Loss vector through the TT kernel.

    The first d-1 cores are contracted with the state and chained into a
    row vector over the last internal rank; the last core supplies the
    per-size tail.  Valid for symmetric kernels, where fixing the particle
    size at the last mode loses no generality.  Contractions and tail run
    over the occupied sizes 1..m only; q_k is an exact 0.0 for k > m.
    """
    plan = plan or SERIAL_PLAN
    d, n_classes = _check_pair(kernel, state)
    occupied = state.occupied_size
    n = state.n[:occupied]
    w = _contract_core(kernel.cores[0][:, :occupied], n, plan)  # (1, R1)
    for lam in range(1, d - 1):
        w = w @ _contract_core(kernel.cores[lam][:, :occupied], n, plan)
    tail = w[0] @ kernel.cores[d - 1][:, :occupied, 0]
    return _zero_padded(-(n * tail) / math.factorial(d - 1), n_classes)


# ---------------------------------------------------------------------------
# CP fast paths
# ---------------------------------------------------------------------------

def _cp_fold(spectra, order: int):
    # per bin, multiply each rank's d mode spectra in mode order into the
    # rank's first row, and add the ranks in order into row 0
    acc = spectra[0]
    for r, modes in enumerate(spectra.reshape(-1, order, spectra.shape[-1])):
        for spec in modes[1:]:
            np.multiply(modes[0], spec, out=modes[0])
        if r:
            np.add(acc, modes[0], out=acc)
    return acc


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
    d, _ = _check_pair(kernel, state)
    scale = 1.0 if isinstance(kernel, SymmetrizedCPKernel) else 1.0 / math.factorial(d)
    return _fft_gain(
        [factor[:, r] for r in range(kernel.rank) for factor in kernel.factors],
        lambda spectra: _cp_fold(spectra, d),
        scale,
        state,
        d,
        plan or SERIAL_PLAN,
    )


def _factor_moments(factors, n: np.ndarray, plan: ExecutionPlan) -> np.ndarray:
    # S[m, r] = sum_i factors[m][i, r] * n_i for every given factor
    return map_blocked(
        n.size,
        plan.workers,
        lambda lo, hi: np.stack([n[lo:hi] @ f[lo:hi] for f in factors]),
    )


def rhs_cp_Q(
    kernel: CPKernel | SymmetrizedCPKernel,
    state: ConcentrationState,
    plan: ExecutionPlan | None = None,
) -> np.ndarray:
    """Loss vector through a CP or symmetrized CP kernel, O(N d R).

    CP: the first d-1 factors are contracted with the state into per-rank
    scalars and the last factor supplies the per-size tail, which assumes
    a symmetric kernel.  Symmetrized CP: with S_{m,r} = sum_i f_{m,r}(i) n_i,
    the loss is Q_k = -n_k sum_r sum_m f_{m,r}(k) prod_{m' != m} S_{m',r};
    the (d-1)! orders of the other slots cancel the 1/(d-1)!, and no
    symmetry is assumed.  Moments and tail run over the occupied sizes
    1..m only; q_k is an exact 0.0 for k > m.
    """
    plan = plan or SERIAL_PLAN
    d, n_classes = _check_pair(kernel, state)
    occupied = state.occupied_size
    n = state.n[:occupied]
    factors = [factor[:occupied] for factor in kernel.factors]
    if isinstance(kernel, SymmetrizedCPKernel):
        moments = _factor_moments(factors, n, plan)
        tail = np.zeros(occupied)
        for m, factor in enumerate(factors):
            others = np.ones(kernel.rank)
            for other in range(d):
                if other != m:
                    others = others * moments[other]
            tail += factor @ others
        return _zero_padded(-(n * tail), n_classes)
    moments = _factor_moments(factors[: d - 1], n, plan)
    scalars = np.ones(kernel.rank)
    for mode in range(d - 1):
        scalars = scalars * moments[mode]
    tail = factors[d - 1] @ scalars
    return _zero_padded(-(n * tail) / math.factorial(d - 1), n_classes)


# ---------------------------------------------------------------------------
# combined right-hand side
# ---------------------------------------------------------------------------

def rhs_gain_loss(
    kernel, state: ConcentrationState, plan: ExecutionPlan | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Gain and loss of one kernel through the fastest path its
    representation allows: TT, CP and symmetrized CP kernels use the
    FFT-accelerated operators, dense kernels the direct sums."""
    if isinstance(kernel, TTKernel):
        return rhs_tt_P(kernel, state, plan), rhs_tt_Q(kernel, state, plan)
    if isinstance(kernel, (CPKernel, SymmetrizedCPKernel)):
        return rhs_cp_P(kernel, state, plan), rhs_cp_Q(kernel, state, plan)
    if isinstance(kernel, DenseKernel):
        return rhs_dense_P(kernel, state), rhs_dense_Q(kernel, state)
    raise KernelError(f"unsupported kernel representation {type(kernel).__name__}")


def rhs_total(
    kernels: KernelSet,
    state: ConcentrationState,
    plan: ExecutionPlan | None = None,
) -> RhsResult:
    """Sum of gain and loss over every configured collision order, each
    through rhs_gain_loss."""
    if not kernels.orders:
        raise KernelError("no collision orders configured")
    if kernels.n_classes != state.n_classes:
        raise KernelError(
            f"kernel set has N = {kernels.n_classes}, state has N = {state.n_classes}"
        )
    p = q = None
    for d in kernels.orders:
        p_d, q_d = rhs_gain_loss(kernels[d], state, plan)
        # every operator returns fresh vectors, so the first order's become
        # the sums and later orders add into new arrays
        p = p_d if p is None else p + p_d
        q = q_d if q is None else q + q_d
    return RhsResult(p=p, q=q)
