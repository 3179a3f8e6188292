"""Gain and loss operators for simultaneous d-particle aggregation.

For each collision order d the gain vector collects, with weight 1/d!,
all d-tuples of sizes summing to k; the loss vector drains size k in
proportion to its concentration and the (d-1)-fold contraction of the
kernel with the state, weighted 1/(d-1)!.  Dense implementations cost
O(N**d) and serve as ground truth; the tensor-train and CP paths push
the gain through padded FFTs of the weighted core fibers and the loss
through mode contractions, for O(N log N) work per rank pair.  A
symmetrized CP kernel sums the plain CP form over all d! slot orders;
every order gives the same index-sum convolution, so its gain is one
d-fold convolution with weight 1, and its loss is a closed form in
d moments of the state per rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
import scipy.fft as _fft

from .kernels import (
    CPKernel,
    DenseKernel,
    KernelError,
    SymmetrizedCPKernel,
    TTKernel,
    cp_element,
    symmetrized_cp_element,
    tt_element,
)
from .parallel import SERIAL_PLAN, ExecutionPlan, map_blocked, run_blocked

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

# N**d guard for the dense reference paths.
DENSE_RHS_BUDGET = 1 << 26

# Kernels this small are symmetry-checked by sampling when a KernelSet is built.
_SYMMETRY_CHECK_MAX_N = 64
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

    @property
    def n_classes(self) -> int:
        return self.n.size


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
        if n_classes is not None and n_classes <= _SYMMETRY_CHECK_MAX_N:
            for d, kernel in checked.items():
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


@dataclass(frozen=True)
class RhsResult:
    """Gain p, loss q, and their sum s = p + q, optionally per order."""

    p: np.ndarray
    q: np.ndarray
    s: np.ndarray
    by_order: dict | None = None


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


def _dense_budget_check(order: int, n_classes: int) -> None:
    if n_classes**order > DENSE_RHS_BUDGET:
        raise KernelError(
            f"dense evaluation needs {n_classes**order} elements, over the "
            f"budget of {DENSE_RHS_BUDGET}; reduce N"
        )


def rhs_dense_P(kernel: DenseKernel, state: ConcentrationState) -> np.ndarray:
    """Gain vector by direct summation over all d-tuples (O(N**d))."""
    d, n_classes = _check_pair(kernel, state)
    _dense_budget_check(d, n_classes)
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
    _dense_budget_check(d, kernel.n_classes)
    w = kernel.values
    for _ in range(d - 1):
        w = np.tensordot(state.n, w, axes=(0, 0))
    return -(state.n * w) / math.factorial(d - 1)


# ---------------------------------------------------------------------------
# tensor-train fast paths
# ---------------------------------------------------------------------------

def rhs_tt_P(
    kernel: TTKernel, state: ConcentrationState, plan: ExecutionPlan | None = None
) -> np.ndarray:
    """Gain vector through the TT kernel, O(N d R^2 log N).

    Pipeline: (1) weight every core fiber by the concentrations, storing
    size i at array position i; (2) zero-pad to the plan's FFT length
    L >= d*N + 1 so index sums up to d*N stay alias-free; (3) transform
    all fibers; (4) per frequency bin, chain the R_prev x R_next spectral
    matrices left to right into a scalar; (5) inverse-transform; (6) read
    index sums d..N into output slots d..N, scaled by 1/d!.

    Weighting and assembly are chunked along the size axis, fiber
    transforms across the batch, and the chain along frequency bins; each
    bin's arithmetic is fixed, so the output does not depend on the
    worker count.
    """
    plan = plan or SERIAL_PLAN
    d, n_classes = _check_pair(kernel, state)
    length = plan.fft_length(d, n_classes)
    workers = plan.block_workers

    ranks = kernel.ranks
    row_counts = [ranks[lam] * ranks[lam + 1] for lam in range(d)]
    offsets = np.concatenate([[0], np.cumsum(row_counts)])
    buf = np.zeros((int(offsets[-1]), length))

    n = state.n

    def weight_chunk(lo, hi):
        for lam, core in enumerate(kernel.cores):
            rows = slice(int(offsets[lam]), int(offsets[lam + 1]))
            block = core[:, lo:hi, :] * n[lo:hi][None, :, None]
            buf[rows, 1 + lo : 1 + hi] = block.transpose(0, 2, 1).reshape(
                row_counts[lam], hi - lo
            )

    run_blocked(n_classes, workers, weight_chunk)

    spectra = _fft.rfft(buf, axis=1, workers=plan.fft_workers)
    n_bins = spectra.shape[1]
    out_spec = np.empty(n_bins, dtype=np.complex128)

    def chain_chunk(lo, hi):
        base = int(offsets[0])
        v = [spectra[base + r, lo:hi] for r in range(ranks[1])]
        for lam in range(1, d):
            r_prev, r_next = ranks[lam], ranks[lam + 1]
            base = int(offsets[lam])
            new = []
            for rn in range(r_next):
                acc = v[0] * spectra[base + rn, lo:hi]
                for rp in range(1, r_prev):
                    acc += v[rp] * spectra[base + rp * r_next + rn, lo:hi]
                new.append(acc)
            v = new
        out_spec[lo:hi] = v[0]

    run_blocked(n_bins, workers, chain_chunk)

    coeffs = _fft.irfft(out_spec, n=length, workers=plan.fft_workers)
    inv_fact = 1.0 / math.factorial(d)
    p = np.zeros(n_classes)

    def assemble_chunk(lo, hi):
        p[d - 1 + lo : d - 1 + hi] = coeffs[d + lo : d + hi] * inv_fact

    run_blocked(n_classes - d + 1, workers, assemble_chunk)
    return p


def _contract_core(core: np.ndarray, n: np.ndarray, plan: ExecutionPlan) -> np.ndarray:
    # V[rp, rn] = sum_i core[rp, i, rn] * n_i; with deterministic reduction
    # the block partials combine in ascending block order, so the worker
    # count only perturbs roundoff.
    parts = map_blocked(
        core.shape[1],
        plan.block_workers,
        lambda lo, hi: np.einsum("rns,n->rs", core[:, lo:hi, :], n[lo:hi]),
        ordered=plan.deterministic_reduction,
    )
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return total


def rhs_tt_Q(
    kernel: TTKernel, state: ConcentrationState, plan: ExecutionPlan | None = None
) -> np.ndarray:
    """Loss vector through the TT kernel.

    The first d-1 cores are contracted with the state and chained into a
    row vector over the last internal rank; the last core supplies the
    per-size tail.  Valid for symmetric kernels, where fixing the particle
    size at the last mode loses no generality.
    """
    plan = plan or SERIAL_PLAN
    d, _ = _check_pair(kernel, state)
    n = state.n
    w = _contract_core(kernel.cores[0], n, plan)  # (1, R1)
    for lam in range(1, d - 1):
        w = w @ _contract_core(kernel.cores[lam], n, plan)
    tail = w[0] @ kernel.cores[d - 1][:, :, 0]
    return -(n * tail) / math.factorial(d - 1)


# ---------------------------------------------------------------------------
# CP fast paths
# ---------------------------------------------------------------------------

def rhs_cp_P(
    kernel: CPKernel | SymmetrizedCPKernel,
    state: ConcentrationState,
    plan: ExecutionPlan | None = None,
) -> np.ndarray:
    """Gain vector through a CP or symmetrized CP kernel, O(N d R log N).

    Each rank contributes an ordinary d-fold convolution of its weighted
    factor columns; spectra multiply elementwise (scalars per bin, no
    matrix chain), are summed over ranks, and a single inverse transform
    recovers the truncated gain.  A CP kernel's gain carries the 1/d! of
    the gain sum; a symmetrized kernel's d! slot orders each contribute
    the same convolution, which cancels it, so its weight is 1.
    """
    plan = plan or SERIAL_PLAN
    d, n_classes = _check_pair(kernel, state)
    length = plan.fft_length(d, n_classes)
    workers = plan.block_workers
    rank = kernel.rank

    buf = np.zeros((d * rank, length))
    n = state.n

    def weight_chunk(lo, hi):
        for mode, factor in enumerate(kernel.factors):
            rows = slice(mode * rank, (mode + 1) * rank)
            buf[rows, 1 + lo : 1 + hi] = (factor[lo:hi] * n[lo:hi, None]).T

    run_blocked(n_classes, workers, weight_chunk)

    spectra = _fft.rfft(buf, axis=1, workers=plan.fft_workers)
    n_bins = spectra.shape[1]
    out_spec = np.empty(n_bins, dtype=np.complex128)

    def chain_chunk(lo, hi):
        acc = spectra[0:rank, lo:hi].copy()
        for mode in range(1, d):
            acc *= spectra[mode * rank : (mode + 1) * rank, lo:hi]
        out_spec[lo:hi] = acc.sum(axis=0)

    run_blocked(n_bins, workers, chain_chunk)

    coeffs = _fft.irfft(out_spec, n=length, workers=plan.fft_workers)
    scale = 1.0 if isinstance(kernel, SymmetrizedCPKernel) else 1.0 / math.factorial(d)
    p = np.zeros(n_classes)

    def assemble_chunk(lo, hi):
        p[d - 1 + lo : d - 1 + hi] = coeffs[d + lo : d + hi] * scale

    run_blocked(n_classes - d + 1, workers, assemble_chunk)
    return p


def _factor_moments(factors, n: np.ndarray, plan: ExecutionPlan) -> np.ndarray:
    # S[m, r] = sum_i factors[m][i, r] * n_i for every given factor in one
    # blocked pass; block partials combine in ascending block order.
    parts = map_blocked(
        n.size,
        plan.block_workers,
        lambda lo, hi: np.stack([n[lo:hi] @ f[lo:hi] for f in factors]),
        ordered=plan.deterministic_reduction,
    )
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return total


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
    symmetry is assumed.
    """
    plan = plan or SERIAL_PLAN
    d, _ = _check_pair(kernel, state)
    n = state.n
    if isinstance(kernel, SymmetrizedCPKernel):
        moments = _factor_moments(kernel.factors, n, plan)
        tail = np.zeros(n.size)
        for m, factor in enumerate(kernel.factors):
            others = np.ones(kernel.rank)
            for other in range(d):
                if other != m:
                    others = others * moments[other]
            tail += factor @ others
        return -(n * tail)
    moments = _factor_moments(kernel.factors[: d - 1], n, plan)
    scalars = np.ones(kernel.rank)
    for mode in range(d - 1):
        scalars = scalars * moments[mode]
    tail = kernel.factors[d - 1] @ scalars
    return -(n * tail) / math.factorial(d - 1)


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
    *,
    breakdown: bool = False,
) -> RhsResult:
    """Sum of gain and loss over every configured collision order, each
    through rhs_gain_loss."""
    if not kernels.orders:
        raise KernelError("no collision orders configured")
    if kernels.n_classes != state.n_classes:
        raise KernelError(
            f"kernel set has N = {kernels.n_classes}, state has N = {state.n_classes}"
        )
    n_classes = state.n_classes
    p = np.zeros(n_classes)
    q = np.zeros(n_classes)
    per_order = {}
    for d in kernels.orders:
        p_d, q_d = rhs_gain_loss(kernels[d], state, plan)
        p += p_d
        q += q_d
        if breakdown:
            per_order[d] = (p_d, q_d)
    return RhsResult(p=p, q=q, s=p + q, by_order=per_order if breakdown else None)
