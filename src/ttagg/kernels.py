"""Kinetic coefficient tensors in dense, tensor-train and CP form.

The central object is the symmetric d-way array of collision rate
coefficients for simultaneous d-particle mergers.  For generalized
Brownian coefficients (permutation-symmetrized products of power
functions of the particle sizes) an exact low-rank tensor-train
representation is built constructively; its ranks depend only on the
number of colliding particles, never on the number of size classes.
The same coefficients, and constants, are also exactly a symmetrized CP
sum of rank 1, the form the solver runs every analytic kernel on.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

__all__ = [
    "KernelError",
    "BrownianSpec",
    "ConstantSpec",
    "TableSpec",
    "TTKernel",
    "CPKernel",
    "SymmetrizedCPKernel",
    "DenseKernel",
    "brownian_element",
    "build_brownian_tt",
    "tt_element",
    "cp_element",
    "symmetrized_cp_element",
    "dense_from_spec",
    "dense_from_tt",
    "dense_from_cp",
    "tt_max_rank_bound",
    "constant_tt",
    "brownian_symmetrized_cp",
    "constant_symmetrized_cp",
]

# D! permutations are enumerated literally; beyond this the sum is impractical.
PERMUTATION_GUARD = 8

# Cap on N**D elements of any dense kernel, built or evaluated.
DENSE_ELEMENT_BUDGET = 1 << 26


class KernelError(ValueError):
    """Malformed kernel data, out-of-range index, or budget violation."""


def _power(size: int, exponent: float) -> float:
    # size >= 1, so the log is safe; exp(mu*log i) handles fractional and
    # negative exponents uniformly (i**0 == 1 exactly).  A power that
    # overflows is an inf, as in `_power_vector`.
    try:
        return math.exp(exponent * math.log(size))
    except OverflowError:
        return math.inf


def _power_vector(n_classes: int, exponent: float) -> np.ndarray:
    # a power that overflows is an inf, which `KernelSet` refuses
    sizes = np.arange(1, n_classes + 1, dtype=np.float64)
    with np.errstate(over="ignore"):
        return np.exp(exponent * np.log(sizes))


def _validated_index(idx, dimension: int, n_classes: int | None = None) -> tuple[int, ...]:
    entries = tuple(int(i) for i in idx)
    if len(entries) != dimension:
        raise KernelError(
            f"index has {len(entries)} entries, kernel dimension is {dimension}"
        )
    for i in entries:
        if i < 1:
            raise KernelError(f"size indices are 1-based, got {i}")
        if n_classes is not None and i > n_classes:
            raise KernelError(f"index {i} outside [1, {n_classes}]")
    return entries


# ---------------------------------------------------------------------------
# kernel specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BrownianSpec:
    """Exponent vector (mu_1, ..., mu_D) of a generalized Brownian kernel."""

    exponents: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(float(m) for m in self.exponents))
        if len(self.exponents) < 2:
            raise KernelError("a Brownian kernel needs at least two exponents")

    @property
    def dimension(self) -> int:
        return len(self.exponents)


@dataclass(frozen=True)
class ConstantSpec:
    """Kernel with every coefficient equal to `value`."""

    value: float
    dimension: int

    def __post_init__(self):
        if self.dimension < 2:
            raise KernelError("kernel dimension must be >= 2")


@dataclass(frozen=True)
class TableSpec:
    """Kernel read from a file of N**D coefficients in row-major index order.

    The file is either flat binary (little-endian 64-bit floats) or
    whitespace-separated text; the format is detected from the file size.
    """

    path: str
    dimension: int

    def __post_init__(self):
        if self.dimension < 2:
            raise KernelError("kernel dimension must be >= 2")


# ---------------------------------------------------------------------------
# tensor containers
# ---------------------------------------------------------------------------

def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    if out is arr:
        out = arr.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TTKernel:
    """Tensor-train kernel: a chain of 3-way cores of shape (R_prev, N, R_next).

    An element is the product of the matrix slices taken at the size
    indices; boundary ranks are 1 so the chain collapses to a scalar.

    The cores are stored once, as the rows of `fibers`, a read-only
    (sum of R_prev * R_next, N) array: core by core, rp-major within a
    core, row (rp, rn) of a core is its fiber core[rp, :, rn].  Each entry
    of `cores` is a read-only view of it, so a gain weights contiguous
    rows, and a loss takes its moments and its tail in one matrix-vector
    product each.  `ranks`, (1, R_1, ..., R_{D-1}, 1), is fixed with them.
    """

    cores: tuple[np.ndarray, ...]
    fibers: np.ndarray = field(init=False, repr=False, compare=False)
    ranks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cores = tuple(np.asarray(c, dtype=np.float64) for c in self.cores)
        if len(cores) < 2:
            raise KernelError("a TT kernel needs at least two cores")
        for lam, core in enumerate(cores, start=1):
            if core.ndim != 3:
                raise KernelError(f"core {lam} is not a 3-way array")
        if cores[0].shape[0] != 1 or cores[-1].shape[2] != 1:
            raise KernelError("boundary TT ranks must equal 1")
        n_classes = cores[0].shape[1]
        for lam in range(len(cores)):
            if cores[lam].shape[1] != n_classes:
                raise KernelError("all cores must share the same mode size")
            if lam and cores[lam - 1].shape[2] != cores[lam].shape[0]:
                raise KernelError(
                    f"rank mismatch between cores {lam} and {lam + 1}"
                )
        rows = sum(c.shape[0] * c.shape[2] for c in cores)
        fibers = np.empty((rows, n_classes))
        views, start = [], 0
        for core in cores:
            r_prev, _, r_next = core.shape
            block = fibers[start : start + r_prev * r_next]
            view = block.reshape(r_prev, r_next, n_classes).transpose(0, 2, 1)
            view[...] = core
            view.setflags(write=False)
            views.append(view)
            start += r_prev * r_next
        fibers.setflags(write=False)
        object.__setattr__(self, "fibers", fibers)
        object.__setattr__(self, "cores", tuple(views))
        object.__setattr__(self, "ranks", (1,) + tuple(c.shape[2] for c in cores))

    @property
    def dimension(self) -> int:
        return len(self.cores)

    @property
    def n_classes(self) -> int:
        return self.cores[0].shape[1]

    @property
    def max_rank(self) -> int:
        return max(self.ranks)


@dataclass(frozen=True)
class _FactorKernel:
    """One N x R factor matrix per mode; the subclass says how they combine.

    The factors are stored once, as the rows of `fibers`, an (R * D, N)
    array whose row r * D + m is column r of factor m.  Each entry of
    `factors` is a read-only view of it, so a gain weights contiguous
    rows, and a loss takes all D * R moments and its tail in one
    matrix-vector product each.
    """

    factors: tuple[np.ndarray, ...]
    fibers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        factors = tuple(np.asarray(f, dtype=np.float64) for f in self.factors)
        if len(factors) < 2:
            raise KernelError("a CP kernel needs at least two factors")
        shape = factors[0].shape
        if len(shape) != 2:
            raise KernelError("CP factors must be N x R matrices")
        for f in factors:
            if f.shape != shape:
                raise KernelError("all CP factors must share the same N x R shape")
        d = len(factors)
        fibers = np.empty((shape[1] * d, shape[0]))
        for m, f in enumerate(factors):
            fibers[m::d] = f.T
        self._adopt(fibers, d)

    @classmethod
    def _from_fibers(cls, fibers: np.ndarray, dimension: int):
        """The kernel stored in `fibers`, a fresh float64 (R * D, N) array
        that the caller hands over: adopted as it is, with no copy."""
        kernel = cls.__new__(cls)
        kernel._adopt(fibers, dimension)
        return kernel

    def _adopt(self, fibers: np.ndarray, d: int) -> None:
        fibers.setflags(write=False)
        object.__setattr__(self, "fibers", fibers)
        object.__setattr__(self, "factors", tuple(fibers[m::d].T for m in range(d)))

    @property
    def dimension(self) -> int:
        return len(self.factors)

    @property
    def n_classes(self) -> int:
        return self.factors[0].shape[0]

    @property
    def rank(self) -> int:
        return self.factors[0].shape[1]


@dataclass(frozen=True)
class CPKernel(_FactorKernel):
    """Canonical polyadic kernel: C = sum_r prod_m f_{m,r}(i_m).

    No decomposition routine is provided; CP kernels are inputs, supplied
    by the user or known analytically.
    """


@dataclass(frozen=True)
class SymmetrizedCPKernel(_FactorKernel):
    """Symmetrized CP kernel: C = sum_{s in S_D} sum_r prod_m f_{m,r}(i_{s(m)}).

    There is no 1/D! in front, so a generalized Brownian kernel is this
    form at rank 1 with f_m = i**mu_m.  Symmetric by construction; it is
    not a CPKernel, because its coefficients are the permutation sum of
    the plain CP ones.
    """


@dataclass(frozen=True)
class DenseKernel:
    """Fully materialized kernel, used as ground truth at small N."""

    values: np.ndarray

    def __post_init__(self):
        values = _readonly(self.values)
        if values.ndim < 2:
            raise KernelError("dense kernels must have dimension >= 2")
        n_classes = values.shape[0]
        if any(s != n_classes for s in values.shape):
            raise KernelError("dense kernels must have equal mode sizes")
        object.__setattr__(self, "values", values)

    @property
    def dimension(self) -> int:
        return self.values.ndim

    @property
    def n_classes(self) -> int:
        return self.values.shape[0]


# ---------------------------------------------------------------------------
# element evaluators
# ---------------------------------------------------------------------------

def _permutation_guard(dimension: int) -> None:
    if dimension > PERMUTATION_GUARD:
        raise KernelError(
            f"permutation enumeration capped at dimension {PERMUTATION_GUARD}, "
            f"got {dimension}"
        )


def brownian_element(spec: BrownianSpec, idx) -> float:
    """Coefficient at a multi-index: sum over all permutations of the index
    entries of the product of per-slot powers.

    Symmetric in the index by construction.  The D! permutations are
    enumerated literally, so the dimension is capped at PERMUTATION_GUARD.
    """
    d = spec.dimension
    _permutation_guard(d)
    entries = _validated_index(idx, d)
    total = 0.0
    for perm in permutations(entries):
        term = 1.0
        for size, mu in zip(perm, spec.exponents):
            term *= _power(size, mu)
        total += term
    return total


def tt_element(kernel: TTKernel, idx) -> float:
    """Evaluate one kernel coefficient by chaining the core slices."""
    entries = _validated_index(idx, kernel.dimension, kernel.n_classes)
    v = kernel.cores[0][:, entries[0] - 1, :]
    for size, core in zip(entries[1:], kernel.cores[1:]):
        v = v @ core[:, size - 1, :]
    return float(v[0, 0])


def cp_element(kernel: CPKernel, idx) -> float:
    """Evaluate one kernel coefficient: sum over ranks of factor products."""
    entries = _validated_index(idx, kernel.dimension, kernel.n_classes)
    acc = np.ones(kernel.rank)
    for size, factor in zip(entries, kernel.factors):
        acc = acc * factor[size - 1]
    return float(acc.sum())


@lru_cache(maxsize=PERMUTATION_GUARD)
def _slot_orders(dimension: int) -> np.ndarray:
    orders = np.array(list(permutations(range(dimension))), dtype=np.intp)
    orders.setflags(write=False)
    return orders


def symmetrized_cp_element(kernel: SymmetrizedCPKernel, idx) -> float:
    """Evaluate one kernel coefficient: the CP rank sum over every
    permutation of the index entries.  The D! terms are enumerated like
    brownian_element, capped at the same dimension, but as one array so
    that symmetry sampling stays cheap up to the cap."""
    d = kernel.dimension
    _permutation_guard(d)
    entries = _validated_index(idx, d, kernel.n_classes)
    rows = np.asarray(entries, dtype=np.intp)[_slot_orders(d)] - 1  # (D!, D)
    terms = np.ones((rows.shape[0], kernel.rank))
    for m, factor in enumerate(kernel.factors):
        terms *= factor[rows[:, m]]
    return float(terms.sum())


# ---------------------------------------------------------------------------
# constructive TT builder
# ---------------------------------------------------------------------------

def build_brownian_tt(spec: BrownianSpec, n_classes: int) -> TTKernel:
    """Exact TT representation of a generalized Brownian kernel.

    Rank index r at level lam stands for a lam-subset of exponent labels;
    the partial chain up to level lam reproduces the lower-dimensional
    kernel over exactly those exponents.  A core entry connecting subset S
    to subset T is the power function for the single label T \\ S when S is
    contained in T, and zero otherwise.  The resulting ranks are the
    binomial coefficients C(D, lam), independent of n_classes.
    """
    if n_classes < 1:
        raise KernelError("n_classes must be >= 1")
    d = spec.dimension
    pows = [_power_vector(n_classes, mu) for mu in spec.exponents]
    # the lam-subsets of labels 1..D in colexicographic order, each with
    # increasing labels; rank r of level lam is the r-th of them
    levels = [
        sorted(combinations(range(1, d + 1), lam), key=lambda s: s[::-1])
        for lam in range(d + 1)
    ]

    cores = []
    for lam in range(1, d + 1):
        prev = {subset: r for r, subset in enumerate(levels[lam - 1])}
        core = np.zeros((len(prev), n_classes, len(levels[lam])))
        for rc, subset in enumerate(levels[lam]):
            for label in subset:
                rest = tuple(x for x in subset if x != label)
                core[prev[rest], :, rc] = pows[label - 1]
        cores.append(core)

    return TTKernel(tuple(cores))


def tt_max_rank_bound(dimension: int) -> int:
    """Largest TT rank attained by the constructive Brownian build."""
    if dimension < 2:
        raise KernelError("kernel dimension must be >= 2")
    return math.comb(dimension, math.ceil(dimension / 2))


def constant_tt(value: float, dimension: int, n_classes: int) -> TTKernel:
    """Rank-1 TT kernel with every coefficient equal to `value`."""
    if dimension < 2:
        raise KernelError("kernel dimension must be >= 2")
    cores = [np.ones((1, n_classes, 1)) for _ in range(dimension)]
    cores[0] *= float(value)
    return TTKernel(tuple(cores))


def brownian_symmetrized_cp(spec: BrownianSpec, n_classes: int) -> SymmetrizedCPKernel:
    """Exact rank-1 symmetrized CP form of a generalized Brownian kernel,
    with factor m the power vector i**mu_m."""
    if n_classes < 1:
        raise KernelError("n_classes must be >= 1")
    # row m is _power_vector(n_classes, mu_m), computed in place
    sizes = np.arange(1, n_classes + 1, dtype=np.float64)
    fibers = np.multiply.outer(np.array(spec.exponents), np.log(sizes))
    with np.errstate(over="ignore"):
        np.exp(fibers, out=fibers)
    return SymmetrizedCPKernel._from_fibers(fibers, spec.dimension)


def constant_symmetrized_cp(
    value: float, dimension: int, n_classes: int
) -> SymmetrizedCPKernel:
    """Exact rank-1 symmetrized CP form of the kernel with every coefficient
    equal to `value`: factor 1 is value / D!, each other factor is 1, and
    the D! slot orders add up to `value`."""
    if dimension < 2:
        raise KernelError("kernel dimension must be >= 2")
    fibers = np.ones((dimension, n_classes))
    fibers[0] = float(value) / math.factorial(dimension)
    return SymmetrizedCPKernel._from_fibers(fibers, dimension)


# ---------------------------------------------------------------------------
# dense expansions (verification oracles)
# ---------------------------------------------------------------------------

def _check_budget(n_classes: int, dimension: int) -> None:
    # the one guard of every dense array, kernel or right-hand side
    elements = n_classes**dimension
    if elements > DENSE_ELEMENT_BUDGET:
        raise KernelError(
            f"a dense kernel of {elements} elements is over the budget of "
            f"{DENSE_ELEMENT_BUDGET}; reduce N"
        )


def _load_table(path: str, dimension: int, n_classes: int) -> np.ndarray:
    expected = n_classes**dimension
    if not os.path.exists(path):
        raise KernelError(f"kernel table file not found: {path}")
    if os.path.getsize(path) == expected * 8:
        with open(path, "rb") as fh:
            data = fh.read()
        # bytes that are all number text are not taken for doubles
        if not data.translate(None, b"0123456789+-.eE \t\r\n"):
            raise KernelError(
                f"kernel table {path} reads as {expected} binary doubles or as number "
                "text; a text table needs one more byte of whitespace"
            )
        flat = np.frombuffer(data, dtype="<f8")
    else:
        try:
            flat = np.loadtxt(path, dtype=np.float64).ravel()
        except (ValueError, UnicodeDecodeError) as exc:
            raise KernelError(
                f"kernel table {path} could not be read: expected {expected} "
                f"binary doubles or text values ({exc})"
            ) from None
    if flat.size != expected:
        raise KernelError(
            f"kernel table {path} holds {flat.size} values, expected {expected}"
        )
    if not np.isfinite(flat).all():
        raise KernelError(f"kernel table {path} holds a NaN or infinite coefficient")
    return flat.reshape((n_classes,) * dimension)


def dense_from_spec(spec, n_classes: int) -> DenseKernel:
    """Materialize a kernel specification as a full D-way array."""
    d = spec.dimension
    _check_budget(n_classes, d)
    if isinstance(spec, ConstantSpec):
        values = np.full((n_classes,) * d, float(spec.value))
    elif isinstance(spec, TableSpec):
        values = _load_table(spec.path, d, n_classes)
    elif isinstance(spec, BrownianSpec):
        _permutation_guard(d)
        pows = [_power_vector(n_classes, mu) for mu in spec.exponents]
        values = np.zeros((n_classes,) * d)
        # Each permutation assigns exponent slot perm[m] to mode m.
        for perm in permutations(range(d)):
            term = pows[perm[0]]
            for m in range(1, d):
                term = np.multiply.outer(term, pows[perm[m]])
            values += term
    else:
        raise KernelError(f"unsupported kernel specification {type(spec).__name__}")
    return DenseKernel(values)


def dense_from_tt(kernel: TTKernel) -> DenseKernel:
    """Contract all TT cores into the full array."""
    _check_budget(kernel.n_classes, kernel.dimension)
    out = kernel.cores[0][0]  # (N, R1)
    for core in kernel.cores[1:]:
        out = np.tensordot(out, core, axes=([out.ndim - 1], [0]))
    return DenseKernel(out[..., 0])


def dense_from_cp(kernel: CPKernel | SymmetrizedCPKernel) -> DenseKernel:
    """Expand a CP kernel as the sum of its rank-1 terms; a symmetrized
    CP kernel also sums that array over every permutation of its modes."""
    d = kernel.dimension
    _check_budget(kernel.n_classes, d)
    values = np.zeros((kernel.n_classes,) * d)
    for r in range(kernel.rank):
        term = kernel.factors[0][:, r]
        for factor in kernel.factors[1:]:
            term = np.multiply.outer(term, factor[:, r])
        values += term
    if isinstance(kernel, SymmetrizedCPKernel):
        _permutation_guard(d)
        values = sum(values.transpose(perm) for perm in permutations(range(d)))
    return DenseKernel(values)
