"""Gain/loss operators: dense references, fast paths, conservation laws."""

import ctypes
import math
import sys
import threading
import tracemalloc
import types
from bisect import bisect_left
from functools import reduce
from itertools import product

import numpy as np
import pytest

import ttagg.rhs
from ttagg.config import SimulationConfig, build_kernel_set
from ttagg.integrator import InitialCondition, TimeGrid, integrate, rk2_step
from ttagg.kernels import (
    BrownianSpec,
    ConstantSpec,
    CPKernel,
    DenseKernel,
    KernelError,
    SymmetrizedCPKernel,
    TTKernel,
    brownian_symmetrized_cp,
    build_brownian_tt,
    constant_symmetrized_cp,
    constant_tt,
    dense_from_cp,
    dense_from_spec,
    dense_from_tt,
)
from ttagg.parallel import ExecutionPlan
from ttagg.rhs import (
    ConcentrationState,
    KernelSet,
    rhs_cp_P,
    rhs_cp_Q,
    rhs_dense_P,
    rhs_dense_Q,
    rhs_gain_loss,
    rhs_total,
    rhs_tt_P,
    rhs_tt_Q,
    sample_symmetry_violation,
)


def gain_by_loops(values, n):
    """Literal triple-loop gain, independent of the bincount implementation."""
    d = values.ndim
    n_classes = n.size
    p = np.zeros(n_classes)
    for idx in product(range(1, n_classes + 1), repeat=d):
        k = sum(idx)
        if k > n_classes:
            continue
        weight = values[tuple(i - 1 for i in idx)]
        for i in idx:
            weight *= n[i - 1]
        p[k - 1] += weight
    return p / math.factorial(d)


def loss_by_loops(values, n):
    d = values.ndim
    n_classes = n.size
    q = np.zeros(n_classes)
    for k in range(1, n_classes + 1):
        acc = 0.0
        for idx in product(range(1, n_classes + 1), repeat=d - 1):
            weight = values[tuple(i - 1 for i in idx) + (k - 1,)]
            for i in idx:
                weight *= n[i - 1]
            acc += weight
        q[k - 1] = -n[k - 1] * acc / math.factorial(d - 1)
    return q


def rel_inf(got, ref):
    scale = np.abs(ref).max()
    return np.abs(got - ref).max() / (scale if scale else 1.0)


def monodisperse(n_classes):
    n = np.zeros(n_classes)
    n[0] = 1.0
    return ConcentrationState(n)


def dense_constant(order, n_classes):
    return dense_from_spec(ConstantSpec(1.0, order), n_classes)


# ---------------------------------------------------------------------------
# dense references
# ---------------------------------------------------------------------------

def test_dense_gain_single_seed_examples():
    state = monodisperse(8)
    p2 = rhs_dense_P(dense_constant(2, 8), state)
    expected = np.zeros(8)
    expected[1] = 0.5
    np.testing.assert_allclose(p2, expected, atol=1e-15)

    p3 = rhs_dense_P(dense_constant(3, 8), state)
    expected = np.zeros(8)
    expected[2] = 1.0 / 6.0
    np.testing.assert_allclose(p3, expected, atol=1e-15)


def test_dense_loss_single_seed_examples():
    state = monodisperse(8)
    q2 = rhs_dense_Q(dense_constant(2, 8), state)
    expected = np.zeros(8)
    expected[0] = -1.0
    np.testing.assert_allclose(q2, expected, atol=1e-15)

    q3 = rhs_dense_Q(dense_constant(3, 8), state)
    expected = np.zeros(8)
    expected[0] = -0.5
    np.testing.assert_allclose(q3, expected, atol=1e-15)


def test_dense_paths_match_literal_loops():
    rng = np.random.default_rng(17)
    spec = BrownianSpec((1 / 3, -1 / 3, 0.0))
    kernel = dense_from_spec(spec, 16)
    state = ConcentrationState(rng.random(16))
    np.testing.assert_allclose(
        rhs_dense_P(kernel, state), gain_by_loops(kernel.values, state.n), rtol=1e-12
    )
    np.testing.assert_allclose(
        rhs_dense_Q(kernel, state), loss_by_loops(kernel.values, state.n), rtol=1e-12
    )


def test_dense_gain_retains_only_its_result():
    # the index sums are built per call: once the gain returns, the memory
    # it leaves behind is p, not an N**d grid (405,224 bytes at d = 3,
    # N = 37); the slack covers Python object headers
    n_classes = 37
    kernel = dense_from_spec(BrownianSpec((1 / 3, -1 / 3, 0.0)), n_classes)
    state = ConcentrationState(np.random.default_rng(19).random(n_classes))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        p = rhs_dense_P(kernel, state)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert p.nbytes == n_classes * 8
    assert retained < p.nbytes + 4096


def test_dense_budget_guard(monkeypatch):
    import ttagg.kernels as kernels_mod

    kernel = DenseKernel(np.ones((2, 2)))
    state = ConcentrationState(np.ones(2))
    monkeypatch.setattr(kernels_mod, "DENSE_ELEMENT_BUDGET", 3)
    with pytest.raises(KernelError, match="budget"):
        rhs_dense_P(kernel, state)
    with pytest.raises(KernelError, match="budget"):
        rhs_dense_Q(kernel, state)


# ---------------------------------------------------------------------------
# TT fast path
# ---------------------------------------------------------------------------

def test_tt_gain_zero_state_is_zero():
    kernel = build_brownian_tt(BrownianSpec((0.5, -0.5, 0.0)), 16)
    state = ConcentrationState(np.zeros(16))
    np.testing.assert_array_equal(rhs_tt_P(kernel, state), np.zeros(16))
    np.testing.assert_array_equal(rhs_tt_Q(kernel, state), np.zeros(16))


def test_tt_gain_constant_kernel_is_self_convolution():
    rng = np.random.default_rng(23)
    n = rng.random(16)
    state = ConcentrationState(n)
    c = 1.75
    kernel = constant_tt(c, 3, 16)
    got = rhs_tt_P(kernel, state)
    conv = np.convolve(np.convolve(n, n), n)  # conv[m] = sum over sizes m + 3
    expected = np.zeros(16)
    expected[2:] = c * conv[: 16 - 2] / 6.0
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15)


def test_tt_loss_constant_kernel_moment_form():
    rng = np.random.default_rng(29)
    n = rng.random(20)
    state = ConcentrationState(n)
    c = 0.6
    for d in (2, 3, 4):
        kernel = constant_tt(c, d, 20)
        expected = -c * n * n.sum() ** (d - 1) / math.factorial(d - 1)
        np.testing.assert_allclose(rhs_tt_Q(kernel, state), expected, rtol=1e-12)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_tt_paths_match_dense_oracle(order):
    rng = np.random.default_rng(order * 31)
    n_classes = 32
    spec = BrownianSpec(tuple(rng.uniform(-1, 1, size=order)))
    tt = build_brownian_tt(spec, n_classes)
    dense = dense_from_spec(spec, n_classes)
    for _ in range(5):
        state = ConcentrationState(rng.random(n_classes))
        assert rel_inf(rhs_tt_P(tt, state), rhs_dense_P(dense, state)) < 1e-10
        assert rel_inf(rhs_tt_Q(tt, state), rhs_dense_Q(dense, state)) < 1e-10


# ---------------------------------------------------------------------------
# CP fast path
# ---------------------------------------------------------------------------

def test_cp_zero_state_is_zero():
    rng = np.random.default_rng(37)
    kernel = CPKernel(tuple(rng.random((16, 3)) for _ in range(3)))
    state = ConcentrationState(np.zeros(16))
    np.testing.assert_array_equal(rhs_cp_P(kernel, state), np.zeros(16))
    np.testing.assert_array_equal(rhs_cp_Q(kernel, state), np.zeros(16))


def test_cp_rank_one_matches_tt_rank_one():
    rng = np.random.default_rng(41)
    state = ConcentrationState(rng.random(24))
    for d in (2, 3):
        tt = constant_tt(2.0, d, 24)
        cp = CPKernel((np.full((24, 1), 2.0),) + (np.ones((24, 1)),) * (d - 1))
        np.testing.assert_allclose(
            rhs_cp_P(cp, state), rhs_tt_P(tt, state), rtol=1e-13, atol=1e-16
        )
        np.testing.assert_allclose(
            rhs_cp_Q(cp, state), rhs_tt_Q(tt, state), rtol=1e-13
        )


@pytest.mark.parametrize("order", [2, 3, 4])
def test_cp_paths_match_dense_oracle(order):
    rng = np.random.default_rng(order * 43)
    n_classes = 32
    kernel = CPKernel(tuple(rng.random((n_classes, 4)) for _ in range(order)))
    dense = dense_from_cp(kernel)
    for _ in range(5):
        state = ConcentrationState(rng.random(n_classes))
        assert rel_inf(rhs_cp_P(kernel, state), rhs_dense_P(dense, state)) < 1e-10
        assert rel_inf(rhs_cp_Q(kernel, state), rhs_dense_Q(dense, state)) < 1e-10


def loss_by_mode_loop(kernel, n):
    """The CP losses one mode at a time: the same terms as `rhs_cp_Q`,
    which takes the moments and the tail in one matrix-vector product
    each and so sums them in another order."""
    d = kernel.dimension
    moments = np.stack([n @ factor for factor in kernel.factors])
    if isinstance(kernel, SymmetrizedCPKernel):
        tail = np.zeros(n.size)
        for m, factor in enumerate(kernel.factors):
            others = np.ones(kernel.rank)
            for other in range(d):
                if other != m:
                    others = others * moments[other]
            tail += factor @ others
        return -(n * tail)
    scalars = np.ones(kernel.rank)
    for mode in range(d - 1):
        scalars = scalars * moments[mode]
    return -(n * (kernel.factors[d - 1] @ scalars)) / math.factorial(d - 1)


@pytest.mark.parametrize("rank", [1, 3])
@pytest.mark.parametrize("order", [2, 3, 4, 5])
@pytest.mark.parametrize("form", [CPKernel, SymmetrizedCPKernel])
def test_cp_losses_match_the_dense_oracle_and_the_mode_loop(form, order, rank):
    rng = np.random.default_rng(order * 10 + rank)
    n_classes = _SYMMETRIZED_N[order]
    kernel = form(tuple(rng.uniform(0.5, 1.5, (n_classes, rank)) for _ in range(order)))
    dense = dense_from_cp(kernel)
    for _ in range(3):
        state = ConcentrationState(rng.random(n_classes))
        q = rhs_cp_Q(kernel, state)
        assert rel_inf(q, rhs_dense_Q(dense, state)) <= 1e-13
        # the matrix-vector products sum in another order than the loop;
        # every term is positive, so each of the d moments and the tail,
        # sums of at most N and d*R terms, moves by that many ulps at most
        ref = loss_by_mode_loop(kernel, state.n)
        bound = order * (n_classes + order * rank) * np.finfo(float).eps
        np.testing.assert_allclose(q, ref, rtol=bound, atol=0.0)


def loss_by_core_loop(kernel, n):
    """The TT loss one core at a time, each contracted with the state by
    its own einsum: the same terms as `rhs_tt_Q`, which takes the moments
    and the tail in one matrix-vector product each and so sums them in
    another order."""
    d = kernel.dimension
    cores = [core[:, : n.size] for core in kernel.cores]
    w = np.einsum("rns,n->rs", cores[0], n)
    for core in cores[1 : d - 1]:
        w = w @ np.einsum("rns,n->rs", core, n)
    tail = w[0] @ cores[d - 1][:, :, 0]
    return -(n * tail) / math.factorial(d - 1)


def random_tt(order, n_classes, rng):
    # nonnegative cores at internal ranks 1..3; not symmetric, which the
    # loss and its references contract the same way regardless
    ranks = [1, *rng.integers(1, 4, order - 1), 1]
    return TTKernel(
        tuple(rng.random((rp, n_classes, rn)) for rp, rn in zip(ranks, ranks[1:]))
    )


@pytest.mark.parametrize("kind", ["brownian", "random"])
@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_tt_loss_matches_the_dense_oracle_and_the_core_loop(order, kind):
    rng = np.random.default_rng(order * 10 + len(kind))
    n_classes = _SYMMETRIZED_N[order]
    if kind == "brownian":
        kernel = build_brownian_tt(BrownianSpec(tuple(rng.uniform(-1, 1, order))), n_classes)
    else:
        kernel = random_tt(order, n_classes, rng)
    dense = dense_from_tt(kernel)
    # every term is nonnegative, so each moment, a sum of at most N terms,
    # each of the d-1 chained products and the tail, sums of at most R
    # terms, moves by that many ulps at most between summation orders
    bound = order * (n_classes + order * kernel.max_rank) * np.finfo(float).eps
    # two full states, a head over the first N/2 sizes (R < N), and one
    # whose occupied sizes end at 3 below its R = N/2
    head = rng.random(n_classes // 2)
    narrow = head.copy()
    narrow[3:] = 0.0
    for n in (rng.random(n_classes), rng.random(n_classes), head, narrow):
        state = ConcentrationState(n)
        q = rhs_tt_Q(kernel, state)
        assert q.shape == (n.size,)
        ref = rhs_dense_Q(dense, state)
        assert rel_inf(q, ref) <= 1e-13
        np.testing.assert_allclose(q, loss_by_core_loop(kernel, n), rtol=bound, atol=0.0)


# ---------------------------------------------------------------------------
# symmetrized CP fast paths
# ---------------------------------------------------------------------------

# N per order keeps the dense oracle small; N**5 at N = 12 is 2.5e5 elements
_SYMMETRIZED_N = {2: 32, 3: 24, 4: 14, 5: 12}


def symmetrized_cases(order, rng):
    """Brownian kernels with negative and repeated exponents, and a rank-2
    sum of random factors, each with its dense expansion."""
    n_classes = _SYMMETRIZED_N[order]
    negative = BrownianSpec(tuple(rng.uniform(-1, 0, size=order)))
    repeated = BrownianSpec((0.5,) * (order - 1) + (-0.5,))
    cases = [
        (brownian_symmetrized_cp(spec, n_classes), dense_from_spec(spec, n_classes))
        for spec in (negative, repeated)
    ]
    rank_two = SymmetrizedCPKernel(
        tuple(rng.random((n_classes, 2)) for _ in range(order))
    )
    cases.append((rank_two, dense_from_cp(rank_two)))
    return cases


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_symmetrized_paths_match_dense_oracle(order):
    rng = np.random.default_rng(order * 101)
    for kernel, dense in symmetrized_cases(order, rng):
        for _ in range(3):
            state = ConcentrationState(rng.random(kernel.n_classes))
            assert rel_inf(rhs_cp_P(kernel, state), rhs_dense_P(dense, state)) < 1e-10
            assert rel_inf(rhs_cp_Q(kernel, state), rhs_dense_Q(dense, state)) < 1e-10


@pytest.mark.parametrize("order", [3, 4])
def test_symmetrized_brownian_matches_constructive_tt(order):
    # beyond the dense budget the two exact forms still agree
    rng = np.random.default_rng(order * 103)
    n_classes = 1 << 12
    spec = BrownianSpec(tuple(rng.uniform(-1, 1, size=order)))
    state = ConcentrationState(rng.random(n_classes))
    sym = brownian_symmetrized_cp(spec, n_classes)
    tt = build_brownian_tt(spec, n_classes)
    assert rel_inf(rhs_cp_P(sym, state), rhs_tt_P(tt, state)) <= 1e-12
    assert rel_inf(rhs_cp_Q(sym, state), rhs_tt_Q(tt, state)) <= 1e-12


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_constant_symmetrized_cp_matches_the_dense_oracle_and_the_tt(order):
    # a constant c is the rank-1 symmetrized CP with factors c/d!, 1, ..., 1
    n_classes, c = 16, 1.75
    kernel = constant_symmetrized_cp(c, order, n_classes)
    assert isinstance(kernel, SymmetrizedCPKernel) and kernel.rank == 1
    dense = dense_from_spec(ConstantSpec(c, order), n_classes)
    tt = constant_tt(c, order, n_classes)
    rng = np.random.default_rng(order * 113)
    narrow = rng.random(n_classes)
    narrow[n_classes // 4 :] = 0.0
    for n in (rng.random(n_classes), narrow):
        state = ConcentrationState(n)
        p, q = rhs_cp_P(kernel, state), rhs_cp_Q(kernel, state)
        assert rel_inf(p, rhs_dense_P(dense, state)) <= 1e-12
        assert rel_inf(q, rhs_dense_Q(dense, state)) <= 1e-12
        assert rel_inf(p, rhs_tt_P(tt, state)) <= 1e-12
        assert rel_inf(q, rhs_tt_Q(tt, state)) <= 1e-12


def test_kernel_set_accepts_symmetrized_form_at_small_n():
    rng = np.random.default_rng(107)
    for n_classes in (2, 16, 64):
        kernel = brownian_symmetrized_cp(BrownianSpec((1 / 3, -1 / 3, 0.0)), n_classes)
        assert KernelSet({3: kernel})[3] is kernel
    rank_two = SymmetrizedCPKernel(tuple(rng.random((16, 2)) for _ in range(4)))
    assert sample_symmetry_violation(rank_two) < 1e-12
    KernelSet({4: rank_two})
    seven = brownian_symmetrized_cp(BrownianSpec(tuple(rng.uniform(-1, 1, 7))), 8)
    assert KernelSet({7: seven})[7] is seven


def test_kernel_set_does_not_sample_the_symmetrized_form():
    # symmetric by construction: a kernel set takes it at any N without
    # sampling, also at D = 9, where one sampled coefficient would need 9!
    # slot orders, over the element cap
    nine = brownian_symmetrized_cp(BrownianSpec(tuple(np.linspace(-1, 1, 9))), 64)
    with pytest.raises(KernelError, match="capped"):
        sample_symmetry_violation(nine)
    assert KernelSet({9: nine})[9] is nine


def test_symmetrized_path_is_deterministic():
    rng = np.random.default_rng(109)
    kernel = brownian_symmetrized_cp(BrownianSpec((1 / 3, -1 / 3, 0.0)), 256)
    state = ConcentrationState(rng.random(256))
    plan = ExecutionPlan(workers=2)
    first_p, first_q = rhs_gain_loss(kernel, state, plan)
    for _ in range(3):
        p, q = rhs_gain_loss(kernel, state, plan)
        np.testing.assert_array_equal(p, first_p)
        np.testing.assert_array_equal(q, first_q)


def test_symmetrized_results_do_not_depend_on_worker_count():
    rng = np.random.default_rng(113)
    n_classes = 512
    kernels = KernelSet(
        {
            3: brownian_symmetrized_cp(BrownianSpec((1 / 3, -1 / 3, 0.0)), n_classes),
            4: brownian_symmetrized_cp(BrownianSpec((0.5, -0.5, 0.25, 0.0)), n_classes),
        }
    )
    assert_same_bits_for_every_worker_count(kernels, rng.random(n_classes))


def test_symmetrized_mass_conservation_before_boundary_contact():
    rng = np.random.default_rng(127)
    n_classes = 256
    sizes = np.arange(1, n_classes + 1, dtype=np.float64)
    for mu in ((0.25, -0.25), (1 / 3, -1 / 3, 0.0), (0.5, -0.5, 0.25, 0.0)):
        d = len(mu)
        n = np.zeros(n_classes)
        n[: n_classes // d] = rng.random(n_classes // d)
        state = ConcentrationState(n)
        kernel = brownian_symmetrized_cp(BrownianSpec(mu), n_classes)
        result = rhs_total(KernelSet({d: kernel}), state)
        gain_mass = sizes @ result.p
        assert gain_mass > 0.0
        assert abs(sizes @ result.s) <= 1e-12 * gain_mass


def test_gain_loss_rejects_unknown_representation():
    with pytest.raises(KernelError, match="unsupported"):
        rhs_gain_loss(object(), monodisperse(8))


# ---------------------------------------------------------------------------
# combined right-hand side
# ---------------------------------------------------------------------------

def test_total_single_binary_constant():
    kernels = KernelSet({2: constant_tt(1.0, 2, 8)})
    result = rhs_total(kernels, monodisperse(8))
    expected = np.zeros(8)
    expected[0] = -1.0
    expected[1] = 0.5
    np.testing.assert_allclose(result.s, expected, atol=1e-15)


def test_total_empty_set_rejected():
    with pytest.raises(KernelError, match="no collision orders"):
        rhs_total(KernelSet({}), monodisperse(8))


def test_total_mixed_orders_matches_dense_sum():
    rng = np.random.default_rng(47)
    n_classes = 32
    spec2 = BrownianSpec((0.25, -0.25))
    spec3 = BrownianSpec((1 / 3, -1 / 3, 0.0))
    kernels = KernelSet(
        {
            2: build_brownian_tt(spec2, n_classes),
            3: build_brownian_tt(spec3, n_classes),
        }
    )
    dense2 = dense_from_spec(spec2, n_classes)
    dense3 = dense_from_spec(spec3, n_classes)
    state = ConcentrationState(rng.random(n_classes))
    result = rhs_total(kernels, state)
    ref_p = rhs_dense_P(dense2, state) + rhs_dense_P(dense3, state)
    ref_q = rhs_dense_Q(dense2, state) + rhs_dense_Q(dense3, state)
    assert rel_inf(result.p, ref_p) < 1e-10
    assert rel_inf(result.q, ref_q) < 1e-10
    np.testing.assert_array_equal(result.s, result.p + result.q)
    # the totals are the per-order gains and losses, summed in order
    (p2, q2), (p3, q3) = (rhs_gain_loss(kernels[d], state) for d in (2, 3))
    np.testing.assert_array_equal(result.p, p2 + p3)
    np.testing.assert_array_equal(result.q, q2 + q3)


def test_total_state_size_mismatch():
    kernels = KernelSet({2: constant_tt(1.0, 2, 8)})
    with pytest.raises(KernelError, match="N"):
        rhs_total(kernels, monodisperse(9))


# N per case keeps the dense kernels small
_HEAD_N = 40
_HEAD_CASES = {
    "tt": lambda n: {3: build_brownian_tt(BrownianSpec((1 / 3, -1 / 3, 0.0)), n)},
    "cp": lambda n: {3: _symmetric_rank2_cp(n)},
    "symmetrized-cp": lambda n: {
        4: brownian_symmetrized_cp(BrownianSpec((0.5, -0.5, 0.25, 0.0)), n)
    },
    "dense": lambda n: {3: dense_from_spec(BrownianSpec((1 / 3, -1 / 3, 0.0)), n)},
    "mixed-2-3": lambda n: {
        2: dense_from_spec(BrownianSpec((0.25, -0.25)), n),
        3: brownian_symmetrized_cp(BrownianSpec((1 / 3, -1 / 3, 0.0)), n),
    },
}


@pytest.mark.parametrize("case", sorted(_HEAD_CASES))
def test_head_states_give_the_leading_entries_of_the_full_results(case):
    # a state over sizes 1..R stands for the same state padded with zeros
    # to N, and every operator returns the first R entries of its result
    kernels = KernelSet(_HEAD_CASES[case](_HEAD_N))
    rng = np.random.default_rng(131)
    # the head shorter than the gain's reach, at it, past it, and all N
    for reach, occupied in ((8, 5), (12, 3), (_HEAD_N - 1, 7), (30, 30), (_HEAD_N, 21)):
        n = np.zeros(_HEAD_N)
        n[:occupied] = rng.random(occupied)
        full, head = ConcentrationState(n), ConcentrationState(n[:reach])
        assert head.occupied_size == full.occupied_size == occupied
        for kernel in kernels.kernels.values():
            for got, ref in zip(rhs_gain_loss(kernel, head), rhs_gain_loss(kernel, full)):
                assert got.shape == (reach,)
                np.testing.assert_array_equal(got, ref[:reach])
        got, ref = rhs_total(kernels, head), rhs_total(kernels, full)
        np.testing.assert_array_equal(got.p, ref.p[:reach])
        np.testing.assert_array_equal(got.q, ref.q[:reach])
        np.testing.assert_array_equal(got.s, ref.s[:reach])


@pytest.mark.parametrize("case", sorted(_HEAD_CASES))
def test_states_longer_than_the_kernel_are_rejected(case):
    kernels = KernelSet(_HEAD_CASES[case](_HEAD_N))
    state = monodisperse(_HEAD_N + 1)
    for kernel in kernels.kernels.values():
        with pytest.raises(KernelError, match="more than the kernel's N"):
            rhs_gain_loss(kernel, state)
    with pytest.raises(KernelError, match="N"):
        rhs_total(kernels, state)


# ---------------------------------------------------------------------------
# physical invariants
# ---------------------------------------------------------------------------

def test_mass_conservation_before_boundary_contact():
    # Support on [1, N/4] keeps every ternary index sum inside the grid, so
    # the gain and loss first moments cancel exactly.
    rng = np.random.default_rng(53)
    n_classes = 64
    n = np.zeros(n_classes)
    n[: n_classes // 4] = rng.random(n_classes // 4)
    state = ConcentrationState(n)
    sizes = np.arange(1, n_classes + 1, dtype=np.float64)

    for kernel in (
        constant_tt(1.0, 3, n_classes),
        build_brownian_tt(BrownianSpec((1 / 3, -1 / 3, 0.0)), n_classes),
    ):
        result = rhs_total(KernelSet({3: kernel}), state)
        gain_mass = sizes @ result.p
        assert abs(sizes @ result.s) <= 1e-12 * gain_mass


def test_rhs_scales_with_order_power():
    rng = np.random.default_rng(59)
    n_classes = 24
    n = rng.random(n_classes)
    alpha = 1.7
    for d in (2, 3):
        kernel = build_brownian_tt(BrownianSpec(tuple(rng.uniform(-1, 1, d))), n_classes)
        base = rhs_total(KernelSet({d: kernel}), ConcentrationState(n))
        scaled = rhs_total(KernelSet({d: kernel}), ConcentrationState(alpha * n))
        np.testing.assert_allclose(scaled.p, alpha**d * base.p, rtol=1e-12)
        np.testing.assert_allclose(scaled.q, alpha**d * base.q, rtol=1e-12)


def test_gain_support_lower_bound_is_exact():
    rng = np.random.default_rng(61)
    n_classes = 32
    state = ConcentrationState(rng.random(n_classes) + 0.5)
    for d in (2, 3, 4):
        kernel = build_brownian_tt(
            BrownianSpec(tuple(rng.uniform(-1, 1, d))), n_classes
        )
        p = rhs_tt_P(kernel, state)
        assert np.all(p[: d - 1] == 0.0)


def test_fft_path_is_deterministic():
    rng = np.random.default_rng(67)
    kernel = build_brownian_tt(BrownianSpec((1 / 3, -1 / 3, 0.0)), 64)
    state = ConcentrationState(rng.random(64))
    plan = ExecutionPlan(workers=2)
    first = rhs_tt_P(kernel, state, plan)
    second = rhs_tt_P(kernel, state, plan)
    np.testing.assert_array_equal(first, second)


def assert_same_bits_for_every_worker_count(kernels, n):
    # only the FFT backend sees the worker count, and it splits transforms
    # by whole rows: every count gives the 1-worker bits, on a state with
    # full support and on one trimmed to its first fifth of sizes
    trimmed = n.copy()
    trimmed[n.size // 5 :] = 0.0
    for values in (n, trimmed):
        state = ConcentrationState(values)
        ref = rhs_total(kernels, state, ExecutionPlan(workers=1))
        for workers in (2, 4, 8):
            got = rhs_total(kernels, state, ExecutionPlan(workers=workers))
            np.testing.assert_array_equal(got.p, ref.p)
            np.testing.assert_array_equal(got.q, ref.q)
            np.testing.assert_array_equal(got.s, ref.s)


def test_results_do_not_depend_on_worker_count():
    rng = np.random.default_rng(71)
    n_classes = 512
    shared = rng.random((n_classes, 2))  # equal factors make a symmetric CP kernel
    kernels = KernelSet(
        {
            2: CPKernel((shared, shared)),
            3: build_brownian_tt(BrownianSpec((1 / 3, -1 / 3, 0.0)), n_classes),
            4: build_brownian_tt(BrownianSpec((0.5, -0.5, 0.25, 0.0)), n_classes),
        }
    )
    assert_same_bits_for_every_worker_count(kernels, rng.random(n_classes))


def test_four_workers_give_the_serial_tt_bits():
    rng = np.random.default_rng(74)
    n_classes = 64
    kernels = KernelSet(
        {3: build_brownian_tt(BrownianSpec((1 / 3, -1 / 3, 0.0)), n_classes)}
    )
    state = ConcentrationState(rng.random(n_classes))
    ref = rhs_total(kernels, state, ExecutionPlan(workers=1)).s
    plan = ExecutionPlan(workers=4)
    np.testing.assert_array_equal(rhs_total(kernels, state, plan).s, ref)


def test_any_alias_free_length_gives_the_gain(monkeypatch):
    # any alias-free transform length gives the gain up to roundoff; with
    # no direct bound the small CP gain transforms too
    monkeypatch.setattr(ttagg.rhs, "_DIRECT_WORK", 0)
    rng = np.random.default_rng(73)
    state = ConcentrationState(rng.random(48))
    tt = build_brownian_tt(BrownianSpec((1 / 3, -1 / 3, 0.0)), 48)
    sym = brownian_symmetrized_cp(BrownianSpec((1 / 3, -1 / 3, 0.0)), 48)
    fast = rhs_tt_P(tt, state), rhs_cp_P(sym, state)

    def pow2(order, occupied):
        # a longer alias-free length: the smallest power of two at the bound
        return 1 << (order * (occupied - 1)).bit_length()

    assert ttagg.rhs.fft_length(3, 48) < pow2(3, 48)  # 144 against 256
    monkeypatch.setattr(ttagg.rhs, "fft_length", pow2)
    for got, ref in zip((rhs_tt_P(tt, state), rhs_cp_P(sym, state)), fast):
        assert rel_inf(got, ref) <= 1e-12


# N per order keeps the dense oracle small
_ALIAS_N = {2: 40, 3: 24, 4: 14, 5: 10}


def alias_cases(order):
    """TT, CP and symmetrized CP gains of one order, each with its dense
    oracle, on a full-support state (n_N != 0, so index sum d*N is hit)."""
    rng = np.random.default_rng(order * 131)
    n_classes = _ALIAS_N[order]
    spec = BrownianSpec(tuple(rng.uniform(-1, 1, size=order)))
    dense_spec = dense_from_spec(spec, n_classes)
    cp = CPKernel(tuple(rng.random((n_classes, 2)) for _ in range(order)))
    cases = [
        (rhs_tt_P, build_brownian_tt(spec, n_classes), dense_spec),
        (rhs_cp_P, brownian_symmetrized_cp(spec, n_classes), dense_spec),
        (rhs_cp_P, cp, dense_from_cp(cp)),
    ]
    state = ConcentrationState(rng.random(n_classes) + 0.5)
    return cases, state


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_gain_is_alias_free_at_the_minimal_length(order, monkeypatch):
    # size i sits at slot i-1, so index sums fill slots 0..d(N-1); with no
    # direct bound the CP gains transform too
    monkeypatch.setattr(ttagg.rhs, "_DIRECT_WORK", 0)
    monkeypatch.setattr(ttagg.rhs, "fft_length", lambda d, n: d * (n - 1) + 1)
    cases, state = alias_cases(order)
    for gain, kernel, dense in cases:
        assert rel_inf(gain(kernel, state), rhs_dense_P(dense, state)) <= 1e-10


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_one_slot_shorter_aliases_into_the_smallest_gain(order, monkeypatch):
    # at L = d(N-1) the index sum d*N, the d-tuple (N, ..., N), wraps onto
    # slot 0, which holds k = d; every other slot stays exact.  With no
    # direct bound the CP gains transform, as the TT gain always does
    monkeypatch.setattr(ttagg.rhs, "_DIRECT_WORK", 0)
    monkeypatch.setattr(ttagg.rhs, "fft_length", lambda d, n: d * (n - 1))
    cases, state = alias_cases(order)
    corner = (state.n_classes - 1,) * order
    for gain, kernel, dense in cases:
        got, ref = gain(kernel, state), rhs_dense_P(dense, state)
        wrapped = dense.values[corner] * state.n[-1] ** order / math.factorial(order)
        assert wrapped > 1e-6 * abs(ref).max()
        assert got[order - 1] - ref[order - 1] == pytest.approx(wrapped, rel=1e-8)
        assert rel_inf(got[order:], ref[order:]) <= 1e-10


def test_occupied_size_is_the_last_nonzero_size():
    n = np.zeros(16)
    assert ConcentrationState(n).occupied_size == 0
    n[0] = 1.0
    assert ConcentrationState(n).occupied_size == 1
    n[6] = -1e-300  # any nonzero entry counts, negative or tiny
    assert ConcentrationState(n).occupied_size == 7
    n[-1] = 2.0
    assert ConcentrationState(n).occupied_size == 16


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_gain_and_loss_are_exact_zeros_above_the_occupied_sizes(order):
    # a state vanishing above m reaches index sums up to d*m only: above
    # min(N, d*m) the gain sum is empty, above m the loss has n_k = 0
    cases, full = alias_cases(order)
    n_classes = full.n_classes
    # d*m < N, d*m >= N, and the all-zero state
    for occupied in ((n_classes - 1) // order, n_classes // 2 + 1, 0):
        n = full.n.copy()
        n[occupied:] = 0.0
        state = ConcentrationState(n)
        top = min(n_classes, order * occupied)
        for _, kernel, dense in cases:
            p, q = rhs_gain_loss(kernel, state, ExecutionPlan(workers=1))
            assert np.all(p[top:] == 0.0)
            assert np.all(q[occupied:] == 0.0)
            assert rel_inf(p, rhs_dense_P(dense, state)) <= 1e-10
            assert rel_inf(q, rhs_dense_Q(dense, state)) <= 1e-10
            p4, q4 = rhs_gain_loss(kernel, state, ExecutionPlan(workers=4))
            np.testing.assert_array_equal(p4, p)
            np.testing.assert_array_equal(q4, q)


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


def _symmetric_rank2_cp(n_classes):
    factor = np.random.default_rng(7).uniform(0.5, 1.5, size=(n_classes, 2))
    return CPKernel((factor, factor, factor))


@pytest.mark.parametrize(
    "make_kernel",
    [
        lambda n: brownian_symmetrized_cp(BrownianSpec((1 / 3, -1 / 3, 0.0)), n),
        lambda n: brownian_symmetrized_cp(BrownianSpec((0.5, -0.5, 0.25, 0.0)), n),
        _symmetric_rank2_cp,
        lambda n: build_brownian_tt(BrownianSpec((1 / 3, -1 / 3, 0.0)), n),
    ],
    ids=["symmetrized-cp-d3", "symmetrized-cp-d4", "cp-rank2-d3", "tt-d3"],
)
@pytest.mark.skipif(not _has_mallopt(), reason="needs glibc's mallopt")
def test_warm_full_support_gains_take_no_page_faults(make_kernel):
    # each gain allocates its buffers afresh; with glibc's thresholds
    # pinned, freed blocks stay in the heap and the next gain reuses their
    # pages, so warm gains at full support take no minor faults
    import resource

    n_classes = 1 << 15
    kernel = make_kernel(n_classes)
    sizes = np.arange(1, n_classes + 1)
    state = ConcentrationState(np.exp(-8.0 * sizes / n_classes))
    gain = rhs_tt_P if isinstance(kernel, TTKernel) else rhs_cp_P
    for _ in range(2):
        gain(kernel, state)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        gain(kernel, state)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before == 0


def _in_a_fresh_thread(fn):
    # a new thread has run no gain yet
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and len(out) == 1
    return out[0]


def test_gains_at_one_length_zero_above_the_occupied_sizes():
    # two states at one transform length, evaluated in turn: each gain
    # gives the bits it gives in a thread that has run no gain, so the
    # smaller state sees zeros above its sizes whatever ran before it
    n_classes = 256
    kernel = brownian_symmetrized_cp(BrownianSpec((1 / 3, -1 / 3, 0.0)), n_classes)
    large = 200
    length = ttagg.rhs.fft_length(3, large)
    small = min(m for m in range(2, large) if ttagg.rhs.fft_length(3, m) == length)
    assert small < large
    rng = np.random.default_rng(29)
    states = {}
    for occupied in (large, small):
        n = rng.random(n_classes)
        n[occupied:] = 0.0
        states[occupied] = ConcentrationState(n)
    fresh = {
        m: _in_a_fresh_thread(lambda s=state: rhs_cp_P(kernel, s))
        for m, state in states.items()
    }
    for order in ((large, small, large), (small, large, small)):
        for occupied in order:
            np.testing.assert_array_equal(rhs_cp_P(kernel, states[occupied]), fresh[occupied])


@pytest.mark.parametrize(
    "make_kernel",
    [
        lambda n: build_brownian_tt(BrownianSpec((1 / 3, -1 / 3, 0.0)), n),
        _symmetric_rank2_cp,
        lambda n: brownian_symmetrized_cp(BrownianSpec((0.5, -0.5, 0.25, 0.0)), n),
    ],
    ids=["tt-d3", "cp-rank2-d3", "symmetrized-cp-d4"],
)
def test_gains_at_shrinking_lengths_zero_above_the_occupied_sizes(make_kernel):
    # gains at a long, a short and the long length again, in one thread,
    # give the bits of each gain run alone in a thread of its own: each
    # sees zeros above its occupied sizes, whatever the buffers freed by
    # the gain before it held
    n_classes = 2048
    kernel = make_kernel(n_classes)
    gain = rhs_tt_P if isinstance(kernel, TTKernel) else rhs_cp_P
    rng = np.random.default_rng(31)
    states = {}
    for occupied in (1024, 4):
        n = rng.random(n_classes)
        n[occupied:] = 0.0
        states[occupied] = ConcentrationState(n)
    length = ttagg.rhs.fft_length
    assert length(kernel.dimension, 4) < length(kernel.dimension, 1024)
    fresh = {
        m: _in_a_fresh_thread(lambda m=m: gain(kernel, states[m])) for m in states
    }
    sequence = (1024, 4, 1024)
    reused = _in_a_fresh_thread(lambda: [gain(kernel, states[m]) for m in sequence])
    for occupied, got in zip(sequence, reused):
        np.testing.assert_array_equal(got, fresh[occupied])


_GROWING_CASES = {
    # D = 4: one order, 4 fiber rows, lengths 1 ... 4096 in 3 steps
    "brownian-4": (4, {4: BrownianSpec((0.5, -0.5, 0.25, 0.0))}),
    # {2, 3}: each right-hand side runs the order-2 gain (2 rows) at a
    # shorter length than the order-3 gain (3 rows)
    "mixed-2-3": (3, {2: BrownianSpec((0.25, -0.25)), 3: ConstantSpec(0.5, 3)}),
}

@pytest.mark.parametrize("case", sorted(_GROWING_CASES))
def test_warm_growing_state_gives_the_cold_bits(case):
    # a monodisperse start grows through ever longer transform lengths in
    # 3 steps; a second integrate in the same thread repeats the first
    dimension, specs = _GROWING_CASES[case]
    config = SimulationConfig(
        n_classes=1 << 12,
        dimension=dimension,
        kernel_specs=specs,
        initial=InitialCondition.monodisperse(1.0),
        time=TimeGrid(0.0, 1e-2, 3),
        record_every=3,
    )
    kernels = build_kernel_set(config)

    def cold_then_warm():
        cold, _ = integrate(config, kernels=kernels)
        warm, _ = integrate(config, kernels=kernels)
        return cold, warm

    cold, warm = _in_a_fresh_thread(cold_then_warm)
    np.testing.assert_array_equal(warm.n, cold.n)


def test_concurrent_gains_reproduce_the_serial_bits():
    # four threads on two cores evaluate states whose transform lengths
    # differ, and each result keeps the serial bits
    n_classes = 4096
    kernels = KernelSet(
        {3: brownian_symmetrized_cp(BrownianSpec((1 / 3, -1 / 3, 0.0)), n_classes)}
    )
    rng = np.random.default_rng(23)
    states = []
    for occupied in (n_classes, 300):
        n = rng.random(n_classes)
        n[occupied:] = 0.0
        states.append(ConcentrationState(n))
    serial = [rhs_total(kernels, state) for state in states]
    barrier = threading.Barrier(4)
    done, errors = [], []

    def evaluate(which):
        try:
            barrier.wait(timeout=30)
            for _ in range(25):
                result = rhs_total(kernels, states[which])
                np.testing.assert_array_equal(result.p, serial[which].p)
                np.testing.assert_array_equal(result.q, serial[which].q)
            done.append(which)
        except Exception as exc:  # reported by the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=evaluate, args=(i % 2,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert sorted(done) == [0, 0, 1, 1]


# ---------------------------------------------------------------------------
# the streamed CP gain
# ---------------------------------------------------------------------------

def _batched_cp_gain(kernel, state):
    """A CP or symmetrized CP gain as one `rfft` over all its fiber rows and
    an in-place fold of that block: the bits a batched gain must keep."""
    d = kernel.dimension
    occupied = state.occupied_size
    n = state.n
    p = np.zeros(n.size)
    top = min(n.size, d * occupied)
    if top < d:
        return p
    length = ttagg.rhs.fft_length(d, occupied)
    real = np.zeros((len(kernel.fibers), length))
    real[:, :occupied] = kernel.fibers[:, :occupied] * n[:occupied]
    spectra = np.fft.rfft(real, axis=1)
    acc = spectra[0]
    for start in range(0, len(spectra), d):
        first = spectra[start]
        for spec in spectra[start + 1 : start + d]:
            np.multiply(first, spec, out=first)
        if start:
            np.add(acc, first, out=acc)
    scale = 1.0 if isinstance(kernel, SymmetrizedCPKernel) else 1.0 / math.factorial(d)
    p[d - 1 : top] = np.fft.irfft(acc, n=length)[: top - d + 1] * scale
    return p


def _convolved_cp_gain(kernel, state):
    """A CP or symmetrized CP gain with no FFT: per rank, a chain of
    `np.convolve` over its d weighted fiber rows, summed over ranks."""
    d = kernel.dimension
    occupied = state.occupied_size
    weighted = kernel.fibers[:, :occupied] * state.n[:occupied]
    total = sum(
        reduce(np.convolve, weighted[start : start + d])
        for start in range(0, len(weighted), d)
    )
    scale = 1.0 if isinstance(kernel, SymmetrizedCPKernel) else 1.0 / math.factorial(d)
    top = min(state.n_classes, d * occupied)
    p = np.zeros(state.n_classes)
    p[d - 1 : top] = total[: top - d + 1] * scale
    return p


_STREAM_N = 4096

# (state length R, occupied size m): full support, a sub-N state, a
# state of middle width, whose outputs wrap past the split's block length
# B (top > B), one whose B is odd (3375 = 3^3 5^3 at d = 3 and 5, with
# top > B), and a narrow one; at N = 4096 every split keeps one block
_STREAM_STATES = {
    "full": (_STREAM_N, _STREAM_N),
    "sub-n": (3000, 3000),
    "middle": (_STREAM_N, 1500),
    "odd-block": (_STREAM_N, 3375),
    "narrow": (_STREAM_N, 40),
}


def _stream_kernel(form, order, rank, n_classes=_STREAM_N):
    rng = np.random.default_rng(100 * order + rank)
    factors = tuple(rng.uniform(0.5, 1.5, size=(n_classes, rank)) for _ in range(order))
    return (CPKernel if form == "cp" else SymmetrizedCPKernel)(factors)


def _stream_state(which):
    size, occupied = _STREAM_STATES[which]
    n = np.random.default_rng(occupied).uniform(0.1, 1.0, size)
    n[occupied:] = 0.0
    return ConcentrationState(n)


def _split(kernel, state):
    # the split (q, B) of a streamed gain, from `gain_path`'s rule
    return ttagg.rhs._gain_rule(kernel, state)[2]


def _cp_path(order, rank, state):
    # the path `gain_path` picks for an order-d CP gain of `rank` ranks on
    # `state`; the rule reads the kernel's order, rows and form only
    kernel = CPKernel(tuple(np.ones((state.n_classes, rank)) for _ in range(order)))
    return ttagg.rhs.gain_path(kernel, state)


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("order", [2, 3, 4, 5])
@pytest.mark.parametrize("form", ["cp", "symmetrized"])
def test_streamed_cp_gain_keeps_the_bits_of_one_batched_call(form, order, rank, monkeypatch):
    # a batched gain, and a streamed one at q = 1 (d = 2, one block),
    # which transforms at B = L, has the bits of one call; a split gain is
    # held to direct convolution below.  The narrow state would convolve
    # directly, so the bound is lifted: every state here transforms
    monkeypatch.setattr(ttagg.rhs, "_DIRECT_WORK", 0)
    kernel = _stream_kernel(form, order, rank)
    for which in _STREAM_STATES:
        state = _stream_state(which)
        path = ttagg.rhs.gain_path(kernel, state)
        if path == "streamed FFT" and _split(kernel, state)[0] > 1:
            continue
        np.testing.assert_array_equal(
            rhs_cp_P(kernel, state), _batched_cp_gain(kernel, state), err_msg=which
        )


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("order", [2, 3, 4, 5])
@pytest.mark.parametrize("form", ["cp", "symmetrized"])
def test_streamed_cp_gain_matches_direct_convolution_to_roundoff(form, order, rank):
    # split, a gain transforms at L = q * B, so it does not share the bits
    # of one batched `rfft` at `fft_length`: it is held to the FFT-free
    # reference, and to exact zeros above min(R, d * m); at q = 1 (d = 2)
    # a streamed gain keeps the batched bits
    kernel = _stream_kernel(form, order, rank)
    for which, (size, occupied) in _STREAM_STATES.items():
        state = _stream_state(which)
        if ttagg.rhs.gain_path(kernel, state) != "streamed FFT":
            continue
        got, expected = rhs_cp_P(kernel, state), _convolved_cp_gain(kernel, state)
        assert rel_inf(got, expected) <= 1e-12, which
        assert np.all(got[min(size, order * occupied) :] == 0.0), which
        if _split(kernel, state)[0] == 1:
            np.testing.assert_array_equal(got, _batched_cp_gain(kernel, state), which)


def test_streamed_cp_gain_cases_cover_every_batch_shape(monkeypatch):
    # the cases above run both shapes of a CP gain, one call over all rows
    # and one row per call: the budget falls between their sizes; the
    # streamed ones keep one block at N = 4096 and run q = 1, 3 and 5, and
    # include outputs that wrap past the block length B and an odd B (the
    # blocked split is tested at a small B below).  As in the first test
    # above, no case convolves directly
    monkeypatch.setattr(ttagg.rhs, "_DIRECT_WORK", 0)
    shapes, radices, wraps, odd_blocks = set(), set(), set(), set()
    for order, rank, which in product((2, 3, 4, 5), (1, 2, 3), _STREAM_STATES):
        size, occupied = _STREAM_STATES[which]
        state = _stream_state(which)
        path = _cp_path(order, rank, state)
        streamed = path == "streamed FFT"
        shapes.add((rank == 1, "streamed" if streamed else "batched"))
        if streamed:
            radix, block = _split(_stream_kernel("cp", order, rank), state)
            assert block >= occupied
            radices.add(radix)
            wraps.add(min(size, order * occupied) - order + 1 > block)
            odd_blocks.add(block % 2 == 1)
    assert {shape for _, shape in shapes} == {"batched", "streamed"}
    # the stream keeps one running spectrum at rank 1 and two above it
    assert {(True, "streamed"), (False, "streamed")} <= shapes
    assert radices == {1, 3, 5}
    assert wraps == {True, False}
    assert odd_blocks == {True, False}


def test_tracer_without_complex_transforms_keeps_the_gain_bits(monkeypatch):
    # a tracer replaces `rhs._fft` with its real transforms only; the
    # split's complex transforms are bound apart, so streamed and batched
    # gains still run, with the bits they have unpatched: batched, one
    # block at q = 3, and 64 blocks of 64 at q = 192
    kernels = [_stream_kernel("cp", order, 1) for order in (2, 3)]
    state = _stream_state("full")
    splits = [(None, None), (None, None), (64, 0)]
    cases = []
    for kernel, (block, single) in zip(kernels + kernels[1:], splits):
        with monkeypatch.context() as patched:
            if block:
                patched.setattr(ttagg.rhs, "_BLOCK", block)
                patched.setattr(ttagg.rhs, "_SINGLE_LENGTH", single)
            cases.append((ttagg.rhs._gain_rule(kernel, state), rhs_cp_P(kernel, state)))
            with monkeypatch.context() as traced:
                traced.setattr(
                    ttagg.rhs, "_fft", types.SimpleNamespace(rfft=np.fft.rfft, irfft=np.fft.irfft)
                )
                np.testing.assert_array_equal(rhs_cp_P(kernel, state), cases[-1][1])
    rules = [(path, split) for (path, _, split), _ in cases]
    assert rules == [("batched FFT", None), ("streamed FFT", (3, _STREAM_N)), ("streamed FFT", (192, 64))]


def _traced_gain_peak(kernel, state):
    # bytes a warm gain allocates above what it starts with
    rhs_cp_P(kernel, state)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rhs_cp_P(kernel, state)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _stream_buffers(order, occupied, n_classes, radix, block, rank):
    # bytes of the buffers a streamed gain on sizes 1..m of R holds at
    # once (`_cp_stream`).  Folding: the running half spectrum, class 0's
    # B // 2 + 1 bins and B for each of q // 2 more, a second at rank > 1;
    # the scratch a row's later modes arrive in, `_GROUP_BYTES` of classes
    # or class 0's half row; the weighted row, in p's head for one block
    # and in complex blocks and their sum otherwise; the
    # block-DFT matrix with its integer phases; p.  Inverting: the
    # spectrum, class 0's inverse, the unfolded complex blocks of the
    # output and p
    half, classes = block // 2 + 1, radix // 2
    spectrum = 16 * (half + classes * block)
    group = max(1, ttagg.rhs._GROUP_BYTES // (16 * block))
    scratch = 16 * max(half, min(group, classes) * block)
    blocks = -(-occupied // block)
    if blocks > 1:
        weighted = 16 * blocks * block + 8 * block
    else:
        # the ufunc's 512-value buffers that cast the real row to complex
        # as every class twists it
        weighted = 16 << 10 if classes else 0
    folding = spectrum * (2 if rank > 1 else 1) + scratch + weighted + 24 * classes * blocks
    outputs = -(-(min(n_classes, order * occupied) - order + 1) // block)
    inverting = spectrum + 8 * block + (16 * outputs * block if radix > 1 else 0)
    return max(folding, inverting) + 8 * n_classes


def _full_support_state(n_classes):
    sizes = np.arange(1, n_classes + 1)
    return ConcentrationState(np.exp(-8.0 * sizes / n_classes))


def test_full_support_cp_gain_memory_does_not_grow_with_the_rank():
    # at full support a row of L = 49152 is over the batch budget, so the
    # rows stream through one-row buffers: a rank-4 gain holds one running
    # half spectrum more than a rank-1 gain (the product of a later rank),
    # where one call over all rows held 12 rows of each buffer against 3
    n_classes, order = 1 << 14, 3
    state = _full_support_state(n_classes)
    peaks = {}
    for rank in (1, 2, 4):
        kernel = _stream_kernel("cp", order, rank, n_classes)
        assert ttagg.rhs.gain_path(kernel, state) == "streamed FFT"
        peaks[rank] = _traced_gain_peak(kernel, state)
    radix, block = _split(kernel, state)
    spectrum = (block // 2 + 1 + radix // 2 * block) * 16
    assert abs(peaks[4] - peaks[2]) <= 4096, peaks
    assert peaks[4] - peaks[1] <= spectrum + 4096, peaks


def test_streamed_gain_holds_no_real_row_of_transform_length():
    # the split's transforms of the m occupied sizes run into complex
    # class rows of the block length B, its twiddles come from tables of
    # about sqrt(B) entries, and the inverse goes through those rows, so a
    # warm rank-1 gain holds no more than the buffers `_stream_buffers`
    # counts; a zero-padded real row of L would add L * 8 bytes
    n_classes, order = 1 << 14, 3
    state = _full_support_state(n_classes)
    kernel = _stream_kernel("cp", order, 1, n_classes)
    assert ttagg.rhs.gain_path(kernel, state) == "streamed FFT"
    radix, block = _split(kernel, state)
    held = _stream_buffers(order, n_classes, n_classes, radix, block, 1)
    peak = _traced_gain_peak(kernel, state)
    assert peak <= held + 4096, (peak, held)


# the split of a streamed gain at full support, by order and N, where
# the gain streams: one block (q <= 5) or blocks of 4096, at even and
# odd q
_HELD_SPLITS = {
    (2, 1 << 15): (16, 4096), (2, 12000): (1, 24000), (2, _STREAM_N): (1, 8192),
    (3, 1 << 15): (24, 4096), (3, 12000): (9, 4096), (3, _STREAM_N): (3, 4096),
    (4, 1 << 15): (32, 4096), (4, 12000): (12, 4096), (4, _STREAM_N): (3, 5625),
    (5, 1 << 15): (40, 4096), (5, 12000): (15, 4096), (5, _STREAM_N): (5, 4096),
}


@pytest.mark.parametrize("order", [2, 3, 4, 5])
@pytest.mark.parametrize("rank", [1, 3])
def test_streamed_gain_holds_one_folded_spectrum(order, rank):
    # a row's classes are folded into the running half spectrum as they
    # arrive and inverted once, so a warm gain holds the buffers
    # `_stream_buffers` counts and nothing more: one running spectrum at
    # rank 1 and two above it, a scratch of at most `_GROUP_BYTES`, the
    # weighted row and p
    for (d, n_classes), split in _HELD_SPLITS.items():
        state = _full_support_state(n_classes)
        kernel = _stream_kernel("symmetrized", order, rank, n_classes)
        if d != order or ttagg.rhs.gain_path(kernel, state) != "streamed FFT":
            continue
        assert _split(kernel, state) == split
        held = _stream_buffers(order, n_classes, n_classes, *split, rank)
        peak = _traced_gain_peak(kernel, state)
        assert peak <= held + 4096, (n_classes, peak, held)


@pytest.mark.parametrize(
    "make_kernel",
    [
        lambda n: brownian_symmetrized_cp(BrownianSpec((1 / 3, -1 / 3, 0.0)), n),
        lambda n: brownian_symmetrized_cp(BrownianSpec((0.5, -0.5, 0.25, 0.0)), n),
        lambda n: _stream_kernel("cp", 3, 2, n),
        lambda n: _stream_kernel("cp", 4, 2, n),
    ],
    ids=["symmetrized-cp-d3", "symmetrized-cp-d4", "cp-rank2-d3", "cp-rank2-d4"],
)
def test_streamed_gain_matches_direct_convolution(make_kernel):
    # at full support N = 8192 every gain here streams its rows
    n_classes = 8192
    kernel = make_kernel(n_classes)
    sizes = np.arange(1, n_classes + 1)
    state = ConcentrationState(np.exp(-8.0 * sizes / n_classes))
    assert ttagg.rhs.gain_path(kernel, state) == "streamed FFT"
    expected = _convolved_cp_gain(kernel, state)
    error = np.max(np.abs(rhs_cp_P(kernel, state) - expected))
    assert error <= 1e-12 * np.max(np.abs(expected)), error


# ---------------------------------------------------------------------------
# the blocked stream, at a block of 64 columns
# ---------------------------------------------------------------------------

# (first, stride, count, truncated) of `_lattice_state`, or None for a
# full-support state of 300 sizes: input and output over 5 blocks; output
# of 150 sizes on d*m (nout > nin); 40 sizes, one input block; and lattice
# states, one cut short
_BLOCKED_STATES = {
    "full": None,
    "wide-output": (1, 1, 150, False),
    "one-block": (1, 1, 40, False),
    "lattice": (3, 2, 90, False),
    "lattice-truncated": (2, 3, 70, True),
}


def _blocked_state(which, order):
    if _BLOCKED_STATES[which] is None:
        return ConcentrationState(np.random.default_rng(order).uniform(0.1, 1.0, 300))
    first, stride, count, truncated = _BLOCKED_STATES[which]
    return _lattice_state(first, stride, count, order, seed=count, truncated=truncated)


def _small_blocks(monkeypatch):
    # every transformed CP gain streams, in blocks of 64, three classes
    # to a group, so a row's classes come in several groups
    rhs = ttagg.rhs
    for name, value in (
        ("_BLOCK", 64), ("_SINGLE_LENGTH", 0), ("_BATCH_BYTES", 0),
        ("_DIRECT_WORK", 0), ("_GROUP_BYTES", 3 * 16 * 64),
    ):
        monkeypatch.setattr(rhs, name, value)


@pytest.mark.parametrize("rank", [1, 3])
@pytest.mark.parametrize("order", [2, 3, 4, 5])
@pytest.mark.parametrize("form", ["cp", "symmetrized"])
def test_blocked_stream_matches_direct_convolution(form, order, rank, monkeypatch):
    # every case splits into blocks of B = 64: the gain is held to the
    # FFT-free reference within 1e-12 relative, and to exact zeros above
    # min(R, d*m) and off the lattice
    _small_blocks(monkeypatch)
    for which in _BLOCKED_STATES:
        state = _blocked_state(which, order)
        kernel = _stream_kernel(form, order, rank, state.n_classes)
        path, lattice, (radix, block) = ttagg.rhs._gain_rule(kernel, state)
        assert (path, block) == ("streamed FFT", 64), which
        got = rhs_cp_P(kernel, state)
        assert rel_inf(got, ttagg.rhs.convolved_gain(kernel, state)) <= 1e-12, which
        top = min(state.n_classes, order * state.occupied_size)
        assert np.all(got[top:] == 0.0), which
        assert np.all(got[_off_the_gain_lattice(state, order, lattice)] == 0.0), which


def test_blocked_stream_cases_cover_every_shape(monkeypatch):
    # the cases above split at even and odd q, with input over one block
    # and over several, output over more blocks than input, and a lattice
    _small_blocks(monkeypatch)
    parities, inputs, wider, lattices = set(), set(), set(), set()
    for order, which in product((2, 3, 4, 5), _BLOCKED_STATES):
        state = _blocked_state(which, order)
        kernel = _stream_kernel("cp", order, 1, state.n_classes)
        _, (first, stride), (radix, block) = ttagg.rhs._gain_rule(kernel, state)
        count = (state.occupied_size - first) // stride + 1
        outputs = len(range(order * first - 1, min(state.n_classes, order * state.occupied_size), stride))
        parities.add(radix % 2)
        inputs.add(-(-count // block) > 1)
        wider.add(-(-outputs // block) > -(-count // block))
        lattices.add(stride > 1)
    assert parities == {0, 1}
    assert inputs == wider == lattices == {True, False}


# ---------------------------------------------------------------------------
# small CP gains convolve directly
# ---------------------------------------------------------------------------

# (d, rank, m): does an order-d CP gain of that rank on a state occupying
# sizes 1..m convolve directly?  Each rank's last direct m and first
# transformed one, the cells a D = 4 monodisperse run passes through, and
# rank 24, whose 24(d - 1) `np.convolve` calls never pay
_DIRECT_CELLS = {
    (2, 1, 235): True, (2, 1, 236): False,
    (3, 1, 130): True, (3, 1, 131): False,
    (4, 1, 1): True, (4, 1, 4): True, (4, 1, 16): True, (4, 1, 64): True,
    (4, 1, 88): True, (4, 1, 89): False, (4, 1, 256): False, (4, 1, 1024): False,
    (5, 1, 64): True, (5, 1, 65): False,
    (2, 3, 124): True, (2, 3, 125): False,
    (3, 3, 60): True, (3, 3, 61): False,
    (4, 3, 32): True, (4, 3, 33): False,
    (5, 3, 12): True, (5, 3, 13): False,
    (2, 24, 1): False, (5, 24, 1): False,
}


def _direct_cell_case(order, rank, occupied):
    # a symmetrized CP kernel and a state on sizes 1..m of d*m sizes
    kernel = _stream_kernel("symmetrized", order, rank, order * occupied)
    n = np.random.default_rng(occupied).uniform(0.1, 1.0, order * occupied)
    n[occupied:] = 0.0
    return kernel, ConcentrationState(n)


@pytest.mark.parametrize("cell", sorted(_DIRECT_CELLS), ids=str)
def test_small_cp_gains_convolve_directly_below_the_bound(cell, monkeypatch):
    # which path runs is read from the transforms it calls; either path
    # gives the gain of the FFT-free reference
    order, rank, occupied = cell
    direct = _DIRECT_CELLS[cell]
    calls = []

    def counted(transform):
        def call(*args, **kwargs):
            calls.append(transform.__name__)
            return transform(*args, **kwargs)

        return call

    transforms = types.SimpleNamespace(rfft=counted(np.fft.rfft), irfft=counted(np.fft.irfft))
    monkeypatch.setattr(ttagg.rhs, "_fft", transforms)
    kernel, state = _direct_cell_case(order, rank, occupied)
    got = rhs_cp_P(kernel, state)
    assert (not calls) == direct, calls
    assert ttagg.rhs.convolves_directly(order, rank, occupied) == direct
    assert ttagg.rhs.gain_path(kernel, state) == ("direct" if direct else "batched FFT")
    assert rel_inf(got, _convolved_cp_gain(kernel, state)) <= 1e-12


# state lengths per order keep each dense oracle small
_DECAYING_N = {2: 24, 3: 24, 4: 16, 5: 12}


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("order", [2, 3, 4, 5])
@pytest.mark.parametrize("form", ["cp", "symmetrized"])
def test_small_gain_is_componentwise_exact_on_a_decaying_state(form, order, rank):
    # n_k = 10^(-3k) spans hundreds of decades; an FFT's roundoff is
    # relative to the largest entry of p, so its small tail is noise, while
    # the direct convolution is exact to a few ulps in every component
    n_classes = _DECAYING_N[order]
    assert ttagg.rhs.convolves_directly(order, rank, n_classes)
    kernel = _stream_kernel(form, order, rank, n_classes)
    state = ConcentrationState(10.0 ** (-3.0 * np.arange(1, n_classes + 1)))
    got, ref = rhs_cp_P(kernel, state), rhs_dense_P(dense_from_cp(kernel), state)
    normal = np.abs(ref) >= np.finfo(np.float64).tiny
    assert normal.sum() >= n_classes // 2
    error = np.abs(got[normal] - ref[normal]) / np.abs(ref[normal])
    assert error.max() <= 1e-13, error.max()


def test_monodisperse_brownian_steps_keep_unreachable_sizes_empty():
    # from a monodisperse start an order-4 collision makes sizes 1 + 3j
    # only; two steps run their four gains at m = 1, 4, 16 and 64, all
    # direct, so every other size stays an exact zero and none goes negative
    n_classes = 1 << 12
    kernel = brownian_symmetrized_cp(BrownianSpec((0.5, -0.5, 0.25, 0.0)), n_classes)
    kernels = KernelSet({4: kernel})
    state = InitialCondition.monodisperse(1.0).state(n_classes)
    for _ in range(2):
        assert ttagg.rhs.gain_path(kernel, state) == "direct"
        state = rk2_step(state, 1e-2, kernels)
    sizes = np.arange(1, n_classes + 1)
    assert state.occupied_size == 4 * 64
    assert np.all(state.n >= 0.0)
    assert np.all(state.n[(sizes - 1) % 3 != 0] == 0.0)
    assert np.all(state.n[: state.occupied_size][(sizes[: state.occupied_size] - 1) % 3 == 0] > 0.0)


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_symmetrized_loss_keeps_the_bits_of_the_list_formula(order, rank):
    # the loss folds its sign into an array of the other modes' products;
    # negation is exact, so q keeps the bits of the formula that took the
    # products as a list and divided by -1
    kernel = _stream_kernel("symmetrized", order, rank, 300)
    rng = np.random.default_rng(order * 10 + rank)
    for occupied in (1, 7, 300):
        n = np.zeros(300)
        n[:occupied] = rng.uniform(0.1, 1.0, occupied)
        state = ConcentrationState(n)
        fibers = kernel.fibers[:, :occupied]
        moments = np.dot(fibers, n[:occupied]).reshape(-1, order)
        others = [
            math.prod(row[:m] + row[m + 1 :]) for row in moments.tolist() for m in range(order)
        ]
        q = np.zeros(300)
        tail = q[:occupied]
        np.dot(others, fibers, out=tail)
        np.multiply(tail, n[:occupied], out=tail)
        np.divide(tail, -1.0, out=tail)
        np.testing.assert_array_equal(rhs_cp_Q(kernel, state), q)


# ---------------------------------------------------------------------------
# gains on the state's size lattice
# ---------------------------------------------------------------------------

_LATTICES = [(first, stride) for first in (1, 2, 3) for stride in (2, 3, 4)]
_LATTICE_MU = {
    2: (0.25, -0.25),
    3: (1 / 3, -1 / 3, 0.0),
    4: (0.5, -0.5, 0.25, 0.0),
    5: (0.5, -0.5, 0.25, -0.25, 0.0),
}


def _lattice_state(first, stride, count, order, seed=0, truncated=False):
    # random concentrations on sizes first + stride*j, j < count, in a
    # state of d*m sizes, so the whole gain fits, or of 2m - 1 sizes,
    # which cut it short; m is the last of them
    occupied = first + stride * (count - 1)
    n = np.zeros(2 * occupied - 1 if truncated else order * occupied)
    n[first - 1 : occupied : stride] = np.random.default_rng(seed).uniform(0.1, 1.0, count)
    return ConcentrationState(n)


def _off_the_gain_lattice(state, order, lattice):
    # sizes that no d sizes of the lattice sum to
    first, stride = lattice
    sizes = np.arange(1, state.n_classes + 1)
    return (sizes < order * first) | ((sizes - order * first) % stride != 0)


def _last_direct_count(order, rank):
    count = 1
    while ttagg.rhs.convolves_directly(order, rank, count + 1):
        count += 1
    return count


def _check_lattice_gain(got, ref, state, order, lattice):
    off = _off_the_gain_lattice(state, order, lattice)
    assert off.any() and not got[off].any()
    assert rel_inf(got, ref) <= 1e-12, rel_inf(got, ref)


@pytest.mark.parametrize("lattice", _LATTICES, ids=lambda x: f"{x[0]}+{x[1]}Z")
@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("order", [2, 3, 4, 5])
@pytest.mark.parametrize("form", ["cp", "symmetrized"])
def test_cp_gain_on_a_lattice_state_is_exact_zero_off_the_lattice(form, order, rank, lattice):
    # the J lattice columns decide the path: a few go direct, the last
    # direct J goes direct though its m would transform, and one more
    # transforms in one call; each gain, whole or cut short by the
    # state's length, is the direct convolution of the uncompressed rows,
    # and an exact 0.0 at every index sum no d lattice sizes reach
    first, stride = lattice
    last = _last_direct_count(order, rank)
    cases = [(4, "direct"), (last, "direct"), (last + 1, "batched FFT")]
    for (count, path), truncated in product(cases, (False, True)):
        state = _lattice_state(first, stride, count, order, count, truncated)
        assert state.size_lattice == lattice
        occupied = state.occupied_size
        if count == last:
            assert not ttagg.rhs.convolves_directly(order, rank, occupied)
        kernel = _stream_kernel(form, order, rank, state.n_classes)
        assert ttagg.rhs.gain_path(kernel, state) == path
        _check_lattice_gain(
            rhs_cp_P(kernel, state), ttagg.rhs.convolved_gain(kernel, state), state, order, lattice
        )


_STREAMED_LATTICE_CASES = [
    ("symmetrized", 3, 1, (1, 2)),
    ("cp", 4, 2, (2, 3)),
    ("cp", 2, 1, (3, 4)),
    ("symmetrized", 5, 1, (1, 4)),
]


def _fewest_streamed_columns(order, rank):
    # the fewest columns whose rows stream, from 2^9 on: the rule is the
    # same on J lattice columns as on a state that occupies sizes 1..J
    def streams(count):
        return _cp_path(order, rank, ConcentrationState(np.ones(count))) == "streamed FFT"

    return bisect_left(range(1 << 14), True, lo=1 << 9, key=streams)


@pytest.mark.parametrize("form, order, rank, lattice", _STREAMED_LATTICE_CASES, ids=str)
def test_streamed_cp_gain_on_a_lattice_state_is_exact_zero_off_the_lattice(
    form, order, rank, lattice
):
    # the fewest lattice columns whose rows stream, through the split at
    # d >= 3, in a state of N >= 2^13 sizes
    first, stride = lattice
    count = _fewest_streamed_columns(order, rank)
    state = _lattice_state(first, stride, count, order)
    assert state.n_classes >= 1 << 13 and state.size_lattice == lattice
    kernel = _stream_kernel(form, order, rank, state.n_classes)
    assert ttagg.rhs.gain_path(kernel, state) == "streamed FFT"
    assert _cp_path(order, rank, _lattice_state(first, stride, count - 1, order)) == "batched FFT"
    _check_lattice_gain(
        rhs_cp_P(kernel, state), ttagg.rhs.convolved_gain(kernel, state), state, order, lattice
    )


@pytest.mark.parametrize("lattice", _LATTICES, ids=lambda x: f"{x[0]}+{x[1]}Z")
@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_tt_gain_on_a_lattice_state_is_exact_zero_off_the_lattice(order, lattice):
    # a TT gain always transforms; its reference is the direct
    # convolution of the same Brownian kernel's symmetrized CP rows
    spec = BrownianSpec(_LATTICE_MU[order])
    first, stride = lattice
    for count in (1, 4, 40):
        state = _lattice_state(first, stride, count, order, seed=count)
        tt = build_brownian_tt(spec, state.n_classes)
        reference = ttagg.rhs.convolved_gain(
            brownian_symmetrized_cp(spec, state.n_classes), state
        )
        _check_lattice_gain(rhs_tt_P(tt, state), reference, state, order, lattice)


def test_size_lattice_detection():
    def lattice(occupied_sizes, n_classes=16):
        n = np.zeros(n_classes)
        n[np.array(occupied_sizes) - 1] = 0.5
        return ConcentrationState(n).size_lattice

    assert ConcentrationState(np.ones(16)).size_lattice == (1, 1)
    assert lattice([1, 2, 9]) == (1, 1)
    assert lattice([1, 4, 7, 10]) == (1, 3)
    assert lattice([2, 5, 8]) == (2, 3)
    assert lattice([3, 5, 16]) == (3, 1)
    # the stride of the two smallest sizes, or 1 when a size is off it
    assert lattice([1, 4, 5]) == (1, 1)
    assert lattice([1, 5, 7]) == (1, 1)
    # one size, or none
    assert lattice([1]) == (1, 1)
    assert lattice([6]) == (6, 1)
    assert ConcentrationState(np.zeros(16)).size_lattice == (1, 1)


def test_a_gain_that_convolves_directly_at_m_looks_up_no_lattice(monkeypatch):
    def refuse(n, occupied):
        raise AssertionError("lattice looked up")

    monkeypatch.setattr(ttagg.rhs, "_size_lattice", refuse)
    state = _lattice_state(1, 3, 5, 4)
    kernel = _stream_kernel("symmetrized", 4, 1, state.n_classes)
    assert ttagg.rhs.convolves_directly(4, 1, state.occupied_size)
    rhs_cp_P(kernel, state)
    with pytest.raises(AssertionError, match="lattice looked up"):
        rhs_tt_P(build_brownian_tt(BrownianSpec(_LATTICE_MU[4]), state.n_classes), state)


def _lattice_cases():
    # the cases of the lattice tests above: CP gains around the direct
    # bound, the fewest lattice columns that stream, and TT gains
    for form, order, rank, (first, stride) in product(
        ("cp", "symmetrized"), (2, 3, 4, 5), (1, 2, 3), _LATTICES
    ):
        last = _last_direct_count(order, rank)
        for count, truncated in product((4, last, last + 1), (False, True)):
            state = _lattice_state(first, stride, count, order, count, truncated)
            yield _stream_kernel(form, order, rank, state.n_classes), state
    for form, order, rank, (first, stride) in _STREAMED_LATTICE_CASES:
        state = _lattice_state(first, stride, _fewest_streamed_columns(order, rank), order)
        yield _stream_kernel(form, order, rank, state.n_classes), state
    for order, (first, stride), count in product((2, 3, 4, 5), _LATTICES, (1, 4, 40)):
        state = _lattice_state(first, stride, count, order, seed=count)
        yield build_brownian_tt(BrownianSpec(_LATTICE_MU[order]), state.n_classes), state


_GAIN_GRIDS = {
    "direct-cells": lambda: (_direct_cell_case(*cell) for cell in sorted(_DIRECT_CELLS)),
    "stream": lambda: (
        (_stream_kernel(form, order, rank), _stream_state(which))
        for form, order, rank, which in product(
            ("cp", "symmetrized"), (2, 3, 4, 5), (1, 2, 3), _STREAM_STATES
        )
    ),
    "lattice": _lattice_cases,
}


@pytest.mark.parametrize("grid", sorted(_GAIN_GRIDS))
def test_gain_path_names_the_branch_the_gain_runs(grid, monkeypatch):
    # the branch `_fft_gain` runs is the first of the calls it makes:
    # `_convolve_rows` (direct), `_cp_stream` (streamed, whose rows go
    # through `_fft.rfft` after) or `_fft.rfft` (batched)
    calls = []

    def recorded(path, fn):
        def call(*args, **kwargs):
            calls.append(path)
            return fn(*args, **kwargs)

        return call

    rhs = ttagg.rhs
    monkeypatch.setattr(rhs, "_convolve_rows", recorded("direct", rhs._convolve_rows))
    monkeypatch.setattr(rhs, "_cp_stream", recorded("streamed FFT", rhs._cp_stream))
    transforms = types.SimpleNamespace(
        rfft=recorded("batched FFT", np.fft.rfft), irfft=np.fft.irfft
    )
    monkeypatch.setattr(rhs, "_fft", transforms)
    seen = set()
    for kernel, state in _GAIN_GRIDS[grid]():
        calls.clear()
        rhs._fft_gain(kernel, state)
        path = rhs.gain_path(kernel, state)
        assert calls[0] == path, (type(kernel).__name__, kernel.dimension, state.size_lattice)
        seen.add(path)
    assert seen == {
        "direct-cells": {"direct", "batched FFT"},
        "stream": {"direct", "batched FFT", "streamed FFT"},
        "lattice": {"direct", "batched FFT", "streamed FFT"},
    }[grid]


def _monodisperse_run(order, n_classes, kernel, dt, steps):
    # the recorded states of a monodisperse run of one order
    config = SimulationConfig(
        n_classes=n_classes,
        dimension=order,
        kernel_specs={order: BrownianSpec(_LATTICE_MU[order])},
        initial=InitialCondition.monodisperse(1.0),
        time=TimeGrid(0.0, dt, steps),
        record_every=1,
    )
    states = []
    integrate(config, KernelSet({order: kernel}), on_record=lambda step, s: states.append(s))
    return states


@pytest.mark.parametrize("order", [3, 4])
def test_monodisperse_run_keeps_every_size_off_the_lattice_empty(order, monkeypatch):
    # an order-d collision of sizes on 1 + (d-1)Z lands on it again; the
    # later stages transform their lattice columns, and every other size
    # stays an exact 0.0 in every recorded state
    n_classes = 1 << 12
    spec = BrownianSpec(_LATTICE_MU[order])
    transformed = []
    original = ttagg.rhs._cp_fold

    def counted(spectra, d):
        transformed.append(spectra.shape)
        return original(spectra, d)

    monkeypatch.setattr(ttagg.rhs, "_cp_fold", counted)
    states = _monodisperse_run(order, n_classes, brownian_symmetrized_cp(spec, n_classes), 1e-2, 5)
    assert transformed
    off = (np.arange(1, n_classes + 1) - 1) % (order - 1) != 0
    for state in states:
        assert not state.n[off].any()
    assert states[-1].occupied_size > n_classes // 2
    assert states[-1].size_lattice == (1, order - 1)


# a dense D = 4 kernel at N = 64 holds 2^24 coefficients, and its gain
# copies them and their index sums: a few hundred MB
_DENSE_RUN_N = {3: 64, 4: 32}


@pytest.mark.parametrize("order", [3, 4])
def test_monodisperse_lattice_run_matches_a_dense_run(order, monkeypatch):
    # every gain transforms its lattice columns, none convolves directly
    monkeypatch.setattr(ttagg.rhs, "_DIRECT_WORK", 0)
    n_classes = _DENSE_RUN_N[order]
    spec = BrownianSpec(_LATTICE_MU[order])
    fast = _monodisperse_run(order, n_classes, brownian_symmetrized_cp(spec, n_classes), 0.05, 12)
    dense = _monodisperse_run(order, n_classes, dense_from_spec(spec, n_classes), 0.05, 12)
    assert fast[-1].occupied_size > n_classes // 2
    for got, ref in zip(fast, dense, strict=True):
        assert rel_inf(got.n, ref.n) <= 1e-10
        off = (np.arange(1, n_classes + 1) - 1) % (order - 1) != 0
        assert not got.n[off].any()


# ---------------------------------------------------------------------------
# kernel set checks and the symmetry probe
# ---------------------------------------------------------------------------

def test_kernel_set_basic_validation():
    with pytest.raises(KernelError, match="order"):
        KernelSet({1: constant_tt(1.0, 2, 8)})
    with pytest.raises(KernelError, match="dimension"):
        KernelSet({3: constant_tt(1.0, 2, 8)})
    with pytest.raises(KernelError, match="same N"):
        KernelSet({2: constant_tt(1.0, 2, 8), 3: constant_tt(1.0, 3, 16)})
    with pytest.raises(KernelError, match="no collision orders"):
        KernelSet({})
    assert KernelSet({3: constant_tt(1.0, 3, 8), 2: constant_tt(1.0, 2, 8)}).orders == (2, 3)


def test_kernel_set_rejects_asymmetric_kernels_at_small_n():
    sizes = np.arange(1.0, 7.0)
    values = sizes[:, None] + 2.0 * sizes[None, :]  # i + 2j != j + 2i off-diagonal
    with pytest.raises(KernelError, match="not symmetric"):
        KernelSet({2: DenseKernel(values)})


def test_kernel_set_rejects_asymmetric_kernels_at_every_n():
    # the loss of TT, CP and dense kernels assumes symmetry at any N
    sizes = np.arange(1.0, 66.0)
    values = sizes[:, None] + 2.0 * sizes[None, :]
    with pytest.raises(KernelError, match="not symmetric"):
        KernelSet({2: DenseKernel(values)})
    rng = np.random.default_rng(83)
    lopsided = CPKernel(tuple(rng.random((4096, 2)) for _ in range(3)))
    with pytest.raises(KernelError, match="not symmetric"):
        KernelSet({3: lopsided})


def test_symmetry_probe():
    symmetric = build_brownian_tt(BrownianSpec((0.4, -0.2, 0.1)), 12)
    assert sample_symmetry_violation(symmetric) < 1e-12
    rng = np.random.default_rng(79)
    lopsided = CPKernel(tuple(rng.random((12, 2)) for _ in range(3)))
    assert sample_symmetry_violation(lopsided) > 1e-3
    # a NaN coefficient is reported, not dropped by the running maximum
    assert math.isnan(sample_symmetry_violation(DenseKernel(np.full((8, 8), np.nan))))
    assert math.isnan(sample_symmetry_violation(constant_tt(np.nan, 3, 8)))


_NON_FINITE_KERNELS = {
    "dense-nan": lambda: DenseKernel(np.full((8, 8), np.nan)),
    "constant-tt-nan": lambda: constant_tt(np.nan, 3, 8),
    "constant-symmetrized-cp-nan": lambda: constant_symmetrized_cp(np.nan, 3, 8),
    "cp-inf-factor": lambda: CPKernel((np.ones((8, 1)), np.full((8, 1), np.inf))),
    "symmetrized-cp-nan": lambda: SymmetrizedCPKernel(
        (np.full((8, 1), np.nan), np.ones((8, 1)))
    ),
}


@pytest.mark.parametrize("make_kernel", _NON_FINITE_KERNELS.values(), ids=_NON_FINITE_KERNELS)
def test_kernel_set_refuses_non_finite_coefficients(make_kernel):
    # a NaN passes the symmetry probe as no violation at all, and a
    # symmetrized kernel is not probed; each would give a NaN right-hand side
    kernel = make_kernel()
    with pytest.raises(KernelError, match=f"order {kernel.dimension} has a non-finite"):
        KernelSet({kernel.dimension: kernel})


@pytest.mark.parametrize(
    "kernel",
    [
        build_brownian_tt(BrownianSpec((1 / 3, -1 / 3, 0.0)), 32),
        constant_tt(2.0, 3, 32),
        CPKernel(tuple(np.full((32, 2), 0.5) for _ in range(3))),
        brownian_symmetrized_cp(BrownianSpec((0.5, -0.5, 0.25, 0.0)), 32),
        constant_symmetrized_cp(2.0, 3, 32),
    ],
    ids=["tt", "constant-tt", "cp", "symmetrized-cp", "constant-symmetrized-cp"],
)
def test_gain_writes_nothing_to_its_kernel(kernel):
    before = dict(vars(kernel))
    state = ConcentrationState(np.random.default_rng(5).random(32))
    rhs_gain_loss(kernel, state)
    rhs_gain_loss(kernel, state, ExecutionPlan(workers=2))
    assert vars(kernel).keys() == before.keys()
    assert all(vars(kernel)[name] is value for name, value in before.items())


def test_state_validation():
    with pytest.raises(ValueError, match="non-finite"):
        ConcentrationState(np.array([1.0, np.inf]))
    with pytest.raises(ValueError, match="length"):
        ConcentrationState(np.array([1.0]))
    state = ConcentrationState(np.array([1.0, 2.0]), t=0.5)
    assert state.t == 0.5
    with pytest.raises(ValueError):
        state.n[0] = 3.0
