"""Kernel containers, element evaluators, and the constructive TT builder."""

import math
from itertools import combinations, permutations, product

import numpy as np
import pytest

from ttagg.kernels import (
    BrownianSpec,
    ConstantSpec,
    CPKernel,
    DenseKernel,
    KernelError,
    SymmetrizedCPKernel,
    TableSpec,
    TTKernel,
    brownian_element,
    brownian_symmetrized_cp,
    build_brownian_tt,
    constant_tt,
    cp_element,
    dense_from_cp,
    dense_from_spec,
    dense_from_tt,
    symmetrized_cp_element,
    tt_element,
    tt_max_rank_bound,
)
from ttagg.rhs import kernel_element


def perm_sum(mu, idx):
    """Independent reference: permute exponent slots, use the ** operator."""
    total = 0.0
    for perm in permutations(range(len(idx))):
        term = 1.0
        for slot, pos in enumerate(perm):
            term *= float(idx[pos]) ** float(mu[slot])
        total += term
    return total


# ---------------------------------------------------------------------------
# element evaluator
# ---------------------------------------------------------------------------

def test_brownian_element_trivial_cases():
    assert brownian_element(BrownianSpec((0.0, 0.0)), (5, 9)) == pytest.approx(2.0)
    assert brownian_element(BrownianSpec((1.0, 0.0)), (2, 4)) == pytest.approx(6.0)
    spec = BrownianSpec((1 / 3, -1 / 3, 0.0))
    assert brownian_element(spec, (1, 1, 1)) == pytest.approx(6.0)


def test_brownian_element_against_independent_sum():
    spec = BrownianSpec((1 / 3, -1 / 3, 0.0))
    got = brownian_element(spec, (1, 2, 3))
    # frozen from the literal 6-permutation sum
    assert got == pytest.approx(6.207527127826647, rel=1e-13)
    assert got == pytest.approx(perm_sum(spec.exponents, (1, 2, 3)), rel=1e-12)

    rng = np.random.default_rng(7)
    for _ in range(25):
        d = int(rng.integers(2, 6))
        mu = rng.uniform(-1, 1, size=d)
        idx = rng.integers(1, 30, size=d)
        assert brownian_element(BrownianSpec(tuple(mu)), idx) == pytest.approx(
            perm_sum(mu, idx), rel=1e-12
        )


def test_brownian_element_is_symmetric():
    rng = np.random.default_rng(11)
    spec = BrownianSpec((0.7, -0.4, 0.1, 0.25))
    idx = (3, 8, 1, 5)
    ref = brownian_element(spec, idx)
    for _ in range(10):
        perm = tuple(rng.permutation(idx))
        assert brownian_element(spec, perm) == pytest.approx(ref, rel=1e-13)


def test_brownian_element_guards():
    spec = BrownianSpec((1.0, 0.0))
    with pytest.raises(KernelError):
        brownian_element(spec, (1, 2, 3))
    with pytest.raises(KernelError):
        brownian_element(spec, (0, 2))
    big = BrownianSpec(tuple(np.zeros(9)))
    with pytest.raises(KernelError):
        brownian_element(big, tuple(np.ones(9, dtype=int)))
    with pytest.raises(KernelError):
        BrownianSpec((1.0,))


def test_brownian_element_overflow_is_inf():
    # 64**200 is above the float range: the scalar power gives an inf, as
    # the vector powers of the builders do, instead of an OverflowError
    assert brownian_element(BrownianSpec((200.0, 0.0, 0.0)), (64, 1, 1)) == math.inf
    assert brownian_element(BrownianSpec((200.0, 0.0, 0.0)), (1, 1, 1)) == 6.0


# ---------------------------------------------------------------------------
# constructive TT builder
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dimension", [2, 3, 4, 5])
def test_brownian_tt_ranks_are_binomial(dimension):
    rng = np.random.default_rng(dimension)
    spec = BrownianSpec(tuple(rng.uniform(-1, 1, size=dimension)))
    kernel = build_brownian_tt(spec, 4)
    expected = tuple(math.comb(dimension, lam) for lam in range(dimension + 1))
    assert kernel.ranks == expected
    assert kernel.max_rank == tt_max_rank_bound(dimension)
    # fixed at construction: every access returns the same tuple
    assert kernel.ranks is kernel.ranks


def test_brownian_tt_matches_element_exhaustively():
    spec = BrownianSpec((1 / 3, -1 / 3, 0.0))
    kernel = build_brownian_tt(spec, 4)
    for idx in product(range(1, 5), repeat=3):
        ref = brownian_element(spec, idx)
        assert tt_element(kernel, idx) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("dimension", [2, 3, 4])
@pytest.mark.parametrize("n_classes", [2, 4, 8])
def test_brownian_tt_exhaustive_over_random_exponents(dimension, n_classes):
    rng = np.random.default_rng(dimension * 100 + n_classes)
    spec = BrownianSpec(tuple(rng.uniform(-1, 1, size=dimension)))
    got = dense_from_tt(build_brownian_tt(spec, n_classes)).values
    ref = dense_from_spec(spec, n_classes).values
    assert float(np.abs(got / ref - 1.0).max()) <= 1e-11


def test_brownian_tt_two_particle_factorization():
    # C2(i1, i2) = [i1^mu1, i1^mu2] . [i2^mu2, i2^mu1]^T
    mu1, mu2 = 0.6, -0.3
    kernel = build_brownian_tt(BrownianSpec((mu1, mu2)), 6)
    sizes = np.arange(1.0, 7.0)
    np.testing.assert_allclose(kernel.cores[0][0, :, 0], sizes**mu1, rtol=1e-15)
    np.testing.assert_allclose(kernel.cores[0][0, :, 1], sizes**mu2, rtol=1e-15)
    np.testing.assert_allclose(kernel.cores[1][0, :, 0], sizes**mu2, rtol=1e-15)
    np.testing.assert_allclose(kernel.cores[1][1, :, 0], sizes**mu1, rtol=1e-15)


def test_brownian_tt_three_particle_middle_slice():
    # Reversing the colex enumeration of the 2-subsets yields the published
    # zero-diagonal 3x3 middle factor.
    mu = (0.5, -0.25, 0.125)
    kernel = build_brownian_tt(BrownianSpec(mu), 5)
    i = 3.0
    slice_colex = kernel.cores[1][:, 2, :]
    displayed = np.array(
        [
            [0.0, i ** mu[2], i ** mu[1]],
            [i ** mu[2], 0.0, i ** mu[0]],
            [i ** mu[1], i ** mu[0], 0.0],
        ]
    )
    np.testing.assert_allclose(slice_colex[:, ::-1], displayed, rtol=1e-15, atol=0.0)
    assert np.all(np.diag(slice_colex[:, ::-1]) == 0.0)


@pytest.mark.parametrize("dimension", [3, 4, 5])
def test_brownian_tt_core_structure(dimension):
    # Every rank-pair fiber is identically zero or the power function of the
    # single label added between the two subsets; nonzero pairs count
    # C(D, lam+1) * (lam+1).
    rng = np.random.default_rng(100 + dimension)
    mu = rng.uniform(-1, 1, size=dimension)
    n_classes = 6
    kernel = build_brownian_tt(BrownianSpec(tuple(mu)), n_classes)
    sizes = np.arange(1.0, n_classes + 1.0)
    # rank r of level lam is the r-th lam-subset of 1..D in colex order
    levels = [
        sorted(combinations(range(1, dimension + 1), lam), key=lambda s: s[::-1])
        for lam in range(dimension + 1)
    ]
    for lam in range(1, dimension):
        core = kernel.cores[lam]
        assert core.shape == (len(levels[lam]), n_classes, len(levels[lam + 1]))
        nonzero_pairs = 0
        for rp in range(core.shape[0]):
            for rn in range(core.shape[2]):
                fiber = core[rp, :, rn]
                s_prev = set(levels[lam][rp])
                s_next = set(levels[lam + 1][rn])
                if s_prev < s_next:
                    (label,) = s_next - s_prev
                    np.testing.assert_allclose(
                        fiber, sizes ** mu[label - 1], rtol=1e-15
                    )
                    nonzero_pairs += 1
                else:
                    assert np.all(fiber == 0.0)
        assert nonzero_pairs == math.comb(dimension, lam + 1) * (lam + 1)


@pytest.mark.parametrize("lam", [1, 2, 3])
def test_peel_off_recursion_identity(lam):
    # C^(lam+1)[mu](i) == sum_xi C^(lam)[mu without xi](i_1..i_lam) * i_{lam+1}^mu_xi
    rng = np.random.default_rng(lam)
    for _ in range(30):
        mu = rng.uniform(-1, 1, size=lam + 1)
        idx = rng.integers(1, 51, size=lam + 1)
        lhs = perm_sum(mu, idx)
        rhs = sum(
            perm_sum(np.delete(mu, xi), idx[:lam]) * float(idx[lam]) ** mu[xi]
            for xi in range(lam + 1)
        )
        assert lhs == pytest.approx(rhs, rel=1e-11)


def test_build_brownian_tt_rejects_empty_grid():
    with pytest.raises(KernelError):
        build_brownian_tt(BrownianSpec((1.0, 0.0)), 0)


# ---------------------------------------------------------------------------
# element rules for the containers
# ---------------------------------------------------------------------------

def test_tt_element_rank_one_ones():
    kernel = TTKernel(tuple(np.ones((1, 5, 1)) for _ in range(3)))
    assert tt_element(kernel, (2, 5, 1)) == 1.0


def test_tt_element_matches_brownian_example():
    kernel = build_brownian_tt(BrownianSpec((1.0, 0.0)), 8)
    assert tt_element(kernel, (2, 4)) == pytest.approx(6.0)


def test_tt_element_matches_dense_expansion():
    rng = np.random.default_rng(3)
    cores = (
        rng.standard_normal((1, 8, 3)),
        rng.standard_normal((3, 8, 2)),
        rng.standard_normal((2, 8, 1)),
    )
    kernel = TTKernel(cores)
    dense = dense_from_tt(kernel).values
    for idx in product(range(1, 9), repeat=3):
        ref = dense[tuple(i - 1 for i in idx)]
        assert tt_element(kernel, idx) == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_tt_element_index_errors():
    kernel = constant_tt(1.0, 2, 4)
    with pytest.raises(KernelError):
        tt_element(kernel, (1, 5))
    with pytest.raises(KernelError):
        tt_element(kernel, (1,))


def test_cp_element_rules():
    ones = CPKernel(tuple(np.ones((6, 1)) for _ in range(3)))
    assert cp_element(ones, (1, 6, 3)) == 1.0
    scaled = CPKernel((np.full((6, 1), 2.5), np.ones((6, 1)), np.ones((6, 1))))
    for idx in ((1, 1, 1), (6, 2, 4)):
        assert cp_element(scaled, idx) == pytest.approx(2.5)

    rng = np.random.default_rng(5)
    kernel = CPKernel(tuple(rng.standard_normal((8, 4)) for _ in range(3)))
    dense = dense_from_cp(kernel).values
    for idx in product(range(1, 9), repeat=3):
        ref = dense[tuple(i - 1 for i in idx)]
        assert cp_element(kernel, idx) == pytest.approx(ref, rel=1e-12, abs=1e-14)


# ---------------------------------------------------------------------------
# dense expansions
# ---------------------------------------------------------------------------

def test_dense_from_spec_constant():
    dense = dense_from_spec(ConstantSpec(1.0, 3), 2)
    assert dense.values.shape == (2, 2, 2)
    assert np.all(dense.values == 1.0)


def test_dense_from_spec_brownian_sum_rule():
    # mu = (1, 0) gives i**1 * j**0 + j**1 * i**0 = i + j
    dense = dense_from_spec(BrownianSpec((1.0, 0.0)), 3)
    expected = np.array([[2.0, 3.0, 4.0], [3.0, 4.0, 5.0], [4.0, 5.0, 6.0]])
    np.testing.assert_allclose(dense.values, expected, rtol=1e-14)


def test_dense_from_spec_matches_element_evaluator():
    spec = BrownianSpec((1 / 3, -1 / 3, 0.0))
    dense = dense_from_spec(spec, 4)
    for idx in product(range(1, 5), repeat=3):
        ref = brownian_element(spec, idx)
        assert dense.values[tuple(i - 1 for i in idx)] == pytest.approx(ref, rel=1e-12)


def test_dense_budget_guard(monkeypatch):
    import ttagg.kernels as kernels_mod

    with pytest.raises(KernelError, match="budget"):
        dense_from_spec(ConstantSpec(1.0, 3), 4096)
    kernel = constant_tt(1.0, 2, 16)
    monkeypatch.setattr(kernels_mod, "DENSE_ELEMENT_BUDGET", 100)
    with pytest.raises(KernelError, match="budget"):
        dense_from_tt(kernel)


def test_dense_from_spec_table_binary_and_text(tmp_path):
    rng = np.random.default_rng(9)
    values = rng.random((3, 3))

    binary = tmp_path / "kernel.bin"
    values.astype("<f8").ravel().tofile(binary)
    loaded = dense_from_spec(TableSpec(str(binary), 2), 3)
    np.testing.assert_array_equal(loaded.values, values)

    text = tmp_path / "kernel.txt"
    np.savetxt(text, values.ravel())
    loaded = dense_from_spec(TableSpec(str(text), 2), 3)
    np.testing.assert_allclose(loaded.values, values, rtol=1e-15)

    with pytest.raises(KernelError, match="not found"):
        dense_from_spec(TableSpec(str(tmp_path / "missing.bin"), 2), 3)
    short = tmp_path / "short.bin"
    values.ravel()[:5].astype("<f8").tofile(short)
    with pytest.raises(KernelError, match="expected"):
        dense_from_spec(TableSpec(str(short), 2), 3)


def test_brownian_dense_symmetry():
    rng = np.random.default_rng(21)
    spec = BrownianSpec(tuple(rng.uniform(-1, 1, size=3)))
    values = dense_from_spec(spec, 5).values
    np.testing.assert_allclose(values, values.transpose(1, 0, 2), rtol=1e-13)
    np.testing.assert_allclose(values, values.transpose(2, 1, 0), rtol=1e-13)


# ---------------------------------------------------------------------------
# rank bound
# ---------------------------------------------------------------------------

def test_tt_max_rank_bound_values():
    assert tt_max_rank_bound(2) == 2
    assert tt_max_rank_bound(3) == 3
    assert tt_max_rank_bound(6) == 20
    with pytest.raises(KernelError):
        tt_max_rank_bound(1)


# ---------------------------------------------------------------------------
# container validation
# ---------------------------------------------------------------------------

def test_tt_kernel_validation():
    with pytest.raises(KernelError, match="boundary"):
        TTKernel((np.ones((2, 4, 2)), np.ones((2, 4, 1))))
    with pytest.raises(KernelError, match="rank mismatch"):
        TTKernel((np.ones((1, 4, 2)), np.ones((3, 4, 1))))
    with pytest.raises(KernelError, match="mode size"):
        TTKernel((np.ones((1, 4, 2)), np.ones((2, 5, 1))))
    with pytest.raises(KernelError, match="two cores"):
        TTKernel((np.ones((1, 4, 1)),))


def test_tt_cores_are_read_only_views_of_one_fiber_array():
    rng = np.random.default_rng(8)
    given = (rng.random((1, 5, 2)), rng.random((2, 5, 3)), rng.random((3, 5, 1)))
    kernel = TTKernel(given)
    fibers = kernel.fibers
    assert fibers.dtype == np.float64 and fibers.shape == (2 + 6 + 3, 5)
    assert not fibers.flags.writeable
    # row (rp, rn) of each core, core by core, rp-major within a core
    rows = [
        core[rp, :, rn]
        for core in given
        for rp in range(core.shape[0])
        for rn in range(core.shape[2])
    ]
    np.testing.assert_array_equal(fibers, np.array(rows))
    for core, source in zip(kernel.cores, given):
        assert not core.flags.writeable
        assert np.shares_memory(core, fibers)
        np.testing.assert_array_equal(core, source)
    # the kernel holds a copy: the caller's arrays stay writable and apart
    given[1][0, 0, 0] = -1.0
    assert kernel.cores[1][0, 0, 0] != -1.0
    for built in (build_brownian_tt(BrownianSpec((0.5, -0.5, 0.25, 0.0)), 7),
                  constant_tt(2.0, 3, 7)):
        assert all(np.shares_memory(core, built.fibers) for core in built.cores)
        assert len(built.fibers) == sum(rp * rn for rp, rn in zip(built.ranks, built.ranks[1:]))


def test_cp_kernel_validation():
    with pytest.raises(KernelError, match="shape"):
        CPKernel((np.ones((4, 2)), np.ones((4, 3))))
    with pytest.raises(KernelError, match="matrices"):
        CPKernel((np.ones(4), np.ones(4)))


def test_dense_kernel_validation_and_immutability():
    with pytest.raises(KernelError, match="equal mode sizes"):
        DenseKernel(np.ones((3, 4)))
    kernel = DenseKernel(np.ones((3, 3)))
    with pytest.raises(ValueError):
        kernel.values[0, 0] = 2.0
    ttk = constant_tt(1.0, 2, 3)
    with pytest.raises(ValueError):
        ttk.cores[0][0, 0, 0] = 2.0


def test_constant_builders_agree():
    ttk = constant_tt(3.5, 3, 6)
    cpk = CPKernel((np.full((6, 1), 3.5), np.ones((6, 1)), np.ones((6, 1))))
    assert ttk.ranks == (1, 1, 1, 1)
    for idx in ((1, 1, 1), (6, 3, 2)):
        assert tt_element(ttk, idx) == pytest.approx(3.5)
        assert cp_element(cpk, idx) == pytest.approx(3.5)


# ---------------------------------------------------------------------------
# symmetrized CP form
# ---------------------------------------------------------------------------

def test_brownian_symmetrized_cp_is_rank_one_power_vectors():
    spec = BrownianSpec((0.5, -0.5, 0.25, 0.0))
    kernel = brownian_symmetrized_cp(spec, 10)
    assert isinstance(kernel, SymmetrizedCPKernel)
    assert not isinstance(kernel, CPKernel)
    assert (kernel.dimension, kernel.n_classes, kernel.rank) == (4, 10, 1)
    sizes = np.arange(1, 11, dtype=np.float64)
    for factor, mu in zip(kernel.factors, spec.exponents):
        np.testing.assert_allclose(factor[:, 0], sizes**mu, rtol=1e-15)
    with pytest.raises(KernelError, match="n_classes"):
        brownian_symmetrized_cp(spec, 0)


def test_symmetrized_element_equals_brownian_element():
    rng = np.random.default_rng(83)
    for d in (2, 3, 4, 5):
        spec = BrownianSpec(tuple(rng.uniform(-1, 1, size=d)))
        kernel = brownian_symmetrized_cp(spec, 50)
        for _ in range(20):
            idx = tuple(int(i) for i in rng.integers(1, 51, size=d))
            ref = brownian_element(spec, idx)
            assert symmetrized_cp_element(kernel, idx) == pytest.approx(ref, rel=1e-13)
            assert kernel_element(kernel, idx) == pytest.approx(ref, rel=1e-13)


def test_symmetrized_element_sums_every_slot_order():
    # rank 2 with distinct factors: the plain CP product is not symmetric,
    # the symmetrized coefficient is, and equals the literal permutation sum
    rng = np.random.default_rng(89)
    factors = tuple(rng.random((7, 2)) for _ in range(3))
    kernel = SymmetrizedCPKernel(factors)
    for idx in ((1, 2, 3), (7, 7, 1), (4, 4, 4)):
        ref = sum(
            sum(
                factors[0][a - 1, r] * factors[1][b - 1, r] * factors[2][c - 1, r]
                for r in range(2)
            )
            for a, b, c in permutations(idx)
        )
        got = symmetrized_cp_element(kernel, idx)
        assert got == pytest.approx(ref, rel=1e-14)
        for perm in permutations(idx):
            assert symmetrized_cp_element(kernel, perm) == pytest.approx(got, rel=1e-14)


def test_symmetrized_element_guards():
    kernel = SymmetrizedCPKernel(tuple(np.ones((3, 1)) for _ in range(9)))
    with pytest.raises(KernelError, match="capped"):
        symmetrized_cp_element(kernel, (1,) * 9)
    small = SymmetrizedCPKernel(tuple(np.ones((3, 1)) for _ in range(2)))
    with pytest.raises(KernelError):
        symmetrized_cp_element(small, (1, 4))
    with pytest.raises(KernelError, match="shape"):
        SymmetrizedCPKernel((np.ones((4, 2)), np.ones((4, 3))))


def test_dense_from_symmetrized_cp():
    spec = BrownianSpec((0.3, -0.7, 0.3))  # a repeated exponent
    np.testing.assert_allclose(
        dense_from_cp(brownian_symmetrized_cp(spec, 6)).values,
        dense_from_spec(spec, 6).values,
        rtol=1e-14,
    )
    rng = np.random.default_rng(97)
    kernel = SymmetrizedCPKernel(tuple(rng.random((5, 2)) for _ in range(3)))
    values = dense_from_cp(kernel).values
    for idx in product(range(1, 6), repeat=3):
        assert values[tuple(i - 1 for i in idx)] == pytest.approx(
            symmetrized_cp_element(kernel, idx), rel=1e-13
        )
