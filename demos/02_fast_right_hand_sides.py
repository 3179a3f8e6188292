"""Accelerated gain/loss operators versus the dense reference.

The gain operator collects all d-tuples of sizes summing to each output
class; evaluated directly that is O(N**d) work per call.  Through the
tensor-train form it becomes a handful of padded FFTs and a short
spectral matrix chain, and the loss operator two matrix-vector products
with the same fiber rows.  The rank-1 symmetrized CP form that simulations run on needs only d
transforms and no chain, and its loss is a closed form in d moments.
This script shows the paths agree to near machine precision and how
their costs separate as the grid grows.
"""

import time

import numpy as np

from ttagg import (
    BrownianSpec,
    ConcentrationState,
    KernelSet,
    brownian_symmetrized_cp,
    build_brownian_tt,
    dense_from_spec,
    rhs_dense_P,
    rhs_cp_P,
    rhs_cp_Q,
    rhs_dense_Q,
    rhs_total,
    rhs_tt_P,
    rhs_tt_Q,
)

rng = np.random.default_rng(2)
spec = BrownianSpec((1 / 3, -1 / 3, 0.0))

print("=== agreement at oracle-checkable sizes ===")
for n_classes in (16, 32, 64):
    tt = build_brownian_tt(spec, n_classes)
    sym = brownian_symmetrized_cp(spec, n_classes)
    dense = dense_from_spec(spec, n_classes)
    state = ConcentrationState(rng.random(n_classes))
    ref_p, ref_q = rhs_dense_P(dense, state), rhs_dense_Q(dense, state)
    scale = np.abs(ref_p).max()
    for name, gain, loss in (
        ("TT", rhs_tt_P(tt, state), rhs_tt_Q(tt, state)),
        ("symmetrized CP", rhs_cp_P(sym, state), rhs_cp_Q(sym, state)),
    ):
        err_p = np.abs(gain - ref_p).max() / scale
        err_q = np.abs(loss - ref_q).max()
        print(f"N={n_classes:3d} {name:>14s}: gain error {err_p:.2e}, loss error {err_q:.2e}")

print()
print("=== cost separation (single gain evaluation, seconds) ===")
print(f"{'N':>6s} {'dense':>10s} {'tensor-train':>13s} {'symmetrized CP':>15s}")


def seconds(gain, kernel, state):
    gain(kernel, state)  # warm-up
    t0 = time.perf_counter()
    gain(kernel, state)
    return time.perf_counter() - t0


for n_classes in (32, 64, 128, 1 << 12, 1 << 15):
    tt = build_brownian_tt(spec, n_classes)
    sym = brownian_symmetrized_cp(spec, n_classes)
    state = ConcentrationState(rng.random(n_classes))
    if n_classes <= 128:
        dense = dense_from_spec(spec, n_classes)
        t_dense = f"{seconds(rhs_dense_P, dense, state):10.4f}"
    else:
        t_dense = f"{'(refused)':>10s}"
    t_tt = seconds(rhs_tt_P, tt, state)
    t_sym = seconds(rhs_cp_P, sym, state)
    print(f"{n_classes:6d} {t_dense} {t_tt:13.4f} {t_sym:15.4f}")

print()
print("=== mass bookkeeping of the combined right-hand side ===")
n_classes = 1 << 10
n = np.zeros(n_classes)
n[: n_classes // 4] = rng.random(n_classes // 4)
kernels = KernelSet({3: brownian_symmetrized_cp(spec, n_classes)})
result = rhs_total(kernels, ConcentrationState(n))
sizes = np.arange(1, n_classes + 1, dtype=np.float64)
print(f"sum_k k*p_k = {sizes @ result.p:+.6e}  (mass created by mergers)")
print(f"sum_k k*q_k = {sizes @ result.q:+.6e}  (mass removed from collision partners)")
print(f"net first-moment drift: {(sizes @ result.s) / (sizes @ result.p):+.3e} relative")
