"""Worker counts and the accelerated right-hand side.

No right-hand side reads the worker count: the fiber weighting, the
transforms, the per-frequency chain and the loss's matrix-vector
products all run in the calling thread.  Every worker count therefore gives the 1-worker
bits, and the times below differ only by noise.  Wall
times below follow the protocol of the bench subcommand: a discarded
warm-up, then the median of three timed integrations per worker count.
The initial vector occupies every size class, so every evaluation
transforms the full alias-free length; a monodisperse start would time
transforms trimmed to its few occupied sizes instead.
"""

import os

import numpy as np

from ttagg import (
    BrownianSpec,
    ConcentrationState,
    ExecutionPlan,
    InitialCondition,
    KernelSet,
    SimulationConfig,
    TimeGrid,
    build_brownian_tt,
    rhs_total,
    run_scaling_benchmark,
)

n_classes = 1 << 16
spec = BrownianSpec((1 / 3, -1 / 3, 0.0))

print("=== result independence across worker counts ===")
rng = np.random.default_rng(4)
kernels = KernelSet({3: build_brownian_tt(spec, n_classes)})
state = ConcentrationState(rng.random(n_classes))
reference = rhs_total(kernels, state, ExecutionPlan(workers=1)).s
for workers in (2, 4):
    got = rhs_total(kernels, state, ExecutionPlan(workers=workers)).s
    same = np.array_equal(got, reference)
    print(f"workers={workers}: bitwise equal to 1 worker: {same}")

print()
print(f"=== wall times, ternary Brownian kernel, N = {n_classes}, 4 steps ===")
sizes = np.arange(1, n_classes + 1)
initial = np.exp(-8.0 * sizes / n_classes)
initial /= initial.sum()
config = SimulationConfig(
    n_classes=n_classes,
    dimension=3,
    kernel_specs={3: spec},
    initial=InitialCondition.from_vector(initial),
    time=TimeGrid(0.0, 1e-3, 4),
    record_every=4,
)
report = run_scaling_benchmark(config, [1, 2, 4])
print(f"{'workers':>8s} {'time, sec':>12s} {'speedup':>9s}")
for p, t, s in report.rows():
    print(f"{p:8d} {t:12.4f} {s:9.2f}")
cores = os.cpu_count()
print(f"(this machine exposes {cores} cores; no right-hand side uses more than one)")
