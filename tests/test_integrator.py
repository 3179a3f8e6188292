"""Midpoint stepping, moment diagnostics, and simulation orchestration."""

import tracemalloc

import numpy as np
import pytest

import ttagg.integrator as integrator_mod
from ttagg.config import SimulationConfig, build_kernel_set
from ttagg.integrator import (
    InitialCondition,
    MomentSeries,
    StepFailureError,
    TimeGrid,
    integrate,
    moments,
    rk2_step,
)
from ttagg.kernels import (
    BrownianSpec,
    ConstantSpec,
    CPKernel,
    brownian_symmetrized_cp,
    build_brownian_tt,
    constant_tt,
    dense_from_spec,
)
from ttagg.rhs import (
    ConcentrationState,
    KernelSet,
    _last_nonzero_size,
    rhs_cp_P,
    rhs_total,
)


def ternary_constant_config(n_classes=256, dt=1e-3, steps=1000, record_every=100):
    return SimulationConfig(
        n_classes=n_classes,
        dimension=3,
        kernel_specs={3: ConstantSpec(1.0, 3)},
        initial=InitialCondition.monodisperse(1.0),
        time=TimeGrid(0.0, dt, steps),
        record_every=record_every,
    )


def exact_ternary_m0(t):
    # dM0/dt = -M0**3 / 3 with M0(0) = 1
    return (1.0 + 2.0 * t / 3.0) ** -0.5


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_rk2_step_moves_m0_by_the_scalar_midpoint_rule():
    # a constant pair kernel closes dM0/dt = -c M0**2 / 2 while no mass
    # reaches size N, and the midpoint rule maps M0 to M0 + dt f(M0 + dt/2 f(M0))
    c, dt = 1.5, 0.1
    kernels = KernelSet({2: constant_tt(c, 2, 32)})
    state = ConcentrationState(np.r_[2.0, 0.5, 1.25, np.zeros(29)])

    def f(m0):
        return -c * m0**2 / 2.0

    m0 = moments(state, (0,))[0]
    expected = m0 + dt * f(m0 + 0.5 * dt * f(m0))
    stepped = rk2_step(state, dt, kernels)
    assert moments(stepped, (0,))[0] == pytest.approx(expected, rel=1e-14)


def test_rk2_step_zero_kernels_leaves_state_unchanged():
    kernels = KernelSet({3: constant_tt(0.0, 3, 16)})
    state = ConcentrationState(np.linspace(1.0, 0.1, 16), t=2.0)
    stepped = rk2_step(state, 0.5, kernels)
    np.testing.assert_array_equal(stepped.n, state.n)
    assert stepped.t == 2.5


def test_rk2_step_calls_rhs_exactly_twice(monkeypatch):
    calls = []
    original = integrator_mod.rhs_total

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(integrator_mod, "rhs_total", counting)
    kernels = KernelSet({2: constant_tt(1.0, 2, 8)})
    state = ConcentrationState(np.full(8, 0.1))
    rk2_step(state, 1e-3, kernels)
    assert len(calls) == 2


def test_rk2_step_rejects_nonpositive_dt():
    kernels = KernelSet({2: constant_tt(1.0, 2, 8)})
    # an infinite dt would make 0 * dt a NaN above a stage's reach
    for dt in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="dt"):
            rk2_step(ConcentrationState(np.ones(8)), dt, kernels)
        with pytest.raises(ValueError, match="dt"):
            TimeGrid(0.0, dt, 1)


def test_rk2_step_rejects_a_state_of_another_length():
    # the stages take shorter states; a step needs the kernels' N
    kernels = KernelSet({2: constant_tt(1.0, 2, 8)})
    for n_classes in (6, 9):
        with pytest.raises(StepFailureError, match="state has N"):
            rk2_step(InitialCondition.monodisperse().state(n_classes), 1e-3, kernels)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_step_failure_reports_step_index():
    # A huge rate and step overflow the midpoint state within one step.
    config = SimulationConfig(
        n_classes=8,
        dimension=2,
        kernel_specs={2: ConstantSpec(1e300, 2)},
        initial=InitialCondition.monodisperse(1e10),
        time=TimeGrid(0.0, 1e10, 3),
    )
    with pytest.raises(StepFailureError) as excinfo:
        integrate(config)
    assert excinfo.value.step_index == 1
    assert len(excinfo.value.series) == 1  # partial series: the initial record


# ---------------------------------------------------------------------------
# steps trimmed to the reachable sizes
# ---------------------------------------------------------------------------

BROWNIAN_2 = BrownianSpec((0.5, -0.5))
BROWNIAN_3 = BrownianSpec((1 / 3, -1 / 3, 0.0))
BROWNIAN_4 = BrownianSpec((0.5, -0.5, 0.25, 0.0))


def symmetric_cp(order, n_classes):
    # K(i, j, ...) = sum_r (i j ...)**mu_r: one factor in every mode makes
    # it symmetric, so the plain CP loss applies
    sizes = np.arange(1, n_classes + 1, dtype=np.float64)
    factor = sizes[:, None] ** np.array([1 / 3, -1 / 3])
    return CPKernel((factor,) * order)


def full_length_step(state, dt, kernels):
    """The midpoint step over all N sizes, the reference for `rk2_step`."""
    n, t = state.n, state.t
    k1 = rhs_total(kernels, ConcentrationState(n, t)).s
    k2 = rhs_total(kernels, ConcentrationState(n + (0.5 * dt) * k1, t + 0.5 * dt)).s
    return n + dt * k2


TRIMMED_CASES = {
    "tt": lambda n: {3: build_brownian_tt(BROWNIAN_3, n)},
    "cp": lambda n: {3: symmetric_cp(3, n)},
    "symmetrized-cp": lambda n: {4: brownian_symmetrized_cp(BROWNIAN_4, n)},
    "dense": lambda n: {2: dense_from_spec(BROWNIAN_2, n)},
    "mixed-2-3": lambda n: {
        2: brownian_symmetrized_cp(BROWNIAN_2, n), 3: constant_tt(0.5, 3, n)
    },
}


@pytest.mark.parametrize("n_classes", [64, 200, 512])
@pytest.mark.parametrize("case", sorted(TRIMMED_CASES))
def test_trimmed_steps_match_full_length_steps_bitwise(case, n_classes):
    kernels = KernelSet(TRIMMED_CASES[case](n_classes))
    d_max = max(kernels.orders)
    state = InitialCondition.monodisperse(1.0).state(n_classes)
    # from a monodisperse start the reach d_max**2 * m grows until it is N;
    # step on until two steps have run at full reach
    trimmed_steps = full_steps = 0
    for _ in range(20):
        if full_steps == 2:
            break
        reach = min(n_classes, d_max**2 * state.occupied_size)
        trimmed_steps += reach < n_classes
        full_steps += reach == n_classes
        stepped = rk2_step(state, 1e-2, kernels)
        np.testing.assert_array_equal(
            stepped.n, full_length_step(state, 1e-2, kernels)
        )
        assert stepped.t == state.t + 1e-2
        assert stepped.occupied_size == int(np.flatnonzero(stepped.n)[-1]) + 1
        state = stepped
    assert trimmed_steps >= 1 and full_steps == 2


def test_trimmed_integrate_matches_full_length_steps_bitwise():
    config = SimulationConfig(
        n_classes=300,
        dimension=3,
        kernel_specs={2: BROWNIAN_2, 3: ConstantSpec(0.5, 3)},
        initial=InitialCondition.monodisperse(1.0),
        time=TimeGrid(0.0, 1e-2, 6),
        record_every=2,
    )
    final, series = integrate(config)
    kernels = build_kernel_set(config)
    state = config.initial.state(config.n_classes)
    for step in range(1, config.time.steps + 1):
        n = full_length_step(state, config.time.dt, kernels)
        state = ConcentrationState(n, state.t + config.time.dt)
        if step % config.record_every == 0:
            assert series.m1[step // config.record_every] == moments(state, (1,))[0]
    np.testing.assert_array_equal(final.n, state.n)
    assert final.occupied_size == config.n_classes


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blow_up_inside_the_reach_is_a_step_failure():
    # the stage overflows at sizes 1..4 of 64; the sizes above stay zero
    kernels = KernelSet({2: constant_tt(1e300, 2, 64)})
    state = InitialCondition.monodisperse(1e10).state(64)
    assert kernels.reach(kernels.reach(state.occupied_size)) == 4
    with pytest.raises(StepFailureError, match="non-finite"):
        rk2_step(state, 1e10, kernels)


@pytest.mark.parametrize("case", ["symmetrized-cp", "mixed-2-3"])
def test_warm_narrow_step_allocates_one_length_n_vector(case):
    # both stages run over the reachable sizes; only the new state is
    # padded to N
    n_classes = 1 << 15
    kernels = KernelSet(TRIMMED_CASES[case](n_classes))
    n = np.zeros(n_classes)
    n[:16] = np.linspace(1.0, 0.1, 16)
    state = ConcentrationState(n)
    assert kernels.reach(kernels.reach(state.occupied_size)) < n_classes // 64
    rk2_step(state, 1e-2, kernels)  # warms up both stages
    tracemalloc.start()
    try:
        stepped = rk2_step(state, 1e-2, kernels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stepped.n.nbytes == n_classes * 8
    assert peak < 2 * n_classes * 8


def test_full_support_step_frees_stage_one_loss_before_stage_two():
    # stage 1's loss vector is freed once k1 is formed, so while stage 2's
    # gain runs the step holds only the midpoint state besides it
    n_classes = 1 << 14
    kernel = brownian_symmetrized_cp(BROWNIAN_3, n_classes)
    kernels = KernelSet({3: kernel})
    sizes = np.arange(1, n_classes + 1)
    state = ConcentrationState(np.exp(-8.0 * sizes / n_classes))
    assert kernels.reach(state.occupied_size) == n_classes

    def warm_traced_peak(fn):
        fn()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    gain = warm_traced_peak(lambda: rhs_cp_P(kernel, state))
    step = warm_traced_peak(lambda: rk2_step(state, 1e-3, kernels))
    assert step <= gain + n_classes * 8 + 4096, (step, gain)


def test_steps_from_an_empty_state_stay_empty():
    kernels = KernelSet(TRIMMED_CASES["mixed-2-3"](64))
    state = ConcentrationState(np.zeros(64), t=1.0)
    stepped = rk2_step(state, 1e-2, kernels)
    np.testing.assert_array_equal(stepped.n, np.zeros(64))
    assert stepped.occupied_size == 0 and stepped.t == 1.01


@pytest.mark.parametrize("start", ["monodisperse", "decaying-head"])
@pytest.mark.parametrize("case", sorted(TRIMMED_CASES))
def test_stage_states_find_their_occupied_size_below_the_bound(case, start, monkeypatch):
    # a stage's state is scanned only below the reach of the occupied
    # sizes it was built from; the full scan must agree, from narrow steps
    # to steps at full reach
    n_classes = 200
    kernels = KernelSet(TRIMMED_CASES[case](n_classes))
    stage_states = []

    def recording(kernels, state, plan=None):
        stage_states.append(state)
        return rhs_total(kernels, state, plan)

    monkeypatch.setattr(integrator_mod, "rhs_total", recording)
    if start == "monodisperse":
        state = InitialCondition.monodisperse(1.0).state(n_classes)
    else:
        n = np.zeros(n_classes)
        n[:7] = np.random.default_rng(37).uniform(0.01, 0.1, 7)
        state = ConcentrationState(n)
    built = []
    for _ in range(5):
        state = rk2_step(state, 1e-2, kernels)
        built += [stage_states[-1], state]  # the midpoint state, the new state
    # the steps reach the largest size a collision can make from the
    # start: from a monodisperse start an order-d collision adds d - 1 to
    # a size, so one order d reaches sizes 1 + (d - 1)j only (199 of 200
    # at d = 3 and 4); an exact gain leaves the sizes above it empty,
    # and a transformed one may fill them with roundoff up to N
    steps = {d - 1 for d in kernels.orders} if start == "monodisperse" else {1}
    reachable = max(k for k in range(1, n_classes + 1) if any((k - 1) % s == 0 for s in steps))
    assert reachable <= built[-1].occupied_size <= n_classes
    for stage in built:
        assert stage.occupied_size == _last_nonzero_size(stage.n)


def test_a_state_from_a_head_is_checked_below_its_bound():
    head = np.zeros(8)
    head[:3] = [1.0, 0.5, 0.25]
    state = ConcentrationState._from_head(head.copy(), 8, 0.0, 5)
    assert state.occupied_size == 3
    head[4] = np.nan  # inside the bound
    with pytest.raises(ValueError, match="non-finite"):
        ConcentrationState._from_head(head, 8, 0.0, 5)


def test_states_built_from_a_head_equal_the_padded_states():
    n = np.zeros(16)
    n[:3] = [1.0, 0.0, 2.0]
    state = ConcentrationState(n, t=0.5)
    owned = ConcentrationState._from_head(np.array([1.0, 0.0, 2.0, 0.0]), 16, 0.5, 4)
    np.testing.assert_array_equal(owned.n, state.n)
    assert owned.occupied_size == state.occupied_size == 3
    assert owned.t == 0.5 and not owned.n.flags.writeable
    full = np.arange(1.0, 17.0)
    assert ConcentrationState._from_head(full, 16, 0.0, 16).n is full
    with pytest.raises(ValueError, match="non-finite"):
        ConcentrationState._from_head(np.array([1.0, np.nan]), 16, 0.0, 2)


# ---------------------------------------------------------------------------
# moment law and convergence order
# ---------------------------------------------------------------------------

def test_ternary_constant_total_count_law():
    _, series = integrate(ternary_constant_config())
    got = series.m0[-1]
    assert got == pytest.approx(exact_ternary_m0(1.0), rel=1e-4)
    assert not series.negativity_flagged


def test_halving_dt_quarters_the_m0_error():
    _, coarse = integrate(ternary_constant_config(dt=2e-3, steps=500))
    _, fine = integrate(ternary_constant_config(dt=1e-3, steps=1000))
    exact = exact_ternary_m0(1.0)
    ratio = abs(coarse.m0[-1] - exact) / abs(fine.m0[-1] - exact)
    assert 3.5 <= ratio <= 4.5


def test_single_step_integrate_equals_rk2_step():
    config = ternary_constant_config(n_classes=32, dt=1e-2, steps=1, record_every=1)
    final, series = integrate(config)
    kernels = build_kernel_set(config)
    state0 = config.initial.state(32, 0.0)
    manual = rk2_step(state0, 1e-2, kernels)
    np.testing.assert_array_equal(final.n, manual.n)
    assert len(series) == 1 + 1


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1e-3, 0)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 0.0, 10)


def test_ternary_brownian_mass_stays_on_the_grid():
    config = SimulationConfig(
        n_classes=1024,
        dimension=3,
        kernel_specs={3: BrownianSpec((1 / 3, -1 / 3, 0.0))},
        initial=InitialCondition.monodisperse(1.0),
        time=TimeGrid(0.0, 1e-3, 100),
        record_every=10,
    )
    _, series = integrate(config)
    assert abs(series.m1_drift[-1]) <= 1e-6
    assert not series.negativity_flagged


def test_monodisperse_step_occupies_exactly_the_reachable_sizes():
    # the midpoint stage reaches size 3, the full step 3 * 3 = 9; the fast
    # paths leave every larger size an exact zero, as the dense sums do
    spec = BrownianSpec((1 / 3, -1 / 3, 0.0))
    config = SimulationConfig(
        n_classes=64,
        dimension=3,
        kernel_specs={3: spec},
        initial=InitialCondition.monodisperse(1.0),
        time=TimeGrid(0.0, 1e-2, 1),
        record_every=1,
    )
    fast, _ = integrate(config)
    assert np.flatnonzero(fast.n)[-1] + 1 == 9
    dense, _ = integrate(config, kernels=KernelSet({3: dense_from_spec(spec, 64)}))
    assert np.abs(fast.n - dense.n).max() <= 1e-10 * np.abs(dense.n).max()


# ---------------------------------------------------------------------------
# moments and the series container
# ---------------------------------------------------------------------------

def test_moments_basic_values():
    state = ConcentrationState(np.array([1.0, 0.0, 0.0]))
    assert moments(state, (0, 1, 2)) == [1.0, 1.0, 1.0]
    state = ConcentrationState(np.array([0.0, 1.0, 0.0]))
    assert moments(state, (1, 2)) == [2.0, 4.0]


def test_moments_match_direct_summation():
    rng = np.random.default_rng(83)
    n = rng.random(50)
    state = ConcentrationState(n)
    sizes = np.arange(1, 51, dtype=np.float64)
    for m in (0, 1, 2, 3):
        direct = float(np.sum(sizes**m * n))
        assert moments(state, (m,))[0] == pytest.approx(direct, rel=1e-13)
    with pytest.raises(ValueError):
        moments(state, (-1,))


def test_moment_series_requires_increasing_time():
    series = MomentSeries()
    series.record(ConcentrationState(np.ones(4), t=0.0))
    series.record(ConcentrationState(np.ones(4), t=1.0))
    with pytest.raises(ValueError, match="increasing"):
        series.record(ConcentrationState(np.ones(4), t=1.0))


def test_record_count_matches_floor_rule():
    config = ternary_constant_config(n_classes=32, dt=1e-3, steps=10, record_every=3)
    _, series = integrate(config)
    assert len(series) == 1 + 10 // 3


def test_integration_is_deterministic():
    config = ternary_constant_config(n_classes=128, steps=50, record_every=10)
    _, first = integrate(config)
    _, second = integrate(config)
    assert first.rows() == second.rows()


def test_moments_and_min_read_the_occupied_sizes():
    n = np.zeros(12)
    n[:5] = [0.5, 0.0, 1.5, -0.25, 2.0]
    state = ConcentrationState(n, t=0.0)
    sizes = np.arange(1, 6, dtype=np.float64)
    assert moments(state, (0, 1, 2)) == [float((sizes**m) @ n[:5]) for m in (0, 1, 2)]
    series = MomentSeries()
    series.record(state)
    series.record(ConcentrationState(np.abs(n), t=1.0))
    series.record(ConcentrationState(np.linspace(1.0, 2.0, 12), t=2.0))
    # with a zero above the occupied sizes the minimum is at most 0
    assert series.min_n == [-0.25, 0.0, 1.0]
    assert moments(ConcentrationState(np.zeros(4)), (0, 1)) == [0.0, 0.0]


def test_vector_initial_condition_is_one_read_only_array():
    values = [0.5, 0.25, 0.0]
    ic = InitialCondition.from_vector(values)
    assert isinstance(ic.values, np.ndarray) and ic.values.dtype == np.float64
    assert not ic.values.flags.writeable
    np.testing.assert_array_equal(ic.values, values)
    same = InitialCondition.from_vector(np.array(values))
    assert ic == same and hash(ic) == hash(same)
    assert ic != InitialCondition.from_vector([0.5, 0.25, 0.125])
    assert ic != InitialCondition.monodisperse(1.0)
    assert InitialCondition.monodisperse(2.0) == InitialCondition.monodisperse(2.0)
    # the state owns a copy; the initial condition stays as it was
    state = ic.state(3)
    np.testing.assert_array_equal(state.n, values)
    assert state.n is not ic.values


def test_initial_condition_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        InitialCondition.from_vector([1.0, -0.5])
    with pytest.raises(ValueError, match="nonnegative"):
        InitialCondition.monodisperse(-1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            InitialCondition.monodisperse(bad)
        with pytest.raises(ValueError, match="finite"):
            InitialCondition.from_vector([1.0, bad])
    empty = InitialCondition.monodisperse(0.0).state(4)
    assert empty.occupied_size == 0 and not empty.n.any()
    with pytest.raises(ValueError, match="length"):
        InitialCondition.monodisperse(1.0).state(1)
    with pytest.raises(ValueError, match="kind"):
        InitialCondition(kind="bimodal")
    ic = InitialCondition.from_vector([0.5, 0.5, 0.0])
    with pytest.raises(ValueError, match="length"):
        ic.state(4)
    state = InitialCondition.monodisperse(2.0).state(4, t0=1.0)
    np.testing.assert_array_equal(state.n, [2.0, 0.0, 0.0, 0.0])
    assert state.t == 1.0
    assert state.occupied_size == 1 and not state.n.flags.writeable
