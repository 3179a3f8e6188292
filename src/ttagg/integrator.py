"""Explicit midpoint (second-order Runge-Kutta) time stepping and moments.

The time loop is sequential by contract; parallelism lives inside the
right-hand-side evaluation.  Negative concentrations are monitored, never
clamped, since clamping would corrupt the conservation diagnostics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .kernels import KernelError
from .parallel import ExecutionPlan
from .rhs import ConcentrationState, KernelSet, rhs_total

__all__ = [
    "TimeGrid",
    "InitialCondition",
    "MomentSeries",
    "StepFailureError",
    "StepSizeWarning",
    "rk2_step",
    "integrate",
    "moments",
]

# min(n) below -1e-9 * max(n) flags the step size as suspect.
NEGATIVITY_RTOL = 1e-9


class StepFailureError(RuntimeError):
    """A time step produced non-finite values.

    Carries the 1-based failing step index and, when raised from
    `integrate`, the moment series recorded up to the failure.
    """

    def __init__(self, message: str, step_index: int | None = None, series=None):
        super().__init__(message)
        self.step_index = step_index
        self.series = series


class StepSizeWarning(UserWarning):
    """Concentrations went measurably negative; the step size is suspect."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid: `steps` steps of length `dt` starting at `t0`."""

    t0: float
    dt: float
    steps: int

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


@dataclass(frozen=True, eq=False)
class InitialCondition:
    """Monodisperse start (all mass at size 1) or an explicit vector.

    Concentrations, `c0` or the vector's entries, must be finite and
    nonnegative.  A vector start keeps its values as one read-only float64
    array.
    """

    kind: str
    c0: float = 1.0
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("monodisperse", "vector"):
            raise ValueError(f"unknown initial condition kind {self.kind!r}")
        _check_concentrations(np.array([self.c0], dtype=np.float64))
        if self.kind == "vector":
            if self.values is None:
                raise ValueError("vector initial condition needs values")
            values = np.array(self.values, dtype=np.float64)
            if values.ndim != 1:
                raise ValueError("initial values must be a vector")
            _check_concentrations(values)
            values.setflags(write=False)
            object.__setattr__(self, "values", values)

    def __eq__(self, other):
        if not isinstance(other, InitialCondition):
            return NotImplemented
        if (self.kind, self.c0) != (other.kind, other.c0):
            return False
        if self.values is None or other.values is None:
            return self.values is other.values
        return bool(np.array_equal(self.values, other.values))

    def __hash__(self):
        # equal vectors may differ in the sign of a zero, so hash the length
        return hash((self.kind, self.c0, None if self.values is None else len(self.values)))

    @classmethod
    def monodisperse(cls, c0: float = 1.0) -> "InitialCondition":
        return cls(kind="monodisperse", c0=float(c0))

    @classmethod
    def from_vector(cls, values) -> "InitialCondition":
        return cls(kind="vector", values=values)

    def state(self, n_classes: int, t0: float = 0.0) -> ConcentrationState:
        if self.kind == "monodisperse":
            if n_classes < 2:
                raise ValueError("concentration state must be a vector of length >= 2")
            # size 1 holds c0, checked at construction; the rest are zeros
            return ConcentrationState._from_head(
                np.array([self.c0], dtype=np.float64), n_classes, t0, 1
            )
        if self.values.size != n_classes:
            raise ValueError(
                f"initial vector has length {self.values.size}, expected {n_classes}"
            )
        return ConcentrationState(self.values, t0)


def _check_concentrations(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError("initial concentrations must be finite")
    if (values < 0).any():
        raise ValueError("initial concentrations must be nonnegative")


@dataclass
class MomentSeries:
    """Recorded diagnostics: t, M0, M1, M2, min(n), and mass drift."""

    times: list = field(default_factory=list)
    m0: list = field(default_factory=list)
    m1: list = field(default_factory=list)
    m2: list = field(default_factory=list)
    min_n: list = field(default_factory=list)
    m1_drift: list = field(default_factory=list)
    negativity_flagged: bool = False

    COLUMNS = ("t", "M0", "M1", "M2", "min_n")

    def record(self, state: ConcentrationState) -> None:
        if self.times and state.t <= self.times[-1]:
            raise ValueError("moment records must have strictly increasing t")
        m = moments(state, (0, 1, 2))
        self.times.append(state.t)
        self.m0.append(m[0])
        self.m1.append(m[1])
        self.m2.append(m[2])
        # the sizes above the occupied ones are zeros, so with any of them
        # the minimum is at most 0
        head = state.n[: state.occupied_size]
        self.min_n.append(
            float(head.min(initial=0.0) if head.size < state.n_classes else head.min())
        )
        ref = self.m1[0]
        self.m1_drift.append((m[1] - ref) / ref if ref else 0.0)

    def rows(self) -> list[tuple[float, float, float, float, float]]:
        return list(zip(self.times, self.m0, self.m1, self.m2, self.min_n))

    def __len__(self) -> int:
        return len(self.times)


def moments(state: ConcentrationState, orders) -> list[float]:
    """Power moments M_m = sum_k k**m n_k for each requested order m >= 0,
    summed over the occupied sizes."""
    n = state.n[: state.occupied_size]
    sizes = np.arange(1, n.size + 1, dtype=np.float64)
    out = []
    for m in orders:
        m = int(m)
        if m < 0:
            raise ValueError("moment orders must be >= 0")
        out.append(float((sizes**m) @ n))
    return out


def rk2_step(
    state: ConcentrationState,
    dt: float,
    kernels: KernelSet,
    plan: ExecutionPlan | None = None,
) -> ConcentrationState:
    """Advance one step of length dt with the explicit midpoint rule.

    Two right-hand-side evaluations, k1 at the state and k2 at the
    midpoint state n + (dt/2) k1, give n + dt k2.  A right-hand side is an
    exact zero above `KernelSet.reach` of the occupied size m, so with
    d_max the largest order the two stages touch only sizes 1..reach,
    reach = min(N, d_max**2 * m).  Both stages run on states over those
    sizes, and only the new state is padded with exact zeros to length N;
    the bits are those of the same step over all N sizes.  Each new state
    is nonzero only below the reach of the occupied sizes it was built
    from, so its finiteness check and occupied-size scan stop there.

    k1 is formed in stage 1's gain vector, and stage 1's loss vector is
    dropped before stage 2 runs, so stage 2's right-hand side allocates
    beside the midpoint state alone: at full support the step's traced
    peak is one gain's peak plus one state vector.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    try:
        n_classes = state.n.size
        if n_classes != kernels.n_classes:
            raise KernelError(
                f"kernel set has N = {kernels.n_classes}, state has N = {n_classes}"
            )
        occupied = state.occupied_size
        reach = kernels.reach(kernels.reach(occupied))
        head = state._head(reach)
        # each stage sums k = p + q into the fresh p, and the next state is
        # formed in place by the operations of n + (dt/2) k1 and n + dt k2,
        # in that order; the new state is written at full length
        res = rhs_total(kernels, head, plan)
        k1 = np.add(res.p, res.q, out=res.p)
        del res  # frees stage 1's loss vector
        np.multiply(k1, 0.5 * dt, out=k1)
        mid = ConcentrationState._from_head(
            np.add(head.n, k1, out=k1), reach, state.t + 0.5 * dt,
            kernels.reach(occupied),
        )
        res = rhs_total(kernels, mid, plan)
        k2 = np.add(res.p, res.q, out=res.p)
        n = np.zeros(n_classes)
        step = np.multiply(k2, dt, out=n[:reach])
        np.add(head.n, step, out=step)
        # n is zero above `occupied` and k2 above the reach of the
        # midpoint's occupied size, which a degenerate stage can leave
        # below `occupied`
        return ConcentrationState._from_head(
            n, n_classes, state.t + dt,
            kernels.reach(max(occupied, mid.occupied_size)),
        )
    except ValueError as exc:
        raise StepFailureError(f"time step failed: {exc}") from exc


def integrate(
    config,
    kernels: KernelSet | None = None,
    plan: ExecutionPlan | None = None,
    on_record=None,
) -> tuple[ConcentrationState, MomentSeries]:
    """Run the configured Cauchy problem and collect moment diagnostics.

    Moments are recorded at the initial state and after every
    `config.record_every`-th step; `on_record(step, state)` fires at the
    same points when given.  A failing step aborts with the partial
    series attached to the raised StepFailureError.
    """
    if kernels is None:
        from .config import build_kernel_set

        kernels = build_kernel_set(config)
    if plan is None:
        plan = config.execution_plan()
    grid = config.time
    state = config.initial.state(config.n_classes, grid.t0)
    series = MomentSeries()
    series.record(state)
    if on_record is not None:
        on_record(0, state)
    for step in range(1, grid.steps + 1):
        try:
            state = rk2_step(state, grid.dt, kernels, plan)
        except StepFailureError as exc:
            raise StepFailureError(
                f"integration aborted at step {step}: {exc}",
                step_index=step,
                series=series,
            ) from exc
        # sizes above the occupied ones are zeros, which change neither the
        # test below nor, when it fires, the (negative) minimum; the test
        # can only fire on a negative minimum
        occupied = state.n[: state.occupied_size]
        n_min = float(occupied.min(initial=0.0))
        if n_min < 0.0 and n_min < -NEGATIVITY_RTOL * float(
            np.abs(occupied).max(initial=0.0)
        ):
            if not series.negativity_flagged:
                warnings.warn(
                    f"min(n) = {n_min:.3e} at step {step}; reduce dt",
                    StepSizeWarning,
                )
            series.negativity_flagged = True
        if step % config.record_every == 0:
            series.record(state)
            if on_record is not None:
                on_record(step, state)
    return state, series
