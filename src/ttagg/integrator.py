"""Explicit midpoint (second-order Runge-Kutta) time stepping and moments.

The time loop is sequential by contract; parallelism lives inside the
right-hand-side evaluation.  Negative concentrations are monitored, never
clamped, since clamping would corrupt the conservation diagnostics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .parallel import ExecutionPlan
from .rhs import ConcentrationState, KernelSet, rhs_total

__all__ = [
    "TimeGrid",
    "InitialCondition",
    "MomentSeries",
    "StepFailureError",
    "StepSizeWarning",
    "midpoint_step",
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
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


@dataclass(frozen=True)
class InitialCondition:
    """Monodisperse start (all mass at size 1) or an explicit vector."""

    kind: str
    c0: float = 1.0
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("monodisperse", "vector"):
            raise ValueError(f"unknown initial condition kind {self.kind!r}")
        if self.kind == "vector":
            if self.values is None:
                raise ValueError("vector initial condition needs values")
            values = np.asarray(self.values, dtype=np.float64)
            if values.ndim != 1:
                raise ValueError("initial values must be a vector")
            if np.any(values < 0):
                raise ValueError("initial concentrations must be nonnegative")
            object.__setattr__(self, "values", tuple(float(v) for v in values))

    @classmethod
    def monodisperse(cls, c0: float = 1.0) -> "InitialCondition":
        return cls(kind="monodisperse", c0=float(c0))

    @classmethod
    def from_vector(cls, values) -> "InitialCondition":
        return cls(kind="vector", values=values)

    def state(self, n_classes: int, t0: float = 0.0) -> ConcentrationState:
        if self.kind == "monodisperse":
            n = np.zeros(n_classes)
            n[0] = self.c0
        else:
            if len(self.values) != n_classes:
                raise ValueError(
                    f"initial vector has length {len(self.values)}, expected {n_classes}"
                )
            n = np.array(self.values)
        return ConcentrationState(n, t0)


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
        self.min_n.append(float(state.n.min()))
        ref = self.m1[0]
        self.m1_drift.append((m[1] - ref) / ref if ref else 0.0)

    def rows(self) -> list[tuple[float, float, float, float, float]]:
        return list(zip(self.times, self.m0, self.m1, self.m2, self.min_n))

    def __len__(self) -> int:
        return len(self.times)


def moments(state: ConcentrationState, orders) -> list[float]:
    """Power moments M_m = sum_k k**m n_k for each requested order m >= 0."""
    sizes = np.arange(1, state.n_classes + 1, dtype=np.float64)
    out = []
    for m in orders:
        m = int(m)
        if m < 0:
            raise ValueError("moment orders must be >= 0")
        out.append(float((sizes**m) @ state.n))
    return out


def midpoint_step(n: np.ndarray, t: float, dt: float, rhs_fn) -> np.ndarray:
    """One explicit midpoint step; exactly two rhs_fn evaluations."""
    k1 = rhs_fn(n, t)
    k2 = rhs_fn(n + (0.5 * dt) * k1, t + 0.5 * dt)
    return n + dt * k2


def rk2_step(
    state: ConcentrationState,
    dt: float,
    kernels: KernelSet,
    plan: ExecutionPlan | None = None,
) -> ConcentrationState:
    """Advance one step of length dt with the explicit midpoint rule.

    A right-hand side is an exact zero above `KernelSet.reach` of the
    occupied size m, so with d_max the largest order the two stages touch
    only sizes 1..reach, reach = min(N, d_max**2 * m).  The step runs on
    that head and pads the result with exact zeros to length N; the bits
    are those of the same step over all N sizes.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    n_classes = state.n_classes

    def rhs_fn(head, t):
        if head is start:  # the first stage is the given state
            stage = state
        else:
            stage = ConcentrationState._from_head(head, n_classes, t)
        return rhs_total(kernels, stage, plan).s[:reach]

    try:
        reach = kernels.reach(kernels.reach(state.occupied_size))
        start = state.n[:reach]
        head = midpoint_step(start, state.t, dt, rhs_fn)
        return ConcentrationState._from_head(head, n_classes, state.t + dt)
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
        # test below nor, when it fires, the (negative) minimum
        occupied = state.n[: state.occupied_size]
        n_min = float(occupied.min(initial=0.0))
        if n_min < -NEGATIVITY_RTOL * float(np.abs(occupied).max(initial=0.0)):
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
