"""Simulation configuration: JSON round-trip and kernel-set assembly.

Kernel specifications serialize as {"type": "brownian" | "constant" |
"table", "D": ..., "mu": [...], "c": ..., "table_path": ...}.  Table
files hold N**D coefficients in row-major index order, either as flat
little-endian 64-bit floats or as whitespace-separated text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .integrator import InitialCondition, TimeGrid
from .kernels import (
    BrownianSpec,
    ConstantSpec,
    TableSpec,
    brownian_symmetrized_cp,
    build_brownian_tt,  # noqa: F401  (perfbench/tracing.py wraps it here)
    constant_tt,
    dense_from_spec,
)
from .parallel import FFT_LENGTH_POLICIES, ExecutionPlan
from .rhs import KernelSet

__all__ = [
    "ConfigError",
    "SimulationConfig",
    "kernel_spec_from_dict",
    "kernel_spec_to_dict",
    "config_from_dict",
    "config_to_dict",
    "load_config",
    "build_kernel_set",
]


class ConfigError(ValueError):
    """Invalid or inconsistent simulation configuration."""


@dataclass(frozen=True)
class SimulationConfig:
    n_classes: int
    dimension: int
    kernel_specs: dict
    initial: InitialCondition
    time: TimeGrid
    record_every: int = 1
    output_dir: str = "out"
    workers: int = 1
    fft_length_policy: str = "fast"
    seed: int = 0
    verify_oracle: bool = False

    def __post_init__(self):
        if self.n_classes < 2:
            raise ConfigError("N must be >= 2")
        if self.dimension < 2:
            raise ConfigError("D must be >= 2")
        if self.record_every < 1:
            raise ConfigError("record_every must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.fft_length_policy not in FFT_LENGTH_POLICIES:
            raise ConfigError(
                f"unknown fft_length_policy {self.fft_length_policy!r}; "
                f"expected one of {', '.join(FFT_LENGTH_POLICIES)}"
            )
        if not self.kernel_specs:
            raise ConfigError("at least one collision order must be configured")
        specs = {}
        for order, spec in self.kernel_specs.items():
            d = int(order)
            if not 2 <= d <= self.dimension:
                raise ConfigError(
                    f"collision order {d} outside [2, D = {self.dimension}]"
                )
            if spec.dimension != d:
                raise ConfigError(
                    f"kernel for order {d} has dimension {spec.dimension}"
                )
            specs[d] = spec
        object.__setattr__(self, "kernel_specs", specs)

    def execution_plan(self) -> ExecutionPlan:
        return ExecutionPlan(
            workers=self.workers, fft_length_policy=self.fft_length_policy
        )


def kernel_spec_from_dict(data: dict, order: int | None = None):
    """Parse one kernel specification dictionary."""
    try:
        kind = data["type"]
    except KeyError:
        raise ConfigError("kernel specification is missing 'type'") from None
    dimension = data.get("D", order)
    if kind == "brownian":
        mu = data.get("mu")
        if mu is None:
            raise ConfigError("brownian kernel specification needs 'mu'")
        spec = BrownianSpec(tuple(float(m) for m in mu))
        if dimension is not None and spec.dimension != int(dimension):
            raise ConfigError(
                f"brownian kernel has {spec.dimension} exponents, D says {dimension}"
            )
        return spec
    if dimension is None:
        raise ConfigError(f"{kind!r} kernel specification needs 'D'")
    if kind == "constant":
        if "c" not in data:
            raise ConfigError("constant kernel specification needs 'c'")
        return ConstantSpec(value=float(data["c"]), dimension=int(dimension))
    if kind == "table":
        path = data.get("table_path")
        if not path:
            raise ConfigError("table kernel specification needs 'table_path'")
        return TableSpec(path=str(path), dimension=int(dimension))
    raise ConfigError(f"unknown kernel type {kind!r}")


def kernel_spec_to_dict(spec) -> dict:
    if isinstance(spec, BrownianSpec):
        return {"type": "brownian", "D": spec.dimension, "mu": list(spec.exponents)}
    if isinstance(spec, ConstantSpec):
        return {"type": "constant", "D": spec.dimension, "c": spec.value}
    if isinstance(spec, TableSpec):
        return {"type": "table", "D": spec.dimension, "table_path": spec.path}
    raise ConfigError(f"unsupported kernel specification {type(spec).__name__}")


def config_from_dict(data: dict) -> SimulationConfig:
    try:
        n_classes = int(data["N"])
        dimension = int(data["D"])
        kernels_raw = data["kernels"]
        time_raw = data["time"]
    except KeyError as exc:
        raise ConfigError(f"configuration is missing {exc.args[0]!r}") from None
    if not isinstance(kernels_raw, dict) or not kernels_raw:
        raise ConfigError("'kernels' must map collision orders to specifications")
    specs = {
        int(order): kernel_spec_from_dict(spec, order=int(order))
        for order, spec in kernels_raw.items()
    }

    initial_raw = data.get("initial", {"kind": "monodisperse", "c0": 1.0})
    kind = initial_raw.get("kind", "monodisperse")
    if kind == "monodisperse":
        initial = InitialCondition.monodisperse(float(initial_raw.get("c0", 1.0)))
    elif kind == "vector":
        if "values" not in initial_raw:
            raise ConfigError("vector initial condition needs 'values'")
        initial = InitialCondition.from_vector(initial_raw["values"])
    else:
        raise ConfigError(f"unknown initial condition kind {kind!r}")

    try:
        grid = TimeGrid(
            t0=float(time_raw.get("t0", 0.0)),
            dt=float(time_raw["dt"]),
            steps=int(time_raw["steps"]),
        )
    except KeyError as exc:
        raise ConfigError(f"time grid is missing {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ConfigError(f"invalid time grid: {exc}") from None

    try:
        return SimulationConfig(
            n_classes=n_classes,
            dimension=dimension,
            kernel_specs=specs,
            initial=initial,
            time=grid,
            record_every=int(data.get("record_every", 1)),
            output_dir=str(data.get("output_dir", "out")),
            workers=int(data.get("workers", 1)),
            fft_length_policy=str(data.get("fft_length_policy", "fast")),
            seed=int(data.get("seed", 0)),
            verify_oracle=bool(data.get("verify_oracle", False)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def config_to_dict(config: SimulationConfig) -> dict:
    initial = {"kind": config.initial.kind}
    if config.initial.kind == "monodisperse":
        initial["c0"] = config.initial.c0
    else:
        initial["values"] = [float(v) for v in config.initial.values]
    return {
        "N": config.n_classes,
        "D": config.dimension,
        "kernels": {
            str(d): kernel_spec_to_dict(spec)
            for d, spec in sorted(config.kernel_specs.items())
        },
        "initial": initial,
        "time": {
            "t0": config.time.t0,
            "dt": config.time.dt,
            "steps": config.time.steps,
        },
        "record_every": config.record_every,
        "output_dir": config.output_dir,
        "workers": config.workers,
        "fft_length_policy": config.fft_length_policy,
        "seed": config.seed,
        "verify_oracle": config.verify_oracle,
    }


def load_config(path: str) -> SimulationConfig:
    """Read a configuration file; a run manifest (config under 'config')
    is accepted too, so manifests re-execute directly."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    if "config" in data and "N" not in data:
        data = data["config"]
    return config_from_dict(data)


def build_kernel_set(config: SimulationConfig) -> KernelSet:
    """Assemble runtime kernels: Brownian specifications get the exact
    rank-1 symmetrized CP form (d forward transforms per gain), constant
    ones the rank-1 TT, and tables stay dense."""
    kernels = {}
    for d, spec in config.kernel_specs.items():
        if isinstance(spec, BrownianSpec):
            kernels[d] = brownian_symmetrized_cp(spec, config.n_classes)
        elif isinstance(spec, ConstantSpec):
            kernels[d] = constant_tt(spec.value, d, config.n_classes)
        else:
            kernels[d] = dense_from_spec(spec, config.n_classes)
    return KernelSet(kernels)
