"""Simulation configuration: JSON round-trip and kernel-set assembly.

Kernel specifications serialize as {"type": "brownian" | "constant" |
"table", "D": ..., "mu": [...], "c": ..., "table_path": ...}.  Table
files hold N**D coefficients in row-major index order, either as flat
little-endian 64-bit floats or as whitespace-separated text.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

from .integrator import InitialCondition, TimeGrid
from .kernels import (
    BrownianSpec,
    ConstantSpec,
    KernelError,
    TableSpec,
    brownian_symmetrized_cp,
    build_brownian_tt,  # noqa: F401  (perfbench/tracing.py wraps it here)
    constant_symmetrized_cp,
    constant_tt,  # noqa: F401  (perfbench/tracing.py wraps it here)
    dense_from_spec,
)
from .parallel import ExecutionPlan
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
    # "fast" is the only accepted value; the benchmark harness reads it
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
        if self.initial.kind == "vector" and self.initial.values.size != self.n_classes:
            raise ConfigError(
                f"vector initial condition has {self.initial.values.size} values, "
                f"N = {self.n_classes}"
            )
        try:
            self.execution_plan()  # the plan validates workers and policy
        except KernelError as exc:
            raise ConfigError(str(exc)) from None
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


# The keys each object of a configuration accepts; `config_to_dict`
# writes every one, so a run manifest re-runs as it is.
_CONFIG_KEYS = (
    "N", "D", "kernels", "initial", "time", "record_every", "output_dir",
    "workers", "fft_length_policy", "seed", "verify_oracle",
)
_TIME_KEYS = ("t0", "dt", "steps")
_INITIAL_KEYS = {"monodisperse": ("kind", "c0"), "vector": ("kind", "values")}
_KERNEL_KEYS = {
    "brownian": ("type", "D", "mu"),
    "constant": ("type", "D", "c"),
    "table": ("type", "D", "table_path"),
}


def _check_keys(data: dict, accepted: tuple, what: str) -> None:
    # a misspelled key would leave its field at the default, unnoticed
    unknown = [key for key in data if key not in accepted]
    if unknown:
        raise ConfigError(
            f"{what} has unknown key{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(repr(key) for key in unknown)}; "
            f"accepted: {', '.join(accepted)}"
        )


def _require_object(value, what: str) -> None:
    # JSON objects load as dicts; any other shape is a validation error
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(value).__name__}")


def _integer(value, what: str) -> int:
    # a JSON integer, or a number with an integral value such as 16.0;
    # int() would truncate 16.7 and fail with a TypeError on a list
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{what} must be an integer, got {type(value).__name__}")
    if not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _number(value, what: str) -> float:
    # json reads NaN and Infinity, which no field accepts
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{what} must be a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # an integer too large for a float
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return number


def _numbers(values, what: str) -> tuple[float, ...]:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(
            f"{what} must be a list of numbers, got {type(values).__name__}"
        )
    return tuple(_number(v, f"{what} entry") for v in values)


def _path(value, what: str) -> str:
    # str() would turn a JSON list or number into a path such as "['odir']"
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {type(value).__name__}")
    return value


def _order(key) -> int:
    # JSON object keys are strings; a collision order must read as an integer
    try:
        return int(key)
    except ValueError:
        raise ConfigError(f"collision order {key!r} must be an integer") from None


def kernel_spec_from_dict(data: dict, order: int | None = None):
    """Parse one kernel specification dictionary."""
    _require_object(data, "kernel specification")
    try:
        kind = data["type"]
    except KeyError:
        raise ConfigError("kernel specification is missing 'type'") from None
    if not isinstance(kind, str) or kind not in _KERNEL_KEYS:
        raise ConfigError(f"unknown kernel type {kind!r}")
    _check_keys(data, _KERNEL_KEYS[kind], f"{kind} kernel specification")
    dimension = data.get("D", order)
    if kind == "brownian":
        mu = data.get("mu")
        if mu is None:
            raise ConfigError("brownian kernel specification needs 'mu'")
        spec = BrownianSpec(_numbers(mu, "brownian 'mu'"))
        if dimension is None:
            return spec
        if spec.dimension != _integer(dimension, "kernel 'D'"):
            raise ConfigError(
                f"brownian kernel has {spec.dimension} exponents, D says {dimension}"
            )
        return spec
    if dimension is None:
        raise ConfigError(f"{kind!r} kernel specification needs 'D'")
    if kind == "constant":
        if "c" not in data:
            raise ConfigError("constant kernel specification needs 'c'")
        return ConstantSpec(
            value=_number(data["c"], "constant kernel 'c'"),
            dimension=_integer(dimension, "kernel 'D'"),
        )
    path = data.get("table_path")
    if not path:
        raise ConfigError("table kernel specification needs 'table_path'")
    return TableSpec(
        path=_path(path, "'table_path'"), dimension=_integer(dimension, "kernel 'D'")
    )


def kernel_spec_to_dict(spec) -> dict:
    if isinstance(spec, BrownianSpec):
        return {"type": "brownian", "D": spec.dimension, "mu": list(spec.exponents)}
    if isinstance(spec, ConstantSpec):
        return {"type": "constant", "D": spec.dimension, "c": spec.value}
    if isinstance(spec, TableSpec):
        return {"type": "table", "D": spec.dimension, "table_path": spec.path}
    raise ConfigError(f"unsupported kernel specification {type(spec).__name__}")


def config_from_dict(data: dict) -> SimulationConfig:
    _require_object(data, "configuration")
    _check_keys(data, _CONFIG_KEYS, "configuration")
    try:
        n_classes = _integer(data["N"], "'N'")
        dimension = _integer(data["D"], "'D'")
        kernels_raw = data["kernels"]
        time_raw = data["time"]
    except KeyError as exc:
        raise ConfigError(f"configuration is missing {exc.args[0]!r}") from None
    if not isinstance(kernels_raw, dict) or not kernels_raw:
        raise ConfigError("'kernels' must map collision orders to specifications")
    specs = {
        _order(order): kernel_spec_from_dict(spec, order=_order(order))
        for order, spec in kernels_raw.items()
    }

    initial_raw = data.get("initial", {"kind": "monodisperse", "c0": 1.0})
    _require_object(initial_raw, "'initial'")
    kind = initial_raw.get("kind", "monodisperse")
    if not isinstance(kind, str) or kind not in _INITIAL_KEYS:
        raise ConfigError(f"unknown initial condition kind {kind!r}")
    _check_keys(initial_raw, _INITIAL_KEYS[kind], f"{kind} initial condition")
    if kind == "monodisperse":
        initial = InitialCondition.monodisperse(
            _number(initial_raw.get("c0", 1.0), "'c0'")
        )
    else:
        if "values" not in initial_raw:
            raise ConfigError("vector initial condition needs 'values'")
        initial = InitialCondition.from_vector(
            _numbers(initial_raw["values"], "vector initial 'values'")
        )

    _require_object(time_raw, "'time'")
    _check_keys(time_raw, _TIME_KEYS, "'time'")
    try:
        grid = TimeGrid(
            t0=_number(time_raw.get("t0", 0.0), "'t0'"),
            dt=_number(time_raw["dt"], "'dt'"),
            steps=_integer(time_raw["steps"], "'steps'"),
        )
    except KeyError as exc:
        raise ConfigError(f"time grid is missing {exc.args[0]!r}") from None
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid time grid: {exc}") from None

    verify_oracle = data.get("verify_oracle", False)
    if not isinstance(verify_oracle, bool):
        raise ConfigError(
            f"'verify_oracle' must be true or false, got {type(verify_oracle).__name__}"
        )
    try:
        return SimulationConfig(
            n_classes=n_classes,
            dimension=dimension,
            kernel_specs=specs,
            initial=initial,
            time=grid,
            record_every=_integer(data.get("record_every", 1), "'record_every'"),
            output_dir=_path(data.get("output_dir", "out"), "'output_dir'"),
            workers=_integer(data.get("workers", 1), "'workers'"),
            fft_length_policy=str(data.get("fft_length_policy", "fast")),
            seed=_integer(data.get("seed", 0), "'seed'"),
            verify_oracle=verify_oracle,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def config_to_dict(config: SimulationConfig) -> dict:
    initial = {"kind": config.initial.kind}
    if config.initial.kind == "monodisperse":
        initial["c0"] = config.initial.c0
    else:
        initial["values"] = config.initial.values.tolist()
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
    if isinstance(data, dict) and "config" in data and "N" not in data:
        data = data["config"]
    return config_from_dict(data)


def build_kernel_set(config: SimulationConfig) -> KernelSet:
    """Assemble runtime kernels in two forms: Brownian and constant
    specifications get their exact rank-1 symmetrized CP form (d forward
    transforms per gain), and tables stay dense."""
    kernels = {}
    for d, spec in config.kernel_specs.items():
        if isinstance(spec, BrownianSpec):
            kernels[d] = brownian_symmetrized_cp(spec, config.n_classes)
        elif isinstance(spec, ConstantSpec):
            kernels[d] = constant_symmetrized_cp(spec.value, d, config.n_classes)
        else:
            kernels[d] = dense_from_spec(spec, config.n_classes)
    return KernelSet(kernels)
