"""Batch front-end: simulate, verify, and bench subcommands.

Exit codes: 0 success, 1 validation error, 2 numerical failure, 3 IO
error.  All numeric output is written with 17 significant digits, so
files round-trip to the exact doubles.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    build_kernel_set,
    config_to_dict,
    load_config,
    runtime_kernel,
)
from .integrator import StepFailureError, integrate
from .kernels import (
    DENSE_ELEMENT_BUDGET,
    ConstantSpec,
    DenseKernel,
    KernelError,
    dense_from_spec,
)
from .parallel import run_scaling_benchmark
from .rhs import (
    FFT_BACKEND,
    ConcentrationState,
    convolved_gain,
    gain_path,
    rhs_cp_P,
    rhs_dense_P,
    rhs_dense_Q,
    rhs_gain_loss,
    stream_split,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

VERIFY_TOL = 1e-10


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_moments(path: str, series) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(series.COLUMNS) + "\n")
        for row in series.rows():
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_snapshot(path: str, state: ConcentrationState) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,n\n")
        for k, value in enumerate(state.n, start=1):
            fh.write(f"{k},{_fmt(value)}\n")


def _write_manifest(path: str, config) -> None:
    # imported here, so a process that writes no manifest does not hold
    # scipy's 0.5 MB of modules; no result is computed with it
    import scipy

    manifest = {
        "config": config_to_dict(config),
        "versions": {
            "ttagg": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "fft": FFT_BACKEND,
            "python": platform.python_version(),
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_simulate(config_path: str, output_dir: str | None = None,
                 workers: int | None = None) -> int:
    """Run the configured problem; write moments.csv, per-record snapshots
    n_{step}.csv, and a re-executable run manifest."""
    config = load_config(config_path)
    overrides = {}
    if output_dir is not None:
        overrides["output_dir"] = output_dir
    if workers is not None:
        overrides["workers"] = workers
    if overrides:
        config = dataclasses.replace(config, **overrides)
    if config.verify_oracle:
        code = _run_verification(config)
        if code != EXIT_OK:
            return code
    out = config.output_dir

    def snapshot(step: int, state: ConcentrationState) -> None:
        # `integrate` records step 0 once its kernels and initial state
        # are built, so a refused run leaves no directory behind
        if step == 0:
            os.makedirs(out, exist_ok=True)
        _write_snapshot(os.path.join(out, f"n_{step}.csv"), state)

    final, series = integrate(config, on_record=snapshot)
    _write_moments(os.path.join(out, "moments.csv"), series)
    _write_manifest(os.path.join(out, "run_manifest.json"), config)
    print(
        f"simulate: {config.time.steps} steps to t = {_fmt(final.t)}, "
        f"M0 = {_fmt(series.m0[-1])}, M1 = {_fmt(series.m1[-1])}, "
        f"outputs in {out}"
    )
    return EXIT_OK


def _run_verification(config, seed: int | None = None) -> int:
    """Check each analytic order's run-time kernel against dense oracles.

    One line per order holds `kernels[d]` at the configured N against
    `dense_from_spec` on six seeded states over the sizes 1..m that a
    dense kernel of D modes fits in `DENSE_ELEMENT_BUDGET` (`_dense_head`;
    m = N where N**D fits): five occupy every size, a sixth is zero above
    max(1, m // 4).  Three more hold its gain against the direct
    convolution (`rhs.convolved_gain`, no FFT) at full support where a
    rank-1 gain takes the "batched FFT" path and where it takes the
    "streamed FFT" path with its input over two blocks or more
    (`_check_size`), and on sizes 1 + s*j, s = max(2, d - 1), on as many
    lattice columns as the batched state has sizes.  Every line names
    the gain paths it ran (`rhs.gain_path`)."""
    n_classes = config.n_classes
    head = _dense_head(n_classes, config.dimension)
    kernels = build_kernel_set(config)
    rng = np.random.default_rng(config.seed if seed is None else seed)
    states = [ConcentrationState(rng.random(head)) for _ in range(5)]
    short = rng.random(head)
    short[max(1, head // 4):] = 0.0
    states.append(ConcentrationState(short))
    name = "symmetrized CP"
    if head < n_classes:
        name += f" on sizes 1..{head} of N = {n_classes}"

    worst = 0.0
    for d in sorted(config.kernel_specs):
        spec = config.kernel_specs[d]
        kernel = kernels[d]
        if isinstance(kernel, DenseKernel):
            print(f"order {d}: dense kernel, nothing to verify")
            continue
        oracle = dense_from_spec(spec, head)
        err_p = err_q = 0.0
        for state in states:
            got_p, got_q = rhs_gain_loss(kernel, state)
            err_p = max(err_p, _rel_inf(got_p, rhs_dense_P(oracle, state)))
            err_q = max(err_q, _rel_inf(got_q, rhs_dense_Q(oracle, state)))
        worst = max(worst, err_p, err_q)
        paths = dict.fromkeys(gain_path(kernel, s) for s in states)
        print(
            f"order {d}, {name}: max relative error "
            f"P = {err_p:.3e}, Q = {err_q:.3e} (gain: {', '.join(paths)})"
        )
        batch, stride = _check_size(d, "batched FFT"), max(2, d - 1)
        occupied = 1 + stride * (batch - 1)
        checks = (
            ("batched", batch, slice(None)),
            ("streamed", _check_size(d, "streamed FFT"), slice(None)),
            (f"on sizes 1 + {stride}j", d * occupied, slice(0, occupied, stride)),
        )
        for label, size, sizes in checks:
            kernel = runtime_kernel(spec, size)
            values = np.zeros(size)
            values[sizes] = rng.random(values[sizes].size)
            state = ConcentrationState(values)
            err = _rel_inf(rhs_cp_P(kernel, state), convolved_gain(kernel, state))
            worst = max(worst, err)
            print(
                f"order {d}, symmetrized CP {label} at N = {size}: max relative error "
                f"P = {err:.3e} against direct convolution (gain: {gain_path(kernel, state)})"
            )
    if worst <= VERIFY_TOL:
        print(f"verify: PASS (all errors <= {VERIFY_TOL:.1e})")
        return EXIT_OK
    print(f"verify: FAIL (worst error {worst:.3e} > {VERIFY_TOL:.1e})")
    return EXIT_NUMERICAL


def cmd_verify(config_path: str, seed: int | None = None) -> int:
    return _run_verification(load_config(config_path), seed)


def _dense_head(n_classes: int, dimension: int) -> int:
    # the largest m <= N with m**D within the budget, an exact integer
    # root: 8192, 406, 90 and 36 for D = 2..5 at the default budget
    head = min(n_classes, round(DENSE_ELEMENT_BUDGET ** (1 / dimension)))
    while head**dimension > DENSE_ELEMENT_BUDGET:
        head -= 1
    return head


def _check_size(order: int, path: str) -> int:
    # the smallest N at which a rank-1 gain of this order on a state that
    # occupies every size takes `path` (`gain_path`): "batched FFT" at N =
    # 236, 131, 89 and 65 for d = 2..5; "streamed FFT", searched on N = 8192
    # + 1024 j for a split whose input spans two blocks or more
    # (`stream_split`), at N = 17408, 11264, 8192 and 8192
    size, step = (2, 1) if path == "batched FFT" else (1 << 13, 1 << 10)
    rank_one = ConstantSpec(1.0, order)
    while True:
        kernel, state = runtime_kernel(rank_one, size), ConcentrationState(np.ones(size))
        split = stream_split(kernel, state)
        if gain_path(kernel, state) == path and (split is None or split[1] < size):
            return size
        size += step


def _rel_inf(got: np.ndarray, ref: np.ndarray) -> float:
    # a non-finite difference is an error of inf: `max` drops a NaN
    scale = float(np.abs(ref).max())
    diff = float(np.abs(got - ref).max())
    if not np.isfinite(diff):
        return np.inf
    return diff / scale if scale else diff


def cmd_bench(config_path: str, workers, output_dir: str | None = None) -> int:
    """Time the configured problem across worker counts; write a report."""
    config = load_config(config_path)
    if output_dir is not None:
        config = dataclasses.replace(config, output_dir=output_dir)
    counts = [int(w) for w in workers]
    report = run_scaling_benchmark(config, counts)
    os.makedirs(config.output_dir, exist_ok=True)
    report_path = os.path.join(config.output_dir, "bench_report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{'workers':>8s} {'time, sec':>12s} {'speedup':>9s}")
    for p, t, s in report.rows():
        print(f"{p:8d} {t:12.4f} {s:9.2f}")
    print(f"bench: report written to {report_path}")
    return EXIT_OK


def _parse_workers_list(text: str) -> list[int]:
    try:
        counts = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse worker list {text!r}") from None
    if not counts or any(c < 1 for c in counts):
        raise ConfigError(f"worker list {text!r} must hold positive integers")
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ttagg",
        description="Multi-particle aggregation kinetics with tensor-train "
        "accelerated right-hand sides",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate and write CSV outputs")
    p_sim.add_argument("--config", required=True, help="configuration file (JSON)")
    p_sim.add_argument("--output", default=None, help="output directory override")
    p_sim.add_argument("--workers", type=int, default=None, help="worker override")

    p_ver = sub.add_parser("verify", help="check fast paths against dense oracles")
    p_ver.add_argument("--config", required=True, help="configuration file (JSON)")
    p_ver.add_argument("--seed", type=int, default=None, help="random state seed")

    p_ben = sub.add_parser("bench", help="scaling benchmark across worker counts")
    p_ben.add_argument("--config", required=True, help="configuration file (JSON)")
    p_ben.add_argument("--workers", default="1,2,4", help="comma-separated counts")
    p_ben.add_argument("--output", default=None, help="output directory override")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the numerical-failure code here
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config, output_dir=args.output,
                                workers=args.workers)
        if args.command == "verify":
            return cmd_verify(args.config, seed=args.seed)
        return cmd_bench(args.config, _parse_workers_list(args.workers),
                         output_dir=args.output)
    except (ConfigError, KernelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except StepFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        path = getattr(exc, "filename", None) or getattr(args, "config", "")
        print(f"io error on {path}: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
