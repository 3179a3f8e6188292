"""The three benchmark workloads: seeded inputs, one timed solution, checks.

A workload is a fixed Cauchy problem.  One *solution* integrates it from
its initial state for a fixed number of steps, so every solution in a run
must produce the same bits; the benchmark times as many solutions as fit
in the measuring window.  The seed only chooses inputs (the initial state
or the kernel coefficients), never the amount of work, so every seed
costs the same.

Only the generated configuration reaches the program; the checks below
compare the program's outputs against references that are built here,
independently of the code under test where the maths allows.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

# One BLAS thread, set before numpy loads.  The program's parallelism is its
# own worker pool; threaded OpenBLAS on a shared 2-core machine made a
# 2^17-element dot product take 0.08 ms or 8 ms depending on the neighbours.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_ttagg():
    """Import the package from this checkout's sources, never an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ttagg

    origin = Path(ttagg.__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"ttagg imported from {origin}, not from {SRC}")
    return ttagg


ttagg = import_ttagg()
from ttagg.cli import main as cli_main  # noqa: E402
from ttagg.config import config_from_dict  # noqa: E402
from ttagg.kernels import CPKernel  # noqa: E402
from ttagg.parallel import ExecutionPlan  # noqa: E402
from ttagg.rhs import ConcentrationState, rhs_cp_P, rhs_cp_Q  # noqa: E402

# Tolerances.  At the default sizes every check passes by orders of magnitude.
ORACLE_RTOL = 1e-10  # fast RHS against the rank-D! CP form of the same kernel
WORKER_RTOL = 1e-12  # result spread between worker counts
DRIFT_TOL = 1e-10  # relative change of M1
SCALAR_M0_RTOL = 1e-12  # M0 against the scalar moment ODE, same time scheme


@dataclass(frozen=True)
class Workload:
    """A fixed problem; `dt`, `steps` and `record_every` define one solution."""

    name: str
    n_classes: int
    dimension: int
    workers: int
    steps: int
    dt: float
    record_every: int
    via_cli: bool

    def config_dict(self, seed: int) -> dict:
        """The program's whole input, generated from `seed`."""
        rng = np.random.default_rng(seed)
        n = self.n_classes
        initial = {"kind": "monodisperse", "c0": 1.0}
        if self.name.startswith("brownian3"):
            # broad support over the whole grid, so no tail is empty
            k = np.arange(1, n + 1, dtype=np.float64)
            values = np.exp(-8.0 * k / n) * (1.0 + 0.1 * rng.random(n))
            values /= values.sum()
            kernels = {"3": {"type": "brownian", "mu": list(BROWNIAN_MU[3])}}
            initial = {"kind": "vector", "values": values.tolist()}
        elif self.name.startswith("brownian4"):
            kernels = {"4": {"type": "brownian", "mu": list(BROWNIAN_MU[4])}}
            initial["c0"] = float(rng.uniform(0.5, 1.5))
        else:
            c2, c3 = (float(c) for c in rng.uniform(0.5, 1.5, size=2))
            kernels = {
                "2": {"type": "constant", "D": 2, "c": c2},
                "3": {"type": "constant", "D": 3, "c": c3},
            }
        return {
            "N": n,
            "D": self.dimension,
            "kernels": kernels,
            "initial": initial,
            "time": {"t0": 0.0, "dt": self.dt, "steps": self.steps},
            "record_every": self.record_every,
            "workers": self.workers,
        }

    def toy(self) -> "Workload":
        """The same problem at a size the self-test runs in seconds."""
        return replace(self, n_classes=256, steps=min(self.steps, 40))


BROWNIAN_MU = {3: (1 / 3, -1 / 3, 0.0), 4: (0.5, -0.5, 0.25, 0.0)}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("brownian3_n17", 1 << 17, 3, 1, 2, 1e-2, 2, False),
        Workload("brownian4_n15_w2", 1 << 15, 4, 2, 3, 1e-2, 3, False),
        Workload("constant23_n10_cli", 1 << 10, 3, 1, 200, 1e-2, 20, True),
    )
}


# ---------------------------------------------------------------------------
# one solution
# ---------------------------------------------------------------------------

class IntegrateSolver:
    """Solutions through `ttagg.integrate`, with the kernels built once."""

    def __init__(self, config, kernels, workers: int):
        self.config = config
        self.kernels = kernels
        self.plan = ExecutionPlan(
            workers=workers, fft_length_policy=config.fft_length_policy
        )
        self.steps = config.time.steps
        self.last = None

    def solve(self) -> np.ndarray:
        # looked up at call time, so a traced run sees the wrapped function
        final, series = ttagg.integrator.integrate(
            self.config, kernels=self.kernels, plan=self.plan
        )
        self.last = (final, series)
        return final.n

    @staticmethod
    def same(a, b) -> bool:
        return np.array_equal(a, b)

    @staticmethod
    def spread(a, b) -> float:
        return rel_inf(a, b)


class CliSolver:
    """Solutions through `ttagg simulate`; the output is moments.csv's bytes."""

    def __init__(self, config_dict: dict, workdir: Path, workers: int):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.out = self.workdir / f"out_w{workers}"
        self.config_path = self.workdir / "config.json"
        self.config_path.write_text(json.dumps(config_dict))
        self.argv = [
            "simulate",
            "--config", str(self.config_path),
            "--output", str(self.out),
            "--workers", str(workers),
        ]
        self.steps = int(config_dict["time"]["steps"])

    def solve(self) -> bytes:
        code = run_cli(self.argv)
        if code != 0:
            raise RuntimeError(f"ttagg simulate exited with code {code}")
        return (self.out / "moments.csv").read_bytes()

    @staticmethod
    def same(a, b) -> bool:
        return a == b

    @staticmethod
    def spread(a, b) -> float:
        return rel_inf(parse_moments(a)[:, 1:], parse_moments(b)[:, 1:])


def run_cli(argv) -> int:
    # simulate prints a summary line; keep stdout for the benchmark's result
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(list(argv))


def make_solver(workload: Workload, config_dict: dict, config, kernels,
                workers: int, workdir: Path):
    if workload.via_cli:
        return CliSolver(config_dict, workdir, workers)
    return IntegrateSolver(config, kernels, workers)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def rel_inf(got, ref) -> float:
    got, ref = np.asarray(got, dtype=np.float64), np.asarray(ref, dtype=np.float64)
    if got.shape != ref.shape:
        return math.inf
    scale = float(np.abs(ref).max())
    diff = float(np.abs(got - ref).max())
    if not math.isfinite(diff):
        return math.inf
    return diff / scale if scale else diff


def parse_moments(text: bytes) -> np.ndarray:
    """Rows of (t, M0, M1, M2, min_n) from moments.csv."""
    lines = text.decode("utf-8").strip().splitlines()
    if lines[0].split(",") != ["t", "M0", "M1", "M2", "min_n"]:
        raise ValueError(f"unexpected moments.csv header {lines[0]!r}")
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def brownian_cp(mu, n_classes: int) -> CPKernel:
    """The Brownian kernel as an explicit CP sum, one rank per permutation."""
    d = len(mu)
    sizes = np.arange(1, n_classes + 1, dtype=np.float64)
    perms = list(itertools.permutations(range(d)))
    factors = [
        np.stack([sizes ** mu[perm[m]] for perm in perms], axis=1) for m in range(d)
    ]
    return CPKernel(tuple(factors))


def brownian_outputs(solver: IntegrateSolver, workload: Workload) -> dict:
    """What the program reports for a Brownian solution, for `check_brownian`."""
    final, series = solver.last
    res = ttagg.rhs.rhs_total(solver.kernels, final, solver.plan)
    out = {"n": final.n, "p": res.p, "q": res.q, "m1_drift": series.m1_drift[-1]}
    if workload.workers > 1:
        out["s_serial"] = ttagg.rhs.rhs_total(solver.kernels, final).s
        out["s"] = res.s
    return out


def check_brownian(outputs: dict, workload: Workload) -> dict:
    """Relative errors of a Brownian solution's RHS against the CP oracle."""
    d = workload.dimension
    state = ConcentrationState(outputs["n"])
    oracle = brownian_cp(BROWNIAN_MU[d], state.n_classes)
    checks = {
        "rhs_gain_vs_cp": (rel_inf(outputs["p"], rhs_cp_P(oracle, state)), ORACLE_RTOL),
        "rhs_loss_vs_cp": (rel_inf(outputs["q"], rhs_cp_Q(oracle, state)), ORACLE_RTOL),
    }
    if workload.workers > 1:
        checks["m1_drift"] = (abs(outputs["m1_drift"]), DRIFT_TOL)
        checks["rhs_1_worker"] = (rel_inf(outputs["s"], outputs["s_serial"]), WORKER_RTOL)
    return checks


def scalar_m0(config_dict: dict, records: int) -> np.ndarray:
    """M0 from the midpoint rule applied to dM0/dt = -c2 M0^2/2 - c3 M0^3/3.

    For constant kernels the size-class system sums to this ODE exactly
    until mass reaches size N, and the midpoint step is linear in n, so the
    recorded M0 must match this recursion up to roundoff.
    """
    kernels = config_dict["kernels"]
    c2, c3 = float(kernels["2"]["c"]), float(kernels["3"]["c"])
    dt = float(config_dict["time"]["dt"])
    every = int(config_dict["record_every"])

    def f(m):
        return -c2 * m * m / 2.0 - c3 * m * m * m / 3.0

    m = float(config_dict["initial"]["c0"])
    out = [m]
    for step in range(1, (records - 1) * every + 1):
        m = m + dt * f(m + 0.5 * dt * f(m))
        if step % every == 0:
            out.append(m)
    return np.array(out)


def cli_outputs(solver: CliSolver, moments_csv: bytes) -> dict:
    """moments.csv, plus the same file re-run from the written manifest."""
    rerun_dir = solver.workdir / "rerun"
    code = run_cli([
        "simulate",
        "--config", str(solver.out / "run_manifest.json"),
        "--output", str(rerun_dir),
    ])
    rerun = (rerun_dir / "moments.csv").read_bytes() if code == 0 else b""
    return {"moments": moments_csv, "rerun": rerun}


def check_cli(outputs: dict, config_dict: dict) -> dict:
    rows = parse_moments(outputs["moments"])
    ref_m0 = scalar_m0(config_dict, len(rows))
    m1 = rows[:, 2]
    return {
        "m0_vs_scalar_ode": (rel_inf(rows[:, 1], ref_m0), SCALAR_M0_RTOL),
        "m1_drift": (float(np.abs(m1 / m1[0] - 1.0).max()), DRIFT_TOL),
        "manifest_rerun_differs": (float(outputs["rerun"] != outputs["moments"]), 0.0),
    }


def check(workload: Workload, outputs: dict, config_dict: dict) -> dict:
    """Each check's (value, tolerance) on a workload's program outputs."""
    if workload.via_cli:
        return check_cli(outputs, config_dict)
    return check_brownian(outputs, workload)


def outputs_and_checks(workload: Workload, solver, config_dict: dict, output):
    """Program outputs for the solution `output` and the checks on them."""
    if workload.via_cli:
        outputs = cli_outputs(solver, output)
    else:
        outputs = brownian_outputs(solver, workload)
    return outputs, check(workload, outputs, config_dict)


def failing(checks: dict) -> list[str]:
    """Names of the checks whose value is not within tolerance."""
    return [name for name, (value, tol) in checks.items() if not value <= tol]


def workdir_for(workload: Workload, seed: int) -> Path:
    """Scratch directory inside the checkout, per process."""
    return HERE / "out" / f"{workload.name}-s{seed}-{os.getpid()}"
