"""Self-test of the benchmark itself, at toy sizes (about half a minute).

    python3 perfbench/selftest.py

It shows that
  * the same seed regenerates identical inputs, and another seed changes them;
  * every output check passes on the program's real outputs and fails once
    the output it reads is perturbed slightly beyond its tolerance;
  * the bitwise comparison between repeated solutions catches a one-ulp change
    (a last-digit change in moments.csv);
  * the traced run records spans for every layer and leaves outputs unchanged.
Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys

import workloads as wl  # first: it fixes the BLAS thread count before numpy loads
import numpy as np
import tracing
from run import END_TO_END_UNITS, PER_LAYER_UNITS, build

PERTURB_RTOL = 1e-8  # relative change of one RHS entry; the oracle tolerance is 1e-10


def _bump(vec: np.ndarray, rel: float) -> np.ndarray:
    out = np.array(vec, dtype=np.float64)
    k = int(np.argmax(np.abs(out)))
    out[k] += rel * abs(out[k])
    return out


def _moments_csv(rows: np.ndarray) -> bytes:
    lines = ["t,M0,M1,M2,min_n"]
    lines += [",".join(format(float(v), ".17g") for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _bump_column(csv: bytes, column: int, rel: float) -> bytes:
    rows = wl.parse_moments(csv)
    rows[-1, column] *= 1.0 + rel
    return _moments_csv(rows)


def perturbations(workload: wl.Workload, outputs: dict) -> dict:
    """For each check name, the outputs with the value it reads perturbed."""
    if workload.via_cli:
        moments = outputs["moments"]
        return {
            "m0_vs_scalar_ode": dict(outputs, moments=_bump_column(moments, 1, 1e-10)),
            "m1_drift": dict(outputs, moments=_bump_column(moments, 2, 1e-8)),
            "manifest_rerun_differs": dict(outputs, rerun=_bump_column(moments, 3, 1e-15)),
        }
    cases = {
        "rhs_gain_vs_cp": dict(outputs, p=_bump(outputs["p"], PERTURB_RTOL)),
        "rhs_loss_vs_cp": dict(outputs, q=_bump(outputs["q"], PERTURB_RTOL)),
    }
    if workload.workers > 1:
        cases["m1_drift"] = dict(outputs, m1_drift=1e-8)
        cases["rhs_1_worker"] = dict(outputs, s=_bump(outputs["s"], 1e-10))
    return cases


def ulp_change(output):
    if isinstance(output, bytes):
        return output[:-2] + bytes([output[-2] ^ 1]) + output[-1:]
    out = np.array(output)
    k = int(np.argmax(np.abs(out)))
    out[k] = np.nextafter(out[k], np.inf)
    return out


LAYER_SPANS = (
    "config.build_kernel_set", "kernels.build", "rhs.total", "rhs.gain", "rhs.loss",
    "fft.forward", "fft.inverse", "parallel.blocked", "integrator.rk2_step",
    "integrator.record", "integrator.integrate",
)


def selftest_workload(workload: wl.Workload, report) -> None:
    toy = workload.toy()
    seed = 7
    config_dict = toy.config_dict(seed)
    report(
        "same seed, same inputs",
        json.dumps(config_dict) == json.dumps(toy.config_dict(seed))
        and json.dumps(config_dict) != json.dumps(toy.config_dict(seed + 1)),
    )
    workdir = wl.workdir_for(toy, seed)
    try:
        config, kernels = build(toy, config_dict)
        solver = wl.make_solver(toy, config_dict, config, kernels, toy.workers, workdir)
        output = solver.solve()
        report("repeat is bitwise equal", solver.same(solver.solve(), output))
        report("a one-ulp or last-digit change is caught", not solver.same(ulp_change(output), output))

        outputs, checks = wl.outputs_and_checks(toy, solver, config_dict, output)
        report(f"checks pass on real outputs {wl.failing(checks)}", not wl.failing(checks))
        for name, perturbed in perturbations(toy, outputs).items():
            failed = wl.failing(wl.check(toy, perturbed, config_dict))
            report(f"perturbed output fails {name}", name in failed)

        tracer = tracing.Tracer()
        tracer.install()
        try:
            if not toy.via_cli:
                kernels = wl.ttagg.config.build_kernel_set(config)
                solver = wl.make_solver(toy, config_dict, config, kernels, toy.workers, workdir)
            traced_output = solver.solve()
        finally:
            tracer.restore()
        names = {span[0] for span in tracer.spans}
        expected = LAYER_SPANS + (("cli.cmd_simulate", "cli.write") if toy.via_cli else ())
        missing = [n for n in expected if n not in names]
        report(f"every layer traced (missing {missing})", not missing)
        report("tracing leaves outputs unchanged", solver.same(traced_output, output))
        derived = set(tracing.layer_metrics(tracer.spans))
        report("every per-layer metric derived", derived == set(tracing.UNITS))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def benchmark_file_matches() -> bool:
    """BENCHMARK.json names workloads run.py has, and exactly the metrics it reports."""
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())

    def units(key):
        return {m["name"]: m["unit"] for m in spec[key]}

    return (
        {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)
        and units("end_to_end") == END_TO_END_UNITS
        and units("per_layer") == PER_LAYER_UNITS
    )


def main() -> int:
    failures = []
    ok = benchmark_file_matches()
    print(f"{'PASS' if ok else 'FAIL'} BENCHMARK.json matches the workloads and metrics")
    if not ok:
        failures.append(("BENCHMARK.json", "mismatch"))
    for workload in wl.WORKLOADS.values():

        def report(what, ok, name=workload.name):
            print(f"{'PASS' if ok else 'FAIL'} {name}: {what}")
            if not ok:
                failures.append((name, what))

        selftest_workload(workload, report)
    print(f"selftest: {'FAIL' if failures else 'PASS'} ({len(failures)} failures)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
