"""The library names that the benchmark harness under perfbench/ uses.

The harness wraps functions by name (`perfbench/tracing.py`) and builds
its solver from config fields (`perfbench/workloads.py`), so deleting or
renaming one of them breaks the benchmark.  One traced toy solution here
makes such a change fail the test suite too.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_toy_solution_passes_the_benchmark_checks(monkeypatch):
    # importing workloads.py sets this variable; the monkeypatch restores it
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads as wl

    ttagg = wl.ttagg
    originals = (ttagg.integrator.rk2_step, ttagg.integrator.rhs_total, ttagg.rhs._fft)
    for name in ("brownian3_n17", "brownian4_n15_w2"):
        toy = wl.WORKLOADS[name].toy()
        config = wl.config_from_dict(toy.config_dict(seed=1))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            kernels = ttagg.config.build_kernel_set(config)
            solver = wl.IntegrateSolver(config, kernels, toy.workers)
            solver.solve()
            checks = wl.check_brownian(wl.brownian_outputs(solver, toy), toy)
        finally:
            tracer.restore()
        assert (
            ttagg.integrator.rk2_step, ttagg.integrator.rhs_total, ttagg.rhs._fft
        ) == originals
        assert not wl.failing(checks), (name, checks)
        names = {span[0] for span in tracer.spans}
        assert {
            "config.build_kernel_set",
            "integrator.integrate",
            "integrator.rk2_step",
            "rhs.total",
            "rhs.gain",
            "rhs.loss",
            "fft.forward",
            "fft.inverse",
        } <= names
        # the per-gain FFT figures: every gain of the rank-1 symmetrized CP
        # form transforms its D fibers and inverts one combined spectrum
        index = tracing.SpanIndex(tracer.spans)
        gains = index.named("rhs.gain")
        assert gains
        for gain in gains:
            kids = [tracer.spans[c] for c in index.children[gain]]
            assert sum(k[4]["rows"] for k in kids if k[0] == "fft.forward") == toy.dimension
            assert sum(1 for k in kids if k[0] == "fft.inverse") == 1
