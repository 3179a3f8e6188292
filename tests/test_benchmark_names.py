"""The library names that the benchmark harness under perfbench/ uses.

The harness wraps functions by name (`perfbench/tracing.py`) and builds
its solver from config fields (`perfbench/workloads.py`), so deleting or
renaming one of them breaks the benchmark.  One traced toy solution here
makes such a change fail the test suite too.
"""

from pathlib import Path

import numpy as np

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
        } <= names
        index = tracing.SpanIndex(tracer.spans)
        gains = index.named("rhs.gain")
        transformed = []
        for gain in gains:
            kids = [tracer.spans[c] for c in index.children[gain]]
            if any(k[0].startswith("fft.") for k in kids):
                transformed.append(kids)
        if name == "brownian4_n15_w2":
            # a monodisperse order-4 start keeps its state on sizes 1 + 3j,
            # and at the toy's N every gain's lattice columns convolve
            # directly: no gain transforms
            assert gains and not transformed
            continue
        # the per-gain FFT figures: every gain of the rank-1 symmetrized CP
        # form that transforms (a small one convolves directly) transforms
        # its D fibers and inverts one combined spectrum
        assert {"fft.forward", "fft.inverse"} <= names
        assert transformed
        for kids in transformed:
            assert sum(k[4]["rows"] for k in kids if k[0] == "fft.forward") == toy.dimension
            assert sum(1 for k in kids if k[0] == "fft.inverse") == 1


def test_tracer_records_the_transforms_of_a_streamed_gain(monkeypatch):
    # the tracer swaps `rhs._fft` for its real transforms only; a streamed
    # gain sends each row's class 0 and its one inverse through them, so
    # the per-gain FFT figures see the stream, split into blocks or not,
    # and the gain keeps its bits
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads as wl

    ttagg = wl.ttagg
    for n_classes in (1 << 12, 1 << 14):
        kernel = ttagg.kernels.brownian_symmetrized_cp(
            ttagg.kernels.BrownianSpec(wl.BROWNIAN_MU[3]), n_classes
        )
        sizes = np.arange(1, n_classes + 1)
        state = ttagg.rhs.ConcentrationState(np.exp(-8.0 * sizes / n_classes))
        assert ttagg.rhs.gain_path(kernel, state) == "streamed FFT"
        expected = ttagg.rhs.rhs_cp_P(kernel, state)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            got = ttagg.rhs.rhs_cp_P(kernel, state)
        finally:
            tracer.restore()
        np.testing.assert_array_equal(got, expected)
        index = tracing.SpanIndex(tracer.spans)
        (gain,) = index.named("rhs.gain")
        kids = [tracer.spans[c][0] for c in index.children[gain]]
        assert kids.count("fft.forward") == len(kernel.fibers), n_classes
        assert kids.count("fft.inverse") == 1, n_classes
