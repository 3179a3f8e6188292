"""Spans around the public functions of each ttagg layer, and the per-layer
metrics derived from them.

Each wrapper is installed where its caller looks the name up (for example
`rhs_total` in `ttagg.integrator`, `rhs_tt_P` and `run_blocked` in
`ttagg.rhs`, `integrate` in `ttagg.cli`), so the program itself is not
edited.  A span is (name, start, end, parent, attrs); spans stay in
memory and are written out once, at the end of the run.  Self times are a
span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import os
import statistics
import threading
import time
import types

from workloads import ttagg

GAIN = ("rhs_tt_P", "rhs_cp_P", "rhs_dense_P")
LOSS = ("rhs_tt_Q", "rhs_cp_Q", "rhs_dense_Q")
CLI_WRITERS = ("_write_moments", "_write_snapshot", "_write_manifest")
KERNEL_BUILDERS = ("build_brownian_tt", "constant_tt", "dense_from_spec")


class Tracer:
    """Records spans from the wrappers it installs; `restore` removes them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attrs=None):
        spans, lock, local = self.spans, self._lock, self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            with lock:
                idx = len(spans)
                spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, attrs=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, attrs))

    def install(self) -> None:
        cfg, integ, rhs, cli = ttagg.config, ttagg.integrator, ttagg.rhs, ttagg.cli
        self.patch(cfg, "build_kernel_set", "config.build_kernel_set")
        for fn in KERNEL_BUILDERS:
            self.patch(cfg, fn, "kernels.build")
        for owner in (rhs, integ):
            self.patch(owner, "rhs_total", "rhs.total")
        for fn in GAIN:
            self.patch(rhs, fn, "rhs.gain")
        for fn in LOSS:
            self.patch(rhs, fn, "rhs.loss")
        self.patch(rhs, "run_blocked", "parallel.blocked", _fanout)
        self.patch(rhs, "map_blocked", "parallel.blocked", _fanout)
        fft = rhs._fft
        self._patches.append((rhs, "_fft", fft))
        rhs._fft = types.SimpleNamespace(
            rfft=self.wrap("fft.forward", fft.rfft, _fft_shape),
            irfft=self.wrap("fft.inverse", fft.irfft, _fft_shape),
        )
        self.patch(integ, "rk2_step", "integrator.rk2_step")
        self.patch(integ.MomentSeries, "record", "integrator.record")
        self.patch(integ, "integrate", "integrator.integrate")
        self.patch(cli, "integrate", "integrator.integrate")
        self.patch(cli, "cmd_simulate", "cli.cmd_simulate")
        for fn in CLI_WRITERS:
            self.patch(cli, fn, "cli.write", _file_size)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for idx, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{idx},{parent},{name},{start:.9f},{end:.9f}\n")


def _fanout(args, result):
    total, workers = args[0], args[1]
    return {"split": workers > 1 and total > 1}


def _fft_shape(args, result):
    x = args[0]
    rows = x.size // x.shape[-1]
    length = result.shape[-1] if result.dtype.kind == "f" else x.shape[-1]
    return {"rows": rows, "length": length, "bytes": x.nbytes + result.nbytes}


def _file_size(args, result):
    return {"bytes": os.path.getsize(args[0])}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

UNITS = {
    "config.build_kernel_set_s": "s",
    "kernels.build_s": "s",
    "rhs.first_eval_s": "s",
    "rhs.total_ms": "ms",
    "rhs.total_self_ms": "ms",
    "rhs.gain_ms": "ms",
    "rhs.gain_self_ms": "ms",
    "rhs.loss_ms": "ms",
    "rhs.evals_per_step": "count",
    "fft.forward_ms": "ms",
    "fft.inverse_ms": "ms",
    "fft.rows_per_gain": "count",
    "fft.length": "count",
    "fft.bytes_per_gain": "bytes",
    "parallel.fanouts_per_rhs": "count",
    "parallel.blocked_ms": "ms",
    "integrator.step_self_ms": "ms",
    "integrator.loop_self_ms": "ms",
    "integrator.moments_ms": "ms",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
}


class SpanIndex:
    """Children and durations of a finished trace."""

    def __init__(self, spans):
        self.spans = spans
        self.children = [[] for _ in spans]
        self.by_name: dict[str, list[int]] = {}
        for idx, span in enumerate(spans):
            if span[3] >= 0:
                self.children[span[3]].append(idx)
            self.by_name.setdefault(span[0], []).append(idx)

    def dur(self, idx) -> float:
        return self.spans[idx][2] - self.spans[idx][1]

    def named(self, name) -> list[int]:
        return self.by_name.get(name, [])

    def covered(self, idx, prefixes=("",)) -> float:
        """Length of the union of the child intervals whose name matches."""
        intervals = sorted(
            (self.spans[c][1], self.spans[c][2])
            for c in self.children[idx]
            if self.spans[c][0].startswith(prefixes)
        )
        total, end = 0.0, -1.0
        for lo, hi in intervals:
            if hi <= end:
                continue
            total += hi - max(lo, end)
            end = hi
        return total

    def descendants(self, idx, name) -> list[int]:
        found, todo = [], list(self.children[idx])
        while todo:
            c = todo.pop()
            if self.spans[c][0] == name:
                found.append(c)
            todo.extend(self.children[c])
        return found


def _median(values, scale=1.0) -> float:
    values = list(values)
    return statistics.median(values) * scale if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer figures, each a median (times) or mean (counts) per call."""
    ix = SpanIndex(spans)
    attr = lambda idx, key: ix.spans[idx][4][key]  # noqa: E731
    builds = ix.named("config.build_kernel_set")
    totals = ix.named("rhs.total")
    warm_totals = totals[1:]
    gains = ix.named("rhs.gain")
    steps = ix.named("integrator.rk2_step")
    integrates = ix.named("integrator.integrate")
    simulates = ix.named("cli.cmd_simulate")

    def fft_sum(gain, name, key=None):
        kids = [c for c in ix.children[gain] if ix.spans[c][0] == name]
        return sum(attr(c, key) if key else ix.dur(c) for c in kids)

    def cli_write(sim):
        inner = [c for c in ix.children[sim] if ix.spans[c][0] == "integrator.integrate"]
        inside = sum(ix.dur(w) for i in inner for w in ix.descendants(i, "cli.write"))
        return ix.dur(sim) - sum(ix.dur(i) for i in inner) + inside

    def loop_self(integ):
        n_steps = sum(1 for c in ix.children[integ] if ix.spans[c][0] == "integrator.rk2_step")
        return (ix.dur(integ) - ix.covered(integ)) / max(n_steps, 1)

    blocked = {t: ix.descendants(t, "parallel.blocked") for t in warm_totals}
    return {
        "config.build_kernel_set_s": _median(ix.dur(b) for b in builds),
        "kernels.build_s": _median(ix.covered(b, ("kernels.",)) for b in builds),
        "rhs.first_eval_s": ix.dur(totals[0]) if totals else 0.0,
        "rhs.total_ms": _median((ix.dur(t) for t in warm_totals), 1e3),
        "rhs.total_self_ms": _median(
            (ix.dur(t) - ix.covered(t, ("rhs.gain", "rhs.loss")) for t in warm_totals), 1e3
        ),
        "rhs.gain_ms": _median((ix.dur(g) for g in gains), 1e3),
        "rhs.gain_self_ms": _median((ix.dur(g) - ix.covered(g, ("fft.",)) for g in gains), 1e3),
        "rhs.loss_ms": _median((ix.dur(q) for q in ix.named("rhs.loss")), 1e3),
        "rhs.evals_per_step": _mean(
            sum(1 for c in ix.children[s] if ix.spans[c][0] == "rhs.total") for s in steps
        ),
        "fft.forward_ms": _median((fft_sum(g, "fft.forward") for g in gains), 1e3),
        "fft.inverse_ms": _median((fft_sum(g, "fft.inverse") for g in gains), 1e3),
        "fft.rows_per_gain": _mean(fft_sum(g, "fft.forward", "rows") for g in gains),
        "fft.length": max((attr(f, "length") for f in ix.named("fft.forward")), default=0),
        "fft.bytes_per_gain": _mean(
            fft_sum(g, "fft.forward", "bytes") + fft_sum(g, "fft.inverse", "bytes")
            for g in gains
        ),
        "parallel.fanouts_per_rhs": _mean(
            sum(1 for b in spans_ if attr(b, "split")) for spans_ in blocked.values()
        ),
        "parallel.blocked_ms": _median(
            (sum(ix.dur(b) for b in spans_) for spans_ in blocked.values()), 1e3
        ),
        "integrator.step_self_ms": _median(
            (ix.dur(s) - ix.covered(s, ("rhs.total",)) for s in steps), 1e3
        ),
        "integrator.loop_self_ms": _median((loop_self(i) for i in integrates), 1e3),
        "integrator.moments_ms": _median(
            (ix.dur(r) for r in ix.named("integrator.record")), 1e3
        ),
        "cli.write_s": _median(cli_write(s) for s in simulates),
        "cli.bytes_written": _median(
            sum(attr(w, "bytes") for w in ix.descendants(s, "cli.write")) for s in simulates
        ),
    }
