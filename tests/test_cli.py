"""Batch front-end: subcommands, exit codes, and file outputs."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy

import ttagg
import ttagg.cli as cli
import ttagg.rhs
from ttagg.kernels import SymmetrizedCPKernel, TTKernel, constant_symmetrized_cp
from ttagg.rhs import ConcentrationState, KernelSet


def write_config(tmp_path, name="config.json", **overrides):
    data = {
        "N": 16,
        "D": 2,
        "kernels": {"2": {"type": "constant", "D": 2, "c": 0.0}},
        "initial": {"kind": "monodisperse", "c0": 1.0},
        "time": {"t0": 0.0, "dt": 1e-3, "steps": 5},
        "record_every": 1,
        "output_dir": str(tmp_path / "out"),
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_moments(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_zero_kernel_keeps_moments_constant(tmp_path):
    config_path = write_config(tmp_path)
    assert cli.main(["simulate", "--config", config_path]) == 0

    header, rows = read_moments(tmp_path / "out" / "moments.csv")
    assert header == ["t", "M0", "M1", "M2", "min_n"]
    assert len(rows) == 1 + 5
    for row in rows:
        assert row[1:] == rows[0][1:]

    for step in range(6):
        assert (tmp_path / "out" / f"n_{step}.csv").exists()
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert set(manifest["versions"]) >= {"ttagg", "numpy", "scipy", "fft", "python"}
    # the FFT backend decides the bits a manifest re-run reproduces
    assert manifest["versions"]["scipy"] == scipy.__version__
    assert manifest["versions"]["fft"] == "numpy.fft"


def test_simulate_ternary_reference_matches_closed_form(tmp_path):
    config_path = write_config(
        tmp_path,
        N=256,
        D=3,
        kernels={"3": {"type": "constant", "D": 3, "c": 1.0}},
        time={"t0": 0.0, "dt": 2e-3, "steps": 500},
        record_every=100,
    )
    assert cli.main(["simulate", "--config", config_path]) == 0
    _, rows = read_moments(tmp_path / "out" / "moments.csv")
    final_t, final_m0 = rows[-1][0], rows[-1][1]
    assert final_t == pytest.approx(1.0)
    exact = (1.0 + 2.0 / 3.0) ** -0.5
    assert final_m0 == pytest.approx(exact, rel=1e-3)


def test_simulate_missing_config_names_path(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["simulate", "--config", missing]) == 3
    assert missing in capsys.readouterr().err


def test_simulate_invalid_config_is_validation_error(tmp_path, capsys):
    config_path = write_config(
        tmp_path, kernels={"3": {"type": "constant", "D": 3, "c": 1.0}}
    )  # order 3 > D = 2
    assert cli.main(["simulate", "--config", config_path]) == 1
    assert "outside" in capsys.readouterr().err


def test_simulate_refuses_an_unknown_config_key(tmp_path, capsys):
    config_path = write_config(tmp_path, record_evry=2)
    assert cli.main(["simulate", "--config", config_path]) == 1
    assert not (tmp_path / "out").exists()
    assert "unknown key 'record_evry'" in capsys.readouterr().err


def test_simulate_wrong_length_initial_vector_writes_nothing(tmp_path, capsys):
    config_path = write_config(
        tmp_path, N=8, initial={"kind": "vector", "values": [0.5, 0.25, 0.125]}
    )
    assert cli.main(["simulate", "--config", config_path]) == 1
    # refused when the config loads, before the output directory is made
    assert not (tmp_path / "out").exists()
    assert "3 values, N = 8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, message",
    [
        (None, "configuration must be a JSON object"),  # a top-level array
        ({"kernels": {"2": 5}}, "kernel specification must be a JSON object"),
        ({"time": 5}, "'time' must be a JSON object"),
        ({"initial": []}, "'initial' must be a JSON object"),
        ({"kernels": {"2": {"type": "brownian", "mu": 0.5}}}, "'mu' must be a list"),
        (
            {"initial": {"kind": "vector", "values": {"a": 1}}},
            "'values' must be a list of numbers, got dict",
        ),
        ({"verify_oracle": "false"}, "'verify_oracle' must be true or false, got str"),
        (
            {"kernels": {"x": {"type": "constant", "D": 2, "c": 1.0}}},
            "collision order 'x' must be an integer",
        ),
        ({"fft_length_policy": "pow2"}, "'pow2'; the only one is 'fast'"),
        ({"output_dir": ["odir"]}, "'output_dir' must be a string, got list"),
        ({"output_dir": 7}, "'output_dir' must be a string, got int"),
        (
            {"kernels": {"2": {"type": "table", "D": 2, "table_path": ["pair.bin"]}}},
            "'table_path' must be a string, got list",
        ),
    ],
    ids=[
        "array", "kernel-number", "time-number", "initial-array", "mu-number",
        "values-object", "verify-oracle-string", "order-key-letter", "policy-pow2",
        "output-dir-list", "output-dir-number", "table-path-list",
    ],
)
def test_simulate_malformed_config_shape_is_validation_error(
    tmp_path, monkeypatch, capsys, overrides, message
):
    # a path that is not refused would be created relative to the cwd
    monkeypatch.chdir(tmp_path)
    if overrides is None:
        config_path = str(tmp_path / "config.json")
        (tmp_path / "config.json").write_text("[1, 2]")
    else:
        config_path = write_config(tmp_path, **overrides)
    assert cli.main(["simulate", "--config", config_path]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"N": [16]}, "'N' must be an integer, got list"),
        ({"N": 16.7}, "'N' must be an integer, got 16.7"),
        ({"D": True}, "'D' must be an integer, got bool"),
        ({"record_every": {"every": 1}}, "'record_every' must be an integer, got dict"),
        ({"workers": "2"}, "'workers' must be an integer, got str"),
        ({"time": {"dt": 1e-3, "steps": 2.9}}, "'steps' must be an integer, got 2.9"),
        ({"time": {"dt": [1e-3], "steps": 2}}, "'dt' must be a number, got list"),
        (
            {"kernels": {"2": {"type": "constant", "D": 2, "c": [1]}}},
            "'c' must be a number, got list",
        ),
        (
            {"kernels": {"2": {"type": "constant", "D": 2.5, "c": 1}}},
            "kernel 'D' must be an integer, got 2.5",
        ),
        (
            {"kernels": {"2": {"type": "brownian", "mu": [[0.5], -0.5]}}},
            "'mu' entry must be a number, got list",
        ),
        (
            {"kernels": {"2": {"type": "constant", "D": 2, "c": float("inf")}}},
            "'c' must be finite, got inf",
        ),
        (
            {"kernels": {"2": {"type": "brownian", "mu": [float("nan"), 0.0]}}},
            "'mu' entry must be finite, got nan",
        ),
        ({"time": {"t0": float("inf"), "dt": 1e-3, "steps": 2}}, "'t0' must be finite"),
        (
            {"kernels": {"2": {"type": "constant", "D": 2, "c": 10**400}}},
            "'c' must be finite, got 1000",
        ),
        (
            {"initial": {"kind": "monodisperse", "c0": -1.0}},
            "initial concentrations must be nonnegative",
        ),
    ],
    ids=[
        "N-list", "N-fraction", "D-bool", "record-every-object", "workers-string",
        "steps-fraction", "dt-list", "c-list", "kernel-D-fraction", "mu-entry-list",
        "c-infinity", "mu-nan", "t0-infinity", "c-too-large", "c0-negative",
    ],
)
def test_simulate_bad_scalar_field_is_validation_error(
    tmp_path, capsys, overrides, message
):
    # int()/float() would truncate the fractions and raise TypeError on
    # lists, and json reads NaN and Infinity
    config_path = write_config(tmp_path, **overrides)
    assert cli.main(["simulate", "--config", config_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    assert not (tmp_path / "out").exists()  # refused before any output


def test_integral_numbers_are_accepted_for_integer_fields(tmp_path):
    config_path = write_config(tmp_path, N=16.0, time={"dt": 1e-3, "steps": 2.0})
    assert cli.main(["simulate", "--config", config_path]) == 0
    _, rows = read_moments(tmp_path / "out" / "moments.csv")
    assert len(rows) == 1 + 2


def test_manifest_rerun_reproduces_moments_bitwise(tmp_path):
    config_path = write_config(
        tmp_path,
        N=64,
        D=3,
        kernels={"3": {"type": "brownian", "mu": [1 / 3, -1 / 3, 0.0]}},
        time={"t0": 0.0, "dt": 1e-3, "steps": 20},
        record_every=5,
    )
    assert cli.main(["simulate", "--config", config_path]) == 0
    manifest = tmp_path / "out" / "run_manifest.json"
    first = (tmp_path / "out" / "moments.csv").read_bytes()
    # at the manifest's own worker count and at another one
    for name, extra in (("rerun", []), ("rerun_w2", ["--workers", "2"])):
        rerun_out = tmp_path / name
        argv = ["simulate", "--config", str(manifest), "--output", str(rerun_out)]
        assert cli.main(argv + extra) == 0
        assert (rerun_out / "moments.csv").read_bytes() == first


def test_simulate_and_verify_with_table_kernel(tmp_path, capsys):
    rng = np.random.default_rng(6)
    table = rng.random((16, 16))
    table = table + table.T
    table_path = tmp_path / "pair_rates.bin"
    table.astype("<f8").ravel().tofile(table_path)
    config_path = write_config(
        tmp_path,
        N=16,
        D=2,
        kernels={"2": {"type": "table", "D": 2, "table_path": str(table_path)}},
        time={"t0": 0.0, "dt": 1e-3, "steps": 3},
    )
    assert cli.main(["simulate", "--config", config_path]) == 0
    _, rows = read_moments(tmp_path / "out" / "moments.csv")
    assert len(rows) == 4
    assert rows[-1][1] < rows[0][1]  # aggregation shrinks the cluster count

    assert cli.main(["verify", "--config", config_path]) == 0
    assert "nothing to verify" in capsys.readouterr().out


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("binary", [True, False], ids=["binary", "text"])
def test_table_with_a_non_finite_coefficient_is_a_validation_error(
    tmp_path, capsys, binary, bad
):
    # read as given, the bad pair ends a run as a numerical failure and
    # passes verify; both commands must refuse the file instead
    table = np.ones((4, 4))
    table[1, 2] = table[2, 1] = bad
    if binary:
        table_path = tmp_path / "pair_rates.bin"
        table.astype("<f8").ravel().tofile(table_path)
    else:
        table_path = tmp_path / "pair_rates.txt"
        np.savetxt(table_path, table)
    config_path = write_config(
        tmp_path,
        N=4,
        kernels={"2": {"type": "table", "D": 2, "table_path": str(table_path)}},
    )
    for command in ("simulate", "verify"):
        assert cli.main([command, "--config", config_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(table_path) in err


def test_text_table_of_the_binary_size_is_a_validation_error(tmp_path, capsys):
    # 32 bytes of number text are also the size of N^D = 4 doubles; read
    # as binary they make a kernel of about 1e-76 and a run with no
    # aggregation, so the file is refused, and one more byte of
    # whitespace makes it a text table
    table_path = tmp_path / "pair_rates.txt"
    table_path.write_text("1.000000 2.00000 2.00000 4.0000\n")
    assert table_path.stat().st_size == 4 * 8
    config_path = write_config(
        tmp_path,
        N=2,
        kernels={"2": {"type": "table", "D": 2, "table_path": str(table_path)}},
        time={"t0": 0.0, "dt": 0.01, "steps": 20},
    )
    for command in ("simulate", "verify"):
        assert cli.main([command, "--config", config_path]) == 1
        err = capsys.readouterr().err
        assert str(table_path) in err
        assert "text" in err and "binary" in err and "whitespace" in err
    table_path.write_text("1.000000 2.00000 2.00000 4.0000 \n")
    assert cli.main(["simulate", "--config", config_path]) == 0
    _, rows = read_moments(tmp_path / "out" / "moments.csv")
    assert rows[-1][1] == pytest.approx(0.8888, abs=1e-4)


@pytest.mark.parametrize(
    "time",
    [{"t0": 1e6, "dt": 1e-11, "steps": 3}, {"t0": 1e308, "dt": 1e307, "steps": 30}],
    ids=["dt-below-t-ulp", "end-overflows"],
)
def test_time_grid_that_cannot_advance_t_is_refused_before_any_output(
    tmp_path, capsys, time
):
    # t0 + dt == t0 left t in place: simulate wrote n_0.csv and then
    # failed on the moment records
    config_path = write_config(tmp_path, time=time)
    assert cli.main(["simulate", "--config", config_path]) == 1
    assert capsys.readouterr().err.startswith("error: invalid time grid: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_simulate_numerical_failure_exit_code(tmp_path, capsys):
    config_path = write_config(
        tmp_path,
        kernels={"2": {"type": "constant", "D": 2, "c": 1e300}},
        initial={"kind": "monodisperse", "c0": 1e10},
        time={"t0": 0.0, "dt": 1e10, "steps": 2},
    )
    assert cli.main(["simulate", "--config", config_path]) == 2
    assert "step 1" in capsys.readouterr().err


def test_kernel_with_overflowing_powers_is_a_validation_error(tmp_path, capsys):
    # 64**200 overflows a double, so the Brownian factor holds an inf;
    # both commands refuse the kernel instead of running or passing it
    config_path = write_config(
        tmp_path,
        N=64,
        D=3,
        kernels={"3": {"type": "brownian", "mu": [200, 0, 0]}},
    )
    for command in ("simulate", "verify"):
        assert cli.main([command, "--config", config_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite coefficient" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_brownian_passes(tmp_path, capsys):
    config_path = write_config(
        tmp_path,
        N=16,
        D=3,
        kernels={"3": {"type": "brownian", "mu": [1 / 3, -1 / 3, 0.0]}},
    )
    assert cli.main(["verify", "--config", config_path, "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    # the run-time form and the paper's constructive TT, one line each
    assert "order 3, symmetrized CP:" in out
    assert "order 3, constructive TT:" in out


def test_verify_checks_both_forms_of_a_constant_order(tmp_path, capsys):
    config_path = write_config(
        tmp_path,
        N=16,
        D=3,
        kernels={
            "2": {"type": "constant", "D": 2, "c": 0.7},
            "3": {"type": "brownian", "mu": [1 / 3, -1 / 3, 0.0]},
        },
    )
    assert cli.main(["verify", "--config", config_path, "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    for d in (2, 3):
        assert f"order {d}, symmetrized CP:" in out
        assert f"order {d}, constructive TT:" in out


def test_verify_checks_a_state_with_an_empty_tail(tmp_path, monkeypatch):
    # five full-support states as before, then one that is zero above
    # N // 4, so the paths trimmed to the occupied sizes are checked too
    config_path = write_config(
        tmp_path,
        N=32,
        D=3,
        kernels={"3": {"type": "brownian", "mu": [1 / 3, -1 / 3, 0.0]}},
    )
    seen = []
    original = cli.rhs_gain_loss

    def record(kernel, state, plan=None):
        seen.append(state.n)
        return original(kernel, state, plan)

    monkeypatch.setattr(cli, "rhs_gain_loss", record)
    assert cli.main(["verify", "--config", config_path, "--seed", "5"]) == 0
    rng = np.random.default_rng(5)
    full = [rng.random(32) for _ in range(5)]
    short = rng.random(32)
    short[8:] = 0.0
    # two representations (symmetrized CP, constructive TT), six states each
    assert len(seen) == 12
    for got, want in zip(seen, (full + [short]) * 2):
        np.testing.assert_array_equal(got, want)


def test_verify_checks_a_streamed_gain_against_direct_convolution(tmp_path, capsys):
    # the dense oracle stops at small N, where no gain streams; one more
    # line per order runs the symmetrized CP gain where it streams its
    # rows, against a chain of np.convolve
    config_path = write_config(
        tmp_path,
        N=16,
        D=3,
        kernels={
            "2": {"type": "constant", "D": 2, "c": 0.7},
            "3": {"type": "brownian", "mu": [1 / 3, -1 / 3, 0.0]},
        },
    )
    assert cli.main(["verify", "--config", config_path, "--seed", "6"]) == 0
    out = capsys.readouterr().out
    for d in (2, 3):
        size = cli._check_size(d, "streamed FFT")
        line = f"order {d}, symmetrized CP streamed at N = {size}: max relative error P = "
        assert line in out
        # a rank-1 gain streams there, through its split, and the line says so
        line = next(x for x in out.splitlines() if x.startswith(line))
        assert line.endswith("(gain: streamed FFT)")
        kernel = constant_symmetrized_cp(1.0, d, size)
        assert ttagg.rhs.gain_path(kernel, ConcentrationState(np.ones(size))) == "streamed FFT"
        assert ttagg.rhs.split_lengths(d, size)[0] == (1 if d == 2 else 3)
    sizes = [cli._check_size(d, "streamed FFT") for d in (2, 3, 4, 5)]
    assert sizes == [9216, 8192, 8192, 8192]
    assert "verify: PASS" in out


def test_verify_fails_on_a_wrong_streamed_gain(tmp_path, monkeypatch, capsys):
    # a fault confined to the streamed gain is invisible to the dense
    # lines, which run direct and batched gains; the streamed line fails
    config_path = write_config(
        tmp_path,
        N=16,
        D=3,
        kernels={"3": {"type": "brownian", "mu": [1 / 3, -1 / 3, 0.0]}},
    )
    original = ttagg.rhs._fold_class

    def skewed(*args):
        folded = original(*args)
        folded *= 1.0 + 1e-6
        return folded

    monkeypatch.setattr(ttagg.rhs, "_fold_class", skewed)
    assert cli.main(["verify", "--config", config_path]) == 2
    out = capsys.readouterr().out
    errors = {
        line.split(":")[0]: float(line.split("P = ")[1].split()[0].rstrip(","))
        for line in out.splitlines()
        if line.startswith("order 3")
    }
    assert errors["order 3, symmetrized CP"] <= cli.VERIFY_TOL
    assert errors["order 3, constructive TT"] <= cli.VERIFY_TOL
    assert errors["order 3, symmetrized CP streamed at N = 8192"] > cli.VERIFY_TOL
    assert "verify: FAIL" in out


def test_verify_checks_a_batched_gain_and_names_each_path(tmp_path, capsys):
    # at N = 16 the symmetrized CP gains convolve directly and the TT
    # gains transform; one more line per order runs a batched FFT gain,
    # at the smallest N where a rank-1 gain is above the direct bound
    config_path = write_config(
        tmp_path,
        N=16,
        D=3,
        kernels={
            "2": {"type": "constant", "D": 2, "c": 0.7},
            "3": {"type": "brownian", "mu": [1 / 3, -1 / 3, 0.0]},
        },
    )
    assert cli.main(["verify", "--config", config_path, "--seed", "6"]) == 0
    out = capsys.readouterr().out
    for d in (2, 3):
        assert f"order {d}, symmetrized CP: max relative error" in out
        line = next(x for x in out.splitlines() if x.startswith(f"order {d}, symmetrized CP:"))
        assert line.endswith("(gain: direct)")
        line = next(x for x in out.splitlines() if x.startswith(f"order {d}, constructive TT:"))
        assert line.endswith("(gain: batched FFT)")
        size = cli._check_size(d, "batched FFT")
        line = f"order {d}, symmetrized CP batched at N = {size}: max relative error P = "
        line = next(x for x in out.splitlines() if x.startswith(line))
        assert line.endswith("(gain: batched FFT)")
        kernel = constant_symmetrized_cp(1.0, d, size)
        assert ttagg.rhs.gain_path(kernel, ConcentrationState(np.ones(size))) == "batched FFT"
        full = ConcentrationState(np.ones(size - 1))
        assert ttagg.rhs.gain_path(kernel, full) == "direct"
    assert [cli._check_size(d, "batched FFT") for d in (2, 3, 4, 5)] == [236, 131, 89, 65]
    assert "verify: PASS" in out


def _verify_errors(out, order):
    # the P error of every verify line of one order, by the line's name
    return {
        line.split(":")[0]: float(line.split("P = ")[1].split()[0].rstrip(","))
        for line in out.splitlines()
        if line.startswith(f"order {order}")
    }


def test_verify_fails_on_a_wrong_batched_gain(tmp_path, monkeypatch, capsys):
    # at N = 16 no CP gain transforms in one call, so only the batched line
    # sees a fault in the batched fold
    config_path = write_config(
        tmp_path,
        N=16,
        D=3,
        kernels={"3": {"type": "brownian", "mu": [1 / 3, -1 / 3, 0.0]}},
    )
    original = ttagg.rhs._cp_fold

    def skewed(*args):
        folded = original(*args)
        folded *= 1.0 + 1e-6
        return folded

    monkeypatch.setattr(ttagg.rhs, "_cp_fold", skewed)
    assert cli.main(["verify", "--config", config_path]) == 2
    out = capsys.readouterr().out
    errors = _verify_errors(out, 3)
    assert errors["order 3, symmetrized CP"] <= cli.VERIFY_TOL
    assert errors["order 3, constructive TT"] <= cli.VERIFY_TOL
    assert errors["order 3, symmetrized CP batched at N = 131"] > cli.VERIFY_TOL
    assert errors["order 3, symmetrized CP streamed at N = 8192"] <= cli.VERIFY_TOL
    assert "verify: FAIL" in out


def test_verify_fails_on_a_wrong_direct_gain(tmp_path, monkeypatch, capsys):
    # the direct convolution is both the small gains' path and the
    # transformed gains' reference: the dense line sees a fault in it
    config_path = write_config(
        tmp_path,
        N=16,
        D=3,
        kernels={"3": {"type": "brownian", "mu": [1 / 3, -1 / 3, 0.0]}},
    )
    original = ttagg.rhs._convolve_rows

    def skewed(fibers, head, order, scale, out):
        original(fibers, head, order, scale, out)
        out *= 1.0 + 1e-6

    monkeypatch.setattr(ttagg.rhs, "_convolve_rows", skewed)
    assert cli.main(["verify", "--config", config_path]) == 2
    out = capsys.readouterr().out
    errors = _verify_errors(out, 3)
    assert errors["order 3, symmetrized CP"] > cli.VERIFY_TOL
    assert errors["order 3, constructive TT"] <= cli.VERIFY_TOL
    assert "verify: FAIL" in out


def test_verify_checks_a_lattice_gain_per_order(tmp_path, monkeypatch, capsys):
    # each order's lattice line runs a gain that transforms its compressed
    # rows; a lattice lookup that drops the smallest size of a lattice
    # leaves the full-support lines as they are and fails every lattice line
    config_path = write_config(
        tmp_path,
        N=16,
        D=4,
        kernels={
            "2": {"type": "constant", "D": 2, "c": 0.7},
            "3": {"type": "brownian", "mu": [1 / 3, -1 / 3, 0.0]},
            "4": {"type": "brownian", "mu": [0.5, -0.5, 0.25, 0.0]},
        },
    )
    assert cli.main(["verify", "--config", config_path]) == 0
    passed = capsys.readouterr().out
    lines = {}
    for d in (2, 3, 4):
        stride, count = max(2, d - 1), cli._check_size(d, "batched FFT")
        occupied = 1 + stride * (count - 1)
        size = d * occupied
        lines[d] = f"order {d}, symmetrized CP on sizes 1 + {stride}j at N = {size}"
        values = np.zeros(size)
        values[:occupied:stride] = 1.0
        kernel = constant_symmetrized_cp(1.0, d, size)
        assert ttagg.rhs.gain_path(kernel, ConcentrationState(values)) == "batched FFT"
        line = next(x for x in passed.splitlines() if x.startswith(f"{lines[d]}: "))
        assert line.endswith("(gain: batched FFT)")
    original = ttagg.rhs._size_lattice

    def skewed(n, occupied):
        first, stride = original(n, occupied)
        return (first + stride, stride) if stride > 1 else (first, stride)

    monkeypatch.setattr(ttagg.rhs, "_size_lattice", skewed)
    assert cli.main(["verify", "--config", config_path]) == 2
    failed = capsys.readouterr().out
    for d in (2, 3, 4):
        for out, bad in ((passed, False), (failed, True)):
            errors = _verify_errors(out, d)
            assert (errors.pop(lines[d]) > cli.VERIFY_TOL) == bad
            assert max(errors.values()) <= cli.VERIFY_TOL
    assert "verify: PASS" in passed and "verify: FAIL" in failed


def test_verify_pair_kernel_passes(tmp_path):
    config_path = write_config(
        tmp_path,
        N=32,
        D=2,
        kernels={"2": {"type": "brownian", "mu": [0.25, -0.25]}},
    )
    assert cli.main(["verify", "--config", config_path]) == 0


def test_verify_detects_corrupted_cores(tmp_path, monkeypatch, capsys):
    # N above the constructor's sampling threshold, so the corruption is
    # caught by the oracle comparison itself
    config_path = write_config(
        tmp_path,
        N=128,
        D=3,
        kernels={"3": {"type": "brownian", "mu": [1 / 3, -1 / 3, 0.0]}},
    )
    original = cli.build_kernel_set

    def corrupt(config):
        kernels = original(config)
        factors = [f.copy() for f in kernels[3].factors]
        factors[1][0, 0] += 0.37
        return KernelSet({3: SymmetrizedCPKernel(tuple(factors))})

    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_kernel_set", corrupt)
        assert cli.main(["verify", "--config", config_path]) == 2
    assert "FAIL" in capsys.readouterr().out

    # the constructive TT is checked too, though the run time does not use it
    original_tt = cli.build_brownian_tt

    def corrupt_tt(spec, n_classes):
        cores = [c.copy() for c in original_tt(spec, n_classes).cores]
        cores[1][0, 0, 0] += 0.37
        return TTKernel(tuple(cores))

    monkeypatch.setattr(cli, "build_brownian_tt", corrupt_tt)
    assert cli.main(["verify", "--config", config_path]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "order 3, symmetrized CP:" in out and "order 3, constructive TT:" in out

    # a NaN is an error of inf, not one that the running maximum drops
    def nan_tt(spec, n_classes):
        cores = [c.copy() for c in original_tt(spec, n_classes).cores]
        cores[1][0, 0, 0] = np.nan
        return TTKernel(tuple(cores))

    monkeypatch.setattr(cli, "build_brownian_tt", nan_tt)
    assert cli.main(["verify", "--config", config_path]) == 2
    out = capsys.readouterr().out
    assert "constructive TT: max relative error P = inf, Q = inf" in out
    assert "verify: FAIL" in out


def test_simulate_with_oracle_gate(tmp_path, capsys):
    config_path = write_config(
        tmp_path,
        N=16,
        D=3,
        kernels={"3": {"type": "brownian", "mu": [1 / 3, -1 / 3, 0.0]}},
        verify_oracle=True,
    )
    assert cli.main(["simulate", "--config", config_path]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "simulate:" in out


def test_verify_refuses_a_wrong_length_initial_vector(tmp_path, capsys):
    # 3 values for N = 8: the run could not start, so no PASS either
    config_path = write_config(
        tmp_path, N=8, initial={"kind": "vector", "values": [0.5, 0.25, 0.125]}
    )
    assert cli.main(["verify", "--config", config_path]) == 1
    out, err = capsys.readouterr()
    assert "PASS" not in out
    assert "3 values, N = 8" in err


def test_verify_budget_guard(tmp_path, capsys):
    config_path = write_config(
        tmp_path,
        N=1024,
        D=3,
        kernels={"3": {"type": "brownian", "mu": [1 / 3, -1 / 3, 0.0]}},
    )
    assert cli.main(["verify", "--config", config_path]) == 1
    assert "reduce N" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_writes_report_and_table(tmp_path, capsys):
    config_path = write_config(
        tmp_path,
        N=128,
        D=3,
        kernels={"3": {"type": "brownian", "mu": [1 / 3, -1 / 3, 0.0]}},
        time={"t0": 0.0, "dt": 1e-3, "steps": 2},
        record_every=2,
    )
    assert cli.main(["bench", "--config", config_path, "--workers", "1,2,4"]) == 0
    out = capsys.readouterr().out
    assert "workers" in out and "speedup" in out

    report = json.loads((tmp_path / "out" / "bench_report.json").read_text())
    assert report["worker_counts"] == [1, 2, 4]
    assert report["speedups"][0] == pytest.approx(1.0)
    assert len(report["times_sec"]) == 3
    assert report["N"] == 128 and report["D"] == 3 and report["steps"] == 2


def test_bench_rejects_bad_worker_list(tmp_path, capsys):
    config_path = write_config(tmp_path)
    assert cli.main(["bench", "--config", config_path, "--workers", "1,x"]) == 1
    assert "worker list" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv", [["simulate"], ["frobnicate"], []], ids=["no-config", "unknown", "empty"]
)
def test_malformed_command_line_is_a_validation_error(argv, capsys):
    # argparse's own exit code, 2, is the numerical-failure code here
    assert cli.main(argv) == 1
    assert "usage:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------

def run_child(*args):
    # the child imports the same package as this process, however it was found
    src = os.path.dirname(os.path.dirname(ttagg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point_runs(tmp_path):
    config_path = write_config(tmp_path)
    result = run_child("-m", "ttagg", "simulate", "--config", config_path)
    assert result.returncode == 0
    assert "simulate:" in result.stdout


def test_import_and_integrate_load_no_scipy(tmp_path):
    # scipy's version goes into a run manifest only, so importing the
    # package and its CLI and integrating through the library load no
    # scipy module at all
    config_path = write_config(
        tmp_path,
        N=16,
        D=3,
        kernels={"3": {"type": "brownian", "mu": [1 / 3, -1 / 3, 0.0]}},
    )
    script = (
        "import json, sys\n"
        "import ttagg, ttagg.cli\n"
        f"state, series = ttagg.integrate(ttagg.load_config({config_path!r}))\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "print(json.dumps([len(series.rows()), sorted(loaded)]))\n"
    )
    result = run_child("-c", script)
    assert result.returncode == 0, result.stderr
    records, loaded = json.loads(result.stdout.strip().splitlines()[-1])
    assert records > 1
    assert loaded == []


def test_import_and_simulate_load_no_scipy_fft(tmp_path):
    # scipy.fft alone takes about 25 MB of resident memory; the package
    # computes its transform lengths itself and runs numpy.fft.  The test
    # process may have imported scipy.fft (the length parity test does), so
    # a fresh one is checked.
    config_path = write_config(
        tmp_path,
        N=16,
        D=3,
        kernels={"3": {"type": "brownian", "mu": [1 / 3, -1 / 3, 0.0]}},
    )
    script = (
        "import json, sys\n"
        "import ttagg, ttagg.cli\n"
        f"code = ttagg.cli.main(['simulate', '--config', {config_path!r}])\n"
        "loaded = [m for m in sys.modules\n"
        "          if m == 'scipy.fft' or m.startswith('scipy.fft.')]\n"
        "print(json.dumps([code, sorted(loaded)]))\n"
    )
    result = run_child("-c", script)
    assert result.returncode == 0, result.stderr
    assert "simulate:" in result.stdout
    code, loaded = json.loads(result.stdout.strip().splitlines()[-1])
    assert code == 0
    assert loaded == []
    assert (tmp_path / "out" / "moments.csv").exists()

