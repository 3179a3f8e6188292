"""Configuration parsing, kernel-spec serialization, and kernel assembly."""

import json

import numpy as np
import pytest

from ttagg.config import (
    ConfigError,
    SimulationConfig,
    build_kernel_set,
    config_from_dict,
    config_to_dict,
    kernel_spec_from_dict,
    kernel_spec_to_dict,
    load_config,
)
from ttagg.integrator import InitialCondition, TimeGrid
from ttagg.kernels import (
    BrownianSpec,
    ConstantSpec,
    DenseKernel,
    SymmetrizedCPKernel,
    TableSpec,
    TTKernel,
    build_brownian_tt,
)


def minimal_dict(**overrides):
    data = {
        "N": 16,
        "D": 3,
        "kernels": {"3": {"type": "brownian", "mu": [1 / 3, -1 / 3, 0.0]}},
        "time": {"t0": 0.0, "dt": 1e-3, "steps": 10},
    }
    data.update(overrides)
    return data


def test_kernel_spec_dict_round_trips():
    specs = [
        BrownianSpec((0.5, -0.5, 0.0)),
        ConstantSpec(2.0, 4),
        TableSpec("kernel.bin", 2),
    ]
    for spec in specs:
        assert kernel_spec_from_dict(kernel_spec_to_dict(spec)) == spec


def test_kernel_spec_dict_errors():
    with pytest.raises(ConfigError, match="type"):
        kernel_spec_from_dict({})
    with pytest.raises(ConfigError, match="mu"):
        kernel_spec_from_dict({"type": "brownian"})
    with pytest.raises(ConfigError, match="'c'"):
        kernel_spec_from_dict({"type": "constant", "D": 2})
    with pytest.raises(ConfigError, match="table_path"):
        kernel_spec_from_dict({"type": "table", "D": 2})
    with pytest.raises(ConfigError, match="unknown kernel type"):
        kernel_spec_from_dict({"type": "ballistic", "D": 2})
    with pytest.raises(ConfigError, match="'D'"):
        kernel_spec_from_dict({"type": "constant", "c": 1.0})
    with pytest.raises(ConfigError, match="exponents"):
        kernel_spec_from_dict({"type": "brownian", "mu": [1.0, 0.0], "D": 3})


def test_config_dict_round_trip():
    config = config_from_dict(minimal_dict(record_every=5, workers=2, seed=11))
    again = config_from_dict(config_to_dict(config))
    assert again == config
    assert again.kernel_specs[3] == BrownianSpec((1 / 3, -1 / 3, 0.0))
    assert again.time == TimeGrid(0.0, 1e-3, 10)


def test_config_validation():
    with pytest.raises(ConfigError, match="missing 'N'"):
        config_from_dict({"D": 3, "kernels": {}, "time": {"dt": 1, "steps": 1}})
    with pytest.raises(ConfigError, match="outside"):
        config_from_dict(
            minimal_dict(kernels={"4": {"type": "constant", "D": 4, "c": 1.0}})
        )
    with pytest.raises(ConfigError, match="steps"):
        config_from_dict(minimal_dict(time={"dt": 1e-3, "steps": 0}))
    with pytest.raises(ConfigError, match="kernels"):
        config_from_dict(minimal_dict(kernels={}))
    with pytest.raises(ConfigError, match="initial"):
        config_from_dict(minimal_dict(initial={"kind": "vector"}))


def test_unknown_top_level_key_is_refused():
    # a misspelled key would leave its field at the default
    for key in ("foo", "record_evry", "worker"):
        message = f"configuration has unknown key '{key}'; accepted: N, D,"
        with pytest.raises(ConfigError, match=message):
            config_from_dict(minimal_dict(**{key: 1}))
    with pytest.raises(ConfigError, match="unknown keys 'a', 'b'"):
        config_from_dict(minimal_dict(a=1, b=2))
    # every key a run manifest writes is accepted
    config_from_dict(
        minimal_dict(fft_length_policy="fast", output_dir="o", seed=3, verify_oracle=False)
    )


def test_unknown_time_key_is_refused():
    message = "'time' has unknown key 'step'; accepted: t0, dt, steps"
    with pytest.raises(ConfigError, match=message):
        config_from_dict(minimal_dict(time={"dt": 1e-3, "steps": 10, "step": 5}))


def test_unknown_initial_key_is_refused():
    # `values` without a vector kind would otherwise run monodisperse
    message = "monodisperse initial condition has unknown key 'values'; accepted: kind, c0"
    with pytest.raises(ConfigError, match=message):
        config_from_dict(minimal_dict(initial={"values": [1.0] * 16}))
    message = "vector initial condition has unknown key 'c0'; accepted: kind, values"
    vector = {"kind": "vector", "values": [1.0] * 16, "c0": 1.0}
    with pytest.raises(ConfigError, match=message):
        config_from_dict(minimal_dict(initial=vector))
    with pytest.raises(ConfigError, match="unknown initial condition kind"):
        config_from_dict(minimal_dict(initial={"kind": ["vector"]}))


def test_unknown_kernel_key_is_refused():
    cases = {
        "brownian": ({"mu": [1 / 3, -1 / 3, 0.0], "c": 1.0}, "c", "type, D, mu"),
        "constant": ({"D": 3, "c": 1.0, "mu": [0.0]}, "mu", "type, D, c"),
        "table": ({"D": 3, "table_path": "k.bin", "path": "k"}, "path", "type, D, table_path"),
    }
    for kind, (fields, key, accepted) in cases.items():
        message = f"{kind} kernel specification has unknown key '{key}'; accepted: {accepted}"
        with pytest.raises(ConfigError, match=message):
            config_from_dict(minimal_dict(kernels={"3": {"type": kind, **fields}}))
    with pytest.raises(ConfigError, match="unknown kernel type"):
        kernel_spec_from_dict({"type": ["brownian"], "D": 2})


def test_vector_initial_condition_must_have_n_values():
    for values in ([0.5, 0.25, 0.125], [0.1] * 17):
        with pytest.raises(ConfigError, match=f"{len(values)} values, N = 16"):
            config_from_dict(
                minimal_dict(initial={"kind": "vector", "values": values})
            )
    with pytest.raises(ConfigError, match="3 values, N = 8"):
        SimulationConfig(
            n_classes=8,
            dimension=3,
            kernel_specs={3: BrownianSpec((1 / 3, -1 / 3, 0.0))},
            initial=InitialCondition.from_vector([0.5, 0.25, 0.125]),
            time=TimeGrid(0.0, 1e-3, 10),
        )


def test_fft_length_policy_default_and_validation():
    assert config_from_dict(minimal_dict()).fft_length_policy == "fast"
    for policy in ("min", "pow2"):
        with pytest.raises(ConfigError, match=f"'{policy}'.*'fast'"):
            config_from_dict(minimal_dict(fft_length_policy=policy))
    with pytest.raises(ConfigError, match="'fast'"):
        SimulationConfig(
            n_classes=16,
            dimension=3,
            kernel_specs={3: BrownianSpec((1 / 3, -1 / 3, 0.0))},
            initial=InitialCondition.monodisperse(1.0),
            time=TimeGrid(0.0, 1e-3, 10),
            fft_length_policy="POW2",
        )


def test_vector_initial_condition_round_trip():
    values = [0.5, 0.25, 0.0, 0.0]
    config = config_from_dict(
        minimal_dict(
            N=4,
            D=2,
            kernels={"2": {"type": "constant", "D": 2, "c": 1.0}},
            initial={"kind": "vector", "values": values},
        )
    )
    assert config.initial.kind == "vector"
    again = config_from_dict(config_to_dict(config))
    np.testing.assert_array_equal(again.initial.values, values)
    assert again == config
    # the manifest writes the values back as the same JSON numbers
    written = config_to_dict(again)["initial"]["values"]
    assert written == values and all(type(v) is float for v in written)
    assert json.dumps(config_to_dict(again)) == json.dumps(config_to_dict(config))


def test_load_config_and_manifest_unwrap(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(minimal_dict()))
    config = load_config(str(path))
    assert config.n_classes == 16

    manifest = tmp_path / "run_manifest.json"
    manifest.write_text(json.dumps({"config": minimal_dict(), "versions": {}}))
    assert load_config(str(manifest)) == config

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(str(broken))

    with pytest.raises(FileNotFoundError):
        load_config(str(tmp_path / "missing.json"))


def test_build_kernel_set_representations(tmp_path):
    rng = np.random.default_rng(2)
    table = rng.random((8, 8))
    table = table + table.T  # loss path needs symmetric coefficients
    table_path = tmp_path / "pair.bin"
    table.astype("<f8").ravel().tofile(table_path)

    config = SimulationConfig(
        n_classes=8,
        dimension=4,
        kernel_specs={
            2: TableSpec(str(table_path), 2),
            3: BrownianSpec((1 / 3, -1 / 3, 0.0)),
            4: ConstantSpec(1.5, 4),
        },
        initial=InitialCondition.monodisperse(1.0),
        time=TimeGrid(0.0, 1e-3, 1),
    )
    kernels = build_kernel_set(config)
    assert isinstance(kernels[2], DenseKernel)
    np.testing.assert_array_equal(kernels[2].values, table)
    # Brownian kernels run on the rank-1 symmetrized CP form ...
    assert isinstance(kernels[3], SymmetrizedCPKernel)
    assert kernels[3].rank == 1
    sizes = np.arange(1, 9, dtype=np.float64)
    for factor, mu in zip(kernels[3].factors, (1 / 3, -1 / 3, 0.0)):
        np.testing.assert_allclose(factor[:, 0], sizes**mu, rtol=1e-15)
    # ... and so do constant ones, with factors c/4!, 1, 1, 1
    assert isinstance(kernels[4], SymmetrizedCPKernel)
    assert kernels[4].rank == 1
    np.testing.assert_array_equal(kernels[4].factors[0][:, 0], np.full(8, 1.5 / 24))
    for factor in kernels[4].factors[1:]:
        np.testing.assert_array_equal(factor, np.ones((8, 1)))
    # ... while the constructive TT keeps its binomial ranks
    tt = build_brownian_tt(BrownianSpec((1 / 3, -1 / 3, 0.0)), 8)
    assert isinstance(tt, TTKernel)
    assert tt.ranks == (1, 3, 3, 1)
