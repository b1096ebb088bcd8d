"""Config parsing: sections, presets, custom problems, velocity kinds."""

import math

import numpy as np
import pytest

from stcontrol import config, problem
from stcontrol.errors import ConfigError, GeometryError

CUSTOM = """\
[problem]
x_min = 0.0
x_max = 2.0
t_final = 1.0
kappa1 = 0.5   # band diffusivity
kappa2 = 1.0
eta = 1e-4
offset_a = 0.6
offset_b = 1.2
velocity = zero
desired = zero

[discretization]
layers = 12
adjoint_space = U

[metrics]
spacetime_gradient = false
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_config_roundtrip(tmp_path):
    parser = config.load_config(write(tmp_path, CUSTOM))
    sec = parser["problem"]
    assert sec.getfloat("kappa1") == 0.5  # inline comment stripped
    assert parser["discretization"].getint("layers") == 12
    spec = config._problem_from_section(sec)
    assert spec.x_max == 2.0
    assert spec.name == "custom"
    assert spec.exact_state is None
    ud = problem.desired_state_function(spec)
    assert np.all(ud(np.linspace(0, 2, 9), 0.5) == 0.0)


def test_unknown_section_rejected(tmp_path):
    path = write(tmp_path, "[mesher]\nlayers = 3\n")
    with pytest.raises(ConfigError, match="section"):
        config.load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = write(tmp_path, "[problem]\npreset = example1-static\ncolor = red\n")
    with pytest.raises(ConfigError, match="color"):
        config.load_config(path)


def test_malformed_file_rejected(tmp_path):
    path = write(tmp_path, "layers without a section header\n")
    with pytest.raises(ConfigError, match="malformed"):
        config.load_config(path)


def test_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        config.load_config(tmp_path / "nope.cfg")


def test_preset_section(tmp_path):
    path = write(tmp_path, "[problem]\npreset = example1-moving\n")
    spec = config.problem_from_source(("config", path))
    assert spec.name == "example1-moving"
    assert spec.velocity.name == "sine"


def test_preset_exclusive_with_custom_keys(tmp_path):
    path = write(tmp_path, "[problem]\npreset = example1-static\nkappa1 = 2.0\n")
    parser = config.load_config(path)
    with pytest.raises(ConfigError, match="preset"):
        config._problem_from_section(parser["problem"])


def test_unknown_preset(tmp_path):
    path = write(tmp_path, "[problem]\npreset = example9\n")
    parser = config.load_config(path)
    with pytest.raises(ConfigError, match="example9"):
        config._problem_from_section(parser["problem"])


def test_missing_required_keys(tmp_path):
    path = write(tmp_path, "[problem]\nx_min = 0\nx_max = 1\n")
    parser = config.load_config(path)
    with pytest.raises(ConfigError, match="missing"):
        config._problem_from_section(parser["problem"])


def test_bad_float_value(tmp_path):
    text = CUSTOM.replace("kappa1 = 0.5   # band diffusivity", "kappa1 = soft")
    parser = config.load_config(write(tmp_path, text))
    with pytest.raises(ConfigError, match="numeric"):
        config._problem_from_section(parser["problem"])


def test_geometry_error_propagates(tmp_path):
    text = CUSTOM.replace("offset_a = 0.6", "offset_a = 1.4")
    parser = config.load_config(write(tmp_path, text))
    with pytest.raises(GeometryError):
        config._problem_from_section(parser["problem"])


def test_sine_velocity_parameters(tmp_path):
    text = CUSTOM.replace(
        "velocity = zero",
        "velocity = sine\nvelocity_amplitude = 0.2\nvelocity_frequency = 2.0",
    )
    spec = config._problem_from_section(config.load_config(write(tmp_path, text))["problem"])
    t = 0.0625
    want = 0.2 * math.sin(2.0 * math.pi * 2.0 * t)
    assert float(spec.velocity.fn(t)) == pytest.approx(want, rel=1e-15)


def test_tabulated_velocity(tmp_path):
    text = CUSTOM.replace(
        "velocity = zero",
        "velocity = tabulated\n"
        "velocity_times = 0.0, 0.25, 0.5, 0.75, 1.0\n"
        "velocity_values = 0.0, 0.1, 0.0, -0.1, 0.0",
    )
    spec = config._problem_from_section(config.load_config(write(tmp_path, text))["problem"])
    assert spec.velocity.name == "tabulated"
    assert float(spec.velocity.fn(0.25)) == pytest.approx(0.1, abs=1e-12)


def test_tabulated_velocity_needs_samples(tmp_path):
    text = CUSTOM.replace("velocity = zero", "velocity = tabulated")
    parser = config.load_config(write(tmp_path, text))
    with pytest.raises(ConfigError, match="velocity_times"):
        config._problem_from_section(parser["problem"])


@pytest.mark.parametrize("times, values", [
    ("0.0, 0.5, 1.0", "0.0, 0.1"),
    ("0.0, 0.5, 0.5, 1.0", "0.0, 0.1, 0.0, -0.1"),
    ("0.0", "0.1"),
], ids=["lengths-differ", "times-not-increasing", "one-sample"])
def test_bad_tabulated_samples_are_config_errors(tmp_path, times, values):
    text = CUSTOM.replace("velocity = zero", "velocity = tabulated\n"
                          f"velocity_times = {times}\nvelocity_values = {values}")
    parser = config.load_config(write(tmp_path, text))
    with pytest.raises(ConfigError, match="velocity_times/velocity_values"):
        config._problem_from_section(parser["problem"])


def test_unknown_velocity_kind(tmp_path):
    text = CUSTOM.replace("velocity = zero", "velocity = warp")
    parser = config.load_config(write(tmp_path, text))
    with pytest.raises(ConfigError, match="warp"):
        config._problem_from_section(parser["problem"])


def test_derived_desired_requires_exact(tmp_path):
    text = CUSTOM.replace("desired = zero", "desired = derived")
    parser = config.load_config(write(tmp_path, text))
    with pytest.raises(ConfigError, match="derived"):
        config._problem_from_section(parser["problem"])


def test_zero_exact_fields_give_zero_desired(tmp_path):
    text = CUSTOM.replace("desired = zero", "desired = derived\nexact = zero")
    spec = config._problem_from_section(config.load_config(write(tmp_path, text))["problem"])
    assert spec.exact_state is not None
    ud = problem.desired_state_function(spec)
    xs = np.linspace(0.05, 1.95, 7)
    assert np.all(np.asarray(ud(xs, 0.3)) == 0.0)


def test_unknown_desired_kind(tmp_path):
    text = CUSTOM.replace("desired = zero", "desired = tracking")
    parser = config.load_config(write(tmp_path, text))
    with pytest.raises(ConfigError, match="tracking"):
        config._problem_from_section(parser["problem"])


def test_unknown_exact_kind(tmp_path):
    text = CUSTOM.replace("desired = zero", "desired = zero\nexact = sinusoid")
    parser = config.load_config(write(tmp_path, text))
    with pytest.raises(ConfigError, match="sinusoid"):
        config._problem_from_section(parser["problem"])


def test_problem_from_source_kinds(tmp_path):
    spec = config.problem_from_source(("preset", "example1-static"))
    assert spec.name == "example1-static"
    with pytest.raises(ConfigError):
        config.problem_from_source(("preset", "example1-warped"))
    path = write(tmp_path, "[discretization]\nlayers = 8\n")
    with pytest.raises(ConfigError, match="problem"):
        config.problem_from_source(("config", path))
    with pytest.raises(ValueError):
        config.problem_from_source(("inline", "x"))
