"""Run configuration.

Config files are line-oriented ``key = value`` pairs under ``[section]``
headers with ``#`` comments (configparser dialect).  Sections and keys:

[problem]
    preset = example1-static | example1-moving
  or a custom problem:
    x_min, x_max, t_final, kappa1, kappa2, eta, offset_a, offset_b
    velocity = zero | sine | tabulated
    velocity_amplitude, velocity_frequency        (sine)
    velocity_times, velocity_values               (tabulated, comma lists)
    desired = zero | derived
    exact = zero | none

[discretization]
    layers, adjoint_space (U|W), quad_subdiv, rho_max

[metrics]
    spacetime_gradient (bool), reference_layers

Command-line flags override config values.
"""

from __future__ import annotations

import configparser
import dataclasses

import numpy as np

from . import problem
from .errors import ConfigError

__all__ = ["PRESETS", "RunConfig", "load_config", "problem_from_source"]

PRESETS = {
    "example1-static": problem.example1_static,
    "example1-moving": problem.example1_moving,
}

_ALLOWED = {
    "problem": {
        "preset", "x_min", "x_max", "t_final", "kappa1", "kappa2", "eta",
        "offset_a", "offset_b", "velocity", "velocity_amplitude",
        "velocity_frequency", "velocity_times", "velocity_values",
        "desired", "exact",
    },
    "discretization": {"layers", "adjoint_space", "quad_subdiv", "rho_max"},
    "metrics": {"spacetime_gradient", "reference_layers"},
}


@dataclasses.dataclass
class RunConfig:
    """Everything one run needs: the problem plus discretization knobs.

    ``source`` records how to rebuild the problem in a worker process:
    ("preset", name) or ("config", path)."""

    spec: problem.ProblemSpec
    source: tuple
    layers: int = 30
    layer_list: list | None = None
    adjoint_space: str = "U"
    quad_subdiv: int = 1
    rho_max: float = 8.0
    spacetime_gradient: bool = False
    reference_layers: int | None = None


def load_config(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as f:
            parser.read_file(f, source=str(path))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    for section in parser.sections():
        if section not in _ALLOWED:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _ALLOWED[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    return parser


def _float_list(text):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated floats, got {text!r}") from exc


def _velocity_from_config(sec) -> problem.Velocity:
    kind = sec.get("velocity", "zero")
    if kind == "zero":
        return problem.velocity_zero()
    if kind == "sine":
        try:
            amplitude = sec.getfloat("velocity_amplitude", 0.1 * np.pi)
            frequency = sec.getfloat("velocity_frequency", 1.0)
        except ValueError as exc:
            raise ConfigError(f"bad sine velocity parameter: {exc}") from exc
        return problem.velocity_sine(amplitude=amplitude, frequency=frequency)
    if kind == "tabulated":
        if "velocity_times" not in sec or "velocity_values" not in sec:
            raise ConfigError("tabulated velocity needs velocity_times and velocity_values")
        times, values = _float_list(sec["velocity_times"]), _float_list(sec["velocity_values"])
        try:
            return problem.velocity_tabulated(times, values)
        except ValueError as exc:
            raise ConfigError(f"bad velocity_times/velocity_values samples: {exc}") from exc
    raise ConfigError(f"unknown velocity kind {kind!r}")


def _problem_from_section(sec) -> problem.ProblemSpec:
    if "preset" in sec:
        name = sec["preset"]
        extra = set(sec.keys()) - {"preset"}
        if extra:
            raise ConfigError(
                f"preset cannot be combined with custom problem keys {sorted(extra)}"
            )
        if name not in PRESETS:
            raise ConfigError(f"unknown preset {name!r}")
        return PRESETS[name]()

    required = ("x_min", "x_max", "t_final", "kappa1", "kappa2", "eta",
                "offset_a", "offset_b")
    missing = [k for k in required if k not in sec]
    if missing:
        raise ConfigError(f"custom problem missing keys {missing}")

    exact_kind = sec.get("exact", "none")
    if exact_kind == "zero":
        exact_state = exact_adjoint = problem.PiecewiseField(amplitude=0.0)
    elif exact_kind == "none":
        exact_state = None
        exact_adjoint = None
    else:
        raise ConfigError(f"unknown exact field kind {exact_kind!r}")

    desired_kind = sec.get("desired", "derived")
    if desired_kind == "zero":
        def desired(x, t):
            return np.zeros_like(np.asarray(x, dtype=float))
    elif desired_kind == "derived":
        desired = None
        if exact_state is None:
            raise ConfigError("desired = derived requires exact fields")
    else:
        raise ConfigError(f"unknown desired state kind {desired_kind!r}")

    try:
        values = {k: sec.getfloat(k) for k in required}
    except ValueError as exc:
        raise ConfigError(f"bad numeric value in [problem]: {exc}") from exc

    # GeometryError from ProblemSpec validation propagates (exit code 2).
    return problem.ProblemSpec(
        x_min=values["x_min"],
        x_max=values["x_max"],
        t_final=values["t_final"],
        kappa1=values["kappa1"],
        kappa2=values["kappa2"],
        eta=values["eta"],
        velocity=_velocity_from_config(sec),
        offset_a=values["offset_a"],
        offset_b=values["offset_b"],
        desired_state=desired,
        exact_state=exact_state,
        exact_adjoint=exact_adjoint,
        name="custom",
    )


def problem_from_source(source) -> problem.ProblemSpec:
    """Rebuild a ProblemSpec from its picklable description."""
    kind, value = source
    if kind == "preset":
        if value not in PRESETS:
            raise ConfigError(f"unknown preset {value!r}")
        return PRESETS[value]()
    if kind == "config":
        parser = load_config(value)
        if not parser.has_section("problem"):
            raise ConfigError(f"config {value} has no [problem] section")
        return _problem_from_section(parser["problem"])
    raise ValueError(f"unknown problem source {source!r}")
