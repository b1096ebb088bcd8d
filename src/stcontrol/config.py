"""Run configuration: ``load_config`` reads a ``--config`` file once, and
``run_config`` builds the ``RunConfig``, checking each value where it reads
it: a bad one is a ConfigError that names its key.

Config files are line-oriented ``key = value`` pairs under ``[section]``
headers with ``#`` comments (configparser dialect, no interpolation).
Sections and keys:

[problem]
    preset = example1-static | example1-moving
  or a custom problem:
    x_min, x_max, t_final, kappa1, kappa2, eta, offset_a, offset_b
    velocity = zero | sine | tabulated
    velocity_amplitude, velocity_frequency        (sine)
    velocity_times, velocity_values               (tabulated, comma lists;
                                                   times cover [0, t_final])
    desired = zero | derived
    exact = zero | none

[discretization]
    layers (distinct counts >= 2), adjoint_space (U|W),
    quad_subdiv (0 to fem.MAX_QUAD_SUBDIV), rho_max (finite, > 0)

[metrics]
    spacetime_gradient (bool), reference_layers

Command-line flags override config values; the readers ``layer_counts``,
``one_layer_count`` and ``quad_subdiv_level`` read the flags too.
"""

from __future__ import annotations

import configparser
import dataclasses
import math

import numpy as np

from . import fem, problem
from .errors import ConfigError

__all__ = ["PRESETS", "RunConfig", "layer_counts", "load_config", "one_layer_count",
           "problem_from_source", "quad_subdiv_level", "run_config"]

PRESETS = {
    "example1-static": problem.example1_static,
    "example1-moving": problem.example1_moving,
}


def layer_counts(text: str) -> list[int]:
    """A comma-separated list of distinct layer counts, each >= 2."""
    try:
        counts = [int(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"bad layer list {text!r}") from None
    if any(n < 2 for n in counts):
        raise ValueError(f"every layer count must be an integer >= 2, got {text!r}")
    if len(set(counts)) != len(counts):
        raise ValueError(f"layer counts must be distinct, got {text!r}")
    return counts


def _checked(convert, ok, expected):
    """A reader of one setting: ``convert`` its text, then require ``ok``."""
    def read(text):
        value = convert(text)
        if not ok(value):
            raise ValueError(f"must be {expected}, got {text!r}")
        return value
    return read


quad_subdiv_level = _checked(int, lambda k: 0 <= k <= fem.MAX_QUAD_SUBDIV,
                             f"an integer from 0 to {fem.MAX_QUAD_SUBDIV}")
# the --layers of mesh and solve, which take one count
one_layer_count = _checked(layer_counts, lambda counts: len(counts) == 1, "one layer count")

# Each [discretization] and [metrics] key, the RunConfig field it sets, and its reader
_SETTINGS = {
    "discretization": {
        "layers": layer_counts,
        "adjoint_space": _checked(str, lambda v: v in ("U", "W"), "U or W"),
        "quad_subdiv": quad_subdiv_level,
        "rho_max": _checked(float, lambda v: math.isfinite(v) and v > 0.0,
                            "finite and positive"),
    },
    "metrics": {
        "spacetime_gradient": _checked(
            lambda text: configparser.ConfigParser.BOOLEAN_STATES.get(text.lower()),
            lambda v: v is not None, "a boolean"),
        "reference_layers": int,
    },
}

_REQUIRED = ("x_min", "x_max", "t_final", "kappa1", "kappa2", "eta", "offset_a", "offset_b")
_ALLOWED = {
    "problem": {"preset", *_REQUIRED, "velocity", "velocity_amplitude", "velocity_frequency",
                "velocity_times", "velocity_values", "desired", "exact"},
    **_SETTINGS,
}


@dataclasses.dataclass
class RunConfig:
    """Everything one run needs: the problem plus discretization knobs."""

    spec: problem.ProblemSpec
    layers: list
    adjoint_space: str = "U"
    quad_subdiv: int = 1
    rho_max: float = 8.0
    spacetime_gradient: bool = False
    reference_layers: int | None = None


def load_config(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
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


def run_config(parsed, preset, layers) -> RunConfig:
    """The run's settings from a parsed config (or None), a ``--preset`` name
    (or None) and the default layer counts.  A [problem] section excludes a
    preset; with neither, the problem is example1-static."""
    sections = {} if parsed is None else {name: parsed[name] for name in parsed.sections()}
    if "problem" in sections:
        if preset is not None:
            raise ConfigError("--preset conflicts with a [problem] section in --config")
        spec = _problem_from_section(sections["problem"])
    else:
        spec = PRESETS[preset or "example1-static"]()
    rc = RunConfig(spec=spec, layers=layers)
    for section, readers in _SETTINGS.items():
        for key, text in sections.get(section, {}).items():
            try:
                setattr(rc, key, readers[key](text))
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
    return rc


def _float_list(text):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated floats, got {text!r}") from exc


def _velocity_from_config(sec, t_final: float) -> problem.Velocity:
    kind = sec.get("velocity", "zero")
    if kind == "zero":
        return problem.velocity_zero()
    if kind == "sine":
        try:
            amplitude = sec.getfloat("velocity_amplitude", 0.1 * np.pi)
            frequency = sec.getfloat("velocity_frequency", 1.0)
            return problem.velocity_sine(amplitude=amplitude, frequency=frequency)
        except ValueError as exc:
            raise ConfigError(f"bad sine velocity parameter: {exc}") from exc
    if kind == "tabulated":
        if "velocity_times" not in sec or "velocity_values" not in sec:
            raise ConfigError("tabulated velocity needs velocity_times and velocity_values")
        times, values = _float_list(sec["velocity_times"]), _float_list(sec["velocity_values"])
        try:
            velocity = problem.velocity_tabulated(times, values)
        except ValueError as exc:
            raise ConfigError(f"bad velocity_times/velocity_values samples: {exc}") from exc
        # The spline would be extrapolated outside its samples without a word.
        if times[0] > 0.0 or times[-1] < t_final:
            raise ConfigError(
                f"velocity_times span [{times[0]:g}, {times[-1]:g}] but must "
                f"cover [0, t_final] = [0, {t_final:g}]"
            )
        return velocity
    raise ConfigError(f"unknown velocity kind {kind!r}")


def _zero_desired(x, t):
    return np.zeros_like(np.asarray(x, dtype=float))


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

    missing = [k for k in _REQUIRED if k not in sec]
    if missing:
        raise ConfigError(f"custom problem missing keys {missing}")

    exact_kind = sec.get("exact", "none")
    if exact_kind not in ("zero", "none"):
        raise ConfigError(f"unknown exact field kind {exact_kind!r}")
    exact = problem.PiecewiseField(amplitude=0.0) if exact_kind == "zero" else None

    desired_kind = sec.get("desired", "derived")
    if desired_kind not in ("zero", "derived"):
        raise ConfigError(f"unknown desired state kind {desired_kind!r}")
    if desired_kind == "derived" and exact is None:
        raise ConfigError("desired = derived requires exact fields")

    try:
        values = {k: sec.getfloat(k) for k in _REQUIRED}
    except ValueError as exc:
        raise ConfigError(f"bad numeric value in [problem]: {exc}") from exc

    # GeometryError from ProblemSpec validation propagates (exit code 2).
    return problem.ProblemSpec(
        **values, velocity=_velocity_from_config(sec, values["t_final"]),
        desired_state=_zero_desired if desired_kind == "zero" else None,
        exact_state=exact, exact_adjoint=exact, name="custom")


def problem_from_source(source) -> problem.ProblemSpec:
    """Build a ProblemSpec from ("preset", name) or ("config", path)."""
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
