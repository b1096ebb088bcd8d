"""Command-line behaviour, exit codes and output files.

Everything runs in-process through cli.main so exit codes and stdout are
observable; one subprocess smoke test covers the installed entry point.
"""

import csv
import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import oracles
from stcontrol import cli, config, fem, mesh, metrics, problem, solver, svg
from stcontrol.errors import SolverError

ZERO_PROBLEM = """\
[problem]
x_min = 0.0
x_max = 1.0
t_final = 1.0
kappa1 = 1.5
kappa2 = 1.0
eta = 1e-3
offset_a = 0.3
offset_b = 0.7
velocity = zero
desired = zero
"""


def read_solution_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    u = np.array([float(r["u"]) for r in rows])
    p = np.array([float(r["p"]) for r in rows])
    z = np.array([float(r["z_f"]) for r in rows])
    return rows, u, p, z


def read_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


def test_no_arguments_is_usage_error(capsys):
    assert cli.main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_mesh_command_writes_and_reports(tmp_path, capsys):
    out = tmp_path / "m.stmesh"
    rc = cli.main(["mesh", "--preset", "example1-moving", "--layers", "9",
                   "--out", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    report = json.loads(lines[0])
    assert report["ok"] is True
    assert report["straddle_count"] == 0
    assert report["max_fit_residual"] <= 1e-10
    m = oracles.read_mesh_reference(out)
    assert m.num_vertices == report["num_vertices"]
    assert mesh.validate_mesh(m, problem.example1_moving()).ok is True


def test_mesh_defaults_to_static_preset(tmp_path, capsys):
    out = tmp_path / "default.stmesh"
    rc = cli.main(["mesh", "--layers", "4", "--out", str(out)])
    assert rc == 0
    m = oracles.read_mesh_reference(out)
    assert m.num_vertices == 35


def test_mesh_bad_layers(capsys):
    assert cli.main(["mesh", "--preset", "example1-static", "--layers", "1"]) == 1


def test_preset_conflicts_with_problem_section(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ZERO_PROBLEM)
    rc = cli.main(["mesh", "--preset", "example1-static", "--config", str(cfg),
                   "--layers", "4", "--out", str(tmp_path / "x.stmesh")])
    assert rc == 1
    assert "conflicts" in capsys.readouterr().err


def test_bad_geometry_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(ZERO_PROBLEM.replace("offset_a = 0.3", "offset_a = 0.9"))
    rc = cli.main(["mesh", "--config", str(cfg), "--layers", "4",
                   "--out", str(tmp_path / "x.stmesh")])
    assert rc == 2
    assert "geometry error" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, code, kind", [
    ("eta = 1e-3", "eta = nan", 2, "geometry error"),
    ("kappa1 = 1.5", "kappa1 = nan", 2, "geometry error"),
    ("kappa2 = 1.0", "kappa2 = inf", 2, "geometry error"),
    ("velocity = zero", "velocity = sine\nvelocity_frequency = 0", 1, "config error"),
])
def test_non_finite_or_degenerate_parameters_exit_codes(tmp_path, capsys, old, new, code, kind):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(ZERO_PROBLEM.replace(old, new) + "\n[discretization]\nlayers = 4\n")
    out = tmp_path / "run"
    rc = cli.main(["solve", "--config", str(cfg), "--out", str(out)])
    assert rc == code
    assert kind in capsys.readouterr().err
    assert not (out / "solution.csv").exists()


@pytest.mark.parametrize("old, new, message", [
    ("x_max = 1.0", "x_max = 1e300", "MAX_MESH_VERTICES"),
    ("x_max = 1.0", "x_max = 1e6", "MAX_MESH_VERTICES"),
    ("x_min = 0.0\nx_max = 1.0", "x_min = -1e308\nx_max = 1e308", "must be finite"),
])
def test_oversized_domain_exits_before_allocating(tmp_path, capsys, old, new, message):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(ZERO_PROBLEM.replace(old, new))
    rc = cli.main(["mesh", "--config", str(cfg), "--layers", "4",
                   "--out", str(tmp_path / "x.stmesh")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "geometry error" in err and message in err


def test_solve_zero_desired_outputs(tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(ZERO_PROBLEM + "\n[discretization]\nlayers = 6\n")
    out = tmp_path / "run"
    rc = cli.main(["solve", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    rows, u, p, z = read_solution_csv(out / "solution.csv")
    assert np.all(u == 0.0) and np.all(p == 0.0) and np.all(z == 0.0)
    assert float(rows[0]["x"]) == 0.0
    for name in ("state.svg", "adjoint.svg", "control.svg"):
        assert (out / name).stat().st_size > 0
    records = read_jsonl(out / "metrics.jsonl")
    kinds = [r["record"] for r in records]
    assert kinds == ["mesh", "solve", "norms"]
    assert records[1]["residual"] == 0.0
    assert records[1]["cg_iterations"] == 0
    assert records[1]["factor_nnz"] == 0
    assert records[2]["triple_u"] == 0.0
    captured = capsys.readouterr().out
    assert "residual = " in captured
    assert "energy_error" not in captured  # no exact pair for this config


def test_solve_preset_prints_energy_error(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["solve", "--preset", "example1-static", "--layers", "8",
                   "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "energy_error = " in captured
    records = read_jsonl(out / "metrics.jsonl")
    assert records[1]["record"] == "solve"
    assert records[1]["cg_iterations"] > 0
    assert records[1]["factor_nnz"] > 0
    assert records[-1]["record"] == "energy_error"
    assert records[-1]["value"] > 0.0


@pytest.mark.parametrize("layers", [6, 8])
@pytest.mark.parametrize("preset", ["static_spec", "moving_spec"])
def test_solution_csv_bytes_match_row_writer_oracle(tmp_path, request, monkeypatch,
                                                   preset, layers):
    spec = request.getfixturevalue(preset)
    m = mesh.build_mesh(spec, layers)
    sol = solver.solve_optimality(m, spec)
    z_f = solver.recover_control_riesz(sol, spec)
    n = m.num_vertices
    odd = np.resize([-0.0, 1e-300, 5e-324, np.nan, -np.inf, np.inf, -1e300], n)
    cases = {
        "solved": (sol, z_f),
        "odd values": (types.SimpleNamespace(u=odd, p=np.roll(odd, 1)), -odd),
    }
    # rows are written _CSV_CHUNK vertices at a time: blocks of one vertex,
    # a short last block, a last block of one, and a single block
    for chunk in (1, 7, n - 1, n):
        monkeypatch.setattr(cli, "_CSV_CHUNK", chunk)
        for name, (s, z) in cases.items():
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            cli._write_solution_csv(got, m, s, z)
            oracles.solution_csv_reference(want, m, s, z)
            assert got.read_bytes() == want.read_bytes(), (name, chunk)
    assert b",4.9406564584124654e-324," in got.read_bytes()  # the subnormal survives


def test_solution_csv_keeps_negative_zero_coordinates(tmp_path, static_spec):
    # x and t are formatted once per distinct value; -0.0 must not be
    # merged with 0.0, as a float comparison would merge it
    m = mesh.build_mesh(static_spec, 6)
    v = m.vertices.copy()
    for col in (0, 1):
        zeros = np.flatnonzero(v[:, col] == 0.0)
        v[zeros[::2], col] = -0.0
    m.vertices = v
    x = v[:, 0]
    sol = types.SimpleNamespace(u=np.sin(x), p=-x)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    cli._write_solution_csv(got, m, sol, x)
    oracles.solution_csv_reference(want, m, sol, x)
    assert got.read_bytes() == want.read_bytes()
    rows, _, _, _ = read_solution_csv(got)
    for key in ("x", "t"):
        assert {"-0", "0"} <= {r[key] for r in rows}, key


def test_solve_cg_failure_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(solver, "CG_MAX_ITERATIONS", 1)
    rc = cli.main(["solve", "--preset", "example1-static", "--layers", "8",
                   "--out", str(tmp_path / "run")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "solver error" in err and "1 iterations" in err
    assert not (tmp_path / "run").exists()  # a failed solve creates nothing


def test_solve_refused_by_mesh_validation_creates_no_out_directory(tmp_path, capsys):
    cfg = tmp_path / "strict.cfg"
    cfg.write_text("[problem]\npreset = example1-static\n\n[discretization]\nrho_max = 0.5\n")
    out = tmp_path / "q"
    assert cli.main(["solve", "--config", str(cfg), "--layers", "8", "--out", str(out)]) == 2
    assert "geometry error: mesh failed validation" in capsys.readouterr().err
    assert not out.exists()


def test_solve_serial_flag_is_gone(tmp_path, capsys):
    rc = cli.main(["solve", "--preset", "example1-static", "--layers", "4",
                   "--serial", "--out", str(tmp_path / "run")])
    assert rc == 1


def test_solve_out_collides_with_file(tmp_path, capsys):
    target = tmp_path / "occupied"
    target.write_text("not a directory")
    rc = cli.main(["solve", "--preset", "example1-static", "--layers", "4",
                   "--out", str(target)])
    assert rc == 4
    assert "i/o error" in capsys.readouterr().err


SOLVE_8 = ["solve", "--preset", "example1-moving", "--layers", "8"]
FIELD_FILES = ("solution.csv", "state.svg", "adjoint.svg", "control.svg")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_solve_writer_failure_is_an_io_error(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_write_solution_csv", refuse)
    out = tmp_path / "run"
    assert cli.main(SOLVE_8 + ["--out", str(out)]) == 4
    assert "i/o error: disk full" in capsys.readouterr().err
    assert not (out / "metrics.jsonl").exists()
    assert_no_child_left()


@pytest.mark.parametrize("failing", [("svg",), ("csv", "svg")])
def test_solve_reaps_both_writers_and_reports_the_first_failure(tmp_path, capsys,
                                                               monkeypatch, failing):
    def refuse(what):
        def write(*args):
            raise OSError(f"{what}: disk full")
        return write

    if "csv" in failing:
        monkeypatch.setattr(cli, "_write_solution_csv", refuse("csv"))
    monkeypatch.setattr(svg, "render_fields", refuse("svg"))
    out = tmp_path / "run"
    assert cli.main(SOLVE_8 + ["--out", str(out)]) == 4
    assert f"i/o error: {failing[0]}: disk full" in capsys.readouterr().err
    assert not (out / "metrics.jsonl").exists()
    assert_no_child_left()


def test_solve_writer_that_dies_silently_is_an_io_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_write_solution_csv", lambda *args: os._exit(7))
    out = tmp_path / "run"
    assert cli.main(SOLVE_8 + ["--out", str(out)]) == 4
    assert "i/o error: solution.csv writer exited with code 7" in capsys.readouterr().err
    assert not (out / "metrics.jsonl").exists()
    assert_no_child_left()


def test_solve_metrics_failure_still_writes_the_fields(tmp_path, capsys, monkeypatch):
    good = tmp_path / "good"
    assert cli.main(SOLVE_8 + ["--out", str(good)]) == 0

    def fail(*args, **kwargs):
        raise SolverError("Riesz identity violated")

    monkeypatch.setattr(metrics, "star_norm", fail)
    out = tmp_path / "run"
    assert cli.main(SOLVE_8 + ["--out", str(out)]) == 3
    assert "solver error: Riesz identity violated" in capsys.readouterr().err
    assert not (out / "metrics.jsonl").exists()
    for name in FIELD_FILES:
        assert (out / name).read_bytes() == (good / name).read_bytes(), name
    assert_no_child_left()


def test_solve_without_fork_writes_the_same_files(tmp_path, capsys, monkeypatch):
    forked = tmp_path / "forked"
    assert cli.main(SOLVE_8 + ["--out", str(forked)]) == 0
    first = capsys.readouterr().out.replace(str(forked), "OUT")
    monkeypatch.delattr(os, "fork")
    here = tmp_path / "here"
    assert cli.main(SOLVE_8 + ["--out", str(here)]) == 0
    assert capsys.readouterr().out.replace(str(here), "OUT") == first
    for name in FIELD_FILES + ("metrics.jsonl",):
        assert (here / name).read_bytes() == (forked / name).read_bytes(), name


def test_convergence_serial_study(tmp_path, capsys):
    out = tmp_path / "study"
    args = ["convergence", "--preset", "example1-static", "--layers", "8,16",
            "--serial", "--out", str(out)]
    assert cli.main(args) == 0
    rep = oracles.read_csv(out / "report.csv")
    assert len(rep.error) == 2
    assert rep.error[1] < rep.error[0]
    assert rep.order[0] is None and rep.order[1] is not None
    records = read_jsonl(out / "metrics.jsonl")
    assert [r["layers"] for r in records] == [8, 16]
    assert all(r["metric"] == "energy_error" for r in records)
    first = (out / "report.csv").read_bytes()
    assert cli.main(args) == 0
    assert (out / "report.csv").read_bytes() == first  # bitwise reproducible
    captured = capsys.readouterr().out
    assert "final EOC = " in captured


def test_convergence_parallel_matches_serial(tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    base = ["convergence", "--preset", "example1-moving", "--layers", "8,16"]
    assert cli.main(base + ["--serial", "--out", str(serial)]) == 0
    assert cli.main(base + ["--out", str(parallel)]) == 0
    for name in ("report.csv", "metrics.jsonl"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name


def test_convergence_parallel_reference_study_matches_serial(tmp_path, capsys):
    # a level child inherits the reference's gradients and locator
    base = ["convergence", "--preset", "example1-moving", "--layers", "8,16",
            "--reference-layers", "32"]
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert cli.main(base + ["--serial", "--out", str(serial)]) == 0
    assert cli.main(base + ["--out", str(parallel)]) == 0
    for name in ("report.csv", "metrics.jsonl"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name


def test_convergence_reference_mode(tmp_path, capsys):
    out = tmp_path / "ref"
    rc = cli.main(["convergence", "--preset", "example1-moving",
                   "--layers", "8,16", "--reference-layers", "32",
                   "--serial", "--plot", "--out", str(out)])
    assert rc == 0
    records = read_jsonl(out / "metrics.jsonl")
    assert all(r["metric"] == "reference_error" for r in records)
    assert records[1]["error"] < records[0]["error"]
    svg_text = (out / "convergence.svg").read_text()
    assert svg_text.startswith("<svg")


@pytest.mark.parametrize("exact, extra", [("zero", []),
                                          ("none", ["--reference-layers", "32"])],
                         ids=["exact-pair", "reference"])
def test_convergence_zero_error_leaves_orders_blank(tmp_path, capsys, exact, extra):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(ZERO_PROBLEM + f"exact = {exact}\n")
    out = tmp_path / "study"
    rc = cli.main(["convergence", "--config", str(cfg), "--layers", "8,16",
                   "--serial", "--plot", *extra, "--out", str(out)])
    assert rc == 0
    rows = (out / "report.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2:] for row in rows] == [["0", ""], ["0", ""]]
    # no level has a logarithm, so the plot is the frame and title only
    svg_text = (out / "convergence.svg").read_text()
    assert svg_text.startswith("<svg") and svg_text.endswith("</svg>\n")
    assert "<circle" not in svg_text and "<polyline" not in svg_text
    records = read_jsonl(out / "metrics.jsonl")
    assert [(r["error"], r["order"]) for r in records] == [(0.0, None), (0.0, None)]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[-1] for line in lines[1:3]] == ["--", "--"]
    assert not any(line.startswith("final EOC") for line in lines)


def test_convergence_reference_must_be_finer(tmp_path, capsys):
    rc = cli.main(["convergence", "--preset", "example1-static",
                   "--layers", "8,16", "--reference-layers", "12",
                   "--serial", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "reference-layers" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # a refused study creates nothing


def test_convergence_bad_layer_list(tmp_path, capsys):
    rc = cli.main(["convergence", "--preset", "example1-static",
                   "--layers", "8,x", "--out", str(tmp_path / "x")])
    assert rc == 1


def setting_args(tmp_path, route, flag, key, value, section="discretization"):
    """The arguments that give the static preset and one [section] value,
    as the flag ``flag`` or as the config key ``key``."""
    if route == "flag":
        return ["--preset", "example1-static", flag, value]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[problem]\npreset = example1-static\n\n[{section}]\n{key} = {value}\n")
    return ["--config", str(cfg)]


SETTING_ERROR = {"flag": "usage error: argument {flag}: ",
                 "config": "config error: [discretization] {key}: "}


@pytest.mark.parametrize("route", ["flag", "config"])
def test_bad_layer_list_names_the_setting_it_came_from(tmp_path, capsys, route):
    out = tmp_path / "x"
    assert cli.main(["convergence", "--serial", "--out", str(out),
                     *setting_args(tmp_path, route, "--layers", "layers", "8,x")]) == 1
    kind = SETTING_ERROR[route].format(flag="--layers", key="layers")
    assert kind + "bad layer list '8,x'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value, message", [
    ("-3", "every layer count must be an integer >= 2, got '-3'"),
    ("1", "every layer count must be an integer >= 2, got '1'"),
    ("8,16", "must be one layer count, got '8,16'"),
], ids=["negative", "one", "two-counts"])
@pytest.mark.parametrize("route", ["flag", "config"])
def test_bad_reference_layers_name_the_setting_they_came_from(tmp_path, capsys, route,
                                                              value, message):
    out = tmp_path / "x"
    assert cli.main(["convergence", "--layers", "8,16", "--serial", "--out", str(out),
                     *setting_args(tmp_path, route, "--reference-layers", "reference_layers",
                                   value, section="metrics")]) == 1
    kind = {"flag": "usage error: argument --reference-layers: ",
            "config": "config error: [metrics] reference_layers: "}[route]
    assert kind + message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("route", ["flag", "config"])
def test_quad_subdiv_above_its_bound_exits_before_meshing(tmp_path, capsys, monkeypatch,
                                                          route):
    def no_mesh(*args):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(mesh, "build_mesh", no_mesh)
    out = tmp_path / "x"
    level = str(fem.MAX_QUAD_SUBDIV + 1)
    assert cli.main(["solve", "--layers", "4", "--out", str(out),
                     *setting_args(tmp_path, route, "--quad-subdiv", "quad_subdiv", level)]) == 1
    kind = SETTING_ERROR[route].format(flag="--quad-subdiv", key="quad_subdiv")
    assert (kind + f"must be an integer from 0 to {fem.MAX_QUAD_SUBDIV}, got '{level}'"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("route", ["flag", "config"])
def test_convergence_repeated_layer_counts_are_usage_errors(tmp_path, capsys, route):
    # two levels with one h would give a 0/0 order
    out = tmp_path / "x"
    args = ["convergence", "--serial", "--out", str(out)]
    if route == "flag":
        args += ["--preset", "example1-static", "--layers", "8,8"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[problem]\npreset = example1-static\n\n"
                       "[discretization]\nlayers = 8,16,8\n")
        args += ["--config", str(cfg)]
    assert cli.main(args) == 1
    kind = SETTING_ERROR[route].format(flag="--layers", key="layers")
    assert kind + "layer counts must be distinct" in capsys.readouterr().err
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("extra", [["--serial"], []], ids=["serial", "default"])
def test_convergence_level_failing_validation_names_layers_and_report(tmp_path, capsys,
                                                                     extra):
    # every level fails; the first one's error is reported
    cfg = tmp_path / "strict.cfg"
    cfg.write_text("[problem]\npreset = example1-static\n\n[discretization]\nrho_max = 1.0\n")
    rc = cli.main(["convergence", "--config", str(cfg), "--layers", "8,16", *extra,
                   "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "geometry error: mesh failed validation at layers=8: {" in err
    assert "'quasi_uniformity'" in err
    assert_no_child_left()


def test_convergence_failing_last_level_exits_as_serial(tmp_path, capsys, monkeypatch):
    # the default path runs the last level in a child on a machine with a
    # spare CPU, and its error comes back through the pipe
    solve = solver.solve_optimality

    def fail_at_16_layers(m, *args, **kwargs):
        if np.unique(m.vertices[:, 1]).size == 17:
            raise SolverError("CG stalled at 16 layers")
        return solve(m, *args, **kwargs)

    monkeypatch.setattr(solver, "solve_optimality", fail_at_16_layers)
    errs = []
    for extra in (["--serial"], []):
        out = tmp_path / "x"
        assert cli.main(["convergence", "--preset", "example1-static", "--layers", "8,16",
                         *extra, "--out", str(out)]) == 3
        errs.append(capsys.readouterr().err)
        assert not (out / "report.csv").exists()
        assert_no_child_left()
    assert errs == ["stcontrol: solver error: CG stalled at 16 layers\n"] * 2


def test_config_discretization_and_metrics_sections(tmp_path, capsys):
    cfg = tmp_path / "full.cfg"
    cfg.write_text(
        "[problem]\npreset = example1-static\n\n"
        "[discretization]\nlayers = 6,12\nquad_subdiv = 1\nrho_max = 8.0\n\n"
        "[metrics]\nspacetime_gradient = true\n"
    )
    out = tmp_path / "study"
    rc = cli.main(["convergence", "--config", str(cfg), "--serial",
                   "--out", str(out)])
    assert rc == 0
    records = read_jsonl(out / "metrics.jsonl")
    assert [r["layers"] for r in records] == [6, 12]


@pytest.mark.parametrize("command", ["mesh", "solve", "convergence"])
def test_each_command_reads_its_config_once(tmp_path, monkeypatch, command):
    reads = []
    load = config.load_config
    monkeypatch.setattr(config, "load_config", lambda path: reads.append(path) or load(path))
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(ZERO_PROBLEM + "\n[discretization]\nlayers = 4,6\n\n"
                   "[metrics]\nreference_layers = 8\n")
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert cli.main(args + (["--serial"] if command == "convergence" else [])) == 0
    assert reads == [str(cfg)]


def test_readme_example_config_solves(tmp_path, capsys):
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as f:
        readme = f.read()
    start = readme.index("```\n[problem]\n") + 4
    example = readme[start:readme.index("```", start)]
    assert "[discretization]" in example and "[metrics]" in example
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(example)
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", str(cfg), "--layers", "6", "--out", str(out)]) == 0
    assert (out / "metrics.jsonl").exists()


@pytest.mark.parametrize("setting", ["rho_max = -1", "rho_max = nan", "rho_max = inf",
                                     "rho_max = 0", "quad_subdiv = -1"])
def test_bad_discretization_values_are_config_errors(tmp_path, capsys, setting):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[problem]\npreset = example1-static\n\n[discretization]\n{setting}\n")
    out = tmp_path / "x.stmesh"
    rc = cli.main(["mesh", "--config", str(cfg), "--layers", "4", "--out", str(out)])
    assert rc == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_no_command_reads_a_mesh_or_runs_a_selftest(capsys):
    # the Tier-1 tests run the invariants selftest ran, and no command
    # reads the mesh files that mesh writes
    assert cli.main(["selftest"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not hasattr(mesh, "read_mesh")


def test_console_entry_point(tmp_path):
    out = tmp_path / "sub.stmesh"
    proc = subprocess.run(
        [sys.executable, "-m", "stcontrol.cli", "mesh", "--preset",
         "example1-static", "--layers", "5", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[0])["ok"] is True
    assert out.exists()
