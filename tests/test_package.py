"""Package surface: every name a module exports exists, the package imports
on its own, the preset path loads no scipy module at all, and the imports
deferred to custom velocities work in a fresh interpreter."""

import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap

import stcontrol

SRC = os.path.dirname(os.path.dirname(os.path.abspath(stcontrol.__file__)))


def run_fresh(code, *args):
    """Run ``code`` in a new interpreter that imports stcontrol from this
    checkout, so no module another test loaded is there already."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code), *map(str, args)],
                          capture_output=True, text=True, env=env)


def test_every_exported_name_resolves():
    names = [info.name for info in pkgutil.iter_modules(stcontrol.__path__)]
    assert "checks" in names and "solver" in names
    for name in names:
        module = importlib.import_module(f"stcontrol.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"stcontrol.{name}.__all__ names missing {missing}"


def test_package_imports_on_its_own():
    proc = run_fresh("import stcontrol; print(stcontrol.__version__)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == stcontrol.__version__


def test_presets_load_no_unused_scipy_module(tmp_path):
    proc = run_fresh("""
        import sys
        import stcontrol.cli
        from stcontrol import config
        for name in ("example1-static", "example1-moving"):
            config.problem_from_source(("preset", name))
        codes = [stcontrol.cli.main(["solve", "--preset", "example1-moving",
                                     "--layers", "4", "--out", sys.argv[1] + "/solve"]),
                 stcontrol.cli.main(["convergence", "--preset", "example1-moving",
                                     "--layers", "15,30", "--serial",
                                     "--out", sys.argv[1] + "/study"])]
        print(" ".join(map(str, codes)))
        print(" ".join(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """, tmp_path)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = proc.stdout.splitlines()[-2:]
    assert codes == "0 0"
    assert loaded.split() == []


def test_tabulated_velocity_solves_in_a_fresh_interpreter(tmp_path):
    cfg = tmp_path / "tabulated.cfg"
    cfg.write_text(
        "[problem]\n"
        "x_min = 0.0\nx_max = 1.0\nt_final = 1.0\nkappa1 = 0.5\nkappa2 = 1.0\n"
        "eta = 1e-3\noffset_a = 0.4\noffset_b = 0.6\n"
        "velocity = tabulated\n"
        "velocity_times = 0.0, 0.25, 0.5, 0.75, 1.0\n"
        "velocity_values = 0.0, 0.1, 0.0, -0.1, 0.0\n"
        "desired = zero\n"
    )
    proc = run_fresh("""
        import sys
        import stcontrol.cli
        sys.exit(stcontrol.cli.main(["solve", "--config", sys.argv[1],
                                     "--layers", "6", "--out", sys.argv[2]]))
    """, cfg, tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "solution.csv").is_file()


def test_quadrature_fallback_in_a_fresh_interpreter():
    # as test_problem.test_quadrature_fallback_velocity, with scipy.integrate
    # loaded only by the fallback itself
    proc = run_fresh("""
        import math
        import numpy as np
        from stcontrol import problem
        vel = problem.Velocity(fn=lambda t: 0.1 * math.pi * np.sin(2.0 * math.pi * t))
        spec = problem.ProblemSpec(
            x_min=0.0, x_max=1.0, t_final=1.0, kappa1=1.0, kappa2=2.0, eta=1e-3,
            velocity=vel, offset_a=0.4, offset_b=0.6, name="quad-fallback",
        )
        ts = np.linspace(0.0, 1.0, 9)
        exact = 0.05 * (1.0 - np.cos(2.0 * math.pi * ts))
        print(float(np.max(np.abs(problem.displacement(spec, ts) - exact))))
    """)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.split()[-1]) <= 1e-9
