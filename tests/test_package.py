"""Package surface: every name a module exports exists, the package imports
on its own, neither the presets nor a tabulated velocity load any scipy
module in a fresh interpreter, and only ``_fork`` forks."""

import importlib
import os
import pkgutil
import re
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
        code = stcontrol.cli.main(["solve", "--config", sys.argv[1],
                                   "--layers", "6", "--out", sys.argv[2]])
        print(code)
        print(" ".join(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """, cfg, tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    code, loaded = proc.stdout.splitlines()[-2:]
    assert code == "0"
    assert loaded.split() == []
    assert (tmp_path / "out" / "solution.csv").is_file()


def test_only_fork_module_forks_joins_or_pipes():
    # one parallel mechanism: every fork-join goes through _fork.run
    package = os.path.dirname(stcontrol.__file__)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as f:
            text = f.read()
        assert not re.search(r"_fork\.(start|wait_all)\b", text), name
        if name != "_fork.py":
            assert not re.search(r"\bos\.(fork|waitpid|pipe)\b", text), name
