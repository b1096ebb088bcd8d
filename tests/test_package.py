"""Package surface: every name a module exports exists, and the package
imports on its own."""

import importlib
import pkgutil
import subprocess
import sys

import stcontrol


def test_every_exported_name_resolves():
    names = [info.name for info in pkgutil.iter_modules(stcontrol.__path__)]
    assert "checks" in names and "solver" in names
    for name in names:
        module = importlib.import_module(f"stcontrol.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"stcontrol.{name}.__all__ names missing {missing}"


def test_package_imports_on_its_own():
    proc = subprocess.run(
        [sys.executable, "-c", "import stcontrol; print(stcontrol.__version__)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == stcontrol.__version__
