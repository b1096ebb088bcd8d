"""The fork-join helper and the two places that use it: the load assembled
beside the matrices, and the solve's writers beside its metrics."""

import concurrent.futures
import multiprocessing
import os
import sys
import threading
import types

import numpy as np
import pytest

from stcontrol import _fork, cli, config, mesh, solver
from stcontrol.errors import PointLocationError


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The number of os.fork calls made in this process."""
    calls = []
    real = os.fork

    def counted():
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def expect_forks(forks, n):
    assert len(forks) == (n if _fork._spare_cpu() else 0)


def test_value_comes_back_from_the_child(forks):
    seen = []

    def work():
        seen.append(os.getpid())
        return {"b": np.arange(5.0), "pid": os.getpid()}

    value = _fork.start(work, "worker")()
    assert np.array_equal(value["b"], np.arange(5.0))
    expect_forks(forks, 1)
    if forks:  # the child's side effects stay in the child
        assert seen == [] and value["pid"] != os.getpid()
    assert_no_child_left()


@pytest.mark.parametrize("exc", [ValueError("bad field"), OSError("disk full"),
                                 PointLocationError("outside the mesh", point=(0.5, 2.0))])
def test_exception_comes_back_with_its_type_and_message(forks, exc):
    def fail():
        raise exc

    wait = _fork.start(fail, "worker")
    with pytest.raises(type(exc)) as info:
        wait()
    assert str(info.value) == str(exc)
    expect_forks(forks, 1)
    assert_no_child_left()


def test_child_that_dies_silently_is_an_os_error(forks):
    if not _fork._spare_cpu():
        pytest.skip("no spare CPU: the call would run in this process")
    wait = _fork.start(lambda: os._exit(7), "worker")
    with pytest.raises(OSError, match="^worker exited with code 7$"):
        wait()
    assert_no_child_left()


def test_wait_all_reaps_every_child_and_raises_the_first_failure():
    def fail(message):
        def run():
            raise OSError(message)
        return run

    waits = []
    waits.append(_fork.start(fail("first"), "one"))
    waits.append(_fork.start(lambda: 2, "two"))
    waits.append(_fork.start(fail("third"), "three"))
    with pytest.raises(OSError, match="^first$"):
        _fork.wait_all(waits)
    assert_no_child_left()


@pytest.mark.parametrize("how", ["no fork", "fork fails", "one CPU", "pool worker"])
def test_runs_in_process_without_fork_or_a_spare_cpu(monkeypatch, how):
    if how == "no fork":
        monkeypatch.delattr(os, "fork")
    elif how == "fork fails":
        def refuse():
            raise BlockingIOError("Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", refuse)
    elif how == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    else:
        worker = types.SimpleNamespace(parent_process=lambda: object())
        monkeypatch.setitem(sys.modules, "multiprocessing", worker)
    seen = []
    wait = _fork.start(lambda: seen.append(os.getpid()) or "done", "worker")
    assert seen == [os.getpid()]  # ran here, before the wait
    assert wait() == "done"

    def fail():
        raise ValueError("raised at once")

    with pytest.raises(ValueError, match="raised at once"):
        _fork.start(fail, "worker")


def _spare_in_worker():
    return _fork._spare_cpu()


def test_a_pool_worker_has_no_spare_cpu():
    context = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=context) as pool:
        assert pool.submit(_spare_in_worker).result() is False


@pytest.mark.parametrize("preset", ["example1-static", "example1-moving"])
def test_forked_load_is_bitwise_the_in_process_load(monkeypatch, forks, preset):
    spec = config.problem_from_source(("preset", preset))
    m = mesh.build_mesh(spec, 30)
    monkeypatch.setattr(solver, "FORK_LOAD_TRIANGLES", 0)
    forked = solver.build_block_system(m, spec)
    expect_forks(forks, 1)
    monkeypatch.setattr(solver, "FORK_LOAD_TRIANGLES", m.num_triangles + 1)
    here = solver.build_block_system(m, spec)
    expect_forks(forks, 1)
    assert np.array_equal(forked.b_d, here.b_d)
    assert_no_child_left()


def test_load_field_of_a_wrong_shape_exits_1_from_the_child(monkeypatch, forks, tmp_path,
                                                           capsys):
    monkeypatch.setattr(solver, "FORK_LOAD_TRIANGLES", 0)
    monkeypatch.setattr(solver, "desired_state_function",
                        lambda spec: lambda x, t, *, t_index: np.ones(2))
    out = tmp_path / "run"
    assert cli.main(["solve", "--preset", "example1-moving", "--layers", "8",
                     "--out", str(out)]) == 1
    assert "usage error: the load field returned values of shape (2,)" in \
        capsys.readouterr().err
    expect_forks(forks, 1)
    assert not (out / "solution.csv").exists()
    assert_no_child_left()


def test_no_thread_is_left_to_break_a_fork(tmp_path, capsys):
    # Python 3.12 warns at os.fork while other threads run, and the test
    # settings turn warnings into errors
    assert cli.main(["solve", "--preset", "example1-moving", "--layers", "8",
                     "--out", str(tmp_path / "solve")]) == 0
    assert cli.main(["convergence", "--preset", "example1-static", "--layers", "8,16",
                     "--serial", "--out", str(tmp_path / "study")]) == 0
    assert threading.active_count() == 1
