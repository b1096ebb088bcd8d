"""The fork-join helper and the places that use it: the load assembled
beside the matrices, the solve's writers beside its metrics, and the
study's last levels beside its first."""

import os
import pickle
import threading

import numpy as np
import pytest

from stcontrol import _fork, cli, config, mesh, solver
from stcontrol.errors import MeshingError, PointLocationError, SolverError


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


def fail(exc):
    def raise_it():
        raise exc
    return raise_it


def test_value_comes_back_from_the_child(forks):
    seen = []

    def work():
        seen.append(os.getpid())
        return {"b": np.arange(5.0), "pid": os.getpid()}

    [value] = _fork.run([("worker", work)])
    assert np.array_equal(value["b"], np.arange(5.0))
    expect_forks(forks, 1)
    if forks:  # the child's side effects stay in the child
        assert seen == [] and value["pid"] != os.getpid()
    assert_no_child_left()


@pytest.mark.parametrize("exc", [ValueError("bad field"), OSError("disk full"),
                                 PointLocationError("outside the mesh", point=(0.5, 2.0))])
def test_exception_comes_back_with_its_type_and_message(forks, exc):
    with pytest.raises(type(exc)) as info:
        _fork.run([("worker", fail(exc))])
    assert str(info.value) == str(exc)
    expect_forks(forks, 1)
    assert_no_child_left()


def test_child_that_dies_silently_is_an_os_error(forks):
    if not _fork._spare_cpu():
        pytest.skip("no spare CPU: the call would run in this process")
    with pytest.raises(OSError, match="^worker exited with code 7$"):
        _fork.run([("worker", lambda: os._exit(7))])
    assert_no_child_left()


def test_run_reaps_every_child_and_raises_the_first_failure(forks):
    seen = []
    calls = [("one", fail(OSError("first"))), ("two", lambda: 2),
             ("three", fail(OSError("third"))), (None, fail(ValueError("here"))),
             (None, lambda: seen.append("after"))]
    with pytest.raises(OSError, match="^first$"):
        _fork.run(calls)
    expect_forks(forks, 3)
    assert seen == []
    assert_no_child_left()


def test_run_returns_the_values_in_list_order_and_an_earlier_failure_wins(forks):
    assert _fork.run([("one", lambda: 1), (None, lambda: 2), ("three", lambda: 3)]) == [1, 2, 3]
    expect_forks(forks, 2)
    seen = []
    calls = [(None, fail(ValueError("here first"))), ("two", fail(OSError("from a child"))),
             (None, lambda: seen.append("after"))]
    with pytest.raises(ValueError, match="^here first$"):
        _fork.run(calls)
    assert seen == []  # no in-process call runs after one has failed
    expect_forks(forks, 3)
    assert_no_child_left()


def test_a_failed_reap_does_not_stop_the_others(monkeypatch):
    if not _fork._spare_cpu():
        pytest.skip("no spare CPU: the calls would run in this process")
    loads = pickle.loads
    reads = []

    def interrupted(data):
        reads.append(1)
        if len(reads) == 1:
            raise KeyboardInterrupt
        return loads(data)

    monkeypatch.setattr(pickle, "loads", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _fork.run([("one", lambda: 1), ("two", lambda: 2)])
    assert len(reads) == 2
    assert_no_child_left()


@pytest.mark.parametrize("how", ["no fork", "fork fails", "one CPU"])
def test_runs_in_process_without_fork_or_a_spare_cpu(monkeypatch, how):
    if how == "no fork":
        monkeypatch.delattr(os, "fork")
    elif how == "fork fails":
        def refuse():
            raise BlockingIOError("Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", refuse)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    seen = []

    def record(name):
        return lambda: seen.append((name, os.getpid())) or name

    names = ["a", "b", "c", "d"]
    calls = [(name if name in "bd" else None, record(name)) for name in names]
    assert _fork.run(calls) == names
    assert seen == [(name, os.getpid()) for name in names]  # all here, in list order
    seen.clear()
    with pytest.raises(ValueError, match="raised here"):
        _fork.run([("w", record("a")), ("x", fail(ValueError("raised here"))),
                   (None, record("c")), ("y", record("d"))])
    assert seen == [("a", os.getpid())]


def test_a_child_has_no_spare_cpu():
    if not _fork._spare_cpu():
        pytest.skip("no spare CPU: the call would run in this process")
    assert _fork.run([("worker", _fork._spare_cpu)]) == [False]
    assert_no_child_left()


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


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
def test_a_study_forks_its_last_levels_one_per_spare_cpu(monkeypatch, tmp_path, cpus):
    # every solve would fork its load, but a level child forks nothing
    parent = os.getpid()
    fork = os.fork

    def parent_fork():
        assert os.getpid() == parent, "a level child forked"
        return fork()

    log = tmp_path / "levels.log"
    run_level = cli._run_level

    def logged(rc, layers, reference):
        with open(log, "a") as f:
            f.write(f"{layers} {os.getpid()}\n")
        return run_level(rc, layers, reference)

    monkeypatch.setattr(os, "fork", parent_fork)
    monkeypatch.setattr(cli, "_run_level", logged)
    monkeypatch.setattr(_fork, "cpu_count", lambda: cpus)
    monkeypatch.setattr(solver, "FORK_LOAD_TRIANGLES", 0)
    base = ["convergence", "--preset", "example1-moving", "--layers", "8,12,16",
            "--reference-layers", "24"]
    assert cli.main(base + ["--out", str(tmp_path / "default")]) == 0
    ran = [line.split() for line in log.read_text().splitlines()]
    forked = sorted(int(layers) for layers, pid in ran if int(pid) != parent)
    spare = min(cpus, 3) - 1  # the parent keeps one level
    assert forked == [8, 12, 16][3 - spare:]
    assert_no_child_left()
    assert cli.main(base + ["--serial", "--out", str(tmp_path / "serial")]) == 0
    for name in ("report.csv", "metrics.jsonl"):
        assert (tmp_path / "default" / name).read_bytes() == \
            (tmp_path / "serial" / name).read_bytes(), name


@pytest.mark.parametrize("how", ["fork fails", "no fork"])
def test_a_study_without_fork_fails_at_its_first_failing_level(monkeypatch, tmp_path, capsys,
                                                                how):
    # levels 12 and 16 would fork; run here instead, they keep their order
    def run_level(rc, layers, reference):
        if layers == 8:
            raise SolverError("level 8 fails")
        if layers == 16:
            raise MeshingError("level 16 fails")
        return 2, 0.5, 1.0

    monkeypatch.setattr(cli, "_run_level", run_level)
    monkeypatch.setattr(_fork, "cpu_count", lambda: 3)
    base = ["convergence", "--preset", "example1-moving", "--layers", "8,12,16",
            "--reference-layers", "24", "--out", str(tmp_path / "study")]
    assert cli.main(base + ["--serial"]) == 3
    serial = capsys.readouterr().err
    assert serial == "stcontrol: solver error: level 8 fails\n"
    if how == "fork fails":
        def refuse():
            raise BlockingIOError("Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", refuse)
    else:
        monkeypatch.delattr(os, "fork")
    assert cli.main(base) == 3
    assert capsys.readouterr().err == serial
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
    for extra in (["--serial"], []):
        assert cli.main(["convergence", "--preset", "example1-static", "--layers", "8,16",
                         *extra, "--out", str(tmp_path / "study")]) == 0
    assert threading.active_count() == 1
