"""One function call in a forked child process, beside this one.

``start(fn, name)`` forks.  The child runs ``fn()``, pickles its value, or
the exception it raised, into a one-way pipe and leaves through
``os._exit``, so it runs no exit handler and flushes no inherited buffer.
It inherits every argument of ``fn``, so only the result is pickled.

A child may run numpy element-wise work and write files.  It must take no
lock that another thread of this process may hold at the fork, and call no
multithreaded BLAS routine: only the forking thread exists in the child.
Nothing here imports ``multiprocessing``, which costs a command that never
forks about 5 ms of start-up.
"""

from __future__ import annotations

import os
import pickle
import sys


def _spare_cpu() -> bool:
    """Whether a child could run on a CPU of its own: this process may run
    on more than one CPU, and it is not a worker started by
    ``multiprocessing`` (a worker of the parallel convergence study, whose
    siblings keep the other CPUs busy).  A worker has the module imported,
    so asking it costs nothing."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    mp = sys.modules.get("multiprocessing")
    return cpus > 1 and (mp is None or mp.parent_process() is None)


def start(fn, name: str):
    """Start ``fn()`` and return a function that waits for it and returns
    its value or re-raises its exception.  A child that ends without a
    word (killed, or its result not picklable) raises ``OSError("<name>
    exited with code N")``.  Where ``os.fork`` does not exist, no CPU is
    spare or the fork fails, ``fn()`` runs here and now."""
    if hasattr(os, "fork") and _spare_cpu():
        receive, send = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process or memory to spare
            os.close(receive)
            os.close(send)
        else:
            if pid == 0:
                _run_child(fn, receive, send)
            os.close(send)  # so that the pipe ends when the child does
            return _waiter(pid, receive, name)
    value = fn()
    return lambda: value


def _run_child(fn, receive, send):
    code = 1
    try:
        os.close(receive)
        try:
            outcome = (True, fn())
        except BaseException as exc:  # handed to the parent, which raises it
            outcome = (False, exc)
        with open(send, "wb") as pipe:
            pipe.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)


def _waiter(pid, receive, name):
    def wait():
        try:
            with open(receive, "rb") as pipe:
                data = pipe.read()
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code != 0 or not data:
            raise OSError(f"{name} exited with code {code}")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value
    return wait


def wait_all(waits) -> None:
    """Call every wait of ``waits``, then re-raise the first failure."""
    failure = None
    for wait in waits:
        try:
            wait()
        except BaseException as exc:
            failure = failure or exc
    if failure is not None:
        raise failure
