"""One function call in a forked child process, beside this one.

``start(fn, name)`` forks.  The child runs ``fn()``, pickles its value, or
the exception it raised, into a one-way pipe and leaves through
``os._exit``, so it runs no exit handler and flushes no inherited buffer.
It inherits every argument of ``fn``, so only the result is pickled.  A
child forks no child of its own.

Only the forking thread exists in the child, so a child must take no lock
that another thread of this process may hold at the fork.  It may write
files and call numpy, BLAS routines included: OpenBLAS, which numpy links,
shuts its thread pool down in a fork handler (``pthread_atfork``), so the
child starts a pool of its own.
"""

from __future__ import annotations

import os
import pickle

# Set in a child by _run_child: its parent keeps the other CPUs busy.
_in_child = False


def cpu_count() -> int:
    """The number of CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _spare_cpu() -> bool:
    """Whether a child could run on a CPU of its own: this process may run
    on more than one CPU, and it is not itself a child."""
    return not _in_child and cpu_count() > 1


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
    global _in_child
    _in_child = True
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


def wait_all(waits, failure=None) -> list:
    """Call every wait of ``waits`` and return their values.  Then re-raise
    ``failure``, if given, or else the first failure of ``waits``."""
    values = []
    for wait in waits:
        try:
            values.append(wait())
        except BaseException as exc:
            failure = failure or exc
    if failure is not None:
        raise failure
    return values
