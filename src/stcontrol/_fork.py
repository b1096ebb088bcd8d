"""Function calls run beside one another in forked children.

``run(calls)`` takes ``(name, fn)`` pairs.  It starts each named call in a
child, then runs the others here in list order, stopping at the first that
fails.  The rule: its values and its failure are those of the calls run one
after another, the values in list order or the first failure in list order.
Where no child can run a named call (no ``os.fork``, no spare CPU, or the
fork fails), that call runs here, in its place in the list.

A child runs ``fn()``, pickles its value, or the exception it raised, into
a one-way pipe and leaves through ``os._exit``, so it runs no exit handler
and flushes no inherited buffer.  It inherits every argument of ``fn``, so
only the result is pickled.  A child forks no child of its own.

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


def run(calls) -> list:
    """The values of ``calls`` under the rule above, once every child is
    reaped, even when a reap fails or is interrupted.  A child that ends
    without a word (killed, or its result not picklable) fails with
    ``OSError("<name> exited with code N")``."""
    outcomes = [None] * len(calls)
    children = {}
    try:
        if hasattr(os, "fork") and _spare_cpu():
            for i, (name, fn) in enumerate(calls):
                if name is not None and (child := _start(fn)) is not None:
                    children[i] = child
        for i, (name, fn) in enumerate(calls):
            if i not in children:
                outcomes[i] = _call(fn)
                if not outcomes[i][0]:
                    break
    finally:
        for i, (pid, receive) in children.items():
            outcomes[i] = _call(lambda: _wait(pid, receive, calls[i][0]))
    for outcome in outcomes:
        if outcome is not None and not outcome[0]:
            raise outcome[1]
    return [value for _, value in outcomes]


def _call(fn):
    """``(True, fn())``, or ``(False, the exception fn raised)``."""
    try:
        return True, fn()
    except BaseException as exc:  # raised in list order by run
        return False, exc


def _start(fn):
    """Fork a child that runs ``fn()`` and return its pid and the end of
    its pipe, or None where the fork fails."""
    receive, send = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process or memory to spare
        os.close(receive)
        os.close(send)
        return None
    if pid == 0:
        _run_child(fn, receive, send)
    os.close(send)  # so that the pipe ends when the child does
    return pid, receive


def _run_child(fn, receive, send):
    global _in_child
    _in_child = True
    code = 1
    try:
        os.close(receive)
        outcome = _call(fn)
        with open(send, "wb") as pipe:
            pipe.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)


def _wait(pid, receive, name):
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
