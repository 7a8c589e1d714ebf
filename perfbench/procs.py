"""Process hygiene of one benchmark run: every process the run starts has
ended, and been waited for, before the run exits — on every path out.

* :func:`adopt_orphans` makes this process the child subreaper of its
  descendants (Linux ``prctl``).  A process whose parent exits first —
  the ``multiprocessing`` resource tracker of a stopped server, say — is
  then re-parented here instead of to init, so this process can wait
  for it and it never outlives the run, not even as a zombie;
* :func:`die_with_parent` (a ``preexec_fn``) has the kernel SIGKILL a
  child when this process dies, even by SIGKILL; a server dying that
  way takes its shard workers and resource tracker with it;
* :func:`abort_on_signals` turns SIGTERM, SIGHUP and the run's own
  deadline (SIGALRM) into :class:`RunAborted`, so the ``finally``
  blocks that stop the server run; a second signal during that clean-up
  is ignored;
* :func:`reap_all` stops this process's own resource tracker, SIGKILLs
  every descendant still alive and waits until none is left.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time

from perfbench.measure import ProcessTree

#: ``prctl`` options (linux/prctl.h)
PR_SET_PDEATHSIG = 1
PR_SET_CHILD_SUBREAPER = 36


class RunAborted(KeyboardInterrupt):
    """A signal or the run's deadline ended the run early.  A
    KeyboardInterrupt, so that neither ``except Exception`` nor an
    asyncio callback (which logs any other exception and goes on)
    swallows it on the way out."""


def _prctl(option: int, arg: int) -> bool:
    try:
        return ctypes.CDLL(None).prctl(option, arg, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False  # not Linux


def adopt_orphans() -> bool:
    """Become the child subreaper of every later descendant; False where
    the kernel does not offer it (orphans then go to init)."""
    return _prctl(PR_SET_CHILD_SUBREAPER, 1)


def die_with_parent(parent: int) -> None:
    """``preexec_fn`` of a child of ``parent``: SIGKILL when it dies."""
    _prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # the parent died before the prctl
        os._exit(1)


def abort_on_signals(deadline_s: int) -> None:
    """Raise :class:`RunAborted` on SIGTERM, SIGHUP, or ``deadline_s``
    seconds from now."""
    signals = (signal.SIGTERM, signal.SIGHUP, signal.SIGALRM)

    def _abort(signum, frame):
        for s in signals:
            signal.signal(s, signal.SIG_IGN)
        signal.alarm(0)
        raise RunAborted(f"stopped by {signal.Signals(signum).name}")

    for s in signals:
        signal.signal(s, _abort)
    signal.alarm(deadline_s)


def reap_all(timeout: float = 10.0) -> None:
    """Stop this process's resource tracker, SIGKILL every descendant
    still alive and wait until none is left (zombies included)."""
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()
    except Exception:  # pragma: no cover - tracker already gone
        pass
    tree = ProcessTree(os.getpid())
    deadline = time.perf_counter() + timeout
    while True:
        left = tree.pids()[1:]
        if not left:
            return
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)  # a no-op on a zombie
            except ProcessLookupError:
                pass
        while True:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if pid == 0:
                break
        if time.perf_counter() > deadline:
            raise RuntimeError(f"processes {left} did not end")
        time.sleep(0.01)
