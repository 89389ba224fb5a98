"""The one way this package runs work on more than one core.

`ForkPool` runs a function over a list of items on the calling process and
on forked worker processes, item i on process i mod (workers + 1), the
caller being process 0. It is the one reader of the CPU count: a pool for
at most `most` items per `map` call starts min(most, available CPUs) - 1
workers. `meta_train` runs the inner loops of each meta-batch through it,
`generate_world` each DLP of the world, supervised training each batch's row
shards and `grad_check` its coordinate chunks. Each item must give the same
result wherever it runs, so the CPU count never changes an output; on one
CPU no process is started. Every item counts as one CPU, on a worker and on
the caller alike, so a pool opened inside an item starts no process: the
pool that runs the item already keeps the other CPUs busy. `environment`
reports the CPU count, with the numpy, BLAS and Python a run used.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import signal

import numpy as np

from .errors import StateError


#: Set in a worker when it starts, and in the caller while it runs its own
#: items: available_cpus() is then 1 there.
_IN_WORKER = False


def available_cpus() -> int:
    """CPUs this process may fill: one inside an item a ForkPool runs."""
    if _IN_WORKER:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def environment() -> dict:
    """What this process runs on, for a run's records: the numpy version,
    the name and version of the BLAS numpy was built with ("unknown" when
    numpy does not say), the CPUs a pool may fill and the Python version."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {"numpy": np.__version__, "blas": blas_name, "cpus": available_cpus(),
            "python": platform.python_version()}


def _run_items(fn, common, items) -> tuple[dict, dict]:
    """Run `items`, (index, item) pairs, in order until one raises: returns
    each finished item's result and the failure, keyed by index."""
    done = {}
    for i, item in items:
        try:
            done[i] = fn(*common, item)
        except Exception as exc:  # shipped to, or raised later by, ForkPool.map
            return done, {i: exc}
    return done, {}


def _serve(conn, fn, inherited) -> None:
    """A worker's loop: answer each (common, items) with _run_items' result
    until the caller closes its end of the pipe."""
    global _IN_WORKER
    _IN_WORKER = True
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles Ctrl-C and closes the pipe
    for other in inherited:  # else a pipe would stay open after the caller died
        other.close()
    try:
        while True:
            conn.send(_run_items(fn, *conn.recv()))
    except (EOFError, OSError):
        return


class ForkPool:
    """Runs `fn(*common, item)` for the items of each `map` call, at most
    `most` of them, on this process and min(most, available_cpus()) - 1
    forked processes; `what` names the caller in the error raised when a
    worker dies.

    Fork, not spawn: a worker must inherit `fn` (a closure, say), what it
    reads and any module global a caller has patched. Only `common`, the
    items and the results cross a pipe."""

    def __init__(self, fn, most: int, what: str):
        self._fn = fn
        self._what = what
        self._workers = []  # (started process, this end of its pipe)
        ctx = multiprocessing.get_context("fork")
        try:
            for _ in range(min(most, available_cpus()) - 1):
                conn, child = ctx.Pipe()
                inherited = [c for _, c in self._workers] + [conn]
                proc = ctx.Process(target=_serve, args=(child, fn, inherited), daemon=True)
                try:
                    proc.start()
                except BaseException:
                    conn.close()
                    raise
                finally:
                    child.close()  # the worker holds its own copy of this end
                self._workers.append((proc, conn))
        except BaseException as exc:
            self.close()
            if isinstance(exc, OSError):  # the system's limit, not the data
                raise StateError(f"{what}: could not start a worker process ({exc})") from exc
            raise

    def __enter__(self) -> "ForkPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def map(self, common: tuple, items) -> list:
        """Each item's result, in item order. When items fail, the first
        failure in item order is raised, as in a serial loop."""
        global _IN_WORKER
        jobs = list(enumerate(items))
        stride = len(self._workers) + 1
        for w, (_, conn) in enumerate(self._workers, start=1):
            try:
                conn.send((common, jobs[w::stride]))
            except OSError:  # the worker is gone; reading its reply below says so
                pass
        was, _IN_WORKER = _IN_WORKER, True
        try:
            done, failed = _run_items(self._fn, common, jobs[::stride])
        finally:
            _IN_WORKER = was
        for proc, conn in self._workers:
            try:
                their_done, their_failed = conn.recv()
            except (EOFError, OSError):
                raise StateError(f"{self._what} worker {proc.pid} exited "
                                 f"before it replied") from None
            done.update(their_done)
            failed.update(their_failed)
        if failed:
            raise failed[min(failed)]
        return [done[i] for i, _ in jobs]

    def close(self) -> None:
        """Close every pipe, end every worker and release its resources."""
        for _, conn in self._workers:
            conn.close()
        for proc, _ in self._workers:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join()
            proc.close()
        self._workers = []
