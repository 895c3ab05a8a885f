"""Worker interpreters that score contiguous blocks of independent work.

``map_shards(fn, args, items)`` returns what ``fn(*args, items)`` returns,
a list with one entry per item, but may split ``items`` into contiguous
blocks: the calling process scores items one at a time from the front,
each idle worker interpreter is handed a block from the back of what the
caller has left, and the results are joined in item order. A result
therefore never depends on the number of workers, nor on when they became
ready.

One pool serves the whole process (``rolling_cv``, and through it the
``crossval`` command). ``LRDFORECAST_WORKERS`` counts the processes that
compute, the caller included; unset, it is the number of usable cores,
capped by the cgroup's CPU quota, and 1 runs everything in the caller.

Workers are plain ``python -c`` subprocesses that run ``_serve``, not
multiprocessing children, whose spawn and forkserver methods re-run the
caller's ``__main__``: a script that calls ``rolling_cv`` unguarded would
run again in every worker. Each talks to the caller over one duplex
``multiprocessing`` channel, a socket pair, one pickled message per task
or reply. A worker takes about 0.35 s of CPU to import lrdforecast, most
of it scipy.special (Python 3.11, scipy 1.17, one Xeon core), so no call
waits for one: the first call with at least two items launches up to one
fewer workers than it has items, and a worker that reports ready while a
call runs is handed part of what the caller has left of it.

The channel is the only way the caller learns that a worker failed: a
worker replies, or the caller computes its block. A worker that ended, or
whose reply does not unpickle, is dropped and its block computed here, so
an exception raised in a block reaches the caller as itself for any number
of workers. Only an end, or another lrdforecast, before a worker reports
ready turns the pool off. Workers are killed at exit, and a worker scores
its block one item at a time, so one whose caller was killed stops before
its next item.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import select
import sys
import threading
import traceback
from pathlib import Path

from .errors import MalformedInput

WORKERS_ENV = "LRDFORECAST_WORKERS"

_PACKAGE_FILE = os.path.realpath(os.path.join(os.path.dirname(__file__), "__init__.py"))
_CGROUP_ROOT = "/sys/fs/cgroup"
_SERVE = "import sys; from lrdforecast._pool import _serve; _serve(int(sys.argv[1]))"


def worker_count() -> int:
    """Processes that compute, the caller included, from LRDFORECAST_WORKERS,
    else the usable cores capped by the cgroup's CPU quota. An empty value
    counts as unset; any other value must be an integer >= 1."""
    text = os.environ.get(WORKERS_ENV)
    if text:
        if not text.strip().isdecimal() or int(text) < 1:
            raise MalformedInput(f"{WORKERS_ENV} must be an integer >= 1, got {text!r}")
        return int(text)
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return min(cores, _cpu_quota() or cores)


def _cpu_quota() -> int | None:
    """The cgroup's CPU quota in whole CPUs, rounded up, from cgroup v2's
    cpu.max, else v1's CFS quota and period; None for no quota ("max" or
    -1) or a file that cannot be read."""
    for names in (["cpu.max"], ["cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us"]):
        try:
            text = " ".join(Path(_CGROUP_ROOT, n).read_text() for n in names)
            quota, period = map(int, text.split())
        except (OSError, ValueError):  # unreadable, or "max"
            continue
        if quota > 0 and period > 0:
            return -(-quota // period)
    return None


def _call_shard(fn, args, items) -> tuple:
    """(True, fn(*args, items)), or (False, exception) if it raised."""
    try:
        return True, fn(*args, items)
    except Exception as exc:  # raised in the caller once every block is in
        return False, exc


def _serve(fd: int) -> None:
    """A worker's loop on its end of the channel, the descriptor fd. It
    first sends the realpath of the lrdforecast it imported, then answers
    each ``(fn, args, items)`` task with ``_call_shard``'s ``(ok, value)``,
    an exception with the worker's traceback as a note. A reply that cannot
    be pickled ends the worker, and the caller computes that block itself.
    It returns when the caller closes the channel, or ends: the caller
    sends nothing to a worker until it has replied, so a channel readable
    between two items is at its end."""
    from multiprocessing.connection import Connection

    with Connection(fd) as conn:
        try:
            conn.send(_PACKAGE_FILE)
            while True:
                fn, args, items = conn.recv()
                reply = True, []
                for i in range(len(items)):
                    if conn.poll():  # the caller is gone
                        return
                    ok, value = _call_shard(fn, args, items[i:i + 1])
                    if not ok:
                        text = "".join(traceback.format_exception(value))
                        value.add_note(f"in an lrdforecast worker:\n{text}")
                        reply = False, value
                        break
                    reply[1].extend(value)
                conn.send(reply)
        except (EOFError, ConnectionError):  # the caller is gone
            return


class _Worker:
    """One worker interpreter: its process, the caller's end of its channel,
    and whether it has reported which lrdforecast it imported."""

    def __init__(self, proc, conn):
        self.proc, self.conn, self.ready = proc, conn, False

    def fileno(self) -> int:  # for select
        return self.conn.fileno()

    def close(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.conn.close()


class Pool:
    """The worker interpreters of one process. Only the process that
    created the pool uses or reaps its workers; in a forked child, or a
    multiprocessing child, every call runs in the caller."""

    def __init__(self):
        self._pid = os.getpid()
        self._lock = threading.Lock()  # one dispatch at a time
        self._workers: list[_Worker] = []
        # False without sockets select can poll or an interpreter to
        # start, or once a worker failed to check in
        self._usable = os.name == "posix" and bool(sys.executable)
        atexit.register(self.close)

    def map_shards(self, fn, args: tuple, items) -> list:
        """fn(*args, items), a list with one entry per item, computed in
        contiguous blocks by the caller and the ready workers and joined in
        item order. fn must be importable by name. If a block raised, the
        first such exception in item order is raised once all are in; a
        worker that does not reply has its block computed here."""
        want = min(worker_count() - 1, len(items) - 1)
        if (want < 1 or os.getpid() != self._pid
                or multiprocessing.parent_process() is not None
                or not self._lock.acquire(blocking=False)):
            return fn(*args, items)
        try:
            return self._dispatch(fn, args, items, want)
        finally:
            self._lock.release()

    def _dispatch(self, fn, args, items, want: int) -> list:
        lo, hi = 0, len(items)  # the caller's part, items[lo:hi]
        blocks = {}  # start of a computed block: (ok, value)
        busy = {}  # worker: (start, stop) of the block it computes

        def finish(w):  # take w's reply, or compute its block here
            reply = self._reply(w)
            start, stop = busy.pop(w)
            blocks[start] = reply or _call_shard(fn, args, items[start:stop])

        try:
            while lo < hi:
                for w in select.select(list(busy), [], [], 0)[0]:
                    finish(w)
                idle = self.ready(want, busy)[:hi - lo - 1]
                # each idle worker takes a block from the back, half an
                # equal share, so that it comes back for more before the end
                size = max(1, (hi - lo) // (2 * len(idle) + 2))
                for w in idle:
                    start, stop, hi = hi - size, hi, hi - size
                    busy[w] = start, stop
                    try:
                        w.conn.send((fn, args, items[start:stop]))
                    except OSError:  # it ended: finish computes the block
                        pass
                blocks[lo] = _call_shard(fn, args, items[lo:lo + 1])
                lo += 1
                if not blocks[lo - 1][0]:
                    break  # every later item is past this exception
            while busy:
                finish(next(iter(busy)))
        except BaseException:  # an interrupt: the replies in flight are lost
            for w in busy:
                self._drop(w)
            raise
        out = []
        for start in sorted(blocks):
            ok, value = blocks[start]
            if not ok:
                raise value
            out.extend(value)
        return out

    def _reply(self, w):
        """The worker's next message, or None, and the worker dropped, if it
        ended or the message does not unpickle."""
        try:
            return w.conn.recv()
        except Exception:  # whatever the cause, its block is computed here
            self._drop(w)
            return None

    def ready(self, want: int, busy=()) -> list:
        """The ready workers not in ``busy``, at most ``want`` less the
        busy ones; launches workers up to ``want`` in all without waiting
        for them. Any other worker that can be read from has checked in or
        ended: an end, or another lrdforecast, before check-in turns the
        pool off; a ready worker that ended is dropped."""
        for w in select.select([w for w in self._workers if w not in busy], [], [], 0)[0]:
            if w.ready or self._reply(w) != _PACKAGE_FILE:
                self._usable = self._usable and w.ready
                self._drop(w)
            else:
                w.ready = True
        while self._usable and len(self._workers) < want:
            try:
                self._workers.append(self._launch())
            except OSError:  # no process to be had: stay in the caller
                self._usable = False
        return [w for w in self._workers if w.ready and w not in busy][:want - len(busy)]

    @staticmethod
    def _launch() -> _Worker:
        """Start a worker that runs _serve, its end of the channel its one
        argument. Its standard input is empty and its standard output is
        the caller's standard error, so nothing it prints, even while
        importing, reaches the channel. In a session of its own, it does
        not get the terminal's interrupts: the caller handles those, and
        kills it."""
        import subprocess

        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        conn, theirs = multiprocessing.Pipe()
        with theirs:
            try:
                proc = subprocess.Popen(
                    [sys.executable, "-c", _SERVE, str(theirs.fileno())],
                    stdin=subprocess.DEVNULL, stdout=2, pass_fds=(theirs.fileno(),),
                    start_new_session=True, env=env)
            except BaseException:
                conn.close()
                raise
        return _Worker(proc, conn)

    def _drop(self, w: _Worker) -> None:
        if w in self._workers:
            self._workers.remove(w)
            w.close()

    def close(self) -> None:
        """Kill and reap every worker, started or starting; the pool stays
        usable and launches new workers when next needed."""
        if os.getpid() != self._pid:
            return
        while self._workers:
            self._workers.pop().close()


POOL = Pool()
map_shards = POOL.map_shards
