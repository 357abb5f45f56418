"""Ordered map over forked workers, one per usable CPU.

Worker 0 is the calling process; the others are forked children that pickle
each result into their own pipe, so a child blocks once its pipe is full and
the results in flight stay bounded.  Results equal the serial map's.
"""

import os
import pickle
import threading


def _serve(fn, items, out) -> None:
    """A child's work: one pickled (ok, value) per item, stopping after a failure."""
    for item in items:
        try:
            result = (True, fn(item))
        except Exception as exc:
            result = (False, exc)
        out.write(pickle.dumps(result))
        out.flush()
        if not result[0]:
            return


def ordered_map(fn, items):
    """Yield fn(item) for each item in order; item i is computed by worker i mod W.

    W is the number of usable CPUs capped at the item count.  Nothing is
    forked with W = 1, without os.fork or os.sched_getaffinity, or while
    another Python thread runs: the child would hold a copy of any lock that
    thread held, and nothing would release it.  If a fork fails, the caller
    computes the items of that worker and of every later one.  An exception
    fn raises in a child is raised here with its type and message.  Children
    are reaped when the generator ends, raises or is closed; a child still
    computing stops at its next write.
    """
    items = list(items)
    forks = (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
             and threading.active_count() == 1)
    workers = min(len(os.sched_getaffinity(0)) if forks else 1, len(items))
    children = []  # (pid, result pipe) of workers 1 .. len(children)
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # such as EAGAIN at a process limit
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:  # the child never returns into the caller's code
                status = 1
                try:
                    os.close(read_fd)
                    for _, pipe in children:
                        pipe.close()
                    with os.fdopen(write_fd, "wb") as out:
                        _serve(fn, items[w::workers], out)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        for i, item in enumerate(items):
            w = i % workers
            if not 0 < w <= len(children):
                yield fn(item)
                continue
            try:
                ok, value = pickle.load(children[w - 1][1])
            except EOFError:
                raise ChildProcessError(f"worker of item {i} exited without its result") from None
            if not ok:
                raise value
            yield value
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
