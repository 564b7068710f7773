"""Forked child processes: the one helper through which a run puts work
beside itself, the sweep's members (`longtime.kramers_sweep`) and the
stepping of the record loop (`records.trajectory`), and `cpus`, the number
of CPUs that decides whether a run forks at all.

A child iterates an iterator that the process which forked it built and
never advances, and sends each item; it never reads from that process.
Iterating a `Forked` gives those items, and raises what the iterator
raised where it raised it, so a caller reads the same items and errors as
in-process, and a run writes the same bytes on one CPU and on many.
"""

from __future__ import annotations

import os

from .errors import CfpkError


def cpus() -> int:
    """The CPUs this process may use (`taskset` narrows them)."""
    return len(os.sched_getaffinity(0))


class _End:
    """A child's last message: the exception that stopped its items, or None."""

    def __init__(self, error: Exception | None):
        self.error = error


def _send(items, recv, send) -> None:
    """The child: sends each item of `items`, then an `_End`.  Without its
    copy of the read end, a send fails once the reader is gone, and the
    child ends quietly instead of blocking on a full pipe."""
    recv.close()
    try:
        try:
            for item in items:
                send.send(item)
            end = _End(None)
        except Exception as exc:
            end = _End(exc)
        send.send(end)
    except BrokenPipeError:
        pass


class Forked:
    """The items of the iterator `items`, iterated in a forked child, which
    sends them over a one-way pipe that this process reads.

    Used in a `with` block, which joins the child on leaving, and first
    terminates it when the block is left by an exception (an interrupt
    included): no path leaves it running.  Iterating it yields the child's
    items in order and raises the exception that stopped them; a child
    that exits before its end raises a CfpkError naming `what` and the exit
    code, with the exit code added to `diagnostics`."""

    def __init__(self, items, what: str, diagnostics: dict):
        import multiprocessing  # here, not at the top: it would add to `import cfpk`

        ctx = multiprocessing.get_context("fork")
        self.what, self.diagnostics = what, diagnostics
        self.recv, send = ctx.Pipe(duplex=False)
        self.process = ctx.Process(target=_send, args=(items, self.recv, send))
        self.process.start()
        # closed before anything else forks, so that the pipe reads EOF once the child is gone
        send.close()

    def __enter__(self) -> "Forked":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if kind is not None:
            self.process.terminate()
        self.process.join()
        self.recv.close()

    def __iter__(self):
        while True:
            try:
                out = self.recv.recv()
            except EOFError:
                self.process.join()
                code = self.process.exitcode
                raise CfpkError(
                    f"{self.what} exited with code {code} before sending its result",
                    diagnostics={**self.diagnostics, "exitcode": code},
                ) from None
            if isinstance(out, _End):
                if out.error is not None:
                    raise out.error
                return
            yield out
