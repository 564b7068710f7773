"""Forked child processes: the one helper through which a run puts work
beside itself, the sweep's members (`longtime.kramers_sweep`) and the record
loop (`records.trajectory`).

A child computes what the process that forked it would compute in its
place, from the state it was forked with and what it is sent, so a run
writes the same bytes on one CPU and on many.
"""

from __future__ import annotations

from .errors import CfpkError


class Forked:
    """`target(*args, send)` in a forked child, which sends its result over
    `send`, the write end of a one-way pipe; with `feed`, the child reads a
    second one-way pipe, as `target(*args, feed, send)`, that this process
    writes with `self.feed` and closes when it has no more to send.

    Used in a `with` block, which joins the child on leaving, and first
    terminates it when the block is left by an exception (an interrupt
    included): no path leaves it running.  `receive` returns the child's
    result; a child that exits before sending raises a CfpkError naming
    `what` and the exit code, with the exit code added to `diagnostics`."""

    def __init__(self, target, args: tuple, what: str, diagnostics: dict, feed: bool = False):
        import multiprocessing  # here, not at the top: it would add to `import cfpk`

        ctx = multiprocessing.get_context("fork")
        self.what, self.diagnostics = what, diagnostics
        self.recv, send = ctx.Pipe(duplex=False)
        feed_ends = ctx.Pipe(duplex=False) if feed else None
        self.process = ctx.Process(target=_child, args=(target, args, feed_ends, send))
        self.process.start()
        # closed before anything else forks, so that the pipe reads EOF once the child is gone
        send.close()
        self.feed = None
        if feed:
            # so that a write fails once the child is gone, instead of filling the pipe
            feed_ends[0].close()
            self.feed = feed_ends[1]

    def __enter__(self) -> "Forked":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if kind is not None:
            self.process.terminate()
        if self.feed is not None:
            self.feed.close()
        self.process.join()
        self.recv.close()

    def receive(self):
        """The child's result, once it has sent it."""
        try:
            return self.recv.recv()
        except EOFError:
            self.process.join()
            code = self.process.exitcode
            raise CfpkError(
                f"{self.what} exited with code {code} before sending its result",
                diagnostics={**self.diagnostics, "exitcode": code},
            ) from None


def _child(target, args: tuple, feed_ends, send) -> None:
    if feed_ends is None:
        target(*args, send)
        return
    feed, parent_end = feed_ends
    # this process's copy of the parent's write end: left open, `feed` never reads EOF
    parent_end.close()
    target(*args, feed, send)
