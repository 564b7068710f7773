"""Forked child processes: the one helper through which a run puts work
beside itself, the sweep's members (`longtime.kramers_sweep`) and the
stepping of the record loop (`records.trajectory`).

A child computes what the process that forked it would compute in its
place, from the state it was forked with, and only sends: it never reads
from the process that forked it.  So a run writes the same bytes on one
CPU and on many.
"""

from __future__ import annotations

from .errors import CfpkError


class Forked:
    """`target(*args, send)` in a forked child, which sends its results over
    `send`, the write end of a one-way pipe that this process reads.

    Used in a `with` block, which joins the child on leaving, and first
    terminates it when the block is left by an exception (an interrupt
    included): no path leaves it running.  `receive` returns the child's
    next result; a child that exits before sending it raises a CfpkError
    naming `what` and the exit code, with the exit code added to
    `diagnostics`."""

    def __init__(self, target, args: tuple, what: str, diagnostics: dict):
        import multiprocessing  # here, not at the top: it would add to `import cfpk`

        ctx = multiprocessing.get_context("fork")
        self.what, self.diagnostics = what, diagnostics
        self.recv, send = ctx.Pipe(duplex=False)
        self.process = ctx.Process(target=target, args=(*args, send))
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

    def receive(self):
        """The child's next result, once it has sent it."""
        try:
            return self.recv.recv()
        except EOFError:
            self.process.join()
            code = self.process.exitcode
            raise CfpkError(
                f"{self.what} exited with code {code} before sending its result",
                diagnostics={**self.diagnostics, "exitcode": code},
            ) from None
