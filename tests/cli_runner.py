"""Run ``kronmot.cli.main`` in process and capture what it writes."""

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

from kronmot.cli import main


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved, in the order written


class _Tee(io.StringIO):
    """A captured stream that also copies every write to ``both``."""

    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


def invoke(*args: str) -> Result:
    """``kronmot <args>`` in process.  argparse ends ``--help`` and usage
    errors by raising ``SystemExit``; its code is the exit code."""
    both = io.StringIO()
    out, err = _Tee(both), _Tee(both)
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    return Result(code, out.getvalue(), err.getvalue(), both.getvalue())
