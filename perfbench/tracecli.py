"""Run one `kronmot` CLI request under the tracer.

    PERFBENCH_TRACE_OUT=out.json python3 perfbench/tracecli.py <kronmot args>

Behaves like the `kronmot` command (same stdout, stderr and exit code) and
writes the request's spans to the file named by ``PERFBENCH_TRACE_OUT``:
the import time of ``kronmot.cli`` and a root span ``cli.dispatch``
around the command's entry point.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    t0 = perf_counter()
    import kronmot.cli

    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    code = 0
    try:
        with tracer.task("cli.dispatch", "cli"):
            try:
                kronmot.cli._entry()  # the `kronmot` console-script entry point
            except SystemExit as exc:
                code = exc.code or 0
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    Path(os.environ["PERFBENCH_TRACE_OUT"]).write_text(
        json.dumps({"import_s": import_s, **tracer.snapshot()}))
    return code


if __name__ == "__main__":
    sys.exit(main())
