"""Traced server entry point: ``python launcher.py TRACE_OUT [server args]``.

Installs the span wrappers of :mod:`tracing` into this process, then
runs the real ``python -m repro.server`` main with the remaining
arguments. When the server has drained (SIGTERM), the spans kept in
memory and the names of any boundaries that could not be found are
written to ``TRACE_OUT`` as JSON.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main(argv) -> None:
    out, server_args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    missing = tracing.install(tracer)
    from repro.server.__main__ import main as server_main

    try:
        server_main(server_args)
    finally:
        tracer.dump(out, missing)


if __name__ == "__main__":
    main(sys.argv[1:])
