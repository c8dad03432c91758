"""Run ``repro-dp serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/traced_serve.py SPANS_JSON serve [serve options]``
with ``src`` on ``PYTHONPATH``.  The spans are kept in memory and written
to ``SPANS_JSON`` when the server exits (SIGTERM drain included).
"""

from __future__ import annotations

import sys

from tracer import Recorder, install


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from repro.cli import main as cli_main

    recorder = Recorder()
    install(recorder)
    try:
        return cli_main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
