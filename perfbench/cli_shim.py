"""Traced stand-in for ``python -m nvforge.cli``.

Usage: ``cli_shim.py SPANS_JSON <nvforge cli arguments...>``.  Imports the
CLI, wraps nvforge's public functions in spans, runs the command, and
writes the spans to SPANS_JSON; the exit code is the CLI's own.
"""

import json
import sys

from nvforge import cli
from perfbench import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = tracing.Recorder()
    undo = tracing.install(recorder)
    index = recorder.begin("cli.main")
    try:
        code = cli.main(argv)
    finally:
        recorder.end(index)
        tracing.uninstall(undo)
        with open(spans_path, "w") as fh:
            json.dump(recorder.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
