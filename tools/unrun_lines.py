#!/usr/bin/env python3
"""List the lines of ``src/nvforge`` that no tier-1 test runs.

    python3 tools/unrun_lines.py [REV]     # any git revision, HEAD by default

REV is exported as :mod:`same_bytes` exports it.  A ``sitecustomize.py``
written into the export's ``src/`` line-traces ``src/nvforge`` with
``sys.settrace`` in every process that starts with that ``src`` on its
path, so also in the CLI children the tests start, and each process adds
the lines it ran to a file of its own when it exits.  Tier-1 then runs in
the export.  Prints ``module.py:line: text`` for every line of a code
object's ``co_lines()`` that no process ran, and exits 1 if there is any.
Standard library only; tier-1 runs several times slower under the trace.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

from same_bytes import export

#: Written into the export's src/; {package} and {out} are absolute paths.
SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_package, _ran, _kept = {package!r} + os.sep, set(), {{}}


def _line(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    keep = _kept.get(name)
    if keep is None:
        keep = _kept[name] = os.path.realpath(name).startswith(_package)
    if keep:
        _ran.add((name, frame.f_lineno))
        return _line
    return None


@atexit.register
def _write():
    sys.settrace(None)
    rows = "".join(f"{{os.path.relpath(os.path.realpath(f), _package)}}:{{n}}\\n" for f, n in _ran)
    with open(os.path.join({out!r}, f"{{os.getpid()}}.txt"), "a") as fh:
        fh.write(rows)


sys.settrace(_call)
threading.settrace(_call)
'''


def executable_lines(package: Path) -> dict[tuple[str, int], str]:
    """(module path, line) -> source text, for each line of every code object in ``package``."""
    lines = {}
    for path in sorted(package.rglob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        todo = [compile(source, str(path), "exec")]
        while todo:
            code = todo.pop()
            todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
            for _, _, n in code.co_lines():
                if n is not None:
                    lines[(str(path.relative_to(package)), n)] = text[n - 1].strip()
    return lines


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: unrun_lines.py [REV]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        root, out = Path(tmp) / "rev", Path(tmp) / "lines"
        out.mkdir()
        export(argv[0] if argv else "HEAD", root)
        package = root / "src" / "nvforge"
        (root / "src" / "sitecustomize.py").write_text(SITECUSTOMIZE.format(package=str(package.resolve()),
                                                                           out=str(out)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"),
                                                                         os.environ.get("PYTHONPATH")]))}
        tests = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                               cwd=root, env=env, stdout=subprocess.PIPE, text=True)
        print(f"tier-1: {tests.stdout.strip().splitlines()[-1]}", file=sys.stderr)
        ran = set()
        for path in out.iterdir():
            for row in path.read_text().splitlines():
                module, n = row.rsplit(":", 1)
                ran.add((module, int(n)))
        unrun = sorted((key, text) for key, text in executable_lines(package).items() if key not in ran)
    for (module, n), text in unrun:
        print(f"{module}:{n}: {text}")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
