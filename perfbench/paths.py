"""Locate the program under test: ``src/repro`` next to this directory."""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: scratch space for one run (listed in the repository's .gitignore)
WORK = os.path.join(ROOT, ".perfbench_work")


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` to measure."""


def use_source_tree() -> None:
    """Put ``src`` first on ``sys.path`` or raise :class:`MissingProgram`.

    Checked explicitly so a benchmark copied away from its program can
    never measure some other installed ``repro``.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingProgram(f"no program to measure: {SRC}/repro is missing")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> dict:
    """Environment for subprocesses that run the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env
