"""Run ``python -m repro serve`` with a CPU-time profiler in every thread.

Usage::

    python3 perfbench/serve_profiled.py OUT.prof serve --socket PATH ...

``python -m cProfile`` sees only the main thread, and the daemon does
its work in connection and compute threads; this launcher gives each
thread its own ``cProfile.Profile`` on the thread's CPU clock and, once
the daemon has drained (SIGTERM), writes the merged ``pstats`` file.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import layers, paths  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    paths.use_source_tree()
    finished = []
    lock = threading.Lock()
    thread_run = threading.Thread.run

    def profiled_run(self):
        prof = cProfile.Profile(time.thread_time)
        prof.enable()
        try:
            thread_run(self)
        finally:
            prof.disable()
            with lock:
                finished.append(prof)

    threading.Thread.run = profiled_run
    from repro.cli import main as repro_main

    prof = cProfile.Profile(time.thread_time)
    prof.enable()
    try:
        code = repro_main(argv)
    finally:
        prof.disable()
        with lock:
            profiles = [prof, *finished]
        stats = pstats.Stats()
        stats.stats = layers.merge(profiles)
        stats.dump_stats(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
