"""Cold start: each command imports only what it runs.

Start-up is most of the wall-clock of a typical ``repro tune``, so the
package resolves its public names lazily and the default size-only
``tune``/``sweep`` path runs without numpy.  Every check here runs in a
fresh interpreter, where a missed lazy import shows as a failure
instead of a ``NameError`` for a user.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: a ``python -c`` prelude making any numpy import fail
NO_NUMPY = "import sys; sys.modules['numpy'] = None; "
#: ``python -c`` body running the CLI on the remaining arguments
RUN_CLI = "from repro.cli import main; sys.exit(main(sys.argv[1:]))"

#: modules a bare ``import repro.cli`` must leave unloaded
HEAVY_MODULES = (
    "numpy",
    "repro.bench.fabric",
    "repro.serve",
    "repro.guidelines",
    "repro.apps",
    "repro.obs.telemetry",
    "multiprocessing",
)

PACKAGES = (
    "repro",
    "repro.adcl",
    "repro.apps",
    "repro.apps.fft",
    "repro.bench",
    "repro.bench.fabric",
    "repro.guidelines",
    "repro.nbc",
    "repro.obs",
    "repro.serve",
    "repro.sim",
)


def run(code: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def run_cli(*args: str, numpy: bool = True, cwd=None):
    proc = run(("import sys; " if numpy else NO_NUMPY) + RUN_CLI, *args,
               cwd=cwd)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc.stdout


def test_import_cli_loads_no_heavy_module():
    proc = run("import json, sys\nimport repro.cli\n"
               "print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert not [m for m in HEAVY_MODULES if m in loaded]


@pytest.mark.parametrize("argv, expect", [
    (["platforms"], "bluegene_p"),
    (["tune", "--nprocs", "8", "--operation", "bcast"], "decision at iteration"),
    (["tune", "--nprocs", "8", "--operation", "allreduce"],
     "decision at iteration"),
    (["sweep", "--jobs", "1", "--nprocs", "8", "--nbytes", "4KB",
      "--iterations", "4"], "mean iteration time"),
])
def test_default_path_runs_without_numpy(argv, expect):
    assert expect in run_cli(*argv, numpy=False)


def test_serve_decision_runs_without_numpy():
    proc = run(NO_NUMPY + "from repro.serve.server import TuningServer\n"
               "from repro.serve.core import compute_decision, "
               "normalize_request\n"
               "req = normalize_request({'operation': 'bcast', 'nprocs': 8})\n"
               "print(compute_decision(req)['winner'])")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()


def test_numpy_block_is_effective():
    proc = run(NO_NUMPY + "import numpy")
    assert proc.returncode != 0 and "ModuleNotFoundError" in proc.stderr


@pytest.mark.parametrize("package", PACKAGES)
def test_lazy_exports_resolve(package):
    mod = importlib.import_module(package)
    listed = dir(mod)
    for name in mod.__all__:
        assert getattr(mod, name) is not None, name
        assert name in listed, name
    with pytest.raises(AttributeError):
        getattr(mod, "no_such_export")


@pytest.mark.parametrize("command", [
    "platforms", "tune", "sweep", "fft", "serve", "report", "trace-merge",
    "top", "bench-report", "verify-guidelines",
])
def test_subcommand_help(command):
    assert "usage:" in run_cli(command, "--help")


def test_subcommand_smoke(tmp_path):
    """One minimal invocation of each offline subcommand."""
    trace = str(tmp_path / "tune.json")
    assert "bluegene_p" in run_cli("platforms")
    assert "decision at iteration" in run_cli(
        "tune", "--nprocs", "4", "--nbytes", "1KB", "--iterations", "8",
        "--evals", "2", "--operation", "alltoall", "--trace", trace)
    assert "mean iteration time" in run_cli(
        "sweep", "--nprocs", "4", "--nbytes", "1KB", "--iterations", "2")
    assert "steady state" in run_cli(
        "fft", "--nprocs", "4", "--n", "16", "--iterations", "2",
        "--methods", "libnbc", "mpi")
    assert "valid trace" in run_cli("report", trace, "--validate")
    assert "critical path" in run_cli("report", trace,
                                      "--critical-path").lower()
    merged = str(tmp_path / "merged.json")
    assert "merged 1 trace" in run_cli("trace-merge", merged, f"t={trace}")
    assert "no history" in run_cli(
        "bench-report", "--history", str(tmp_path / "none.jsonl"))
    assert "rule catalogue" in run_cli("verify-guidelines", "--list-rules")
