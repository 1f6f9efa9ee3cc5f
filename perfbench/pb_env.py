"""Where the benchmark finds the package, and the environment it runs in.

The benchmark always measures the source tree it sits in (``../src``), never
an installed copy, and refuses to run when that tree is missing.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# Single-threaded BLAS/OpenMP here and in every child process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class MissingSource(RuntimeError):
    pass


def bootstrap() -> None:
    """Pin threads, put ``src`` first on the path and import the package
    from it; raises MissingSource when the tree has no package."""
    if not (SRC / "toyfield" / "__init__.py").is_file():
        raise MissingSource(f"no toyfield package under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import toyfield

    if Path(toyfield.__file__).resolve().parent != SRC / "toyfield":
        raise MissingSource(f"toyfield was imported from {toyfield.__file__}")


CPUS = sorted(os.sched_getaffinity(0))


def pin_to_one_cpu() -> int:
    """Keep this process, and the child processes it starts, on one CPU, so
    that the speed kernel (``pb_clock``) runs on the CPU of the operations
    it scales; returns that CPU."""
    os.sched_setaffinity(0, {CPUS[-1]})
    return CPUS[-1]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the package and benchmark sources, in path order; it
    identifies the code measured where no git commit is available."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy
    import toyfield

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "toyfield_version": toyfield.__version__,
        "python": sys.version.split()[0],
        "python_implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": len(CPUS),
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }
