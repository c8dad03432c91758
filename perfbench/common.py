"""Shared plumbing of the benchmark: paths, seeds, statistics and output."""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import sys
import zlib
from pathlib import Path

#: Repository root: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for state directories, edge files and span dumps.  Listed
#: in the root ``.gitignore``; every run removes its own sub-directory.
WORK_ROOT = ROOT / ".perfbench_work"

#: Backend every workload runs on.
BACKEND = "numpy"


class BenchmarkError(RuntimeError):
    """The benchmark cannot run (missing program, server that never came up)."""


def require_program() -> None:
    """Put ``<root>/src`` first on ``sys.path`` and import the program from it.

    Fails when the checkout has no ``src/repro`` (a directory holding only
    the benchmark), or when ``repro`` would resolve to another copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to benchmark: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchmarkError(f"repro resolved outside the checkout: {repro.__file__}")


def program_env() -> dict[str, str]:
    """Environment for child processes that run the program from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_BACKEND", None)
    return env


def derive_seed(seed: int, stream: str) -> int:
    """A stable 32-bit seed for one named input stream of run ``seed``."""
    return zlib.crc32(f"{seed}:{stream}".encode("utf-8"))


#: Seed of the graph *structure* shared by every run.  The Holme–Kim
#: generator's maximum degree swings by half between seeds, and star/path
#: enumeration cost follows it, so a per-run structure would make run-to-run
#: spread a property of the generator rather than of the program.  Each run's
#: ``--seed`` instead relabels the nodes (a seeded permutation) and drives
#: every order, session, group assignment and mutation.
STRUCTURE_SEED = zlib.crc32(b"perfbench.structure")


def relabeled_edges(num_nodes: int, degree: float, seed: int, stream: str) -> list:
    """Both directions of every edge of the pinned collaboration graph,
    with node ids permuted by ``(seed, stream)``; sorted."""
    import numpy as np
    from repro.graphs.generators import collaboration_graph

    graph = collaboration_graph(num_nodes, degree, seed=STRUCTURE_SEED)
    perm = np.random.default_rng(derive_seed(seed, stream)).permutation(num_nodes)
    edges = set()
    for u, v in graph.edges():
        a, b = int(perm[u]), int(perm[v])
        edges.add((a, b))
        edges.add((b, a))
    return sorted(edges)


def make_workdir() -> Path:
    path = WORK_ROOT / str(os.getpid())
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass  # another run still has its directory there


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile ``p`` (0-100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


#: Tail percentiles tried from the top; the reported one is the highest with
#: at least ten samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail(values) -> tuple[float, float] | None:
    """``(percentile, value)`` of the highest supported tail, or ``None``."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p, percentile(values, p)
    return None


def info(line: str) -> None:
    """A human-readable line; the result JSON is always the last line."""
    print(line, flush=True)


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result line: ``metrics`` maps name -> (value, unit)."""
    payload = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(payload), flush=True)


def same_float(a, b) -> bool:
    """Bitwise float equality (distinguishes ``0.0``/``-0.0``, matches NaNs)."""
    return isinstance(a, (int, float)) and isinstance(b, (int, float)) and (
        float(a).hex() == float(b).hex()
    )
