"""The repository benchmark: one command per workload, untraced or traced.

    python3 perfbench/run.py --workload lattice-cold --seed 1 --seconds 10 --trace 0

Prints human-readable lines, then as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Exits 1 when an output check fails and 2 when the benchmark
cannot run (for instance without the program's ``src`` next to it).  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
import traceback

import common

WORKLOADS = ("lattice-cold", "serve-session", "serve-mutate")


def declared_metrics(trace: bool) -> dict[str, str]:
    """``{name: unit}`` of the metrics ``BENCHMARK.json`` declares."""
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def complete(metrics: dict, declared: dict[str, str]) -> dict:
    """Add the layers a workload does not exercise (0) and insist that the
    measured names and units are exactly the declared ones."""
    unknown = sorted(set(metrics) - set(declared))
    if unknown:
        raise common.BenchmarkError(f"metrics missing from BENCHMARK.json: {unknown}")
    for name, (_, unit) in metrics.items():
        if unit != declared[name]:
            raise common.BenchmarkError(f"{name}: unit {unit!r} != declared {declared[name]!r}")
    return {name: metrics.get(name, (0.0, unit)) for name, unit in declared.items()}


def environment() -> str:
    try:
        import numba  # noqa: F401

        numba_state = "available"
    except ImportError:
        numba_state = "absent"
    return (f"python {platform.python_version()}, nproc {os.cpu_count()}, "
            f"backend {common.BACKEND}, numba {numba_state}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--size", default="full", choices=("full", "tiny"),
        help="input sizes; 'tiny' is for the smoke test only",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        common.require_program()
        declared = declared_metrics(bool(args.trace))
        common.info(f"{args.workload} seed {args.seed}: {environment()}")
        workdir = common.make_workdir()
        try:
            if args.workload == "lattice-cold":
                import lattice

                outcome = lattice.run(args.seed, args.seconds, bool(args.trace), args.size, workdir)
            else:
                import serve

                runner = serve.run_session if args.workload == "serve-session" else serve.run_mutate
                outcome = runner(args.seed, args.seconds, bool(args.trace), args.size, workdir)
        finally:
            common.remove_workdir(workdir)
        metrics, failures, attempted, failed, forced_kills = outcome
        if attempted == 0:
            raise common.BenchmarkError("no operation was attempted")
        if args.trace:
            metrics["failed_share"] = (failed / attempted if attempted else 0.0, "ratio")
            metrics["server.forced_kills"] = (forced_kills, "count")
        metrics = complete(metrics, declared)
    except Exception:  # the benchmark could not run: no result line
        traceback.print_exc()
        return 2

    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    common.info(f"checks: {'all passed' if not failures else f'{len(failures)} failed'}; "
                f"operations {attempted}, failed {failed}")
    common.emit(not failures, attempted, failed, metrics)
    return 0 if not failures else 1


if __name__ == "__main__":
    # A SIGTERM unwinds like an exception, so every ``finally`` stops its
    # server and removes the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
