"""Smoke test of the benchmark at tiny input sizes.

Run with ``python3 -m pytest perfbench/smoke.py -q`` (about a minute).  It
checks that every workload prints exactly the metrics ``BENCHMARK.json``
declares, with their units, in both modes; that the output checks reject a
corrupted value; and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import lattice  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402

common.require_program()

SEED = zlib.crc32(b"perfbench.smoke") % 10_000


def _run(*args, cwd=common.ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = run.declared_metrics(bool(trace))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.fixture(scope="module")
def tiny_lattice():
    nodes, degree = lattice.SIZES["tiny"]
    database = lattice._database(common.relabeled_edges(nodes, degree, SEED, "smoke"))
    named = lattice.queries()
    results = [(name, lattice._engine(q).compute(database)) for name, q in named.items()]
    return results, lattice.reference(database, named)


def test_lattice_check_accepts_the_reference(tiny_lattice):
    results, references = tiny_lattice
    assert lattice.check(results, references) == []


def test_lattice_check_rejects_a_corrupted_rs_value(tiny_lattice):
    results, references = tiny_lattice
    name, result = results[0]
    corrupted = dataclasses.replace(result, value=math.nextafter(result.value, math.inf))
    assert lattice.check([(name, corrupted)], references)


def test_lattice_check_rejects_a_corrupted_subset_value(tiny_lattice):
    results, references = tiny_lattice
    name, result = results[0]
    profile = dict(result.details["multiplicities"])
    subset = next(iter(profile))
    profile[subset] += 1
    corrupted = dataclasses.replace(
        result, details={**result.details, "multiplicities": profile}
    )
    assert lattice.check([(name, corrupted)], references)


def test_serve_checks_reject_corrupted_values():
    record = {"kind": "count", "status": 200, "sensitivity": 2.0, "reference": "edge"}
    failures: list[str] = []
    serve.check_counts([record], {"edge": 2.0}, failures)
    assert failures == []
    serve.check_counts([record], {"edge": 2.0 + 2 ** -40}, failures)
    assert failures

    spent = [2.0 ** -6, 2.0 ** -9]
    good = {"remaining": serve.SESSION_BUDGET - sum(spent),
            "shared_remaining": serve.TOTAL_BUDGET - sum(spent)}
    failures = []
    serve.check_budget(good, spent, spent, failures, "s")
    assert failures == []
    serve.check_budget({**good, "remaining": good["remaining"] - 2 ** -10},
                       spent, spent, failures, "s")
    assert failures


def test_mutation_loop_changes_every_cycle_and_closes():
    members = {node: node % 4 for node in range(30)}
    loop = serve.mutation_loop(SEED, members, 4)
    mirror = dict(members)
    for node, old, new in loop:
        assert mirror[node] == old and old != new
        mirror[node] = new
    assert mirror == members


def test_run_exits_nonzero_when_a_check_fails(monkeypatch, capsys):
    reference = lattice.reference

    def corrupted(database, named):
        out = reference(database, named)
        value, profile = out["triangle"]
        out["triangle"] = (value + 1.0, profile)
        return out

    monkeypatch.setattr(lattice, "reference", corrupted)
    code = run.main(["--workload", "lattice-cold", "--seed", str(SEED), "--seconds", "0.1",
                     "--trace", "0", "--size", "tiny"])
    assert code == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "lattice-cold", "--seed", str(SEED), "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
