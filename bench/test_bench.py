"""Tests of the benchmark itself, at smoke sizes.

Run with ``python3 -m pytest bench``; the package's own suite does not
collect them.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import triwalk  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_workloads_match_the_spec():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


def test_result_line_follows_the_contract():
    done = _run("--workload", "angle-scan", "--seed", "5", "--seconds", "1",
                "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


def test_all_workloads_emit_every_metric_at_smoke_size(tmp_path):
    out = tmp_path / "all.json"
    done = _run("--all", "--smoke", "--layers", "--seed", "7", "--out", str(out))
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    assert report["env"]["nproc"] >= 1 and "note" in report["env"]
    for name in NAMES:
        row = report["workloads"][name]
        assert row["fail_frac"] == 0.0
        for kind in ("end_to_end", "per_layer"):
            emitted = row[kind]
            assert [m["name"] for m in SPEC[kind]] == list(emitted)
            for m in SPEC[kind]:
                assert emitted[m["name"]]["unit"] == m["unit"]
                assert math.isfinite(emitted[m["name"]]["value"])
        for m in SPEC["end_to_end"]:
            assert row["end_to_end"][m["name"]]["value"] > 0.0
            assert f"  {m['name']}" in done.stdout
    layers = {n: report["workloads"][n]["per_layer"] for n in NAMES}
    assert layers["convergence"]["walk.evolve.calls"]["value"] > 0
    assert layers["angle-scan"]["kspace.kspace_moment.calls"]["value"] > 0
    assert layers["tables"]["cli.main.calls"]["value"] > 0
    assert layers["tables"]["kspace.kspace_moment.calls"]["value"] == 0


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("name", NAMES)
def test_generator_is_deterministic_and_in_range(name):
    sizes = workloads.FULL
    first = workloads.generate(name, 11, sizes)
    assert first == workloads.generate(name, 11, sizes)
    assert first != workloads.generate(name, 12, sizes)
    for spec in first:
        quarter = math.pi / 2
        offset = spec.theta % quarter
        assert min(offset, quarter - offset) >= workloads.ANGLE_MARGIN
        assert abs(abs(spec.alpha) ** 2 + abs(spec.beta) ** 2 - 1.0) <= 1e-12
    if name != "convergence":  # one reduced angle per stratum, in order
        reduced = [math.acos(abs(math.cos(spec.theta))) for spec in first]
        assert reduced == sorted(reduced)
    if name == "convergence":
        gaps = [triwalk.support_intervals(s.model()).gap for s in first]
        assert gaps[0] is not None and gaps[1] is None


def test_tracer_rebinds_and_restores_every_binding():
    original = triwalk.walk.evolve
    tracer = Tracer()
    tracer.install()
    try:
        assert triwalk.cli.evolve is not original
        assert triwalk.analysis.evolve is triwalk.evolve is triwalk.cli.evolve
        model = triwalk.LimitModel(triwalk.rotation_coin(0.7), triwalk.symmetric_spin())
        triwalk.compare_walk(model, 30, r_max=1)
    finally:
        tracer.uninstall()
    assert triwalk.cli.evolve is original and triwalk.evolve is original
    metrics = layer_metrics(tracer)
    assert metrics["walk.evolve.calls"] == 1
    assert metrics["walk.evolve.site_steps"] == 900
    assert metrics["kspace.kspace_moment.calls"] == 2
    assert metrics["kspace.limit_cdf.cold_calls"] == 1
    by_name = {s.name: i for i, s in enumerate(tracer.spans)}
    ks = tracer.spans[by_name["analysis.ks_distance"]]
    assert ks.parent == by_name["analysis.compare_distribution"]
    roots = [s for s in tracer.spans if s.parent is None]
    assert len(roots) == 1  # compare_walk
    total = sum(tracer.self_times())
    assert total == pytest.approx(roots[0].end - roots[0].start, rel=1e-9)
