"""Benchmark of triwalk: three workloads through the public API.

One workload, as the benchmark contract in ``BENCHMARK.json`` runs it::

    python3 bench/run.py --workload convergence --seed 1 --seconds 20 --trace 0

It repeats the workload's fixed batch of units for ``--seconds`` seconds,
checks every unit's output outside the timed region, and prints one JSON
line with the environment, then, as the last line, the result
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, measured untraced; ``--trace 1`` alternates
untraced and traced batches and reports the per-layer metrics of the
traced ones (medians over batches), plus the tracing overhead.

Every workload, one command::

    python3 bench/run.py --all [--seed N] [--seconds S] [--layers] [--out FILE]

prints every end-to-end metric by name and unit for each workload (each in
its own process, so peak RSS is per workload); ``--layers`` adds a traced
run per workload and prints the per-layer table with each layer's share of
the traced batch; ``--out`` writes all of it, with the environment, as JSON.
``--smoke`` shrinks every size for a quick schema check.

Set-up time is the median of several ``import triwalk`` runs, each in a
fresh interpreter, plus the median time to build a batch's inputs (fresh
models, so lazy per-model caches stay inside the timed units).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

IMPORT_SAMPLES = 7
MIN_BATCHES = 3
# Stop starting batches when the next one could end past this many seconds,
# so one run stays well inside its three-minute limit.
HARD_STOP_S = 150.0
SHARED_NOTE = (
    "shared machine: other tenants' load is not controlled, so timings carry "
    "their noise; compare medians of repeated runs"
)

_IMPORT_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import triwalk\n"
    "print(time.perf_counter() - t)\n"
)


def _import_seconds() -> float:
    out = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_CODE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _run_batch(workload, tracer) -> dict:
    t0 = time.perf_counter()
    inputs = workload.build()
    setup_s = time.perf_counter() - t0
    units = workload.units(inputs)
    outputs = []
    ends = []
    if tracer is not None:
        tracer.install()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        for index, unit in enumerate(units):
            if tracer is not None:
                tracer.unit = index
            try:
                outputs.append((unit(), None))
            except Exception as exc:  # a failed unit counts; the run goes on
                outputs.append((None, f"{type(exc).__name__}: {exc}"))
            ends.append(time.perf_counter() - t0)
    finally:
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()

    workload.counters = dict.fromkeys(workload.counters, 0)
    failures = []
    for index, (output, error) in enumerate(outputs):
        if error is None:
            try:
                error = workload.check(inputs, index, output)
            except Exception as exc:  # a check that raises is a failed unit
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"unit {index}: {error}")
    batch = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "first_unit_s": ends[0],
        "units": len(units),
        "failures": failures,
        "traced": tracer is not None,
    }
    if tracer is not None:
        batch["layers"] = {
            **layer_metrics(tracer),
            **workload.counters,
            "run.cpu_s": cpu_s,
            "run.units": len(units),
            "run.traced_wall_s": wall_s,
        }
    return batch


def measure(
    spec: dict, name: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> dict:
    """Run one workload for ``seconds``; returns the contract's result object."""
    import_samples = [_import_seconds() for _ in range(2 if smoke else IMPORT_SAMPLES)]
    import workloads  # after main() put src/ on the path

    sizes = workloads.SMOKE if smoke else workloads.FULL
    specs = workloads.generate(name, seed, sizes)
    outdir = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    tracer = Tracer() if trace else None
    batches: list[dict] = []
    try:
        workload = workloads.WORKLOADS[name](specs, sizes, outdir)
        start = time.perf_counter()
        durations = []  # each batch with its set-up and checks
        while True:
            traced = trace and len(batches) % 2 == 1
            began = time.perf_counter()
            batch = _run_batch(workload, tracer if traced else None)
            durations.append(time.perf_counter() - began)
            batches.append(batch)
            print(
                f"bench: {name} batch {len(batches)}{' traced' if traced else ''}: "
                f"wall {batch['wall_s']:.4f} s, first unit {batch['first_unit_s']:.4f} s",
                file=sys.stderr,
            )
            elapsed = time.perf_counter() - start
            enough = len(batches) >= (2 * MIN_BATCHES if trace else MIN_BATCHES)
            # Start no batch that would end past --seconds (or the hard stop).
            if enough and elapsed + statistics.median(durations) > seconds:
                break
            if elapsed + 2 * max(durations) > HARD_STOP_S:
                break
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    plain = [b for b in batches if not b["traced"]]
    failures = [f for b in batches for f in b["failures"]]
    for failure in failures:
        print(f"bench: {name}: {failure}", file=sys.stderr)
    values: dict[str, float] = {}
    if trace:
        traced = [b for b in batches if b["traced"]]
        for key in traced[0]["layers"]:
            values[key] = statistics.median(b["layers"][key] for b in traced)
        values["run.trace_overhead_s"] = statistics.median(
            b["wall_s"] for b in traced
        ) - statistics.median(b["wall_s"] for b in plain)
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(b["wall_s"] for b in plain),
            "first_unit_s": statistics.median(b["first_unit_s"] for b in plain),
            "setup_s": statistics.median(import_samples)
            + statistics.median(b["setup_s"] for b in batches),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    return {
        "correct": not failures,
        "attempted": sum(b["units"] for b in batches),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


# -- environment -----------------------------------------------------------

def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_bytes() -> dict[str, int]:
    """Unified/data cache sizes of cpu0 by level, from sysfs (bytes)."""
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = units.get(size[-1:], 1)
        out[f"l{level}_bytes"] = int(size.rstrip("KMG")) * scale
    return out


def environment(smoke: bool) -> dict:
    import numpy
    import workloads

    sizes = workloads.SMOKE if smoke else workloads.FULL
    t = max(sizes.ladder)
    caches = _cache_bytes()
    state = 32 * (2 * t + 1)  # two complex128 amplitudes per site
    temporaries = 4 * 16 * (2 * t - 1)  # per-step rows b0, b1 and two products
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **caches,
        "sweep_workers": workloads.SWEEP_WORKERS,
        "convergence_working_set": {
            "T": t,
            "state_bytes": state,
            "step_temporaries_bytes": temporaries,
            "total_over_l2": (state + temporaries) / caches["l2_bytes"]
            if "l2_bytes" in caches
            else None,
            "note": "computed from array sizes, not measured",
        },
        "note": SHARED_NOTE,
    }


# -- entry points ----------------------------------------------------------

def _run_child(name: str, args, trace: int) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"bench: {name} (trace {trace}) exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_all(args, spec: dict) -> int:
    env = environment(args.smoke)
    report = {"env": env, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    print(json.dumps(env, indent=1))
    ok = True
    for entry in spec["workloads"]:
        name = entry["name"]
        result = _run_child(name, args, 0)
        row = {
            "attempted": result["attempted"],
            "failed": result["failed"],
            "fail_frac": result["failed"] / result["attempted"],
            "end_to_end": result["metrics"],
        }
        ok = ok and result["correct"]
        print(f"\n{name}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<14} {m['value']:>12.6g} {m['unit']}")
        print(f"  {'fail_frac':<14} {row['fail_frac']:>12.6g} (of {result['attempted']} units)")
        if args.layers:
            traced = _run_child(name, args, 1)
            ok = ok and traced["correct"]
            layers = traced["metrics"]
            row["per_layer"] = layers
            wall = layers["run.traced_wall_s"]["value"]
            print(f"  per layer (traced batch {wall:.4g} s):")
            for metric, m in layers.items():
                share = ""
                if metric.endswith(".self_s") and wall > 0:
                    share = f"  {100.0 * m['value'] / wall:5.1f}%"
                print(f"    {metric:<36} {m['value']:>14.6g} {m['unit']}{share}")
        report["workloads"][name] = row
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name from BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--layers", action="store_true", help="with --all: traced runs too")
    parser.add_argument("--out", help="with --all: write every result as JSON here")
    args = parser.parse_args(argv)
    if not (SRC / "triwalk" / "__init__.py").is_file():
        print(f"bench: no triwalk sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    if args.all:
        return run_all(args, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    print(json.dumps({"env": environment(args.smoke)}))
    result = measure(
        spec, args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
