"""Parent against change in one process: the benchmark's workloads, interleaved.

    python tools/ab.py [--rev REV] [--smoke]

Exports ``REV`` (default ``HEAD``) with ``git archive`` into a temporary
directory, removed on exit, and compares it (the parent) with the working
tree (the change).  Each tree's ``triwalk`` and its own
``bench/workloads.py`` are loaded as separate module objects, so both run
in one interpreter, on one numpy and under the same machine load.  Pairs
of fresh ``bench/run.py`` processes cannot tell a change below ~20% from
that load; batches interleaved in one process can.

Each workload both trees define first runs one untimed batch per tree,
then one more under ``tracemalloc`` for its peak.  Each of 80 rounds
then times one fixed batch of every workload on each tree, unit by unit,
with the tree that goes first alternating between rounds.  Every batch's
outputs go through its tree's ``check``, untimed; a failed check or a
raising unit ends the run with exit status 1.

Per workload it prints the parent's median batch time and, change over
parent (below 1 is faster):

- the ratio of the per-unit minima over all rounds, summed over the batch;
- the median ratio of the pairs of rounds (:func:`summarize`), with a
  seeded bootstrap 95% interval;
- each tree's tracemalloc peak for one batch, and its median count of
  minor page faults over the timed units of a batch (``ru_minflt``).

Read the interval first: on a shared machine a minimum follows the few
fastest samples, so the minima's ratio can stray by several percent when
the interval does not.  The page faults show the heap beneath a lean or
a spread: a batch that takes fresh pages from the kernel pays for each
fault, and how many it takes follows glibc's heap state, not only the
code.  The interval is not yet a regression rule: a tree compared with
itself read above 1 in 4 of 66 workload runs on a shared 2-vCPU VM,
about the nominal 1 in 20, so one run's interval just past 1 is not a
regression by itself.  Import time is not compared:
``bench/run.py`` puts it in ``setup_s``.  Nor is resident memory: both
trees share one process, so the first tree to touch a library's pages
(LAPACK, BLAS kernels, ``numpy.polynomial``) pays for both, and
tracemalloc sees only Python's allocations, not those pages.  Read a
``peak_rss_mb`` change from fresh ``bench/run.py`` processes, alternating
the trees.  ``--smoke`` uses ``workloads.SMOKE`` sizes and 4 rounds.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parents[1]
ROUNDS = 80
SMOKE_ROUNDS = 4
SEED = 1  # the workloads' inputs and the bootstrap's resamples
RESAMPLES = 2000


@dataclass
class Tree:
    """One tree's package and workloads, loaded side by side with the other's."""

    tag: str
    root: Path
    triwalk: ModuleType
    workloads: ModuleType


def _is_triwalk(name: str) -> bool:
    return name == "triwalk" or name.startswith("triwalk.")


def load_tree(root: Path, tag: str) -> Tree:
    """Import ``root``'s ``triwalk`` and ``bench/workloads.py`` as new module
    objects, then give ``sys.modules`` back its own ``triwalk`` entries.

    The workloads module is registered as ``_ab_workloads_<tag>`` before it
    runs, because its dataclasses look their module up there.
    """
    root = Path(root).resolve()
    saved = {name: sys.modules.pop(name) for name in list(sys.modules) if _is_triwalk(name)}
    sys.path.insert(0, str(root / "src"))
    importlib.invalidate_caches()
    try:
        package = importlib.import_module("triwalk")
        importlib.import_module("triwalk.cli")
        if Path(package.__file__).resolve().parent != root / "src" / "triwalk":
            raise ImportError(f"{tag}: triwalk came from {package.__file__}, not {root}")
        name = f"_ab_workloads_{tag}"
        spec = importlib.util.spec_from_file_location(name, root / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[name] = workloads
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(root / "src"))
        for name in [name for name in sys.modules if _is_triwalk(name)]:
            del sys.modules[name]
        sys.modules.update(saved)
    return Tree(tag, root, package, workloads)


def export(rev: str, dest: Path) -> Path:
    """The files of ``rev`` of this repository, written to a new ``dest``."""
    dest.mkdir()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        capture_output=True, check=True, timeout=120,
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True, timeout=120)
    return dest


def bootstrap_interval(ratios, seed: int = 0, level: float = 0.95) -> tuple[float, float]:
    """A percentile bootstrap interval of the median of ``ratios``, from
    :data:`RESAMPLES` resamples drawn with ``random.Random(seed)``."""
    rng = random.Random(seed)
    n = len(ratios)
    medians = sorted(
        statistics.median(rng.choices(ratios, k=n)) for _ in range(RESAMPLES)
    )
    tail = (1.0 - level) / 2.0
    return medians[int(tail * RESAMPLES)], medians[int((1.0 - tail) * RESAMPLES) - 1]


class Runner:
    """One tree's instance of one workload; each call runs a fresh batch.

    ``faults`` is the process's minor page faults while the units ran.
    Under ``tracemalloc``, ``peak`` is the traced peak while the units ran.
    """

    def __init__(self, tree: Tree, name: str, seed: int, smoke: bool, outdir: Path) -> None:
        w = tree.workloads
        sizes = w.SMOKE if smoke else w.FULL
        outdir.mkdir(parents=True)
        self.where = f"{tree.tag} {name}"
        self.workload = w.WORKLOADS[name](w.generate(name, seed, sizes), sizes, outdir)

    def __call__(self) -> list[float]:
        """Build a batch's inputs, time each unit, then check every output;
        returns the per-unit seconds."""
        inputs = self.workload.build()
        units = self.workload.units(inputs)
        gc.collect()
        tracemalloc.reset_peak()
        seconds, outputs = [], []
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for unit in units:
            start = time.perf_counter()
            outputs.append(unit())
            seconds.append(time.perf_counter() - start)
        self.faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        self.peak = tracemalloc.get_traced_memory()[1]
        for index, output in enumerate(outputs):
            error = self.workload.check(inputs, index, output)
            if error is not None:
                raise SystemExit(f"ab: {self.where} unit {index}: {error}")
        return seconds


def peak_bytes(run: Runner) -> int:
    """The tracemalloc peak of one batch's units, its inputs included."""
    tracemalloc.start()
    try:
        run()
    finally:
        tracemalloc.stop()
    return run.peak


def summarize(times: list[list[list[float]]], seed: int) -> dict:
    """Ratios, change over parent, from each tree's per-unit seconds of each
    round; round ``2i`` ran the parent first and round ``2i + 1`` the change.

    Each pair of rounds gives one ratio: per unit, the smaller of its two
    times, summed over the batch, the change's over the parent's.  The pair
    runs parent, change, change, parent, so a drift in the machine's speed
    falls on both trees alike, and the minimum drops a unit that a burst of
    load slowed in one of its two batches.
    """
    paired = [
        [list(map(min, *side[i : i + 2])) for i in range(0, len(side) - 1, 2)]
        for side in times
    ]
    ratios = [sum(c) / sum(p) for p, c in zip(*paired)]
    minima = [sum(map(min, zip(*side))) for side in times]
    return {
        "unit_min": minima[1] / minima[0],
        "pairs": statistics.median(ratios),
        "interval": bootstrap_interval(ratios, seed),
        "parent_s": statistics.median(map(sum, times[0])),
    }


def compare(trees: tuple[Tree, Tree], rounds: int, smoke: bool,
            workdir: Path) -> dict[str, dict]:
    """Each workload both trees define: its :func:`summarize`, each tree's
    peak bytes and each tree's median minor page faults per timed batch.
    A round runs every workload in turn, so each workload's batches spread
    over the whole run and meet the machine's slow and fast spells alike."""
    names = [n for n in trees[1].workloads.WORKLOADS if n in trees[0].workloads.WORKLOADS]
    runs = {
        n: [Runner(t, n, SEED, smoke, workdir / "out" / t.tag / n) for t in trees] for n in names
    }
    peaks = {}
    for name, pair in runs.items():
        for run in pair:
            run()  # lazy set-up and first-use caches stay out of the timed rounds
        peaks[name] = [peak_bytes(run) for run in pair]
    times = {name: ([], []) for name in names}
    faults = {name: ([], []) for name in names}
    for r in range(rounds):
        for name, pair in runs.items():
            for side in (0, 1) if r % 2 == 0 else (1, 0):
                times[name][side].append(pair[side]())
                faults[name][side].append(pair[side].faults)
    return {
        name: {
            **summarize(times[name], SEED),
            "peaks": peaks[name],
            "faults": [statistics.median(side) for side in faults[name]],
        }
        for name in names
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD", help="the parent revision (default HEAD)")
    parser.add_argument("--smoke", action="store_true", help="SMOKE sizes and few rounds")
    args = parser.parse_args(argv)
    rounds = SMOKE_ROUNDS if args.smoke else ROUNDS
    # a kill by `timeout` unwinds too, so the temporary directory goes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with tempfile.TemporaryDirectory(prefix="triwalk-ab-") as tmp:
        workdir = Path(tmp)
        trees = (load_tree(export(args.rev, workdir / "parent"), "parent"),
                 load_tree(ROOT, "change"))
        print(f"ab: {args.rev} (parent) against the working tree (change), {rounds} rounds;"
              " ratios are change over parent")
        print(f"{'workload':<12} {'parent ms':>9} {'unit-min':>8} {'pairs':>6}  "
              f"{'95% interval':<16} {'peak MB parent':>14} {'change':>7} "
              f"{'faults parent':>13} {'change':>7}")
        for name, res in compare(trees, rounds, args.smoke, workdir).items():
            lo, hi = res["interval"]
            mb = [p / 2**20 for p in res["peaks"]]
            faults = res["faults"]
            print(f"{name:<12} {1e3 * res['parent_s']:>9.2f} {res['unit_min']:>8.3f} "
                  f"{res['pairs']:>6.3f}  [{lo:.3f}, {hi:.3f}]   {mb[0]:>14.2f} {mb[1]:>7.2f} "
                  f"{faults[0]:>13g} {faults[1]:>7g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
