"""``tools/ab.py``: two trees load side by side, and its bootstrap interval."""

import importlib.util
import shutil
import sys
from pathlib import Path

import numpy as np

import triwalk

ROOT = Path(__file__).resolve().parents[1]


def test_two_trees_load_apart_and_the_interval_finds_a_shift(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "ab", ab)  # its dataclass looks its module up
    spec.loader.exec_module(ab)
    for tag in ("copy", "tree"):  # load_tree registers these; drop them after the test
        monkeypatch.setitem(sys.modules, f"_ab_workloads_{tag}", None)
    copy = tmp_path / "copy"
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (copy / "bench").mkdir()
    shutil.copy(ROOT / "bench" / "workloads.py", copy / "bench")
    trees = [ab.load_tree(copy, "copy"), ab.load_tree(ROOT, "tree")]
    first, second = (tree.triwalk for tree in trees)
    assert first is not second and first.walk is not second.walk
    assert triwalk not in (first, second) and sys.modules["triwalk"] is triwalk
    assert [tree.workloads.tw for tree in trees] == [first, second]
    results = []
    for tw in (first, second):
        protocol = tw.canonical_protocol(tw.general_coin(0.4, 1.2, 2.2, 2.0))
        state = tw.evolve(tw.InitialSpin(0.6, 0.8j), protocol, 120)
        model = tw.LimitModel(tw.rotation_coin(1.1), tw.InitialSpin(0.6, 0.8j))
        results.append((state.amplitudes.tobytes(), repr(tw.compare_walk(model, 60))))
    assert results[0] == results[1]
    for tree in trees:  # one checked smoke batch each
        run = ab.Runner(tree, "angle-scan", 1, True, tmp_path / "out" / tree.tag)
        assert len(run()) == 2 and run.faults >= 0

    assert ab.bootstrap_interval([1.0] * 40) == (1.0, 1.0)
    rounds = [[0.1, 0.2], [0.3, 0.1], [0.2, 0.2], [0.1, 0.4]]  # per round, per unit
    alike = ab.summarize([rounds, rounds], 0)
    assert (alike["unit_min"], alike["pairs"], alike["interval"]) == (1.0, 1.0, (1.0, 1.0))
    slower = ab.summarize([rounds, [[2.0 * t for t in r] for r in rounds]], 0)
    assert slower["pairs"] == slower["unit_min"] == 2.0
    noisy = 1.0 + 0.03 * np.random.default_rng(8).standard_normal(40)
    lo, hi = ab.bootstrap_interval((1.1 * noisy).tolist())
    assert 1.0 < lo < 1.1 < hi
