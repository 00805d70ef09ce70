"""The package's public surface and the pointwise read contract."""

import os
import subprocess
import sys
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

import triwalk
from triwalk import analysis, coins, errors, kspace, limit, walk

SRC = str(Path(__file__).resolve().parent.parent / "src")
MODULES = (coins, walk, limit, kspace, analysis, errors)


def test_all_is_version_and_every_module_all():
    names = ["__version__", *chain.from_iterable(m.__all__ for m in MODULES)]
    assert len(set(names)) == len(names)
    assert len(set(triwalk.__all__)) == len(triwalk.__all__)
    assert set(triwalk.__all__) == set(names)


def test_every_name_is_the_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(triwalk, name) is getattr(module, name), name


def test_module_constants_are_top_level():
    assert triwalk.ANGLE_TOLERANCE is coins.ANGLE_TOLERANCE
    assert triwalk.UNITARITY_TOLERANCE is coins.UNITARITY_TOLERANCE
    assert triwalk.DEFAULT_CELLS is kspace.DEFAULT_CELLS
    assert triwalk.ENDPOINT_EXCLUSION is limit.ENDPOINT_EXCLUSION
    assert triwalk.GAP_MARGIN is analysis.GAP_MARGIN


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from triwalk import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(triwalk.__all__)


def test_import_leaves_the_cli_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    probe = "import sys, triwalk; print('triwalk.cli' in sys.modules, 'argparse' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


MODEL = triwalk.LimitModel(
    triwalk.general_coin(0.3, -1.1, 0.8, 0.9), triwalk.InitialSpin(0.6, 0.8j)
)
POINTWISE = (
    triwalk.radicand,
    triwalk.spin_weight,
    triwalk.envelope_density,
    triwalk.limit_density,
    triwalk.limit_cdf,
)


def _points(fn, n):
    """``n`` points inside the hull, or inside the positive branch for the
    envelope, away from every support endpoint."""
    rng = np.random.default_rng(23)
    if fn is triwalk.envelope_density:
        lo, hi = triwalk.support_intervals(MODEL).positive
    else:
        lo, hi = triwalk.support_intervals(MODEL).hull
    return rng.uniform(lo + 1e-3, hi - 1e-3, n)


def _bits(a):
    return np.dtype(a.dtype).str, a.shape, a.tobytes()


@pytest.mark.parametrize("fn", POINTWISE, ids=lambda fn: fn.__name__)
def test_pointwise_scalar_is_a_float(fn):
    x = _points(fn, 3)
    for value in (x[0], np.float64(x[1]), np.array(x[2])):
        out = fn(MODEL, value)
        assert type(out) is float
        assert out == pytest.approx(fn(MODEL, np.array([value]))[0], rel=1e-14)


@pytest.mark.parametrize("fn", POINTWISE, ids=lambda fn: fn.__name__)
def test_pointwise_shapes_read_as_the_flat_array(fn):
    grid = _points(fn, 12).reshape(3, 4)
    flat = fn(MODEL, grid.ravel())
    assert _bits(fn(MODEL, grid.ravel().tolist())) == _bits(flat)
    assert _bits(fn(MODEL, grid)) == _bits(flat.reshape(3, 4))
    view = grid.T
    assert not view.flags.c_contiguous
    flat_view = fn(MODEL, np.ascontiguousarray(view).ravel())
    assert _bits(fn(MODEL, view)) == _bits(flat_view.reshape(4, 3))


def test_limit_cdf_accepts_refine():
    x = _points(triwalk.limit_cdf, 9).reshape(3, 3)
    assert _bits(triwalk.limit_cdf(MODEL, x, refine=False)) == _bits(
        triwalk.limit_cdf(MODEL, x)
    )
