import gc
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from triwalk import (
    CoinOperator,
    DegenerateQuasimomentum,
    InitialSpin,
    LimitModel,
    StepProtocol,
    canonical_protocol,
    eigen_system,
    general_coin,
    kspace_moment,
    limit_cdf,
    limit_density,
    pushforward_density,
    rotation_coin,
    support_intervals,
    symmetric_spin,
    three_coin_protocol,
    three_period_protocol,
)

from triwalk import kspace
from triwalk.analysis import compare_walk

from _oracles import (
    branches,
    cdf_by_quadrature,
    four_fold,
    fourier_product,
    integral_map,
    moment_table,
    random_protocol,
    random_safe_angle,
)


def open_grid(n):
    return -math.pi + (np.arange(n) + 0.5) * (2.0 * math.pi / n)


def test_eigenvalues_at_quarter_turn():
    system = eigen_system(three_period_protocol(math.pi / 4), math.pi / 2)
    assert system.eigenvalues[0] == pytest.approx(1j, abs=1e-14)
    assert system.eigenvalues[1] == pytest.approx(-1j, abs=1e-14)


def test_velocities_at_quarter_turn():
    velocities = eigen_system(three_period_protocol(math.pi / 4), math.pi / 2).velocities
    assert velocities[0] == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert velocities[1] == pytest.approx(-1.0 / 3.0, abs=1e-14)


def test_velocities_sum_to_zero_exactly():
    protocol = three_period_protocol(1.2)
    for k in open_grid(100):
        velocities = eigen_system(protocol, k).velocities
        assert velocities[0] + velocities[1] == 0.0


def test_degenerate_quasimomenta_rejected():
    protocol = three_period_protocol(1.0)
    for k in (0.0, 5e-10, math.pi, -math.pi, math.pi - 5e-10):
        with pytest.raises(DegenerateQuasimomentum):
            eigen_system(protocol, k)
    with pytest.raises(ValueError):
        eigen_system(protocol, 4.0)


def test_eigen_system_refuses_where_a_general_coins_branches_meet():
    # For [C, C, closing] with C = general_coin(gamma, delta, xi, theta) the
    # branches meet at k* = (delta - gamma) / 2 - xi (mod pi), here -1.8 and
    # its pi-partner, and not at a rotation coin's 0 and +-pi.
    protocol = canonical_protocol(general_coin(0.4, 1.2, 2.2, 2.0))
    for k in (0.0, math.pi, -math.pi):
        assert np.max(np.abs(np.abs(eigen_system(protocol, k).eigenvalues) - 1.0)) <= 1e-15
    for crossing in (-1.8, -1.8 + math.pi):
        with pytest.raises(DegenerateQuasimomentum):
            eigen_system(protocol, crossing)
        for k in (crossing - 1e-3, crossing + 1e-3):
            system = eigen_system(protocol, k)
            assert np.max(np.abs(np.abs(system.eigenvalues) - 1.0)) <= 1e-15


def _general_protocols():
    """A general coin's cycle, a three-coin cycle, and periods 1 and 2."""
    coin = general_coin(0.4, 1.2, 2.2, 2.0)
    return [
        canonical_protocol(coin),
        three_coin_protocol(
            general_coin(1.1, -0.3, 0.7, 0.9), coin, general_coin(-2.0, 0.5, 1.9, 2.8)
        ),
        StepProtocol((rotation_coin(math.pi / 4),)),  # the Hadamard walk
        StepProtocol((general_coin(0.3, 0.1, 0.9, 1.0), rotation_coin(1.2))),
    ]


# the finite-difference step for the velocities
EPS = 1e-5


def check_eigen_system(protocol, ks):
    """``eigen_system(protocol, k)`` at each of the momenta ``ks``: distinct
    eigenvalues of modulus 1, orthonormal eigenvectors of ``fourier_product``,
    their product the block's determinant, and velocities equal to the
    finite differences of the eigenvalues over ``k +- EPS``."""
    for k in ks:
        system = eigen_system(protocol, k)
        lam, vectors = system.eigenvalues, system.eigenvectors
        plus = eigen_system(protocol, k + EPS).eigenvalues
        minus = eigen_system(protocol, k - EPS).eigenvalues
        assert lam[0] != lam[1], k
        block = fourier_product(protocol, k)
        for j in range(2):
            assert abs(abs(lam[j]) - 1.0) <= 1e-14, (k, j)
            residual = np.linalg.norm(block @ vectors[j] - lam[j] * vectors[j])
            assert residual <= 1e-13, (k, j)
            assert abs(np.vdot(vectors[j], vectors[j]) - 1.0) <= 1e-12, (k, j)
            derivative = (plus[j] - minus[j]) / (2.0 * EPS)
            fd = (lam[j] * derivative.conjugate()).imag / protocol.period
            assert abs(system.velocities[j] - fd) <= 1e-6, (k, j, system.velocities[j] - fd)
        assert abs(np.vdot(vectors[0], vectors[1])) <= 1e-10, k
        det_block = np.linalg.det(block)
        assert abs(abs(det_block) - 1.0) <= 1e-12, k
        assert abs(det_block - lam[0] * lam[1]) <= 1e-10, k


def check_eigen_system_on_random_protocols(count, momenta):
    """``check_eigen_system`` on ``count`` protocols from
    ``_oracles.random_protocol`` with seed 23, each at ``momenta`` uniform
    momenta in ``(-pi + EPS, pi - EPS)``.  CI runs 1,000 protocols x 5."""
    rng = np.random.default_rng(23)
    for i in range(count):
        protocol = random_protocol(rng, i)
        check_eigen_system(protocol, rng.uniform(-math.pi + EPS, math.pi - EPS, momenta))


def test_eigen_identities_on_grid():
    rng = np.random.default_rng(4)
    rotations = [three_period_protocol(random_safe_angle(rng)) for _ in range(5)]
    for protocol in (*rotations, *_general_protocols()):
        check_eigen_system(protocol, open_grid(40))
    check_eigen_system_on_random_protocols(50, 5)  # CI's first 50, of every kind


def test_finite_difference_velocity_check():
    rng = np.random.default_rng(6)
    rotations = [three_period_protocol(random_safe_angle(rng)) for _ in range(4)]
    for protocol in (*rotations, *_general_protocols()):
        check_eigen_system(protocol, open_grid(200))


def test_eigen_system_matches_the_branch_tables():
    # Two routes to a rotation coin's branches: the SU(2) read of the block,
    # and the trigonometric tables that the CDF and the moments read.
    ks = open_grid(200)
    for theta in (*np.linspace(0.05, 3.1, 12), 1.5706):
        c, s = math.cos(theta), math.sin(theta)
        tables = kspace._tables(c, s, ks)
        velocities = kspace._velocities(c, s, ks)
        protocol = three_period_protocol(theta)
        for i, k in enumerate(ks):
            system = eigen_system(protocol, k)
            expected = tables.a[i] + np.array([1j, -1j]) * tables.root[i]
            assert np.max(np.abs(system.eigenvalues - expected)) <= 1e-14
            assert np.max(np.abs(system.velocities - velocities[:, i])) <= 1e-14


def test_velocity_range_matches_support(gap_model, pi4_model):
    ks = open_grid(100_000)
    for model in (gap_model, pi4_model):
        c, s = model.a_abs, model.b_abs
        protocol = three_period_protocol(math.acos(c))
        hull = support_intervals(model).positive[1]
        gap = support_intervals(model).gap
        h = np.array([eigen_system(protocol, k).velocities for k in ks[::1000]])
        assert np.max(np.abs(h)) <= hull + 1e-9
        if gap is not None:
            assert np.min(np.abs(h)) >= gap[1] - 1e-9
        # coverage of the extreme: a fine scan approaches the hull edge
        from triwalk.kspace import _velocities

        dense = _velocities(c, s, ks)
        assert np.max(np.abs(dense)) >= hull - 1e-4
        if gap is not None:
            assert np.min(np.abs(dense)) <= gap[1] + 1e-4


def test_moment_order_zero_is_one(pi4_model, gap_model, leftward_model):
    models = (pi4_model, gap_model, leftward_model, *_models_from_wide_to_narrow_turns())
    for model in models:
        assert abs(kspace_moment(model, 0) - 1.0) <= 1e-15


def test_first_moment_vanishes_for_symmetric_spin(pi4_model, gap_model):
    for model in (pi4_model, gap_model):
        assert abs(kspace_moment(model, 1)) <= 1e-8


def test_moments_match_density_quadrature(pi4_model, leftward_model):
    from scipy.integrate import quad

    for model, r in ((pi4_model, 2), (leftward_model, 1), (leftward_model, 2)):
        lo, hi = support_intervals(model).positive
        interior = sorted(p for p in (lo, -lo) if -hi < p < hi)
        direct, _ = quad(
            lambda x: x**r * limit_density(model, x),
            -hi + 1e-9,
            hi - 1e-9,
            points=interior,
            limit=400,
            epsabs=1e-10,
        )
        assert kspace_moment(model, r) == pytest.approx(direct, abs=1e-6)


def test_moment_order_capped(pi4_model):
    with pytest.raises(ValueError):
        kspace_moment(pi4_model, 9)


def _moment_models():
    spin = InitialSpin(0.6, 0.8j)
    thetas = (math.pi / 4, 2 * math.pi / 5, 0.35, 0.05, 0.01, 1.5706, 0.001, 2.5)
    return [
        *(LimitModel(rotation_coin(theta), spin) for theta in thetas),
        LimitModel(general_coin(0.3, 0.1, 0.9, 1.0), spin),
        LimitModel(
            general_coin(-1.1, 2.0, 0.4, 0.6),
            InitialSpin(complex(0.48, 0.36), complex(0.0, -0.8)),
        ),
    ]


def test_one_pass_moments_match_per_order_formula():
    # The oracle's running product h^r w against h**r * w, order by order.
    cells = 1 << 16
    for model in _moment_models():
        alpha, beta = model.effective_spin
        h, w = branches(model.a_abs, model.b_abs, open_grid(cells), alpha, beta)
        table = moment_table(model, cells)
        for r in range(9):
            assert abs(table[r] - np.sum(h**r * w) / cells) <= 1e-14


def _assert_panel_moments_match(model, cells):
    panels = [kspace_moment(model, r) for r in range(9)]
    assert np.max(np.abs(panels - moment_table(model, cells))) <= 1e-14


def test_panel_moments_match_the_midpoint_oracle():
    # 2^18 midpoint cells resolve every angle of _moment_models to rounding.
    for model in _moment_models():
        _assert_panel_moments_match(model, 1 << 18)


def test_panel_moments_at_a_tiny_angle_match_the_finer_oracle():
    # At 1e-4 a 2^18-cell grid is itself off by ~4e-10, and 2^20 is not.
    _assert_panel_moments_match(LimitModel(rotation_coin(1e-4), symmetric_spin()), 1 << 20)


def test_panel_moments_do_not_move_with_twice_the_panels(monkeypatch):
    for model in (*_moment_models(), LimitModel(rotation_coin(1e-4), symmetric_spin())):
        default = kspace._LimitCdf(model)
        with monkeypatch.context() as patch:
            patch.setattr(kspace, "_PANELS_PER_UNIT", 2 * kspace._PANELS_PER_UNIT)
            finer = kspace._LimitCdf(model)
        assert finer.panels >= 2 * default.panels - 1
        assert np.max(np.abs(finer.moments - default.moments)) <= 1e-15


def test_moment_values_do_not_depend_on_call_order():
    def model():
        return LimitModel(general_coin(0.3, 0.1, 0.9, 1.0), InitialSpin(0.6, 0.8j))

    descending = {r: kspace_moment(model(), r) for r in range(8, -1, -1)}
    fresh = model()
    ascending = {r: kspace_moment(fresh, r) for r in range(9)}
    for r in range(9):
        assert ascending[r] == descending[r]


def _fold_models():
    """Narrow and wide turns and two general coins, each with pure spins and
    mixed ones whose ``Re(alpha conj(beta))`` is and is not zero."""
    spins = (
        InitialSpin(1.0, 0.0),
        InitialSpin(0.0, 1.0),
        InitialSpin(0.6, 0.8),
        InitialSpin(0.6, 0.8j),
        InitialSpin(complex(0.48, 0.36), complex(0.0, -0.8)),
    )
    thetas = (1e-4, 0.05, math.pi / 4, 1.5706, 3.1405)
    coins = [rotation_coin(theta) for theta in thetas]
    coins += [general_coin(0.3, 0.1, 0.9, 1.0), general_coin(-1.1, 2.0, 0.4, 0.6)]
    return [LimitModel(coin, spin) for coin in coins for spin in spins]


def test_panel_rule_constants_are_the_computed_rule():
    # The frozen nodes and weights against numpy's rule: another LAPACK build
    # may round the eigenvalues differently, hence 2 ulps; on the build they
    # were read from, they are bit-equal.  The derived map against the
    # correctly rounded map of the frozen nodes.
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert np.all(np.abs(kspace._NODES - nodes) <= 2 * np.spacing(np.abs(nodes)))
    assert np.all(np.abs(kspace._WEIGHTS - weights) <= 2 * np.spacing(weights))
    assert kspace._INTEGRAL.shape == (9, 8)
    exact = integral_map(kspace._NODES.tolist())
    assert np.max(np.abs(kspace._INTEGRAL - exact)) <= 5e-15


def _lapack_free_models():
    """Fresh models, so every call below builds its table."""
    spin = InitialSpin(0.6, 0.8j)
    return [
        LimitModel(rotation_coin(0.7), spin),
        LimitModel(general_coin(0.4, 1.2, 2.2, 2.0), spin),
    ]


def test_workload_paths_call_no_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    for name in ("inv", "eigvalsh", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for model in _lapack_free_models():
        compare_walk(model, 297)
    for model in _lapack_free_models():
        limit_cdf(model, np.linspace(-1.0, 1.0, 101))
    for model in _lapack_free_models():
        pushforward_density(model, 400)


def test_workload_paths_leave_numpy_polynomial_unloaded():
    # numpy 2 loads numpy.polynomial on first use, and no call here uses it.
    probe = """
import sys
import numpy as np
from triwalk import (
    InitialSpin, LimitModel, general_coin, limit_cdf, pushforward_density,
    rotation_coin,
)
from triwalk.analysis import compare_walk
before = "numpy.polynomial" in sys.modules
spin = InitialSpin(0.6, 0.8j)
for coin in (rotation_coin(0.7), general_coin(0.4, 1.2, 2.2, 2.0)):
    compare_walk(LimitModel(coin, spin), 297)
    limit_cdf(LimitModel(coin, spin), np.linspace(-1.0, 1.0, 101))
    pushforward_density(LimitModel(coin, spin), 400)
print(before, "numpy.polynomial" in sys.modules)
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def _table_nodes(table):
    """The table's quadrature nodes ``k``, shape ``(panels, 8)``, and
    ``dk/dt / 2pi`` at them, laid out as :class:`kspace._LimitCdf` does."""
    nodes = kspace._NODES
    xi = table.xi0 + table.step * (
        np.arange(table.panels)[:, None] + 0.5 * (nodes + 1.0)
    )
    jac = table.width * np.cosh(xi) * (table.step / (4.0 * math.pi))
    return table.k0 + table.width * np.sinh(xi), jac


def test_one_fold_weight_is_the_four_fold_sum():
    for model in _fold_models():
        table = kspace._LimitCdf(model)
        c, s, (alpha, beta) = model.a_abs, model.b_abs, model.effective_spin
        k, jac = _table_nodes(table)
        g, u = kspace._folded(c, s, k, alpha, beta)
        four_g, four_u = four_fold(c, s, k, alpha, beta)
        assert np.array_equal(g, four_g)
        # At a narrow turn u carries the rounding of b's cancellation over
        # root, ~1e-12 at 1e-4 in either form, against mpmath too; what the
        # table integrates is u dk, and that agrees to ~1e-17.
        assert np.max(np.abs(u * jac - four_u * jac)) <= 1e-16


def test_table_moments_are_the_four_fold_moments():
    # The parent's integrand, g^r u + (-g)^r (4N - u) by running products
    # of the four-fold u, against the one Vandermonde product of the table.
    weights = kspace._WEIGHTS
    for model in _fold_models():
        table = kspace._LimitCdf(model)
        c, s, (alpha, beta) = model.a_abs, model.b_abs, model.effective_spin
        k, jac = _table_nodes(table)
        g, u = four_fold(c, s, k, alpha, beta)
        plus, minus = u * jac, (4.0 * table.norm - u) * jac
        for r in range(9):
            assert abs(table.moments[r] - np.sum((plus + minus) @ weights)) <= 1e-15
            plus, minus = plus * g, minus * -g


def test_branch_weights_sum_to_spin_norm():
    spin = InitialSpin(0.6, 0.8j)
    thetas = (1.5706, 0.01, math.pi / 4)
    models = [
        *(LimitModel(rotation_coin(theta), spin) for theta in thetas),
        LimitModel(general_coin(0.3, 0.1, 0.9, 1.0), spin),
    ]
    for model in models:
        c, s, (alpha, beta) = model.a_abs, model.b_abs, model.effective_spin
        _, w = branches(c, s, open_grid(1 << 16), alpha, beta)
        norm = abs(alpha) ** 2 + abs(beta) ** 2
        assert np.max(np.abs(w[0] + w[1] - norm)) <= 1e-15
        # the table's folded weight sums four weights, each in [0, norm]
        k, _ = _table_nodes(kspace._LimitCdf(model))
        _, u = kspace._folded(c, s, k, alpha, beta)
        assert np.min(u) >= -1e-15 and np.max(u) <= 4.0 * norm + 1e-15


def test_eigen_system_is_accurate_at_a_near_trivial_angle():
    # Near a quarter turn |y| is ~1e-4 of sin th: no eigenvector entry may cancel.
    protocol = three_period_protocol(1.5706)
    for k in np.linspace(-3.0, 3.0, 41) + 0.01:
        system = eigen_system(protocol, k)
        block = fourier_product(protocol, k)
        for value, vector in zip(system.eigenvalues, system.eigenvectors):
            assert np.linalg.norm(block @ vector - value * vector) <= 1e-14
            assert abs(np.linalg.norm(vector) - 1.0) <= 1e-14


@pytest.mark.parametrize("r", [2.0, 2.5, "2"])
def test_moment_order_must_be_an_integer(pi4_model, r):
    with pytest.raises(TypeError):
        kspace_moment(pi4_model, r)


def test_moment_memo_is_dropped_with_its_model():
    model = LimitModel(rotation_coin(1.2), InitialSpin(0.6, 0.8j))
    kspace_moment(model, 3)
    assert model in kspace._CACHE
    ref = weakref.ref(model)
    gc.collect()
    entries = len(kspace._CACHE)
    del model
    gc.collect()
    assert ref() is None
    assert len(kspace._CACHE) == entries - 1


def check_cdf_and_pushforward(models, points, bins, shape):
    """For each of ``models``: ``limit_cdf`` on ``points`` evenly spaced points
    of [-1, 1] is monotone, and exactly 0 and 1 beyond the hull;
    ``pushforward_density`` with each count of ``bins`` has width 2 / bins,
    the midpoints as centres, no negative density and mass 1 to 1e-14; and
    ``limit_density`` and ``limit_cdf`` on a midpoint grid read in ``shape``
    give the flat read's values in that shape.  CI runs it at 10^6 + 1
    points, 10^5 bins and (1000, 1000)."""
    xs = np.linspace(-1.0, 1.0, points)
    size = math.prod(shape)
    mid = (np.arange(size) + 0.5) / (size / 2) - 1.0
    for model in models:
        cdf = limit_cdf(model, xs)
        lo, hi = support_intervals(model).hull
        assert np.all(np.diff(cdf) >= 0.0), model
        assert np.all(cdf[xs <= lo] == 0.0) and np.all(cdf[xs >= hi] == 1.0), model
        for n in bins:
            # The bin width comes from the span: edges[1] - edges[0] of a
            # 10^5-bin linspace is 1e-12 off, and the mass with it.
            hist = pushforward_density(model, n)
            assert hist.bin_width == 2.0 / n
            midpoints = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
            assert np.max(np.abs(hist.centers - midpoints)) <= 1e-15, (model, n)
            assert np.all(hist.density >= 0.0), (model, n)
            assert abs(hist.total_mass() - 1.0) <= 1e-14, (model, n)
        for read in (limit_density, limit_cdf):
            flat = read(model, mid).reshape(shape)
            assert np.array_equal(read(model, mid.reshape(shape)), flat), (model, read)


def test_pushforward_total_mass(pi4_model, gap_model):
    models = (pi4_model, gap_model, *_models_from_wide_to_narrow_turns())
    check_cdf_and_pushforward(models, 2_001, (100, 400, 10**5), (40, 50))


def test_pushforward_needs_enough_bins(pi4_model):
    with pytest.raises(ValueError):
        pushforward_density(pi4_model, 50)


def test_pushforward_gap_bins_empty(gap_model):
    hist = pushforward_density(gap_model, 400)
    gap = support_intervals(gap_model).gap
    inside = (hist.bin_edges[:-1] > gap[0]) & (hist.bin_edges[1:] < gap[1])
    assert np.any(inside)
    assert np.max(hist.density[inside] * hist.bin_width) <= 1e-10


def test_pushforward_matches_closed_form(pi4_model):
    hist = pushforward_density(pi4_model, 200)
    endpoints = support_intervals(pi4_model).endpoint_values()
    checked = 0
    for i in range(200):
        lo, hi = hist.bin_edges[i], hist.bin_edges[i + 1]
        if np.min(np.abs(np.array([lo, hi])[:, None] - endpoints[None, :])) < 0.02:
            continue
        sub = lo + (np.arange(8) + 0.5) * (hi - lo) / 8.0
        average = float(np.mean(limit_density(pi4_model, sub)))
        assert hist.density[i] == pytest.approx(
            average, abs=max(1e-3, 0.02 * abs(average))
        )
        checked += 1
    assert checked > 100


def test_cdf_support_limits(pi4_model, gap_model):
    for model in (pi4_model, gap_model):
        hull = support_intervals(model).positive[1]
        assert limit_cdf(model, -hull - 0.01) == 0.0
        assert limit_cdf(model, -1.0) == 0.0
        assert limit_cdf(model, hull + 0.01) == pytest.approx(1.0, abs=1e-8)
        assert limit_cdf(model, 1.0) == pytest.approx(1.0, abs=1e-8)


def test_cdf_half_at_origin_for_symmetric_spin(pi4_model, gap_model):
    assert limit_cdf(pi4_model, 0.0) == pytest.approx(0.5, abs=1e-8)
    assert limit_cdf(gap_model, 0.0) == pytest.approx(0.5, abs=1e-8)


def test_cdf_monotone_on_grid(pi4_model, leftward_model):
    xs = np.linspace(-1.0, 1.0, 401)
    for model in (pi4_model, leftward_model):
        values = limit_cdf(model, xs)
        assert np.all(np.diff(values) >= -1e-12)


def test_cdf_flat_inside_gap(gap_model):
    gap = support_intervals(gap_model).gap
    inside = np.linspace(gap[0] + 0.01, gap[1] - 0.01, 9)
    values = limit_cdf(gap_model, inside)
    assert np.max(np.abs(values - 0.5)) <= 1e-10


def test_cdf_agrees_with_density_quadrature(pi4_model, leftward_model):
    from scipy.integrate import quad

    for model in (pi4_model, leftward_model):
        for a, b in ((-0.2, 0.3), (0.0, 0.5), (-0.7, -0.4), (0.35, 0.7)):
            direct, _ = quad(
                lambda x: limit_density(model, x), a, b, epsabs=1e-11, limit=200
            )
            via_cdf = limit_cdf(model, b) - limit_cdf(model, a)
            assert via_cdf == pytest.approx(direct, abs=1e-6)


def test_cdf_against_quadrature_at_the_support_ends():
    # The CDF against a quadrature of the closed-form density, at the four
    # support endpoints (where the density diverges), between them and inside.
    spins = (symmetric_spin(), InitialSpin(1.0, 0.0), InitialSpin(0.6, 0.8j))
    models = [
        LimitModel(rotation_coin(theta), spin)
        for theta in (0.35, 0.7, 1.25, 2.0)
        for spin in spins
    ]
    models += [
        LimitModel(rotation_coin(theta), InitialSpin(0.6, 0.8j))
        for theta in (math.pi / 4, 2 * math.pi / 5, 0.15, 0.05)
    ]
    models.append(LimitModel(general_coin(0.8, 1.7, 0.5, 1.9), InitialSpin(0.6, 0.8j)))
    for model in models:
        ends = support_intervals(model).endpoint_values()
        xs = np.concatenate((ends, 0.5 * (ends[:-1] + ends[1:]), [-0.9, 0.0, 0.6]))
        exact = cdf_by_quadrature(model, xs)
        assert np.max(np.abs(limit_cdf(model, xs) - exact)) <= 1e-10


def test_cdf_table_against_twice_the_panels(monkeypatch):
    # Twice as many table panels move nothing beyond rounding, from a wide
    # turn down to a turn of width ~1e-4 and at a near-trivial angle.
    spin = InitialSpin(0.6, 0.8j)
    xs = np.linspace(-1.0, 1.0, 2001)
    for theta in (math.pi / 4, 0.05, 0.01, 0.001, 1e-4, 1.5706):
        model = LimitModel(rotation_coin(theta), spin)
        at = np.concatenate((xs, support_intervals(model).endpoint_values()))
        default = kspace._LimitCdf(model)
        with monkeypatch.context() as patch:
            patch.setattr(kspace, "_PANELS_PER_UNIT", 2 * kspace._PANELS_PER_UNIT)
            finer = kspace._LimitCdf(model)
        assert finer.panels >= 2 * default.panels - 1
        assert np.max(np.abs(default(at) - finer(at))) <= 1e-12


def test_cdf_for_general_coin_matches_its_density():
    from scipy.integrate import quad

    model = LimitModel(general_coin(0.8, 1.7, 0.5, 1.9), InitialSpin(0.6, 0.8j))
    endpoints = support_intervals(model).endpoint_values()
    for a, b in ((-0.5, 0.2), (0.1, 0.6)):
        interior = [float(e) for e in endpoints if a < e < b]
        direct, _ = quad(
            lambda x: limit_density(model, x),
            a,
            b,
            points=interior,
            epsabs=1e-11,
            limit=400,
        )
        assert limit_cdf(model, b) - limit_cdf(model, a) == pytest.approx(
            direct, abs=1e-6
        )


@pytest.mark.parametrize("refine", [True, False])
def test_nan_abscissas_give_nan(pi4_model, refine):
    xs = np.array([np.nan, -np.inf, 0.1, np.inf, np.nan])
    cdf = limit_cdf(pi4_model, xs, refine=refine)
    assert np.all(np.isnan(cdf[[0, 4]]))
    # +-inf keep their values: no mass below, all of it above.
    assert cdf[1] == 0.0 and 0.0 < cdf[2] < 1.0
    assert cdf[3] == 1.0
    assert math.isnan(limit_cdf(pi4_model, math.nan, refine=refine))
    assert limit_cdf(pi4_model, -math.inf, refine=refine) == 0.0
    assert limit_cdf(pi4_model, math.inf, refine=refine) == cdf[3]
    density = limit_density(pi4_model, xs)
    assert np.all(np.isnan(density[[0, 4]]))
    assert density[1] == 0.0 and density[2] > 0.0 and density[3] == 0.0
    assert math.isnan(limit_density(pi4_model, math.nan))
    assert limit_density(pi4_model, -math.inf) == limit_density(pi4_model, math.inf) == 0.0


@pytest.mark.parametrize("cells", [16.0, np.float64(16)], ids=["float", "float64"])
def test_cells_must_be_an_integer(cells):
    model = LimitModel(rotation_coin(1.2), InitialSpin(0.6, 0.8j))
    with pytest.raises(TypeError):
        pushforward_density(model, 100, cells=cells)


def _models_from_wide_to_narrow_turns():
    spin = InitialSpin(0.6, 0.8j)
    thetas = (math.pi / 4, 2 * math.pi / 5, 0.35, 0.05, 0.001, 1e-4, 1.5706)
    models = [LimitModel(rotation_coin(theta), spin) for theta in thetas]
    models.append(LimitModel(general_coin(0.3, 0.1, 0.9, 1.0), spin))
    models.append(LimitModel(_touching_halves_coin(), spin))
    return models


def _touching_halves_coin():
    # |a| = 1/2 exactly: the inner support ends (1 - 4|a|^2) / 3 meet at 0.
    b = math.sqrt(0.75)
    return CoinOperator(np.array([[0.5, b], [b, -0.5]], dtype=np.complex128))


def test_cdf_where_the_support_halves_touch():
    # At x = 0 both level crossings are double roots of their quadratics;
    # they land on pi/2 with no 0/0 on the way.
    for spin in (InitialSpin(0.6, 0.8j), symmetric_spin()):
        model = LimitModel(_touching_halves_coin(), spin)
        table = kspace._LimitCdf(model)
        assert table.low == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            up, down = table.crossings(np.array([0.0, 1e-300, 1e-12]))
            xs = np.array([-0.3, -1e-12, 0.0, 1e-12, 0.3])
            cdf = limit_cdf(model, xs)
        assert up[0] == down[0] == 0.5 * math.pi
        assert np.all(np.diff(cdf) > 0.0)
        assert np.max(np.abs(cdf - cdf_by_quadrature(model, xs))) <= 1e-10


def test_velocity_falls_monotonically_in_sin_squared():
    # On 0 < k < pi branch 1 moves at g(sin^2 k), from the hull at y = 0
    # down to the inner support end at y = 1: the fact the CDF rests on.
    y = np.linspace(0.0, 1.0, 20001)[1:-1]
    k = np.arcsin(np.sqrt(y))
    for model in _models_from_wide_to_narrow_turns():
        c, s = model.a_abs, model.b_abs
        g = kspace._velocities(c, s, k)[1]
        assert np.all(np.diff(g) < 0.0)
        table = kspace._LimitCdf(model)
        low, hull = support_intervals(model).positive
        assert (table.low, table.hull) == (low, hull)
        assert low < g[-1] and g[0] < hull


@pytest.mark.parametrize("theta", [math.pi / 4, 2 * math.pi / 5, 0.05])
def test_level_crossings_move_at_their_level(theta):
    model = LimitModel(rotation_coin(theta), InitialSpin(0.6, 0.8j))
    table = kspace._LimitCdf(model)
    c, s = model.a_abs, model.b_abs
    a = np.linspace(0.0, table.hull, 4001)[1:-1]
    up, down = table.crossings(a)
    for level, kappa in ((a, up), (-a, down)):
        # levels beyond the velocity range cross nowhere: kappa is pi/2
        reached = level > table.low
        assert np.all(kappa[~reached] == 0.5 * math.pi)
        h = kspace._velocities(c, s, kappa[reached])[1]
        assert np.all(np.abs(h - level[reached]) <= 1e-13)


def test_cdf_is_exact_beyond_the_hull_and_monotone():
    check_cdf_and_pushforward(_models_from_wide_to_narrow_turns(), 100_001, (), (40, 50))


@pytest.mark.parametrize("theta", [0.3055476202671388, 0.1351539135338643])
def test_cdf_is_exactly_zero_and_one_at_the_hull(theta):
    # At these angles a_abs**2 and a_abs * a_abs differ by an ulp.  The table
    # reads its ends from support_intervals, so the hull is not a point just
    # inside the support, where the square-root edge would read ~1e-8 off.
    model = LimitModel(rotation_coin(theta), InitialSpin(0.6, 0.8j))
    assert model.a_abs**2 != model.a_abs * model.a_abs
    lo, hi = support_intervals(model).hull
    assert limit_cdf(model, [lo, hi]).tolist() == [0.0, 1.0]


def _per_point(table, xs):
    return np.concatenate([table(xs[i : i + 1]) for i in range(xs.size)])


def test_mirrored_cdf_read_equals_per_point_reads():
    # Rescaled walk positions are their own mirror image; the read of |x|
    # serves both signs, bit for bit, at odd and even times.
    models = [
        LimitModel(rotation_coin(math.pi / 4), InitialSpin(0.6, 0.8j)),
        LimitModel(_touching_halves_coin(), symmetric_spin()),
        LimitModel(general_coin(0.4, 1.2, 2.2, 2.0), InitialSpin(0.6, -0.8j)),
    ]
    for model in models:
        table = kspace._LimitCdf(model)
        for t in (1, 2, 3, 98, 99, 998, 999):
            xs = np.arange(-t, t + 1, 2) / t
            assert np.array_equal(xs, -xs[::-1])
            assert np.array_equal(table(xs), _per_point(table, xs))
        # an inside point and its mirror at -0.0 and 0.0, and points beyond the hull
        xs = np.array([-1.5, -0.3, -0.0, 0.0, 0.3, 1.5])
        assert np.array_equal(table(xs), _per_point(table, xs))


def test_cdf_read_falls_back_for_unmirrored_and_nan_input():
    model = LimitModel(_touching_halves_coin(), symmetric_spin())
    table = kspace._LimitCdf(model)
    xs = np.arange(-99, 100, 2) / 99
    shifted = xs + 1e-3
    assert not np.array_equal(shifted, -shifted[::-1])
    assert np.array_equal(table(shifted), _per_point(table, shifted))
    holes = xs.copy()
    holes[[0, -1]] = np.nan
    cdf = table(holes)
    assert np.all(np.isnan(cdf[[0, -1]]))
    assert np.array_equal(cdf[1:-1], table(xs)[1:-1])
    assert np.array_equal(cdf, _per_point(table, holes), equal_nan=True)
