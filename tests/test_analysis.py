import math

import numpy as np
import pytest

import triwalk.analysis
from triwalk import (
    CoinOperator,
    InitialSpin,
    LimitModel,
    NoGap,
    PositionDistribution,
    canonical_protocol,
    compare_distribution,
    compare_walk,
    distribution,
    empirical_moment,
    evolve,
    gap_mass,
    general_coin,
    ks_distance,
    kspace_moment,
    limit_cdf,
    mirror_asymmetry,
    moment_report,
    offphase_compare,
    rotation_coin,
    step,
    support_intervals,
    symmetric_spin,
    three_period_protocol,
)
from triwalk.walk import _distributions


def lattice_dist(mapping: dict[int, float], t: int | None = None) -> PositionDistribution:
    xs = sorted(mapping)
    if t is None:
        t = max(abs(x) for x in xs)
    return PositionDistribution(
        positions=np.array(xs, dtype=np.int64),
        probabilities=np.array([mapping[x] for x in xs]),
        t=t,
    )


def _uniform(xs):
    return np.clip((np.asarray(xs, dtype=np.float64) + 1.0) / 2.0, 0.0, 1.0)


def test_ks_with_points_two_point_versus_uniform():
    # The oracle's step CDF of {-1: 1/2, 1: 1/2} is 0, 1/2, 1 on the three
    # pieces: 1/2 off the uniform law after -1 and before 1, 0 at the origin.
    from _oracles import ks_with_points

    two_point = lattice_dist({-1: 0.5, 1: 0.5})
    assert ks_with_points(two_point, 1.0, _uniform, [0.0]) == 0.5
    assert ks_with_points(two_point, 2.0, _uniform, [0.0]) == 0.25


def test_ks_with_points_perfect_match_is_jump_size():
    # A discretisation of its own reference CDF: the distance is the largest
    # increment, read just before its atom.
    from _oracles import ks_with_points

    xs = np.arange(-10, 11, 1)
    probs = np.diff(_uniform(xs / 10))
    dist = PositionDistribution(positions=xs[1:], probabilities=probs, t=10)
    assert ks_with_points(dist, 10, _uniform, [-1.0, 1.0]) == pytest.approx(0.05, abs=1e-12)


@pytest.mark.parametrize("first", [0.3, 0.7])
def test_ks_distance_reads_each_one_sided_limit(gap_model, pi4_model, first):
    # Two atoms at the support's ends, where the limit CDF is 0 and 1: with
    # the larger mass first the distance is read after -1, with it second,
    # only before 1.
    dist = lattice_dist({-1: first, 1: 1.0 - first})
    for model in (gap_model, pi4_model):
        assert limit_cdf(model, np.array([-1.0, 1.0])).tolist() == [0.0, 1.0]
        assert ks_distance(dist, 1.0, model) == pytest.approx(max(first, 1.0 - first), abs=1e-15)


def test_ks_distance_invariant_under_zero_probability_entries(pi4_model):
    dist = distribution(evolve(symmetric_spin(), three_period_protocol(math.pi / 4), 30))
    base = ks_distance(dist, 30, pi4_model)
    padded = PositionDistribution(
        positions=np.concatenate(([-31], dist.positions, [31])),
        probabilities=np.concatenate(([0.0], dist.probabilities, [0.0])),
        t=31,
    )
    assert ks_distance(padded, 30, pi4_model) == base


def test_ks_self_discretisation_of_limit_law(pi4_model):
    # Discretise the limit law itself onto a fine lattice, each cell's mass
    # on its right end; the KS distance collapses to the largest single
    # increment, read just before its atom.
    xs = np.arange(-1_000_000, 1_000_001, 2)
    probs = np.diff(limit_cdf(pi4_model, xs / 1e6))
    dist = PositionDistribution(positions=xs[1:], probabilities=probs / probs.sum(), t=10**6)
    distance = ks_distance(dist, 1e6, pi4_model)
    assert distance < 1e-3
    assert distance == pytest.approx(dist.probabilities.max(), abs=1e-9)


def test_gap_mass_requires_a_gap(pi4_model, gap_model):
    dist = lattice_dist({0: 1.0})
    with pytest.raises(NoGap):
        gap_mass(dist, 1.0, pi4_model)
    assert gap_mass(dist, 1.0, gap_model) == 1.0


def test_gap_mass_window_margin(gap_model):
    # gap edge is ~0.20601; the margin keeps the window at |y| <= ~0.19601
    dist = lattice_dist({-190: 0.25, 0: 0.5, 190: 0.25}, t=1000)
    assert gap_mass(dist, 1000.0, gap_model) == pytest.approx(1.0)
    edge = lattice_dist({-197: 0.5, 197: 0.5}, t=1000)
    assert gap_mass(edge, 1000.0, gap_model) == 0.0


def test_mirror_asymmetry_symmetric_and_point_mass():
    symmetric = lattice_dist({-3: 0.2, -1: 0.3, 1: 0.3, 3: 0.2})
    assert mirror_asymmetry(symmetric) <= 1e-12
    point = lattice_dist({-1: 1.0})
    assert mirror_asymmetry(point) == 1.0


def test_mirror_asymmetry_detects_skew():
    skew = lattice_dist({-1: 0.75, 1: 0.25})
    assert mirror_asymmetry(skew) == pytest.approx(0.5, abs=1e-12)


def _mirror_asymmetry_over_the_union(dist):
    pos, prob = dist.positions, dist.probabilities
    points = np.union1d(pos, -pos)
    cum = np.concatenate(([0.0], np.cumsum(prob)))
    forward = cum[np.searchsorted(pos, points, side="right")]
    mirrored = 1.0 - cum[np.searchsorted(pos, -points, side="left")]
    return float(np.max(np.abs(forward - mirrored)))


def test_mirror_asymmetry_is_the_same_with_or_without_mirrored_positions(
    gap_model, leftward_model
):
    # A walk's positions mirror themselves, and so do those of the skewed
    # distribution, so they are read by index; padding one side with a
    # zero-probability site leaves the read over the union.
    dist = distribution(evolve(gap_model.spin, canonical_protocol(gap_model.coin), 41))
    padded = PositionDistribution(
        positions=np.concatenate((dist.positions, [43])),
        probabilities=np.concatenate((dist.probabilities, [0.0])),
        t=43,
    )
    skew = lattice_dist({-3: 0.25, -2: 0.25, -1: 0.25, 1: 0.0, 2: 0.0, 3: 0.25})
    general = LimitModel(general_coin(0.4, 1.2, 2.2, 2.0), symmetric_spin())
    walks = [
        d
        for model in (leftward_model, general)
        for d in _distributions(
            model.spin, canonical_protocol(model.coin), [0, 1, 2, 297, 298]
        )
    ]
    for case in (dist, padded, skew, lattice_dist({-1: 0.5, 2: 0.25, 3: 0.25}), *walks):
        assert mirror_asymmetry(case) == _mirror_asymmetry_over_the_union(case)
    assert mirror_asymmetry(padded) == mirror_asymmetry(dist)


def test_ks_distance_is_exact(pi4_model, gap_model):
    from _oracles import cdf_by_quadrature, ks_with_points

    for model in (pi4_model, gap_model):
        dist = distribution(evolve(model.spin, canonical_protocol(model.coin), 99))
        exact = ks_with_points(
            dist,
            99,
            lambda xs: cdf_by_quadrature(model, xs),
            support_intervals(model).endpoint_values(),
        )
        assert abs(ks_distance(dist, 99, model) - exact) <= 1e-9


def test_moment_report_zero_order_error_vanishes(pi4_model):
    report = moment_report(pi4_model, [9, 30], r_max=2)
    for entry in report:
        orders = [r for r, _ in entry.errors]
        assert orders == [0, 1, 2]
        assert entry.errors[0][1] <= 1e-12


def test_moment_errors_shrink_with_time(pi4_model):
    report = moment_report(pi4_model, [99, 999], r_max=2)
    early = dict(report[0].errors)
    late = dict(report[1].errors)
    assert late[2] < early[2]


@pytest.mark.parametrize("t", [30, 999])
def test_moment_report_of_one_time_equals_compare_walk(pi4_model, t):
    (entry,) = moment_report(pi4_model, [t])
    assert entry.time == t
    assert entry.errors == compare_walk(pi4_model, t).moment_errors


def test_moment_report_reads_once_and_keeps_the_input_order(pi4_model):
    # sparse: every read is one FFT, as a single report's is, bit for bit
    sparse = [999, 60, 999, 300]
    report = moment_report(pi4_model, sparse)
    assert report == [moment_report(pi4_model, [t])[0] for t in sparse]
    # dense: one stepped pass, against each time's own read
    dense = [600, *range(3, 600, 3)]
    report = moment_report(pi4_model, dense, r_max=8)
    assert [entry.time for entry in report] == dense
    for entry in report[::25]:
        (single,) = moment_report(pi4_model, [entry.time], r_max=8)
        for (r, got), (_, want) in zip(entry.errors, single.errors):
            assert abs(got - want) <= 1e-12, (entry.time, r)


def test_moment_report_of_no_times_and_a_negative_time(pi4_model):
    assert moment_report(pi4_model, []) == []
    with pytest.raises(ValueError):
        moment_report(pi4_model, [99, -3])


@pytest.mark.parametrize("time", [0, -3])
@pytest.mark.parametrize(
    "report",
    [lambda model, t: moment_report(model, [99, t]), compare_walk],
    ids=["moment_report", "compare_walk"],
)
def test_reports_refuse_a_time_below_one_before_reading(pi4_model, monkeypatch, report, time):
    # Refused by the time check itself, not by a rescaling by 0 after the read.
    def unread(*args):
        raise AssertionError("the walk was read")

    monkeypatch.setattr(triwalk.analysis, "evolve", unread)
    monkeypatch.setattr(triwalk.analysis, "_distributions", unread)
    with pytest.raises(ValueError, match="^time must be at least 1$"):
        report(pi4_model, time)


@pytest.mark.parametrize(
    "r_max, error, match",
    [
        (-1, ValueError, "^moment order must be between 0 and 8$"),
        (9, ValueError, "^moment order must be between 0 and 8$"),
        (2.0, TypeError, "integer"),
    ],
)
@pytest.mark.parametrize(
    "report",
    [
        lambda model, r_max: compare_walk(model, 99, r_max=r_max),
        lambda model, r_max: offphase_compare(model, 33, r_max=r_max),
        lambda model, r_max: moment_report(model, [99], r_max=r_max),
        lambda model, r_max: compare_distribution(
            model, lattice_dist({-1: 0.5, 1: 0.5}), 1, r_max=r_max
        ),
    ],
    ids=["compare_walk", "offphase_compare", "moment_report", "compare_distribution"],
)
def test_reports_refuse_a_bad_order_before_reading(
    pi4_model, monkeypatch, report, r_max, error, match
):
    # Refused by the order check itself, before the walk or the KS distance
    # is read, and not by ``range`` after them.
    def unread(*args):
        raise AssertionError("the walk or the limit law was read")

    for name in ("evolve", "_distributions", "ks_distance"):
        monkeypatch.setattr(triwalk.analysis, name, unread)
    with pytest.raises(error, match=match):
        report(pi4_model, r_max)


# T * dm_1 and T^2 * dm_2, dm_r the signed moment error, on one T ladder.
# Gapped, they are constant: 0.26371 and 0.5347, gated at 1e-3 relative.
# Gapless, they wander in -0.16267 .. -0.15550 and 1.4432 .. 1.5570 (as
# measured), gated in those bands widened by 0.005 and 0.05 on either side.
LAW_TIMES = [999, 2997, 9999, 29997, 99999]
GAPPED_LAWS = [(c * (1 - 1e-3), c * (1 + 1e-3)) for c in (0.26371, 0.5347)]
GAPLESS_LAWS = [(-0.16267 - 0.005, -0.15550 + 0.005), (1.4432 - 0.05, 1.5570 + 0.05)]


@pytest.mark.parametrize(
    "theta, spin, rel, bands",
    [
        # T * dm_1: 0.26371 at T = 9,999 and 99,999
        (2 * math.pi / 5, InitialSpin(1.0, 0.0), 1e-3, GAPPED_LAWS),
        # T * |dm_1|: 0.15681, then 0.15855
        (math.pi / 4, InitialSpin(0.6, 0.8j), 2e-2, GAPLESS_LAWS),
    ],
    ids=["gapped", "gapless"],
)
def test_moment_errors_fall_as_their_power_of_time(theta, spin, rel, bands):
    model = LimitModel(rotation_coin(theta), spin)
    limit = [kspace_moment(model, r) for r in (1, 2)]
    scaled = {}
    for dist in _distributions(spin, canonical_protocol(model.coin), LAW_TIMES):
        t = dist.t
        for r, m, (lo, hi) in zip((1, 2), limit, bands):
            scaled[t, r] = t**r * (empirical_moment(dist, r, t) - m)
            assert lo <= scaled[t, r] <= hi, (t, r)
    assert scaled[99999, 1] == pytest.approx(scaled[9999, 1], rel=rel)


@pytest.mark.parametrize(
    "theta, spin",
    [
        (math.pi / 4, InitialSpin(0.6, 0.8j)),  # slope -0.385
        (2 * math.pi / 5, InitialSpin(1.0, 0.0)),  # -0.394
        (0.3, symmetric_spin()),  # -0.393
        (1.2, InitialSpin(0.6, 0.8j)),  # -0.391
    ],
)
def test_ks_distance_falls_near_the_cube_root_of_time(theta, spin):
    # The least-squares slope of log KS against log T on T = 3,162 .. 99,999:
    # near -1/3 (Airy scaling at the support edges), not -1/2.
    model = LimitModel(rotation_coin(theta), spin)
    times = [3 * round(10**e / 3) for e in (3.5, 3.75, 4.0, 4.25, 4.5, 4.75, 5.0)]
    dists = _distributions(spin, canonical_protocol(model.coin), times)
    ks = [ks_distance(d, d.t, model) for d in dists]
    slope = np.polyfit(np.log(times), np.log(ks), 1)[0]
    assert -0.43 <= slope <= -0.35


def check_compare_walk(model, time, r_max=4):
    """``compare_walk(model, time, r_max=r_max)``: every report field in
    range, a gap mass exactly when the law has a gap, and m_0 = 1 to 1e-14.
    Returns the report."""
    report = compare_walk(model, time, r_max=r_max)
    assert report.time == time
    assert 0.0 <= report.ks_distance <= 1.0, report.ks_distance
    assert 0.0 <= report.mirror_asymmetry <= 1.0, report.mirror_asymmetry
    assert [r for r, _ in report.moment_errors] == list(range(r_max + 1))
    assert all(0.0 <= e < 1.0 for _, e in report.moment_errors), report.moment_errors
    has_gap = support_intervals(model).gap is not None
    assert (report.gap_mass is not None) == has_gap
    assert report.gap_mass is None or 0.0 <= report.gap_mass <= 1.0, report.gap_mass
    assert abs(kspace_moment(model, 0) - 1.0) <= 1e-14
    return report


def check_near_trivial_collapse(tau, time):
    """Near a trivial angle, ``compare_walk``'s KS depends on ``eps^2 T``
    alone: with spin (0.6, 0.8i) and theta = eps, pi - eps and pi/2 - eps,
    ``eps = sqrt(tau / time)``, the KS at ``(eps, time)`` and at
    ``(eps / 10, 100 time)`` agree within 1e-4.  Both read far from the
    long-time law (KS above 0.2 at ``tau <= 1``).  CI runs ``tau = 1`` from
    T = 9,999 (KS 0.33 and 0.25)."""
    spin = InitialSpin(0.6, 0.8j)
    eps = math.sqrt(tau / time)
    for angle in (lambda e: e, lambda e: math.pi - e, lambda e: 0.5 * math.pi - e):
        ks = [
            compare_walk(LimitModel(rotation_coin(angle(e)), spin), t).ks_distance
            for e, t in ((eps, time), (eps / 10, 100 * time))
        ]
        assert ks[0] > 0.2, (angle(eps), ks)
        assert abs(ks[0] - ks[1]) <= 1e-4, (angle(eps), ks)


def test_near_trivial_angles_collapse_on_eps_squared_time():
    # KS 0.599 (theta = eps, pi - eps) and 0.319 (pi/2 - eps) at eps^2 T = 0.1
    check_near_trivial_collapse(0.1, 999)


def check_cold_models(count):
    """``check_compare_walk`` at T = 297 on ``count`` fresh models with seed
    17, each paying once for its CDF table.  The first twelve take six fixed
    angles, from a turn of width 1e-4 to a near-trivial angle, each once as
    a rotation coin and once as a general coin; the rest uniform angles.
    Every model has a random spin.  CI runs 1,000."""
    from _oracles import random_spin

    rng = np.random.default_rng(17)
    fixed = [1e-4, 1.5706, 0.001, 0.05, math.pi / 4, 3.1405]
    for i in range(count):
        theta = fixed[i // 2] if i < 2 * len(fixed) else rng.uniform(1e-4, 3.1415)
        if i % 2:
            coin = general_coin(*rng.uniform(-math.pi, math.pi, 3), theta)
        else:
            coin = rotation_coin(theta)
        model = LimitModel(coin, InitialSpin(*random_spin(rng)))
        check_compare_walk(model, 297)


def test_compare_walk_report_fields(gap_model):
    report = check_compare_walk(gap_model, 99, r_max=2)
    assert report.coin_label.startswith("rotation(")
    assert report.gap_mass is not None
    assert report.mirror_asymmetry <= 1e-12
    check_cold_models(12)  # CI's six fixed angles, each with two coins


def test_compare_walk_no_gap_reports_none(pi4_model):
    report = compare_walk(pi4_model, 30, r_max=1)
    assert report.gap_mass is None


def test_reports_are_deterministic(gap_model):
    first = compare_walk(gap_model, 60, r_max=2)
    second = compare_walk(gap_model, 60, r_max=2)
    assert first == second


def test_gap_mass_bounded_by_ks(gap_model):
    # empirical gap mass <= 2 * KS + limit mass in the window (zero)
    for t in (99, 399):
        dist = distribution(
            evolve(symmetric_spin(), three_period_protocol(2 * math.pi / 5), t)
        )
        ks = ks_distance(dist, t, gap_model)
        assert gap_mass(dist, t, gap_model) <= 2.0 * ks + 1e-12


def test_offphase_small_time_is_well_defined(pi4_model):
    first, second = offphase_compare(pi4_model, 1, r_max=1)
    assert first.time == 4 and second.time == 5
    assert 0.0 <= first.ks_distance <= 1.0
    assert 0.0 <= second.ks_distance <= 1.0
    with pytest.raises(ValueError):
        offphase_compare(pi4_model, 0)


@pytest.mark.parametrize(
    "coin", [rotation_coin(2 * math.pi / 5), general_coin(0.4, 1.2, 2.2, 2.0)]
)
def test_offphase_compare_equals_evolve_then_step(coin):
    model = LimitModel(coin, InitialSpin(0.6, 0.8j))
    protocol = canonical_protocol(coin)
    state = evolve(model.spin, protocol, 16)
    first = compare_distribution(model, distribution(state), 16, r_max=2)
    state = step(state, protocol.coins[16 % 3])
    second = compare_distribution(model, distribution(state), 17, r_max=2)
    assert offphase_compare(model, 5, r_max=2) == (first, second)


def test_general_coin_walk_converges_to_its_limit_law():
    model = LimitModel(general_coin(0.7, 1.1, 0.4, 2 * math.pi / 5), InitialSpin(0.6, 0.8j))
    report = compare_walk(model, 300, r_max=2)
    assert report.ks_distance <= 0.08
    assert report.gap_mass is not None and report.gap_mass <= 0.05


@pytest.mark.parametrize("scale", [0, -1, math.nan, math.inf])
def test_scale_must_be_positive_and_finite(gap_model, scale):
    dist = lattice_dist({-1: 0.5, 1: 0.5})
    for call in (
        lambda: ks_distance(dist, scale, gap_model),
        lambda: empirical_moment(dist, 2, scale),
        lambda: gap_mass(dist, scale, gap_model),
    ):
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            call()


def test_ks_distance_is_the_per_point_read_bit_for_bit(pi4_model, gap_model):
    from _oracles import ks_with_points

    # The walks at T = 98, 99, and the two-point law, whose distance 1/2 is
    # read after its first atom and before its second.
    two_point = lattice_dist({-1: 0.5, 1: 0.5})
    for model in (pi4_model, gap_model):
        walks = [
            (distribution(evolve(model.spin, canonical_protocol(model.coin), t)), t)
            for t in (98, 99)
        ]
        for dist, scale in (*walks, (two_point, 1.0), (two_point, 2.0)):
            per_point = ks_with_points(
                dist,
                scale,
                lambda xs: np.array([limit_cdf(model, float(x)) for x in xs]),
                support_intervals(model).endpoint_values(),
            )
            assert ks_distance(dist, scale, model) == per_point
    assert ks_distance(two_point, 1.0, gap_model) == 0.5


def _ks_models():
    """Rotation coins gapped (|a| < 1/2) and gapless, general coins, and the
    coin with |a| = 1/2, where the support halves touch: 54 models."""
    from _oracles import random_safe_angle, random_spin

    rng = np.random.default_rng(53)
    half = math.sqrt(0.75)
    coins = [rotation_coin(rng.uniform(1.1, 1.5)) for _ in range(10)]
    coins += [rotation_coin(rng.uniform(0.1, 1.0)) for _ in range(10)]
    coins += [
        general_coin(*rng.uniform(-math.pi, math.pi, 3), random_safe_angle(rng))
        for _ in range(30)
    ]
    coins += [CoinOperator(np.array([[0.5, half], [half, -0.5]], dtype=np.complex128))] * 2
    coins += [rotation_coin(math.pi / 3)] * 2
    return [LimitModel(coin, InitialSpin(*random_spin(rng))) for coin in coins]


def test_ks_at_the_atoms_is_ks_with_the_support_endpoints():
    # The limit CDF is nondecreasing, so no endpoint can raise the supremum.
    from _oracles import ks_with_points

    models = _ks_models()
    assert len(models) >= 50
    gaps = [support_intervals(m).gap is not None for m in models]
    assert any(gaps) and not all(gaps)
    for model in models:
        protocol = canonical_protocol(model.coin)
        endpoints = support_intervals(model).endpoint_values()
        for dist in _distributions(model.spin, protocol, [9, 30, 297, 999]):
            with_endpoints = ks_with_points(
                dist, dist.t, lambda xs: limit_cdf(model, xs), endpoints
            )
            assert ks_distance(dist, dist.t, model) == with_endpoints
