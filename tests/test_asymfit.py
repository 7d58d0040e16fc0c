"""Growth collection and exponential-rate fitting."""

import math
import random

import numpy as np
import pytest

from knotvol import asymfit
from knotvol.asymfit import (
    MODELS,
    FitResult,
    GrowthSeries,
    collect_series,
    fit_growth,
    main_claim_report,
)
from knotvol.knots import KnotId
from knotvol.saddle import hyperbolic_volume

PI = math.pi


def _series(points):
    return GrowthSeries(KnotId.FOUR_ONE, tuple(points))


def test_collect_small_window():
    s = collect_series(KnotId.FOUR_ONE, 2, 4, 1)
    assert [n for n, _ in s.points] == [2, 3, 4]
    for (_, log_abs), value in zip(s.points, (5.0, 13.0, 27.0)):
        assert abs(log_abs - math.log(value)) <= 1e-12


def test_collect_validation():
    with pytest.raises(ValueError):
        collect_series(KnotId.FOUR_ONE, 1, 4, 1)  # growth needs N >= 2
    with pytest.raises(ValueError):
        collect_series(KnotId.FOUR_ONE, 10, 10, 1)
    with pytest.raises(ValueError):
        collect_series(KnotId.FOUR_ONE, 2, 10, 0)
    with pytest.raises(ValueError, match="threads must be >= 1, got 0"):
        collect_series(KnotId.FOUR_ONE, 2, 10, 1, threads=0)


def test_collect_is_inclusive_and_strided():
    s = collect_series(KnotId.FIVE_TWO, 10, 30, 10)
    assert [n for n, _ in s.points] == [10, 20, 30]


def test_collect_threads_match_serial():
    serial = collect_series(KnotId.SIX_ONE, 10, 40, 10, threads=1)
    threaded = collect_series(KnotId.SIX_ONE, 10, 40, 10, threads=3)
    assert serial == threaded


def test_series_sorts_and_validates():
    s = _series([(30, 3.0), (10, 1.0), (20, 2.0)])
    assert [n for n, _ in s.points] == [10, 20, 30]
    with pytest.raises(ValueError):
        _series([(10, 1.0), (10, 2.0)])
    with pytest.raises(ValueError):
        _series([(0, 1.0)])
    with pytest.raises(ValueError):
        _series([(10, math.inf)])


def test_series_refuses_non_integer_orders():
    # an order is taken whole or refused, never truncated: 2.7 is not
    # read as N = 2, so it cannot pass for a duplicate of N = 2 either
    with pytest.raises(TypeError, match="order must be an integer, got 2.7"):
        _series([(2.7, 1.0), (2, 2.0)])
    with pytest.raises(TypeError):
        _series([(10.0, 1.0)])
    with pytest.raises(TypeError):
        _series([("10", 1.0)])
    s = _series([(np.int64(20), 2.0), (1, 0.5)])
    assert s.points == ((1, 0.5), (20, 2.0))
    assert all(type(n) is int for n, _ in s.points)


def test_series_refuses_knot_names():
    # a knot is a KnotId, as quantum_invariant takes it; a name is refused
    with pytest.raises(TypeError, match="KnotId.parse"):
        GrowthSeries("4_1", ((10, 1.0),))


def test_series_subset():
    s = _series([(10, 1.0), (20, 2.0), (30, 3.0)])
    assert [n for n, _ in s.subset(15).points] == [20, 30]
    # a threshold past the last N leaves a degenerate empty series,
    # which any fit then refuses on point count
    empty = s.subset(31)
    assert empty.points == ()
    with pytest.raises(ValueError):
        fit_growth(empty, "linear")


def test_fit_recovers_pure_linear_growth():
    ns = range(10, 101, 10)
    s = _series([(n, 0.3230 * n) for n in ns])
    for model in MODELS:
        fit = fit_growth(s, model)
        a, b, c = fit.coefficients
        assert abs(a - 0.3230) <= 1e-12
        assert abs(b) <= 1e-12 and abs(c) <= 1e-12
        assert fit.rms_residual <= 1e-12
        assert fit.volume_estimate == 2 * PI * a
        assert fit.window == (10, 100)


def test_fit_recovers_log_corrected_growth():
    s = _series([(n, 0.5 * n + 1.5 * math.log(n) - 2.0) for n in range(10, 101, 10)])
    fit = fit_growth(s, "linear_plus_log")
    a, b, c = fit.coefficients
    assert abs(a - 0.5) <= 1e-10
    assert abs(b - 1.5) <= 1e-10
    assert abs(c + 2.0) <= 1e-10


def test_fit_is_order_invariant():
    rng = random.Random(99)
    pts = [(n, 0.3 * n + 1.4 * math.log(n) + rng.gauss(0, 0.01)) for n in range(10, 151, 10)]
    fit1 = fit_growth(_series(pts), "linear_plus_log")
    rng.shuffle(pts)
    fit2 = fit_growth(_series(pts), "linear_plus_log")
    assert fit1 == fit2  # bit-for-bit, not merely close


def test_fit_minimum_points():
    with pytest.raises(ValueError):
        fit_growth(_series([(10, 1.0)]), "linear")
    with pytest.raises(ValueError):
        fit_growth(_series([(10, 1.0), (20, 2.0), (30, 3.0)]), "linear_plus_log")
    fit_growth(_series([(10, 1.0), (20, 2.0)]), "linear")


def test_fit_unknown_model():
    with pytest.raises(ValueError):
        fit_growth(_series([(10, 1.0), (20, 2.0)]), "cubic")


def test_fit_rank_deficiency():
    # N values so large that log N is numerically constant across them
    pts = tuple((10**15 + i, float(i)) for i in range(5))
    with pytest.raises(ArithmeticError):
        fit_growth(GrowthSeries(KnotId.FOUR_ONE, pts), "linear_plus_log")


def test_log_term_improves_real_series_fit():
    s = collect_series(KnotId.FOUR_ONE, 50, 150, 10)
    plain = fit_growth(s, "linear")
    corrected = fit_growth(s, "linear_plus_log")
    assert corrected.rms_residual <= plain.rms_residual
    assert isinstance(corrected, FitResult)


def test_main_claim_four_one():
    report = main_claim_report(KnotId.FOUR_ONE, 50, 300, 10)
    vol = hyperbolic_volume(KnotId.FOUR_ONE).volume
    assert report.saddle_volume == vol
    assert report.relative_gap <= 0.01
    assert report.absolute_gap == abs(report.volume_estimate - vol)
    # restricting to the larger-N half must tighten the estimate
    assert report.shifted_relative_gap < report.relative_gap
    assert report.gap_shrinks


def test_window_shrink_monotonicity_four_one():
    # raising N_min from 50 to 100 with N_max = 300 fixed must not widen
    # the gap to the saddle volume
    vol = hyperbolic_volume(KnotId.FOUR_ONE).volume
    wide = fit_growth(collect_series(KnotId.FOUR_ONE, 50, 300, 10), "linear_plus_log")
    high = fit_growth(collect_series(KnotId.FOUR_ONE, 100, 300, 10), "linear_plus_log")
    assert abs(high.volume_estimate - vol) <= abs(wide.volume_estimate - vol)


def test_main_claim_gap_values_track_fit():
    report = main_claim_report(KnotId.FIVE_TWO, 30, 150, 10)
    assert report.volume_estimate == report.fit.volume_estimate
    assert report.fit.window == (30, 150)
    assert report.relative_gap == report.absolute_gap / report.saddle_volume


def test_main_claim_checks_sub_window_before_computing(monkeypatch):
    # N = 100..190 has no order N >= 200 to refit on; the report must say
    # so before it evaluates a single growth point
    def unexpected(knot, order):
        raise AssertionError(f"growth point N = {order} computed")

    monkeypatch.setattr(asymfit, "growth_point", unexpected)
    with pytest.raises(ValueError, match=r"sub-window N >= 200 .* holds 0 points"):
        main_claim_report(KnotId.FIVE_TWO, 100, 190, 10)
    with pytest.raises(ValueError, match="holds 1 points; linear needs >= 2"):
        main_claim_report(KnotId.FIVE_TWO, 100, 200, 10, "linear")
    with pytest.raises(ValueError, match="model must be one of"):
        main_claim_report(KnotId.FIVE_TWO, 10, 100, 10, "cubic")
    with pytest.raises(TypeError, match="threads"):
        main_claim_report(KnotId.FIVE_TWO, 10, 100, 10, threads=1)
