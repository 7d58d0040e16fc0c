"""Dilogarithm, Lobachevsky, and quantum dilogarithm tests.

Reference values come from plain power series, scipy quadrature, and
closed-form identities computed inside this file.
"""

import cmath
import math
import random

from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from knotvol.qdilog import (
    PolarPoint,
    PoleError,
    QdParams,
    QuadratureError,
    f_bar_gamma,
    f_gamma,
    faddeev_log_s,
    faddeev_s,
    funeq_residual,
    im_li2_polar,
    li2,
    lobachevsky,
    phi_angle,
)
from knotvol.qdilog import _bernoulli_numbers

PI = math.pi


def _bernoulli_by_binomial_sums(count):
    # B_m = -sum_{j<m} C(m+1, j) B_j / (m+1), in exact rationals
    bern = [Fraction(1)]
    for m in range(1, count):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * bern[j]
        bern.append(-acc / (m + 1))
    return bern[:count]


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 6, 7, 72, 101])
def test_bernoulli_numbers_match_binomial_recurrence(count):
    # the tangent-number route gives the same rationals, so the li2 and
    # Lobachevsky series coefficients keep their bits
    assert _bernoulli_numbers(count) == _bernoulli_by_binomial_sums(count)


def _li2_power_series(z, terms=80):
    # plain sum z^n / n^2, adequate only for |z| <= 1/2
    return sum(z**n / (n * n) for n in range(terms, 0, -1))


def test_li2_matches_power_series_on_half_disc():
    rng = random.Random(31)
    points = [complex(0.5, 0), complex(-0.5, 0), complex(0, 0.5), 0.25 + 0.25j]
    points += [
        cmath.rect(0.5 * rng.random(), 2 * PI * rng.random()) for _ in range(40)
    ]
    for z in points:
        assert abs(li2(z) - _li2_power_series(z)) <= 1e-15


def test_li2_matches_scipy_on_wide_grid():
    # scipy's spence(w) equals li2(1 - w)
    rng = random.Random(47)
    worst = 0.0
    for _ in range(200):
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if abs(z.imag) < 1e-3:
            continue
        ref = scipy.special.spence(complex(1.0 - z))
        worst = max(worst, abs(li2(z) - ref) / (1.0 + abs(ref)))
    assert worst <= 1e-13


def test_li2_special_values():
    assert li2(0) == 0
    assert abs(li2(1) - PI * PI / 6) <= 1e-15
    assert abs(li2(-1) + PI * PI / 12) <= 1e-15
    half = PI * PI / 12 - math.log(2) ** 2 / 2
    assert abs(li2(0.5) - half) <= 1e-15
    # real part on the unit circle is a Fourier cosine series evaluated
    # in closed form: Re li2(e^{i t}) = pi^2/6 - t(2 pi - t)/4
    t = PI / 3
    z = cmath.exp(1j * t)
    assert abs(li2(z).real - (PI * PI / 6 - t * (2 * PI - t) / 4)) <= 1e-14


def test_li2_inversion_identity():
    rng = random.Random(5)
    for _ in range(60):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 3) * rng.choice((-1, 1)))
        lhs = li2(z) + li2(1 / z)
        rhs = -PI * PI / 6 - 0.5 * cmath.log(-z) ** 2
        assert abs(lhs - rhs) <= 1e-13 * (1 + abs(rhs))


def test_li2_reflection_identity():
    rng = random.Random(6)
    for _ in range(60):
        z = complex(rng.uniform(-2, 3), rng.uniform(0.05, 2) * rng.choice((-1, 1)))
        lhs = li2(z) + li2(1 - z)
        rhs = PI * PI / 6 - cmath.log(z) * cmath.log(1 - z)
        assert abs(lhs - rhs) <= 1e-13 * (1 + abs(rhs))


def test_li2_real_axis_cut_convention():
    # on the cut (1, inf) the function takes its real principal value,
    # the limit average of the two sides
    v = li2(2.0 + 0.0j)
    assert v.imag == 0.0
    assert abs(v.real - PI * PI / 4) <= 1e-14
    above = li2(2.0 + 1e-12j)
    below = li2(2.0 - 1e-12j)
    assert abs(above.imag - PI * math.log(2)) <= 1e-9
    assert abs(below.imag + PI * math.log(2)) <= 1e-9
    assert abs((above.real + below.real) / 2 - v.real) <= 1e-9


def test_li2_accepts_reals_and_ints():
    assert li2(1) == li2(1.0) == li2(1 + 0j)


@pytest.mark.parametrize(
    "z", [math.inf, -math.inf, math.nan, complex(1.0, math.inf), complex(0.5, math.nan)]
)
def test_li2_refuses_non_finite_arguments(z):
    with pytest.raises(ValueError, match="z must be finite"):
        li2(z)


# --- Lobachevsky ---

def test_lobachevsky_zeroes():
    assert lobachevsky(0.0) == 0.0
    assert abs(lobachevsky(PI)) <= 1e-15
    # classic: the log-sine integral over a quarter period vanishes
    assert abs(lobachevsky(PI / 2)) <= 1e-15


def test_lobachevsky_odd_and_periodic():
    rng = random.Random(13)
    for _ in range(50):
        t = rng.uniform(-10, 10)
        assert abs(lobachevsky(-t) + lobachevsky(t)) <= 1e-15
        assert abs(lobachevsky(t + PI) - lobachevsky(t)) <= 1e-13


def test_lobachevsky_matches_quadrature():
    for t in (0.3, 0.7, 1.0, PI / 6, 1.9, 2.5, 2.9):
        ref, _ = scipy.integrate.quad(
            lambda x: -math.log(abs(2.0 * math.sin(x))), 0.0, t, limit=200
        )
        assert abs(lobachevsky(t) - ref) <= 1e-12


def lobachevsky_fourier(theta, terms):
    # partial Fourier sum (1/2) sum_{n<=terms} sin(2 n theta)/n^2: converges
    # to Lambda(theta) at an O(1/terms^2) rate, an independent slow route
    if terms < 1:
        raise ValueError("need at least one Fourier term")
    n = np.arange(1, terms + 1, dtype=float)
    return 0.5 * float(np.sum(np.sin(2.0 * n * theta) / (n * n)))


def test_lobachevsky_matches_fourier_partial_sums():
    # sine series 0.5 * sum sin(2 n t) / n^2, truncated; tail is O(1/M)
    for t in (0.3, 1.0, 1.5, 2.2):
        assert abs(lobachevsky_fourier(t, 400_000) - lobachevsky(t)) <= 1e-10


def test_lobachevsky_fourier_validates_terms():
    with pytest.raises(ValueError):
        lobachevsky_fourier(1.0, 0)


def test_lobachevsky_refuses_what_it_cannot_reduce():
    # reducing theta mod pi in doubles is off by up to 1.5e-16 (|theta| + 2),
    # 0.085 at 2^49, so up to 2^49 the reduced argument keeps its first
    # decimal, and beyond it lobachevsky raises.  Moving t by d = 0.085
    # moves Lambda by at most the integral of |log|2 sin s|| over the
    # interval of length d centred on 0, about d (1 - log d) < 0.3
    mp = pytest.importorskip("mpmath")
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="theta must be finite"):
            lobachevsky(theta)
    for theta in (1e300, -1e300, math.nextafter(2.0**49, math.inf)):
        with pytest.raises(ValueError, match="too large: reducing it mod pi keeps no digit"):
            lobachevsky(theta)
    for theta, tol in ((1e8, 1e-7), (3e14, 0.3), (2.0**49, 0.3), (-(2.0**49), 0.3)):
        with mp.workdps(40):
            want = float(mp.clsin(2, 2 * mp.mpf(theta)) / 2)
        assert abs(lobachevsky(theta) - want) <= tol, theta


def test_lobachevsky_maximum_value():
    # the maximum sits at pi/6; four times it is the figure-eight volume
    assert abs(4 * lobachevsky(PI / 6) - 2.02988321) <= 1e-7


# --- polar route for Im li2 ---

def test_polar_point_validation():
    with pytest.raises(ValueError):
        PolarPoint(0.0, 1.0)
    with pytest.raises(ValueError):
        PolarPoint(1.2, 1.0)
    with pytest.raises(ValueError):
        PolarPoint(0.5, math.inf)
    p = PolarPoint(0.5, PI / 2)
    assert abs(p.to_complex() - 0.5j) <= 1e-16


def test_phi_angle_values():
    assert abs(phi_angle(1.0, PI / 3) - PI / 3) <= 1e-14
    assert abs(phi_angle(0.5, PI / 2) - math.atan(0.5)) <= 1e-16
    with pytest.raises(ValueError):
        phi_angle(1.0, 0.0)
    with pytest.raises(ValueError):
        phi_angle(1.0, 2 * PI)


def test_im_li2_polar_agrees_with_li2():
    worst = 0.0
    for r in np.arange(0.1, 1.01, 0.1):
        for theta in np.arange(0.1, 3.01, 0.1):
            direct = li2(r * cmath.exp(1j * theta)).imag
            worst = max(worst, abs(im_li2_polar(float(r), float(theta)) - direct))
    assert worst <= 1e-10


def test_unit_circle_imaginary_part_is_lobachevsky_pair():
    # at r = 1 the polar formula collapses to Lambda(phi)+Lambda(t)-Lambda(phi+t)
    for t in (0.4, 1.0, PI / 3, 2.0):
        assert abs(im_li2_polar(1.0, t) - li2(cmath.exp(1j * t)).imag) <= 1e-12


# --- quadrature parameters ---

def test_params_validation():
    with pytest.raises(ValueError):
        QdParams(gamma=0.0)
    with pytest.raises(ValueError):
        QdParams(gamma=-1.0)
    with pytest.raises(ValueError):
        QdParams(gamma=PI / 5, step=0.0)
    with pytest.raises(ValueError):
        QdParams(gamma=PI / 5, truncation=0.01)


def test_params_for_order():
    assert QdParams.for_order(10).gamma == PI / 10
    assert QdParams.for_order(5, step=0.1).step == 0.1
    with pytest.raises(ValueError):
        QdParams.for_order(0)
    # gamma = pi/N needs an integer N; a float, even a whole one, is refused
    for order in (2.5, 5.0):
        with pytest.raises(TypeError, match="order must be an integer, got"):
            QdParams.for_order(order)
    assert QdParams.for_order(np.int64(10)) == QdParams.for_order(10)


# --- Faddeev integral ---

def test_shift_relation_inside_strip():
    for order in (5, 10):
        params = QdParams.for_order(order)
        span = PI - params.gamma
        for p in np.linspace(-0.9 * span, 0.9 * span, 20):
            assert funeq_residual(params, float(p)) <= 1e-9


def test_shift_relation_at_complex_arguments():
    params = QdParams.for_order(6)
    for p in (0.3 + 0.4j, -1.1 - 0.2j, 0.5j):
        assert funeq_residual(params, p) <= 1e-9


def test_shift_relation_through_strip_extension():
    # |Re p| + gamma beyond pi exercises the recursive continuation
    params = QdParams.for_order(5)
    for p in (3.5, -3.5, 7.0, -7.0, 6.2 + 0.3j):
        assert funeq_residual(params, p) <= 1e-8


def test_inversion_relation():
    # S(p) S(-p) = exp(-i p^2 / (4 gamma) + i (pi^2 + gamma^2) / (12 gamma))
    for gamma in (PI / 5, PI / 7):
        params = QdParams(gamma=gamma)
        for p in (0.37 + 0.11j, -0.2 + 0.3j, 1.0, 0.8 - 0.5j):
            lhs = faddeev_log_s(params, p) + faddeev_log_s(params, -p)
            rhs = -1j * p * p / (4 * gamma) + 1j * (PI * PI + gamma * gamma) / (
                12 * gamma
            )
            assert abs(lhs - rhs) <= 1e-10


def test_value_at_zero():
    # the inversion relation at p = 0 pins log S(0) = i (pi^2+gamma^2)/(24 gamma)
    for order in (5, 12):
        params = QdParams.for_order(order)
        g = params.gamma
        expected = 1j * (PI * PI + g * g) / (24 * g)
        assert abs(faddeev_log_s(params, 0.0) - expected) <= 1e-10


def test_ratio_across_origin_is_two():
    # the shift relation at p = 0 forces S(-gamma) / S(gamma) = 2
    params = QdParams.for_order(8)
    ratio = faddeev_s(params, -params.gamma) / faddeev_s(params, params.gamma)
    assert abs(ratio - 2.0) <= 1e-9


def test_dilog_limit():
    # gamma * log S(p) -> li2(-exp(i p)) / 2i as gamma -> 0, so halving
    # gamma along N = 10, 20, 40, 80 must shrink the gap
    p = 0.7
    target = li2(-cmath.exp(1j * p)) / 2j
    devs = []
    for order in (10, 20, 40, 80):
        params = QdParams.for_order(order)
        devs.append(abs(params.gamma * faddeev_log_s(params, p) - target))
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[-1] <= 2e-4


def test_lattice_values_match_pochhammer_symbols():
    from knotvol.invariant import pochhammer_table

    order = 10
    params = QdParams.for_order(order)
    table = pochhammer_table(order)
    for k in range(order):
        p = -PI + params.gamma * (1 + 2 * k)
        symbol = complex(table.values[k])
        assert abs(f_gamma(params, p) - symbol) <= 1e-6 * abs(symbol)
        assert abs(f_bar_gamma(params, p) - symbol.conjugate()) <= 1e-6 * abs(symbol)


@pytest.mark.parametrize("step", [0.05, 0.07, 0.09])
def test_steps_that_miss_the_truncation_agree(step):
    # 120 is no whole number of steps of 0.07 or 0.09: the closed-form tail
    # term must be taken at the grid's end, not at the truncation; with the
    # trapezoid rule's end term no step leaves an h^2 error behind
    params = QdParams(gamma=PI / 5, step=step)
    fine = QdParams(gamma=PI / 5, step=0.025)
    for p in (0.3, -1.2 + 0.4j, 2.0, 0.5j, 3.5):
        assert abs(faddeev_log_s(params, p) - faddeev_log_s(fine, p)) <= 1e-12


@pytest.mark.parametrize(
    "p", [math.inf, -math.inf, math.nan, complex(0.3, math.inf), 1e300, -1e300]
)
def test_unreachable_arguments_raise(p):
    # non-finite arguments, and walks of about 1e300 shifts, are refused
    # before the walk starts
    with pytest.raises(ValueError):
        faddeev_log_s(QdParams(gamma=0.3), p)


def test_truncation_refusal():
    params = QdParams(gamma=PI / 10, truncation=20.0)
    with pytest.raises(QuadratureError):
        faddeev_log_s(params, 2.9)


@pytest.mark.parametrize("p", [3.089366, -3.089366])
def test_tail_is_estimated_at_the_grid_end(p):
    # with step 0.09 the grid ends at x_end = 1333 * 0.09 = 119.97, below
    # the truncation 120: the tail estimate is 9.97e-13 at 120 but 1.004e-12
    # at x_end, where the dropped tail starts, so the call is refused; at
    # the default step the grid ends at 120 and the same argument is taken
    with pytest.raises(QuadratureError, match="increase the truncation"):
        faddeev_log_s(QdParams.for_order(20, step=0.09), p)
    assert cmath.isfinite(faddeev_log_s(QdParams.for_order(20), p))


def test_step_refusal():
    params = QdParams(gamma=PI / 10, step=0.8)
    with pytest.raises(QuadratureError):
        faddeev_log_s(params, 0.3)


def test_pole_lattice_refusal():
    params = QdParams.for_order(5)
    with pytest.raises(PoleError):
        faddeev_log_s(params, PI + params.gamma)
    with pytest.raises(PoleError):
        faddeev_log_s(params, -PI - params.gamma)


def test_imaginary_argument_outside_strip_refused():
    # the integrand gains exp(|Im p| x) growth; the tail bound must catch
    # arguments whose imaginary part defeats the truncation
    params = QdParams.for_order(5)
    with pytest.raises(QuadratureError):
        faddeev_log_s(params, 200j)
