"""Dilogarithm, Lobachevsky, and quantum dilogarithm tests.

Reference values come from plain power series, scipy quadrature, and
closed-form identities computed inside this file.
"""

import cmath
import math
import random
import warnings

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
from knotvol import qdilog
from knotvol.qdilog import _bernoulli_numbers, _edge_log_s

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


def test_params_for_order():
    assert QdParams.for_order(10).gamma == PI / 10
    with pytest.raises(ValueError, match="order must be >= 1, got 0"):
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


@pytest.mark.parametrize("order", [30, 100, 200, 400, 1000])
def test_lattice_values_at_large_order(order):
    # the grid end grows like 1/gamma as p nears the strip's edge; from
    # N = 30 on, a grid ending at 120 leaves a tail above 1e-12 at k = 0
    from knotvol.invariant import pochhammer_table

    params = QdParams.for_order(order)
    table = pochhammer_table(order)
    for k in sorted({0, 1, order // 3, order // 2, order - 2, order - 1}):
        p = -PI + params.gamma * (1 + 2 * k)
        symbol = complex(table.values[k])
        assert abs(f_gamma(params, p) - symbol) <= 1e-9 * abs(symbol), k
        assert abs(f_bar_gamma(params, p) - symbol.conjugate()) <= 1e-9 * abs(symbol), k


@pytest.mark.parametrize("order", [50, 100])
def test_shift_relation_near_the_strip_edges(order):
    # S is taken at p - gamma and p + gamma, and the one nearer an edge
    # lies within 2 gamma of |Re| = pi, where the margin is down to gamma
    params = QdParams.for_order(order)
    g = params.gamma
    for f in (0.01, 0.5, 1.0, 1.5, 1.99):
        for p in (PI - g - f * g, -(PI - g - f * g), PI - g - f * g + 0.2j):
            assert funeq_residual(params, p) <= 1e-9, (f, p)


@pytest.mark.parametrize(
    "p", [math.inf, -math.inf, math.nan, complex(0.3, math.inf), 1e300, -1e300]
)
def test_unreachable_arguments_raise(p):
    # non-finite arguments, and walks of about 1e300 shifts, are refused
    # before the walk starts
    with pytest.raises(ValueError):
        faddeev_log_s(QdParams(gamma=0.3), p)


@pytest.mark.parametrize(
    "gamma, p", [(1e-4, 1e-4 - PI), (PI / 6000, PI / 6000 - PI), (0.3, 0.3 + 1e6j)]
)
def test_grid_cap_refusal(gamma, p):
    # a small margin or a large Im p asks for more than 2^20 + 1 grid
    # points; the refusal names the size before any grid is built
    cap = r"needs a quadrature grid of at least .* points; the cap is 1048577"
    with pytest.raises(QuadratureError, match=cap):
        faddeev_log_s(QdParams(gamma=gamma), p)


def test_subnormal_gamma_refused():
    # the integrand overflows near x = 0, and the step-doubling comparison
    # refuses the non-finite sum, with no numpy warning on the way and no
    # advice about a step that cannot be set
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="step doubling") as info:
            faddeev_log_s(QdParams(gamma=1e-310), 0)
    assert "decrease" not in str(info.value)


def test_pole_lattice_refusal():
    params = QdParams.for_order(5)
    with pytest.raises(PoleError):
        faddeev_log_s(params, PI + params.gamma)
    with pytest.raises(PoleError):
        faddeev_log_s(params, -PI - params.gamma)


def _inversion_exponent(gamma, p):
    # log S(p) + log S(-p)
    return -1j * p * p / (4 * gamma) + 1j * (PI * PI + gamma * gamma) / (12 * gamma)


@pytest.mark.parametrize(
    "order, p", [(10, 0.3 + 150j), (5, 200j)], ids=["0.3+150j", "200j"]
)
def test_large_imaginary_argument(order, p):
    # the line sits on the side of Im p, where |exp(i p delta)| <= 1: above
    # the real axis S is 1 to far below an ulp, below it the residue at 0
    # is all that is left, and the two keep the inversion relation
    params = QdParams.for_order(order)
    for q in (p, p.conjugate()):
        upper = q if q.imag > 0 else -q
        assert abs(faddeev_log_s(params, upper)) <= 1e-30, q
        want = _inversion_exponent(params.gamma, q)
        got = faddeev_log_s(params, q) + faddeev_log_s(params, -q)
        assert abs(got - want) <= 1e-12 * abs(want), q


def _mpmath_log_s(mp, gamma, p):
    # a quarter of the integral of exp(p z) / (z sinh(pi z) sinh(gamma z))
    # along Im z = 0.3 min(1, pi/gamma), which passes above the pole at 0
    # and below those at i and i pi/gamma as the defining contour does, but
    # at another height than the quadrature's line and with no residue
    # term: 30-digit Gauss-Legendre on pieces a few per oscillation, out
    # to where the integrand is below e^-70
    with mp.workdps(30):
        g, p = mp.mpf(gamma), mp.mpc(p)
        height = mp.mpf(3) / 10 * min(1, mp.pi / g)
        end = 70 / (mp.pi + g - abs(p.real))
        pieces = int(end * (1 + abs(p.imag) / 20)) + 1

        def integrand(x):
            z = mp.mpc(x, height)
            return mp.exp(p * z) / (z * mp.sinh(mp.pi * z) * mp.sinh(g * z))

        nodes = mp.linspace(-end, end, 2 * pieces + 1)
        return complex(mp.quad(integrand, nodes, method="gauss-legendre") / 4)


@pytest.mark.parametrize(
    "gamma, p",
    [(PI / 10, 0.3 + 40j), (PI / 10, 0.3 - 40j)]
    + [(g, p) for g in (4.0, 10.0, 1000.0, 1e4, 1e5) for p in (0.7, 0.7 + 0.5j, -1.3 - 0.4j)]
    + [
        (g, p)
        for g in (PI, math.nextafter(PI, 0), math.nextafter(PI, 4))
        for p in (0.7, -1.3 - 0.4j)
    ],
)
def test_values_match_mpmath(gamma, p):
    # 1e-12, absolute where |log S| < 1 and relative elsewhere; at gamma
    # > pi the line's height and the step are pi/gamma times those at
    # gamma <= pi, the gamma factor is the real one, and the grid's least
    # end is sized by the margin, not 120: about 37/gamma at mid-strip p;
    # the three gammas at pi straddle that switch
    mp = pytest.importorskip("mpmath")
    want = _mpmath_log_s(mp, gamma, p)
    got = faddeev_log_s(QdParams(gamma=gamma), p)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("gamma", [PI, 4.0, 10.0])
def test_shift_relation_for_gamma_above_pi(gamma):
    # a step of 2 gamma is wider than |Re p| < pi, and from gamma = 2 pi on
    # a walk there could end outside the strip, as 15 did at gamma = 10.
    # The walk ends in |Re p| <= gamma, so from gamma = pi on one of
    # p - gamma and p + gamma walks onto the other and the shift relation
    # would check rounding only: funeq_residual refuses.  The inversion
    # relation ties two quadratures together, up to whole turns of the
    # shift factors' logarithms
    params = QdParams(gamma=gamma)
    for p in (0.7, -2.0, 3.0, 0.3 + 0.4j, -1.1 - 0.2j, 5.0, 15.0, -9.0 + 0.3j):
        with pytest.raises(ValueError, match=r"funeq_residual at gamma = .* checks no quadrature"):
            funeq_residual(params, p)
        want = _inversion_exponent(gamma, p)
        turns = (faddeev_log_s(params, p) + faddeev_log_s(params, -p) - want) / (2j * PI)
        assert abs(turns - round(turns.real)) * 2 * PI <= 1e-12 * max(1.0, abs(want)), p


@pytest.mark.parametrize("gamma", [6863.0, 1e8])
def test_values_at_large_gamma(gamma):
    # past gamma = pi the step is 0.05 pi/gamma, and a least end fixed at
    # 12 asked for more than 2^20 + 1 points from gamma = 6863 on; sized
    # by the margin, about 37/gamma here, it keeps a few hundred points.
    # The inversion relation ties the quadratures at p and -p together
    params = QdParams(gamma=gamma)
    for p in (0.3, -1.3 - 0.4j, 0.7 + 0.5j):
        want = _inversion_exponent(gamma, p)
        got = faddeev_log_s(params, p) + faddeev_log_s(params, -p)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), p


def test_refusal_at_huge_gamma():
    # at gamma = 1e300, z and expm1(-2 pi w) are both near 1e-300 about
    # x = 0, so the denominator underflows to 0 and step doubling refuses
    # the sum that is not finite
    for gamma in (1e300, 1.7e308):
        with pytest.raises(QuadratureError, match="step doubling moved the integral by nan"):
            faddeev_log_s(QdParams(gamma=gamma), 0.3)


@pytest.mark.parametrize("p", [0.3, -1.0 + 0.2j, 0.7 - 0.4j])
@pytest.mark.parametrize("gamma", [PI / 1000, PI / 1e5], ids=["pi/1000", "pi/1e5"])
def test_values_at_small_gamma_match_mpmath(gamma, p):
    # the non-real factor is expm1(-2 gamma |x|) e^(ib) + expm1(ib) with
    # b = -+gamma on the two halves of the grid; expm1(ib) taken as
    # cos b - 1 would be off by about 1e-16/gamma relative near x = 0
    mp = pytest.importorskip("mpmath")
    want = _mpmath_log_s(mp, gamma, p)
    got = faddeev_log_s(QdParams(gamma=gamma), p)
    assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


@pytest.mark.parametrize(
    "gamma, p",
    [
        (g, p)
        for g in (0.30, 0.32, PI / 5, 0.7, 2.0, PI)
        for p in sorted({0.0, 0.3, 0.9 * (PI - g), -0.9 * (PI - g), g - PI}) + [0.4 + 0.3j]
    ],
)
def test_values_on_shortened_grids_match_mpmath(gamma, p):
    # grids that end short of x = 120 at gamma <= pi: the least end is
    # sized by the margin at every gamma, and only a margin near 0.3 at
    # gamma < 0.3085 keeps 120; 0.30 and 0.32 straddle that gamma
    mp = pytest.importorskip("mpmath")
    want = _mpmath_log_s(mp, gamma, p)
    got = faddeev_log_s(QdParams(gamma=gamma), p)
    assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


def test_least_end_bounds_the_tail():
    # the tail past the least end X0, bounded in _quadrature_log_s by
    #   T(X) = (1 + 1/(2 pi X)) (1 + 1/(2 gamma X)) exp(-margin X) / (margin X),
    # is below 2.4e-18, or X0 is the cap 120 at a gamma where the loop's
    # estimate bounds T from X = 120 on
    def tail(gamma, margin, x):
        return (
            (1 + 1 / (2 * PI * x))
            * (1 + 1 / (2 * gamma * x))
            * math.exp(-margin * x)
            / (margin * x)
        )

    capped = 0
    for gamma in np.geomspace(PI / 4000, 1e4, 400):
        least = min(PI, gamma)
        for margin in np.linspace(least, PI + gamma, 60):
            x0 = qdilog._least_end(gamma, margin)
            if x0 == 120.0 and gamma <= 0.3137:
                capped += 1
            else:
                assert tail(gamma, margin, x0) <= 2.4e-18, (gamma, margin, x0)
    assert capped  # the sweep reaches the cap


def test_mid_strip_grid_is_short(monkeypatch):
    # at gamma = pi/5, p = 0.3 the margin is 3.47, and the least end 10.7,
    # not 120 (4801 points)
    sizes = []
    arange = np.arange

    def counted(*args, **kwargs):
        grid = arange(*args, **kwargs)
        sizes.append(grid.size)
        return grid

    monkeypatch.setattr(np, "arange", counted)
    faddeev_log_s(QdParams(gamma=PI / 5), 0.3)
    assert len(sizes) == 1 and sizes[0] < 600, sizes


def test_quadrature_takes_expm1_of_real_arrays_only(monkeypatch):
    # both denominator factors come from real exponentials: the line makes
    # one real, and the other is split into a real expm1 and a constant
    # on each half of the grid
    dtypes = []
    expm1 = np.expm1

    def recorded(x, *args, **kwargs):
        dtypes.append(np.asarray(x).dtype)
        return expm1(x, *args, **kwargs)

    monkeypatch.setattr(np, "expm1", recorded)
    for gamma, p in ((PI / 10, 0.3), (PI / 10, -1.0 + 0.2j), (PI / 100, 0.7 - 0.4j), (4.0, 0.3)):
        faddeev_log_s(QdParams(gamma=gamma), p)
    assert dtypes and all(dtype.kind == "f" for dtype in dtypes), dtypes


@pytest.mark.parametrize("gamma", [PI / 10, PI / 5, 4.0, PI], ids=["pi/10", "pi/5", "4", "pi"])
def test_quadrature_takes_real_exponentials_only_at_real_p(monkeypatch, gamma):
    # at real p the numerator is one real exp of its modulus times a
    # constant on each half of the grid, and the denominator's factors are
    # real exp and expm1 with a constant on each half: no complex array
    # meets a transcendental function, also at the signed zero -0.0j
    seen = []

    def recording(name):
        real = getattr(np, name)

        def recorded(x, *args, **kwargs):
            seen.append((name, np.asarray(x).dtype))
            return real(x, *args, **kwargs)

        return recorded

    for name in ("exp", "expm1"):
        monkeypatch.setattr(np, name, recording(name))
    for p in (0.3, -2.0, complex(0.3, -0.0)):
        faddeev_log_s(QdParams(gamma=gamma), p)
    assert {name for name, _ in seen} == {"exp", "expm1"}
    assert all(dtype.kind == "f" for _, dtype in seen), seen


@pytest.mark.parametrize("gamma", [PI / 5, PI / 10], ids=["pi/5", "pi/10"])
@pytest.mark.parametrize("end, shift", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_values_at_the_funeq_extremes_match_mpmath(gamma, end, shift):
    # knotvol verify's shift-equation check takes p up to 0.9 (pi - gamma)
    # either way and evaluates S at p -+ gamma: the least margins it meets
    mp = pytest.importorskip("mpmath")
    p = end * 0.9 * (PI - gamma) + shift * gamma
    want = _mpmath_log_s(mp, gamma, p)
    got = faddeev_log_s(QdParams(gamma=gamma), p)
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("order", [2, 10, 100, 1000, 4000])
def test_value_at_the_strip_edge(order):
    # f_gamma's constant: the inversion relation at p = pi - gamma and
    # f_gamma(pi - gamma) = (omega)_{N-1} = N give log S(gamma - pi) in
    # closed form, read from the largest grid of any lattice argument
    g = PI / order
    want = 0.5 * math.log(order) + 0.5j * (
        (PI * PI + g * g) / (12 * g) - (PI - g) ** 2 / (4 * g)
    )
    got = faddeev_log_s(QdParams(gamma=g), g - PI)
    assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("order", [10, 400])
def test_one_quadrature_per_symbol(monkeypatch, order):
    # the constant S(gamma - pi), or S(pi - gamma), is closed form: each
    # call takes the quadrature of its own argument only
    calls = []
    quadrature = qdilog._quadrature_log_s

    def counted(params, p):
        calls.append(p)
        return quadrature(params, p)

    monkeypatch.setattr(qdilog, "_quadrature_log_s", counted)
    params = QdParams.for_order(order)
    lattice = [-PI + params.gamma * (1 + 2 * k) for k in (0, order // 2, order - 1)]
    for p in lattice + [0.3, -1.1 + 0.2j, 2.0 - 0.4j]:
        for f in (f_gamma, f_bar_gamma):
            calls.clear()
            f(params, p)
            assert len(calls) == 1, (f.__name__, p)


@pytest.mark.parametrize("order", [6000, 10_000])
def test_symbols_past_the_edge_grid_cap(order):
    # S(gamma - pi) alone needs more than 2^20 + 1 grid points from about
    # N = 5000 on, while a mid-strip p needs a few hundred: against
    # log|(omega)_k| = sum_{j<=k} log(2 sin(pi j/N)) and
    # arg (omega)_k = pi k (k+1)/(2N) - pi k/2
    params = QdParams.for_order(order)
    k = order // 2
    log_abs = math.fsum(math.log(2 * math.sin(PI * j / order)) for j in range(1, k + 1))
    symbol = cmath.exp(complex(log_abs, PI * k * (k + 1) / (2 * order) - PI * k / 2))
    p = -PI + params.gamma * (1 + 2 * k)
    assert abs(f_gamma(params, p) - symbol) <= 1e-9 * abs(symbol)
    assert abs(f_bar_gamma(params, p) - symbol.conjugate()) <= 1e-9 * abs(symbol)


@pytest.mark.parametrize("gamma", [0.3, 0.7, 2.0, 4.0, 10.0])
def test_edge_constant_off_the_lattice(gamma):
    # log S(gamma - pi) - log S(pi - gamma) = log(pi/gamma) at every gamma,
    # not only at gamma = pi/N, where it is log (omega)_{N-1} = log N; at
    # p = pi - gamma f_gamma and f_bar_gamma both read that ratio
    params = QdParams(gamma=gamma)
    for f in (f_gamma, f_bar_gamma):
        assert abs(f(params, PI - gamma) - PI / gamma) <= 1e-12 * PI / gamma, f.__name__


@pytest.mark.parametrize("gamma", [0.3, 0.7, 2.0, 4.0, 10.0])
def test_edge_constant_matches_mpmath(gamma):
    mp = pytest.importorskip("mpmath")
    edge = _edge_log_s(gamma)
    for p, got in ((gamma - PI, edge), (PI - gamma, -edge.conjugate())):
        want = _mpmath_log_s(mp, gamma, p)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), p
