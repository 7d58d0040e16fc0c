"""Dilogarithms, classical and quantum.

Four layers, each feeding the next:

* ``li2``          Euler's dilogarithm on the complex plane,
* ``lobachevsky``  Lobachevsky's function Lambda(theta) = -int_0^theta
  log|2 sin t| dt, which carries the imaginary part of li2,
* ``im_li2_polar`` the closed form for Im li2 at r*exp(i*theta) built from
  Lambda: an independent route to Im li2, checked against li2 by
  acceptance criterion 8 (the volumes in `saddle` come from li2 itself),
* ``faddeev_s``    the noncompact quantum dilogarithm S_gamma(p), defined by
  a contour integral and evaluated by the trapezoid rule on a line parallel
  to the real one, clear of the integrand's poles, where at real p the
  whole integrand comes from real exponentials and one constant on each
  half of the grid, summed at two steps by ndarray.sum, on a grid sized
  for each argument, at any gamma = pi/N up to about N = 5000 for p at
  the lattice's ends (far past it for p inside the strip) and at gamma >
  pi up to about 1e154 for p inside the strip; its ratios
  ``f_gamma`` / ``f_bar_gamma`` analytically continue the root-of-unity
  symbols (omega)_k and their conjugates, with the strip-edge constant
  S_gamma(gamma - pi) in closed form at every gamma, so each takes one
  quadrature.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .knots import check_order

__all__ = [
    "PolarPoint",
    "QdParams",
    "QuadratureError",
    "PoleError",
    "li2",
    "lobachevsky",
    "phi_angle",
    "im_li2_polar",
    "faddeev_log_s",
    "faddeev_s",
    "f_gamma",
    "f_bar_gamma",
]

_PI = math.pi
_PI2_6 = math.pi * math.pi / 6.0


class QuadratureError(ArithmeticError):
    """Quadrature parameters cannot deliver the requested accuracy."""


class PoleError(ValueError):
    """Argument sits on the pole or zero lattice of S_gamma."""


def _bernoulli_numbers(count: int) -> list[Fraction]:
    """B_0 .. B_{count-1} as exact rationals, convention B_1 = -1/2.

    The even ones come from the tangent numbers T_k = tan^(2k-1)(0),
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), which Brent and Harvey's
    recurrence builds in place with integers only, O(count^2) small
    integer steps; the odd ones past B_1 are 0.
    """
    n = (count - 1) // 2
    tangent = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    bern = [Fraction(1), Fraction(-1, 2)]
    for k in range(1, n + 1):
        four = 4**k
        b2k = Fraction((-1) ** (k - 1) * 2 * k * tangent[k], four * (four - 1))
        bern += [b2k, Fraction(0)]
    return bern[:count]


_BERNOULLI = _bernoulli_numbers(72)

# Li2(w) = sum_{n>=0} B_n u^(n+1) / (n+1)!  with u = -log(1 - w);
# stored as plain polynomial coefficients in u, constant term (zero) dropped.
_LI2_COEFS = [float(b / math.factorial(n + 1)) for n, b in enumerate(_BERNOULLI[:50])]


def _li2_series(u: complex) -> complex:
    acc = 0j
    for c in reversed(_LI2_COEFS):
        acc = acc * u + c
    return acc * u


def li2(z: complex) -> complex:
    """Euler dilogarithm sum_{n>=1} z^n / n^2, continued to the plane.

    Principal branch with the cut along [1, inf).  An argument exactly on
    the cut (imaginary part a signed zero, real part > 1) evaluates to the
    real principal value, the average of the two sides.  The argument is
    first moved by the inversion z -> 1/z and reflection z -> 1 - z
    identities into a region where |1 - w| >= 1/2, where the Bernoulli
    series in u = -log(1 - w) converges geometrically.  A non-finite
    argument raises ValueError.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    if z == 0:
        return 0j
    if z == 1:
        return complex(_PI2_6, 0.0)
    if z.imag == 0.0 and z.real > 1.0:
        # on the cut: drop the +-i*pi*log(re) side term
        side = li2(complex(z.real, 5e-324))
        return complex(side.real, 0.0)
    rz, iz = z.real, z.imag
    nz = rz * rz + iz * iz
    if rz > 0.5 and nz <= 2.0 * rz:  # |z - 1| <= 1
        # reflection: Li2(z) = pi^2/6 - log(z) log(1-z) - Li2(1-z)
        lz = cmath.log(z)
        u = -lz
        rest = _PI2_6 - lz * cmath.log(1.0 - z)
        sign = -1.0
    elif nz <= 1.0:
        u = -cmath.log(1.0 - z)
        rest = 0j
        sign = 1.0
    else:
        # inversion: Li2(z) = -Li2(1/z) - pi^2/6 - log(-z)^2 / 2
        lz = cmath.log(-z)
        u = -cmath.log(1.0 - 1.0 / z)
        rest = -0.5 * lz * lz - _PI2_6
        sign = -1.0
    return rest + sign * _li2_series(u)


# Lambda(t) = t - t log(2t) + sum_{m>=1} zeta(2m) t^(2m+1) / (m (2m+1) pi^(2m))
# for |t| <= pi/2, using zeta(2m)/pi^(2m) = 2^(2m-1) |B_2m| / (2m)!.
_LOB_COEFS = [
    float(
        Fraction(2 ** (2 * m - 1), math.factorial(2 * m))
        * abs(_BERNOULLI[2 * m])
        / (m * (2 * m + 1))
    )
    for m in range(1, 36)
]


# lobachevsky refuses larger arguments, whose reduction mod pi keeps no digit
_LOB_MAX_ARG = 2.0**49


def lobachevsky(theta: float) -> float:
    """Lobachevsky's function -int_0^theta log|2 sin t| dt.

    Odd and pi-periodic.  The argument is reduced to |t| <= pi/2 and the
    integral evaluated through its series around t = 0, whose tail decays
    like (t/pi)^(2m) and is summed far past double precision.

    The reduction t = theta - pi k, k = round(theta/pi), in doubles is off
    by at most (2^-53 + 4e-17)(|theta| + 2): half an ulp for the product
    pi k, and |k| <= |theta|/pi + 1/2 times the 1.23e-16 by which the
    double pi misses pi; the subtraction itself is exact (Sterbenz).  That
    error reaches 0.1, so that not even the first decimal of t is known,
    near |theta| = 6.6e14.  ValueError is raised for |theta| above
    _LOB_MAX_ARG = 2^49 (5.6e14, where the error is below 0.085) and for
    a non-finite theta.
    """
    if not abs(theta) <= _LOB_MAX_ARG:
        if not math.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta}")
        raise ValueError(
            f"theta = {theta!r} is too large: reducing it mod pi keeps no "
            f"digit (|theta| must be at most 2^49)"
        )
    t = theta - _PI * round(theta / _PI)
    if t == 0.0:
        return 0.0
    sign = 1.0 if t > 0 else -1.0
    t = abs(t)
    t2 = t * t
    acc = 0.0
    for c in reversed(_LOB_COEFS):
        acc = acc * t2 + c
    return sign * (t - t * math.log(2.0 * t) + acc * t2 * t)


@dataclass(frozen=True)
class PolarPoint:
    """Point r*exp(i*theta) on the closed unit disc, excluding the origin."""

    r: float
    theta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.r <= 1.0:
            raise ValueError(f"radius must satisfy 0 < r <= 1, got {self.r}")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")

    def to_complex(self) -> complex:
        return self.r * cmath.exp(1j * self.theta)


def phi_angle(r: float, theta: float) -> float:
    """The auxiliary angle arctan(r sin(theta) / (1 - r cos(theta))).

    Defined for 0 < r <= 1 away from the singular point r = 1,
    theta = 0 mod 2*pi, with values in (-pi/2, pi/2).
    """
    point = PolarPoint(r, theta)
    den = 1.0 - point.r * math.cos(point.theta)
    if den == 0.0:
        raise ValueError("phi_angle is singular at r = 1, theta = 0 mod 2*pi")
    return math.atan(point.r * math.sin(point.theta) / den)


def im_li2_polar(r: float, theta: float) -> float:
    """Im li2(r e^{i theta}) through Lobachevsky's function:

        phi*log(r) + Lambda(phi) + Lambda(theta) - Lambda(phi + theta)

    with phi = phi_angle(r, theta).  Valid on 0 < r <= 1; an independent
    route to the same number as li2(...).imag.
    """
    phi = phi_angle(r, theta)
    return (
        phi * math.log(r)
        + lobachevsky(phi)
        + lobachevsky(theta)
        - lobachevsky(phi + theta)
    )


@dataclass(frozen=True)
class QdParams:
    """The deformation parameter gamma of the quantum dilogarithm, pi/N in
    the root-of-unity application.

    The quadrature takes no other parameter: `_quadrature_log_s` works out
    its line and step from gamma and sizes its grid for each argument.
    """

    gamma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError(f"gamma must be positive, got {self.gamma}")

    @classmethod
    def for_order(cls, order: int) -> "QdParams":
        """Parameters for the root-of-unity setting gamma = pi/order."""
        return cls(gamma=_PI / check_order(order))


# |S_gamma(p)| is pole/zero free on |Re p| < pi + gamma; extension beyond
# the strip walks back in steps of 2*gamma through the shift relation
#   (1 + exp(i p)) S(p + gamma) = S(p - gamma).
_TAIL_TOL = 1e-12
# the longest walk of shifts faddeev_log_s takes back into the strip
_MAX_SHIFTS = 100_000
_STEP_DOUBLING_TOL = 1e-8
# the cap on the quadrature grid's least end and the least margin * end
# below it (both derived in _quadrature_log_s), and the grid's most steps
# from 0 to the end: 2^20 + 1 points in all (about N = 5000 at lattice p)
_MIN_END = 120.0
_MIN_DECAY = 37.0
_MAX_HALF = 2**19


def _least_end(gamma: float, margin: float) -> float:
    """The quadrature grid's least end X0, derived in `_quadrature_log_s`.

    A subnormal gamma makes the margin rule inf, and the end 120.
    """
    decay = _MIN_DECAY + math.log1p(margin / (2.0 * min(_PI, gamma) * _MIN_DECAY))
    return min(_MIN_END, decay / margin)


def _quadrature_log_s(params: QdParams, p: complex) -> complex:
    """log S_gamma(p), |Re p| <= max(pi, gamma), by the trapezoid rule.

    log S is a quarter of the integral of g(z) = exp(p z) / (z sinh(pi z)
    sinh(gamma z)) over a contour passing above g's pole at 0, whose
    residue is c1 / (pi gamma), c1 = p^2/2 - (pi^2 + gamma^2)/6.  The
    contour moves to the line z = x + i delta, delta = min(1, pi/gamma)/2
    (half way to the poles at i and i pi/gamma) with the sign of Im p, so
    |exp(i p delta)| <= 1; a line below 0 has crossed the pole, whose
    2 pi i c1 / (pi gamma) is taken off.  With w = sign(x) z, Re w = |x|,
    g = 4 exp(p z - (pi + gamma) w) / (z expm1(-2 pi w) expm1(-2 gamma w))
    cannot overflow.  The step h = |delta|/10 (0.05 at gamma <= pi) gives
    an error near exp(-2 pi |delta|/h) = exp(-62.8) for any gamma
    (Trefethen and Weideman, SIAM Review 2014).

    Neither factor of the denominator takes a complex exponential on the
    line.  Let r = 2 max(pi, gamma), the larger of 2 pi and 2 gamma, so
    that r |delta| = pi.  Then Im(r w) = r sign(x) delta = +-pi,
    exp(-r w) = -exp(-r |x|), and
        expm1(-r w) = -(1 + exp(-r |x|)).
    The other rate, rho = 2 min(pi, gamma), leaves Im(-rho w) = b with
    b = -rho sign(x) delta (x = 0 on the x >= 0 side), one constant on
    each half of the grid, so
        expm1(-rho w) = expm1(-rho |x|) e^(ib) + expm1(ib):
    one real expm1 over the grid, then one complex multiply-add by a
    constant on each half.  expm1(ib) is taken as -2 sin^2(b/2) + i sin b.
    The form cos b - 1 carries an absolute error near 1e-16, and near
    x = 0, where the factor is about rho |w|, that is a relative error
    near 1e-16/gamma at gamma <= pi (|b| = gamma there).

    Nor, at real p, does the numerator.  Its exponent p z - (pi + gamma) w
    has the real part (Re p - (pi + gamma) sign(x)) x - Im(p) delta and
    the imaginary part (Re p - (pi + gamma) sign(x)) delta + Im(p) x, so
        -4 exp(p z - (pi + gamma) w)
            = exp((Re p - (pi + gamma) sign(x)) x)
              * (-4 exp(i delta (p - (pi + gamma) sign(x))))
              * exp(i Im(p) x):
    one real exp over the grid, at most 1 since |Re p| < pi + gamma,
    divided by the real 1 + exp(-r |x|), then one constant on each half, of modulus 4 exp(-Im(p) delta) <= 4
    (delta has the sign of Im p), and at non-real p only a last factor
    of modulus 1.

    The sums at h and at 2h share their end correction.  The grid has an
    odd count 2 half + 1 of points, so every other point keeps both ends,
    and with e = (g[0] + g[-1])/2 the trapezoid rule is h (sum(g) - e) at
    h and 2h (sum(g[::2]) - e) at 2h: two pairwise sums of ndarray.sum.

    The grid [-X, X] ends at the first multiple X >= X0 of h where
    exp(-margin X + |Im p|) / (pi gamma margin X) < 1e-12, margin = pi +
    gamma - |Re p| >= min(pi, gamma).  On the line |sinh(a + ib)| >=
    sinh|a| and |exp(p z)| <= exp(Re(p) x), and for x > 0
        4 sinh(pi x) sinh(gamma x)
            = exp((pi + gamma) x) (1 - exp(-2 pi x)) (1 - exp(-2 gamma x))
    with 1/(1 - exp(-t)) <= 1 + 1/t, which sinh(pi X) ~ exp(pi X)/2 would
    drop at small X.  So the tail toward the nearer end of the strip adds
    at most
        T(X) = (1 + 1/(2 pi X)) (1 + 1/(2 gamma X)) exp(-margin X) / (margin X)
    to log S at any X > 0, and the other one, decaying at pi + gamma +
    |Re p|, less.  T(X) is the estimate or less where (pi + 1/(2X))
    (gamma + 1/(2X)) <= 1, as at X >= 120 for gamma <= 0.3137.  The least
    end X0 (`_least_end`) is one rule at every gamma:
        X0 = min(120, (37 + log(1 + margin/(74 min(pi, gamma)))) / margin).
    Where the min takes the margin rule, X0 >= 37/margin bounds
    1/(2 min(pi, gamma) X0) by margin/(74 min(pi, gamma)), so
    exp(-margin X0) (1 + 1/(2 min(pi, gamma) X0)) <= e^-37.  The other
    factor, 1 + 1/(2 max(pi, gamma) X0), is at most 1 + 2/74, since margin
    <= pi + gamma <= 2 max(pi, gamma), and margin X0 >= 37, so
        T(X0) <= e^-37 (1 + 1/37) / 37 < 2.4e-18
    at every gamma.  The min takes 120 only where the margin rule asks for
    more, 120 margin < 37 + log(1 + margin/(74 min(pi, gamma))).  From
    gamma = 0.3085 on, the right side less the left is negative at the
    least margin min(pi, gamma), 37 + log(1 + 1/74) - 120 min(pi, gamma),
    and falls as the margin grows, so the min takes 120 only at gamma <
    0.3085, where T is the estimate or less from X = 120 on.  At gamma >
    pi X0 is 11.8 where |Re p| = gamma and 0.039 at gamma = 1000, p =
    0.3: a mid-strip grid takes 465 points at gamma = 100 and 639 at
    gamma = 1e8.  At gamma = pi/10, p = 0.3 it takes 473 points, while
    the lattice edges at gamma = pi/100 and pi/400 start from 120.
    Past 2^20 + 1 points, or when the sum at 2h differs by more than 1e-8
    (absolute where |integral| < 1, else relative), QuadratureError is
    raised: the step cannot resolve p, or the sum is not finite, as at a
    subnormal gamma, or from about gamma = 2.7e154 on (at p = 0.3), where
    the denominator near x = 0, about pi^3/gamma^2, leaves the normal
    doubles.
    """
    gamma = params.gamma
    delta = 0.5 * min(1.0, _PI / gamma)
    h = 0.1 * delta  # 0.05 at gamma <= pi
    if p.imag < 0.0:
        delta = -delta
    # the rate whose factor the line makes real, then the other one
    real_rate, rate = (2.0 * _PI, 2.0 * gamma) if gamma <= _PI else (2.0 * gamma, 2.0 * _PI)

    margin = _PI + gamma - abs(p.real)
    # log(tail / _TAIL_TOL) is convex and decreasing in X: Newton steps from
    # the least end stay below its root, so they stop at the first multiple
    # past it
    offset = abs(p.imag) - math.log(_PI * gamma) - math.log(margin) - math.log(_TAIL_TOL)
    x_next = _least_end(gamma, margin)
    half = 0
    while True:
        if not x_next <= _MAX_HALF * h:
            raise QuadratureError(
                f"p = {p} at gamma = {gamma!r} needs a quadrature grid of at "
                f"least {2.0 * x_next / h:.3g} points; the cap is {2 * _MAX_HALF + 1}"
            )
        half = max(half + 1, math.ceil(x_next / h))
        x_end = half * h
        excess = offset - margin * x_end - math.log(x_end)
        if excess <= 0.0:
            break
        x_next = x_end + excess / (margin + 1.0 / x_end)

    x = np.arange(-half, half + 1) * h
    halves = ((slice(None, half), -1.0), (slice(half, None), 1.0))  # sign(x)
    # in place: at most four real arrays of the grid and two complex ones,
    # then one real and three complex; a subnormal gamma overflows g, and the
    # check below refuses it
    with np.errstate(all="ignore"):
        xa = np.abs(x)  # Re w
        # the numerator's modulus, exp((Re p - (pi + gamma) sign(x)) x) <= 1,
        # over 1 + exp(-real_rate |x|)
        mod = np.empty_like(x)
        for cut, s in halves:
            np.multiply(x[cut], p.real - s * (_PI + gamma), out=mod[cut])
        np.exp(mod, out=mod)
        real = np.multiply(xa, -real_rate)
        np.exp(real, out=real)
        real += 1.0
        mod /= real
        np.multiply(xa, -rate, out=real)
        np.expm1(real, out=real)
        g = np.empty(x.shape, complex)
        w = np.empty(x.shape, complex)
        for cut, s in halves:
            # the numerator's constant -4 exp(i delta (p - (pi + gamma) sign(x)))
            phase = cmath.exp(1j * delta * (p - s * (_PI + gamma)))
            np.multiply(mod[cut], -4.0 * phase, out=g[cut])
            # expm1(-rate w) = expm1(-rate |x|) e^(ib) + expm1(ib), b = -rate Im w
            b = -s * rate * delta
            turn = cmath.exp(1j * b)
            np.multiply(real[cut], turn, out=w[cut])
            w[cut] += complex(-2.0 * math.sin(0.5 * b) ** 2, turn.imag)
        del xa, mod, real
        if p.imag != 0.0:  # the numerator's last factor, exp(i Im(p) x)
            turn_x = np.multiply(x, 1j * p.imag)
            np.exp(turn_x, out=turn_x)
            g *= turn_x
            del turn_x
        z = x + 1j * delta
        z *= w
        g /= z
        del x, z, w
        # the trapezoid rule at h and at 2h: an odd count of points keeps
        # both ends in g[::2]
        ends = 0.5 * (g[0] + g[-1])
        integral = h * (g.sum() - ends)
        coarse = 2.0 * h * (g[::2].sum() - ends)
    if not abs(integral - coarse) <= _STEP_DOUBLING_TOL * max(1.0, abs(integral)):
        raise QuadratureError(
            f"step doubling moved the integral by "
            f"{abs(integral - coarse):.2e}: the grid cannot resolve p = {p}"
        )
    if delta < 0.0:
        c1 = 0.5 * p * p - (_PI * _PI + gamma * gamma) / 6.0
        integral -= 2j * c1 / gamma
    return complex(integral / 4.0)


def faddeev_log_s(params: QdParams, p: complex) -> complex:
    """log S_gamma(p), continued to arguments outside the strip.

    The defining integral converges on |Re p| < pi + gamma; it is taken
    by quadrature where |Re p| <= max(pi, gamma), at least min(pi, gamma)
    inside that strip.  Elsewhere the shift relation
        (1 + exp(i p)) S_gamma(p + gamma) = S_gamma(p - gamma)
    walks the argument back in steps of 2 gamma, accumulating the
    logarithms of the shift factors.  The returned branch is continuous in
    the integral representation, not reduced mod 2*pi*i.
    """
    p = complex(p)
    if not cmath.isfinite(p):
        raise ValueError(f"argument must be finite, got {p}")
    gamma = params.gamma
    # each shift moves Re p by 2 gamma, and the walk ends inside the strip
    walk = max(0.0, abs(p.real) - _PI) / (2.0 * gamma) + 1.0
    if walk > _MAX_SHIFTS:
        raise ValueError(
            f"argument {p} needs about {walk:.3g} shifts of 2 gamma to "
            f"reach the strip; the walk is limited to {_MAX_SHIFTS}"
        )
    # from gamma = 2 pi on, a walk to |Re p| < pi could leave the strip
    edge = max(_PI, gamma)
    shift = 0j
    # s = 1 walks down, S(p) = S(p - 2 gamma) / (1 + exp(i (p - gamma))),
    # then s = -1 walks up, S(p) = S(p + 2 gamma) * (1 + exp(i (p + gamma)))
    for s in (1.0, -1.0):
        while s * p.real >= edge:
            factor = 1.0 + cmath.exp(1j * (p - s * gamma))
            if abs(factor) < 1e-12:
                lattice = "zero" if s > 0 else "pole"
                raise PoleError(
                    f"argument {p - 2 * s * gamma} hits the {lattice} lattice"
                )
            shift -= s * cmath.log(factor)
            p -= 2.0 * s * gamma
    return shift + _quadrature_log_s(params, p)


def faddeev_s(params: QdParams, p: complex) -> complex:
    """The noncompact quantum dilogarithm S_gamma(p).

    S_gamma(p) = exp( (1/4) int exp(p x) / (x sinh(pi x) sinh(gamma x)) dx )
    over the real line with a dip above the origin.  Satisfies the shift
    relation (1 + exp(i p)) S(p + gamma) = S(p - gamma), the inversion
    relation S(p) S(-p) = exp(-i p^2 / (4 gamma) + i (pi^2 + gamma^2) /
    (12 gamma)) and tends to exp(Li2(-exp(i p)) / (2 i gamma)) as gamma -> 0.
    """
    return cmath.exp(faddeev_log_s(params, p))


def _edge_log_s(gamma: float) -> complex:
    """log S_gamma(gamma - pi) in closed form, at any gamma > 0.

    With a = pi - gamma, sinh(a z) = sinh(pi z) cosh(gamma z) -
    cosh(pi z) sinh(gamma z), so the defining integrals give
        log S(a) - log S(-a) = (1/2) int (coth(gamma z) - coth(pi z)) / z dz
    over the contour above 0.  The integrand is even, so its pole at 0 is
    the double one (1/gamma - 1/pi) / z^2 with no residue, and that part
    integrates to 0 along the contour.  What is left is regular and even,
    and the integral over the real line is twice Frullani's
        int_0^inf (f(gamma x) - f(pi x)) / x dx = -log(pi/gamma),
    f(t) = coth(t) - 1/t, f(0) = 0, f(inf) = 1.  The inversion relation at
    p = gamma - pi gives the sum,
        log S(a) + log S(-a) = i ((pi^2 + gamma^2)/(12 gamma)
                                  - (pi - gamma)^2/(4 gamma)),
    which is i (pi/2 - (pi^2 + gamma^2)/(6 gamma)).  Half the sum minus
    half the difference is
        log S(gamma - pi)
            = (1/2) log(pi/gamma) + i (pi/4 - (pi^2 + gamma^2)/(12 gamma)),
    and half the sum plus half the difference, log S(pi - gamma), is minus
    its conjugate.  At gamma = pi/N the real part is (1/2) log N, since
    (omega)_{N-1} = N.
    """
    return complex(
        0.5 * math.log(_PI / gamma),
        0.25 * _PI - (_PI * _PI + gamma * gamma) / (12.0 * gamma),
    )


def f_gamma(params: QdParams, p: complex) -> complex:
    """S_gamma(gamma - pi) / S_gamma(p): continues (omega)_k off the lattice.

    At gamma = pi/N and p = -pi + gamma + 2*k*gamma it reproduces the
    partial products prod_{j<=k} (1 - omega^j) exactly.  The numerator is
    closed form (`_edge_log_s`), so each call runs one quadrature, that of
    S_gamma(p), and is refused only where p's own grid passes the cap.
    """
    return cmath.exp(_edge_log_s(params.gamma) - faddeev_log_s(params, p))


def f_bar_gamma(params: QdParams, p: complex) -> complex:
    """S_gamma(-p) / S_gamma(pi - gamma): continues the conjugate symbols.

    log S_gamma(pi - gamma) is minus the conjugate of `_edge_log_s`, so
    each call runs one quadrature, that of S_gamma(-p).
    """
    return cmath.exp(
        faddeev_log_s(params, -complex(p)) + _edge_log_s(params.gamma).conjugate()
    )


def funeq_residual(params: QdParams, p: complex) -> float:
    """Relative defect of the shift relation at p:

        |(1 + exp(i p)) S(p + gamma) - S(p - gamma)| / |S(p - gamma)|

    Zero for the true function; for the quadrature it measures the
    combined discretization and truncation error of the two values.
    That holds only at gamma < pi.  From gamma = pi on, faddeev_log_s
    walks every argument into |Re p| < gamma, a window exactly one shift
    of 2 gamma wide, so one of p - gamma and p + gamma walks onto the
    other: both values are one quadrature, the residual is rounding only,
    and ValueError is raised.
    """
    if params.gamma >= _PI:
        raise ValueError(
            f"funeq_residual at gamma = {params.gamma!r} checks no quadrature: "
            f"from gamma = pi on, one of p - gamma and p + gamma walks onto "
            f"the other, so the residual is rounding only"
        )
    lo = faddeev_log_s(params, complex(p) - params.gamma)
    hi = faddeev_log_s(params, complex(p) + params.gamma)
    factor = 1.0 + cmath.exp(1j * complex(p))
    return abs(factor * cmath.exp(hi - lo) - 1.0)
