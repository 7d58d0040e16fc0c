"""Dilogarithms, classical and quantum.

Four layers, each feeding the next:

* ``li2``          Euler's dilogarithm on the complex plane,
* ``lobachevsky``  Lobachevsky's function Lambda(theta) = -int_0^theta
  log|2 sin t| dt, which carries the imaginary part of li2,
* ``im_li2_polar`` the closed form for Im li2 at r*exp(i*theta) built from
  Lambda, used to cross-check li2 and to assemble hyperbolic volumes,
* ``faddeev_s``    the noncompact quantum dilogarithm S_gamma(p), defined by
  a contour integral and evaluated by real-line quadrature; its ratios
  ``f_gamma`` / ``f_bar_gamma`` analytically continue the root-of-unity
  symbols (omega)_k and their conjugates.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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
    """Quadrature configuration for the quantum dilogarithm integral.

    gamma is the deformation parameter (pi/N in the root-of-unity
    application); step and truncation discretize the real line to the
    uniform grid [-truncation, truncation].  The contour's dip around the
    origin is accounted for analytically (see `_quadrature_log_s`), so it
    takes no parameter.
    """

    gamma: float
    step: float = 0.05
    truncation: float = 120.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise ValueError(f"step must be positive, got {self.step}")
        if not (math.isfinite(self.truncation) and self.truncation > self.step):
            raise ValueError("truncation must exceed the step size")

    @classmethod
    def for_order(cls, order: int, **overrides) -> "QdParams":
        """Parameters for the root-of-unity setting gamma = pi/order."""
        try:
            order = operator.index(order)
        except TypeError:
            raise TypeError(f"order must be an integer, got {order!r}") from None
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        return cls(gamma=_PI / order, **overrides)


# |S_gamma(p)| is pole/zero free on |Re p| < pi + gamma; extension beyond
# the strip walks back in steps of 2*gamma through the shift relation
#   (1 + exp(i p)) S(p + gamma) = S(p - gamma).
_TAIL_TOL = 1e-12
# the longest walk of shifts faddeev_log_s takes back into the strip
_MAX_SHIFTS = 100_000
_STEP_DOUBLING_TOL = 1e-8


def _quadrature_log_s(params: QdParams, p: complex) -> complex:
    """log S_gamma(p) for p inside the strip, by trapezoid quadrature.

    The integrand exp(p x) / (4 x sinh(pi x) sinh(gamma x)) has a third
    order pole at the origin.  The contour's dip around 0 is traded for an
    explicit subtraction: the Laurent part
        (1/x^3 + p/x^2 + c1/x) / (pi gamma),
        c1 = p^2/2 - (pi^2 + gamma^2)/6,
    is removed, integrated in closed form over the dipped contour (only the
    tails of the even p/x^2 term beyond the grid's end and the
    half-residue of the odd 1/x term survive), and added back.  The
    remainder is smooth, so the trapezoid rule on the uniform grid, with
    the end term of the Laurent part, converges geometrically in the step
    size; a step-doubling comparison guards against a grid too coarse for
    the given gamma.
    """
    gamma = params.gamma
    pg = _PI * gamma
    beta2 = -(_PI * _PI + gamma * gamma) / 6.0
    c1 = 0.5 * p * p + beta2

    margin = _PI + gamma - abs(p.real)
    if margin <= 0.0:
        raise ValueError("argument outside the quadrature strip")
    t = params.truncation
    h = params.step
    # the grid ends at x_end, the truncation rounded to a whole number of
    # steps, which lies below t when t/h rounds down; the dropped tail is
    # estimated from there
    half = int(round(t / h))
    x_end = half * h
    tail = math.exp(-margin * x_end + abs(p.imag)) / (pg * margin * x_end)
    if tail > _TAIL_TOL:
        raise QuadratureError(
            f"truncation {t} leaves an estimated tail {tail:.2e} for "
            f"Re p = {p.real:.4f}; increase the truncation"
        )

    x = np.arange(-half, half + 1) * h
    # the x = 0 entry divides by zero here and is replaced just below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        full = np.exp(p * x) / (x * np.sinh(_PI * x) * np.sinh(gamma * x))
        laurent = (1.0 / x**3 + p / x**2 + c1 / x) / pg
        smooth = full - laurent
    # value at x = 0 by the Taylor expansion of the regular part
    smooth[half] = (p**3 / 6.0 + p * beta2) / pg
    if not np.all(np.isfinite(smooth)):
        raise QuadratureError("integrand overflow on the quadrature grid")

    integral = np.trapezoid(smooth, dx=h)
    coarse = np.trapezoid(smooth[::2], dx=2.0 * h)
    scale = max(1.0, abs(integral))
    if abs(integral - coarse) > _STEP_DOUBLING_TOL * scale:
        raise QuadratureError(
            f"step doubling moved the integral by "
            f"{abs(integral - coarse):.2e}; decrease the step"
        )

    # closed-form pieces of the Laurent part over the dipped contour: the
    # even p/x^2 term contributes its tails beyond the grid's end X (the
    # truncation rounded to a whole number of steps), the odd 1/x term the
    # half-residue picked up by passing above the origin.  Past X the
    # remainder is minus the Laurent part, so the trapezoid rule also
    # needs its Euler-Maclaurin end term -h^2/12 [f'(X) - f'(-X)] =
    # -h^2 p/(3 pi gamma X^3).
    tails = 2.0 * p / (pg * x_end) * (1.0 + h * h / (6.0 * x_end * x_end))
    integral += -tails - 1j * _PI * c1 / pg
    return complex(integral / 4.0)


def faddeev_log_s(params: QdParams, p: complex) -> complex:
    """log S_gamma(p), continued to arguments outside the strip.

    Inside |Re p| < pi + gamma this is the quadrature of the defining
    integral; outside, the shift relation
        (1 + exp(i p)) S_gamma(p + gamma) = S_gamma(p - gamma)
    walks the argument back into the strip, accumulating the logarithms of
    the shift factors.  The returned branch is continuous in the integral
    representation, not reduced mod 2*pi*i.
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
    shift = 0j
    # S(p) = S(p - 2 gamma) / (1 + exp(i (p - gamma)))
    while p.real >= _PI:
        factor = 1.0 + cmath.exp(1j * (p - gamma))
        if abs(factor) < 1e-12:
            raise PoleError(f"argument {p - 2 * gamma} hits the zero lattice")
        shift -= cmath.log(factor)
        p -= 2.0 * gamma
    # S(p) = S(p + 2 gamma) * (1 + exp(i (p + gamma)))
    while p.real <= -_PI:
        factor = 1.0 + cmath.exp(1j * (p + gamma))
        if abs(factor) < 1e-12:
            raise PoleError(f"argument {p + 2 * gamma} hits the pole lattice")
        shift += cmath.log(factor)
        p += 2.0 * gamma
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


def f_gamma(params: QdParams, p: complex) -> complex:
    """S_gamma(gamma - pi) / S_gamma(p): continues (omega)_k off the lattice.

    At gamma = pi/N and p = -pi + gamma + 2*k*gamma it reproduces the
    partial products prod_{j<=k} (1 - omega^j) exactly.
    """
    return cmath.exp(
        faddeev_log_s(params, complex(params.gamma - _PI))
        - faddeev_log_s(params, p)
    )


def f_bar_gamma(params: QdParams, p: complex) -> complex:
    """S_gamma(-p) / S_gamma(pi - gamma): continues the conjugate symbols."""
    return cmath.exp(
        faddeev_log_s(params, -complex(p))
        - faddeev_log_s(params, complex(_PI - params.gamma))
    )


def funeq_residual(params: QdParams, p: complex) -> float:
    """Relative defect of the shift relation at p:

        |(1 + exp(i p)) S(p + gamma) - S(p - gamma)| / |S(p - gamma)|

    Zero for the true function; for the quadrature it measures the
    combined discretization, truncation and dip error.
    """
    lo = faddeev_log_s(params, complex(p) - params.gamma)
    hi = faddeev_log_s(params, complex(p) + params.gamma)
    factor = 1.0 + cmath.exp(1j * complex(p))
    return abs(factor * cmath.exp(hi - lo) - 1.0)
