"""Stationary-point systems of the dilogarithm potentials, and the volumes.

Each knot's invariant is asymptotically an oscillatory integral whose
exponent is a fixed potential built from Li2 and logs.  The stationary
points satisfy small algebraic systems; among the solutions, Im-sign
conditions single out the geometric one, and minus the imaginary part of
the potential there is the hyperbolic volume of the knot complement:

    4_1:  Phi = Li2(z) - Li2(1/z)
          stationarity:  z^2 - z + 1 = 0
    5_2:  Phi = 2 Li2(z) + Li2(1/u) + log(z) log(u) - pi^2/2
          stationarity:  u + z = u z,  u = (1 - z)^2
          selection:     Im z0 < 0 < Im u0
    6_1:  Phi = Li2(z) - Li2(1/z) - Li2(u) + Li2(1/v)
               + log(uv/z) log(z/u) + 2 pi i log(u/z)
          stationarity:  z(1-z)^2 = -u^2 v,  z^2(1-u) = u^2 v,
                         z(1-v) = -u v
          selection:     Im z0 < 0 < Im(u0 v0)

All logs and Li2 are on principal branches; for 4_1, where no selection
condition is stated, the root giving positive volume is chosen.

The solutions are found as the roots of one univariate polynomial per
knot, the system with all but z eliminated: each root is polished by
Newton steps on that polynomial and lifted to a full coordinate tuple.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .knots import KnotId, check_knot
from .qdilog import li2

__all__ = [
    "BranchCutWarning",
    "SaddleSolution",
    "VolumeResult",
    "potential",
    "solve_stationary",
    "select_geometric",
    "hyperbolic_volume",
]

_RESIDUAL_TOL = 1e-12
_CUT_TOL = 1e-12
# Newton steps on the eliminated polynomial after numpy.roots: two keep
# all three volumes on the bits of a Newton polish of the full system,
# one moves 6_1 by 4 ulp
_POLISH_STEPS = 2


class BranchCutWarning(UserWarning):
    """A log or Li2 argument sits within 1e-12 of its branch cut."""


def _check_log_arg(w: complex, label: str) -> complex:
    # cut of log: the ray (-inf, 0]
    dist = abs(w.imag) if w.real <= 0.0 else abs(w)
    if dist < _CUT_TOL:
        warnings.warn(
            f"log argument {label} = {w} within {_CUT_TOL} of the cut",
            BranchCutWarning,
            stacklevel=3,
        )
    return cmath.log(w)


def _check_li2_arg(w: complex, label: str) -> complex:
    # cut of Li2: the ray [1, inf)
    dist = abs(w.imag) if w.real >= 1.0 else abs(w - 1.0)
    if dist < _CUT_TOL:
        warnings.warn(
            f"Li2 argument {label} = {w} within {_CUT_TOL} of the cut",
            BranchCutWarning,
            stacklevel=3,
        )
    return li2(w)


def potential(knot: KnotId, point: Sequence[complex]) -> complex:
    """Principal-branch potential whose -Im at the geometric saddle is V(L).

    Warns (BranchCutWarning) when any log or Li2 argument comes within
    1e-12 of its cut; on the Li2 cut itself the real principal value is
    used, so the 4_1 potential stays real on the real interval (0, 1).
    """
    knot = check_knot(knot)
    point = tuple(complex(c) for c in point)
    if knot is KnotId.FOUR_ONE:
        (z,) = point
        return _check_li2_arg(z, "z") - _check_li2_arg(1.0 / z, "1/z")
    if knot is KnotId.FIVE_TWO:
        z, u = point
        return (
            2.0 * _check_li2_arg(z, "z")
            + _check_li2_arg(1.0 / u, "1/u")
            + _check_log_arg(z, "z") * _check_log_arg(u, "u")
            - math.pi * math.pi / 2.0
        )
    z, u, v = point
    return (
        _check_li2_arg(z, "z")
        - _check_li2_arg(1.0 / z, "1/z")
        - _check_li2_arg(u, "u")
        + _check_li2_arg(1.0 / v, "1/v")
        + _check_log_arg(u * v / z, "uv/z") * _check_log_arg(z / u, "z/u")
        + 2j * math.pi * _check_log_arg(u / z, "u/z")
    )


def potential_gradient(knot: KnotId, point: Sequence[complex]) -> tuple[complex, ...]:
    """Analytic gradient of `potential`, one component per coordinate.

    Exponentiating coordinate * component recovers exactly the algebraic
    stationarity equations, so away from branch-crossing defects the
    gradient vanishes precisely on the solution set of `solve_stationary`.
    """
    knot = check_knot(knot)
    point = tuple(complex(c) for c in point)
    if knot is KnotId.FOUR_ONE:
        (z,) = point
        return (-(cmath.log(1.0 - z) + cmath.log(1.0 - 1.0 / z)) / z,)
    if knot is KnotId.FIVE_TWO:
        z, u = point
        return (
            (-2.0 * cmath.log(1.0 - z) + cmath.log(u)) / z,
            (cmath.log(1.0 - 1.0 / u) + cmath.log(z)) / u,
        )
    z, u, v = point
    log_zu = cmath.log(z / u)
    log_uvz = cmath.log(u * v / z)
    return (
        (
            -cmath.log(1.0 - z)
            - cmath.log(1.0 - 1.0 / z)
            - log_zu
            + log_uvz
            - 2j * math.pi
        )
        / z,
        (cmath.log(1.0 - u) + log_zu - log_uvz + 2j * math.pi) / u,
        (cmath.log(1.0 - 1.0 / v) + log_zu) / v,
    )


@dataclass(frozen=True)
class SaddleSolution:
    """One stationary point: coordinates, system residual, selection flag."""

    knot: KnotId
    point: tuple[complex, ...]
    residual: float
    selected: bool


@dataclass(frozen=True)
class VolumeResult:
    knot: KnotId
    volume: float
    solution: SaddleSolution
    potential_value: complex


def _system(knot: KnotId, point: np.ndarray) -> np.ndarray:
    if knot is KnotId.FOUR_ONE:
        (z,) = point
        return np.array([z * z - z + 1.0])
    if knot is KnotId.FIVE_TWO:
        z, u = point
        return np.array([u + z - u * z, u - (1.0 - z) ** 2])
    z, u, v = point
    return np.array(
        [
            z * (1.0 - z) ** 2 + u * u * v,
            z * z * (1.0 - u) - u * u * v,
            z * (1.0 - v) + u * v,
        ]
    )


# univariate eliminations of the stationarity systems, leading coeff first:
#   5_2: substitute u = (1-z)^2 into u + z = uz
#   6_1: adding the first two equations forces u = (z^2-z+1)/z, the third
#        gives v = z^2/(z-1); substitution into the first yields the quartic
# Every root lifts to a finite point with nonzero coordinates: the constant
# terms are nonzero, so z != 0; z = 1 is not a root, so the 5_2 u = (1-z)^2
# is nonzero and the 6_1 v = z^2/(z-1) finite and nonzero; and the 6_1
# u = 0 would need z^2 - z + 1 = 0, where the quartic equals z != 0.
_ELIMINATED = {
    KnotId.FOUR_ONE: [1.0, -1.0, 1.0],
    KnotId.FIVE_TWO: [1.0, -3.0, 2.0, -1.0],
    KnotId.SIX_ONE: [2.0, -5.0, 6.0, -3.0, 1.0],
}


def _lift(knot: KnotId, z: complex) -> tuple[complex, ...]:
    if knot is KnotId.FOUR_ONE:
        return (z,)
    if knot is KnotId.FIVE_TWO:
        return (z, (1.0 - z) ** 2)
    return (z, (z * z - z + 1.0) / z, z * z / (z - 1.0))


def _is_selected(knot: KnotId, point: tuple[complex, ...]) -> bool:
    if knot is KnotId.FOUR_ONE:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BranchCutWarning)
            return -potential(knot, point).imag > 0.0
    if knot is KnotId.FIVE_TWO:
        z, u = point
        return z.imag < 0.0 < u.imag
    z, u, v = point
    return z.imag < 0.0 < (u * v).imag


def solve_stationary(knot: KnotId) -> list[SaddleSolution]:
    """All stationary points with nonzero coordinates, residual <= 1e-12.

    The roots of the knot's univariate elimination (numpy.roots) are
    polished by Newton steps on that polynomial and lifted to full
    coordinate tuples; each lifted point's residual on the original
    system is checked.
    """
    coeffs = _ELIMINATED[check_knot(knot)]
    slope = np.polyder(coeffs)
    roots = np.roots(coeffs)
    for _ in range(_POLISH_STEPS):
        roots = roots - np.polyval(coeffs, roots) / np.polyval(slope, roots)
    solutions = []
    for z in sorted(roots, key=lambda w: (round(w.real, 9), w.imag)):
        point = _lift(knot, complex(z))
        residual = float(np.max(np.abs(_system(knot, np.asarray(point)))))
        if residual > _RESIDUAL_TOL:
            raise ArithmeticError(
                f"stationary residual {residual:.2e} exceeds "
                f"{_RESIDUAL_TOL} for {knot}"
            )
        solutions.append(
            SaddleSolution(knot, point, residual, _is_selected(knot, point))
        )
    return solutions


def select_geometric(
    solutions: Sequence[SaddleSolution], knot: KnotId
) -> SaddleSolution:
    """The unique solution passing the knot's Im-sign selection rule."""
    if not solutions:
        raise ValueError(f"empty solution list for {knot}")
    picked = [s for s in solutions if s.selected]
    if len(picked) != 1:
        raise ArithmeticError(
            f"{knot}: expected exactly one geometric solution, "
            f"found {len(picked)}"
        )
    return picked[0]


def hyperbolic_volume(knot: KnotId) -> VolumeResult:
    """Hyperbolic volume of the knot complement, -Im of the potential
    at the geometric stationary point."""
    knot = check_knot(knot)
    solution = select_geometric(solve_stationary(knot), knot)
    value = potential(knot, solution.point)
    volume = -value.imag
    if not volume > 0.0:
        raise ArithmeticError(f"non-positive volume {volume} for {knot}")
    return VolumeResult(knot, volume, solution, value)
