"""Stationary-point systems, geometric selection, and volumes."""

import cmath
import math
import random
import warnings

import numpy as np
import pytest

from knotvol.knots import KnotId
from knotvol.qdilog import li2, lobachevsky
from knotvol.saddle import (
    BranchCutWarning,
    SaddleSolution,
    VolumeResult,
    _lift,
    _system,
    hyperbolic_volume,
    potential,
    potential_gradient,
    select_geometric,
    solve_stationary,
)

PI = math.pi

VOLUMES = {
    KnotId.FOUR_ONE: 2.02988321,
    KnotId.FIVE_TWO: 2.82812208,
    KnotId.SIX_ONE: 3.16396322,
}

# eliminating all but z from each stationary system leaves one polynomial
_POLY = {
    KnotId.FOUR_ONE: (1, -1, 1),
    KnotId.FIVE_TWO: (-1, 2, -3, 1),
    KnotId.SIX_ONE: (1, -3, 6, -5, 2),
}


def _poly_value(knot, z):
    coeffs = _POLY[knot]
    return sum(c * z**i for i, c in enumerate(coeffs))


def test_solution_counts_and_residuals():
    expected = {KnotId.FOUR_ONE: 2, KnotId.FIVE_TWO: 3, KnotId.SIX_ONE: 4}
    for knot, count in expected.items():
        sols = solve_stationary(knot)
        assert len(sols) == count
        for s in sols:
            assert s.residual <= 1e-12
            assert all(abs(c) > 1e-12 for c in s.point)
            # each z-coordinate is a root of the eliminated polynomial
            assert abs(_poly_value(knot, s.point[0])) <= 1e-10


def test_four_one_roots_are_sixth_roots_of_unity():
    sols = solve_stationary(KnotId.FOUR_ONE)
    zs = sorted((s.point[0] for s in sols), key=lambda z: z.imag)
    assert abs(zs[0] - cmath.exp(-1j * PI / 3)) <= 1e-12
    assert abs(zs[1] - cmath.exp(1j * PI / 3)) <= 1e-12


def test_five_two_roots():
    sols = solve_stationary(KnotId.FIVE_TWO)
    zs = sorted((s.point[0] for s in sols), key=lambda z: (z.imag, z.real))
    assert abs(zs[0] - complex(0.33764102137764, -0.56227951206230)) <= 1e-10
    assert abs(zs[1] - 2.32471795724475) <= 1e-10
    assert abs(zs[2] - zs[0].conjugate()) <= 1e-12
    # the second coordinate is tied to z by u = (1 - z)^2
    for s in sols:
        z, u = s.point
        assert abs(u - (1 - z) ** 2) <= 1e-10


def test_six_one_second_coordinates():
    for s in solve_stationary(KnotId.SIX_ONE):
        z, u, v = s.point
        assert abs(u - (z * z - z + 1) / z) <= 1e-9
        assert abs(v - z * z / (z - 1)) <= 1e-9


def test_exactly_one_geometric_solution():
    for knot in KnotId:
        sols = solve_stationary(knot)
        assert sum(1 for s in sols if s.selected) == 1
        sel = select_geometric(sols, knot)
        assert sel.selected
        assert sel.point[0].imag < 0
        if knot is KnotId.FIVE_TWO:
            assert sel.point[1].imag > 0
        if knot is KnotId.SIX_ONE:
            assert (sel.point[1] * sel.point[2]).imag > 0


def test_select_geometric_error_paths():
    with pytest.raises(ValueError):
        select_geometric([], KnotId.FOUR_ONE)
    fake = SaddleSolution(
        knot=KnotId.FOUR_ONE, point=(1j,), residual=0.0, selected=True
    )
    with pytest.raises(ArithmeticError):
        select_geometric([fake, fake], KnotId.FOUR_ONE)


def test_volumes():
    for knot, vol in VOLUMES.items():
        result = hyperbolic_volume(knot)
        assert isinstance(result, VolumeResult)
        assert abs(result.volume - vol) <= 1e-6
        assert result.volume > 0
        assert result.potential_value.imag == -result.volume
        assert result.solution.selected


def test_four_one_triple_route():
    # saddle route, Lobachevsky route, and the dilogarithm on the unit
    # circle must agree pairwise to 1e-10
    a = hyperbolic_volume(KnotId.FOUR_ONE).volume
    b = 4 * lobachevsky(PI / 6)
    c = 2 * li2(cmath.exp(1j * PI / 3)).imag
    assert abs(a - b) <= 1e-10
    assert abs(b - c) <= 1e-10
    assert abs(a - c) <= 1e-10


def test_potential_at_geometric_point_four_one():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BranchCutWarning)
        val = potential(KnotId.FOUR_ONE, [cmath.exp(-1j * PI / 3)])
    assert abs(val.imag + VOLUMES[KnotId.FOUR_ONE]) <= 1e-7
    assert abs(val.real) <= 1e-13


def test_potential_real_segment_is_real():
    # for z in (0, 1) the two dilogarithms have conjugate-real arguments,
    # so the imaginary parts cancel; 1/z rides the real cut and warns
    for z in (0.3, 0.5, 0.9):
        with pytest.warns(BranchCutWarning):
            val = potential(KnotId.FOUR_ONE, [complex(z)])
        assert abs(val.imag) <= 1e-12


def test_potential_warns_near_log_cut():
    with pytest.warns(BranchCutWarning):
        potential(KnotId.FIVE_TWO, [0.5 + 0j, -1.0 + 0j])


def test_potential_five_two_at_geometric_point():
    sel = select_geometric(solve_stationary(KnotId.FIVE_TWO), KnotId.FIVE_TWO)
    assert abs(-potential(KnotId.FIVE_TWO, sel.point).imag - VOLUMES[KnotId.FIVE_TWO]) <= 1e-7


def test_gradient_vanishes_at_selected_points():
    h = 1e-6
    for knot in KnotId:
        sel = select_geometric(solve_stationary(knot), knot)
        grad = potential_gradient(knot, sel.point)
        assert max(abs(g) for g in grad) <= 1e-9
        # finite differences around the saddle agree
        for i in range(len(sel.point)):
            for step in (h, h * 1j):
                up = list(sel.point)
                dn = list(sel.point)
                up[i] += step
                dn[i] -= step
                fd = (potential(knot, up) - potential(knot, dn)) / (2 * step)
                assert abs(fd - grad[i]) <= 1e-6


def test_gradient_lattice_structure():
    # coordinate times gradient component exponentiates to an algebraic
    # identity, so c * dPhi/dc / (2 pi i) is an exact integer at every
    # stationary point, zero exactly at the selected ones
    for knot in KnotId:
        for s in solve_stationary(knot):
            grad = potential_gradient(knot, s.point)
            for c, g in zip(s.point, grad):
                w = c * g / (2j * PI)
                assert abs(w - round(w.real)) <= 1e-9
                if s.selected:
                    assert round(w.real) == 0


def test_gradient_matches_finite_differences_off_saddle():
    rng = random.Random(3)
    h = 1e-7
    for knot, dim in ((KnotId.FOUR_ONE, 1), (KnotId.FIVE_TWO, 2), (KnotId.SIX_ONE, 3)):
        for _ in range(5):
            point = [
                complex(rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5))
                for _ in range(dim)
            ]
            grad = potential_gradient(knot, point)
            for i in range(dim):
                up, dn = list(point), list(point)
                up[i] += h
                dn[i] -= h
                fd = (potential(knot, up) - potential(knot, dn)) / (2 * h)
                assert abs(fd - grad[i]) <= 1e-5 * (1 + abs(grad[i]))


def test_lift_reduces_the_system_to_the_eliminated_polynomial():
    # on the lifted point the system is the eliminated polynomial times a
    # nonzero factor, with the other equations identically zero; since a
    # solution with nonzero coordinates is fixed by z through the lift,
    # the lifted roots are exactly those solutions
    rng = random.Random(20261020)
    for _ in range(50):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        (eq,) = _system(KnotId.FOUR_ONE, np.asarray(_lift(KnotId.FOUR_ONE, z)))
        assert abs(eq - _poly_value(KnotId.FOUR_ONE, z)) <= 1e-14 * (1 + abs(z)) ** 2
        eq1, eq2 = _system(KnotId.FIVE_TWO, np.asarray(_lift(KnotId.FIVE_TWO, z)))
        assert abs(eq1 + _poly_value(KnotId.FIVE_TWO, z)) <= 1e-14 * (1 + abs(z)) ** 3
        assert abs(eq2) <= 1e-14 * (1 + abs(z)) ** 2
        eq1, eq2, eq3 = _system(KnotId.SIX_ONE, np.asarray(_lift(KnotId.SIX_ONE, z)))
        scale = 1e-14 * (1 + abs(z)) ** 4 / min(1.0, abs(z), abs(z - 1)) ** 2
        assert abs((z - 1) * eq1 - _poly_value(KnotId.SIX_ONE, z)) <= scale
        assert abs(eq1 + eq2) <= scale
        assert abs(eq3) <= scale


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(lambda knot: potential(knot, [0.5 + 0.5j, 1 + 1j, 2 - 1j]), id="potential"),
        pytest.param(lambda knot: potential_gradient(knot, [0.5 + 0.5j]), id="potential_gradient"),
        pytest.param(solve_stationary, id="solve_stationary"),
        pytest.param(hyperbolic_volume, id="hyperbolic_volume"),
    ],
)
@pytest.mark.parametrize("name", ["4_1", "5_2", "6_1"])
def test_knot_names_are_refused_for_parse(entry, name):
    # a knot name is refused with a pointer to KnotId.parse, and never
    # falls through to another knot's formula
    with pytest.raises(TypeError, match="KnotId.parse"):
        entry(name)


def test_invalid_point_shapes_rejected():
    with pytest.raises(ValueError):
        potential(KnotId.FOUR_ONE, [1j, 2j])
    with pytest.raises(ValueError):
        potential_gradient(KnotId.SIX_ONE, [1j])
