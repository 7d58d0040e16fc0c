"""State-sum evaluation tests.

The load-bearing oracle is `_brute_sum`, the three summation formulas
written as naive Python loops over fresh root-of-unity powers.
"""

import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from knotvol.cyclo import ExactBudgetError
from knotvol.invariant import (
    MODES,
    InvariantValue,
    LogComplex,
    _SumSpace,
    _segment_error_factors,
    _sum_error_factor,
    alexander_check,
    growth_point,
    pochhammer_table,
    quantum_invariant,
)
from knotvol.knots import KnotId

PI = math.pi


def _fresh_pochhammer(order):
    # (omega)_k by direct product, no recurrences shared with the package
    out = [1 + 0j]
    for k in range(1, order):
        out.append(math.prod(1 - cmath.exp(2j * PI * j / order) for j in range(1, k + 1)))
    return out


def _brute_sum(knot, order):
    w = cmath.exp(2j * PI / order)
    poch = _fresh_pochhammer(order)
    n = order
    if knot is KnotId.FOUR_ONE:
        return sum(abs(poch[k]) ** 2 for k in range(n))
    if knot is KnotId.FIVE_TWO:
        return sum(
            poch[l] ** 2 / poch[k].conjugate() * w ** (-k * (l + 1))
            for k in range(n)
            for l in range(k, n)
        )
    return sum(
        abs(poch[m]) ** 2
        / (poch[k] * poch[l].conjugate())
        * w ** ((m - k - l) * (m - k + 1))
        for k in range(n)
        for l in range(n)
        for m in range(k + l, n)
        if k + l <= m
    )


# --- LogComplex ---

def test_logcomplex_roundtrip():
    for z in (1 + 0j, -2.5 + 1j, 3e-200j, -1e150 - 2e150j):
        lc = LogComplex.from_complex(z)
        # log/exp round trips lose about |log_mag| ulps
        tol = (4.0 + abs(lc.log_mag)) * 2e-16
        assert abs(lc.to_complex() - z) <= tol * abs(z)


def test_logcomplex_zero():
    zero = LogComplex.from_complex(0j)
    assert zero.is_zero and zero.to_complex() == 0j


def test_logcomplex_arg_convention():
    assert LogComplex.from_complex(-1 + 0j).arg == PI
    a = LogComplex.from_complex(-1 + 0j) * LogComplex.from_complex(-1 + 0j)
    assert a.arg == 0.0 and abs(a.log_mag) <= 1e-15


def test_logcomplex_mul_div():
    x = LogComplex.from_complex(3 - 4j)
    y = LogComplex.from_complex(-0.5 + 2j)
    prod = (x * y).to_complex()
    quot = (x / y).to_complex()
    assert abs(prod - (3 - 4j) * (-0.5 + 2j)) <= 1e-14 * abs(prod)
    assert abs(quot - (3 - 4j) / (-0.5 + 2j)) <= 1e-14 * abs(quot)


def test_logcomplex_overflow_guard():
    big = LogComplex(log_mag=800.0, arg=0.0)
    with pytest.raises(OverflowError):
        big.to_complex()
    assert (big / big).to_complex() == 1 + 0j


# --- pochhammer table ---

def test_table_matches_fresh_products():
    for order in (1, 2, 3, 7, 25, 100):
        table = pochhammer_table(order)
        fresh = _fresh_pochhammer(order)
        for k in range(order):
            assert abs(complex(table.values[k]) - fresh[k]) <= 1e-12 * abs(fresh[k])


def test_table_log_fields_consistent():
    table = pochhammer_table(60)
    assert complex(table.values[0]) == 1 + 0j
    assert table.log_mag[0] == 0.0
    assert np.all(table.arg > -PI) and np.all(table.arg <= PI)
    mags = np.exp(table.log_mag)
    assert np.max(np.abs(mags - np.abs(table.values)) / mags) <= 1e-12
    # wrapped accumulated phases agree with the per-value phases
    circ = np.abs(np.exp(1j * (table.arg - np.angle(table.values))) - 1.0)
    assert np.max(circ) <= 1e-10
    assert abs(complex(table.omega_pow[1]) - cmath.exp(2j * PI / 60)) <= 1e-15


def _unmirrored_log_mag(order):
    # the running log sum with the sine taken at min(j, N - j) for every j
    n = order
    j = np.arange(1, n)
    log_f = np.log(2.0 * np.sin(np.minimum(j, n - j) * (PI / n)))
    grid = np.round(log_f / 2.0**-20) * 2.0**-20
    log_mag = np.zeros(n)
    np.cumsum(grid, out=log_mag[1:])
    log_mag[1:] += np.cumsum(log_f - grid)
    return log_mag


@pytest.mark.parametrize("order", [1, 2, 7, 8, 1001, 1002])
def test_mirrored_sines_keep_log_mag_bits(order):
    table = pochhammer_table(order)
    assert table.log_mag.tobytes() == _unmirrored_log_mag(order).tobytes()


# --- summation rounding bounds ---

def _half_ulp_run(count, unit):
    # unit, then count - 1 halves of its ulp: every addition into the
    # accumulator that holds `unit` is a tie and rounds the half ulp away
    return np.array([unit] + [unit * 2.0**-53] * (count - 1))


def _abs_error(got, items):
    re = Fraction(got.real) - sum(Fraction(float(x.real)) for x in items)
    im = Fraction(got.imag) - sum(Fraction(float(x.imag)) for x in items)
    return abs(complex(float(re), float(im)))


_SUM_COUNTS = list(range(1, 300)) + [1000, 4096, 5001]


def test_sum_error_factor_bounds_numpy_sum():
    # numpy adds up to 16 items into one of 8 interleaved accumulators
    # before any pairwise step: 1 + 127 half ulps loses 15 of them
    for count in _SUM_COUNTS:
        for unit, width in ((1.0, 1), (1.0 + 1.0j, 2)):
            items = _half_ulp_run(count, unit)
            bound = _sum_error_factor(count, width) * float(np.sum(np.abs(items)))
            assert _abs_error(np.sum(items), items) <= bound, (count, width)


def test_segment_error_factors_bound_numpy_reduceat():
    # reduceat adds a segment's first item to the pairwise sum of the
    # rest, so the run of half ulps starts at the second item
    counts = np.array(_SUM_COUNTS)
    segments = [
        np.concatenate(([0j], _half_ulp_run(c - 1, 1.0 + 1.0j)))
        if c > 1
        else np.array([1.0 + 1.0j])
        for c in counts
    ]
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    sums = np.add.reduceat(np.concatenate(segments), starts)
    factors = _segment_error_factors(counts)
    for count, items, got, factor in zip(counts, segments, sums, factors):
        bound = factor * float(np.sum(np.abs(items)))
        assert _abs_error(got, items) <= bound, count


# --- enumeration order ---

def test_sum_space_decode_matches_nested_loops():
    n = 7
    table = pochhammer_table(n)
    # 5_2 pairs (k, l) and 6_1 pairs (l, s) both run over r <= c, row by row
    want = [(r, c) for r in range(n) for c in range(r, n)]
    for knot in (KnotId.FIVE_TWO, KnotId.SIX_ONE):
        space = _SumSpace(knot, table, False, 4096, 1)
        got = list(zip(*(a.tolist() for a in space._indices(0, space.total))))
        assert got == want

        # decoding a sub-range must agree with slicing the full decode
        sub = list(zip(*(a.tolist() for a in space._indices(5, 17))))
        assert sub == want[5:17]


def test_six_one_row_sums_match_loops():
    # C(s) = sum_{m>=s} |(w)_m|^2 / (w)_{m-s}, for chunks that cut rows
    # into pieces and for chunks that hold several rows
    n = 11
    table = pochhammer_table(n)
    poch = _fresh_pochhammer(n)
    want = [
        sum(abs(poch[m]) ** 2 / poch[m - s] for m in range(s, n)) for s in range(n)
    ]
    for chunk_size in (1, 3, 4, 50):
        for direct in (True, False):
            space = _SumSpace(KnotId.SIX_ONE, table, direct, chunk_size, 1)
            got = space.col_val if direct else np.exp(space.col_log) * space.col_val
            for s in range(n):
                case = (chunk_size, direct, s)
                assert abs(got[s] - want[s]) <= 1e-13 * abs(want[s]), case
                assert 0.0 < space.col_err[s] <= 1e-13 * np.abs(space.col_val[s])


# --- values ---

def test_order_one_is_one():
    for knot in KnotId:
        for mode in MODES:
            v = quantum_invariant(knot, 1, mode)
            assert v.term_count == 1
            assert abs(v.value_complex - 1) <= 1e-15


def test_order_two_gives_determinants():
    expected = {KnotId.FOUR_ONE: 5, KnotId.FIVE_TWO: 7, KnotId.SIX_ONE: 9}
    for knot, det in expected.items():
        for mode in MODES:
            v = quantum_invariant(knot, 2, mode)
            assert abs(v.value_complex - det) <= 1e-12


def test_four_one_small_orders():
    assert abs(quantum_invariant(KnotId.FOUR_ONE, 3).value_complex - 13) <= 1e-12
    assert abs(quantum_invariant(KnotId.FOUR_ONE, 4).value_complex - 27) <= 1e-12


def test_all_modes_match_brute_sums():
    for knot in KnotId:
        for order in range(1, 21):
            ref = _brute_sum(knot, order)
            for mode in MODES:
                v = quantum_invariant(knot, order, mode).value_complex
                assert abs(v - ref) <= 1e-10 * abs(ref), (knot, order, mode)


def test_direct_and_logscale_agree_to_high_order():
    for knot in KnotId:
        for order in range(1, 101):
            d = quantum_invariant(knot, order, "direct").value_complex
            l = quantum_invariant(knot, order, "logscale").value_complex
            assert abs(d - l) <= 1e-9 * abs(d), (knot, order)


def test_four_one_values_are_positive_reals():
    for order in (2, 17, 60, 150):
        v = quantum_invariant(KnotId.FOUR_ONE, order, "logscale")
        assert v.value_log.arg == 0.0
        assert v.value_complex.real > 0
    d = quantum_invariant(KnotId.FOUR_ONE, 60, "direct")
    assert abs(d.value_complex.imag) <= 1e-12 * d.value_complex.real


def test_four_one_growth_is_monotone():
    logs = [
        quantum_invariant(KnotId.FOUR_ONE, n).value_log.log_mag
        for n in range(1, 501)
    ]
    assert all(b > a for a, b in zip(logs, logs[1:]))


def test_growth_point():
    order, log_abs = growth_point(KnotId.FIVE_TWO, 40)
    assert order == 40
    assert log_abs == quantum_invariant(KnotId.FIVE_TWO, 40).value_log.log_mag


def test_high_order_logscale_growth_rate():
    # far beyond the direct-mode ceiling the growth rate must sit near
    # 2 pi log|<4_1>| / N ~ 2.0299
    v = quantum_invariant(KnotId.FOUR_ONE, 4000, "logscale")
    assert v.value_complex is None  # not representable as a double
    rate = 2 * PI * v.value_log.log_mag / 4000
    assert abs(rate - 2.02988321) <= 0.03


def test_direct_mode_overflow_refusals():
    with pytest.raises(OverflowError, match="table log"):
        quantum_invariant(KnotId.FOUR_ONE, 4000, "direct")
    with pytest.raises(OverflowError, match="term log"):
        quantum_invariant(KnotId.FIVE_TWO, 2000, "direct")
    with pytest.raises(OverflowError):
        quantum_invariant(KnotId.SIX_ONE, 2000, "direct")
    # 6_1 is first refused at N = 1068; every intermediate of the pair sum
    # obeys the term bound, so the last accepted order must not overflow
    with pytest.raises(OverflowError, match="term log magnitude bound 690.1"):
        quantum_invariant(KnotId.SIX_ONE, 1068, "direct")
    v = quantum_invariant(KnotId.SIX_ONE, 1067, "direct")
    assert math.isfinite(abs(v.value_complex))
    assert math.isfinite(v.accum_error_estimate)


def test_logscale_table_overflow_is_silent():
    # the plain table overflows near N = 4300; logscale never reads it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = quantum_invariant(KnotId.FOUR_ONE, 5000, "logscale")
    assert v.value_complex is None and math.isfinite(v.value_log.log_mag)


def _mp_six_one(order, dps):
    # <6_1> with s = m-k, at dps digits; reciprocals by division
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        n = order
        w = [mp.expjpi(mp.mpf(2 * j) / n) for j in range(n)]
        poch = [mp.mpc(1)]
        for k in range(1, n):
            poch.append(poch[-1] * (1 - w[k]))
        inv = [1 / p for p in poch]
        absq = [abs(p) ** 2 for p in poch]
        row = [mp.fdot((absq[m], inv[m - s]) for m in range(s, n)) for s in range(n)]
        total = mp.fsum(
            row[s] / mp.conj(poch[l]) * w[((s - l) * (s + 1)) % n]
            for l in range(n)
            for s in range(l, n)
        )
        return complex(total)


@pytest.mark.parametrize("order", [149, 171])
def test_six_one_logscale_against_high_precision(order):
    ref = _mp_six_one(order, 45)
    v = quantum_invariant(KnotId.SIX_ONE, order, "logscale")
    err = abs(v.value_complex - ref) / abs(ref)
    assert err <= 1e-6
    assert err <= v.accum_error_estimate


def _mp_four_one(order, dps):
    # <4_1> = sum_k prod_{j<=k} 4 sin^2(pi j/N), at dps digits
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        term, total = mp.mpf(1), mp.mpf(1)
        for j in range(1, order):
            term *= 4 * mp.sin(mp.pi * j / order) ** 2
            total += term
        return total


def _mp_five_two(order, dps):
    # <5_2> row by row, at dps digits; reciprocals by division
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        n = order
        w = [mp.expjpi(mp.mpf(2 * j) / n) for j in range(n)]
        poch = [mp.mpc(1)]
        for k in range(1, n):
            poch.append(poch[-1] * (1 - w[k]))
        inv_conj = [1 / mp.conj(p) for p in poch]
        total = mp.fsum(
            poch[l] ** 2
            * mp.fdot((inv_conj[k], w[(-k * (l + 1)) % n]) for k in range(l + 1))
            for l in range(n)
        )
        return total


@pytest.mark.parametrize(
    "knot, order, reference",
    [
        (KnotId.FOUR_ONE, 20_000, _mp_four_one),
        (KnotId.FOUR_ONE, 20_001, _mp_four_one),
        (KnotId.FIVE_TWO, 640, _mp_five_two),
    ],
)
def test_error_estimate_covers_table_rounding(knot, order, reference):
    # at these orders the rounding in the Pochhammer table outweighs the
    # summation rounding; the estimate must still cover the true error
    v = quantum_invariant(knot, order, "logscale")
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        ref = reference(order, 40)
        got = mp.exp(mp.mpf(v.value_log.log_mag)) * mp.expj(mp.mpf(v.value_log.arg))
        err = float(abs(got - ref) / abs(ref))
    assert err <= v.accum_error_estimate


@pytest.mark.parametrize(
    "knot, order",
    [(KnotId.FIVE_TWO, 60), (KnotId.SIX_ONE, 60), (KnotId.FOUR_ONE, 100)],
)
def test_logscale_matches_exact_past_twenty(knot, order):
    exact = quantum_invariant(knot, order, "exact")
    logscale = quantum_invariant(knot, order, "logscale")
    err = abs(logscale.value_complex - exact.value_complex) / abs(exact.value_complex)
    assert err <= 1e-9
    assert err <= logscale.accum_error_estimate + exact.accum_error_estimate


def test_exact_mode_budget_refusal():
    with pytest.raises(ExactBudgetError):
        quantum_invariant(KnotId.SIX_ONE, 200, "exact")


def test_input_validation():
    with pytest.raises(ValueError):
        quantum_invariant(KnotId.FOUR_ONE, 0)
    with pytest.raises(ValueError):
        quantum_invariant(KnotId.FOUR_ONE, 5, "fast")
    with pytest.raises(ValueError):
        quantum_invariant(KnotId.FOUR_ONE, 5, threads=0)
    with pytest.raises(ValueError):
        quantum_invariant(KnotId.FOUR_ONE, 5, chunk_size=0)


def test_thread_count_never_changes_bits():
    # direct mode refuses 4_1 at N = 50 000
    cases = (
        (KnotId.SIX_ONE, 60, ("direct", "logscale")),
        (KnotId.FIVE_TWO, 113, ("direct", "logscale")),
        (KnotId.FOUR_ONE, 50_000, ("logscale",)),
    )
    for knot, order, modes in cases:
        for mode in modes:
            one = quantum_invariant(knot, order, mode, threads=1)
            two = quantum_invariant(knot, order, mode, threads=2)
            eight = quantum_invariant(knot, order, mode, threads=8)
            assert one == two == eight


def test_repeat_runs_are_identical():
    a = quantum_invariant(KnotId.SIX_ONE, 45, "logscale", threads=4)
    b = quantum_invariant(KnotId.SIX_ONE, 45, "logscale", threads=4)
    assert a == b


def test_error_estimates_are_small_and_nonnegative():
    # the estimate weights by sum(|term|), so phase cancellation (worst
    # for 6_1) inflates it well above the true deviation; it must still
    # stay far below any tolerance the identities run at
    for knot in KnotId:
        for order in (2, 30, 100):
            v = quantum_invariant(knot, order, "logscale")
            assert 0.0 <= v.accum_error_estimate <= 1e-7
        e = quantum_invariant(knot, 15, "exact")
        assert 0.0 <= e.accum_error_estimate <= 1e-12


def test_result_fields():
    v = quantum_invariant(KnotId.SIX_ONE, 10, "direct")
    assert isinstance(v, InvariantValue)
    assert v.knot is KnotId.SIX_ONE and v.order == 10 and v.mode == "direct"
    assert v.term_count == sum(10 - k - l for k in range(10) for l in range(10 - k))
    assert abs(v.value_log.to_complex() - v.value_complex) <= 1e-12 * abs(
        v.value_complex
    )


def test_alexander_check():
    report = alexander_check()
    assert report.passed
    assert {str(k): int(val) for k, val in report.exact.items()} == {
        "4_1": 5,
        "5_2": 7,
        "6_1": 9,
    }
    for knot, det in report.numeric.items():
        assert abs(det - report.expected[knot]) <= 1e-12

