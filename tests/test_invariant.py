"""State-sum evaluation tests.

The load-bearing oracle is `_brute_sum`, the three summation formulas
written as naive Python loops over fresh root-of-unity powers.
"""

import cmath
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import knotvol
from knotvol import cyclo
from knotvol.cyclo import ExactBudgetError
from knotvol.invariant import (
    MODES,
    InvariantValue,
    LogComplex,
    _arg_exponents,
    _block,
    _chirp_rows,
    _euler_maclaurin_start,
    _log_window,
    _pair_sum,
    _phase_exponents,
    _refuse_direct,
    _row_sums,
    _sum_error_factor,
    _windows,
    _xi_powers,
    alexander_check,
    growth_point,
    pochhammer_table,
    quantum_invariant,
)
from knotvol.knots import KnotId, pair_exponent

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
    # the running sum fills k < h = ceil(N/2); the rest is the reflection
    # log N - log_mag[N-1-k], from |(omega)_k| |(omega)_{N-1-k}| = N
    table = pochhammer_table(order)
    h = (order + 1) // 2
    assert table.log_mag[:h].tobytes() == _unmirrored_log_mag(order)[:h].tobytes()
    reflected = [math.log(order) - table.log_mag[order - 1 - k] for k in range(h, order)]
    assert table.log_mag[h:].tobytes() == np.array(reflected).tobytes()


def _mp_log_mag(order, entries, dps=30):
    # log |(omega)_k| at the given k, from a running product of the sines
    # 2 sin(pi j/N), taken by the three-term recurrence of sin(j x)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        x = mp.pi / order
        twice_cos = 2 * mp.cos(x)
        prev, sine, product = mp.mpf(0), mp.sin(x), mp.mpf(1)
        wanted, out = set(entries), {0: 0.0}
        for j in range(1, max(wanted, default=0) + 1):
            product *= 2 * sine
            if j in wanted:
                out[j] = mp.log(product)
            prev, sine = sine, twice_cos * sine - prev
        return out


@pytest.mark.parametrize("order", [1, 2, 3, 7, 8, 100, 101, 1000, 4097, 100_000])
def test_table_log_mag_within_err(order):
    entries = range(order)
    if order > 4097:
        # windows at both ends, around the reflection point h and near 5N/6
        centres = (0, order // 2, 5 * order // 6, order - 1)
        entries = [k for c in centres for k in range(c - 50, c + 51) if 0 <= k < order]
    table = pochhammer_table(order)
    ref = _mp_log_mag(order, entries)
    worst = max(abs(float(ref[k] - table.log_mag[k])) for k in entries)
    assert worst <= table.err, (worst, table.err)


def test_table_and_four_one_peak_memory():
    # the table is built in log_mag and one buffer of N/2 doubles; 4_1
    # builds only its window of c = count - start + 1 prefix entries, in
    # c doubles and one grid buffer of c, and forms its terms in c more
    # once the grid buffer is gone.  The call's own small objects (array
    # views, ufunc calls) add about 1.4 KB on top.  An O(N) prefix would
    # take 8 N/6 bytes or more
    for n in (100_000, 10**6):
        (start, count), _ = _windows(KnotId.FOUR_ONE, n)
        c = count - start + 1
        assert 2 * c < n / 6
        quantum_invariant(KnotId.FOUR_ONE, n)
        tracemalloc.start()
        try:
            table = pochhammer_table(n)
            table_peak = tracemalloc.get_traced_memory()[1]
            nbytes = table.log_mag.nbytes
            del table
            tracemalloc.reset_peak()
            quantum_invariant(KnotId.FOUR_ONE, n, "logscale")
            call_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table_peak <= 2 * nbytes, (n, table_peak / nbytes)
        assert call_peak <= 8 * 2 * c + 2048, (n, call_peak - 8 * 2 * c)


_WINDOW_ORDERS = list(range(1, 3301)) + list(range(3301, 200_001, 1999)) + [10**6]


def test_four_one_window_keeps_every_term():
    # 4_1 reads only the reflections of the prefix start <= j <= count,
    # starting at the Euler-Maclaurin P(start) when start > 0.  Against the
    # whole table, built and summed here: every entry whose term is at
    # least e^-T of the largest, T = log(4N/eps), lies in the window, and
    # no window term leaves the normal range; P(start) is within its bound
    # of the table's entry; both float modes are within their estimate of
    # the whole table's sum; and direct mode refuses with the same message
    first_start = None
    for n in _WINDOW_ORDERS:
        h = (n + 1) // 2
        (start, count), _ = _windows(KnotId.FOUR_ONE, n)
        table = pochhammer_table(n)
        full = table.log_mag
        hi, lo = table.log_max, table.log_min
        keep = np.flatnonzero(2.0 * (full - hi) >= -math.log(4.0 * n / 2.0**-53))
        if count == h - 1:
            assert start == 0, n
        else:
            assert n - 1 - count <= keep.min() and keep.max() <= n - 1 - start, n
        window, w_hi, _, _ = _log_window(n, start, count)
        if count < h - 1:  # a window of the prefix: 4_1 sums its reflections
            window = math.log(n) - window
        assert 2.0 * (window.min() - w_hi) > -708.0, n
        if start:
            first_start = first_start or n
            p0, p0_err = _euler_maclaurin_start(n, start)
            assert abs(p0 - full[start]) <= p0_err + table.err, n
        for mode in ("logscale", "direct"):
            direct = mode == "direct"
            if direct:
                try:
                    _refuse_direct(KnotId.FOUR_ONE, hi, lo)
                except OverflowError as refusal:
                    with pytest.raises(OverflowError) as exc:
                        quantum_invariant(KnotId.FOUR_ONE, n, mode)
                    assert str(exc.value) == str(refusal), n
                    continue
            m = 0.0 if direct else 2.0 * hi
            log_ref = m + math.log(float(np.exp(2.0 * full - m).sum()))
            v = quantum_invariant(KnotId.FOUR_ONE, n, mode)
            assert abs(v.value_log.log_mag - log_ref) <= v.accum_error_estimate, (n, mode)
    # the Euler-Maclaurin start is taken from N = 919 on, in direct mode too
    assert first_start == 919


@pytest.mark.parametrize("order", [919, 20_000, 100_000, 10**6])
def test_four_one_start_matches_high_precision_sum(order):
    # P(start) from its Euler-Maclaurin form against a 30-digit running
    # sum, from N = 919, the first order that takes it (see
    # test_four_one_window_keeps_every_term)
    (start, _), _ = _windows(KnotId.FOUR_ONE, order)
    assert start > 0
    p0, p0_err = _euler_maclaurin_start(order, start)
    ref = _mp_log_mag(order, [start])[start]
    assert abs(float(ref - p0)) <= p0_err, (float(ref - p0), p0_err)


_FIVE_TWO_WINDOW_ORDERS = list(range(1, 701)) + list(range(997, 12_001, 997))


def test_five_two_window_keeps_every_term():
    # 5_2 reads the rows r and the reflected columns c = N - 1 - j of
    # _windows's prefix ranges, and sums the block _block narrows them to.
    # Against the whole table, built here: every row and every column with
    # a pair r <= c whose weight exp(-log_mag[r] + 2 log_mag[c]) is at
    # least e^-T of the largest, T = log(2N(N+1)/eps), lies in both, so
    # every such pair does.  Both float modes are within the two estimates
    # of the whole triangle's sum, which `_pair_sum` forms from the whole
    # table when given the whole prefix ranges, and the same bits wherever
    # the columns are whole; direct mode refuses with the same message
    whole_cols = whole_rows = 0
    for n in _FIVE_TWO_WINDOW_ORDERS:
        h = (n + 1) // 2
        rows, cols = _windows(KnotId.FIVE_TWO, n)
        table = pochhammer_table(n)
        full, hi, lo = table.log_mag, table.log_max, table.log_min
        cut = math.log(2.0 * n * (n + 1) / 2.0**-53)
        row_w, col_w = lo - full, 2.0 * (full - hi)
        best_col = np.maximum.accumulate(col_w[::-1])[::-1]
        best_row = np.maximum.accumulate(row_w)
        keep_rows = np.flatnonzero(row_w + best_col >= -cut)
        keep_cols = np.flatnonzero(col_w + best_row >= -cut)
        whole = cols[1] == h - 1
        if whole:
            assert rows[1] == h - 1 and rows[0] == cols[0] == 0, n
            whole_cols = n
        else:
            if rows[1] == h - 1:
                assert rows[0] == 0, n
                whole_rows = n
            else:
                assert rows[0] <= keep_rows.min() and keep_rows.max() <= rows[1], n
            assert n - 1 - cols[1] <= keep_cols.min() and keep_cols.max() <= n - 1 - cols[0], n
            # and the block _pair_sum sums, narrowed by the table's values
            log_mag, _, w_lo, _ = _log_window(n, *rows)
            r0, r1, c0, c1 = _block(n, log_mag, w_lo, rows, cols)
            assert r0 <= keep_rows.min() and keep_rows.max() <= r1, n
            assert c0 <= keep_cols.min() and keep_cols.max() <= c1, n
        for mode in ("logscale", "direct"):
            direct = mode == "direct"
            if direct:
                try:
                    _refuse_direct(KnotId.FIVE_TWO, hi, lo)
                except OverflowError as refusal:
                    with pytest.raises(OverflowError) as exc:
                        quantum_invariant(KnotId.FIVE_TWO, n, mode)
                    assert str(exc.value) == str(refusal), n
                    continue
            all_pairs = (0, h - 1)
            m, s, a, err = _pair_sum(
                KnotId.FIVE_TWO, n, full, hi, lo, all_pairs, all_pairs, direct
            )
            ref_log = m + math.log(abs(s))
            ref_arg = LogComplex.from_complex(s).arg
            ref_est = (err + 3.0 * table.err * a) / abs(s)
            v = quantum_invariant(KnotId.FIVE_TWO, n, mode)
            if whole:
                assert v.value_log.log_mag == ref_log, (n, mode)
                assert v.value_log.arg == ref_arg, (n, mode)
                assert v.accum_error_estimate == ref_est, (n, mode)
            d_log = abs(v.value_log.log_mag - ref_log)
            d_arg = abs(math.remainder(v.value_log.arg - ref_arg, 2.0 * PI))
            assert max(d_log, d_arg) <= v.accum_error_estimate + ref_est, (n, mode)
    # the columns stop being whole past N = 226, the rows past N = 446
    assert (whole_cols, whole_rows) == (226, 446)


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


def _exact_dot_error(got, x, y):
    # |got - sum x y|, the sum taken exactly: every double is a whole
    # multiple of 2^-1074, so the products are whole multiples of 2^-2148
    def whole(v):
        p, q = float(v).as_integer_ratio()
        return p << (1075 - q.bit_length())

    xr, xi = [whole(v) for v in x.real], [whole(v) for v in x.imag]
    yr, yi = [whole(v) for v in y.real], [whole(v) for v in y.imag]
    re = sum(a * c - b * d for a, b, c, d in zip(xr, xi, yr, yi))
    im = sum(a * d + b * c for a, b, c, d in zip(xr, xi, yr, yi))
    unit = Fraction(1, 2**2148)
    return abs(
        complex(
            float(Fraction(got.real) - re * unit),
            float(Fraction(got.imag) - im * unit),
        )
    )


def _rows_to_check(length, rng):
    # terms spread over 2^-20..2^20, so the order of additions matters;
    # the cancelling row's last term undoes the sum of the others
    def spread(n):
        scale = np.exp2(rng.integers(-20, 21, n))
        return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

    y = spread(length)
    x = spread(length)
    yield "random", x, y
    if length > 1:
        x = x.copy()
        x[-1] = -np.dot(x[:-1], y[:-1]) / y[-1]
        yield "cancelling", x, y
    # real rows, as in the 6_1 row-sum bound
    yield "real", x.real.copy(), y.real.copy()


@pytest.mark.parametrize("length", [1, 2, 7, 8, 9, 127, 128, 129, 1000, 8192, 8193])
def test_correlate_rows_within_order_free_bound(length):
    # row i of a dot of L terms, rows padded with zeros, is within
    # sqrt(2) (L_i + 1) eps sum |x||y| of the exact sum, L_i = L - i its
    # own terms, whatever order BLAS adds in (a real dot within
    # (L_i + 1) eps sum |x||y|); past 8192 terms a row is cut into windows
    # of columns
    rng = np.random.default_rng(length)
    rows = min(2, length)
    for kind, x, y in _rows_to_check(length, rng):
        u = np.concatenate((x, np.zeros(length)))
        z = _chirp_rows(u, np.conj(y), rows)
        assert z.dtype == x.dtype, kind
        per_term = 1.0 if kind == "real" else math.sqrt(2.0)
        for i in range(rows):
            terms = length - i
            xi, yi = x[i:], y[:terms]
            bound = per_term * (terms + 1) * 2.0**-53 * float(np.abs(xi) @ np.abs(yi))
            assert _exact_dot_error(z[i], xi, yi) <= bound, (kind, i)


_BLAS_BITS = """
import numpy as np
from knotvol.invariant import _chirp_rows, quantum_invariant
from knotvol.knots import KnotId
v = quantum_invariant(KnotId.FIVE_TWO, 12000, "logscale")
print(v.value_log.log_mag.hex(), v.value_log.arg.hex(), v.accum_error_estimate.hex())
rng = np.random.default_rng(0)
u = np.zeros(24000, complex)
u[:12000] = rng.standard_normal(12000) + 1j * rng.standard_normal(12000)
chirp = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 12000))
print(_chirp_rows(u, np.conj(chirp), 4).tobytes().hex())
# a real dot, as the 6_1 row sums and their bound take it
print(_chirp_rows(u.real.copy(), rng.standard_normal(12000), 4).tobytes().hex())
# 6_1 row sums of up to 9000 terms, each cut into two windows of columns
v = quantum_invariant(KnotId.SIX_ONE, 9000, "logscale")
print(v.value_log.log_mag.hex(), v.value_log.arg.hex(), v.accum_error_estimate.hex())
"""


def test_openblas_threads_never_change_bits():
    # OpenBLAS threads a complex dot of more than 10 000 terms, and a
    # threaded dot adds in another order.  5_2 at N = 12 000 sums only the
    # block near its saddle, rows of 711 terms, so the flat random rows of
    # 12 000 terms, complex and real, and 6_1 at N = 9000, whose row sums
    # are longer than a window and have their dots cut, are what exercise
    # _DOT_TERMS.
    src = str(os.path.dirname(os.path.dirname(knotvol.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        run = subprocess.run(
            [sys.executable, "-c", _BLAS_BITS], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1]


# --- chunk size and row sums ---

def test_chunk_size_never_changes_results():
    # no sum is cut by the chunk size: every knot's value is one pass
    cases = [
        (KnotId.FOUR_ONE, (17, 150, 498)),
        (KnotId.FIVE_TWO, (17, 150, 498)),
        (KnotId.SIX_ONE, (17, 150)),
    ]
    for knot, orders in cases:
        for order in orders:
            for mode in ("direct", "logscale"):
                values = {
                    (v.value_log.log_mag.hex(), v.value_log.arg.hex(), v.accum_error_estimate.hex())
                    for v in (
                        quantum_invariant(knot, order, mode, chunk_size=c)
                        for c in (1, 3, 50, 4096)
                    )
                }
                assert len(values) == 1, (knot, order, mode)


def test_banded_sums_match_brute_sums():
    # the loops agree with every mode at small and large chunk sizes
    for knot in (KnotId.FIVE_TWO, KnotId.SIX_ONE):
        for order in (11, 17):
            ref = _brute_sum(knot, order)
            for chunk_size in (1, 3, 50):
                for mode in ("direct", "logscale"):
                    v = quantum_invariant(knot, order, mode, chunk_size=chunk_size)
                    case = (knot, order, chunk_size, mode)
                    assert abs(v.value_complex - ref) <= 1e-13 * abs(ref), case


def _split_factors(table, direct):
    # the phases of 1/(w)_k read from the xi table, and the double factors
    # A(m) = |(w)_m|^2 and B(k) = 1/(w)_k that the row sums multiply, each
    # shifted by its largest log in logscale and unshifted in direct mode
    inv_phase = _xi_powers(table.order)[-_arg_exponents(table.order)]
    xa, xb = 2.0 * table.log_mag, -table.log_mag
    if not direct:
        xa, xb = xa - xa.max(), xb - xb.max()
    return inv_phase, np.exp(xa), np.exp(xb) * inv_phase


def test_six_one_row_sums_match_loops():
    # C(s) = sum_{m>=s} |(w)_m|^2 / (w)_{m-s}, every row from one
    # correlation on one scale; col_err covers the summation rounding of
    # the double products, summed exactly
    for n in (11, 40):
        table = pochhammer_table(n)
        poch = _fresh_pochhammer(n)
        want = [
            sum(abs(poch[m]) ** 2 / poch[m - s] for m in range(s, n)) for s in range(n)
        ]
        for direct in (True, False):
            # the double products A(m) B(m - s) that C(s) adds
            inv_phase, a, inv_val = _split_factors(table, direct)
            shift, col_val, col_err = _row_sums(
                table.log_mag, table.log_max, table.log_min, inv_phase, direct
            )
            assert shift == 0.0 if direct else shift > 0.0, (n, direct)
            got = np.exp(shift) * col_val
            for s in range(n):
                case = (n, direct, s)
                assert abs(got[s] - want[s]) <= 1e-13 * abs(want[s]), case
                # rows cancel at N = 40, and their bounds grow with it
                if n == 11:
                    assert col_err[s] <= 1e-13 * np.abs(col_val[s]), case
                products = a[s:] * inv_val[: n - s]
                exact = _abs_error(col_val[s], products)
                assert exact <= col_err[s], case
                # the row s = N-1 holds one term and is summed exactly
                if s == n - 1:
                    assert col_err[s] == 0.0, case
                else:
                    assert col_err[s] > 0.0, case


@pytest.mark.parametrize("knot", [KnotId.FIVE_TWO, KnotId.SIX_ONE])
def test_pair_sum_takes_one_scale(knot):
    # in logscale the scale m = max row_log + lam, lam = max col_log, is the
    # largest pair weight max_{r<=c} row_log[r] + col_log[c], taken here
    # from the suffix maxima of col_log; so no V(r) = exp(row_log[r] + lam
    # - m) and no U(c) = exp(col_log[c] - lam) exceeds 1 (V up to the
    # rounding of m and of exp), and a pair whose weight is normal has both
    # factors normal.  Direct mode leaves its magnitudes unshifted, m = 0
    cases = [(n, direct) for n in range(1, 601) for direct in (True, False)]
    cases += [(n, False) for n in (800, 1208, 2000, 3000)]
    for n, direct in cases:
        rows, cols = _windows(knot, n)
        log_mag, hi, lo, _ = _log_window(n, *rows)
        m = _pair_sum(knot, n, log_mag, hi, lo, rows, cols, direct)[0]
        if direct:
            assert m == 0.0, n
            continue
        row_log, col_log = _block_logs(n, log_mag, lo, rows, cols)
        if knot is KnotId.SIX_ONE:
            inv_phase = _split_factors(pochhammer_table(n), direct)[0]
            col_log = np.full(n, _row_sums(log_mag, hi, lo, inv_phase, direct)[0])
        suffix = np.maximum.accumulate(col_log[::-1])[::-1]
        assert m == (row_log + suffix).max(), (n, direct)
        lam = col_log.max()
        assert np.exp(col_log - lam).max() <= 1.0, (n, direct)
        v_max = np.exp(row_log + (lam - m)).max()
        assert v_max <= 1.0 + 2.0**-52 * (1.0 + m), (n, direct)


def _block_logs(n, log_mag, lo, rows, cols):
    # row_log = -log_mag[r] and col_log = 2 log_mag[c] over the rows and
    # columns of the block a pair sum reads, from its _log_window, and -inf
    # elsewhere: the whole table, or the prefix from rows[0], whose columns
    # are reflections
    if cols[1] == (n - 1) // 2:
        return -log_mag, 2.0 * log_mag
    r0, r1, c0, c1 = _block(n, log_mag, lo, rows, cols)
    p = rows[0]
    row_log, col_log = np.full(n, -np.inf), np.full(n, -np.inf)
    row_log[r0 : r1 + 1] = -log_mag[r0 - p : r1 - p + 1]
    reflected = math.log(n) - log_mag[n - 1 - c1 - p : n - c0 - p]
    col_log[c0 : c1 + 1] = 2.0 * reflected[::-1]
    return row_log, col_log


@pytest.mark.parametrize("order", [1, 2, 3, 4, 7, 64, 101])
def test_split_phase_exponents_are_exact(order):
    # xi^a(k), xi = exp(i pi/(2N)), is the phase of (w)_k, and the first
    # row is -a(k), that of 1/(w)_k; and the row and column exponents and
    # the chirp's (the negated conjugate) add up to the phase of the pair
    # term, xi^(4e(r, c)) times that of (w)_c^2/(w)_r^* (5_2) or 1/(w)_r^*
    # (6_1), mod 4N in exact integers, for every pair r <= c; e is the pair
    # exponent the exact engine sums with
    n4 = 4 * order
    xi = _xi_powers(order)
    a = _arg_exponents(order).tolist()
    poch = _fresh_pochhammer(order)
    for k in range(order):
        assert abs(xi[a[k]] - poch[k] / abs(poch[k])) <= 1e-12, k
    k = np.arange(order)
    for knot in (KnotId.FIVE_TWO, KnotId.SIX_ONE):
        exps = _phase_exponents(knot, order, k, k, k).tolist()
        assert all(0 <= x < n4 for x in exps), knot
        if knot is KnotId.SIX_ONE:
            inv, exps = exps[:order], exps[order:]
            assert inv == [-x % n4 for x in a], knot
        else:
            assert len(exps) == 3 * order, knot  # no 1/(w)_k phases
        row, col, chirp = exps[:order], exps[order : 2 * order], exps[2 * order :]
        for r in range(order):
            for c in range(r, order):
                split = row[r] + col[c] - chirp[c - r]
                table = a[r] + (2 * a[c] if knot is KnotId.FIVE_TWO else 0)
                e = pair_exponent(knot, r, c)
                assert split % n4 == (4 * e + table) % n4, (knot, r, c)
    # a 5_2 block of rows r0..r1 and columns c0..c1 reads the chirp at the
    # lags c - r from c0 - r1
    r0, r1, c0, c1 = order // 5, order // 2, order // 3, order - 1
    r, c, d = np.arange(r0, r1 + 1), np.arange(c0, c1 + 1), np.arange(c0 - r1, c1 - r0 + 1)
    exps = _phase_exponents(KnotId.FIVE_TWO, order, r, c, d).tolist()
    row, col, chirp = exps[: len(r)], exps[len(r) : len(r) + len(c)], exps[len(r) + len(c) :]
    for i in range(r0, r1 + 1):
        for j in range(max(i, c0), c1 + 1):
            split = row[i - r0] + col[j - c0] - chirp[j - i - (c0 - r1)]
            e = pair_exponent(KnotId.FIVE_TWO, i, j)
            assert split % n4 == (4 * e + a[i] + 2 * a[j]) % n4, (i, j)


def test_xi_powers_within_three_eps():
    # every entry of the xi table is within 3 eps of exp(i pi j/(2N)), the
    # count _PAIR_ROUNDINGS takes per phase
    mp = pytest.importorskip("mpmath")
    for order in (1, 2, 3, 7, 100, 101, 1208):
        xi = _xi_powers(order)
        assert len(xi) == 4 * order
        with mp.workdps(30):
            worst = max(
                abs(mp.mpc(xi[j].real, xi[j].imag) - mp.expjpi(mp.mpf(j) / (2 * order)))
                for j in range(4 * order)
            )
        assert worst <= 3 * 2.0**-53, (order, worst)


def test_repeated_calls_retain_no_memory():
    # the chirp and row-sum correlations read per-call vectors; repeated
    # calls at fixed orders must not hold on to memory as they go
    cases = [
        (KnotId.FIVE_TWO, 150, "logscale", 4096),
        (KnotId.FIVE_TWO, 60, "direct", 256),
        (KnotId.SIX_ONE, 60, "logscale", 256),
        (KnotId.SIX_ONE, 45, "direct", 4096),
    ]

    def run(rounds):
        for _ in range(rounds):
            for knot, order, mode, chunk_size in cases:
                quantum_invariant(knot, order, mode, chunk_size=chunk_size)

    run(3)
    tracemalloc.start()
    try:
        run(10)
        before = tracemalloc.get_traced_memory()[0]
        run(50)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before <= 4096, after - before


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
    # the plain table overflows near N = 4300; logscale never reads it.
    # 5_2 and 6_1 take every pair on one scale here too, long after
    # cancellation has taken every digit, which their estimates say
    cases = [
        (KnotId.FOUR_ONE, 5000),
        (KnotId.FIVE_TWO, 2400),
        (KnotId.FIVE_TWO, 5000),
        (KnotId.SIX_ONE, 3000),
    ]
    for knot, order in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = quantum_invariant(knot, order, "logscale")
        case = (knot, order)
        assert v.value_complex is None and math.isfinite(v.value_log.log_mag), case
        assert math.isfinite(v.accum_error_estimate), case
        if knot is not KnotId.FOUR_ONE:
            assert v.accum_error_estimate > 1.0, case


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
        (KnotId.FOUR_ONE, 50_000, _mp_four_one),
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


# (log |<L>_N|, arg <L>_N) from 60-digit mpmath sums (knotbench/refs.json),
# stored to 25 digits: a spread of the deep benchmark's orders, where both
# float modes are right to 1e-6, and the orders past the logscale precision
# cliff
_DEEP_REFS = {
    (KnotId.SIX_ONE, 100): ("56.62818441038209199009721", "1.732067939604432462476714"),
    (KnotId.SIX_ONE, 107): ("60.25418359521820437095919", "0.4503757274742751724836113"),
    (KnotId.SIX_ONE, 114): ("63.87379987946611136217193", "-0.8313878228184838173314612"),
    (KnotId.SIX_ONE, 121): ("67.48779172996525920289768", "-2.113210373148018541080858"),
    (KnotId.SIX_ONE, 128): ("71.09678997478343237869624", "2.888103031742916368080016"),
    (KnotId.SIX_ONE, 135): ("74.70132492732338125605410", "1.606189430740709064490171"),
    (KnotId.SIX_ONE, 142): ("78.30184666754079409084636", "0.3242402796503632235386077"),
    (KnotId.SIX_ONE, 149): ("81.89874045269901928747824", "-0.9577394250941208161259264"),
    (KnotId.FIVE_TWO, 400): ("188.6114172258441167406063", "-2.594357392586983522539746"),
    (KnotId.FIVE_TWO, 414): ("194.9644976554078431216804", "-3.049413428689878321430417"),
    (KnotId.FIVE_TWO, 428): ("201.3158654628592062710587", "2.778713991842109516629601"),
    (KnotId.FIVE_TWO, 442): ("207.6656308020640901722500", "2.323654429978351115120996"),
    (KnotId.FIVE_TWO, 456): ("214.0138935297655932666107", "1.868593346757008077542116"),
    (KnotId.FIVE_TWO, 470): ("220.3607444503171862244433", "1.413530877755398092295757"),
    (KnotId.FIVE_TWO, 484): ("226.7062663778388496355540", "0.9584671429063942100595502"),
    (KnotId.FIVE_TWO, 498): ("233.0505350470187168902016", "0.5034022486916546833031100"),
}
_CLIFF_REFS = {
    (KnotId.SIX_ONE, 171): ("93.18310269382014554695698", "0.3986117727590883305602743"),
    (KnotId.SIX_ONE, 186): ("100.8623371638943947310892", "3.036888243666921565350001"),
    (KnotId.SIX_ONE, 201): ("108.5318285485951645829591", "-0.6080834049086877033638260"),
    (KnotId.SIX_ONE, 225): ("120.7861381503428258083369", "-1.413589148010528804333674"),
    (KnotId.SIX_ONE, 249): ("133.0233475004194535084597", "-2.219186282639454620451752"),
    (KnotId.SIX_ONE, 273): ("145.2466037447334075596759", "-3.024850741781737055698837"),
    (KnotId.SIX_ONE, 300): ("158.9839935275958318148861", "-0.7896909875820620471902315"),
    (KnotId.FIVE_TWO, 584): ("271.9987162631417038184208", "3.093570538000718383571172"),
    (KnotId.FIVE_TWO, 632): ("293.7223737175394272978649", "-1.159468828814571804568037"),
    (KnotId.FIVE_TWO, 704): ("326.2919915383515746543377", "1.885738919577259835636333"),
    (KnotId.FIVE_TWO, 800): ("369.6941509017799665754787", "-0.3371846090467634847088249"),
    (KnotId.FIVE_TWO, 896): ("413.0745775219676619181097", "-2.560120413600096849389757"),
    (KnotId.FIVE_TWO, 1016): ("467.2761754931370771651729", "2.515179496245717677295998"),
    (KnotId.FIVE_TWO, 1208): ("553.9567558562942202550360", "-1.930729590343955717679196"),
}


@pytest.mark.parametrize("knot, order", list(_CLIFF_REFS) + list(_DEEP_REFS))
def test_cliff_error_estimates_cover_the_error(knot, order):
    # past the cliff logscale loses most or all of its digits; its error
    # estimate must still cover the true errors of log |<L>| and arg <L>.
    # At the deep orders both float modes must also be right to 1e-6
    deep = (knot, order) in _DEEP_REFS
    ref_log, ref_arg = (Fraction(x) for x in {**_CLIFF_REFS, **_DEEP_REFS}[knot, order])
    for mode in ("direct", "logscale") if deep else ("logscale",):
        v = quantum_invariant(knot, order, mode)
        d_log = abs(float(Fraction(v.value_log.log_mag) - ref_log))
        d_arg = abs(math.remainder(float(Fraction(v.value_log.arg) - ref_arg), 2.0 * PI))
        assert max(d_log, d_arg) <= v.accum_error_estimate, (mode, d_log, d_arg)
        if deep:
            assert max(d_log, d_arg) <= 1e-6, (mode, d_log, d_arg)


@pytest.mark.parametrize("order", [171, 225])
def test_exact_mode_reaches_the_cliff(order):
    # past deep's top order the exact engine still gives the 60-digit
    # references to 1e-12, where logscale has lost digits
    ref_log, ref_arg = (Fraction(x) for x in _CLIFF_REFS[KnotId.SIX_ONE, order])
    v = quantum_invariant(KnotId.SIX_ONE, order, "exact")
    d_log = abs(float(Fraction(v.value_log.log_mag) - ref_log))
    d_arg = abs(math.remainder(float(Fraction(v.value_log.arg) - ref_arg), 2.0 * PI))
    assert max(d_log, d_arg) <= 1e-12, (d_log, d_arg)


def test_four_one_matches_its_refined_expansion():
    # with no fit: log |<4_1>_N| - (3/2) log N - N Vol/(2 pi) tends to
    # log(3^(-1/4) (1 + k1 h + k2 h^2 + O(h^3))), h = 2 pi/N, with
    # k1 = 11/(72 sqrt 3) and k2 = 697/(2 (72 sqrt 3)^2)
    vol = knotvol.hyperbolic_volume(KnotId.FOUR_ONE).volume
    k1 = 11.0 / (72.0 * math.sqrt(3.0))
    k2 = 697.0 / (2.0 * (72.0 * math.sqrt(3.0)) ** 2)
    for order in (4000, 16_000, 64_000, 256_000, 10**6):
        h = 2.0 * PI / order
        log_abs = growth_point(KnotId.FOUR_ONE, order)[1]
        got = log_abs - (1.5 * math.log(order) + order * vol / (2.0 * PI))
        want = -0.25 * math.log(3.0) + math.log1p(k1 * h + k2 * h * h)
        # past N = 64 000 four ulps of log |<4_1>| (0.23e-9 at N = 10^6)
        # may pass 1e-10
        tol = 1e-10 if order <= 64_000 else max(1e-10, 4.0 * math.ulp(log_abs))
        assert abs(got - want) <= tol, (order, got - want)


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


def test_logscale_matches_exact_at_deep_top_order():
    # 6_1 at N = 149, the top of the deep workload: logscale is off by
    # about 3.8e-9 there, inside its own estimate (3.1e-5)
    exact = quantum_invariant(KnotId.SIX_ONE, 149, "exact")
    logscale = quantum_invariant(KnotId.SIX_ONE, 149, "logscale")
    err = abs(logscale.value_complex - exact.value_complex) / abs(exact.value_complex)
    assert err <= 1e-7
    assert err <= logscale.accum_error_estimate


def test_exact_mode_is_the_image_of_the_field_element():
    # exact mode reads its float image from the integer residue; it must
    # round as the Fraction element's evaluate_numeric does, to the bit,
    # and its estimate must be the bound over that element's coefficients
    for knot in KnotId:
        for order in range(1, 41):
            value = quantum_invariant(knot, order, "exact")
            element = cyclo.exact_invariant(knot, order)
            z = element.evaluate_numeric()
            assert value.value_complex == z, (knot, order)
            spread = sum(abs(float(c)) for c in element.coeffs)
            steps = 6.0 * len(element.coeffs) + 1.0
            bound = steps * 2.0**-53 * spread / abs(z)
            assert value.accum_error_estimate == bound, (knot, order)


def test_exact_mode_budget_refusal(monkeypatch):
    # refused before the O(N^2) rows, with the way out named
    def no_rows(order):
        raise AssertionError(f"O(N^2) work at N={order} before the budget check")

    monkeypatch.setattr(cyclo, "_pochhammer_rows", no_rows)
    with pytest.raises(ExactBudgetError, match="N=500 .*logscale or a smaller N"):
        quantum_invariant(KnotId.SIX_ONE, 500, "exact")


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(quantum_invariant, id="quantum_invariant"),
        pytest.param(lambda knot, order: quantum_invariant(knot, order, "exact"), id="exact_mode"),
        pytest.param(cyclo.exact_invariant, id="exact_invariant"),
        pytest.param(cyclo.exact_term_count, id="exact_term_count"),
    ],
)
@pytest.mark.parametrize("name", ["4_1", "5_2", "6_1"])
def test_knot_names_are_refused_for_parse(entry, name):
    # a knot is a KnotId: its name is refused with a pointer to KnotId.parse
    with pytest.raises(TypeError, match="KnotId.parse"):
        entry(name, 10)


def test_input_validation():
    with pytest.raises(ValueError):
        quantum_invariant(KnotId.FOUR_ONE, 0)
    # an order is an integer: a float, even a whole one, is refused by name
    for order in (5.0, 2.5, "5"):
        with pytest.raises(TypeError, match="order must be an integer, got"):
            quantum_invariant(KnotId.FOUR_ONE, order)
        with pytest.raises(TypeError, match="order must be an integer, got"):
            pochhammer_table(order)
    # any integer type is taken as its value
    v = quantum_invariant(KnotId.FIVE_TWO, np.int64(7))
    assert v == quantum_invariant(KnotId.FIVE_TWO, 7) and type(v.order) is int
    with pytest.raises(ValueError):
        quantum_invariant(KnotId.FOUR_ONE, 5, "fast")
    with pytest.raises(ValueError):
        quantum_invariant(KnotId.FOUR_ONE, 5, threads=0)
    with pytest.raises(ValueError):
        quantum_invariant(KnotId.FOUR_ONE, 5, chunk_size=0)


def test_thread_count_never_changes_bits():
    # threads has no effect, so every count gives the same bits; direct
    # mode refuses 4_1 at N = 50 000
    cases = (
        (KnotId.SIX_ONE, 60, 4096, ("direct", "logscale")),
        (KnotId.SIX_ONE, 60, 256, ("direct", "logscale")),
        (KnotId.FIVE_TWO, 113, 4096, ("direct", "logscale")),
        (KnotId.FOUR_ONE, 50_000, 4096, ("logscale",)),
    )
    for knot, order, chunk_size, modes in cases:
        for mode in modes:
            one, two, eight = (
                quantum_invariant(knot, order, mode, threads=t, chunk_size=chunk_size)
                for t in (1, 2, 8)
            )
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

