"""State-sum evaluation of the quantum invariants <4_1>, <5_2>, <6_1>.

The invariants are finite sums over residues mod N of ratios of the partial
products (omega)_k = prod_{j<=k} (1 - omega^j), omega = exp(2*pi*i/N):

    <4_1> = sum_k |(omega)_k|^2
    <5_2> = sum_{k<=l} (omega)_l^2 / (omega)_k^*  * omega^(-k(l+1))
    <6_1> = sum_{k+l<=m} |(omega)_m|^2 / ((omega)_k (omega)_l^*)
                                       * omega^((m-k-l)(m-k+1))

With s = m - k the 6_1 phase omega^((s-l)(s+1)) does not depend on k, so
the triple sum is a pair sum weighted by row sums:

    <6_1> = sum_{l<=s} C(s) / (omega)_l^* * omega^((s-l)(s+1)),
    C(s)  = sum_{m=s}^{N-1} |(omega)_m|^2 / (omega)_{m-s},

O(N^2) work for an index set of N(N+1)(N+2)/6 triples.  Every summand is
a product of table entries and their reciprocals, which the float modes
take once per order by negating the log table.  The exact mode
needs no field inverse: (omega)_{N-1} = N gives 1/(omega)_k^* =
(omega)_{N-1-k}/N.

The moduli |(omega)_k| swing like exp(+-0.16 N), so besides the plain
"direct" complex evaluation there is a "logscale" mode that keeps every
term as (log magnitude, argument) and sums with a running rescale, and an
"exact" mode that delegates to cyclotomic field arithmetic.  The 5_2 and
6_1 pair sums are one correlation on one scale: each row of their index
triangle is summed by one BLAS dot, serially, and the N rows' terms by
one pairwise sum.  The 6_1 row sums C(s) are correlations too, one dot a
row.  Nothing is split over workers, and no dot is long enough for
OpenBLAS to split it over threads, so results are the same bits on every
run.  The 4_1 sum, N positive terms, is one pairwise sum of those within
exp's range.  They lie in a window of about N/6 + 19 sqrt(N) entries
around the peak near k = 5N/6, and 4_1 builds only that window.

No pair reads its phase by index.  With zeta = exp(i pi/N), so that
omega = zeta^2, and -2rc = (c-r)^2 - r^2 - c^2, both pair exponents
e(r, c) = e(0, c) - r(c+1) (`knots.pair_exponent`) split as

    omega^e(r, c) = zeta^(-r^2-2r) * zeta^(2e(0, c) - c^2) * zeta^((c-r)^2),

so the pairs of a row are a correlation of a column vector with the chirp
zeta^(d^2), times a row factor, and the 6_1 row sums C(s) are a
correlation of |(omega)_m|^2, zero-padded, with 1/(omega)_k (see
_pair_sum and _row_sums).

Every phase comes from one table per order, xi^j = exp(i pi j/(2N)) for
j < 4N, built from angles of at most pi/4 (_xi_powers).  Since
arg(1 - omega^j) = pi j/N - pi/2,

    (omega)_k = |(omega)_k| xi^(k(k+1-N)),    omega = xi^4,  zeta = xi^2,

so the phase of a row factor times rho(r), of the 5_2 column factor
times kappa(c), of 1/(omega)_k inside C(s) and of the chirp are each one
entry, read at an exact int64 exponent mod 4N (_phase_exponents): no
phase is a float angle or a product of phases.  Direct mode reads the
same table; it differs from logscale only in leaving its magnitudes
unshifted.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import cyclo
from .knots import SUMMAND_FACTORS, KnotId, pair_exponent

__all__ = [
    "MODES",
    "KnotId",
    "LogComplex",
    "PochhammerTable",
    "InvariantValue",
    "AlexanderReport",
    "pochhammer_table",
    "quantum_invariant",
    "growth_point",
    "alexander_check",
]

MODES = ("direct", "logscale", "exact")

_EPS = 2.0 ** -53
# direct mode is refused when table entries pass this log-magnitude level
_DIRECT_TABLE_LOG_LIMIT = 600.0
# ... or when a term magnitude bound would approach the double-float ceiling
_DIRECT_TERM_LOG_LIMIT = 690.0
_EXP_OVERFLOW_LOG = 709.0
# exp(x) rounds to 0 for every x below this (log 2^-1075 = -745.13)
_EXP_ZERO_LOG = -745.2


def _wrap_angle(a: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    return math.pi - (math.pi - a) % (2.0 * math.pi)


def _check_order(order) -> int:
    """order as an int, refused unless it is an integer >= 1."""
    try:
        order = operator.index(order)
    except TypeError:
        raise TypeError(f"order must be an integer, got {order!r}") from None
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return order


@dataclass(frozen=True)
class LogComplex:
    """A complex number as (log magnitude, argument), safe far past 1e308.

    The argument is kept in (-pi, pi].  A zero is flagged explicitly since
    it has no log magnitude.
    """

    log_mag: float
    arg: float
    is_zero: bool = False

    @classmethod
    def from_complex(cls, z: complex) -> "LogComplex":
        z = complex(z)
        if z == 0:
            return cls(float("-inf"), 0.0, True)
        return cls(math.log(abs(z)), _wrap_angle(math.atan2(z.imag, z.real)))

    def to_complex(self) -> complex:
        if self.is_zero:
            return 0j
        if self.log_mag > _EXP_OVERFLOW_LOG:
            raise OverflowError(
                f"log magnitude {self.log_mag:.3f} exceeds double range"
            )
        return math.exp(self.log_mag) * cmath.exp(1j * self.arg)

    def __mul__(self, other: "LogComplex") -> "LogComplex":
        if self.is_zero or other.is_zero:
            return LogComplex(float("-inf"), 0.0, True)
        return LogComplex(
            self.log_mag + other.log_mag,
            float(_wrap_angle(self.arg + other.arg)),
        )

    def __truediv__(self, other: "LogComplex") -> "LogComplex":
        if other.is_zero:
            raise ZeroDivisionError("division by a zero LogComplex")
        if self.is_zero:
            return self
        return LogComplex(
            self.log_mag - other.log_mag,
            float(_wrap_angle(self.arg - other.arg)),
        )


@dataclass(frozen=True)
class PochhammerTable:
    """All N partial products (omega)_k at order N, plain and in log form.

    log_mag[k] holds log |(omega)_k|, usable far past the double range.
    The first h = ceil(N/2) entries are running sums of the factors
    log |1 - omega^j| = log(2 sin(pi j/N)), j < h; since (omega)_{N-1} = N,
    the rest are reflections, log_mag[k] = log N - log_mag[N-1-k].
    err bounds, to first order, the absolute error of every log_mag[k]
    (a reflected entry adds the rounding of log N and of one subtraction
    to its mirror's) and arg[k], the relative error of every values[k],
    and each entry's share of the rounding when a summand is formed from
    entries.

    5_2 and 6_1 read the whole log table, and their phases from the xi
    table (see _phase_exponents).  4_1 builds none: it reads the
    reflections of a shorter prefix (see _four_one_count), and its err
    counts only that prefix's factors.  log_max and log_min, the largest
    and smallest log_mag[k], set the pair sums' scales (see _log_window).

    The phases are computed on first use:
    arg[k] is arg (omega)_k in (-pi, pi], and values[k] is the plain
    complex number, inf past the double range, where direct mode refuses
    the order.  The lattice check of `knotvol verify` reads values.
    """

    order: int
    log_mag: np.ndarray
    err: float
    log_max: float
    log_min: float

    @functools.cached_property
    def arg(self) -> np.ndarray:
        # the multiple a(k) of pi/(2N) (see _arg_exponents), taken into (-2N, 2N]
        n = self.order
        quarter = _arg_exponents(n)
        quarter = np.where(quarter > 2 * n, quarter - 4 * n, quarter)
        return quarter * (math.pi / (2 * n))

    @functools.cached_property
    def values(self) -> np.ndarray:
        values = np.full(self.order, np.inf, dtype=complex)
        fits = self.log_mag < _EXP_OVERFLOW_LOG
        phase = _xi_powers(self.order)[_arg_exponents(self.order)[fits]]
        values[fits] = np.exp(self.log_mag[fits]) * phase
        return values


# the log factors are split at this grid: running sums of the grid parts
# are exact in a double (for N * log N far below 2^33)
_LOG_GRID = 2.0**-20


def _log_window(order: int, count: int):
    """log |(omega)_k| from the first `count` factors, count < N/2.

    The prefix log_mag[j], j <= count, is the running sum of the factors
    log |1 - omega^j| = log(2 sin(pi j/N)); since (omega)_{N-1} = N, the
    entries k >= N - 1 - count are its reflections log N - log_mag[N-1-k].
    With count = h - 1, h = ceil(N/2), that is the whole table: the first
    h entries and the reflections of the rest.  With a smaller count it
    is only the window k >= N - 1 - count (what 4_1 sums, see
    _four_one_count), reflected in place over the prefix.

    Returns (log_mag, hi, lo, err): the entries in the order of k; the
    largest, hi = log N - lo, the reflection of the smallest, lo, which is
    in the prefix (every reflection is near log N/2 or more), at some j <=
    N/6 (the prefix falls while 2 sin(pi j/N) < 1), so reflected in the
    window, and no prefix entry passes log N/2 (log_mag[h-1] + log_mag[N-h]
    = log N); and err as in PochhammerTable, counting only the factors read.
    """
    n = order
    h = (n + 1) // 2
    whole = count == h - 1
    log_mag = np.empty(n if whole else count + 1)
    prefix = log_mag[: count + 1]
    prefix[0] = 0.0
    # the running sums of the factors j <= count < N/2, whose sine
    # arguments pi j/N are accurate to a few ulps, are built in place, in
    # the prefix and one grid buffer of count doubles
    log_f = prefix[1:]
    grid = np.arange(1.0, count + 1)
    np.multiply(grid, math.pi / n, out=grid)
    np.sin(grid, out=log_f)
    np.multiply(log_f, 2.0, out=log_f)
    np.log(log_f, out=log_f)
    log_f_sum = float(np.add.reduce(np.abs(log_f, out=grid)))
    # scaling by a power of two is exact: the same bits as log_f / _LOG_GRID
    np.multiply(log_f, 1.0 / _LOG_GRID, out=grid)
    np.rint(grid, out=grid)
    np.multiply(grid, _LOG_GRID, out=grid)
    np.subtract(log_f, grid, out=log_f)
    # np.add.accumulate, not np.cumsum, which keeps a little memory per call
    np.add.accumulate(grid, out=grid)
    np.add.accumulate(log_f, out=log_f)
    np.add(grid, log_f, out=log_f)
    lo = float(np.minimum.reduce(prefix))
    log_n = math.log(n)
    if whole:
        np.subtract(log_n, log_mag[: n - h][::-1], out=log_mag[h:])
    else:
        log_mag = np.subtract(log_n, prefix, out=prefix)[::-1]
    hi = log_n - lo
    # in units of _EPS, with c = count + 1 prefix entries: per factor, 5
    # for the sine (its argument rounds three times) and 2|log| for the
    # log; the fine running sums, each below c * grid/2; per entry,
    # 5|log_mag| + 2 log N + 16 for adding the two sums, for the
    # reflection (math.log is within an ulp, 2 log N, and the subtraction
    # rounds once, |log_mag|, on top of the mirror entry's error), for the
    # exponential and phase in `values`, and for forming a summand
    c = count + 1
    err = _EPS * (
        5.0 * c
        + 2.0 * log_f_sum
        + c * c * _LOG_GRID / 4.0
        + 5.0 * max(hi, -lo)
        + 2.0 * log_n
        + 16.0
    )
    return log_mag, hi, lo, err


def pochhammer_table(order: int) -> PochhammerTable:
    order = _check_order(order)
    log_mag, hi, lo, err = _log_window(order, (order - 1) // 2)
    return PochhammerTable(order, log_mag, err, hi, lo)


@functools.lru_cache(maxsize=None)
def _pairwise_roundings(count: int, width: int) -> int:
    """Most roundings any item meets in numpy's pairwise sum of `count`
    items of `width` doubles each (1 real, 2 complex).

    numpy sums the doubles of the array.  Below 8 of them it adds them
    in turn; up to 128 it adds them into 8 interleaved accumulators (per
    part of a complex), combines those in a tree and adds the leftovers in
    turn; above 128 it splits off a multiple of 8 near the middle and adds
    the two halves.  The sizes on one level of that tree differ by less
    than 16, so each level holds only a few distinct sizes.
    """
    tree = 3 if width == 1 else 2
    worst, level, sizes = 0, 0, {count * width}
    while sizes:
        halves = set()
        for n in sizes:
            if n > 128:
                left = n // 16 * 8
                halves.update((left, n - left))
            elif n >= 8:
                worst = max(worst, level + n // 8 - 1 + tree + n % 8 // width)
            else:
                worst = max(worst, level + n // width - 1)
        sizes, level = halves, level + 1
    return worst


def _sum_error_factor(count: int, width: int = 2) -> float:
    """Relative rounding bound of np.sum over `count` items, per sum |item|."""
    return _EPS * _pairwise_roundings(count, width)


def _arg_exponents(order: int) -> np.ndarray:
    """a(k) = k(k+1-N) mod 4N: arg (omega)_k = pi a(k)/(2N).

    arg(1 - omega^j) = pi j/N - pi/2, so the phases of the k factors of
    (omega)_k add up to pi (k(k+1) - kN)/(2N), and the unit phase of
    (omega)_k is xi^a(k), xi = exp(i pi/(2N)).  The int64 product is
    reduced exactly into [0, 4N).
    """
    k = np.arange(order, dtype=np.int64)
    return k * (k - (order - 1)) % (4 * order)


def _xi_powers(order: int) -> np.ndarray:
    """xi^j = exp(i pi j/(2N)) for j < 4N, from angles of at most pi/4.

    xi^N = i, so xi^j is i^k xi^f for the quarter turn k with f = j - kN
    in [0, N).  xi^f is a cosine and a sine for f <= N/2, and above it is
    i times the conjugate at N - f; multiplying by a power of i only swaps
    and negates parts, so it is exact.  Each entry is within 3 eps of its
    true value: the angle f * (pi/(2N)) is within 1.35 eps relative, so
    1.1 eps absolute, and its cosine and sine within an ulp each (1.9 eps
    is the largest error measured against 40-digit values).
    """
    n = order
    h = n // 2 + 1
    xi = np.empty(4 * n, dtype=complex)
    parts = xi.view(float).reshape(4 * n, 2)
    angles = np.arange(h) * (math.pi / (2 * n))
    np.cos(angles, out=parts[:h, 0])
    np.sin(angles, out=parts[:h, 1])
    parts[h:n] = parts[n - h : 0 : -1, ::-1]
    np.negative(parts[:n, 1], out=parts[n : 2 * n, 0])
    parts[n : 2 * n, 1] = parts[:n, 0]
    np.negative(parts[: 2 * n], out=parts[2 * n :])
    return xi


def _phase_exponents(knot: KnotId, order: int) -> np.ndarray:
    """Exponents mod 4N of xi = exp(i pi/(2N)) for every phase a pair
    term reads.

    The phase of a summand is that of its table entries, xi^a(k) for
    (omega)_k and xi^-a(k) for 1/(omega)_k (see _arg_exponents), times
    omega^e(r, c) = xi^(4e) with e = `knots.pair_exponent`.  Both knots'
    exponents have e(r, c) = e(0, c) - r(c+1), and -2rc = (c-r)^2 - r^2 -
    c^2, so

        4e(r, c) = 2(c-r)^2 + 2(1 - (r+1)^2) + 2(2e(0, c) - c^2).

    Returns one int64 array of four rows, built and reduced exactly into
    [0, 4N) in one pass: inv[k] = -a(k), the phase of 1/(omega)_k; row[r],
    the phase of rho(r) / (omega)_r^*, a(r) + 2(1 - (r+1)^2) =
    -r(r+N+3); col[c], that of kappa(c) X(c), 2(2e(0, c) - c^2) plus 2a(c)
    for 5_2, whose X(c) is (omega)_c^2 (the 6_1 row sum C(c) carries its
    own phase); and the conjugate chirp -2d^2, d < N.
    """
    k = np.arange(order, dtype=np.int64)
    exps = np.empty((4, order), dtype=np.int64)
    inv, row, col, chirp = exps
    np.multiply(k, (order - 1) - k, out=inv)
    np.multiply(k, -(order + 3) - k, out=row)
    np.multiply(k, -2 * k, out=chirp)
    np.add(4 * pair_exponent(knot, 0, k), chirp, out=col)
    if knot is KnotId.FIVE_TWO:
        col -= 2 * inv
    exps %= 4 * order
    return exps


# in units of _EPS, the rounding of one pair term V(r) T U(c) beyond its
# exp arguments, its table entries and the row's dot: 3 for each of the
# three phases, each one entry of the xi table (see _xi_powers), 5 for
# two complex products (sqrt 5 each: V(r) into the row's dot, and for
# 6_1 kappa(c) into C(c)), 2 for scaling by the two weights and 4 for the
# two exps
_PAIR_ROUNDINGS = 3 * 3 + 5 + 2 + 4
# A complex dot of L terms x y, x = a + ib, y = c + id, is within
# sqrt(2) (L + 1) eps sum |x||y| whatever order it adds in, with or
# without FMA.  Its real part is sum a c - sum b d, formed term by term or
# kind by kind (numpy's and OpenBLAS's dots do one or the other): each
# product meets at most L + 1 roundings (its own or its FMA's, at most
# L - 1 additions and the subtraction), and |a c| + |b d| <= |x||y|; the
# same holds for the imaginary part.  Zeros add exactly, so a row padded
# with zeros counts only its own terms.
_DOT_ROUNDINGS = math.sqrt(2.0)
# OpenBLAS (0.3.31) splits a complex dot of more than 10 000 terms over its
# threads, which changes the bits with OPENBLAS_NUM_THREADS and can stall a
# call; every dot stays at or below this many terms.  A row cut into
# windows of columns adds the windows' dots in turn, and each window holds
# at least one of the row's terms, so a product still meets at most L + 1
# roundings.
_DOT_TERMS = 8192
# shifted logs below this leave exp subnormal: such a factor is only known
# to within 2^-1074, and a product of factors of at most 1 to within 2^-1073
_NORMAL_LOG = -708.0
_SUBNORMAL_ERR = 2.0**-1073


def _chirp_rows(u: np.ndarray, chirp_conj: np.ndarray, rows: int) -> np.ndarray:
    """z[i] = sum_{d<L} chirp[d] u[i + d] for i < rows <= L = len(chirp_conj).

    u holds L terms and then at least rows - 1 zeros; z takes the dtype of
    u and the chirp, both complex or both real.  Each row is one BLAS dot
    per window of at most _DOT_TERMS columns (np.correlate conjugates its
    second argument, hence the conjugate chirp); a window after the first
    is skipped for the rows whose part of it is all zeros.
    """
    width = len(chirp_conj)
    d1 = min(width, _DOT_TERMS)
    z = np.correlate(u[: d1 + rows - 1], chirp_conj[:d1], "valid")
    for d0 in range(d1, width, _DOT_TERMS):
        d1 = min(width, d0 + _DOT_TERMS)
        live = min(rows, width - d0)
        z[:live] += np.correlate(u[d0 : d1 + live - 1], chirp_conj[d0:d1], "valid")
    return z


def _row_sums(table: PochhammerTable, inv_phase: np.ndarray, direct: bool):
    """The 6_1 row sums C(s) = sum_{m>=s} |(omega)_m|^2 / (omega)_{m-s}.

    With k = m - s as the column, all N row sums are one correlation of
    A(m) = |(omega)_m|^2 = exp(2 log_mag[m]), zero-padded, with B(k) =
    1/(omega)_k = exp(-log_mag[k]) inv_phase[k] (see _chirp_rows), taken
    as two real correlations since A is real.  Logscale shifts A by its
    largest log and B by its own, so no product exceeds 1 and every row
    has the same shift; direct mode shifts neither.  Row s holds L = N - s
    terms; whatever order BLAS adds them in, its error is within
    sqrt(2) (L - 1) eps sum_k A(s+k) |B(k)|, and that sum is a third real
    correlation, whose own rounding is second order.  Forming a product
    (an exp per factor, a phase read from the xi table, then one
    multiplication) rounds like forming a summand from table entries,
    which PochhammerTable.err allows for, so the one-term row s = N - 1 is
    exact.  The rows of C cancel, so this order-free count reads looser
    than a count of pairwise row sums: the 6_1 estimate is 1.06 times as
    high at N = 60, 1.3 times at N = 100, 2.3 times at N = 149 and 7.8
    times at N = 300.  When a product can leave the normal range, every
    term of every row also carries 2^-1073; a row's largest term lies up
    to about 0.48 N below the one scale, so whole rows leave the double
    range from N = 1561, long after cancellation has taken every digit.

    Returns the rows' one log shift, and each row's sum on that scale and
    its error bound.
    """
    n = table.order
    top_a, top_b = (0.0, 0.0) if direct else (2.0 * table.log_max, -table.log_min)
    xa, xb = 2.0 * table.log_mag - top_a, -table.log_mag - top_b
    a = np.zeros(2 * n)
    np.exp(xa, out=a[:n])
    b = np.exp(xb)
    inv_val = b * inv_phase
    # A is real: C(s) is two real correlations, with Re B and Im B
    total = np.empty(n, complex)
    total.real = _chirp_rows(a, inv_val.real, n)
    total.imag = _chirp_rows(a, inv_val.imag, n)
    # sum_k A(s + k) |B(k)| only scales the bound
    mods = _chirp_rows(a, b, n)
    additions = np.arange(n - 1, -1, -1)
    err = _DOT_ROUNDINGS * _EPS * additions * mods
    # the smallest xa and xb, from the table's extremes
    if (2.0 * table.log_min - top_a) - (table.log_max + top_b) < _NORMAL_LOG:
        err += _SUBNORMAL_ERR * (additions + 1)
    return top_a + top_b, total, err


def _pair_sum(knot: KnotId, table: PochhammerTable, direct: bool):
    """The 5_2 or 6_1 state sum at one order, as one pass over its rows.

    Both run over the pairs of the triangle r <= c < N,

        sum_{r<=c} X(c) / (omega)_r^* * omega^e(r, c),

    with X(c) = (omega)_c^2, e = -r(c+1) for 5_2 and X(c) = C(c),
    e = (c-r)(c+1) for 6_1 (see the module docstring and _row_sums).  With
    zeta = exp(i pi/N) the phase splits as rho(r) kappa(c) zeta^((c-r)^2),
    and the weight exp(row_log[r] + col_log[c] - m) as V(r) U(c), so that
    the sum is

        sum_r V(r) z(r),    z(r) = sum_{c>=r} zeta^((c-r)^2) U(c),
        V(r) = exp(row_log[r] + lam - m) rho(r) / (omega)_r^*,
        U(c) = exp(col_log[c] - lam) kappa(c) X(c),

    with row_log = -log_mag and col_log = 2 log_mag for 5_2 (6_1 takes the
    row sums' one log shift).  Every unit phase, that of rho(r) /
    (omega)_r^*, of kappa(c) (omega)_c^2, of 1/(omega)_k inside C(s) and
    of the chirp, is one entry of the xi table at an exact exponent (see
    _phase_exponents).  Logscale takes one scale: lam is the largest
    col_log and m = max row_log + lam.  That m is the largest pair weight,
    since the largest row_log lies at or before the largest col_log
    (log |(omega)_k| is least near k = N/6 and largest near 5N/6; all 6_1
    columns share one shift).  Both weights are at most 1, V up to the
    rounding of m, so a pair whose weight is in the normal range has both
    in it.  Direct mode leaves the magnitudes unshifted, lam = m = 0, so
    every C(s) and every pair term is a partial sum of the triple sum's
    own terms and obeys its magnitude bound.  The z(r) are one
    correlation of U, zero-padded, with the chirp: np.correlate, one BLAS
    dot per row of at most _DOT_TERMS terms (see _chirp_rows).  The N
    terms V(r) z(r) are added by one pairwise sum, and sum |t| and the
    error bound are the sums of the rows' shares, from suffix sums of
    |U(c)| and of its errors.  Returns (m, s, a, err): the sum is
    exp(m) * s, with sum |t| = exp(m) * a and err bounding its rounding on
    the scale of s (see _four_one_sum).
    """
    n = table.order
    log_mag, hi, lo = table.log_mag, table.log_max, table.log_min
    inv_phase, row_phase, col_phase, chirp = _xi_powers(n)[_phase_exponents(knot, n)]
    # U(c), zero-padded for the correlation, and per column |U(c)| and its
    # error in units of eps: the rounding of its exp argument (col_log and
    # the shift lam), that of a subnormal U(c) and the error of C(c)
    padded = np.zeros(2 * n, complex)
    cols = np.empty((2, n))
    u_abs, u_err = cols
    if knot is KnotId.FIVE_TWO:
        col_log = 2.0 * log_mag
        lam = 0.0 if direct else 2.0 * hi
        xu = col_log - lam
        np.exp(xu, out=u_abs)
        np.multiply(u_abs, col_phase, out=padded[:n])
        np.abs(xu, out=u_err)
        u_err += np.abs(col_log)
        u_err *= u_abs
        if 2.0 * lo - lam < _NORMAL_LOG:  # the smallest xu
            u_err += (xu < _NORMAL_LOG) * (2.0 * _SUBNORMAL_ERR / _EPS)
    else:
        # lam is the row sums' one shift, so U(c) = kappa(c) C(c)
        lam, row_sums, col_err = _row_sums(table, inv_phase, direct)
        np.multiply(row_sums, col_phase, out=padded[:n])
        np.abs(row_sums, out=u_abs)
        np.multiply(u_abs, abs(lam), out=u_err)
        u_err += col_err / _EPS
    m = 0.0 if direct else lam - lo
    shift = lam - m
    xv = shift - log_mag
    v = np.exp(xv)
    terms = v * row_phase * _chirp_rows(padded, chirp, n)
    # per row: its share of sum |t| and of the error bound, from the suffix
    # sums over c >= r; row r's dot has N - r terms
    u_sum, u_err_sum = np.add.accumulate(cols[:, ::-1], axis=1)[:, ::-1]
    share = v * u_sum
    a = float(np.add.reduce(share))
    rounds = np.arange(n + 1.0, 1.0, -1.0) * _DOT_ROUNDINGS
    rounds += np.abs(xv)
    rounds *= u_sum
    rounds += u_err_sum
    rounds *= v
    err = _EPS * (float(np.add.reduce(rounds)) + (abs(shift) + _PAIR_ROUNDINGS) * a)
    if shift - hi < _NORMAL_LOG:  # the smallest xv
        err += _SUBNORMAL_ERR * float(((xv < _NORMAL_LOG) * u_sum).sum())
    # the N terms are added pairwise
    err += _sum_error_factor(n) * a
    return m, complex(np.add.reduce(terms)), a, err


def _four_one_count(order: int) -> int:
    """The prefix length whose window holds every term <4_1> keeps.

    <4_1> = sum_k exp(2 log_mag[k]) peaks near k = 5N/6, the reflection of
    the prefix minimum near j = N/6, and logscale keeps only the terms
    within exp's range of the largest (see _four_one_sum): reflections
    k = N-1-j whose prefix P(j) = log_mag[j] lies within 373.6 of its
    minimum.  f(t) = log(2 sin t) is concave, 0 at pi/6 and log 2 at pi/2,
    so f(pi j/N) >= (3 log 2/N)(j - N/6) on N/6 <= j <= N/2, and summing
    from the first j past N/6,

        P(j) - min P >= (3 log 2/(2N)) (j - N/6)^2,

    which passes 374.6 (a unit above the cut, far above the table's
    rounding) for every j > N/6 + 19 sqrt(N), since sqrt(2 * 374.6/(3 log
    2)) < 19.  Entries k < N/2 are at most about log N/2 (the prefix falls
    to its minimum and rises to about log N/2 at the middle), far below
    the cut max log_mag - 373.6, which grows like 0.16 N and is 159 at
    N = 3273, the first order whose window is not the whole table.
    Direct mode takes every entry but accepts 4_1 only up to N = 2112.
    """
    return min((order - 1) // 2, math.ceil(order / 6 + 19 * math.sqrt(order)) + 2)


def _four_one_sum(log_mag: np.ndarray, hi: float, direct: bool):
    """<4_1> = sum_k |(omega)_k|^2 = sum_k exp(2 log_mag[k]), in one pass.

    log_mag holds the entries of a _log_window, hi the largest.  Returns
    (m, s, a, err): the sum is exp(m) * s with sum |term| = exp(m) * a,
    and err bounds its summation rounding on the scale of s.  Logscale
    shifts by the largest term; direct mode, whose refusals keep every
    term finite, does not.
    """
    m = 0.0 if direct else 2.0 * hi
    # exp is exactly 0 below _EXP_ZERO_LOG, and many times slower there:
    # the entries are picked, with a margin, before any term is formed
    terms = log_mag[log_mag >= (m + _EXP_ZERO_LOG) / 2.0 - 1.0]
    np.multiply(terms, 2.0, out=terms)
    terms -= m
    terms = terms[terms >= _EXP_ZERO_LOG]
    a = float(np.add.reduce(np.exp(terms, out=terms)))
    return m, complex(a), a, _sum_error_factor(len(terms), width=1) * a


def _refuse_direct(knot: KnotId, hi: float, lo: float) -> None:
    """Raise OverflowError if direct mode could overflow at this order.

    hi and lo are the largest and smallest log |(omega)_k|.
    """
    table_log = max(hi, -lo)
    if table_log > _DIRECT_TABLE_LOG_LIMIT:
        raise OverflowError(
            f"direct mode refused: table log magnitude {table_log:.1f} "
            f"exceeds {_DIRECT_TABLE_LOG_LIMIT:.0f}; use logscale"
        )
    # two factors in the numerator, the other f - 2 reciprocals
    term_log = 2.0 * hi - (SUMMAND_FACTORS[knot] - 2) * lo
    if term_log > _DIRECT_TERM_LOG_LIMIT:
        raise OverflowError(
            f"direct mode refused: term log magnitude bound "
            f"{term_log:.1f} exceeds {_DIRECT_TERM_LOG_LIMIT:.0f}; "
            f"use logscale"
        )


@dataclass(frozen=True)
class InvariantValue:
    """One evaluated invariant <knot> at order N.

    value_log always holds the result; value_complex is its plain image
    when that fits in a double, else None.  term_count is the size of the
    state sum's index set (N, N(N+1)/2 or N(N+1)(N+2)/6), not the number
    of summands enumerated.  accum_error_estimate bounds, to first order,
    the relative error from summation, from forming the 5_2 and 6_1 pair
    terms (their phases, weights and products), and from the rounding in
    the Pochhammer table: each summand is a product of 2 (4_1), 3 (5_2) or 4
    (6_1) table entries, so the table adds that many PochhammerTable.err
    per unit of sum |summand|.  For 4_1 that err counts only the factors
    of the prefix its window reflects, about N/6 + 19 sqrt(N) of them
    rather than N/2.  For 6_1 the summands are the pair terms
    C(s)/(omega)_l^*, so cancellation inside a row sum C(s) weighs in its
    summation rounding but not its share of the table rounding.
    """

    knot: KnotId
    order: int
    mode: str
    value_log: LogComplex
    value_complex: complex | None
    term_count: int
    accum_error_estimate: float


def _exact_value(knot: KnotId, order: int) -> InvariantValue:
    element = cyclo.exact_invariant(knot, order)
    z = element.evaluate_numeric()
    log = LogComplex.from_complex(z)
    # the field element is exact; only its float image rounds: Horner's
    # rule takes a complex product and an addition per coefficient, each
    # step's error carried by the powers of omega that follow
    spread = sum(abs(float(c)) for c in element.coeffs)
    steps = 6.0 * len(element.coeffs) + 1.0
    err = steps * _EPS * spread / abs(z) if z != 0 else 0.0
    return InvariantValue(
        knot,
        order,
        "exact",
        log,
        z,
        cyclo.exact_term_count(knot, order),
        err,
    )


def quantum_invariant(
    knot: KnotId,
    order: int,
    mode: str = "logscale",
    threads: int = 1,
    chunk_size: int = 4096,
) -> InvariantValue:
    """Evaluate <knot> at root-of-unity order N = `order`.

    mode "direct" sums plain complex terms and refuses orders whose table
    or term magnitudes could overflow; "logscale" carries log magnitudes
    and never overflows, though cancellation in the 5_2 and 6_1 sums
    costs digits as N grows (see accum_error_estimate); "exact" works in
    the cyclotomic field and is meant for small N oracle checks.  The 5_2
    and 6_1 sums take one BLAS dot per row, serially, and add the N rows'
    terms by one pairwise sum, so the result is the same bits for every
    OpenBLAS thread count.  threads and chunk_size have no effect; each
    must still be at least 1.
    """
    order = _check_order(order)
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")

    if mode == "exact":
        return _exact_value(knot, order)

    # the sum is exp(m) * s, with sum |term| = exp(m) * a; direct mode
    # keeps m = 0, so s is the plain sum
    direct = mode == "direct"
    if knot is KnotId.FOUR_ONE:
        log_mag, hi, lo, table_err = _log_window(order, _four_one_count(order))
    else:
        table = pochhammer_table(order)
        hi, lo, table_err = table.log_max, table.log_min, table.err
    if direct:
        _refuse_direct(knot, hi, lo)
    if knot is KnotId.FOUR_ONE:
        m, s, a, err = _four_one_sum(log_mag, hi, direct)
    else:
        m, s, a, err = _pair_sum(knot, table, direct)
    err += SUMMAND_FACTORS[knot] * table_err * a
    count = cyclo.exact_term_count(knot, order)
    if s == 0:
        log = LogComplex(float("-inf"), 0.0, True)
        return InvariantValue(knot, order, mode, log, 0j, count, 0.0)
    log = LogComplex(m + math.log(abs(s)), _wrap_angle(math.atan2(s.imag, s.real)))
    image = None
    if direct:
        image = s
    elif log.log_mag <= _EXP_OVERFLOW_LOG:
        image = log.to_complex()
    rel = err / abs(s)
    return InvariantValue(knot, order, mode, log, image, count, rel)


def growth_point(knot: KnotId, order: int) -> tuple[int, float]:
    """(N, log |<knot>|) for the growth-rate fit, always via logscale."""
    value = quantum_invariant(knot, order, "logscale")
    return order, value.value_log.log_mag


# |<L>| at N = 2 equals the knot determinant |Delta_L(-1)|
_DETERMINANT = {KnotId.FOUR_ONE: 5, KnotId.FIVE_TWO: 7, KnotId.SIX_ONE: 9}


@dataclass(frozen=True)
class AlexanderReport:
    expected: dict[KnotId, int]
    exact: dict[KnotId, Fraction]
    numeric: dict[KnotId, float]
    passed: bool


def alexander_check(tolerance: float = 1e-12) -> AlexanderReport:
    """Check |<L>| at N = 2 against the determinants 5, 7, 9.

    The exact route must reproduce the integers exactly (the order-2
    cyclotomic field is Q itself); the direct floating route must agree
    within `tolerance` relative.
    """
    exact: dict[KnotId, Fraction] = {}
    numeric: dict[KnotId, float] = {}
    ok = True
    for knot, expected in _DETERMINANT.items():
        element = cyclo.exact_invariant(knot, 2)
        value = element.coeffs[0]  # degree-1 field: the element is rational
        exact[knot] = abs(value)
        direct = quantum_invariant(knot, 2, "direct")
        assert direct.value_complex is not None
        numeric[knot] = abs(direct.value_complex)
        ok = ok and exact[knot] == expected
        ok = ok and abs(numeric[knot] - expected) <= tolerance * expected
    return AlexanderReport(dict(_DETERMINANT), exact, numeric, ok)
