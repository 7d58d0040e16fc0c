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
triangle is summed by one BLAS dot, serially, and the rows' terms by one
pairwise sum.  The 6_1 row sums C(s) are correlations too, one dot a
row.  Nothing is split over workers, and no dot is long enough for
OpenBLAS to split it over threads, so results are the same bits on every
run.

The terms that are not negligible lie near the stationary points: the
table's log magnitudes are least near k = N/6 and largest near 5N/6, and
a term's weight falls like exp(-c (k - k0)^2/N) away from them.  4_1, N
positive terms peaking near 5N/6, builds only a window of O(sqrt N)
entries there, starting its running log sum at the window's edge from
the sum's Euler-Maclaurin form.  5_2 sums only the block of its pairs
whose rows lie near N/6 and columns near 5N/6, O(sqrt(N log N)) of each,
from N = 225 on: the same kind of window, narrowed by the table's values
(see _block).  Every pair it drops weighs below e^-T of the largest,
with T chosen so that all of them together add at most eps/4 of sum |t|
(see _windows).  6_1 sums its whole
triangle: its row sums cancel, so a dropped share needs its own bound.

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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import cyclo, qdilog
from .knots import SUMMAND_FACTORS, KnotId, check_knot, check_order

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


def _wrap_angle(a: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    return math.pi - (math.pi - a) % (2.0 * math.pi)


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

    6_1 reads the whole log table, and its phases from the xi table (see
    _phase_exponents).  4_1 and 5_2 take their entries from _log_window
    instead: the whole table only while their windows are whole (4_1 up to
    about N = 204, 5_2's rows to about 446), else a short stretch of the prefix
    and its reflections (see _windows), whose err counts only that
    stretch's factors and its start value.
    log_max and log_min, the largest and smallest log_mag[k], set the pair
    sums' scales (see _log_window).

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


def _euler_maclaurin_start(order: int, start: int) -> tuple[float, float]:
    """P(j) = sum_{i<=j} log(2 sin(pi i/N)) at j = start, in closed form.

    With theta = pi j/N and h = pi/N, Euler-Maclaurin gives

        P(j) = -(N/pi) Lambda(theta) + 1/2 log(2N sin theta)
               + h cot(theta)/12 - h^3 (2 cot csc^2)/720
               + h^5 (16 cot csc^4 + 8 cot^3 csc^2)/30240 + R,

    Lambda being Lobachevsky's function.  Split log(2 sin t) as log(2t) +
    g(t), g(t) = log(sin t/t): the first part sums to j log(2pi/N) +
    log j!, Stirling's series, and g is smooth and even, with every Taylor
    coefficient negative, so its odd derivatives vanish at 0 and the sum
    of g(pi i/N) from i = 0 is Euler-Maclaurin's with no terms at the
    lower end.  Both remainders are within their first omitted term (the
    Stirling series of log j!, and Euler-Maclaurin for g, whose even
    derivatives keep one sign): 1/(1680 j^7) and (h^7/1209600) |g^(7)|,
    and |g^(7)| grows to 720/(pi/2)^7 at pi/2, where cot's sixth
    derivative vanishes, so it is at most 720/theta^7 there and |R| <=
    1/(840 j^7).

    Returns (P, err): err adds to R the rounding, in units of eps = 2^-53.
    theta is within 2.4 eps relative, which moves (N/pi) Lambda by at
    most 2.4 |P| <= 2.4 (N/pi) Lambda (|log(2 sin t)| falls up to pi/6,
    and the terms after the first are positive).  Lambda is within 6 eps
    relative on (0, pi/6]: its parts t, -t log 2t and the positive series
    meet four roundings and a log within an ulp, and -t log 2t is negative
    only past t = 1/2, where it is under 5% of the sum (2.4 eps is the
    largest error measured against 40-digit values).  N/pi and the product
    add 2.35 (N/pi) Lambda, and the two additions at most 2 ((N/pi) Lambda
    + log 2N).  1/2 log(2N sin theta) is within log 2N + 2.2, and the small
    terms within 0.02.
    """
    n = order
    h = math.pi / n
    theta = start * h
    sine = math.sin(theta)
    v = h * math.cos(theta) / sine  # h cot theta
    u = h * h / (sine * sine)  # h^2 csc^2 theta
    main = n / math.pi * qdilog.lobachevsky(theta)
    p = -main + 0.5 * math.log(2.0 * n * sine) + v * (
        1.0 / 12.0 - u / 360.0 + u * (2.0 * u + v * v) / 3780.0
    )
    log_2n = math.log(2.0 * n)
    err = _EPS * (14.0 * main + 4.0 * log_2n + 3.0) + 1.0 / (840.0 * start**7)
    return p, err


def _log_window(order: int, start: int, count: int):
    """The prefix P(j) = log_mag[j], start <= j <= count, of the log table.

    P(j) is the running sum of the factors log |1 - omega^i| = log(2 sin(pi
    i/N)), i <= j, count < N/2; since (omega)_{N-1} = N, the entries
    k >= N - 1 - count are its reflections log N - P(N-1-k).  With start =
    0 and count = h - 1, h = ceil(N/2), that is the whole table, and the
    reflections of the rest follow the first h entries.  Otherwise it is
    only the prefix window (see _window); its reader forms the reflections
    it needs, with the same subtraction.  For start > 0 the running sum
    begins at P(start) from _euler_maclaurin_start.

    Returns (log_mag, hi, lo, err): the entries in the order of k; the
    largest, hi = log N - lo, the reflection of the smallest, lo, which is
    in the prefix (every reflection is near log N/2 or more), at some j <=
    N/6 (the prefix falls while 2 sin(pi j/N) < 1), so inside every window,
    and no prefix entry passes log N/2 (log_mag[h-1] + log_mag[N-h] =
    log N); and err as in PochhammerTable, counting only the factors read
    and the start value's error, and the rounding of a reflection formed
    from any of them.
    """
    n = order
    h = (n + 1) // 2
    whole = count == h - 1
    c = count - start + 1
    log_mag = np.empty(n if whole else c)
    prefix = log_mag[:c]
    p0, start_err = _euler_maclaurin_start(n, start) if start else (0.0, 0.0)
    # the running sums of P(start) and the factors start < j <= count < N/2,
    # whose sine arguments pi j/N are accurate to a few ulps, are built in
    # place, in the prefix and one grid buffer of c doubles
    log_f = prefix[1:]
    grid = np.arange(float(start), count + 1)
    factors = grid[1:]
    np.multiply(factors, math.pi / n, out=factors)
    np.sin(factors, out=log_f)
    np.multiply(log_f, 2.0, out=log_f)
    np.log(log_f, out=log_f)
    log_f_sum = float(np.add.reduce(np.abs(log_f, out=factors)))
    # scaling by a power of two is exact: the same bits as log_f / _LOG_GRID
    np.multiply(log_f, 1.0 / _LOG_GRID, out=factors)
    np.rint(factors, out=factors)
    np.multiply(factors, _LOG_GRID, out=factors)
    np.subtract(log_f, factors, out=log_f)
    # P(start) is split on the grid too; both parts are exact
    grid[0] = p0_grid = round(p0 / _LOG_GRID) * _LOG_GRID
    prefix[0] = p0 - p0_grid
    # np.add.accumulate, not np.cumsum, which keeps a little memory per call
    np.add.accumulate(grid, out=grid)
    np.add.accumulate(prefix, out=prefix)
    np.add(grid, prefix, out=prefix)
    lo = float(np.minimum.reduce(prefix))
    log_n = math.log(n)
    if whole:
        np.subtract(log_n, log_mag[: n - h][::-1], out=log_mag[h:])
    hi = log_n - lo
    # in units of _EPS, with c prefix entries: per factor, 5 for the sine
    # (its argument rounds three times) and 2|log| for the log; the fine
    # running sums, each below c * grid/2; per entry, 5|log_mag| + 2 log N
    # + 16 for adding the two sums, for the reflection (math.log is within
    # an ulp, 2 log N, and the subtraction rounds once, |log_mag|, on top
    # of the mirror entry's error), for the exponential and phase in
    # `values`, and for forming a summand; and P(start)'s error, which
    # every entry carries
    err = start_err + _EPS * (
        5.0 * c
        + 2.0 * log_f_sum
        + c * c * _LOG_GRID / 4.0
        + 5.0 * max(hi, -lo)
        + 2.0 * log_n
        + 16.0
    )
    return log_mag, hi, lo, err


def pochhammer_table(order: int) -> PochhammerTable:
    order = check_order(order)
    log_mag, hi, lo, err = _log_window(order, 0, (order - 1) // 2)
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


def _phase_exponents(
    knot: KnotId, order: int, r: np.ndarray, c: np.ndarray, d: np.ndarray
) -> np.ndarray:
    """Exponents mod 4N of xi = exp(i pi/(2N)) for every phase a pair
    term reads, at the int64 rows r, columns c and lags d.

    The phase of a summand is that of its table entries, xi^a(k) for
    (omega)_k and xi^-a(k) for 1/(omega)_k (see _arg_exponents), times
    omega^e(r, c) = xi^(4e) with e = `knots.pair_exponent`.  Both knots'
    exponents have e(r, c) = e(0, c) - r(c+1), and -2rc = (c-r)^2 - r^2 -
    c^2, so

        4e(r, c) = 2(c-r)^2 + 2(1 - (r+1)^2) + 2(2e(0, c) - c^2).

    Returns one int64 array, built and reduced exactly into [0, 4N) in one
    pass: for 6_1, whose rows are all k < N, first inv[k] = -a(k), the
    phase of 1/(omega)_k inside its row sums; then row[r], the phase of
    rho(r) / (omega)_r^*, a(r) + 2(1 - (r+1)^2) = -r(r+N+3); col[c], that
    of kappa(c) X(c), 2(2e(0, c) - c^2) plus 2a(c) for 5_2, whose X(c) is
    (omega)_c^2 (the 6_1 row sum C(c) carries its own phase); and the
    conjugate chirp -2d^2.
    """
    n = order
    k = len(r) if knot is KnotId.SIX_ONE else 0
    j = k + len(r)
    exps = np.empty(j + len(c) + len(d), dtype=np.int64)
    inv, row, col, chirp = exps[:k], exps[k:j], exps[j : j + len(c)], exps[j + len(c) :]
    if k:
        np.multiply(r, (n - 1) - r, out=inv)
    np.multiply(r, -(n + 3) - r, out=row)
    if knot is KnotId.FIVE_TWO:
        np.multiply(c, 2 * (1 - n), out=col)  # e(0, c) = 0: -2c^2 + 2a(c)
    else:
        np.multiply(c, 2 * c + 4, out=col)  # e(0, c) = c(c+1)
    np.multiply(d, -2 * d, out=chirp)
    exps %= 4 * n
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
# windows of columns adds the windows' dots in turn, one addition per
# window that holds any of the row's terms (a window of zeros adds an exact
# zero), so a product still meets at most L + 1 roundings.
_DOT_TERMS = 8192
# shifted logs below this leave exp subnormal: such a factor is only known
# to within 2^-1074, and a product of factors of at most 1 to within 2^-1073
_NORMAL_LOG = -708.0
_SUBNORMAL_ERR = 2.0**-1073


def _chirp_rows(u: np.ndarray, chirp_conj: np.ndarray, rows: int) -> np.ndarray:
    """z[i] = sum_{d<L} chirp[d] u[i + d] for i < rows, L = len(chirp_conj).

    u holds at least L + rows - 1 entries; z takes the dtype of u and the
    chirp, both complex or both real.  Each row is one BLAS dot per window
    of at most _DOT_TERMS columns (np.correlate conjugates its second
    argument, hence the conjugate chirp).
    """
    width = len(chirp_conj)
    d1 = min(width, _DOT_TERMS)
    z = np.correlate(u[: d1 + rows - 1], chirp_conj[:d1], "valid")
    for d0 in range(d1, width, _DOT_TERMS):
        d1 = min(width, d0 + _DOT_TERMS)
        z += np.correlate(u[d0 : d1 + rows - 1], chirp_conj[d0:d1], "valid")
    return z


def _row_sums(log_mag: np.ndarray, hi: float, lo: float, inv_phase: np.ndarray, direct: bool):
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

    log_mag is the whole table, hi and lo its largest and smallest entry.
    Returns the rows' one log shift, and each row's sum on that scale and
    its error bound.
    """
    n = len(log_mag)
    top_a, top_b = (0.0, 0.0) if direct else (2.0 * hi, -lo)
    xa, xb = 2.0 * log_mag - top_a, -log_mag - top_b
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
    if (2.0 * lo - top_a) - (hi + top_b) < _NORMAL_LOG:
        err += _SUBNORMAL_ERR * (additions + 1)
    return top_a + top_b, total, err


def _pair_sum(
    knot: KnotId, order: int, log_mag: np.ndarray, hi: float, lo: float,
    rows, cols, direct: bool,
):
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
    own terms and obeys its magnitude bound.

    rows and cols are the prefix ranges of _windows, and log_mag is
    _log_window(N, *rows).  6_1, and 5_2 while its columns are whole, sum
    the whole triangle: the z(r) are one correlation of U, zero-padded,
    with the chirp, one dot of N - r terms per row r.  6_1 always does:
    its row sums C(s) cancel, so the share of sum |t| a block would leave
    out is not bounded by the weights alone (see _windows).  Otherwise 5_2
    sums only the block of rows r0 <= r <= r1 and columns c0 <= c <= c1
    (see _block), built from the prefix, and z(r) is one dot of U with
    the chirp at the lags c - r, zero for c < r: the correlation of the
    chirp over the lags c0 - r1 ... c1 - r0 with U, (c1 - c0 + 1) terms a
    row, O(N log N) pairs in all.  Every pair it leaves out weighs below e^-T
    of the largest, T = log(2N(N+1)/eps), so together they add at most
    eps/4 of sum |t|.  The dots are np.correlate, one BLAS dot per row of
    at most _DOT_TERMS terms (see _chirp_rows).  The rows' terms V(r) z(r)
    are added by one pairwise sum, and sum |t| and the error bound are the
    sums of the rows' shares, from suffix sums of |U(c)| and of its
    errors; the block adds the eps/4 share of sum |t| that it drops.
    Returns (m, s, a, err): the sum is exp(m) * s, with
    sum |t| = exp(m) * a and err bounding its rounding on the scale of s
    (see _four_one_sum).
    """
    n = order
    whole = cols[1] == (n - 1) // 2
    r0, r1, c0, c1 = _block(n, log_mag, lo, rows, cols)
    if whole:
        row_mag = col_mag = log_mag
        r = c = d = np.arange(n)
    else:
        # log_mag is the prefix from j = rows[0]; every column is a
        # reflection
        p = rows[0]
        row_mag = log_mag[r0 - p : r1 - p + 1]
        col_mag = np.subtract(math.log(n), log_mag[n - 1 - c1 - p : n - c0 - p])[::-1]
        # the block's lags c - r, from c0 - r1 to c1 - r0
        r, c, d = np.arange(r0, r1 + 1), np.arange(c0, c1 + 1), np.arange(c0 - r1, c1 - r0 + 1)
    nrows, ncols = r1 - r0 + 1, c1 - c0 + 1
    phases = _xi_powers(n)[_phase_exponents(knot, n, r, c, d)]
    if knot is KnotId.SIX_ONE:
        inv_phase, phases = phases[:n], phases[n:]
    row_phase, col_phase = phases[:nrows], phases[nrows : nrows + ncols]
    chirp = phases[nrows + ncols :]
    # U(c), zero-padded for the whole triangle's correlation, and per
    # column |U(c)| and its error in units of eps: the rounding of its exp
    # argument (col_log and the shift lam), that of a subnormal U(c) and
    # the error of C(c); these two are zero for r0 <= c < c0, so that
    # their suffix sums from r are those over the columns of row r
    u = np.zeros(2 * n if whole else ncols, complex)
    col_abs = np.zeros((2, c1 - r0 + 1))
    u_abs, u_err = col_abs[:, c0 - r0 :]
    if knot is KnotId.FIVE_TWO:
        col_log = 2.0 * col_mag
        lam = 0.0 if direct else 2.0 * hi
        xu = col_log - lam
        np.exp(xu, out=u_abs)
        np.multiply(u_abs, col_phase, out=u[:ncols])
        np.abs(xu, out=u_err)
        u_err += np.abs(col_log)
        u_err *= u_abs
        if 2.0 * lo - lam < _NORMAL_LOG:  # the smallest xu
            u_err += (xu < _NORMAL_LOG) * (2.0 * _SUBNORMAL_ERR / _EPS)
    else:
        # lam is the row sums' one shift, so U(c) = kappa(c) C(c)
        lam, row_sums, c_err = _row_sums(log_mag, hi, lo, inv_phase, direct)
        np.multiply(row_sums, col_phase, out=u[:n])
        np.abs(row_sums, out=u_abs)
        np.multiply(u_abs, abs(lam), out=u_err)
        u_err += c_err / _EPS
    m = 0.0 if direct else lam - lo
    shift = lam - m
    xv = shift - row_mag
    v = np.exp(xv)
    if whole:
        z = _chirp_rows(u, chirp, n)
    else:
        # entry i is conj z(r1 - i); the rows past c0 read zeros at the
        # negative lags
        chirp[: max(0, r1 - c0)] = 0.0
        z = _chirp_rows(chirp, u, nrows)[::-1].conj()
    terms = v * row_phase * z
    # per row: its share of sum |t| and of the error bound, from the suffix
    # sums over c >= r; row r's dot has min(c1 - r + 1, ncols) terms
    u_sum, u_err_sum = np.add.accumulate(col_abs[:, ::-1], axis=1)[:, : -nrows - 1 : -1]
    share = v * u_sum
    a = float(np.add.reduce(share))
    rounds = np.arange(c1 - r0 + 2.0, c1 - r1 + 1.0, -1.0)
    if not whole:
        np.minimum(rounds, ncols + 1.0, out=rounds)
    rounds *= _DOT_ROUNDINGS
    rounds += np.abs(xv)
    rounds *= u_sum
    rounds += u_err_sum
    rounds *= v
    err = _EPS * (float(np.add.reduce(rounds)) + (abs(shift) + _PAIR_ROUNDINGS) * a)
    if shift - hi < _NORMAL_LOG:  # the smallest xv
        err += _SUBNORMAL_ERR * float(((xv < _NORMAL_LOG) * u_sum).sum())
    # the rows' terms are added pairwise
    err += _sum_error_factor(nrows) * a
    if not whole:
        err += _EPS / 4.0 * a
    return m, complex(np.add.reduce(terms)), a, err


# a window of the prefix starts its running sum at the Euler-Maclaurin
# P(start) from this start on, where that form's remainder, at most
# 1/(840 start^7) = 2.7e-16, is a fraction of an ulp of P(start) (about
# -120 at start = 64, N = 1000)
_EM_MIN_START = 64


def _window(order: int, cut: float) -> tuple[int, int]:
    """The prefix range start <= j <= count outside which P(j) - min P > cut.

    P(j) = log_mag[j], the running sum of f(pi i/N), f(t) = log(2 sin t),
    has its minimum near j = N/6.  f is concave, 0 at pi/6 and log 2 at
    pi/2, with slope sqrt(3) at pi/6.  Above its chord, f(pi i/N) >=
    (3 log 2/N)(i - N/6) on N/6 <= i <= N/2; below its tangent, -f(pi i/N)
    >= (sqrt(3) pi/N)(N/6 - i) for i < N/6.  Summing over the i between j
    and the minimum,

        P(j) - min P >= (3 log 2/(2N)) (j - N/6)^2       for j >= N/6,
        P(j) - min P >= (sqrt(3) pi/(2N)) (N/6 - j - 1)^2 for j < N/6,

    which passes cut for every j > count and every j < start, since
    count - N/6 > sqrt(2N cut/(3 log 2)) and N/6 - start - 1 > sqrt(2N cut/
    (sqrt(3) pi)), each with a unit of margin.  P rises from N/6 to the
    last prefix entry h - 1, h = ceil(N/2), and every entry past the prefix
    is a reflection, at least log N/2 >= P(h-1) (see _log_window), so
    those lie above min P + cut too unless count = h - 1, when the range
    is the whole prefix and the table is whole.  start is 0 then, and
    wherever it would fall under _EM_MIN_START; from there on the running
    sum starts at the Euler-Maclaurin P(start).
    """
    n = order
    h = (n + 1) // 2
    count = min(h - 1, math.ceil(n / 6 + math.sqrt(2.0 * n * cut / (3.0 * math.log(2.0)))) + 1)
    start = math.floor(n / 6 - math.sqrt(2.0 * n * cut / (math.sqrt(3.0) * math.pi))) - 2
    if start < _EM_MIN_START or count == h - 1:
        start = 0
    return start, count


def _windows(knot: KnotId, order: int):
    """The prefix ranges (rows, cols) of P(j) = log_mag[j] a knot's sum reads.

    Each is a _window, or the whole prefix (0, h - 1), h = ceil(N/2): the
    rows are the entries k = j the sum reads directly, the columns the
    reflections k = N - 1 - j.  The cuts keep every term that is not
    negligible, and hi = log N - min P, min P = lo, is the largest entry.

    4_1 sums exp(2 log_mag[k]), which peaks at the reflection of the
    minimum.  A term is dropped only if it is below e^-T of the largest, T
    = log(4N/eps), so where P(j) - min P > T/2 at its mirror j: both ranges
    are _window(N, T/2), and the at most N dropped terms add at most eps/4
    of the sum (_four_one_sum counts that share).  Its window holds about
    8 sqrt(N) entries; it is the whole table up to N = 202 and at N = 204,
    and starts at the Euler-Maclaurin P(start) from N = 919.

    5_2 sums the pairs r <= c of weight exp(-log_mag[r] + 2 log_mag[c]),
    at most exp(2 hi - lo), the weight of the pair of the minimum and its
    reflection.  The pair's row factor exp(lo - log_mag[r]) is below e^-T
    unless P(r) - min P <= T, and its column factor exp(2 (log_mag[c] -
    hi)) is below e^-T unless c reflects a j with P(j) - min P <= T/2 (the
    entries past the prefix are no nearer, see _window).  So with rows
    _window(N, T), columns _window(N, T/2) and T = log(2N(N+1)/eps), every
    dropped pair weighs below e^-T of the largest, which the block keeps,
    and the at most N(N+1)/2 dropped pairs add at most eps/4 of sum |t|
    (_pair_sum counts that share).  The columns are the whole table up to
    N = 224 and at N = 226, and the rows up to N = 444 and at N = 446; the
    rows start at the Euler-Maclaurin P(start) from N = 1364.  _block
    narrows the ranges to the rows and columns the table shows are needed.

    6_1 reads the whole table: its window would be whole up to about N =
    300, past its float cliff near N = 171, and its row sums C(s) cancel,
    so a dropped share of sum |t| needs its own bound.
    """
    n = order
    whole = (0, (n - 1) // 2)
    if knot is KnotId.FOUR_ONE:
        window = _window(n, math.log(4.0 * n / _EPS) / 2.0)
        return window, window
    if knot is KnotId.FIVE_TWO:
        cut = _five_two_cut(n)
        return _window(n, cut), _window(n, cut / 2.0)
    return whole, whole


def _five_two_cut(order: int) -> float:
    """T = log(2N(N+1)/eps): the N(N+1)/2 pairs of <5_2>, each below e^-T
    of the largest, add at most eps/4 of it."""
    return math.log(2.0 * order * (order + 1) / _EPS)


def _block(order: int, log_mag: np.ndarray, lo: float, rows, cols):
    """The rows r0 <= r <= r1 and columns c0 <= c <= c1 of the 5_2 pairs
    that _pair_sum sums, from the prefix ranges (rows, cols) of _windows.

    log_mag is _log_window(N, *rows): the prefix from j = rows[0], the
    whole table while the rows are whole; lo is its smallest entry.  While
    the columns are whole the block is the whole triangle.  Otherwise the
    columns are the reflections c = N - 1 - j of the j in cols whose
    P(j) - min P, as the table reads it, is at most (T + 1)/2, and the rows
    the r among rows (every r <= c1 while the rows are whole) where it is
    at most T + 1, T = _five_two_cut(N).  An entry's error, far below 1,
    moves none of them across the cut T (or T/2) of _windows, so every pair
    left out still weighs below e^-T of the largest.  The bounds of _window
    are loose: the ranges allow 224 rows by 181 columns at N = 450 (of
    450), 449 by 285 at N = 1208 and 1308 by 927 at N = 12 000, and the
    block keeps 187 by 131, 307 by 217 and 1005 by 711.
    """
    n = order
    if cols[1] == (n - 1) // 2:
        return 0, n - 1, 0, n - 1
    p = rows[0]
    cut = _five_two_cut(n) + 1.0
    j = np.flatnonzero(log_mag[cols[0] - p : cols[1] - p + 1] <= lo + cut / 2.0)
    c0, c1 = n - 1 - cols[0] - int(j[-1]), n - 1 - cols[0] - int(j[0])
    last = c1 if rows[1] == (n - 1) // 2 else rows[1]
    i = np.flatnonzero(log_mag[: last - p + 1] <= lo + cut)
    return p + int(i[0]), min(p + int(i[-1]), c1), c0, c1


def _four_one_sum(order: int, log_mag: np.ndarray, hi: float, direct: bool):
    """<4_1> = sum_k |(omega)_k|^2 = sum_k exp(2 log_mag[k]), in one pass.

    log_mag holds a _log_window: the whole table, or a window of the
    prefix, whose reflections log N - P(j) it forms in place and sums; hi
    is the largest entry.  Returns (m, s, a, err): the sum is exp(m) * s with sum |term| =
    exp(m) * a, and err bounds its summation rounding on the scale of s,
    with the eps/4 share the window may drop (see _windows).  Logscale
    shifts by the largest term; direct mode, whose refusals keep every
    term finite, does not.
    """
    if len(log_mag) < order:
        log_mag = np.subtract(math.log(order), log_mag, out=log_mag)[::-1]
    m = 0.0 if direct else 2.0 * hi
    terms = np.multiply(log_mag, 2.0)
    terms -= m
    a = float(np.add.reduce(np.exp(terms, out=terms)))
    return m, complex(a), a, (_sum_error_factor(len(terms), width=1) + _EPS / 4.0) * a


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
    per unit of sum |summand|.  For 4_1 and 5_2 that err counts only the
    factors of the stretch of the prefix their windows read, O(sqrt N) of
    them rather than N/2, and the error of its Euler-Maclaurin start; the
    estimate also holds the eps/4 share of sum |summand| that the windows
    leave out (see _windows).  For 6_1 the summands are the pair terms
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
    """Exact mode: the float image of `cyclo.exact_invariant`, taken from
    its integer residue.

    c / N^d is int true division, correctly rounded, so each coefficient
    is the float of Fraction(c, N^d) with no gcd, and the image and the
    bound are those of the field element, bit for bit.
    """
    coeffs, scale = cyclo._exact_residue(knot, order)
    image = [c / scale for c in coeffs]
    z = cyclo._horner(image, order)
    log = LogComplex.from_complex(z)
    # the residue is exact; only its float image rounds: Horner's rule
    # takes a complex product and an addition per coefficient, each
    # step's error carried by the powers of omega that follow
    spread = sum(map(abs, image))
    steps = 6.0 * len(image) + 1.0
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
    and 6_1 sums take one BLAS dot per row, serially, and add the rows'
    terms by one pairwise sum, so the result is the same bits for every
    OpenBLAS thread count.  threads and chunk_size have no effect; each
    must still be at least 1.
    """
    knot = check_knot(knot)
    order = check_order(order)
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
    rows, cols = _windows(knot, order)
    if knot is KnotId.SIX_ONE:
        table = pochhammer_table(order)
        log_mag, hi, lo, table_err = table.log_mag, table.log_max, table.log_min, table.err
    else:
        log_mag, hi, lo, table_err = _log_window(order, *rows)
    if direct:
        _refuse_direct(knot, hi, lo)
    if knot is KnotId.FOUR_ONE:
        m, s, a, err = _four_one_sum(order, log_mag, hi, direct)
    else:
        m, s, a, err = _pair_sum(knot, order, log_mag, hi, lo, rows, cols, direct)
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
