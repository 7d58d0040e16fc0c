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
take once per order (logscale by negating the log table).  The exact mode
needs no field inverse: (omega)_{N-1} = N gives 1/(omega)_k^* =
(omega)_{N-1-k}/N.

The moduli |(omega)_k| swing like exp(+-0.16 N), so besides the plain
"direct" complex evaluation there is a "logscale" mode that keeps every
term as (log magnitude, argument) and sums with a running rescale, and an
"exact" mode that delegates to cyclotomic field arithmetic.  The 5_2 and
6_1 sums are chunked, each chunk reduced by numpy's pairwise sum and the
chunks merged along a fixed binary tree, so results are bit-identical for
any worker count.  The 4_1 sum, N positive terms, is one pairwise sum.
"""

from __future__ import annotations

import cmath
import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import cyclo
from .knots import SUMMAND_FACTORS, KnotId

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


def _wrap_angle(a):
    """Wrap angles (scalar or array) into (-pi, pi]."""
    return math.pi - np.remainder(math.pi - np.asarray(a), 2.0 * math.pi)


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
        return cls(
            math.log(abs(z)), float(_wrap_angle(math.atan2(z.imag, z.real)))
        )

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
    Its factors log |1 - omega^j| = log(2 sin(pi j/N)) are symmetric under
    j -> N - j, so the sine is evaluated for j <= N/2 only and mirrored.
    err bounds, to first order, the absolute error of every log_mag[k]
    and arg[k], the relative error of every values[k], and each entry's
    share of the rounding when a summand is formed from entries.

    The phases are computed on first use, since 4_1 never reads them:
    arg[k] is arg (omega)_k in (-pi, pi], omega_pow[j] caches omega^j for
    exponent lookups, and values[k] is the plain complex number, inf past
    the double range, where direct mode (its only reader) refuses the
    order.
    """

    order: int
    log_mag: np.ndarray
    err: float

    @functools.cached_property
    def arg(self) -> np.ndarray:
        # arg(1 - omega^j) = pi j/N - pi/2, so arg (omega)_k = pi k(k+1-N)/(2N):
        # the multiple of pi/(2N) is reduced exactly, in integers, into (-2N, 2N]
        n = self.order
        k = np.arange(n, dtype=np.int64)
        quarter = k * (k - (n - 1)) % (4 * n)
        quarter = np.where(quarter > 2 * n, quarter - 4 * n, quarter)
        return quarter * (math.pi / (2 * n))

    @functools.cached_property
    def omega_pow(self) -> np.ndarray:
        return _unit(2.0 * math.pi * np.arange(self.order) / self.order)

    @functools.cached_property
    def values(self) -> np.ndarray:
        values = np.full(self.order, np.inf, dtype=complex)
        fits = self.log_mag < _EXP_OVERFLOW_LOG
        values[fits] = np.exp(self.log_mag[fits]) * _unit(self.arg[fits])
        return values


# the log factors are split at this grid: running sums of the grid parts
# are exact in a double (for N * log N far below 2^33)
_LOG_GRID = 2.0**-20


def _unit(angles: np.ndarray) -> np.ndarray:
    """exp(i * angles), from a cosine and a sine (faster than complex exp)."""
    out = np.empty(len(angles), dtype=complex)
    out.real = np.cos(angles)
    out.imag = np.sin(angles)
    return out


def pochhammer_table(order: int) -> PochhammerTable:
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    n = order
    # |1 - omega^j| = 2 sin(pi j/N) = |1 - omega^(N-j)|: the sine is taken
    # for j <= N/2, where its argument is accurate to a few ulps, and the
    # logs are mirrored onto j > N/2
    half = np.log(2.0 * np.sin(np.arange(1.0, n // 2 + 1) * (math.pi / n)))
    log_f = np.concatenate((half, half[: n - 1 - n // 2][::-1]))
    grid = np.rint(log_f / _LOG_GRID) * _LOG_GRID
    log_mag = np.zeros(n)
    np.cumsum(grid, out=log_mag[1:])
    fine = log_f - grid
    log_mag[1:] += np.cumsum(fine, out=fine)
    # in units of _EPS: per factor, 5 for the sine (its argument rounds
    # three times) and 2|log| for the log; the fine running sums, each below
    # k * grid/2; per entry, 4|log_mag| + 16 for adding the two sums, for the
    # exponential and phase in `values`, and for forming a summand
    err = _EPS * float(
        5.0 * (n - 1)
        + 2.0 * np.abs(log_f).sum()
        + n * n * _LOG_GRID / 4.0
        + 4.0 * np.abs(log_mag).max()
        + 16.0
    )
    return PochhammerTable(n, log_mag, err)


def _triangle_offsets(n: int) -> np.ndarray:
    """Start of each row r of the triangle {(r, c): r <= c < n}, row by row."""
    r = np.arange(n + 1, dtype=np.int64)
    return r * n - r * (r - 1) // 2


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


def _segment_error_factors(counts: np.ndarray) -> np.ndarray:
    """Relative rounding bounds of np.add.reduceat over complex segments
    of `counts` items, per sum |item| of each segment."""
    return _reduceat_factor_table(int(counts.max()).bit_length())[counts]


@functools.lru_cache(maxsize=None)
def _reduceat_factor_table(bits: int) -> np.ndarray:
    # reduceat adds a segment's first item to numpy's pairwise sum of the
    # rest; depth[m] is _pairwise_roundings(m, 2) for m < 2**bits, filled
    # in ranges whose halves (at most m/2 + 4 items) are already known
    m = np.arange(2**bits)
    depth = np.where(m < 4, np.maximum(m - 1, 0), m // 4 + 1 + m % 4)
    done = 64
    while done < len(m) - 1:
        top = min(2 * done - 8, len(m) - 1)
        rest = m[done + 1 : top + 1]
        left = rest // 8 * 4
        depth[done + 1 : top + 1] = 1 + np.maximum(depth[left], depth[rest - left])
        done = top
    factors = _EPS * (1.0 + depth[np.maximum(m - 1, 0)])
    factors[:2] = 0.0
    factors.flags.writeable = False
    return factors


class _SumSpace:
    """The 5_2 or 6_1 state sum at one order, laid out for chunked summation.

    Both run over the pairs of the triangle r <= c < N, laid out row by
    row,

        sum_{r<=c} X(c) / (omega)_r^* * omega^e(r, c),

    with X(c) = (omega)_c^2, e = -r(c+1) for 5_2 and X(c) = C(c),
    e = (c-r)(c+1) for 6_1 (see the module docstring).  Chunks address the
    flat range [lo, hi) and are decoded with searchsorted on the row
    offsets, so chunk contents depend only on (knot, order, chunk bounds).
    The row sums C(c) are built over the same triangle, in chunks of the
    same size, before any pair is summed.

    Direct mode carries plain complex factors, each reciprocal applied per
    factor: every C(c) and every pair term is then a partial sum of the
    triple sum's own terms and obeys its magnitude bound.  Logscale
    carries a factor as exp(log) * val with val of moderate size.  col_err
    bounds the absolute rounding error already in X(c), on the scale of
    col_val.
    """

    def __init__(
        self,
        knot: KnotId,
        table: PochhammerTable,
        direct: bool,
        chunk_size: int,
        threads: int,
    ):
        self.knot = knot
        self.table = table
        self.direct = direct
        # built here, so that no worker computes it on first use
        self.omega_pow = table.omega_pow
        n = table.order
        self.offsets = _triangle_offsets(n)
        self.total = int(self.offsets[-1])
        # row_val[r] is 1/(omega)_r^*, so its conjugate is 1/(omega)_r
        if direct:
            self.row_val = 1.0 / np.conj(table.values)
        else:
            self.row_log = -table.log_mag
            self.row_val = np.exp(1j * table.arg)
        if knot is KnotId.FIVE_TWO:
            if direct:
                self.col_val = table.values**2
            else:
                self.col_log = 2.0 * table.log_mag
                self.col_val = np.exp(2j * table.arg)
            self.col_err = None
        else:
            self._build_row_sums(chunk_size, threads)
        if not direct:
            self.col_abs = np.abs(self.col_val)

    def _indices(self, lo: int, hi: int):
        idx = np.arange(lo, hi)
        r = np.searchsorted(self.offsets, idx, side="right") - 1
        return r, r + (idx - self.offsets[r])

    def _omega_exponents(self, r, c):
        if self.knot is KnotId.FIVE_TWO:
            return (-(r * (c + 1))) % self.table.order
        return ((c - r) * (c + 1)) % self.table.order

    def _row_sum_pieces(self, lo: int, hi: int):
        """Partial row sums C(s) over flat positions [lo, hi).

        Row s of the triangle holds the terms |(omega)_m|^2 / (omega)_{m-s}
        for m = s .. N-1.  Returns, per row touched: the row, its shift, the
        shifted sum, the shifted sum of moduli and the error bound.
        """
        t = self.table
        s, m = self._indices(lo, hi)
        k = m - s
        rows = np.arange(s[0], s[-1] + 1)
        starts = np.maximum(self.offsets[rows], lo) - lo
        counts = np.diff(np.append(starts, hi - lo))
        recip = np.conj(self.row_val[k])
        if self.direct:
            terms = np.abs(t.values[m]) ** 2 * recip
            shift = np.zeros(len(rows))
            mods = np.abs(terms)
        else:
            lt = 2.0 * t.log_mag[m] - t.log_mag[k]
            shift = np.maximum.reduceat(lt, starts)
            mods = np.exp(lt - np.repeat(shift, counts))
            terms = mods * recip
        total = np.add.reduceat(terms, starts)
        mod_sum = np.add.reduceat(mods, starts)
        return rows, shift, total, mod_sum, _segment_error_factors(counts) * mod_sum

    def _build_row_sums(self, chunk_size: int, threads: int) -> None:
        pieces = _map_chunks(self._row_sum_pieces, self.total, chunk_size, threads)
        _, shift, self.col_val, _, self.col_err = (
            pieces[0] if len(pieces) == 1 else _merge_row_pieces(pieces)
        )
        if not self.direct:
            self.col_log = shift

    def direct_chunk(self, lo: int, hi: int):
        r, c = self._indices(lo, hi)
        terms = (
            self.row_val[r]
            * self.col_val[c]
            * self.omega_pow[self._omega_exponents(r, c)]
        )
        carried = 0.0
        if self.col_err is not None:
            carried = float(np.sum(np.abs(self.row_val[r]) * self.col_err[c]))
        s = complex(np.sum(terms))
        a = float(np.sum(np.abs(terms)))
        return 0.0, s, a, _sum_error_factor(hi - lo) * a + carried

    def logscale_chunk(self, lo: int, hi: int):
        r, c = self._indices(lo, hi)
        lt = self.row_log[r] + self.col_log[c]
        m = float(np.max(lt))
        w = np.exp(lt - m)
        terms = (
            w
            * self.row_val[r]
            * self.col_val[c]
            * self.omega_pow[self._omega_exponents(r, c)]
        )
        s = complex(np.sum(terms))
        a = float(np.sum(w * self.col_abs[c]))
        err = _sum_error_factor(hi - lo) * a
        if self.col_err is not None:
            err += float(np.sum(w * self.col_err[c]))
        return m, s, a, err


def _four_one_sum(table: PochhammerTable, direct: bool):
    """<4_1> = sum_k |(omega)_k|^2 = sum_k exp(2 log_mag[k]), in one pass.

    Returns (m, s, a, err): the sum is exp(m) * s with sum |term| =
    exp(m) * a, and err bounds its summation rounding on the scale of s.
    Logscale shifts by the largest term; direct mode, whose refusals keep
    every term finite, does not.
    """
    terms = 2.0 * table.log_mag
    m = 0.0 if direct else float(terms.max())
    terms -= m
    a = float(np.exp(terms, out=terms).sum())
    return m, complex(a), a, _sum_error_factor(table.order, width=1) * a


def _merge_row_pieces(pieces: list):
    """Merge the pieces of rows cut by chunk boundaries, in chunk order."""
    rows, shift, total, mod_sum, err = (np.concatenate(p) for p in zip(*pieces))
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    counts = np.diff(np.append(starts, len(rows)))
    row_shift = np.maximum.reduceat(shift, starts)
    w = np.exp(shift - np.repeat(row_shift, counts))
    mod_sum = np.add.reduceat(mod_sum * w, starts)
    return (
        rows[starts],
        row_shift,
        np.add.reduceat(total * w, starts),
        mod_sum,
        np.add.reduceat(err * w, starts) + _EPS * counts * mod_sum,
    )


def _direct_term_log_bound(knot: KnotId, table: PochhammerTable) -> float:
    lm = table.log_mag
    hi, lo = float(np.max(lm)), float(np.min(lm))
    if knot is KnotId.FOUR_ONE:
        return 2.0 * hi
    if knot is KnotId.FIVE_TWO:
        return 2.0 * hi - lo
    return 2.0 * hi - 2.0 * lo


@dataclass(frozen=True)
class InvariantValue:
    """One evaluated invariant <knot> at order N.

    value_log always holds the result; value_complex is its plain image
    when that fits in a double, else None.  term_count is the size of the
    state sum's index set (N, N(N+1)/2 or N(N+1)(N+2)/6), not the number
    of summands enumerated.  accum_error_estimate bounds, to first order,
    the relative error from summation and from the rounding in the
    Pochhammer table: each summand is a product of 2 (4_1), 3 (5_2) or 4
    (6_1) table entries, so the table adds that many PochhammerTable.err
    per unit of sum |summand|.  For 6_1 the summands are the pair terms
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


def _merge_partials(p, q):
    """Merge partial sums (m, s, a, err) of exp(m) * s (see _four_one_sum)."""
    m1, s1, a1, e1 = p
    m2, s2, a2, e2 = q
    m = m1 if m1 >= m2 else m2
    w1 = math.exp(m1 - m)
    w2 = math.exp(m2 - m)
    a = a1 * w1 + a2 * w2
    return m, s1 * w1 + s2 * w2, a, e1 * w1 + e2 * w2 + _EPS * a


def _tree_reduce(items: list, merge):
    while len(items) > 1:
        paired = [
            merge(items[i], items[i + 1]) for i in range(0, len(items) - 1, 2)
        ]
        if len(items) % 2:
            paired.append(items[-1])
        items = paired
    return items[0]


def _map_chunks(compute, total: int, chunk_size: int, threads: int) -> list:
    bounds = [
        (lo, min(lo + chunk_size, total)) for lo in range(0, total, chunk_size)
    ]
    if threads == 1:
        return [compute(lo, hi) for lo, hi in bounds]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda b: compute(*b), bounds))


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
    the cyclotomic field and is meant for small N oracle checks.  For
    fixed (knot, order, mode, chunk_size) the result is bit-identical for
    every thread count.  4_1 is summed in one pass over the table and
    ignores chunk_size and threads.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")

    if mode == "exact":
        return _exact_value(knot, order)

    table = pochhammer_table(order)

    if mode == "direct":
        table_log = float(np.max(np.abs(table.log_mag)))
        if table_log > _DIRECT_TABLE_LOG_LIMIT:
            raise OverflowError(
                f"direct mode refused: table log magnitude {table_log:.1f} "
                f"exceeds {_DIRECT_TABLE_LOG_LIMIT:.0f}; use logscale"
            )
        term_log = _direct_term_log_bound(knot, table)
        if term_log > _DIRECT_TERM_LOG_LIMIT:
            raise OverflowError(
                f"direct mode refused: term log magnitude bound "
                f"{term_log:.1f} exceeds {_DIRECT_TERM_LOG_LIMIT:.0f}; "
                f"use logscale"
            )

    direct = mode == "direct"
    # the sum is exp(m) * s, with sum |term| = exp(m) * a; direct mode
    # keeps m = 0, so merging its partial sums multiplies by exactly 1
    if knot is KnotId.FOUR_ONE:
        m, s, a, err = _four_one_sum(table, direct)
    else:
        space = _SumSpace(knot, table, direct, chunk_size, threads)
        chunk = space.direct_chunk if direct else space.logscale_chunk
        partials = _map_chunks(chunk, space.total, chunk_size, threads)
        m, s, a, err = _tree_reduce(partials, _merge_partials)
    err += SUMMAND_FACTORS[knot] * table.err * a
    count = cyclo.exact_term_count(knot, order)
    if s == 0:
        log = LogComplex(float("-inf"), 0.0, True)
        return InvariantValue(knot, order, mode, log, 0j, count, 0.0)
    log = LogComplex(
        m + math.log(abs(s)),
        float(_wrap_angle(math.atan2(s.imag, s.real))),
    )
    image = None
    if direct:
        image = s
    elif log.log_mag <= _EXP_OVERFLOW_LOG:
        image = log.to_complex()
    rel = err / abs(s)
    return InvariantValue(knot, order, mode, log, image, count, rel)


def growth_point(knot: KnotId, order: int, threads: int = 1) -> tuple[int, float]:
    """(N, log |<knot>|) for the growth-rate fit, always via logscale."""
    value = quantum_invariant(knot, order, "logscale", threads=threads)
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
