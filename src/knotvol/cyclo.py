"""Exact arithmetic in the cyclotomic field Q(omega), omega = exp(2*pi*i/N).

`CycElement` holds a polynomial in omega with rational coefficients,
reduced modulo the N-th cyclotomic polynomial Phi_N.  Phi_N is irreducible
over Q, so the quotient is a field and every nonzero element has an
inverse.  One long division (`_poly_divmod`) and one product
(`_poly_mul`) serve the field, the cyclotomic recursion and the inverse.

The state sums need no inverse: (omega)_{N-1} = N makes every reciprocal
of a partial product another partial product over N.  So `exact_invariant`
works in the ring Z[x]/(x^N - 1), packed into the integers mod
M = 2^(bN) - 1 (`_PackedRing`), on one step: multiplying by a binomial
1 - x^e, one rotation and one subtraction.  It steps |(omega)_k|^2,
(omega)_k^2 and (omega)_k^* (`_partial_products`), 6_1's row sums before
their one product each (`_row_sums`) and the pair sum over the
(omega)_{N-1-r} (`_ring_sum`); a power of omega is a shift, and 4_1 and
5_2 take no big product.  The digit width b comes from the same sum over
the l1 norms of the partial products, which bounds every coefficient of
the result; rotations and conjugation keep norms, so that sum has a closed
form.  Phi_N divides x^N - 1, so reducing mod Phi_N is a ring homomorphism
onto Z[omega], done once, at the end (`_exact_residue`); the exact mode of
`invariant.quantum_invariant` takes its float image from those integers
and builds no Fraction.  This module is the exact oracle the float
engine in `invariant` is checked against.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .knots import SUMMAND_FACTORS, KnotId, check_knot, check_order, pair_exponent

__all__ = [
    "EXACT_TERM_BUDGET",
    "ExactBudgetError",
    "CycElement",
    "cyclotomic_polynomial",
    "exact_invariant",
    "exact_term_count",
]

# most work, in `_exact_work`'s bit operations, the exact engine will
# attempt: 4_1 to N = 4615, 5_2 to N = 875 and 6_1 to N = 546, each about
# 20 s on one core of a 2-vCPU Xeon
EXACT_TERM_BUDGET = 23 * 10**10

# the packed digit width grows as about 0.5N, 0.75N and N bits for 4_1,
# 5_2 and 6_1: the growth of the l1 bound (`_coefficient_bound`)
_WIDTH_PER_ORDER = {KnotId.FOUR_ONE: 0.5, KnotId.FIVE_TWO: 0.75, KnotId.SIX_ONE: 1.0}


class ExactBudgetError(ValueError):
    """Raised when an exact-mode state sum would exceed the work budget."""


def _trim(poly: list) -> list:
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _poly_divmod(num, den) -> tuple[list, list]:
    """Long division of polynomials, constant term first.

    A monic divisor needs no division, so integers stay integers; any
    other divisor divides as a Fraction, so every quotient is exact.
    """
    num = list(num)
    deg_den = len(den) - 1
    lead = den[-1]
    quot = [0] * max(len(num) - deg_den, 0)
    for i in range(len(num) - 1, deg_den - 1, -1):
        coeff = num[i]
        if coeff == 0:
            continue
        q = coeff if lead == 1 else Fraction(coeff) / lead
        quot[i - deg_den] = q
        for j, d in enumerate(den):
            num[i - deg_den + j] -= q * d
    return quot, _trim(num)


def _poly_mul(a, b) -> list:
    """Product of polynomials, constant term first."""
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj != 0:
                prod[i + j] += ai * bj
    return prod


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_order, constant term first, monic.

    Phi_1 = x - 1; for larger orders x^order - 1 is divided by Phi_d for
    every proper divisor d.  All divisors are monic, so every division is
    exact over the integers.
    """
    if order < 1:
        raise ValueError(f"cyclotomic order must be >= 1, got {order}")
    poly = [-1] + [0] * (order - 1) + [1]
    for d in range(1, order):
        if order % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
            if rem:
                raise ArithmeticError("cyclotomic recursion left a remainder")
    return tuple(poly)


def _poly_xgcd(a: list, b: list) -> tuple[list, list]:
    """Return (g, s) with s*a = g (mod b) via the extended Euclid loop."""
    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], []
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        # s_next = s0 - q*s1
        nxt = zip_longest(s0, _poly_mul(q, s1), fillvalue=0)
        s0, s1 = s1, _trim([x - y for x, y in nxt])
    return r0, s0


@dataclass(frozen=True)
class CycElement:
    """An element of Q(omega) stored as rational coefficients modulo Phi_N.

    `coeffs` always has length deg Phi_N, so equality of reduced coefficient
    tuples is equality in the field.
    """

    order: int
    coeffs: tuple[Fraction, ...]

    @staticmethod
    def _reduced(order: int, coeffs) -> tuple[Fraction, ...]:
        phi = cyclotomic_polynomial(order)
        deg = len(phi) - 1
        rem = _trim([Fraction(c) for c in coeffs])
        if len(rem) > deg:
            _, rem = _poly_divmod(rem, phi)
        return tuple(rem) + (Fraction(0),) * (deg - len(rem))

    @classmethod
    def from_coeffs(cls, order: int, coeffs) -> "CycElement":
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        return cls(order, cls._reduced(order, coeffs))

    @classmethod
    def rational(cls, order: int, value) -> "CycElement":
        return cls.from_coeffs(order, [Fraction(value)])

    @classmethod
    def zero(cls, order: int) -> "CycElement":
        return cls.rational(order, 0)

    @classmethod
    def one(cls, order: int) -> "CycElement":
        return cls.rational(order, 1)

    @classmethod
    def omega_power(cls, order: int, exponent: int) -> "CycElement":
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        e = exponent % order
        return cls.from_coeffs(order, [Fraction(0)] * e + [Fraction(1)])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check_same_field(self, other: "CycElement") -> None:
        if self.order != other.order:
            raise ValueError(
                f"mixed cyclotomic orders {self.order} and {other.order}"
            )

    def __add__(self, other: "CycElement") -> "CycElement":
        self._check_same_field(other)
        return CycElement(
            self.order,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "CycElement") -> "CycElement":
        self._check_same_field(other)
        return CycElement(
            self.order,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self) -> "CycElement":
        return CycElement(self.order, tuple(-c for c in self.coeffs))

    def __mul__(self, other: "CycElement") -> "CycElement":
        self._check_same_field(other)
        prod = _poly_mul(self.coeffs, other.coeffs)
        return CycElement(self.order, self._reduced(self.order, prod))

    def conjugate(self) -> "CycElement":
        """Complex conjugation, realized as the substitution omega -> omega^(N-1)."""
        n = self.order
        lifted = [Fraction(0)] * n if n > 1 else [Fraction(0)]
        for i, c in enumerate(self.coeffs):
            lifted[(i * (n - 1)) % n] += c
        return CycElement(n, self._reduced(n, lifted))

    def inverse(self) -> "CycElement":
        """Field inverse via the extended Euclid algorithm against Phi_N."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(omega)")
        phi = cyclotomic_polynomial(self.order)
        g, s = _poly_xgcd(_trim(list(self.coeffs)), phi)
        if len(g) != 1:
            # cannot happen while Phi_N is irreducible
            raise ArithmeticError("gcd with Phi_N is not a unit")
        inv_g = 1 / Fraction(g[0])
        return CycElement(
            self.order, self._reduced(self.order, [c * inv_g for c in s])
        )

    def __truediv__(self, other: "CycElement") -> "CycElement":
        return self * other.inverse()

    def evaluate_numeric(self) -> complex:
        """Image under omega -> exp(2*pi*i/N), by Horner evaluation."""
        return _horner([float(c) for c in self.coeffs], self.order)


def _horner(coeffs: list[float], order: int) -> complex:
    """sum_j coeffs[j] omega^j at omega = exp(2*pi*i/order), by Horner's
    rule from the top coefficient down: one complex product and one
    addition a coefficient.  The one float image of a field element,
    for `CycElement.evaluate_numeric` and the exact mode of
    `invariant.quantum_invariant` alike."""
    omega = cmath.exp(2j * math.pi / order)
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * omega + c
    return acc


def exact_term_count(knot: KnotId, order: int) -> int:
    """Size of the state sum's index set: N, N(N+1)/2 or N(N+1)(N+2)/6,
    C(N + f - 2, f - 1) for a summand of f factors (k; k <= l; k + l <= m)."""
    f = SUMMAND_FACTORS[check_knot(knot)]
    order = check_order(order)
    return math.comb(order + f - 2, f - 1)


def _exact_work(knot: KnotId, order: int) -> float:
    """The work `_exact_residue` takes, in one-bit shifts or additions,
    estimated from knot and N alone, so that the budget is checked before
    any O(N^2) step.

    A packed element has about w = N (cN + 16) bits, c from
    `_WIDTH_PER_ORDER`.  The (d + 2) N binomial steps take about 2w each;
    the d N^2 / 2 steps of 5_2's pair sum and of 6_1's pair and row sums
    about w; 6_1's N products w^log2(3) / 2 (Karatsuba); and the N^2 steps
    of the norm rows about 1500.  Fitted to whole calls at N = 500 .. 4000
    (4_1), 300 .. 800 (5_2) and 150 .. 500 (6_1), within 20%.
    """
    n, d = order, SUMMAND_FACTORS[knot] - 2
    w = n * (_WIDTH_PER_ORDER[knot] * n + 16)
    products = n * w ** math.log2(3) / 2 if knot is KnotId.SIX_ONE else 0.0
    return 1500 * n * n + 2 * (d + 2) * n * w + d * n * n / 2 * w + products


def _pochhammer_norms(order: int) -> list[int]:
    """The l1 norms of (omega)_k, k < N, in Z[x]/(x^N - 1), read by
    `_coefficient_bound`: one coefficient list stepped through its
    recursion, where multiplying by 1 - x^k subtracts the list rotated
    by k places."""
    row, norms = [1] + [0] * (order - 1), [1]
    for k in range(1, order):
        row = list(map(operator.sub, row, row[-k:] + row[:-k]))
        norms.append(sum(map(abs, row)))
    return norms


class _PackedRing:
    """Z[x]/(x^N - 1) evaluated at x = 2^b: the integers mod M = 2^(bN) - 1.

    x^N = 2^(bN) = 1 mod M, so the evaluation is a ring homomorphism: a
    sum or product of elements is one integer sum or product reduced mod
    M (Kronecker substitution), and multiplying by x^e rotates the bN-bit
    word by be bits.  A coefficient c is stored as the biased b-bit digit
    c + 2^(b-1); `offset`, every digit 2^(b-1), is subtracted once when
    packing and added once when unpacking, so coefficients below 2^(b-1)
    in magnitude, as `coeff_bound` sizes b for, are read back exactly.
    """

    def __init__(self, order: int, coeff_bound: int):
        self.order = order
        self.width = (coeff_bound.bit_length() + 8) // 8  # bytes, sign bit included
        self.bits = 8 * self.width
        self.total_bits = self.bits * order
        self.mod = (1 << self.total_bits) - 1
        self.bias = 1 << (self.bits - 1)
        self.offset = self.mod // ((1 << self.bits) - 1) * self.bias

    def reduce(self, z: int) -> int:
        """The residue of z >= 0 in [0, M), by folding at bN bits."""
        while z > self.mod:
            z = (z & self.mod) + (z >> self.total_bits)
        return 0 if z == self.mod else z

    def pack(self, coeffs: list[int]) -> int:
        """The residue of the element with coefficients `coeffs`, one
        `to_bytes` digit each.  The exact sum builds its elements in the
        ring and never packs one; the tests read this as the reference
        for those elements, and a big-float engine can pack its digits
        with the same biased bytes."""
        w, bias = self.width, self.bias
        data = b"".join((c + bias).to_bytes(w, "little") for c in coeffs)
        z = int.from_bytes(data, "little") - self.offset
        return z + self.mod if z < 0 else z

    def rotate(self, z: int, exponent: int) -> int:
        """x^exponent * z for a reduced z."""
        shift = self.bits * (exponent % self.order)
        if not shift:
            return z
        return ((z << shift) & self.mod) | (z >> (self.total_bits - shift))

    def unpack(self, z: int) -> list[int]:
        """Coefficients of the element with small coefficients whose image is z."""
        if z > self.mod >> 1:
            z -= self.mod  # the image of a signed digit vector lies in (-M/2, M/2)
        w, bias = self.width, self.bias
        data = (z + self.offset).to_bytes(self.order * w, "little")
        return [
            int.from_bytes(data[i : i + w], "little") - bias
            for i in range(0, len(data), w)
        ]


def _partial_products(ring: _PackedRing, signs: tuple[int, ...]):
    """The residues z_k, k < N, of z_0 = 1, z_k = z_(k-1) prod_(s in signs)
    (1 - x^(sk)), yielded as they are stepped: (omega)_k^* for (-1,),
    |(omega)_k|^2 for (1, -1) and (omega)_k^2 for (1, 1).  A binomial is
    one rotation and one subtraction mod M."""
    z = 1
    yield z
    for k in range(1, ring.order):
        for s in signs:
            z -= ring.rotate(z, s * k)
            if z < 0:
                z += ring.mod
        yield z


def _row_sums(ring: _PackedRing, absq: list[int], conj: list[int]) -> list[int]:
    """The residues of 6_1's row sums
    C(s) = sum_{k<=N-1-s} |(omega)_(k+s)|^2 (omega)_(N-1-k)^*, s < N, from
    those of |(omega)_k|^2 and (omega)_k^*.

    (omega)_(N-1-k)^* = (omega)_(N-2-k)^* (1 - x^(k+1)) in Z[x]/(x^N - 1),
    so C(s) = (omega)_s^* H by Horner's rule: H starts at |(omega)_s|^2
    and steps through H <- H - x^k H + |(omega)_(k+s)|^2 for k = 1 ..
    N-1-s, one rotation and two additions mod M a step.  A row takes one
    big product, N in all, where the correlation takes N(N+1)/2.
    """
    n, mod = ring.order, ring.mod
    out = []
    for s in range(n):
        h = absq[s]
        for k in range(1, n - s):
            h += absq[k + s] - ring.rotate(h, k)
            if h < 0:
                h += mod
            elif h >= mod:
                h -= mod
        out.append(ring.reduce(h * conj[s]))
    return out


def _coefficient_bound(knot: KnotId, norms: list[int]) -> int:
    """A bound on every coefficient of `_ring_sum`: the state sum formed
    over the l1 norms of the (omega)_k, in closed form.

    The norm is subadditive and submultiplicative in Z[x]/(x^N - 1), and
    rotations and conjugation keep it, so over norms row r's inner sum
    over c >= r is the suffix sum of the column norms.  That is O(N) for
    4_1 and 5_2 and O(N^2) products of small integers for 6_1's C(s).
    """
    if knot is KnotId.FOUR_ONE:
        return sum(a * a for a in norms)
    if knot is KnotId.FIVE_TWO:
        col = [a * a for a in norms]
    else:
        absq = [a * a for a in norms]
        rev = norms[::-1]  # C(s) pairs |(omega)_(k+s)|^2 with (omega)_(N-1-k)^*
        col = [sum(map(operator.mul, absq[s:], rev)) for s in range(len(norms))]
    total = suffix = 0
    for r in range(len(norms) - 1, -1, -1):
        suffix += col[r]
        total += norms[-1 - r] * suffix
    return total


def exact_invariant(knot: KnotId, order: int) -> CycElement:
    """State sum over residues mod `order`, exactly, as a field element.

    (omega)_{N-1} = N turns every reciprocal into a partial product:
    1/(omega)_k^* = (omega)_{N-1-k}/N and 1/(omega)_k = (omega)_{N-1-k}^*/N,
    so N^d <knot> (d = 0, 1, 2) is a sum of products of partial products
    and omega powers, computed in Z[x]/(x^N - 1) packed as the integers
    mod M (`_PackedRing`), which maps into Q(omega) by reduction mod Phi_N.
    With e(r, c) = e(0, c) - r(c+1) (`knots.pair_exponent`):

        <4_1>      = sum_k |(omega)_k|^2,
        N^d <knot> = sum_r (omega)_{N-1-r} sum_{c>=r} x^e(r, c) col[c],
        col[c]     = (omega)_c^2 (5_2) or C(c) (6_1),
        C(s)       = sum_{k<=N-1-s} |(omega)_{k+s}|^2 (omega)_{N-1-k}^*.

    Each factor is stepped by binomials 1 - x^e (`_partial_products`)
    and the sums over r and k by Horner's rule (`_ring_sum`,
    `_row_sums`), so only 6_1's N row sums take a big product.  The
    digit width comes from the same sum over l1 norms, in closed form
    (`_coefficient_bound`).  The integer result is reduced mod Phi_N once
    (`_exact_residue`), and each coefficient divided by N^d.
    """
    knot = check_knot(knot)
    order = check_order(order)
    coeffs, scale = _exact_residue(knot, order)
    return CycElement(order, tuple(Fraction(c, scale) for c in coeffs))


def _exact_residue(knot: KnotId, order: int) -> tuple[list[int], int]:
    """N^d <knot> reduced mod Phi_N, and the scale N^d: the deg Phi_N
    integer coefficients c_j, constant term first, with
    <knot> = sum_j c_j omega^j / N^d (see `exact_invariant`).

    Raises ExactBudgetError past `EXACT_TERM_BUDGET` bit operations
    (`_exact_work`).  The float image of exact mode is read from these
    integers, with no Fraction.
    """
    work = _exact_work(knot, order)
    if work > EXACT_TERM_BUDGET:
        raise ExactBudgetError(
            f"{knot} at N={order} needs about {work:.1e} bit operations in "
            f"exact mode, past the budget of {EXACT_TERM_BUDGET:.1e}; "
            "use mode logscale or a smaller N"
        )
    ring = _PackedRing(order, _coefficient_bound(knot, _pochhammer_norms(order)))
    lifted = ring.unpack(_ring_sum(knot, ring))
    phi = cyclotomic_polynomial(order)
    rem = _poly_divmod(lifted, phi)[1]
    # each reciprocal in a summand became a partial product over N
    scale = order ** (SUMMAND_FACTORS[knot] - 2)
    return rem + [0] * (len(phi) - 1 - len(rem)), scale


def _ring_sum(knot: KnotId, ring: _PackedRing) -> int:
    """N^d <knot> (see `exact_invariant`) as its residue in `ring`, N =
    `ring.order`, built from one step: multiplying by a binomial 1 - x^e.

    4_1 sums |(omega)_k|^2 as `_partial_products` steps it.  Row r's
    columns are summed into R(r) = sum_(c>=r) x^e(r, c) col[c]; x^e z is
    z << be, congruent mod M to the rotation, so a pair costs one shift
    and each row is folded once by `ring.reduce`.  Row r's shifts are
    b (e(0, c) - r(c+1) mod N): `knots.pair_exponent` is read N times,
    for row 0, not once a pair.  (omega)_(N-1-r) is never formed: it is
    (omega)_(N-2-r) (1 - x^(N-1-r)), so sum_r (omega)_(N-1-r) R(r) is
    Horner's rule, g <- R(r) + g - x^(-r) g for r = 0 .. N-1 from g = 0.
    """
    n, mod, bits = ring.order, ring.mod, ring.bits
    if knot is KnotId.FOUR_ONE:
        return ring.reduce(sum(_partial_products(ring, (1, -1))))
    if knot is KnotId.FIVE_TWO:
        col = list(_partial_products(ring, (1, 1)))
    else:
        absq = _partial_products(ring, (1, -1))
        col = _row_sums(ring, list(absq), list(_partial_products(ring, (-1,))))
    head = [pair_exponent(knot, 0, c) for c in range(n)]
    g = 0
    for r in range(n):
        shifts = [bits * ((e - r * (c + 1)) % n) for c, e in enumerate(head[r:], r)]
        acc = sum(map(operator.lshift, col[r:], shifts))
        # mod - x^(-r) g is -x^(-r) g, kept nonnegative for the fold
        g = ring.reduce(acc + g + mod - ring.rotate(g, -r))
    return g
