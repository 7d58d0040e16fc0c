"""Exact arithmetic in the cyclotomic field Q(omega), omega = exp(2*pi*i/N).

Elements are polynomials in omega with rational coefficients, reduced modulo
the N-th cyclotomic polynomial Phi_N.  Phi_N is irreducible over Q, so the
quotient is a field and every nonzero element has an inverse.  The state
sums need none: (omega)_{N-1} = N makes every reciprocal of a partial
product another partial product over N, so `exact_invariant` only adds and
multiplies.  This module is the slow exact oracle; the floating-point
engine lives in `invariant` and is checked against it at small N.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .knots import KnotId

__all__ = [
    "EXACT_TERM_BUDGET",
    "ExactBudgetError",
    "CycElement",
    "cyclotomic_polynomial",
    "exact_invariant",
    "exact_term_count",
]

# largest state-sum size the exact engine will attempt
EXACT_TERM_BUDGET = 10**6


class ExactBudgetError(ValueError):
    """Raised when an exact-mode state sum would exceed the term budget."""


def _trim(poly: list) -> list:
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _int_poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Long division of integer polynomials, constant term first.

    Every quotient step must come out to an integer; that holds for the
    cyclotomic recursion below, where all divisors are monic.
    """
    num = list(num)
    deg_den = len(den) - 1
    lead = den[-1]
    quot = [0] * max(len(num) - deg_den, 0)
    for i in range(len(num) - 1, deg_den - 1, -1):
        coeff = num[i]
        if coeff == 0:
            continue
        q, r = divmod(coeff, lead)
        if r:
            raise ArithmeticError("non-exact integer polynomial division")
        quot[i - deg_den] = q
        for j, d in enumerate(den):
            num[i - deg_den + j] -= q * d
    return quot, _trim(num)


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_order, constant term first, monic.

    Phi_1 = x - 1; for larger orders x^order - 1 is divided by Phi_d for
    every proper divisor d.  All divisions are exact over the integers.
    """
    if order < 1:
        raise ValueError(f"cyclotomic order must be >= 1, got {order}")
    poly = [-1] + [0] * (order - 1) + [1]
    for d in range(1, order):
        if order % d == 0:
            poly, rem = _int_poly_divmod(poly, list(cyclotomic_polynomial(d)))
            if rem:
                raise ArithmeticError("cyclotomic recursion left a remainder")
    return tuple(poly)


def _frac_poly_divmod(
    num: list[Fraction], den: list[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    num = list(num)
    deg_den = len(den) - 1
    inv_lead = 1 / den[-1]
    quot = [Fraction(0)] * max(len(num) - deg_den, 0)
    for i in range(len(num) - 1, deg_den - 1, -1):
        if num[i] == 0:
            continue
        q = num[i] * inv_lead
        quot[i - deg_den] = q
        for j, d in enumerate(den):
            num[i - deg_den + j] -= q * d
    return quot, _trim(num)


def _frac_poly_xgcd(
    a: list[Fraction], b: list[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    """Return (g, s) with s*a = g (mod b) via the extended Euclid loop."""
    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], []
    while r1:
        q, r = _frac_poly_divmod(r0, r1)
        r0, r1 = r1, r
        # s_next = s0 - q*s1
        prod = [Fraction(0)] * (len(q) + len(s1) - 1) if q and s1 else []
        for i, qi in enumerate(q):
            if qi == 0:
                continue
            for j, sj in enumerate(s1):
                prod[i + j] += qi * sj
        nxt = [Fraction(0)] * max(len(s0), len(prod))
        for i, c in enumerate(s0):
            nxt[i] += c
        for i, c in enumerate(prod):
            nxt[i] -= c
        s0, s1 = s1, _trim(nxt)
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
        phi = [Fraction(c) for c in cyclotomic_polynomial(order)]
        deg = len(phi) - 1
        rem = _trim([Fraction(c) for c in coeffs])
        if len(rem) > deg:
            _, rem = _frac_poly_divmod(rem, phi)
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
        e = exponent % order
        return cls.from_coeffs(order, [Fraction(0)] * e + [Fraction(1)])

    @property
    def degree_bound(self) -> int:
        return len(self.coeffs)

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
        a, b = self.coeffs, other.coeffs
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if bj == 0:
                    continue
                prod[i + j] += ai * bj
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
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        g, s = _frac_poly_xgcd(_trim(list(self.coeffs)), phi)
        if len(g) != 1:
            # cannot happen while Phi_N is irreducible
            raise ArithmeticError("gcd with Phi_N is not a unit")
        inv_g = 1 / g[0]
        return CycElement(
            self.order, self._reduced(self.order, [c * inv_g for c in s])
        )

    def __truediv__(self, other: "CycElement") -> "CycElement":
        return self * other.inverse()

    def evaluate_numeric(self) -> complex:
        """Image under omega -> exp(2*pi*i/N), by Horner evaluation."""
        omega = cmath.exp(2j * math.pi / self.order)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * omega + float(c)
        return acc


def _pochhammer_elements(order: int) -> tuple[list[CycElement], list[CycElement]]:
    """omega powers and the partial products prod_{j<=k} (1 - omega^j)."""
    om = [CycElement.omega_power(order, j) for j in range(order)]
    one = CycElement.one(order)
    poch = [one]
    for k in range(1, order):
        poch.append(poch[-1] * (one - om[k]))
    return om, poch


def exact_term_count(knot: KnotId, order: int) -> int:
    """Size of the state sum's index set: N, N(N+1)/2 or N(N+1)(N+2)/6."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if knot is KnotId.FOUR_ONE:
        return order
    if knot is KnotId.FIVE_TWO:
        return order * (order + 1) // 2
    # 6_1: triples k, l >= 0 with k + l <= m <= order - 1
    return order * (order + 1) * (order + 2) // 6


def exact_invariant(knot: KnotId, order: int) -> CycElement:
    """State sum over residues mod `order`, exactly, as a field element.

    (omega)_{N-1} = N turns every reciprocal into a partial product:
    1/(omega)_k^* = (omega)_{N-1-k}/N and 1/(omega)_k = (omega)_{N-1-k}^*/N,
    so no field inverse is taken.  5_2 is a sum over pairs k <= l; 6_1,
    with s = m - k, is a sum over pairs l <= s weighted by the row sums
    C(s) = sum_{k<=N-1-s} |(omega)_{k+s}|^2 (omega)_{N-1-k}^*.  Products
    are grouped by their residual omega exponent, so the omega powers are
    multiplied in once per exponent, and the powers of 1/N once at the end.
    """
    count = exact_term_count(knot, order)
    if count > EXACT_TERM_BUDGET:
        raise ExactBudgetError(
            f"{knot} at N={order} needs {count} exact terms; "
            f"budget is {EXACT_TERM_BUDGET}"
        )
    om, poch = _pochhammer_elements(order)
    conj = [p.conjugate() for p in poch]
    n = order

    if knot is KnotId.FOUR_ONE:
        total = CycElement.zero(n)
        for k in range(n):
            total = total + poch[k] * conj[k]
        return total

    buckets = [CycElement.zero(n) for _ in range(n)]
    if knot is KnotId.FIVE_TWO:
        sq = [p * p for p in poch]
        for k in range(n):
            for l in range(k, n):
                e = (-k * (l + 1)) % n
                buckets[e] = buckets[e] + sq[l] * poch[n - 1 - k]
        scale = Fraction(1, n)
    else:
        absq = [p * c for p, c in zip(poch, conj)]
        row = []
        for s in range(n):
            c_s = CycElement.zero(n)
            for k in range(n - s):
                c_s = c_s + absq[k + s] * conj[n - 1 - k]
            row.append(c_s)
        for l in range(n):
            for s in range(l, n):
                e = ((s - l) * (s + 1)) % n
                buckets[e] = buckets[e] + row[s] * poch[n - 1 - l]
        scale = Fraction(1, n * n)

    total = CycElement.zero(n)
    for e in range(n):
        if not buckets[e].is_zero():
            total = total + buckets[e] * om[e]
    return total * CycElement.rational(n, scale)
