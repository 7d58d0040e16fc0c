"""Exact cyclotomic arithmetic, checked against an in-file polynomial oracle."""

import math
import random
from fractions import Fraction

import pytest

from knotvol import cyclo
from knotvol.asymfit import GrowthSeries, fit_growth
from knotvol.cyclo import (
    EXACT_TERM_BUDGET,
    CycElement,
    ExactBudgetError,
    _PackedRing,
    _coefficient_bound,
    _exact_work,
    _partial_products,
    _pochhammer_rows,
    _ring_sum,
    _row_sums,
    cyclotomic_polynomial,
    exact_invariant,
    exact_term_count,
)
from knotvol.knots import SUMMAND_FACTORS, KnotId, pair_exponent


# --- tiny independent polynomial toolbox (coefficients constant-first) ---

def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _divmod_exact(num, den):
    # long division over the rationals; remainder returned as-is
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    while len(num) >= len(den) and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        shift = len(num) - len(den)
        factor = num[-1] / den[-1]
        quot[shift] = factor
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def _oracle_cyclotomic(order):
    # x^order - 1 divided by the product of all proper-divisor polynomials
    den = [1]
    for d in range(1, order):
        if order % d == 0:
            den = _mul(den, _oracle_cyclotomic(d))
    num = [-1] + [0] * (order - 1) + [1]
    quot, rem = _divmod_exact(num, den)
    assert not rem
    return tuple(int(c) for c in quot)


def test_cyclotomic_matches_division_oracle():
    for order in range(1, 31):
        assert cyclotomic_polynomial(order) == _oracle_cyclotomic(order)


def test_cyclotomic_known_coefficients():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_factors_reassemble():
    # the product over all divisors must give back x^N - 1 exactly
    for order in range(1, 65):
        prod = [1]
        for d in range(1, order + 1):
            if order % d == 0:
                prod = _mul(prod, list(cyclotomic_polynomial(d)))
        expected = [-1] + [0] * (order - 1) + [1]
        assert prod == expected


def test_cyclotomic_rejects_bad_order():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


_ORDERS = (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 20)


def _random_element(rng, order):
    deg = len(cyclotomic_polynomial(order)) - 1
    return CycElement.from_coeffs(
        order, [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(deg)]
    )


def test_field_axioms_on_random_elements():
    rng = random.Random(20260819)
    for order in _ORDERS:
        one = CycElement.one(order)
        for _ in range(8):
            a = _random_element(rng, order)
            b = _random_element(rng, order)
            c = _random_element(rng, order)
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a - a == CycElement.zero(order)
            if not a.is_zero():
                assert a * a.inverse() == one
                assert (one / a) * a == one


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        CycElement.zero(12).inverse()


def test_conjugation_is_an_involution_and_multiplicative():
    rng = random.Random(7)
    for order in _ORDERS:
        for _ in range(6):
            a = _random_element(rng, order)
            b = _random_element(rng, order)
            assert a.conjugate().conjugate() == a
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_conjugation_agrees_with_numeric_conjugate():
    rng = random.Random(11)
    for order in _ORDERS:
        for _ in range(4):
            a = _random_element(rng, order)
            lhs = a.conjugate().evaluate_numeric()
            rhs = a.evaluate_numeric().conjugate()
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def test_omega_power_reduces_exponent():
    assert CycElement.omega_power(7, 9) == CycElement.omega_power(7, 2)
    assert CycElement.omega_power(7, -1) == CycElement.omega_power(7, 6)
    assert abs(CycElement.omega_power(4, 1).evaluate_numeric() - 1j) <= 1e-15
    # omega^N = 1
    for order in _ORDERS:
        acc = CycElement.one(order)
        w = CycElement.omega_power(order, 1)
        for _ in range(order):
            acc = acc * w
        assert acc == CycElement.one(order)


def test_rational_embedding():
    e = CycElement.rational(7, Fraction(5))
    assert e.evaluate_numeric() == 5 + 0j
    assert e.coeffs[0] == 5 and all(c == 0 for c in e.coeffs[1:])
    # integer coefficients, as the dataclass takes them, invert exactly
    a = CycElement(7, (1, 2, 0, 0, 0, 0))
    assert a.inverse() == CycElement.from_coeffs(7, a.coeffs).inverse()
    assert a * a.inverse() == CycElement.one(7)


def test_mixed_order_arithmetic_rejected():
    with pytest.raises(ValueError):
        CycElement.one(5) + CycElement.one(7)


# --- Z[x]/(x^N - 1) packed into integers ---

def test_packed_ring_matches_list_arithmetic():
    # coefficients at the bound, of either sign, survive the read-back,
    # also when the bound fills whole bytes
    for order in (1, 2, 5):
        for bound in (1, 127, 128, 255, 2**16 - 1, 3**40):
            ring = _PackedRing(order, bound)
            for sign in (1, -1):
                edge = [sign * bound * (-1) ** i for i in range(order)]
                assert ring.unpack(ring.pack(edge)) == edge
    rng = random.Random(3)
    for order in (1, 2, 3, 7, 12, 31):
        ring = _PackedRing(order, 999 * 999 * order)
        for _ in range(5):
            a = [rng.randint(-999, 999) for _ in range(order)]
            b = [rng.randint(-999, 999) for _ in range(order)]
            assert ring.unpack(ring.pack(a)) == a
            cyclic = [
                sum(a[i] * b[(k - i) % order] for i in range(order))
                for k in range(order)
            ]
            product = ring.reduce(ring.pack(a) * ring.pack(b))
            assert ring.unpack(product) == cyclic
            e = rng.randrange(-2 * order, 2 * order)
            rotated = [a[(i - e) % order] for i in range(order)]
            assert ring.unpack(ring.rotate(ring.pack(a), e)) == rotated


# --- exact state sums ---

def test_coefficient_bound_covers_the_sum():
    # the digit width comes from this bound: read back with room to spare,
    # no coefficient of the sum may exceed it, and it is no looser than
    # count * max ||(w)_k||_1^(factors)
    for knot in KnotId:
        for order in range(1, 31):
            rows = _pochhammer_rows(order)
            bound = _coefficient_bound(knot, rows)
            ring = _PackedRing(order, bound << 64)
            coeffs = ring.unpack(_ring_sum(knot, ring))
            assert max(map(abs, coeffs)) <= bound, (knot, order)
            l1 = max(sum(map(abs, row)) for row in rows)
            old = exact_term_count(knot, order) * l1 ** SUMMAND_FACTORS[knot]
            assert bound <= old, (knot, order)


@pytest.mark.parametrize(
    "knot, bits",
    [
        (KnotId.FOUR_ONE, (24, 40, 64)),
        (KnotId.FIVE_TWO, (32, 64, 96)),
        (KnotId.SIX_ONE, (40, 80, 120)),
    ],
)
def test_coefficient_bound_is_no_looser(knot, bits):
    # the digit widths of the l1 bound at three orders: a looser bound
    # would pack longer words into every product
    for order, expected in zip((20, 60, 100), bits):
        bound = _coefficient_bound(knot, _pochhammer_rows(order))
        assert _PackedRing(order, bound).bits == expected, order


class _L1Norms:
    # a stand-in for _PackedRing that maps each element to its l1 norm;
    # rotations and conjugation keep the norm
    pack = staticmethod(lambda coeffs: sum(map(abs, coeffs)))
    reduce = staticmethod(lambda z: z)
    rotate = staticmethod(lambda z, exponent: z)


def _correlated_row_sums(ring, absq, conj):
    # C(s) = sum_k |(w)_(k+s)|^2 (w)_(N-1-k)^* as written: N(N+1)/2 products
    n = len(absq)
    return [
        ring.reduce(sum(absq[k + s] * conj[n - 1 - k] for k in range(n - s)))
        for s in range(n)
    ]


def _stand_in_ring_sum(knot, rows, ring):
    # the state sum run pair by pair over a ring given as pack, reduce and
    # rotate, each row packed digit by digit: over _L1Norms it is the
    # coefficient bound term by term, over a _PackedRing the sum itself
    n = len(rows)
    poch = [ring.pack(row) for row in rows]
    conj = [ring.pack(row[:1] + row[:0:-1]) for row in rows]
    if knot is KnotId.FOUR_ONE:
        return ring.reduce(sum(p * c for p, c in zip(poch, conj)))
    if knot is KnotId.FIVE_TWO:
        col = [ring.reduce(p * p) for p in poch]
    else:
        col = _correlated_row_sums(ring, [ring.reduce(p * c) for p, c in zip(poch, conj)], conj)
    total = 0
    for r in range(n):
        acc = sum(ring.rotate(col[c], pair_exponent(knot, r, c)) for c in range(r, n))
        total += ring.reduce(acc) * poch[n - 1 - r]
    return ring.reduce(total)


def test_coefficient_bound_is_the_pair_sum_over_norms():
    # the closed form is the l1 sum run pair by pair, to the last unit
    for knot in KnotId:
        for order in range(1, 41):
            rows = _pochhammer_rows(order)
            want = _stand_in_ring_sum(knot, rows, _L1Norms)
            assert _coefficient_bound(knot, rows) == want, (knot, order)


def test_ring_sum_matches_the_packed_pair_sum():
    # partial products from the recursion and shifts for rotations give
    # the residue that packed rows and rotations give
    for knot in KnotId:
        for order in range(1, 31):
            rows = _pochhammer_rows(order)
            ring = _PackedRing(order, _coefficient_bound(knot, rows))
            want = _stand_in_ring_sum(knot, rows, ring)
            assert _ring_sum(knot, ring) == want, (knot, order)


def test_row_sums_match_the_correlation():
    # Horner's rule gives the correlation's residues, one product a row
    for order in range(1, 41):
        ring = _PackedRing(order, _coefficient_bound(KnotId.SIX_ONE, _pochhammer_rows(order)))
        poch, conj = _partial_products(ring, 1), _partial_products(ring, -1)
        absq = [ring.reduce(p * c) for p, c in zip(poch, conj)]
        assert _row_sums(ring, absq, conj) == _correlated_row_sums(ring, absq, conj), order


def test_partial_products_match_packed_rows():
    # the recursion in the packed ring gives the residues that packing
    # the rows and their conjugates gives, in a tight ring and a wide one
    for order in range(1, 31):
        rows = _pochhammer_rows(order)
        conj = [row[:1] + row[:0:-1] for row in rows]
        tight = max(abs(c) for row in rows for c in row)
        for bound in (tight, _coefficient_bound(KnotId.SIX_ONE, rows)):
            ring = _PackedRing(order, bound)
            assert _partial_products(ring, 1) == [ring.pack(r) for r in rows], order
            assert _partial_products(ring, -1) == [ring.pack(r) for r in conj], order


def _oracle_term_count(knot, order):
    # brute enumeration of the index set
    if knot is KnotId.FOUR_ONE:
        return order
    if knot is KnotId.FIVE_TWO:
        return sum(1 for k in range(order) for l in range(k, order))
    return sum(
        1
        for k in range(order)
        for l in range(order)
        for m in range(order)
        if k + l <= m
    )


def test_term_counts_match_brute_enumeration():
    for knot in KnotId:
        for order in range(1, 9):
            assert exact_term_count(knot, order) == _oracle_term_count(knot, order)


def test_invariant_is_one_at_order_one():
    for knot in KnotId:
        assert exact_invariant(knot, 1) == CycElement.one(1)


def test_invariant_at_order_two_gives_determinants():
    expected = {KnotId.FOUR_ONE: 5, KnotId.FIVE_TWO: 7, KnotId.SIX_ONE: 9}
    for knot, det in expected.items():
        assert exact_invariant(knot, 2) == CycElement.rational(2, Fraction(det))


def test_four_one_small_orders():
    # <4_1> at N=3: factors (omega)_1 = 1-omega and (omega)_2 = 3, so the
    # sum is 1 + 3 + 9 = 13; at N=4 it comes to 27
    assert exact_invariant(KnotId.FOUR_ONE, 3) == CycElement.rational(3, Fraction(13))
    v4 = exact_invariant(KnotId.FOUR_ONE, 4).evaluate_numeric()
    assert abs(v4 - 27) <= 1e-12


def test_invariant_values_are_self_conjugate_for_four_one():
    # |.|^2 summands force a real (conjugation-fixed) result
    for order in (2, 3, 5, 8, 12):
        v = exact_invariant(KnotId.FOUR_ONE, order)
        assert v.conjugate() == v


def _defining_sum(knot, order):
    # the state sum as written, one field division per summand
    n = order
    om = [CycElement.omega_power(n, j) for j in range(n)]
    one = CycElement.one(n)
    poch = [one]
    for j in range(1, n):
        poch.append(poch[-1] * (one - om[j]))
    conj = [p.conjugate() for p in poch]
    total = CycElement.zero(n)
    if knot is KnotId.FOUR_ONE:
        for k in range(n):
            total = total + poch[k] * conj[k]
    elif knot is KnotId.FIVE_TWO:
        for k in range(n):
            for l in range(k, n):
                total = total + poch[l] * poch[l] * om[(-k * (l + 1)) % n] / conj[k]
    else:
        for k in range(n):
            for l in range(n - k):
                for m in range(k + l, n):
                    e = ((m - k - l) * (m - k + 1)) % n
                    term = poch[m] * conj[m] * om[e] / (poch[k] * conj[l])
                    total = total + term
    return total


def test_invariant_matches_defining_sum_with_divisions():
    for knot in KnotId:
        for order in range(1, 13):
            want = _defining_sum(knot, order)
            assert exact_invariant(knot, order) == want, (knot, order)


# --- Habiro's cyclotomic expansion: an oracle for the formulas ---
#
# The colored Jones polynomial of the twist knot K_p (Masbaum, AGT 2003) is
#     J_N(K_p) = sum_{n<N} f_n(q) (q^(1+N))_n (q^(1-N))_n,
#     f_n = q^n sum_{k<=n} (-1)^k q^(k(k+1)p + k(k-1)/2) (1 - q^(2k+1))
#                          (q)_n / ((q)_(n+k+1) (q)_(n-k)),
# and at q = omega each product (q^(1+-N))_n is (omega)_n.  p = -1, 2, -2
# give 4_1, 5_2 and 6_1; the state sums are these values up to a unit.


def _add_shifted(acc, poly, shift, sign):
    # acc += sign * x^shift * poly
    acc.extend([0] * (shift + len(poly) - len(acc)))
    for i, c in enumerate(poly):
        acc[shift + i] += sign * c


def _gaussian_binomials(top):
    # rows[m][j] = [m, j]_q, by [m, j] = [m-1, j-1] + q^j [m-1, j]
    rows = [[[1]]]
    for m in range(1, top + 1):
        row = [[1]]
        for j in range(1, m):
            acc = list(rows[m - 1][j - 1])
            _add_shifted(acc, rows[m - 1][j], j, 1)
            row.append(acc)
        rows.append(row + [[1]])
    return rows


def _divide_exactly(num, den):
    # integer long division by a divisor with leading coefficient +-1
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for i in range(len(quot) - 1, -1, -1):
        quot[i] = q = num[i + len(den) - 1] * den[-1]
        for j, d in enumerate(den):
            num[i + j] -= q * d
    assert not any(num), "f_n is not a Laurent polynomial"
    return quot


def _cyclic_mul(a, b):
    n = len(a)
    return [sum(a[i] * b[(t - i) % n] for i in range(n)) for t in range(n)]


def _habiro_sum(p, order):
    # (q)_n / ((q)_(n+k+1) (q)_(n-k)) is [2n+1, n-k] / prod_{j=n+1}^{2n+1}
    # (1 - q^j): f_n is the sum over k times the q-binomial, divided
    # exactly by that product, then reduced mod x^N - 1
    binom = _gaussian_binomials(2 * order - 1)
    total, poch = [0] * order, [1] + [0] * (order - 1)
    for n in range(order):
        if n:
            poch = [poch[i] - poch[(i - n) % order] for i in range(order)]
        exps = [k * (k + 1) * p + k * (k - 1) // 2 for k in range(n + 1)]
        low = min(exps)
        num = []
        for k, e in enumerate(exps):
            row = binom[2 * n + 1][n - k]
            _add_shifted(num, row, e - low, (-1) ** k)
            _add_shifted(num, row, e - low + 2 * k + 1, -((-1) ** k))
        den = [1]
        for j in range(n + 1, 2 * n + 2):
            den = _mul(den, [1] + [0] * (j - 1) + [-1])
        f = [0] * order
        for i, c in enumerate(_divide_exactly(num, den)):
            f[(i + n + low) % order] += c
        term = _cyclic_mul(f, _cyclic_mul(poch, poch))
        total = [x + y for x, y in zip(total, term)]
    return CycElement.from_coeffs(order, total)


_TWIST = {KnotId.FOUR_ONE: -1, KnotId.FIVE_TWO: 2, KnotId.SIX_ONE: -2}


@pytest.mark.parametrize("knot", list(KnotId))
def test_invariant_matches_habiro_expansion(knot):
    # J_N(K_p)(omega) = <4_1>, omega^-1 <5_2> and conj <6_1>, exactly
    for order in range(1, 11):
        value = exact_invariant(knot, order)
        if knot is KnotId.FIVE_TWO:
            value = CycElement.omega_power(order, -1) * value
        elif knot is KnotId.SIX_ONE:
            value = value.conjugate()
        assert value == _habiro_sum(_TWIST[knot], order), (knot, order)


def _habiro_volume(twist):
    # fitted volume of log |J_N(K_p; omega)|, N = 6, 8, ..., 20; the knot
    # of a GrowthSeries is only a label, fit_growth never reads it
    points = tuple(
        (n, math.log(abs(_habiro_sum(twist, n).evaluate_numeric())))
        for n in range(6, 21, 2)
    )
    return fit_growth(GrowthSeries(KnotId.FOUR_ONE, points)).volume_estimate


def test_growth_fit_finds_no_volume_for_the_trefoil():
    # p = 1 is the trefoil, which is not hyperbolic: |J_N(3_1; omega)|
    # grows like N^(3/2), so the fit must not invent a volume; p = -1,
    # 4_1 on the same window, is the positive control
    assert abs(_habiro_volume(1)) < 0.25
    assert _habiro_volume(-1) > 1.8


def _no_rows(order):
    raise AssertionError(f"O(N^2) work at N={order} before the budget check")


def test_budget_refusal(monkeypatch):
    # the budget counts work: it admits the orders where the float path
    # goes wrong, 6_1 at N = 300 and 5_2 at N = 584, and refuses past
    # them before any O(N^2) step
    assert _exact_work(KnotId.SIX_ONE, 300) <= EXACT_TERM_BUDGET
    assert _exact_work(KnotId.FIVE_TWO, 584) <= EXACT_TERM_BUDGET
    monkeypatch.setattr(cyclo, "_pochhammer_rows", _no_rows)
    for knot, order in ((KnotId.FOUR_ONE, 1000), (KnotId.FIVE_TWO, 700), (KnotId.SIX_ONE, 500)):
        assert _exact_work(knot, order) > EXACT_TERM_BUDGET
        with pytest.raises(ExactBudgetError, match=f"N={order} .*logscale or a smaller N"):
            exact_invariant(knot, order)


def test_bad_order_rejected():
    # every entry refuses order 0 with the same ValueError, omega_power
    # before it reduces its exponent mod 0
    for entry in (
        lambda: exact_invariant(KnotId.FOUR_ONE, 0),
        lambda: exact_term_count(KnotId.FOUR_ONE, 0),
        lambda: CycElement.from_coeffs(0, [1]),
        lambda: CycElement.omega_power(0, 3),
    ):
        with pytest.raises(ValueError, match="order must be >= 1, got 0"):
            entry()
    # an order is an integer, as quantum_invariant takes it
    for order in (5.0, "5"):
        with pytest.raises(TypeError, match="order must be an integer, got"):
            exact_invariant(KnotId.FOUR_ONE, order)
        with pytest.raises(TypeError, match="order must be an integer, got"):
            exact_term_count(KnotId.FOUR_ONE, order)
    element = exact_invariant(KnotId.SIX_ONE, True)
    assert type(element.order) is int and element == CycElement.one(1)
    assert exact_term_count(KnotId.SIX_ONE, True) == 1
