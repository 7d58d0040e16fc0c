"""Identifiers for the hyperbolic knots handled by this package."""

from __future__ import annotations

import enum
import operator


class KnotId(enum.Enum):
    """The three knots supported throughout: 4_1, 5_2 and 6_1."""

    FOUR_ONE = "4_1"
    FIVE_TWO = "5_2"
    SIX_ONE = "6_1"

    @classmethod
    def parse(cls, name: str) -> "KnotId":
        for knot in cls:
            if knot.value == name:
                return knot
        options = ", ".join(knot.value for knot in cls)
        raise ValueError(f"unknown knot {name!r}; expected one of: {options}")

    def __str__(self) -> str:
        return self.value


def check_knot(knot) -> KnotId:
    """`knot`, refused with a TypeError unless it is a KnotId."""
    if not isinstance(knot, KnotId):
        raise TypeError(
            f"knot must be a KnotId, got {knot!r}; KnotId.parse turns a name into one"
        )
    return knot


def check_order(order) -> int:
    """order as an int, refused unless it is an integer >= 1."""
    try:
        order = operator.index(order)
    except TypeError:
        raise TypeError(f"order must be an integer, got {order!r}") from None
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return order


# partial products (omega)_k, or their reciprocals, in one summand of each
# knot's state sum: |(omega)_k|^2, (omega)_l^2/(omega)_k^*, and for 6_1
# |(omega)_m|^2/((omega)_k (omega)_l^*)
SUMMAND_FACTORS = {KnotId.FOUR_ONE: 2, KnotId.FIVE_TWO: 3, KnotId.SIX_ONE: 4}


def pair_exponent(knot: KnotId, r: int, c: int) -> int:
    """e(r, c), the omega power of the pair r <= c in the 5_2 and 6_1 sums

        sum_{r<=c} X(c) / (omega)_r^* * omega^e(r, c),

    with X(c) = (omega)_c^2 for 5_2 and the row sum C(c) for 6_1.  Both
    split as e(r, c) = e(0, c) - r(c+1): e(0, c) is 0 for 5_2 and c(c+1)
    for 6_1, so a row's exponents follow from row 0's, which the exact
    pair loop and the float phase split both use.
    """
    if knot is KnotId.FIVE_TWO:
        return -r * (c + 1)
    if knot is KnotId.SIX_ONE:
        return (c - r) * (c + 1)
    raise ValueError(f"{knot} has no pair sum")
