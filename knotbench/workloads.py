"""Workloads of the knotvol benchmark: tabulated pools and seeded op lists.

Every input the benchmark feeds to knotvol is drawn here from a fixed pool,
so the reference generator (refgen.py) can tabulate all of them ahead of
time.  A pool is cut into equal consecutive strata and the seed picks one
order per stratum: different seeds give different points, but the spread
of N, and therefore of the work per pass, stays nearly the same.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

KNOTS = ("4_1", "5_2", "6_1")

# literature volumes of the knot complements; fits are judged against these,
# never against the value the code under test computes
VOLUME = {"4_1": 2.02988321, "5_2": 2.82812208, "6_1": 3.16396322}

# |<L>| at N = 2 is the knot determinant |Delta_L(-1)|
DETERMINANT = {"4_1": 5, "5_2": 7, "6_1": 9}


@dataclass(frozen=True)
class Pool:
    """Orders lo, lo+step, ... cut into `strata` groups of `per` orders."""

    lo: int
    step: int
    strata: int
    per: int

    def orders(self) -> list[int]:
        return [self.lo + self.step * i for i in range(self.strata * self.per)]

    def draw(self, rng: random.Random) -> list[int]:
        pool = self.orders()
        return [
            rng.choice(pool[s * self.per : (s + 1) * self.per])
            for s in range(self.strata)
        ]


# fit-all: the everyday `knotvol fit` path, where doubles suffice.
# deep: every order of both windows, up to the precision cliff of the float
# engine (the seed permutes the order).  Every value there is right to
# 1e-6 with a margin of five or more: at the commit baseline.json
# measured, no error there exceeds 2e-7.
POOLS = {
    "fit-all": {
        "4_1": Pool(1000, 1000, 50, 2),  # N = 1000 .. 100000
        "5_2": Pool(100, 4, 50, 2),  # N = 100 .. 496
        "6_1": Pool(40, 1, 55, 2),  # N = 40 .. 149
    },
    "deep": {
        "6_1": Pool(100, 1, 50, 1),  # N = 100 .. 149
        "5_2": Pool(400, 2, 50, 1),  # N = 400 .. 498
    },
}

# past the cliff: orders whose float values are wrong at that commit
# (6_1 from N = 171, 5_2 from N = 584).  They are no workload's ops; a
# traced run evaluates them once and reports how wrong they are.
CLIFF = {
    "6_1": (171, 186, 201, 225, 249, 273, 300),
    "5_2": (584, 632, 704, 800, 896, 1016, 1208),
}

# oracle: the identity suite of `knotvol verify`, split into single calls
ORACLE_EXACT_MAX = 20
ORACLE_FLOAT_MAX = 100
FUNEQ_ORDERS = (5, 10)
FUNEQ_POOL = 40  # p on a uniform grid over 90% of the strip ...
FUNEQ_PICK = 20  # ... of which the seed draws one per adjacent pair
LATTICE_ORDER = 10

WORKLOADS = ("fit-all", "deep", "oracle")


@dataclass(frozen=True)
class Op:
    """One public knotvol call.

    kind is a state-sum mode ("logscale", "direct", "exact") for an
    invariant value, or "fit", "volume", "alexander", "funeq", "f_gamma",
    "f_bar_gamma".  order is N (or the lattice order); arg is the
    quadrature argument p or the lattice index k where one applies.
    """

    kind: str
    knot: str | None = None
    order: int | None = None
    arg: float | None = None


def funeq_grid(order: int) -> list[float]:
    gamma = math.pi / order
    span = 0.9 * (math.pi - gamma)
    return [-span + 2.0 * span * i / (FUNEQ_POOL - 1) for i in range(FUNEQ_POOL)]


def reference_orders() -> dict[str, list[int]]:
    """Every (knot, N) a workload or the cliff probe can ask for, for the
    reference tables."""
    wanted = {knot: set(range(1, ORACLE_FLOAT_MAX + 1)) for knot in KNOTS}
    for pools in POOLS.values():
        for knot, pool in pools.items():
            wanted[knot].update(pool.orders())
    for knot, orders in CLIFF.items():
        wanted[knot].update(orders)
    return {knot: sorted(ns) for knot, ns in wanted.items()}


def build_ops(workload: str, seed: int) -> list[Op]:
    """The op list of one pass, drawn and ordered from `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "oracle":
        ops = [Op("alexander")]
        for knot in KNOTS:
            ops += [Op("exact", knot, n) for n in range(1, ORACLE_EXACT_MAX + 1)]
            for mode in ("direct", "logscale"):
                ops += [Op(mode, knot, n) for n in range(1, ORACLE_FLOAT_MAX + 1)]
        per = FUNEQ_POOL // FUNEQ_PICK
        for order in FUNEQ_ORDERS:
            grid = funeq_grid(order)
            for s in range(FUNEQ_PICK):
                ops.append(Op("funeq", None, order, rng.choice(grid[s * per : (s + 1) * per])))
        for k in range(LATTICE_ORDER):
            ops += [Op("f_gamma", None, LATTICE_ORDER, k), Op("f_bar_gamma", None, LATTICE_ORDER, k)]
        rng.shuffle(ops)
        return ops
    if workload not in POOLS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    ops = []
    for knot, pool in POOLS[workload].items():
        ops += [Op("logscale", knot, n) for n in pool.draw(rng)]
        if workload == "fit-all":
            ops.append(Op("volume", knot))
    rng.shuffle(ops)
    # each knot's fit follows the last of its growth points
    for knot in POOLS[workload]:
        last = max(i for i, op in enumerate(ops) if op.kind == "logscale" and op.knot == knot)
        ops.insert(last + 1, Op("fit", knot))
    return ops
