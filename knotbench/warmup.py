"""One warm-up call per mode a workload uses.

Run in-process before timing, and in a fresh interpreter (after
`import knotvol`) to measure set-up time.
"""

from __future__ import annotations

import math


def warm_up(kv, workload: str) -> None:
    K = kv.KnotId
    if workload in ("fit-all", "deep"):
        knot = K.FOUR_ONE if workload == "fit-all" else K.SIX_ONE
        points = [kv.invariant.growth_point(knot, n) for n in range(40, 44)]
        kv.asymfit.fit_growth(kv.asymfit.GrowthSeries(knot, tuple(points)))
        if workload == "fit-all":
            kv.saddle.hyperbolic_volume(K.FOUR_ONE)
        return
    kv.invariant.alexander_check()
    for mode in ("exact", "direct", "logscale"):
        kv.invariant.quantum_invariant(K.FIVE_TWO, 7, mode)
    params = kv.qdilog.QdParams.for_order(5)
    kv.qdilog.funeq_residual(params, 0.3)
    kv.qdilog.f_gamma(params, -math.pi + 3 * params.gamma)
    kv.qdilog.f_bar_gamma(params, -math.pi + 3 * params.gamma)
