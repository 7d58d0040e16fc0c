"""Generate the high-precision reference table the benchmark checks against.

    python3 knotbench/refgen.py            # writes knotbench/refs.json

Every value comes from mpmath at DPS significant digits, never from
knotvol.  The state sums are rearranged so that they contain no division:
(w)_{N-1} = N gives 1/(w)_k* = (w)_{N-1-k}/N and 1/(w)_k = (w)_{N-1-k}*/N,
with w = exp(2 pi i/N) and (w)_k = prod_{j<=k} (1 - w^j).  Then

    <4_1> = sum_k prod_{j<=k} 4 sin^2(pi j/N)                          O(N)
    <5_2> = N^-1 sum_k (w)_{N-1-k} sum_{l>=k} (w)_l^2 w^(-k(l+1))      O(N^2)
    <6_1> = N^-2 sum_{l,j} C(l+j) (w)_{N-1-l} w^(j(j+l+1)),            O(N^2)
            C(s) = sum_{k<=N-1-s} |(w)_{k+s}|^2 (w)_{N-1-k}*

(for 6_1 put j = m-k-l in the triple sum; the phase then does not depend
on k).  Before writing, the generator checks itself three ways: against
the state sums as defined, with their divisions, at a few small N; against
knotvol's exact cyclotomic engine at N <= 20; and against a recomputation
at DPS + 40 digits at the largest N of each knot.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import KNOTS, reference_orders  # noqa: E402

DPS = 60
STORED_DIGITS = 25
BRUTE_ORDERS = (1, 2, 3, 7, 12, 25)
EXACT_CHECK_MAX = 20
OUT = HERE / "refs.json"


def _symbols(n: int):
    """w^j for j < n and the partial products (w)_k for k < n."""
    w = [mp.expjpi(mp.mpf(2 * j) / n) for j in range(n)]
    poch = [mp.mpc(1)]
    for k in range(1, n):
        poch.append(poch[-1] * (1 - w[k]))
    return w, poch


def four_one(n: int):
    total, term = mp.mpf(0), mp.mpf(1)
    for k in range(n):
        if k:
            term *= 4 * mp.sinpi(mp.mpf(k) / n) ** 2
        total += term
    return mp.mpc(total)


def five_two(n: int):
    w, poch = _symbols(n)
    sq = [p * p for p in poch]
    total = mp.mpc(0)
    for k in range(n):
        inner = mp.fdot((sq[l], w[(-k * (l + 1)) % n]) for l in range(k, n))
        total += inner * poch[n - 1 - k]
    return total / n


def six_one(n: int):
    w, poch = _symbols(n)
    absq = [abs(p) ** 2 for p in poch]
    conj = [mp.conj(p) for p in poch]
    c = [mp.fdot((absq[k + s], conj[n - 1 - k]) for k in range(n - s)) for s in range(n)]
    total = mp.mpc(0)
    for l in range(n):
        inner = mp.fdot((c[l + j], w[(j * (j + l + 1)) % n]) for j in range(n - l))
        total += poch[n - 1 - l] * inner
    return total / (n * n)


FAST = {"4_1": four_one, "5_2": five_two, "6_1": six_one}


def brute(knot: str, n: int):
    """The state sum exactly as defined, divisions included."""
    w, poch = _symbols(n)
    if knot == "4_1":
        return mp.fsum(abs(p) ** 2 for p in poch)
    if knot == "5_2":
        return mp.fsum(
            poch[l] ** 2 / mp.conj(poch[k]) * w[(-k * (l + 1)) % n]
            for k in range(n)
            for l in range(k, n)
        )
    return mp.fsum(
        abs(poch[m]) ** 2 / (poch[k] * mp.conj(poch[l])) * w[((m - k - l) * (m - k + 1)) % n]
        for k in range(n)
        for l in range(n - k)
        for m in range(k + l, n)
    )


def _rel(a, b) -> float:
    return float(abs(a - b) / abs(b))


def self_checks() -> dict:
    worst_brute = 0.0
    for knot in KNOTS:
        for n in BRUTE_ORDERS:
            worst_brute = max(worst_brute, _rel(FAST[knot](n), brute(knot, n)))
    if worst_brute > 1e-40:
        raise ArithmeticError(f"division-free sums disagree with the definition: {worst_brute:.1e}")

    # knotvol's exact engine, used here only to check the generator
    sys.path.insert(0, str(HERE.parent / "src"))
    from knotvol import KnotId
    from knotvol.cyclo import exact_invariant

    worst_exact = 0.0
    for knot in KNOTS:
        for n in range(1, EXACT_CHECK_MAX + 1):
            z = exact_invariant(KnotId.parse(knot), n).evaluate_numeric()
            worst_exact = max(worst_exact, _rel(mp.mpc(z), FAST[knot](n)))
    if worst_exact > 1e-12:
        raise ArithmeticError(f"references disagree with the exact engine: {worst_exact:.1e}")
    return {
        "brute_orders": list(BRUTE_ORDERS),
        "brute_worst_rel": worst_brute,
        "exact_orders": [1, EXACT_CHECK_MAX],
        "exact_worst_rel": worst_exact,
    }


def precision_check(orders: dict[str, list[int]], values: dict) -> dict:
    """Recompute the largest N of each knot with 40 more digits."""
    worst = {}
    for knot in KNOTS:
        n = orders[knot][-1]
        with mp.workdps(DPS + 40):
            v = FAST[knot](n)
            log_abs, arg = mp.log(abs(v)), mp.arg(v)
        ref_log, ref_arg = (mp.mpf(s) for s in values[knot][str(n)])
        err = max(abs(log_abs - ref_log) / max(1, abs(ref_log)), abs(arg - ref_arg))
        if err > mp.mpf(10) ** (3 - STORED_DIGITS):
            raise ArithmeticError(f"{knot} N={n}: {DPS} digits are not enough ({float(err):.1e})")
        worst[knot] = {"order": n, "diff": float(err)}
    return worst


def main() -> int:
    mp.mp.dps = DPS
    started = time.time()
    checks = self_checks()
    orders = reference_orders()
    values: dict[str, dict[str, list[str]]] = {}
    for knot in KNOTS:
        values[knot] = {}
        for n in orders[knot]:
            v = FAST[knot](n)
            values[knot][str(n)] = [
                mp.nstr(mp.log(abs(v)), STORED_DIGITS, strip_zeros=False),
                mp.nstr(mp.arg(v), STORED_DIGITS, strip_zeros=False),
            ]
        print(f"{knot}: {len(orders[knot])} orders, {time.time() - started:.0f} s", file=sys.stderr)
    checks["precision"] = precision_check(orders, values)
    table = {
        "generator": {
            "mpmath": mp.__version__,
            "dps": DPS,
            "stored_digits": STORED_DIGITS,
            "format": "values[knot][N] = [log|<L>|, arg <L> in (-pi, pi]]",
            "checks": checks,
        },
        "values": values,
    }
    OUT.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {OUT} in {time.time() - started:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
