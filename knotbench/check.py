"""Correctness of knotvol results, judged against references knotvol never made.

Invariant values are compared with the mpmath table in refs.json in log
form, |d log|<L>|| <= 1e-6 and |d arg| <= 1e-6, since 4_1 at large N
overflows a double.  Fits and volumes are compared with the literature
volumes, the identity checks with closed forms computed here.  Every
failure is kept as a record naming the knot, N, op kind and whether the
op returned a wrong result or raised.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from workloads import DETERMINANT, VOLUME, Op

POINT_TOL = 1e-6  # on log|<L>| and on arg <L>
FIT_TOL = 1e-3  # relative, |2 pi a - V| / V
VOLUME_TOL = 1e-7  # relative; the literature volumes carry 9 digits
IDENTITY_TOL = 1e-6  # shift equation and lattice interpolation, as in verify
ALEXANDER_TOL = 1e-12  # the direct route at N = 2, as in verify

INVARIANT_KINDS = ("logscale", "direct", "exact")


@dataclass(frozen=True)
class Failure:
    kind: str
    knot: str | None
    order: int | None
    reason: str  # "wrong" or "raised"
    detail: str

    def line(self) -> str:
        where = " ".join(x for x in (self.knot, f"N={self.order}" if self.order else None) if x)
        return f"{self.kind} {where}: {self.reason} ({self.detail})"


def load_refs(path: Path) -> dict[str, dict[int, tuple[Fraction, Fraction]]]:
    table = json.loads(path.read_text())["values"]
    return {
        knot: {int(n): (Fraction(log), Fraction(arg)) for n, (log, arg) in rows.items()}
        for knot, rows in table.items()
    }


def _pochhammer(order: int, k: int) -> complex:
    z = 1 + 0j
    for j in range(1, k + 1):
        z *= 1 - cmath.exp(2j * math.pi * j / order)
    return z


class Checker:
    """Checks results one op at a time and keeps the tallies per layer."""

    def __init__(self, refs):
        self.refs = refs
        self.attempted = 0
        self.failures: list[Failure] = []
        self.wrong_values = 0
        self.worst_log_err = 0.0
        self.bound_underestimates = 0
        self.fit_gaps: dict[str, float] = {}
        self.funeq_worst = 0.0
        self.saddle_max_residual = 0.0

    def check(self, op: Op, result, error: str | None = None) -> bool:
        self.attempted += 1
        if error is not None:
            self.failures.append(Failure(op.kind, op.knot, op.order, "raised", error))
            return False
        name = "_value" if op.kind in INVARIANT_KINDS else "_" + op.kind
        detail = getattr(self, name)(op, result)
        if detail is None:
            return True
        self.failures.append(Failure(op.kind, op.knot, op.order, "wrong", detail))
        if op.kind in INVARIANT_KINDS:
            self.wrong_values += 1
        return False

    # each returns None when the result is right, else what is wrong with it

    def _value(self, op: Op, value):
        ref_log, ref_arg = self.refs[op.knot][op.order]
        got = value.value_log
        if got.is_zero or not (math.isfinite(got.log_mag) and math.isfinite(got.arg)):
            return f"non-finite or zero value {got}"
        d_log = float(Fraction(got.log_mag) - ref_log)
        d_arg = math.remainder(float(Fraction(got.arg) - ref_arg), 2.0 * math.pi)
        self.worst_log_err = max(self.worst_log_err, abs(d_log))
        # relative error of the complex value, |exp(d_log + i d_arg) - 1|
        re = math.expm1(d_log) * math.cos(d_arg) - 2.0 * math.sin(d_arg / 2.0) ** 2
        rel = math.hypot(re, math.exp(d_log) * math.sin(d_arg))
        if rel > value.accum_error_estimate:
            self.bound_underestimates += 1
        if abs(d_log) > POINT_TOL or abs(d_arg) > POINT_TOL:
            return f"d log {d_log:.2e}, d arg {d_arg:.2e}, error estimate {value.accum_error_estimate:.1e}"
        return None

    def _fit(self, op: Op, fit):
        gap = abs(fit.volume_estimate - VOLUME[op.knot]) / VOLUME[op.knot]
        if not math.isfinite(gap):
            return f"non-finite volume estimate {fit.volume_estimate}"
        self.fit_gaps[op.knot] = max(self.fit_gaps.get(op.knot, 0.0), gap)
        if gap > FIT_TOL:
            return f"2 pi a = {fit.volume_estimate:.6f} against V = {VOLUME[op.knot]}, gap {gap:.2e}"
        return None

    def _volume(self, op: Op, result):
        self.saddle_max_residual = max(self.saddle_max_residual, result.solution.residual)
        gap = abs(result.volume - VOLUME[op.knot]) / VOLUME[op.knot]
        if not gap <= VOLUME_TOL:
            return f"volume {result.volume!r} against {VOLUME[op.knot]}"
        return None

    def _alexander(self, op: Op, report):
        exact = {str(k): v for k, v in report.exact.items()}
        numeric = {str(k): v for k, v in report.numeric.items()}
        for knot, det in DETERMINANT.items():
            if exact.get(knot) != det:
                return f"{knot}: exact |<L>| at N=2 is {exact.get(knot)}, not {det}"
            if not abs(numeric[knot] - det) <= ALEXANDER_TOL * det:
                return f"{knot}: direct |<L>| at N=2 is {numeric[knot]!r}, not {det}"
        if not report.passed:
            return "report says failed"
        return None

    def _funeq(self, op: Op, residual):
        self.funeq_worst = max(self.funeq_worst, residual)
        if not residual <= IDENTITY_TOL:
            return f"shift-equation residual {residual:.2e} at p={op.arg:.4f}"
        return None

    def _lattice(self, op: Op, got, expected):
        dev = abs(got - expected) / abs(expected)
        if not dev <= IDENTITY_TOL:
            return f"relative deviation {dev:.2e} from (w)_k at k={op.arg}"
        return None

    def _f_gamma(self, op: Op, got):
        return self._lattice(op, got, _pochhammer(op.order, op.arg))

    def _f_bar_gamma(self, op: Op, got):
        return self._lattice(op, got, _pochhammer(op.order, op.arg).conjugate())


def self_check(refs) -> None:
    """Prove that a value off by 1e-5 relative, and an op that raises, fail."""
    checker = Checker(refs)
    knot, order = "6_1", 100
    ref_log, ref_arg = (float(x) for x in refs[knot][order])

    def value(d_log: float, d_arg: float):
        log = SimpleNamespace(log_mag=ref_log + d_log, arg=ref_arg + d_arg, is_zero=False)
        return SimpleNamespace(value_log=log, accum_error_estimate=1e-12)

    op = Op("logscale", knot, order)
    cases = [
        (value(0.0, 0.0), None, True),
        (value(math.log1p(1e-5), 0.0), None, False),
        (value(0.0, 1e-5), None, False),
        (None, "ValueError: raised on purpose", False),
        (SimpleNamespace(volume_estimate=VOLUME[knot] * (1 + 1e-5)), None, True),
        (SimpleNamespace(volume_estimate=VOLUME[knot] * (1 + 2 * FIT_TOL)), None, False),
    ]
    for i, (result, error, expect) in enumerate(cases):
        case_op = op if i < 4 else Op("fit", knot)
        if checker.check(case_op, result, error) is not expect:
            raise AssertionError(f"checker self-check case {i} misjudged")
    if checker.attempted != len(cases) or len(checker.failures) != 4:
        raise AssertionError("checker self-check miscounted failures")
    reasons = [f.reason for f in checker.failures]
    if reasons != ["wrong", "wrong", "raised", "wrong"]:
        raise AssertionError(f"checker self-check recorded {reasons}")
