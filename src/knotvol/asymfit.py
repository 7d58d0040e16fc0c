"""Growth-rate extraction from finite-N invariant data.

The asymptotic claim under test is 2*pi*log|<L>| ~ N*V(L).  We collect
log|<L>| on an arithmetic window of N, fit the correction model

    log_abs ~= a*N + b*log(N) + c

(the log N term soaks up the generic power-law prefactor of a saddle-point
approximation; the growth law itself fixes only the leading term), and report
volume_estimate = 2*pi*a against the independently computed saddle volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .invariant import growth_point
from .knots import KnotId, check_knot, check_order
from .saddle import hyperbolic_volume

__all__ = [
    "MODELS",
    "GrowthSeries",
    "FitResult",
    "MainClaimReport",
    "collect_series",
    "fit_growth",
    "main_claim_report",
]

MODELS = ("linear", "linear_plus_log")


@dataclass(frozen=True)
class GrowthSeries:
    """Points (N, log|<L>|) for one knot, held sorted by N.

    Construction sorts the points, so downstream fits cannot depend on
    input order; duplicate or non-finite entries are rejected, and so are
    a knot that is not a KnotId and an order that is not an integer >= 1,
    as `quantum_invariant` refuses them.
    """

    knot: KnotId
    points: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        check_knot(self.knot)
        pts = tuple(sorted((check_order(n), float(y)) for n, y in self.points))
        for (n1, y1), (n2, _) in zip(pts, pts[1:]):
            if n1 == n2:
                raise ValueError(f"duplicate order N = {n1}")
        for n, y in pts:
            if not math.isfinite(y):
                raise ValueError(f"non-finite log_abs at N = {n}")
        object.__setattr__(self, "points", pts)

    def subset(self, n_min: int) -> "GrowthSeries":
        return GrowthSeries(
            self.knot, tuple(p for p in self.points if p[0] >= n_min)
        )


@dataclass(frozen=True)
class FitResult:
    """Least-squares coefficients (a, b, c) of log_abs ~ a*N + b*log N + c.

    For the plain linear model b is identically zero.  volume_estimate is
    2*pi*a by definition.
    """

    model: str
    coefficients: tuple[float, float, float]
    rms_residual: float
    volume_estimate: float
    window: tuple[int, int]


def _orders(n_min: int, n_max: int, step: int) -> list[int]:
    if not 2 <= n_min < n_max:
        raise ValueError(
            f"need 2 <= n_min < n_max, got n_min={n_min}, n_max={n_max}"
        )
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    return list(range(n_min, n_max + 1, step))


def _required_points(model: str) -> int:
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    return 2 if model == "linear" else 4


def collect_series(
    knot: KnotId,
    n_min: int,
    n_max: int,
    step: int = 1,
    threads: int = 1,
) -> GrowthSeries:
    """One logscale growth point per N in [n_min, n_max] with the given step.

    The orders are evaluated one after another, so a series is the same
    points on every run.  threads has no effect, as in
    `quantum_invariant`; it must still be at least 1.
    """
    orders = _orders(n_min, n_max, step)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    points = [growth_point(knot, n) for n in orders]
    return GrowthSeries(knot, tuple(points))


def fit_growth(series: GrowthSeries, model: str = "linear_plus_log") -> FitResult:
    """Ordinary least squares over the series, no weighting.

    Needs >= 2 points for the linear model and >= 4 for linear_plus_log;
    a rank-deficient design matrix is an error rather than a silent
    pseudo-inverse answer.
    """
    required = _required_points(model)
    if len(series.points) < required:
        raise ValueError(
            f"{model} needs >= {required} points, got {len(series.points)}"
        )
    ns = np.array([n for n, _ in series.points], dtype=float)
    ys = np.array([y for _, y in series.points])
    if model == "linear":
        design = np.column_stack([ns, np.ones_like(ns)])
    else:
        design = np.column_stack([ns, np.log(ns), np.ones_like(ns)])
    coef, _, rank, _ = np.linalg.lstsq(design, ys, rcond=None)
    if rank < design.shape[1]:
        raise ArithmeticError(
            f"rank-deficient design (rank {rank}) for model {model}"
        )
    if model == "linear":
        a, c = coef
        b = 0.0
    else:
        a, b, c = coef
    rms = float(np.sqrt(np.mean((design @ coef - ys) ** 2)))
    window = (series.points[0][0], series.points[-1][0])
    return FitResult(
        model,
        (float(a), float(b), float(c)),
        rms,
        2.0 * math.pi * float(a),
        window,
    )


@dataclass(frozen=True)
class MainClaimReport:
    """Fitted growth rate versus saddle volume over one window."""

    knot: KnotId
    model: str
    fit: FitResult
    volume_estimate: float
    saddle_volume: float
    absolute_gap: float
    relative_gap: float
    # the same comparison after doubling the window's lower end
    shifted_relative_gap: float
    gap_shrinks: bool


def main_claim_report(
    knot: KnotId,
    n_min: int,
    n_max: int,
    step: int = 10,
    model: str = "linear_plus_log",
) -> MainClaimReport:
    """Test 2*pi*log|<L>| ~ N*V(L) on [n_min, n_max].

    Fits the window, compares 2*pi*a against the saddle volume, then
    refits on the sub-window N >= 2*n_min of the same data to report
    whether the relative gap shrinks as the window moves out.  The
    sub-window, and so the window, is checked for enough points before
    any point is computed; the points come from `collect_series`, one
    order after another.
    """
    required = _required_points(model)
    shifted_count = sum(n >= 2 * n_min for n in _orders(n_min, n_max, step))
    if shifted_count < required:
        raise ValueError(
            f"the sub-window N >= {2 * n_min} of {n_min}..{n_max} step "
            f"{step} holds {shifted_count} points; {model} needs >= "
            f"{required}"
        )
    series = collect_series(knot, n_min, n_max, step)
    fit = fit_growth(series, model)
    volume = hyperbolic_volume(knot).volume
    gap = abs(fit.volume_estimate - volume)
    shifted = fit_growth(series.subset(2 * n_min), model)
    shifted_gap = abs(shifted.volume_estimate - volume)
    return MainClaimReport(
        knot,
        model,
        fit,
        fit.volume_estimate,
        volume,
        gap,
        gap / volume,
        shifted_gap / volume,
        shifted_gap < gap,
    )
