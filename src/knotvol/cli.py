"""Command-line front end.

Subcommands: invariant, volume, fit, dilog, lobachevsky, faddeev, verify.
Exit status 0 on success, 1 on computational errors (printed verbatim to
stderr), 2 on usage errors (argparse message).  CSV output uses repr-level
float precision, so files written by `invariant --format csv` feed
`fit --in` with no loss: the piped result is bit-for-bit the in-process one.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import math
import os
import sys

import numpy as np

from . import asymfit, invariant, qdilog, saddle
from .knots import KnotId

__all__ = ["main", "CSV_HEADER"]

CSV_HEADER = [
    "knot",
    "N",
    "mode",
    "re",
    "im",
    "log_abs",
    "two_pi_log_abs_over_N",
    "term_count",
    "accum_error",
]

FIT_CSV_HEADER = [
    "knot",
    "model",
    "n_min",
    "n_max",
    "a",
    "b",
    "c",
    "rms_residual",
    "volume_estimate",
]


def _knot_arg(text: str) -> KnotId:
    try:
        return KnotId.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _complex_arg(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected '<re>,<im>', got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric component in {text!r}")


# the options that take a number.  argparse reads a token that starts with
# "-" as that option's value only if it is a plain negative decimal such
# as -1.5, so `--theta -1e3`, `--z -1e3,0` and `--theta -inf` are passed
# to it as `--theta=-1e3` and so on; no other option starts like one of
# these, so an abbreviation such as `--thet` is joined too
_NUMBER_OPTIONS = (
    "--n", "--n-min", "--n-max", "--step", "--z", "--theta", "--gamma", "--p",
)


def _join_number_values(argv: list[str]) -> list[str]:
    """argv with each number option and a value after it that starts with
    a single "-" written as one `--option=value` token."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if (
            len(arg) > 2
            and arg.startswith("--")
            and any(name.startswith(arg) for name in _NUMBER_OPTIONS)
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
            and not argv[i + 1].startswith("--")
        ):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotvol",
        description=(
            "Quantum invariants of 4_1, 5_2, 6_1 at root-of-unity order N "
            "and hyperbolic volumes of their complements."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inv = sub.add_parser(
        "invariant", help="evaluate <L> at one order N"
    )
    inv.add_argument("--knot", type=_knot_arg, required=True)
    inv.add_argument("--n", type=_positive_int, required=True)
    inv.add_argument("--mode", choices=invariant.MODES, default="logscale")
    inv.add_argument("--format", dest="fmt", choices=("text", "csv"), default="text")

    vol = sub.add_parser("volume", help="hyperbolic volume via the saddle point")
    vol.add_argument("--knot", type=_knot_arg, required=True)

    fit = sub.add_parser(
        "fit", help="fit the growth rate of log|<L>| over a window of N"
    )
    fit.add_argument("--knot", type=_knot_arg)
    fit.add_argument("--n-min", type=_positive_int)
    fit.add_argument("--n-max", type=_positive_int)
    fit.add_argument("--step", type=_positive_int)
    fit.add_argument("--model", choices=asymfit.MODELS, default="linear_plus_log")
    fit.add_argument("--format", dest="fmt", choices=("text", "csv"), default="text")
    fit.add_argument("--in", dest="infile", metavar="CSV", help="read growth points from a CSV written by `invariant --format csv`, those in --n-min..--n-max if given")
    fit.set_defaults(fit_parser=fit)  # _cmd_fit's usage errors print fit's usage line

    dil = sub.add_parser("dilog", help="evaluate the dilogarithm li2")
    dil.add_argument("--z", type=_complex_arg, required=True, metavar="RE,IM")

    lob = sub.add_parser("lobachevsky", help="evaluate Lobachevsky's function")
    lob.add_argument("--theta", type=float, required=True)

    fad = sub.add_parser("faddeev", help="evaluate the quantum dilogarithm S_gamma")
    fad.add_argument("--gamma", type=float, required=True)
    fad.add_argument("--p", type=_complex_arg, required=True, metavar="RE,IM")

    sub.add_parser("verify", help="run the identity suite and report pass/fail")
    return parser


def _invariant_csv_row(value: invariant.InvariantValue) -> list[str]:
    two_pi = 2.0 * math.pi * value.value_log.log_mag / value.order
    re = repr(value.value_complex.real) if value.value_complex is not None else ""
    im = repr(value.value_complex.imag) if value.value_complex is not None else ""
    return [
        str(value.knot),
        str(value.order),
        value.mode,
        re,
        im,
        repr(value.value_log.log_mag),
        repr(two_pi),
        str(value.term_count),
        repr(value.accum_error_estimate),
    ]


def _cmd_invariant(args) -> int:
    value = invariant.quantum_invariant(args.knot, args.n, args.mode)
    if args.fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerow(_invariant_csv_row(value))
        return 0
    log_abs = value.value_log.log_mag
    print(f"knot: {value.knot}")
    print(f"N: {value.order}")
    print(f"mode: {value.mode}")
    if value.value_complex is not None:
        print(f"value: {value.value_complex!r}")
        print(f"|<L>|: {abs(value.value_complex)!r}")
    else:
        print("value: (too large for a double; see log|<L>|)")
    print(f"log|<L>|: {log_abs!r}")
    print(f"2*pi*log|<L>|/N: {2.0 * math.pi * log_abs / value.order!r}")
    print(f"term count: {value.term_count}")
    print(f"accum error estimate: {value.accum_error_estimate!r}")
    return 0


def _cmd_volume(args) -> int:
    result = saddle.hyperbolic_volume(args.knot)
    labels = ("z0", "u0", "v0")
    print(f"knot: {result.knot}")
    for label, coord in zip(labels, result.solution.point):
        print(f"{label}: {coord!r}")
    print(f"residual: {result.solution.residual!r}")
    print(f"potential: {result.potential_value!r}")
    print(f"volume: {result.volume!r}")
    return 0


def _csv_number(row: dict, column: str, kind, where: str):
    text = row[column]
    if text is None:
        raise ValueError(f"{where}: no {column} value")
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{where}: bad {column} value {text!r}") from None


def _series_from_csv(
    path: str, knot_filter: KnotId | None, n_min: int | None, n_max: int | None
) -> asymfit.GrowthSeries:
    points: list[tuple[int, float]] = []
    knots_seen: set[KnotId] = set()
    first_lines: dict[tuple[KnotId, int], int] = {}
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        missing = [c for c in ("knot", "N", "log_abs") if c not in header]
        if header and missing:
            raise ValueError(
                f"{path} line 1: no column {missing[0]!r}; fit --in reads "
                f"the CSV of `invariant --format csv`"
            )
        for row in reader:
            if row["knot"] == "knot":
                continue  # concatenated files repeat the header
            if knot_filter is not None and row["knot"] != str(knot_filter):
                continue
            where = f"{path} line {reader.line_num}"
            try:
                knot = KnotId.parse(row["knot"])
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            order = _csv_number(row, "N", int, where)
            if order < (n_min or order) or order > (n_max or order):
                continue  # outside the window of --n-min/--n-max
            first = first_lines.setdefault((knot, order), reader.line_num)
            if first != reader.line_num:
                raise ValueError(
                    f"{where}: duplicate order N = {order} (first on line {first})"
                )
            points.append((order, _csv_number(row, "log_abs", float, where)))
            knots_seen.add(knot)
    if not points:
        raise ValueError(f"no usable rows in {path}")
    if len(knots_seen) > 1:
        names = sorted(str(knot) for knot in knots_seen)
        raise ValueError(f"{path} mixes knots {names}; pass --knot to choose")
    return asymfit.GrowthSeries(knots_seen.pop(), tuple(points))


def _print_fit(fit: asymfit.FitResult, knot: KnotId, count: int, fmt: str) -> None:
    a, b, c = fit.coefficients
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(FIT_CSV_HEADER)
        writer.writerow(
            [
                str(knot),
                fit.model,
                str(fit.window[0]),
                str(fit.window[1]),
                repr(a),
                repr(b),
                repr(c),
                repr(fit.rms_residual),
                repr(fit.volume_estimate),
            ]
        )
        return
    print(f"knot: {knot}")
    print(f"model: {fit.model}")
    print(f"window: {fit.window[0]}..{fit.window[1]}")
    print(f"points: {count}")
    print(f"a: {a!r}")
    print(f"b: {b!r}")
    print(f"c: {c!r}")
    print(f"rms residual: {fit.rms_residual!r}")
    print(f"volume estimate (2*pi*a): {fit.volume_estimate!r}")


def _cmd_fit(args, parser: argparse.ArgumentParser) -> int:
    if args.infile:
        if args.step is not None:
            parser.error("fit --in fits the orders in the file; it takes no --step")
        series = _series_from_csv(args.infile, args.knot, args.n_min, args.n_max)
    else:
        missing = args.knot is None or args.n_min is None or args.n_max is None
        if missing:
            parser.error("fit needs either --in CSV or --knot/--n-min/--n-max")
        step = 1 if args.step is None else args.step
        series = asymfit.collect_series(args.knot, args.n_min, args.n_max, step)
    fit = asymfit.fit_growth(series, args.model)
    _print_fit(fit, series.knot, len(series.points), args.fmt)
    return 0


def _cmd_dilog(args) -> int:
    value = qdilog.li2(args.z)
    print(f"z: {args.z!r}")
    print(f"li2: {value!r}")
    print(f"re: {value.real!r}")
    print(f"im: {value.imag!r}")
    return 0


def _cmd_lobachevsky(args) -> int:
    value = qdilog.lobachevsky(args.theta)
    print(f"theta: {args.theta!r}")
    print(f"lambda: {value!r}")
    return 0


def _cmd_faddeev(args) -> int:
    log_s = qdilog.faddeev_log_s(qdilog.QdParams(gamma=args.gamma), args.p)
    print(f"gamma: {args.gamma!r}")
    print(f"p: {args.p!r}")
    print(f"log S_gamma(p): {log_s!r}")
    print(f"S_gamma(p): {cmath.exp(log_s)!r}")
    return 0


def _worst(values) -> float:
    """The largest of values, NaN if any is NaN: max(0.0, nan) is 0.0, which
    would pass a check whose every value is NaN."""
    return float(np.max(values))


def _mode_item(name: str, mode: str, n_max: int):
    """(name, passed, detail) for the worst relative deviation of one mode
    from logscale over every knot and N = 1..n_max, tolerance 1e-9."""
    deviations = []
    for knot in KnotId:
        for order in range(1, n_max + 1):
            value = invariant.quantum_invariant(knot, order, mode).value_complex
            logscale = invariant.quantum_invariant(knot, order, "logscale")
            assert value is not None and logscale.value_complex is not None
            deviations.append(abs(value - logscale.value_complex) / abs(value))
    worst = _worst(deviations)
    return (
        name,
        worst <= 1e-9,
        f"worst relative deviation {worst:.3e} (tol 1e-9)",
    )


def _verify_items():
    """Yield (name, passed, detail) for each identity in the suite."""
    report = invariant.alexander_check()
    yield (
        "alexander determinants at N=2 (exact 5, 7, 9; direct to 1e-12)",
        report.passed,
        "exact " + ", ".join(f"{k}={v}" for k, v in report.exact.items()),
    )

    residuals = []
    for order in (5, 10):
        params = qdilog.QdParams.for_order(order)
        gamma = params.gamma
        span = math.pi - gamma
        for p in np.linspace(-0.9 * span, 0.9 * span, 20):
            residuals.append(qdilog.funeq_residual(params, float(p)))
    worst = _worst(residuals)
    yield (
        "faddeev functional equation (gamma = pi/5, pi/10; 20 p each)",
        worst <= 1e-6,
        f"worst residual {worst:.3e} (tol 1e-6)",
    )

    order = 10
    params = qdilog.QdParams.for_order(order)
    table = invariant.pochhammer_table(order)
    deviations = []
    for k in range(order):
        p = -math.pi + params.gamma * (1 + 2 * k)
        symbol = complex(table.values[k])
        deviations += [
            abs(qdilog.f_gamma(params, p) - symbol) / abs(symbol),
            abs(qdilog.f_bar_gamma(params, p) - symbol.conjugate()) / abs(symbol),
        ]
    worst = _worst(deviations)
    yield (
        "analytic continuation of (omega)_k at N=10 (all k)",
        worst <= 1e-6,
        f"worst relative deviation {worst:.3e} (tol 1e-6)",
    )

    yield _mode_item(
        "direct/logscale mode equivalence (all knots, N <= 100)", "direct", 100
    )
    yield _mode_item("cyclotomic exact oracle (all knots, N <= 60)", "exact", 60)


def _cmd_verify() -> int:
    failed = 0
    for name, ok, detail in _verify_items():
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: {detail}")
        if not ok:
            failed += 1
    return 1 if failed else 0


def _run(args) -> int:
    if args.command == "invariant":
        return _cmd_invariant(args)
    if args.command == "volume":
        return _cmd_volume(args)
    if args.command == "fit":
        return _cmd_fit(args, args.fit_parser)
    if args.command == "dilog":
        return _cmd_dilog(args)
    if args.command == "lobachevsky":
        return _cmd_lobachevsky(args)
    if args.command == "faddeev":
        return _cmd_faddeev(args)
    return _cmd_verify()


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(
                _join_number_values(sys.argv[1:] if argv is None else list(argv))
            )
            code = _run(args)
        except SystemExit as exc:  # argparse usage errors and help, also from fit's checks
            code = int(exc.code) if exc.code is not None else 0
        # a reader that closed the pipe early shows here, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader took what it wanted, as `| grep -q` does: no error.
        # Python flushes stdout again at exit, so point it at devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
