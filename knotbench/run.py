"""knotvol benchmark: wall time to a correct value, end to end and per layer.

    python3 knotbench/run.py --workload fit-all --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from the `src` directory next
to this one.  One process, one caller, threads=1: the op list of the
workload (see workloads.py) is run pass after pass until --seconds have
gone by, each op timed on its own, and every result is checked against
the references (see check.py) after the pass, outside the timed region.

--trace 0 prints the end-to-end metrics; their times are seconds at a
reference machine speed (see calib.py).  --trace 1 alternates untraced
passes with passes traced at the layer boundaries (see spans.py),
evaluates the orders past the precision cliff once (see cliff_probe),
prints the per-layer metrics, and writes the spans and the failure
records to .knotbench/ in the repository root.  Every run also writes its raw pass
time and calibration-kernel median there, and flags a kernel median
slower than baseline.json's runs allow.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.  The exit status is
0 whenever the benchmark ran, failures included, and 2 when it could not
run at all.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".knotbench"
sys.path.insert(0, str(HERE))

from calib import REFERENCE_S, Calibrator  # noqa: E402
from check import INVARIANT_KINDS, Checker, load_refs, self_check  # noqa: E402
from spans import Tracer  # noqa: E402
from warmup import warm_up  # noqa: E402
from workloads import CLIFF, WORKLOADS, Op, build_ops  # noqa: E402

SETUP_REPEATS = 15
MIN_TRACE_PAIRS = 2  # a traced run has at least this many untraced/traced pass pairs
DRIFT_IQRS = 2
SETUP_KERNELS = 3  # calibration samples before each set-up interpreter
PROBE_REPEATS = 3
# 6_1 at the largest cliff N, and a short 6_1 series, for the threads=2 probes
PROBE_ORDER = max(CLIFF["6_1"])
PROBE_SERIES = (100, 160, 10)
LAYERS = ("asymfit", "invariant", "cyclo", "saddle", "qdilog")
# spans whose calls and inclusive time are reported per traced pass
COUNTED_SPANS = (
    "invariant.quantum_invariant",
    "invariant.pochhammer_table",
    "asymfit.fit_growth",
    "cyclo.exact_invariant",
    "cyclo.mul",
    "cyclo.inverse",
    "saddle.hyperbolic_volume",
    "qdilog.li2",
    "qdilog.faddeev_log_s",
)


class BenchError(Exception):
    """The benchmark cannot run here."""


def import_knotvol():
    sys.path.insert(0, str(SRC))
    try:
        import knotvol
    except ImportError as exc:
        raise BenchError(f"cannot import knotvol from {SRC}: {exc}") from exc
    if Path(knotvol.__file__).resolve().parent != SRC / "knotvol":
        raise BenchError(f"imported knotvol from {knotvol.__file__}, not from {SRC}")
    return knotvol


def make_call(kv, op, points):
    """A zero-argument callable for one op.

    Names are looked up through the knotvol modules when the call runs,
    so the traced passes see the wrappers.
    """
    inv, fit, qd = kv.invariant, kv.asymfit, kv.qdilog
    knot = kv.KnotId.parse(op.knot) if op.knot else None
    if op.kind in INVARIANT_KINDS:
        return lambda: inv.quantum_invariant(knot, op.order, op.kind)
    if op.kind == "fit":
        return lambda: fit.fit_growth(fit.GrowthSeries(knot, tuple(points[op.knot])))
    if op.kind == "volume":
        return lambda: kv.saddle.hyperbolic_volume(knot)
    if op.kind == "alexander":
        return lambda: inv.alexander_check()
    params = qd.QdParams.for_order(op.order)
    if op.kind == "funeq":
        return lambda: qd.funeq_residual(params, op.arg)
    p = -math.pi + params.gamma * (1 + 2 * op.arg)
    if op.kind == "f_gamma":
        return lambda: qd.f_gamma(params, p)
    return lambda: qd.f_bar_gamma(params, p)


def run_pass(kv, ops, cal: Calibrator):
    """Run every op once, sampling the calibration kernel between ops.

    Returns the raw op latencies, the same at the reference speed, and the
    results.
    """
    points = defaultdict(list)
    latencies, ref_latencies, results = [], [], []
    cal.sample()
    for op in ops:
        call = make_call(kv, op, points)
        t0 = perf_counter()
        try:
            result, error = call(), None
        except Exception as exc:  # a failed op is counted, and the run goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        latencies.append((t1 - t0, 0.5 * (t0 + t1)))
        if op.kind == "logscale" and result is not None:
            points[op.knot].append((op.order, result.value_log.log_mag))
        results.append((result, error))
        cal.tick()
    cal.sample()
    ref_latencies = [x * cal.factor_at(mid) for x, mid in latencies]
    return [x for x, _ in latencies], ref_latencies, results


def measure_setup(workload: str, cal: Calibrator) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing knotvol and
    making the workload's warm-up calls, raw and at the reference speed."""
    code = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
        f"import knotvol, warmup; warmup.warm_up(knotvol, {workload!r})"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_KERNELS):
            cal.sample()
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True)
        t1 = perf_counter()
        times.append((t1 - t0, 0.5 * (t0 + t1)))
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed:\n{proc.stderr}")
    for _ in range(SETUP_KERNELS):
        cal.sample()
    raw = statistics.median(x for x, _ in times)
    return raw, statistics.median(x * cal.factor_at(mid) for x, mid in times)


def max_rss_mb() -> float:
    """Peak resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def index_set_size(knot, n: int) -> int:
    return {"4_1": n, "5_2": n * (n + 1) // 2, "6_1": n * (n + 1) * (n + 2) // 6}[str(knot)]


def install_tracer(tracer: Tracer, kv) -> None:
    inv, fit, sad, qd, cy = kv.invariant, kv.asymfit, kv.saddle, kv.qdilog, kv.cyclo
    qi_sig = inspect.signature(inv.quantum_invariant)
    ex_sig = inspect.signature(cy.exact_invariant)

    def on_value(args, kwargs, value):
        call = qi_sig.bind(*args, **kwargs)
        call.apply_defaults()
        a = call.arguments
        return {"mode": a["mode"], "terms": value.term_count, "chunk_size": a["chunk_size"]}

    def on_exact(args, kwargs, value):
        a = ex_sig.bind(*args, **kwargs).arguments
        return {"terms": index_set_size(a["knot"], a["order"])}

    tracer.wrap(inv, "quantum_invariant", "invariant.quantum_invariant", on_value, count_warnings=True)
    tracer.wrap(inv, "pochhammer_table", "invariant.pochhammer_table")
    tracer.wrap(inv, "alexander_check", "invariant.alexander_check")
    tracer.wrap(fit, "growth_point", "invariant.growth_point")
    tracer.wrap(fit, "hyperbolic_volume", "saddle.hyperbolic_volume")
    tracer.wrap(fit, "collect_series", "asymfit.collect_series")
    tracer.wrap(fit, "fit_growth", "asymfit.fit_growth")
    tracer.wrap(sad, "hyperbolic_volume", "saddle.hyperbolic_volume")
    tracer.wrap(sad, "li2", "qdilog.li2")
    tracer.wrap(cy, "exact_invariant", "cyclo.exact_invariant", on_exact)
    tracer.wrap(cy.CycElement, "__mul__", "cyclo.mul")
    tracer.wrap(cy.CycElement, "inverse", "cyclo.inverse")
    tracer.wrap(qd, "faddeev_log_s", "qdilog.faddeev_log_s")
    for name in ("funeq_residual", "f_gamma", "f_bar_gamma"):
        tracer.wrap(qd, name, f"qdilog.{name}")


def pass_layers(tracer: Tracer, lo: int, hi: int, wall: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass, spans[lo:hi]."""
    summary = tracer.summary(lo, hi)
    names = summary["names"]

    def get(name, key):
        return names.get(name, {}).get(key, 0)

    out = {}
    for name in COUNTED_SPANS:
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.s"] = get(name, "s")
    out["invariant.sum.self_s"] = get("invariant.quantum_invariant", "self_s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v["self_s"] for k, v in names.items() if k.startswith(layer + "."))
    out["trace.attributed_frac"] = summary["roots_s"] / wall

    terms, busy, chunks, warns, cyclo_terms = defaultdict(int), defaultdict(float), 0, 0, 0
    for name, start, end, _, facts in tracer.spans[lo:hi]:
        if name == "invariant.quantum_invariant" and facts:
            terms[facts["mode"]] += facts["terms"]
            busy[facts["mode"]] += end - start
            if facts["mode"] != "exact":
                chunks += -(-facts["terms"] // facts["chunk_size"])
            warns += facts["runtime_warnings"]
        elif name == "cyclo.exact_invariant" and facts:
            cyclo_terms += facts["terms"]
    out["invariant.terms"] = sum(terms.values())
    out["invariant.chunks"] = chunks
    for mode in ("logscale", "direct"):
        out[f"invariant.{mode}.ns_per_term"] = 1e9 * busy[mode] / terms[mode] if terms[mode] else 0.0
    out["invariant.warnings"] = warns
    out["cyclo.terms"] = cyclo_terms
    return out


def thread_probes(kv, tracer: Tracer) -> dict[str, float]:
    """threads=1 over threads=2 time, for one large 6_1 value and for a
    short 6_1 series; then one traced threads=1 series for asymfit's spans."""
    knot = kv.KnotId.SIX_ONE
    inv, fit = kv.invariant, kv.asymfit
    timing = {"invariant": ([], []), "asymfit": ([], [])}
    for _ in range(PROBE_REPEATS):
        for i, threads in enumerate((1, 2)):
            t0 = perf_counter()
            inv.quantum_invariant(knot, PROBE_ORDER, threads=threads)
            t1 = perf_counter()
            fit.collect_series(knot, *PROBE_SERIES, threads=threads)
            t2 = perf_counter()
            timing["invariant"][i].append(t1 - t0)
            timing["asymfit"][i].append(t2 - t1)
    out = {
        f"{layer}.speedup_2t": statistics.median(one) / statistics.median(two)
        for layer, (one, two) in timing.items()
    }
    lo = len(tracer.spans)
    install_tracer(tracer, kv)
    try:
        fit.collect_series(knot, *PROBE_SERIES)
    finally:
        tracer.restore()
    names = tracer.summary(lo)["names"]
    out["asymfit.collect_series.s"] = names["asymfit.collect_series"]["s"]
    out["asymfit.collect_series.self_s"] = names["asymfit.collect_series"]["self_s"]
    return out


def cliff_probe(kv, refs) -> tuple[dict[str, float], Checker]:
    """Evaluate the orders past the precision cliff once each, then fit
    each knot's values, and check all of it.  These are no workload's ops:
    their failures show how wrong the float engine is there, and do not
    make the run incorrect."""
    checker = Checker(refs)
    for knot, orders in CLIFF.items():
        points = []
        for n in orders:
            op = Op("logscale", knot, n)
            try:
                value = kv.invariant.quantum_invariant(kv.KnotId.parse(knot), n, "logscale")
            except Exception as exc:
                checker.check(op, None, f"{type(exc).__name__}: {exc}")
                continue
            checker.check(op, value)
            points.append((n, value.value_log.log_mag))
        op = Op("fit", knot)
        try:
            fit = kv.asymfit.fit_growth(kv.asymfit.GrowthSeries(kv.KnotId.parse(knot), tuple(points)))
        except Exception as exc:
            checker.check(op, None, f"{type(exc).__name__}: {exc}")
            checker.fit_gaps[knot] = 1.0  # a fit that raised reads as 100% off
        else:
            if not checker.check(op, fit) and knot not in checker.fit_gaps:
                checker.fit_gaps[knot] = 1.0  # non-finite estimate
    values = {
        "invariant.cliff_wrong": len([f for f in checker.failures if f.kind == "logscale"]),
        "invariant.cliff_worst_log_err": checker.worst_log_err,
        "asymfit.cliff_fit_rel_gap": max(checker.fit_gaps.values()),
    }
    return values, checker


def paired_overhead(untraced, traced) -> tuple[float, float]:
    """Tracing overhead from per-op latencies at the reference speed: the
    sum of per-op medians over the traced passes over the same over the
    untraced passes, minus 1; and the pass-to-pass noise it must exceed,
    the larger relative range of the untraced and of the traced pass times."""
    def op_medians(passes):
        return [statistics.median(times) for times in zip(*passes)]

    def rel_range(passes):
        walls = [sum(p) for p in passes]
        return (max(walls) - min(walls)) / statistics.median(walls)

    overhead = sum(op_medians(traced)) / sum(op_medians(untraced)) - 1.0
    return overhead, max(rel_range(untraced), rel_range(traced))


def kernel_drift(kernel_ms: float) -> str | None:
    """A warning when the run's kernel median is slower than the kernel
    medians of baseline.json's runs, pooled over workloads, by more than
    DRIFT_IQRS interquartile distances above their third quartile.

    Only a slower kernel is flagged: it makes the scaled times read faster.
    The pool spans the machine's fast and slow states, so a state switch
    alone does not trip it.
    """
    path = HERE / "baseline.json"
    if not path.is_file():
        return None
    pool = [v for w in json.loads(path.read_text())["workloads"].values() for v in w["kernel_ms"]["values"]]
    q1, _, q3 = statistics.quantiles(pool, n=4)
    limit = q3 + DRIFT_IQRS * (q3 - q1)
    if kernel_ms <= limit:
        return None
    return (f"WARNING: calibration kernel median {kernel_ms:.3f} ms is above {limit:.3f} ms, the limit "
            "from baseline.json's runs; the scaled times of this run read too fast, judge it on the raw times")


def median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    """Per key, the median over the dicts; a value that repeats exactly,
    as every count does, is kept as it is."""
    out = {}
    for key in dicts[0]:
        values = [d[key] for d in dicts]
        out[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric names and units BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args) -> dict:
    kv = import_knotvol()
    refs_path = HERE / "refs.json"
    if not refs_path.is_file():
        raise BenchError(f"missing reference table {refs_path}; run knotbench/refgen.py")
    refs = load_refs(refs_path)
    self_check(refs)
    ops = build_ops(args.workload, args.seed)
    cal = Calibrator()
    if not args.trace:
        setup_raw, setup_ref = measure_setup(args.workload, cal)
    cal.sample()
    rss_before_warm_up = max_rss_mb()  # interpreter, numpy, refs and the kernel's arrays
    warm_up(kv, args.workload)

    checker = Checker(refs)  # every pass
    tallies = None  # the first traced pass alone
    tracer = Tracer()
    walls, ref_walls = [], []  # untraced pass times, raw and at the reference speed
    pass_latencies, traced_latencies, layer_passes = [], [], []  # per op, at the reference speed

    def untraced_pass():
        lat, ref_lat, results = run_pass(kv, ops, cal)
        walls.append(sum(lat))
        ref_walls.append(sum(ref_lat))
        pass_latencies.append(ref_lat)
        for op, (result, error) in zip(ops, results):
            checker.check(op, result, error)

    def traced_pass():
        nonlocal tallies
        lo = len(tracer.spans)
        install_tracer(tracer, kv)
        try:
            lat, ref_lat, results = run_pass(kv, ops, cal)
        finally:
            tracer.restore()
        traced_latencies.append(ref_lat)
        layer_passes.append(pass_layers(tracer, lo, len(tracer.spans), sum(lat)))
        pass_checker = Checker(refs)
        for op, (result, error) in zip(ops, results):
            checker.check(op, result, error)
            pass_checker.check(op, result, error)
        if tallies is None:
            tallies = pass_checker

    t_begin = perf_counter()
    deadline = t_begin + args.seconds
    min_passes = MIN_TRACE_PAIRS if args.trace else 1
    while True:
        if not args.trace:
            untraced_pass()
        elif len(layer_passes) % 2 == 0:  # pairs in ABBA order, so drift cancels
            untraced_pass()
            traced_pass()
        else:
            traced_pass()
            untraced_pass()
        if perf_counter() >= deadline and len(pass_latencies) >= min_passes:
            break
    peak_rss_mb = max_rss_mb() - rss_before_warm_up
    kernel_ms = 1e3 * statistics.median(cal.samples)

    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops a pass")
    print("untraced pass times, raw: " + " ".join(f"{w:.3f}" for w in walls) + " s")
    print("untraced pass times at the reference speed: " + " ".join(f"{w:.3f}" for w in ref_walls) + " s")
    print(f"calibration kernel: median {kernel_ms:.3f} ms "
          f"over {len(cal.samples)} samples, reference {1e3 * REFERENCE_S:.2f} ms")
    drift = kernel_drift(kernel_ms)
    if drift:
        print(drift)
        print(drift, file=sys.stderr)
    if not args.trace:
        print(f"set-up, raw: {setup_raw:.4f} s")
    print(f"peak resident set: {max_rss_mb():.1f} MiB, {rss_before_warm_up:.1f} MiB of it before the warm-up calls")
    # an op's latency is its median over the passes; percentiles run over ops
    op_latencies = [statistics.median(times) for times in zip(*pass_latencies)]
    p90 = percentile(op_latencies, 0.9)
    print(f"op latency: {len(op_latencies)} ops, each the median of {len(pass_latencies)} passes; "
          f"{sum(x > p90 for x in op_latencies)} of them above p90")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report_failures(checker, OUT_DIR / f"failures-{stem}.json")
    record = {"raw_wall_s": statistics.median(walls), "kernel_ms": kernel_ms, "drift": drift}
    if not args.trace:
        record["raw_setup_s"] = setup_raw
    (OUT_DIR / f"run-{stem}.json").write_text(json.dumps(record) + "\n")

    if args.trace:
        overhead, noise = paired_overhead(pass_latencies, traced_latencies)
        print(f"trace overhead {overhead:+.4f} over {len(layer_passes)} pairs of passes, pass-to-pass noise "
              f"{noise:.4f}: {'resolved' if overhead > noise else 'unresolved'}")
        values = median_of(layer_passes)
        values.update(thread_probes(kv, tracer))
        cliff, cliff_checker = cliff_probe(kv, refs)
        values.update(cliff)
        print("past the precision cliff, not counted in correct: ", end="")
        report_failures(cliff_checker, OUT_DIR / f"cliff-{stem}.json")
        values.update({
            "invariant.wrong": tallies.wrong_values,
            "invariant.worst_log_err": tallies.worst_log_err,
            "invariant.bound_underestimates": tallies.bound_underestimates,
            "asymfit.fit_rel_gap": max(tallies.fit_gaps.values(), default=0.0),
            "saddle.max_residual": tallies.saddle_max_residual,
            "qdilog.funeq_worst": tallies.funeq_worst,
            "trace.overhead_frac": overhead,
            "trace.overhead_resolved": int(overhead > noise),
            "calib.raw_wall_s": statistics.median(walls),
            "calib.kernel_ms": kernel_ms,
        })
        tracer.write(OUT_DIR / f"spans-{stem}.jsonl", t_begin)
    else:
        values = {
            "setup_s": setup_ref,
            "wall_s": sum(op_latencies),
            "op_p50_ms": 1e3 * percentile(op_latencies, 0.5),
            "op_p90_ms": 1e3 * percentile(op_latencies, 0.9),
            "correct_frac": 1.0 - len(checker.failures) / checker.attempted,
            "peak_rss_mb": peak_rss_mb,
        }
    units = declared_metrics(args.trace)
    if set(values) != set(units):
        raise BenchError(f"measured metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name}: {m['value']!r} {m['unit']}")
    return {
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": metrics,
    }


def report_failures(checker: Checker, path: Path) -> None:
    """Print each distinct failure once and write them all to `path`."""
    distinct = {(f.kind, f.knot, f.order, f.reason): f for f in checker.failures}
    ordered = sorted(distinct.values(), key=lambda f: (f.knot or "", f.order or 0, f.kind))
    print(f"{checker.attempted} ops checked, {len(checker.failures)} failed, {len(ordered)} distinct failures")
    for f in ordered:
        print(f"  FAIL {f.line()}")
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps([f.__dict__ for f in ordered], indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"knotbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
