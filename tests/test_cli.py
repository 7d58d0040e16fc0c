"""Command-line interface: grammar, formats, exit codes, round trips."""

import csv
import errno
import io
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from knotvol import cli, invariant, qdilog

PI = math.pi
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fields(text):
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        out[key.strip()] = value.strip()
    return out


def test_invariant_text(capsys):
    code, out, err = run(capsys, "invariant", "--knot", "4_1", "--n", "2")
    assert code == 0 and err == ""
    fields = _fields(out)
    assert fields["knot"] == "4_1"
    assert fields["N"] == "2"
    assert fields["mode"] == "logscale"
    assert abs(float(fields["|<L>|"]) - 5.0) <= 1e-12
    assert fields["term count"] == "2"


def test_invariant_csv(capsys):
    code, out, err = run(
        capsys, "invariant", "--knot", "6_1", "--n", "2",
        "--format", "csv", "--mode", "direct",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0]) == cli.CSV_HEADER
    assert len(rows) == 1
    first = rows[0]
    assert first["knot"] == "6_1" and first["mode"] == "direct"
    assert first["N"] == "2"
    assert abs(float(first["re"]) - 9.0) <= 1e-12
    assert abs(float(first["im"])) <= 1e-12
    assert abs(float(first["log_abs"]) - math.log(9)) <= 1e-10
    assert int(first["term_count"]) == 4
    two_pi = float(first["two_pi_log_abs_over_N"])
    assert abs(two_pi - PI * float(first["log_abs"])) <= 1e-12


def test_invariant_csv_omits_unrepresentable_image(capsys):
    code, out, _ = run(
        capsys, "invariant", "--knot", "4_1", "--n", "4000", "--format", "csv"
    )
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["re"] == "" and row["im"] == ""
    assert float(row["log_abs"]) > 1000


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "invariant", "--knot", "4_1", "--n", "0")[0] == 2
    assert run(capsys, "invariant", "--knot", "9_9", "--n", "5")[0] == 2
    assert run(capsys, "invariant", "--knot", "4_1", "--n", "5", "--mode", "warp")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "fit", "--knot", "4_1")[0] == 2  # window flags missing
    # fit takes no --threads: its orders are evaluated one after another
    assert run(capsys, "fit", "--knot", "4_1", "--n-min", "50", "--n-max", "90", "--threads", "2")[0] == 2
    assert run(capsys, "dilog")[0] == 2


@pytest.mark.parametrize(
    "argv", [("fit", "--in", "a.csv", "--step", "2"), ("fit", "--knot", "4_1")]
)
def test_fit_usage_errors_print_the_fit_usage(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "usage: knotvol fit" in err


def test_computational_errors_exit_one(capsys):
    code, _, err = run(
        capsys, "invariant", "--knot", "6_1", "--n", "560", "--mode", "exact"
    )
    assert code == 1
    assert err.startswith("error:") and "budget" in err
    code, _, err = run(capsys, "invariant", "--knot", "4_1", "--n", "4000", "--mode", "direct")
    assert code == 1 and "logscale" in err


def test_volume_output(capsys):
    code, out, _ = run(capsys, "volume", "--knot", "5_2")
    assert code == 0
    fields = _fields(out)
    assert abs(float(fields["volume"]) - 2.82812208) <= 1e-6
    assert "z0" in fields and "u0" in fields
    code, out, _ = run(capsys, "volume", "--knot", "6_1")
    assert "v0" in _fields(out)


def test_fit_text_and_csv(capsys):
    code, out, _ = run(
        capsys, "fit", "--knot", "4_1", "--n-min", "50", "--n-max", "120", "--step", "10"
    )
    assert code == 0
    fields = _fields(out)
    assert fields["model"] == "linear_plus_log"
    assert abs(float(fields["volume estimate (2*pi*a)"]) - 2.0299) <= 0.01

    code, out, _ = run(
        capsys, "fit", "--knot", "4_1", "--n-min", "50", "--n-max", "120",
        "--step", "10", "--format", "csv",
    )
    row = next(csv.DictReader(io.StringIO(out)))
    assert list(row) == cli.FIT_CSV_HEADER
    assert row["n_min"] == "50" and row["n_max"] == "120"


def test_fit_from_csv_matches_direct_fit(capsys, tmp_path):
    parts = []
    for n in range(40, 121, 10):
        code, out, _ = run(
            capsys, "invariant", "--knot", "5_2", "--n", str(n), "--format", "csv"
        )
        assert code == 0
        parts.append(out)
    path = tmp_path / "series.csv"
    path.write_text("".join(parts))

    code, from_file, _ = run(capsys, "fit", "--in", str(path))
    assert code == 0
    code, direct, _ = run(
        capsys, "fit", "--knot", "5_2", "--n-min", "40", "--n-max", "120", "--step", "10"
    )
    assert code == 0
    assert from_file == direct  # repr round trip keeps every bit


def test_fit_from_csv_keeps_the_window(capsys, tmp_path):
    parts = []
    for n in (50, 60, 70, 80, 90, 100, 200):
        _, out, _ = run(capsys, "invariant", "--knot", "4_1", "--n", str(n), "--format", "csv")
        parts.append(out)
    path = tmp_path / "series.csv"
    path.write_text("".join(parts))

    code, from_file, _ = run(
        capsys, "fit", "--in", str(path), "--n-min", "60", "--n-max", "100"
    )
    assert code == 0
    code, direct, _ = run(
        capsys, "fit", "--knot", "4_1", "--n-min", "60", "--n-max", "100", "--step", "10"
    )
    assert code == 0
    assert from_file == direct  # the rows outside 60..100 are not fitted
    assert _fields(from_file)["window"] == "60..100"

    code, out, _ = run(capsys, "fit", "--in", str(path), "--n-min", "60")
    assert code == 0
    assert _fields(out)["window"] == "60..200" and _fields(out)["points"] == "6"

    # the file's rows are the orders, so a step is a usage error
    code, out, err = run(capsys, "fit", "--in", str(path), "--step", "2")
    assert code == 2 and out == "" and "--step" in err


def test_fit_from_csv_rejects_mixed_knots(capsys, tmp_path):
    code, out, _ = run(
        capsys, "invariant", "--knot", "4_1", "--n", "10", "--format", "csv"
    )
    code, out2, _ = run(
        capsys, "invariant", "--knot", "5_2", "--n", "11", "--format", "csv"
    )
    path = tmp_path / "mixed.csv"
    path.write_text(out + out2)
    code, _, err = run(capsys, "fit", "--in", str(path))
    assert code == 1 and "knot" in err


def test_fit_from_csv_skips_repeated_headers(capsys, tmp_path):
    parts = []
    for n in (50, 60, 70, 80):
        _, out, _ = run(capsys, "invariant", "--knot", "4_1", "--n", str(n), "--format", "csv")
        parts.append(out)  # each part carries its own header line
    path = tmp_path / "concat.csv"
    path.write_text("".join(parts))
    code, out, _ = run(capsys, "fit", "--in", str(path))
    assert code == 0
    assert _fields(out)["points"] == "4"


def test_fit_from_csv_names_a_missing_column(capsys, tmp_path):
    # the output of `fit --format csv` is not a growth series
    _, out, _ = run(
        capsys, "fit", "--knot", "4_1", "--n-min", "10", "--n-max", "40",
        "--step", "10", "--format", "csv",
    )
    path = tmp_path / "fit.csv"
    path.write_text(out)
    code, _, err = run(capsys, "fit", "--in", str(path))
    assert code == 1
    assert f"{path} line 1: no column 'N'" in err


def test_fit_from_csv_names_a_bad_cell(capsys, tmp_path):
    parts = []
    for n in (10, 20, 30, 40):
        _, out, _ = run(capsys, "invariant", "--knot", "4_1", "--n", str(n), "--format", "csv")
        parts.append(out)
    rows = list(csv.reader(io.StringIO("".join(parts))))
    rows[5][cli.CSV_HEADER.index("log_abs")] = ""  # N = 30, on line 6
    path = tmp_path / "series.csv"
    path.write_text("\n".join(",".join(row) for row in rows) + "\n")
    code, _, err = run(capsys, "fit", "--in", str(path))
    assert code == 1
    assert f"{path} line 6: bad log_abs value ''" in err
    path.write_text("knot,N,log_abs\n4_1,10,1.0\n4_1,x,2.0\n4_1,30\n")
    code, _, err = run(capsys, "fit", "--in", str(path))
    assert code == 1 and f"{path} line 3: bad N value 'x'" in err
    path.write_text("knot,N,log_abs\n4_1,10,1.0\n4_1,30\n")
    code, _, err = run(capsys, "fit", "--in", str(path))
    assert code == 1 and f"{path} line 3: no log_abs value" in err


def test_fit_from_csv_names_an_unknown_knot(capsys, tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("knot,N,log_abs\n4_1,10,1.0\n4_2,20,2.0\n")
    code, _, err = run(capsys, "fit", "--in", str(path))
    assert code == 1
    assert f"{path} line 3: unknown knot '4_2'; expected one of: 4_1, 5_2, 6_1" in err


def test_fit_from_csv_names_a_repeated_order(capsys, tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("knot,N,log_abs\n4_1,10,1.0\n4_1,20,2.0\n4_1,10,1.5\n")
    code, _, err = run(capsys, "fit", "--in", str(path))
    assert code == 1
    assert f"{path} line 4: duplicate order N = 10 (first on line 2)" in err


def test_dilog_command(capsys):
    code, out, _ = run(capsys, "dilog", "--z", "0.5,0")
    assert code == 0
    fields = _fields(out)
    assert abs(float(fields["re"]) - (PI * PI / 12 - math.log(2) ** 2 / 2)) <= 1e-14
    assert float(fields["im"]) == 0.0


def test_lobachevsky_command(capsys):
    code, out, _ = run(capsys, "lobachevsky", "--theta", repr(PI / 6))
    assert code == 0
    assert abs(float(_fields(out)["lambda"]) - 0.5074708032048268) <= 1e-12


@pytest.mark.parametrize(
    "argv, message",
    [
        (("lobachevsky", "--theta", "1e300"), "theta = 1e+300 is too large"),
        (("lobachevsky", "--theta", "nan"), "theta must be finite, got nan"),
        (("lobachevsky", "--theta=-inf"), "theta must be finite, got -inf"),
        (("dilog", "--z", "inf,0"), "z must be finite, got (inf+0j)"),
        (("dilog", "--z", "0.5,nan"), "z must be finite"),
        # a negative inf after the option is read as its value too
        (("lobachevsky", "--theta", "-inf"), "theta must be finite, got -inf"),
        (("dilog", "--z", "-inf,0"), "z must be finite, got (-inf+0j)"),
        (("faddeev", "--gamma", "-inf", "--p", "0.3,0.1"), "gamma must be positive, got -inf"),
    ],
)
def test_arguments_without_digits_exit_one(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("error:")
    assert message in err


@pytest.mark.parametrize(
    "argv, value",
    [
        (("lobachevsky", "--theta", "-1e3"), "theta: -1000.0"),
        (("lobachevsky", "--theta", "-.5"), "theta: -0.5"),
        (("lobachevsky", "--thet", "-1E3"), "theta: -1000.0"),
        (("dilog", "--z", "-1e3,0"), "z: (-1000+0j)"),
        (("dilog", "--z", "-0.5,-2E-1"), "z: (-0.5-0.2j)"),
        (("faddeev", "--gamma", "0.3", "--p", "-0.3,0.1"), "p: (-0.3+0.1j)"),
        (("faddeev", "--gamma", "0.3", "--p", "-3e-1,1e-1"), "p: (-0.3+0.1j)"),
    ],
)
def test_negative_number_values_are_values(capsys, argv, value):
    # argparse alone reads `--theta -1e3` as an option with no value; the
    # separate and the joined spelling must give the same output
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "", err
    assert value in out.splitlines()
    joined, tokens = [], iter(argv)
    for token in tokens:
        joined.append(f"{token}={next(tokens)}" if token.startswith("--") else token)
    assert run(capsys, *joined)[1] == out


def test_faddeev_command(capsys):
    code, out, _ = run(capsys, "faddeev", "--gamma", repr(PI / 5), "--p", "0.3,0.1")
    assert code == 0
    fields = _fields(out)
    assert "log S_gamma(p)" in fields and "S_gamma(p)" in fields


def test_faddeev_at_the_strip_edge_of_order_100(capsys):
    # gamma - pi at gamma = pi/100: the tail from x = 120 on is 7e-4, so
    # the quadrature must extend its grid
    gamma = PI / 100
    code, out, err = run(capsys, "faddeev", "--gamma", repr(gamma), f"--p={gamma - PI!r},0")
    assert code == 0 and err == ""
    assert "S_gamma(p)" in _fields(out)


@pytest.mark.parametrize("flag", [("--step", "0.1"), ("--truncation", "200")])
def test_faddeev_grid_flags_are_gone(capsys, flag):
    # the quadrature sizes its own grid; the old flags are usage errors
    code, out, err = run(capsys, "faddeev", "--gamma", repr(PI / 5), "--p", "0.3,0.1", *flag)
    assert code == 2 and out == "" and "unrecognized arguments" in err


def test_faddeev_pole_exits_one(capsys):
    code, _, err = run(
        capsys, "faddeev", "--gamma", repr(PI / 5), "--p", repr(PI + PI / 5) + ",0"
    )
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("p", ["inf,0", "nan,0", "1e300,0"])
def test_faddeev_unreachable_argument_exits_one(capsys, p):
    code, out, err = run(capsys, "faddeev", "--gamma", "0.3", "--p", p)
    assert code == 1 and out == "" and err.startswith("error:")


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone, with a file descriptor to redirect."""

    def __init__(self, fd):
        super().__init__()
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self):
        return self._fd


def test_closed_pipe_is_not_an_error(capsys, monkeypatch, tmp_path):
    # `knotvol faddeev ... | grep -q ...`: grep stops reading after its
    # match, which is no computational error
    with open(tmp_path / "stdout", "w") as sink:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(sink.fileno()))
        assert cli.main(["faddeev", "--gamma", "0.7", "--p", "0,0"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv", [["faddeev", "--gamma", "0.7", "--p", "0,0"], ["--help"]], ids=["faddeev", "help"]
)
def test_closed_pipe_exits_quietly(argv, unbuffered):
    # a real pipe whose read end is closed before the command writes: the
    # write fails inside main (unbuffered) or at its flush (buffered), and
    # the interpreter's own flush at exit must not report it again
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "knotvol.cli", *argv],
            stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_bad_complex_argument_exits_two(capsys):
    assert run(capsys, "dilog", "--z", "banana")[0] == 2


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 5
    assert all(l.startswith("PASS") for l in lines)


def _nan_at_fifty(nan_mode):
    """quantum_invariant with a NaN value of `nan_mode` at N = 50, after
    finite ones."""

    def fake(real):
        def wrapped(knot, order, mode="logscale", **kwargs):
            if mode == nan_mode and order == 50:
                return types.SimpleNamespace(value_complex=complex("nan"))
            return real(knot, order, mode, **kwargs)

        return wrapped

    return fake


@pytest.mark.parametrize(
    "item, module, name, fake",
    [
        ("faddeev functional equation", qdilog, "funeq_residual", lambda _: lambda *a: math.nan),
        ("analytic continuation", qdilog, "f_gamma", lambda _: lambda *a: complex("nan")),
        ("direct/logscale mode equivalence", invariant, "quantum_invariant", _nan_at_fifty("direct")),
        ("cyclotomic exact oracle", invariant, "quantum_invariant", _nan_at_fifty("exact")),
    ],
    ids=["funeq", "lattice", "mode", "exact"],
)
def test_verify_fails_on_nan(capsys, monkeypatch, item, module, name, fake):
    # max(0.0, nan) is 0.0: a reduction through max would drop the NaN and pass
    monkeypatch.setattr(module, name, fake(getattr(module, name)))
    code, out, _ = run(capsys, "verify")
    assert code == 1
    (line,) = [l for l in out.splitlines() if item in l]
    assert line.startswith("FAIL") and "nan" in line
    assert sum(l.startswith("FAIL") for l in out.splitlines()) == 1
