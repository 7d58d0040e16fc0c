"""Command-line interface: grammar, formats, exit codes, round trips."""

import csv
import io
import math

import pytest

from knotvol import cli

PI = math.pi


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
    assert run(capsys, "dilog")[0] == 2


def test_computational_errors_exit_one(capsys):
    code, _, err = run(
        capsys, "invariant", "--knot", "6_1", "--n", "300", "--mode", "exact"
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
    ],
)
def test_arguments_without_digits_exit_one(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("error:")
    assert message in err


def test_faddeev_command(capsys):
    code, out, _ = run(capsys, "faddeev", "--gamma", repr(PI / 5), "--p", "0.3,0.1")
    assert code == 0
    fields = _fields(out)
    assert "log S_gamma(p)" in fields and "S_gamma(p)" in fields


def test_faddeev_pole_exits_one(capsys):
    code, _, err = run(
        capsys, "faddeev", "--gamma", repr(PI / 5), "--p", repr(PI + PI / 5) + ",0"
    )
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("p", ["inf,0", "nan,0", "1e300,0"])
def test_faddeev_unreachable_argument_exits_one(capsys, p):
    code, out, err = run(capsys, "faddeev", "--gamma", "0.3", "--p", p)
    assert code == 1 and out == "" and err.startswith("error:")


def test_bad_complex_argument_exits_two(capsys):
    assert run(capsys, "dilog", "--z", "banana")[0] == 2


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 5
    assert all(l.startswith("PASS") for l in lines)
