import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from modwind import cli
from modwind.cli import main
from modwind.errors import (
    CapExceeded,
    DomainError,
    InsufficientData,
    QuadratureFailure,
    ResourceError,
)
from modwind.geodesics import MAX_LENGTH_BOUND, EnumerationConfig, enumerate_geodesics, word_to_matrix
from modwind.matrices import geodesic_length
from modwind.verify import VERIFY_MAX_TRACE_CAP, SuiteResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0] == "word,trace,length,psi"
    rows = []
    for line in lines[1:]:
        word, trace, length, psi = line.split(",")
        rows.append(
            (
                tuple(int(a) for a in word.split("-")),
                int(trace),
                float(length),
                int(psi),
            )
        )
    return rows


class TestEnumerate:
    def test_small_cap_csv(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-length", "3.2")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 5
        assert rows[-1][:2] == ((3, 1), 5)
        assert rows[-1][2] == pytest.approx(2 * math.acosh(2.5), abs=1e-9)
        assert rows[-1][3] == 2

    def test_header_only_below_first_class(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-length", "1")
        assert code == 0
        assert out == "word,trace,length,psi\n"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-length", "6.3", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert {"word": [3, 7], "trace": 23, "length": 6.26719694789, "psi": -4} in rows
        # every row round-trips, as in test_csv_roundtrip, and an empty census is []
        code, out, _ = run(capsys, "enumerate", "--max-length", "12", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        census = enumerate_geodesics(EnumerationConfig(max_length=12.0))
        assert len(rows) > 10**4
        assert rows == [
            {"word": list(e), "trace": t, "length": float("%.12g" % l), "psi": p}
            for e, t, l, p in census.rows()
        ]
        assert run(capsys, "enumerate", "--max-length", "1", "--format", "json") == (0, "[]\n", "")

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        code, out, _ = run(capsys, "enumerate", "--max-length", "3.2", "--out", str(path))
        assert code == 0
        assert out == ""
        assert parse_csv(path.read_text())[0][0] == (1, 1)

    def test_out_path_that_cannot_be_opened(self, tmp_path, capsys):
        path = tmp_path / "missing" / "rows.csv"
        code, out, err = run(capsys, "enumerate", "--max-length", "3", "--out", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and str(path) in err and "Traceback" not in err

    def test_csv_roundtrip(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-length", "12")
        assert code == 0
        rows = parse_csv(out)
        records = enumerate_geodesics(EnumerationConfig(max_length=12.0))
        assert len(rows) > 10**4
        assert [
            (r.word.entries, r.trace, float("%.12g" % r.length), r.psi) for r in records
        ] == rows

    def test_bound_equal_to_a_length_lists_its_classes(self, capsys):
        # 2.633915793849633 is the length of trace 4, the length of 1-2 and 2-1
        code, out, _ = run(capsys, "enumerate", "--max-length", "2.633915793849633")
        assert code == 0
        assert [row[0] for row in parse_csv(out)] == [(1, 1), (1, 2), (2, 1)]

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("--max-length", "12"), "6343939155ed2c2d179e70820b81b88c2dd8f8d3f0a584ac9acb1c5242736762"),
            (("--max-length", "14"), "272a7265f088acbc25ef5e509ebdd3b84c56d915c671517e6a5eaf13ac24c34d"),
            (
                ("--max-length", "12", "--format", "json"),
                "8e0fb5345b8b997e0467d86c4b458bc64970581e927123b5623747f7c8279299",
            ),
        ],
        ids=["csv12", "csv14", "json12"],
    )
    def test_output_bytes_pinned(self, capsys, argv, digest):
        # SHA-256 of the output of the depth-first enumerator and the
        # whole-string writers that the Lyndon walk and the streaming writers
        # replaced
        code, out, _ = run(capsys, "enumerate", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_closed_stdout_exits_1_quietly(self, fmt):
        # a reader that stops early, as `enumerate ... | head -c 100` does:
        # click's handling of the broken pipe exits 1 and writes nothing
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = [sys.executable, "-m", "modwind.cli", "enumerate", "--max-length", "14", "--format", fmt]
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
            assert len(child.stdout.read(100)) == 100
            child.stdout.close()
            err = child.stderr.read()
            assert child.wait(timeout=60) == 1
        assert err == b""

    def test_over_memory_budget_fails_fast(self, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        start = time.perf_counter()
        code, out, err = run(capsys, "enumerate", "--max-length", "20", "--out", str(path))
        assert code == 1
        assert out == "" and not path.exists()
        assert "outside" in err
        assert time.perf_counter() - start < 5.0

    def test_bad_length(self, capsys):
        code, _, err = run(capsys, "enumerate", "--max-length", "25")
        assert code == 1
        assert err

    def test_unknown_flag_fatal(self, capsys):
        code, _, _ = run(capsys, "enumerate", "--max-length", "3", "--bogus")
        assert code == 1


class TestPsi:
    def test_all_methods_agree(self, capsys):
        code, out, _ = run(capsys, "psi", "--matrix", "22,3,7,1", "--method", "all")
        assert code == 0
        values = dict(line.split(": ") for line in out.strip().split("\n"))
        assert set(values) == {"cf", "dedekind", "cocycle", "index", "period"}
        assert {v.rstrip("0").rstrip(".") if "." in v else v for v in values.values()} == {"-4"}

    def test_identity(self, capsys):
        code, out, _ = run(capsys, "psi", "--matrix", "1,0,0,1")
        assert code == 0
        assert out.strip() == "dedekind: 0"

    def test_word_input(self, capsys):
        code, out, _ = run(capsys, "psi", "--word", "3-7", "--method", "cf")
        assert code == 0
        assert out.strip() == "cf: -4"

    def test_negative_trace_matrix(self, capsys):
        code, out, _ = run(capsys, "psi", "--matrix", "-22,-3,-7,-1", "--method", "all")
        assert code == 0

    def test_cocycle_on_entries_beyond_float_range(self, capsys):
        matrix = f"{10**400},{10**400 - 1},1,1"
        code, out, _ = run(capsys, "psi", "--matrix", matrix, "--method", "cocycle")
        assert code == 0
        _, exact, _ = run(capsys, "psi", "--matrix", matrix, "--method", "dedekind")
        assert out.split(": ")[1] == exact.split(": ")[1]

    def test_parabolic_all_methods(self, capsys):
        # the hyperbolic-only methods are skipped, not reported as errors
        code, out, _ = run(capsys, "psi", "--matrix", "1,1,0,1", "--method", "all")
        assert (code, out) == (0, "dedekind: 1\ncocycle: 1\n")

    def test_proper_power_all_methods(self, capsys):
        # cf refuses a proper power; --method all reports the other four
        code, out, _ = run(capsys, "psi", "--word", "1-2-1-2", "--method", "all")
        assert code == 0
        values = dict(line.split(": ") for line in out.strip().split("\n"))
        assert set(values) == {"dedekind", "cocycle", "index", "period"}
        assert {round(float(v)) for v in values.values()} == {-2}
        code, out, err = run(capsys, "psi", "--word", "1-2-1-2", "--method", "cf")
        assert (code, out) == (1, "")
        assert "proper power" in err

    @pytest.mark.parametrize(
        "argv", [("psi", "--method", "cf"), ("psi", "--method", "index"), ("psi", "--method", "period"), ("index",)]
    )
    def test_parabolic_refusal_names_the_trace_given(self, capsys, argv):
        # -(1 1; 0 1) has trace -2: both commands flip a matrix's sign below
        # trace -2 only, so both refuse this one as given
        code, out, err = run(capsys, *argv, "--matrix=-1,-1,0,-1")
        assert (code, out, err) == (1, "", "error: trace -2 (need trace > 2)\n")

    def test_determinant_error(self, capsys):
        code, _, err = run(capsys, "psi", "--matrix", "1,1,1,1")
        assert code == 1
        assert "determinant" in err

    def test_requires_one_input(self, capsys):
        assert run(capsys, "psi")[0] == 1
        assert run(capsys, "psi", "--matrix", "1,0,0,1", "--word", "1-1")[0] == 1


class TestIndex:
    def test_word(self, capsys):
        code, out, _ = run(capsys, "index", "--word", "3-7")
        assert code == 0
        payload = json.loads(out)
        assert payload["index"] == -4
        assert payload["residual"] < 1e-3

    def test_matrix(self, capsys):
        code, out, _ = run(capsys, "index", "--matrix", "22,3,7,1")
        assert code == 0
        assert json.loads(out)["index"] == -4

    def test_negative_trace_matrix(self, capsys):
        code, out, _ = run(capsys, "index", "--matrix", "-22,-3,-7,-1")
        assert code == 0
        assert out == run(capsys, "index", "--matrix", "22,3,7,1")[1]

    @pytest.mark.parametrize("n", [40, 60, 200])
    def test_conjugates_with_large_entries(self, capsys, n):
        # tau (2 1)-word tau^-1 with tau = A_1^n, entries of 54 to 276 bits
        tau = word_to_matrix((1,) * n)
        g = tau @ word_to_matrix((2, 1)) @ tau.inverse()
        code, out, _ = run(capsys, "index", "--matrix", ",".join(map(str, g.entries())))
        assert code == 0
        assert json.loads(out)["index"] == 1

    # every ResourceError exits 3; any other library error exits 1
    @pytest.mark.parametrize("error", ResourceError.__subclasses__() + [DomainError])
    def test_numerical_failure_exits_3(self, capsys, monkeypatch, error):
        def fail(gamma):
            raise error("injected")

        monkeypatch.setattr(cli, "winding_index", fail)
        code, out, err = run(capsys, "index", "--word", "3-7")
        if issubclass(error, ResourceError):
            assert (code, err) == (3, "resource/data error: injected\n")
        else:
            assert (code, err) == (1, "error: injected\n")
        assert out == ""

    def test_residual_refusal_exits_3(self, capsys):
        # long_words(55, 20)[6] of tests/test_winding.py, as its product and as
        # --word, which passes its canonical rotation: winding_index reads the
        # class, so it refuses both
        w = (9, 5, 8, 3, 7, 8, 2, 5, 8, 6, 2, 4, 7, 3, 8, 1, 2, 1, 8, 9)
        matrix = ",".join(map(str, word_to_matrix(w).entries()))
        for argv in (("--matrix", matrix), ("--word", "-".join(map(str, w)))):
            code, out, err = run(capsys, "index", *argv)
            assert (code, out) == (3, "")
            assert err.startswith("resource/data error: winding total") and err.count("\n") == 1

    def test_resource_errors(self):
        assert set(ResourceError.__subclasses__()) == {
            CapExceeded,
            InsufficientData,
            QuadratureFailure,
        }


# The refusals of the argument parsing: exit 1, nothing on stdout, one line on
# stderr, and no census built.
@pytest.mark.parametrize(
    "argv, message",
    [
        (("psi", "--word", "1-2-3"), "word length 3"),
        (("psi", "--matrix", "1,2,3"), "--matrix wants a,b,c,d"),
        (("stats-density", "--max-length", "10", "--n-range", "5"), "bad range"),
        (("stats-density", "--max-length", "10", "--n-range", "5..1"), "empty range"),
        (("stats-twisted", "--max-length", "10", "--r-grid", "0:1"), "bad grid"),
        (("stats-twisted", "--max-length", "10"), "exactly one of --r or --r-grid"),
        (("stats-twisted", "--max-length", "10", "--r", "0.25", "--r-grid", "0:1:0.25"), "exactly one"),
    ],
    ids=["odd-word", "short-matrix", "bad-range", "empty-range", "bad-grid", "no-r", "both-r"],
)
def test_parse_refusals(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(cli, "_census", lambda t: pytest.fail("census built"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_interrupt_exits_130(capsys, monkeypatch):
    # click turns a KeyboardInterrupt into Abort, after a bare newline on
    # stderr; main adds one diagnostic line and exits 128 + SIGINT
    def interrupted(**kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_all", interrupted)
    assert run(capsys, "verify", "--max-length", "5") == (130, "", "\ninterrupted\n")


def test_methods_disagree_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "e2_period", lambda g: cli.psi(g) + 1)
    code, out, err = run(capsys, "psi", "--matrix", "22,3,7,1", "--method", "all")
    assert code == 2
    assert out == "cf: -4\ndedekind: -4\ncocycle: -4\nindex: -4\nperiod: -3\n"
    assert err.startswith("verification failure: methods disagree") and err.count("\n") == 1


# Cusp excursions of about 1e9 turns.  The period cannot reach its error
# budget in double precision on one; the winding index takes the excursion at
# the top of its axis in closed form, but a second one, low on the axis, would
# need about 7e9 grid nodes.  Both refuse up front instead of running for hours.
@pytest.mark.parametrize(
    "argv",
    [
        ("index", "--word", "2-1000000000-3-999999999"),
        ("psi", "--word", "1-1000000000", "--method", "period"),
    ],
    ids=["index", "period"],
)
def test_huge_word_fails_fast(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "resource/data error" in err
    assert time.perf_counter() - start < 20.0


def test_huge_cusp_excursion_at_the_top_computed(capsys):
    # the one excursion of (1, 10^9) is the flat top of the axis
    code, out, _ = run(capsys, "index", "--word", "1-1000000000")
    assert code == 0
    payload = json.loads(out)
    assert payload["index"] == -999999999 and payload["residual"] < 1e-6



LONG_WORD = "-".join(["2"] + ["1"] * 100001)  # about 69,000 bits


@pytest.mark.parametrize(
    "argv",
    [
        ("psi", "--word", LONG_WORD, "--method", "cf"),
        ("index", "--word", LONG_WORD),
        ("psi", "--word", f"3-{2**cli.MAX_ENTRY_BITS}", "--method", "all"),
        ("psi", "--matrix", f"1,{2**cli.MAX_ENTRY_BITS},0,1", "--method", "all"),
        ("index", "--matrix", f"{2**cli.MAX_ENTRY_BITS + 1},{2**cli.MAX_ENTRY_BITS},1,1"),
        ("psi", "--matrix", "1,%s,0,1" % ("9" * 5000)),
    ],
    ids=["psi-word", "index-word", "digit", "psi-matrix", "index-matrix", "past-int-parsing"],
)
def test_oversized_input_fails_fast(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert "bits" in err or "bad --matrix" in err


def test_entries_at_the_limit_accepted(capsys):
    big = 2**cli.MAX_ENTRY_BITS - 1
    code, out, _ = run(capsys, "psi", "--matrix", f"1,{big},0,1", "--method", "cocycle")
    assert (code, out) == (0, f"cocycle: {big}\n")
    code, out, _ = run(capsys, "psi", "--word", "2-1-1-1", "--method", "cf")
    assert (code, out) == (0, "cf: 1\n")


def test_long_word_at_the_limit_is_fast(capsys):
    # 2-1-...-1 of 5,894 digits has 4,092-bit entries; its canonical rotation
    # is one linear pass (0.47 s when it was a search over every rotation)
    word = "-".join(["2"] + ["1"] * 5893)
    start = time.perf_counter()
    code, out, _ = run(capsys, "psi", "--word", word, "--method", "dedekind")
    assert time.perf_counter() - start < 0.25
    assert (code, out) == (0, "dedekind: 1\n")


class TestStatsCommands:
    def test_density_shape(self, capsys):
        code, out, _ = run(
            capsys, "stats-density", "--max-length", "10", "--n-range", "-5..5"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,empirical,predicted"
        assert len(lines) == 12

    def test_cauchy_json(self, capsys):
        code, out, _ = run(capsys, "stats-cauchy", "--max-length", "10")
        assert code == 0
        payload = json.loads(out)
        assert 0.0 <= payload["ks_statistic"] <= 1.0

    def test_csv_out_to_a_directory(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "stats-cauchy", "--max-length", "10", "--csv-out", str(tmp_path)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and str(tmp_path) in err and "Traceback" not in err

    def test_cauchy_insufficient(self, capsys):
        code, _, err = run(capsys, "stats-cauchy", "--max-length", "8")
        assert code == 3
        assert err

    def test_equidist(self, capsys):
        code, out, _ = run(
            capsys, "stats-equidist", "--max-length", "10", "--modulus", "3"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "residue,empirical,predicted"
        assert len(lines) == 4

    def test_twisted_grid(self, capsys):
        code, out, _ = run(
            capsys,
            "stats-twisted",
            "--max-length",
            "10",
            "--r-grid",
            "-0.45:0.45:0.05",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "r,abs_sum,main_term,relative_error"
        assert len(lines) == 20

    @pytest.mark.parametrize(
        "grid, count, last",
        [
            ("0:1:0.6", 2, 0.6),
            ("0:7:2", 4, 6.0),
            ("11:12:0.6", 2, 11.6),
            ("0:0.3:0.1", 4, 0.3),
            ("-0.45:0.45:0.05", 19, 0.45),
            ("0:11.9988:0.0012", 10_000, 11.9988),
        ],
    )
    def test_grid_stops_at_its_stop(self, grid, count, last):
        rs = cli._parse_grid(grid)
        assert len(rs) == count
        assert rs[-1] == pytest.approx(last, abs=1e-12)

    def test_grid_ending_inside_the_range_of_r(self, capsys):
        # 11 + 2 * 0.6 = 12.2 would be past |r| <= 12
        code, out, _ = run(
            capsys, "stats-twisted", "--max-length", "8", "--r-grid", "11:12:0.6"
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 3

    def test_twisted_single_above_half_has_no_main_term(self, capsys):
        code, out, _ = run(capsys, "stats-twisted", "--max-length", "10", "--r", "0.6")
        assert code == 0
        assert out.strip().split("\n")[1].endswith(",,")


    @pytest.mark.parametrize(
        "argv",
        [
            ("stats-twisted", "--r-grid", "0:inf:1"),
            ("stats-twisted", "--r-grid", "nan:1:1"),
            ("stats-twisted", "--r-grid", "0:12:1e-9"),
            ("stats-twisted", "--r-grid", "-1e308:1e308:1"),
            ("stats-twisted", "--r", "nan"),
            ("stats-twisted", "--r", "inf"),
            ("stats-density", "--n-range", "-1000000000..1000000000"),
            ("stats-equidist", "--modulus", "100000000"),
            ("stats-twisted", "--r", "13"),
            ("stats-twisted", "--r", "-12.5"),
            ("stats-twisted", "--r-grid", "0:13:1"),
            ("stats-density", "--n-range", f"{10**400 - 2}..{10**400}"),
            ("stats-density", "--n-range", f"{-(10**400)}..{-(10**400)}"),
        ],
        ids=[
            "grid-inf", "grid-nan", "grid-rows", "grid-span", "r-nan", "r-inf", "n-range", "modulus",
            "r-13", "r-minus-12.5", "grid-past-12", "n-range-high-past-float", "n-range-low-past-float",
        ],
    )
    def test_table_refused_before_the_census(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "_census", lambda t: pytest.fail("census built"))
        start = time.perf_counter()
        code, out, err = run(capsys, argv[0], "--max-length", "15", *argv[1:])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert time.perf_counter() - start < 5.0

    def test_largest_table_accepted(self, capsys):
        code, out, _ = run(
            capsys, "stats-equidist", "--max-length", "10", "--modulus", str(cli.MAX_TABLE_ROWS)
        )
        assert code == 0
        assert len(out.strip().split("\n")) == cli.MAX_TABLE_ROWS + 1


# SHA-256 of the output of each command that writes a table or psi values,
# as the hand-built line loops that the one table writer replaced wrote them:
# stdout, then the --csv-out file
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("stats-density", "--max-length", "12", "--n-range", "-7..7"),
            "434ded8e6c2d674b2d52d6b4f148a696fdd1576ac359032d5b599cfacdf6b72d",
        ),
        (
            ("stats-cauchy", "--max-length", "12", "--csv-out", "{csv}"),
            "d21fd94ec38b9a751b5b55d2810bb70c6faf5ca26458ac37a9bab410bdf45f40",
        ),
        (
            ("stats-equidist", "--max-length", "12", "--modulus", "7"),
            "598c022394a9d3ffa0929ac7905c51fc1640035de8b0fe9fa5edbc7ee36beeed",
        ),
        (
            ("stats-twisted", "--max-length", "12", "--r-grid", "-0.6:0.6:0.05"),
            "7877ae552185cb7e20d414331e019cd387840c5f474f8881308dab68e6c5d800",
        ),
        (
            ("stats-twisted", "--max-length", "12", "--r", "0.25"),
            "f7a4f56d53ad2413425375a45942742e7297a4287ee2be1ee44bd73d2ba147ad",
        ),
        (
            ("psi", "--word", "5-300-7-9000", "--method", "all"),
            "724ffd0093e81d3a53cc42b9e72a46f763be2999b2a473412028f0c8fe593d40",
        ),
        (
            ("psi", "--word", "5-300-7-9000", "--method", "period"),
            "f8986048909cd3fe31f70e258d12b20fcd260acb62ed17fcbeb61d19e6771a07",
        ),
        (
            ("psi", "--word", "5-300-7-9000", "--method", "dedekind"),
            "f79533dbabd8e15da90263c2a855a5713e8e1ca08c3cb47a02b5f393cfe2d56b",
        ),
        (
            ("psi", "--matrix", "22,3,7,1", "--method", "all"),
            "fcb3f909d4b78eee9cc5d93f76cf2b834125418a7a18954c1451504a2e3d720c",
        ),
    ],
    ids=[
        "density12", "cauchy12-csv", "equidist12", "twisted12-grid", "twisted12-r",
        "psi-all", "psi-period", "psi-dedekind", "psi-all-matrix",
    ],
)
def test_table_bytes_pinned(tmp_path, capsys, argv, digest):
    csv = tmp_path / "table.csv"
    code, out, _ = run(capsys, *(arg.format(csv=csv) for arg in argv))
    assert code == 0
    if csv.exists():
        out += csv.read_text()
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-length", "8", "--sample", "20")
        assert code == 0
        suites = json.loads(out)
        assert len(suites) == 12
        assert all(s["failed"] == 0 and s["passed"] > 0 for s in suites)

    def test_small_sample_at_the_default_length(self, capsys):
        # fewer than the ten forced large-entry classes
        code, out, _ = run(capsys, "verify", "--sample", "3")
        assert code == 0
        winding = json.loads(out)[-1]
        assert winding["suite"] == "winding_sample"
        assert winding["passed"] == 6 and winding["failed"] == 0

    def test_failing_suite_exits_2(self, capsys, monkeypatch):
        def failing(**kwargs):
            return [SuiteResult("injected", 1, 1, ["note"])]

        monkeypatch.setattr(cli, "run_all", failing)
        code, out, err = run(capsys, "verify")
        assert code == 2
        assert json.loads(out)[0]["failed"] == 1
        assert err.startswith("verification failure:")

    def test_cap_guard(self, capsys):
        code, _, err = run(capsys, "verify", "--max-length", "25")
        assert code == 1
        assert err

    @pytest.mark.parametrize("sample", [0, cli.MAX_SAMPLE + 1, 250_000])
    def test_sample_out_of_range_refused_before_the_census(self, capsys, monkeypatch, sample):
        monkeypatch.setattr(cli, "run_all", lambda **kwargs: pytest.fail("verify ran"))
        code, out, err = run(capsys, "verify", "--max-length", "15", "--sample", str(sample))
        assert code == 1
        assert out == ""
        assert "--sample" in err

    def test_census_bound_fails_fast(self, capsys):
        # T = 16 is within the census's length bound, but its trace cap, 2,980,
        # is past VERIFY_MAX_TRACE_CAP: word_census would check 594,786 classes
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--max-length", "16")
        assert code == 3
        assert out == ""
        assert "classes" in err
        assert time.perf_counter() - start < 5.0


# every command that takes --max-length, with the other arguments it needs
LENGTH_COMMANDS = {
    "enumerate": [],
    "stats-density": [],
    "stats-cauchy": [],
    "stats-equidist": ["--modulus", "3"],
    "stats-twisted": ["--r", "0.5"],
    "verify": [],
}


@pytest.mark.parametrize("command", list(LENGTH_COMMANDS))
def test_length_just_past_the_bound_exits_1(capsys, command):
    T = math.nextafter(MAX_LENGTH_BOUND, math.inf)
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--max-length", repr(T), *LENGTH_COMMANDS[command])
    assert code == 1
    assert out == "" and "outside" in err
    assert time.perf_counter() - start < 1.0


def test_verify_just_past_its_trace_cap_exits_3(capsys):
    T = geodesic_length(VERIFY_MAX_TRACE_CAP + 1)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--max-length", repr(T))
    assert code == 3
    assert out == "" and "classes" in err
    assert time.perf_counter() - start < 1.0
