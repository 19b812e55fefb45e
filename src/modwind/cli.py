"""Command line interface: enumeration, symbol computations, statistics, verify.

Exit codes: 0 success, 1 usage, validation or output file error, 2 verification
failure (a mathematical disagreement or a failed suite), 3 resource or data error,
130 (128 + SIGINT) interrupted, with one `interrupted` line on stderr.
Diagnostics go to stderr; stdout carries data only.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict
from typing import Iterable, Iterator, List, Optional, Sequence, TextIO

import click

from .errors import ModwindError, NotHyperbolic, NotPrimitive, ResourceError
from .geodesics import (
    Census,
    EnumerationConfig,
    MAX_LENGTH_BOUND,
    canonical_form,
    enumerate_geodesics,
    matrix_to_word,
    validate_entries,
    word_to_matrix,
)
from .matrices import Mat2
from .rademacher import psi, psi_cf, psi_cocycle
from .stats import (
    MAX_TABLE_ROWS,
    _kernel_width,
    _modulus,
    _weights,
    cauchy_compare,
    density_table,
    equidistribution,
    twisted_sums,
    winding_histogram,
)
from .verify import run_all
from .winding import e2_period, winding_index

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_RESOURCE = 3
EXIT_INTERRUPT = 130

# --matrix and --word are refused when an entry of the matrix has more bits;
# every psi method then finishes or fails within a few seconds (README).
MAX_ENTRY_BITS = 4096
_LOG2_PHI = math.log2((1 + math.sqrt(5)) / 2)

# verify --sample is refused above this before the census is built; the
# winding suite costs about 0.2 ms a sampled class (0.19-0.30 ms, median 0.23,
# in 8 timings of 10,000 samples at T = 15.0663 on a shared 2-core x86-64 host;
# README).
MAX_SAMPLE = 10_000


class VerificationFailure(ModwindError):
    """Methods that must agree did not, or a verify suite failed."""


def _fmt_real(x: float) -> str:
    return "%.12g" % x


def _check_bits(bits: float, what: str) -> None:
    if bits > MAX_ENTRY_BITS:
        raise click.UsageError(f"{what} gives a matrix entry of more than {MAX_ENTRY_BITS} bits")


def _parse_gamma(matrix_text: Optional[str], word_text: Optional[str]) -> Mat2:
    """gamma from --matrix a,b,c,d or --word; entries past MAX_ENTRY_BITS bits are refused."""
    if (matrix_text is None) == (word_text is None):
        raise click.UsageError("give exactly one of --matrix or --word")
    if matrix_text is not None:
        what, text, sep = "--matrix", matrix_text, ","
    else:
        what, text, sep = "--word", word_text, "-" if "-" in word_text else ","
    try:
        ints = tuple(int(p) for p in text.split(sep))
    except ValueError as exc:
        raise click.UsageError(f"bad {what}: {exc}")
    if word_text is not None:
        try:
            ints = validate_entries(ints)
            # the product's first entry is at least the product of the digits
            # and at least the Fibonacci number F(n + 1) > phi^(n - 1), so a
            # long word is refused before it is rotated or multiplied out
            low = max(sum(a.bit_length() - 1 for a in ints), (len(ints) - 1) * _LOG2_PHI)
            _check_bits(low, what)
            ints = word_to_matrix(canonical_form(ints)).entries()
        except ModwindError as exc:
            raise click.UsageError(str(exc))
    elif len(ints) != 4:
        raise click.UsageError(f"--matrix wants a,b,c,d, got {len(ints)} entries")
    _check_bits(max(abs(x).bit_length() for x in ints), what)
    try:
        return Mat2(*ints)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _check_rows(rows: int, what: str) -> None:
    """The stats tables (--n-range, --r-grid) are refused above
    MAX_TABLE_ROWS rows before the census is built."""
    if rows > MAX_TABLE_ROWS:
        raise click.UsageError(f"{what} asks for {rows:,} rows (at most {MAX_TABLE_ROWS:,})")


def _parse_range(text: str) -> range:
    """Integer range 'a..b' inclusive."""
    try:
        lo, hi = text.split("..")
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise click.UsageError(f"bad range {text!r} (want a..b)")
    if hi_i < lo_i:
        raise click.UsageError(f"empty range {text!r}")
    _check_rows(hi_i - lo_i + 1, f"--n-range {text}")
    return range(lo_i, hi_i + 1)


def _parse_grid(text: str) -> List[float]:
    """Real grid 'start:stop:step' inclusive of both ends (within rounding)."""
    try:
        start, stop, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise click.UsageError(f"bad grid {text!r} (want start:stop:step)")
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise click.UsageError(f"bad grid {text!r}")
    # the largest k with start + k step <= stop within rounding; the quotient
    # overflows to inf for a tiny step or a huge span
    rows = math.floor(min((stop - start) / step, MAX_TABLE_ROWS) + 1e-9) + 1
    _check_rows(rows, f"--r-grid {text}")
    return [start + k * step for k in range(rows)]


def _validate_max_length(t: float) -> None:
    if not (2.0 <= t <= MAX_LENGTH_BOUND):
        raise click.UsageError(f"--max-length {t} outside [2.0, {MAX_LENGTH_BOUND}]")


def _census(t: float) -> Census:
    return enumerate_geodesics(EnumerationConfig(max_length=t))


@contextmanager
def _output(out: Optional[str]) -> Iterator[TextIO]:
    """The file named by out, or stdout; a file that fails to open or write is a usage error."""
    if not out:
        yield sys.stdout
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise click.FileError(out, exc.strerror) from None


def _cell(value) -> str:
    """A float by _fmt_real, None as an empty cell, anything else by str."""
    if isinstance(value, float):
        return _fmt_real(value)
    return "" if value is None else str(value)


def _emit_table(header: str, rows: Iterable[Sequence], out: Optional[str]) -> None:
    """A CSV table, the header line and then a line of cells per row, to out or stdout."""
    with _output(out) as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def _write_csv(census: Census, fh: TextIO) -> None:
    fh.write("word,trace,length,psi\n")
    last = None
    for entries, trace, length, psi_val in census.rows():
        if trace != last:  # rows come in trace order, and a length is its trace's
            last, middle = trace, f",{trace},{_fmt_real(length)},"
        fh.write(f"{'-'.join(map(str, entries))}{middle}{psi_val}\n")


def _write_json(census: Census, fh: TextIO) -> None:
    """One JSON list of row objects, written row by row as json.dumps writes them
    with its default separators; a trace's text is made once, as in _write_csv."""
    sep, last = "[", None
    for entries, trace, length, psi_val in census.rows():
        if trace != last:
            number = json.dumps(float(_fmt_real(length)))
            last, middle = trace, f'], "trace": {trace}, "length": {number}, "psi": '
        fh.write(f'{sep}{{"word": [{", ".join(map(str, entries))}{middle}{psi_val}}}')
        sep = ", "
    fh.write("[]\n" if sep == "[" else "]\n")


def _positive_trace(gamma: Mat2) -> Mat2:
    """gamma, negated if its trace is below -2, as psi(-g) = psi(g); other traces stay as given."""
    return -gamma if gamma.trace < -2 else gamma


def _psi_by_method(gamma: Mat2, method: str):
    """One method's value for the Rademacher symbol of gamma."""
    if method == "dedekind":
        return psi(gamma)
    if method == "cocycle":
        return psi_cocycle(gamma)
    g = _positive_trace(gamma)
    if method == "cf":
        return psi_cf(matrix_to_word(g))
    if method == "index":
        return winding_index(g).index
    return e2_period(g)


@click.group()
def cli() -> None:
    """Prime geodesic winding numbers on the modular orbifold."""


@cli.command("enumerate")
@click.option("--max-length", "max_length", type=float, required=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", type=str, default=None)
def cmd_enumerate(max_length: float, fmt: str, out: Optional[str]) -> None:
    """All oriented primitive classes with length <= T, one row per class."""
    # short bounds are legal here and just produce a header-only table
    if not (0 < max_length <= MAX_LENGTH_BOUND):
        raise click.UsageError(
            f"--max-length {max_length} outside (0, {MAX_LENGTH_BOUND}]"
        )
    census = _census(max_length)
    with _output(out) as fh:
        (_write_csv if fmt == "csv" else _write_json)(census, fh)


@cli.command("psi")
@click.option("--matrix", "matrix_text", type=str, default=None)
@click.option("--word", "word_text", type=str, default=None)
@click.option(
    "--method",
    type=click.Choice(["cf", "dedekind", "cocycle", "index", "period", "all"]),
    default="dedekind",
)
def cmd_psi(matrix_text: Optional[str], word_text: Optional[str], method: str) -> None:
    """Rademacher symbol of a matrix or word, by one or all methods."""
    gamma = _parse_gamma(matrix_text, word_text)
    methods = ["cf", "dedekind", "cocycle", "index", "period"] if method == "all" else [method]
    values = {}
    for m in methods:
        try:
            values[m] = _psi_by_method(gamma, m)
        except (NotHyperbolic, NotPrimitive):
            if method == "all":
                continue  # a method that refuses the class, e.g. cf on a proper power
            raise
    for m, v in values.items():
        click.echo(f"{m}: {_cell(v)}")
    # every value must round to the same integer, each float within 1e-6 of it
    if method == "all" and (
        len({round(v) for v in values.values()}) > 1
        or any(abs(v - round(v)) > 1e-6 for v in values.values())
    ):
        raise VerificationFailure(f"methods disagree: {values}")


@cli.command("index")
@click.option("--matrix", "matrix_text", type=str, default=None)
@click.option("--word", "word_text", type=str, default=None)
def cmd_index(matrix_text: Optional[str], word_text: Optional[str]) -> None:
    """Winding index of the discriminant form along one closed geodesic."""
    gamma = _parse_gamma(matrix_text, word_text)
    result = winding_index(_positive_trace(gamma))
    click.echo(json.dumps({"index": result.index, "residual": result.residual}))


@cli.command("stats-density")
@click.option("--max-length", "max_length", type=float, required=True)
@click.option("--n-range", "n_range", type=str, default="-5..5")
@click.option("--csv-out", "csv_out", type=str, default=None)
def cmd_stats_density(max_length: float, n_range: str, csv_out: Optional[str]) -> None:
    """Empirical vs predicted winding densities, one row per n."""
    _validate_max_length(max_length)
    ns = _parse_range(n_range)
    for n in (ns[0], ns[-1]):  # |n| is largest at an end of the range
        _kernel_width(n)
    hist = winding_histogram(_census(max_length), max_length)
    _emit_table("n,empirical,predicted", density_table(hist, ns), csv_out)


@cli.command("stats-cauchy")
@click.option("--max-length", "max_length", type=float, required=True)
@click.option("--csv-out", "csv_out", type=str, default=None)
def cmd_stats_cauchy(max_length: float, csv_out: Optional[str]) -> None:
    """KS comparison of (3/pi) psi/length against the standard Cauchy law."""
    _validate_max_length(max_length)
    census = _census(max_length)
    report = cauchy_compare(census, max_length)
    if csv_out:
        cdfs = zip(report.empirical_cdf, report.reference_cdf)
        _emit_table("u,empirical,predicted", [(u, emp, ref) for (u, emp), (_, ref) in cdfs], csv_out)
    click.echo(
        json.dumps(
            {"T": max_length, "count": len(census), "ks_statistic": report.ks_statistic}
        )
    )


@cli.command("stats-equidist")
@click.option("--max-length", "max_length", type=float, required=True)
@click.option("--modulus", type=int, required=True)
@click.option("--csv-out", "csv_out", type=str, default=None)
def cmd_stats_equidist(max_length: float, modulus: int, csv_out: Optional[str]) -> None:
    """Density of each residue class of psi mod q against the flat 1/q."""
    _validate_max_length(max_length)
    _modulus(modulus)
    table = equidistribution(_census(max_length), max_length, modulus)
    rows = [(a, share, 1.0 / modulus) for a, share in table.items()]
    _emit_table("residue,empirical,predicted", rows, csv_out)


@cli.command("stats-twisted")
@click.option("--max-length", "max_length", type=float, required=True)
@click.option("--r-grid", "r_grid", type=str, default=None)
@click.option("--r", "r_single", type=float, default=None)
@click.option("--csv-out", "csv_out", type=str, default=None)
def cmd_stats_twisted(
    max_length: float, r_grid: Optional[str], r_single: Optional[float], csv_out: Optional[str]
) -> None:
    """Character-twisted length sums against the exponential main term."""
    _validate_max_length(max_length)
    if (r_grid is None) == (r_single is None):
        raise click.UsageError("give exactly one of --r or --r-grid")
    rs = _weights(_parse_grid(r_grid) if r_grid is not None else [r_single])
    reports = twisted_sums(_census(max_length), max_length, rs)
    rows = [(rep.r, abs(rep.sum), rep.main_term, rep.relative_error) for rep in reports]
    _emit_table("r,abs_sum,main_term,relative_error", rows, csv_out)


@cli.command("verify")
@click.option("--max-length", "max_length", type=float, default=12.0)
@click.option("--sample", type=int, default=500)
@click.option("--seed", type=int, default=0)
def cmd_verify(max_length: float, sample: int, seed: int) -> None:
    """Run every invariant suite; exit 2 if any check fails."""
    _validate_max_length(max_length)
    if not 1 <= sample <= MAX_SAMPLE:
        raise click.UsageError(f"--sample {sample} outside [1, {MAX_SAMPLE:,}]")
    results = run_all(max_length=max_length, sample=sample, seed=seed)
    click.echo(json.dumps([asdict(r) for r in results]))
    if any(r.failed for r in results):
        raise VerificationFailure("one or more suites failed")


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        cli.main(args=list(argv) if argv is not None else None, standalone_mode=False)
        return EXIT_OK
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.exceptions.Abort:
        # click has ended the ^C line with a newline on stderr
        click.echo("interrupted", err=True)
        return EXIT_INTERRUPT
    except VerificationFailure as exc:
        click.echo(f"verification failure: {exc}", err=True)
        return EXIT_VERIFY
    except ResourceError as exc:
        click.echo(f"resource/data error: {exc}", err=True)
        return EXIT_RESOURCE
    except ModwindError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
