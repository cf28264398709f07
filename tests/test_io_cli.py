"""File formats and the command-line surface: parsing errors carry line
numbers, writers round-trip, emission is deterministic, exit codes are 0/2."""

import argparse
import csv
import datetime as dt
import json
import math
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from curvehedge import (
    BacktestConfig,
    Bond,
    CurveHistory,
    Strategy,
    SynthConfig,
    ValidationError,
    YieldCurve,
    curve_analytics,
    default_bond_universe,
    generate_history,
    quadratic_hedge,
    run_backtest,
    snapshot,
    tenor_correlations,
)
import curvehedge.io
from curvehedge.cli import _backtest_config, build_parser, main
from curvehedge.io import (
    PNL_COMMENT,
    RATE_COMMENT,
    _csv,
    emit_report,
    fmt_num,
    parse_bonds_json,
    parse_curve_csv,
    parse_plan_json,
    plan_from_dict,
    plan_to_dict,
    write_bonds_json,
    write_curve_csv,
)

GOOD_CSV = """# rates are decimal fractions per year
date,tenor_0.5,tenor_2,tenor_10
2024-01-02,0.031,0.033,0.038
2024-01-03,0.0312,0.0329,0.0381
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------------------
# curve CSV
# ---------------------------------------------------------------------------

def test_parse_curve_basic(tmp_path):
    curves = parse_curve_csv(write(tmp_path, "c.csv", GOOD_CSV))
    assert len(curves) == 2
    assert curves[0].date == dt.date(2024, 1, 2)
    assert curves[0].tenors == (0.5, 2.0, 10.0)
    assert curves[1].rates == (0.0312, 0.0329, 0.0381)


def test_parse_curve_skips_comments_and_blanks(tmp_path):
    text = "# one\n\ndate,tenor_1,tenor_5\n# two\n2024-01-02,0.03,0.035\n\n"
    assert len(parse_curve_csv(write(tmp_path, "c.csv", text))) == 1


def test_parse_curve_non_numeric_rate_line_number(tmp_path):
    text = "date,tenor_1,tenor_5\n2024-01-02,0.03,0.035\n2024-01-03,oops,0.036\n"
    with pytest.raises(ValidationError, match=r"line 3: non-numeric rate 'oops'"):
        parse_curve_csv(write(tmp_path, "c.csv", text))


def test_parse_curve_duplicate_and_out_of_order(tmp_path):
    text = (
        "date,tenor_1,tenor_5\n"
        "2024-01-03,0.03,0.035\n"
        "2024-01-03,0.03,0.035\n"
        "2024-01-02,0.03,0.035\n"
    )
    with pytest.raises(ValidationError) as err:
        parse_curve_csv(write(tmp_path, "c.csv", text))
    msg = str(err.value)
    assert "line 3: duplicate date" in msg
    assert "line 4: out-of-order date" in msg


def test_parse_curve_bad_header(tmp_path):
    with pytest.raises(ValidationError, match="must start with 'date'"):
        parse_curve_csv(write(tmp_path, "c.csv", "when,tenor_1,tenor_5\n"))


def test_parse_curve_bad_tenor_columns(tmp_path):
    with pytest.raises(ValidationError, match="tenor_<years>"):
        parse_curve_csv(write(tmp_path, "c.csv", "date,yrs1,tenor_5\n2024-01-02,1,2\n"))
    with pytest.raises(ValidationError, match="cannot parse tenor"):
        parse_curve_csv(write(tmp_path, "c.csv", "date,tenor_x,tenor_5\n2024-01-02,1,2\n"))
    with pytest.raises(ValidationError, match="strictly increasing"):
        parse_curve_csv(write(tmp_path, "c.csv", "date,tenor_5,tenor_1\n2024-01-02,1,2\n"))
    with pytest.raises(ValidationError, match="at least 2 tenor"):
        parse_curve_csv(write(tmp_path, "c.csv", "date,tenor_5\n2024-01-02,0.03\n"))
    for col, problem in (("tenor_nan", "finite"), ("tenor_inf", "finite"),
                         ("tenor_0", "positive"), ("tenor_-1", "positive")):
        path = write(tmp_path, "c.csv", f"date,tenor_0.5,tenor_5,{col}\n"
                     "2024-01-02,0.03,0.031,0.032\n2024-01-03,0.03,0.031,0.032\n")
        with pytest.raises(ValidationError) as err:
            parse_curve_csv(path)
        assert str(err.value) == f"{path}: line 1: tenors must be {problem}"


def test_parse_curve_wrong_field_count(tmp_path):
    text = "date,tenor_1,tenor_5\n2024-01-02,0.03\n"
    with pytest.raises(ValidationError, match="line 2: expected 3 fields, got 2"):
        parse_curve_csv(write(tmp_path, "c.csv", text))


def test_parse_curve_bad_date(tmp_path):
    text = "date,tenor_1,tenor_5\nJan 2 2024,0.03,0.035\n"
    with pytest.raises(ValidationError, match="line 2: bad date"):
        parse_curve_csv(write(tmp_path, "c.csv", text))


def test_parse_curve_empty_and_header_only(tmp_path):
    with pytest.raises(ValidationError, match="empty curve file"):
        parse_curve_csv(write(tmp_path, "c.csv", "# nothing\n"))
    with pytest.raises(ValidationError, match="no data rows"):
        parse_curve_csv(write(tmp_path, "c.csv", "date,tenor_1,tenor_5\n"))


def test_parse_curve_undecodable_names_the_file(tmp_path):
    path = tmp_path / "bin.csv"
    path.write_bytes(b"\xffdate,tenor_1,tenor_5\n")
    with pytest.raises(ValidationError) as err:
        parse_curve_csv(path)
    assert str(err.value).startswith(f"{path}: ") and "decode" in str(err.value)


def test_parse_curve_reads_common_files_without_csv(tmp_path, monkeypatch):
    """A history as write_curve_csv writes it, and its CRLF copy, are read
    without csv.reader, to the same dates and the same rates bit for bit."""
    curves, _ = generate_history(SynthConfig(days=2500, seed=11))
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    write_curve_csv(curves, lf)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    expected = [_outcome(parse_curve_csv, p) for p in (lf, crlf)]

    def no_csv(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(curvehedge.io.csv, "reader", no_csv)
    assert [_outcome(parse_curve_csv, p) for p in (lf, crlf)] == expected
    assert expected[0] == expected[1] and len(expected[0]) == 2500
    # an empty body never reaches np.loadtxt, which warns on no data
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        header = "date,tenor_1,tenor_5\n"
        for text, message in [(header, "no data rows"), (header + "2024-01-02\n", "expected 3 fields")]:
            with pytest.raises(ValidationError, match=message):
                parse_curve_csv(write(tmp_path, "c.csv", text))


def test_parse_curve_drops_one_byte_order_mark(tmp_path, monkeypatch):
    """A file that starts with U+FEFF, as some spreadsheets write it, reads as
    the same file without the mark, through the plain path, with the same
    line numbers in its errors."""
    good = "date,tenor_1,tenor_5\n2024-01-02,0.03,0.035\n2024-01-03,0.031,0.036\n"
    bad = "date,tenor_1,tenor_5\n2024-01-02,0.03,0.035\n2024-01-03,oops,0.036\n"
    plain = [_outcome(parse_curve_csv, write(tmp_path, f"{n}.csv", t))
             for n, t in (("good", good), ("bad", bad))]

    def no_csv(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(curvehedge.io.csv, "reader", no_csv)
    marked = []
    for name, text in (("good", good), ("bad", bad)):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        marked.append(_outcome(parse_curve_csv, path))
    assert marked == plain
    assert len(marked[0]) == 2
    assert marked[1] == f"{tmp_path / 'bad.csv'}: line 3: non-numeric rate 'oops'"


def test_cli_stats_reads_a_file_with_a_byte_order_mark(tmp_path, capsys):
    text = ("date,tenor_1,tenor_5\n2024-01-02,0.03,0.035\n2024-01-03,0.031,0.037\n"
            "2024-01-04,0.033,0.036\n")
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert main(["stats", "--history", str(plain)]) == 0
    want = capsys.readouterr()
    assert main(["stats", "--history", str(marked)]) == 0
    assert capsys.readouterr() == want


@pytest.mark.parametrize("cell,reason", [
    ("nan", "spot rates must be finite"),
    ("-1.5", "spot rates must be greater than -100%"),
])
def test_parse_curve_bad_rate_value_line_number(tmp_path, cell, reason):
    text = f"date,tenor_1,tenor_5\n2024-01-02,0.03,0.035\n2024-01-03,{cell},0.036\n"
    path = write(tmp_path, "c.csv", text)
    with pytest.raises(ValidationError) as err:
        parse_curve_csv(path)
    assert str(err.value) == f"{path}: line 3: {reason}"


def test_parse_curve_collects_all_row_errors(tmp_path):
    text = (
        "date,tenor_1,tenor_5\n"
        "2024-01-02,bad,0.035\n"
        "2024-01-03,0.03\n"
        "nonsense,0.03,0.035\n"
    )
    with pytest.raises(ValidationError) as err:
        parse_curve_csv(write(tmp_path, "c.csv", text))
    msg = str(err.value)
    for frag in ("line 2", "line 3", "line 4"):
        assert frag in msg


def _row_reader(path) -> list[YieldCurve]:
    """Reference reader: the per-row loop parse_curve_csv ran before histories
    were read as blocks, kept here to pin its curves and messages. A row is
    numbered by the text line it ends on (csv's line_num)."""
    errors = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader]
    rows = [(ln, row) for ln, row in rows if row and not row[0].lstrip().startswith("#")]
    if not rows:
        raise ValidationError(f"{path}: empty curve file")
    header_ln, header = rows[0]
    if not header or header[0].strip() != "date":
        raise ValidationError(f"{path}: line {header_ln}: header must start with 'date'")
    tenors = tuple(float(col.strip()[len("tenor_"):]) for col in header[1:])
    curves, last_date = [], None
    for ln, row in rows[1:]:
        if len(row) != len(header):
            errors.append(f"line {ln}: expected {len(header)} fields, got {len(row)}")
            continue
        try:
            date = dt.date.fromisoformat(row[0].strip())
        except ValueError:
            errors.append(f"line {ln}: bad date {row[0]!r} (expected ISO-8601)")
            continue
        try:
            rates = [float(v) for v in row[1:]]
        except ValueError:
            bad = next(v for v in row[1:] if not _floats(v))
            errors.append(f"line {ln}: non-numeric rate {bad!r}")
            continue
        if last_date is not None and date <= last_date:
            kind = "duplicate" if date == last_date else "out-of-order"
            errors.append(f"line {ln}: {kind} date {date}")
            continue
        last_date = date
        try:
            curves.append(YieldCurve(date, tenors, tuple(rates)))
        except ValueError as exc:
            errors.append(f"line {ln}: {exc}")
    if errors:
        raise ValidationError(f"{path}: " + "; ".join(errors))
    if not curves:
        raise ValidationError(f"{path}: no data rows")
    return curves


def _floats(v: str) -> bool:
    try:
        float(v)
        return True
    except ValueError:
        return False


def _outcome(read, path):
    """The curves a reader returns, rates as float.hex, or its error text."""
    try:
        curves = read(path)
    except ValidationError as exc:
        return str(exc)
    return [(c.date, c.tenors, tuple(map(float.hex, c.rates))) for c in curves]


FLAWS = ("fields", "date", "text", "duplicate", "back", "nan", "inf", "low")


# respellings of a rate cell: padded with a tab or U+2003, with an underscore or
# non-ASCII digits (float reads all four), and padded with one of the separators
# \x1c-\x1f, which np.loadtxt reads as whitespace and float refuses
RESPELT = (lambda c: f"\t{c}\t", lambda c: f"\u2003{c}", lambda c: c[:-1] + "_" + c[-1],
           lambda c: c.replace("1", "\u0661"), lambda c: c + "\x1c", lambda c: "\x1d" + c,
           lambda c: c + "\x1e", lambda c: "\x1f" + c)


@st.composite
def history_texts(draw):
    """A history CSV with comments, blank and whitespace-only lines, padded,
    quoted and respelt cells, a bare CR inside some lines, LF, CRLF or mixed
    endings, and on some rows one planted flaw of each kind."""
    tenors = sorted(draw(st.lists(st.sampled_from((0.25, 0.5, 1, 2, 3, 5, 7, 10, 30)),
                                  min_size=2, max_size=5, unique=True)))
    n = draw(st.integers(0, 12))
    day = dt.date(2023, 12, 25) + dt.timedelta(draw(st.integers(0, 30)))
    rate = st.floats(-0.999, 0.5, allow_subnormal=True)
    fmt = st.sampled_from(("{!r}", "{:.10g}", "{:.17g}", "{:e}", ' {!r}', "{!r}  ", '"{!r}"'))
    lines = ["date," + ",".join(f"tenor_{t:g}" for t in tenors)]
    dates = []
    for k in range(n):
        day += dt.timedelta(draw(st.integers(1, 4)))
        dates.append(day)
        cells = [draw(fmt).format(draw(rate)) for _ in tenors]
        date = day.isoformat()
        flaw = draw(st.sampled_from(FLAWS)) if draw(st.integers(0, 5)) == 0 else None
        if flaw == "fields":
            cells = cells[:-1] if draw(st.booleans()) else cells + ["0.01"]
        elif flaw == "date":
            date = draw(st.sampled_from(("2024/01/02", "Jan 2 2024", "2024-13-01", "")))
        elif flaw == "text":
            bad = draw(st.sampled_from(("oops", '"1,5"', "1.2.3")))
            cells[draw(st.integers(0, len(cells) - 1))] = bad
        elif flaw in ("duplicate", "back") and k:
            date = (dates[k - 1] - dt.timedelta(flaw == "back")).isoformat()
        elif flaw in ("nan", "inf", "low"):
            bad = {"nan": ("nan", "NaN"), "inf": ("inf", "-inf", "1e999"),
                   "low": ("-1", "-1.0", "-1.5", "-7e3")}[flaw]
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(bad))
        if draw(st.integers(0, 3)) == 0:
            i = draw(st.integers(0, len(cells) - 1))
            cells[i] = draw(st.sampled_from(RESPELT))(cells[i])
        line = " " * draw(st.integers(0, 1)) + date + "," + ",".join(cells)
        if draw(st.integers(0, 9)) == 0:
            cut = draw(st.integers(0, len(line)))
            line = line[:cut] + "\r" + line[cut:]
        lines.append(line)
    for _ in range(draw(st.integers(0, 4))):
        extra = draw(st.sampled_from(("# a comment", "  # indented, comment", "", "#", " \t ")))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    eol = draw(st.sampled_from(("\n", "\r\n", None)))  # None: each line picks its own
    ends = [eol or draw(st.sampled_from(("\n", "\r\n"))) for _ in lines]
    ends[-1] *= draw(st.integers(0, 1))
    return "".join(map(str.__add__, lines, ends))


@given(text=history_texts())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_parse_curve_equals_row_reader(tmp_path, text):
    path = tmp_path / "h.csv"
    path.write_bytes(text.encode())
    got = _outcome(parse_curve_csv, path)
    assert got == _outcome(_row_reader, path)
    if not isinstance(got, str):
        assert list(parse_curve_csv(path)) == _row_reader(path)


H = "date,tenor_1,tenor_5\n"


@pytest.mark.parametrize("text,message", [
    (H + "2024-01-02,0.03\n2024-01-03,0.03,0.035,0.04\n",
     "line 2: expected 3 fields, got 2; line 3: expected 3 fields, got 4"),
    (H + "Jan 2 2024,0.03,0.035\n", "line 2: bad date 'Jan 2 2024' (expected ISO-8601)"),
    (H + "2024-01-02,0.03,0.035\n2024-01-03,oops,0.036\n", "line 3: non-numeric rate 'oops'"),
    (H + "2024-01-03,0.03,0.035\n2024-01-03,0.03,0.035\n", "line 3: duplicate date 2024-01-03"),
    (H + "2024-01-03,0.03,0.035\n2024-01-02,0.03,0.035\n", "line 3: out-of-order date 2024-01-02"),
    (H + "2024-01-02,nan,0.035\n", "line 2: spot rates must be finite"),
    (H + "2024-01-02,0.03,-inf\n", "line 2: spot rates must be finite"),
    (H + "2024-01-02,0.03,0.035\n2024-01-03,-1,0.035\n",
     "line 3: spot rates must be greater than -100%"),
    ("# c\n" + H, "no data rows"),
    (H + "2024-01-05,0.03,0.035\n2024-01-04,0.03,0.035\n2024-01-08,0.03\n"
     "2024-13-01,0.03,0.035\n2024-01-08,x,\n2024-01-08,nan,0.035\n"
     "2024-01-08,0.03,0.035\n2024-01-09,-2,inf\n",
     "line 3: out-of-order date 2024-01-04; line 4: expected 3 fields, got 2; "
     "line 5: bad date '2024-13-01' (expected ISO-8601); line 6: non-numeric rate 'x'; "
     "line 7: spot rates must be finite; line 8: duplicate date 2024-01-08; "
     "line 9: spot rates must be finite"),
    # a quoted cell holding a line end: later rows are named by their text line
    (H + '2024-01-02,"0.03\n",0.03\n2024-01-03,oops,0.03\n', "line 4: non-numeric rate 'oops'"),
], ids=["fields", "date", "text", "duplicate", "back", "nan", "inf", "low", "no-rows", "mixed",
        "quoted-line-end"])
def test_parse_curve_error_corpus(tmp_path, text, message):
    path = write(tmp_path, "c.csv", text)
    with pytest.raises(ValidationError) as err:
        parse_curve_csv(path)
    assert str(err.value) == f"{path}: {message}"


def _quoted(text: str) -> str:
    """A history's text with every rate cell in double quotes."""
    def quote(line):
        if line.startswith(("#", "date")):
            return line
        date, *cells = line.split(",")
        return ",".join([date, *(f'"{c}"' for c in cells)])
    return "".join(quote(line) + "\n" for line in text.splitlines())


def test_walk_rows_builds_curves_only_for_failing_rows(tmp_path, monkeypatch):
    """Quoted cells send a history through the row walk; its rates are checked
    as one block, so a valid file builds no YieldCurve per row and a failing
    row builds one only to word its message, in line order with the others."""
    built = []
    post_init = YieldCurve.__post_init__
    monkeypatch.setattr(YieldCurve, "__post_init__",
                        lambda self: built.append(self.date) or post_init(self))
    curves, _ = generate_history(SynthConfig(days=2500, seed=11))
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    write_curve_csv(curves, plain)
    quoted.write_text(_quoted(plain.read_text()))
    expected = _outcome(parse_curve_csv, plain)
    built.clear()
    assert _outcome(parse_curve_csv, quoted) == expected and len(expected) == 2500
    assert len(built) <= 1

    rows = [f"2024-01-{d:02d},0.03,0.035" for d in range(2, 11)]
    rows[5], rows[6], rows[7] = "2024-01-07,nan,0.035", "2024-01-08,x,0.035", "2024-01-09,-1.5,0.04"
    path = write(tmp_path, "bad.csv", _quoted(H + "\n".join(rows) + "\n"))
    built.clear()
    with pytest.raises(ValidationError) as err:
        parse_curve_csv(path)
    assert str(err.value) == (f"{path}: line 7: spot rates must be finite; line 8: non-numeric "
                              "rate 'x'; line 9: spot rates must be greater than -100%")
    assert len(built) == 2


def test_parse_curve_field_over_csv_limit_names_file_and_line(tmp_path):
    big = '"' + "1" * (csv.field_size_limit() + 1) + '"'
    path = write(tmp_path, "big.csv", f"date,tenor_1,tenor_5\n2024-01-02,{big},0.03\n")
    with pytest.raises(ValidationError) as err:
        parse_curve_csv(path)
    assert str(err.value) == f"{path}: line 2: field larger than field limit ({csv.field_size_limit()})"


def test_write_curve_rejects_empty_history(tmp_path):
    path = tmp_path / "c.csv"
    with pytest.raises(ValidationError, match="curve history is empty"):
        write_curve_csv([], path)
    assert not path.exists()


def test_curve_roundtrip(tmp_path):
    curves, _ = generate_history(SynthConfig(days=5, sigma_idio=1e-4))
    path = tmp_path / "hist.csv"
    write_curve_csv(curves, path)
    curvehedge.io._memo.clear()  # the written history is held: read it as another's file
    back = parse_curve_csv(path)
    assert [c.date for c in back] == [c.date for c in curves]
    assert back[0].tenors == curves[0].tenors
    for orig, rt in zip(curves, back):
        for a, b in zip(orig.rates, rt.rates):
            assert b == pytest.approx(a, rel=1e-9)  # 10 significant digits
    rows = path.read_text().splitlines()[2:]
    assert rows == [f"{c.date},{','.join(fmt_num(r) for r in c.rates)}" for c in curves]


def test_history_write_parse_round_trip_is_bit_for_bit(tmp_path):
    """A history of 10-significant-digit rates (what the writer keeps) comes
    back from its file as the same dates, grid and block, bit for bit, by the
    block reader and by the row walk alike."""
    history, _ = generate_history(SynthConfig(days=300, sigma_idio=1e-4, seed=8))
    rates = [[float(fmt_num(x)) for x in row] for row in history.rates.tolist()]
    history = CurveHistory(history.dates, history.tenors, rates)
    path = tmp_path / "hist.csv"
    write_curve_csv(history, path)
    curvehedge.io._memo.clear()  # the written history is held: read it as another's file
    quoted = write(tmp_path, "quoted.csv", _quoted(path.read_text()))
    for back in (parse_curve_csv(path), parse_curve_csv(quoted)):
        assert isinstance(back, CurveHistory)
        assert (back.dates, back.tenors) == (history.dates, history.tenors)
        assert back.rates.tobytes() == history.rates.tobytes()


@pytest.mark.parametrize("rate,text", [(-1 + 2**-52, "-1"), (1.7976931348623157e308, "1.797693135e+308")])
def test_write_curve_refuses_a_rate_whose_text_reads_back_as_no_rate(tmp_path, rate, text):
    """-1 + 2^-52 is written as -1 and the largest double as a text that reads
    back as inf: the writer names the first such rate by date and column and
    writes nothing."""
    history = CurveHistory([dt.date(2024, 1, d) for d in (2, 3, 4)], (1.0, 5.0),
                           [[0.03, 0.035], [0.03, rate], [rate, 0.035]])
    with pytest.raises(ValidationError) as err:
        write_curve_csv(history, tmp_path / "c.csv")
    assert str(err.value) == (f"cannot write the rate on 2024-01-03 at tenor_5: {rate!r} is "
                              f"written as {text}, not a finite rate above -100%")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("tenors,header", [
    ((1 / 12, 1.0), "date,tenor_0.08333333333333333,tenor_1"),  # %g: tenor_0.0833333
    ((1.0000001, 1.0000002), "date,tenor_1.0000001,tenor_1.0000002"),  # %g: tenor_1 twice
])
def test_write_curve_header_reads_back_as_its_grid(tmp_path, tenors, header):
    path = tmp_path / "c.csv"
    write_curve_csv(CurveHistory([dt.date(2024, 1, 2)], tenors, [[0.03, 0.035]]), path)
    curvehedge.io._memo.clear()
    assert path.read_text().splitlines()[1] == header
    assert parse_curve_csv(path).tenors == tenors


def test_correlations_label_each_row_as_its_column():
    """correlations.csv names a tenor alike in its header and its row label,
    in repr's digits when %g would not read back as the tenor."""
    text = curvehedge.io.correlations_csv(np.array([[1.0, 0.5], [0.5, 1.0]]), (1 / 12, 1.0))
    assert text.splitlines()[1:] == ["tenor,tenor_0.08333333333333333,tenor_1",
                                      "0.08333333333333333,1,0.5", "1,0.5,1"]


def test_write_curve_holds_no_history_the_reader_would_not_give_back(tmp_path):
    """A datetime is written as its date, which the reader gives back as a
    dt.date: nothing is held, and the read parses the file."""
    path = tmp_path / "c.csv"
    write_curve_csv(CurveHistory([dt.datetime(2024, 1, 2, 9)], (1.0, 5.0), [[0.03, 0.035]]), path)
    assert curvehedge.io._memo == []
    assert type(parse_curve_csv(path).dates[0]) is dt.date


def _tie_neighbours():
    """Doubles next to a 10-digit tie n.5 * 10^e, the tie itself when it is exact."""
    tie = st.builds(lambda n, e: (n + 0.5) * 10.0 ** e, st.integers(10**9, 10**10 - 1),
                    st.integers(-30, 14))
    return st.builds(lambda x, step: float(np.nextafter(x, step * math.inf)) if step else x,
                     tie, st.sampled_from((-1, 0, 1)))


READ_BACK_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan,
    1e10, 9999999999.5, 9999999999.499998, 1e22, 1e23, -2.5e15,
    1e-13, 9.99999999949e-14, 9.9999999995e-14, 1.23456789e-300,
    -1 + 2**-52, -1 + 2**-40, 0.03, 0.1, 1 / 3, 123456789.25, 0.00012345678905,
]


def _read_back_is_float_of_text(xs):
    block = np.array(xs, dtype=float).reshape(-1, 1)
    want = np.array([float(fmt_num(x)) for x in block.ravel().tolist()]).reshape(-1, 1)
    assert curvehedge.io._read_back(block).tobytes() == want.tobytes()


def test_read_back_is_float_of_text_on_edges():
    _read_back_is_float_of_text(READ_BACK_EDGES)


@given(xs=st.lists(st.floats() | st.sampled_from(READ_BACK_EDGES) | _tie_neighbours(),
                   min_size=1, max_size=40))
@settings(max_examples=400, deadline=None)
def test_read_back_is_float_of_text(xs):
    """_read_back is float(fmt_num(x)) bit for bit, NaN and infinities included."""
    _read_back_is_float_of_text(xs)


@st.composite
def written_histories(draw):
    """Histories on random grids, some with tenors %g cannot spell, and with
    rates in (-1, 1), some within 2^-32 above -1."""
    knot = st.floats(1e-3, 50) | st.sampled_from((1 / 12, 1.0000001, 1.0000002, 0.5, 1.0, 30.0))
    tenors = sorted(draw(st.sets(knot, min_size=2, max_size=5)))
    rate = (st.floats(-1, 1, exclude_min=True, exclude_max=True)
            | st.integers(1, 2**21).map(lambda u: -1 + u * 2.0**-53))
    n = draw(st.integers(1, 6))
    rates = draw(st.lists(st.lists(rate, min_size=len(tenors), max_size=len(tenors)),
                          min_size=n, max_size=n))
    return CurveHistory([dt.date(2024, 1, 1) + dt.timedelta(d) for d in range(n)], tenors, rates)


@given(history=written_histories())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_written_history_is_held_as_its_text_parses(tmp_path, history):
    """After write_curve_csv the held history is the parse of the text written,
    in dates, grid and every bit of the block, and the grid is the history's;
    a refused write leaves no file, and the reader refuses the text it would
    have written."""
    path = tmp_path / "h.csv"
    path.unlink(missing_ok=True)
    try:
        write_curve_csv(history, path)
    except ValidationError as exc:
        assert "not a finite rate above -100%" in str(exc) and not path.exists()
        header = "date," + ",".join(f"tenor_{curvehedge.io._tenor(t)}" for t in history.tenors)
        text = _csv(RATE_COMMENT, header, zip(map(dt.date.isoformat, history.dates),
                                              history.rates.tolist()))
        with pytest.raises(ValidationError, match="spot rates must be"):
            curvehedge.io._parse_curve_text(path, text)
        return
    text, held = curvehedge.io._memo
    assert text == path.read_text()
    parsed = curvehedge.io._parse_curve_text(path, text)
    assert (held.dates, held.tenors) == (parsed.dates, parsed.tenors)
    assert held.rates.tobytes() == parsed.rates.tobytes()
    assert parsed.tenors == history.tenors


def test_write_curve_rejects_mixed_grids(tmp_path):
    a = YieldCurve(dt.date(2024, 1, 2), (1.0, 5.0), (0.03, 0.035))
    b = YieldCurve(dt.date(2024, 1, 3), (1.0, 7.0), (0.03, 0.035))
    with pytest.raises(ValidationError, match="grid"):
        write_curve_csv([a, b], tmp_path / "c.csv")


def test_history_writers_reject_out_of_order_dates(tmp_path):
    curves, _ = generate_history(SynthConfig(days=5))
    shuffled = [curves[0], curves[1], curves[3], curves[2], curves[4]]
    path = tmp_path / "c.csv"
    with pytest.raises(ValidationError, match=f"not strictly increasing at {curves[2].date}"):
        write_curve_csv(shuffled, path)
    assert not path.exists()
    with pytest.raises(ValidationError, match=f"not strictly increasing at {curves[2].date}"):
        tenor_correlations(shuffled)


def counted_loadtxt(monkeypatch) -> list:
    """np.loadtxt, counted: one entry per call, while monkeypatch holds."""
    calls, loadtxt = [], np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(a) or loadtxt(*a, **k))
    return calls


def test_parse_curve_parses_a_text_once(tmp_path, monkeypatch):
    """A second read of one file, and a read of the same text at another
    path, parse nothing and give equal histories as distinct objects."""
    curves, _ = generate_history(SynthConfig(days=300, seed=4))
    path, copy = tmp_path / "hist.csv", tmp_path / "copy.csv"
    write_curve_csv(curves, path)
    curvehedge.io._memo.clear()  # the written history is held: read it as another's file
    copy.write_bytes(path.read_bytes())
    calls = counted_loadtxt(monkeypatch)
    first, again, moved = (parse_curve_csv(p) for p in (path, path, copy))
    assert len(calls) == 1
    for h in (again, moved):
        assert (h.dates, h.tenors) == (first.dates, first.tenors)
        assert h.rates.tobytes() == first.rates.tobytes()
        assert h is not first and h.rates is not first.rates


def test_parse_curve_reparses_an_edit_that_keeps_size_and_mtime(tmp_path, monkeypatch):
    """The memo is keyed by the text, not by the file's size or mtime."""
    path = write(tmp_path, "c.csv", GOOD_CSV)
    calls = counted_loadtxt(monkeypatch)
    before = parse_curve_csv(path)
    st = path.stat()
    path.write_text(GOOD_CSV.replace("0.0381", "0.0382"))
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (st.st_size, st.st_mtime_ns)
    after = parse_curve_csv(path)
    assert len(calls) == 2
    assert before[1].rates == (0.0312, 0.0329, 0.0381) and after[1].rates == (0.0312, 0.0329, 0.0382)


def test_parse_curve_holds_no_failure(tmp_path, monkeypatch):
    """A bad file empties the memo and is never held: the same bad text at
    two paths raises twice, each error naming its own path, and the good
    file read before it is parsed again."""
    good = write(tmp_path, "good.csv", GOOD_CSV)
    bad = GOOD_CSV.replace("0.0329", "oops")
    bads = [write(tmp_path, name, bad) for name in ("bad1.csv", "bad2.csv")]
    calls = counted_loadtxt(monkeypatch)
    want = parse_curve_csv(good)
    for path in bads:
        with pytest.raises(ValidationError) as err:
            parse_curve_csv(path)
        assert str(err.value) == f"{path}: line 4: non-numeric rate 'oops'"
    parsed = len(calls)
    back = parse_curve_csv(good)
    assert len(calls) == parsed + 1
    assert (back.dates, back.tenors, back.rates.tobytes()) == (want.dates, want.tenors, want.rates.tobytes())


def test_parse_curve_returns_views_no_caller_can_unlock(tmp_path):
    """Every history returned, on a parse and on a memo hit, is a view of
    the held read-only block: it cannot be made writeable, and reassigning
    one result's dates does not reach the next."""
    path = write(tmp_path, "c.csv", GOOD_CSV)
    first = parse_curve_csv(path)
    first.dates = ()
    second = parse_curve_csv(path)
    assert second.dates == (dt.date(2024, 1, 2), dt.date(2024, 1, 3))
    for h in (first, second):
        assert h.rates.base is not None and not h.rates.flags.writeable
        with pytest.raises(ValueError):
            h.rates.setflags(write=True)


# ---------------------------------------------------------------------------
# bonds JSON
# ---------------------------------------------------------------------------

def test_bonds_roundtrip(tmp_path):
    bonds = default_bond_universe()
    path = tmp_path / "bonds.json"
    write_bonds_json(bonds, path)
    back = parse_bonds_json(path)
    assert back == {b.id: b for b in bonds}  # float json round-trip is exact


def test_bonds_offset_field_roundtrip(tmp_path):
    from curvehedge import Bond

    b = Bond("X", 100.0, 0.04, 2, 3.7, issue_or_first_coupon_offset=0.2)
    path = tmp_path / "bonds.json"
    write_bonds_json([b], path)
    assert parse_bonds_json(path)["X"] == b


def test_bonds_error_names_bond(tmp_path):
    data = [{"id": "BAD", "face": -100.0, "coupon_rate": 0.03,
             "coupon_frequency": 1, "maturity": 5.0}]
    path = write(tmp_path, "b.json", json.dumps(data))
    with pytest.raises(ValidationError, match="bond 'BAD'"):
        parse_bonds_json(path)


def test_bonds_entry_that_is_not_an_object_is_named_by_position(tmp_path):
    good = {"id": "OK", "face": 100.0, "coupon_rate": 0.03, "coupon_frequency": 1,
            "maturity": 5.0}
    path = write(tmp_path, "b.json", json.dumps([good, ["X", 100.0], "B1"]))
    with pytest.raises(ValidationError) as err:
        parse_bonds_json(path)
    assert str(err.value) == f"{path}: bond #1: not an object; bond #2: not an object"


@pytest.mark.parametrize("field,value,message", [
    ("coupon_frequency", 2.7, "coupon_frequency must be an integer, got 2.7"),
    ("coupon_frequency", True, "coupon_frequency must be an integer, got true"),
    ("coupon_frequency", "2", 'coupon_frequency must be an integer, got "2"'),
    ("face", True, "face must be a number, got true"),
    ("maturity", "5", 'maturity must be a number, got "5"'),
    ("coupon_rate", float("nan"), "coupon_rate must be finite, got NaN"),
    ("maturity", float("inf"), "maturity must be finite, got Infinity"),
    ("face", 10 ** 400, f"face must be finite, got {10 ** 400}"),
    ("issue_or_first_coupon_offset", False,
     "issue_or_first_coupon_offset must be a number, got false"),
    ("issue_or_first_coupon_offset", float("-inf"),
     "issue_or_first_coupon_offset must be finite, got -Infinity"),
], ids=["freq-float", "freq-bool", "freq-str", "face-bool", "maturity-str", "rate-nan",
        "maturity-inf", "face-huge", "offset-bool", "offset-inf"])
def test_bonds_require_finite_json_numbers(tmp_path, field, value, message):
    good = {"id": "OK", "face": 100, "coupon_rate": 0.03, "coupon_frequency": 1, "maturity": 5}
    bad = {**good, "id": "B1", field: value}
    path = write(tmp_path, "b.json", json.dumps([good, bad]))  # NaN/Infinity as JSON allows
    with pytest.raises(ValidationError) as err:
        parse_bonds_json(path)
    assert str(err.value) == f"{path}: bond 'B1': {message}"


@pytest.mark.parametrize("value", [None, 7, ["B1"]], ids=["null", "number", "array"])
def test_bonds_ids_must_be_strings(tmp_path, value):
    good = {"id": "OK", "face": 100, "coupon_rate": 0.03, "coupon_frequency": 1, "maturity": 5}
    path = write(tmp_path, "b.json", json.dumps([good, {**good, "id": value}]))
    with pytest.raises(ValidationError) as err:
        parse_bonds_json(path)
    assert str(err.value) == f"{path}: bond #1: id must be a string, got {json.dumps(value)}"


def test_bonds_duplicate_id(tmp_path):
    entry = {"id": "B1", "face": 100.0, "coupon_rate": 0.03,
             "coupon_frequency": 1, "maturity": 5.0}
    path = write(tmp_path, "b.json", json.dumps([entry, entry]))
    with pytest.raises(ValidationError, match="duplicate id"):
        parse_bonds_json(path)


def test_bonds_missing_and_unknown_fields(tmp_path):
    data = [
        {"id": "B1", "face": 100.0},
        {"id": "B2", "face": 100.0, "coupon_rate": 0.03, "coupon_frequency": 1,
         "maturity": 5.0, "colour": "blue"},
    ]
    path = write(tmp_path, "b.json", json.dumps(data))
    with pytest.raises(ValidationError) as err:
        parse_bonds_json(path)
    msg = str(err.value)
    assert "missing field(s)" in msg and "'coupon_rate'" in msg
    assert "unknown field(s) ['colour']" in msg


def test_bonds_not_an_array(tmp_path):
    path = write(tmp_path, "b.json", json.dumps({"id": "B1"}))
    with pytest.raises(ValidationError, match="JSON array"):
        parse_bonds_json(path)


def test_bonds_invalid_json(tmp_path):
    path = write(tmp_path, "b.json", "{nope")
    with pytest.raises(ValidationError, match="invalid JSON"):
        parse_bonds_json(path)


def test_undecodable_json_inputs_name_the_file(tmp_path):
    path = tmp_path / "b.json"
    path.write_bytes(b"\xff\xfe[]")
    for parse in (parse_bonds_json, parse_plan_json):
        with pytest.raises(ValidationError) as err:
            parse(path)
        assert str(err.value).startswith(f"{path}: invalid JSON: ")


def test_bonds_empty_array(tmp_path):
    path = write(tmp_path, "b.json", "[]")
    with pytest.raises(ValidationError, match="no bonds"):
        parse_bonds_json(path)


# ---------------------------------------------------------------------------
# plan JSON
# ---------------------------------------------------------------------------

def plan_fixture(universe, curve):
    target = snapshot(universe["B2"], curve, amount=100.0)
    return quadratic_hedge(target, snapshot(universe["B3"], curve),
                           snapshot(universe["B1"], curve))


def test_plan_dict_roundtrip(universe, curve):
    plan = plan_fixture(universe, curve)
    assert plan_from_dict(plan_to_dict(plan)) == plan


def test_plan_file_roundtrip(tmp_path, universe, curve):
    plan = plan_fixture(universe, curve)
    path = write(tmp_path, "plan.json", json.dumps(plan_to_dict(plan)))
    assert parse_plan_json(path) == plan


def test_plan_malformed(tmp_path):
    with pytest.raises(ValidationError, match="malformed hedge plan"):
        plan_from_dict({"strategy": "duration", "legs": []})
    path = write(tmp_path, "plan.json", "{broken")
    with pytest.raises(ValidationError, match="invalid JSON"):
        parse_plan_json(path)


@pytest.mark.parametrize("where,value,message", [
    ("target", True, "target.amount must be a number, got true"),
    ("target", "100", 'target.amount must be a number, got "100"'),
    ("target", float("nan"), "target.amount must be finite, got NaN"),
    ("leg", float("inf"), "legs[1].amount must be finite, got Infinity"),
    ("leg", None, "legs[1].amount must be a number, got null"),
    ("constraint", "0", 'constraints[0].value must be a number, got "0"'),
], ids=["target-bool", "target-str", "target-nan", "leg-inf", "leg-null", "constraint-str"])
def test_plan_requires_finite_json_numbers(tmp_path, universe, curve, where, value, message):
    data = plan_to_dict(plan_fixture(universe, curve))
    {"target": data["target"], "leg": data["legs"][1],
     "constraint": data["constraints"][0]}[where]["value" if where == "constraint"
                                                  else "amount"] = value
    path = write(tmp_path, "plan.json", json.dumps(data))
    with pytest.raises(ValidationError) as err:
        parse_plan_json(path)
    assert str(err.value) == f"malformed hedge plan: {message}"


def test_plan_ids_must_be_strings(universe, curve):
    for where, key, value, message in [
        ("target", "id", ["B2"], 'target.id must be a string, got ["B2"]'),
        ("constraints", "name", None, "constraints[0].name must be a string, got null"),
        ("constraints", "name", 7, "constraints[0].name must be a string, got 7"),
    ]:
        data = plan_to_dict(plan_fixture(universe, curve))
        (data[where][0] if where == "constraints" else data[where])[key] = value
        with pytest.raises(ValidationError) as err:
            plan_from_dict(data)
        assert str(err.value) == f"malformed hedge plan: {message}"


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

@pytest.fixture
def small_report(universe):
    curves, _ = generate_history(SynthConfig(days=10, seed=3))
    config = BacktestConfig(
        target_id="B2",
        instruments={Strategy.DURATION: ("B3",), Strategy.QUADRATIC: ("B3", "B1")},
        strategies=(Strategy.DURATION, Strategy.QUADRATIC),
        net_carry=True,
    )
    return run_backtest(curves, universe, config)


def test_emit_report_files(tmp_path, small_report):
    paths = emit_report(small_report, tmp_path / "nested" / "out")
    names = sorted(p.name for p in paths)
    assert names == ["pnl_duration.csv", "pnl_quadratic.csv", "pnl_unhedged.csv",
                     "summary.csv"]
    for p in paths:
        assert p.is_file()
    summary = (tmp_path / "nested" / "out" / "summary.csv").read_text().splitlines()
    assert summary[1] == "strategy,mean,stdev,max_drawdown,worst_day"
    assert [row.split(",")[0] for row in summary[2:]] == ["duration", "quadratic", "unhedged"]


def test_emit_report_deterministic(tmp_path, small_report):
    first = emit_report(small_report, tmp_path / "a")
    second = emit_report(small_report, tmp_path / "b")
    for p1, p2 in zip(first, second):
        assert p1.read_bytes() == p2.read_bytes()


def test_emit_report_empty_strategies_header_only(tmp_path, universe):
    curves, _ = generate_history(SynthConfig(days=5))
    config = BacktestConfig(target_id="B2", instruments={}, strategies=())
    report = run_backtest(curves, universe, config)
    paths = emit_report(report, tmp_path)
    assert [p.name for p in paths] == ["summary.csv"]
    lines = paths[0].read_text().splitlines()
    assert lines[-1] == "strategy,mean,stdev,max_drawdown,worst_day"


def test_emit_report_correlations_need_tenors(tmp_path, small_report):
    import numpy as np

    with pytest.raises(ValueError, match="tenor grid"):
        emit_report(small_report, tmp_path, correlations=np.eye(2))


def emitted_before(report, out_dir, correlations=None, tenors=None):
    """emit_report as it rendered every file cell by cell, kept as the oracle."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    net = report.config.net_carry
    order = [s.value for s in report.config.strategies]
    if order:
        order.append("unhedged")
    staged = []
    for name in order:
        series = report.series.get(name)
        if series is None:
            continue
        lines = [PNL_COMMENT, "date,daily_pnl,cumulative_pnl"]
        for date, pnl, cum in zip(series.dates, series.pnl(net), series.cumulative(net)):
            lines.append(f"{date.isoformat()},{fmt_num(pnl)},{fmt_num(cum)}")
        staged.append((out / f"pnl_{name}.csv", "\n".join(lines) + "\n"))
    lines = [PNL_COMMENT, "strategy,mean,stdev,max_drawdown,worst_day"]
    for name in order:
        stats = report.summary.get(name)
        if stats is not None:
            lines.append(f"{name},{fmt_num(stats.mean)},{fmt_num(stats.stdev)},"
                         f"{fmt_num(stats.max_drawdown)},{fmt_num(stats.worst_day)}")
    staged.append((out / "summary.csv", "\n".join(lines) + "\n"))
    if correlations is not None:
        lines = [RATE_COMMENT, "tenor," + ",".join(f"tenor_{t:g}" for t in tenors)]
        for i, t in enumerate(tenors):
            lines.append(f"{t:g}," + ",".join(fmt_num(v) for v in correlations[i]))
        staged.append((out / "correlations.csv", "\n".join(lines) + "\n"))
    for path, text in staged:
        path.write_text(text)
    return [path for path, _ in staged]


@pytest.mark.parametrize("net", [True, False])
@pytest.mark.parametrize("strategies", [(Strategy.DURATION, Strategy.QUADRATIC), ()])
def test_emit_report_equals_the_cell_by_cell_emitter(tmp_path, universe, net, strategies):
    # the short bond S rolls below the first knot on day 9, so duration truncates
    universe = {**universe, "S": Bond("S", 100.0, 0.03, 2, 0.535)}
    curves, _ = generate_history(SynthConfig(days=30, seed=5))
    config = BacktestConfig(
        target_id="B2",
        instruments={Strategy.DURATION: ("S",), Strategy.QUADRATIC: ("B3", "B1")},
        strategies=strategies, net_carry=net)
    report = run_backtest(curves, universe, config)
    assert not strategies or len(report.series["duration"].dates) < len(curves) - 1
    corr = tenor_correlations(curves)
    got = emit_report(report, tmp_path / "new", corr, curves[0].tenors)
    want = emitted_before(report, tmp_path / "old", corr, curves[0].tenors)
    assert [p.name for p in got] == [p.name for p in want]
    for p, q in zip(got, want):
        assert p.read_bytes() == q.read_bytes(), p.name


_cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_subnormal=True, min_value=-1e-300, max_value=1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 0.1]),
    st.floats(allow_nan=True).map(np.float64),
)


@given(rows=st.integers(1, 4).flatmap(lambda width: st.lists(
    st.tuples(st.text("abc-0123", max_size=6), st.lists(_cells, min_size=width, max_size=width)),
    max_size=5).map(lambda rows: (width, rows))))
@settings(max_examples=500, deadline=None)
def test_csv_rows_equal_the_cell_by_cell_rendering(rows):
    width, rows = rows
    text = _csv("# c", "label" + ",x" * width, rows)
    assert text.endswith("\n")
    assert text.split("\n")[:-1] == ["# c", "label" + ",x" * width] + [
        label + "," + ",".join(fmt_num(v) for v in nums) for label, nums in rows]


def test_pnl_file_shape(tmp_path, small_report):
    emit_report(small_report, tmp_path)
    lines = (tmp_path / "pnl_duration.csv").read_text().splitlines()
    assert lines[1] == "date,daily_pnl,cumulative_pnl"
    assert len(lines) == 2 + len(small_report.series["duration"].dates)
    date, daily, cum = lines[2].split(",")
    dt.date.fromisoformat(date)
    assert float(daily) == float(cum)  # first cumulative equals first day


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

@pytest.fixture
def cli_files(tmp_path):
    curves, _ = generate_history(SynthConfig(days=8))
    curve_path = tmp_path / "hist.csv"
    write_curve_csv(curves, curve_path)
    curvehedge.io._memo.clear()  # the written history is held: commands parse it as another's file
    bonds_path = tmp_path / "bonds.json"
    write_bonds_json(default_bond_universe(), bonds_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "target": {"id": "B2", "amount": 100.0},
        "instruments": {
            "duration": ["B3"],
            "quadratic": ["B3", "B1"],
            "convexity": ["B3", "B1"],
            "cubic": ["B3", "B1", "B4"],
        },
        "net_carry": True,
    }))
    return {"curve": curve_path, "bonds": bonds_path, "config": config_path,
            "tmp": tmp_path, "curves": curves}


def test_cli_analyze(cli_files, capsys):
    rc = main(["analyze", "--bonds", str(cli_files["bonds"]),
               "--curve", str(cli_files["curve"])])
    assert rc == 0
    out = capsys.readouterr().out
    for bond_id in ("B1", "B2", "B3", "B4"):
        assert bond_id in out
    assert "duration" in out and "convexity" in out


def test_cli_analyze_spot_mode_short_coupon(cli_files, capsys):
    bonds = cli_files["tmp"] / "quarterly.json"
    write_bonds_json([Bond("Q", 100.0, 0.04, 4, 5.0)], bonds)
    rc = main(["analyze", "--bonds", str(bonds), "--curve", str(cli_files["curve"]),
               "--mode", "spot"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bond 'Q': cashflow at t=0.25" in err
    assert err.count("bond 'Q'") == 1


@pytest.mark.parametrize("argv", [
    ["analyze"],
    ["analyze", "--mode", "spot"],
    ["hedge", "--strategy", "duration", "--target", "B2", "--instruments", "L"],
    ["hedge", "--strategy", "duration", "--target", "L", "--instruments", "B3"],
    ["scenario", "--plan", "plan_long.json", "--shock", "a=0.001"],
])
def test_cli_names_a_bond_past_the_last_knot(cli_files, capsys, monkeypatch, argv):
    bonds = cli_files["tmp"] / "long.json"
    write_bonds_json([*default_bond_universe(), Bond("L", 100.0, 0.04, 1, 12.0)], bonds)
    (cli_files["tmp"] / "plan_long.json").write_text(json.dumps({
        "strategy": "duration", "target": {"id": "B2", "amount": 100.0},
        "legs": [{"id": "L", "amount": -50.0}], "constraints": []}))
    monkeypatch.chdir(cli_files["tmp"])
    rc = main(argv + ["--bonds", str(bonds), "--curve", str(cli_files["curve"])])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == ("error: bond 'L': maturity 12.0 outside curve range [0.5, 10.0] "
                   "on 2024-01-02\n")


HUGE_RATE_CSV = """date,tenor_0.5,tenor_30
2024-01-02,0.03,0.04
2024-01-03,1e200,1e200
2024-01-04,0.03,0.04
"""


def test_cli_analyze_names_the_bond_and_day_a_huge_rate_overflows(cli_files, capsys):
    history = write(cli_files["tmp"], "huge.csv", HUGE_RATE_CSV)
    assert main(["analyze", "--bonds", str(cli_files["bonds"]), "--curve", str(history),
                 "--date", "2024-01-03"]) == 2
    assert capsys.readouterr().err == ("error: bond 'B1': yield 1e+200 on 2024-01-03 "
                                       "overflows its convexity\n")


WIDE_NUMBER_CSV = """date,tenor_0.5,tenor_30
2024-01-02,0.03,0.04
2024-01-03,-0.9999999999999999,-0.9999999999999999
2024-01-04,0.03,0.04
"""


def test_cli_analyze_separates_numbers_as_wide_as_their_column(cli_files, capsys):
    """A yield near -100% prints prices and durations as wide as their
    columns: each such number gets one leading space, so every row still
    splits into its six fields. A day whose numbers fit prints the
    fixed-width table it always did."""
    history = write(cli_files["tmp"], "wide.csv", WIDE_NUMBER_CSV)
    universe = parse_bonds_json(cli_files["bonds"])
    curves = parse_curve_csv(history)
    widened = []
    for day in (1, 2):
        assert main(["analyze", "--bonds", str(cli_files["bonds"]), "--curve", str(history),
                     "--date", str(curves.dates[day])]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == ("id        maturity           price           ytm      duration"
                            "     convexity")
        assert len(lines) == 2 + len(universe)
        for bond, line in zip(universe.values(), lines[2:]):
            a = curve_analytics(bond, curves[day])
            nums = [fmt_num(x) for x in (bond.maturity, a.price, a.ytm, a.modified_duration,
                                         a.convexity)]
            assert line.split() == [bond.id, *nums]
            assert [float(x) for x in line.split()[1:]] == [float(x) for x in nums]
            fixed = f"{bond.id:<8}{nums[0]:>10}{nums[1]:>16}{nums[2]:>14}{nums[3]:>14}{nums[4]:>14}"
            if day == 2:
                assert line == fixed
            else:
                widened.append(line != fixed)
    assert all(widened)  # on day 1 every row has a number as wide as its column


def test_cli_backtest_names_the_bond_and_day_a_huge_rate_overflows(cli_files, capsys):
    history = write(cli_files["tmp"], "huge.csv", HUGE_RATE_CSV)
    out = cli_files["tmp"] / "bt"
    assert main(["backtest", "--history", str(history), "--bonds", str(cli_files["bonds"]),
                 "--config", str(cli_files["config"]), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: bond 'B1' cannot be priced on 2024-01-03: "
        "bond 'B1': yield 1e+200 on 2024-01-03 overflows its convexity\n")
    assert not out.exists()


@pytest.mark.parametrize("diff", [[], ["--diff"]])
def test_cli_stats_refuses_correlations_a_huge_rate_overflows(cli_files, capsys, diff):
    history = write(cli_files["tmp"], "huge.csv", HUGE_RATE_CSV)
    out = cli_files["tmp"] / "corr.csv"
    assert main(["stats", "--history", str(history), "--out", str(out), *diff]) == 2
    assert capsys.readouterr().err == ("error: correlation not finite at tenor(s) [0.5, 30.0]: "
                                       "variance out of range\n")
    assert not out.exists()


def test_cli_spot_analyze_names_the_flow_rate_a_huge_rate_overflows(cli_files, capsys):
    """Spot mode refuses what flat mode refuses: a rate whose (1 + r)^2 in the
    convexity leaves the float range, named by bond, rate and day, with no
    NumPy warning; the other days of the file still price."""
    history = write(cli_files["tmp"], "huge.csv", HUGE_RATE_CSV)
    argv = ["analyze", "--mode", "spot", "--bonds", str(cli_files["bonds"]), "--curve", str(history)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--date", "2024-01-03"]) == 2
        assert capsys.readouterr().err == ("error: bond 'B1': spot rate 1e+200 at t=1.0 on "
                                           "2024-01-03 overflows its convexity\n")
        assert main(argv + ["--date", "2024-01-04"]) == 0
    assert "B4" in capsys.readouterr().out


def test_cli_scenario_names_the_plan_bond_a_huge_rate_overflows(cli_files, capsys):
    """A scenario on a day whose base yield analyze refuses exits 2 with
    analyze's message for the first plan bond, target first, and no warning."""
    history = write(cli_files["tmp"], "huge.csv", HUGE_RATE_CSV)
    plan = cli_files["tmp"] / "plan.json"
    plan.write_text(json.dumps({"strategy": "duration", "target": {"id": "B2", "amount": 100.0},
                                "legs": [{"id": "B3", "amount": -50.0}], "constraints": []}))
    argv = ["scenario", "--plan", str(plan), "--bonds", str(cli_files["bonds"]),
            "--curve", str(history), "--shock", "a=0.001"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--date", "2024-01-03"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bond 'B2': yield 1e+200 on 2024-01-03 overflows its convexity\n"
        assert main(argv + ["--date", "2024-01-02"]) == 0
    assert json.loads(capsys.readouterr().out)["hedged_pnl"] != 0.0


def test_cli_analyze_to_file(cli_files):
    out_path = cli_files["tmp"] / "report" / "analytics.txt"
    rc = main(["analyze", "--bonds", str(cli_files["bonds"]),
               "--curve", str(cli_files["curve"]), "--out", str(out_path)])
    assert rc == 0
    assert "B2" in out_path.read_text()


def test_cli_hedge_matches_library(cli_files, capsys):
    rc = main(["hedge", "--strategy", "quadratic", "--target", "B2",
               "--instruments", "B3,B1", "--bonds", str(cli_files["bonds"]),
               "--curve", str(cli_files["curve"])])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["strategy"] == "quadratic"
    assert data["target"] == {"id": "B2", "amount": 100.0}

    curve = cli_files["curves"][0]
    uni = {b.id: b for b in default_bond_universe()}
    plan = quadratic_hedge(
        snapshot(uni["B2"], curve, amount=100.0),
        snapshot(uni["B3"], curve),
        snapshot(uni["B1"], curve),
    )
    want = {leg.id: float(fmt_num(leg.amount)) for leg in plan.legs}
    got = {leg["id"]: leg["amount"] for leg in data["legs"]}
    assert got == want
    assert {c["name"] for c in data["constraints"]} == {
        "dollar_duration", "dollar_duration_maturity"}


@pytest.mark.parametrize("strategy,instruments", [
    ("quadratic", "B3,B2"),
    ("cubic", "B3,B4,B2"),
])
def test_cli_hedge_allow_extrapolation(cli_files, capsys, strategy, instruments):
    # B1 (7y) lies outside every leg span here (4y to 5.5y at most)
    argv = ["hedge", "--strategy", strategy, "--target", "B1",
            "--instruments", instruments, "--bonds", str(cli_files["bonds"]),
            "--curve", str(cli_files["curve"])]
    assert main(argv) == 2
    assert "allow_extrapolation" in capsys.readouterr().err
    assert main(argv + ["--allow-extrapolation"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["strategy"] == strategy
    assert sorted(leg["id"] for leg in data["legs"]) == sorted(instruments.split(","))


def test_cli_hedge_wrong_instrument_count(cli_files, capsys):
    rc = main(["hedge", "--strategy", "cubic", "--target", "B2",
               "--instruments", "B3,B1", "--bonds", str(cli_files["bonds"]),
               "--curve", str(cli_files["curve"])])
    assert rc == 2
    assert "cubic needs 3 instruments, got 2" in capsys.readouterr().err


def test_cli_hedge_unknown_bond(cli_files, capsys):
    rc = main(["hedge", "--strategy", "duration", "--target", "NOPE",
               "--instruments", "B3", "--bonds", str(cli_files["bonds"]),
               "--curve", str(cli_files["curve"])])
    assert rc == 2
    assert "unknown bond id(s) ['NOPE']" in capsys.readouterr().err


def test_cli_scenario_sweep(cli_files, capsys):
    plan_path = cli_files["tmp"] / "plan.json"
    assert main(["hedge", "--strategy", "cubic", "--target", "B2",
                 "--instruments", "B3,B1,B4", "--bonds", str(cli_files["bonds"]),
                 "--curve", str(cli_files["curve"]), "--out", str(plan_path)]) == 0
    rc = main(["scenario", "--plan", str(plan_path), "--bonds", str(cli_files["bonds"]),
               "--curve", str(cli_files["curve"]), "--shock", "a=0.001,b=0.0001",
               "--sweep", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    rows = [json.loads(l) for l in lines]
    assert [r["scale"] for r in rows] == [1.0, 0.5, 0.25]
    for r in rows:
        assert abs(r["hedged_pnl"]) < abs(r["unhedged_pnl"])
        assert len(r["per_instrument"]) == 4  # target + 3 legs
    # second order: quartering the shock cuts the residual ~16x
    assert abs(rows[2]["hedged_pnl"]) < abs(rows[0]["hedged_pnl"]) / 8


def test_cli_scenario_rejects_negative_sweep(cli_files, capsys):
    plan_path = cli_files["tmp"] / "plan.json"
    assert main(["hedge", "--strategy", "duration", "--target", "B2",
                 "--instruments", "B3", "--bonds", str(cli_files["bonds"]),
                 "--curve", str(cli_files["curve"]), "--out", str(plan_path)]) == 0
    argv = ["scenario", "--plan", str(plan_path), "--bonds", str(cli_files["bonds"]),
            "--curve", str(cli_files["curve"]), "--shock", "a=0.001", "--sweep"]
    assert main(argv + ["-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--sweep" in captured.err and "-3" in captured.err
    assert main(argv + ["0"]) == 0  # zero still means one unscaled shock
    rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [r["scale"] for r in rows] == [1.0]


def test_cli_scenario_tolerance_flips_flag(cli_files, capsys):
    plan_path = cli_files["tmp"] / "plan_d.json"
    assert main(["hedge", "--strategy", "duration", "--target", "B2",
                 "--instruments", "B3", "--bonds", str(cli_files["bonds"]),
                 "--curve", str(cli_files["curve"]), "--out", str(plan_path)]) == 0
    argv = ["scenario", "--plan", str(plan_path), "--bonds", str(cli_files["bonds"]),
            "--curve", str(cli_files["curve"]), "--shock", "a=0,b=0.001"]
    assert main(argv) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["within_tolerance"] is False  # a rotation leaks through a duration hedge
    assert main(argv + ["--tolerance", str(2 * abs(row["hedged_pnl"]))]) == 0
    assert json.loads(capsys.readouterr().out)["within_tolerance"] is True


@pytest.mark.parametrize("extra,message", [
    (["--shock", "a=nan"], "--shock component 'a' must be finite, got nan"),
    (["--shock", "a=0.001,c=inf"], "--shock component 'c' must be finite, got inf"),
    (["--shock", "a=0.001", "--tolerance", "nan"], "--tolerance must be finite, got nan"),
])
def test_cli_scenario_rejects_non_finite_numbers(cli_files, capsys, extra, message):
    plan_path = cli_files["tmp"] / "plan_nan.json"
    assert main(["hedge", "--strategy", "duration", "--target", "B2",
                 "--instruments", "B3", "--bonds", str(cli_files["bonds"]),
                 "--curve", str(cli_files["curve"]), "--out", str(plan_path)]) == 0
    assert main(["scenario", "--plan", str(plan_path), "--bonds", str(cli_files["bonds"]),
                 "--curve", str(cli_files["curve"]), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("shock,message", [
    ("a0.001", "bad shock component 'a0.001': expected key=value"),
    ("a=x", "non-numeric shock value 'x' for 'a'"),
])
def test_cli_scenario_names_a_malformed_shock(cli_files, capsys, shock, message):
    plan_path = cli_files["tmp"] / "plan_shock.json"
    assert main(["hedge", "--strategy", "duration", "--target", "B2",
                 "--instruments", "B3", "--bonds", str(cli_files["bonds"]),
                 "--curve", str(cli_files["curve"]), "--out", str(plan_path)]) == 0
    assert main(["scenario", "--plan", str(plan_path), "--bonds", str(cli_files["bonds"]),
                 "--curve", str(cli_files["curve"]), "--shock", shock]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_scenario_skips_an_empty_shock_component(cli_files, capsys):
    plan_path = cli_files["tmp"] / "plan_empty.json"
    assert main(["hedge", "--strategy", "duration", "--target", "B2",
                 "--instruments", "B3", "--bonds", str(cli_files["bonds"]),
                 "--curve", str(cli_files["curve"]), "--out", str(plan_path)]) == 0
    capsys.readouterr()
    argv = ["scenario", "--plan", str(plan_path), "--bonds", str(cli_files["bonds"]),
            "--curve", str(cli_files["curve"]), "--shock"]
    assert main(argv + ["a=0.001"]) == 0
    want = capsys.readouterr()
    for shock in ("a=0.001,", ",a=0.001", "a=0.001, ,"):
        assert main(argv + [shock]) == 0
        assert capsys.readouterr() == want


def test_cli_scenario_rejects_negative_tolerance(cli_files, capsys):
    plan_path = cli_files["tmp"] / "plan_tol.json"
    assert main(["hedge", "--strategy", "cubic", "--target", "B2",
                 "--instruments", "B3,B1,B4", "--bonds", str(cli_files["bonds"]),
                 "--curve", str(cli_files["curve"]), "--out", str(plan_path)]) == 0
    argv = ["scenario", "--plan", str(plan_path), "--bonds", str(cli_files["bonds"]),
            "--curve", str(cli_files["curve"]), "--shock", "a=0", "--tolerance"]
    assert main(argv + ["-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --tolerance must be >= 0, got -1.0" in captured.err
    assert main(argv + ["0"]) == 0  # a zero P&L is within a zero tolerance
    assert json.loads(capsys.readouterr().out)["within_tolerance"] is True


def test_cli_hedge_rejects_non_finite_amount(cli_files, capsys):
    argv = ["hedge", "--strategy", "duration", "--target", "B2", "--instruments", "B3",
            "--bonds", str(cli_files["bonds"]), "--curve", str(cli_files["curve"])]
    for amount in ("nan", "inf"):
        assert main(argv + ["--amount", amount]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--amount must be finite, got {amount}" in captured.err


def test_cli_backtest_rejects_nan_amount(cli_files, capsys):
    path = cli_files["tmp"] / "nan_amount.json"
    config = json.loads(cli_files["config"].read_text())
    config["target"]["amount"] = float("nan")
    path.write_text(json.dumps(config))  # written as `"amount": NaN`
    out = cli_files["tmp"] / "nan_report"
    assert main(["backtest", "--history", str(cli_files["curve"]), "--bonds",
                 str(cli_files["bonds"]), "--config", str(path), "--out", str(out)]) == 2
    assert "target_amount must be finite, got nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value,message", [
    ("net_carry", "false", 'net_carry must be true or false, got "false"'),
    ("net_carry", 0, "net_carry must be true or false, got 0"),
    ("allow_extrapolation", "yes", 'allow_extrapolation must be true or false, got "yes"'),
    ("rebalance_days", 2.7, "rebalance_days must be an integer, got 2.7"),
    ("rebalance_days", True, "rebalance_days must be an integer, got true"),
    ("rebalance_days", "5", 'rebalance_days must be an integer, got "5"'),
    ("start", "2024-02-30",
     "start must be an ISO date (YYYY-MM-DD), got '2024-02-30': day is out of range for month"),
    ("end", 20240301, "end must be a string, got 20240301"),
    (None, [1, 2], "the config must be an object, got [1, 2]"),
    (None, "x", 'the config must be an object, got "x"'),
    ("instruments", [], "instruments must be an object, got []"),
    ("instruments", {"duration": [True]}, "instruments.duration[0] must be a string, got true"),
    ("instruments", {"duration": "B3"}, 'instruments.duration must be an array, got "B3"'),
    ("strategies", "duration", 'strategies must be an array, got "duration"'),
    ("strategies", [1], "strategies[0] must be a string, got 1"),
    ("rebalance_day", 5, "unknown field(s) ['rebalance_day']"),
    ("net_cary", True, "unknown field(s) ['net_cary']"),
    ("target", {"id": "B2", "amout": 50.0}, "unknown field(s) ['target.amout']"),
], ids=["net_carry-str", "net_carry-int", "allow_extrapolation-str", "rebalance_days-float",
        "rebalance_days-bool", "rebalance_days-str", "start-bad-day", "end-int", "config-array",
        "config-str", "instruments-array", "instrument-bool", "instruments-str",
        "strategies-str", "strategy-int", "rebalance_day-unknown", "net_cary-unknown",
        "target.amout-unknown"])
def test_cli_backtest_rejects_mistyped_config(cli_files, capsys, key, value, message):
    path = cli_files["tmp"] / "typed.json"
    config = json.loads(cli_files["config"].read_text())
    config = value if key is None else {**config, key: value}
    path.write_text(json.dumps(config))
    out = cli_files["tmp"] / "typed_report"
    assert main(["backtest", "--history", str(cli_files["curve"]), "--bonds",
                 str(cli_files["bonds"]), "--config", str(path), "--out", str(out)]) == 2
    assert f"malformed backtest config: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("target,message", [
    ({"id": "B2", "amount": True}, "target.amount must be a number, got true"),
    ({"id": "B2", "amount": "100"}, 'target.amount must be a number, got "100"'),
    ({"id": ["B2"], "amount": 100.0}, 'target.id must be a string, got ["B2"]'),
    ({"id": 2, "amount": 100.0}, "target.id must be a string, got 2"),
    ({"id": "B2", "amount": 10 ** 400}, "int too large to convert to float"),
    ("B2", 'target must be an object, got "B2"'),
], ids=["amount-bool", "amount-str", "id-list", "id-int", "amount-huge", "target-str"])
def test_cli_backtest_rejects_mistyped_target(cli_files, capsys, target, message):
    path = cli_files["tmp"] / "target.json"
    config = json.loads(cli_files["config"].read_text())
    config["target"] = target
    path.write_text(json.dumps(config))
    out = cli_files["tmp"] / "target_report"
    assert main(["backtest", "--history", str(cli_files["curve"]), "--bonds",
                 str(cli_files["bonds"]), "--config", str(path), "--out", str(out)]) == 2
    assert f"malformed backtest config: {message}" in capsys.readouterr().err
    assert not out.exists()


ALL_INSTRUMENTS = {"duration": ["B3"], "quadratic": ["B3", "B1"], "convexity": ["B3", "B1"],
                   "cubic": ["B3", "B1", "B4"]}


@pytest.mark.parametrize("config,want", [
    ({"target": {"id": "B2"}, "instruments": ALL_INSTRUMENTS},
     BacktestConfig(target_id="B2", target_amount=100.0,
                    instruments={Strategy(k): tuple(v) for k, v in ALL_INSTRUMENTS.items()},
                    strategies=(Strategy.DURATION, Strategy.QUADRATIC, Strategy.CONVEXITY,
                                Strategy.CUBIC),
                    rebalance_days=1, start=None, end=None, net_carry=False,
                    allow_extrapolation=False)),
    ({"target": {"id": "B1", "amount": 50}, "instruments": {"cubic": ["B3", "B2", "B4"]},
      "strategies": ["cubic"], "rebalance_days": 5, "start": "2024-01-03", "end": "2024-01-10",
      "net_carry": True, "allow_extrapolation": True},
     BacktestConfig(target_id="B1", target_amount=50.0,
                    instruments={Strategy.CUBIC: ("B3", "B2", "B4")},
                    strategies=(Strategy.CUBIC,), rebalance_days=5, start=dt.date(2024, 1, 3),
                    end=dt.date(2024, 1, 10), net_carry=True, allow_extrapolation=True)),
], ids=["required-keys-only", "every-key-set"])
def test_backtest_config_reads_every_key(tmp_path, config, want):
    """An absent key takes BacktestConfig's default, and each key reads as it always has."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    got = _backtest_config(path)
    assert got == want
    assert type(got.target_amount) is float


SUBCOMMAND_OPTIONS = {
    "analyze": ({"bonds": "b.json", "curve": "h.csv"}, {"date": None, "mode": "flat"}),
    "hedge": ({"bonds": "b.json", "curve": "h.csv", "strategy": "duration", "target": "B2",
               "instruments": "B3"},
              {"date": None, "amount": 100.0, "allow_extrapolation": False}),
    "scenario": ({"bonds": "b.json", "curve": "h.csv", "plan": "p.json", "shock": "a=0"},
                 {"date": None, "sweep": 0, "tolerance": 1e-9}),
    "backtest": ({"history": "h.csv", "bonds": "b.json", "config": "c.json"}, {"diff": False}),
    "stats": ({"history": "h.csv"}, {"diff": False}),
    "synth": ({}, {"days": 250, "seed": 42, "start": "2024-01-02", "sigma_level": 6e-4,
                   "sigma_slope": 0.08, "sigma_twist": 0.05, "sigma_idio": 0.0, "ar": 0.3,
                   "bonds_out": None}),
}


@pytest.mark.parametrize("command", SUBCOMMAND_OPTIONS)
def test_cli_options_and_defaults_are_pinned(command):
    required, defaults = SUBCOMMAND_OPTIONS[command]
    argv = [command, *(x for k, v in required.items() for x in (f"--{k}", v))]
    args = vars(build_parser().parse_args(argv))
    assert args.pop("func").__name__ == f"cmd_{command}"
    assert args == {"command": command, "out": None, **required, **defaults}


@pytest.mark.parametrize("command", SUBCOMMAND_OPTIONS)
def test_cli_help_lists_each_option(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    required, defaults = SUBCOMMAND_OPTIONS[command]
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == {"--help", "--out",
                      *("--" + k.replace("_", "-") for k in [*required, *defaults])}


def test_cli_builds_one_parser_per_process(cli_files, monkeypatch):
    argv = ["stats", "--history", str(cli_files["curve"]), "--out", str(cli_files["tmp"] / "c.csv")]
    assert main(argv) == 0  # the first call in a process builds the parser
    built, init = [], argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    for _ in range(3):
        assert main(argv) == 0
    assert built == []


@pytest.mark.parametrize("command", ["synth-bonds", "backtest"])
def test_cli_checks_outputs_before_any_work(cli_files, capsys, command):
    """An output under a regular file fails before anything is written or warned of."""
    tmp, blocker = cli_files["tmp"], cli_files["tmp"] / "afile"
    blocker.write_text("not a directory\n")
    frozen = tmp / "frozen.csv"  # a constant history: its backtest warns of skipped correlations
    write_curve_csv([YieldCurve(dt.date(2024, 1, 2) + dt.timedelta(k), (1.0, 5.0, 10.0),
                                (0.03, 0.035, 0.04)) for k in range(6)], frozen)
    argv = {"synth-bonds": ["synth", "--days", "5", "--out", str(tmp / "ok.csv"),
                            "--bonds-out", str(blocker / "u.json")],
            "backtest": ["backtest", "--history", str(frozen), "--bonds", str(cli_files["bonds"]),
                         "--config", str(cli_files["config"]), "--out", str(blocker)]}[command]
    before = sorted(tmp.rglob("*"))
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: cannot write {blocker}: Not a directory\n"
    assert sorted(tmp.rglob("*")) == before


def test_cli_scenario_rejects_nan_plan_amount(cli_files, capsys):
    plan_path = cli_files["tmp"] / "plan.json"
    assert main(["hedge", "--strategy", "duration", "--target", "B2", "--instruments", "B3",
                 "--bonds", str(cli_files["bonds"]), "--curve", str(cli_files["curve"]),
                 "--out", str(plan_path)]) == 0
    plan = json.loads(plan_path.read_text())
    plan["legs"][0]["amount"] = float("nan")
    plan_path.write_text(json.dumps(plan))
    assert main(["scenario", "--plan", str(plan_path), "--bonds", str(cli_files["bonds"]),
                 "--curve", str(cli_files["curve"]), "--shock", "a=0.001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: malformed hedge plan: legs[0].amount must be finite, got NaN\n"


def test_cli_seed_only_on_synth(cli_files):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--bonds", str(cli_files["bonds"]),
              "--curve", str(cli_files["curve"]), "--seed", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["analyze", "hedge", "scenario"])
def test_cli_bad_date_names_option_and_value(cli_files, capsys, command):
    plan_path = cli_files["tmp"] / "plan.json"
    assert main(["hedge", "--strategy", "duration", "--target", "B2", "--instruments", "B3",
                 "--bonds", str(cli_files["bonds"]), "--curve", str(cli_files["curve"]),
                 "--out", str(plan_path)]) == 0
    argv = {"analyze": [],
            "hedge": ["--strategy", "duration", "--target", "B2", "--instruments", "B3"],
            "scenario": ["--plan", str(plan_path), "--shock", "a=0.001"]}[command]
    rc = main([command, *argv, "--bonds", str(cli_files["bonds"]),
               "--curve", str(cli_files["curve"]), "--date", "2024-13-01"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --date must be an ISO date (YYYY-MM-DD), got '2024-13-01': "
                            "month must be in 1..12\n")


def test_cli_synth_bad_start_names_option_and_value(tmp_path, capsys):
    out = tmp_path / "h.csv"
    assert main(["synth", "--start", "2024-02-30", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: --start must be an ISO date (YYYY-MM-DD), got "
                                       "'2024-02-30': day is out of range for month\n")
    assert not out.exists()


def test_cli_scenario_bad_shock(cli_files, capsys):
    plan_path = cli_files["tmp"] / "plan2.json"
    main(["hedge", "--strategy", "duration", "--target", "B2",
          "--instruments", "B3", "--bonds", str(cli_files["bonds"]),
          "--curve", str(cli_files["curve"]), "--out", str(plan_path)])
    rc = main(["scenario", "--plan", str(plan_path), "--bonds", str(cli_files["bonds"]),
               "--curve", str(cli_files["curve"]), "--shock", "a=0.001,z=2"])
    assert rc == 2
    assert "unknown shock component 'z'" in capsys.readouterr().err


def test_cli_backtest_writes_files(cli_files):
    out_dir = cli_files["tmp"] / "bt"
    rc = main(["backtest", "--history", str(cli_files["curve"]),
               "--bonds", str(cli_files["bonds"]), "--config", str(cli_files["config"]),
               "--out", str(out_dir)])
    assert rc == 0
    for name in ("pnl_duration.csv", "pnl_quadratic.csv", "pnl_convexity.csv",
                 "pnl_cubic.csv", "pnl_unhedged.csv", "summary.csv",
                 "correlations.csv"):
        assert (out_dir / name).is_file(), name


def test_cli_backtest_allow_extrapolation(cli_files, capsys):
    config = {
        "target": {"id": "B1", "amount": 100.0},
        "strategies": ["quadratic", "cubic"],
        "instruments": {"quadratic": ["B3", "B2"], "cubic": ["B3", "B2", "B4"]},
    }
    path = cli_files["tmp"] / "extrapolate.json"
    out = cli_files["tmp"] / "report"
    argv = ["backtest", "--history", str(cli_files["curve"]), "--bonds",
            str(cli_files["bonds"]), "--config", str(path), "--out", str(out)]
    path.write_text(json.dumps(config))
    assert main(argv) == 2
    assert "allow_extrapolation" in capsys.readouterr().err
    path.write_text(json.dumps({**config, "allow_extrapolation": True}))
    assert main(argv) == 0
    for name in ("quadratic", "cubic"):
        rows = (out / f"pnl_{name}.csv").read_text().splitlines()[2:]
        assert len(rows) == len(cli_files["curves"]) - 1


def test_cli_backtest_requires_out(cli_files, capsys):
    rc = main(["backtest", "--history", str(cli_files["curve"]),
               "--bonds", str(cli_files["bonds"]), "--config", str(cli_files["config"])])
    assert rc == 2
    assert "requires --out" in capsys.readouterr().err


def test_cli_backtest_deterministic(cli_files):
    args = ["backtest", "--history", str(cli_files["curve"]),
            "--bonds", str(cli_files["bonds"]), "--config", str(cli_files["config"])]
    out1, out2 = cli_files["tmp"] / "bt1", cli_files["tmp"] / "bt2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for p1 in sorted(out1.iterdir()):
        assert p1.read_bytes() == (out2 / p1.name).read_bytes()


def test_cli_backtest_warnings_on_stderr(cli_files, capsys):
    """Truncated series are warned of in day order, unhedged last, and a
    constant history skips its correlations with a warning."""
    tmp = cli_files["tmp"]
    args = ["--bonds", str(cli_files["bonds"]), "--config", str(cli_files["config"])]
    long = tmp / "h2500.csv"
    assert main(["synth", "--days", "2500", "--out", str(long)]) == 0
    assert main(["backtest", "--history", str(long), *args, "--out", str(tmp / "bt")]) == 0
    dead = "['B3'] matured or rolled below the curve's shortest tenor"
    assert capsys.readouterr().err.splitlines() == [
        *(f"warning: {name}: series truncated at 2027-07-02: {dead}"
          for name in ("duration", "quadratic", "convexity", "cubic")),
        "warning: unhedged: series truncated at 2028-06-30: target matured",
    ]
    frozen = tmp / "frozen.csv"
    write_curve_csv([YieldCurve(dt.date(2024, 1, 2) + dt.timedelta(k), (1.0, 5.0, 10.0),
                                (0.03, 0.035, 0.04)) for k in range(6)], frozen)
    assert main(["backtest", "--history", str(frozen), *args, "--out", str(tmp / "bt6")]) == 0
    assert capsys.readouterr().err == ("warning: correlations skipped: constant series at "
                                       "tenor(s) [1.0, 5.0, 10.0]: correlation undefined\n")


@pytest.mark.parametrize("command", ["synth", "synth-bonds", "stats", "analyze", "hedge",
                                     "scenario", "backtest"])
def test_cli_output_under_a_regular_file_exits_2(cli_files, capsys, command):
    tmp, blocker = cli_files["tmp"], cli_files["tmp"] / "afile"
    blocker.write_text("not a directory\n")
    under = str(blocker / "out")
    files = ["--bonds", str(cli_files["bonds"]), "--curve", str(cli_files["curve"])]
    plan = tmp / "plan.json"
    assert main(["hedge", "--strategy", "duration", "--target", "B2", "--instruments", "B3",
                 *files, "--out", str(plan)]) == 0
    argv = {
        "synth": ["synth", "--days", "5", "--out", under],
        "synth-bonds": ["synth", "--days", "5", "--out", str(tmp / "h5.csv"),
                        "--bonds-out", under],
        "stats": ["stats", "--history", str(cli_files["curve"]), "--out", under],
        "analyze": ["analyze", *files, "--out", under],
        "hedge": ["hedge", "--strategy", "duration", "--target", "B2", "--instruments", "B3",
                  *files, "--out", under],
        "scenario": ["scenario", "--plan", str(plan), *files, "--shock", "a=0.001",
                     "--out", under],
        "backtest": ["backtest", "--history", str(cli_files["curve"]), "--bonds",
                     str(cli_files["bonds"]), "--config", str(cli_files["config"]),
                     "--out", under],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    # the file in the way, or the report directory under it
    assert capsys.readouterr().err.splitlines()[-1].startswith(f"error: cannot write {blocker}")
    assert blocker.read_text() == "not a directory\n"
    assert not list(tmp.rglob("*.tmp"))


@pytest.mark.parametrize("command", ["synth", "synth-bonds", "stats", "analyze", "hedge",
                                     "scenario"])
def test_cli_output_that_is_a_directory_exits_2_before_any_work(cli_files, capsys, monkeypatch,
                                                                 command):
    tmp, adir = cli_files["tmp"], cli_files["tmp"] / "adir"
    adir.mkdir()
    files = ["--bonds", str(cli_files["bonds"]), "--curve", str(cli_files["curve"])]
    plan = tmp / "plan.json"
    assert main(["hedge", "--strategy", "duration", "--target", "B2", "--instruments", "B3",
                 *files, "--out", str(plan)]) == 0
    argv = {
        "synth": ["synth", "--days", "5", "--out", str(adir)],
        "synth-bonds": ["synth", "--days", "5", "--out", str(tmp / "h5.csv"),
                        "--bonds-out", str(adir)],
        "stats": ["stats", "--history", str(cli_files["curve"]), "--out", str(adir)],
        "analyze": ["analyze", *files, "--out", str(adir)],
        "hedge": ["hedge", "--strategy", "duration", "--target", "B2", "--instruments", "B3",
                  *files, "--out", str(adir)],
        "scenario": ["scenario", "--plan", str(plan), *files, "--shock", "a=0.001",
                     "--out", str(adir)],
    }[command]

    def work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("parse_curve_csv", "generate_history"):
        monkeypatch.setattr(curvehedge.cli, name, work)
    before = sorted(tmp.rglob("*"))
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: cannot write {adir}: Is a directory\n"
    assert sorted(tmp.rglob("*")) == before


def test_cli_synth_requires_out(capsys):
    assert main(["synth", "--days", "5"]) == 2
    assert capsys.readouterr().err == "error: synth requires --out <csv>\n"


def test_cli_synth_creates_missing_directories(tmp_path):
    path = tmp_path / "new" / "dir" / "h.csv"
    assert main(["synth", "--days", "5", "--out", str(path)]) == 0
    assert len(parse_curve_csv(path)) == 5


def test_emit_report_writes_all_files_or_none(tmp_path, small_report):
    out = tmp_path / "out"
    (out / "summary.csv.tmp").mkdir(parents=True)  # the last file cannot be staged
    with pytest.raises(ValidationError) as err:
        emit_report(small_report, out)
    assert str(err.value) == f"cannot write {out / 'summary.csv'}: Is a directory"
    assert sorted(p.name for p in out.iterdir()) == ["summary.csv.tmp"]


def test_cli_stats(cli_files, capsys):
    rc = main(["stats", "--history", str(cli_files["curve"])])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("#")
    assert lines[1].startswith("tenor,tenor_0.5,")
    assert len(lines) == 2 + len(cli_files["curves"][0].tenors)


@pytest.mark.parametrize("command", ["stats", "analyze"])
def test_cli_undecodable_history_names_the_file(cli_files, capsys, command):
    path = cli_files["tmp"] / "bin.csv"
    path.write_bytes(b"\xff" + cli_files["curve"].read_bytes())
    argv = {"stats": ["--history", str(path)],
            "analyze": ["--bonds", str(cli_files["bonds"]), "--curve", str(path)]}[command]
    assert main([command, *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "decode" in err


def test_cli_field_over_csv_limit_exits_2(cli_files, capsys):
    path = cli_files["tmp"] / "big.csv"
    big = '"' + "1" * (csv.field_size_limit() + 1) + '"'
    path.write_text(f"date,tenor_1,tenor_5\n2024-01-02,{big},0.03\n")
    assert main(["stats", "--history", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: line 2: field larger than field limit ({csv.field_size_limit()})\n")


def test_cli_bad_header_names_its_line(cli_files, capsys):
    path = cli_files["tmp"] / "h.csv"
    path.write_text("# a comment\nwhen,tenor_1,tenor_5\n2024-01-02,0.02,0.03\n")
    assert main(["stats", "--history", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: line 2: header must start with 'date'\n"


def test_cli_synth_determinism(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert main(["synth", "--days", "10", "--out", str(a)]) == 0
    assert main(["synth", "--days", "10", "--out", str(b)]) == 0
    assert main(["synth", "--days", "10", "--seed", "7", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_cli_synth_bonds_out(tmp_path):
    csv_path = tmp_path / "h.csv"
    bonds_path = tmp_path / "u.json"
    rc = main(["synth", "--days", "5", "--out", str(csv_path),
               "--bonds-out", str(bonds_path)])
    assert rc == 0
    assert set(parse_bonds_json(bonds_path)) == {"B1", "B2", "B3", "B4"}
    assert len(parse_curve_csv(csv_path)) == 5


def test_cli_missing_inputs_all_reported(tmp_path, capsys):
    rc = main(["backtest", "--history", str(tmp_path / "no1.csv"),
               "--bonds", str(tmp_path / "no2.json"),
               "--config", str(tmp_path / "no3.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    for frag in ("--bonds", "--history", "--config"):
        assert frag in err
    # one error line names all three
    assert err.count("error:") == 1 and err.count("no such file") == 3


def test_cli_rejects_unknown_strategy(cli_files):
    with pytest.raises(SystemExit) as exc:
        main(["hedge", "--strategy", "psychic", "--target", "B2",
              "--instruments", "B3", "--bonds", str(cli_files["bonds"]),
              "--curve", str(cli_files["curve"])])
    assert exc.value.code == 2


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cli_bad_date_selection(cli_files, capsys):
    rc = main(["analyze", "--bonds", str(cli_files["bonds"]),
               "--curve", str(cli_files["curve"]), "--date", "1999-01-01"])
    assert rc == 2
    assert "not present" in capsys.readouterr().err


def test_cli_date_missing_from_the_curve_file_is_named(cli_files, capsys):
    assert main(["analyze", "--bonds", str(cli_files["bonds"]), "--curve", str(cli_files["curve"]),
                 "--date", "2024-01-06"]) == 2
    assert capsys.readouterr().err == "error: date 2024-01-06 not present in the curve file\n"


def cli_session(w: Path, calls: list, capsys, clear_before) -> tuple:
    """The files-workload session (synth, stats --diff, analyze, four hedges,
    scenario --sweep 4, backtest) in the new directory w, the curve memo
    emptied before each command whose argv clear_before accepts: the
    np.loadtxt calls counted in calls, the exit codes, the printed lines with
    w as W, and every file written."""
    ids = {"duration": "B3", "quadratic": "B3,B1", "convexity": "B3,B1", "cubic": "B3,B1,B4"}
    w.mkdir()
    (w / "config.json").write_text(json.dumps({
        "target": {"id": "B2", "amount": 100.0},
        "instruments": {k: v.split(",") for k, v in ids.items()},
        "net_carry": True, "start": "2025-03-03", "end": "2025-05-23"}))
    hist, bonds, day = str(w / "hist.csv"), str(w / "bonds.json"), "2026-06-01"
    argvs = [
        ["synth", "--days", "2500", "--seed", "7", "--out", hist, "--bonds-out", bonds],
        ["stats", "--history", hist, "--diff", "--out", str(w / "corr_diff.csv")],
        ["analyze", "--bonds", bonds, "--curve", hist, "--date", day, "--out", str(w / "a.txt")],
        *[["hedge", "--strategy", s, "--target", "B2", "--instruments", legs, "--bonds", bonds,
           "--curve", hist, "--date", day, "--out", str(w / f"plan_{s}.json")]
          for s, legs in ids.items()],
        ["scenario", "--plan", str(w / "plan_cubic.json"), "--bonds", bonds, "--curve", hist,
         "--date", day, "--shock", "a=0.001,b=0.05,c=-0.5", "--sweep", "4",
         "--out", str(w / "scenario.jsonl")],
        ["backtest", "--history", hist, "--bonds", bonds, "--config", str(w / "config.json"),
         "--out", str(w / "report")],
    ]
    calls.clear()
    codes = []
    for argv in argvs:
        if clear_before(argv):
            curvehedge.io._memo.clear()
        codes.append(main(argv))
    out, err = capsys.readouterr()
    files = {str(p.relative_to(w)): p.read_bytes() for p in sorted(w.rglob("*")) if p.is_file()}
    return len(calls), codes, out.replace(str(w), "W"), err.replace(str(w), "W"), files


def test_cli_session_parses_its_history_once(tmp_path, monkeypatch, capsys):
    """The files-workload session, with the history synth wrote dropped from
    the memo, parses it once, and every output, exit code and printed line
    equals the same session's with the memo emptied before each command,
    which parses it in each of 8 reads."""
    calls = counted_loadtxt(monkeypatch)
    held = cli_session(tmp_path / "held", calls, capsys, lambda argv: argv[0] == "stats")
    fresh = cli_session(tmp_path / "fresh", calls, capsys, lambda argv: True)
    assert (held[0], fresh[0]) == (1, 8)
    assert held[1:] == fresh[1:]
    assert held[1] == [0] * 9 and len(held[4]) == 17


def test_cli_session_reads_the_history_synth_wrote_unparsed(tmp_path, monkeypatch, capsys):
    """synth holds the history it writes as its 8 reads would parse it: the
    session makes no np.loadtxt call, against the fresh session's 8, and
    every output, exit code and printed line is the same."""
    calls = counted_loadtxt(monkeypatch)
    held = cli_session(tmp_path / "held", calls, capsys, lambda argv: False)
    fresh = cli_session(tmp_path / "fresh", calls, capsys, lambda argv: True)
    assert (held[0], fresh[0]) == (0, 8)
    assert held[1:] == fresh[1:]
    assert held[1] == [0] * 9 and len(held[4]) == 17
