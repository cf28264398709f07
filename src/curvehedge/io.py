"""File formats: curve history CSV, bond universe JSON, plan JSON, reports.

All rates in files are decimal fractions per year (0.0312, never 3.12);
every emitted file repeats that in a leading # comment. Numbers are written
with 10 significant digits, so identical inputs always produce byte-
identical outputs. One function renders every CSV (_csv), one reads every
JSON file (_read_json) and one writes every file (_write), all of a call's
files or none: a failing run never leaves a half-written output behind.

A curve history's text is read once, its rates as one (days, knots) block
by one np.loadtxt call that becomes the CurveHistory returned; only text
with quotes, control or non-ASCII characters goes through csv, and that
text, or a file that fails a check, is walked row by row to name every
error's line. Every read opens the file, but the last history written or
successfully read is held, keyed by the whole text: it is parsed at most
once, and not at all after write_curve_csv wrote it. A failure is not held.
Numbers in JSON inputs must be finite JSON numbers; a bool or a string is
refused, not converted.
A bond entry holds Bond's fields, those without a default required, and no other.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import json
import math
import os
from io import StringIO
from itertools import repeat
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .backtest import BacktestReport, UNHEDGED
from .bonds import Bond
from .curve import CurveHistory, YieldCurve, _bad_rows, _history
from .errors import ValidationError
from .hedging import HedgeLeg, HedgePlan, Strategy

RATE_COMMENT = "# rates are decimal fractions per year (0.0312 means 3.12%)"
PNL_COMMENT = "# profit and loss in currency units; cumulative is the running sum"

BOND_REQUIRED_FIELDS = tuple(f.name for f in dataclasses.fields(Bond) if f.default is dataclasses.MISSING)
BOND_OPTIONAL_FIELDS = tuple(f.name for f in dataclasses.fields(Bond) if f.name not in BOND_REQUIRED_FIELDS)
_PLAIN = bytes([9, 10, 13, 32, 33, *range(35, 127)])  # tab, line ends, printable ASCII but '"'


# the Python types json.loads gives for each kind of JSON value
_JSON_KINDS = {"true or false": (bool,), "an integer": (int,), "a number": (int, float),
               "a string": (str,), "an object": (dict,), "an array": (list,)}


def _typed(value, name: str, what: str):
    """value, which must be the kind of JSON value `what` names (a bool is no number)."""
    kinds = _JSON_KINDS[what]
    if not isinstance(value, kinds) or (type(value) is bool and bool not in kinds):
        raise TypeError(f"{name} must be {what}, got {json.dumps(value)}")
    return value


def _number(value, name: str) -> float:
    """A finite JSON number as a float."""
    _typed(value, name, "a number")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {json.dumps(value)}")
    return x


def fmt_num(x: float) -> str:
    """Render a number with the 10 significant digits every file uses."""
    return f"{x:.10g}"


def _read_back(block: np.ndarray) -> np.ndarray:
    """float(fmt_num(x)) for each x of a float block, bit for bit, unparsed:
    x's ten digits are n = rint(m), m = |x| 10^k, k = 9 - floor(log10|x|), and
    for 0 <= k <= 22 n / 10^k divides exact doubles, rounding as float() reads
    the text (Clinger's fast path). m is within 1e-6 of the exact product, so
    an x with m < 1e9, n >= 1e10 or m within 1e-5 of a half-integer, and 0,
    inf and nan, go through float(fmt_num(x))."""
    a = np.abs(block)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = 9 - np.floor(np.log10(a))
        ok = (k >= 0) & (k <= 22)
        p = np.array([float(10**j) for j in range(23)])[np.where(ok, k, 0).astype(np.intp)]
        m = a * p
        n = np.rint(m)
        ok &= (m >= 1e9) & (n < 1e10) & (np.abs(m - np.floor(m) - 0.5) > 1e-5)
        back = np.copysign(n / p, block)
    back[~ok] = [float(fmt_num(x)) for x in block[~ok].tolist()]
    return back


def _tenor(t: float) -> str:
    """A tenor's label: %g when that reads back as t, else repr's digits."""
    return f"{t:g}" if float(f"{t:g}") == t else repr(float(t))


def _csv(comment: str, header: str, rows) -> str:
    """CSV text: the comment, the header, then one line per (label, numbers)
    row with as many numbers as the header names after its first column."""
    line = ",".join(["%.10g"] * header.count(","))  # fmt_num's format, one template per row
    lines = [comment, header, *(label + "," + line % tuple(nums) for label, nums in rows)]
    return "\n".join(lines) + "\n"


def _write(files) -> None:
    """Write (path, text) pairs, parent directories created: each text goes to
    a .tmp beside its path and all are renamed only once all are written. An
    OSError removes the temp files and is a ValidationError naming the path."""
    staged: list[tuple[Path, Path]] = []
    try:
        for path, text in files:
            path = Path(path)
            tmp = path.with_name(path.name + ".tmp")
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w") as fh:
                staged.append((tmp, path))
                fh.write(text)
        for tmp, path in staged:
            os.replace(tmp, path)
    except OSError as exc:
        # the path asked for, or the directory in its way when that failed
        name = path if exc.filename in (None, str(tmp)) else exc.filename
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise ValidationError(f"cannot write {name}: {exc.strerror or exc}") from exc


def _read_json(path):
    """The JSON value in the file at path; invalid JSON or undecodable text names the file."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# curve history CSV
# ---------------------------------------------------------------------------

_memo: list = []  # the text of the last successful parse and its history, or empty


def parse_curve_csv(path) -> CurveHistory:
    """Read a daily curve history.

    Expected header: date,tenor_0.5,tenor_1,... with tenors in years and
    strictly increasing. Rows must be in ascending date order with no
    duplicates. Every failure is collected and reported with its line
    number before raising.

    Every call reads the file. The last history written or successfully read
    is held, one entry keyed by the whole text: equal text, at any path, is
    not parsed again. A failure is not held, so a bad file raises its own
    message on every read. Each call returns its own CurveHistory over the
    held read-only block, a view that cannot be made writeable.
    """
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    if not (_memo and _memo[0] == text):  # one memcmp for text of equal length
        _memo.clear()
        _memo.extend((text, _parse_curve_text(path, text)))
    return _memo[1][:]


def _parse_curve_text(path: Path, text: str) -> CurveHistory:
    """parse_curve_csv's history from the text of the file at path.

    One leading byte-order mark is dropped. Text of _PLAIN bytes is split
    into lines, the header the first kept one. The lines after it are the
    body as they are when no "#" and no empty line is among them; otherwise
    the filter keeps the body's lines numbered. Each body line is split at
    its first comma, the dates are read by one map, all the rates by one
    np.loadtxt call, and CurveHistory checks the whole block. _walk_rows
    reads the rows one by one: csv's rows of any other text, and those of a
    body that fails a check, numbered then if the filter did not number them.
    """
    errors: list[str] = []
    text = text.removeprefix("\ufeff")  # a byte-order mark, as some spreadsheets write
    fast = text.isascii() and not text.encode().translate(None, _PLAIN)
    lines = text.splitlines() if fast else csv.reader(StringIO(text, newline=""))
    # csv and splitlines end lines alike here; a csv row is numbered by the text
    # line it ends on, as a quoted cell may hold a line end
    numbered = enumerate(lines, 1) if fast else ((lines.line_num, row) for row in lines)
    # "#" starts a line iff it starts its first field
    kept = ((ln, row) for ln, row in numbered
            if row and not (row if fast else row[0]).lstrip().startswith("#"))
    try:
        header_ln, header = next(kept, (0, None))
        rows = [] if fast else list(kept)  # csv's rows, numbered
    except csv.Error as exc:  # only csv's reader raises, e.g. on a field over its size limit
        raise ValidationError(f"{path}: line {lines.line_num}: {exc}") from exc
    if header is None:
        raise ValidationError(f"{path}: empty curve file")

    header = header.split(",") if fast else header
    if not header or header[0].strip() != "date":
        raise ValidationError(f"{path}: line {header_ln}: header must start with 'date'")
    tenors: list[float] = []
    for col in header[1:]:
        col = col.strip()
        if not col.startswith("tenor_"):
            errors.append(f"line {header_ln}: column {col!r} must be named tenor_<years>")
            continue
        try:
            tenors.append(float(col[len("tenor_"):]))
        except ValueError:
            errors.append(f"line {header_ln}: cannot parse tenor from column {col!r}")
    if not errors:
        if len(tenors) < 2:
            errors.append(f"line {header_ln}: need at least 2 tenor columns")
        elif not all(map(math.isfinite, tenors)):
            errors.append(f"line {header_ln}: tenors must be finite")
        elif min(tenors) <= 0:
            errors.append(f"line {header_ln}: tenors must be positive")
        elif any(b <= a for a, b in zip(tenors, tenors[1:])):
            errors.append(f"line {header_ln}: tenor columns must be strictly increasing")
    if errors:
        raise ValidationError(f"{path}: " + "; ".join(errors))

    grid, body = tuple(tenors), lines[header_ln:] if fast else []
    if fast and ("" in body
                 or text.count("#") > sum(line.count("#") for line in lines[:header_ln])):
        rows = list(kept)  # the filter drops a line of the body: number the lines it keeps
        body = [line for _, line in rows]
    if body:  # np.loadtxt warns on no data
        try:
            heads, _, rests = zip(*map(str.partition, body, repeat(",")))
            dates = list(map(dt.date.fromisoformat, map(str.strip, heads)))
            if "" in rests:
                raise ValueError("a row without rates")
            # one row per line, as no line is empty: the reshape checks the field counts
            block = np.loadtxt(rests, delimiter=",", comments=None).reshape(len(dates), len(grid))
            return CurveHistory(dates, grid, block)
        except ValueError:  # a failed check: the walk words each error with its line
            rows = [(ln, line.split(",")) for ln, line in rows or enumerate(body, header_ln + 1)]
    return _walk_rows(path, grid, rows, len(header))


def _walk_rows(path: Path, grid: tuple[float, ...], rows: list, width: int):
    """parse_curve_csv's history from csv data rows read one by one, or every failure with
    its line. The rates of rows that pass the per-row checks are checked as one block by
    _bad_rows; only a failing row becomes a YieldCurve, to word its message."""
    errors: list[tuple[int, str]] = []  # at most one per row
    lines, dates, rates = [], [], []
    for ln, row in rows:
        if len(row) != width:
            errors.append((ln, f"expected {width} fields, got {len(row)}"))
            continue
        try:
            date = dt.date.fromisoformat(row[0].strip())
        except ValueError:
            errors.append((ln, f"bad date {row[0]!r} (expected ISO-8601)"))
            continue
        try:
            cells = []
            for cell in row[1:]:
                cells.append(float(cell))
        except ValueError:
            errors.append((ln, f"non-numeric rate {cell!r}"))
            continue
        if dates and date <= dates[-1]:
            kind = "duplicate" if date == dates[-1] else "out-of-order"
            errors.append((ln, f"{kind} date {date}"))
            continue
        lines.append(ln)
        dates.append(date)
        rates.append(cells)
    block = np.array(rates).reshape(-1, len(grid))
    for i in np.flatnonzero(_bad_rows(block)):
        try:
            YieldCurve(dates[i], grid, tuple(rates[i]))
        except ValueError as exc:
            errors.append((lines[i], str(exc)))
    if errors:
        raise ValidationError(f"{path}: " + "; ".join(f"line {ln}: {m}" for ln, m in sorted(errors)))
    if not dates:
        raise ValidationError(f"{path}: no data rows")
    return CurveHistory(dates, grid, block)


def write_curve_csv(curves: Sequence[YieldCurve], path) -> None:
    """Write a history in the same format parse_curve_csv reads, and hold it
    as that parse: a rate whose 10-digit text reads back as no rate (-1 +
    2^-52 is written as -1) is refused by date and column, writing nothing."""
    if not curves:
        raise ValidationError("curve history is empty: nothing to write")
    history = _history(curves)
    labels = list(map(_tenor, history.tenors))
    back = _read_back(history.rates)
    for cell in np.flatnonzero(_bad_rows(back.reshape(-1, 1)))[:1]:  # cells as one-knot rows
        (i, j), x = divmod(cell, back.shape[1]), float(history.rates.flat[cell])
        raise ValidationError(f"cannot write the rate on {history.dates[i]} at tenor_{labels[j]}: "
                              f"{x!r} is written as {fmt_num(x)}, not a finite rate above -100%")
    _memo.clear()  # the old entry is freed before the new one is built
    text = _csv(RATE_COMMENT, "date," + ",".join(f"tenor_{t}" for t in labels),
                zip(map(dt.date.isoformat, history.dates), history.rates.tolist()))
    _write([(path, text)])
    if {*map(type, history.dates)} == {dt.date}:  # the dates the reader gives back
        _memo.extend((text, CurveHistory(history.dates, list(map(float, labels)), back)))


# ---------------------------------------------------------------------------
# bond universe JSON
# ---------------------------------------------------------------------------

def parse_bonds_json(path) -> dict[str, Bond]:
    """Read a JSON array of bond definitions, keyed by id after validation."""
    path = Path(path)
    raw = _read_json(path)
    if not isinstance(raw, list):
        raise ValidationError(f"{path}: expected a JSON array of bonds")
    errors: list[str] = []
    universe: dict[str, Bond] = {}
    for idx, entry in enumerate(raw):
        label = f"bond #{idx}"
        if not isinstance(entry, dict):
            errors.append(f"{label}: not an object")
            continue
        if isinstance(entry.get("id"), str):
            label = f"bond {entry['id']!r}"
        missing = [f for f in BOND_REQUIRED_FIELDS if f not in entry]
        unknown = [f for f in entry if f not in BOND_REQUIRED_FIELDS + BOND_OPTIONAL_FIELDS]
        if missing:
            errors.append(f"{label}: missing field(s) {missing}")
        if unknown:
            errors.append(f"{label}: unknown field(s) {unknown}")
        if missing or unknown:
            continue
        offset = entry.get("issue_or_first_coupon_offset")
        try:
            bond = Bond(
                id=_typed(entry["id"], "id", "a string"),
                face=_number(entry["face"], "face"),
                coupon_rate=_number(entry["coupon_rate"], "coupon_rate"),
                coupon_frequency=_typed(entry["coupon_frequency"], "coupon_frequency",
                                        "an integer"),
                maturity=_number(entry["maturity"], "maturity"),
                issue_or_first_coupon_offset=(
                    None if offset is None else _number(offset, "issue_or_first_coupon_offset")
                ),
            )
        except (TypeError, ValueError) as exc:
            errors.append(f"{label}: {exc}")
            continue
        if bond.id in universe:
            errors.append(f"{label}: duplicate id")
            continue
        universe[bond.id] = bond
    if errors:
        raise ValidationError(f"{path}: " + "; ".join(errors))
    if not universe:
        raise ValidationError(f"{path}: no bonds defined")
    return universe


def write_bonds_json(bonds: Sequence[Bond], path) -> None:
    entries = [{k: v for k, v in dataclasses.asdict(b).items() if v is not None} for b in bonds]
    _write([(path, json.dumps(entries, indent=2) + "\n")])


# ---------------------------------------------------------------------------
# hedge plan JSON
# ---------------------------------------------------------------------------

def plan_to_dict(plan: HedgePlan) -> dict:
    return {
        "strategy": plan.strategy.value,
        "target": {"id": plan.target_id, "amount": plan.target_amount},
        "legs": [{"id": leg.id, "amount": leg.amount} for leg in plan.legs],
        "constraints": [{"name": n, "value": v} for n, v in plan.constraints],
    }


def plan_from_dict(data: Mapping) -> HedgePlan:
    """The plan in a dict as plan_to_dict writes it; amounts and values must be finite numbers."""
    try:
        return HedgePlan(
            strategy=Strategy(data["strategy"]),
            target_id=_typed(data["target"]["id"], "target.id", "a string"),
            target_amount=_number(data["target"]["amount"], "target.amount"),
            legs=tuple(
                HedgeLeg(_typed(l["id"], f"legs[{k}].id", "a string"),
                         _number(l["amount"], f"legs[{k}].amount"))
                for k, l in enumerate(data["legs"])
            ),
            constraints=tuple(
                (_typed(c["name"], f"constraints[{k}].name", "a string"),
                 _number(c["value"], f"constraints[{k}].value"))
                for k, c in enumerate(data["constraints"])
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed hedge plan: {exc}") from exc


def parse_plan_json(path) -> HedgePlan:
    return plan_from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# backtest report emission
# ---------------------------------------------------------------------------

def correlations_csv(correlations: np.ndarray, tenors: Sequence[float]) -> str:
    """The tenor correlation matrix as CSV text, labelled by tenor."""
    labels = list(map(_tenor, tenors))
    header = "tenor," + ",".join(f"tenor_{t}" for t in labels)
    return _csv(RATE_COMMENT, header, zip(labels, correlations.tolist()))


def emit_report(
    report: BacktestReport,
    out_dir,
    correlations: np.ndarray | None = None,
    tenors: Sequence[float] | None = None,
) -> list[Path]:
    """Write pnl_<strategy>.csv per series, summary.csv and correlations.csv,
    all or nothing (see _write). Returns the final paths."""
    out = Path(out_dir)
    net = report.config.net_carry
    order = [s.value for s in report.config.strategies]
    if order:
        order.append(UNHEDGED)
    files = []
    for name in order:
        if name in report.series:
            s = report.series[name]
            rows = zip(map(dt.date.isoformat, s.dates), zip(s.pnl(net), s.cumulative(net)))
            files.append((out / f"pnl_{name}.csv",
                          _csv(PNL_COMMENT, "date,daily_pnl,cumulative_pnl", rows)))
    stats = [(name, dataclasses.astuple(report.summary[name])) for name in order
             if name in report.summary]
    files.append((out / "summary.csv",
                  _csv(PNL_COMMENT, "strategy,mean,stdev,max_drawdown,worst_day", stats)))
    if correlations is not None:
        if tenors is None:
            raise ValueError("correlations need the tenor grid for labelling")
        files.append((out / "correlations.csv", correlations_csv(correlations, tenors)))
    _write(files)
    return [path for path, _ in files]
