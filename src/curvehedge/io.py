"""File formats, which io alone knows: curve history CSV, bond universe
JSON, plan JSON, backtest config JSON, scenario JSON lines and reports.

All rates in files are decimal fractions per year (0.0312, never 3.12), in
curve's range (-100%, MAX_RATE = 1000%] or the file is refused by line;
every emitted file repeats the unit in a leading # comment. Numbers are
written with 10 significant digits, so identical inputs always produce
byte-identical outputs. One function renders every CSV (_csv), one reads every
JSON file (_read_json) and one writes every file (_write), all of a call's
files or none: a failing run never leaves a half-written output behind. A
curve history is read one way (_parse_curve_text) and held (parse_curve_csv).
An input that cannot be opened or read is a ValidationError naming its path.

Every JSON object read goes through one key rule (_fields) and its format's
table (_BOND, _PLAN, _CONFIG). A bond file names every entry's errors; a
plan or a config stops at its first.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import functools
import json
import math
import os
from io import StringIO
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .backtest import BacktestConfig, BacktestReport
from .bonds import Bond
from .curve import MAX_RATE, CurveHistory, YieldCurve, _bad_rows, _check_grid, _history
from .errors import ValidationError
from .hedging import HedgeLeg, HedgePlan, Strategy

RATE_COMMENT = "# rates are decimal fractions per year (0.0312 means 3.12%)"
PNL_COMMENT = "# profit and loss in currency units; cumulative is the running sum"

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


def _iso_date(text, name: str) -> dt.date:
    """A date from an ISO-8601 string; the error names `name` and the value."""
    try:
        return dt.date.fromisoformat(_typed(text, name, "a string"))
    except ValueError as exc:
        raise ValidationError(f"{name} must be an ISO date (YYYY-MM-DD), got {text!r}: {exc}") from None


class _Table:
    """A JSON object's keys, for _fields: each key's kind (see _reader), "?"
    ending an optional key's name, and make, which builds the object from
    its keys' values. The keys are split once, as the table is made."""

    def __init__(self, make, kinds: Mapping):
        self.make, self.required = make, dict.fromkeys(k for k in kinds if not k.endswith("?"))
        self.readers = {k.removesuffix("?"): _reader(kind) for k, kind in kinds.items()}

    def __call__(self, value, name: str):
        return _fields(value, name, self)


def _reader(kind):
    """The reader (value, path) of a kind: _typed's words for a JSON kind
    ("a number" read by _number), [kind] for an array of kind read as a
    tuple, item k at path <path>[k], or a reader (a table among them)."""
    if isinstance(kind, list):
        read = _reader(kind[0])
        return lambda value, name: tuple(read(x, f"{name}[{k}]")
                                         for k, x in enumerate(_typed(value, name, "an array")))
    if not isinstance(kind, str):
        return kind
    return _number if kind == "a number" else functools.partial(_typed, what=kind)


def _fields(value, name: str, table: _Table):
    """table.make of the JSON object value at path name ("" at a document's
    root): the one key rule. The required keys missing and the keys not in
    the table are refused by their path from the root; an optional key given
    as null is absent; every other value goes through its kind's reader."""
    _typed(value, name, "an object")
    at, readers, required = f"{name}." if name else "", table.readers, table.required
    if not readers.keys() >= value.keys() >= required.keys():
        missing = [at + k for k in required if k not in value]
        unknown = [at + k for k in value if k not in readers]
        raise ValueError("; ".join(f"{what} field(s) {keys}" for what, keys in (
            ("missing", missing), ("unknown", unknown)) if keys))
    return table.make(**{k: readers[k](v, at + k) for k, v in value.items()
                         if v is not None or k in required})


def _strategy(value, name: str) -> Strategy:
    """The strategy named by value; an unknown name is refused by its path."""
    names = [s.value for s in Strategy]
    if _typed(value, name, "a string") not in names:
        raise ValueError(f"{name} must be a strategy ({', '.join(names)}), got {json.dumps(value)}")
    return Strategy(value)


def _instruments(value, name: str) -> dict[Strategy, tuple[str, ...]]:
    """A config's instruments: its series, in their order, each strategy's leg ids."""
    return {_strategy(k, f"{name}.{k}"): _IDS(ids, f"{name}.{k}")
            for k, ids in _typed(value, name, "an object").items()}


def _with_target(cls):
    """The make of an object whose "target" object holds cls's target_<key> fields."""
    return lambda target, **fields: cls(**{f"target_{k}": v for k, v in target.items()}, **fields)


_IDS = _reader(["a string"])
# a bond entry: Bond's fields, those with a default optional
_BOND = _Table(Bond, {"id": "a string", "face": "a number", "coupon_rate": "a number",
                      "coupon_frequency": "an integer", "maturity": "a number",
                      "issue_or_first_coupon_offset?": "a number"})
# a hedge plan, as plan_to_dict writes it
_PLAN = _Table(_with_target(HedgePlan), {
    "strategy": _strategy, "target": _Table(dict, {"id": "a string", "amount": "a number"}),
    "legs": [_Table(HedgeLeg, {"id": "a string", "amount": "a number"})],
    "constraints": [_Table(lambda name, value: (name, value),
                           {"name": "a string", "value": "a number"})]})
# a backtest config: BacktestConfig's fields, target_<key> as target.<key>, those
# with a default optional
_CONFIG_TARGET = _Table(dict, {"id": "a string", "amount?": "a number"})
_CONFIG = _Table(_with_target(BacktestConfig), {
    "target": _CONFIG_TARGET, "instruments": _instruments, "rebalance_days?": "an integer",
    "start?": _iso_date, "end?": _iso_date, "net_carry?": "true or false",
    "allow_extrapolation?": "true or false"})


def fmt_num(x: float) -> str:
    """Render a number with the 10 significant digits every file uses."""
    return f"{x:.10g}"


_POW10 = np.array([float(10**j) for j in range(23)])  # exact doubles


def _digits(block: np.ndarray):
    """(n, k, ok) for a float block: where ok holds, fmt_num(x) prints the ten
    digits of the integer n, the exact value of |x| 10^k rounded half to
    even as float formatting rounds, with k = 9 - floor(log10|x|), and
    float(fmt_num(x)) is n / 10^k, as 0 <= k <= 22 makes that a division of
    exact doubles, rounding as float() reads the text (Clinger's fast path).
    n is rint(m), m = |x| 10^k, which is within 1e-6 of the exact product,
    except where m is within 1e-5 of a half-integer: there n is read from
    |x| printed with k decimals, which float formatting rounds exactly.
    ok fails where k is out of 0..22 (0, inf, nan, |x| below 1e-13 or from
    1e10 on; k is 0 there), m < 1e9 or n >= 1e10 (x rounds up to a power of
    ten)."""
    a = np.abs(block)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = 9 - np.floor(np.log10(a))
        ok = (k >= 0) & (k <= 22)
        k = np.where(ok, k, 0).astype(np.intp)
        m = a * _POW10[k]
        n = np.rint(m)
        near = np.flatnonzero(ok & (np.abs(m - np.floor(m) - 0.5) <= 1e-5))
        n.flat[near] = [int(f"{x:.{j}f}".replace(".", ""))
                        for x, j in zip(a.flat[near].tolist(), k.flat[near].tolist())]
        ok &= (m >= 1e9) & (n < 1e10)
    return n, k, ok


def _read_back(block: np.ndarray, digits=None) -> np.ndarray:
    """float(fmt_num(x)) for each x of a float block, bit for bit, unparsed:
    copysign(n / 10^k, x) from the block's _digits where ok holds, and
    float(fmt_num(x)) where it does not."""
    n, k, ok = _digits(block) if digits is None else digits
    back = np.copysign(n / _POW10[k], block)
    back[~ok] = [float(fmt_num(x)) for x in block[~ok].tolist()]
    return back


def _tenor(t: float) -> str:
    """A tenor's label: %g when that reads back as t, else repr's digits."""
    return f"{t:g}" if float(f"{t:g}") == t else repr(float(t))


@functools.cache
def _kernel_tables():
    """The cell kernel's tables, built on _kernel's first call, not at
    import. _kernel builds a cell as six little-endian uint32 words, 24 bytes:

        "-0.0"  "00" d0 "."  d1-d4  d5-d8  d9 "e-" e1  e2 sep 0 0

    where d0-d9 are n's digits, e1 e2 those of k - 9 and sep is "," or a
    newline. digits4[i] is i's four digits, the first at the lowest byte,
    and zeros4[i] i's trailing zeros (4 for 0); w0 is word 0, w1[d0]
    word 1, and w4[k - 10] and w5[k - 10] are words 4 and 5 less 48 + d9
    and 256 sep. The row sign * 130 + (k - 10) * 10 + digits kept - 1 of
    keep masks the bytes a cell keeps: the sign if x < 0; "0.", k - 10
    zeros and d0 for k in 10..13, or d0 and, unless d0 is all that is
    kept, "." for k in 14..22; the digits kept; "e-" e1 e2 for k in 14..22;
    and sep."""
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)  # i's digits, built in 40 kB
    for place in range(4):
        digits[..., place] = np.arange(10, dtype=np.uint8).reshape((10,) + (1,) * (3 - place))
    zeros4 = np.logical_and.accumulate(digits[..., ::-1] == 0, axis=-1).sum(-1, np.uint8).ravel()
    words = np.frombuffer(b"-0.0" + b"".join(b"00%d." % d for d in range(10)) + b"".join(
        b"\0e-%d%d\0\0\0" % divmod(k - 9, 10) for k in range(10, 23)), "<u4")
    row, byte = np.arange(260)[:, None], np.arange(24)
    fixed, zeros, kept = row % 130 < 40, row % 130 // 10, row % 10 + 1
    keep = (((byte == 0) & (row >= 130)) | (byte == 6) | ((byte >= 8) & (byte < 7 + kept))
            | (fixed & ((byte == 1) | (byte == 2) | ((byte >= 3) & (byte < 3 + zeros))))
            | (~fixed & (((byte == 7) & (kept > 1)) | ((byte >= 17) & (byte <= 20))))
            | (byte == 21))
    return ((digits + np.uint8(48)).view("<u4").ravel(), zeros4, words[0], words[1:11],
            words[11::2], words[12::2], np.where(keep, np.uint8(255), np.uint8(0)).view("<u4"))


_CHUNK = 256  # rows rendered at a time, so the kernel's temporaries stay small


def _kernel(x: np.ndarray, n: np.ndarray, k: np.ndarray) -> str:
    """The rows of x, each cell ok in its _digits (n, k) with k >= 10, as
    fmt_num prints them, cells joined by "," and each row ended by a
    newline: each cell's words (see _kernel_tables) with the bytes it drops
    zeroed, and the zero bytes deleted from the text."""
    digits4, zeros4, w0, w1, w4, w5, keep = _kernel_tables()
    u = n.astype(np.int64)
    q = u // 10
    d9, q = u - 10 * q, q.astype(np.uint32)  # q: d0-d8
    r, j = q // 10**4, k - 10  # r: d0-d4
    d1_4, d5_8 = r % 10**4, q - 10**4 * r
    words = np.empty((*n.shape, 6), "<u4")
    words[..., 0] = w0
    words[..., 1], words[..., 2], words[..., 3] = w1[r // 10**4], digits4[d1_4], digits4[d5_8]
    words[..., 4], words[..., 5] = w4[j] + 48 + d9, w5[j] + 256 * ord(",")
    words[:, -1, 5] -= 256 * (ord(",") - ord("\n"))  # the row's last sep
    z = zeros4[d5_8]
    zeros = (d9 == 0) * (1 + z + (z == 4) * zeros4[d1_4])  # n's trailing zeros
    words &= np.take(keep, np.signbit(x) * 130 + j * 10 + (9 - zeros), axis=0)
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _printf(block: np.ndarray) -> list[str]:
    """Each row of block as fmt_num's cells joined by ",": the %.10g template."""
    line = ",".join(["%.10g"] * block.shape[1])  # fmt_num's format, one template per row
    return [line % tuple(row) for row in block.tolist()]


def _csv(comment: str, header: str, labels: Sequence[str], block, back=None) -> str:
    """CSV text: the comment, the header, then one line per label: the label
    and its row of block, with as many numbers as the header names after
    its first column, each as fmt_num prints it. When back is given, it is
    filled with float of each number's text (_read_back).

    Rows are rendered _CHUNK at a time from their _digits. A row whose
    every cell is ok with k >= 10 (1e-13 <= |x| < 1 once rounded) goes
    through _kernel, and any other row (one holding a 0, nan, inf, a cell
    below 1e-13 or of 1 or more, or one that rounds to a power of ten)
    through _printf, the %.10g template. Their bytes are equal: with
    X = 9 - k the exponent of x once rounded to ten digits, %.10g prints
    the digits n it rounds to, without trailing zeros, as "0.", -X - 1
    zeros and n's digits when -4 <= X < 0 (k in 10..13), and else as d0,
    "." and the other digits (no "." when none is left), "e-" and the two
    digits of -X; and _digits gives that n exactly."""
    block = np.asarray(block, dtype=float).reshape(len(labels), header.count(","))
    lines = [comment, header]
    for i in range(0, len(block), _CHUNK):
        chunk = block[i:i + _CHUNK]
        n, k, ok = digits = _digits(chunk)
        if back is not None:
            back[i:i + _CHUNK] = _read_back(chunk, digits)
        fast = (ok & (k >= 10)).all(axis=1)
        rows = _kernel(chunk[fast], n[fast], k[fast]).split("\n")
        if not fast.all():  # the rows in chunk order, each from its own renderer
            kernel, printf = iter(rows), iter(_printf(chunk[~fast]))
            rows = [next(kernel) if f else next(printf) for f in fast.tolist()]
        lines += map("{},{}".format, labels[i:i + _CHUNK], rows)
    return "\n".join(lines) + "\n"


def _write(files) -> None:
    """Write (path, text) pairs, parent directories created: each text goes to
    a .tmp beside its path and all are renamed only once all are written. An
    OSError removes the temp files and is a ValidationError naming the path;
    so is a path given twice (one real path), before anything is opened."""
    files = [(Path(path), text) for path, text in files]
    if len({path.name for path, _ in files}) < len(files):  # else no two share a .tmp
        real = [os.path.realpath(path) for path, _ in files]
        for i, r in enumerate(real):
            if r in real[:i]:
                raise ValidationError(f"cannot write {files[i][0]}: path given twice")
    staged: list[tuple[Path, Path]] = []
    try:
        for path, text in files:
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
    """The JSON value in the file at path; a file that cannot be read, invalid
    JSON or undecodable text names the file."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:  # a directory, a file that cannot be read
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc
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

    Every call reads the file, and every text is parsed one way (csv and
    one row walk, see _parse_curve_text). The last history written or
    successfully read is held, one entry keyed by the whole text: equal
    text, at any path, is not parsed again, and that, not the reader, is
    what keeps a session fast. A failure is not held, so a bad file raises
    its own message on every read. Each call returns its own CurveHistory
    over the held read-only block, a view that cannot be made writeable.
    """
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            text = fh.read()
    except OSError as exc:  # a directory, a file that cannot be read
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    if not (_memo and _memo[0] == text):  # one memcmp for text of equal length
        _memo.clear()
        _memo.extend((text, _parse_curve_text(path, text)))
    return _memo[1][:]


def _parse_curve_text(path: Path, text: str) -> CurveHistory:
    """parse_curve_csv's history from the text of the file at path, or every
    failure with its line.

    One leading byte-order mark is dropped and csv reads the rest, each row
    numbered by the text line it ends on (a quoted cell may hold a line end).
    Empty rows and rows whose first field, blanks aside, starts with "#" are
    dropped, and the first row kept is the header. The rows after it are read
    one by one: the rates of those that pass the per-row checks are checked as
    one block by _bad_rows, and only a failing row becomes a YieldCurve, to
    word its message.
    """
    reader = csv.reader(StringIO(text.removeprefix("\ufeff"), newline=""))
    try:
        rows = [(reader.line_num, row) for row in reader
                if row and not row[0].lstrip().startswith("#")]
    except csv.Error as exc:  # e.g. a field over csv's size limit
        raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not rows:
        raise ValidationError(f"{path}: empty curve file")

    header_ln, header = rows.pop(0)
    if header[0].strip() != "date":
        raise ValidationError(f"{path}: line {header_ln}: header must start with 'date'")
    errors: list[str] = []
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
    if errors:
        raise ValidationError(f"{path}: " + "; ".join(errors))
    try:
        _check_grid(tenors)
    except ValueError as exc:
        raise ValidationError(f"{path}: line {header_ln}: {exc}") from None

    bad: list[tuple[int, str]] = []  # at most one per row
    lines, dates, rates = [], [], []
    for ln, row in rows:
        if len(row) != len(header):
            bad.append((ln, f"expected {len(header)} fields, got {len(row)}"))
            continue
        try:
            date = dt.date.fromisoformat(row[0].strip())
        except ValueError:
            bad.append((ln, f"bad date {row[0]!r} (expected ISO-8601)"))
            continue
        try:
            cells = []
            for cell in row[1:]:
                cells.append(float(cell))
        except ValueError:
            bad.append((ln, f"non-numeric rate {cell!r}"))
            continue
        if dates and date <= dates[-1]:
            kind = "duplicate" if date == dates[-1] else "out-of-order"
            bad.append((ln, f"{kind} date {date}"))
            continue
        lines.append(ln)
        dates.append(date)
        rates.append(cells)
    grid = tuple(tenors)
    block = np.array(rates).reshape(-1, len(grid))
    for i in np.flatnonzero(_bad_rows(block)):
        try:
            YieldCurve(dates[i], grid, tuple(rates[i]))
        except ValueError as exc:
            bad.append((lines[i], str(exc)))
    if bad:
        raise ValidationError(f"{path}: " + "; ".join(f"line {ln}: {m}" for ln, m in sorted(bad)))
    if not dates:
        raise ValidationError(f"{path}: no data rows")
    return CurveHistory(dates, grid, block)


def write_curve_csv(curves: Sequence[YieldCurve], path, *also) -> None:
    """Write a history in the same format parse_curve_csv reads, and hold it
    as that parse: a rate whose 10-digit text reads back out of the range
    (-100%, MAX_RATE] (-1 + 2^-52 is written as -1) is refused by date and
    column, writing nothing. _csv renders the text and the held rates. The
    (path, text) pairs of also are written with it, all or nothing."""
    if not curves:
        raise ValidationError("curve history is empty: nothing to write")
    history = _history(curves)
    labels = list(map(_tenor, history.tenors))
    _memo.clear()  # the old entry is freed before the new one is built
    back = np.empty_like(history.rates)
    text = _csv(RATE_COMMENT, "date," + ",".join(f"tenor_{t}" for t in labels),
                list(map(dt.date.isoformat, history.dates)), history.rates, back)
    for cell in np.flatnonzero(_bad_rows(back.reshape(-1, 1)))[:1]:  # cells as one-knot rows
        (i, j), x = divmod(cell, back.shape[1]), float(history.rates.flat[cell])
        raise ValidationError(f"cannot write the rate on {history.dates[i]} at tenor_{labels[j]}: "
                              f"{x!r} is written as {fmt_num(x)}, not a finite rate above -100% "
                              f"and at most {MAX_RATE:.0%}")
    _write([(path, text), *also])
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
        label = f"bond {entry['id']!r}" if isinstance(entry.get("id"), str) else label
        try:
            bond = _fields(entry, "", _BOND)
        except (TypeError, ValueError) as exc:  # Bond's own refusals name the bond
            message = str(exc)
            errors.append(message if message.startswith(f"{label}: ") else f"{label}: {message}")
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


def bonds_json(bonds: Sequence[Bond]) -> str:
    """A bond universe file's text, as parse_bonds_json reads it."""
    entries = [{k: v for k, v in dataclasses.asdict(b).items() if v is not None} for b in bonds]
    return json.dumps(entries, indent=2) + "\n"


def write_bonds_json(bonds: Sequence[Bond], path) -> None:
    _write([(path, bonds_json(bonds))])


# ---------------------------------------------------------------------------
# hedge plan, backtest config and scenario JSON
# ---------------------------------------------------------------------------

def _round10(x: float) -> float:
    """x as fmt_num's 10 significant digits read back."""
    return float(fmt_num(x))


def _plan_dict(plan: HedgePlan, num) -> dict:
    """The plan as a JSON object, each leg amount and constraint value as num gives it."""
    return {
        "strategy": plan.strategy.value,
        "target": {"id": plan.target_id, "amount": plan.target_amount},
        "legs": [{"id": leg.id, "amount": num(leg.amount)} for leg in plan.legs],
        "constraints": [{"name": n, "value": num(v)} for n, v in plan.constraints],
    }


def plan_to_dict(plan: HedgePlan) -> dict:
    return _plan_dict(plan, lambda x: x)


def plan_json(plan: HedgePlan) -> str:
    """The plan as hedge prints it: every leg amount and constraint value at
    fmt_num's 10 significant digits, the target amount as given."""
    return json.dumps(_plan_dict(plan, _round10), indent=2)


def plan_from_dict(data: dict) -> HedgePlan:
    """The plan in a dict as plan_to_dict writes it (see _PLAN)."""
    try:
        return _fields(_typed(data, "the plan", "an object"), "", _PLAN)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed hedge plan: {exc}") from exc


def parse_plan_json(path) -> HedgePlan:
    return plan_from_dict(_read_json(path))


def parse_config_json(path) -> BacktestConfig:
    """The backtest config in the JSON file at path (see _CONFIG)."""
    raw = _read_json(path)
    try:
        return _fields(_typed(raw, "the config", "an object"), "", _CONFIG)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed backtest config: {exc}") from exc


def scenario_lines(scales: Sequence[float], results, tolerance: float) -> str:
    """scenario's output: one JSON line per scale and its ScenarioResult, each
    P&L at fmt_num's 10 significant digits, within_tolerance when the hedged
    P&L is at most tolerance in size."""
    return "\n".join(json.dumps({
        "scale": scale,
        "shock": {"a": result.shock.a, "b": result.shock.b, "c": result.shock.c},
        "unhedged_pnl": _round10(result.unhedged_pnl),
        "hedged_pnl": _round10(result.hedged_pnl),
        "within_tolerance": abs(result.hedged_pnl) <= tolerance,
        "per_instrument": [{"id": i, "pnl": _round10(p)} for i, p in result.per_instrument_pnl],
    }) for scale, result in zip(scales, results))


# ---------------------------------------------------------------------------
# backtest report emission
# ---------------------------------------------------------------------------

def correlations_csv(correlations: np.ndarray, tenors: Sequence[float]) -> str:
    """The tenor correlation matrix as CSV text, labelled by tenor."""
    labels = list(map(_tenor, tenors))
    header = "tenor," + ",".join(f"tenor_{t}" for t in labels)
    return _csv(RATE_COMMENT, header, labels, correlations)


def emit_report(
    report: BacktestReport,
    out_dir,
    correlations: np.ndarray | None = None,
    tenors: Sequence[float] | None = None,
) -> list[Path]:
    """Write pnl_<name>.csv per series of the report and summary.csv, a row
    per summary, each in the report's order, and correlations.csv, all or
    nothing (see _write). Returns the final paths."""
    out, net = Path(out_dir), report.config.net_carry
    files = [(out / f"pnl_{name}.csv", _csv(
        PNL_COMMENT, "date,daily_pnl,cumulative_pnl", list(map(dt.date.isoformat, s.dates)),
        np.column_stack([s.pnl(net), s.cumulative(net)]))) for name, s in report.series.items()]
    files.append((out / "summary.csv", _csv(
        PNL_COMMENT, "strategy,mean,stdev,max_drawdown,worst_day", list(report.summary),
        list(map(dataclasses.astuple, report.summary.values())))))
    if correlations is not None:
        if tenors is None:
            raise ValueError("correlations need the tenor grid for labelling")
        files.append((out / "correlations.csv", correlations_csv(correlations, tenors)))
    _write(files)
    return [path for path, _ in files]
