"""Bit-stable report formatting: JSON, CSV, and minimal SVG line plots.

One format rule covers every float, scalar or column: scientific notation
with 12 significant digits (``"{:.11e}"``), -0.0 written as 0.0.  JSON keys
are sorted and line endings are LF, so identical inputs produce
byte-identical files.  Non-finite floats have no JSON representation and
are emitted as null (JSON) or an empty cell (CSV).

Tabular reports are column tables (``Table``).  The first time a report
needs a table, every column is spelled into a NUL-padded ``uint8`` slot
matrix, one row per cell: 19 bytes for a float (the widest ``"{:.11e}"``
cell, ``-1.79769313486e+308``), all NUL where it is non-finite; ``true``
or ``false`` for a bool; ``str`` for an int.  The slots are kept, so a
table written both as a JSON array of objects (``json_report``) and as CSV
(``csv_text``) is spelled once.  Each renders its rows with one
concatenation of the broadcast fixed text between the cells and the slot
matrices, one bytes pass that strips the NUL padding, and one decode.

All the float columns of a table are spelled in one NumPy pass, with the
bytes ``fmt_float`` gives cell by cell.  Each cell's decimal exponent e is
floor(log10 |x|), clipped to [-11, 33], and its 12 digits come from
y = |x| * 10**(11 - e).  The power of ten is exact in binary64 (10**22 is
the largest), so y is the exact value rounded once, to within 1.2e-4 in
[1e11, 1e12].  Every half-integer below 1e12 is a float and rounding is
monotone, so unless y is itself a half-integer the exact value lies
between the same two half-integers as y, and rint(y) is the correctly
rounded 12 digits that ``"{:.11e}"`` prints (Gay, "Correctly rounded
binary-decimal and decimal-binary conversions", 1990); a rint of 1e12
carries into the next decade.  Digits, sign and exponent are written
straight into the slots.  The cells this does not decide are spelled as
``fmt_float`` spells them, the one format rule, and placed in the same
slots: a y on a half-integer, and a y outside [1e11, 1e12], that is zero,
|x| < 1e-11 (subnormals too), |x| >= 1e34 (three-digit exponents too),
non-finite values, and a decade log10 misjudged.
"""

import math
from json.encoder import encode_basestring_ascii

import numpy as np

__all__ = ["fmt_float", "Table", "json_report", "csv_text", "line_plot_svg"]

_FLOAT = "{:.11e}".format


def fmt_float(x):
    """12-significant-digit scientific notation; None for non-finite."""
    x = float(x)
    if not math.isfinite(x):
        return None
    return _FLOAT(x + 0.0)  # + 0.0 turns -0.0 into 0.0


# the kernel of _float_slots: 10**(11 - e) for e = 33 ... -11, every one
# exact in binary64 (10**22 is the largest), as a multiplier (_SCALE_UP) or
# a divisor (_SCALE_DOWN) indexed by 33 - e, the other factor 1.0; the
# place values of the four 3-digit groups of 12 digits; and as 3 bytes
# each, the digits of 0 ... 999 and then the signed exponents -11 ... +34
_POW10 = [float(10 ** p) for p in range(23)]
_SCALE_UP = np.array([1.0] * 22 + _POW10)
_SCALE_DOWN = np.array(_POW10[:0:-1] + [1.0] * 23)
_GROUPS = np.array([1e9, 1e6, 1e3, 1.0])
_TRIPLES = np.frombuffer(
    "".join([f"{i:03d}" for i in range(1000)]
            + [f"{e:+03d}" for e in range(-11, 35)]).encode(),
    dtype=np.uint8).reshape(-1, 3)
_EXPONENT_ROW = 1000 + 11   # the row of exponent 0
# a float cell's slot: the widest "{:.11e}" cell, -1.79769313486e+308
_FLOAT_SLOT = 19


def _decide(a):
    """Which cells the array pass decides (see the module docstring), and
    their 12 digits, as integer-valued floats, and exponents.

    The cells are finite; zero raises a NumPy divide warning here, which
    the caller silences.
    """
    ax = np.abs(a)
    # an exponent outside [-11, 33], and zero's, clip into it and leave y
    # outside [1e11, 1e12]
    e = np.fmin(np.fmax(np.floor(np.log10(ax)), -11.0), 33.0).astype(np.intp)
    i = 33 - e
    y = ax * _SCALE_UP[i] / _SCALE_DOWN[i]
    digits = np.rint(y)
    decided = (np.abs(y - digits) < 0.5) & (y >= 1e11) & (y <= 1e12)
    digits, e = digits[decided], e[decided]
    carry = digits == 1e12
    digits[carry] = 1e11
    e += carry
    return decided, digits, e


def _rows(digits, e, negative):
    """One 19-byte slot "-d.ddddddddddde+dd" per cell, NUL-padded: the sign
    NUL where the cell is not negative, and a NUL last."""
    n = digits.size
    # the four 3-digit groups: exact, because below 1e12 a quotient is
    # rounded by less than its fraction's distance from the next integer
    groups = np.floor(digits / _GROUPS[:, None])
    groups[1:] -= 1e3 * groups[:-1]
    triples = np.empty((n, 5), dtype=np.intp)
    triples[:, :4] = groups.T
    triples[:, 4] = e + _EXPONENT_ROW
    chars = _TRIPLES.take(triples, axis=0).reshape(n, 15)
    rows = np.empty((n, _FLOAT_SLOT), dtype=np.uint8)
    rows[:, 0] = negative * np.uint8(ord("-"))
    rows[:, 1] = chars[:, 0]
    rows[:, 2] = ord(".")
    rows[:, 3:14] = chars[:, 1:12]
    rows[:, 14] = ord("e")
    rows[:, 15:18] = chars[:, 12:]
    rows[:, 18] = 0
    return rows


def _float_slots(a):
    """``fmt_float`` over a 1-D float array, as NUL-padded 19-byte slots,
    and the mask of its non-finite cells, whose slots are all NUL.

    One array pass over the finite cells spells every cell whose digits it
    can decide (see the module docstring); the other finite cells take
    ``_FLOAT``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        a = a + 0.0  # turns -0.0 into 0.0
        missing = ~np.isfinite(a)
        b = a[~missing]
        decided, digits, e = _decide(b)
    rows = _rows(digits, e, b[decided] < 0)
    if rows.shape[0] == a.size:
        return rows, missing
    slots = np.zeros((a.size, _FLOAT_SLOT), dtype=np.uint8)
    at = np.flatnonzero(~missing)
    slots[at[decided]] = rows
    undecided = list(map(_FLOAT, b[~decided].tolist()))
    slots[at[~decided]] = _byte_rows(np.array(undecided, dtype="S19"))
    return slots, missing


def _byte_rows(s):
    """An ``S`` array's NUL-padded bytes, one row per cell."""
    return s.view(np.uint8).reshape(s.size, s.dtype.itemsize)


# a bool cell's slot, indexed by the bool
_BOOL_SLOTS = _byte_rows(np.array(["false", "true"], dtype="S5"))


class Table:
    """Named report columns of one length, each a 1-D bool, int or float array.

    Column order is the CSV column order; JSON objects sort their keys.
    The cells are spelled on the table's first rendering, every float
    column in one pass, and kept as NUL-padded byte slots, so JSON and CSV
    share them.
    """

    def __init__(self, columns):
        self.columns = {name: np.asarray(values)
                        for name, values in columns.items()}
        lengths = {a.shape for a in self.columns.values()}
        if len(lengths) > 1 or any(len(shape) != 1 for shape in lengths):
            raise ValueError(f"table columns must be 1-D and of one length, "
                             f"got shapes {sorted(lengths)}")
        self.length = lengths.pop()[0] if lengths else 0
        self._slots = None

    def __len__(self):
        return self.length

    def slots(self):
        """Column name -> (uint8 slot matrix, one NUL-padded row per cell;
        mask of the missing cells or None).

        A missing cell is a non-finite float; its slot is all NUL.
        """
        if self._slots is None:
            slots, floats = {}, []
            for name, a in self.columns.items():
                if a.dtype.kind == "f":
                    floats.append(name)
                elif a.dtype.kind == "b":
                    slots[name] = (_BOOL_SLOTS[a.view(np.uint8)], None)
                elif a.dtype.kind in "iu" or (
                        # Python ints beyond int64 stay exact in an object
                        # array
                        a.dtype.kind == "O"
                        and all(type(v) is int for v in a.tolist())):
                    text = np.array(list(map(str, a.tolist())), dtype="S")
                    slots[name] = (_byte_rows(text), None)
                else:
                    raise TypeError(f"table column {name!r} has dtype "
                                    f"{a.dtype}; expected bool, int or float")
            if floats:
                # one pass over every float column of the table
                cells, missing = _float_slots(np.concatenate(
                    [self.columns[name] for name in floats], dtype=float))
                cells = cells.reshape(len(floats), self.length, _FLOAT_SLOT)
                missing = missing.reshape(len(floats), self.length)
                for name, c, m in zip(floats, cells, missing):
                    slots[name] = (c, m if m.any() else None)
            self._slots = slots
        return self._slots


def _spell_rows(table, names, seps, missing):
    """The rows of ``table`` as one str: in each row seps[0], the cell of
    names[0], seps[1], ..., the cell of names[-1], seps[-1], with a missing
    cell read as ``missing``.

    One concatenation of the slot matrices and the broadcast separators,
    one bytes pass that strips the NUL padding, and one decode.
    """
    n = len(table)
    slots = table.slots()
    parts, fills, width = [], [], 0
    for i, sep in enumerate(seps):
        if sep:
            sep = np.frombuffer(sep.encode("ascii"), dtype=np.uint8)
            parts.append(np.broadcast_to(sep, (n, sep.size)))
            width += sep.size
        if i < len(names):
            cells, absent = slots[names[i]]
            if absent is not None and missing:
                fills.append((width, absent))
            parts.append(cells)
            width += cells.shape[1]
    rows = np.concatenate(parts, axis=1)
    for at, absent in fills:
        # a float slot (19 bytes) holds the marker
        rows[absent, at:at + len(missing)] = np.frombuffer(
            missing.encode("ascii"), dtype=np.uint8)
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def _emit(obj, out, indent):
    pad = "  " * indent
    # float first: it is the commonest leaf, and bool is no float subclass
    if isinstance(obj, float):
        s = fmt_float(obj)
        out.append("null" if s is None else s)
    elif isinstance(obj, Table):
        _emit_table(obj, out, indent)
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj)
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            out.append(f'{pad}  {encode_basestring_ascii(key)}: ')
            _emit(obj[key], out, indent + 1)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(pad + "  ")
            _emit(item, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        # numpy scalars and the like: coerce through item()
        if hasattr(obj, "item"):
            _emit(obj.item(), out, indent)
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit_table(table, out, indent):
    # the bytes of the equivalent list of dicts: the cells interleaved with
    # the fixed text between them
    if not len(table):
        out.append("[]")
        return
    pad = "  " * (indent + 1)
    names = sorted(table.columns)
    keys = [f"{pad}  {encode_basestring_ascii(name)}: " for name in names]
    seps = [pad + "{\n" + keys[0]]
    seps += [",\n" + key for key in keys[1:]]
    seps.append(f"\n{pad}}},\n")
    out.append("[\n")
    out.append(_spell_rows(table, names, seps, "null")[:-2])
    out.append(f"\n{pad[2:]}]")


def json_report(obj):
    """Deterministic JSON text (sorted keys, fixed float format, LF, final newline)."""
    out = []
    _emit(obj, out, 0)
    return "".join(out) + "\n"


def csv_text(table):
    """CSV of a ``Table``: a header row, comma separator, LF endings."""
    names = list(table.columns)
    header = ",".join(names) + "\n"
    if not len(table):
        return header
    seps = [""] + [","] * (len(names) - 1) + ["\n"]
    return header + _spell_rows(table, names, seps, "")


_SVG_W = 800
_SVG_H = 600
_MARGIN = 70
_TICKS = 5


def _tick_label(v):
    return f"{v:.6g}"


def _axis(lo, hi):
    """Map and tick values of a plot axis over finite values lo <= hi.

    A single value v is widened by 0.5 each way or, where v +- 0.5 rounds
    back to v (|v| of 2^52 or more), by 2^-10 |v| within the float range,
    wide enough for the tick labels to differ.  The axis is mapped as
    (s x - s lo) / (s hi - s lo), with ticks (s lo + f (s hi - s lo)) / s,
    where s = 1 or, when the width hi - lo overflows, s = 1/2: halving is
    exact on normal floats and keeps the width finite.  Times 1 is exact on
    every float, subnormals too, so an ordinary axis keeps the plain
    (x - lo) / (hi - lo) and lo + f (hi - lo) bit for bit.  Ticks are capped
    at the largest float: at hi there, the top tick's half may round up
    past hi/2 and double to inf.
    """
    top = float(np.finfo(float).max)
    if hi == lo:
        v = lo
        lo, hi = v - 0.5, v + 0.5
        if hi == lo:
            pad = 2.0 ** -10 * abs(v)
            lo, hi = max(v - pad, -top), min(v + pad, top)
    s = 1.0 if math.isfinite(hi - lo) else 0.5
    s_lo, span = s * lo, s * hi - s * lo

    def unit(x):
        return (s * x - s_lo) / span
    return unit, [min((s_lo + i / (_TICKS - 1) * span) / s, top)
                  for i in range(_TICKS)]


def line_plot_svg(xs, ys, xlabel, ylabel):
    """Fixed-size 800x600 polyline plot with axis ticks (SVG 1.1 subset)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = np.isfinite(xs) & np.isfinite(ys)
    xs, ys = (xs[keep], ys[keep]) if keep.any() else (np.zeros(1),
                                                       np.zeros(1))
    x_unit, x_ticks = _axis(float(xs.min()), float(xs.max()))
    y_unit, y_ticks = _axis(float(ys.min()), float(ys.max()))
    inner_w = _SVG_W - 2 * _MARGIN
    inner_h = _SVG_H - 2 * _MARGIN

    def sx(x):
        return _MARGIN + x_unit(x) * inner_w

    def sy(y):
        return _SVG_H - _MARGIN - y_unit(y) * inner_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_SVG_H - _MARGIN}" x2="{_SVG_W - _MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>',
    ]
    for xv, yv in zip(x_ticks, y_ticks):
        px = sx(xv)
        py = sy(yv)
        parts.append(f'<line x1="{px:.2f}" y1="{_SVG_H - _MARGIN}" '
                     f'x2="{px:.2f}" y2="{_SVG_H - _MARGIN + 6}" stroke="black"/>')
        parts.append(f'<text x="{px:.2f}" y="{_SVG_H - _MARGIN + 22}" '
                     f'font-size="12" text-anchor="middle">{_tick_label(xv)}</text>')
        parts.append(f'<line x1="{_MARGIN - 6}" y1="{py:.2f}" '
                     f'x2="{_MARGIN}" y2="{py:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN - 10}" y="{py + 4:.2f}" '
                     f'font-size="12" text-anchor="end">{_tick_label(yv)}</text>')
    parts.append(f'<text x="{_SVG_W / 2:.2f}" y="{_SVG_H - 20}" font-size="14" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="20" y="{_SVG_H / 2:.2f}" font-size="14" '
                 f'text-anchor="middle" transform="rotate(-90 20 {_SVG_H / 2:.2f})">'
                 f'{ylabel}</text>')
    # sx and sy over the arrays: the same operations, in the same order, as
    # on one float
    coords = np.column_stack([sx(xs), sy(ys)]).ravel().tolist()
    points = " ".join(["%.2f,%.2f"] * len(xs)) % tuple(coords)
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1f4e8c" '
                 'stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
