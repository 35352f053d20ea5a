"""Bit-stable report formatting: JSON, CSV, and minimal SVG line plots.

One format rule covers every float, scalar or column: scientific notation
with 12 significant digits (``"{:.11e}"``), -0.0 written as 0.0.  JSON keys
are sorted and line endings are LF, so identical inputs produce
byte-identical files.  Non-finite floats have no JSON representation and
are emitted as null (JSON) or an empty cell (CSV).

Tabular reports are column tables (``Table``): each column is formatted in
one call, the first time a report needs it, and the strings are kept, so a
table written both as a JSON array of objects (``json_report``) and as CSV
(``csv_text``) is formatted once.
"""

import math
from itertools import chain, repeat
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


def _fmt_column(values):
    """``fmt_float`` over a whole float column, as a list."""
    a = np.asarray(values, dtype=float) + 0.0
    finite = np.isfinite(a)
    cells = np.full(a.size, None, dtype=object)
    cells[finite] = list(map(_FLOAT, a[finite].tolist()))
    return cells.tolist()


class Table:
    """Named report columns of one length, each a 1-D bool, int or float array.

    Column order is the CSV column order; JSON objects sort their keys.
    A column is formatted on its first use and its strings are kept, so
    JSON and CSV share them.
    """

    def __init__(self, columns):
        self.columns = {name: np.asarray(values)
                        for name, values in columns.items()}
        lengths = {a.shape for a in self.columns.values()}
        if len(lengths) > 1 or any(len(shape) != 1 for shape in lengths):
            raise ValueError(f"table columns must be 1-D and of one length, "
                             f"got shapes {sorted(lengths)}")
        self.length = lengths.pop()[0] if lengths else 0
        self._cells = {}

    def __len__(self):
        return self.length

    def cells(self, name, missing=None):
        """The column's strings; a non-finite float reads ``missing``."""
        cells = self._cells.get(name)
        if cells is None:
            a = self.columns[name]
            if a.dtype.kind == "f":
                cells = _fmt_column(a)
            elif a.dtype.kind == "b":
                cells = ["true" if v else "false" for v in a.tolist()]
            elif a.dtype.kind in "iu" or (
                    # Python ints beyond int64 stay exact in an object array
                    a.dtype.kind == "O"
                    and all(type(v) is int for v in a.tolist())):
                cells = list(map(str, a.tolist()))
            else:
                raise TypeError(f"table column {name!r} has dtype {a.dtype}; "
                                "expected bool, int or float")
            self._cells[name] = cells
        return [missing if c is None else c for c in cells]


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
    # the fixed text between them, joined once
    if not len(table):
        out.append("[]")
        return
    pad = "  " * (indent + 1)
    names = sorted(table.columns)
    keys = [f"{pad}  {encode_basestring_ascii(name)}: " for name in names]
    seps = [pad + "{\n" + keys[0]]
    seps += [",\n" + key for key in keys[1:]]
    seps.append(f"\n{pad}}},\n")
    parts = [repeat(seps[0])]
    for name, sep in zip(names, seps[1:]):
        parts += [table.cells(name, "null"), repeat(sep)]
    out.append("[\n")
    out.append("".join(chain.from_iterable(zip(*parts)))[:-2])
    out.append(f"\n{pad[2:]}]")


def json_report(obj):
    """Deterministic JSON text (sorted keys, fixed float format, LF, final newline)."""
    out = []
    _emit(obj, out, 0)
    return "".join(out) + "\n"


def csv_text(table):
    """CSV of a ``Table``: a header row, comma separator, LF endings."""
    cols = [table.cells(name, "") for name in table.columns]
    lines = [",".join(table.columns)]
    lines.extend(map(",".join, zip(*cols)))
    return "\n".join(lines) + "\n"


_SVG_W = 800
_SVG_H = 600
_MARGIN = 70
_TICKS = 5


def _tick_label(v):
    return f"{v:.6g}"


def line_plot_svg(xs, ys, xlabel, ylabel):
    """Fixed-size 800x600 polyline plot with axis ticks (SVG 1.1 subset)."""
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    pairs = [(x, y) for x, y in zip(xs, ys)
             if math.isfinite(x) and math.isfinite(y)]
    if not pairs:
        pairs = [(0.0, 0.0)]
    x_min = min(p[0] for p in pairs)
    x_max = max(p[0] for p in pairs)
    y_min = min(p[1] for p in pairs)
    y_max = max(p[1] for p in pairs)
    if x_max == x_min:
        x_min, x_max = x_min - 0.5, x_max + 0.5
    if y_max == y_min:
        y_min, y_max = y_min - 0.5, y_max + 0.5
    inner_w = _SVG_W - 2 * _MARGIN
    inner_h = _SVG_H - 2 * _MARGIN

    def sx(x):
        return _MARGIN + (x - x_min) / (x_max - x_min) * inner_w

    def sy(y):
        return _SVG_H - _MARGIN - (y - y_min) / (y_max - y_min) * inner_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_SVG_H - _MARGIN}" x2="{_SVG_W - _MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>',
    ]
    for i in range(_TICKS):
        f = i / (_TICKS - 1)
        xv = x_min + f * (x_max - x_min)
        yv = y_min + f * (y_max - y_min)
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
    points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pairs)
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1f4e8c" '
                 'stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
