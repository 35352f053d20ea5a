"""Bit-stable report formatting: JSON, CSV, and minimal SVG line plots.

Every float is rendered in scientific notation with 12 significant digits,
JSON keys are sorted, and line endings are LF, so identical inputs produce
byte-identical files.  Non-finite floats have no JSON representation and
are emitted as null (JSON) or an empty cell (CSV).
"""

import math
from json.encoder import encode_basestring_ascii

__all__ = ["fmt_float", "json_report", "csv_text", "line_plot_svg"]


def fmt_float(x):
    """12-significant-digit scientific notation; None for non-finite."""
    x = float(x)
    if not math.isfinite(x):
        return None
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.11e}"


def _emit(obj, out, indent):
    pad = "  " * indent
    # float first: it is the commonest leaf, and bool is no float subclass
    if isinstance(obj, float):
        s = fmt_float(obj)
        out.append("null" if s is None else s)
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


def json_report(obj):
    """Deterministic JSON text (sorted keys, fixed float format, LF, final newline)."""
    out = []
    _emit(obj, out, 0)
    return "".join(out) + "\n"


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        s = fmt_float(v)
        return "" if s is None else s
    return str(v)


def csv_text(header, rows):
    """CSV with a header row, comma separator, LF endings."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
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
