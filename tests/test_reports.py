"""Deterministic formatting layer behind the CLI reports."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zml import reports
from zml.reports import Table, csv_text, fmt_float, json_report, line_plot_svg


class TestFmtFloat:
    def test_twelve_significant_digits(self):
        assert fmt_float(4.0) == "4.00000000000e+00"
        assert fmt_float(-1.5e-7) == "-1.50000000000e-07"

    def test_negative_zero_normalized(self):
        assert fmt_float(-0.0) == fmt_float(0.0) == "0.00000000000e+00"

    def test_non_finite_is_none(self):
        assert fmt_float(math.inf) is None
        assert fmt_float(math.nan) is None


class TestJsonReport:
    def test_sorted_keys_and_reparse(self):
        doc = {"b": 1, "a": [1.0, None, True], "c": {"y": "s", "x": 2}}
        text = json_report(doc)
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        assert text.endswith("\n")
        assert json.loads(text) == {"b": 1, "a": [1.0, None, True],
                                    "c": {"y": "s", "x": 2}}

    def test_floats_use_fixed_format(self):
        assert '"q": 4.00000000000e+00' in json_report({"q": 4.0})

    def test_non_finite_becomes_null(self):
        assert json.loads(json_report({"n": math.inf}))["n"] is None

    def test_numpy_scalars_coerced(self):
        import numpy as np
        text = json_report({"i": np.int64(3), "f": np.float64(0.5)})
        doc = json.loads(text)
        assert doc == {"i": 3, "f": 0.5}

    def test_golden_every_leaf_type(self):
        # pins the bytes of every leaf kind, including the escaping of
        # non-ASCII keys and strings and the float-subclass NumPy scalar
        import numpy as np
        doc = {"none": None, "yes": True, "no": False, "int": -7,
               "float": 1.5e-300, "zeros": [0.0, -0.0], "nan": math.nan,
               "inf": -math.inf, "text": "\u03a6/2\u03c0 \u2248 3.5 \"q\"\n",
               "\u03a6": 1,
               "numpy": [np.float64(-2.5), np.int64(12), np.bool_(True)],
               "empty": {"list": [], "dict": {}, "tuple": ()}}
        assert json_report(doc) == (
            '{\n'
            '  "empty": {\n'
            '    "dict": {},\n'
            '    "list": [],\n'
            '    "tuple": []\n'
            '  },\n'
            '  "float": 1.50000000000e-300,\n'
            '  "inf": null,\n'
            '  "int": -7,\n'
            '  "nan": null,\n'
            '  "no": false,\n'
            '  "none": null,\n'
            '  "numpy": [\n'
            '    -2.50000000000e+00,\n'
            '    12,\n'
            '    true\n'
            '  ],\n'
            '  "text": "\\u03a6/2\\u03c0 \\u2248 3.5 \\"q\\"\\n",\n'
            '  "yes": true,\n'
            '  "zeros": [\n'
            '    0.00000000000e+00,\n'
            '    0.00000000000e+00\n'
            '  ],\n'
            '  "\\u03a6": 1\n'
            '}\n')

    def test_rejects_unserializable(self):
        with pytest.raises(TypeError):
            json_report({"f": object()})


class TestCsvText:
    def test_cells(self):
        text = csv_text(Table({"a": [1, 2], "b": [True, False],
                               "c": [0.5, math.nan]}))
        lines = text.split("\n")
        assert lines[0] == "a,b,c"
        assert lines[1] == "1,true,5.00000000000e-01"
        assert lines[2] == "2,false,"  # non-finite -> empty cell
        assert text.endswith("\n")

    def test_lf_only(self):
        assert "\r" not in csv_text(Table({"x": [1]}))


# floats whose spelling is easy to get wrong: signed zeros, non-finite
# values, the subnormal and normal extremes, and values whose 12th
# significant digit rounds up into the next decade
_SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                   -5e-324, 2.2250738585072014e-308, 1e-310,
                   1.7976931348623157e308, -1.7976931348623157e308,
                   9.999999999995e5, 9.9999999999951e5, -9.9999999999951e5,
                   9.9999999999949e5, 9.99999999999951e-300, 0.5, 1.0)
_floats = st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS))
# column names out of sorted order, one that needs JSON escaping and one
# with format-string braces
_NAMES = ("k", "normalizable", "l2_norm", "\u03a6 {x}", "index")


def _random_column(kind, length, pool, rng):
    if kind == "bool":
        return rng.random(length) < 0.5
    if kind == "int":
        return rng.integers(-2 ** 63, 2 ** 63 - 1, length)
    # the drawn floats, mixed with random bit patterns (every exponent and
    # subnormals); NaNs are made quiet, as arithmetic leaves them
    bits = rng.integers(0, 2 ** 64 - 1, length, dtype=np.uint64).view(float)
    bits[np.isnan(bits)] = math.nan
    return np.where(rng.random(length) < 0.5, rng.choice(pool, length), bits)


def _row_cell(v):
    # the row-wise spelling the column path must reproduce
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    s = fmt_float(v)
    return "" if s is None else s


def _random_columns(kinds, length, pool, seed):
    rng = np.random.default_rng(seed)
    return {name: _random_column(kind, length, pool, rng)
            for name, kind in zip(_NAMES, kinds)}


def _assert_same_text(got, want):
    # names the first difference only: pytest's full diff of two long texts
    # is too slow to run at every shrinking step
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        pytest.fail(f"texts differ at {i}: {got[i - 40:i + 40]!r} != "
                    f"{want[i - 40:i + 40]!r}")


def _column_cells(values):
    # a one-column table's float cells as its CSV spells them, None for an
    # empty (non-finite) cell: what fmt_float gives cell by cell
    lines = csv_text(Table({"v": np.asarray(values, dtype=float)})).split("\n")
    return [cell or None for cell in lines[1:-1]]


def _assert_cells_match(values):
    # the column path against fmt_float cell by cell, naming the first
    # cells that differ
    got = _column_cells(values)
    want = [fmt_float(v) for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want)
           if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


_columns = st.builds(
    _random_columns,
    kinds=st.lists(st.sampled_from(["bool", "int", "float"]), min_size=1,
                   max_size=len(_NAMES)),
    length=st.sampled_from([0, 1, 600]),
    pool=st.lists(_floats, min_size=1, max_size=12),
    seed=st.integers(0, 2 ** 32 - 1))


class TestColumnPath:
    @given(values=st.lists(_floats, max_size=50))
    def test_fmt_column_matches_fmt_float(self, values):
        values += list(_SPECIAL_FLOATS)
        assert _column_cells(values) == [fmt_float(v) for v in values]
        assert _column_cells(np.array(values)) == [fmt_float(v)
                                                   for v in values]

    def test_near_ties_for_every_decided_exponent(self):
        # (N + 1/2) 10**(e - 11), the nearest float and its neighbours both
        # ways, for each exponent the array pass decides (|x| from 1e-11 to
        # below 1e34); N = 10**12 - 1 carries into the next decade
        rng = np.random.default_rng(22)
        n = np.append(rng.integers(10 ** 11, 10 ** 12, 200), 10 ** 12 - 1)
        ties = []
        for e in range(-11, 34):
            if e >= 11:
                ties.append((n + 0.5) * float(10 ** (e - 11)))
            else:
                ties.append((n + 0.5) / float(10 ** (11 - e)))
        ties = np.concatenate(ties)
        values = np.concatenate([ties, np.nextafter(ties, 0.0),
                                 np.nextafter(ties, np.inf)])
        _assert_cells_match(np.concatenate([values, -values]))

    def test_decade_boundaries(self):
        # 10**e, the float nearest it and their neighbours, from the
        # subnormals to the largest float
        powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
        powers = np.concatenate([powers, np.nextafter(powers, 0.0),
                                 np.nextafter(powers, np.inf)])
        _assert_cells_match(np.concatenate([powers, -powers]))

    def test_random_bit_patterns(self, rng):
        # every exponent, subnormals, signalling and quiet NaNs, with the
        # extremes and infinities added
        bits = rng.integers(0, 2 ** 64 - 1, 100_000, dtype=np.uint64)
        values = np.concatenate([bits.view(float), _SPECIAL_FLOATS])
        _assert_cells_match(values)

    @pytest.mark.parametrize("length", [0, 1, 20_000])
    def test_column_lengths(self, rng, length):
        values = rng.standard_normal(length) * 10.0 ** rng.uniform(
            -14.0, 36.0, length)
        values[::7] = math.nan
        _assert_cells_match(values)
        assert len(_column_cells(values)) == length

    def test_decade_round_up(self):
        assert _column_cells([9.9999999999951e5, 9.99999999999951e-300,
                            -0.0]) == ["1.00000000000e+06",
                                       "1.00000000000e-299",
                                       "0.00000000000e+00"]

    @settings(max_examples=settings.default.max_examples * 3 // 5)
    @given(columns=_columns, depth=st.sampled_from([0, 1, 2]))
    def test_json_table_matches_list_of_dicts(self, columns, depth):
        length = len(next(iter(columns.values())))
        lists = {name: col.tolist() for name, col in columns.items()}
        rows = [{name: col[i] for name, col in lists.items()}
                for i in range(length)]
        doc_table, doc_rows = Table(columns), rows
        for level in range(depth):
            doc_table = {"entries": doc_table, "Q": 1.5, "z": [level]}
            doc_rows = {"entries": doc_rows, "Q": 1.5, "z": [level]}
        _assert_same_text(json_report(doc_table), json_report(doc_rows))

    @settings(max_examples=settings.default.max_examples * 3 // 5)
    @given(columns=_columns)
    def test_csv_matches_row_wise_text(self, columns):
        lists = [col.tolist() for col in columns.values()]
        expected = [",".join(columns)]
        expected += [",".join(map(_row_cell, row)) for row in zip(*lists)]
        expected = "\n".join(expected) + "\n"
        tab = Table(columns)
        _assert_same_text(csv_text(tab), expected)
        # a second rendering reuses the kept strings and reads the same
        json_report(tab)
        _assert_same_text(csv_text(tab), expected)

    def test_empty_table(self):
        assert json_report({"entries": Table({"k": []})}) == (
            '{\n  "entries": []\n}\n')
        assert csv_text(Table({"k": [], "n": []})) == "k,n\n"

    def test_rejects_ragged_or_untyped_columns(self):
        with pytest.raises(ValueError):
            Table({"a": [1.0, 2.0], "b": [1.0]})
        with pytest.raises(ValueError):
            Table({"a": [[1.0], [2.0]]})
        with pytest.raises(TypeError):
            csv_text(Table({"a": ["x", "y"]}))
        with pytest.raises(TypeError):
            csv_text(Table({"a": [1.5, None]}))

    def test_ints_beyond_int64_stay_exact(self):
        table = Table({"j": [0, 10 ** 20]})
        assert csv_text(table) == "j\n0\n100000000000000000000\n"
        assert json_report(table) == json_report([{"j": 0}, {"j": 10 ** 20}])


def _row_wise(columns):
    # the JSON (a list of dicts) and CSV texts a table must reproduce
    lists = {name: np.asarray(col).tolist() for name, col in columns.items()}
    rows = [dict(zip(lists, row)) for row in zip(*lists.values())]
    csv = [",".join(columns)]
    csv += [",".join(_row_cell(v) for v in row.values()) for row in rows]
    return json_report({"rows": rows}), "\n".join(csv) + "\n"


class TestCellSlots:
    # every float cell has a 19-byte slot, the widest "{:.11e}" spelling
    WIDEST = {-1.7976931348623157e308: "-1.79769313486e+308",
              -2.2250738585072014e-308: "-2.22507385851e-308",
              -5e-324: "-4.94065645841e-324"}

    def _check(self, columns):
        table = Table(columns)
        want_json, want_csv = _row_wise(columns)
        _assert_same_text(json_report({"rows": table}), want_json)
        _assert_same_text(csv_text(table), want_csv)

    def test_widest_cells_fill_their_slots(self):
        values = [*self.WIDEST, 0.0, -0.0, 1.0]
        assert _column_cells(values) == [*self.WIDEST.values(),
                                         "0.00000000000e+00",
                                         "0.00000000000e+00",
                                         "1.00000000000e+00"]
        self._check({"x": values, "y": values[::-1], "j": list(range(6))})

    def test_all_null_float_column(self):
        nans = [math.nan, math.inf, -math.inf]
        self._check({"k": [1.5, -2.0, 3.0], "n": nans})
        assert csv_text(Table({"n": nans})) == "n\n\n\n\n"
        assert '"n": null' in json_report(Table({"n": nans}))

    def test_one_row_table(self):
        self._check({"k": [-5e-324], "ok": [True], "j": [-7]})

    def test_ints_of_mixed_widths(self):
        self._check({"i": [0, -1, 2 ** 63 - 1, -2 ** 63, 12],
                     "big": np.array([-10 ** 30, 0, 10 ** 20, -3, 7],
                                     dtype=object),
                     "f": [-0.0, math.nan, 1e300, -1e-300, 2.5]})

    def test_one_digit_pass_per_table(self, monkeypatch):
        calls = []
        decide = reports._decide

        def spy(a):
            calls.append(a.size)
            return decide(a)

        monkeypatch.setattr(reports, "_decide", spy)
        table = Table({"a": [1.0, 2.0], "b": [math.nan, -3.0],
                       "c": [4.0, -0.0], "ok": [True, False]})
        json_report(table)
        csv_text(table)
        # one pass over the finite cells of all three float columns, kept
        # for both renderings
        assert calls == [5]


class TestSvg:
    def test_fixed_size_polyline(self):
        svg = line_plot_svg([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], "x", "y")
        assert 'width="800"' in svg and 'height="600"' in svg
        assert "polyline" in svg
        assert svg.count("<text") >= 10  # tick labels plus axis labels

    def test_deterministic(self):
        a = line_plot_svg([0, 1], [3, 4], "x", "lambda")
        b = line_plot_svg([0, 1], [3, 4], "x", "lambda")
        assert a == b

    def test_degenerate_ranges_padded(self):
        svg = line_plot_svg([1.0, 1.0], [2.0, 2.0], "x", "y")
        assert "polyline" in svg

    def test_non_finite_points_dropped(self):
        svg = line_plot_svg([0.0, 1.0, 2.0], [0.0, math.nan, 4.0], "x", "y")
        assert "nan" not in svg

    @staticmethod
    def _finite_numbers(svg):
        # every attribute value and tick label is a finite number
        assert "nan" not in svg and "inf" not in svg
        return svg

    @pytest.mark.parametrize("xs, ys", [
        ([0.0], [-1.92e176]),                    # one point
        ([0.0, 1.0, 2.0], [5e15] * 3),           # +-0.5 rounds back to 5e15
        ([3e200, 3e200], [1.0, 2.0]),
        ([0.0, 1.0], [1.7976931348623157e308] * 2)])  # the largest float
    def test_degenerate_range_beyond_half_a_unit(self, xs, ys):
        # v +- 0.5 rounds to v, which divided by a zero width; the range is
        # widened relative to |v| and the points sit mid-axis
        svg = self._finite_numbers(line_plot_svg(xs, ys, "x", "y"))
        # five distinct tick labels on each axis
        ticks = re.findall(r">([^<>]*)</text>", svg)[:-2]
        assert len(set(ticks[0::2])) == len(set(ticks[1::2])) == 5
        points = svg.split('points="')[1].split('"')[0].split()
        if len(set(xs)) == 1:
            assert {p.split(",")[0] for p in points} == {"400.00"}
        elif abs(ys[0]) < 1e308:
            assert {p.split(",")[1] for p in points} == {"300.00"}

    def test_overflowing_range(self):
        # y_max - y_min overflows: the points and ticks were nan and inf
        svg = self._finite_numbers(line_plot_svg(
            [-1e308, 0.0, 1.7e308], [-1.2e308, 0.0, 1.2e308], "x", "y"))
        assert 'points="70.00,530.00 ' in svg
        assert ' 730.00,70.00"' in svg
        assert ">-1.2e+308</text>" in svg and ">1.2e+308</text>" in svg
        assert ">-1e+308</text>" in svg and ">1.7e+308</text>" in svg

    @pytest.mark.parametrize("ys", [
        # the top tick's half rounds up past hi/2, whose double is inf
        [-5 * 2.0 ** 970, 1.7976931348623157e308],
        # a width of one subnormal unit, which halved would be zero
        [0.0, 5e-324]])
    def test_extreme_widths(self, ys):
        svg = self._finite_numbers(line_plot_svg([0.0, 1.0], ys, "x", "y"))
        assert 'points="70.00,530.00 730.00,70.00"' in svg

    def test_ordinary_ranges_keep_their_bytes(self):
        # an ordinary one-value axis keeps its +-0.5 widening and the plain
        # (x - lo) / (hi - lo) arithmetic, so its bytes do not move
        svg = line_plot_svg([0.0, 1.0, 2.0], [3.0, 3.0, 3.0], "x", "y")
        assert 'points="70.00,300.00 400.00,300.00 730.00,300.00"' in svg
        assert ">2.5</text>" in svg and ">3.5</text>" in svg
