"""Deterministic formatting layer behind the CLI reports."""

import json
import math

import pytest

from zml.reports import csv_text, fmt_float, json_report, line_plot_svg


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
        text = csv_text(("a", "b", "c"),
                        [(1, True, 0.5), (2, False, math.nan)])
        lines = text.split("\n")
        assert lines[0] == "a,b,c"
        assert lines[1] == "1,true,5.00000000000e-01"
        assert lines[2] == "2,false,"  # non-finite -> empty cell
        assert text.endswith("\n")

    def test_lf_only(self):
        assert "\r" not in csv_text(("x",), [(1,)])


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
