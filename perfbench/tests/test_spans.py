"""Self-time arithmetic and function wrapping of the traced run."""

import itertools
import sys
import types

import pytest

import spans
from spans import Span, Tracer, covered_length, self_times


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1.0, 3.0), (2.0, 4.0)], 0.0, 10.0) == 3.0
    assert covered_length([(1.0, 2.0), (5.0, 6.0)], 0.0, 10.0) == 2.0
    assert covered_length([(1.0, 9.0), (2.0, 3.0)], 0.0, 10.0) == 8.0
    # parts outside the parent's interval do not count
    assert covered_length([(-5.0, 1.0), (9.0, 20.0)], 0.0, 10.0) == 2.0
    assert covered_length([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_self_times_subtract_direct_children_only():
    tree = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 6.0, 7.5, 0, 0),
    ]
    assert self_times(tree) == pytest.approx([5.5, 2.0, 1.0, 1.5])
    # self times of a job add up to its root span
    assert sum(self_times(tree)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    tree = [Span("root", 0.0, 4.0, -1, 0), Span("x", 0.0, 3.0, 0, 0),
            Span("y", 1.0, 2.0, 0, 0)]
    assert self_times(tree)[0] == pytest.approx(1.0)


def test_tracer_nests_spans_and_keeps_counts():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf(n):
        return list(range(n))

    traced_leaf = tracer.wrap("leaf", leaf, lambda a, r: {"items": len(r)})

    def outer():
        return traced_leaf(3) + traced_leaf(n=2)

    traced_outer = tracer.wrap("outer", outer)
    tracer.job = 7
    root = tracer.open("job")
    traced_outer()
    tracer.close(root)
    names = [s.name for s in tracer.spans]
    assert names == ["job", "outer", "leaf", "leaf"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 1]
    assert [s.counts for s in tracer.spans[2:]] == [{"items": 3},
                                                    {"items": 2}]
    assert all(s.job == 7 for s in tracer.spans)
    assert sum(self_times(tracer.spans)) == pytest.approx(
        tracer.spans[0].duration)


def test_tracer_closes_span_when_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert tracer._stack == []


def test_unaccounted_fracs_per_job():
    tree = [Span("cli.main", 0.0, 4.0, -1, 0), Span("x", 1.0, 2.0, 0, 0),
            Span("cli.main", 5.0, 6.0, -1, 1)]
    assert spans.unaccounted_fracs(tree, [4.0, 2.0]) == pytest.approx(
        [0.0, 0.5])


def test_install_wraps_every_binding_and_uninstall_restores():
    import zml.cli
    import zml.potential
    import zml.zeromodes
    original = zml.potential.lambda_1d
    tracer = Tracer()
    undo = spans.install(tracer)
    try:
        assert zml.cli.lambda_1d is not original
        assert zml.zeromodes.lambda_1d is zml.cli.lambda_1d
        assert zml.cli.lambda_1d.__wrapped__ is original
    finally:
        spans.uninstall(undo)
    assert zml.cli.lambda_1d is original
    assert zml.zeromodes.lambda_1d is original


def test_vanished_layer_reports_zero(monkeypatch):
    fake = types.ModuleType("zml.fake_layer")
    monkeypatch.setitem(sys.modules, "zml.fake_layer", fake)
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("zml.fake_layer", "gone", None), ("zml.not_there", "gone", None)))
    undo = spans.install(Tracer())
    spans.uninstall(undo)
    metrics = spans.layer_metrics([Span("cli.main", 0.0, 1.0, -1, 0)])
    assert set(metrics) == {name for name, _ in spans.LAYER_METRICS}
    assert metrics["spectral.windowed_singular_modes.calls"] == 0
    assert metrics["reduction.window_hit_frac"] == 0.0
    assert metrics["cli.self_s"] == pytest.approx(1.0)


def test_layer_metrics_ratios():
    conv = ("abs", ("bump",), (0.0, 1.0, 3))
    tree = [
        Span("cli.main", 0.0, 10.0, -1, 0),
        Span("zeromodes.build_mode_2d", 0.0, 4.0, 0, 0, {"modes": 1}),
        Span("potential.lambda_2d_radial", 1.0, 3.0, 1, 0,
             {"points": 100, "conv": conv}),
        Span("zeromodes.build_mode_2d", 4.0, 8.0, 0, 0, {"modes": 1}),
        Span("potential.lambda_2d_radial", 5.0, 7.0, 3, 0,
             {"points": 100, "conv": conv}),
    ]
    m = spans.layer_metrics(tree)
    assert m["potential.distinct_frac"] == 0.5
    assert m["potential.points"] == 200
    assert m["potential.us_per_point"] == pytest.approx(1e6 * 4.0 / 200)
    assert m["zeromodes.self_s"] == pytest.approx(4.0)
    assert m["zeromodes.modes"] == 2
    assert m["cli.self_s"] == pytest.approx(2.0)
