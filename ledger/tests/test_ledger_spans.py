"""Span self-time arithmetic."""

from spans import SpanRecorder, patched


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_and_sibling_children():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    with rec.span("parent"):            # 0 .. 10
        clock.now = 1.0
        with rec.span("child"):         # 1 .. 4
            clock.now = 2.0
            with rec.span("grandchild"):  # 2 .. 3
                clock.now = 3.0
            clock.now = 4.0
        clock.now = 5.0
        with rec.span("child"):         # 5 .. 7, a sibling
            clock.now = 7.0
        clock.now = 10.0
    times = rec.self_times()
    # parent: 10 minus its direct children (3 + 2), not the grandchild again
    assert times["parent"] == (5.0, 1)
    # child: (3 - 1 for the grandchild) + 2, over two spans
    assert times["child"] == (4.0, 2)
    assert times["grandchild"] == (1.0, 1)
    assert sum(t for t, _ in times.values()) == 10.0


def test_spans_record_parent_ids_and_skip_open_spans():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    with rec.span("outer") as outer_id:
        with rec.span("inner"):
            clock.now = 1.0
        assert rec.spans[1][3] == outer_id
        assert "outer" not in rec.self_times()  # still open
    assert rec.spans[0][3] is None


def test_patched_wraps_then_restores_and_keeps_exceptions_out_of_the_way():
    class Layer:
        def work(self, x):
            if x < 0:
                raise ValueError("negative")
            return x * 2

    original = Layer.work
    rec = SpanRecorder()
    with patched(rec, [(Layer, "work", "layer.work")]):
        assert Layer().work(2) == 4
        try:
            Layer().work(-1)
        except ValueError:
            pass
    assert Layer.work is original
    assert rec.self_times()["layer.work"][1] == 2
