import threading

import pytest

from perfbench.spans import SpanIndex, Tracer, covered, self_time


def _span(sid, start, end, parent=None, name="x"):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end,
            "pid": 1, "tid": 1, "attrs": {}}


def test_covered_merges_overlaps_and_clips():
    assert covered(0.0, 10.0, [(1, 3), (2, 5), (8, 12), (-4, -1)]) == 6.0
    assert covered(0.0, 10.0, []) == 0.0


def test_self_time_with_nested_children():
    parent = _span(1, 0.0, 10.0)
    child = _span(2, 1.0, 4.0, parent=1)
    assert self_time(parent, [child]) == pytest.approx(7.0)
    # A grandchild is already inside its parent's interval: only direct
    # children are subtracted, so the grandchild does not count twice.
    assert self_time(child, [_span(3, 2.0, 3.0, parent=2)]) == pytest.approx(2.0)


def test_self_time_with_cross_thread_children():
    # Two children on other threads overlap each other and run past the
    # parent's end; the shared time counts once and only inside the parent.
    parent = _span(1, 0.0, 10.0)
    children = [_span(2, 2.0, 6.0, parent=1), _span(3, 5.0, 12.0, parent=1)]
    assert self_time(parent, children) == pytest.approx(2.0)


def test_tracer_records_nesting_and_thread_links(tmp_path):
    tracer = Tracer(str(tmp_path))
    seen = {}

    def inner():
        seen["current"] = tracer.current()
        return 42

    def outer():
        result = tracer.call("inner", inner, (), {})
        worker = threading.Thread(target=lambda: tracer.call("other", lambda: None, (), {}))
        worker.start()
        worker.join(5)
        assert not worker.is_alive()
        return result

    assert tracer.call("outer", outer, (), {}, attrs=lambda: {"k": 1},
                       result_attrs=lambda r: {"r": r}) == 42
    index = SpanIndex(tracer.spans)
    outer_span, = index.named("outer")
    inner_span, = index.named("inner")
    other_span, = index.named("other")
    assert inner_span["parent"] == outer_span["id"]
    assert seen["current"] == inner_span["id"]  # a wrapped call sees its own span
    assert other_span["parent"] is None  # a new thread starts with no open span
    assert outer_span["attrs"] == {"k": 1, "r": 42}
    assert index.has_ancestor(inner_span, "outer")
    path = tracer.dump()
    from perfbench.spans import load_spans

    assert load_spans(str(tmp_path)) == tracer.spans and path.endswith(".json")
