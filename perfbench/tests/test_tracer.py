import types

import pytest

from tracer import Span, SpanIndex, Tracer, self_time, union_length


def _span(span_id, name, start, end, parent=None):
    span = Span(span_id, name, start, parent, "r")
    span.end = end
    return span


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert union_length([(0, 10), (2, 3)]) == pytest.approx(10.0)
    assert union_length([(4, 5), (0, 1), (1, 2)]) == pytest.approx(3.0)


def test_self_time_subtracts_union_of_children():
    parent = _span(0, "p", 0.0, 10.0)
    children = [
        _span(1, "a", 1.0, 3.0, 0),
        _span(2, "b", 2.0, 4.0, 0),  # overlaps a: together they cover 1..4
        _span(3, "c", 5.0, 6.0, 0),
        _span(4, "d", 9.0, 12.0, 0),  # runs past the parent: only 9..10 counts
    ]
    assert self_time(parent, children) == pytest.approx(10.0 - 3.0 - 1.0 - 1.0)


def test_self_time_counts_direct_children_only():
    spans = [
        _span(0, "p", 0.0, 10.0),
        _span(1, "child", 2.0, 6.0, 0),
        _span(2, "grandchild", 3.0, 5.0, 1),
    ]
    idx = SpanIndex(spans)
    assert idx.self_time(spans[0]) == pytest.approx(6.0)
    assert idx.self_time(spans[1]) == pytest.approx(2.0)
    assert idx.self_time(spans[2]) == pytest.approx(2.0)


def test_outermost_totals_skip_nested_same_name_spans():
    spans = [
        _span(0, "assemble", 0.0, 4.0),
        _span(1, "assemble", 1.0, 2.0, 0),
        _span(2, "assemble", 2.0, 3.0, 0),
        _span(3, "assemble", 5.0, 6.0),
    ]
    spans[0].count, spans[1].count, spans[2].count, spans[3].count = 2, 1, 1, 1
    idx = SpanIndex(spans)
    assert idx.total("assemble") == pytest.approx(5.0)
    assert idx.work("assemble") == 3
    assert idx.calls("assemble") == 4


class _Store:
    def __init__(self, n):
        self.n = n

    def rows(self, k):
        return list(range(k))

    @classmethod
    def load(cls, n):
        return cls(n)


def test_wrap_records_nested_spans_counts_and_restores():
    module = types.SimpleNamespace()
    module.inner = lambda x: x * 2
    module.outer = lambda x: module.inner(x) + 1
    original_rows, original_load = _Store.__dict__["rows"], _Store.__dict__["load"]
    tracer = Tracer(run_id="t")
    assert tracer.wrap(module, "outer", "m.outer")
    assert tracer.wrap(module, "inner", "m.inner")
    assert tracer.wrap(_Store, "rows", "store.rows", count=lambda a, r: len(r))
    assert tracer.wrap(_Store, "load", "store.load")
    assert not tracer.wrap(module, "missing", "m.missing")
    assert not tracer.wrap(None, "rows", "gone.rows")
    try:
        assert module.outer(3) == 7
        store = _Store.load(4)
        assert isinstance(store, _Store) and store.n == 4
        assert store.rows(5) == [0, 1, 2, 3, 4]
    finally:
        tracer.unwrap()
    assert _Store.__dict__["rows"] is original_rows
    assert _Store.__dict__["load"] is original_load
    names = [s.name for s in tracer.spans]
    assert names == ["m.outer", "m.inner", "store.load", "store.rows"]
    outer, inner = tracer.spans[0], tracer.spans[1]
    assert inner.parent == outer.span_id and outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert tracer.spans[3].count == 5
    assert all(s.run_id == "t" for s in tracer.spans)


def test_span_ends_when_the_call_raises():
    module = types.SimpleNamespace(boom=lambda: 1 / 0)
    tracer = Tracer()
    tracer.wrap(module, "boom", "m.boom")
    with pytest.raises(ZeroDivisionError):
        module.boom()
    tracer.unwrap()
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert tracer.begin("next").parent is None


def test_count_calls_counts_inside_a_scope():
    module = types.SimpleNamespace(tok=lambda s: s.split())
    tracer = Tracer()
    tracer.count_calls(module, "tok", "tokenize", scope="assemble")
    module.tok("a b")
    tracer.call("assemble", lambda: [module.tok("c"), module.tok("d")])
    tracer.unwrap()
    assert tracer.counts["tokenize"] == 3
    assert tracer.counts["tokenize|assemble"] == 2
    assert [s.name for s in tracer.spans] == ["assemble"]
