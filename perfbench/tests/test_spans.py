"""Self-time arithmetic and span recording, on synthetic spans."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from spans import ROOT, Span, SpanRecorder, self_times, union_length


def span(name, start, end, parent=ROOT, thread=0):
    return Span(name, start, end, parent, thread, 0)


def test_union_length_merges_and_clips():
    assert union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert union_length([(8, 12)], 0, 10) == 2
    assert union_length([], 0, 10) == 0


def test_nested_self_times():
    spans = [
        span("outer", 0.0, 10.0),
        span("middle", 2.0, 6.0, parent=0),
        span("inner", 3.0, 4.0, parent=1),
        span("sibling", 7.0, 8.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 3.0, 1.0, 1.0])


def test_cross_thread_children_are_not_counted_twice():
    # Two shard cores run in parallel on two threads under one fan-out.
    spans = [
        span("shard.matmul", 0.0, 10.0, thread=1),
        span("shard.core", 1.0, 6.0, parent=0, thread=2),
        span("shard.core", 4.0, 8.0, parent=0, thread=3),
    ]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_child_outliving_parent_is_clipped():
    spans = [span("caller", 0.0, 10.0), span("prefetch", 8.0, 12.0, parent=0, thread=2)]
    assert self_times(spans) == pytest.approx([8.0, 4.0])


class Toy:
    def __init__(self, pool):
        self.pool = pool

    def fan_out(self, n):
        return list(self.pool.map(self.work, range(n)))

    def work(self, i):
        return threading.get_ident(), i


def test_recorder_wraps_and_attaches_pool_work_to_the_caller():
    recorder = SpanRecorder()
    recorder.propagate_thread_pools()
    recorder.wrap(Toy, "fan_out", "toy.fan_out")
    recorder.wrap(Toy, "work", "toy.work", info=lambda args, kwargs, result: args[1])
    with ThreadPoolExecutor(max_workers=2) as pool:
        try:
            results = Toy(pool).fan_out(4)
        finally:
            recorder.uninstall()
    assert [i for _, i in results] == [0, 1, 2, 3]
    names = [s.name for s in recorder.spans]
    assert names.count("toy.fan_out") == 1 and names.count("toy.work") == 4
    root = names.index("toy.fan_out")
    workers = [s for s in recorder.spans if s.name == "toy.work"]
    assert all(s.parent == root for s in workers)
    assert sorted(s.info for s in workers) == [0, 1, 2, 3]
    assert all(s.thread != recorder.spans[root].thread for s in workers)
    # Uninstalled: the class is back to its own methods.
    assert not hasattr(Toy.fan_out, "__wrapped__")
    assert ThreadPoolExecutor.submit.__qualname__ == "ThreadPoolExecutor.submit"


def test_missing_target_is_reported_not_raised():
    recorder = SpanRecorder()
    assert not recorder.wrap(Toy, "gone", "toy.gone")
    assert recorder.missing == ["Toy.gone"]
