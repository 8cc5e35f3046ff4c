"""Partitioned event streams: merged dispatch must equal the single queue.

:meth:`Scheduler.partition` gives each key its own heap, but the merge
contract is strict: because every stream draws insertion tickets from the
scheduler's *global* sequence counter, dispatching by minimal
``(time, seq)`` across all heaps reproduces exactly the order one shared
queue would have produced.  These tests pin that equivalence under
arbitrary interleavings, cancellation churn, ``run_until_time`` horizons
and the lazy purge — plus the fingerprint determinism the cohort layer
relies on.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchedulerError
from repro.sim import EventStream, Scheduler

#: One op: (delay bucket, stream key index: 0 = main queue, 1..3 = streams,
#: cancel-the-op-this-many-back or None).
_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=3),
        st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    ),
    min_size=1,
    max_size=120,
)


def _run_workload(ops, *, partitioned: bool) -> list[int]:
    """Schedule ``ops`` (optionally spread over streams) and dispatch all."""
    scheduler = Scheduler()
    dispatched: list[int] = []
    streams = {}
    events = []
    for index, (bucket, key, cancel_back) in enumerate(ops):
        delay = bucket * 0.125
        callback = lambda i=index: dispatched.append(i)
        if partitioned and key > 0:
            stream = streams.get(key)
            if stream is None:
                stream = scheduler.partition(f"stream-{key}")
                streams[key] = stream
            event = stream.schedule(delay, callback)
        else:
            event = scheduler.schedule(delay, callback)
        events.append(event)
        if cancel_back is not None and cancel_back <= len(events):
            events[-cancel_back].cancel()
    scheduler.run_until_idle()
    return dispatched


class TestMergedDispatchOrder:
    @given(ops=_ops)
    @settings(max_examples=120, deadline=None)
    def test_partitioned_dispatch_equals_single_queue(self, ops):
        """The same workload spread over streams dispatches in exactly the
        single-queue order, whatever the interleaving and cancellations."""
        assert _run_workload(ops, partitioned=True) == _run_workload(
            ops, partitioned=False
        )

    @given(ops=_ops)
    @settings(max_examples=60, deadline=None)
    def test_partitioned_dispatch_is_deterministic(self, ops):
        """Two fresh runs of one partitioned workload produce identical
        dispatch sequences — the cohort layer's determinism fingerprint."""
        assert _run_workload(ops, partitioned=True) == _run_workload(
            ops, partitioned=True
        )


class TestEventStreamSemantics:
    def test_same_time_events_interleave_by_insertion_order(self):
        scheduler = Scheduler()
        order = []
        p1 = scheduler.partition("p1")
        p2 = scheduler.partition("p2")
        p1.schedule(0.0, lambda: order.append("p1-a"))
        p2.schedule(0.0, lambda: order.append("p2-a"))
        scheduler.schedule(0.5, lambda: order.append("main-b"))
        scheduler.schedule(0.0, lambda: order.append("main-a"))
        p2.schedule(1.0, lambda: order.append("p2-b"))
        scheduler.run_until_idle()
        assert order == ["p1-a", "p2-a", "main-a", "main-b", "p2-b"]

    def test_partition_is_get_or_create(self):
        scheduler = Scheduler()
        stream = scheduler.partition("node-1")
        assert isinstance(stream, EventStream)
        assert scheduler.partition("node-1") is stream
        assert scheduler.partition("node-2") is not stream
        assert scheduler.partition_count == 2

    def test_unpartitioned_scheduler_keeps_fast_path(self):
        scheduler = Scheduler()
        scheduler.schedule(0.0, lambda: None)
        scheduler.run_until_idle()
        assert scheduler.partition_count == 0

    def test_run_until_time_stops_at_horizon_across_streams(self):
        scheduler = Scheduler()
        order = []
        stream = scheduler.partition("p")
        stream.schedule(0.2, lambda: order.append("early"))
        scheduler.schedule(0.6, lambda: order.append("main-late"))
        stream.schedule(0.8, lambda: order.append("stream-late"))
        scheduler.run_until_time(0.5)
        assert order == ["early"]
        assert scheduler.now == pytest.approx(0.5)
        scheduler.run_until_idle()
        assert order == ["early", "main-late", "stream-late"]

    def test_run_until_sees_stream_only_events(self):
        """A condition satisfied only by a stream event must terminate."""
        scheduler = Scheduler()
        seen = []
        scheduler.partition("p").schedule(0.3, lambda: seen.append(1))
        scheduler.run_until(lambda: bool(seen))
        assert seen == [1]

    def test_stream_events_cancel_and_purge(self):
        scheduler = Scheduler()
        dispatched = []
        stream = scheduler.partition("p")
        events = [
            stream.schedule(0.1 * i, lambda i=i: dispatched.append(i))
            for i in range(200)
        ]
        for event in events[::2]:
            event.cancel()
        # Force purge consideration by scheduling/cancelling more churn.
        extra = [stream.schedule(5.0, lambda: dispatched.append(-1)) for _ in range(64)]
        for event in extra:
            event.cancel()
        scheduler.run_until_idle()
        assert dispatched == list(range(1, 200, 2))
        assert scheduler.pending_count == 0

    def test_stream_schedule_rejects_past(self):
        scheduler = Scheduler()
        stream = scheduler.partition("p")
        with pytest.raises(SchedulerError):
            stream.schedule(-0.1, lambda: None)
        scheduler.schedule(1.0, lambda: None)
        scheduler.run_until_idle()
        with pytest.raises(SchedulerError):
            stream.schedule_at(0.5, lambda: None)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_stream_schedule_rejects_non_finite(self, value):
        scheduler = Scheduler()
        stream = scheduler.partition("p")
        with pytest.raises(SchedulerError, match=f"delay={value}"):
            stream.schedule(value, lambda: None)
        with pytest.raises(SchedulerError, match=f"time={value}"):
            stream.schedule_at(value, lambda: None)
        assert len(stream) == 0
        assert scheduler.pending_count == 0

    def test_call_soon_on_stream(self):
        scheduler = Scheduler()
        order = []
        scheduler.partition("p").call_soon(lambda: order.append("soon"))
        scheduler.run_until_idle()
        assert order == ["soon"]

    def test_len_and_repr(self):
        scheduler = Scheduler()
        stream = scheduler.partition("p")
        stream.schedule(1.0, lambda: None)
        assert len(stream) == 1
        assert "p" in repr(stream)
