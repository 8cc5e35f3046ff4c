"""Units for the scheduler's event arena (``schedule_pooled``) and the
purge-on-``pending_count`` fix.

The arena recycles Event objects through a free list with generation
counters.  The invariants:

* only cleanly dispatched pooled events are recycled — cancelled events are
  never pooled, so a stale holder's defensive double-``cancel()`` (a
  documented safe no-op) cannot hit a new incarnation;
* every reuse bumps ``generation``, and ``is_generation`` lets holders
  detect that their snapshot went stale;
* the free list is bounded by ``_EVENT_POOL_LIMIT``;
* reading ``pending_count`` on a cancel-heavy idle heap triggers the lazy
  purge that previously only ran on later cancels.
"""

from __future__ import annotations

import pytest

from repro.sim._scheduler_impl import _EVENT_POOL_LIMIT, _PURGE_MIN_QUEUE
from repro.sim.scheduler import Scheduler


class TestEventPooling:
    def test_dispatched_pooled_event_is_recycled(self):
        scheduler = Scheduler()
        first = scheduler.schedule_pooled(0.01, lambda: None)
        generation = first.generation
        scheduler.run_until_idle()
        second = scheduler.schedule_pooled(0.01, lambda: None)
        assert second is first
        assert second.generation == generation + 1
        assert not first.is_generation(generation)

    def test_recycled_event_state_is_reset(self):
        scheduler = Scheduler()
        ran = []
        first = scheduler.schedule_pooled(0.01, lambda: ran.append("a"), label="a")
        scheduler.run_until_idle()
        second = scheduler.schedule_pooled(0.02, lambda: ran.append("b"), label="b")
        assert second is first
        assert second.pending
        assert not second.dispatched and not second.cancelled
        assert second.label == "b"
        scheduler.run_until_idle()
        assert ran == ["a", "b"]

    def test_cancelled_pooled_event_is_not_recycled(self):
        scheduler = Scheduler()
        first = scheduler.schedule_pooled(0.01, lambda: None)
        first.cancel()
        scheduler.run_until_idle()
        second = scheduler.schedule_pooled(0.01, lambda: None)
        assert second is not first

    def test_stale_holder_cancel_is_harmless_no_op(self):
        """A holder that kept a reference past dispatch may still call
        ``cancel()`` defensively; because dispatch recycles only *clean*
        events and cancel on a dispatched event is a no-op, the new
        incarnation is unaffected until the object is actually reused —
        at which point generation snapshots are the holder's guard."""
        scheduler = Scheduler()
        ran = []
        first = scheduler.schedule_pooled(0.01, lambda: ran.append(1))
        snapshot = first.generation
        scheduler.run_until_idle()
        # The same object now serves a new incarnation.
        second = scheduler.schedule_pooled(0.01, lambda: ran.append(2))
        assert second is first
        # The stale holder can detect staleness instead of cancelling.
        assert not (first.pending and first.is_generation(snapshot))
        scheduler.run_until_idle()
        assert ran == [1, 2]

    def test_plain_schedule_events_are_never_pooled(self):
        scheduler = Scheduler()
        plain = scheduler.schedule(0.01, lambda: None)
        assert not plain.recyclable
        scheduler.run_until_idle()
        pooled = scheduler.schedule_pooled(0.01, lambda: None)
        assert pooled is not plain

    def test_free_list_is_bounded(self):
        scheduler = Scheduler()
        for _ in range(_EVENT_POOL_LIMIT + 100):
            scheduler.schedule_pooled(0.0, lambda: None)
        scheduler.run_until_idle()
        assert len(scheduler._free) <= _EVENT_POOL_LIMIT

    def test_negative_delay_rejected(self):
        scheduler = Scheduler()
        with pytest.raises(Exception):
            scheduler.schedule_pooled(-0.5, lambda: None)


class TestPurgeOnPendingCount:
    def test_pending_count_read_purges_cancelled_entries(self):
        """A cancel-heavy heap left idle must shed its dead entries when
        ``pending_count`` is read, not only on the next cancel.

        The sweep trigger compares cancelled entries against queue length, so
        the scenario that previously leaked is: cancels that stay *below* the
        ratio while the queue is full, followed by dispatches that shrink the
        queue until the dead entries dominate — with no further cancel ever
        arriving to re-evaluate the ratio."""
        scheduler = Scheduler()
        dead = 2 * _PURGE_MIN_QUEUE
        # Far-future events, most of which get cancelled...
        far = [
            scheduler.schedule(100.0 + index * 1e-4, lambda: None)
            for index in range(dead + 8)
        ]
        # ... plus enough near-term live events that the cancels stay below
        # the purge ratio while they happen.
        for index in range(2 * dead):
            scheduler.schedule(index * 1e-4 + 1e-6, lambda: None)
        # Keep the *earliest* far-future entries live: the run loop pops
        # cancelled entries it finds at the heap front, so dead entries only
        # linger when a live event shields them.
        for event in far[8:]:
            event.cancel()
        queue_before = len(scheduler._queue)
        assert queue_before == 3 * dead + 8  # no purge ran during the cancels

        # Dispatch the near-term events; the heap is now mostly dead entries.
        scheduler.run_for(1.0)
        assert len(scheduler._queue) == dead + 8

        # A pure read triggers the sweep.
        assert scheduler.pending_count == 8
        assert len(scheduler._queue) == 8

    def test_pending_count_stays_correct_through_purges(self):
        scheduler = Scheduler()
        events = [
            scheduler.schedule((index % 13) * 1e-3 + 0.1, lambda: None)
            for index in range(500)
        ]
        for index, event in enumerate(events):
            if index % 3:
                event.cancel()
                assert scheduler.pending_count == sum(1 for e in events if e.pending)
        scheduler.run_until_idle()
        assert scheduler.pending_count == 0
