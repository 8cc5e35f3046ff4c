"""Event scheduler driving the whole simulated system.

The implementation lives in :mod:`repro.sim._scheduler_impl`; this module is
its public import path.  Import :class:`Event`/:class:`Scheduler` from here.
"""

from repro.sim._scheduler_impl import Event, EventStream, Scheduler

__all__ = ["Event", "EventStream", "Scheduler"]
