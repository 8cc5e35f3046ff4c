"""Open-loop arrival processes: realistic traffic shapes for scenarios.

Every workload before this module was closed-loop — each client issues its
next call a fixed think time after the previous reply, with start offsets
staggered by a scalar or an ad-hoc callable.  An :class:`ArrivalProcess`
makes the *offered load* a first-class, seeded object instead: it maps a
client-group size to the group's per-client start offsets, so the same
process drives discrete clients and cohort-flow mass identically
(``Scenario.clients(256, arrival=Poisson(rate=50.0))``).

Determinism invariants (ARCHITECTURE.md "Traffic model & replay"):

* **One seeded RNG stream per process.**  Each process owns exactly one
  seed; :meth:`ArrivalProcess.offsets` builds a fresh ``random.Random``
  from it on every call, so the process is a pure function of
  ``(parameters, seed, count)`` — two calls, two runs, or two machines
  produce bit-identical offsets.
* **Replay never re-samples.**  Trace recording serialises the *resolved*
  offsets, not the process, so a replayed scenario reuses the recorded
  floats verbatim (see :mod:`repro.traffic.trace`).
* **Position i is the i-th arrival.**  Offsets are returned sorted, so a
  group's protocol interleave (assigned by position) matches arrival
  order.
* **Packed, not boxed.**  Offsets come back as an ``array("d")`` — 8 bytes
  per client, no Python float object kept per client — because a cohort
  group resolves one offset for each of its (up to millions of) clients.

:func:`resolve_offsets` is the single entry point the cluster layer uses:
it accepts the legacy scalar spacing, the legacy position→offset callable,
a recorded offsets sequence (trace replay) and any :class:`ArrivalProcess`,
replacing the scalar-vs-callable special-casing that used to live in
``cluster/scenario.py`` and ``cluster/cohort.py``.

Every setting is checked before use: a NaN or infinite rate, curve
weight, spacing or offset raises a :class:`~repro.errors.ClusterError`
naming the setting, before it can reach the virtual clock.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, filterfalse, islice, repeat
from math import isfinite, log
from operator import mul
from typing import Any, ClassVar, Iterable, Iterator

from repro.errors import ClusterError
from repro.util.validation import (
    require_finite,
    require_non_negative,
    require_positive,
)

#: Gaps :class:`Poisson` draws per batch: the temporary gap and running-sum
#: lists stay this long however large the group is.
POISSON_CHUNK = 1 << 13


def _require_positive(value: float, name: str) -> None:
    require_finite(value, name, ClusterError)
    require_positive(value, name, ClusterError)


def _require_non_negative(value: float, name: str) -> None:
    require_finite(value, name, ClusterError)
    require_non_negative(value, name, ClusterError)


@dataclass(frozen=True)
class ArrivalProcess:
    """A deterministic, seeded open-loop arrival process.

    Subclasses implement :meth:`sample`, producing ``count`` arrival
    offsets (seconds after the group's start) from a fresh seeded RNG.
    :meth:`offsets` wraps it with the shared guarantees: sorted output,
    non-negative offsets, exactly ``count`` of them.
    """

    seed: int = 0

    #: Whether :meth:`sample` yields its offsets in ascending order, so
    #: :meth:`offsets` need not sort them.  A fact about the class's own
    #: ``sample``, not a setting: a subclass that overrides ``sample``
    #: without restating it is sorted again.
    sorted_sample: ClassVar[bool] = False

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "sample" in vars(cls) and "sorted_sample" not in vars(cls):
            cls.sorted_sample = False

    def sample(self, rng: random.Random, count: int) -> Iterable[float]:
        raise NotImplementedError

    def offsets(self, count: int) -> array:
        """The group's per-client start offsets, sorted (position = rank)."""
        if count < 0:
            raise ClusterError(f"arrival count must be non-negative, got {count}")
        drawn = self.sample(self._rng(), count)
        values = array("d", drawn if self.sorted_sample else sorted(drawn))
        if len(values) != count:
            raise ClusterError(
                f"{type(self).__name__} produced {len(values)} offsets for "
                f"{count} clients"
            )
        if values:
            require_non_negative(values[0], "arrival offsets", ClusterError)
        return values

    def _rng(self) -> random.Random:
        # A fresh generator per call: the process is a pure function of its
        # seed, so recording, replaying and re-running never re-sample.
        return random.Random(self.seed)


@dataclass(frozen=True)
class Poisson(ArrivalProcess):
    """Open-loop Poisson arrivals: exponential i.i.d. inter-arrival gaps.

    ``rate`` is the mean arrival rate in clients per virtual second; the
    group's ``count`` clients arrive over roughly ``count / rate`` seconds.
    """

    rate: float = 1.0

    #: Exponential gaps are non-negative, so the running sums ascend.
    sorted_sample: ClassVar[bool] = True

    def __post_init__(self) -> None:
        _require_positive(self.rate, "Poisson rate")

    def sample(self, rng: random.Random, count: int) -> Iterable[float]:
        return chain.from_iterable(self._chunks(rng, count))

    def _chunks(self, rng: random.Random, count: int) -> Iterator[Iterable[float]]:
        # rng.expovariate(rate) inlined: the very expression its body
        # evaluates, so every gap is bit-identical to an expovariate draw.
        rate = self.rate
        draw = rng.random
        now = 0.0
        for start in range(0, count, POISSON_CHUNK):
            size = min(POISSON_CHUNK, count - start)
            gaps = [-log(1.0 - draw()) / rate for _ in repeat(None, size)]
            # Seeding each chunk's running sum with the last one's total
            # (then dropping that seed) adds exactly like ``now += gap``
            # does, one gap at a time from 0.0.
            sums = list(accumulate(gaps, initial=now))
            now = sums[-1]
            yield islice(sums, 1, None)


@dataclass(frozen=True)
class ParetoHeavyTail(ArrivalProcess):
    """Heavy-tailed (Pareto/Lomax) inter-arrival gaps: bursts and long lulls.

    Gaps are ``scale * (Pareto(alpha) - 1)`` — arbitrarily small inside a
    burst, occasionally enormous — with mean ``scale / (alpha - 1)`` for
    ``alpha > 1``.  Smaller ``alpha`` means a heavier tail.
    """

    alpha: float = 1.5
    scale: float = 0.01

    #: Pareto draws are at least 1, so every gap is non-negative.
    sorted_sample: ClassVar[bool] = True

    def __post_init__(self) -> None:
        _require_positive(self.alpha, "ParetoHeavyTail alpha")
        _require_positive(self.scale, "ParetoHeavyTail scale")

    def sample(self, rng: random.Random, count: int) -> Iterable[float]:
        now = 0.0
        for _ in range(count):
            now += self.scale * (rng.paretovariate(self.alpha) - 1.0)
            yield now


@dataclass(frozen=True)
class Diurnal(ArrivalProcess):
    """A load curve over one period: arrivals follow a relative-rate shape.

    ``curve`` gives piecewise-constant relative intensities across equal
    slices of ``period`` (e.g. ``(1, 2, 8, 3)`` — quiet night, morning
    ramp, midday peak, evening tail); arrivals are drawn by inverting the
    cumulative intensity, so the group's whole mass lands inside one
    period, distributed as the curve dictates.
    """

    curve: tuple[float, ...] = (1.0, 2.0, 4.0, 2.0)
    period: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "curve", tuple(float(w) for w in self.curve))
        if not self.curve:
            raise ClusterError("Diurnal curve needs at least one segment")
        for weight in self.curve:
            _require_non_negative(weight, "Diurnal curve weight")
        if sum(self.curve) <= 0:
            raise ClusterError("Diurnal curve needs a positive total intensity")
        _require_positive(self.period, "Diurnal period")

    def sample(self, rng: random.Random, count: int) -> Iterable[float]:
        cumulative = [0.0]
        for weight in self.curve:
            cumulative.append(cumulative[-1] + weight)
        total = cumulative[-1]
        segment = self.period / len(self.curve)
        for _ in range(count):
            u = rng.uniform(0.0, total)
            index = min(bisect_right(cumulative, u) - 1, len(self.curve) - 1)
            weight = self.curve[index]
            fraction = (u - cumulative[index]) / weight if weight > 0 else 0.0
            yield (index + fraction) * segment


@dataclass(frozen=True)
class FlashCrowd(ArrivalProcess):
    """Baseline arrivals plus a decaying burst at a fixed instant.

    A fraction ``magnitude / (magnitude + 1)`` of the group belongs to the
    crowd and arrives at ``at`` plus an exponential delay of mean
    ``decay``; the rest is a Poisson(``rate``) baseline.  ``magnitude=3``
    therefore means the crowd is 3× the baseline population.
    """

    at: float = 0.05
    magnitude: float = 3.0
    decay: float = 0.02
    rate: float = 100.0

    def __post_init__(self) -> None:
        _require_non_negative(self.at, "FlashCrowd at")
        _require_non_negative(self.magnitude, "FlashCrowd magnitude")
        _require_positive(self.decay, "FlashCrowd decay")
        _require_positive(self.rate, "FlashCrowd rate")

    def sample(self, rng: random.Random, count: int) -> Iterable[float]:
        crowd_share = self.magnitude / (self.magnitude + 1.0)
        baseline = 0.0
        for _ in range(count):
            if rng.random() < crowd_share:
                yield self.at + rng.expovariate(1.0 / self.decay)
            else:
                baseline += rng.expovariate(self.rate)
                yield baseline


@dataclass(frozen=True)
class ClientChurn(ArrivalProcess):
    """A churning population: joins gated by a bounded concurrent pool.

    Clients try to join as a Poisson(``join_rate``) stream, but only
    ``population`` of them (default: the steady state
    ``join_rate / leave_rate``) can be active at once; each active client's
    session lasts an exponential ``1 / leave_rate`` on average, and a
    departing client's slot admits the next joiner — so start offsets
    cluster into generational waves instead of a smooth ramp.
    """

    join_rate: float = 100.0
    leave_rate: float = 10.0
    population: int | None = None

    def __post_init__(self) -> None:
        _require_positive(self.join_rate, "ClientChurn join_rate")
        _require_positive(self.leave_rate, "ClientChurn leave_rate")
        if self.population is not None and self.population < 1:
            raise ClusterError(
                f"ClientChurn population must be at least 1, got {self.population}"
            )

    def sample(self, rng: random.Random, count: int) -> Iterable[float]:
        pool = self.population
        if pool is None:
            pool = max(1, round(self.join_rate / self.leave_rate))
        joins: list[float] = []
        now = 0.0
        for index in range(count):
            now += rng.expovariate(self.join_rate)
            if index < pool:
                joined = now
            else:
                session = rng.expovariate(self.leave_rate)
                joined = max(now, joins[index - pool] + session)
            joins.append(joined)
            yield joined


def resolve_offsets(arrival: Any, count: int) -> array:
    """Per-position start offsets for a ``count``-client group.

    The one shared resolver behind ``Scenario.clients(..., arrival=...)``
    and the cohort flow builder:

    * a float ``s`` staggers position *i* at ``i * s`` (the legacy form);
    * a callable maps the position to its offset;
    * a recorded sequence (list, tuple or ``array``) of ``count`` offsets
      is copied verbatim — trace replay hands back resolved offsets in
      bulk, never re-sampling;
    * an :class:`ArrivalProcess` draws the whole group's offsets from its
      seeded stream (position = arrival rank).

    Every form comes back as a fresh ``array("d")``.  Offsets must be
    finite and non-negative; the same array feeds both the discrete
    representatives and the modeled flow mass, so cohort aggregation never
    shifts when anyone arrives.  Whether the offsets come back sorted is
    :func:`resolves_sorted`.
    """
    if count < 0:
        raise ClusterError(f"arrival count must be non-negative, got {count}")
    if isinstance(arrival, ArrivalProcess):
        return arrival.offsets(count)
    if isinstance(arrival, (list, tuple, array)):
        if len(arrival) != count:
            raise ClusterError(
                f"{len(arrival)} recorded arrival offsets for {count} clients"
            )
        offsets = array("d", map(float, arrival))
    elif callable(arrival):
        offsets = array("d", map(float, map(arrival, range(count))))
    else:
        step = float(arrival)
        _require_non_negative(step, "arrival spacing")
        # int * float in C: the same product as ``position * step``.
        return array("d", map(mul, range(count), repeat(step)))
    if offsets:
        non_finite = next(filterfalse(isfinite, offsets), None)
        if non_finite is not None:
            require_finite(non_finite, "arrival offsets", ClusterError)
        require_non_negative(min(offsets), "arrival offsets", ClusterError)
    return offsets


def resolves_sorted(arrival: Any) -> bool:
    """Whether :func:`resolve_offsets` returns ``arrival``'s offsets sorted.

    Scalar spacing and arrival processes do; a callable or a recording may
    map positions to offsets in any order.
    """
    if isinstance(arrival, ArrivalProcess):
        return True
    return not (callable(arrival) or isinstance(arrival, (list, tuple, array)))
