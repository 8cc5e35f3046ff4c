"""Outside-in tracing of the simulator's layers, from the benchmark's files.

:class:`Tracer` wraps public entry points of each ``repro`` module (and the
few private ones that mark a phase boundary) while it is installed, and
restores the originals when it is removed; nothing under ``src/`` changes.
Each wrapped call records one span (name, start, end, parent) in flat
in-memory lists, and some also bump a counter or a byte count.  Scheduled
event callbacks are wrapped too, so time spent in code that no wrapped
entry point covers shows up as the self time of an ``event`` span instead
of vanishing into the scheduler's.

A name bound by value (``from repro.xmlutil.parser import parse``) is
rewrapped in every loaded ``repro`` module that binds it, so every caller
goes through the wrapper.  References held in containers (dispatch tables
and the like) are not rewritten.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

#: Size measures for byte and job counters: ``(args, result) -> int``.
def _text_len(args: tuple, _result: Any) -> int:
    return len(args[0])


def _payload_len(_args: tuple, message: Any) -> int:
    return len(message.payload)


def _result_len(_args: tuple, result: Any) -> int:
    return len(result)


def _batch_jobs(args: tuple, _result: Any) -> int:
    return args[2]  # ServerCore.charge_batch(self, cost, jobs)


@dataclass(frozen=True)
class Wrap:
    """One entry point to wrap.

    ``target`` is ``module:function`` or ``module:Class.method``.  ``span``
    names the span and ``layer`` the self-time bucket it belongs to; a wrap
    without a span only counts.  ``count`` names a counter bumped once per
    call, ``size`` a counter increased by ``measure(args, result)``.
    """

    target: str
    span: str | None
    layer: str | None = None
    count: str | None = None
    size: str | None = None
    measure: Callable[[tuple, Any], int] | None = None


def _spans(layer: str, module: str, *names: str) -> list[Wrap]:
    return [
        Wrap(f"{module}:{name}", f"{layer}:{name}", layer) for name in names
    ]


#: The wrapped entry points, grouped by layer.  Self time is reported per
#: layer; counters are named after the metric they feed.
WRAPS: list[Wrap] = [
    # cluster.scenario: the set-up phases.
    Wrap("repro.cluster.scenario:ScenarioRuntime.__init__", "scenario.build", "scenario"),
    Wrap("repro.cluster.scenario:ScenarioRuntime._force_and_settle", "scenario.publish", "scenario"),
    Wrap("repro.cluster.scenario:ScenarioRuntime._build_plans", "scenario.plan", "scenario"),
    # cluster.driver: FleetDriver.run and its prepare calls bound the
    # prepare / simulate / report phases.
    Wrap("repro.cluster.driver:FleetDriver.run", "driver.run", "driver"),
    Wrap("repro.cluster.driver:_FleetClient.prepare", "driver.prepare", "driver"),
    Wrap("repro.cluster.driver:_ReplicaSnapshot.__init__", "driver.snapshot", "driver"),
    *_spans(
        "driver",
        "repro.cluster.driver",
        "_FleetClient._issue",
        "_FleetClient._on_reply",
        "_FleetClient._on_timeout",
        "_FleetClient._attempt_failed",
        "_FleetClient._rebind",
    ),
    # cluster.protocols
    Wrap("repro.cluster.protocols:ProtocolClient.prepare", "protocols:prepare", "protocols", "protocols.prepare_calls"),
    Wrap("repro.cluster.protocols:SoapProtocolClient.rebind_replica", "protocols:rebind", "protocols", "protocols.rebind_calls"),
    Wrap("repro.cluster.protocols:CorbaProtocolClient.rebind_replica", "protocols:rebind", "protocols", "protocols.rebind_calls"),
    *_spans(
        "protocols",
        "repro.cluster.protocols",
        "SoapProtocolClient.prepare_replica",
        "SoapProtocolClient.call",
        "CorbaProtocolClient.prepare_replica",
        "CorbaProtocolClient.call",
    ),
    # cluster.registry
    Wrap("repro.cluster.registry:ServiceEntry.select", "registry:select", "registry", "registry.select_calls"),
    Wrap("repro.cluster.registry:ServiceEntry.select_many", "registry:select_many", "registry", "registry.select_calls"),
    # cluster.cohort
    Wrap("repro.cluster.cohort:CohortFlow.prepare", "cohort.prepare", "cohort", "cohort.flows"),
    *_spans("cohort", "repro.cluster.cohort", "CohortFlow.start", "CohortFlow._tick"),
    # xmlutil
    Wrap("repro.xmlutil.parser:parse", "xmlutil.parse", "xmlutil.parse", "xmlutil.parse_calls",
         "xmlutil.parse_bytes", _text_len),
    Wrap("repro.xmlutil.serializer:serialize", "xmlutil.serialize", "xmlutil.serialize", "xmlutil.serialize_calls"),
    Wrap("repro.xmlutil.serializer:serialize_pretty", "xmlutil.serialize", "xmlutil.serialize", "xmlutil.serialize_calls"),
    # soap: the envelope codec
    Wrap("repro.soap.envelope:SoapRequest.to_xml_and_wire", "soap:encode", "soap.codec", "soap.encode_calls"),
    Wrap("repro.soap.envelope:SoapResponse.to_xml_and_wire", "soap:encode", "soap.codec", "soap.encode_calls"),
    Wrap("repro.soap.envelope:SoapRequest.from_xml", "soap:decode", "soap.codec", "soap.decode_calls"),
    Wrap("repro.soap.envelope:SoapResponse.from_xml", "soap:decode", "soap.codec", "soap.decode_calls"),
    *_spans(
        "soap.codec",
        "repro.soap.envelope",
        "SoapRequest.for_call",
        "SoapResponse.for_result",
        "SoapResponse.for_fault",
    ),
    # soap.wsdl
    Wrap("repro.soap.wsdl.parser:parse_wsdl", "wsdl.parse", "wsdl.parse", "wsdl.parse_calls"),
    Wrap("repro.soap.wsdl.generator:generate_wsdl", "wsdl.generate", "wsdl.generate", "wsdl.generate_calls"),
    # corba: the CDR / GIOP codec, and the ORBs around it
    Wrap("repro.corba.cdr:marshal_values", "corba:marshal", "corba.codec", "corba.marshal_calls",
         "corba.marshal_bytes", _result_len),
    Wrap("repro.corba.cdr:unmarshal_values", "corba:unmarshal", "corba.codec", "corba.unmarshal_calls"),
    Wrap("repro.corba.giop:RequestMessage.to_bytes", "corba:giop", "corba.codec", "corba.giop_calls"),
    Wrap("repro.corba.giop:ReplyMessage.to_bytes", "corba:giop", "corba.codec", "corba.giop_calls"),
    Wrap("repro.corba.giop:parse_message", "corba:giop", "corba.codec", "corba.giop_calls"),
    *_spans("corba.orb", "repro.corba.orb", "ClientOrb.invoke_async", "ServerOrb._on_request"),
    # corba.idl
    Wrap("repro.corba.idl.parser:parse_idl", "idl.parse", "idl.parse", "idl.parse_calls"),
    Wrap("repro.corba.idl.generator:generate_idl", "idl.generate", "idl.generate", "idl.generate_calls"),
    # net.http
    Wrap("repro.net.http.messages:HttpRequest.to_bytes", "http:frame", "http", "http.messages",
         "http.bytes", _result_len),
    Wrap("repro.net.http.messages:HttpResponse.to_bytes", "http:frame", "http", "http.messages",
         "http.bytes", _result_len),
    Wrap("repro.net.http.client:HttpClient.get", "http:get", "http", "http.fetches"),
    *_spans("http", "repro.net.http.messages", "HttpRequest.from_bytes", "HttpResponse.from_bytes"),
    *_spans("http", "repro.net.http.client", "HttpClient.request", "HttpClient.request_async"),
    *_spans("http", "repro.net.http.server", "HttpServer._on_request"),
    # net.transport
    Wrap("repro.net.transport:Deferred.__init__", None, count="transport.deferreds"),
    Wrap("repro.net.transport:Deferred._resolve", None, count="transport.resolves"),
    *_spans(
        "transport",
        "repro.net.transport",
        "Deferred.wait",
        "Connection.resolve",
        "Endpoint._on_message",
        "ClientChannel.request_async",
        "_ClientConnection._on_message",
    ),
    # net.simnet
    Wrap("repro.net._simnet_impl:Network.transmit", "simnet:transmit", "simnet", "simnet.messages",
         "simnet.bytes", _payload_len),
    *_spans(
        "simnet",
        "repro.net._simnet_impl",
        "Network.transmit_many",
        "Network._deliver_batch",
    ),
    # sim.scheduler: the dispatch loops (scheduling is counted, and its
    # callbacks wrapped, by Tracer itself).
    *_spans(
        "scheduler",
        "repro.sim._scheduler_impl",
        "Scheduler.run_until",
        "Scheduler.run_for",
        "Scheduler.run_until_time",
        "Scheduler.run_until_idle",
    ),
    # sim.servercore
    Wrap("repro.sim.servercore:ServerCore.charge", "servercore:charge", "servercore", "servercore.charge_calls"),
    Wrap("repro.sim.servercore:ServerCore.charge_batch", "servercore:charge_batch", "servercore",
         None, "servercore.batch_jobs", _batch_jobs),
    # core.sde: call handling, the §5.7 stall and publication
    Wrap("repro.core.sde.publisher:DLPublisher._publish", "sde:publish", "sde", "sde.publications"),
    Wrap("repro.core.sde.publisher:DLPublisher.ensure_current", "sde:ensure_current", "sde",
         "sde.ensure_current_calls"),
    Wrap("repro.core.sde.call_handler:CallHandler._handle_stale_call", "sde:stall", "sde", "sde.stalled_calls"),
    *_spans("sde", "repro.core.sde.call_handler", "CallHandler.dispatch"),
    *_spans("sde", "repro.core.sde.soap_handler", "SoapCallHandler._handle"),
    # jpie and evolve
    Wrap("repro.jpie.dynamic_class:DynamicClass.add_method", "jpie:edit", "jpie", "jpie.edits"),
    Wrap("repro.jpie.dynamic_class:DynamicClass.remove_method", "jpie:edit", "jpie", "jpie.edits"),
    Wrap("repro.evolve.diff:diff_descriptions", "evolve:diff", "evolve", "evolve.diff_calls"),
    Wrap("repro.evolve.diff:diff_documents", "evolve:diff", "evolve", "evolve.diff_calls"),
]

#: Scheduling entry points: counted, and their callback argument wrapped.
SCHEDULE_TARGETS = (
    "repro.sim._scheduler_impl:Scheduler.schedule",
    "repro.sim._scheduler_impl:Scheduler.schedule_at",
    "repro.sim._scheduler_impl:Scheduler.schedule_pooled",
    "repro.sim._scheduler_impl:EventStream.schedule",
    "repro.sim._scheduler_impl:EventStream.schedule_at",
)

#: The span name and layer of a dispatched event callback.
EVENT_SPAN = "event"

#: The log marker of a span's end (span name ids are non-negative).
EXIT = -1


@dataclass
class Spans:
    """Decoded spans as parallel lists, indexed by span id."""

    names: list[int]
    parents: list[int]
    starts: list[float]
    ends: list[float]


class Tracer:
    """Records spans and counters of wrapped calls while installed.

    A wrapped call appends ``name_id, start`` to one flat log on entry and
    ``EXIT, end`` on exit (``perf_counter`` seconds); :meth:`spans` decodes
    the log into spans with parents.  :meth:`reset` clears it between rounds.
    """

    def __init__(self) -> None:
        self.span_names: list[str] = []
        self.span_layers: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.log: list[float] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._restore: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        """Forget recorded spans and counts (the wrappers stay installed)."""
        self.log.clear()
        self.counts.clear()

    def name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
            self.span_layers.append(layer)
        return self._name_ids[name]

    def spans(self) -> "Spans":
        """Decode the log: span ``i`` has ``names[i]``, ``parents[i]`` (-1
        at the root), ``starts[i]`` and ``ends[i]``, in order of entry."""
        spans = Spans([], [], [], [])
        stack: list[int] = []
        log = self.log
        for position in range(0, len(log), 2):
            marker, time = log[position], log[position + 1]
            if marker == EXIT:
                spans.ends[stack.pop()] = time
                continue
            stack.append(len(spans.starts))
            spans.names.append(marker)
            spans.parents.append(stack[-2] if len(stack) > 1 else -1)
            spans.starts.append(time)
            spans.ends.append(time)
        if stack:
            raise RuntimeError(f"{len(stack)} spans never ended")
        return spans

    # -- wrappers -----------------------------------------------------------

    def _wrap_function(self, fn: Callable, wrap: Wrap) -> Callable:
        counts = self.counts
        count, size, measure = wrap.count, wrap.size, wrap.measure
        if wrap.span is None:

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[count] += 1
                return result

            return counted
        name = self.name_id(wrap.span, wrap.layer)
        append = self.log.append

        def traced(*args, **kwargs):
            append(name)
            append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                append(EXIT)
                append(perf_counter())

        if count is None and size is None:
            return traced

        def traced_counted(*args, **kwargs):
            result = traced(*args, **kwargs)
            if count is not None:
                counts[count] += 1
            if size is not None:
                counts[size] += measure(args, result)
            return result

        return traced_counted

    def _wrap_schedule(self, fn: Callable) -> Callable:
        counts = self.counts
        name = self.name_id(EVENT_SPAN, EVENT_SPAN)
        append = self.log.append

        def schedule(owner, when, callback, *args, **kwargs):
            counts["scheduler.schedule_calls"] += 1

            def event(*args, **kwargs):
                counts["scheduler.events"] += 1
                append(name)
                append(perf_counter())
                try:
                    return callback(*args, **kwargs)
                finally:
                    append(EXIT)
                    append(perf_counter())

            return fn(owner, when, event, *args, **kwargs)

        return schedule

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point; the ``repro`` modules must be imported."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for wrap in WRAPS:
            self._patch(wrap.target, lambda fn, wrap=wrap: self._wrap_function(fn, wrap))
        for target in SCHEDULE_TARGETS:
            self._patch(target, self._wrap_schedule)

    def uninstall(self) -> None:
        """Put every original back, in reverse order of patching."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def _patch(self, target: str, make: Callable[[Callable], Callable]) -> None:
        module_name, _, path = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        *classes, attribute = path.split(".")
        for name in classes:
            owner = getattr(owner, name)
        if isinstance(owner, type):
            raw = owner.__dict__[attribute]
            if isinstance(raw, (classmethod, staticmethod)):
                replacement: Any = type(raw)(make(raw.__func__))
            else:
                replacement = make(raw)
            self._restore.append((owner, attribute, raw))
            setattr(owner, attribute, replacement)
            return
        original = getattr(owner, attribute)
        wrapper = make(original)
        # Rebind the name wherever a loaded repro module imported it by value.
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)


@dataclass
class LayerProfile:
    """Per-layer self time, phase boundaries and counts of one traced run."""

    self_s: dict[str, float]
    phases: dict[str, float]
    counts: dict[str, int]
    simulate_events: int
    unattributed_s: float


def profile(tracer: Tracer) -> LayerProfile:
    """Reduce one round's spans to per-layer self time and phase times."""
    spans = tracer.spans()
    names, parents, starts, ends = spans.names, spans.parents, spans.starts, spans.ends
    span_names, span_layers = tracer.span_names, tracer.span_layers
    count = len(starts)
    covered = [0.0] * count
    for span in range(count):
        parent = parents[span]
        if parent >= 0:
            covered[parent] += ends[span] - starts[span]
    self_s: dict[str, float] = defaultdict(float)
    for span in range(count):
        self_s[span_layers[names[span]]] += ends[span] - starts[span] - covered[span]

    def select(name: str, parent_name: str | None = None) -> list[int]:
        return [
            span
            for span in range(count)
            if span_names[names[span]] == name
            and (
                parent_name is None
                or (parents[span] >= 0 and span_names[names[parents[span]]] == parent_name)
            )
        ]

    def seconds(spans: list[int]) -> float:
        return sum(ends[span] - starts[span] for span in spans)

    runs = select("driver.run")
    simulates = select("scheduler:Scheduler.run_until", "driver.run")
    if len(runs) != 1 or len(simulates) != 1:
        raise RuntimeError(
            f"expected one FleetDriver.run with one simulate loop, got "
            f"{len(runs)} and {len(simulates)}"
        )
    # FleetDriver.run prepares its clients, then its cohort flows, then
    # snapshots every replica: the first snapshot ends the prepare phase.
    run_start = starts[runs[0]]
    prepared = starts[select("driver.snapshot", "driver.run")[0]]
    client_prepares = select("driver.prepare", "driver.run")
    flows_from = ends[client_prepares[-1]] if client_prepares else run_start
    simulate_start, simulate_end = starts[simulates[0]], ends[simulates[0]]
    phases = {
        "scenario.build_s": seconds(select("scenario.build")),
        "scenario.publish_s": seconds(select("scenario.publish")),
        "scenario.plan_s": seconds(select("scenario.plan")),
        "cohort.prepare_s": prepared - flows_from,
        "driver.prepare_s": prepared - run_start,
        "driver.simulate_s": simulate_end - simulate_start,
        "driver.report_s": ends[runs[0]] - simulate_end,
    }
    event = tracer.name_id(EVENT_SPAN, EVENT_SPAN)
    in_simulate = [
        span
        for span in range(count)
        if names[span] == event and simulate_start <= starts[span] <= simulate_end
    ]
    unattributed = sum(ends[span] - starts[span] - covered[span] for span in in_simulate)
    return LayerProfile(
        self_s=dict(self_s),
        phases=phases,
        counts=dict(tracer.counts),
        simulate_events=len(in_simulate),
        unattributed_s=unattributed,
    )
