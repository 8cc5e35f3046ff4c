"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fault_drill --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: it repeats
the workload for ``--seconds`` seconds (at least three rounds, after one
warm-up round) in this single process, on one thread, and reports medians.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics.  Metric names and units come from ``BENCHMARK.json``.
Every round is checked (see ``workloads.check_report``); the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
``--scale reduced`` runs the self-test's smaller fleets.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_ROUNDS = 3
MIN_TRACED_PAIRS = 2
SPAN_DIR = ROOT / ".perfbench_out"


def _import_program():
    """Import ``repro`` from this checkout's ``src``, and nothing else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


class FirstClientEvent:
    """Records the host time of the first simulated client event of a run.

    Wraps the two fleet entry points the scheduler dispatches first: a
    discrete client's ``start`` and a cohort flow's ``start``.
    """

    def __init__(self) -> None:
        from repro.cluster.cohort import CohortFlow
        from repro.cluster.driver import _FleetClient

        self.at: float | None = None
        self._originals = [
            (cls, cls.__dict__["start"]) for cls in (_FleetClient, CohortFlow)
        ]
        for cls, original in self._originals:
            setattr(cls, "start", self._wrap(original))

    def _wrap(self, original):
        def start(owner):
            if self.at is None:
                self.at = perf_counter()
            return original(owner)

        return start

    def close(self) -> None:
        for cls, original in self._originals:
            setattr(cls, "start", original)


class Bench:
    """One workload at one scale and seed, measured round by round."""

    def __init__(self, workload, clients: int, seed: int, expected: dict) -> None:
        from workloads import DEFAULT_SEED

        self.workload = workload
        self.clients = clients
        self.seed = seed
        key = f"{workload.name}@{clients}"
        self.expected = expected.get(key) if seed == DEFAULT_SEED else None
        self.digest: str | None = None
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.probe = FirstClientEvent()

    def round(self, obs: bool | None = None):
        """Declare, run and check the scenario once.

        Returns ``(setup_s, wall_s, completed_calls, report)``.
        """
        from workloads import check_report, cohort_digest, fingerprint_digest, judge

        workload = self.workload
        obs = workload.obs if obs is None else obs
        gc.collect()
        self.probe.at = None
        started = perf_counter()
        scenario = workload.declare(self.clients, self.seed)
        report = scenario.run(obs=True if obs else None)
        finished = perf_counter()
        if self.probe.at is None:
            raise RuntimeError("the run dispatched no client event")
        setup = self.probe.at - started
        outcome = judge(workload, report)
        self.attempted += outcome.issued
        self.failed += outcome.failed
        problems = check_report(workload, self.clients, report)
        digest = fingerprint_digest(report)
        if obs == workload.obs:
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems.append("fingerprint differs from this process's first round")
            if self.expected is not None:
                if digest != self.expected["fingerprint"]:
                    problems.append("fingerprint digest differs from expected.json")
                if report.cohorts and cohort_digest(report) != self.expected["cohort"]:
                    problems.append("cohort fingerprint digest differs from expected.json")
        for problem in problems:
            self.note(problem)
        return setup, finished - started, outcome.completed, report

    def note(self, problem: str) -> None:
        """Record a failed check once."""
        if problem not in self.problems:
            self.problems.append(problem)

    def close(self) -> None:
        self.probe.close()


def measure_end_to_end(bench: Bench, seconds: float) -> dict[str, float]:
    bench.round()  # warm-up: lazy imports and caches, not measured
    bench.attempted = bench.failed = 0
    setups, walls, rates = [], [], []
    deadline = perf_counter() + seconds
    while len(walls) < MIN_ROUNDS or perf_counter() < deadline:
        setup, wall, completed, _report = bench.round()
        setups.append(setup)
        walls.append(wall)
        rates.append(completed / (wall - setup))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "calls_per_s": statistics.median(rates),
        "peak_rss_mb": peak_kib / 1024.0,
        "calls_ok_frac": 1.0 - bench.failed / bench.attempted,
    }


def measure_per_layer(bench: Bench, seconds: float, out_name: str) -> dict[str, float]:
    from tracer import Tracer, profile
    from workloads import fingerprint_digest

    workload = bench.workload
    bench.round()  # warm-up
    if workload.obs:
        bench.round(obs=False)
    bench.attempted = bench.failed = 0
    tracer = Tracer()
    untraced, traced, plain, layers = [], [], [], []
    deadline = perf_counter() + seconds
    while len(layers) < MIN_TRACED_PAIRS or perf_counter() < deadline:
        # Alternate which side of the pair runs first.
        digests = {}
        for tracing in (False, True) if len(layers) % 2 == 0 else (True, False):
            if tracing:
                tracer.reset()
                tracer.install()
                try:
                    _setup, wall, completed, report = bench.round()
                finally:
                    tracer.uninstall()
                traced.append(wall)
                layers.append(profile(tracer))
            else:
                _setup, wall, completed, report = bench.round()
                untraced.append(wall)
            digests[tracing] = fingerprint_digest(report)
        if digests[True] != digests[False]:
            bench.note("traced fingerprint differs from untraced")
        if workload.obs:
            plain.append(bench.round(obs=False)[1])
    if any(layer.counts != layers[0].counts for layer in layers):
        bench.note("per-layer counts differ between traced rounds")
    write_spans(tracer, out_name)

    median = statistics.median
    count = layers[0].counts
    metrics = {
        phase: median(layer.phases[phase] for layer in layers) for phase in layers[0].phases
    }
    metrics["scenario.plan_us_per_client"] = (
        metrics["scenario.plan_s"] * 1e6 / report.simulated_clients
    )
    for metric, layer_name in SELF_TIMES.items():
        metrics[metric] = median(layer.self_s.get(layer_name, 0.0) for layer in layers)
    for name in COUNTS:
        metrics[name] = count.get(name, 0)
    parses = count.get("wsdl.parse_calls", 0) + count.get("idl.parse_calls", 0)
    prepares = count.get("protocols.prepare_calls", 0)
    metrics["protocols.doc_parses_per_client"] = parses / prepares if prepares else 0.0
    metrics["xmlutil.parses_per_call"] = count.get("xmlutil.parse_calls", 0) / completed
    metrics["scheduler.events_per_s"] = median(
        layer.simulate_events / layer.phases["driver.simulate_s"] for layer in layers
    )
    metrics["trace.unattributed_s"] = median(layer.unattributed_s for layer in layers)
    metrics["trace.overhead_frac"] = median(traced) / median(untraced) - 1.0
    metrics["obs.overhead_frac"] = (
        median(untraced) / median(plain) - 1.0 if workload.obs else 0.0
    )
    return metrics


#: Per-layer self-time metrics and the tracer layer each one reports.
SELF_TIMES = {
    "xmlutil.parse_self_s": "xmlutil.parse",
    "xmlutil.serialize_self_s": "xmlutil.serialize",
    "soap.codec_self_s": "soap.codec",
    "wsdl.parse_self_s": "wsdl.parse",
    "wsdl.generate_self_s": "wsdl.generate",
    "corba.codec_self_s": "corba.codec",
    "idl.parse_self_s": "idl.parse",
    "idl.generate_self_s": "idl.generate",
    "http.self_s": "http",
    "transport.self_s": "transport",
    "simnet.self_s": "simnet",
    "scheduler.run_self_s": "scheduler",
    "registry.select_self_s": "registry",
}

#: Deterministic work counts, reported as counted by the tracer.
COUNTS = (
    "protocols.prepare_calls",
    "protocols.rebind_calls",
    "http.fetches",
    "xmlutil.parse_calls",
    "xmlutil.parse_bytes",
    "xmlutil.serialize_calls",
    "soap.encode_calls",
    "soap.decode_calls",
    "wsdl.parse_calls",
    "wsdl.generate_calls",
    "corba.marshal_calls",
    "corba.marshal_bytes",
    "corba.unmarshal_calls",
    "corba.giop_calls",
    "idl.parse_calls",
    "idl.generate_calls",
    "http.messages",
    "http.bytes",
    "transport.resolves",
    "transport.deferreds",
    "simnet.messages",
    "simnet.bytes",
    "scheduler.events",
    "scheduler.schedule_calls",
    "servercore.charge_calls",
    "servercore.batch_jobs",
    "registry.select_calls",
    "cohort.flows",
    "sde.publications",
    "sde.ensure_current_calls",
    "sde.stalled_calls",
    "jpie.edits",
    "evolve.diff_calls",
)


def write_spans(tracer, name: str) -> None:
    """Write the last traced round's spans as JSON lines (one per span)."""
    SPAN_DIR.mkdir(exist_ok=True)
    names, layers = tracer.span_names, tracer.span_layers
    spans = tracer.spans()
    with open(SPAN_DIR / f"{name}.spans.jsonl", "w", encoding="utf-8") as out:
        for span, (name_id, parent, start, end) in enumerate(
            zip(spans.names, spans.parents, spans.starts, spans.ends)
        ):
            record = {
                "id": span,
                "name": names[name_id],
                "layer": layers[name_id],
                "parent": parent,
                "start": start,
                "end": end,
            }
            out.write(json.dumps(record) + "\n")


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in group}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "reduced"), default="full")
    args = parser.parse_args(argv)

    _import_program()
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    clients = workload.clients if args.scale == "full" else workload.reduced_clients
    expected = json.loads((Path(__file__).parent / "expected.json").read_text())
    declared = declared_metrics(bool(args.trace))

    bench = Bench(workload, clients, seed, expected)
    try:
        if args.trace:
            values = measure_per_layer(bench, args.seconds, f"{workload.name}-{args.scale}")
        else:
            values = measure_end_to_end(bench, args.seconds)
    finally:
        bench.close()
    if set(values) != set(declared):
        raise SystemExit(
            "perfbench: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(values))}, "
            f"undeclared {sorted(set(values) - set(declared))}"
        )

    print(f"# {workload.name} clients={clients} seed={seed} trace={args.trace}")
    if not args.trace:
        print(f"calls_failed_frac {bench.failed / bench.attempted:.6g} frac")
    for name, unit in declared.items():
        group = "count" if name in COUNTS else "metric"
        print(f"{group} {name} {values[name]:.6g} {unit}")
    for problem in bench.problems:
        print(f"# CHECK FAILED: {problem}")
    result = {
        "correct": not bench.problems and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in declared.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
