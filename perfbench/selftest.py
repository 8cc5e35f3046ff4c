"""Self-test of the benchmark: every workload, reduced scale, two seeds.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

For each workload it runs ``run.py`` at ``--scale reduced`` on the default
seed and on one other seed, untraced and twice traced, and checks that:

* every run reports ``correct`` with no failed call;
* the printed metric names and units are exactly those of ``BENCHMARK.json``;
* the two traced runs report identical deterministic counts;
* on the default seed, the recorded digests match a plain ``Scenario.run()``.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OTHER_SEED = 7


def run(workload: str, seed: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
        "--scale", "reduced",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def main() -> int:
    sys.path.insert(0, str(HERE))
    from run import COUNTS, _import_program, declared_metrics

    _import_program()
    from workloads import DEFAULT_SEED, WORKLOADS, cohort_digest, fingerprint_digest

    expected = json.loads((HERE / "expected.json").read_text())
    for workload in WORKLOADS.values():
        clients = workload.reduced_clients
        report = workload.declare(clients, DEFAULT_SEED).run(obs=True if workload.obs else None)
        entry = expected[f"{workload.name}@{clients}"]
        check(entry["fingerprint"] == fingerprint_digest(report),
              f"{workload.name}: expected.json digest differs from a plain run")
        if report.cohorts:
            check(entry["cohort"] == cohort_digest(report),
                  f"{workload.name}: expected.json cohort digest differs from a plain run")
        for seed in (DEFAULT_SEED, OTHER_SEED):
            for trace in (0, 1):
                results = [run(workload.name, seed, trace) for _ in range(1 + trace)]
                declared = declared_metrics(bool(trace))
                for result in results:
                    where = f"{workload.name} seed={seed} trace={trace}"
                    check(result["correct"] and result["failed"] == 0, f"{where}: {result}")
                    check(result["attempted"] >= 1, f"{where}: nothing attempted")
                    printed = {name: value["unit"] for name, value in result["metrics"].items()}
                    check(printed == declared, f"{where}: metrics differ from BENCHMARK.json")
                if trace:
                    first, second = ({name: r["metrics"][name]["value"] for name in COUNTS}
                                     for r in results)
                    check(first == second, f"{where}: counts differ between traced runs")
            print(f"ok {workload.name} seed={seed}", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
