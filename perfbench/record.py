"""Record the expected fingerprint digests of every workload.

Usage, from the root of a checkout::

    python3 perfbench/record.py            # print the digests
    python3 perfbench/record.py --write    # also rewrite expected.json

Each digest comes from a plain ``Scenario.run()`` of the workload on the
default seed, at full and at reduced scale, with nothing wrapped.  Record
again only when a change is meant to alter simulated results.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import _import_program

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    _import_program()
    from workloads import DEFAULT_SEED, WORKLOADS, cohort_digest, fingerprint_digest

    expected = {}
    for workload in WORKLOADS.values():
        for clients in (workload.clients, workload.reduced_clients):
            report = workload.declare(clients, DEFAULT_SEED).run(
                obs=True if workload.obs else None
            )
            entry = {"fingerprint": fingerprint_digest(report)}
            if report.cohorts:
                entry["cohort"] = cohort_digest(report)
            expected[f"{workload.name}@{clients}"] = entry
            print(workload.name, clients, entry, flush=True)
    if args.write:
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
