"""The 4×256 fault drill is byte-identical across interpreter processes.

In-process reruns share interpreter state (string hashes, id counters,
module-level caches), so they cannot catch a result that depends on it.
This test runs the acceptance drill in two fresh interpreters with
different ``PYTHONHASHSEED`` values and compares the full
:meth:`~repro.cluster.ClusterReport.fingerprint` of both runs; ``repr``
keeps every float byte-exact.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = str(REPO_ROOT / "src")

_FINGERPRINT_SCRIPT = """
from repro.cluster.presets import fault_drill_scenario

print(repr(fault_drill_scenario(256).run().fingerprint()))
"""


def _fingerprint_in_subprocess(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed)
    probe = subprocess.run(
        [sys.executable, "-c", _FINGERPRINT_SCRIPT],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert probe.returncode == 0, probe.stderr
    return probe.stdout


def test_fault_drill_fingerprint_is_identical_across_processes():
    first = _fingerprint_in_subprocess("1")
    second = _fingerprint_in_subprocess("2")
    assert first.startswith("(")
    assert first == second


def test_public_modules_reexport_the_traced_classes():
    """The per-layer benchmark tracer wraps the implementation modules by
    path; that only measures real runs while the public modules hand out
    the very same classes."""
    from repro.net import _simnet_impl, simnet
    from repro.sim import _scheduler_impl, scheduler

    assert scheduler.Scheduler is _scheduler_impl.Scheduler
    assert scheduler.Event is _scheduler_impl.Event
    assert scheduler.EventStream is _scheduler_impl.EventStream
    assert simnet.Network is _simnet_impl.Network
    assert simnet.Message is _simnet_impl.Message
