"""Client-side retry/failover policy for fleet clients.

The policy is deliberately tiny and fully deterministic: every quantity is
a fixed virtual-time constant, so two runs of the same scenario retry at
exactly the same instants.  It is consumed by the cluster fleet driver
(:mod:`repro.cluster.driver`): an attempt that fails at the transport level
(connection aborted by a crash, no alive replica, request timeout) is
reissued — the registry's failover-aware routing then steers the retry to a
replica that is still alive — until the attempt budget is exhausted and the
call is abandoned.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import require_finite


@dataclass(frozen=True)
class RetryPolicy:
    """How a fleet client reacts to failed or hung calls.

    ``max_attempts`` bounds the *total* attempts per call (1 = never retry);
    ``timeout`` is the per-attempt reply deadline in virtual seconds
    (``None`` = wait forever — only transport-level failures trigger a
    retry); ``backoff`` is the fixed virtual-time pause before a retry.
    """

    max_attempts: int = 3
    timeout: float | None = None
    backoff: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout is not None:
            require_finite(self.timeout, "timeout")
            if self.timeout <= 0:
                raise ValueError("timeout must be positive (or None)")
        require_finite(self.backoff, "backoff")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")
