"""Retry policy: bounded attempts, exponential backoff, seeded jitter.

All retry behaviour in the codebase routes through :class:`RetryPolicy`
(cobralint rule CL007 forbids ad-hoc ``try/except``-retry loops and bare
``time.sleep`` calls in loops elsewhere).  The policy is deliberately
small: ``attempts`` bounds the loop, backoff grows ``base * factor**n``
capped at ``max_backoff``, and jitter is drawn from a seeded stream so a
chaos run retries on the same schedule every time.

``shard_timeout`` is not used by :meth:`run` — it is the per-shard
wall-clock deadline the batch evaluator applies to pool futures, carried
here so one object holds the whole retry posture of an evaluation.

``COBRA_RETRY`` (JSON object, e.g. ``{"attempts": 4, "backoff": 0.05}``)
overrides the defaults process-wide via :func:`policy_from_env`.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Tuple, TypeVar

from repro.exceptions import CobraError

T = TypeVar("T")

#: Environment variable holding RetryPolicy overrides as a JSON object.
RETRY_ENV_VAR = "COBRA_RETRY"


class RetryError(CobraError):
    """Raised when a retry policy is misconfigured."""


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to try, and how long to wait between tries.

    ``attempts`` counts total tries (1 = no retries).  Backoff before
    retry *n* (1-based) is ``backoff * factor**(n-1)`` capped at
    ``max_backoff``, plus uniform jitter in ``[0, jitter]`` drawn from a
    stream seeded with ``seed`` — deterministic schedules keep chaos
    tests reproducible.  ``shard_timeout`` is the per-shard future
    deadline (seconds; ``None`` = wait forever) the evaluator enforces.
    """

    attempts: int = 3
    backoff: float = 0.01
    factor: float = 2.0
    max_backoff: float = 0.25
    jitter: float = 0.005
    shard_timeout: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise RetryError("attempts must be at least 1")
        if self.backoff < 0 or self.max_backoff < 0 or self.jitter < 0:
            raise RetryError("backoff, max_backoff and jitter must be >= 0")
        if self.factor < 1.0:
            raise RetryError("factor must be >= 1.0")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise RetryError("shard_timeout must be positive (or None)")

    def delays(self) -> Tuple[float, ...]:
        """The backoff delay before each retry (``attempts - 1`` values)."""
        rng = random.Random(self.seed)
        out = []
        for retry in range(self.attempts - 1):
            base = min(self.backoff * self.factor**retry, self.max_backoff)
            out.append(base + (rng.uniform(0.0, self.jitter) if self.jitter else 0.0))
        return tuple(out)

    def run(
        self,
        func: Callable[[], T],
        *,
        retryable: Tuple[type, ...],
        give_up: Tuple[type, ...] = (),
        site: str = "call",
        sleep: Callable[[float], None] = time.sleep,
    ) -> T:
        """Call ``func`` under this policy; its result.

        Exceptions matching ``give_up`` (checked first) and anything not
        in ``retryable`` propagate immediately.  Each retry bumps the
        ``resilience.retries`` counter (and a per-site one); the final
        failure re-raises the last exception.
        """
        delays = self.delays()
        for attempt in range(self.attempts):
            try:
                return func()
            except give_up:
                raise
            except retryable as exc:
                if attempt + 1 >= self.attempts:
                    raise
                from repro.obs.metrics import get_registry

                registry = get_registry()
                registry.inc("resilience.retries")
                registry.inc(f"resilience.retries.{site}")
                from repro.resilience.events import record_degradation

                record_degradation(
                    f"{site} attempt {attempt + 1}/{self.attempts} failed "
                    f"({type(exc).__name__}: {exc}); retrying"
                )
                if delays[attempt] > 0:
                    sleep(delays[attempt])
        raise AssertionError("unreachable: run() returns or re-raises")

    def to_dict(self) -> dict:
        """A JSON-serialisable form (round-trips via :func:`policy_from_spec`)."""
        return {
            "attempts": self.attempts,
            "backoff": self.backoff,
            "factor": self.factor,
            "max_backoff": self.max_backoff,
            "jitter": self.jitter,
            "shard_timeout": self.shard_timeout,
            "seed": self.seed,
        }


#: The policy used when a caller does not supply one and the environment
#: does not override it.
DEFAULT_RETRY_POLICY = RetryPolicy()

_FIELD_TYPES: Mapping[str, Callable[[Any], Any]] = {
    "attempts": int,
    "backoff": float,
    "factor": float,
    "max_backoff": float,
    "jitter": float,
    "shard_timeout": lambda v: None if v is None else float(v),
    "seed": int,
}


def policy_from_spec(spec: Mapping[str, Any]) -> RetryPolicy:
    """A :class:`RetryPolicy` from a (possibly partial) JSON object."""
    unknown = set(spec) - set(_FIELD_TYPES)
    if unknown:
        raise RetryError("unknown retry-policy keys: " + ", ".join(sorted(unknown)))
    kwargs = {name: _FIELD_TYPES[name](value) for name, value in spec.items()}
    return RetryPolicy(**kwargs)


def policy_from_env(environ: Optional[Mapping[str, str]] = None) -> RetryPolicy:
    """The default policy, with ``COBRA_RETRY`` JSON overrides applied."""
    env = os.environ if environ is None else environ
    raw = env.get(RETRY_ENV_VAR, "").strip()
    if not raw:
        return DEFAULT_RETRY_POLICY
    try:
        spec = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise RetryError(f"{RETRY_ENV_VAR} holds invalid JSON: {exc}") from exc
    if not isinstance(spec, Mapping):
        raise RetryError(f"{RETRY_ENV_VAR} must hold a JSON object")
    return policy_from_spec(spec)
