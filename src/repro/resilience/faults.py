"""Deterministic, seeded fault injection for chaos testing.

Production code is sprinkled with *named injection sites* — one
:func:`fault_point` call per failure surface (``store.open``,
``store.read_block``, ``batch.shard``, ``batch.compile``,
``pool.bringup``).  With no plan installed the call is a single global
read plus an ``is None`` check, the same disabled-is-a-noop discipline as
the tracer, so hot paths pay nothing.

A :class:`FaultPlan` arms sites with :class:`FaultSpec` triggers.  Firing
is fully deterministic: each site draws from its own
``random.Random(crc32(site) ^ seed)`` stream (the built-in ``hash`` is
randomised per process and must never be used for this), and hit-indexed
triggers (``times=(0, 2)``) fire on exact call ordinals.  The same plan
over the same code path therefore injects the same faults every run —
which is what lets the chaos suite assert bit-identical recovery.

Plans cross process boundaries as plain dicts (:meth:`FaultPlan.to_spec`
/ :func:`plan_from_spec`) because the live object holds a lock; pool
workers re-arm themselves from the spec shipped with each shard task.  The
``COBRA_FAULTS`` environment variable (inline JSON or a path to a JSON
file) arms the process at import time via :func:`plan_from_env`.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import CobraError, SerializationError

#: The injection sites production code arms.  Plans may only name these —
#: a typo'd site would otherwise silently never fire.
KNOWN_SITES: Tuple[str, ...] = (
    "store.open",
    "store.read_block",
    "batch.shard",
    "batch.compile",
    "pool.bringup",
)

#: Environment variable holding a fault-plan spec (inline JSON or a path
#: to a JSON file).
FAULTS_ENV_VAR = "COBRA_FAULTS"


class FaultPlanError(CobraError):
    """Raised when a fault-plan spec is malformed."""


class InjectedFault(Exception):
    """Mix-in marking an exception as deliberately injected.

    Kept out of the :class:`~repro.exceptions.CobraError` hierarchy on
    purpose: injected faults must look exactly like the real failure they
    model, so each concrete type below multiple-inherits from the real
    exception class production code already catches.
    """


class InjectedIOError(InjectedFault, OSError):
    """An injected I/O failure (models a flaky read/open)."""


class InjectedCorruption(InjectedFault, SerializationError):
    """An injected store-corruption failure (models a bad checksum)."""


class InjectedWorkerError(InjectedFault, RuntimeError):
    """An injected in-worker crash (models a genuine worker bug)."""


_KIND_EXCEPTIONS: Dict[str, type] = {
    "io": InjectedIOError,
    "corruption": InjectedCorruption,
    "worker": InjectedWorkerError,
}


@dataclass(frozen=True)
class FaultSpec:
    """One armed trigger at one site.

    ``kind`` selects the failure mode: ``"io"`` raises
    :class:`InjectedIOError`, ``"corruption"`` raises
    :class:`InjectedCorruption`, ``"worker"`` raises
    :class:`InjectedWorkerError`, and ``"stall"`` sleeps ``seconds`` (to
    trip shard deadlines) instead of raising.

    ``times`` fires on exact zero-based call ordinals at the site;
    ``rate`` fires probabilistically from the site's seeded stream.  At
    least one must be set.  ``max_fires`` bounds total firings so retry
    loops provably converge under injection.
    """

    site: str
    kind: str = "io"
    times: Tuple[int, ...] = ()
    rate: float = 0.0
    max_fires: int = 1
    seconds: float = 0.0
    message: str = ""

    def __post_init__(self) -> None:
        if self.site not in KNOWN_SITES:
            raise FaultPlanError(
                f"unknown fault site {self.site!r}; known sites: "
                + ", ".join(KNOWN_SITES)
            )
        if self.kind not in _KIND_EXCEPTIONS and self.kind != "stall":
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of "
                + ", ".join((*_KIND_EXCEPTIONS, "stall"))
            )
        if not self.times and self.rate <= 0.0:
            raise FaultPlanError(
                f"fault at {self.site!r} arms neither `times` nor `rate`"
            )
        if self.max_fires < 1:
            raise FaultPlanError("max_fires must be at least 1")

    def to_dict(self) -> Dict[str, Any]:
        """The picklable/JSON form :func:`plan_from_spec` accepts back."""
        return {
            "site": self.site,
            "kind": self.kind,
            "times": list(self.times),
            "rate": self.rate,
            "max_fires": self.max_fires,
            "seconds": self.seconds,
            "message": self.message,
        }

    def build_exception(self) -> BaseException:
        """The exception instance this spec injects when it fires."""
        text = self.message or f"injected {self.kind} fault at {self.site}"
        return _KIND_EXCEPTIONS[self.kind](text)


@dataclass
class _SiteState:
    """Mutable per-site firing state inside a live plan."""

    specs: List[FaultSpec]
    rng: random.Random
    calls: int = 0
    fired: Dict[int, int] = field(default_factory=dict)


class FaultPlan:
    """A set of armed fault triggers, deterministic under ``seed``.

    Not picklable (it holds a lock); ship :meth:`to_spec` across process
    boundaries and rebuild with :func:`plan_from_spec`.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0) -> None:
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._sites: Dict[str, _SiteState] = {}
        for spec in specs:
            state = self._sites.get(spec.site)
            if state is None:
                state = _SiteState(
                    specs=[],
                    rng=random.Random(zlib.crc32(spec.site.encode("utf-8")) ^ self.seed),
                )
                self._sites[spec.site] = state
            state.specs.append(spec)

    # -- introspection -------------------------------------------------------

    @property
    def specs(self) -> Tuple[FaultSpec, ...]:
        """Every armed spec, in arming order."""
        return tuple(s for state in self._sites.values() for s in state.specs)

    def fire_counts(self) -> Dict[str, int]:
        """Total fires per site so far (for test assertions)."""
        with self._lock:
            return {
                site: sum(state.fired.values())
                for site, state in self._sites.items()
                if state.fired
            }

    def to_spec(self) -> Dict[str, Any]:
        """A plain-dict form safe to pickle into pool workers or dump as
        JSON for ``COBRA_FAULTS``."""
        return {
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.specs],
        }

    # -- the hot path --------------------------------------------------------

    def check(self, site: str) -> Optional[FaultSpec]:
        """Advance ``site``'s call counter; the spec that fires, if any.

        Stall specs are returned too — :func:`fault_point` performs the
        sleep so this stays side-effect-free for direct testing.
        """
        state = self._sites.get(site)
        if state is None:
            return None
        with self._lock:
            ordinal = state.calls
            state.calls += 1
            for index, spec in enumerate(state.specs):
                if state.fired.get(index, 0) >= spec.max_fires:
                    continue
                hit = ordinal in spec.times
                if not hit and spec.rate > 0.0:
                    hit = state.rng.random() < spec.rate
                if hit:
                    state.fired[index] = state.fired.get(index, 0) + 1
                    return spec
        return None

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, specs={len(self.specs)})"


#: The installed plan; ``None`` means every fault_point is a noop check.
_ACTIVE_PLAN: Optional[FaultPlan] = None


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` process-wide (``None`` disarms everything)."""
    global _ACTIVE_PLAN
    _ACTIVE_PLAN = plan


def clear_plan() -> None:
    """Disarm fault injection for this process."""
    install_plan(None)


def active_plan() -> Optional[FaultPlan]:
    """The currently installed plan, if any."""
    return _ACTIVE_PLAN


def active_plan_spec() -> Optional[Dict[str, Any]]:
    """The installed plan as a picklable spec, for shipping to workers."""
    plan = _ACTIVE_PLAN
    return None if plan is None else plan.to_spec()


@contextmanager
def fault_plan(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the duration of a ``with`` block."""
    previous = _ACTIVE_PLAN
    install_plan(plan)
    try:
        yield plan
    finally:
        install_plan(previous)


def fault_point(site: str, **context: Any) -> None:
    """Declare a named injection site.

    With no plan installed this is one global load and an ``is None``
    test.  With a plan armed at ``site``, raises the injected exception
    (or sleeps, for ``stall`` specs) when a trigger fires; the fire is
    counted under ``resilience.injected_faults`` so chaos runs can assert
    their faults actually happened.  ``context`` is recorded on the
    injected exception as ``fault_context`` for debugging.
    """
    plan = _ACTIVE_PLAN
    if plan is None:
        return
    spec = plan.check(site)
    if spec is None:
        return
    from repro.obs.metrics import get_registry

    get_registry().inc(f"resilience.injected_faults.{site}")
    if spec.kind == "stall":
        time.sleep(spec.seconds)
        return
    exc = spec.build_exception()
    exc.fault_context = dict(context)  # type: ignore[attr-defined]
    raise exc


# -- spec parsing ------------------------------------------------------------


def plan_from_spec(spec: Mapping[str, Any]) -> FaultPlan:
    """Rebuild a :class:`FaultPlan` from :meth:`FaultPlan.to_spec` output
    (or hand-written JSON of the same shape)."""
    if not isinstance(spec, Mapping):
        raise FaultPlanError("fault-plan spec must be a JSON object")
    raw_faults = spec.get("faults")
    if not isinstance(raw_faults, Sequence) or isinstance(raw_faults, (str, bytes)):
        raise FaultPlanError("fault-plan spec needs a `faults` array")
    specs: List[FaultSpec] = []
    for entry in raw_faults:
        if not isinstance(entry, Mapping):
            raise FaultPlanError("each fault entry must be a JSON object")
        unknown = set(entry) - {
            "site", "kind", "times", "rate", "max_fires", "seconds", "message",
        }
        if unknown:
            raise FaultPlanError(
                "unknown fault entry keys: " + ", ".join(sorted(unknown))
            )
        if "site" not in entry:
            raise FaultPlanError("fault entry is missing `site`")
        specs.append(
            FaultSpec(
                site=str(entry["site"]),
                kind=str(entry.get("kind", "io")),
                times=tuple(int(t) for t in entry.get("times", ())),
                rate=float(entry.get("rate", 0.0)),
                max_fires=int(entry.get("max_fires", 1)),
                seconds=float(entry.get("seconds", 0.0)),
                message=str(entry.get("message", "")),
            )
        )
    return FaultPlan(specs, seed=int(spec.get("seed", 0)))


def plan_from_env(environ: Optional[Mapping[str, str]] = None) -> Optional[FaultPlan]:
    """The plan armed by ``COBRA_FAULTS``, if the variable is set.

    The value is inline JSON (starts with ``{``) or a path to a JSON
    file.  Returns ``None`` when unset or blank.
    """
    env = os.environ if environ is None else environ
    raw = env.get(FAULTS_ENV_VAR, "").strip()
    if not raw:
        return None
    if not raw.startswith("{"):
        try:
            with open(raw, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError as exc:
            raise FaultPlanError(
                f"{FAULTS_ENV_VAR} names an unreadable file: {exc}"
            ) from exc
    try:
        spec = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FaultPlanError(f"{FAULTS_ENV_VAR} holds invalid JSON: {exc}") from exc
    return plan_from_spec(spec)


def arm_from_env() -> Optional[FaultPlan]:
    """Install the ``COBRA_FAULTS`` plan (noop when unset); the plan."""
    plan = plan_from_env()
    if plan is not None:
        install_plan(plan)
    return plan
