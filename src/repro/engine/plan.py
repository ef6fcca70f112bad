"""Declarative scenario plans: grids, Monte Carlo samples and composition.

A :class:`ScenarioPlan` declares a *structured* sweep — "scale March's
price by each factor in this list, crossed with these business-plan
factors", or "draw 1,000 price perturbations from this distribution" —
without materialising the individual :class:`~repro.engine.scenario.Scenario`
objects.  Plans lower lazily (:meth:`ScenarioPlan.lower` is a generator), so
a :func:`grid` with 10^6 points costs O(axes) memory until it is consumed,
and the batch layer (:meth:`repro.batch.BatchEvaluator.evaluate_plan`)
evaluates it in bounded-size chunks.

Every plan built from a shared ``base`` scenario emits scenarios whose
operation tuples literally share the base's operation objects, which is what
lets the batch layer's shared-delta factoring recognise the common prefix
and evaluate it once for the whole sweep
(:meth:`repro.batch.planner.ScenarioBatch.delta_plan` with ``prefix``).

The three constructors:

* :func:`grid` — the Cartesian product of :func:`axis` value lists;
* :func:`sample` — Monte Carlo points drawn from per-axis distributions
  with an **explicit** ``seed`` (no ambient RNG state);
* :func:`compose` — one base scenario prefixed onto a list of variants
  (or onto another plan's points).

:func:`plan_from_spec` builds any of them from a JSON-friendly dict — the
format the ``cobra sweep`` subcommand reads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.scenario import Scenario, VariableSelector
from repro.exceptions import ScenarioError

#: The operation kinds a plan axis may apply (the Scenario surface).
OPERATION_KINDS: Tuple[str, ...] = ("scale", "set")

#: Distribution kinds :func:`sample` axes may draw from.
DISTRIBUTION_KINDS: Tuple[str, ...] = ("uniform", "normal", "choice")


def _check_kind(kind: str) -> str:
    if kind not in OPERATION_KINDS:
        raise ScenarioError(
            f"axis kind must be one of {OPERATION_KINDS}, got {kind!r}"
        )
    return kind


def _selector_label(selector: VariableSelector) -> str:
    """A short human-readable rendering of a selector (for scenario names)."""
    if isinstance(selector, str):
        return selector
    if callable(selector):
        return getattr(selector, "__name__", "<predicate>")
    names = list(selector)
    if len(names) <= 2:
        return ",".join(names)
    return f"{names[0]},..x{len(names)}"


# ---------------------------------------------------------------------------
# Axes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Axis:
    """One grid dimension: an operation applied at each value of a list."""

    kind: str
    selector: VariableSelector
    values: Tuple[float, ...]
    label: str = ""

    def __post_init__(self) -> None:
        _check_kind(self.kind)
        if not self.values:
            raise ScenarioError("a grid axis needs at least one value")
        if self.kind == "scale" and any(v < 0 for v in self.values):
            raise ScenarioError("scale axis values must be non-negative")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def display(self) -> str:
        return self.label or _selector_label(self.selector)


def axis(
    kind: str,
    selector: VariableSelector,
    values: Sequence[float],
    label: str = "",
) -> Axis:
    """A grid axis: apply ``kind`` to ``selector`` at each of ``values``."""
    return Axis(kind, selector, tuple(float(v) for v in values), label)


@dataclass(frozen=True)
class Distribution:
    """A scalar distribution a :func:`sample` axis draws amounts from."""

    kind: str
    low: float = 0.0
    high: float = 1.0
    mean: float = 0.0
    std: float = 1.0
    choices: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in DISTRIBUTION_KINDS:
            raise ScenarioError(
                f"distribution kind must be one of {DISTRIBUTION_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.kind == "choice" and not self.choices:
            raise ScenarioError("a choice distribution needs at least one value")

    def draw(self, rng: np.random.Generator) -> float:
        """One draw (samples lower one scenario at a time, staying lazy)."""
        if self.kind == "uniform":
            return float(rng.uniform(self.low, self.high))
        if self.kind == "normal":
            return float(rng.normal(self.mean, self.std))
        return float(self.choices[int(rng.integers(0, len(self.choices)))])


def uniform(low: float, high: float) -> Distribution:
    """A uniform distribution over ``[low, high)``."""
    return Distribution("uniform", low=float(low), high=float(high))


def normal(mean: float, std: float) -> Distribution:
    """A normal distribution with the given mean and standard deviation."""
    return Distribution("normal", mean=float(mean), std=float(std))


def choice(values: Sequence[float]) -> Distribution:
    """A uniform draw over an explicit value list."""
    return Distribution("choice", choices=tuple(float(v) for v in values))


@dataclass(frozen=True)
class SampleAxis:
    """One Monte Carlo dimension: an operation with a sampled amount."""

    kind: str
    selector: VariableSelector
    distribution: Distribution
    label: str = ""

    def __post_init__(self) -> None:
        _check_kind(self.kind)

    @property
    def display(self) -> str:
        return self.label or _selector_label(self.selector)


def sample_axis(
    kind: str,
    selector: VariableSelector,
    distribution: Distribution,
    label: str = "",
) -> SampleAxis:
    """A sampled axis: apply ``kind`` to ``selector`` at drawn amounts."""
    return SampleAxis(kind, selector, distribution, label)


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


class ScenarioPlan:
    """A declarative, lazily-lowered description of a scenario sweep.

    Subclasses implement :meth:`lower` (a generator — a plan never holds all
    its scenarios at once) and ``__len__`` (the number of points, computed
    without materialising them), and carry a ``name``.  Iterating a plan is
    iterating its lowering.
    """

    name: str  # annotation only: subclasses are dataclasses with a name field

    def __len__(self) -> int:
        raise NotImplementedError

    def lower(self) -> Iterator[Scenario]:
        """Yield the plan's scenarios one at a time, in a deterministic order."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[Scenario]:
        return self.lower()

    def describe(self) -> Dict[str, object]:
        """A JSON-friendly summary of the plan (type, name, point count)."""
        return {
            "type": type(self).__name__,
            "name": self.name,
            "points": len(self),
        }

    def scenarios(self) -> Tuple[Scenario, ...]:
        """Materialise every point (convenience for small plans and tests)."""
        return tuple(self.lower())

    def _base_scenario(self) -> Optional[Scenario]:
        return getattr(self, "base", None)

    def _extend(self, scenario: Scenario, axis_: Union[Axis, SampleAxis],
                amount: float) -> Scenario:
        if axis_.kind == "scale":
            return scenario.scale(axis_.selector, amount)
        return scenario.set_value(axis_.selector, amount)


@dataclass(frozen=True)
class GridPlan(ScenarioPlan):
    """The Cartesian product of grid axes (optionally behind a base prefix)."""

    name: str
    axes: Tuple[Axis, ...]
    base: Optional[Scenario] = None

    def __len__(self) -> int:
        count = 1
        for ax in self.axes:
            count *= len(ax.values)
        return count

    def lower(self) -> Iterator[Scenario]:
        prefix = self.base.operations if self.base is not None else ()
        ranges = [range(len(ax.values)) for ax in self.axes]
        for index, picks in enumerate(itertools.product(*ranges)):
            parts = [
                f"{ax.display}={ax.values[i]:g}"
                for ax, i in zip(self.axes, picks)
            ]
            scenario = Scenario(
                f"{self.name}[{index}]", ", ".join(parts), prefix
            )
            for ax, i in zip(self.axes, picks):
                scenario = self._extend(scenario, ax, ax.values[i])
            yield scenario

    def describe(self) -> Dict[str, object]:
        summary = super().describe()
        summary["axes"] = [
            {"kind": ax.kind, "axis": ax.display, "values": len(ax.values)}
            for ax in self.axes
        ]
        summary["base_operations"] = (
            len(self.base.operations) if self.base is not None else 0
        )
        return summary


@dataclass(frozen=True)
class SamplePlan(ScenarioPlan):
    """``count`` Monte Carlo points drawn with an explicit ``seed``."""

    name: str
    axes: Tuple[SampleAxis, ...]
    count: int
    seed: int
    base: Optional[Scenario] = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ScenarioError("a sample plan needs count >= 1")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ScenarioError(
                "sample(...) requires an explicit integer seed — Monte Carlo "
                "sweeps must be reproducible, so there is no ambient default"
            )

    def __len__(self) -> int:
        return self.count

    def lower(self) -> Iterator[Scenario]:
        prefix = self.base.operations if self.base is not None else ()
        rng = np.random.default_rng(self.seed)
        for index in range(self.count):
            amounts = [ax.distribution.draw(rng) for ax in self.axes]
            if self.axes and any(
                ax.kind == "scale" and amount < 0
                for ax, amount in zip(self.axes, amounts)
            ):
                amounts = [
                    max(0.0, amount) if ax.kind == "scale" else amount
                    for ax, amount in zip(self.axes, amounts)
                ]
            parts = [
                f"{ax.display}={amount:g}"
                for ax, amount in zip(self.axes, amounts)
            ]
            scenario = Scenario(
                f"{self.name}[{index}]", ", ".join(parts), prefix
            )
            for ax, amount in zip(self.axes, amounts):
                scenario = self._extend(scenario, ax, amount)
            yield scenario

    def describe(self) -> Dict[str, object]:
        summary = super().describe()
        summary["seed"] = self.seed
        summary["axes"] = [
            {"kind": ax.kind, "axis": ax.display,
             "distribution": ax.distribution.kind}
            for ax in self.axes
        ]
        summary["base_operations"] = (
            len(self.base.operations) if self.base is not None else 0
        )
        return summary


@dataclass(frozen=True)
class ComposePlan(ScenarioPlan):
    """A base scenario prefixed onto every variant of a sweep.

    The emitted scenarios *share* the base's operation objects, so the batch
    layer's factoring recognises the common prefix even when the base uses
    callable selectors (which compare by identity).
    """

    name: str
    base: Scenario
    variants: Union[Tuple[Scenario, ...], ScenarioPlan]

    def __len__(self) -> int:
        return len(self.variants)

    def lower(self) -> Iterator[Scenario]:
        source: Iterator[Scenario] = iter(self.variants)
        for variant in source:
            yield Scenario(
                variant.name,
                variant.description,
                self.base.operations + variant.operations,
            )

    def describe(self) -> Dict[str, object]:
        summary = super().describe()
        summary["base_operations"] = len(self.base.operations)
        if isinstance(self.variants, ScenarioPlan):
            summary["variants"] = self.variants.describe()
        return summary


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def grid(
    *axes: Axis,
    name: str = "grid",
    base: Optional[Scenario] = None,
) -> GridPlan:
    """The Cartesian product of ``axes`` (optionally after ``base``'s ops)."""
    return GridPlan(name=name, axes=tuple(axes), base=base)


def sample(
    *axes: SampleAxis,
    count: int,
    seed: int,
    name: str = "sample",
    base: Optional[Scenario] = None,
) -> SamplePlan:
    """``count`` Monte Carlo points; ``seed`` is required, never ambient."""
    return SamplePlan(
        name=name, axes=tuple(axes), count=int(count), seed=seed, base=base
    )


def compose(
    base: Scenario,
    variants: Union[Sequence[Scenario], ScenarioPlan],
    name: str = "",
) -> ComposePlan:
    """Prefix ``base``'s operations onto every variant scenario (or plan point)."""
    resolved: Union[Tuple[Scenario, ...], ScenarioPlan]
    if isinstance(variants, ScenarioPlan):
        resolved = variants
        default_name = f"{base.name}+{variants.name}"
    else:
        resolved = tuple(variants)
        default_name = f"{base.name}+{len(resolved)} variants"
    return ComposePlan(name=name or default_name, base=base, variants=resolved)


# ---------------------------------------------------------------------------
# JSON specs (the `cobra sweep` wire format)
# ---------------------------------------------------------------------------


def _selector_from_spec(spec: Mapping[str, object]) -> VariableSelector:
    if "variables" in spec:
        names = spec["variables"]
        if isinstance(names, str):
            return names
        if isinstance(names, Sequence):
            return tuple(str(name) for name in names)
    if "variable" in spec:
        return str(spec["variable"])
    raise ScenarioError(
        "an axis/operation spec needs 'variables' (list) or 'variable' (name)"
    )


def _base_from_spec(
    operations: Sequence[Mapping[str, object]], name: str
) -> Optional[Scenario]:
    if not operations:
        return None
    scenario = Scenario(f"{name}-base")
    for op in operations:
        kind = _check_kind(str(op.get("op", "scale")))
        selector = _selector_from_spec(op)
        amount = float(op["amount"])  # type: ignore[arg-type]
        if kind == "scale":
            scenario = scenario.scale(selector, amount)
        else:
            scenario = scenario.set_value(selector, amount)
    return scenario


def _distribution_from_spec(spec: Mapping[str, object]) -> Distribution:
    kind = str(spec.get("kind", "uniform"))
    if kind == "uniform":
        return uniform(
            float(spec.get("low", 0.0)),  # type: ignore[arg-type]
            float(spec.get("high", 1.0)),  # type: ignore[arg-type]
        )
    if kind == "normal":
        return normal(
            float(spec.get("mean", 0.0)),  # type: ignore[arg-type]
            float(spec.get("std", 1.0)),  # type: ignore[arg-type]
        )
    if kind == "choice":
        values = spec.get("values", ())
        if not isinstance(values, Sequence) or isinstance(values, str):
            raise ScenarioError("a choice distribution spec needs 'values'")
        return choice([float(v) for v in values])
    raise ScenarioError(
        f"distribution kind must be one of {DISTRIBUTION_KINDS}, got {kind!r}"
    )


def plan_from_spec(spec: Mapping[str, object]) -> ScenarioPlan:
    """Build a plan from a JSON-friendly dict.

    Grid::

        {"type": "grid", "name": "march",
         "base": [{"op": "scale", "variables": ["p1"], "amount": 0.9}],
         "axes": [{"op": "scale", "variables": ["m3"],
                   "values": [0.8, 0.9, 1.0, 1.1]}]}

    Sample (the seed is mandatory)::

        {"type": "sample", "count": 500, "seed": 7,
         "axes": [{"op": "scale", "variables": ["m3"],
                   "distribution": {"kind": "uniform",
                                    "low": 0.8, "high": 1.2}}]}
    """
    plan_type = str(spec.get("type", "grid"))
    name = str(spec.get("name", plan_type))
    raw_axes = spec.get("axes", ())
    if not isinstance(raw_axes, Sequence) or isinstance(raw_axes, str):
        raise ScenarioError("a plan spec needs an 'axes' list")
    raw_base = spec.get("base", ())
    if not isinstance(raw_base, Sequence) or isinstance(raw_base, str):
        raise ScenarioError("'base' must be a list of operation specs")
    base = _base_from_spec(
        [op for op in raw_base if isinstance(op, Mapping)], name
    )

    if plan_type == "grid":
        axes_: List[Axis] = []
        for ax in raw_axes:
            if not isinstance(ax, Mapping):
                raise ScenarioError("each axis spec must be an object")
            values = ax.get("values")
            if not isinstance(values, Sequence) or isinstance(values, str):
                raise ScenarioError("a grid axis spec needs a 'values' list")
            axes_.append(
                axis(
                    str(ax.get("op", "scale")),
                    _selector_from_spec(ax),
                    [float(v) for v in values],
                    label=str(ax.get("label", "")),
                )
            )
        return grid(*axes_, name=name, base=base)

    if plan_type == "sample":
        if "seed" not in spec:
            raise ScenarioError(
                "a sample plan spec requires an explicit 'seed'"
            )
        sample_axes: List[SampleAxis] = []
        for ax in raw_axes:
            if not isinstance(ax, Mapping):
                raise ScenarioError("each axis spec must be an object")
            dist = ax.get("distribution")
            if not isinstance(dist, Mapping):
                raise ScenarioError(
                    "a sample axis spec needs a 'distribution' object"
                )
            sample_axes.append(
                sample_axis(
                    str(ax.get("op", "scale")),
                    _selector_from_spec(ax),
                    _distribution_from_spec(dist),
                    label=str(ax.get("label", "")),
                )
            )
        return sample(
            *sample_axes,
            count=int(spec.get("count", 1)),  # type: ignore[arg-type]
            seed=int(spec["seed"]),  # type: ignore[arg-type]
            name=name,
            base=base,
        )

    raise ScenarioError(
        f"plan type must be 'grid' or 'sample', got {plan_type!r}"
    )
