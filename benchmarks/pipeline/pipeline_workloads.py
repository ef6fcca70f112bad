"""The four workloads of the pipeline benchmark.

A workload turns a seed into its whole input before anything is timed: the
raw data (a catalog for the two SQL workloads, generated provenance for the
other two) and the complete list of requests.  The harness in
``bench_pipeline.py`` then drives the public API through the set-up steps —
capture, compress, store write, store open — and answers requests in a
closed loop.  Each workload contributes only the pieces that differ:

* :meth:`Workload.capture` — the ``repro.db`` step that turns the catalog
  into provenance (the generated provenance itself where no SQL is involved);
* :meth:`Workload.open_session` — the session with its trees and bound;
* :meth:`Workload.answer` — one request, exactly the public calls an analyst
  makes for one what-if sweep.

Why these four (see README.md for the measured shares):

* ``telephony-sql`` — the paper's revenue query captured through the SQL
  engine, compressed by the greedy kernel over a two-tree forest, swept by
  Example 1's scenario shapes on the sparse path;
* ``tpch-deletion`` — Boolean deletion what-ifs over a wide variable
  universe, where every request re-compresses at a new bound, so
  compression sits on the request path;
* ``section4-plan`` — the Section 4 telephony provenance (scaled down, no
  SQL) swept by a composed plan, which auto evaluates factored;
* ``routing-outage`` — tropical routing provenance swept by outages touching
  a quarter of the trunks, the only workload on the dense side of auto's
  crossover and the only one sharded across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import (
    BatchEvaluator,
    BatchReport,
    CobraSession,
    Scenario,
    execute,
    parse_sql,
    to_provenance_set,
)
from repro.core import AbstractionForest
from repro.db import Catalog, CellParameterizationPolicy
from repro.engine import ScenarioPlan, compose
from repro.obs import trace
from repro.provenance import ProvenanceSet, VariableRegistry
from repro.workloads import (
    RoutingConfig,
    TelephonyConfig,
    TpchConfig,
    customer_nation_tree,
    generate_revenue_provenance,
    generate_routing_provenance,
    generate_telephony_catalog,
    generate_tpch_catalog,
    months_tree,
    plans_tree,
    revenue_query_sql,
    routing_base_costs,
    tpch_deletion_provenance,
    trunk_group_tree,
)
from repro.workloads.abstraction_trees import PLAN_VARIABLES
from repro.workloads.tpch_queries import customers_by_nation

PLAN_NAMES: Tuple[str, ...] = tuple(PLAN_VARIABLES.values())
MONTH_NAMES: Tuple[str, ...] = tuple(f"m{month}" for month in range(1, 13))


@dataclass(frozen=True)
class Request:
    """One request: its scenarios, plus the bound or plan it runs under."""

    scenarios: Tuple[Scenario, ...]
    bound_fraction: float = 0.0
    plan: Optional[ScenarioPlan] = None


class Workload:
    """Seeded inputs and the per-workload steps of one pipeline run.

    Subclasses generate their inputs in ``__init__`` (untimed) and set
    :attr:`requests`; the harness times everything else.
    """

    name = ""
    semiring = "real"
    #: Whether :meth:`capture` runs the ``repro.db`` executor.
    uses_db = False
    #: ``evaluate_many(processes=...)``; ``None`` answers in-process.
    processes = None
    #: ``BatchEvaluator(chunk_size=...)``; ``None`` sizes chunks by memory.
    chunk_size = None

    def __init__(self, seed: int, smoke: bool) -> None:
        self.rng = np.random.default_rng((seed, 0))
        self.requests: List[Request] = []

    def capture(self) -> ProvenanceSet:
        """The provenance the rest of the pipeline consumes."""
        raise NotImplementedError

    def input_rows(self) -> int:
        """Rows the ``repro.db`` capture reads (0 without SQL)."""
        return 0

    def open_session(self, provenance: ProvenanceSet) -> CobraSession:
        """A session over ``provenance`` with its trees and bound set."""
        raise NotImplementedError

    def compress(self, session: CobraSession) -> None:
        session.compress()

    def answer(
        self, session: CobraSession, request: Request, evaluator: BatchEvaluator
    ) -> BatchReport:
        """One request: the public calls behind one what-if sweep."""
        return session.evaluate_many(
            request.scenarios, evaluator=evaluator, processes=self.processes
        )


def _instrumented_telephony(catalog: Catalog) -> Catalog:
    """The catalog with every plan price parameterised by plan × month.

    The same cell instrumentation ``build_revenue_provenance`` applies, so
    the SQL text of the running example yields Example 2's polynomials.
    """

    def price_namer(row) -> Tuple[str, str]:
        return (PLAN_VARIABLES[str(row["Plan"])], f"m{int(row['Mo'])}")

    policy = CellParameterizationPolicy(
        column="Price", namer=price_namer, registry=VariableRegistry()
    )
    instrumented = Catalog()
    instrumented.add(catalog.get("Cust"))
    instrumented.add(catalog.get("Calls"))
    instrumented.add(policy.apply(catalog.get("Plans")))
    return instrumented


class TelephonySql(Workload):
    """The revenue query through the SQL engine; Example 1 sweeps."""

    name = "telephony-sql"
    uses_db = True

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        config = (
            TelephonyConfig(num_customers=110, num_zips=10, seed=seed)
            if smoke
            else TelephonyConfig(num_customers=900, num_zips=80, seed=seed)
        )
        self.catalog = _instrumented_telephony(generate_telephony_catalog(config))
        per_request = 20 if smoke else 200
        self.requests = [
            Request(tuple(self._scenario(i) for i in range(per_request)))
            for _ in range(100 if smoke else 200)
        ]

    def _scenario(self, index: int) -> Scenario:
        """Example 1's shapes: a month, a plan, or a plan in one month."""
        rng = self.rng
        factor = float(rng.uniform(0.75, 1.25))
        month = MONTH_NAMES[int(rng.integers(len(MONTH_NAMES)))]
        plan = PLAN_NAMES[int(rng.integers(len(PLAN_NAMES)))]
        selector = ([month], [plan], [plan, month])[index % 3]
        return Scenario(f"#{index} {','.join(selector)} x{factor:.3f}").scale(
            selector, factor
        )

    def capture(self) -> ProvenanceSet:
        relation = execute(parse_sql(revenue_query_sql(), self.catalog), self.catalog)
        return to_provenance_set(relation, ["Zip"], "revenue")

    def input_rows(self) -> int:
        return sum(len(self.catalog.get(name)) for name in ("Cust", "Calls", "Plans"))

    def open_session(self, provenance: ProvenanceSet) -> CobraSession:
        session = CobraSession(provenance)
        session.set_abstraction_trees(AbstractionForest([plans_tree(), months_tree()]))
        session.set_bound(provenance.size() // 8)
        return session

    def compress(self, session: CobraSession) -> None:
        session.compress(method="greedy")


class TpchDeletion(Workload):
    """Boolean deletions; every request re-compresses at its own bound."""

    name = "tpch-deletion"
    semiring = "bool"
    uses_db = True
    #: Request *i* compresses to ``BOUND_FRACTIONS[i % 5]`` of the monomials.
    BOUND_FRACTIONS = (0.2, 0.3, 0.4, 0.5, 0.6)

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        scale = 0.0002 if smoke else 0.002
        self.catalog = generate_tpch_catalog(TpchConfig(scale=scale, seed=seed))
        by_nation = customers_by_nation(self.catalog)
        self.nations = [sorted(by_nation[nation]) for nation in sorted(by_nation)]
        self.customers = sorted(name for names in self.nations for name in names)
        per_request = 16 if smoke else 64
        fractions = self.BOUND_FRACTIONS
        self.requests = [
            Request(
                tuple(self._scenario(i) for i in range(per_request)),
                bound_fraction=fractions[r % len(fractions)],
            )
            for r in range(100 if smoke else 200)
        ]

    def _scenario(self, index: int) -> Scenario:
        """Three random customers, or one whole nation, deleted."""
        rng = self.rng
        if index % 2:
            members = self.nations[int(rng.integers(len(self.nations)))]
            return Scenario(f"#{index} revoke nation").set_value(members, 0)
        picked = rng.choice(len(self.customers), size=3, replace=False)
        names = [self.customers[int(i)] for i in picked]
        return Scenario(f"#{index} delete {','.join(names)}").set_value(names, 0)

    def capture(self) -> ProvenanceSet:
        return tpch_deletion_provenance(self.catalog).provenance

    def input_rows(self) -> int:
        return sum(
            len(self.catalog.get(name)) for name in ("LINEITEM", "ORDERS", "CUSTOMER")
        )

    def open_session(self, provenance: ProvenanceSet) -> CobraSession:
        session = CobraSession(provenance, semiring=self.semiring)
        session.set_abstraction_trees(customer_nation_tree(self.catalog))
        session.set_bound(int(provenance.size() * self.requests[0].bound_fraction))
        return session

    def answer(
        self, session: CobraSession, request: Request, evaluator: BatchEvaluator
    ) -> BatchReport:
        session.set_bound(int(session.provenance.size() * request.bound_fraction))
        with trace("bench.core.compress"):
            session.compress()
        return session.evaluate_many(request.scenarios, evaluator=evaluator)


class Section4Plan(Workload):
    """The Section 4 telephony provenance swept by composed plans."""

    name = "section4-plan"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        config = (
            TelephonyConfig(num_customers=400, num_zips=20, seed=seed)
            if smoke
            else TelephonyConfig(num_customers=3500, num_zips=180, seed=seed)
        )
        self.provenance = generate_revenue_provenance(config)
        variants = 16 if smoke else 96
        self.requests = [self._request(variants) for _ in range(100 if smoke else 120)]

    def _request(self, variants: int) -> Request:
        """Every plan price scaled by its own factor, then one cell per variant."""
        rng = self.rng
        base = Scenario("base")
        for plan in PLAN_NAMES:
            base = base.scale([plan], float(rng.uniform(0.9, 0.99)))
        scenarios = []
        for index in range(variants):
            plan = PLAN_NAMES[int(rng.integers(len(PLAN_NAMES)))]
            month = MONTH_NAMES[int(rng.integers(len(MONTH_NAMES)))]
            factor = float(rng.uniform(0.8, 1.2))
            scenarios.append(
                Scenario(f"#{index} {plan},{month} x{factor:.3f}").scale(
                    [plan, month], factor
                )
            )
        plan = compose(base, scenarios)
        return Request(tuple(plan.lower()), plan=plan)

    def capture(self) -> ProvenanceSet:
        return self.provenance

    def open_session(self, provenance: ProvenanceSet) -> CobraSession:
        session = CobraSession(provenance)
        session.set_abstraction_trees(plans_tree())
        session.set_bound(provenance.size() // 3)
        return session

    def answer(
        self, session: CobraSession, request: Request, evaluator: BatchEvaluator
    ) -> BatchReport:
        return session.evaluate_plan(request.plan, evaluator=evaluator)


class RoutingOutage(Workload):
    """Tropical routing swept by regional outages on worker processes."""

    name = "routing-outage"
    semiring = "tropical"
    processes = 2

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.config = (
            RoutingConfig(num_zips=400, num_trunks=80, routes_per_zip=5, seed=seed)
            if smoke
            else RoutingConfig(num_zips=2500, num_trunks=400, routes_per_zip=5, seed=seed)
        )
        self.provenance = generate_routing_provenance(self.config)
        self.base_costs: Dict[str, float] = dict(routing_base_costs(self.config))
        trunks = sorted(self.base_costs)
        outage = len(trunks) // 4
        per_request = 8 if smoke else 48
        # Two dense chunks per request, one per worker: at this size the
        # memory-sized chunk would hold every scenario and never shard.
        self.chunk_size = per_request // self.processes
        self.requests = []
        for _ in range(100 if smoke else 120):
            scenarios = []
            for index in range(per_request):
                picked = self.rng.choice(len(trunks), size=outage, replace=False)
                scenarios.append(
                    Scenario(f"#{index} outage").scale(
                        [trunks[int(i)] for i in picked], 2.0
                    )
                )
            self.requests.append(Request(tuple(scenarios)))

    def capture(self) -> ProvenanceSet:
        return self.provenance

    def open_session(self, provenance: ProvenanceSet) -> CobraSession:
        session = CobraSession(
            provenance, base_valuation=self.base_costs, semiring=self.semiring
        )
        session.set_abstraction_trees(trunk_group_tree(self.config))
        session.set_bound(provenance.size() // 2)
        return session


WORKLOADS: Dict[str, type] = {
    workload.name: workload
    for workload in (TelephonySql, TpchDeletion, Section4Plan, RoutingOutage)
}
