"""Provenance capture parity with the fold-based executor, and its linear cost.

The executor adds up SUM/COUNT groups, DISTINCT duplicates and repeated
result keys with one n-ary :meth:`Polynomial.sum`, and joins with a unit
annotation return the other annotation unchanged.  The reference kept here
is the executor as it was before: ``total = total + contribution`` folds
and the general polynomial product.  Every capture must match it term for
term, coefficients compared by ``float.hex()`` and terms in insertion order.
"""

from __future__ import annotations

import operator
from functools import reduce
from numbers import Real
from typing import Dict

import pytest

from repro.db import CellParameterizationPolicy, executor
from repro.db.catalog import Catalog
from repro.db.executor import execute, to_provenance_set
from repro.db.expressions import col
from repro.db.query import Query
from repro.db.schema import ColumnType, Schema
from repro.db.sql import parse_sql
from repro.db.table import Table
from repro.exceptions import QueryError
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial
from repro.workloads.telephony import (
    TelephonyConfig,
    build_revenue_provenance,
    figure1_catalog,
    generate_telephony_catalog,
    revenue_query_sql,
)
from repro.workloads.tpch import TpchConfig, generate_tpch_catalog
from repro.workloads.tpch_queries import customer_variable, tpch_deletion_provenance


# ---------------------------------------------------------------------------
# The fold-based oracle
# ---------------------------------------------------------------------------


def _oracle_is_trivial(annotation):
    return not annotation.variables()


def _oracle_symbolic_sum(expression, members):
    total = Polynomial.zero()
    concrete = True
    for row in members:
        value = expression.evaluate(row.values)
        if isinstance(value, Polynomial):
            contribution = value * row.annotation
            concrete = False
        elif isinstance(value, Real):
            contribution = row.annotation.scale(float(value))
            if not _oracle_is_trivial(row.annotation):
                concrete = False
        else:
            raise QueryError(f"cannot SUM non-numeric value {value!r}")
        total = total + contribution
    if concrete:
        return total.constant_term()
    return total


def _oracle_symbolic_count(members):
    total = Polynomial.zero()
    concrete = True
    for row in members:
        total = total + row.annotation
        if not _oracle_is_trivial(row.annotation):
            concrete = False
    if concrete:
        return int(total.constant_term())
    return total


def _oracle_product(self, other):
    if isinstance(other, Real):
        return self.scale(float(other))
    if not isinstance(other, Polynomial):
        return NotImplemented
    product: Dict[Monomial, float] = {}
    for mono_a, coeff_a in self._terms.items():
        for mono_b, coeff_b in other._terms.items():
            key = mono_a * mono_b
            product[key] = product.get(key, 0.0) + coeff_a * coeff_b
    return Polynomial(product)


def _oracle_sum(cls, polynomials):
    return reduce(operator.add, polynomials, cls.zero())


@pytest.fixture
def fold_oracle(monkeypatch):
    """Run the executor with the fold-based aggregates and general product."""

    def install():
        monkeypatch.setattr(executor, "_symbolic_sum", _oracle_symbolic_sum)
        monkeypatch.setattr(executor, "_symbolic_count", _oracle_symbolic_count)
        monkeypatch.setattr(Polynomial, "__mul__", _oracle_product)
        monkeypatch.setattr(Polynomial, "__rmul__", _oracle_product)
        monkeypatch.setattr(Polynomial, "sum", classmethod(_oracle_sum))

    return install


def layout(provenance):
    """Keys and terms in insertion order, coefficients as ``float.hex()``."""
    return [
        (key, [(m, c.hex()) for m, c in polynomial._terms.items()])
        for key, polynomial in provenance.items()
    ]


def _telephony_sql(catalog):
    relation = execute(parse_sql(revenue_query_sql(), catalog), catalog)
    return to_provenance_set(relation, ["Zip"], "revenue")


def _instrumented_sql_catalog():
    """A small generated telephony catalog with instrumented prices."""
    catalog = generate_telephony_catalog(
        TelephonyConfig(num_customers=60, num_zips=5, months=(1, 2, 3, 4), seed=3)
    )
    policy = CellParameterizationPolicy(
        column="Price", namer=lambda row: (str(row["Plan"]).lower(), f"m{row['Mo']}")
    )
    instrumented = Catalog()
    instrumented.add(catalog.get("Cust"))
    instrumented.add(catalog.get("Calls"))
    instrumented.add(policy.apply(catalog.get("Plans")))
    return instrumented


def _tpch_catalog():
    return generate_tpch_catalog(TpchConfig(scale=0.0002, seed=1))


def _tpch_distinct_count(catalog):
    """DISTINCT over annotated customers, then COUNT and SUM per segment."""
    customers = {
        "CUSTOMER": lambda row: Polynomial.variable(customer_variable(row["C_CUSTKEY"]))
    }
    query = (
        Query.scan("ORDERS")
        .join(Query.scan("CUSTOMER"), on=[("O_CUSTKEY", "C_CUSTKEY")])
        .project(["C_MKTSEGMENT", "C_NATIONKEY"], distinct=True)
        .groupby(
            ["C_MKTSEGMENT"],
            [("n", "count", None), ("nations", "sum", col("C_NATIONKEY"))],
        )
    )
    relation = execute(query, catalog, annotations=customers)
    return [
        to_provenance_set(relation, ["C_MKTSEGMENT"], "n"),
        to_provenance_set(relation, ["C_MKTSEGMENT"], "nations"),
    ]


CAPTURES = {
    "figure1-revenue": lambda: [build_revenue_provenance(figure1_catalog())],
    "telephony-sql": lambda: [_telephony_sql(_instrumented_sql_catalog())],
    "tpch-deletion": lambda: [tpch_deletion_provenance(_tpch_catalog()).provenance],
    "tpch-distinct-count": lambda: _tpch_distinct_count(_tpch_catalog()),
}


@pytest.mark.parametrize("name", sorted(CAPTURES))
def test_capture_matches_the_fold_oracle(name, fold_oracle):
    captured = CAPTURES[name]()
    fold_oracle()
    expected = CAPTURES[name]()
    assert [layout(p) for p in captured] == [layout(p) for p in expected]
    assert [p.fingerprint() for p in captured] == [p.fingerprint() for p in expected]
    assert all(p.size() > 0 for p in captured)


def test_repeated_result_keys_sum_like_the_fold(fold_oracle):
    x, y = Polynomial.variable("x"), Polynomial.variable("y")
    catalog = Catalog()
    catalog.add(
        Table(
            "R",
            Schema.of(("k", ColumnType.STRING), ("p", ColumnType.SYMBOLIC)),
            [("a", x), ("b", y * 2.0), ("a", x * -1.0), ("a", x * 3.0 + y), ("b", x)],
        )
    )

    def capture():
        return to_provenance_set(execute(Query.scan("R"), catalog), ["k"], "p")

    captured = capture()
    fold_oracle()
    assert layout(captured) == layout(capture())
    # x cancels in group "a" at its second row; the third row brings it back.
    assert [m.to_text() for m, _ in layout(captured)[0][1]] == ["x", "y"]
    assert captured[("a",)] == x * 3.0 + y


# ---------------------------------------------------------------------------
# Linear cost, counted rather than timed
# ---------------------------------------------------------------------------


def test_sum_over_one_large_group_validates_linearly(monkeypatch):
    """One SUM group of n distinct monomials validates O(n) coefficients.

    Folding ``total = total + contribution`` rebuilds the running total at
    every row, validating about n^2/2 coefficients (~2M for n = 2,000).
    """
    n = 2000
    catalog = Catalog()
    catalog.add(
        Table(
            "T",
            Schema.of(
                ("g", ColumnType.STRING), ("id", ColumnType.INTEGER), ("v", ColumnType.FLOAT)
            ),
            [("all", i, float(i + 1)) for i in range(n)],
        )
    )
    validated = [0]
    construct = Polynomial.__init__

    def counting_init(self, terms=None):
        validated[0] += len(terms) if terms else 0
        construct(self, terms)

    monkeypatch.setattr(Polynomial, "__init__", counting_init)
    relation = execute(
        Query.scan("T").groupby(["g"], [("total", "sum", col("v"))]),
        catalog,
        annotations={"T": lambda row: Polynomial.variable(f"t{row['id']}")},
    )
    (row,) = relation.rows
    assert row["total"].num_monomials() == n
    assert validated[0] <= 4 * n
