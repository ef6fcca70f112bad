"""Unit tests for the provenance-propagating executor."""

import pytest

from repro.exceptions import QueryError, SchemaError
from repro.db.catalog import Catalog
from repro.db.executor import execute, to_provenance_set
from repro.db.expressions import col, const
from repro.db.query import Query
from repro.db.schema import ColumnType, Schema
from repro.db.table import Table
from repro.obs import get_tracer
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial
from repro.workloads.telephony import build_revenue_provenance, figure1_catalog


@pytest.fixture
def catalog():
    catalog = Catalog()
    catalog.add(
        Table(
            "R",
            Schema.of(("k", ColumnType.INTEGER), ("v", ColumnType.FLOAT), ("tag", ColumnType.STRING)),
            [(1, 10.0, "a"), (2, 20.0, "b"), (3, 30.0, "a"), (2, 5.0, "b")],
        )
    )
    catalog.add(
        Table(
            "S",
            Schema.of(("k", ColumnType.INTEGER), ("w", ColumnType.FLOAT)),
            [(1, 1.0), (2, 2.0), (4, 4.0)],
        )
    )
    return catalog


def annotate_by_key(prefix):
    return lambda row: Polynomial.variable(f"{prefix}{row['k']}")


class TestScanFilterProject:
    def test_scan(self, catalog):
        relation = execute(Query.scan("R"), catalog)
        assert len(relation) == 4
        assert relation.schema.names() == ("k", "v", "tag")

    def test_scan_with_tuple_annotations(self, catalog):
        relation = execute(
            Query.scan("S"), catalog, annotations={"S": annotate_by_key("s")}
        )
        assert relation.rows[0].annotation == Polynomial.variable("s1")

    def test_filter(self, catalog):
        relation = execute(Query.scan("R").filter(col("v") > 15.0), catalog)
        assert sorted(row["v"] for row in relation) == [20.0, 30.0]

    def test_filter_keeps_annotations(self, catalog):
        relation = execute(
            Query.scan("S").filter(col("w") >= 2.0),
            catalog,
            annotations={"S": annotate_by_key("s")},
        )
        assert {row.annotation.to_text() for row in relation} == {"s2", "s4"}

    def test_project_plain(self, catalog):
        relation = execute(Query.scan("R").project(["tag", "v"]), catalog)
        assert relation.schema.names() == ("tag", "v")

    def test_project_computed(self, catalog):
        relation = execute(
            Query.scan("R").project([("doubled", col("v") * 2.0)]), catalog
        )
        assert sorted(row["doubled"] for row in relation) == [10.0, 20.0, 40.0, 60.0]

    def test_project_distinct_sums_annotations(self, catalog):
        relation = execute(
            Query.scan("R").project(["tag"], distinct=True),
            catalog,
            annotations={"R": lambda row: Polynomial.variable(f"r{row['k']}_{row['v']:g}")},
        )
        assert len(relation) == 2
        by_tag = {row["tag"]: row.annotation for row in relation}
        # tag "a" was produced by two tuples: annotations add up.
        assert by_tag["a"].num_monomials() == 2

    def test_rename(self, catalog):
        relation = execute(Query.scan("S").rename({"w": "weight"}), catalog)
        assert relation.schema.names() == ("k", "weight")
        assert relation.rows[0]["weight"] == 1.0

    def test_rename_unknown_column_raises(self, catalog):
        with pytest.raises(Exception):
            execute(Query.scan("S").rename({"nope": "x"}), catalog)


class TestJoin:
    def test_equi_join_same_name_drops_duplicate_column(self, catalog):
        relation = execute(
            Query.scan("R").join(Query.scan("S"), on=[("k", "k")]), catalog
        )
        assert relation.schema.names() == ("k", "v", "tag", "w")
        # keys 1, 2, 2 match (key 3 has no S partner; S key 4 unmatched)
        assert len(relation) == 3

    def test_join_multiplies_annotations(self, catalog):
        relation = execute(
            Query.scan("R").join(Query.scan("S"), on=[("k", "k")]),
            catalog,
            annotations={"R": annotate_by_key("r"), "S": annotate_by_key("s")},
        )
        k1_row = next(row for row in relation if row["k"] == 1)
        assert k1_row.annotation.coefficient(Monomial.of("r1", "s1")) == pytest.approx(1.0)

    def test_join_with_extra_condition(self, catalog):
        relation = execute(
            Query.scan("R").join(
                Query.scan("S"), on=[("k", "k")], condition=col("v") > 10.0
            ),
            catalog,
        )
        assert all(row["v"] > 10.0 for row in relation)

    def test_join_on_differently_named_columns_keeps_both(self, catalog):
        renamed = Query.scan("S").rename({"k": "sk"})
        relation = execute(
            Query.scan("R").join(renamed, on=[("k", "sk")]), catalog
        )
        assert "sk" in relation.schema.names()

    def test_join_with_clashing_non_join_columns_raises(self, catalog):
        # Both R and S have column "k" but we join on v=w, leaving two "k"s.
        with pytest.raises(SchemaError):
            execute(
                Query.scan("R").join(Query.scan("S"), on=[("v", "w")]), catalog
            )


class TestUnion:
    def test_union_concatenates(self, catalog):
        query = Query.scan("S").union(Query.scan("S"))
        assert len(execute(query, catalog)) == 6

    def test_union_requires_same_columns(self, catalog):
        with pytest.raises(SchemaError):
            execute(Query.scan("R").union(Query.scan("S")), catalog)


class TestGroupBy:
    def test_sum_concrete(self, catalog):
        relation = execute(
            Query.scan("R").groupby(["tag"], [("total", "sum", col("v"))]), catalog
        )
        totals = {row["tag"]: row["total"] for row in relation}
        assert totals == {"a": pytest.approx(40.0), "b": pytest.approx(25.0)}

    def test_count(self, catalog):
        relation = execute(
            Query.scan("R").groupby(["tag"], [("n", "count", None)]), catalog
        )
        counts = {row["tag"]: row["n"] for row in relation}
        assert counts == {"a": 2, "b": 2}

    def test_min_max_avg(self, catalog):
        relation = execute(
            Query.scan("R").groupby(
                ["tag"],
                [
                    ("lo", "min", col("v")),
                    ("hi", "max", col("v")),
                    ("mean", "avg", col("v")),
                ],
            ),
            catalog,
        )
        row_a = next(row for row in relation if row["tag"] == "a")
        assert row_a["lo"] == pytest.approx(10.0)
        assert row_a["hi"] == pytest.approx(30.0)
        assert row_a["mean"] == pytest.approx(20.0)

    def test_sum_with_tuple_annotations_is_symbolic(self, catalog):
        relation = execute(
            Query.scan("R").groupby(["tag"], [("total", "sum", col("v"))]),
            catalog,
            annotations={"R": annotate_by_key("r")},
        )
        row_a = next(row for row in relation if row["tag"] == "a")
        assert isinstance(row_a["total"], Polynomial)
        assert row_a["total"].coefficient(Monomial.of("r1")) == pytest.approx(10.0)
        assert row_a["total"].coefficient(Monomial.of("r3")) == pytest.approx(30.0)

    def test_count_with_tuple_annotations_is_symbolic(self, catalog):
        relation = execute(
            Query.scan("R").groupby(["tag"], [("n", "count", None)]),
            catalog,
            annotations={"R": annotate_by_key("r")},
        )
        row_b = next(row for row in relation if row["tag"] == "b")
        assert isinstance(row_b["n"], Polynomial)
        # Both "b" tuples have key 2, so the annotation r2 appears twice.
        assert row_b["n"].coefficient(Monomial.of("r2")) == pytest.approx(2.0)

    def test_sum_over_symbolic_cells(self):
        catalog = Catalog()
        catalog.add(
            Table(
                "T",
                Schema.of(("g", ColumnType.STRING), ("x", ColumnType.SYMBOLIC)),
                [("a", Polynomial.from_terms([(2.0, ["u"])])), ("a", 3.0)],
            )
        )
        relation = execute(
            Query.scan("T").groupby(["g"], [("total", "sum", col("x"))]), catalog
        )
        total = relation.rows[0]["total"]
        assert isinstance(total, Polynomial)
        assert total.coefficient(Monomial.of("u")) == pytest.approx(2.0)
        assert total.constant_term() == pytest.approx(3.0)

    def test_min_over_symbolic_raises(self):
        catalog = Catalog()
        catalog.add(
            Table(
                "T",
                Schema.of(("g", ColumnType.STRING), ("x", ColumnType.SYMBOLIC)),
                [("a", Polynomial.variable("u"))],
            )
        )
        with pytest.raises(QueryError):
            execute(
                Query.scan("T").groupby(["g"], [("lo", "min", col("x"))]), catalog
            )

    def test_sum_non_numeric_raises(self, catalog):
        with pytest.raises(QueryError):
            execute(
                Query.scan("R").groupby(["k"], [("t", "sum", col("tag"))]), catalog
            )


class TestToProvenanceSet:
    def test_wraps_numbers_as_constants(self, catalog):
        relation = execute(
            Query.scan("R").groupby(["tag"], [("total", "sum", col("v"))]), catalog
        )
        provenance = to_provenance_set(relation, ["tag"], "total")
        assert provenance[("a",)].constant_term() == pytest.approx(40.0)

    def test_keeps_polynomials(self, catalog):
        relation = execute(
            Query.scan("R").groupby(["tag"], [("total", "sum", col("v"))]),
            catalog,
            annotations={"R": annotate_by_key("r")},
        )
        provenance = to_provenance_set(relation, ["tag"], "total")
        # group "a": r1 and r3; group "b": both tuples share r2 and merge.
        assert provenance.size() == 3
        assert provenance.num_variables() == 3
        assert provenance[("b",)].coefficient(Monomial.of("r2")) == pytest.approx(25.0)

    def test_rejects_string_values(self, catalog):
        relation = execute(Query.scan("R"), catalog)
        with pytest.raises(QueryError):
            to_provenance_set(relation, ["k"], "tag")


@pytest.fixture
def tracer():
    """The process tracer, emptied, with its enabled flag restored afterwards."""
    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.reset()
    yield tracer
    tracer.reset()
    tracer.enabled = was_enabled


class TestTracing:
    def test_revenue_query_span_tree(self, tracer):
        tracer.enabled = True
        catalog = figure1_catalog()
        build_revenue_provenance(catalog)
        (root,) = [span for span in tracer.drain() if span.name == "db.execute"]
        assert root.attributes["rows_out"] == 2

        (groupby,) = root.children
        assert groupby.name == "db.groupby"
        assert groupby.attributes == {"rows_in": 14, "rows_out": 2}
        (outer_join,) = groupby.children
        assert outer_join.name == "db.join"
        assert outer_join.attributes == {"rows_out": 14}
        inner_join, plans = outer_join.children
        assert inner_join.name == "db.join"
        assert inner_join.attributes == {"rows_out": 14}

        scans = [inner_join.children[0], inner_join.children[1], plans]
        assert [span.name for span in scans] == ["db.scan"] * 3
        assert [
            (span.attributes["table"], span.attributes["rows_out"]) for span in scans
        ] == [(name, len(catalog.get(name))) for name in ("Calls", "Cust", "Plans")]

    def test_single_input_operators_carry_rows_in(self, tracer, catalog):
        tracer.enabled = True
        execute(
            Query.scan("R")
            .filter(col("v") > 7.0)
            .rename({"v": "value"})
            .project(["tag"], distinct=True),
            catalog,
        )
        (root,) = tracer.drain()
        rows = {
            span.name: (span.attributes.get("rows_in"), span.attributes["rows_out"])
            for span in root.walk()
        }
        assert rows == {
            "db.execute": (None, 2),
            "db.project": (3, 2),
            "db.rename": (3, 3),
            "db.filter": (4, 3),
            "db.scan": (None, 4),
        }

    def test_union_span(self, tracer, catalog):
        tracer.enabled = True
        execute(Query.scan("S").union(Query.scan("S")), catalog)
        (root,) = tracer.drain()
        (union,) = root.children
        assert union.name == "db.union"
        assert union.attributes == {"rows_out": 6}

    def test_no_span_when_tracing_is_disabled(self, tracer):
        tracer.enabled = False
        build_revenue_provenance(figure1_catalog())
        assert tracer.drain() == []
