"""Provenance-propagating execution of logical query plans.

The executor implements the standard semiring propagation rules of Green et
al. (PODS 2007) for the relational operators — join multiplies annotations,
duplicate-eliminating projection and union add them — and the semimodule
treatment of Amsterdamer et al. (PODS 2011) for SUM/COUNT aggregates, where
each group's result becomes a symbolic expression (flattened here into an
N[X] polynomial with numeric coefficients, exactly the shape of Example 2 in
the COBRA paper).

Cell-level instrumentation is handled transparently: if a referenced cell
holds a :class:`~repro.provenance.polynomial.Polynomial` (e.g. a price
parameterised as ``0.4·p1·m1``) the aggregate expression simply multiplies it
in.

Capture costs time linear in the input: each SUM/COUNT group and each
DISTINCT duplicate set is added up with one n-ary
:meth:`~repro.provenance.polynomial.Polynomial.sum` rather than a chain of
``+`` (which copies the running total at every step), and joining with an
untagged row's unit annotation returns the other annotation unchanged.

Every run is traced (free when tracing is off): a ``db.execute`` span wraps
the plan, with one nested child per operator — ``db.scan``, ``db.filter``,
``db.project``, ``db.join``, ``db.groupby``, ``db.union``, ``db.rename`` —
each carrying ``rows_out``, and ``rows_in`` where it has a single input.
"""

from __future__ import annotations

from numbers import Real
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union as TUnion

from repro.exceptions import QueryError, SchemaError
from repro.obs import current_span, trace
from repro.provenance.polynomial import Polynomial, ProvenanceSet
from repro.db.catalog import Catalog
from repro.db.schema import Column, ColumnType, Schema
from repro.db.table import AnnotatedRow, Relation
from repro.db.query import (
    Filter,
    GroupBy,
    Join,
    LogicalPlan,
    Project,
    Query,
    Rename,
    Scan,
    Union,
)

#: Type of the optional tuple-level annotation providers: table name →
#: callable mapping a row dictionary to its provenance annotation.
AnnotationProviders = Mapping[str, Callable[[Mapping[str, object]], Polynomial]]


def execute(
    query: TUnion[Query, LogicalPlan],
    catalog: Catalog,
    annotations: Optional[AnnotationProviders] = None,
) -> Relation:
    """Execute ``query`` against ``catalog`` and return an annotated relation.

    Parameters
    ----------
    query:
        A :class:`~repro.db.query.Query` or a bare logical plan.
    catalog:
        The database instance to run against.
    annotations:
        Optional tuple-level instrumentation: for each table name, a callable
        mapping the row dictionary to the row's provenance annotation.  Tables
        not mentioned get the annotation ``1``.  Cell-level instrumentation
        needs no entry here — instrumented cells already hold polynomials.
    """
    plan = query.plan if isinstance(query, Query) else query
    with trace("db.execute", plan=type(plan).__name__) as span:
        relation = _Executor(catalog, annotations or {}).run(plan)
        span.set("rows_out", len(relation))
    return relation


class _Executor:
    """A single-use evaluator for one plan over one catalog."""

    def __init__(self, catalog: Catalog, annotations: AnnotationProviders) -> None:
        self._catalog = catalog
        self._annotations = annotations

    def run(self, plan: LogicalPlan) -> Relation:
        for node_type, span_name, operator in _OPERATORS:
            if isinstance(plan, node_type):
                with trace(span_name) as span:
                    relation = operator(self, plan)
                    span.set("rows_out", len(relation))
                return relation
        raise QueryError(f"unsupported plan node: {type(plan).__name__}")

    # -- leaf ------------------------------------------------------------------

    def _scan(self, plan: Scan) -> Relation:
        table = self._catalog.get(plan.table)
        provider = self._annotations.get(plan.table)
        current_span().set("table", plan.table)
        return table.to_relation(provider)

    # -- unary -----------------------------------------------------------------

    def _filter(self, plan: Filter) -> Relation:
        child = self.run(plan.child)
        current_span().set("rows_in", len(child))
        rows = [row for row in child.rows if plan.predicate.evaluate(row.values)]
        return Relation(child.schema, rows)

    def _project(self, plan: Project) -> Relation:
        child = self.run(plan.child)
        current_span().set("rows_in", len(child))
        columns: List[Column] = []
        for name, expression in plan.columns:
            referenced = expression.columns()
            if len(referenced) == 1 and referenced[0] in child.schema and \
                    referenced[0] == name:
                columns.append(child.schema.column(name))
            else:
                columns.append(Column(name, ColumnType.SYMBOLIC))
        schema = Schema(columns)

        projected: List[AnnotatedRow] = []
        for row in child.rows:
            values = {
                name: expression.evaluate(row.values)
                for name, expression in plan.columns
            }
            projected.append(AnnotatedRow(values, row.annotation))

        if not plan.distinct:
            return Relation(schema, projected)

        # Duplicate elimination: merge equal rows, summing their annotations
        # and keeping the first row's values.
        duplicates: Dict[Tuple, List[AnnotatedRow]] = {}
        names = schema.names()
        for row in projected:
            key = tuple(row[name] for name in names)
            duplicates.setdefault(key, []).append(row)
        rows = [
            AnnotatedRow(
                dict(group[0].values),
                Polynomial.sum(row.annotation for row in group),
            )
            for group in duplicates.values()
        ]
        return Relation(schema, rows)

    def _rename(self, plan: Rename) -> Relation:
        child = self.run(plan.child)
        current_span().set("rows_in", len(child))
        mapping = dict(plan.mapping)
        for old in mapping:
            child.schema.column(old)
        schema = child.schema.rename(mapping)
        rows = [
            AnnotatedRow(
                {mapping.get(name, name): value for name, value in row.values.items()},
                row.annotation,
            )
            for row in child.rows
        ]
        return Relation(schema, rows)

    # -- binary -----------------------------------------------------------------

    def _join(self, plan: Join) -> Relation:
        left = self.run(plan.left)
        right = self.run(plan.right)

        for left_col, right_col in plan.on:
            left.schema.column(left_col)
            right.schema.column(right_col)

        join_right_cols = {right_col for _, right_col in plan.on}
        # Right columns that are join columns with an identical left name are
        # dropped from the output (natural-join style); any other clash is an
        # error the caller should resolve with rename().
        drop_right = {
            right_col
            for left_col, right_col in plan.on
            if left_col == right_col
        }
        clashes = (
            set(right.schema.names()) - drop_right
        ) & set(left.schema.names())
        if clashes:
            raise SchemaError(
                f"join would produce duplicate columns {sorted(clashes)}; "
                f"rename() one side first"
            )

        right_kept = [
            column for column in right.schema.columns if column.name not in drop_right
        ]
        schema = Schema(list(left.schema.columns) + right_kept)

        # Hash join on the equi-columns.
        index: Dict[Tuple, List[AnnotatedRow]] = {}
        for row in right.rows:
            key = tuple(row[right_col] for _, right_col in plan.on)
            index.setdefault(key, []).append(row)

        rows: List[AnnotatedRow] = []
        for left_row in left.rows:
            key = tuple(left_row[left_col] for left_col, _ in plan.on)
            for right_row in index.get(key, ()):
                values = dict(left_row.values)
                for column in right_kept:
                    values[column.name] = right_row[column.name]
                if plan.condition is not None and not plan.condition.evaluate(values):
                    continue
                annotation = left_row.annotation * right_row.annotation
                rows.append(AnnotatedRow(values, annotation))
        return Relation(schema, rows)

    def _union(self, plan: Union) -> Relation:
        left = self.run(plan.left)
        right = self.run(plan.right)
        if left.schema.names() != right.schema.names():
            raise SchemaError(
                "union requires identical column names on both sides: "
                f"{left.schema.names()} vs {right.schema.names()}"
            )
        return Relation(left.schema, list(left.rows) + list(right.rows))

    # -- aggregation ----------------------------------------------------------------

    def _groupby(self, plan: GroupBy) -> Relation:
        child = self.run(plan.child)
        current_span().set("rows_in", len(child))
        for key in plan.keys:
            child.schema.column(key)

        groups: Dict[Tuple, List[AnnotatedRow]] = {}
        for row in child.rows:
            groups.setdefault(tuple(row[k] for k in plan.keys), []).append(row)

        columns = [child.schema.column(k) for k in plan.keys]
        columns += [
            Column(name, ColumnType.SYMBOLIC) for name, _, _ in plan.aggregates
        ]
        schema = Schema(columns)

        rows: List[AnnotatedRow] = []
        for members in groups.values():
            values: Dict[str, object] = {
                k: members[0][k] for k in plan.keys
            }
            for name, function, expression in plan.aggregates:
                values[name] = _aggregate(function, expression, members)
            rows.append(AnnotatedRow(values, Polynomial.one()))
        return Relation(schema, rows)


#: Plan node type → span name and operator, in :meth:`_Executor.run` order.
_OPERATORS: Tuple[Tuple[type, str, Callable[..., Relation]], ...] = (
    (Scan, "db.scan", _Executor._scan),
    (Filter, "db.filter", _Executor._filter),
    (Project, "db.project", _Executor._project),
    (Join, "db.join", _Executor._join),
    (GroupBy, "db.groupby", _Executor._groupby),
    (Rename, "db.rename", _Executor._rename),
    (Union, "db.union", _Executor._union),
)


# ---------------------------------------------------------------------------
# Aggregate computation
# ---------------------------------------------------------------------------


def _aggregate(function: str, expression, members: Sequence[AnnotatedRow]):
    if function == "sum":
        return _symbolic_sum(expression, members)
    if function == "count":
        return _symbolic_count(members)
    if function in ("min", "max", "avg"):
        return _plain_aggregate(function, expression, members)
    raise QueryError(f"unsupported aggregate function {function!r}")


def _symbolic_sum(expression, members: Sequence[AnnotatedRow]):
    """SUM with semimodule propagation; returns a float when fully concrete."""
    contributions: List[Polynomial] = []
    concrete = True
    for row in members:
        value = expression.evaluate(row.values)
        if isinstance(value, Polynomial):
            contributions.append(value * row.annotation)
            concrete = False
        elif isinstance(value, Real):
            contributions.append(row.annotation.scale(float(value)))
            if not _is_trivial(row.annotation):
                concrete = False
        else:
            raise QueryError(
                f"cannot SUM non-numeric value {value!r}"
            )
    total = Polynomial.sum(contributions)
    if concrete:
        return total.constant_term()
    return total


def _symbolic_count(members: Sequence[AnnotatedRow]):
    """COUNT: the sum of annotations (a number when nothing is instrumented)."""
    total = Polynomial.sum(row.annotation for row in members)
    if all(_is_trivial(row.annotation) for row in members):
        return int(total.constant_term())
    return total


def _plain_aggregate(function: str, expression, members: Sequence[AnnotatedRow]):
    values = []
    for row in members:
        value = expression.evaluate(row.values)
        if isinstance(value, Polynomial):
            raise QueryError(
                f"{function.upper()} is not supported over symbolic values; "
                "only SUM/COUNT propagate provenance"
            )
        if not _is_trivial(row.annotation):
            raise QueryError(
                f"{function.upper()} is not supported over tuple-annotated rows"
            )
        values.append(float(value))
    if not values:
        raise QueryError(f"{function.upper()} over an empty group")
    if function == "min":
        return min(values)
    if function == "max":
        return max(values)
    return sum(values) / len(values)


def _is_trivial(annotation: Polynomial) -> bool:
    """Whether an annotation is the constant polynomial (no variables)."""
    return not annotation.variables()


# ---------------------------------------------------------------------------
# Bridging to the COBRA input format
# ---------------------------------------------------------------------------


def to_provenance_set(
    relation: Relation,
    key_columns: Sequence[str],
    value_column: str,
) -> ProvenanceSet:
    """Extract a :class:`ProvenanceSet` from an aggregate query result.

    ``key_columns`` identify the result rows (e.g. ``["Zip"]``) and
    ``value_column`` is the symbolic aggregate column; plain numeric values
    are wrapped as constant polynomials so downstream code is uniform.
    """
    for name in list(key_columns) + [value_column]:
        relation.schema.column(name)
    grouped: Dict[Tuple, List[Polynomial]] = {}
    for row in relation.rows:
        key = tuple(row[name] for name in key_columns)
        value = row[value_column]
        if isinstance(value, Polynomial):
            polynomial = value
        elif isinstance(value, Real):
            polynomial = Polynomial.constant(float(value))
        else:
            raise QueryError(
                f"column {value_column!r} holds non-numeric, non-symbolic "
                f"value {value!r}"
            )
        grouped.setdefault(key, []).append(polynomial)
    return ProvenanceSet(
        {key: Polynomial.sum(polynomials) for key, polynomials in grouped.items()}
    )
