"""Tables, annotated rows and relations.

Two row containers are distinguished:

* :class:`Table` — a named base table (schema + plain rows), the thing a
  :class:`~repro.db.catalog.Catalog` stores and the instrumentation policies
  of :mod:`repro.db.annotations` decorate;
* :class:`Relation` — the result of (part of) a query: rows carrying both
  cell values and a tuple-level provenance annotation (an N[X] polynomial),
  which the executor propagates through the operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import SchemaError
from repro.provenance.polynomial import Polynomial
from repro.db.schema import Schema


@dataclass(frozen=True)
class AnnotatedRow:
    """A row of named cell values plus its provenance annotation.

    The annotation is the tuple-level N[X] polynomial tracking which
    instrumented base tuples the row was derived from; a plain
    (non-instrumented) tuple carries the annotation ``1``.
    """

    values: Mapping[str, object]
    annotation: Polynomial = field(default_factory=Polynomial.one)

    def __getitem__(self, column: str) -> object:
        return self.values[column]

    def get(self, column: str, default=None):
        """Return the value of ``column`` or ``default``."""
        return self.values.get(column, default)

    def with_values(self, values: Mapping[str, object]) -> "AnnotatedRow":
        """Return a row with replaced values, keeping the annotation."""
        return AnnotatedRow(dict(values), self.annotation)

    def with_annotation(self, annotation: Polynomial) -> "AnnotatedRow":
        """Return a row with a replaced annotation, keeping the values."""
        return AnnotatedRow(dict(self.values), annotation)


class Relation:
    """A schema plus a sequence of annotated rows (a query-intermediate result)."""

    __slots__ = ("schema", "rows")

    def __init__(self, schema: Schema, rows: Iterable[AnnotatedRow] = ()) -> None:
        self.schema = schema
        self.rows: List[AnnotatedRow] = list(rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[AnnotatedRow]:
        return iter(self.rows)

    def column_values(self, column: str) -> List[object]:
        """All values of ``column``, in row order."""
        self.schema.column(column)
        return [row[column] for row in self.rows]

    def to_tuples(self, columns: Optional[Sequence[str]] = None) -> List[Tuple]:
        """Rows as plain tuples over ``columns`` (default: all schema columns)."""
        names = tuple(columns) if columns is not None else self.schema.names()
        for name in names:
            self.schema.column(name)
        return [tuple(row[name] for name in names) for row in self.rows]

    def __repr__(self) -> str:
        return f"Relation(columns={list(self.schema.names())}, rows={len(self.rows)})"


class Table:
    """A named base table: a schema and a list of plain rows.

    Rows may be appended as positional sequences or as dictionaries; both are
    validated against the schema.  Cells of ``SYMBOLIC`` columns may hold
    provenance polynomials (that is how instrumented tables are represented).
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        rows: Iterable[Sequence] = (),
    ) -> None:
        if not name:
            raise SchemaError("a table must have a non-empty name")
        self.name = name
        self.schema = schema
        self._rows: List[Tuple] = []
        for row in rows:
            self.insert(row)

    # -- mutation ------------------------------------------------------------

    def insert(self, row: "Sequence | Mapping[str, object]") -> None:
        """Insert one row, given positionally or as a column → value mapping."""
        if isinstance(row, Mapping):
            values = tuple(row.get(name) for name in self.schema.names())
            unknown = set(row) - set(self.schema.names())
            if unknown:
                raise SchemaError(
                    f"row mentions unknown columns {sorted(unknown)} "
                    f"for table {self.name!r}"
                )
        else:
            values = tuple(row)
        self.schema.validate_row(values)
        self._rows.append(values)

    def insert_many(self, rows: Iterable[Sequence]) -> None:
        """Insert many rows."""
        for row in rows:
            self.insert(row)

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Dict[str, object]]:
        names = self.schema.names()
        for row in self._rows:
            yield dict(zip(names, row))

    def rows(self) -> List[Tuple]:
        """The raw positional rows."""
        return list(self._rows)

    def column_values(self, column: str) -> List[object]:
        """All values of ``column``, in row order."""
        index = self.schema.index_of(column)
        return [row[index] for row in self._rows]

    def distinct_values(self, column: str) -> List[object]:
        """Distinct values of ``column``, in first-appearance order."""
        seen = set()
        result = []
        for value in self.column_values(column):
            if value not in seen:
                seen.add(value)
                result.append(value)
        return result

    # -- conversion ------------------------------------------------------------

    def to_relation(self, annotation_for_row=None) -> Relation:
        """Convert to a :class:`Relation` of annotated rows.

        ``annotation_for_row`` may be a callable taking the row dictionary and
        returning its tuple-level annotation; by default every row is
        annotated with the polynomial ``1`` (no tuple-level instrumentation).
        """
        names = self.schema.names()
        one = Polynomial.one()
        rows = []
        for raw in self._rows:
            values = dict(zip(names, raw))
            if annotation_for_row is None:
                annotation = one
            else:
                annotation = annotation_for_row(values)
            rows.append(AnnotatedRow(values, annotation))
        return Relation(self.schema, rows)

    def map_column(self, column: str, func) -> "Table":
        """Return a new table with ``func`` applied to every cell of ``column``.

        The column's type is switched to ``SYMBOLIC`` because this is the
        hook used by cell-level instrumentation (values become polynomials).
        """
        from repro.db.schema import Column, ColumnType

        index = self.schema.index_of(column)
        new_columns = [
            Column(c.name, ColumnType.SYMBOLIC) if c.name == column else c
            for c in self.schema.columns
        ]
        new_schema = Schema(new_columns)
        new_table = Table(self.name, new_schema)
        names = self.schema.names()
        for raw in self._rows:
            row = dict(zip(names, raw))
            new_value = func(row)
            values = list(raw)
            values[index] = new_value
            new_table.insert(values)
        return new_table

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, columns={list(self.schema.names())}, "
            f"rows={len(self._rows)})"
        )
