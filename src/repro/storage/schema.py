"""Table schemas and column data types.

Rows are plain Python tuples; the schema gives each position a name and a
:class:`DataType` that knows how to parse/serialize the value for text
storage and how to compare values for range predicates.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, List, Sequence, Tuple

from repro.errors import SchemaError


class DataType(Enum):
    """Supported column types (the subset the paper's workloads use)."""

    INT = "int"
    BIGINT = "bigint"
    DOUBLE = "double"
    STRING = "string"
    DATE = "date"

    def parse(self, text: str) -> Any:
        """Parse the text-file representation of a value of this type."""
        if self in (DataType.INT, DataType.BIGINT):
            return int(text)
        if self is DataType.DOUBLE:
            return float(text)
        return text  # STRING and DATE are stored verbatim (ISO dates)

    def serialize(self, value: Any) -> str:
        """Render ``value`` for text-file storage."""
        if self is DataType.DOUBLE:
            # repr() keeps round-trip exactness for floats.
            return repr(float(value))
        return str(value)

    def validate(self, value: Any) -> None:
        if not _VALIDATORS[self](value):
            raise SchemaError(f"value {value!r} is not a valid {self.value}")

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INT, DataType.BIGINT, DataType.DOUBLE)


def _is_iso_date(text: str) -> bool:
    try:
        _dt.date.fromisoformat(text)
    except ValueError:
        return False
    return True


#: per-type value check behind :meth:`DataType.validate`
_VALIDATORS = {
    DataType.INT: lambda v: isinstance(v, int),
    DataType.BIGINT: lambda v: isinstance(v, int),
    DataType.DOUBLE: lambda v: isinstance(v, (int, float)),
    DataType.STRING: lambda v: isinstance(v, str),
    DataType.DATE: lambda v: isinstance(v, str) and _is_iso_date(v),
}


def date_to_ordinal(text: str) -> int:
    """ISO date string -> proleptic ordinal day (for grid arithmetic)."""
    return _dt.date.fromisoformat(text).toordinal()


def ordinal_to_date(ordinal: int) -> str:
    return _dt.date.fromordinal(int(ordinal)).isoformat()


@dataclass(frozen=True)
class Column:
    """One column: a name and a type."""

    name: str
    dtype: DataType

    def __post_init__(self):
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid column name {self.name!r}")


class Schema:
    """An ordered list of columns with fast name lookup."""

    def __init__(self, columns: Iterable[Column]):
        self.columns: Tuple[Column, ...] = tuple(columns)
        if not self.columns:
            raise SchemaError("schema needs at least one column")
        self._index = {}
        for i, col in enumerate(self.columns):
            key = col.name.lower()
            if key in self._index:
                raise SchemaError(f"duplicate column {col.name!r}")
            self._index[key] = i

    @classmethod
    def of(cls, *specs: Tuple[str, DataType]) -> "Schema":
        """Shorthand: ``Schema.of(("a", DataType.INT), ("b", DataType.DOUBLE))``."""
        return cls(Column(name, dtype) for name, dtype in specs)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def __eq__(self, other) -> bool:
        return isinstance(other, Schema) and self.columns == other.columns

    def names(self) -> List[str]:
        return [c.name for c in self.columns]

    def has_column(self, name: str) -> bool:
        return name.lower() in self._index

    def index_of(self, name: str) -> int:
        try:
            return self._index[name.lower()]
        except KeyError:
            raise SchemaError(
                f"unknown column {name!r}; have {self.names()}") from None

    def column(self, name: str) -> Column:
        return self.columns[self.index_of(name)]

    def dtype_of(self, name: str) -> DataType:
        return self.column(name).dtype

    def validate_row(self, row: Sequence[Any]) -> None:
        if len(row) != len(self.columns):
            raise SchemaError(
                f"row has {len(row)} fields, schema has {len(self.columns)}")
        for value, col in zip(row, self.columns):
            col.dtype.validate(value)

    def project(self, names: Sequence[str]) -> "Schema":
        """A schema containing only ``names`` (in the given order)."""
        return Schema(self.column(n) for n in names)
