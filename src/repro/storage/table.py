"""Tables and schemas for the in-memory column store."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import SchemaError
from .column import Column


@dataclass(frozen=True)
class Table:
    """An immutable table: an ordered collection of equal-length columns.

    Tables are the unit of scanning for all code-generation strategies.
    Row order is meaningful (positional bitmaps and foreign-key indexes
    refer to row offsets), so tables never reorder rows.
    """

    name: str
    columns: Tuple[Column, ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError(f"table {self.name!r} has no columns")
        object.__setattr__(self, "columns", tuple(self.columns))
        lengths = {len(col) for col in self.columns}
        if len(lengths) != 1:
            raise SchemaError(
                f"table {self.name!r} has ragged columns: lengths {sorted(lengths)}"
            )
        names = [col.name for col in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {self.name!r} has duplicate column names")

    @property
    def num_rows(self) -> int:
        return len(self.columns[0])

    def __len__(self) -> int:
        return self.num_rows

    @property
    def column_names(self) -> List[str]:
        return [col.name for col in self.columns]

    def __contains__(self, name: str) -> bool:
        return any(col.name == name for col in self.columns)

    def column(self, name: str) -> Column:
        """Return the column called ``name``.

        Raises :class:`SchemaError` for unknown names so that typos in
        query plans fail loudly.
        """
        for col in self.columns:
            if col.name == name:
                return col
        raise SchemaError(f"table {self.name!r} has no column {name!r}")

    def __getitem__(self, name: str) -> np.ndarray:
        """Shorthand for the raw physical values of column ``name``."""
        return self.column(name).values

    def iter_columns(self) -> Iterator[Column]:
        return iter(self.columns)

    @property
    def nbytes(self) -> int:
        """Total physical size of the table's column data."""
        return sum(col.nbytes for col in self.columns)

    def select_rows(self, row_indexes: np.ndarray) -> "Table":
        """Return a new table containing only the given rows (in order).

        Used by tests and the reference interpreter, not by hot paths.
        """
        new_columns = [
            col.with_values(col.values[row_indexes]) for col in self.columns
        ]
        return Table(name=self.name, columns=tuple(new_columns))

    def head(self, n: int = 5) -> Dict[str, np.ndarray]:
        """Return the first ``n`` decoded rows per column (debug helper)."""
        return {col.name: col.decode()[:n] for col in self.columns}


def make_table(name: str, columns: Iterable[Column]) -> Table:
    """Build a :class:`Table`, validating lengths and name uniqueness."""
    return Table(name=name, columns=tuple(columns))


@dataclass(frozen=True)
class ForeignKey:
    """Declares that ``table.column`` references ``ref_table.ref_column``."""

    table: str
    column: str
    ref_table: str
    ref_column: str


class Catalog:
    """A named collection of tables plus referential-integrity metadata.

    The catalog owns the foreign-key declarations from which
    :class:`~repro.storage.fkindex.ForeignKeyIndex` objects are built; the
    paper's positional-bitmap technique relies on these indexes existing
    ("since these indexes are necessary, our technique does not incur any
    additional overhead").
    """

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self._foreign_keys: List[ForeignKey] = []

    def add_table(self, table: Table) -> None:
        if table.name in self._tables:
            raise SchemaError(f"table {table.name!r} already exists")
        self._tables[table.name] = table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError as exc:
            raise SchemaError(f"unknown table {name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def add_foreign_key(self, fk: ForeignKey) -> None:
        """Register a foreign key; both endpoints must exist."""
        for table_name, column_name in (
            (fk.table, fk.column),
            (fk.ref_table, fk.ref_column),
        ):
            table = self.table(table_name)
            table.column(column_name)  # raises on unknown column
        self._foreign_keys.append(fk)

    def foreign_keys(self, table: Optional[str] = None) -> List[ForeignKey]:
        if table is None:
            return list(self._foreign_keys)
        return [fk for fk in self._foreign_keys if fk.table == table]
