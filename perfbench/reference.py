"""Answer reference for every benchmark template, in plain NumPy.

Each function evaluates one TPC-H template over the stored column
arrays of the served dataset and returns the answer in the server's
wire form (``{"keys": [...], "aggs": [[...], ...]}`` for grouped
queries, ``{name: int}`` for scalar ones), so a response can be checked
with ``==``. Parameters come in the same dicts the request generator
draws, so ad-hoc parameterisations are checked exactly like the fixed
ones.

This module imports NumPy only. It shares no code with the compiler,
the engine or the hand-coded TPC-H programs: joins are positional
lookups built here from the key columns, and string predicates resolve
through the column dictionaries. A change to any of those layers
therefore cannot change what the benchmark calls a right answer.

Units follow the stored representation: prices in cents, discounts and
taxes in percent points, dates in days since 1970-01-01, strings as
dictionary codes.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

import numpy as np


class Tables:
    """Stored column arrays plus string dictionaries of one dataset.

    ``columns[table][column]`` is the stored (decoded-width) array;
    ``dictionaries[table][column]`` the code -> string tuple of a
    dictionary-encoded column.
    """

    def __init__(
        self,
        columns: Mapping[str, Mapping[str, np.ndarray]],
        dictionaries: Mapping[str, Mapping[str, Sequence[str]]],
    ) -> None:
        self.columns = columns
        self.dictionaries = dictionaries
        self._positions: Dict[Tuple[str, str, str, str], np.ndarray] = {}
        self._wide: Dict[Tuple[str, str], np.ndarray] = {}

    @classmethod
    def from_database(cls, db) -> "Tables":
        """The stored arrays and dictionaries of a loaded database."""
        columns, dictionaries = {}, {}
        for name in db.catalog.table_names:
            table = db.table(name)
            columns[name] = {c.name: c.values for c in table.iter_columns()}
            dictionaries[name] = {
                c.name: c.dictionary
                for c in table.iter_columns()
                if c.dictionary is not None
            }
        return cls(columns, dictionaries)

    def col(self, table: str, column: str) -> np.ndarray:
        """One column widened to int64 (cached, read-only)."""
        key = (table, column)
        if key not in self._wide:
            wide = np.asarray(self.columns[table][column]).astype(np.int64)
            wide.setflags(write=False)
            self._wide[key] = wide
        return self._wide[key]

    def codes(self, table: str, column: str, texts: Sequence[str]) -> list:
        """Dictionary codes of ``texts`` (absent strings match nothing)."""
        dictionary = list(self.dictionaries[table][column])
        return [dictionary.index(t) for t in texts if t in dictionary]

    def isin(self, table: str, column: str, texts: Sequence[str]):
        codes = self.codes(table, column, texts)
        return np.isin(self.col(table, column), np.asarray(codes, np.int64))

    def prefix(self, table: str, column: str, prefix: str) -> np.ndarray:
        dictionary = self.dictionaries[table][column]
        matching = [t for t in dictionary if t.startswith(prefix)]
        return self.isin(table, column, matching)

    def join(
        self, fk_table: str, fk_column: str, pk_table: str, pk_column: str
    ) -> np.ndarray:
        """Row positions in ``pk_table`` of each ``fk_table`` row's key.

        Every benchmark join is a foreign key into a unique key, so the
        position array is exact; a dangling key raises.
        """
        cache_key = (fk_table, fk_column, pk_table, pk_column)
        if cache_key not in self._positions:
            pk = self.col(pk_table, pk_column)
            fk = self.col(fk_table, fk_column)
            lookup = np.full(int(max(pk.max(), fk.max())) + 1, -1, np.int64)
            lookup[pk] = np.arange(pk.shape[0])
            positions = lookup[fk]
            if (positions < 0).any():
                raise ValueError(
                    f"{fk_table}.{fk_column} has keys missing from "
                    f"{pk_table}.{pk_column}"
                )
            self._positions[cache_key] = positions
        return self._positions[cache_key]


def _grouped(keys: np.ndarray, columns: Sequence[np.ndarray]) -> dict:
    """Sum each value column per distinct key, keys ascending."""
    unique, inverse = np.unique(keys, return_inverse=True)
    aggs = np.zeros((unique.shape[0], len(columns)), dtype=np.int64)
    for j, values in enumerate(columns):
        np.add.at(aggs[:, j], inverse, values)
    return {"keys": unique.tolist(), "aggs": aggs.tolist()}


def _revenue(t: Tables, mask: np.ndarray) -> np.ndarray:
    price = t.col("lineitem", "l_extendedprice")[mask]
    return price * (100 - t.col("lineitem", "l_discount")[mask])


def q1(t: Tables, p: dict) -> dict:
    mask = t.col("lineitem", "l_shipdate") <= p["cutoff"]
    qty = t.col("lineitem", "l_quantity")[mask]
    price = t.col("lineitem", "l_extendedprice")[mask]
    disc = t.col("lineitem", "l_discount")[mask]
    tax = t.col("lineitem", "l_tax")[mask]
    disc_price = price * (100 - disc)
    keys = (
        t.col("lineitem", "l_returnflag")[mask] * 2
        + t.col("lineitem", "l_linestatus")[mask]
    )
    return _grouped(
        keys,
        [
            qty,
            price,
            disc_price,
            disc_price * (100 + tax),
            disc,
            np.ones_like(qty),
        ],
    )


def q3(t: Tables, p: dict) -> dict:
    cust_ok = t.isin("customer", "c_mktsegment", [p["segment"]])
    order_cust = t.join("orders", "o_custkey", "customer", "c_custkey")
    order_ok = (t.col("orders", "o_orderdate") < p["date"]) & cust_ok[
        order_cust
    ]
    line_order = t.join("lineitem", "l_orderkey", "orders", "o_orderkey")
    mask = (t.col("lineitem", "l_shipdate") > p["date"]) & order_ok[
        line_order
    ]
    return _grouped(
        t.col("lineitem", "l_orderkey")[mask], [_revenue(t, mask)]
    )


def q4(t: Tables, p: dict) -> dict:
    late = t.col("lineitem", "l_commitdate") < t.col(
        "lineitem", "l_receiptdate"
    )
    line_order = t.join("lineitem", "l_orderkey", "orders", "o_orderkey")
    exists = np.zeros(t.col("orders", "o_orderkey").shape[0], dtype=bool)
    exists[line_order[late]] = True
    date = t.col("orders", "o_orderdate")
    mask = (date >= p["date_lo"]) & (date < p["date_hi"]) & exists
    keys = t.col("orders", "o_orderpriority")[mask]
    return _grouped(keys, [np.ones_like(keys)])


def q5(t: Tables, p: dict) -> dict:
    region_ok = t.isin("region", "r_name", [p["region"]])
    nation_ok = region_ok[t.join("nation", "n_regionkey", "region", "r_regionkey")]
    cust_ok = nation_ok[t.join("customer", "c_nationkey", "nation", "n_nationkey")]
    supp_ok = nation_ok[t.join("supplier", "s_nationkey", "nation", "n_nationkey")]
    order_cust = t.join("orders", "o_custkey", "customer", "c_custkey")
    date = t.col("orders", "o_orderdate")
    order_ok = (
        (date >= p["date_lo"]) & (date < p["date_hi"]) & cust_ok[order_cust]
    )
    order_nation = t.col("customer", "c_nationkey")[order_cust]
    line_order = t.join("lineitem", "l_orderkey", "orders", "o_orderkey")
    line_supp = t.join("lineitem", "l_suppkey", "supplier", "s_suppkey")
    supp_nation = t.col("supplier", "s_nationkey")[line_supp]
    mask = (
        order_ok[line_order]
        & supp_ok[line_supp]
        & (order_nation[line_order] == supp_nation)
    )
    return _grouped(supp_nation[mask], [_revenue(t, mask)])


def q6(t: Tables, p: dict) -> dict:
    date = t.col("lineitem", "l_shipdate")
    disc = t.col("lineitem", "l_discount")
    mask = (
        (date >= p["date_lo"])
        & (date < p["date_hi"])
        & (disc >= p["disc_lo"])
        & (disc <= p["disc_hi"])
        & (t.col("lineitem", "l_quantity") < p["qty"])
    )
    price = t.col("lineitem", "l_extendedprice")[mask]
    return {"revenue": int((price * disc[mask]).sum())}


def q13(t: Tables, p: dict) -> dict:
    # ``o_comment_special`` materialises the LIKE pattern; Q13 keeps the
    # orders that do *not* match it.
    kept = t.col("orders", "o_comment_special") == 0
    order_cust = t.join("orders", "o_custkey", "customer", "c_custkey")
    n_customers = t.col("customer", "c_custkey").shape[0]
    per_customer = np.bincount(
        order_cust[kept], minlength=n_customers
    ).astype(np.int64)
    return _grouped(per_customer, [np.ones_like(per_customer)])


def q14(t: Tables, p: dict) -> dict:
    date = t.col("lineitem", "l_shipdate")
    mask = (date >= p["date_lo"]) & (date < p["date_hi"])
    promo = t.prefix("part", "p_type", p["prefix"])[
        t.join("lineitem", "l_partkey", "part", "p_partkey")
    ][mask]
    revenue = _revenue(t, mask)
    return {
        "promo_revenue": int(revenue[promo].sum()),
        "total_revenue": int(revenue.sum()),
    }


def q19(t: Tables, p: dict) -> dict:
    line_part = t.join("lineitem", "l_partkey", "part", "p_partkey")
    ship_ok = t.isin("lineitem", "l_shipmode", p["shipmodes"]) & t.isin(
        "lineitem", "l_shipinstruct", [p["shipinstruct"]]
    )
    size = t.col("part", "p_size")
    qty = t.col("lineitem", "l_quantity")
    hit = np.zeros(qty.shape[0], dtype=bool)
    for brand, containers, qty_lo, qty_hi, size_hi in p["arms"]:
        part_ok = (
            t.isin("part", "p_brand", [brand])
            & t.isin("part", "p_container", containers)
            & (size >= 1)
            & (size <= size_hi)
        )
        hit |= part_ok[line_part] & (qty >= qty_lo) & (qty <= qty_hi)
    return {"revenue": int(_revenue(t, ship_ok & hit).sum())}


#: Template name -> evaluator.
EVALUATORS = {
    "Q1": q1,
    "Q3": q3,
    "Q4": q4,
    "Q5": q5,
    "Q6": q6,
    "Q13": q13,
    "Q14": q14,
    "Q19": q19,
}


def evaluate(t: Tables, template: str, params: dict) -> dict:
    """The expected wire answer of ``template`` under ``params``."""
    return EVALUATORS[template](t, params)


def is_empty(answer: dict) -> bool:
    """Whether an answer selected nothing (no groups, or all-zero sums)."""
    if "keys" in answer:
        return not answer["keys"]
    return not any(answer.values())
