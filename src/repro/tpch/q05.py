"""TPC-H Q5: the local supplier volume query.

Six tables: region ('ASIA') -> nation -> {customer, supplier}, orders
filtered to one year, lineitem joining orders and supplier, with the
cross-condition ``c_nationkey = s_nationkey``; revenue grouped by
nation. The largest table (lineitem) has no predicate, so pushdown
strategies pay a hash lookup for every lineitem tuple.

Paper result: hybrid only 1.12x over data-centric (prepass on orders);
SWOLE 2.55x over hybrid by replacing **all joins with bitmap
semijoins** and using **late materialisation**: only the ~3 % of
lineitem tuples that survive every bitmap test pay the random accesses
that fetch nation keys and revenue inputs.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from ..storage.database import Database
from . import base
from ..datagen.tpch import DATE_1994_01_01, DATE_1995_01_01

NAME = "Q5"
TABLES = ("region", "nation", "customer", "supplier", "orders", "lineitem")
REGION = "ASIA"


def _data(db: Database) -> Dict[str, Dict[str, np.ndarray]]:
    return {name: db.data(name) for name in TABLES}


def _asian_nations(db: Database) -> np.ndarray:
    region = db.table("region")
    nation = db.table("nation")
    region_code = region.column("r_name").code_for(REGION)
    region_ok = region["r_name"] == region_code
    offsets = db.fk_index("nation", "n_regionkey").offsets
    return region_ok[offsets]  # boolean per nation row


def reference(db: Database) -> Dict[str, Any]:
    data = _data(db)
    nation_ok = _asian_nations(db)
    cust_nation = data["customer"]["c_nationkey"].astype(np.int64)
    cust_ok = nation_ok[db.fk_index("customer", "c_nationkey").offsets]
    supp_nation = data["supplier"]["s_nationkey"].astype(np.int64)
    supp_ok = nation_ok[db.fk_index("supplier", "s_nationkey").offsets]

    orders = data["orders"]
    cust_off = db.fk_index("orders", "o_custkey").offsets
    order_ok = (
        (orders["o_orderdate"] >= DATE_1994_01_01)
        & (orders["o_orderdate"] < DATE_1995_01_01)
        & cust_ok[cust_off]
    )
    order_cnation = cust_nation[cust_off]

    line = data["lineitem"]
    ord_off = db.fk_index("lineitem", "l_orderkey").offsets
    supp_off = db.fk_index("lineitem", "l_suppkey").offsets
    line_ok = (
        order_ok[ord_off]
        & supp_ok[supp_off]
        & (order_cnation[ord_off] == supp_nation[supp_off])
    )
    keys = supp_nation[supp_off][line_ok]
    revenue = line["l_extendedprice"][line_ok].astype(np.int64) * (
        100 - line["l_discount"][line_ok].astype(np.int64)
    )
    unique, inverse = np.unique(keys, return_inverse=True)
    aggs = np.zeros(unique.shape[0], dtype=np.int64)
    np.add.at(aggs, inverse, revenue)
    return base.grouped(unique, aggs)


