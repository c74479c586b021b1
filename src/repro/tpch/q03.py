"""TPC-H Q3: the shipping priority query.

customer (``c_mktsegment = 'BUILDING'``, 1/5 pass) joins orders
(``o_orderdate < 1995-03-15``, ~half pass) joins lineitem
(``l_shipdate > 1995-03-15``), revenue grouped by order.

Paper result: hybrid 1.19x over data-centric; SWOLE 1.48x over hybrid by
replacing the customer-orders hash join with a **positional bitmap**
probed through the ``o_custkey`` FK index. The cost model declines to
rewrite the orders-lineitem groupjoin as eager aggregation (too many
keys would be deleted), so that part stays hybrid-shaped.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from ..storage.database import Database
from . import base
from ..datagen.tpch import DATE_1995_03_15

NAME = "Q3"
SEGMENT = "BUILDING"


def _data(db: Database) -> Dict[str, Dict[str, np.ndarray]]:
    customer = db.table("customer")
    orders = db.table("orders")
    lineitem = db.table("lineitem")
    return {
        "customer": {
            "custkey": customer["c_custkey"],
            "segment": customer["c_mktsegment"],
        },
        "orders": {
            "orderkey": orders["o_orderkey"],
            "custkey": orders["o_custkey"],
            "date": orders["o_orderdate"],
        },
        "lineitem": {
            "orderkey": lineitem["l_orderkey"],
            "shipdate": lineitem["l_shipdate"],
            "price": lineitem["l_extendedprice"],
            "disc": lineitem["l_discount"],
        },
    }


def _segment_code(db: Database) -> int:
    return db.table("customer").column("c_mktsegment").code_for(SEGMENT)


def reference(db: Database) -> Dict[str, Any]:
    data = _data(db)
    seg = _segment_code(db)
    cust_ok = data["customer"]["segment"] == seg
    cust_offsets = db.fk_index("orders", "o_custkey").offsets
    order_ok = (data["orders"]["date"] < DATE_1995_03_15) & cust_ok[
        cust_offsets
    ]
    order_offsets = db.fk_index("lineitem", "l_orderkey").offsets
    line = data["lineitem"]
    line_ok = (line["shipdate"] > DATE_1995_03_15) & order_ok[order_offsets]
    keys = line["orderkey"][line_ok].astype(np.int64)
    revenue = line["price"][line_ok].astype(np.int64) * (
        100 - line["disc"][line_ok].astype(np.int64)
    )
    unique, inverse = np.unique(keys, return_inverse=True)
    aggs = np.zeros(unique.shape[0], dtype=np.int64)
    np.add.at(aggs, inverse, revenue)
    return base.grouped(unique, aggs)


