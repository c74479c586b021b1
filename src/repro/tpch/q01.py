"""TPC-H Q1: the pricing summary report.

A single scan of lineitem with one simple predicate that passes ~98 % of
tuples (``l_shipdate <= 1998-12-01 - 90 days``), grouped by
(returnflag, linestatus) — six groups — with the most compute-intensive
aggregation in TPC-H.

Paper result: hybrid barely helps (1.04x over data-centric); SWOLE adds
1.43x via **key masking** — the cost model prefers masking the single
group key over masking the many aggregate values, and the 98 %
selectivity means almost no wasted work.

Aggregates (fixed-point; divisions deferred to presentation):

* ``sum_qty``, ``sum_base`` (= sum extendedprice, cents)
* ``sum_disc_price`` = sum price * (100 - disc)     [cents * 1e2]
* ``sum_charge``     = sum price * (100 - disc) * (100 + tax)  [cents * 1e4]
* ``sum_disc``, ``count``
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from ..storage.database import Database
from . import base

NAME = "Q1"
CUTOFF = 10471  # 1998-12-01 minus 90 days, as days since 1970-01-01


def _columns(db: Database) -> Dict[str, np.ndarray]:
    table = db.table("lineitem")
    return {
        "shipdate": table["l_shipdate"],
        "qty": table["l_quantity"],
        "price": table["l_extendedprice"],
        "disc": table["l_discount"],
        "tax": table["l_tax"],
        "rf": table["l_returnflag"],
        "ls": table["l_linestatus"],
    }


def _group_keys(cols: Dict[str, np.ndarray]) -> np.ndarray:
    return (cols["rf"].astype(np.int64) * 2 + cols["ls"]).astype(np.int64)


def _deltas(cols: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    price = cols["price"].astype(np.int64)
    disc = cols["disc"].astype(np.int64)
    tax = cols["tax"].astype(np.int64)
    disc_price = price * (100 - disc)
    return {
        "sum_qty": cols["qty"].astype(np.int64),
        "sum_base": price,
        "sum_disc_price": disc_price,
        "sum_charge": disc_price * (100 + tax),
        "sum_disc": disc,
        "count": np.ones(price.shape[0], dtype=np.int64),
    }


def reference(db: Database) -> Dict[str, Any]:
    cols = _columns(db)
    mask = cols["shipdate"] <= CUTOFF
    keys = _group_keys(cols)[mask]
    deltas = _deltas(cols)
    unique, inverse = np.unique(keys, return_inverse=True)
    aggs = np.zeros((unique.shape[0], 6), dtype=np.int64)
    for col, (name, values) in enumerate(deltas.items()):
        np.add.at(aggs[:, col], inverse, values[mask])
    return base.grouped(unique, aggs)


