"""TPC-H Q4: the order priority checking query.

``orders`` filtered to one quarter (~3.8 % pass) semijoined against
``lineitem`` rows with ``l_commitdate < l_receiptdate`` (~most rows),
counting by ``o_orderpriority``. The runtime is dominated by building the
semijoin structure over lineitem.

Paper result: hybrid gets 1.5x over data-centric (prepass on both
scans); SWOLE replaces the hash semijoin with a **positional bitmap**
over order offsets — built by a sequential scan of lineitem (clustered
by orderkey) and probed positionally by the orders scan — for the
largest TPC-H speedup in the paper, 2.63x over hybrid.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from ..storage.database import Database
from . import base

NAME = "Q4"
DATE_LO = 8582  # 1993-07-01
DATE_HI = 8674  # 1993-10-01


def _data(db: Database) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    lineitem = db.table("lineitem")
    orders = db.table("orders")
    return (
        {
            "commit": lineitem["l_commitdate"],
            "receipt": lineitem["l_receiptdate"],
            "orderkey": lineitem["l_orderkey"],
        },
        {
            "orderkey": orders["o_orderkey"],
            "date": orders["o_orderdate"],
            "prio": orders["o_orderpriority"],
        },
    )


def _order_has_late_line(db: Database) -> np.ndarray:
    """Boolean per order row: exists line with commitdate < receiptdate."""
    line, orders = _data(db)
    offsets = db.fk_index("lineitem", "l_orderkey").offsets
    late = line["commit"] < line["receipt"]
    exists = np.zeros(orders["orderkey"].shape[0], dtype=bool)
    exists[offsets[late]] = True
    return exists


def reference(db: Database) -> Dict[str, Any]:
    _, orders = _data(db)
    exists = _order_has_late_line(db)
    mask = (orders["date"] >= DATE_LO) & (orders["date"] < DATE_HI) & exists
    keys = orders["prio"][mask].astype(np.int64)
    unique, counts = np.unique(keys, return_counts=True)
    return base.grouped(unique, counts.astype(np.int64))


