"""TPC-H Q13: the customer distribution query.

A groupjoin between customer and orders — count each customer's orders
whose comment does not match ``'%special%requests%'`` (~98 % pass) —
followed by a distribution step (how many customers have each order
count). Customers without qualifying orders land in bucket zero.

Paper result: the complex string predicate dominates and cannot be
SIMD-vectorised; hybrid still gets 1.31x by splitting it into a prepass
loop; SWOLE applies **value masking** (little wasted work at 98 %) but
the strcmp wall means only a slight additional gain.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from ..storage.database import Database
from . import base

NAME = "Q13"


def _data(db: Database) -> Dict[str, np.ndarray]:
    orders = db.table("orders")
    return {
        "custkey": orders["o_custkey"],
        "special": orders["o_comment_special"],
    }


def reference(db: Database) -> Dict[str, Any]:
    data = _data(db)
    nc = db.table("customer").num_rows
    mask = data["special"] == 0
    custkeys = data["custkey"].astype(np.int64)
    unique, inverse = np.unique(custkeys, return_inverse=True)
    counts = np.zeros(unique.shape[0], dtype=np.int64)
    np.add.at(counts, inverse, mask.astype(np.int64))
    values, custdist = np.unique(counts, return_counts=True)
    buckets = dict(zip(values.tolist(), custdist.tolist()))
    missing = nc - unique.shape[0]
    if missing:
        buckets[0] = buckets.get(0, 0) + missing
    keys = np.asarray(sorted(buckets), dtype=np.int64)
    return base.grouped(
        keys, np.asarray([buckets[k] for k in keys], dtype=np.int64)
    )


