"""TPC-H Q6: the forecasting revenue change query.

A single scan of lineitem with three predicates (five comparisons over
three attributes) selecting ~2 % of tuples; the aggregate
``sum(l_extendedprice * l_discount)`` reuses ``l_discount`` from the
predicate.

Paper result: hybrid gets 2.33x over data-centric (SIMD prepass on the
multi-comparison predicate); SWOLE adds 1.38x via **access merging** on
``l_discount`` plus **value masking** — limited by ~98 % wasted work.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from ..storage.database import Database
from ..datagen.tpch import DATE_1994_01_01, DATE_1995_01_01

NAME = "Q6"
DISC_LO, DISC_HI = 5, 7  # between 0.05 and 0.07, percent points
QTY_LIMIT = 24


def _columns(db: Database) -> Dict[str, np.ndarray]:
    table = db.table("lineitem")
    return {
        "shipdate": table["l_shipdate"],
        "disc": table["l_discount"],
        "qty": table["l_quantity"],
        "price": table["l_extendedprice"],
    }


def _mask(cols: Dict[str, np.ndarray]) -> np.ndarray:
    return (
        (cols["shipdate"] >= DATE_1994_01_01)
        & (cols["shipdate"] < DATE_1995_01_01)
        & (cols["disc"] >= DISC_LO)
        & (cols["disc"] <= DISC_HI)
        & (cols["qty"] < QTY_LIMIT)
    )


def reference(db: Database) -> Dict[str, Any]:
    cols = _columns(db)
    mask = _mask(cols)
    revenue = (
        cols["price"][mask].astype(np.int64)
        * cols["disc"][mask].astype(np.int64)
    ).sum()
    return {"revenue": int(revenue)}


