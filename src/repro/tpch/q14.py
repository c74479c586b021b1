"""TPC-H Q14: the promotion effect query.

Lineitem filtered to one month (~1.3 % pass) index-joined to part;
the ``p_type like 'PROMO%'`` predicate becomes a lookup in a tiny
code -> flag table computed on the fly from the dictionary during an
initial scan of part. Result: promo revenue numerator and total revenue
denominator (the percentage is presentation-time arithmetic).

Paper result: hybrid gets 2.43x over data-centric (SIMD prepass, only
~1 % of tuples survive); **SWOLE cannot further improve** — the index
join's random accesses are unavoidable at this selectivity, so SWOLE
falls back to the hybrid program.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from ..storage.database import Database
from ..datagen.tpch import DATE_1995_09_01, DATE_1995_10_01

NAME = "Q14"


def _data(db: Database) -> Dict[str, np.ndarray]:
    lineitem = db.table("lineitem")
    return {
        "shipdate": lineitem["l_shipdate"],
        "price": lineitem["l_extendedprice"],
        "disc": lineitem["l_discount"],
        "partkey": lineitem["l_partkey"],
    }


def _promo_flags(db: Database) -> np.ndarray:
    """Per-part promo flag from the dictionary (the on-the-fly table)."""
    p_type = db.table("part").column("p_type")
    promo_codes = np.asarray(
        [
            code
            for code, text in enumerate(p_type.dictionary)
            if text.startswith("PROMO")
        ]
    )
    return np.isin(p_type.values, promo_codes)


def _month_mask(data: Dict[str, np.ndarray]) -> np.ndarray:
    return (data["shipdate"] >= DATE_1995_09_01) & (
        data["shipdate"] < DATE_1995_10_01
    )


def reference(db: Database) -> Dict[str, Any]:
    data = _data(db)
    mask = _month_mask(data)
    flags = _promo_flags(db)
    offsets = db.fk_index("lineitem", "l_partkey").offsets
    rev = data["price"][mask].astype(np.int64) * (
        100 - data["disc"][mask].astype(np.int64)
    )
    promo = flags[offsets[mask]]
    return {
        "promo_revenue": int(rev[promo].sum()),
        "total_revenue": int(rev.sum()),
    }


