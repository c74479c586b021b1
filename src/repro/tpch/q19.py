"""TPC-H Q19: the discounted revenue query.

lineitem joins part under a three-way disjunctive condition: each
disjunct constrains part (brand, container set, size range) *and*
lineitem (quantity range), on top of two common lineitem predicates
(shipmode in {AIR, REG AIR}, shipinstruct = DELIVER IN PERSON). Only a
handful of tuples reach the aggregate.

Paper result: hybrid gets 1.78x over data-centric by SIMD-vectorising
the independent lineitem predicates, but cannot improve the join
condition. SWOLE gets another 2.07x: **three positional bitmaps** are
built in one sequential scan of part (one per disjunct's part
conditions), and the join resolves to a union of semijoins — each
lineitem tuple tests the bitmap for its part offset and ANDs in its
quantity range, all sequential or cache-resident work.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from ..storage.database import Database

NAME = "Q19"

#: (brand, containers, qty_lo, qty_hi, size_hi) per disjunct.
DISJUNCTS: Tuple[Tuple[str, Tuple[str, ...], int, int, int], ...] = (
    ("Brand#12", ("SM CASE", "SM BOX", "SM PACK", "SM PKG"), 1, 11, 5),
    ("Brand#23", ("MED BAG", "MED BOX", "MED PKG", "MED PACK"), 10, 20, 10),
    ("Brand#34", ("LG CASE", "LG BOX", "LG PACK", "LG PKG"), 20, 30, 15),
)
SHIPMODES_OK = ("AIR", "REG AIR")
SHIPINSTRUCT_OK = "DELIVER IN PERSON"


def _part_data(db: Database) -> Dict[str, np.ndarray]:
    part = db.table("part")
    return {
        "brand": part["p_brand"],
        "container": part["p_container"],
        "size": part["p_size"],
    }


def _line_data(db: Database) -> Dict[str, np.ndarray]:
    lineitem = db.table("lineitem")
    return {
        "qty": lineitem["l_quantity"],
        "price": lineitem["l_extendedprice"],
        "disc": lineitem["l_discount"],
        "shipmode": lineitem["l_shipmode"],
        "shipinstruct": lineitem["l_shipinstruct"],
    }


def _part_masks(db: Database) -> List[np.ndarray]:
    """Per-disjunct boolean mask over part rows."""
    part = db.table("part")
    brand_col = part.column("p_brand")
    container_col = part.column("p_container")
    data = _part_data(db)
    masks = []
    for brand, containers, _, _, size_hi in DISJUNCTS:
        brand_code = brand_col.code_for(brand)
        container_codes = [container_col.code_for(c) for c in containers]
        masks.append(
            (data["brand"] == brand_code)
            & np.isin(data["container"], container_codes)
            & (data["size"] >= 1)
            & (data["size"] <= size_hi)
        )
    return masks


def _common_mask(db: Database) -> np.ndarray:
    lineitem = db.table("lineitem")
    mode_col = lineitem.column("l_shipmode")
    instruct_col = lineitem.column("l_shipinstruct")
    data = _line_data(db)
    modes = [mode_col.code_for(m) for m in SHIPMODES_OK]
    return np.isin(data["shipmode"], modes) & (
        data["shipinstruct"] == instruct_col.code_for(SHIPINSTRUCT_OK)
    )


def _line_hit(db: Database) -> np.ndarray:
    """Full join+disjunction outcome per lineitem row (no common preds)."""
    data = _line_data(db)
    offsets = db.fk_index("lineitem", "l_partkey").offsets
    part_masks = _part_masks(db)
    hit = np.zeros(data["qty"].shape[0], dtype=bool)
    for mask, (_, _, qty_lo, qty_hi, _) in zip(part_masks, DISJUNCTS):
        hit |= mask[offsets] & (data["qty"] >= qty_lo) & (
            data["qty"] <= qty_hi
        )
    return hit


def reference(db: Database) -> Dict[str, Any]:
    data = _line_data(db)
    final = _common_mask(db) & _line_hit(db)
    revenue = data["price"][final].astype(np.int64) * (
        100 - data["disc"][final].astype(np.int64)
    )
    return {"revenue": int(revenue.sum())}


