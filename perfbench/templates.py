"""Parameterised TPC-H templates: the paper's eight queries as plans.

Each template is a function ``params -> LogicalPlan`` mirroring
:mod:`repro.tpch.plans` operator for operator, with the constants
lifted into a parameter dict. ``FIXED`` holds the paper's parameters
(built from them, every plan fingerprints identically to the repo's own
``qN_plan()``; the tests pin that). :func:`draw_adhoc` draws fresh,
seeded parameterisations of the Q1/Q3/Q6/Q14/Q19 templates whose
ranges stay inside the generated data's domain, so each answer is
non-empty.

The benchmark keeps its own plan functions, even for the fixed-only Q4, Q5
and Q13, so its requests stay the same when the program's own plan
module is rewritten. This is the one benchmark module that builds
requests through the program's IR API; the answer reference
(:mod:`reference`) never imports it.
"""

from __future__ import annotations

import random
from typing import Callable, Dict

from repro.plan.expressions import (
    And,
    Col,
    Const,
    DictEq,
    DictIn,
    DictPrefix,
    StrMatch,
)
from repro.plan.logical import AggSpec
from repro.plan.ops import (
    DisjunctJoin,
    ExistsJoin,
    Filter,
    GroupByAgg,
    Join,
    LogicalPlan,
    OuterGroupJoin,
    Project,
    Scan,
)

# Days since 1970-01-01.
D_1992_01_01 = 8035
D_1993_01_01 = 8401
D_1993_07_01 = 8582
D_1993_10_01 = 8674
D_1994_01_01 = 8766
D_1995_01_01 = 9131
D_1995_03_15 = 9204
D_1995_09_01 = 9374
D_1995_10_01 = 9404
D_1997_06_30 = 10042
D_1998_06_01 = 10378
D_1998_12_01 = 10561

SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")
CONTAINER_SIZES = ("SM", "LG", "MED", "JUMBO", "WRAP")
CONTAINER_KINDS = ("CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM")

#: The paper's parameters, per template.
FIXED: Dict[str, dict] = {
    "Q1": {"cutoff": 10471},
    "Q3": {"segment": "BUILDING", "date": D_1995_03_15},
    "Q4": {"date_lo": D_1993_07_01, "date_hi": D_1993_10_01},
    "Q5": {"region": "ASIA", "date_lo": D_1994_01_01, "date_hi": D_1995_01_01},
    "Q6": {
        "date_lo": D_1994_01_01,
        "date_hi": D_1995_01_01,
        "disc_lo": 5,
        "disc_hi": 7,
        "qty": 24,
    },
    "Q13": {"pattern": "%special%requests%"},
    "Q14": {"date_lo": D_1995_09_01, "date_hi": D_1995_10_01, "prefix": "PROMO"},
    "Q19": {
        "arms": [
            ["Brand#12", ["SM CASE", "SM BOX", "SM PACK", "SM PKG"], 1, 11, 5],
            ["Brand#23", ["MED BAG", "MED BOX", "MED PKG", "MED PACK"], 10, 20, 10],
            ["Brand#34", ["LG CASE", "LG BOX", "LG PACK", "LG PKG"], 20, 30, 15],
        ],
        "shipmodes": ["AIR", "REG AIR"],
        "shipinstruct": "DELIVER IN PERSON",
    },
}


def _revenue():
    return Col("l_extendedprice") * (Const(100) - Col("l_discount"))


def _window(column: str, lo: int, hi: int):
    # One conjunct of two compares: a single branch site, as in the
    # repo's own plans.
    return And([And([Col(column) >= lo, Col(column) < hi])])


def q1(p: dict) -> LogicalPlan:
    price = Col("l_extendedprice")
    disc_price = price * (Const(100) - Col("l_discount"))
    charge = disc_price * (Const(100) + Col("l_tax"))
    return LogicalPlan(
        name="Q1",
        root=GroupByAgg(
            child=Filter(
                child=Scan("lineitem"),
                predicate=Col("l_shipdate") <= p["cutoff"],
            ),
            aggregates=(
                AggSpec("sum", Col("l_quantity"), "sum_qty"),
                AggSpec("sum", price, "sum_base"),
                AggSpec("sum", disc_price, "sum_disc_price"),
                AggSpec("sum", charge, "sum_charge"),
                AggSpec("sum", Col("l_discount"), "sum_disc"),
                AggSpec("count", None, "count"),
            ),
            key=Col("l_returnflag") * 2 + Col("l_linestatus"),
            key_name="returnflag_linestatus",
        ),
    )


def q3(p: dict) -> LogicalPlan:
    orders_side = Join(
        probe=Filter(
            child=Scan("orders"),
            predicate=Col("o_orderdate") < p["date"],
        ),
        build=Filter(
            child=Scan("customer"),
            predicate=DictEq("c_mktsegment", p["segment"]),
        ),
        fk_column="o_custkey",
        pk_column="c_custkey",
    )
    return LogicalPlan(
        name="Q3",
        root=GroupByAgg(
            child=Join(
                probe=Filter(
                    child=Scan("lineitem"),
                    predicate=Col("l_shipdate") > p["date"],
                ),
                build=orders_side,
                fk_column="l_orderkey",
                pk_column="o_orderkey",
            ),
            aggregates=(AggSpec("sum", _revenue(), "revenue"),),
            key=Col("l_orderkey"),
            key_name="l_orderkey",
        ),
    )


def q4(p: dict) -> LogicalPlan:
    return LogicalPlan(
        name="Q4",
        root=GroupByAgg(
            child=ExistsJoin(
                probe=Filter(
                    child=Scan("orders"),
                    predicate=_window("o_orderdate", p["date_lo"], p["date_hi"]),
                ),
                build=Filter(
                    child=Scan("lineitem"),
                    predicate=Col("l_commitdate") < Col("l_receiptdate"),
                ),
                pk_column="o_orderkey",
                fk_column="l_orderkey",
            ),
            aggregates=(AggSpec("count", None, "order_count"),),
            key=Col("o_orderpriority"),
            key_name="o_orderpriority",
        ),
    )


def q5(p: dict) -> LogicalPlan:
    nation = Join(
        probe=Scan("nation"),
        build=Filter(
            child=Scan("region"), predicate=DictEq("r_name", p["region"])
        ),
        fk_column="n_regionkey",
        pk_column="r_regionkey",
    )
    customer_side = Join(
        probe=Scan("customer"),
        build=nation,
        fk_column="c_nationkey",
        pk_column="n_nationkey",
    )
    supplier_side = Join(
        probe=Scan("supplier"),
        build=nation,
        fk_column="s_nationkey",
        pk_column="n_nationkey",
    )
    orders_side = Join(
        probe=Filter(
            child=Scan("orders"),
            predicate=_window("o_orderdate", p["date_lo"], p["date_hi"]),
        ),
        build=customer_side,
        fk_column="o_custkey",
        pk_column="c_custkey",
        carry=("c_nationkey",),
    )
    line = Join(
        probe=Join(
            probe=Scan("lineitem"),
            build=orders_side,
            fk_column="l_orderkey",
            pk_column="o_orderkey",
            carry=("c_nationkey",),
        ),
        build=supplier_side,
        fk_column="l_suppkey",
        pk_column="s_suppkey",
        carry=("s_nationkey",),
    )
    return LogicalPlan(
        name="Q5",
        root=GroupByAgg(
            child=Filter(
                child=line,
                predicate=Col("c_nationkey").eq(Col("s_nationkey")),
            ),
            aggregates=(AggSpec("sum", _revenue(), "revenue"),),
            key=Col("s_nationkey"),
            key_name="s_nationkey",
        ),
    )


def q6(p: dict) -> LogicalPlan:
    shipdate, disc = Col("l_shipdate"), Col("l_discount")
    return LogicalPlan(
        name="Q6",
        root=GroupByAgg(
            child=Filter(
                child=Scan("lineitem"),
                predicate=And(
                    [
                        And([shipdate >= p["date_lo"], shipdate < p["date_hi"]]),
                        And([disc >= p["disc_lo"], disc <= p["disc_hi"]]),
                        Col("l_quantity") < p["qty"],
                    ]
                ),
            ),
            aggregates=(
                AggSpec("sum", Col("l_extendedprice") * disc, "revenue"),
            ),
        ),
    )


def q13(p: dict) -> LogicalPlan:
    return LogicalPlan(
        name="Q13",
        root=GroupByAgg(
            child=OuterGroupJoin(
                probe=Filter(
                    child=Scan("orders"),
                    predicate=StrMatch(
                        "o_comment",
                        p["pattern"],
                        "o_comment_special",
                        negated=True,
                    ),
                ),
                build=Scan("customer"),
                fk_column="o_custkey",
                pk_column="c_custkey",
                count_name="c_count",
            ),
            aggregates=(AggSpec("count", None, "custdist"),),
            key=Col("c_count"),
            key_name="c_count",
        ),
    )


def q14(p: dict) -> LogicalPlan:
    revenue = _revenue()
    return LogicalPlan(
        name="Q14",
        root=GroupByAgg(
            child=Join(
                probe=Filter(
                    child=Scan("lineitem"),
                    predicate=_window("l_shipdate", p["date_lo"], p["date_hi"]),
                ),
                build=Project(
                    child=Scan("part"),
                    outputs=(("promo", DictPrefix("p_type", p["prefix"])),),
                ),
                fk_column="l_partkey",
                pk_column="p_partkey",
                carry=("promo",),
            ),
            aggregates=(
                AggSpec("sum", revenue * Col("promo"), "promo_revenue"),
                AggSpec("sum", revenue, "total_revenue"),
            ),
        ),
    )


def q19(p: dict) -> LogicalPlan:
    qty, size = Col("l_quantity"), Col("p_size")
    disjuncts = tuple(
        (
            And(
                [
                    DictEq("p_brand", brand),
                    DictIn("p_container", tuple(containers)),
                    And([size >= 1, size <= size_hi]),
                ]
            ),
            And([qty >= qty_lo, qty <= qty_hi]),
        )
        for brand, containers, qty_lo, qty_hi, size_hi in p["arms"]
    )
    return LogicalPlan(
        name="Q19",
        root=GroupByAgg(
            child=DisjunctJoin(
                probe=Filter(
                    child=Scan("lineitem"),
                    predicate=And(
                        [
                            And(
                                [
                                    DictIn("l_shipmode", tuple(p["shipmodes"])),
                                    DictEq("l_shipinstruct", p["shipinstruct"]),
                                ]
                            )
                        ]
                    ),
                ),
                build=Scan("part"),
                fk_column="l_partkey",
                pk_column="p_partkey",
                disjuncts=disjuncts,
            ),
            aggregates=(AggSpec("sum", _revenue(), "revenue"),),
        ),
    )


PLANS: Dict[str, Callable[[dict], LogicalPlan]] = {
    "Q1": q1,
    "Q3": q3,
    "Q4": q4,
    "Q5": q5,
    "Q6": q6,
    "Q13": q13,
    "Q14": q14,
    "Q19": q19,
}

#: Templates :func:`draw_adhoc` can parameterise.
ADHOC_TEMPLATES = ("Q1", "Q3", "Q6", "Q14", "Q19")


def draw_adhoc(template: str, rng: random.Random) -> dict:
    """A fresh parameterisation of ``template`` inside the data domain.

    Generated order dates span 1992-01-01 .. 1998-08-02 and ship dates
    follow them by 1..121 days; discounts are 0..10 percent points,
    quantities 1..50, part sizes 1..50. Every window below lies inside
    those ranges and is wide enough to select rows at SF 0.01.
    """
    if template == "Q1":
        return {"cutoff": rng.randint(D_1993_01_01, D_1998_12_01)}
    if template == "Q3":
        return {
            "segment": rng.choice(SEGMENTS),
            "date": rng.randint(D_1993_01_01, D_1997_06_30),
        }
    if template == "Q6":
        lo = rng.randint(D_1992_01_01 + 60, D_1997_06_30)
        disc_lo = rng.randint(0, 8)
        return {
            "date_lo": lo,
            "date_hi": lo + 365,
            "disc_lo": disc_lo,
            "disc_hi": disc_lo + 2,
            "qty": rng.randint(12, 40),
        }
    if template == "Q14":
        lo = rng.randint(D_1992_01_01 + 60, D_1998_06_01)
        return {"date_lo": lo, "date_hi": lo + 30, "prefix": "PROMO"}
    if template == "Q19":
        arms = []
        for _ in range(3):
            size = rng.choice(CONTAINER_SIZES)
            kinds = rng.sample(CONTAINER_KINDS, 4)
            qty_lo = rng.randint(1, 31)
            arms.append(
                [
                    f"Brand#{rng.randint(1, 5)}{rng.randint(1, 5)}",
                    [f"{size} {kind}" for kind in kinds],
                    qty_lo,
                    qty_lo + 19,
                    rng.randint(20, 50),
                ]
            )
        return {
            "arms": arms,
            "shipmodes": ["AIR", "REG AIR"],
            "shipinstruct": "DELIVER IN PERSON",
        }
    raise ValueError(f"template {template!r} has no ad-hoc parameters")
