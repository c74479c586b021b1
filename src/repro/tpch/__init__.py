"""TPC-H: the paper's eight-query subset.

Each query is a logical operator tree (:mod:`repro.tpch.plans`, look one
up with :func:`logical_plan`) that compiles through the staged pipeline
like any other plan; each ``qXX`` module keeps the query's plain-NumPy
answer oracle (:func:`reference_result`).
"""

from . import base
from . import q01, q03, q04, q05, q06, q13, q14, q19
from .base import STRATEGIES, query_names, reference_result
from .plans import PIPELINE_QUERIES, logical_plan

for _module in (q01, q03, q04, q05, q06, q13, q14, q19):
    base.register_query(_module.NAME, _module)

__all__ = [
    "PIPELINE_QUERIES",
    "STRATEGIES",
    "logical_plan",
    "query_names",
    "reference_result",
]
