"""Shared scaffolding for the TPC-H answer oracles.

Every query module (``q01.py`` .. ``q19.py``) exposes ``reference(db)``:
a plain-NumPy ground truth, written directly against the columns with
no code shared with the compiler. The queries themselves compile from
their logical operator trees (:mod:`repro.tpch.plans`) through the
staged pipeline; :func:`reference_result` is the answer they must
match.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from ..codegen.pipeline import STRATEGIES
from ..storage.database import Database

#: Filled by the query modules at import time: name -> module.
QUERY_MODULES: Dict[str, Any] = {}

__all__ = [
    "QUERY_MODULES",
    "STRATEGIES",
    "grouped",
    "query_names",
    "reference_result",
    "register_query",
]


def register_query(name: str, module: Any) -> None:
    QUERY_MODULES[name] = module


def query_names() -> List[str]:
    return sorted(QUERY_MODULES, key=lambda name: int(name[1:]))


def reference_result(name: str, db: Database) -> Dict[str, Any]:
    """Ground-truth answer for a query (plain NumPy)."""
    return QUERY_MODULES[name].reference(db)


def grouped(keys: np.ndarray, aggs: np.ndarray) -> Dict[str, np.ndarray]:
    """Normalise grouped output (ascending keys)."""
    keys = np.asarray(keys, dtype=np.int64)
    aggs = np.asarray(aggs, dtype=np.int64)
    if aggs.ndim == 1:
        aggs = aggs[:, None]
    order = np.argsort(keys, kind="stable")
    return {"keys": keys[order], "aggs": aggs[order]}
