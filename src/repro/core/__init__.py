"""SWOLE core: the §III cost models, the technique planner, and the
runtime helpers the physical-plan executor calls (key masking, eager
aggregation)."""

from .cost_models import (
    ModelInputs,
    eager_aggregation_cost,
    groupjoin_cost,
    hybrid_cost,
    key_masking_cost,
    planned_ht_bytes,
    price_events,
    value_masking_cost,
)
from .planner import SwolePlan, model_inputs, plan_query, technique_matrix

__all__ = [
    "ModelInputs",
    "SwolePlan",
    "eager_aggregation_cost",
    "groupjoin_cost",
    "hybrid_cost",
    "key_masking_cost",
    "model_inputs",
    "plan_query",
    "planned_ht_bytes",
    "price_events",
    "technique_matrix",
    "value_masking_cost",
]
