"""Code generation: the staged lowering pipeline (logical plan ->
passes -> physical plan -> instrumented or vectorized program)."""

from .pipeline import STRATEGIES, compile_pipeline


def available_strategies() -> list:
    """The code-generation strategies every query compiles under."""
    return list(STRATEGIES)


__all__ = ["STRATEGIES", "available_strategies", "compile_pipeline"]
