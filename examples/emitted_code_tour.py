"""Emitted-code tour: what the compiler generates for the paper's
running examples (Figs 1/3/4/5, §III-D, §III-E).

For each example the tour prints ``Engine.explain`` — the logical plan,
the SWOLE passes with their cost estimates, and the physical plan the
strategy lowers to — and, for the running example, the vectorized NumPy
source the serving backend executes (``Engine.compile(...).source``).
Techniques the planner would not pick on this data are forced with
:func:`repro.bench.microbench.compile_forced`, which overrides the
passes' decisions before lowering.

Run:  python examples/emitted_code_tour.py
"""

from repro import Engine
from repro.bench.microbench import compile_forced
from repro.datagen import microbench as mb
from repro.plan.passes import KEY_MASK, VALUE_MASK


def show(title: str, text: str) -> None:
    print("=" * 72)
    print(title)
    print("=" * 72)
    print(text)
    print()


def main() -> None:
    db = mb.generate(mb.MicrobenchConfig(num_rows=100_000, s_rows=1_000))
    engine = Engine(db)

    # Figures 1 and 3: the strategies on the running example
    query = mb.q1(13)
    for strategy in ("datacentric", "hybrid", "swole"):
        show(
            f"Fig 1/3 — {strategy} for {query.name}",
            engine.explain(query, strategy),
        )
    show(
        f"vectorized source for {query.name} (swole)",
        engine.compile(query, "swole").source,
    )

    # Figure 4: group-by, value masking vs key masking
    grouped = mb.q2(13)
    show(
        "Fig 4 (top) — value-masked group-by",
        compile_forced(grouped, db, agg_mode=VALUE_MASK).source,
    )
    show(
        "Fig 4 (bottom) — key-masked group-by",
        compile_forced(grouped, db, agg_mode=KEY_MASK).source,
    )

    # Figure 5: access merging
    show(
        "Fig 5 — access merging (r_x referenced twice)",
        engine.explain(mb.q3(13, "r_x"), "swole"),
    )

    # §III-D: positional bitmap semijoin (the planner's own pick)
    show("§III-D — positional bitmap semijoin",
         engine.explain(mb.q4(50, 50), "swole"))

    # §III-E: eager aggregation (a configuration where it pays)
    show("§III-E — groupjoin", engine.explain(mb.q5(80), "swole"))


if __name__ == "__main__":
    main()
