"""Quickstart: declare what you want; the system plans and runs it.

Run with:  python examples/quickstart.py

Part 1 uses the fluent ``Dataset`` API — the declarative front door.  A
chain of operators builds a logical plan lazily; ``.explain()`` shows the
optimized plan with per-step cost quotes before a single token is spent,
and ``.run(engine)`` compiles it onto the DAG pipeline engine.

Part 2 keeps the imperative route for contrast: driving one operator by
hand per strategy, then handing a single spec to the engine.
"""

from __future__ import annotations

from repro import Dataset, DeclarativeEngine, SimulatedLLM, SortSpec
from repro.data import FLAVORS, flavor_oracle
from repro.llm.registry import default_registry
from repro.metrics import kendall_tau_b
from repro.operators import SortOperator


def fluent_api() -> None:
    print("=" * 72)
    print("Part 1 - the fluent Dataset API (declare, inspect, run)")
    print("=" * 72)
    truth = list(FLAVORS)
    oracle = flavor_oracle()
    oracle.register_predicate(
        "contains chocolate in the name", lambda flavor: "chocolate" in flavor.lower()
    )
    engine = DeclarativeEngine(SimulatedLLM(oracle, seed=0), default_model="sim-gpt-3.5-turbo")

    query = (
        Dataset(truth, name="flavors")
        .filter("contains chocolate in the name")
        .sort("chocolatey", strategy="pairwise")
        .top_k("chocolatey", k=3, strategy="rating_only")
        .with_budget(0.05)
    )

    print("\nNothing has run yet; the plan and its quote:\n")
    print(query.explain())

    result = query.run(engine)
    print("\ntop 3 chocolate-named flavors:", result.items)
    print(f"calls: {result.total_calls}, dollars: {result.total_cost:.5f}")


def imperative_api() -> None:
    print()
    print("=" * 72)
    print("Part 2 - the imperative route (operators and specs by hand)")
    print("=" * 72)
    truth = list(FLAVORS)
    client = SimulatedLLM(flavor_oracle(), seed=0)

    print("\nSorting 20 flavors by 'chocolatey' with three strategies\n")
    print(f"{'strategy':<16} {'kendall tau-b':>14} {'prompt tok':>11} {'completion tok':>15} {'cost $':>9}")
    for strategy in ("single_prompt", "rating", "pairwise"):
        operator = SortOperator(
            client, "chocolatey", model="sim-gpt-3.5-turbo",
            cost_model=default_registry().cost_model(),
        )
        result = operator.run(truth, strategy=strategy)
        order = list(result.order) + [item for item in truth if item not in set(result.order)]
        tau = kendall_tau_b(order, truth)
        print(
            f"{strategy:<16} {tau:>14.3f} {result.usage.prompt_tokens:>11} "
            f"{result.usage.completion_tokens:>15} {result.cost:>9.5f}"
        )

    print("\nLetting the engine choose a strategy under a $0.005 budget ...")
    engine = DeclarativeEngine(SimulatedLLM(flavor_oracle(), seed=0))
    spec = SortSpec(
        items=truth,
        criterion="chocolatey",
        strategy="auto",
        validation_order=truth[::3],  # a small labelled validation sample
        budget_dollars=0.005,
    )
    result = engine.run_spec(spec)
    print(f"engine picked: {result.strategy}")
    print(f"top 3 flavors: {result.order[:3]}")
    print(f"dollars spent: {engine.spent_dollars:.5f}")


def main() -> None:
    fluent_api()
    imperative_api()


if __name__ == "__main__":
    main()
