"""The operator table: a new operator plugs in through one ``OperatorKind``.

A toy "echo" operator — its spec, operator, and kind all defined in this
file — is registered into :data:`repro.core.kinds.KINDS` and then quotes,
plans, auto-resolves, round-trips through the wire codec, and runs inside
``run_pipeline`` with no other change.  The second half checks, for every
built-in kind, that the planner prices ``"auto"`` at exactly the strategy
the physical planner resolves it to.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import pytest

from repro.core.engine import DeclarativeEngine
from repro.core.kinds import KINDS, OperatorKind, kind_of, resolved_runner
from repro.core.physical import PhysicalPlanner
from repro.core.session import PromptSession
from repro.core.spec import (
    CategorizeSpec,
    ClusterSpec,
    FilterSpec,
    ImputeSpec,
    JoinSpec,
    PipelineSpec,
    PipelineStep,
    ResolveSpec,
    SortSpec,
    TaskSpec,
    TopKSpec,
)
from repro.core.spec_codec import (
    pipeline_from_json,
    pipeline_to_json,
    spec_from_dict,
    spec_to_dict,
)
from repro.data.products import ImputationDataset
from repro.data.record import Dataset, Record
from repro.exceptions import SpecError
from repro.llm.oracle import Oracle
from repro.llm.simulated import SimulatedLLM
from repro.operators.base import BaseOperator, OperatorResult

WORDS = ["apple", "banana", "cherry", "damson", "elder", "fig"]


# -- the toy operator ----------------------------------------------------------------


@dataclass
class EchoSpec(TaskSpec):
    """Ask the model to repeat each of ``items``."""

    items: Sequence[str] = ()
    tone: str = "plain"

    def validate(self) -> None:
        super().validate()
        if not self.items:
            raise SpecError("an echo spec needs at least one item")


@dataclass
class EchoResult(OperatorResult):
    answers: dict[str, str] = field(default_factory=dict)


def echo_prompt(item: str, tone: str) -> str:
    return f"Repeat this word in a {tone} voice: {item}"


class EchoOperator(BaseOperator):
    operation = "echo"

    def __init__(self, client, tone: str, **kwargs) -> None:
        self.tone = tone
        super().__init__(client, **kwargs)

    def _register_strategies(self) -> None:
        self.register_strategy("per_item", self._per_item, granularity="fine")
        self.register_strategy("single_prompt", self._single_prompt, granularity="coarse")

    def run(self, items: Sequence[str], *, strategy: str = "per_item") -> EchoResult:
        usage_before = self._usage_snapshot()
        result = self._strategy(strategy)([str(item) for item in items])
        self._finalize(result, usage_before)
        return result

    def _per_item(self, items: list[str]) -> EchoResult:
        responses = self._complete_batch([echo_prompt(item, self.tone) for item in items])
        return EchoResult(
            strategy="per_item",
            answers={item: response.text for item, response in zip(items, responses)},
        )

    def _single_prompt(self, items: list[str]) -> EchoResult:
        response = self._complete(echo_prompt(", ".join(items), self.tone))
        return EchoResult(strategy="single_prompt", answers={item: response.text for item in items})


def _estimate_echo(planner, spec: EchoSpec):
    items = list(spec.items)
    if spec.strategy == "single_prompt":
        estimate = planner.single_prompt(items)
    else:
        estimate = planner.per_item(items)
    return replace(estimate, strategy=f"echo:{spec.strategy}")


ECHO = OperatorKind(
    name="echo",
    spec_type=EchoSpec,
    candidates=lambda spec: [("per_item", {}), ("single_prompt", {})],
    estimate=_estimate_echo,
    run=resolved_runner(
        lambda build, spec, resolved: build(EchoOperator, spec.tone).run(
            list(spec.items), strategy=resolved.strategy
        )
    ),
    static_prompts=lambda spec: (
        (echo_prompt(item, spec.tone) for item in spec.items)
        if spec.strategy in ("per_item", "auto")
        else ()
    ),
    context_items=lambda spec: list(spec.items),
)


@pytest.fixture
def echo_kind(monkeypatch):
    monkeypatch.setitem(KINDS, EchoSpec, ECHO)


def _engine() -> DeclarativeEngine:
    return DeclarativeEngine(SimulatedLLM(Oracle(), seed=3))


def _pipeline(spec: TaskSpec) -> PipelineSpec:
    return PipelineSpec(name="toy", steps=[PipelineStep("echo", task=spec)])


class TestToyOperatorKind:
    def test_unregistered_spec_is_refused(self):
        with pytest.raises(SpecError, match="EchoSpec"):
            _engine().run_spec(EchoSpec(items=WORDS))

    def test_quotes(self, echo_kind):
        quote = _engine().quote_pipeline(_pipeline(EchoSpec(items=WORDS)))
        assert quote.steps["echo"].strategy == "echo:auto"
        assert quote.total_calls == len(WORDS)

    def test_plans_and_auto_resolves(self, echo_kind):
        engine = _engine()
        assert engine.physical.resolve(EchoSpec(items=WORDS)).strategy == "per_item"
        squeezed = engine.physical.resolve(EchoSpec(items=WORDS, budget_dollars=1e-9))
        assert squeezed.strategy == "single_prompt"  # the cheapest when nothing fits
        plan = engine.plan_physical(_pipeline(EchoSpec(items=WORDS)))
        assert plan.describe().splitlines()[1].startswith("  echo: per_item [cost] (6 calls")

    def test_round_trips_through_the_codec(self, echo_kind):
        spec = EchoSpec(items=WORDS, tone="loud", strategy="single_prompt")
        assert spec_to_dict(spec)["fields"] == {
            "items": WORDS,
            "tone": "loud",
            "strategy": "single_prompt",
        }
        assert spec_from_dict(spec_to_dict(spec)) == spec
        pipeline = _pipeline(spec)
        assert pipeline_from_json(pipeline_to_json(pipeline)) == pipeline

    def test_runs_inside_run_pipeline(self, echo_kind):
        engine = _engine()
        report = engine.run_pipeline(_pipeline(EchoSpec(items=WORDS)))
        result = report.results["echo"]
        assert isinstance(result, EchoResult)
        assert sorted(result.answers) == sorted(WORDS)
        assert result.usage.calls == len(WORDS)
        assert engine.stats.call_count("echo:per_item") == len(WORDS)

    def test_auto_estimate_names_the_resolved_strategy(self, echo_kind):
        _assert_auto_label_matches_resolution(EchoSpec(items=WORDS))


# -- every built-in kind ------------------------------------------------------------


def _imputation() -> ImputationDataset:
    def record(record_id: str, name: str, city: str) -> Record:
        return Record(record_id, {"name": name, "city": city})

    return ImputationDataset(
        name="tiny",
        target_attribute="city",
        queries=Dataset([record("q1", "Nopa", ""), record("q2", "Zuni", "")], name="q"),
        reference=Dataset([record("r1", "Nopalito", "san francisco")], name="r"),
        ground_truth={"q1": "san francisco", "q2": "san francisco"},
    )


AUTO_SPECS = {
    "sort": SortSpec(items=WORDS, criterion="alphabetical order"),
    "resolve_pairs": ResolveSpec(records=WORDS, pairs=[("apple", "banana")], neighbors_k=2),
    "resolve_records": ResolveSpec(records=WORDS),
    "impute": ImputeSpec(data=_imputation()),
    "filter": FilterSpec(items=WORDS, predicate="is a fruit"),
    "categorize": CategorizeSpec(items=WORDS, categories=["early", "late"]),
    "top_k": TopKSpec(items=WORDS, criterion="alphabetical order", k=2),
    "join": JoinSpec(left=WORDS[:3], right=WORDS[3:]),
    "cluster": ClusterSpec(items=WORDS),
}


def _assert_auto_label_matches_resolution(spec: TaskSpec) -> None:
    physical = PhysicalPlanner(PromptSession(SimulatedLLM(Oracle(), seed=0)))
    planner = physical.cost_planner()
    label = planner.estimate_spec(spec).strategy
    resolved = physical.resolve(spec)
    assert planner.stats_key(spec, label) == f"{kind_of(spec).name}:{resolved.strategy}"


def test_every_builtin_spec_type_has_a_kind():
    assert {type(spec) for spec in AUTO_SPECS.values()} == set(KINDS)


@pytest.mark.parametrize("name", sorted(AUTO_SPECS))
def test_auto_estimate_names_the_resolved_strategy(name):
    _assert_auto_label_matches_resolution(AUTO_SPECS[name])
