"""Golden pins for the eight operator kinds' byte-level contracts.

One spec of each kind (plus both resolve modes and a validation-deferred
sort) is pinned three ways: the exact ``pipeline_to_json`` wire string the
service stores, the ``fingerprint_spec`` digest that keys checkpoints, and
the ``PhysicalPlan.describe()`` rendering of a pipeline holding them all.
A change to any of these silently orphans stored jobs and checkpoints, so
these values must only move with a deliberate codec or fingerprint version
bump.
"""

from __future__ import annotations

import pytest

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
    TopKSpec,
)
from repro.core.spec_codec import pipeline_from_json, pipeline_to_json
from repro.data.products import ImputationDataset
from repro.data.record import Dataset, Record
from repro.llm.oracle import Oracle
from repro.llm.simulated import SimulatedLLM
from repro.store.fingerprint import fingerprint_spec

WORDS = ["apple", "banana", "cherry", "damson", "elder", "fig"]
CRITERION = "alphabetical order"
PREDICATE = "starts early in the alphabet"


def _imputation() -> ImputationDataset:
    def record(record_id, name, city):
        return Record(record_id, {"name": name, "city": city})

    return ImputationDataset(
        name="tiny",
        target_attribute="city",
        queries=Dataset([record("q1", "Nopa", ""), record("q2", "Zuni", "")], name="q"),
        reference=Dataset(
            [record("r1", "Nopalito", "san francisco"), record("r2", "Spago", "los angeles")],
            name="r",
        ),
        ground_truth={"q1": "san francisco", "q2": "san francisco"},
    )


SPECS = {
    "sort": SortSpec(items=WORDS, criterion=CRITERION, validation_order=["apple", "banana"]),
    "resolve_pairs": ResolveSpec(
        records=WORDS[:4],
        pairs=[("apple", "banana"), ("cherry", "damson")],
        validation_labels={("apple", "banana"): False},
        neighbors_k=2,
    ),
    "resolve_records": ResolveSpec(records=WORDS, accuracy_target=0.8, budget_dollars=0.001),
    "impute": ImputeSpec(data=_imputation(), n_examples=1, validation_size=1),
    "filter": FilterSpec(
        items=WORDS,
        predicates=[PREDICATE, "is a fruit"],
        expected_selectivities=[0.5, 0.9],
        validation_labels={"apple": True, "fig": False},
    ),
    "categorize": CategorizeSpec(
        items=WORDS, categories=["early", "late"], validation_labels={"apple": "early"}
    ),
    "top_k": TopKSpec(
        items=WORDS, criterion=CRITERION, k=2, strategy="rating_only", budget_dollars=1.0
    ),
    "join": JoinSpec(left=WORDS[:3], right=WORDS[3:], strategy_options={"block_k": 2}),
    "cluster": ClusterSpec(items=WORDS, strategy="single_prompt"),
    "sort_validated": SortSpec(items=WORDS, criterion=CRITERION, validation_order=WORDS[:3]),
}


def golden_pipeline() -> PipelineSpec:
    steps = [PipelineStep(name, task=spec) for name, spec in SPECS.items()]
    steps[-2] = PipelineStep(
        "cluster", task=SPECS["cluster"], depends_on=("sort",), description="groups"
    )
    return PipelineSpec(name="golden", steps=steps, budget_dollars=2.5, description="one of each")


GOLDEN_JSON = (
    '{"budget_dollars": 2.5, "description": "one of each", "name": "golden", "steps": '
    '[{"depends_on": [], "description": "", "name": "sort", "task": {"fields": {"criterion": '
    '"alphabetical order", "items": ["apple", "banana", "cherry", "damson", "elder", "fig"], '
    '"validation_order": ["apple", "banana"]}, "type": "SortSpec", "version": 1}}, '
    '{"depends_on": [], "description": "", "name": "resolve_pairs", "task": {"fields": '
    '{"neighbors_k": 2, "pairs": [["apple", "banana"], ["cherry", "damson"]], "records": '
    '["apple", "banana", "cherry", "damson"], "validation_labels": [[["apple", "banana"], '
    'false]]}, "type": "ResolveSpec", "version": 1}}, {"depends_on": [], "description": "", '
    '"name": "resolve_records", "task": {"fields": {"accuracy_target": 0.8, "budget_dollars":'
    ' 0.001, "records": ["apple", "banana", "cherry", "damson", "elder", "fig"]}, "type": '
    '"ResolveSpec", "version": 1}}, {"depends_on": [], "description": "", "name": "impute", '
    '"task": {"fields": {"data": {"ground_truth": {"q1": "san francisco", "q2": "san '
    'francisco"}, "name": "tiny", "queries": {"name": "q", "records": [{"attributes": '
    '{"city": "", "name": "Nopa"}, "record_id": "q1"}, {"attributes": {"city": "", "name": '
    '"Zuni"}, "record_id": "q2"}]}, "reference": {"name": "r", "records": [{"attributes": '
    '{"city": "san francisco", "name": "Nopalito"}, "record_id": "r1"}, {"attributes": '
    '{"city": "los angeles", "name": "Spago"}, "record_id": "r2"}]}, "target_attribute": '
    '"city"}, "n_examples": 1, "validation_size": 1}, "type": "ImputeSpec", "version": 1}}, '
    '{"depends_on": [], "description": "", "name": "filter", "task": {"fields": '
    '{"expected_selectivities": [0.5, 0.9], "items": ["apple", "banana", "cherry", "damson", '
    '"elder", "fig"], "predicates": ["starts early in the alphabet", "is a fruit"], '
    '"validation_labels": {"apple": true, "fig": false}}, "type": "FilterSpec", "version": '
    '1}}, {"depends_on": [], "description": "", "name": "categorize", "task": {"fields": '
    '{"categories": ["early", "late"], "items": ["apple", "banana", "cherry", "damson", '
    '"elder", "fig"], "validation_labels": {"apple": "early"}}, "type": "CategorizeSpec", '
    '"version": 1}}, {"depends_on": [], "description": "", "name": "top_k", "task": '
    '{"fields": {"budget_dollars": 1.0, "criterion": "alphabetical order", "items": ["apple",'
    ' "banana", "cherry", "damson", "elder", "fig"], "k": 2, "strategy": "rating_only"}, '
    '"type": "TopKSpec", "version": 1}}, {"depends_on": [], "description": "", "name": '
    '"join", "task": {"fields": {"left": ["apple", "banana", "cherry"], "right": ["damson", '
    '"elder", "fig"], "strategy_options": {"block_k": 2}}, "type": "JoinSpec", "version": '
    '1}}, {"depends_on": ["sort"], "description": "groups", "name": "cluster", "task": '
    '{"fields": {"items": ["apple", "banana", "cherry", "damson", "elder", "fig"], '
    '"strategy": "single_prompt"}, "type": "ClusterSpec", "version": 1}}, {"depends_on": [], '
    '"description": "", "name": "sort_validated", "task": {"fields": {"criterion": '
    '"alphabetical order", "items": ["apple", "banana", "cherry", "damson", "elder", "fig"], '
    '"validation_order": ["apple", "banana", "cherry"]}, "type": "SortSpec", "version": 1}}],'
    ' "version": 1}'
)

GOLDEN_FINGERPRINTS = {
    'sort': (
        '89a42446e37468316c4f73897d0732bba5498220694a5ee29df2e8a22ff9d409'
    ),
    'resolve_pairs': (
        'bac7c409f08bcc20135d0a936a41d12d41dd0a30018784764c0e2388f291e5b6'
    ),
    'resolve_records': (
        '0e116fc34cc4bf0e6b3a4655e6daedd55f96a04db471618a19d14f0f3ebfa9a0'
    ),
    'impute': (
        '45f27356a7bee58f72b7c05e11d44f24eb65438d50c54737d59b076245c7b1d4'
    ),
    'filter': (
        'f7128ab4076e0f38c6e0f2319334088698ddd39af58141bbd0d6ae5c14339b7a'
    ),
    'categorize': (
        '4da87272e52a027ad9feb4394fd395e503ceb567c2996bce064d82d2862137ef'
    ),
    'top_k': (
        '31eff7d3798a92c93f50aaa3d32461f4ab440ee499565d7c42337f6b11d366aa'
    ),
    'join': (
        'e3d51721d6edb798b84a1d41b4fc20d780eb5c26a3942716b4297907c6dea5a4'
    ),
    'cluster': (
        'bedd3dfbabc9bf17605482ba5e313c90ad4edd2806f6e4372a0a67919fa30e5d'
    ),
    'sort_validated': (
        '5c9697a32d6f0cc1ae7272c44c351a03bf937fd2b18e0f253aef84e715df59e0'
    ),
}

GOLDEN_DESCRIBE = """\
Physical plan: golden
  sort: pairwise [cost] (15 calls, $0.001883)
  resolve_pairs: transitive [cost] (30 calls, $0.003780)
  resolve_records: single_prompt [cost] (1 calls, $0.000129)
  impute: hybrid [cost] (2 calls, $0.000249)
  filter: per_item [cost] (9 calls, $0.001105)
  categorize: per_item [cost] (6 calls, $0.000763)
  top_k: rating_only [fixed] (6 calls, $0.000736)
  join: blocked [cost] (6 calls, $0.000756)
  cluster: single_prompt [fixed] (1 calls, $0.000129)
  sort_validated: resolved at run time (spec factory, or validation runs on the labelled sample)"""


def test_pipeline_wire_json_is_pinned():
    assert pipeline_to_json(golden_pipeline()) == GOLDEN_JSON


def test_wire_json_round_trips_to_the_same_bytes():
    assert pipeline_to_json(pipeline_from_json(GOLDEN_JSON)) == GOLDEN_JSON


@pytest.mark.parametrize("name", sorted(SPECS))
def test_fingerprint_is_pinned(name):
    assert fingerprint_spec(SPECS[name]) == GOLDEN_FINGERPRINTS[name]


def test_physical_plan_description_is_pinned():
    session = PromptSession(SimulatedLLM(Oracle(), seed=0))
    plan = PhysicalPlanner(session).plan_pipeline(golden_pipeline())
    assert plan.describe() == GOLDEN_DESCRIBE
