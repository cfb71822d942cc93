"""The benchmark's three workloads, their inputs and their correctness checks.

Every input is generated from the run's seed; the program only ever sees
the generated items, never the seed's role.  Each batch workload builds a
fresh engine per repetition (outside the timed region), so every
repetition does the same work against a cold cache.

The work a run does must not depend on the seed, or the spread across
seeds would measure the inputs instead of the program.  The paper's case
studies adapt their call counts to the data (a dropped word costs a
re-insertion, a corpus decides its neighbour pairs), so the batch
workloads keep the case-study data fixed, as the paper does, and the seed
permutes the order in which every input reaches the program.

* ``paper_cpu`` — the paper's four case studies as one ``PipelineSpec``,
  sequential, behind a 2 ms latency model.
* ``er_latency`` — ``Dataset(texts).resolve()`` behind a 40 ms latency model.
* ``service_open_loop`` — two tenants on a ``ServiceApp`` over one SQLite
  store, fed jobs on a fixed-rate open-loop schedule (see ``service.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro import Dataset
from repro.consistency.transitivity import MatchGraph
from repro.core.engine import DeclarativeEngine
from repro.core.governor import ConcurrencyGovernor
from repro.core.spec import ImputeSpec, PipelineSpec, PipelineStep, ResolveSpec, SortSpec
from repro.data.citations import generate_citation_corpus
from repro.data.flavors import CHOCOLATEY, FLAVORS, chocolateyness_scores
from repro.data.products import generate_restaurant_dataset
from repro.data.record import Dataset as RecordDataset
from repro.data.words import random_words
from repro.llm.oracle import Oracle, prefix_margin
from repro.llm.registry import default_registry
from repro.llm.simulated import SimulatedLLM
from repro.metrics.classification import confusion_from_pairs
from repro.metrics.clustering import pairwise_cluster_f1
from repro.metrics.ranking import kendall_tau_b
from repro.operators.impute import ImputeOperator
from repro.operators.resolve import PairJudgmentResult, ResolveOperator, ResolveResult
from repro.operators.sort import SortOperator
from repro.proxies.blocking import BlockingResult

from perfbench.transport import LatencyTransport

MODEL = "sim-gpt-3.5-turbo"
ALPHABETICAL = "alphabetical order"
#: Seed of the simulated model in the batch workloads (fixed, see above).
MODEL_SEED = 0
#: Generator seed of the ``er_latency`` corpus.
CORPUS_SEED = 11
#: The output field of each ``paper_cpu`` step that must match the reference.
PAPER_OUTPUTS = {
    "t1_pairwise": "order",
    "t1_rating": "order",
    "t2_sort_insert": "order",
    "t3_transitive": "decisions",
    "t4_hybrid": "predictions",
    "t4_llm_only": "predictions",
}


class CheckFailed(Exception):
    """A correctness check failed; the message names the check."""


def require(condition: bool, check: str, detail: str = "") -> None:
    if not condition:
        raise CheckFailed(f"{check}: {detail}" if detail else check)


@dataclass
class Repetition:
    """What one timed repetition of a batch workload produced."""

    wall_s: float
    steps: int
    failed_steps: int
    calls: int
    tokens: int
    dollars: float
    quoted_calls: int
    quoted_dollars: float
    quoted_s: float | None
    actual_calls: int
    transport_wait_s: float
    quality: dict[str, float]
    signature: Any
    sessions: list = field(default_factory=list)
    governors: list = field(default_factory=list)


def _transport(oracle: Oracle, latency_seed: int, median_s: float) -> LatencyTransport:
    return LatencyTransport(
        SimulatedLLM(oracle, seed=MODEL_SEED),
        default_registry().cost_model(),
        seed=latency_seed,
        median_s=median_s,
    )


def check_accounting(transport: LatencyTransport, sessions: list) -> None:
    """Transport calls and dollars must reconcile with the sessions' books."""
    session_calls = sum(session.tracker.calls for session in sessions)
    require(
        transport.calls == session_calls,
        "transport_calls_equal_session_calls",
        f"transport {transport.calls} vs sessions {session_calls}",
    )
    spent = sum(session.budget.spent for session in sessions)
    require(
        abs(spent - transport.dollars) <= 1e-9 * max(1.0, transport.dollars),
        "dollars_equal_call_costs",
        f"budgets {spent!r} vs transport {transport.dollars!r}",
    )


def exact_dollars(value: float) -> float:
    """Spend summed in any order, at the cost model's resolution.

    Concurrent calls charge the budget in schedule order, so the float sum
    differs in its last bits from run to run; nano-dollars are exact.
    """
    return round(value, 9)


def _permuted(values, rng: random.Random) -> list:
    values = list(values)
    rng.shuffle(values)
    return values


def completed_order(order, truth) -> list:
    seen = set(order)
    return list(order) + [item for item in truth if item not in seen]


# -- paper_cpu ------------------------------------------------------------------


class PaperCPU:
    """Tables 1-4 as one pipeline: framework CPU between sequential calls.

    Every call waits a short seeded latency.  The waits add a fixed ~8 s to
    a repetition that needs ~1 s of interpreter time, so the host's
    CPU-speed swings (up to 2x on a shared machine) move the wall-clock by
    about a tenth instead of by half, while every framework second still
    adds to it in full: nothing overlaps at ``max_concurrency=1``.
    """

    name = "paper_cpu"
    #: Latency limit of one pipeline run, for ``limit_met_share``.
    limit_s = 15.0
    median_latency_s = 0.002

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        # The data of Tables 1-4 (the generator seeds of the table
        # benchmarks); the seed orders flavors, labelled pairs and
        # imputation queries.  Table 2's words keep their order: which
        # words the one-prompt sort drops depends on the exact prompt, and
        # each dropped word costs a re-insertion.
        self.flavors = _permuted(FLAVORS, rng)
        self.words = random_words(100, seed=0)
        self.corpus = generate_citation_corpus(n_entities=60, n_pairs=160, seed=3)
        data = generate_restaurant_dataset(150, seed=5)
        data.queries = RecordDataset(_permuted(data.queries, rng), name=data.queries.name)
        self.imputation = data
        texts = self.corpus.texts()
        labelled = _permuted(self.corpus.pairs, rng)
        self.pairs = [(pair.left_text, pair.right_text) for pair in labelled]
        self.labels = [pair.is_duplicate for pair in labelled]
        oracle = Oracle()
        oracle.register_scores(CHOCOLATEY, chocolateyness_scores())
        oracle.register_key(ALPHABETICAL, lambda word: word.lower(), margin=prefix_margin)
        oracle.register_entities(
            {
                text: self.corpus.entity_of[record.record_id]
                for text, record in zip(texts, self.corpus.dataset)
            }
        )
        for record in data.queries:
            oracle.register_value(
                data.serialized_query(record),
                data.target_attribute,
                data.ground_truth[record.record_id],
            )
        self.oracle = oracle
        self.texts = texts
        self.spec = PipelineSpec(
            name="paper-tables",
            steps=[
                PipelineStep("t1_pairwise", task=SortSpec(items=self.flavors, criterion=CHOCOLATEY, strategy="pairwise")),
                PipelineStep("t1_rating", task=SortSpec(items=self.flavors, criterion=CHOCOLATEY, strategy="rating")),
                PipelineStep("t2_sort_insert", task=SortSpec(items=self.words, criterion=ALPHABETICAL, strategy="hybrid_sort_insert")),
                PipelineStep(
                    "t3_transitive",
                    task=ResolveSpec(records=texts, pairs=self.pairs, strategy="transitive", neighbors_k=2),
                ),
                PipelineStep("t4_hybrid", task=ImputeSpec(data=data, strategy="hybrid", n_examples=3)),
                PipelineStep("t4_llm_only", task=ImputeSpec(data=data, strategy="llm_only", n_examples=3)),
            ],
        )
        n_queries = len(data.ground_truth)
        #: Input records the pipeline processes: items per sort, labelled
        #: pairs, and imputation queries per strategy.
        self.records = 2 * len(self.flavors) + len(self.words) + len(self.pairs) + 2 * n_queries

    def new_state(self) -> dict:
        transport = _transport(self.oracle, self.seed, self.median_latency_s)
        engine = DeclarativeEngine(transport, max_concurrency=1, default_model=MODEL)
        return {"transport": transport, "engine": engine}

    def execute(self, state: dict) -> Any:
        return state["engine"].run_pipeline(self.spec)

    def outcome(self, state: dict, report, wall_s: float) -> Repetition:
        transport: LatencyTransport = state["transport"]
        session = state["engine"].session
        check_accounting(transport, [session])
        statuses = [step.status for step in report.step_reports.values()]
        results = report.results
        signature = self.signature(results)
        return Repetition(
            wall_s=wall_s,
            steps=len(statuses),
            failed_steps=sum(1 for status in statuses if status != "completed"),
            calls=transport.calls,
            tokens=transport.tokens,
            dollars=exact_dollars(session.budget.spent),
            quoted_calls=report.quote.total_calls,
            quoted_dollars=report.quote.total_dollars,
            quoted_s=report.quote.total_seconds,
            actual_calls=report.total_calls,
            transport_wait_s=transport.wait_s,
            quality=self.quality(signature),
            signature=signature,
            sessions=[session],
        )

    @staticmethod
    def signature(results) -> dict:
        """Orders, decisions and predictions of the steps that completed."""
        signature = {}
        for name, output in PAPER_OUTPUTS.items():
            if name in results:
                value = getattr(results[name], output)
                signature[name] = dict(sorted(value.items())) if isinstance(value, dict) else list(value)
        return signature

    def quality(self, signature: dict) -> dict[str, float]:
        """Each table's quality; a step that did not complete scores 0."""
        truths = {
            "t1_pairwise": list(FLAVORS),
            "t1_rating": list(FLAVORS),
            "t2_sort_insert": sorted(self.words, key=str.lower),
        }
        taus = {
            name: kendall_tau_b(completed_order(signature[name], truth), truth) if name in signature else 0.0
            for name, truth in truths.items()
        }
        accuracy = {
            name: self.imputation.accuracy(signature[name]) if name in signature else 0.0
            for name in ("t4_hybrid", "t4_llm_only")
        }
        f1 = (
            confusion_from_pairs(signature["t3_transitive"], self.labels).f1
            if "t3_transitive" in signature else 0.0
        )
        return {
            "sort_tau": sum(taus.values()) / len(taus),
            "er_f1": f1,
            "impute_accuracy": sum(accuracy.values()) / len(accuracy),
            **{f"sort_tau.{name}": value for name, value in taus.items()},
            **{f"impute_accuracy.{name}": value for name, value in accuracy.items()},
        }

    def reference_signature(self) -> dict:
        """The four case studies run directly through the operators."""
        client = SimulatedLLM(self.oracle, seed=MODEL_SEED)
        kwargs = {"model": MODEL, "cost_model": default_registry().cost_model()}
        sort_choc = SortOperator(client, CHOCOLATEY, **kwargs)
        sort_alpha = SortOperator(client, ALPHABETICAL, **kwargs)
        resolve = ResolveOperator(client, **kwargs)
        impute = ImputeOperator(client, **kwargs)
        return self.signature(
            {
                "t1_pairwise": sort_choc.run(self.flavors, strategy="pairwise"),
                "t1_rating": sort_choc.run(self.flavors, strategy="rating"),
                "t2_sort_insert": sort_alpha.run(self.words, strategy="hybrid_sort_insert"),
                "t3_transitive": resolve.judge_pairs(
                    self.pairs, strategy="transitive", corpus=self.texts, neighbors_k=2
                ),
                "t4_hybrid": impute.run(self.imputation, strategy="hybrid", n_examples=3),
                "t4_llm_only": impute.run(self.imputation, strategy="llm_only", n_examples=3),
            }
        )


# -- er_latency -----------------------------------------------------------------


class ERLatency:
    """Fluent dedup of ~450 citations behind a 40 ms latency model.

    At 8 in flight the waits add up to ~8.3 s per repetition and a
    repetition runs within ~5 % of that, so the figure measures how well
    the executor keeps 8 calls in flight, not the host's interpreter speed.
    Shorter latencies put the interpreter time between calls on the
    critical path.
    """

    name = "er_latency"
    limit_s = 15.0
    median_latency_s = 0.040
    concurrency = 8

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # A fixed corpus whose record order the seed permutes; the seed also
        # drives the latency draws.
        self.corpus = generate_citation_corpus(n_entities=150, n_pairs=10, seed=CORPUS_SEED)
        entity_of = {
            text: self.corpus.entity_of[record.record_id]
            for text, record in zip(self.corpus.texts(), self.corpus.dataset)
        }
        self.texts = _permuted(dict.fromkeys(self.corpus.texts()), random.Random(seed))
        self.entity_of = {text: entity_of[text] for text in self.texts}
        self.oracle = self.corpus.oracle()
        self.records = len(self.texts)

    def new_state(self, *, median_s: float | None = None, concurrency: int | None = None) -> dict:
        width = self.concurrency if concurrency is None else concurrency
        transport = _transport(
            self.oracle, self.seed, self.median_latency_s if median_s is None else median_s
        )
        governor = ConcurrencyGovernor(max_in_flight=width)
        engine = DeclarativeEngine(
            transport, max_concurrency=width, governor=governor, default_model=MODEL
        )
        return {"transport": transport, "engine": engine, "governor": governor}

    def execute(self, state: dict) -> Any:
        return Dataset(self.texts, name="citations").resolve().run(state["engine"])

    def outcome(self, state: dict, result, wall_s: float) -> Repetition:
        transport: LatencyTransport = state["transport"]
        session = state["engine"].session
        check_accounting(transport, [session])
        report = result.report
        statuses = [step.status for step in report.step_reports.values()]
        failed_steps = sum(1 for status in statuses if status != "completed")
        # A run with a failed step has no final items (the program returns
        # none), so there is nothing to compare and nothing to score.
        signature = {"items": list(result.items)} if not failed_steps else {}
        return Repetition(
            wall_s=wall_s,
            steps=len(statuses),
            failed_steps=failed_steps,
            calls=transport.calls,
            tokens=transport.tokens,
            dollars=exact_dollars(session.budget.spent),
            quoted_calls=result.quote.total_calls,
            quoted_dollars=result.quote.total_dollars,
            quoted_s=result.quote.total_seconds,
            actual_calls=report.total_calls,
            transport_wait_s=transport.wait_s,
            quality={"er_f1": self.cluster_f1(result) if not failed_steps else 0.0},
            signature=signature,
            sessions=[session],
            governors=[state["governor"]],
        )

    def cluster_f1(self, result) -> float:
        """Pairwise cluster F1 of the clusters behind the query's final items.

        The clusters are the resolve step's own: a ``ResolveResult``'s
        clusters, or the components the program forms from a
        ``PairJudgmentResult``'s duplicate judgments (``MatchGraph``).  The
        first member of each, in input order, must be the query's final
        items, so the figure always describes what the program returned.
        """
        require(
            all(
                isinstance(value, (BlockingResult, ResolveResult, PairJudgmentResult))
                for value in result.results.values()
            ),
            "er_result_types_recognised",
            str(sorted(type(value).__name__ for value in result.results.values())),
        )
        resolved = [
            value for value in result.results.values()
            if isinstance(value, (ResolveResult, PairJudgmentResult))
        ]
        require(len(resolved) == 1, "er_result_has_one_resolve_step", f"{len(resolved)} found")
        position = {text: index for index, text in enumerate(self.texts)}
        if isinstance(resolved[0], ResolveResult):
            clusters = [[self.texts[index] for index in sorted(c)] for c in resolved[0].clusters]
        else:
            graph = MatchGraph()
            for text in self.texts:
                graph.add_node(text)
            for judgment in resolved[0].judgments:
                if judgment.is_duplicate:
                    graph.add_match(judgment.left, judgment.right)
            clusters = [sorted(c, key=position.__getitem__) for c in graph.components()]
        clusters.sort(key=lambda cluster: position[cluster[0]])
        require(
            [cluster[0] for cluster in clusters] == list(result.items),
            "er_clusters_give_final_items",
        )
        return pairwise_cluster_f1(clusters, self.entity_of).f1

    def reference_signature(self) -> dict:
        """The same query at ``max_concurrency=1`` with no latency."""
        state = self.new_state(median_s=0.0, concurrency=1)
        return {"items": list(self.execute(state).items)}


BATCH_WORKLOADS = {PaperCPU.name: PaperCPU, ERLatency.name: ERLatency}
