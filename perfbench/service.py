"""The ``service_open_loop`` workload: two tenants, one store, open-loop jobs.

Jobs arrive on a fixed-rate schedule regardless of how fast the service
answers (independent users), so a stall shows up as queueing on later
jobs.  Each job's latency runs from its *scheduled* send time to the
terminal event of its ``/v1/jobs/{id}/events`` stream; how late the
generator itself ran is reported separately.

The schedule — arrival times, tenants, and which jobs repeat an earlier
one — is the same for every seed, so every seed offers the same load:

* a *same-tenant repeat* must be restored from that tenant's checkpoints
  with zero calls;
* a *cross-tenant repeat* must be paid again, because store namespaces
  isolate tenants.

The seed writes the citations.  Distinct jobs hold the same number of
records from disjoint entities, so no two distinct jobs share a prompt,
every paid job costs the same calls, and the call count does not depend on
how jobs interleave.  A repeat always refers to a job scheduled at least
``REPEAT_GAP_S`` earlier, which has finished by then at the fixed rate.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import random
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro import Store
from repro.core.engine import DeclarativeEngine
from repro.core.spec import PipelineSpec, PipelineStep, ResolveSpec, SortSpec
from repro.core.spec_codec import pipeline_to_dict
from repro.data.citations import generate_citation_corpus
from repro.llm.registry import default_registry
from repro.llm.simulated import SimulatedLLM
from repro.metrics.classification import BinaryConfusion
from repro.metrics.clustering import pairwise_cluster_f1
from repro.metrics.ranking import kendall_tau_b
from repro.service import ServiceApp, ServiceClient, TenantConfig, TenantRegistry

from perfbench.transport import LatencyTransport
from perfbench.workloads import ALPHABETICAL, MODEL, check_accounting, completed_order, require

#: Offered load, jobs per second: a job lives ~0.56 s, so about 2.8 jobs
#: are active against the app's 4 slots, with room for a slow phase of a
#: shared host.
RATE_PER_S = 5.0
#: Latency limit per job for ``limit_met_share``.
LIMIT_S = 1.0
#: Median of the seeded per-call latency model.  Waiting makes up ~85 % of
#: a job's latency, so a host running the interpreter at half speed moves
#: p50 by about 5 %.
MEDIAN_LATENCY_S = 0.030
#: Citation records per distinct job; resolving and ranking them pairwise
#: costs exactly 2 * C(8, 2) = 56 calls.
JOB_RECORDS = 8
SAME_TENANT_REPEAT = 0.15
CROSS_TENANT_REPEAT = 0.10
REPEAT_GAP_S = 2.0
TENANTS = ("tenant-a", "tenant-b")
#: The arrival schedule, tenants and repeat pattern are the same for every
#: seed, so every seed offers the same load.
SCHEDULE_SEED = 0


@dataclass
class ScheduledJob:
    index: int
    at_s: float
    tenant: str
    key: int  # the distinct pipeline this job runs
    kind: str  # "new", "same_tenant_repeat" or "cross_tenant_repeat"


@dataclass
class JobOutcome:
    job: ScheduledJob
    lateness_s: float = 0.0
    latency_s: float | None = None
    #: ``perf_counter`` times of the submission and of the terminal event.
    sent_at: float = 0.0
    done_at: float | None = None
    status: str = "refused"
    job_id: str | None = None
    quoted_calls: int = 0
    quoted_dollars: float = 0.0
    quoted_s: float | None = None
    record: dict | None = None


@dataclass
class ServicePhase:
    """Everything one open-loop phase measured."""

    outcomes: list[JobOutcome]
    wall_s: float
    transport: LatencyTransport
    sessions: list = field(default_factory=list)
    governors: list = field(default_factory=list)
    tracers: list = field(default_factory=list)


class ServiceOpenLoop:
    name = "service_open_loop"
    limit_s = LIMIT_S

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.schedule = _schedule(max(100, int(math.ceil(RATE_PER_S * seconds))))
        n_distinct = 1 + max(job.key for job in self.schedule)
        # The seed writes the citations; every distinct job holds exactly
        # JOB_RECORDS of them, from entities no other job uses.
        corpus = generate_citation_corpus(n_entities=4 * n_distinct, n_pairs=10, seed=seed)
        by_entity: dict[str, list[str]] = {}
        entity_of: dict[str, str] = {}
        for text, record in zip(corpus.texts(), corpus.dataset):
            if text not in entity_of:
                entity = corpus.entity_of[record.record_id]
                by_entity.setdefault(entity, []).append(text)
                entity_of[text] = entity
        entities = iter(sorted(by_entity))
        self.job_texts: list[list[str]] = []
        for key in range(n_distinct):
            texts: list[str] = []
            while len(texts) < JOB_RECORDS:
                texts.extend(by_entity[next(entities)])
            texts = texts[:JOB_RECORDS]
            random.Random(f"{seed}:{key}").shuffle(texts)
            self.job_texts.append(texts)
        self.entity_of = entity_of
        self.pipelines = [self._pipeline(key, texts) for key, texts in enumerate(self.job_texts)]
        self.payloads = [pipeline_to_dict(pipeline) for pipeline in self.pipelines]
        oracle = corpus.oracle()
        oracle.register_key(ALPHABETICAL, lambda text: text.lower())
        self.oracle = oracle
        self.records_per_job = [len(texts) for texts in self.job_texts]

    @staticmethod
    def _pipeline(key: int, texts: list[str]) -> PipelineSpec:
        return PipelineSpec(
            name=f"job-{key}",
            steps=[
                PipelineStep("dedup", task=ResolveSpec(records=texts, strategy="pairwise")),
                PipelineStep(
                    "rank",
                    task=SortSpec(items=texts, criterion=ALPHABETICAL, strategy="pairwise"),
                    depends_on=("dedup",),
                ),
            ],
        )

    # -- the service ------------------------------------------------------------

    def build(self) -> dict:
        """Store, transport, tenants and app: the phase's fresh universe."""
        directory = Path(tempfile.mkdtemp(prefix="service-", dir=self.workdir))
        store = Store(directory / "store.db")
        transport = LatencyTransport(
            SimulatedLLM(self.oracle, seed=self.seed),
            default_registry().cost_model(),
            seed=self.seed,
            median_s=MEDIAN_LATENCY_S,
            record_prompts=True,
        )
        registry = TenantRegistry(
            transport,
            [
                TenantConfig(
                    tenant_id=tenant,
                    api_key=f"key-{tenant}",
                    max_in_flight=8,
                    max_concurrency=4,
                    max_queue_depth=64,
                    default_model=MODEL,
                )
                for tenant in TENANTS
            ],
            store=store,
        )
        tenants = [registry.get(tenant) for tenant in TENANTS]
        app = ServiceApp(registry, max_active_jobs=4)
        clients = {tenant: ServiceClient(app, api_key=f"key-{tenant}") for tenant in TENANTS}
        return {
            "directory": directory,
            "store": store,
            "transport": transport,
            "tenants": tenants,
            "app": app,
            "clients": clients,
        }

    @staticmethod
    def close(universe: dict) -> None:
        universe["store"].close()
        shutil.rmtree(universe["directory"], ignore_errors=True)

    async def run_phase(self, universe: dict, root=None) -> ServicePhase:
        """Drive the schedule open-loop; returns once every job settled.

        ``root`` optionally wraps the measured part (schedule to last
        terminal event) in a context manager, such as a trace root span.
        """
        app: ServiceApp = universe["app"]
        clients = universe["clients"]
        app.startup()
        outcomes = [JobOutcome(job) for job in self.schedule]
        loop = asyncio.get_running_loop()
        tasks: list[asyncio.Task] = []

        async def one_job(outcome: JobOutcome, due: float) -> None:
            job = outcome.job
            client = clients[job.tenant]
            outcome.sent_at = time.perf_counter()
            response = await client.post("/v1/pipelines", json_body=self.payloads[job.key])
            body = response.json()
            quote = body.get("quote") or {}
            outcome.quoted_calls = int(quote.get("total_calls") or 0)
            outcome.quoted_dollars = float(quote.get("total_dollars") or 0.0)
            outcome.quoted_s = quote.get("total_seconds")
            if response.status != 202:
                outcome.status = f"refused:{response.status}"
                return
            outcome.job_id = body["job_id"]
            events = (await client.get(f"/v1/jobs/{outcome.job_id}/events")).sse_events()
            outcome.done_at = time.perf_counter()
            outcome.latency_s = outcome.done_at - due
            done = [event for event in events if event.get("event") == "done"]
            outcome.status = done[-1]["status"] if done else "lost"

        with root if root is not None else contextlib.nullcontext():
            origin = time.perf_counter()
            for outcome in outcomes:
                due = origin + outcome.job.at_s
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                outcome.lateness_s = max(0.0, time.perf_counter() - due)
                tasks.append(loop.create_task(one_job(outcome, due)))
            await asyncio.gather(*tasks)
            wall_s = time.perf_counter() - origin
        for outcome in outcomes:
            if outcome.job_id is not None:
                outcome.record = (
                    await clients[outcome.job.tenant].get(f"/v1/jobs/{outcome.job_id}")
                ).json()
        await app.shutdown()
        tenants = universe["tenants"]
        return ServicePhase(
            outcomes=outcomes,
            wall_s=wall_s,
            transport=universe["transport"],
            sessions=[tenant.session for tenant in tenants],
            governors=[tenant.governor for tenant in tenants if tenant.governor is not None],
            tracers=[tenant.session.tracer for tenant in tenants],
        )

    # -- checks and quality -------------------------------------------------------

    def reference_results(self) -> list:
        """Each distinct pipeline run directly, with no store and no latency.

        Returns ``(report, prompts)`` per pipeline: the run's report and the
        prompts it paid for, which belong to that pipeline alone.
        """
        references = []
        for pipeline in self.pipelines:
            transport = LatencyTransport(
                SimulatedLLM(self.oracle, seed=self.seed),
                default_registry().cost_model(),
                seed=self.seed,
                record_prompts=True,
            )
            engine = DeclarativeEngine(transport, max_concurrency=1, default_model=MODEL)
            references.append((engine.run_pipeline(pipeline), transport.calls_by_prompt))
        return references

    def check(self, phase: ServicePhase, references: list) -> None:
        """Succeeded jobs equal direct runs; repeats restore or re-pay.

        A refused or failed job is a miss, not a wrong result: it counts in
        the metrics and is checked only for what it paid.  Per-job call
        totals on a job's report are deltas of the tenant's session-wide
        tracker, so they include the calls of the tenant's other jobs
        running at the same time.  Calls are therefore checked at the
        transport, per pipeline: each tenant with a succeeded job on it pays
        the direct run's calls exactly once, as long as every job on it
        succeeded and every same-tenant repeat came after its original had
        finished.  Otherwise each tenant pays at least one direct run and
        each admitted job at most one.
        """
        encoded = [report.to_dict()["results"] for report, _ in references]
        orderly = {key: True for key in range(len(references))}
        succeeded_by = {key: set() for key in range(len(references))}
        admitted = Counter()
        for outcome in phase.outcomes:
            job = outcome.job
            label = f"job {job.index} ({job.kind}, {job.tenant})"
            if outcome.job_id is not None:
                admitted[job.key] += 1
            if outcome.status != "succeeded":
                orderly[job.key] = False
                continue
            succeeded_by[job.key].add(job.tenant)
            report = outcome.record["report"]
            require(
                _without_restore_marks(report["results"]) == encoded[job.key],
                "service_results_equal_direct_run",
                label,
            )
            restored = sorted(
                name for name, step in report["step_reports"].items() if step.get("restored")
            )
            if job.kind != "same_tenant_repeat":
                require(not restored, "new_or_cross_tenant_job_not_restored", f"{label}: restored {restored}")
            elif any(
                earlier.job.tenant == job.tenant
                and earlier.job.key == job.key
                and earlier.status == "succeeded"
                and earlier.done_at < outcome.sent_at
                for earlier in phase.outcomes[: job.index]
            ):
                require(
                    restored == ["dedup", "rank"],
                    "same_tenant_repeat_restored",
                    f"{label}: restored {restored}",
                )
            else:
                # Sent before its original finished: it may restore any part.
                orderly[job.key] = False
        owner = {
            prompt: key for key, (_, prompts) in enumerate(references) for prompt in prompts
        }
        calls_by_key = Counter()
        for prompt, count in phase.transport.calls_by_prompt.items():
            require(prompt in owner, "calls_belong_to_a_submitted_pipeline")
            calls_by_key[owner[prompt]] += count
        for key, (_, prompts) in enumerate(references):
            direct = sum(prompts.values())
            low = direct * len(succeeded_by[key])
            high = low if orderly[key] else direct * admitted[key]
            require(
                low <= calls_by_key[key] <= high,
                "repeats_pay_only_across_tenants",
                f"pipeline {key}: {calls_by_key[key]} calls, expected {low}..{high}",
            )
        check_accounting(phase.transport, phase.sessions)

    def quality(self, references: list) -> dict[str, float]:
        # Distinct jobs hold disjoint entities, so pairs across jobs are true
        # negatives and per-job confusions add up to the corpus-wide one.
        total = BinaryConfusion()
        taus = []
        for key, (report, _) in enumerate(references):
            texts = self.job_texts[key]
            clusters = [
                [texts[index] for index in cluster]
                for cluster in report.results["dedup"].clusters
            ]
            confusion = pairwise_cluster_f1(
                clusters, {text: self.entity_of[text] for text in texts}
            )
            total.true_positives += confusion.true_positives
            total.false_positives += confusion.false_positives
            total.false_negatives += confusion.false_negatives
            truth = sorted(texts, key=str.lower)
            taus.append(kendall_tau_b(completed_order(report.results["rank"].order, truth), truth))
        return {"er_f1": total.f1, "sort_tau": sum(taus) / len(taus)}


def _without_restore_marks(results: dict) -> dict:
    """Encoded step results minus the flag a checkpoint restore adds."""
    cleaned = {}
    for name, encoded in results.items():
        fields = dict(encoded.get("fields", {}))
        metadata = {k: v for k, v in fields.get("metadata", {}).items() if k != "checkpoint_hit"}
        cleaned[name] = {**encoded, "fields": {**fields, "metadata": metadata}}
    return cleaned


def _schedule(n_jobs: int) -> list[ScheduledJob]:
    """Fixed-rate arrivals; tenants and repeats drawn from ``SCHEDULE_SEED``."""
    rng = random.Random(SCHEDULE_SEED)
    schedule: list[ScheduledJob] = []
    ran_by: dict[str, list[ScheduledJob]] = {tenant: [] for tenant in TENANTS}
    n_distinct = 0
    for index in range(n_jobs):
        at_s = index / RATE_PER_S
        tenant = TENANTS[rng.randrange(len(TENANTS))]
        other = TENANTS[1 - TENANTS.index(tenant)]
        mine = [job for job in ran_by[tenant] if job.at_s <= at_s - REPEAT_GAP_S]
        mine_keys = {job.key for job in ran_by[tenant]}
        theirs = [
            job for job in ran_by[other]
            if job.at_s <= at_s - REPEAT_GAP_S and job.key not in mine_keys
        ]
        draw = rng.random()
        if draw < SAME_TENANT_REPEAT and mine:
            job = ScheduledJob(index, at_s, tenant, rng.choice(mine).key, "same_tenant_repeat")
        elif draw < SAME_TENANT_REPEAT + CROSS_TENANT_REPEAT and theirs:
            job = ScheduledJob(index, at_s, tenant, rng.choice(theirs).key, "cross_tenant_repeat")
        else:
            job = ScheduledJob(index, at_s, tenant, n_distinct, "new")
            n_distinct += 1
        schedule.append(job)
        ran_by[tenant].append(job)
    return schedule
