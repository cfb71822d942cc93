"""Measurement, checks and metrics behind ``perfbench/run.py``.

Imported only after ``run.py`` has put the checkout's ``src`` on the path
and made sure the program imports.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from perfbench.service import ServiceOpenLoop
from perfbench.tracing import LAYERS, SpanLog, analyze
from perfbench.workloads import BATCH_WORKLOADS, CheckFailed, exact_dollars, require

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = ROOT / ".perfbench_tmp"
OUTDIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
MIN_REPETITIONS = 3
REFERENCE_FILE = BENCH / "reference.json"


# -- helpers -----------------------------------------------------------------------


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def relative_error(quoted: float | None, actual: float) -> float:
    """|quoted - actual| / actual; a missing quote counts as quoting zero."""
    if actual <= 0:
        return 0.0
    return abs((quoted or 0.0) - actual) / actual


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


def build_workload(name: str, seed: int, seconds: float):
    if name == ServiceOpenLoop.name:
        WORKDIR.mkdir(exist_ok=True)
        return ServiceOpenLoop(seed, seconds, WORKDIR)
    return BATCH_WORKLOADS[name](seed)


# -- set-up time -------------------------------------------------------------------


def setup_probe(args) -> int:
    """Child process: get one workload ready to run, then say so and exit."""
    workload = build_workload(args.workload, args.seed, args.seconds)
    if args.workload == "service_open_loop":
        universe = workload.build()
        print("ready", flush=True)
        workload.close(universe)
    else:
        workload.new_state()
        print("ready", flush=True)
    return 0


def measure_setup(args) -> list[float]:
    """Fresh-process start until ready, measured from outside, several times."""
    samples = []
    command = [
        sys.executable, str(BENCH / "run.py"), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit status {code}")
        samples.append(ready)
    return samples


# -- batch workloads -----------------------------------------------------------------


def run_repetitions(workload, seconds: float, log=None) -> tuple[list, list]:
    """Fresh engine per repetition; time only the workload call itself."""
    repetitions, analyses = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(repetitions) < MIN_REPETITIONS:
        if log is not None:
            log.clear()
        state = workload.new_state()
        root = log.root() if log is not None else contextlib.nullcontext(0)
        start = time.perf_counter()
        with root as root_id:
            result = workload.execute(state)
        wall = time.perf_counter() - start
        repetition = workload.outcome(state, result, wall)
        if log is not None:
            analyses.append(
                layer_analysis(log, root_id, repetition.governors,
                               [session.tracer for session in repetition.sessions])
            )
        # Keep no engine alive past its repetition: peak memory must not
        # grow with the number of repetitions that fit in the run.
        repetition.sessions, repetition.governors = [], []
        del state, result
        repetitions.append(repetition)
    return repetitions, analyses


def check_batch(workload, repetitions: list) -> None:
    """Outputs equal the reference run; complete repetitions are identical.

    A failed step is a miss, counted in the metrics; the steps that did
    complete must still be right.
    """
    complete = [repetition for repetition in repetitions if repetition.failed_steps == 0]
    for index, repetition in enumerate(complete):
        require(
            (repetition.signature, repetition.calls, repetition.tokens, repetition.dollars)
            == (complete[0].signature, complete[0].calls, complete[0].tokens, complete[0].dollars),
            "repetitions_identical",
            f"complete repetition {index} differs from the first",
        )
    reference = workload.reference_signature()
    for index, repetition in enumerate(repetitions):
        for name, value in repetition.signature.items():
            require(
                reference[name] == value,
                "outputs_equal_reference_run",
                f"{workload.name} repetition {index}: {name}",
            )
    recorded = (
        json.loads(REFERENCE_FILE.read_text()).get(str(workload.seed))
        if workload.name == "paper_cpu" and REFERENCE_FILE.exists() else None
    )
    if recorded is not None and complete:
        first = complete[0]
        require(
            recorded["digest"] == digest(first.signature),
            "outputs_equal_recorded_reference",
            f"seed {workload.seed}",
        )
        for name in ("sort_tau", "er_f1", "impute_accuracy"):
            require(
                recorded[name] == first.quality[name],
                "quality_equals_recorded_reference",
                f"{name}: {first.quality[name]!r} vs recorded {recorded[name]!r}",
            )


def batch_end_to_end(workload, repetitions: list) -> dict[str, float]:
    first = repetitions[0]
    walls = [repetition.wall_s for repetition in repetitions]
    attempted = sum(repetition.steps for repetition in repetitions)
    failed = sum(repetition.failed_steps for repetition in repetitions)
    return {
        "records_per_s": statistics.median(workload.records / wall for wall in walls),
        "job_latency_p50_s": statistics.median(walls),
        "job_latency_p90_s": percentile(walls, 0.9),
        "limit_met_share": sum(
            1 for r in repetitions if r.failed_steps == 0 and r.wall_s <= workload.limit_s
        ) / len(repetitions),
        "llm_calls": first.calls,
        "tokens": first.tokens,
        "dollars": first.dollars,
        "er_f1": first.quality["er_f1"],
        "quote_error_calls": relative_error(first.quoted_calls, first.actual_calls),
        "succeeded_share": 1.0 - failed / attempted,
        "_attempted": attempted,
        "_failed": failed,
        "_samples": len(repetitions),
        "_walls_s": walls,
        "_quote": {
            "quoted_calls": first.quoted_calls,
            "actual_calls": first.actual_calls,
            "quoted_dollars": first.quoted_dollars,
            "actual_dollars": first.dollars,
            "quoted_s": first.quoted_s,
            "actual_s": statistics.median(walls),
        },
        "_quality": first.quality,
    }


# -- the service ---------------------------------------------------------------------


def run_service_phase(workload, log=None):
    universe = workload.build()
    try:
        phase = asyncio.run(
            workload.run_phase(universe, root=log.root() if log is not None else None)
        )
    finally:
        workload.close(universe)
    return phase


def service_end_to_end(workload, phase, quality: dict) -> dict[str, float]:
    outcomes = phase.outcomes
    succeeded = [o for o in outcomes if o.status == "succeeded"]
    require(bool(succeeded), "some_job_succeeded", "no latency to report")
    latencies = [o.latency_s for o in succeeded]
    # Calls and dollars come from the transport and the tenants' budgets:
    # a job report's totals also count the tenant's concurrent jobs.
    actual_calls = phase.transport.calls
    actual_dollars = exact_dollars(sum(session.budget.spent for session in phase.sessions))
    records = sum(workload.records_per_job[o.job.key] for o in succeeded)
    return {
        "records_per_s": records / phase.wall_s,
        "job_latency_p50_s": statistics.median(latencies),
        "job_latency_p90_s": percentile(latencies, 0.9),
        "limit_met_share": sum(1 for lat in latencies if lat <= workload.limit_s) / len(outcomes),
        "llm_calls": actual_calls,
        "tokens": phase.transport.tokens,
        "dollars": actual_dollars,
        "er_f1": quality["er_f1"],
        "quote_error_calls": relative_error(sum(o.quoted_calls for o in outcomes), actual_calls),
        "succeeded_share": len(succeeded) / len(outcomes),
        "_attempted": len(outcomes),
        "_failed": len(outcomes) - len(succeeded),
        "_samples": len(latencies),
        "_quote": {
            "quoted_calls": sum(o.quoted_calls for o in outcomes),
            "actual_calls": actual_calls,
            "quoted_dollars": sum(o.quoted_dollars for o in outcomes),
            "actual_dollars": actual_dollars,
            "quoted_s": sum(o.quoted_s or 0.0 for o in outcomes),
            "actual_s": sum(latencies),
            "quotes_without_seconds": sum(1 for o in outcomes if o.quoted_s is None),
        },
        "_quality": quality,
        "_loop_lag_max_s": max(o.lateness_s for o in outcomes),
        "_mean_latency_s": statistics.fmean(latencies),
        "_repeats": {
            kind: sum(1 for o in outcomes if o.job.kind == kind)
            for kind in ("new", "same_tenant_repeat", "cross_tenant_repeat")
        },
        "_statuses": dict(Counter(o.status for o in outcomes)),
    }


def layer_analysis(log: SpanLog, root_id: int, governors, tracers, loop_lag_s: float = 0.0) -> dict:
    """Self times and busy times under ``root_id`` plus the layers' counters."""
    analysis = analyze(log.spans, root_id)
    analysis.update(
        units=log.units.copy(),
        counters=log.counters.copy(),
        throttled=sum(governor.stats_snapshot().throttled for governor in governors),
        dropped=sum(tracer.dropped for tracer in tracers),
        queue_wait_s=sum(
            times["running"] - times["queued"]
            for times in log.queue_marks.values()
            if "queued" in times and "running" in times
        ),
        loop_lag_max_s=loop_lag_s,
    )
    return analysis


# -- per-layer metrics ---------------------------------------------------------------

PER_LAYER_UNITS = {
    "query.compile_s": "s",
    "planner.quote_s": "s",
    "physical.resolve_s": "s",
    "planner.quote_error_dollars": "ratio",
    "planner.quote_error_s": "ratio",
    "workflow.self_s": "s",
    "engine.pipeline_self_s": "s",
    "engine.step_self_s": "s",
    "operators.sort.self_s": "s",
    "operators.resolve.self_s": "s",
    "operators.impute.self_s": "s",
    "executor.dispatches": "count",
    "executor.busy_s": "s",
    "executor.queue_wait_s": "s",
    "executor.mean_in_flight": "count",
    "governor.admit_wait_s": "s",
    "governor.throttled": "count",
    "session.self_us_per_call": "us",
    "cache.hit_ratio": "ratio",
    "cache.self_us_per_lookup": "us",
    "simulated.us_per_call": "us",
    "transport.wait_s": "s",
    "tokenizer.calls": "count",
    "tokenizer.s": "s",
    "proxies.s": "s",
    "proxies.pairs_scored": "count",
    "embeddings.scan_s": "s",
    "index.build_s": "s",
    "index.query_s": "s",
    "index.candidates_examined": "count",
    "consistency.s": "s",
    "store.read_s": "s",
    "store.write_s": "s",
    "store.calls": "count",
    "store.checkpoint_hits": "count",
    "trace.record_us_per_call": "us",
    "trace.flush_s": "s",
    "trace.dropped": "count",
    "obs.span_us_per_call": "us",
    "obs.flush_s": "s",
    "service.request_s.submit": "s",
    "service.request_s.events": "s",
    "service.admission_s": "s",
    "service.queue_wait_s": "s",
    "service.loop_lag_max_s": "s",
    "unattributed.s": "s",
    "check.layer_sum_ratio": "ratio",
    "check.orphan_spans": "count",
    "tracing.overhead_ratio": "ratio",
    **{f"{layer}.busy_share": "ratio" for layer in LAYERS},
}


def per_layer_metrics(analyses: list[dict], quote: dict, transport_wait_s: float,
                      overhead_ratio: float) -> dict[str, float]:
    """Per-repetition means of every per-layer metric."""
    n = len(analyses)

    def total(key: str, name: str) -> float:
        return sum(analysis[key][name] for analysis in analyses)

    def self_of(*names: str) -> float:
        return sum(total("self_s", name) for name in names) / n

    def per_unit_us(name: str, units: float) -> float:
        return 1e6 * total("self_s", name) / units if units else 0.0

    calls = lambda name: total("count", name)  # noqa: E731
    units = lambda name: sum(a["units"][name] for a in analyses)  # noqa: E731
    counter = lambda name: sum(a["counters"][name] for a in analyses) / n  # noqa: E731
    root_s = sum(a["root_s"] for a in analyses)
    lookups = units("cache.lookup")
    transport_calls = calls("transport.call")
    metrics = {
        "query.compile_s": self_of("query.compile"),
        "planner.quote_s": self_of("planner.quote"),
        "physical.resolve_s": self_of("physical.resolve"),
        "planner.quote_error_dollars": relative_error(quote["quoted_dollars"], quote["actual_dollars"]),
        "planner.quote_error_s": relative_error(quote["quoted_s"], quote["actual_s"]),
        "workflow.self_s": self_of("workflow.execute"),
        "engine.pipeline_self_s": self_of("engine.pipeline"),
        "engine.step_self_s": self_of("engine.step"),
        "operators.sort.self_s": self_of("operators.sort"),
        "operators.resolve.self_s": self_of("operators.resolve"),
        "operators.impute.self_s": self_of("operators.impute"),
        "executor.dispatches": (units("executor.run") + units("executor.map")) / n,
        "executor.busy_s": total("busy_s", "executor") / n,
        "executor.queue_wait_s": (
            sum(a["task_queue_wait_s"] for a in analyses) / task_count
            if (task_count := calls("executor.task")) else 0.0
        ),
        "executor.mean_in_flight": transport_wait_s / (root_s / n) if root_s else 0.0,
        "governor.admit_wait_s": sum(a["duration_s"]["governor.admit"] for a in analyses) / n,
        "governor.throttled": sum(a["throttled"] for a in analyses) / n,
        "session.self_us_per_call": per_unit_us("session.call", units("session.call")),
        "cache.hit_ratio": 1.0 - transport_calls / lookups if lookups else 0.0,
        "cache.self_us_per_lookup": per_unit_us("cache.lookup", lookups),
        "simulated.us_per_call": per_unit_us("simulated.call", calls("simulated.call")),
        "transport.wait_s": transport_wait_s,
        "tokenizer.calls": sum(a["top_level"]["tokenizer"] for a in analyses) / n,
        "tokenizer.s": self_of("tokenizer.count", "tokenizer.tokenize"),
        "proxies.s": self_of("proxies.knn", "proxies.block"),
        "proxies.pairs_scored": counter("proxies.pairs_scored"),
        "embeddings.scan_s": self_of("embeddings.scan"),
        "index.build_s": self_of("index.build"),
        "index.query_s": self_of("index.query"),
        "index.candidates_examined": counter("index.candidates_examined"),
        "consistency.s": self_of("consistency.graph", "consistency.ranking"),
        "store.read_s": self_of("store.read"),
        "store.write_s": self_of("store.write"),
        "store.calls": sum(a["top_level"]["store"] for a in analyses) / n,
        "store.checkpoint_hits": counter("store.checkpoint_hits"),
        "trace.record_us_per_call": per_unit_us("trace.record", calls("trace.record")),
        "trace.flush_s": self_of("trace.flush"),
        "trace.dropped": sum(a["dropped"] for a in analyses) / n,
        "obs.span_us_per_call": per_unit_us("obs.record", calls("obs.record")),
        "obs.flush_s": self_of("obs.flush"),
        "service.request_s.submit": sum(a["duration_s"]["service.request.submit"] for a in analyses) / n,
        "service.request_s.events": sum(a["duration_s"]["service.request.events"] for a in analyses) / n,
        "service.admission_s": sum(a["duration_s"]["service.admission"] for a in analyses) / n,
        "service.queue_wait_s": sum(a["queue_wait_s"] for a in analyses) / n,
        "service.loop_lag_max_s": max(a["loop_lag_max_s"] for a in analyses),
        "unattributed.s": sum(a["unattributed_s"] for a in analyses) / n,
        "check.layer_sum_ratio": statistics.median(a["layer_sum_ratio"] for a in analyses),
        "check.orphan_spans": sum(a["orphans"] for a in analyses) / n,
        "tracing.overhead_ratio": overhead_ratio,
    }
    for layer in LAYERS:
        metrics[f"{layer}.busy_share"] = total("busy_s", layer) / root_s if root_s else 0.0
    return metrics


# -- main ----------------------------------------------------------------------------


def emit(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )


END_TO_END_UNITS = {
    "setup_s": "s",
    "records_per_s": "1/s",
    "job_latency_p50_s": "s",
    "job_latency_p90_s": "s",
    "limit_met_share": "ratio",
    "llm_calls": "count",
    "tokens": "count",
    "dollars": "USD",
    "er_f1": "F1",
    "quote_error_calls": "ratio",
    "succeeded_share": "ratio",
    "peak_rss_mb": "MB",
}


def run(args) -> int:
    workload = build_workload(args.workload, args.seed, args.seconds)
    detail: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    try:
        if isinstance(workload, ServiceOpenLoop):
            references = workload.reference_results()
            phase = run_service_phase(workload)
            workload.check(phase, references)
            summary = service_end_to_end(workload, phase, workload.quality(references))
        else:
            references = None
            repetitions, _ = run_repetitions(workload, args.seconds)
            check_batch(workload, repetitions)
            summary = batch_end_to_end(workload, repetitions)
        if args.trace:
            layer = traced_metrics(args, workload, summary, references, repetitions=(
                None if references is not None else repetitions
            ))
            metrics = {name: (layer[name], unit) for name, unit in PER_LAYER_UNITS.items()}
        else:
            summary["peak_rss_mb"] = peak_rss_mb()
            detail["setup_samples_s"] = measure_setup(args)
            summary["setup_s"] = statistics.median(detail["setup_samples_s"])
            metrics = {name: (summary[name], unit) for name, unit in END_TO_END_UNITS.items()}
    except CheckFailed as failure:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
        emit(False, 1, 1, {})
        return 1
    detail.update({key.lstrip("_"): value for key, value in summary.items() if key.startswith("_")})
    print("detail " + json.dumps(detail, sort_keys=True, default=str))
    emit(True, summary["_attempted"], summary["_failed"], metrics)
    return 0


def traced_metrics(args, workload, summary: dict, references, repetitions) -> dict:
    """Measure again with the layer wrappers installed; per-layer metrics."""
    log = SpanLog()
    log.install()
    try:
        if repetitions is None:
            traced = run_service_phase(workload, log)
            root_id = next(span[0] for span in reversed(log.spans) if span[2] == "root")
            analyses = [
                layer_analysis(log, root_id, traced.governors, traced.tracers,
                               max(o.lateness_s for o in traced.outcomes))
            ]
            workload.check(traced, references)
            latencies = [o.latency_s for o in traced.outcomes if o.latency_s is not None]
            overhead = statistics.fmean(latencies) / summary["_mean_latency_s"]
            transport_wait = traced.transport.wait_s
        else:
            traced_reps, analyses = run_repetitions(workload, args.seconds, log)
            for repetition in traced_reps:
                require(
                    (repetition.signature, repetition.calls)
                    == (repetitions[0].signature, repetitions[0].calls),
                    "traced_outputs_equal_untraced",
                )
            overhead = statistics.median(r.wall_s for r in traced_reps) / summary["job_latency_p50_s"]
            transport_wait = statistics.fmean(r.transport_wait_s for r in traced_reps)
    finally:
        log.uninstall()
    OUTDIR.mkdir(exist_ok=True)
    log.write(OUTDIR / f"spans-{args.workload}-{args.seed}.jsonl")
    layer = per_layer_metrics(analyses, summary["_quote"], transport_wait, overhead)
    if args.workload == "paper_cpu":
        require(
            abs(layer["check.layer_sum_ratio"] - 1.0) <= 0.01,
            "layer_self_times_sum_to_root",
            f"ratio {layer['check.layer_sum_ratio']:.4f}",
        )
    return layer
