"""Per-layer metrics of the traced pass.

Times are per-iteration self times of the spans the workloads open around
calls into each layer; counts are read off the public result objects of
the last traced iteration.  A layer a workload never enters reads 0.
"""

from __future__ import annotations

import re
import statistics

#: span name -> per-layer time metric (self seconds per iteration)
SPAN_METRICS = {
    "model.serving.prefill": "model.serving.prefill_s",
    "model.serving.ask": "model.serving.ask_s",
    "model.serving.generate": "model.serving.generate_s",
    "sim.batched.profiles": "sim.batched.profiles_s",
    "sim.scheduler.run": "sim.scheduler.run_s",
    "sim.fleet.run": "sim.fleet.run_s",
    "sim.jobtable.records": "sim.jobtable.records_s",
    "sim.jobtable.timeline": "sim.jobtable.timeline_s",
    "sim.scheduler.summaries": "sim.scheduler.summaries_s",
    "sim.energy.price": "sim.energy.price_s",
    "analysis.rollup": "analysis.rollup_s",
}
#: the root span of one iteration; its self time is benchmark glue
ITERATION = "iteration"
#: energy-report resources with a busy time, as named on one device (fleet
#: rows carry a ``d<i>:`` prefix; the interconnect row is
#: ``interconnect:<spec>``); the DRAM row charges traffic, never busy time
RESOURCES = ("lxe", "dre", "pcie", "ssd", "interconnect")


def _mean_ms(values) -> float:
    return statistics.fmean(values) * 1e3 if values else 0.0


CORE_METRICS = (
    "core.resv.num_clusters",
    "core.resv.tokens_per_cluster",
    "core.resv.frame_retrieval_ratio",
    "core.resv.generation_retrieval_ratio",
    "core.resv.clusters_considered",
    "core.resv.sort_fraction",
)


def _reports(outcome) -> dict[str, float]:
    reports = outcome.reports
    if not reports:
        return dict.fromkeys(CORE_METRICS, 0.0)
    scored = sum(r.wicsum_score_elements for r in reports)
    sorted_elements = sum(r.sort_fraction * r.wicsum_score_elements for r in reports)
    return {
        "core.resv.num_clusters": float(sum(r.num_clusters for r in reports)),
        "core.resv.tokens_per_cluster": statistics.fmean(
            r.mean_tokens_per_cluster for r in reports
        ),
        "core.resv.frame_retrieval_ratio": statistics.fmean(
            r.frame_retrieval_ratio for r in reports
        ),
        "core.resv.generation_retrieval_ratio": statistics.fmean(
            r.generation_retrieval_ratio for r in reports
        ),
        "core.resv.clusters_considered": float(sum(r.clusters_considered for r in reports)),
        "core.resv.sort_fraction": sorted_elements / scored if scored else 0.0,
    }


def _counts(state, outcome) -> dict[str, float]:
    result = outcome.result
    fleet = state.fleet is not None
    # the single-device schedules behind the result
    if fleet:
        schedules = [run.schedule for run in result.devices if run.schedule is not None]
    else:
        schedules = [result]
    records = outcome.records
    served = [r for r in records if not r.dropped]
    evictions = 0
    peak_bank = 0.0
    for schedule in schedules:
        if schedule.memory is not None:
            evictions += len(schedule.memory.evictions)
        for _, banks in schedule.bank_occupancy_trajectory:
            peak_bank = max(peak_bank, *banks)
    return {
        "sim.engine.events": float(result.events_processed),
        "sim.scheduler.jobs_attempted": float(state.expected.jobs),
        "sim.scheduler.served": float(result.served),
        "sim.scheduler.dropped": float(result.dropped),
        "sim.scheduler.deferred": float(sum(s.deferred for s in schedules)),
        "sim.scheduler.evict_admissions": float(sum(s.evict_admissions for s in schedules)),
        "hw.memory.evictions": float(evictions),
        "hw.memory.evictions_per_admission": evictions / len(served) if served else 0.0,
        "hw.memory.peak_bank_bytes": float(peak_bank),
        "sim.fleet.migrations": float(result.migration_count) if fleet else 0.0,
        "sim.fleet.steals": float(result.steal_count) if fleet else 0.0,
        "sim.fleet.jobs_moved": float(result.jobs_moved) if fleet else 0.0,
        "hw.interconnect.bytes": float(result.interconnect_bytes) if fleet else 0.0,
        # means, not medians: the median served job waits for nothing
        "sim.wait.slot_ms": _mean_ms([r.queue_wait_s for r in served]),
        "sim.wait.dre_ms": _mean_ms([r.dre_wait_s for r in served]),
        "sim.wait.pcie_ms": _mean_ms([r.pcie_wait_s for r in served]),
        "sim.wait.compute_ms": _mean_ms([r.compute_wait_s for r in served]),
    }


def _utilization(energy) -> dict[str, float]:
    shares: dict[str, list[float]] = {name: [] for name in RESOURCES}
    for row in energy.resources:
        base = re.sub(r"^d\d+:", "", row.name).split(":", 1)[0]
        if base in shares:
            shares[base].append(row.utilization)
    return {
        f"hw.{name}.utilization": statistics.fmean(values) if values else 0.0
        for name, values in shares.items()
    }


def layer_metrics(state, outcome, tracer, iterations: int, warm_s: float, wall_s: float):
    """Every per-layer metric of one traced pass.

    ``warm_s`` is the warm re-run of the last iteration's scheduler and
    ``wall_s`` the untraced median iteration time.
    """
    table = tracer.layers()
    metrics = {
        metric: table.get(span, {}).get("self_s", 0.0) / iterations
        for span, metric in SPAN_METRICS.items()
    }
    metrics.update(_reports(outcome))
    metrics.update(_counts(state, outcome))
    metrics.update(_utilization(outcome.energy))
    fleet = state.fleet is not None
    cold_s = table["sim.fleet.run" if fleet else "sim.scheduler.run"]["total_s"] / iterations
    metrics["sim.scheduler.warm_run_s"] = 0.0 if fleet else warm_s
    metrics["sim.fleet.warm_run_s"] = warm_s if fleet else 0.0
    metrics["sim.batched.pricing_s"] = cold_s - warm_s
    metrics["sim.engine.warm_events_per_s"] = outcome.result.events_processed / warm_s
    # end-to-end events/s over the warm rate: the events cancel
    metrics["sim.engine.e2e_over_warm"] = warm_s / wall_s
    traced_wall_s = statistics.median(tracer.durations(ITERATION))
    metrics["trace.wall_s"] = traced_wall_s
    metrics["trace.overhead_s"] = traced_wall_s - wall_s
    metrics["trace.unattributed_s"] = table[ITERATION]["self_s"] / iterations
    return metrics


def dominant_layer(tracer) -> str:
    """The span with the largest self time, the benchmark's own glue excluded."""
    table = tracer.layers()
    return max(
        (name for name in table if name != ITERATION), key=lambda name: table[name]["self_s"]
    )
