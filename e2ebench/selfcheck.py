"""Self-check of the benchmark at tiny sizes.

Shows that every output check fires on a corrupted result (a tampered
energy row, a missing record, a non-finite simulated metric, a session
report that disagrees with its inputs, a changed record field, a raising
iteration), that every metric named in ``BENCHMARK.json`` is emitted with
its unit in both modes, and that ``predictions.json`` names only metrics
and workloads the benchmark has.  Run from the repository root::

    python3 e2ebench/selfcheck.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import run


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")


def fires(check, expected, outcome, sim) -> bool:
    from checks import CheckFailed

    try:
        check(expected, outcome, sim)
    except CheckFailed:
        return True
    return False


def tiny_workloads():
    from workloads import ResvWorkload, SimWorkload, _fleet_banks

    return [
        ResvWorkload(
            "resv_tiny",
            streams=2,
            frames=3,
            questions=1,
            tokens=2,
            sim_streams=4,
            sim_frames=6,
            sim_answer_tokens=2,
            load=0.3,
            deadline_solos=1.5,
        ),
        SimWorkload("fleet_banks_tiny", streams=8, frames=6, load=3.2, program=_fleet_banks),
    ]


def check_corruptions(workload) -> None:
    from checks import check_outcome, digest
    from tracing import NullTracer
    from workloads import sim_metrics

    state = workload.build(0)
    outcome = workload.iterate(state, NullTracer())
    sim = sim_metrics(state, outcome)
    expected = state.expected
    expect(not fires(check_outcome, expected, outcome, sim), f"{workload.name}: clean run flagged")
    name = workload.name

    energy = outcome.energy
    first, *rest = energy.resources
    for label, row in (
        ("negative busy energy", dataclasses.replace(first, busy_j=-1.0)),
        ("non-finite idle energy", dataclasses.replace(first, idle_j=math.nan)),
        (
            "busy energy above its power ceiling",
            dataclasses.replace(
                first, busy_j=2.0 * first.busy_power_w * first.window_s + 1.0, busy_power_w=1.0
            ),
        ),
    ):
        tampered = dataclasses.replace(energy, resources=(row, *rest))
        bad = dataclasses.replace(outcome, energy=tampered)
        expect(fires(check_outcome, expected, bad, sim), f"{name}: {label} not caught")

    bad = dataclasses.replace(outcome, records=outcome.records[:-1])
    expect(fires(check_outcome, expected, bad, sim), f"{name}: missing record not caught")
    short = dataclasses.replace(expected, jobs=expected.jobs + 1)
    expect(fires(check_outcome, short, outcome, sim), f"{name}: unaccounted job not caught")

    for metric in sim:
        bad_sim = {**sim, metric: math.nan}
        expect(fires(check_outcome, expected, outcome, bad_sim), f"{name}: NaN {metric} not caught")

    if outcome.reports:
        report = outcome.reports[0]
        for field in ("frames_processed", "questions_asked", "tokens_generated"):
            wrong = dataclasses.replace(report, **{field: getattr(report, field) + 1})
            bad = dataclasses.replace(outcome, reports=[wrong, *outcome.reports[1:]])
            expect(fires(check_outcome, expected, bad, sim), f"{name}: wrong {field} not caught")
        bad = dataclasses.replace(outcome, reports=outcome.reports[1:])
        expect(fires(check_outcome, expected, bad, sim), f"{name}: missing report not caught")

    record = outcome.records[0]
    moved = dataclasses.replace(record, finish_s=record.finish_s + 1e-9)
    bad = dataclasses.replace(outcome, records=[moved, *outcome.records[1:]])
    expect(digest(bad) != digest(outcome), f"{name}: digest blind to a record field")
    bad = dataclasses.replace(outcome, energy=tampered)
    expect(digest(bad) != digest(outcome), f"{name}: digest blind to an energy row")


def check_failure_counting(workload) -> None:
    """A raising iteration and a drifting digest both count as failures."""

    class Raising:
        name = workload.name

        def iterate(self, state, tracer):
            raise RuntimeError("injected failure")

    state = workload.build(0)
    passes = run.Iterations(Raising())
    passes.run_one(state)
    expect(passes.attempted == 1 and passes.failed == 1, "raising iteration not counted")

    class Drifting:
        name = workload.name
        calls = 0

        def iterate(self, state, tracer):
            outcome = workload.iterate(state, tracer)
            Drifting.calls += 1
            if Drifting.calls > 1:
                record = outcome.records[0]
                shifted = dataclasses.replace(record, start_s=record.start_s + 1e-9)
                outcome.records = [shifted, *outcome.records[1:]]
            return outcome

    passes = run.Iterations(Drifting())
    passes.run_one(state)
    passes.run_one(state)
    expect(passes.failed == 1, "digest drift between iterations not counted")


def check_emitted(workload, spec: dict) -> None:
    for trace in (False, True):
        result = run.run(workload, seed=0, seconds=0.0, trace=trace, spec=spec)
        line = result["line"]
        kind = "per_layer" if trace else "end_to_end"
        expect(line["correct"] and line["failed"] == 0, f"{workload.name}: tiny run not correct")
        names = [m["name"] for m in spec[kind]]
        expect(list(line["metrics"]) == names, f"{workload.name}: {kind} names differ")
        for metric in spec[kind]:
            emitted = line["metrics"][metric["name"]]
            expect(emitted["unit"] == metric["unit"], f"{metric['name']}: wrong unit")
            expect(math.isfinite(emitted["value"]), f"{metric['name']}: not a finite number")
        expect(json.loads(json.dumps(line)) == line, "result line is not plain JSON")


def check_predictions(spec: dict) -> None:
    predictions = json.loads((run.HERE / "predictions.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    expect(set(predictions["workloads"]) == workloads, "predictions name other workloads")
    expect(set(predictions["work_per_s"]) == workloads, "work_per_s units name other workloads")
    from layers import SPAN_METRICS

    for name, entry in predictions["workloads"].items():
        expect(entry["dominant_layer"] in SPAN_METRICS, f"{name}: unknown dominant layer")
    for entry in predictions["predictions"]:
        expect(entry["layer_metric"] in metrics, f"unknown metric {entry['layer_metric']}")
        for metric, workload in entry["moves"]:
            expect(metric in metrics and workload in workloads, f"bad prediction {entry}")
        expect(set(entry["unchanged_on"]) <= workloads, f"bad prediction {entry}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.prepare()
    check_predictions(spec)
    for workload in tiny_workloads():
        check_corruptions(workload)
        check_failure_counting(workload)
        check_emitted(workload, spec)
        print(f"{workload.name}: checks fire, every metric emitted")
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
