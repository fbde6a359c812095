"""End-to-end benchmark of the ReSV serving stack.

One command runs a workload's whole user path through the public API: the
functional plane's ``SessionBatch`` frame, question and token ticks,
``profiles_from_reports``, ``ServingScheduler.run`` or
``FleetScheduler.run``, the records, timeline and summaries, ``energy()``
and the ``analysis`` rollups.  Run from the repository root::

    python3 e2ebench/run.py --workload resv_serving --seed 0 --seconds 20 --trace 0

The host loop is closed: one process, one thread, and the next iteration
starts only after the previous one returns.  Inside each simulation the
arrivals are open-loop traces in simulated time, generated from ``--seed``.

The timed pass repeats the user path for ``--seconds`` and reports the
end-to-end metrics (``--trace 0``).  With ``--trace 1`` two more passes
follow: an untimed one that repeats one iteration under
``REPRO_SANITIZE=1``, and a traced one that records spans around every call
into a layer; the run then reports the per-layer metrics instead.  Every
iteration's outputs are checked (``checks.py``), and every pass must
reproduce the timed pass's output digest.  The last line of standard output
is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Host times are reported at a fixed nominal host speed.  The host this runs
on is shared, and its speed drifts by tens of percent over minutes, the
same for every program on it; so right before every timed iteration and
every set-up the runner times a fixed pure-Python reference loop, and
divides the iteration's or set-up's time by that loop's time.
``setup_s``, ``wall_s`` and ``work_per_s`` are those ratios scaled by
``REFERENCE_NOMINAL_S``: host seconds on a host where the reference loop
takes that long.  The loop is benchmark code, so a change to the program
moves them as much as it moves the raw times, which are printed and kept
in the result file as well.

Metric names and units come from ``BENCHMARK.json``; the full result, with
machine metadata and the spans, is written to ``.e2ebench/``.  The
``sim_*`` metrics are simulated time and energy of the modelled V-Rex
device, deterministic for a seed and not validated against hardware.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: BLAS/OpenMP thread pools pinned to one thread: the toy model's matmuls
#: stay inside the benchmark's single-thread closed loop
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: set-up is repeated this many times and its median reported
SETUP_REPEATS = 5
#: size of the reference loop that gauges host speed (~20 ms on a 2-vCPU VM)
REFERENCE_LOOPS = 200_000
#: reference loops timed next to each timed iteration; their median counts
REFERENCE_REPEATS = 5
#: reference-loop time of the nominal host the host times are scaled to
REFERENCE_NOMINAL_S = 0.02
#: iterations of the traced pass
TRACED_ITERATIONS = 2
OUT_DIR = ROOT / ".e2ebench"


def prepare() -> None:
    """Pin thread pools and put ``src`` on the path; before numpy is imported."""
    for name in THREAD_VARS:
        os.environ[name] = "1"
    for entry in (str(ROOT / "src"), str(HERE)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


#: a fresh interpreter's import of everything the benchmark loads from the
#: program; prints the seconds it took
_IMPORT_PROGRAM = """
import sys, time
sys.path[:0] = sys.argv[1:]
start = time.perf_counter()
import checks, workloads
print(time.perf_counter() - start)
"""


def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import the program."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROGRAM, str(ROOT / "src"), str(HERE)],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(done.stdout.split()[-1])


def reference_s() -> float:
    """Host speed gauge: median time of a fixed pure-Python loop."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_LOOPS):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Iterations:
    """Runs and checks iterations, counting attempts and failures."""

    def __init__(self, workload, tracer=None, gauge: bool = False):
        from tracing import NullTracer

        self.workload = workload
        #: time the reference loop before each iteration
        self.gauge = gauge
        #: reference-loop time right before each successful iteration
        self.references: list[float] = []
        self.tracer = tracer if tracer is not None else NullTracer()
        self.attempted = 0
        self.failed = 0
        self.digests: list[str] = []
        self.walls: list[float] = []
        self.sim: dict[str, float] | None = None
        self.last = None

    def run_one(self, state) -> None:
        from checks import check_outcome, digest
        from workloads import sim_metrics

        self.attempted += 1
        gc.collect()  # one iteration's garbage is not charged to the next
        reference = reference_s() if self.gauge else None
        try:
            with self.tracer.span("iteration"):
                start = time.perf_counter()
                outcome = self.workload.iterate(state, self.tracer)
                wall = time.perf_counter() - start
            sim = sim_metrics(state, outcome)
            check_outcome(state.expected, outcome, sim)
            stamp = digest(outcome)
            if self.digests and stamp != self.digests[0]:
                raise AssertionError("output digest differs from the run's first iteration")
        except Exception:  # one failed iteration must not stop the run
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return
        self.digests.append(stamp)
        self.walls.append(wall)
        if reference is not None:
            self.references.append(reference)
        self.sim = sim
        self.last = outcome


def timed_pass(workload, state, seconds: float) -> Iterations:
    passes = Iterations(workload, gauge=True)
    start = time.perf_counter()
    while passes.attempted == 0 or time.perf_counter() - start < seconds:
        passes.run_one(state)
    return passes


def sanitized_pass(workload, seed: int) -> Iterations:
    """One untimed iteration with the runtime invariant sanitizer armed."""
    previous = os.environ.get("REPRO_SANITIZE")
    os.environ["REPRO_SANITIZE"] = "1"
    try:
        passes = Iterations(workload)
        passes.run_one(workload.build(seed))
    finally:
        if previous is None:
            del os.environ["REPRO_SANITIZE"]
        else:
            os.environ["REPRO_SANITIZE"] = previous
    return passes


def traced_pass(workload, state):
    """Traced iterations, then one warm re-run of the last scheduler."""
    from tracing import Tracer

    tracer = Tracer()
    passes = Iterations(workload, tracer)
    for iteration in range(TRACED_ITERATIONS):
        tracer.iteration = iteration
        passes.run_one(state)
    warm_s = None
    if passes.last is not None:
        tracer.iteration = -1
        name = "sim.scheduler.warm_run" if state.fleet is None else "sim.fleet.warm_run"
        outcome = passes.last
        with tracer.span(name):
            outcome.schedule.run(outcome.scheduler, state.system)
        warm_s = tracer.durations(name)[-1]
    return passes, tracer, warm_s


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def machine_metadata(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(path.relative_to(ROOT).as_posix().encode())
        sources.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "src_sha256": sources.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def nominal_walls(timed: Iterations) -> list[float]:
    """Each timed iteration's wall time at the nominal host speed.

    Each is scaled by the reference time taken right before it: the host's
    speed shifts within seconds, and the adjacent reading tracks that best.
    """
    return [
        wall * REFERENCE_NOMINAL_S / reference
        for wall, reference in zip(timed.walls, timed.references, strict=True)
    ]


def _end_to_end(setup_s: float, timed: Iterations, work: dict, rss_mb: float) -> dict:
    """End-to-end metrics; host times at the nominal host speed."""
    wall_s = statistics.median(nominal_walls(timed))
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "work_per_s": sum(work.values()) / wall_s,
        "peak_rss_mb": rss_mb,
        **timed.sim,
    }


def run(workload, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """Set up, run the passes and return the full result (see module doc)."""
    # one set-up: a fresh interpreter's imports, then building the program
    # objects and inputs; each is scaled by the reference time next to it
    setups = []
    for _ in range(SETUP_REPEATS):
        reference = reference_s()
        imported_s = fresh_import_s()
        start = time.perf_counter()
        state = workload.build(seed)
        setups.append((imported_s + time.perf_counter() - start, reference))
    raw_setup_s = statistics.median(raw for raw, _ in setups)
    setup_s = statistics.median(raw * REFERENCE_NOMINAL_S / ref for raw, ref in setups)

    timed = timed_pass(workload, state, seconds)
    if not timed.walls:
        raise RuntimeError(f"all {timed.attempted} timed iterations failed")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = [timed]
    if trace:
        sanitized = sanitized_pass(workload, seed)
        traced, tracer, warm_s = traced_pass(workload, state)
        passes += [sanitized, traced]
    digests = {stamp for p in passes for stamp in p.digests}
    failed = sum(p.failed for p in passes)
    work = workload.work(state, timed.last)
    end_to_end = _end_to_end(setup_s, timed, work, rss_mb)
    result = {
        "workload": workload.name,
        "work": work,
        "digest": timed.digests[0],
        "digests_agree": len(digests) == 1,
        "walls_s": timed.walls,
        "nominal_walls_s": nominal_walls(timed),
        "references_s": timed.references,
        "raw_setup_s": raw_setup_s,
        "setups_s": setups,
        "error_rate": failed / sum(p.attempted for p in passes),
        "end_to_end": end_to_end,
    }
    if trace and traced.last is not None:
        from layers import dominant_layer, layer_metrics

        result["per_layer"] = layer_metrics(
            state, traced.last, tracer, len(traced.walls), warm_s, statistics.median(timed.walls)
        )
        result["layers"] = tracer.layers()
        result["dominant_layer"] = dominant_layer(tracer)
        result["spans"] = tracer.export()
    kind = "per_layer" if trace else "end_to_end"
    values = result.get(kind, {})
    missing = [m["name"] for m in spec[kind] if m["name"] not in values]
    if missing:
        raise RuntimeError(f"{kind} metrics not produced: {missing}")
    result["line"] = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]},
    }
    return result


def _report(result: dict) -> None:
    """Human-readable lines ahead of the final JSON line."""
    e2e = result["end_to_end"]
    walls = result["nominal_walls_s"]
    print(f"workload {result['workload']}: {len(walls)} timed iterations")
    # the highest percentile with at least ten samples beyond it
    tail = 100.0 * (1.0 - 10.0 / len(walls))
    if tail > 50.0:
        tail_text = f"p{tail:.0f} {statistics.quantiles(walls, n=100)[int(tail) - 1]:.4f} s"
    else:
        tail_text = "no higher percentile has 10 samples beyond it"
    print(f"  wall_s median {e2e['wall_s']:.4f} s over n={len(walls)} ({tail_text})")
    print(
        f"    at this host's speed: wall median {statistics.median(result['walls_s']):.4f} s,"
        f" set-up {result['raw_setup_s']:.4f} s; reference loop median"
        f" {statistics.median(result['references_s']) * 1e3:.2f} ms"
        f" (nominal {REFERENCE_NOMINAL_S * 1e3:.0f} ms)"
    )
    print(f"  work_per_s {e2e['work_per_s']:.6g} 1/s, of which:")
    for unit, count in result["work"].items():
        print(f"    {unit}_per_s {count / e2e['wall_s']:.6g}")
    print(f"  error_rate {result['error_rate']:.6g}")
    for name in ("setup_s", "peak_rss_mb", "sim_p50_ms", "sim_p99_ms", "sim_miss_rate"):
        print(f"  {name} {e2e[name]:.6g}")
    print(f"  sim_j_per_query {e2e['sim_j_per_query']:.6g} J (unvalidated against hardware)")
    print(f"  output digest {result['digest']} (passes agree: {result['digests_agree']})")
    if "per_layer" in result:
        predictions = json.loads((HERE / "predictions.json").read_text())
        expected = predictions["workloads"][result["workload"]]["dominant_layer"]
        print(f"  dominant layer: {result['dominant_layer']} (rationale: {expected})")
        for name, row in sorted(result["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(
                f"    {name:28s} count {row['count']:4d}  self {row['self_s']:.4f} s"
                f"  total {row['total_s']:.4f} s"
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"no program to benchmark under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    prepare()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), spec)
    except RuntimeError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    result["meta"] = machine_metadata(args)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    _report(result)
    print(f"meta {json.dumps(result['meta'])}")
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
