"""The workloads: inputs made from a seed, and one user-path iteration.

``build(seed)`` constructs the program objects (model weights, retriever
prototype, latency plane) and generates every input (videos, questions,
arrival traces).  ``iterate(state, tracer)`` runs one whole user path
through the public API, from a fresh ``SessionBatch`` or scheduler to the
energy and analysis rollups, and returns everything the output checks and
metrics read.  Spans are opened only around calls into the program, so the
traced pass measures each layer from outside.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.analysis import energy_rollup, fleet_rollup
from repro.config import ReSVConfig, toy_model_config
from repro.core import ReSVRetriever
from repro.hw.interconnect import PCIE5_SWITCH
from repro.hw.memory.sharding import ShardedKVHierarchy
from repro.model.llm import StreamingVideoLLM
from repro.model.serving import SessionBatch
from repro.sim.arrivals import BurstyArrivals, PoissonArrivals, rate_for_load
from repro.sim.batched import BatchLatencyModel, StreamProfile, profiles_from_reports
from repro.sim.fleet import FleetConfig, FleetScheduler
from repro.sim.scheduler import SchedulerConfig, ServingScheduler
from repro.sim.systems import edge_systems, server_systems
from repro.sim.workload import default_llm_workload
from repro.video.synthetic import SyntheticVideoConfig, SyntheticVideoStream

GiB = 1024.0**3
#: production cache length the toy functional caches are projected onto
PRODUCTION_KV_LEN = 40_000
MIN_PROJECTED_KV_LEN = 5_000
QUESTION_LEN = 6


@dataclass
class Expected:
    """What the inputs fed in, for the output checks to compare against."""

    jobs: int
    frames: list[int] = field(default_factory=list)
    questions: list[int] = field(default_factory=list)
    tokens: list[int] = field(default_factory=list)


@dataclass
class Schedule:
    """The inputs of one scheduler run."""

    profiles: list
    traces: list
    config: SchedulerConfig
    question_arrivals: list | None = None
    answer_tokens: int | None = None

    def run(self, scheduler, system):
        kwargs = {}
        if self.question_arrivals is not None:
            kwargs = {
                "question_arrivals": self.question_arrivals,
                "answer_tokens": self.answer_tokens,
            }
        return scheduler.run(system, self.profiles, self.traces, **kwargs)


@dataclass
class State:
    """Program objects plus generated inputs of one workload."""

    system: object
    plane: BatchLatencyModel
    expected: Expected
    #: the whole schedule, when no functional plane calibrates it
    schedule: Schedule | None = None
    fleet: FleetConfig | None = None
    # functional plane (resv_* workloads only)
    model: StreamingVideoLLM | None = None
    retriever: ReSVRetriever | None = None
    videos: list = field(default_factory=list)
    video_arrivals: list = field(default_factory=list)
    questions: list = field(default_factory=list)
    #: arrivals at one frame per second per stream, rescaled once calibrated
    unit_traces: list = field(default_factory=list)


@dataclass
class Outcome:
    """What one iteration produced, kept for checks and metrics."""

    schedule: Schedule
    scheduler: object
    result: object
    records: list
    summary: object
    energy: object
    reports: list = field(default_factory=list)


def solo_s(plane: BatchLatencyModel, system, profile: StreamProfile) -> float:
    """Uncontended frame latency of one stream."""
    return plane.frame_step(system, [profile]).streams[0].total_s


def open_loop_traces(process, streams: int, frames: int, seed: int) -> list:
    """Per-stream arrivals that join at random times and stop at one horizon.

    Each stream joins at a uniform random phase within its first on-off
    cycle (real users do not all press "start" at t=0), and every stream
    stops at the horizon that holds ``frames`` frames per stream on
    average.  A shared horizon, not a frame count, keeps the simulated
    window (and so its idle energy) from hanging on whichever stream's
    trace happened to run longest.
    """
    rate_hz = process.mean_rate_hz
    cycle_s = getattr(process, "mean_burst_frames", 1.0) / rate_hz
    horizon_s = frames / rate_hz
    phases = np.random.default_rng((seed, 3)).uniform(0.0, cycle_s, size=streams)
    traces = process.generate(streams, 3 * frames, seed)
    return [
        shifted[shifted < horizon_s]
        for shifted in (trace + phase for trace, phase in zip(traces, phases, strict=True))
    ]


def serve(state: State, schedule: Schedule, tracer) -> Outcome:
    """Run one schedule on a fresh scheduler and read every result."""
    if state.fleet is None:
        scheduler = ServingScheduler(state.plane, schedule.config)
        with tracer.span("sim.scheduler.run"):
            result = schedule.run(scheduler, state.system)
    else:
        scheduler = FleetScheduler(state.plane, schedule.config, state.fleet)
        if tracer.enabled:
            # the devices' schedules run inside FleetScheduler.run
            scheduler.scheduler.run = tracer.wrap("sim.scheduler.run", scheduler.scheduler.run)
        with tracer.span("sim.fleet.run"):
            result = schedule.run(scheduler, state.system)
    with tracer.span("sim.jobtable.records"):
        records = result.records
    with tracer.span("sim.jobtable.timeline"):
        result.timeline  # noqa: B018 - materializing it is the measured work
    with tracer.span("sim.scheduler.summaries"):
        if state.fleet is None:
            result.stream_summaries()
        else:
            result.device_summaries()
        summary = result.fleet_summary()
    with tracer.span("sim.energy.price"):
        energy = result.energy()
    with tracer.span("analysis.rollup"):
        energy_rollup(energy)
        if state.fleet is not None:
            fleet_rollup(result)
    return Outcome(schedule, scheduler, result, records, summary, energy)


class ResvWorkload:
    """Functional ReSV plane, then a schedule calibrated from its reports.

    Its work is counted in serving steps: frames prefilled, questions
    asked and answer tokens generated.

    The simulated arrival rate and deadline are set from the calibrated
    streams' own solo latency, so the schedule stays at the same load
    whatever retrieval ratios the functional plane measures.
    """

    def __init__(
        self,
        name: str,
        *,
        streams: int,
        frames: int,
        questions: int,
        tokens: int,
        sim_streams: int,
        sim_frames: int,
        sim_answer_tokens: int,
        load: float,
        deadline_solos: float,
    ):
        self.name = name
        self.streams = streams
        self.frames = frames
        self.questions = questions
        self.tokens = tokens
        self.sim_streams = sim_streams
        self.sim_frames = sim_frames
        self.sim_answer_tokens = sim_answer_tokens
        self.load = load
        self.deadline_solos = deadline_solos

    def build(self, seed: int) -> State:
        config = toy_model_config()
        model = StreamingVideoLLM(config, seed=0)
        retriever = ReSVRetriever(
            config.num_layers,
            config.num_kv_heads,
            config.head_dim,
            ReSVConfig(hamming_threshold=7, wicsum_ratio=0.3, recent_window=8),
            use_early_exit=True,
        )
        videos = [
            list(
                SyntheticVideoStream(
                    SyntheticVideoConfig(
                        num_frames=self.frames,
                        tokens_per_frame=config.tokens_per_frame,
                        hidden_dim=config.hidden_dim,
                        temporal_correlation=0.95,  # the COIN-like similarity ReSV exploits
                        seed=seed * 1_000 + stream,
                    )
                ).frames()
            )
            for stream in range(self.streams)
        ]
        rng = np.random.default_rng((seed, 1))
        questions = [
            [rng.normal(size=(QUESTION_LEN, config.hidden_dim)) for _ in range(self.streams)]
            for _ in range(self.questions)
        ]
        unit_traces = open_loop_traces(
            PoissonArrivals(rate_hz=1.0), self.sim_streams, self.sim_frames, seed
        )
        jobs = sum(len(trace) for trace in unit_traces)
        if self.sim_answer_tokens:
            jobs += self.sim_streams * (1 + self.sim_answer_tokens)
        return State(
            system=edge_systems(default_llm_workload().model_bytes())["V-Rex8"],
            plane=BatchLatencyModel(),
            expected=Expected(
                jobs=jobs,
                frames=[self.frames] * self.streams,
                questions=[self.questions] * self.streams,
                tokens=[self.questions * self.tokens] * self.streams,
            ),
            model=model,
            retriever=retriever,
            videos=videos,
            video_arrivals=PoissonArrivals(rate_hz=2.0).generate(
                self.streams, self.frames, seed=seed
            ),
            questions=questions,
            unit_traces=unit_traces,
        )

    def iterate(self, state: State, tracer) -> Outcome:
        batch = SessionBatch(state.model, retriever=state.retriever, num_sessions=self.streams)
        with tracer.span("model.serving.prefill"):
            batch.run_arrivals(state.videos, state.video_arrivals)
        for questions in state.questions:
            with tracer.span("model.serving.ask"):
                batch.ask_all(questions)
            with tracer.span("model.serving.generate"):
                batch.generate_all(self.tokens)
        reports = batch.reports()
        # tile the measured streams over the simulated fleet, one session each
        tiled = [
            dataclasses.replace(reports[i % len(reports)], session_id=i)
            for i in range(self.sim_streams)
        ]
        longest = max(report.cache_tokens for report in reports)
        kv_lens = [
            max(PRODUCTION_KV_LEN * report.cache_tokens // longest, MIN_PROJECTED_KV_LEN)
            for report in tiled
        ]
        with tracer.span("sim.batched.profiles"):
            profiles = profiles_from_reports(tiled, kv_lens=kv_lens)
            solo = float(
                np.mean([solo_s(state.plane, state.system, p) for p in profiles[: self.streams]])
            )
        scale = 1.0 / rate_for_load(self.load, solo, self.sim_streams)
        traces = [trace * scale for trace in state.unit_traces]
        schedule = Schedule(
            profiles,
            traces,
            SchedulerConfig(deadline_s=self.deadline_solos * solo, max_queue_depth=4),
        )
        if self.sim_answer_tokens:
            schedule.question_arrivals = [
                float(trace[len(trace) // 2]) if len(trace) else 0.0 for trace in traces
            ]
            schedule.answer_tokens = self.sim_answer_tokens
        outcome = serve(state, schedule, tracer)
        outcome.reports = reports
        return outcome

    def work(self, state: State, outcome: Outcome) -> dict[str, int]:
        expected = state.expected
        return {
            "frames": sum(expected.frames),
            "questions": sum(expected.questions),
            "tokens": sum(expected.tokens),
        }


class SimWorkload:
    """A scheduler-only serving run of bursty streams (no functional plane)."""

    def __init__(self, name: str, *, streams: int, frames: int, load: float, program):
        self.name = name
        self.streams = streams
        self.frames = frames
        self.load = load
        #: ``() -> (system, plane, deadline in solo latencies, other
        #: SchedulerConfig keywords, FleetConfig or None)``
        self._program = program

    def build(self, seed: int) -> State:
        system, plane, deadline_solos, config_kwargs, fleet = self._program()
        solo = solo_s(plane, system, StreamProfile(kv_len=PRODUCTION_KV_LEN))
        traces = open_loop_traces(
            BurstyArrivals.for_mean_rate(rate_for_load(self.load, solo, self.streams)),
            self.streams,
            self.frames,
            seed,
        )
        # streams have watched different lengths of video so far: one fixed
        # spread of cache lengths, dealt to the streams in a seeded order
        kv_lens = np.random.default_rng((seed, 2)).permutation(
            np.linspace(0.75, 1.25, self.streams) * PRODUCTION_KV_LEN
        )
        profiles = [
            StreamProfile(kv_len=int(kv_len), session_id=i) for i, kv_len in enumerate(kv_lens)
        ]
        config = SchedulerConfig(deadline_s=deadline_solos * solo, **config_kwargs)
        return State(
            system=system,
            plane=plane,
            expected=Expected(jobs=sum(len(trace) for trace in traces)),
            schedule=Schedule(profiles, traces, config),
            fleet=fleet,
        )

    def iterate(self, state: State, tracer) -> Outcome:
        return serve(state, state.schedule, tracer)

    def work(self, state: State, outcome: Outcome) -> dict[str, int]:
        return {"events": outcome.result.events_processed}


def _fleet_banks():
    system = server_systems(default_llm_workload().model_bytes())["V-Rex48"]
    plane = BatchLatencyModel(
        memory=ShardedKVHierarchy(num_banks=4, bank_budget_bytes=4.5 * GiB)
    )
    config = {"max_queue_depth": 3, "admission": "residency", "compute": "timesliced"}
    fleet = FleetConfig(
        num_devices=4, router="kv_residency", interconnect=PCIE5_SWITCH, work_stealing=True
    )
    return system, plane, 2.0, config, fleet


WORKLOADS = {
    "resv_serving": ResvWorkload(
        "resv_serving",
        streams=4,
        frames=24,
        questions=3,
        tokens=12,
        sim_streams=64,
        sim_frames=120,
        sim_answer_tokens=24,
        load=0.3,
        deadline_solos=1.5,
    ),
    "fleet_banks": SimWorkload(
        "fleet_banks", streams=192, frames=40, load=3.2, program=_fleet_banks
    ),
}


def sim_metrics(state: State, outcome: Outcome) -> dict[str, float]:
    """Simulated-time and energy end-to-end metrics of one outcome."""
    shed_or_late = sum(1 for r in outcome.records if r.dropped or r.deadline_missed)
    return {
        "sim_p50_ms": outcome.summary.p50_ms,
        "sim_p99_ms": outcome.summary.p99_ms,
        "sim_miss_rate": shed_or_late / state.expected.jobs,
        "sim_j_per_query": outcome.energy.j_per_query,
    }
