"""Output checks run on every iteration, and the output digest.

A failed check raises :class:`CheckFailed`; the runner counts the
iteration as failed (it feeds ``error_rate``).  The digest covers every
record field, the energy rows and the functional session reports, so two
iterations (or two passes, or two commits) that simulate the same thing
hash the same.
"""

from __future__ import annotations

import hashlib
import math
from operator import attrgetter

from repro.devtools.sanitizer import SanitizerError
from repro.sim.energy import assert_conserved
from repro.sim.scheduler import DEFER

_RECORD_FIELDS = attrgetter(
    "stream_index",
    "session_id",
    "kind",
    "job_index",
    "arrival_s",
    "start_s",
    "finish_s",
    "dropped",
    "deadline_missed",
    "pcie_wait_s",
    "dre_wait_s",
    "compute_wait_s",
    "admission",
)
_ENERGY_FIELDS = attrgetter("name", "busy_power_w", "busy_s", "window_s", "busy_j", "idle_j")


class CheckFailed(AssertionError):
    """An iteration's outputs are wrong."""


def check_outcome(expected, outcome, sim: dict[str, float]) -> None:
    """Raise :class:`CheckFailed` unless the outcome is consistent with its inputs."""
    try:
        assert_conserved(outcome.energy)
    except SanitizerError as error:
        raise CheckFailed(f"energy report not conserved: {error}") from error

    records = outcome.records
    deferred = sum(1 for record in records if record.admission == DEFER)
    served = outcome.result.served
    dropped = outcome.result.dropped
    backlog_dropped = dropped - deferred
    if (
        len(records) != expected.jobs
        or backlog_dropped < 0
        or served + backlog_dropped + deferred != expected.jobs
    ):
        raise CheckFailed(
            f"job accounting: {len(records)} records, {served} served + "
            f"{backlog_dropped} dropped + {deferred} deferred, but {expected.jobs} attempted"
        )

    bad = {name: value for name, value in sim.items() if not math.isfinite(value)}
    if bad:
        raise CheckFailed(f"non-finite simulated metrics: {bad}")

    fed = list(zip(expected.frames, expected.questions, expected.tokens, strict=True))
    if len(outcome.reports) != len(fed):
        raise CheckFailed(f"{len(outcome.reports)} session reports for {len(fed)} streams")
    for report, (frames, questions, tokens) in zip(outcome.reports, fed, strict=True):
        seen = (report.frames_processed, report.questions_asked, report.tokens_generated)
        if seen != (frames, questions, tokens):
            raise CheckFailed(
                f"session {report.session_id} processed (frames, questions, tokens) "
                f"{seen}, fed {(frames, questions, tokens)}"
            )


def digest(outcome) -> str:
    """SHA-256 over the record columns, the energy rows and the session reports."""
    h = hashlib.sha256()
    h.update(repr([_RECORD_FIELDS(record) for record in outcome.records]).encode())
    energy = outcome.energy
    h.update(repr([_ENERGY_FIELDS(row) for row in energy.resources]).encode())
    h.update(repr((energy.total_j, energy.served, energy.tokens)).encode())
    h.update(repr([tuple(vars(report).values()) for report in outcome.reports]).encode())
    return h.hexdigest()
