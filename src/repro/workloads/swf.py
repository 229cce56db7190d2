"""Standard Workload Format (SWF) import — real-trace-shaped workloads.

The parallel-workloads community publishes cluster traces in SWF: one job
per line, 18 whitespace-separated fields, ``;`` comment lines.  Mapping SWF
jobs onto the paper's aperiodic task model gives a realistic arrival/size
process to exercise the scheduler beyond the synthetic §VI generator:

* release  ← submit time (field 2),
* work     ← run time (field 4) × nominal frequency 1.0 — the job's cycle
  count if executed at full speed,
* deadline ← submit + max(requested time (field 9), slack × run time) — the
  user-requested wall-clock limit is exactly a deadline; traces with missing
  requests (−1) fall back to the slack factor.

Only the fields above are consumed; everything else is preserved in the
:class:`SwfJob` record for inspection.  A writer is included so synthetic
traces can be produced for tests and examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..core.task import Task, TaskSet

__all__ = ["SwfJob", "parse_swf", "taskset_from_swf", "write_swf"]

_N_FIELDS = 18


@dataclass(frozen=True, slots=True)
class SwfJob:
    """One SWF record (subset of fields; raw line kept for the rest)."""

    job_id: int
    submit_time: float
    run_time: float
    n_procs: int
    requested_time: float  # -1 when absent

    @property
    def has_request(self) -> bool:
        """True when the user supplied a wall-clock request."""
        return self.requested_time > 0


def parse_swf(text: str) -> list[SwfJob]:
    """Parse SWF text into job records.

    Jobs with nonpositive run time (cancelled/failed entries) are skipped,
    per common practice when replaying traces.
    """
    jobs: list[SwfJob] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith(";"):
            continue
        fields = line.split()
        if len(fields) < 9:
            raise ValueError(
                f"SWF line {lineno}: expected >= 9 fields, got {len(fields)}"
            )
        try:
            job = SwfJob(
                job_id=int(fields[0]),
                submit_time=float(fields[1]),
                run_time=float(fields[3]),
                n_procs=max(int(float(fields[4])), 1),
                requested_time=float(fields[8]),
            )
        except ValueError as exc:
            raise ValueError(f"SWF line {lineno} is malformed: {exc}") from exc
        if job.run_time > 0:
            jobs.append(job)
    if not jobs:
        raise ValueError("trace contains no runnable jobs")
    return jobs


def taskset_from_swf(
    text: str,
    slack_factor: float = 2.0,
    max_jobs: int | None = None,
    nominal_frequency: float = 1.0,
) -> TaskSet:
    """Convert an SWF trace into an aperiodic :class:`TaskSet`.

    Parameters
    ----------
    text:
        The trace contents.
    slack_factor:
        Deadline fallback multiplier on run time when the trace has no
        requested time (must exceed 1 so windows are feasible).
    max_jobs:
        Keep only the first ``max_jobs`` runnable jobs.
    nominal_frequency:
        Frequency at which the recorded run time was measured; work =
        run_time × nominal_frequency.
    """
    if slack_factor <= 1.0:
        raise ValueError("slack_factor must exceed 1")
    if nominal_frequency <= 0:
        raise ValueError("nominal_frequency must be positive")
    jobs = parse_swf(text)
    if max_jobs is not None:
        jobs = jobs[:max_jobs]
    tasks = []
    for job in jobs:
        work = job.run_time * nominal_frequency
        window = max(
            job.requested_time if job.has_request else 0.0,
            slack_factor * job.run_time,
        )
        tasks.append(
            Task(
                release=job.submit_time,
                deadline=job.submit_time + window,
                work=work,
                name=f"job{job.job_id}",
            )
        )
    return TaskSet(tasks)


def write_swf(jobs: Iterable[SwfJob], header: str = "") -> str:
    """Serialize job records as SWF text (unused fields written as −1)."""
    lines = []
    if header:
        for h in header.splitlines():
            lines.append(f"; {h}")
    for j in jobs:
        fields = [-1] * _N_FIELDS
        fields[0] = j.job_id
        fields[1] = j.submit_time
        fields[3] = j.run_time
        fields[4] = j.n_procs
        fields[8] = j.requested_time
        lines.append(" ".join(f"{f:g}" if isinstance(f, float) else str(f) for f in fields))
    return "\n".join(lines) + "\n"
