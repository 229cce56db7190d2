"""Core scheduling machinery: tasks, subintervals, allocation, pipeline.

The paper's primary contribution lives here — see
:class:`repro.core.scheduler.SubintervalScheduler` for the top of the stack.
"""

from .allocation import (
    AllocationMethod,
    AllocationPlan,
    allocate_der,
    allocate_evenly,
    allocate_proportional,
    build_allocation_plan,
)
from .admission import AdmissionController, AdmissionDecision
from .incremental import DeltaStats, ScheduleSession
from .online import OnlineResult, OnlineSubintervalScheduler
from .practical_scheduler import PracticalResult, PracticalScheduler
from .theory import BoundReport, certify_instance, intermediate_even_bound
from .core_selection import (
    CoreSelection,
    OptimalCoreSelection,
    select_core_count,
    select_core_count_optimal,
)
from .frequency import FrequencyAssignment, best_single_frequency, refine_frequencies
from .ideal import IdealSolution, solve_ideal
from .intervals import Subinterval, Timeline, build_timeline
from .schedule import Schedule, Segment
from .scheduler import SchedulingResult, SubintervalScheduler, schedule_taskset
from .task import Task, TaskSet
from .wrap_schedule import PackedSlots, Slot, pack_matrix_flat, wrap_schedule

__all__ = [
    "Task",
    "TaskSet",
    "Subinterval",
    "Timeline",
    "build_timeline",
    "IdealSolution",
    "solve_ideal",
    "AllocationMethod",
    "AllocationPlan",
    "allocate_evenly",
    "allocate_der",
    "allocate_proportional",
    "build_allocation_plan",
    "OnlineResult",
    "OnlineSubintervalScheduler",
    "ScheduleSession",
    "DeltaStats",
    "BoundReport",
    "certify_instance",
    "intermediate_even_bound",
    "PracticalResult",
    "PracticalScheduler",
    "AdmissionController",
    "AdmissionDecision",
    "PackedSlots",
    "Slot",
    "wrap_schedule",
    "pack_matrix_flat",
    "FrequencyAssignment",
    "refine_frequencies",
    "best_single_frequency",
    "Schedule",
    "Segment",
    "SchedulingResult",
    "SubintervalScheduler",
    "schedule_taskset",
    "CoreSelection",
    "OptimalCoreSelection",
    "select_core_count",
    "select_core_count_optimal",
]
