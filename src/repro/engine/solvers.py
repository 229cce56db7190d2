"""Registered solver adapters: every schedule producer behind one contract.

Each adapter translates one of the repo's solvers into the
``fn(request, options) -> SolveResult`` shape of :mod:`repro.engine.registry`.
Registered names:

==========================  =====================================================
name                        produces
==========================  =====================================================
``subinterval-even``        the paper's pipeline, even allocation (S^F1; option
                            ``stage="intermediate"`` yields S^I1)
``subinterval-der``         the paper's pipeline, DER allocation (S^F2 / S^I2)
``practical``               discrete-operating-point schedule (platform ``fset``,
                            defaulting to the Intel XScale menu)
``online``                  non-clairvoyant re-planning scheduler
``optimal:interior-point``  exact convex optimum, structured IP solver
``optimal:projected-gradient``  exact optimum, projected-gradient solver
``optimal:slsqp``           exact optimum via SciPy SLSQP (when SciPy exists)
``optimal:trust-constr``    exact optimum via SciPy trust-constr (ditto)
``edf``                     global EDF at one safe fixed frequency (race-to-idle)
``yds``                     Yao–Demers–Shenker uniprocessor optimum
``naive``                   per-task intensity frequencies under global EDF
==========================  =====================================================

The legacy spellings ``der``/``even`` and the bare optimal backend names
remain valid through :data:`repro.engine.registry.ALIASES`.
"""

from __future__ import annotations

from typing import Mapping

from .contract import SolveRequest, SolveResult
from .registry import register

__all__: list[str] = []


# -- the paper's subinterval pipeline ------------------------------------------------


def _subinterval(req: SolveRequest, options: Mapping, method: str) -> SolveResult:
    stage = options.get("stage", "final")
    sch = req.scheduler()
    if stage == "final":
        res = sch.final(method)
    elif stage == "intermediate":
        res = sch.intermediate(method)
    else:
        raise ValueError(
            f"stage must be 'final' or 'intermediate', got {stage!r}"
        )
    extras: dict = {"ideal_energy": sch.ideal_energy}
    if res.frequencies is not None:
        extras["frequencies"] = res.frequencies
    return SolveResult(
        solver="",
        kind=f"S^{res.kind}",
        energy=res.energy,
        schedule=res.schedule,
        extras=extras,
    )


@register("subinterval-even")
def _solve_even(req: SolveRequest, options: Mapping) -> SolveResult:
    return _subinterval(req, options, "even")


@register("subinterval-der")
def _solve_der(req: SolveRequest, options: Mapping) -> SolveResult:
    return _subinterval(req, options, "der")


@register("online")
def _solve_online(req: SolveRequest, options: Mapping) -> SolveResult:
    from ..core.online import OnlineSubintervalScheduler

    res = OnlineSubintervalScheduler(
        req.tasks,
        req.platform.m,
        req.platform.power,
        method=options.get("method", "der"),
    ).run()
    return SolveResult(
        solver="",
        kind="online",
        energy=res.energy,
        schedule=res.schedule,
        extras={
            "replans": res.replans,
            "touched_subintervals": res.touched_subintervals,
            "total_subintervals": res.total_subintervals,
        },
    )


@register("practical")
def _solve_practical(req: SolveRequest, options: Mapping) -> SolveResult:
    from ..core.practical_scheduler import PracticalScheduler

    fset = req.platform.fset
    if fset is None:
        from ..power.xscale import xscale_frequency_set

        fset = xscale_frequency_set()
    res = PracticalScheduler(req.tasks, req.platform.m, fset).schedule(
        options.get("method", "der")
    )
    return SolveResult(
        solver="",
        kind="practical",
        energy=res.energy,
        schedule=res.schedule,
        feasible=res.all_deadlines_met,
        deadline_misses=res.missed_tasks,
        extras={
            "frequencies": res.frequencies,
            "planned_frequencies": res.planned_frequencies,
            "f_max": fset.f_max,
        },
    )


# -- exact convex solvers ------------------------------------------------------------


def _optimal(req: SolveRequest, options: Mapping, backend: str) -> SolveResult:
    from ..core.intervals import Timeline
    from ..optimal import ConvexProblem, optimal_schedule, solve_problem

    # the timeline depends only on the task set — share it across every
    # solver invoked on this request (and with the subinterval pipeline's
    # scheduler when that ran first)
    timeline = req._scratch.get("timeline")
    if timeline is None:
        sch = req._scratch.get("scheduler")
        timeline = sch.timeline if sch is not None else Timeline(req.tasks)
        req._scratch["timeline"] = timeline
    if req.platform.f_max is not None:
        problem = ConvexProblem(
            timeline,
            req.platform.m,
            req.platform.power,
            min_available=req.tasks.works / req.platform.f_max,
        )
    else:
        problem = ConvexProblem(timeline, req.platform.m, req.platform.power)

    kwargs = {}
    if options.get("config") is not None:
        kwargs["config"] = options["config"]
    sol = solve_problem(
        problem,
        solver=backend,
        kernel=options.get("kernel", "auto"),
        warm=options.get("warm"),
        **kwargs,
    )
    schedule = None
    if options.get("materialize", True):
        schedule = optimal_schedule(sol)
    extras = {
        "backend": sol.solver,
        "iterations": sol.iterations,
        "gap": sol.gap,
        "available_times": sol.available_times,
        "frequencies": sol.frequencies,
    }
    if sol.profile is not None:
        pr = sol.profile
        extras.update(
            kernel=pr.kernel,
            newton_iterations=pr.total_newton,
            newton_per_center=pr.newton_per_center,
            factor_time_s=pr.factor_time_s,
            warm_started=pr.warm_started,
            polish_iters=pr.polish_iters,
            dense_fallbacks=pr.dense_fallbacks,
        )
    return SolveResult(
        solver="",
        kind="optimal",
        energy=float(sol.energy),
        schedule=schedule,
        extras=extras,
    )


@register("optimal:interior-point")
def _solve_opt_ip(req: SolveRequest, options: Mapping) -> SolveResult:
    return _optimal(req, options, "interior-point")


@register("optimal:projected-gradient")
def _solve_opt_pg(req: SolveRequest, options: Mapping) -> SolveResult:
    return _optimal(req, options, "projected-gradient")


def _have_scipy() -> bool:
    try:
        import scipy  # noqa: F401
    except ImportError:  # pragma: no cover - scipy is present in CI
        return False
    return True


if _have_scipy():

    @register("optimal:slsqp")
    def _solve_opt_slsqp(req: SolveRequest, options: Mapping) -> SolveResult:
        return _optimal(req, options, "SLSQP")

    @register("optimal:trust-constr")
    def _solve_opt_tc(req: SolveRequest, options: Mapping) -> SolveResult:
        return _optimal(req, options, "trust-constr")


# -- baselines -----------------------------------------------------------------------


@register("edf")
def _solve_edf(req: SolveRequest, options: Mapping) -> SolveResult:
    from ..baselines.naive import max_speed_baseline

    res = max_speed_baseline(
        req.tasks,
        req.platform.m,
        req.platform.power,
        frequency=options.get("frequency"),
    )
    return SolveResult(
        solver="",
        kind="EDF",
        energy=res.energy,
        schedule=res.schedule,
        feasible=res.all_deadlines_met,
        deadline_misses=res.deadline_misses,
        extras={"finish_time": res.finish_time},
    )


@register("naive")
def _solve_naive(req: SolveRequest, options: Mapping) -> SolveResult:
    from ..baselines.naive import stretch_baseline

    res = stretch_baseline(req.tasks, req.platform.m, req.platform.power)
    return SolveResult(
        solver="",
        kind="stretch",
        energy=res.energy,
        schedule=res.schedule,
        feasible=res.all_deadlines_met,
        deadline_misses=res.deadline_misses,
        extras={"finish_time": res.finish_time},
    )


@register("yds")
def _solve_yds(req: SolveRequest, options: Mapping) -> SolveResult:
    from ..baselines.yds import yds_schedule

    # YDS is the *uniprocessor* optimum: it schedules on core 0 only,
    # which is trivially collision-free on any m >= 1 platform.
    res = yds_schedule(req.tasks, req.platform.power)
    return SolveResult(
        solver="",
        kind="YDS",
        energy=res.energy,
        schedule=res.schedule,
        extras={
            "cores_used": 1,
            "critical_intervals": len(res.critical_intervals),
        },
    )
