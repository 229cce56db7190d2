"""Micro-benchmark: the vectorized allocation/packing hot path.

Plan assembly and slot construction used to loop over subintervals in
Python (one ``allocate_der``/``wrap_schedule`` call per column).  Both now
run as batched NumPy passes; ``tests/oracles.py`` keeps the original loops
alive as the oracle.  This benchmark times both on one
large instance (n = 500 tasks → ≈1000 subintervals, m = 16), checks the
results agree to 1e-9, asserts the ≥5× speedup target, and archives a CSV
row per stage under ``results/bench/``.
"""

import time

import numpy as np

from repro.core import SubintervalScheduler, Timeline, build_allocation_plan, solve_ideal
from repro.power import PolynomialPower
from repro.workloads import paper_workload
from repro.workloads.generator import PaperWorkloadConfig
from tests.oracles import scalar_plan, scalar_slots

_POWER = PolynomialPower(alpha=3.0, static=0.1)
_N_TASKS = 500
_M = 16


def _best_of(fn, k: int) -> float:
    best = float("inf")
    for _ in range(k):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_allocation_hotpath_speedup(results_dir):
    rng = np.random.default_rng(0)
    tasks = paper_workload(rng, PaperWorkloadConfig(n_tasks=_N_TASKS))
    tl = Timeline(tasks)
    ideal = solve_ideal(tasks, _POWER)
    assert len(tl) > 900  # the N ≈ 1000 regime the issue targets

    # -- stage 1: allocation-plan assembly (Algorithm 2 over all columns) --
    vec_plan = build_allocation_plan(tl, _M, "der", ideal=ideal)
    ref_plan = scalar_plan(tl, _M, "der", ideal=ideal)
    np.testing.assert_allclose(vec_plan.x, ref_plan.x, rtol=1e-9, atol=1e-12)

    t_vec_plan = _best_of(
        lambda: build_allocation_plan(tl, _M, "der", ideal=ideal), 5
    )
    t_ref_plan = _best_of(
        lambda: scalar_plan(tl, _M, "der", ideal=ideal), 3
    )

    # -- stage 2: slot construction (Algorithm 1 over all columns) --------
    # the production path keeps slots as flat arrays (PackedSlots); the
    # scalar loop materializes Slot objects, which is what it always did
    sch = SubintervalScheduler(tasks, _M, _POWER)
    vec_slots = sch._slots_flat(vec_plan).to_slot_lists()
    ref_slots = scalar_slots(sch, vec_plan)
    assert [len(s) for s in vec_slots] == [len(s) for s in ref_slots]
    for g_slots, w_slots in zip(vec_slots, ref_slots):
        for g, w in zip(g_slots, w_slots):
            assert (g.task_id, g.core) == (w.task_id, w.core)
            assert abs(g.start - w.start) < 1e-9
            assert abs(g.end - w.end) < 1e-9

    t_vec_pack = _best_of(lambda: sch._slots_flat(vec_plan), 5)
    t_ref_pack = _best_of(lambda: scalar_slots(sch, vec_plan), 3)

    rows = [
        ("plan_assembly_der", t_ref_plan, t_vec_plan),
        ("slot_packing", t_ref_pack, t_vec_pack),
        (
            "combined",
            t_ref_plan + t_ref_pack,
            t_vec_plan + t_vec_pack,
        ),
    ]
    lines = ["stage,n_tasks,n_subintervals,m,scalar_s,vectorized_s,speedup"]
    for stage, ref, vec in rows:
        lines.append(
            f"{stage},{_N_TASKS},{len(tl)},{_M},{ref:.6f},{vec:.6f},{ref / vec:.2f}"
        )
    (results_dir / "allocation_hotpath.csv").write_text("\n".join(lines) + "\n")
    print("\n" + "\n".join(lines))

    combined = (t_ref_plan + t_ref_pack) / (t_vec_plan + t_vec_pack)
    assert combined >= 5.0, (
        f"hot path speedup {combined:.1f}x below the 5x target "
        f"(plan {t_ref_plan / t_vec_plan:.1f}x, pack {t_ref_pack / t_vec_pack:.1f}x)"
    )
