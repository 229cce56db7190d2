"""Property tests: Algorithm 1 produces collision-free exact packings."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import wrap_schedule


@st.composite
def packing_instance(draw):
    m = draw(st.integers(min_value=1, max_value=5))
    delta = draw(st.integers(min_value=1, max_value=20)) * 0.5
    n = draw(st.integers(min_value=1, max_value=12))
    # fractions of delta in [0, 1], scaled so total <= m * delta
    fracs = [
        draw(st.integers(min_value=0, max_value=100)) / 100.0 for _ in range(n)
    ]
    total = sum(fracs)
    cap = m  # total fraction allowed
    if total > cap:
        fracs = [f * cap / total for f in fracs]
    allocs = {i: f * delta for i, f in enumerate(fracs)}
    start = draw(st.integers(min_value=0, max_value=10)) * 1.0
    return start, start + delta, allocs, m


@given(packing_instance())
@settings(max_examples=120, deadline=None)
def test_wrap_schedule_invariants(instance):
    start, end, allocs, m = instance
    slots = wrap_schedule(start, end, allocs, m)

    # 1. all slots inside the subinterval
    for s in slots:
        assert s.start >= start - 1e-9
        assert s.end <= end + 1e-9
        assert s.core < m

    # 2. exact durations per task
    per_task = {}
    for s in slots:
        per_task[s.task_id] = per_task.get(s.task_id, 0.0) + s.duration
    for tid, t in allocs.items():
        assert abs(per_task.get(tid, 0.0) - t) < 1e-7

    # 3. no core conflicts
    by_core = {}
    for s in slots:
        by_core.setdefault(s.core, []).append(s)
    for segs in by_core.values():
        segs.sort(key=lambda s: s.start)
        for a, b in zip(segs, segs[1:]):
            assert b.start >= a.end - 1e-9

    # 4. no intra-task parallelism
    by_task = {}
    for s in slots:
        by_task.setdefault(s.task_id, []).append(s)
    for segs in by_task.values():
        segs.sort(key=lambda s: s.start)
        for a, b in zip(segs, segs[1:]):
            assert b.start >= a.end - 1e-9

    # 5. at most one wrap (two slots) per task
    for segs in by_task.values():
        assert len(segs) <= 2
