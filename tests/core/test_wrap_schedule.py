"""Unit tests for Algorithm 1 (McNaughton wrap-around packing)."""

import numpy as np
import pytest

from repro.core import pack_matrix_flat, wrap_schedule


def _slot_lists(boundaries, x, m, counts):
    """Per-subinterval Slot lists from the flat packing."""
    return pack_matrix_flat(boundaries, x, m, counts).to_slot_lists()


def _by_task(slots):
    out = {}
    for s in slots:
        out.setdefault(s.task_id, []).append(s)
    return out


def _assert_no_core_conflicts(slots):
    by_core = {}
    for s in slots:
        by_core.setdefault(s.core, []).append(s)
    for segs in by_core.values():
        segs.sort(key=lambda s: s.start)
        for a, b in zip(segs, segs[1:]):
            assert b.start >= a.end - 1e-9


def _assert_no_task_parallelism(slots):
    for segs in _by_task(slots).values():
        segs.sort(key=lambda s: s.start)
        for a, b in zip(segs, segs[1:]):
            assert b.start >= a.end - 1e-9


class TestBasicPacking:
    def test_single_task_single_core(self):
        slots = wrap_schedule(0.0, 10.0, {0: 4.0}, 1)
        assert len(slots) == 1
        assert slots[0].core == 0
        assert slots[0].duration == pytest.approx(4.0)

    def test_fill_one_core_then_next(self):
        slots = wrap_schedule(0.0, 4.0, {0: 4.0, 1: 4.0}, 2)
        assert {s.core for s in slots} == {0, 1}
        for s in slots:
            assert s.duration == pytest.approx(4.0)

    def test_wrap_splits_task(self):
        # 3 tasks of 3 units into [0, 4] on 3 cores: task 1 wraps
        slots = wrap_schedule(0.0, 4.0, {0: 3.0, 1: 3.0, 2: 3.0}, 3)
        per = _by_task(slots)
        assert len(per[0]) == 1
        assert len(per[1]) == 2  # wrapped across cores 0 and 1
        durations = {tid: sum(s.duration for s in segs) for tid, segs in per.items()}
        for tid in (0, 1, 2):
            assert durations[tid] == pytest.approx(3.0)
        _assert_no_core_conflicts(slots)
        _assert_no_task_parallelism(slots)

    def test_wrapped_task_pieces_dont_overlap_in_time(self):
        slots = wrap_schedule(0.0, 4.0, {0: 3.0, 1: 3.0}, 2)
        per = _by_task(slots)
        segs = sorted(per[1], key=lambda s: s.start)
        assert len(segs) == 2
        # head on next core ends before tail on previous core starts
        assert segs[0].end <= segs[1].start + 1e-12

    def test_zero_allocations_skipped(self):
        slots = wrap_schedule(0.0, 4.0, {0: 0.0, 1: 2.0}, 1)
        assert {s.task_id for s in slots} == {1}

    def test_paper_even_allocation_8_10(self, six_tasks):
        # five tasks, 8/5 each, 4 cores over [8, 10] (paper Fig. 4(b))
        alloc = {i: 8 / 5 for i in range(5)}
        slots = wrap_schedule(8.0, 10.0, alloc, 4)
        _assert_no_core_conflicts(slots)
        _assert_no_task_parallelism(slots)
        per = _by_task(slots)
        for tid in range(5):
            assert sum(s.duration for s in per[tid]) == pytest.approx(8 / 5)
        # capacity exactly filled: 5 * 8/5 = 8 = 4 cores x 2
        assert sum(s.duration for s in slots) == pytest.approx(8.0)


class TestValidation:
    def test_rejects_over_length_allocation(self):
        with pytest.raises(ValueError, match="exceeds subinterval length"):
            wrap_schedule(0.0, 2.0, {0: 3.0}, 2)

    def test_rejects_over_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            wrap_schedule(0.0, 2.0, {0: 2.0, 1: 2.0, 2: 2.0}, 2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            wrap_schedule(0.0, 2.0, {0: -1.0}, 1)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError, match="positive length"):
            wrap_schedule(2.0, 2.0, {0: 0.0}, 1)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError, match="m must be"):
            wrap_schedule(0.0, 2.0, {0: 1.0}, 0)

    def test_exact_capacity_fits(self):
        # total exactly m * delta, every task exactly delta
        slots = wrap_schedule(0.0, 3.0, {0: 3.0, 1: 3.0, 2: 3.0}, 3)
        _assert_no_core_conflicts(slots)
        assert sum(s.duration for s in slots) == pytest.approx(9.0)

    def test_sequence_input(self):
        slots = wrap_schedule(0.0, 4.0, [(5, 2.0), (9, 1.0)], 1)
        assert [s.task_id for s in slots] == [5, 9]

    def test_slots_within_interval(self):
        slots = wrap_schedule(1.0, 5.0, {0: 4.0, 1: 3.0, 2: 1.0}, 2)
        for s in slots:
            assert s.start >= 1.0 - 1e-12
            assert s.end <= 5.0 + 1e-12


class TestPackMatrix:
    """Batched cumulative-sum packing over a whole allocation matrix."""

    @staticmethod
    def _reference(boundaries, x, m, counts):
        """Per-subinterval scalar packing (the pre-vectorization behaviour)."""
        from repro.core import Slot

        out = []
        for j in range(len(counts)):
            start, end = float(boundaries[j]), float(boundaries[j + 1])
            if counts[j] > m:
                alloc = {
                    tid: float(x[tid, j])
                    for tid in range(x.shape[0])
                    if x[tid, j] > 1e-9
                }
                out.append(wrap_schedule(start, end, alloc, m))
            else:
                out.append(
                    [
                        Slot(tid, core, start, start + float(x[tid, j]))
                        for core, tid in enumerate(
                            t for t in range(x.shape[0]) if x[t, j] > 1e-9
                        )
                    ]
                )
        return out

    @staticmethod
    def _assert_equivalent(got, want):
        assert len(got) == len(want)
        for g_slots, w_slots in zip(got, want):
            assert len(g_slots) == len(w_slots)
            for g, w in zip(g_slots, w_slots):
                assert g.task_id == w.task_id
                assert g.core == w.core
                assert g.start == pytest.approx(w.start, abs=1e-9)
                assert g.end == pytest.approx(w.end, abs=1e-9)

    def test_matches_scalar_wrap_on_heavy(self):
        boundaries = np.array([0.0, 4.0])
        x = np.array([[3.0], [3.0], [3.0], [0.0]])
        counts = np.array([4])
        got = _slot_lists(boundaries, x, 3, counts)
        self._assert_equivalent(got, self._reference(boundaries, x, 3, counts))

    def test_light_columns_one_core_each(self):
        boundaries = np.array([0.0, 2.0, 5.0])
        x = np.array([[2.0, 3.0], [2.0, 0.0], [0.0, 3.0]])
        counts = np.array([2, 2])
        got = _slot_lists(boundaries, x, 3, counts)
        assert [(s.task_id, s.core) for s in got[0]] == [(0, 0), (1, 1)]
        assert [(s.task_id, s.core) for s in got[1]] == [(0, 0), (2, 1)]
        # full-length allocations snap exactly to the subinterval boundaries
        assert all(s.start == 0.0 and s.end == 2.0 for s in got[0])
        assert all(s.start == 2.0 and s.end == 5.0 for s in got[1])

    def test_random_plans_match_scalar_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            J = int(rng.integers(1, 6))
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 5))
            boundaries = np.cumsum(rng.uniform(0.5, 3.0, size=J + 1))
            delta = boundaries[1:] - boundaries[:-1]
            counts = np.full(J, n)
            # feasible matrix: per-entry <= delta, column totals <= m * delta
            x = rng.uniform(0.0, 1.0, size=(n, J)) * delta[None, :]
            scale = np.minimum(m * delta / np.maximum(x.sum(axis=0), 1e-12), 1.0)
            x *= scale[None, :]
            got = _slot_lists(boundaries, x, m, counts)
            if n <= m:
                # light: every active task on its own core for its full time
                for j, slots in enumerate(got):
                    for s in slots:
                        assert s.start == pytest.approx(boundaries[j])
            else:
                self._assert_equivalent(
                    got, self._reference(boundaries, x, m, counts)
                )

    def test_durations_conserved(self):
        rng = np.random.default_rng(3)
        boundaries = np.array([0.0, 2.0, 3.5, 7.0])
        delta = boundaries[1:] - boundaries[:-1]
        n, m = 6, 2
        x = rng.uniform(0, 1, size=(n, 3)) * delta[None, :]
        x *= np.minimum(m * delta / x.sum(axis=0), 1.0)[None, :]
        got = _slot_lists(boundaries, x, m, np.full(3, n))
        for j, slots in enumerate(got):
            per_task = {}
            for s in slots:
                per_task[s.task_id] = per_task.get(s.task_id, 0.0) + s.duration
            for tid, total in per_task.items():
                assert total == pytest.approx(x[tid, j], abs=1e-8)

    def test_no_core_conflicts_and_no_task_parallelism(self):
        rng = np.random.default_rng(11)
        boundaries = np.cumsum(rng.uniform(0.5, 2.0, size=8))
        delta = boundaries[1:] - boundaries[:-1]
        n, m = 9, 3
        x = rng.uniform(0, 1, size=(n, 7)) * delta[None, :]
        x *= np.minimum(m * delta / x.sum(axis=0), 1.0)[None, :]
        for slots in _slot_lists(boundaries, x, m, np.full(7, n)):
            _assert_no_core_conflicts(slots)
            _assert_no_task_parallelism(slots)
            for s in slots:
                assert 0 <= s.core < m

    def test_rejects_overcommitted_column(self):
        boundaries = np.array([0.0, 2.0])
        x = np.array([[2.0], [2.0], [2.0]])
        with pytest.raises(ValueError, match="capacity"):
            _slot_lists(boundaries, x, 2, np.array([3]))

    def test_rejects_over_length_entry(self):
        boundaries = np.array([0.0, 2.0])
        x = np.array([[3.0], [0.0], [0.0]])
        with pytest.raises(ValueError, match="exceeds subinterval length"):
            _slot_lists(boundaries, x, 2, np.array([3]))

    def test_rejects_negative_entry(self):
        boundaries = np.array([0.0, 2.0])
        x = np.array([[-1.0]])
        with pytest.raises(ValueError, match="negative"):
            _slot_lists(boundaries, x, 1, np.array([1]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="one more entry"):
            _slot_lists(np.array([0.0, 1.0]), np.zeros((2, 2)), 1, np.array([1, 1]))


class TestPackedSlots:
    """The flat-array hot path and its Slot-list view stay in lockstep."""

    def test_flat_matches_list_view(self):
        rng = np.random.default_rng(5)
        boundaries = np.cumsum(rng.uniform(0.5, 2.0, size=6))
        delta = boundaries[1:] - boundaries[:-1]
        n, m = 7, 2
        x = rng.uniform(0, 1, size=(n, 5)) * delta[None, :]
        x *= np.minimum(m * delta / x.sum(axis=0), 1.0)[None, :]
        ps = pack_matrix_flat(boundaries, x, m, np.full(5, n))
        lists = _slot_lists(boundaries, x, m, np.full(5, n))
        k = 0
        for j, slots in enumerate(lists):
            for s in slots:
                assert (s.task_id, s.core) == (ps.task[k], ps.core[k])
                assert s.start == ps.start[k] and s.end == ps.end[k]
                assert ps.sub[k] == j
                k += 1
        assert k == len(ps)
        np.testing.assert_allclose(ps.durations, ps.end - ps.start)

    def test_sub_is_grouped_and_nondecreasing(self):
        boundaries = np.array([0.0, 2.0, 5.0])
        x = np.array([[1.5, 3.0], [2.0, 0.5], [0.5, 2.0]])
        ps = pack_matrix_flat(boundaries, x, 2, np.array([3, 3]))
        assert np.all(np.diff(ps.sub) >= 0)
        assert ps.n_subintervals == 2
