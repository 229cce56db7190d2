"""The unified ``repro solve --profile`` report."""

from types import SimpleNamespace

from repro.obs.profile import format_solve_profile, span_tree_lines


class TestSpanTreeLines:
    def _spans(self):
        return [
            {"span_id": "a", "parent_id": None, "name": "engine.solve",
             "start": 1.0, "dur_ms": 10.0,
             "attrs": {"solver": "subinterval-der"}},
            {"span_id": "b", "parent_id": "a", "name": "solver:subinterval-der",
             "start": 1.001, "dur_ms": 8.0,
             "attrs": {"fused": True}},
            {"span_id": "c", "parent_id": "missing", "name": "pool.attempt",
             "start": 0.5, "dur_ms": 2.0, "status": "error",
             "attrs": {"outcome": "crashed"}},
        ]

    def test_indentation_order_and_extras(self):
        lines = span_tree_lines(self._spans())
        assert len(lines) == 3
        # orphan starts earlier → prints first at root level
        assert lines[0].startswith("pool.attempt")
        assert "ERROR" in lines[0]
        assert lines[1].startswith("engine.solve")
        assert "subinterval-der" in lines[1]
        # child is indented under its parent, with the fused marker
        assert lines[2].startswith("  solver:subinterval-der")
        assert "fused" in lines[2]

    def test_empty_capture_renders_nothing(self):
        assert span_tree_lines([]) == []


class TestFormatSolveProfile:
    def _kernel_result(self):
        return SimpleNamespace(
            extras={
                "kernel": "structured",
                "newton_iterations": 12,
                "dense_fallbacks": 0,
                "newton_per_center": (4, 5, 3),
                "factor_time_s": 0.002,
                "polish_iters": 1,
                "warm_started": True,
            }
        )

    def test_all_three_sections_in_one_report(self):
        spans = [
            {"span_id": "e", "parent_id": None, "name": "engine.solve",
             "start": 0.0, "dur_ms": 5.0,
             "attrs": {
                 "solver": "optimal:interior-point",
                 "events": [
                     {"name": "ip.center", "t_ms": 1.0, "gap": 1e-3,
                      "newton": 4},
                     {"name": "ip.center", "t_ms": 2.0, "gap": 1e-6,
                      "newton": 5},
                 ],
             }},
        ]
        text = format_solve_profile(self._kernel_result(), spans)
        assert text.startswith("profile:")
        assert "kernel: structured" in text
        assert "newton per centering step: [4, 5, 3]" in text
        assert "interior-point centering path:" in text
        assert "1.000e-03" in text
        assert "span timings:" in text
        assert "engine.solve" in text

    def test_heuristic_solver_omits_kernel_and_centering(self):
        text = format_solve_profile(SimpleNamespace(extras={}), [])
        assert "no kernel diagnostics" in text
        assert "centering path" not in text
        assert "span timings:" not in text
