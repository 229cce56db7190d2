"""The ``repro solve --profile`` report.

:func:`format_solve_profile` renders one coherent report from a
:class:`~repro.engine.contract.SolveResult` plus the spans captured
around the solve: the kernel diagnostics the solver's
:class:`~repro.optimal.interior_point.KernelProfile` put in ``extras``,
the centering path from the ``ip.center`` events that mirror that
profile's records on the trace, and the span timing tree.
"""

from __future__ import annotations

__all__ = ["format_solve_profile", "span_tree_lines"]


def span_tree_lines(spans: list[dict], indent: str = "  ") -> list[str]:
    """Render captured span dicts as an indented tree with durations.

    Orphans (parent not in the capture, e.g. pruned by sampling) print at
    the root level.  Siblings keep start-time order.
    """
    by_parent: dict[str | None, list[dict]] = {}
    ids = {sp["span_id"] for sp in spans}
    for sp in spans:
        parent = sp.get("parent_id")
        key = parent if parent in ids else None
        by_parent.setdefault(key, []).append(sp)
    for children in by_parent.values():
        children.sort(key=lambda s: s.get("start", 0.0))

    lines: list[str] = []

    def walk(parent_key: str | None, depth: int) -> None:
        for sp in by_parent.get(parent_key, ()):
            attrs = sp.get("attrs", {})
            extras = []
            if attrs.get("solver"):
                extras.append(str(attrs["solver"]))
            if attrs.get("fused"):
                extras.append("fused")
            if sp.get("status", "ok") != "ok":
                extras.append(sp["status"].upper())
            suffix = f"  ({', '.join(extras)})" if extras else ""
            lines.append(
                f"{indent * depth}{sp['name']:<24s} "
                f"{sp.get('dur_ms', 0.0):9.3f} ms{suffix}"
            )
            walk(sp["span_id"], depth + 1)

    walk(None, 0)
    return lines


def _kernel_section(extras: dict) -> list[str]:
    lines = [
        f"  kernel: {extras['kernel']}  newton iterations: "
        f"{extras['newton_iterations']}  dense fallbacks: "
        f"{extras['dense_fallbacks']}",
        f"  newton per centering step: {list(extras['newton_per_center'])}",
        f"  factor time: {extras['factor_time_s'] * 1e3:.2f} ms  "
        f"polish iterations: {extras['polish_iters']}",
        f"  warm started: {extras['warm_started']}",
    ]
    return lines


def _centering_section(spans: list[dict]) -> list[str]:
    events = [
        ev
        for sp in spans
        for ev in sp.get("attrs", {}).get("events", [])
        if ev.get("name") == "ip.center"
    ]
    if not events:
        return []
    lines = ["interior-point centering path:"]
    lines.append("  step      t_ms         gap  newton")
    for i, ev in enumerate(events):
        lines.append(
            f"  {i + 1:>4d} {ev['t_ms']:>9.3f} {ev.get('gap', float('nan')):>11.3e} "
            f"{ev.get('newton', 0):>7d}"
        )
    return lines


def format_solve_profile(result, spans: list[dict]) -> str:
    """The unified ``repro solve --profile`` report.

    ``result`` is a :class:`~repro.engine.contract.SolveResult`; ``spans``
    the dicts captured around the solve (``obs.capture()``).  Sections
    that don't apply to the solver that ran (no kernel diagnostics, no
    centering path) are simply omitted.
    """
    lines = ["profile:"]
    if "kernel" in result.extras:
        lines += _kernel_section(dict(result.extras))
    else:
        lines.append("  no kernel diagnostics for this solver")
    centering = _centering_section(spans)
    if centering:
        lines += centering
    if spans:
        lines.append("span timings:")
        lines += ["  " + line for line in span_tree_lines(spans)]
    return "\n".join(lines)
