"""Deterministic fault injection for the scheduling service.

Chaos testing needs faults that are *repeatable*: the same spec and seed
must kill the same dispatches, delay the same responses, and malform the
same payloads on every run, so a failing chaos run can be replayed
exactly.  Everything here draws from one seeded :class:`random.Random`
stream owned by a :class:`FaultInjector`.

Fault classes
-------------

``kill``
    A worker dies mid-solve.  With real pool workers the dispatch SIGKILLs
    the worker it has just acquired, before sending it anything, so the
    crash lands on that dispatch's own attempt and costs no other batch;
    in thread mode (``workers=0``) the dispatch raises
    :class:`SimulatedWorkerCrash` instead, which the supervisor treats
    like a worker's death.  Kills only fire on a dispatch's *first*
    attempt — the retry runs on a live worker — matching the supervision
    contract of at-most-one re-dispatch.
``delay``
    The response is held for ``delay_s`` seconds before being written.
``drop``
    The connection is closed instead of writing the response (clients see
    a reset and may retry on a fresh connection).
``malform``
    Client-side: the load generator replaces the payload with a malformed
    body drawn from a fixed menu (the server must answer 400, never 500).

Specs parse from compact strings for CLI use::

    kill=0.05,delay=0.1:0.02,drop=0.02,malform=0.1,seed=7

"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, replace

__all__ = [
    "FaultSpec",
    "FaultInjector",
    "SimulatedWorkerCrash",
    "MALFORMED_MENU",
]


class SimulatedWorkerCrash(RuntimeError):
    """Stands in for a worker process dying when no real pool exists."""


#: Malformed /schedule payload menu the chaos load generator cycles
#: through.  Every entry must map to HTTP 400 (parse-time rejection) —
#: reaching a pool worker with any of these is a protocol-layer bug.
MALFORMED_MENU: tuple[dict, ...] = (
    {},  # no tasks field at all
    {"tasks": []},  # empty task list
    {"tasks": "not-a-list"},
    {"tasks": [[0.0, 10.0, 5.0]], "method": "no-such-solver"},
    {"tasks": [[5.0, 1.0, 2.0]]},  # deadline < release
    {"tasks": [[0.0, 10.0, -3.0]]},  # negative work
    {"tasks": [[0.0, 10.0]]},  # short row
    {"tasks": [[0.0, "ten", 5.0]]},  # non-numeric field
    {"tasks": [[0.0, 10.0, 5.0]], "m": 0},
    {"tasks": [[0.0, 10.0, 5.0]], "include_schedule": "yes"},
)


@dataclass(frozen=True)
class FaultSpec:
    """One immutable chaos configuration (all rates are probabilities)."""

    kill_rate: float = 0.0
    delay_rate: float = 0.0
    delay_s: float = 0.02
    drop_rate: float = 0.0
    malform_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("kill_rate", "delay_rate", "drop_rate", "malform_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")

    @property
    def enabled(self) -> bool:
        """True when any fault class has a nonzero rate."""
        return any(
            rate > 0
            for rate in (
                self.kill_rate,
                self.delay_rate,
                self.drop_rate,
                self.malform_rate,
            )
        )

    @classmethod
    def parse(cls, spec: str) -> "FaultSpec":
        """Parse ``"kill=0.05,delay=0.1:0.02,drop=0.02,seed=7"``.

        An empty string is the disabled spec.  ``delay`` optionally takes
        ``rate:seconds``; every other key is a bare number.
        """
        out = cls()
        if not spec.strip():
            return out
        for part in spec.split(","):
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(f"fault spec entry {part!r} is not key=value")
            if key not in ("kill", "delay", "drop", "malform", "seed"):
                raise ValueError(
                    f"unknown fault key {key!r} "
                    "(known: kill, delay, drop, malform, seed)"
                )
            try:
                if key == "kill":
                    out = replace(out, kill_rate=float(value))
                elif key == "delay":
                    rate, sep2, secs = value.partition(":")
                    out = replace(out, delay_rate=float(rate))
                    if sep2:
                        out = replace(out, delay_s=float(secs))
                elif key == "drop":
                    out = replace(out, drop_rate=float(value))
                elif key == "malform":
                    out = replace(out, malform_rate=float(value))
                else:
                    out = replace(out, seed=int(value))
            except ValueError as exc:
                raise ValueError(
                    f"bad fault spec entry {part!r}: {exc}"
                ) from exc
        return out

    def format(self) -> str:
        """The compact spec string (round-trips through :meth:`parse`)."""
        parts = []
        if self.kill_rate:
            parts.append(f"kill={self.kill_rate:g}")
        if self.delay_rate:
            parts.append(f"delay={self.delay_rate:g}:{self.delay_s:g}")
        if self.drop_rate:
            parts.append(f"drop={self.drop_rate:g}")
        if self.malform_rate:
            parts.append(f"malform={self.malform_rate:g}")
        parts.append(f"seed={self.seed}")
        return ",".join(parts)


class FaultInjector:
    """Seeded fault decisions plus injected-fault accounting.

    One injector serves one daemon (or one load generator): every
    decision draws from the same ``random.Random(seed)`` stream, so a
    given spec replays the same fault sequence for the same sequence of
    decision points.  ``counts`` tracks injections by class for tests,
    ``/metrics``, and the chaos-smoke report.
    """

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        self._rng = random.Random(spec.seed)
        self.counts: dict[str, int] = {
            "kill": 0, "delay": 0, "drop": 0, "malform": 0,
        }

    def _roll(self, rate: float) -> bool:
        return rate > 0 and self._rng.random() < rate

    def should_kill(self, attempt: int = 0) -> bool:
        """Kill the worker handling this dispatch?  Never on a retry."""
        if attempt > 0:  # no draw: retries are fault-free by contract
            return False
        if self._roll(self.spec.kill_rate):
            self.counts["kill"] += 1
            return True
        return False

    async def maybe_delay(self) -> None:
        """Hold the response for ``delay_s`` when the delay fault fires."""
        if self._roll(self.spec.delay_rate):
            self.counts["delay"] += 1
            await asyncio.sleep(self.spec.delay_s)

    def should_drop(self) -> bool:
        """Drop (close) the connection instead of writing the response?"""
        if self._roll(self.spec.drop_rate):
            self.counts["drop"] += 1
            return True
        return False

    def should_malform(self) -> bool:
        """Client-side: replace this request's payload with garbage?"""
        if self._roll(self.spec.malform_rate):
            self.counts["malform"] += 1
            return True
        return False

    def malformed_payload(self) -> dict:
        """The next malformed body (deterministic cycle over the menu)."""
        return MALFORMED_MENU[self.counts["malform"] % len(MALFORMED_MENU)]

