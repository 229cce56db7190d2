"""The harness every ``make *-smoke`` check runs under.

A smoke check is a function (plain or ``async``) that drives one part of
the system and records each verified property on a :class:`Smoke`:
``ok`` lines print as they pass, failures are collected.  :func:`main`
parses the command line, runs the check and turns the outcome into the
report tail and the process exit code, so the six smoke modules
(``repro.service.smoke``, ``repro.engine.smoke``, ``repro.obs.smoke``,
``repro.core.incremental_smoke``, ``repro.service.shard_smoke`` and
``repro.service.chaos``) contain only what they check.
"""

from __future__ import annotations

import argparse
import asyncio
import inspect
import sys
from typing import Callable

__all__ = ["Smoke", "main"]


class Smoke:
    """One smoke run: prints what passed and collects what failed."""

    def __init__(self, name: str):
        self.name = name
        self.failures: list[str] = []

    def ok(self, line: str) -> None:
        print(f"  ok  {line}", flush=True)

    def fail(self, line: str) -> None:
        self.failures.append(line)

    def check(self, passed: bool, ok: str, fail: str) -> None:
        """Record ``ok`` when ``passed``, else the failure ``fail``."""
        if passed:
            self.ok(ok)
        else:
            self.fail(fail)

    def exit_code(self) -> int:
        """Print the failures and the verdict; 0 when nothing failed."""
        for line in self.failures:
            print(f"  FAIL {line}", file=sys.stderr)
        if self.failures:
            print(f"{self.name} FAILED ({len(self.failures)} checks)", file=sys.stderr)
            return 1
        print(f"{self.name} OK")
        return 0


def main(name: str, check: Callable) -> int:
    """Run ``check(smoke)`` as the smoke called ``name``; return its exit code.

    ``check`` may be a coroutine function.  When it takes a ``seed``
    parameter, the command line takes ``--seed`` with that parameter's
    default.
    """
    parser = argparse.ArgumentParser(prog=name)
    seed = inspect.signature(check).parameters.get("seed")
    if seed is not None:
        parser.add_argument("--seed", type=int, default=seed.default)
    smoke = Smoke(name)
    result = check(smoke, **vars(parser.parse_args()))
    if inspect.isawaitable(result):
        asyncio.run(result)
    return smoke.exit_code()
