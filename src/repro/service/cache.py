"""LRU plan cache with hit/miss/eviction accounting.

Keys are the canonical hashes of :func:`repro.service.protocol.
canonical_plan_key`, so two requests that differ only in task order (or
JSON field order) share one entry.  Values are encoded results
(:class:`repro.service.protocol.EncodedResult`): the JSON bytes of a
solved plan, which a warm hit splices into its reply straight from the
event loop, without touching the micro-batcher or the process pool and
without encoding the schedule again.  The cache itself never looks at
its values.

Accounting contract (pinned by the unit tests):

* ``get`` is the *only* operation that counts — every call increments
  exactly one of ``hits``/``misses``, so ``hits + misses`` always equals
  the number of ``get`` calls;
* ``__contains__`` and ``peek`` never touch the counters **and never
  perturb LRU order** — probing a key must not rescue it from eviction;
* a cached falsy value (``0``, ``{}``, even ``None``) is distinguishable
  from a miss: pass the :data:`PlanCache.MISS` sentinel (or your own) as
  ``default`` and compare with ``is``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable

__all__ = ["PlanCache"]

#: Unique miss sentinel — never a legal cached value.
_MISS = object()


class PlanCache:
    """A bounded least-recently-used mapping.

    ``capacity=0`` disables caching entirely (every lookup is a miss and
    nothing is stored), which keeps call sites branch-free.
    """

    #: Sentinel for ``get(key, default=PlanCache.MISS)``: an ``is`` check
    #: against it distinguishes a miss from a cached ``None``/falsy value.
    MISS: Any = _MISS

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        """Membership probe: no counter change, no LRU reordering."""
        return key in self._data

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """The cached value *without* counting or refreshing recency."""
        return self._data.get(key, default)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value, refreshed to most-recently-used.

        On a miss, returns ``default`` (conventionally
        :data:`PlanCache.MISS` when ``None`` is a storable value) and the
        LRU order is left untouched — a missed probe must not perturb
        eviction order.
        """
        if key in self._data:
            self._data.move_to_end(key)
            self.hits += 1
            return self._data[key]
        self.misses += 1
        return default

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh ``key``; evicts the LRU entry beyond capacity."""
        if self.capacity == 0:
            return
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._data.clear()

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when untouched)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "size": len(self._data),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 6),
        }
