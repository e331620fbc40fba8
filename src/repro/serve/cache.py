"""Content-addressed result cache for the synthesis service.

Maps :func:`repro.serve.jobs.cache_key` digests — canonical DFG
fingerprint + full parameter tuple — to the *exact serialized bytes* of
a completed job's result payload.  Storing text rather than objects is
deliberate: a cache hit replays the stored bytes verbatim, so the cached
path is byte-identical to the cold path by construction (a property the
test suite locks down).

Eviction is LRU over a bounded entry count.  Synthesis results are a few
KiB of JSON (tens of KiB with an embedded trace), so the default bound
of 1024 entries keeps the cache in the tens of MiB worst case.

The *single-flight* half of deduplication — N identical in-flight
submissions sharing one synthesis run — lives in
:class:`~repro.serve.app.ServeApp`'s in-flight job table, not here: the
cache only ever sees completed results.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.serve.metrics import Metrics


class ResultCache:
    """Bounded LRU mapping cache keys to serialized result payloads."""

    def __init__(
        self,
        max_entries: int = 1024,
        metrics: Optional[Metrics] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.metrics = metrics
        self._entries: "OrderedDict[str, str]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[str]:
        """The stored response text, or ``None``; counts hit/miss."""
        text = self._entries.get(key)
        if text is None:
            self.misses += 1
            if self.metrics is not None:
                self.metrics.incr("cache_misses")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        if self.metrics is not None:
            self.metrics.incr("cache_hits")
        return text

    def peek(self, key: str) -> Optional[str]:
        """Like :meth:`get` but without touching recency or counters."""
        return self._entries.get(key)

    def put(self, key: str, text: str) -> None:
        """Store a completed result; evicts the least-recently-used entry."""
        self._entries[key] = text
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            if self.metrics is not None:
                self.metrics.incr("cache_evictions")

    def clear(self) -> None:
        """Drop every entry (counters are kept — they are totals)."""
        self._entries.clear()

    def hit_rate(self) -> Optional[float]:
        """Lifetime hit rate, ``None`` before the first lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else None
