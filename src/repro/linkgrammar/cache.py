"""Shared, dictionary-generation-scoped parse result caching.

PR 1 gave every :class:`~repro.linkgrammar.parser.Parser` a private LRU
pair (whole-sentence results + linkage counts).  That left one cold-start
per component: Learning_Angel's analyzer and the sentence repairer each
re-parsed the same learner sentences into separate stores, and repair
candidates re-parsed by different components never shared work.

:class:`ParseCacheStore` extracts those LRUs into a standalone store that
any number of parsers can attach to.  Correctness guarantees:

* **Generation scoping** — the store remembers the dictionary generation
  it was filled under and drops every entry the moment a parser of a
  newer generation touches it, so a mutated dictionary never serves
  stale parses (counters survive the purge; only entries go).
* **Options fingerprinting** — parse results depend on the parse knobs
  (null tolerance, linkage cap, wall, pruning), so every key carries the
  owning parser's :meth:`~repro.linkgrammar.parser.ParseOptions`
  fingerprint.  Parsers with different knobs can share one store safely;
  they simply occupy disjoint key spaces.  Components that want real
  sharing (the analyzer and the repairer) are wired with identical
  options.

The store is a bounded LRU guarded by a single lock: the ``parallel``
supervision runtime drains shards on a thread pool whose workers all
attach to one shared store, and the get/move-to-end and put/evict pairs
must be atomic for the LRU bookkeeping to survive concurrent access.
Cached values are deterministic functions of their keys, so whichever
thread fills an entry first, every reader sees the same parse.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable


class ParseCacheStore:
    """A bounded LRU pair (sentence results + counts) shared by parsers.

    Args:
        max_entries: per-cache entry bound; 0 disables storage (gets
            always miss, puts are dropped).
    """

    def __init__(self, max_entries: int = 256) -> None:
        self.max_entries = max_entries
        self._parse: OrderedDict[Hashable, Any] = OrderedDict()
        self._count: OrderedDict[Hashable, int] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self._generation: Hashable | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------ scoping

    def sync_generation(self, version: Hashable) -> None:
        """Scope the store to dictionary generation ``version`` (or any
        generation key: the supervision pipeline's analysis cache passes
        the dictionary version with its ontology generations).

        Entries from an older generation are purged wholesale — cheaper
        and simpler than carrying the version in every key, and a
        redefined word invalidates arbitrary sentences anyway.
        """
        with self._lock:
            if self._generation != version:
                self._parse.clear()
                self._count.clear()
                self._generation = version

    # ----------------------------------------------------------- parse API

    def get_parse(self, key: Hashable) -> Any | None:
        with self._lock:
            got = self._parse.get(key)
            if got is None:
                self.misses += 1
                return None
            self._parse.move_to_end(key)
            self.hits += 1
            return got

    def put_parse(self, key: Hashable, value: Any) -> None:
        if self.max_entries <= 0:
            return
        with self._lock:
            self._parse[key] = value
            if len(self._parse) > self.max_entries:
                self._parse.popitem(last=False)

    # ----------------------------------------------------------- count API

    def get_count(self, key: Hashable) -> int | None:
        with self._lock:
            got = self._count.get(key)
            if got is None:
                self.misses += 1
                return None
            self._count.move_to_end(key)
            self.hits += 1
            return got

    def put_count(self, key: Hashable, value: int) -> None:
        if self.max_entries <= 0:
            return
        with self._lock:
            self._count[key] = value
            if len(self._count) > self.max_entries:
                self._count.popitem(last=False)

    # ------------------------------------------------------------- utility

    @property
    def parse_entries(self) -> int:
        return len(self._parse)

    @property
    def count_entries(self) -> int:
        return len(self._count)

    def info(self) -> dict[str, int]:
        """Counters and sizes, for the perf harness report."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "parse_entries": len(self._parse),
            "count_entries": len(self._count),
            "max_entries": self.max_entries,
        }

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._parse.clear()
            self._count.clear()
            self.hits = 0
            self.misses = 0
