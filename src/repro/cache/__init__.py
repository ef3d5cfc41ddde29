"""Cache substrate: set-associative caches and the Moola-style filter."""

from repro.cache.cache import AccessResult, Cache, CacheStats
from repro.cache.hierarchy import (
    CacheHierarchy,
    MemoryRequest,
    filter_trace,
    filter_trace_reference,
)

__all__ = [
    "Cache",
    "CacheStats",
    "AccessResult",
    "CacheHierarchy",
    "MemoryRequest",
    "filter_trace",
    "filter_trace_reference",
]
