"""repro.serving — the fault-set-partition serving layer.

Production query serving on top of the immutable packed label stores
(see ``src/repro/serving/README.md`` and ``docs/ARCHITECTURE.md``):

* :mod:`repro.serving.partition_cache` — canonical fault-set keys and
  an LRU of memoized ``decode_partition`` results, so all same-fault
  queries in a stream cost one decode;
* :mod:`repro.serving.coalescer` — synchronous and asyncio request
  coalescers that group single ``(s, t, F)`` queries into fault-set
  chunks and dispatch them through ``query_many``;
* :mod:`repro.serving.shards` — a process-pool service that shares
  the packed stores with every worker (fork copy-on-write, or
  spawn-safe workers that mmap a :mod:`repro.store` snapshot) and fans
  chunks out by fault-set hash.

Every counter of this layer lives in a :class:`repro.obs.MetricsRegistry`
(see ``src/repro/obs/README.md``); ``ShardedQueryService.stats()`` and
``PartitionCache.snapshot()`` are read-only views of it.
"""

from repro.serving.coalescer import (
    AsyncQueryCoalescer,
    QueryCoalescer,
    Ticket,
)
from repro.serving.partition_cache import (
    PartitionCache,
    canonical_fault_key,
    presentation_fault_key,
)
from repro.serving.shards import ShardedQueryService, shard_of

__all__ = [
    "AsyncQueryCoalescer",
    "PartitionCache",
    "QueryCoalescer",
    "ShardedQueryService",
    "Ticket",
    "canonical_fault_key",
    "presentation_fault_key",
    "shard_of",
]
