"""Process-pool sharded query service over immutable packed stores.

Once constructed, a scheme's packed label store never mutates — the
whole query side is read-only — so serving can fan out across worker
processes without locks or copies.  :class:`ShardedQueryService`:

* forces the packed store to materialize in the parent, then **forks**
  one single-process pool per shard: the store transfers to every
  worker once, for free, via copy-on-write; alternatively, given a
  :mod:`repro.store` ``snapshot`` path, workers **open the snapshot
  themselves** (read-only mmap — one shared page-cache copy), which
  makes every start method viable, ``spawn`` included (see
  :meth:`ShardedQueryService.from_snapshot`).  Without fork and
  without a snapshot (and with ``num_shards=0``) it degrades to
  in-process shard caches — same answers, no processes;
* routes every coalesced chunk by the **hash of its canonical fault
  set**, so all queries about one failure state land on the same
  worker and hit that worker's
  :class:`~repro.serving.partition_cache.PartitionCache`;
* **replicates pathologically hot fault sets**: when one key takes
  more than ``hot_key_share`` of all traffic, its chunks fan out
  round-robin over *every* shard instead of pinning its hash owner —
  each worker's cache builds its own replica of the partition (cheap:
  one decode per worker) and the hot key stops serializing the fleet;
* counts into one :class:`~repro.obs.MetricsRegistry` per process —
  the parent's (chunk sizes per shard, worker seconds, hot keys, pool
  restarts) plus every worker cache's — merged exactly by
  :meth:`registry_dump`; :meth:`stats` is a view of that dump (chunk
  shape, per-shard load, hot-key replication, the workers' combined
  cache hit rate).

Answers are bit-identical to the single-process scheme (construction is
finished before the fork, so every worker holds the same store;
asserted by ``tests/test_serving.py``).
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import os
import signal
import threading
import time
from typing import Callable, Iterable, Optional, Sequence

from repro.core._batch import normalize_faults
from repro.obs import MetricsRegistry, stats_blocks
from repro.serving.partition_cache import (
    FaultKey,
    PartitionCache,
    canonical_fault_key,
    group_by_canonical_key,
)

#: Fork-time handoff: each live service parks its scheme here under a
#: unique token for its whole lifetime (not just during Pool creation),
#: so workers the pool respawns after a crash can still re-initialize
#: from the parent's (copy-on-write-inherited) view of this module.
_WORKER: dict = {}
_SERVICE_TOKENS = itertools.count()

#: Timeout (s) for any single chunk result; a worker that takes longer
#: is considered lost and the error propagates to the caller.
_CHUNK_TIMEOUT = 600.0

#: Hot-key traffic counters are pruned to half this size when they
#: exceed it (coldest keys dropped), so a churning stream of distinct
#: fault sets cannot grow the tracking dict without bound.  A genuinely
#: hot key's count dwarfs the pruned tail, so detection is unaffected.
_HOT_TRACK_LIMIT = 4096


def _worker_init(token: int, cache_capacity: int, metrics: bool = True) -> None:
    """Pool initializer (runs in the forked child)."""
    _WORKER["cache"] = PartitionCache(
        _WORKER[token],
        capacity=cache_capacity,
        obs=MetricsRegistry(enabled=metrics),
    )


def _worker_init_snapshot(
    path: str, cache_capacity: int, metrics: bool = True
) -> None:
    """Pool initializer for snapshot-backed workers (spawn-safe).

    Runs in a fresh interpreter with no inherited state: the worker
    opens the snapshot itself (read-only mmap, so every worker on the
    host shares one page-cache copy of the packed stores) instead of
    receiving the scheme by fork copy-on-write.
    """
    from repro.store import load_snapshot

    _WORKER["cache"] = PartitionCache(
        load_snapshot(path),
        capacity=cache_capacity,
        obs=MetricsRegistry(enabled=metrics),
    )


def _worker_query(pairs, faults, kw):
    """Serve one chunk off the worker's partition cache.

    Returns ``(answers, meta)`` — ``meta`` carries the worker-side
    timing and pid back to the parent so per-request traces can show a
    ``partition`` span without touching the answer objects (the
    answers themselves stay bit-identical to a direct ``query_many``).
    """
    t0 = time.perf_counter()
    answers = _WORKER["cache"].query_many(pairs, faults, **kw)
    return answers, {
        "worker_s": time.perf_counter() - t0,
        "pid": os.getpid(),
    }


def _cache_wire(cache: PartitionCache) -> dict:
    """One shard cache's registry as a wire dump, live entry count set.

    The parent merges these dumps exactly (counters add, the fixed
    bucket family makes histogram merges lossless).
    """
    cache.obs.gauge("cache.entries").set(len(cache))
    return cache.obs.to_wire()


def _worker_registry() -> dict:
    """:func:`_cache_wire` of this pool worker's cache."""
    return _cache_wire(_WORKER["cache"])


def shard_of(key: FaultKey, num_shards: int) -> int:
    """Stable shard index of a canonical fault key.

    Computed in the parent only; ``hash`` of an int tuple is
    deterministic (integer hashing is not salted by ``PYTHONHASHSEED``).
    """
    return hash(key) % num_shards


#: how long :func:`_reap_pool` lets ``Pool.terminate()`` run before it
#: escalates to SIGKILLing the workers directly.
_REAP_GRACE_S = 3.0


def _pool_worker_pids(pool) -> list[int]:
    try:
        return [proc.pid for proc in pool._pool]
    except Exception:  # pragma: no cover - pool mid-teardown
        return []


def _reap_pool(pool, grace: float = _REAP_GRACE_S) -> bool:
    """Tear down a (possibly lock-poisoned) pool, never blocking forever.

    ``Pool.terminate()`` can deadlock after a worker died by SIGKILL:
    an idle worker waits in ``inqueue.get()`` *holding* the task
    queue's reader semaphore (a plain POSIX semaphore — dying does not
    release it), and CPython's ``_help_stuff_finish`` acquires exactly
    that lock.  So terminate runs on a sacrificial daemon thread; if
    it has not finished within ``grace`` seconds the worker processes
    are SIGKILLed directly and the stuck thread is abandoned.  That is
    safe to abandon: the pool's helper threads are daemonic, and
    ``util.Finalize.__call__`` unregisters itself *before* running, so
    a stuck terminate is never re-entered at interpreter exit.

    Returns ``True`` when the pool shut down cleanly within the grace
    periods, ``False`` when it had to be abandoned.
    """
    pids = _pool_worker_pids(pool)
    done = threading.Event()

    def _terminate():
        try:
            pool.terminate()
            pool.join()
        except Exception:  # pragma: no cover - pool already broken
            pass
        finally:
            done.set()

    thread = threading.Thread(target=_terminate, name="pool-reaper", daemon=True)
    thread.start()
    if done.wait(grace):
        return True
    for pid in pids:
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.kill(pid, signal.SIGKILL)
    return done.wait(grace)


def _reap_pool_async(pool, grace: float = _REAP_GRACE_S) -> None:
    """Fire-and-forget :func:`_reap_pool` (for reaps on a live path)."""
    threading.Thread(
        target=_reap_pool, args=(pool, grace), name="pool-reaper-bg", daemon=True
    ).start()


class ShardedQueryService:
    """Fan coalesced fault-set chunks out over per-shard processes.

    ``scheme`` is anything with ``decode_partition`` (see
    :class:`~repro.serving.partition_cache.PartitionCache`); its packed
    store is materialized up front so the fork shares it.  With
    ``num_shards=0`` (or where ``fork`` is unavailable) the service
    runs in-process with one partition cache per logical shard —
    identical answers, useful as a baseline and on exotic platforms.

    Use as a context manager, or call :meth:`close` — worker pools are
    real OS processes.
    """

    def __init__(
        self,
        scheme,
        num_shards: int = 2,
        cache_capacity: int = 128,
        max_chunk: int = 1024,
        mp_context: str = "fork",
        hot_key_share: Optional[float] = 0.5,
        hot_key_min_queries: int = 512,
        snapshot: Optional[str] = None,
        chunk_timeout: float = _CHUNK_TIMEOUT,
        metrics: bool = True,
    ):
        """``hot_key_share`` enables hot-fault-set replication: once a
        single canonical key has taken at least that share of all
        queries (and at least ``hot_key_min_queries`` queries were
        seen), its chunks rotate round-robin over every shard instead
        of going to the hash owner only (``None`` disables).

        ``chunk_timeout`` (seconds) bounds how long :meth:`query_many`
        waits for any single chunk result; a worker that takes longer
        (e.g. it was SIGKILLed with the chunk in flight) is considered
        lost and a ``multiprocessing.TimeoutError`` surfaces to the
        caller — the pool respawns the worker underneath, so later
        chunks are unaffected.  The network server runs with a short
        timeout; the in-process benches keep the 600 s default.

        ``snapshot`` names a :mod:`repro.store` snapshot file of the
        scheme: workers then *open the snapshot themselves* instead of
        inheriting the store by fork copy-on-write, which makes every
        ``mp_context`` viable — ``"spawn"`` included — and lets shards
        span processes that share nothing but the file (see
        :meth:`from_snapshot`).  Without a snapshot, non-fork contexts
        degrade to the in-process local mode (a spawned worker cannot
        inherit the parent's scheme object).

        ``metrics=False`` makes every instrument — parent and worker
        caches — a shared no-op: :meth:`stats` then reads 0."""
        if max_chunk < 1:
            raise ValueError("max_chunk must be >= 1")
        if hot_key_share is not None and not (0.0 < hot_key_share <= 1.0):
            raise ValueError("hot_key_share must be in (0, 1] or None")
        if scheme is None and snapshot is None:
            raise ValueError("need a scheme or a snapshot path")
        self.scheme = scheme  # stays None in snapshot-worker pool mode
        self.snapshot = None if snapshot is None else str(snapshot)
        self.max_chunk = max_chunk
        self.cache_capacity = cache_capacity
        self.hot_key_share = hot_key_share
        self.hot_key_min_queries = hot_key_min_queries
        self.chunk_timeout = chunk_timeout
        self._key_traffic: dict[FaultKey, int] = {}
        self._total_traffic = 0
        self._hot_keys: set[FaultKey] = set()
        self._rr = 0  # round-robin pointer for replicated keys
        #: parent-side metrics (chunk sizes, worker seconds, hot keys,
        #: pool restarts); worker registries are merged in by
        #: :meth:`registry_dump`.
        self.obs = MetricsRegistry(enabled=metrics)
        self.metrics_enabled = metrics
        self._worker_seconds = self.obs.histogram("shard.worker_seconds")
        self._replicated = self.obs.counter("service.replicated_chunks")
        self._hot_gauge = self.obs.gauge("service.hot_keys")
        self._pool_restarts = self.obs.counter("service.pool_restarts")
        self._inflight_lock = threading.Lock()
        self._inflight: list[int] = []
        self._pools: Optional[list] = None
        self._local: Optional[list[PartitionCache]] = None
        self._token: Optional[int] = None
        ctx = None
        if num_shards > 0:
            try:
                ctx = multiprocessing.get_context(mp_context)
            except ValueError:
                ctx = None
            if (
                ctx is not None
                and ctx.get_start_method() != "fork"
                and self.snapshot is None
            ):
                # A spawned worker starts from a fresh interpreter and
                # cannot inherit the parent's scheme object; without a
                # snapshot to open there is nothing to serve from.
                ctx = None
        self._start_method = None if ctx is None else ctx.get_start_method()
        if self.scheme is None and (ctx is None or self._start_method == "fork"):
            # The parent only needs the live scheme when it serves
            # queries itself (local mode) or hands it to workers by
            # fork; snapshot-backed (spawn) pools leave it unloaded —
            # workers open the file themselves and the parent scheme
            # would never serve a chunk.
            from repro.store import load_snapshot

            self.scheme = load_snapshot(self.snapshot)
        elif self.scheme is None:
            # Snapshot-worker pool mode: fail fast on a missing or
            # corrupt file *here*, with the real SnapshotError —
            # otherwise every worker dies in its initializer and the
            # pool respawns it in a silent loop until the chunk timeout.
            from repro.store import read_snapshot

            read_snapshot(self.snapshot, verify=False)
        if self._start_method == "fork":
            # Materialize the packed stores before any fork so workers
            # inherit them instead of each rebuilding their own copy
            # (the distance scheme keeps one store per (scale, cluster)
            # instance; the core.api facades hide theirs behind
            # ``.impl``).  Local mode builds its stores lazily on
            # first use instead.
            self.scheme.decode_partition(())
            inner = getattr(self.scheme, "impl", self.scheme)
            for inst in getattr(inner, "instances", {}).values():
                inst.scheme.decode_partition(())
        if ctx is None:
            self.num_shards = max(1, num_shards)
            self._local = [
                PartitionCache(
                    self.scheme,
                    capacity=cache_capacity,
                    obs=MetricsRegistry(enabled=metrics),
                )
                for _ in range(self.num_shards)
            ]
        else:
            self.num_shards = num_shards
            if self._start_method == "fork":
                # The token-keyed slot stays populated until close():
                # pool worker respawns re-run _worker_init in a fresh
                # fork of the parent and must still find the scheme.
                self._token = next(_SERVICE_TOKENS)
                _WORKER[self._token] = self.scheme
                initializer, initargs = _worker_init, (
                    self._token,
                    cache_capacity,
                    metrics,
                )
            else:
                # Spawn-compatible build/serve split: every worker
                # opens the snapshot itself; the read-only mmap means
                # all workers share one page-cache copy of the stores.
                initializer, initargs = _worker_init_snapshot, (
                    self.snapshot,
                    cache_capacity,
                    metrics,
                )
            self._mp_ctx = ctx
            self._pool_init = (initializer, initargs)
            self._pools = [self._make_pool() for _ in range(num_shards)]
            self._pool_epochs = [0] * num_shards
        #: per-shard chunk sizes: count = chunks, sum = queries
        self._chunk_sizes = [
            self.obs.histogram(f"shard.{i}.chunk_size")
            for i in range(self.num_shards)
        ]
        self._inflight = [0] * self.num_shards

    @classmethod
    def from_snapshot(
        cls, path, num_shards: int = 2, mp_context: str = "spawn", **kw
    ) -> "ShardedQueryService":
        """Serve a saved scheme snapshot (build/serve split, no fork).

        Hands each worker the *path*: workers open the same file
        read-only, so N serving processes share one page-cache copy of
        the packed stores.  The parent itself loads the snapshot only
        if it ends up serving queries (the local fallback) — in pool
        mode ``self.scheme`` stays ``None``.  Defaults to the spawn
        context — the configuration fork-less platforms and multi-host
        deployments use.
        """
        return cls(
            None,
            num_shards=num_shards,
            mp_context=mp_context,
            snapshot=str(path),
            **kw,
        )

    @property
    def mode(self) -> str:
        """``"fork"``/``"spawn"``/... (process pools) or ``"local"``."""
        return self._start_method if self._pools is not None else "local"

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def query(self, s: int, t: int, faults: Iterable[int] = (), **kw):
        return self.query_many([(s, t)], faults, **kw)[0]

    def _shard_for(self, key: FaultKey, chunk_size: int) -> int:
        """Shard of one chunk: hash owner, or round-robin for hot keys.

        Traffic shares are tracked per canonical key (only while the
        feature is enabled, and pruned to :data:`_HOT_TRACK_LIMIT` —
        the coldest keys are dropped, never the hot ones); once a key
        crosses ``hot_key_share`` of all queries it is (stickily)
        marked hot and its chunks rotate over every shard — each
        shard's partition cache builds its own replica, so a single
        pathologically hot fault set stops serializing one worker.
        """
        if self.hot_key_share is None or self.num_shards <= 1:
            return shard_of(key, self.num_shards)
        self._total_traffic += chunk_size
        traffic = self._key_traffic.get(key, 0) + chunk_size
        self._key_traffic[key] = traffic
        if len(self._key_traffic) > _HOT_TRACK_LIMIT:
            keep = sorted(
                self._key_traffic.items(), key=lambda kv: kv[1], reverse=True
            )[: _HOT_TRACK_LIMIT // 2]
            self._key_traffic = dict(keep)
        if (
            key not in self._hot_keys
            and self._total_traffic >= self.hot_key_min_queries
            and traffic >= self.hot_key_share * self._total_traffic
        ):
            self._hot_keys.add(key)
            self._hot_gauge.set(len(self._hot_keys))
        if key in self._hot_keys:
            self._rr = (self._rr + 1) % self.num_shards
            self._replicated.inc()
            return self._rr
        return shard_of(key, self.num_shards)

    def _chunk_started(self, shard: int) -> None:
        with self._inflight_lock:
            self._inflight[shard] += 1

    def _chunk_finished(self, shard: int, meta: Optional[dict]) -> None:
        with self._inflight_lock:
            if self._inflight[shard] > 0:
                self._inflight[shard] -= 1
        if meta is not None:
            self._worker_seconds.observe(meta["worker_s"])

    def queue_depths(self) -> list[int]:
        """Chunks currently in flight, per shard (live queue depth)."""
        with self._inflight_lock:
            return list(self._inflight)

    def query_many(
        self, pairs: Sequence[tuple[int, int]], faults=(), **kw
    ) -> list:
        """Batched queries: coalesce by fault set, shard by its hash.

        Chunks of at most ``max_chunk`` queries per fault set are
        dispatched to ``shard_of(key)``'s worker concurrently (hot keys
        round-robin over all shards — see :meth:`_shard_for`); answers
        return in request order with the scheme's native answer type.
        """
        pairs = list(pairs)
        per = normalize_faults(pairs, faults)
        groups = group_by_canonical_key(per)
        results: list = [None] * len(pairs)
        dispatched = []  # (qis, shard, async_result) in pool mode
        for key, qis in groups.items():
            for lo in range(0, len(qis), self.max_chunk):
                chunk = qis[lo : lo + self.max_chunk]
                shard = self._shard_for(key, len(chunk))
                chunk_pairs = [pairs[qi] for qi in chunk]
                self._chunk_sizes[shard].observe(len(chunk))
                if self._pools is not None:
                    self._chunk_started(shard)
                    handle = self._pools[shard].apply_async(
                        _worker_query, (chunk_pairs, list(key), kw)
                    )
                    dispatched.append((chunk, shard, handle))
                else:
                    answers = self._local[shard].query_many(
                        chunk_pairs, list(key), **kw
                    )
                    for qi, ans in zip(chunk, answers):
                        results[qi] = ans
        for chunk, shard, handle in dispatched:
            try:
                answers, meta = handle.get(timeout=self.chunk_timeout)
            except BaseException:
                self._chunk_finished(shard, None)
                raise
            self._chunk_finished(shard, meta)
            for qi, ans in zip(chunk, answers):
                results[qi] = ans
        return results

    def start_chunk(
        self,
        pairs: Sequence[tuple[int, int]],
        faults: Sequence[int],
        kw: Optional[dict] = None,
        callback: Optional[Callable] = None,
        error_callback: Optional[Callable] = None,
    ) -> int:
        """Dispatch ONE already-coalesced chunk without blocking.

        The asyncio front door (:mod:`repro.server.server`) coalesces
        and chunks requests itself; this is its non-blocking entry
        point.  The chunk is routed like :meth:`query_many` routes it
        (hash owner, or round-robin when the key is hot) and handed to
        the shard's pool via ``apply_async`` — ``callback(answers,
        meta)`` / ``error_callback(exc)`` fire on the pool's
        result-handler thread when the worker finishes (``meta`` is the
        worker-side timing dict of :func:`_worker_query` — the
        ``partition`` span of a request trace).  A SIGKILLed worker never
        completes its chunk, so callers must pair this with their own
        deadline and report the loss via :meth:`restart_shard` (with
        the :meth:`shard_epoch` read at dispatch time), after which
        the next chunk is served by a fresh pool.  In local (no-pool)
        mode the chunk is answered inline and the callback runs before
        returning.

        Returns the shard index the chunk was routed to.
        """
        kw = kw or {}
        key = canonical_fault_key(faults)
        pairs = list(pairs)
        shard = self._shard_for(key, len(pairs))
        self._chunk_sizes[shard].observe(len(pairs))
        if self._pools is not None:
            self._chunk_started(shard)

            def _on_ok(res, _shard=shard, _cb=callback):
                answers, meta = res
                self._chunk_finished(_shard, meta)
                if _cb is not None:
                    _cb(answers, meta)

            def _on_err(exc, _shard=shard, _ecb=error_callback):
                self._chunk_finished(_shard, None)
                if _ecb is not None:
                    _ecb(exc)

            self._pools[shard].apply_async(
                _worker_query,
                (pairs, list(key), kw),
                callback=_on_ok,
                error_callback=_on_err,
            )
            return shard
        t0 = time.perf_counter()
        try:
            answers = self._local[shard].query_many(pairs, list(key), **kw)
        except Exception as exc:  # pragma: no cover - scheme-level failure
            if error_callback is not None:
                error_callback(exc)
                return shard
            raise
        if callback is not None:
            callback(
                answers,
                {"worker_s": time.perf_counter() - t0, "pid": os.getpid()},
            )
        return shard

    def worker_pids(self) -> list[int]:
        """Live worker process ids, one per shard (empty in local mode).

        The chaos tests SIGKILL entries of this list; once the loss is
        detected (:meth:`restart_shard`) the shard gets a whole new
        pool, so calling this again returns the replacements.
        """
        if self._pools is None:
            return []
        return [proc.pid for pool in self._pools for proc in pool._pool]

    def _make_pool(self):
        initializer, initargs = self._pool_init
        return self._mp_ctx.Pool(
            processes=1, initializer=initializer, initargs=initargs
        )

    def shard_epoch(self, shard: int) -> int:
        """Generation counter of a shard's pool (see :meth:`restart_shard`)."""
        return 0 if self._pools is None else self._pool_epochs[shard]

    def restart_shard(self, shard: int, epoch: Optional[int] = None) -> bool:
        """Replace one shard's pool wholesale after a presumed-lost worker.

        ``multiprocessing.Pool`` does respawn a worker that died
        mid-task, but a worker SIGKILLed while *idle* dies holding the
        task queue's reader semaphore and the pool is wedged for good —
        no respawn can read tasks again.  Healing therefore never
        trusts the old pool: the shard gets a brand-new pool (fresh
        queues, fresh locks, initializer re-run) and the old one is
        reaped in the background with SIGKILL escalation.

        ``epoch`` (from :meth:`shard_epoch`, read at dispatch time)
        makes concurrent failure reports idempotent: only the first
        report of a given pool generation restarts it; the rest were
        in flight on the pool that is already being replaced.  Returns
        whether a restart actually happened.
        """
        if self._pools is None:
            return False
        if epoch is not None and epoch != self._pool_epochs[shard]:
            return False
        old = self._pools[shard]
        self._pools[shard] = self._make_pool()
        self._pool_epochs[shard] += 1
        self._pool_restarts.inc()
        with self._inflight_lock:
            # everything in flight on the old pool is lost with it
            self._inflight[shard] = 0
        _reap_pool_async(old)
        return True

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def registry_dump(self) -> dict:
        """The service's metrics as one mergeable wire dict.

        Parent instruments, every shard cache's registry merged exactly
        (pool mode round-trips each worker once — blocking), and the
        per-shard series read off them: ``shard.<i>.queries``, cache
        counters, entries and hit rate, and live queue depth.
        """
        merged = MetricsRegistry(enabled=self.metrics_enabled)
        if not self.metrics_enabled:
            return merged.to_wire()
        if self._pools is not None:
            wires = [pool.apply(_worker_registry) for pool in self._pools]
        else:
            wires = [_cache_wire(cache) for cache in self._local]
        own = self.obs.to_wire()
        merged.merge_wire(own)
        chunks = merged.histogram("shard.chunk_size")
        depths = self.queue_depths()
        entries = 0
        for shard, wire in enumerate(wires):
            sizes = own["histograms"][f"shard.{shard}.chunk_size"]
            chunks.merge_dict(sizes)
            merged.counter(f"shard.{shard}.queries").inc(int(sizes["sum"]))
            merged.gauge(f"shard.{shard}.queue_depth").set(depths[shard])
            counts = wire["counters"]
            hits, misses = counts["cache.hits"], counts["cache.misses"]
            merged.counter(f"shard.{shard}.cache_hits").inc(hits)
            merged.counter(f"shard.{shard}.cache_misses").inc(misses)
            merged.counter(f"shard.{shard}.cache_evictions").inc(
                counts["cache.evictions"]
            )
            live = wire["gauges"]["cache.entries"]
            merged.gauge(f"shard.{shard}.cache_entries").set(live)
            merged.gauge(f"shard.{shard}.cache_hit_rate").set(
                hits / (hits + misses) if hits + misses else 0.0
            )
            entries += live
            merged.merge_wire(wire)
        merged.gauge("cache.entries").set(entries)
        merged.counter("service.queries").inc(int(chunks.total))
        merged.counter("service.chunks").inc(chunks.count)
        return merged.to_wire()

    def stats(self) -> dict:
        """JSON-ready service summary, read off :meth:`registry_dump`."""
        return stats_blocks(
            self.registry_dump(), mode=self.mode, num_shards=self.num_shards
        )["service"]

    def close(self) -> None:
        """Reap the pools (idempotent).

        Each pool gets :func:`_reap_pool`'s bounded shutdown — a clean
        terminate+join normally, SIGKILL escalation when a chaos event
        left the pool's queue locks poisoned — so ``close()`` returns
        in bounded time with every worker process dead either way.
        """
        if self._pools is not None:
            pools, self._pools = self._pools, None
            for pool in pools:
                _reap_pool(pool)
        if self._token is not None:
            _WORKER.pop(self._token, None)
            self._token = None

    def __enter__(self) -> "ShardedQueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass
