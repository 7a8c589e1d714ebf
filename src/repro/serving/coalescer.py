"""Request coalescing: single ``(s, t, F)`` queries into batched chunks.

Interactive callers issue one query at a time, but the decode engine is
at its best on batches sharing a fault set (one partition decode, many
locates).  The coalescer bridges the two shapes:

* :class:`QueryCoalescer` — synchronous: ``submit`` buffers a query
  under its canonical fault key and returns a :class:`Ticket`; a group
  is dispatched through the backend's ``query_many`` the moment it
  reaches ``max_chunk`` queries, when it has been pending longer than
  ``max_delay`` (checked on every submit), or on ``flush()``.
* :class:`AsyncQueryCoalescer` — the asyncio front-end: ``await
  query(s, t, F)`` parks the caller on a future; a per-group timer
  (``max_delay`` seconds) or the ``max_chunk`` size bound triggers the
  dispatch, so concurrent tasks querying the same fault set are served
  by one batched decode.

The backend is any ``callable(pairs, faults) -> answers`` with
``query_many`` semantics — a scheme, a
:class:`~repro.serving.partition_cache.PartitionCache`, or a
:class:`~repro.serving.shards.ShardedQueryService`.  Dispatch order
never changes answers (each chunk shares one canonical fault list), and
every ticket/future receives exactly the answer the backend produced
for its position — asserted by ``tests/test_serving.py``.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.obs import Histogram
from repro.serving.partition_cache import FaultKey, canonical_fault_key

Backend = Callable[[Sequence[tuple[int, int]], list[int]], list]

_PENDING = object()


class Ticket:
    """Handle for one submitted query; filled when its chunk dispatches."""

    __slots__ = ("_value",)

    def __init__(self):
        self._value = _PENDING

    @property
    def done(self) -> bool:
        return self._value is not _PENDING

    def result(self):
        """The backend's answer; raises if the chunk was not dispatched
        yet (call ``flush()`` on the coalescer first)."""
        if self._value is _PENDING:
            raise RuntimeError("query not dispatched yet — flush() the coalescer")
        return self._value

    def _fill(self, value) -> None:
        self._value = value


@dataclass
class _Group:
    """Pending queries of one canonical fault set.

    ``traces`` holds one ``(trace, enqueue_perf_counter)`` entry per
    pair **when any waiter is traced** (``None`` entries for untraced
    waiters keep the lists index-aligned); it stays empty otherwise so
    the untraced hot path allocates nothing extra.
    """

    pairs: list = field(default_factory=list)
    tickets: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    born: float = 0.0


class QueryCoalescer:
    """Synchronous coalescer: buffer singles, dispatch fault-set chunks.

    ``max_chunk`` bounds chunk size (a full group dispatches
    immediately); ``max_delay`` (seconds, optional) bounds how long a
    group may sit pending — it is checked against ``clock()`` on every
    ``submit``, which is the natural beat of a synchronous ingest loop.
    ``clock`` is injectable for deterministic tests.
    """

    def __init__(
        self,
        backend: Backend,
        max_chunk: int = 512,
        max_delay: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_chunk < 1:
            raise ValueError("max_chunk must be >= 1")
        self.backend = backend
        self.max_chunk = max_chunk
        self.max_delay = max_delay
        self.clock = clock
        #: dispatched chunk sizes: count = chunks, sum = queries,
        #: max = largest chunk.
        self.chunk_sizes = Histogram("chunk_size")
        self._groups: "OrderedDict[FaultKey, _Group]" = OrderedDict()

    @property
    def pending(self) -> int:
        """Number of buffered, not yet dispatched queries."""
        return sum(len(g.pairs) for g in self._groups.values())

    def submit(self, s: int, t: int, faults: Iterable[int] = ()) -> Ticket:
        """Buffer one query; returns its :class:`Ticket`.

        Dispatches the query's group when it reaches ``max_chunk``, and
        any group older than ``max_delay``.
        """
        key = canonical_fault_key(faults)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _Group(born=self.clock())
        ticket = Ticket()
        group.pairs.append((s, t))
        group.tickets.append(ticket)
        if len(group.pairs) >= self.max_chunk:
            del self._groups[key]
            self._dispatch(key, group)
        if self.max_delay is not None:
            self._flush_expired()
        return ticket

    def flush(self) -> int:
        """Dispatch every pending group; returns the query count served."""
        served = 0
        while self._groups:
            key, group = self._groups.popitem(last=False)
            served += len(group.pairs)
            self._dispatch(key, group)
        return served

    def run(self, queries: Iterable[tuple[int, int, Iterable[int]]]) -> list:
        """Convenience pipeline: submit all, flush, return answers in
        submission order."""
        tickets = [self.submit(s, t, F) for s, t, F in queries]
        self.flush()
        return [tk.result() for tk in tickets]

    def _flush_expired(self) -> None:
        now = self.clock()
        while self._groups:
            key, group = next(iter(self._groups.items()))
            if now - group.born < self.max_delay:
                break  # groups are in insertion order: the rest is younger
            del self._groups[key]
            self._dispatch(key, group)

    def _dispatch(self, key: FaultKey, group: _Group) -> None:
        answers = self.backend(group.pairs, list(key))
        if len(answers) != len(group.tickets):  # pragma: no cover - tripwire
            raise RuntimeError("backend returned a short answer batch")
        self.chunk_sizes.observe(len(group.pairs))
        for ticket, ans in zip(group.tickets, answers):
            ticket._fill(ans)


class AsyncQueryCoalescer:
    """Asyncio front-end: ``await query(...)``, batched under the hood.

    Each canonical fault set gets a pending group with a
    ``loop.call_later(max_delay, ...)`` flush timer; hitting
    ``max_chunk`` dispatches immediately and cancels the timer.

    The backend may be a plain callable (runs inline on the event loop
    — partition-cache decodes are fast numpy work) **or** a coroutine
    function; an async backend is awaited in its own dispatch task, so
    slow fan-outs (the sharded server) never block the loop, and
    :meth:`aclose` drains those tasks.

    Cancellation is first-class: a waiter cancelled while its group is
    still pending (a disconnected client) is *scrubbed* from the group
    — its pair is removed, the remaining tickets keep their answers
    aligned, and a group whose every waiter vanished is dropped without
    ever touching the backend.  A waiter cancelled after dispatch
    simply ignores its answer; the rest of the chunk is unaffected
    (regression-tested by ``tests/test_serving.py``).
    """

    def __init__(
        self,
        backend: Backend,
        max_chunk: int = 512,
        max_delay: float = 0.002,
    ):
        if max_chunk < 1:
            raise ValueError("max_chunk must be >= 1")
        self.backend = backend
        self._backend_is_async = asyncio.iscoroutinefunction(backend)
        self.max_chunk = max_chunk
        self.max_delay = max_delay
        #: sizes of the chunks answered (see :class:`QueryCoalescer`).
        self.chunk_sizes = Histogram("chunk_size")
        self._groups: dict[FaultKey, _Group] = {}
        self._timers: dict[FaultKey, asyncio.TimerHandle] = {}
        self._inflight: set = set()  # async-backend dispatch tasks

    @property
    def pending(self) -> int:
        return sum(len(g.pairs) for g in self._groups.values())

    async def query(
        self, s: int, t: int, faults: Iterable[int] = (), trace=None
    ):
        """One query; resolves when its chunk is dispatched.

        ``trace`` (a :class:`repro.obs.Trace`) makes the waiter record
        a ``coalesce`` span (enqueue -> dispatch) and a ``shard`` span
        (backend duration) on its timeline; answers are identical with
        or without it.
        """
        loop = asyncio.get_running_loop()
        key = canonical_fault_key(faults)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _Group()
            self._timers[key] = loop.call_later(
                self.max_delay, self._dispatch_key, key
            )
        future = loop.create_future()
        group.pairs.append((s, t))
        group.tickets.append(future)
        if trace is not None or group.traces:
            # lazily backfill: the traces list only materializes once a
            # traced waiter joins, then stays index-aligned with pairs.
            while len(group.traces) < len(group.pairs) - 1:
                group.traces.append(None)
            group.traces.append(
                None if trace is None else (trace, time.perf_counter())
            )
        if len(group.pairs) >= self.max_chunk:
            self._dispatch_key(key)
        try:
            return await future
        except asyncio.CancelledError:
            self._scrub(key, future)
            raise

    def _scrub(self, key: FaultKey, future) -> None:
        """Remove a cancelled waiter from its still-pending group.

        Pair and ticket are removed at the same index, so the group's
        surviving tickets stay aligned with the backend's answer list;
        an emptied group is dropped (timer cancelled) without invoking
        the backend at all.  If the group already dispatched, there is
        nothing to scrub — the cancelled future just drops its answer.
        """
        group = self._groups.get(key)
        if group is None:
            return
        try:
            idx = group.tickets.index(future)
        except ValueError:  # pragma: no cover - future of a dispatched group
            return
        del group.tickets[idx]
        del group.pairs[idx]
        if group.traces:
            del group.traces[idx]
        if not group.pairs:
            del self._groups[key]
            timer = self._timers.pop(key, None)
            if timer is not None:
                timer.cancel()

    async def flush(self) -> int:
        """Dispatch everything pending; returns the query count served."""
        served = self.pending
        for key in list(self._groups):
            self._dispatch_key(key)
        return served

    async def aclose(self) -> None:
        """Flush pending work, cancel all timers, drain dispatch tasks."""
        await self.flush()
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    @staticmethod
    def _settle(group: _Group, answers, exc) -> bool:
        """Fill every still-waiting ticket of a dispatched group."""
        if exc is not None:
            for future in group.tickets:
                if not future.done():
                    future.set_exception(exc)
            return False
        for future, ans in zip(group.tickets, answers):
            if not future.done():
                future.set_result(ans)
        return True

    @staticmethod
    def _trace_coalesce(group: _Group, t_disp: float) -> None:
        """``coalesce`` span (enqueue -> dispatch) for traced waiters."""
        for entry in group.traces:
            if entry is not None:
                trace, t_enq = entry
                trace.add_span("coalesce", t_enq, t_disp - t_enq)

    @staticmethod
    def _trace_shard(group: _Group, t_disp: float, dur: float) -> None:
        """``shard`` span (backend duration) for traced waiters."""
        for entry in group.traces:
            if entry is not None:
                entry[0].add_span("shard", t_disp, dur)

    async def _dispatch_async(self, group: _Group, key: FaultKey) -> None:
        """Await an async backend for one group (own task: a cancelled
        waiter never cancels the batch)."""
        t_disp = time.perf_counter()
        if group.traces:
            self._trace_coalesce(group, t_disp)
        try:
            answers = await self.backend(group.pairs, list(key))
        except asyncio.CancelledError:  # loop teardown: fail the waiters
            self._settle(group, None, ConnectionError("dispatch cancelled"))
            raise
        except Exception as exc:
            self._settle(group, None, exc)
            return
        if group.traces:
            self._trace_shard(group, t_disp, time.perf_counter() - t_disp)
        if self._settle(group, answers, None):
            self.chunk_sizes.observe(len(group.pairs))

    def _dispatch_key(self, key: FaultKey) -> None:
        group = self._groups.pop(key, None)
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        if group is None or not group.pairs:
            return
        if self._backend_is_async:
            task = asyncio.get_running_loop().create_task(
                self._dispatch_async(group, key)
            )
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)
            return
        t_disp = time.perf_counter()
        if group.traces:
            self._trace_coalesce(group, t_disp)
        try:
            answers = self.backend(group.pairs, list(key))
        except Exception as exc:  # propagate to every waiter
            self._settle(group, None, exc)
            return
        if group.traces:
            self._trace_shard(group, t_disp, time.perf_counter() - t_disp)
        if self._settle(group, answers, None):
            self.chunk_sizes.observe(len(group.pairs))
