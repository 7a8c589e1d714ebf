"""Fault-scenario runner: fail/repair/query scripts over static labels.

A key property of the paper's schemes is that the *preprocessing is
fault-independent*: labels and tables are computed once for the intact
graph, and the fault set is an input at query time.  Repairing an edge
is therefore free — it just leaves the current fault set.  This module
packages that workflow for operational use: track a live fault set,
answer connectivity/distance queries and route messages against it,
and keep an audit log.

Queries are served through per-fault-set partition caches
(:mod:`repro.serving.partition_cache`): a scenario's fault set changes
rarely relative to how often it is queried, which is exactly the
repeated-fault-set workload the caches exist for — the first query
after a ``fail``/``repair`` decodes the new fault set once, every later
query reuses that partition.  Answers are unchanged (the caches are
bit-identical to the direct ``query_many`` path).

Used by tests and as a building block for fault-drill tooling (see
``examples/datacenter_fault_drill.py`` for the manual version).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.api import FaultTolerantConnectivity, FaultTolerantDistance
from repro.graph.graph import Graph
from repro.routing.fault_tolerant import FaultTolerantRouter
from repro.routing.network import RouteResult
from repro.serving.partition_cache import PartitionCache


@dataclass(frozen=True)
class ScenarioRecord:
    """One audit-log entry."""

    op: str
    args: tuple
    result: object


class FaultBudgetExceeded(RuntimeError):
    """Raised when more than ``f`` simultaneous faults are requested."""


@dataclass
class FaultScenario:
    """A live fault set over a statically labeled graph.

    ``strict=True`` (default) refuses to exceed the fault budget ``f``
    the labels were built for — beyond it the w.h.p. guarantees of the
    cycle-space labels no longer hold.
    """

    graph: Graph
    f: int
    k: int = 2
    seed: int = 0
    build_router: bool = True
    strict: bool = True
    _faults: set[int] = field(default_factory=set, init=False)
    _log: list[ScenarioRecord] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        self._conn = FaultTolerantConnectivity(
            self.graph, f=self.f, seed=self.seed
        )
        self._dist = FaultTolerantDistance(
            self.graph, f=self.f, k=self.k, seed=self.seed
        )
        # Partition caches keyed by canonical fault set: the live fault
        # set changes rarely relative to query volume, so the scenario's
        # query traffic is served off one decode per fault state (the
        # cache keeps recent states — a fail/repair/fail-again cycle
        # returns to a warm entry).
        self._conn_cache = PartitionCache(self._conn, capacity=32)
        self._dist_cache = PartitionCache(self._dist, capacity=32)
        self._router: Optional[FaultTolerantRouter] = None
        # Cumulative routing telemetry (Claim 5.6 charging: reversal
        # hops re-walk the forward prefix and are counted separately
        # from forward progress) — surfaced by health_summary.
        self._route_totals = {
            "messages": 0,
            "delivered": 0,
            "hops": 0,
            "weighted": 0.0,
            "reversals": 0,
            "reversal_hops": 0,
            "gamma_queries": 0,
            "decode_calls": 0,
        }
        if self.build_router:
            self._router = FaultTolerantRouter(
                self.graph, f=self.f, k=self.k, seed=self.seed
            )

    # ------------------------------------------------------------------
    # Fault management
    # ------------------------------------------------------------------
    def _edge_index(self, u: int, v: int) -> int:
        ei = self.graph.edge_index_between(u, v)
        if ei is None:
            raise ValueError(f"({u}, {v}) is not an edge")
        return ei

    @property
    def active_faults(self) -> frozenset[int]:
        return frozenset(self._faults)

    def fail(self, u: int, v: int) -> None:
        """Mark the link {u, v} as failed."""
        ei = self._edge_index(u, v)
        if ei not in self._faults and self.strict and len(self._faults) >= self.f:
            raise FaultBudgetExceeded(
                f"fault budget f={self.f} exhausted; repair a link first "
                "or rebuild with a larger f"
            )
        self._faults.add(ei)
        self._log.append(ScenarioRecord("fail", (u, v), None))

    def repair(self, u: int, v: int) -> None:
        """Mark the link {u, v} as repaired (free — labels are static)."""
        ei = self._edge_index(u, v)
        self._faults.discard(ei)
        self._log.append(ScenarioRecord("repair", (u, v), None))

    def repair_all(self) -> None:
        self._faults.clear()
        self._log.append(ScenarioRecord("repair_all", (), None))

    # ------------------------------------------------------------------
    # Queries against the live fault set
    # ------------------------------------------------------------------
    def connected(self, s: int, t: int) -> bool:
        """Is ``s`` connected to ``t`` under the live fault set? (w.h.p.)

        Served off the cached fault-set partition: the first query after
        a fault change decodes once, later queries are O(log f) lookups.
        """
        result = self._conn_cache.query(s, t, self._faults)
        self._log.append(ScenarioRecord("connected", (s, t), result))
        return result

    def connected_many(self, pairs: Sequence[tuple[int, int]]) -> list[bool]:
        """Batched :meth:`connected` against the live fault set.

        One audit-log entry per batch; answers come off the cached
        fault-set partition (bit-identical to the labels' batched
        decoder ``query_many``), which is how replay tooling should
        drive bulk probe sweeps.
        """
        pairs = list(pairs)
        results = self._conn_cache.query_many(pairs, self._faults)
        self._log.append(
            ScenarioRecord("connected_many", tuple(pairs), tuple(results))
        )
        return results

    def distance(self, s: int, t: int) -> float:
        """Approximate ``G \\ F`` distance under the live fault set.

        Cached like :meth:`connected`: per-instance connectivity
        partitions are decoded once per fault state and reused.
        """
        result = self._dist_cache.query(s, t, self._faults)
        self._log.append(ScenarioRecord("distance", (s, t), result))
        return result

    def distance_many(self, pairs: Sequence[tuple[int, int]]) -> list[float]:
        """Batched :meth:`distance` against the live fault set."""
        pairs = list(pairs)
        results = self._dist_cache.query_many(pairs, self._faults)
        self._log.append(
            ScenarioRecord("distance_many", tuple(pairs), tuple(results))
        )
        return results

    def _tally_route(self, result: RouteResult) -> None:
        tot = self._route_totals
        tel = result.telemetry
        tot["messages"] += 1
        tot["delivered"] += int(result.delivered)
        tot["hops"] += tel.hops
        tot["weighted"] += tel.weighted
        tot["reversals"] += tel.reversals
        tot["reversal_hops"] += tel.reversal_hops
        tot["gamma_queries"] += tel.gamma_queries
        tot["decode_calls"] += tel.decode_calls

    def route(self, s: int, t: int) -> RouteResult:
        """Route one message under the live fault set (packed engine)."""
        if self._router is None:
            raise RuntimeError("scenario built with build_router=False")
        result = self._router.route(s, t, self._faults)
        self._tally_route(result)
        self._log.append(
            ScenarioRecord("route", (s, t), (result.delivered, result.length))
        )
        return result

    def route_many(self, pairs: Sequence[tuple[int, int]]) -> list[RouteResult]:
        """Batched :meth:`route` against the live fault set.

        All messages advance together through the packed multi-message
        stepper (one audit-log entry per batch); per-message results
        are bit-identical to looping :meth:`route`.
        """
        if self._router is None:
            raise RuntimeError("scenario built with build_router=False")
        pairs = list(pairs)
        results = self._router.route_many(pairs, list(self._faults))
        for result in results:
            self._tally_route(result)
        self._log.append(
            ScenarioRecord(
                "route_many",
                tuple(pairs),
                tuple((r.delivered, r.length) for r in results),
            )
        )
        return results

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def log(self) -> tuple[ScenarioRecord, ...]:
        return tuple(self._log)

    def health_summary(self, landmarks: list[int]) -> dict:
        """Pairwise landmark connectivity under the live faults.

        All landmark pairs are answered off one cached fault-set
        partition — the serving-layer shape this probe sweep exists
        for: repeated health checks against an unchanged fault set are
        pure cache hits.  The returned dict includes the connectivity
        cache's counters so monitoring can watch the hit rate.
        """
        all_pairs = [
            (u, v)
            for i, u in enumerate(landmarks)
            for v in landmarks[i + 1 :]
        ]
        verdicts = self._conn_cache.query_many(all_pairs, self._faults)
        reachable = sum(verdicts)
        pairs = len(all_pairs)
        summary = {
            "faults": len(self._faults),
            "landmark_pairs": pairs,
            "reachable_pairs": reachable,
            "partitioned": reachable < pairs,
            "partition_cache": self._conn_cache.snapshot(),
        }
        if self._router is not None:
            tot = dict(self._route_totals)
            hops = tot["hops"]
            # Reversal share of the walked hops: how much of the route
            # cost is Claim 5.6 trial-and-error backtrack (identical
            # charging in both engines).
            tot["reversal_hop_share"] = (
                round(tot["reversal_hops"] / hops, 4) if hops else 0.0
            )
            tot["weighted"] = round(tot["weighted"], 4)
            summary["routing"] = tot
        return summary
