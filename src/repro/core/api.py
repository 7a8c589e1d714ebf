"""High-level facade over the labeling schemes.

Most users want four operations — "label my graph", "are s and t still
connected under these faults?", "how far apart are they?", "deliver a
message around faults" — without choosing between the Section 3
constructions or the execution engines.  The facades here pick sensible
defaults and expose the full pipeline (labels in, answers out);
:class:`FaultTolerantRouting` fronts the Section 5 routing plane (the
heavy machinery lives in :mod:`repro.routing`, which depends on the
network simulator).
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from repro.core._batch import normalize_faults
from repro.core.cycle_space_scheme import CycleSpaceConnectivityScheme
from repro.core.distance_labels import DistanceLabelScheme
from repro.core.sketch_scheme import SketchConnectivityScheme
from repro.graph.graph import Graph


class _SnapshotMixin:
    """``save()``/``load()`` on every facade (the build/serve split).

    ``save(path)`` persists the facade — packed label stores, scheme
    parameters, seeds — as one :mod:`repro.store` snapshot file;
    ``Facade.load(path)`` restores it with the big arrays memory-mapped
    read-only, answering every query bit-identically to the saved
    instance.  ``load`` type-checks the artifact, so a distance
    snapshot cannot silently serve as a connectivity facade.
    """

    def save(self, path) -> "str":
        """Persist this facade to ``path`` (a repro.store snapshot)."""
        from repro.store import save_snapshot

        return str(save_snapshot(path, self))

    @classmethod
    def load(cls, path, mmap: bool = True):
        """Restore a facade saved with :meth:`save` (mmap-backed)."""
        from repro.store import SnapshotError, load_snapshot

        obj = load_snapshot(path, mmap=mmap)
        if not isinstance(obj, cls):
            raise SnapshotError(
                f"{path} holds a {type(obj).__name__}, not a {cls.__name__}"
            )
        return obj


class ConnectivityPartitionView:
    """Boolean view over a scheme-level fault-set partition.

    Output of :meth:`FaultTolerantConnectivity.decode_partition`: the
    facade's answer type is ``bool``, so this wraps the underlying
    scheme partition (:class:`~repro.core.sketch_scheme.FaultSetPartition`
    or :class:`~repro.core.cycle_space_scheme.PreparedFaultSet`) and
    exposes only connectivity verdicts.  Answers equal
    :meth:`FaultTolerantConnectivity.query_many` on the same fault set.
    """

    __slots__ = ("impl",)

    def __init__(self, impl):
        self.impl = impl

    @property
    def faults(self) -> tuple:
        return self.impl.faults

    def connected(self, s: int, t: int) -> bool:
        """Is ``s`` connected to ``t`` under this partition's faults?"""
        return self.impl.connected(s, t)

    answer = connected

    def answer_many(
        self, pairs: Sequence[tuple[int, int]], want_path: bool = False
    ) -> list[bool]:
        """Batched :meth:`connected` (the facade's ``query_many`` shape).

        ``want_path`` is accepted, so callers that serve any
        connectivity partition (the network server forwards it on every
        CONNECTIVITY request) need not know this one's type, and
        ignored: a boolean verdict carries no path.
        """
        impl = self.impl
        return [impl.connected(s, t) for s, t in pairs]


class FaultTolerantConnectivity(_SnapshotMixin):
    """f-FT connectivity labels for a graph (Theorem 1.3).

    ``scheme`` selects the construction:

    * ``"cycle_space"`` — O(f + log n)-bit labels (Section 3.1), the
      right choice for small fault bounds;
    * ``"sketch"`` — O(log^3 n)-bit labels independent of f
      (Section 3.2), also able to report a succinct s-t path;
    * ``"auto"`` — cycle-space while ``f <= log^2 n`` (where its labels
      are smaller), sketches beyond, mirroring the
      ``O(min{f + log n, log^3 n})`` statement of Theorem 1.3.
    """

    def __init__(
        self,
        graph: Graph,
        f: int,
        scheme: str = "auto",
        seed: int = 0,
        units: Optional[int] = None,
    ):
        if scheme == "auto":
            log_n = max(1, math.ceil(math.log2(max(graph.n, 2))))
            scheme = "cycle_space" if f <= log_n * log_n else "sketch"
        self.scheme_name = scheme
        self.graph = graph
        self.f = f
        if scheme == "cycle_space":
            self._impl = CycleSpaceConnectivityScheme(graph, f, seed=seed)
        elif scheme == "sketch":
            self._impl = SketchConnectivityScheme(graph, seed=seed, units=units)
        else:
            raise ValueError(f"unknown scheme {scheme!r}")

    @property
    def impl(self):
        """The underlying scheme object (for scheme-specific features)."""
        return self._impl

    def vertex_label(self, v: int):
        """The wire-format label assigned to vertex ``v`` (Eq. 3 for the
        sketch scheme; component + ancestry for cycle-space)."""
        return self._impl.vertex_label(v)

    def edge_label(self, edge_index: int):
        """The wire-format label of edge ``edge_index`` (EID + subtree
        sketches for sketch tree edges; ``(phi, ancestry, tree-bit)``
        for cycle-space, Theorem 3.6)."""
        return self._impl.edge_label(edge_index)

    def connected(self, s: int, t: int, faults: Iterable[int]) -> bool:
        """Is ``s`` connected to ``t`` in ``G \\ faults``? (w.h.p.)

        ``faults`` is an iterable of edge indices; answers come from the
        labels alone (Theorem 1.3), served through the batched decoder
        with batch size 1.  Raises ``ValueError`` on the cycle-space
        scheme when ``len(faults)`` exceeds the fault budget ``f``.
        """
        return self.query_many([(s, t)], list(faults))[0]

    def query_many(
        self, pairs: Sequence[tuple[int, int]], faults=()
    ) -> list[bool]:
        """Batched :meth:`connected` over many (s, t) pairs.

        ``faults`` is one shared iterable of edge indices, or a per-pair
        sequence of fault iterables.  Runs through the underlying
        scheme's packed-store batch decoder (``query_many``); answers
        equal looping :meth:`connected`.
        """
        if self.scheme_name == "cycle_space":
            # Normalize once for the per-pair budget check; the scheme's
            # own normalization of the same list is a no-op-shaped copy.
            # The budget counts *distinct* faults, matching
            # :meth:`decode_partition` (duplicates are not new faults).
            per = normalize_faults(pairs, faults)
            for F in per:
                if len(set(F)) > self.f:
                    raise ValueError(
                        f"fault set of size {len(set(F))} exceeds the "
                        f"bound f={self.f}"
                    )
            return self._impl.query_many(pairs, per)
        # Sketch path: hand the caller's faults straight through — the
        # scheme normalizes exactly once (shared sets stay aliased).
        return [
            r.connected
            for r in self._impl.query_many(pairs, faults, want_path=False)
        ]

    def decode_partition(self, faults: Iterable[int]) -> ConnectivityPartitionView:
        """Decode the fault set once; answer every (s, t) pair from it.

        Returns a :class:`ConnectivityPartitionView` whose
        ``connected(s, t)`` verdicts equal :meth:`query_many` under the
        same ``faults`` — the partition (sketch: the Claim 3.16 Boruvka
        component structure; cycle-space: the prepared Lemma 3.5
        columns) is a pure function of the fault set, which is what the
        serving layer's partition cache (:mod:`repro.serving`) exploits.
        The fault-budget check applies to the deduplicated set.
        """
        F = [int(ei) for ei in faults]
        if self.scheme_name == "cycle_space" and len(set(F)) > self.f:
            raise ValueError(
                f"fault set of size {len(set(F))} exceeds the bound "
                f"f={self.f}"
            )
        return ConnectivityPartitionView(self._impl.decode_partition(F))

    def max_vertex_label_bits(self) -> int:
        """Length of the longest vertex label, in bits (Theorem 1.3)."""
        return self._impl.max_vertex_label_bits()

    def max_edge_label_bits(self) -> int:
        """Length of the longest edge label, in bits (Theorem 1.3)."""
        return self._impl.max_edge_label_bits()


class FaultTolerantDistance(_SnapshotMixin):
    """f-FT approximate distance labels (Theorem 1.4).

    ``estimate(s, t, F)`` returns a value within
    ``[dist, (8k-2)(|F|+1) dist]`` of the true ``G \\ F`` distance,
    w.h.p.; ``math.inf`` indicates disconnection.
    """

    def __init__(
        self,
        graph: Graph,
        f: int,
        k: int,
        seed: int = 0,
        base_scheme: str = "cycle_space",
        units: Optional[int] = None,
    ):
        self.graph = graph
        self.f = f
        self.k = k
        self._impl = DistanceLabelScheme(
            graph, f, k, seed=seed, base_scheme=base_scheme, units=units
        )

    @property
    def impl(self) -> DistanceLabelScheme:
        """The underlying :class:`DistanceLabelScheme`."""
        return self._impl

    def vertex_label(self, v: int):
        """The distance label of ``v``: one connectivity label per
        covering cluster plus the per-scale home indices ``i*(v)``
        (Section 4)."""
        return self._impl.vertex_label(v)

    def edge_label(self, edge_index: int):
        """The distance label of an edge: connectivity labels of every
        cluster instance containing it."""
        return self._impl.edge_label(edge_index)

    def estimate(self, s: int, t: int, faults: Iterable[int]) -> float:
        """Approximate ``dist(s, t; G \\ faults)`` from labels only.

        Returns the first connected scale's ``(4k+3)(|F|+1) 2^i``
        estimate (Section 4 decoding; within :meth:`stretch_bound` of
        the true distance w.h.p.), or ``math.inf`` when every scale
        reports disconnection.
        """
        return self._impl.query(s, t, faults)

    def query_many(
        self, pairs: Sequence[tuple[int, int]], faults=()
    ) -> list[float]:
        """Batched :meth:`estimate` over many (s, t) pairs.

        ``faults`` is one shared iterable of edge indices, or a per-pair
        sequence of fault iterables; answers equal looping
        :meth:`estimate`, served through the batched scale scan of
        :meth:`DistanceLabelScheme.query_many`.
        """
        return self._impl.query_many(pairs, faults)

    def decode_partition(self, faults: Iterable[int]):
        """Decode the fault set once; estimate every (s, t) pair from it.

        Returns a :class:`~repro.core.distance_labels.DistancePartition`
        whose ``answer(s, t)`` estimates equal :meth:`query_many` under
        the same ``faults`` (per-instance connectivity partitions are
        built lazily and reused across the query stream).
        """
        return self._impl.decode_partition([int(ei) for ei in faults])

    def stretch_bound(self, num_faults: int) -> float:
        """The worst-case estimate/distance ratio for ``num_faults``
        faults: ``(8k+6)(|F|+1)`` with this construction's cover
        constant (paper: ``(8k-2)(|F|+1)``, Theorem 1.4)."""
        return self._impl.stretch_bound(num_faults)

    def max_vertex_label_bits(self) -> int:
        """Length of the longest vertex label, in bits (Theorem 1.4)."""
        return self._impl.max_vertex_label_bits()


class FaultTolerantRouting(_SnapshotMixin):
    """f-FT compact routing (Theorems 5.5 / 5.8).

    Builds the routing-augmented label stack once and routes any
    message stream under any hidden fault set.  ``table_mode`` selects
    the Theorem 5.5 (``"simple"``) or Theorem 5.8 (``"balanced"``,
    default) table layout; ``engine`` the packed batched plane
    (default) or the retained seed scalar engine — bit-identical route
    traces either way.
    """

    def __init__(
        self,
        graph: Graph,
        f: int,
        k: int = 2,
        seed: int = 0,
        table_mode: str = "balanced",
        engine: str = "packed",
    ):
        from repro.routing.fault_tolerant import FaultTolerantRouter

        self.graph = graph
        self.f = f
        self.k = k
        self._impl = FaultTolerantRouter(
            graph, f=f, k=k, seed=seed, table_mode=table_mode, engine=engine
        )

    @property
    def impl(self):
        """The underlying :class:`~repro.routing.fault_tolerant.FaultTolerantRouter`."""
        return self._impl

    def route(self, s: int, t: int, faults: Iterable[int] = ()):
        """Deliver one message from ``s`` to ``t`` under hidden faults.

        Returns a :class:`~repro.routing.network.RouteResult` with the
        delivery status, the full hop trace and the telemetry meters.
        """
        return self._impl.route(s, t, list(faults))

    def route_many(self, requests: Sequence[tuple[int, int]], faults=()):
        """Batched :meth:`route`: all messages advance together through
        the packed multi-message stepper (``faults`` is one shared
        iterable of edge indices or a per-message sequence)."""
        return self._impl.route_many(requests, faults)

    def stretch_bound(self, num_faults: int) -> float:
        """The Theorem 5.5/5.8 route-length guarantee for ``num_faults``
        faults, with this construction's cover constant."""
        return self._impl.stretch_bound(num_faults)

    def max_table_bits(self) -> int:
        """Largest per-vertex routing table, in bits (Eq. 9)."""
        return self._impl.max_table_bits()

    def max_label_bits(self) -> int:
        """Largest routing label ``L_route(v)``, in bits (Eq. 8)."""
        return self._impl.max_label_bits()
