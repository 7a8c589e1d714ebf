"""Seeded inputs of every workload.

The graph and the label seeds are fixed per workload size: they are the
system under test, and keeping them fixed means every ``--seed``
measures the same system.  The request streams — fault sets, vertex
pairs and routed messages — are a pure function of ``--seed``, so two
runs of one seed send byte-identical requests and two seeds send
different ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.graph import generators
from repro.graph.graph import Graph


def stream(seed: int, name: str) -> random.Random:
    """An independent, reproducible random stream per (seed, purpose)."""
    return random.Random(f"perfbench:{seed}:{name}")


#: seed of every workload graph
GRAPH_SEED = 1
#: label seeds of the two snapshot generations (v1, v2) of one graph
LABEL_SEEDS = (7, 8)


def graph(n: int) -> Graph:
    """The ``cli --family random`` graph: a random tree plus 1.5n edges."""
    return generators.random_connected_graph(
        n, extra_edges=int(1.5 * n), seed=GRAPH_SEED
    )


def fault_set(rng: random.Random, g: Graph, size: int, cut: bool) -> list[int]:
    """``size`` distinct edge indices.

    A *cut* set fails every edge of one vertex of degree <= ``size``
    (padded with random edges), so the workload also asks about pairs
    that really are disconnected; otherwise the edges are uniform.
    """
    faults: list[int] = []
    if cut:
        while True:
            v = rng.randrange(g.n)
            incident = sorted({ei for _, ei in g.incident(v)})
            if len(incident) <= size:
                faults.extend(incident)
                break
    while len(faults) < size:
        ei = rng.randrange(g.m)
        if ei not in faults:
            faults.append(ei)
    return faults


def cut_vertex(g: Graph, faults: list[int]) -> int:
    """A vertex whose every edge is in ``faults`` (-1 if none)."""
    fs = set(faults)
    for ei in faults:
        for v in g.edge(ei).endpoints():
            if all(e in fs for _, e in g.incident(v)):
                return v
    return -1


def pairs(rng: random.Random, g: Graph, count: int, faults: list[int]):
    """``count`` vertex pairs; under a cut fault set the first pair asks
    about the isolated vertex."""
    out = [(rng.randrange(g.n), rng.randrange(g.n)) for _ in range(count)]
    v = cut_vertex(g, faults)
    if v >= 0:
        out[0] = (v, out[0][1])
    return out


@dataclass(frozen=True)
class Request:
    """One connectivity request: pairs under one fault set."""

    pairs: tuple
    faults: tuple
