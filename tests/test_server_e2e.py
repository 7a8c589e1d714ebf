"""End-to-end server equivalence: the socket changes nothing.

The acceptance bar of the network tier: every answer that crosses the
wire — connectivity (succinct paths included), distance estimates,
route results (trace + full telemetry) — compares equal (``==``) to
the in-process ``query_many`` / ``route_many`` answer, across the five
generator families, for both a fresh-built backend object and a
snapshot-restored one.

Plus the hot-reload contract: publishing a new snapshot under a live
client stream loses zero requests, flips answers atomically at the
swap, and releases the old snapshot's mmap.
"""

from __future__ import annotations

import asyncio
import random
from pathlib import Path

import pytest

from repro.core.api import FaultTolerantConnectivity, FaultTolerantDistance
from repro.core.sketch_scheme import SketchConnectivityScheme
from repro.graph import generators
from repro.oracles.connectivity import ConnectivityOracle
from repro.routing.fault_tolerant import FaultTolerantRouter
from repro.server import AsyncQueryClient, ErrorCode, QueryClient, ServerError
from repro.store import save_snapshot
from repro.store.format import write_snapshot
from tests.server_util import ServerThread

FAMILIES = [
    ("random", lambda: generators.random_connected_graph(72, extra_edges=100, seed=21)),
    ("grid", lambda: generators.grid_graph(8, 8)),
    ("ring_of_cliques", lambda: generators.ring_of_cliques(8, 5)),
    (
        "weighted",
        lambda: generators.with_random_weights(
            generators.random_connected_graph(64, extra_edges=90, seed=22), 1, 8, seed=23
        ),
    ),
    ("path", lambda: generators.grid_graph(1, 96)),
]

_GRAPHS = {}


def _graph(name):
    if name not in _GRAPHS:
        _GRAPHS[name] = dict(FAMILIES)[name]()
    return _GRAPHS[name]


def _stream(graph, count, seed):
    rnd = random.Random(seed)
    pairs = [tuple(rnd.sample(range(graph.n), 2)) for _ in range(count)]
    faults = sorted(set(rnd.sample(range(graph.m), min(3, graph.m))))
    return pairs, faults


@pytest.mark.network
@pytest.mark.parametrize("family", [f[0] for f in FAMILIES])
def test_connectivity_bit_identical_object_and_snapshot(family, tmp_path):
    graph = _graph(family)
    scheme = SketchConnectivityScheme(graph, seed=31)
    pairs, faults = _stream(graph, 16, seed=32)
    expected = scheme.query_many(pairs, faults)
    expected_bare = scheme.query_many(pairs, faults, want_path=False)

    snap = str(tmp_path / "scheme.snap")
    save_snapshot(snap, scheme)

    # Fresh-built backend object, then the snapshot restored from disk.
    for backend_kw in ({"backend": scheme}, {"snapshot": snap}):
        with ServerThread(
            backend_kw.pop("backend", None), **backend_kw
        ) as harness:
            with QueryClient("127.0.0.1", harness.port, timeout=60) as client:
                got = client.connectivity(pairs, faults)
                assert got == expected  # paths, phases — everything
                bare = client.connectivity(pairs, faults, want_path=False)
                assert bare == expected_bare
                # singles ride the coalescer path; same equality
                singles = [
                    client.connectivity([p], faults)[0] for p in pairs[:4]
                ]
                assert singles == expected[:4]


@pytest.mark.network
@pytest.mark.parametrize("family", [f[0] for f in FAMILIES])
def test_distance_bit_identical_object_and_snapshot(family, tmp_path):
    graph = _graph(family)
    dist = FaultTolerantDistance(graph, f=2, k=2, seed=33)
    pairs, faults = _stream(graph, 12, seed=34)
    expected = [float(v) for v in dist.query_many(pairs, faults)]

    snap = str(tmp_path / "dist.snap")
    save_snapshot(snap, dist)

    for backend_kw in ({"backend": dist}, {"snapshot": snap}):
        with ServerThread(
            backend_kw.pop("backend", None), **backend_kw
        ) as harness:
            with QueryClient("127.0.0.1", harness.port, timeout=60) as client:
                got = client.distance(pairs, faults)
                assert got == expected  # float bits survive the wire


@pytest.mark.network
@pytest.mark.parametrize("scheme", ["cycle_space", "sketch"])
def test_connectivity_facade_snapshot_served_matches_oracle(scheme, tmp_path):
    # A ``build --artifact connectivity`` snapshot holds the boolean
    # facade; the server forwards ``want_path`` on every CONNECTIVITY
    # frame, which the facade's partition must accept and ignore.
    graph = _graph("random")
    conn = FaultTolerantConnectivity(graph, f=3, scheme=scheme, seed=37)
    oracle = ConnectivityOracle(graph)
    snap = str(tmp_path / "conn.snap")
    save_snapshot(snap, conn)

    with ServerThread(None, snapshot=snap) as harness:
        with QueryClient("127.0.0.1", harness.port, timeout=60) as client:
            for seed in range(38, 41):
                pairs, faults = _stream(graph, 12, seed=seed)
                expected = oracle.connected_many(pairs, faults)
                assert client.connectivity(pairs, faults) == expected
                assert client.connectivity(
                    pairs, faults, want_path=False
                ) == expected


@pytest.mark.network
@pytest.mark.parametrize("family", [f[0] for f in FAMILIES])
def test_route_traces_bit_identical_object_and_snapshot(family, tmp_path):
    graph = _graph(family)
    router = FaultTolerantRouter(graph, f=2, k=2, seed=35)
    pairs, faults = _stream(graph, 8, seed=36)
    expected = router.route_many(pairs, faults)

    snap = str(tmp_path / "router.snap")
    save_snapshot(snap, router)

    for backend_kw in ({"backend": router}, {"snapshot": snap}):
        with ServerThread(
            backend_kw.pop("backend", None), **backend_kw
        ) as harness:
            with QueryClient("127.0.0.1", harness.port, timeout=60) as client:
                got = client.route(pairs, faults)
                # RouteResult dataclass equality: trace, telemetry,
                # length, scale — the whole record.
                assert got == expected


@pytest.mark.network
def test_wrong_query_kind_is_unsupported(tmp_path):
    graph = _graph("random")
    scheme = SketchConnectivityScheme(graph, seed=31)
    with ServerThread(scheme) as harness:
        with QueryClient("127.0.0.1", harness.port, timeout=60) as client:
            from repro.server import ServerError

            with pytest.raises(ServerError) as excinfo:
                client.route([(0, 1)], [])
            assert excinfo.value.code.name == "UNSUPPORTED"


def _mapped_paths():
    maps = Path("/proc/self/maps")
    if not maps.exists():  # pragma: no cover - non-Linux
        return None
    return maps.read_text()


@pytest.mark.network
def test_hot_reload_zero_downtime_atomic_flip_and_mmap_release(tmp_path):
    """Publish snapshot v2 under a live stream: no failed request, an
    atomic answer flip, and the old mmap released afterwards."""
    graph = _graph("random")
    s1 = SketchConnectivityScheme(graph, seed=41)
    s2 = SketchConnectivityScheme(graph, seed=42)
    p1 = str(tmp_path / "v1.snap")
    p2 = str(tmp_path / "v2.snap")
    save_snapshot(p1, s1)
    save_snapshot(p2, s2)

    # A probe whose full answer distinguishes the generations (the
    # verdict agrees — same graph — but paths/phases differ by seed).
    rnd = random.Random(43)
    probe = faults = None
    for _ in range(200):
        cand = tuple(rnd.sample(range(graph.n), 2))
        F = sorted(rnd.sample(range(graph.m), 3))
        if s1.query_many([cand], F) != s2.query_many([cand], F):
            probe, faults = cand, F
            break
    assert probe is not None, "seeds 41/42 never diverge — pick new seeds"
    exp1 = s1.query_many([probe], faults)[0]
    exp2 = s2.query_many([probe], faults)[0]

    with ServerThread(snapshot=p1, num_shards=0) as harness:
        before = _mapped_paths()
        if before is not None:
            assert p1 in before, "local mode should mmap the snapshot"

        async def drive():
            client = await AsyncQueryClient.connect("127.0.0.1", harness.port)
            answers = []
            stop = asyncio.Event()

            async def stream():
                while not stop.is_set():
                    ans = await client.connectivity([probe], faults)
                    answers.append(ans[0])

            task = asyncio.ensure_future(stream())
            try:
                await asyncio.sleep(0.05)
                admin = await AsyncQueryClient.connect(
                    "127.0.0.1", harness.port
                )
                try:
                    old_v, new_v, kind = await admin.reload(p2)
                    assert (old_v, new_v, kind) == (1, 2, "sketch")
                    assert await admin.ping() == 2
                finally:
                    await admin.aclose()
                await asyncio.sleep(0.05)
            finally:
                stop.set()
                await asyncio.wait_for(task, timeout=60)
                await client.aclose()
            return answers

        answers = harness.run(drive())

        # Zero failed requests (any ServerError/disconnect would have
        # raised out of the stream task) and a clean, *atomic* flip:
        # a prefix of v1 answers, then only v2 answers.
        assert answers, "stream issued no requests"
        assert all(ans in (exp1, exp2) for ans in answers)
        flips = sum(
            1 for a, b in zip(answers, answers[1:]) if a != b
        )
        assert flips <= 1, "answers flip-flopped across generations"
        assert answers[-1] == exp2, "stream never saw the new generation"

        # One loop round-trip so the retired generation's aclose (and
        # its gc.collect) has certainly run before we inspect maps.
        harness.run(asyncio.sleep(0))
        after = _mapped_paths()
        if after is not None:
            assert p1 not in after, "old snapshot mmap still resident"
            assert p2 in after


def _unusable_snapshots(tmp_path, good: str) -> list:
    """A missing, a truncated, a bad-magic and an unservable-kind file."""
    data = Path(good).read_bytes()
    truncated = tmp_path / "truncated.snap"
    truncated.write_bytes(data[: len(data) // 2])
    bad_magic = tmp_path / "bad-magic.snap"
    bad_magic.write_bytes(b"NOTASNAP" + data[8:])
    bogus_kind = tmp_path / "bogus-kind.snap"
    write_snapshot(bogus_kind, "bogus", {}, {})
    return [tmp_path / "missing.snap", truncated, bad_magic, bogus_kind]


@pytest.mark.network
@pytest.mark.parametrize("num_shards", [0, 2])
def test_failed_reload_keeps_old_generation_serving(num_shards, tmp_path):
    """RELOAD of an unusable snapshot is a BAD_QUERY that changes
    nothing: a live stream sees zero failed requests and v1 answers,
    and the next good RELOAD is v1 -> v2."""
    graph = _graph("random")
    s1 = SketchConnectivityScheme(graph, seed=41)
    p1 = str(tmp_path / "v1.snap")
    p2 = str(tmp_path / "v2.snap")
    save_snapshot(p1, s1)
    save_snapshot(p2, SketchConnectivityScheme(graph, seed=42))
    pairs, faults = _stream(graph, 6, seed=44)
    exp1 = s1.query_many(pairs, faults)
    bad = _unusable_snapshots(tmp_path, p1)

    with ServerThread(snapshot=p1, num_shards=num_shards) as harness:

        async def drive():
            client = await AsyncQueryClient.connect("127.0.0.1", harness.port)
            admin = await AsyncQueryClient.connect("127.0.0.1", harness.port)
            answers = []
            stop = asyncio.Event()

            async def stream():
                while not stop.is_set():
                    answers.append(await client.connectivity(pairs, faults))

            task = asyncio.ensure_future(stream())
            try:
                for path in bad:
                    with pytest.raises(ServerError) as err:
                        await admin.reload(str(path))
                    assert err.value.code is ErrorCode.BAD_QUERY, path
                    assert await admin.ping() == 1
                    assert await admin.connectivity(pairs, faults) == exp1
                    await asyncio.sleep(0.02)
                stop.set()
                await asyncio.wait_for(task, timeout=60)
                assert await admin.reload(p2) == (1, 2, "sketch")
                assert await admin.ping() == 2
            finally:
                stop.set()
                await asyncio.wait_for(task, timeout=60)
                await client.aclose()
                await admin.aclose()
            return answers

        answers = harness.run(drive())

    # zero failed requests (an error would have raised out of the
    # stream task) and every answer from the old generation
    assert answers, "stream issued no requests"
    assert all(ans == exp1 for ans in answers)
