"""Socket workloads: ``serve-hot`` and ``whatif-100k``.

Each run builds the sketch snapshot, starts ``python -m repro.cli serve
--snapshot ... --shards 2`` in its own process group, and loads it from
this process over 2 closed-loop connections with a fixed, seeded
request stream.  The server is reloaded a fixed number of times,
alternating two snapshots of the same graph built with different label
seeds, and each generation serves one slice of the timed requests,
timed in :data:`WINDOWS_PER_GENERATION` windows, so the timed windows
are spread over the whole client phase.  Answers are
checked after the server has stopped.
"""

from __future__ import annotations

import asyncio
import bisect
import functools
import gc
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Optional

from perfbench import inputs
from perfbench.measure import (
    ProcessTree,
    RssSampler,
    cpu_delta,
    group_members,
    host_cpu,
    percentile,
    self_cpu_s,
    steal_share,
)
from perfbench.procs import die_with_parent
from perfbench.result import Outcome, per_layer_defaults

READY_MARK = b"repro.server: serving"
#: ``--shards`` of the server, and closed-loop client connections
SHARDS = CONNECTIONS = 2
#: each generation's share of the timed requests is timed in this many
#: windows, short enough to fall in one of the host's speed states
WINDOWS_PER_GENERATION = 4
#: a request, reload or STATS call without a reply by then means the
#: server is wedged: the run fails
REPLY_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class ServeConfig:
    """Sizes of one socket workload (fixed per workload name)."""

    n: int
    pairs_per_request: int
    fault_size: int
    #: > 0: requests cycle over this many fault sets (cache hits);
    #: 0: every request carries a fresh fault set (cache misses)
    hot_sets: int
    want_path: bool
    #: timed requests per ``--seconds`` second (the count is fixed by
    #: the arguments, never by how fast the machine answers)
    requests_per_second: float
    #: each of the ``1 + reloads`` generations serves one slice of the
    #: timed requests
    reloads: int
    #: one connection keeps querying while the other reloads
    reload_background: bool
    #: seeded share of timed requests checked bit for bit against
    #: in-process ``query_many`` and against the exact oracle
    checked_requests: int
    setups: int = 5


SERVE_HOT = ServeConfig(
    n=1024, pairs_per_request=8, fault_size=2, hot_sets=8, want_path=False,
    requests_per_second=1500, reloads=15, reload_background=False,
    checked_requests=64,
)
WHATIF_100K = ServeConfig(
    n=100_000, pairs_per_request=16, fault_size=4, hot_sets=0,
    want_path=True, requests_per_second=220, reloads=11,
    reload_background=True, checked_requests=16, setups=3,
)


@dataclass
class Plan:
    """The whole request stream of one run."""

    timed: list
    traced: list
    #: probes[g]: requests sent right after generation g went live
    probes: list
    background: list
    checked: list


def _request(rng, g, size, count, faults=None, cut=False):
    if faults is None:
        faults = inputs.fault_set(rng, g, size, cut)
    return inputs.Request(tuple(inputs.pairs(rng, g, count, faults)),
                          tuple(faults))


def _fresh(rng, g, cfg, count):
    """``count`` requests, each with its own fault set (every fourth a
    cut set)."""
    return [
        _request(rng, g, cfg.fault_size, cfg.pairs_per_request, cut=i % 4 == 0)
        for i in range(count)
    ]


def make_plan(cfg: ServeConfig, g, seed: int, seconds: float) -> Plan:
    """Every request of a run, derived from ``seed`` only."""
    from repro.serving import shard_of
    from repro.serving.partition_cache import canonical_fault_key

    generations = 1 + cfg.reloads
    count = max(2 * generations * WINDOWS_PER_GENERATION,
                int(round(seconds * cfg.requests_per_second)))
    if cfg.hot_sets:
        rng = inputs.stream(seed, "hot-sets")
        hot = [inputs.fault_set(rng, g, cfg.fault_size, cut=i % 2 == 0)
               for i in range(cfg.hot_sets)]
        rng = inputs.stream(seed, "timed")
        timed = [_request(rng, g, cfg.fault_size, cfg.pairs_per_request,
                          faults=hot[i % len(hot)]) for i in range(count)]
        rng = inputs.stream(seed, "traced")
        traced = [_request(rng, g, cfg.fault_size, cfg.pairs_per_request,
                           faults=hot[i % len(hot)]) for i in range(count)]
        rng = inputs.stream(seed, "probes")
        warm = [_request(rng, g, cfg.fault_size, cfg.pairs_per_request,
                         faults=f) for f in hot]
        probes = [warm] * generations
    else:
        timed = _fresh(inputs.stream(seed, "timed"), g, cfg, count)
        traced = _fresh(inputs.stream(seed, "traced"), g, cfg, count)
        # One probe per shard, so every new worker boots and answers
        # before the generation's timed window.
        rng = inputs.stream(seed, "probes")
        probes = []
        for _ in range(generations):
            chosen: dict[int, inputs.Request] = {}
            while len(chosen) < SHARDS:
                req = _fresh(rng, g, cfg, 1)[0]
                key = shard_of(canonical_fault_key(req.faults), SHARDS)
                chosen.setdefault(key, req)
            probes.append([chosen[k] for k in sorted(chosen)])
    background = (
        _fresh(inputs.stream(seed, "background"), g, cfg, 8)
        if cfg.reload_background else []
    )
    rng = inputs.stream(seed, "checked")
    checked = sorted(rng.sample(range(count), min(cfg.checked_requests, count)))
    return Plan(timed, traced, probes, background, checked)


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class ServerProcess:
    """``python -m repro.cli serve`` in its own process group."""

    def __init__(self, snapshot: str, shards: int, workdir: str, env: dict):
        self.log_path = os.path.join(workdir, "server.log")
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--snapshot",
             snapshot, "--shards", str(shards), "--port", "0"],
            stdout=self._log, stderr=subprocess.STDOUT, env=env,
            start_new_session=True,
            preexec_fn=functools.partial(die_with_parent, os.getpid()),
        )
        self.port: Optional[int] = None

    def wait_ready(self, timeout: float = 120.0) -> float:
        """Block until the bound line appears; returns that moment."""
        deadline = time.perf_counter() + timeout
        while True:
            with open(self.log_path, "rb") as fh:
                text = fh.read()
            at = text.find(READY_MARK)
            if at >= 0 and text.find(b"\n", at) >= 0:
                now = time.perf_counter()
                line = text[at : text.find(b"\n", at)].decode()
                self.port = int(line.split(" on ")[1].split()[0].rsplit(":", 1)[1])
                return now
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}:\n"
                    + text.decode(errors="replace")
                )
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not bind in time")
            time.sleep(0.002)

    def stop(self, timeout: float = 10.0) -> None:
        """SIGINT (graceful: the server reaps its shard pools), then
        SIGKILL whatever is left of the process group; waits for all."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                pass
        deadline = time.perf_counter() + timeout
        while group_members(self.proc.pid) or self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("server processes did not exit")
            self.proc.poll()
            time.sleep(0.01)
        self.proc.wait()
        self._log.close()


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """Timings of one pass over a request stream, summed over its
    windows."""

    answers: list
    latencies_ms: list = field(default_factory=list)
    #: answered pairs / serving-side CPU-second of every window
    window_rates: list = field(default_factory=list)
    server_cpu_s: float = 0.0
    frontdoor_cpu_s: float = 0.0
    client_cpu_s: float = 0.0
    wall_s: float = 0.0
    #: (steal, total) jiffies of the machine over the windows
    host: tuple = (0, 0)
    errors: int = 0
    stats_delta: Optional[dict] = None

    @property
    def pairs(self) -> int:
        return sum(len(a) for a in self.answers if a is not None)

    @property
    def answers_per_cpu_s(self) -> float:
        # the upper quartile of the windows (see the README)
        return percentile(self.window_rates, 75)

    @property
    def steal(self) -> float:
        return steal_share((0, 0), self.host)


async def _reply(awaitable, what: str):
    try:
        return await asyncio.wait_for(awaitable, REPLY_TIMEOUT_S)
    except asyncio.TimeoutError:
        raise RuntimeError(f"no reply to {what} within {REPLY_TIMEOUT_S} s: "
                           f"the server is wedged") from None


async def _ask(client, req, cfg, trace_id=None):
    return await _reply(client.connectivity(
        list(req.pairs), list(req.faults), want_path=cfg.want_path,
        trace_id=trace_id,
    ), "a CONNECTIVITY request")


async def _window(clients, requests, lo, hi, cfg, tree, out: Pass,
                  traced=False) -> None:
    """Send ``requests[lo:hi]`` over every connection, closed loop, and
    account the serving side's CPU over exactly this window."""
    from repro.obs import mint_trace_id
    from repro.server.client import ServerError

    async def loop(client, indices):
        for i in indices:
            t0 = time.perf_counter()
            try:
                out.answers[i] = await _ask(
                    client, requests[i], cfg,
                    trace_id=mint_trace_id() if traced else None,
                )
            except (ServerError, ConnectionError) as exc:
                out.errors += len(requests[i].pairs)
                print(f"perfbench: request {i} failed: {exc}", file=sys.stderr)
                continue
            out.latencies_ms.append((time.perf_counter() - t0) * 1e3)

    indices = iter(range(lo, hi))  # shared: each connection takes the next
    host0, self0 = host_cpu(), self_cpu_s()
    cpu0, t0 = tree.sample(), time.perf_counter()
    await asyncio.gather(*(loop(c, indices) for c in clients))
    wall, cpu1 = time.perf_counter() - t0, tree.sample()
    host1 = host_cpu()
    cpu = cpu_delta(cpu0, cpu1)
    pairs = sum(len(a) for a in out.answers[lo:hi] if a is not None)
    out.window_rates.append(pairs / cpu)
    out.wall_s += wall
    out.server_cpu_s += cpu
    out.frontdoor_cpu_s += cpu_delta(cpu0, cpu1, [tree.root])
    out.client_cpu_s += self_cpu_s() - self0
    out.host = (out.host[0] + host1[0] - host0[0],
                out.host[1] + host1[1] - host0[1])


def _bounds(count: int, windows: int) -> list:
    return [count * w // windows for w in range(windows + 1)]


def _stats_delta(before, after) -> dict:
    """Exact before/after differences of the STATS registry dump."""
    def hist(report, name):
        h = report.histogram(name) or {}
        return h.get("count", 0), h.get("sum", 0.0)

    def counter(report, name):
        return report.counters.get(name, 0)

    out = {}
    for name in ("server.request_seconds", "shard.worker_seconds",
                 "shard.chunk_size"):
        (c0, s0), (c1, s1) = hist(before, name), hist(after, name)
        out[name] = (c1 - c0, s1 - s0)
    for name in ("cache.hits", "cache.misses", "service.pool_restarts"):
        out[name] = counter(after, name) - counter(before, name)
    errs = lambda r: sum(v for k, v in r.counters.items()
                         if k.startswith("server.errors."))
    out["server.errors"] = errs(after) - errs(before)
    return out


@dataclass
class Drive:
    """What the client phase of one run observed."""

    timed: Pass
    first_answer_ms: list = field(default_factory=list)
    reload_ms: list = field(default_factory=list)
    #: probe_answers[g]: answers of generation g's probes
    probe_answers: list = field(default_factory=list)
    #: (background request index, answers) sent during reloads
    background_answers: list = field(default_factory=list)
    traced: Optional[Pass] = None
    errors: int = 0


async def _drive(cfg, plan, port, ready_at, tree, paths, trace) -> Drive:
    """Generation g (snapshot ``paths[g % 2]``) answers its probes, then
    timed window g; a traced pass follows on the last generation."""
    from repro.server.client import AsyncQueryClient, ServerError

    out = Drive(timed=Pass(answers=[None] * len(plan.timed)))
    clients = [await _reply(AsyncQueryClient.connect("127.0.0.1", port),
                            "a connection")
               for _ in range(CONNECTIONS)]

    async def probe(gen: int, since: float) -> None:
        answers = []
        for j, req in enumerate(plan.probes[gen]):
            answers.append(await _ask(clients[0], req, cfg))
            if j == 0:
                out.first_answer_ms.append((time.perf_counter() - since) * 1e3)
        out.probe_answers.append(answers)

    async def background(stop: asyncio.Event) -> None:
        k = 0
        while not stop.is_set():
            i = k % len(plan.background)
            k += 1
            try:
                answers = await _ask(clients[1], plan.background[i], cfg)
            except (ServerError, ConnectionError) as exc:
                out.errors += len(plan.background[i].pairs)
                print(f"perfbench: background request failed: {exc}",
                      file=sys.stderr)
                continue
            out.background_answers.append((i, answers))

    async def reload(gen: int) -> None:
        stop = asyncio.Event()
        bg = (asyncio.ensure_future(background(stop))
              if plan.background else None)
        try:
            tree.sample()  # the retiring workers, before they exit
            t0 = time.perf_counter()
            await _reply(clients[0].reload(paths[gen % 2]), "a RELOAD")
            out.reload_ms.append((time.perf_counter() - t0) * 1e3)
            await probe(gen, t0)
        finally:
            stop.set()
            if bg is not None:
                await bg

    try:
        generations = 1 + cfg.reloads
        per = WINDOWS_PER_GENERATION
        # generation g's share of the timed requests is the same slice
        # as _bounds(count, generations)[g : g + 2], in ``per`` windows
        bounds = _bounds(len(plan.timed), generations * per)
        for gen in range(generations):
            if gen == 0:
                await probe(0, ready_at)
            else:
                await reload(gen)
            for w in range(gen * per, (gen + 1) * per):
                await _window(clients, plan.timed, bounds[w], bounds[w + 1],
                              cfg, tree, out.timed)
        if trace:
            out.traced = Pass(answers=[None] * len(plan.traced))
            stats0 = await _reply(clients[0].stats(), "STATS")
            bounds = _bounds(len(plan.traced), generations)
            for lo, hi in zip(bounds, bounds[1:]):
                await _window(clients, plan.traced, lo, hi, cfg, tree,
                              out.traced, traced=True)
            out.traced.stats_delta = _stats_delta(
                stats0, await _reply(clients[0].stats(), "STATS"))
    finally:
        for c in clients:
            await c.aclose()
    return out


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def _digest(parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


def check(cfg, plan, drive, g, schemes):
    """Count wrong answers (pairs) and return ``(wrong, attempted_pairs,
    digest)``.  ``schemes`` are the in-process (v1, v2) snapshots."""
    from repro.oracles import ConnectivityOracle

    wrong = 0
    oracle = ConnectivityOracle(g)

    def expect(scheme, req):
        return scheme.query_many(list(req.pairs), list(req.faults),
                                 want_path=cfg.want_path)

    truths: dict = {}  # request -> oracle answers (background repeats)

    def compare(name, req, got, wants):
        nonlocal wrong
        if got is None:
            return  # already counted as an error
        if req not in truths:
            truths[req] = oracle.connected_many(list(req.pairs),
                                                list(req.faults))
        truth = truths[req]
        bad = set()
        if not any(got == w for w in wants):
            ref = wants[0]
            bad |= {j for j, (a, b) in enumerate(zip(got, ref)) if a != b}
            if len(got) != len(ref):
                bad |= set(range(len(req.pairs)))
        bad |= {j for j, (a, t) in enumerate(zip(got, truth))
                if a.connected != t}
        if bad:
            wrong += len(bad)
            print(f"perfbench: WRONG {name}: pairs {sorted(bad)} of "
                  f"faults {list(req.faults)}", file=sys.stderr)

    def check_pass(name, requests, answers, scheme_of):
        """The seeded subset bit for bit against the generation that
        answered it; with few distinct fault sets, every other answer
        against the oracle as well."""
        nonlocal wrong
        for i in plan.checked:
            compare(f"{name}[{i}]", requests[i], answers[i],
                    [expect(scheme_of(i), requests[i])])
        if not cfg.hot_sets:
            return
        checked = set(plan.checked)
        flat, per, where = [], [], []
        for i, (req, got) in enumerate(zip(requests, answers)):
            if i in checked or got is None:
                continue
            for j, pair in enumerate(req.pairs):
                flat.append(pair)
                per.append(list(req.faults))
                where.append((i, j, got[j]))
        # one component labeling per distinct fault set
        for (i, j, got), t in zip(where, oracle.connected_many(flat, per)):
            if got.connected != t:
                wrong += 1
                print(f"perfbench: WRONG {name}[{i}] pair {j}",
                      file=sys.stderr)

    generations = 1 + cfg.reloads
    scheme_of_gen = lambda gen: schemes[gen % 2]
    bounds = _bounds(len(plan.timed), generations)
    # timed window g ran on generation g; the traced pass on the last
    check_pass("timed", plan.timed, drive.timed.answers,
               lambda i: scheme_of_gen(bisect.bisect_right(bounds, i) - 1))
    if drive.traced is not None:
        check_pass("traced", plan.traced, drive.traced.answers,
                   lambda i: scheme_of_gen(generations - 1))
    for gen, answers in enumerate(drive.probe_answers):
        for j, (req, got) in enumerate(zip(plan.probes[gen], answers)):
            compare(f"probe[{gen}][{j}]", req, got,
                    [expect(scheme_of_gen(gen), req)])
    if drive.background_answers:
        wants = [[expect(v, req) for v in schemes] for req in plan.background]
        for i, got in drive.background_answers:
            compare(f"background[{i}]", plan.background[i], got, wants[i])

    attempted = cfg.pairs_per_request * (
        len(plan.timed)
        + sum(len(p) for p in plan.probes)
        + len(drive.background_answers)
        + (len(plan.traced) if drive.traced is not None else 0)
    )
    return wrong, attempted, _digest([drive.timed.answers, drive.probe_answers])


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def _setup(cfg, label_seed, workdir, env):
    """Empty directory -> bound server.  Returns ``(server, timings,
    ready_at, graph, scheme, snapshot_path)``."""
    from repro.core.sketch_scheme import SketchConnectivityScheme
    from repro.store import save_snapshot

    os.makedirs(workdir)
    path = os.path.join(workdir, "labels.snap")
    t0 = time.perf_counter()
    g = inputs.graph(cfg.n)
    t1 = time.perf_counter()
    scheme = SketchConnectivityScheme(g, seed=label_seed)
    t2 = time.perf_counter()
    save_snapshot(path, scheme)
    t3 = time.perf_counter()
    server = ServerProcess(path, SHARDS, workdir, env)
    try:
        ready = server.wait_ready()
    except BaseException:
        server.stop()
        raise
    timings = {
        "setup_s": ready - t0,
        "graph.generate_s": t1 - t0,
        "store.save_s": t3 - t2,
        "server.ready_s": ready - t3,
        **{f"sketches.{k}_s": v for k, v in scheme.build_phase_s.items()},
    }
    return server, timings, ready, g, scheme, path


def run(cfg: ServeConfig, seed: int, seconds: float, trace: bool,
        workdir: str, env: dict) -> Outcome:
    from repro.store import load_snapshot

    v1_seed, v2_seed = inputs.LABEL_SEEDS
    # Setups build generations v1, v2, v1 of the same graph (at least
    # two: v2 then v1); the first also yields the request plan, and the
    # last one's server is the one measured, from the moment it is bound.
    setups = []
    server = None
    try:
        for i in range(cfg.setups):
            label_seed = v2_seed if i == cfg.setups - 2 else v1_seed
            server, timings, ready_at, g, scheme, path = _setup(
                cfg, label_seed, os.path.join(workdir, f"setup{i}"), env)
            setups.append((timings, path))
            if i == cfg.setups - 1:
                break
            server.stop()
            server = None
            if i == 0:
                plan = make_plan(cfg, g, seed, seconds)
            if i < cfg.setups - 2:
                shutil.rmtree(os.path.dirname(path))
            del scheme
            gc.collect()
        v1_path, v2_path = setups[-1][1], setups[-2][1]
        tree = ProcessTree(server.proc.pid)
        with RssSampler(tree):
            drive = asyncio.run(_drive(cfg, plan, server.port, ready_at,
                                       tree, (v1_path, v2_path), trace))
    finally:
        if server is not None:
            server.stop()
    label_bits = max(scheme.max_vertex_label_bits(),
                     scheme.max_edge_label_bits())
    del scheme
    gc.collect()
    peak_rss_mb = tree.peak_rss_mb()

    layers = {}
    if trace:
        layers = in_process_layers(cfg, plan, v1_path)
    schemes = (load_snapshot(v1_path), load_snapshot(v2_path))
    wrong, attempted, digest = check(cfg, plan, drive, g, schemes)
    failed = wrong + drive.errors + drive.timed.errors + (
        drive.traced.errors if drive.traced else 0)

    timed = drive.timed
    metrics = {
        "setup_s": median([t["setup_s"] for t, _ in setups]),
        "answers_per_cpu_s": timed.answers_per_cpu_s,
        # over server start and every reload (see the README)
        "first_answer_ms": median(drive.first_answer_ms),
        "peak_rss_mb": peak_rss_mb,
        "label_bits": label_bits,
        "answered_share": (attempted - failed) / attempted,
    }
    quality = {
        "label_bits": label_bits,
        "snapshot_mb": os.path.getsize(v1_path) / 2**20,
        "failed_share": failed / attempted,
        "answer_digest": digest,
    }
    if trace:
        metrics = _layer_metrics(setups, drive, layers, quality)
    return Outcome(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        record={
            "quality": quality,
            "steal_share": timed.steal,
            "timed_requests": len(plan.timed),
            "timed_wall_s": timed.wall_s,
            "window_rates": timed.window_rates,
            "timed_cpu_s": {"server": timed.server_cpu_s,
                            "frontdoor": timed.frontdoor_cpu_s,
                            "client": timed.client_cpu_s},
            "reload_ms": drive.reload_ms,
            "first_answer_ms": drive.first_answer_ms,
            "setup_s": [t["setup_s"] for t, _ in setups],
        },
    )


def in_process_layers(cfg, plan, path) -> dict:
    """Benchmark-side spans around each layer's public functions, on the
    workload's own snapshot and requests (the server has stopped)."""
    from repro.server.protocol import (
        FrameDecoder, FrameType, encode_frame, encode_pairs,
        sk_result_to_wire,
    )
    from repro.serving import ShardedQueryService
    from repro.store import load_snapshot

    out = {}
    sample = plan.timed[:32]
    t0 = time.perf_counter()
    scheme = load_snapshot(path)
    t1 = time.perf_counter()
    first = scheme.query_many(list(sample[0].pairs), list(sample[0].faults),
                              want_path=cfg.want_path)
    t2 = time.perf_counter()
    out["store.load_ms"] = (t1 - t0) * 1e3
    out["store.first_query_ms"] = (t2 - t1) * 1e3

    keys = {}
    for req in sample:
        keys.setdefault(req.faults, []).append(req)
    t0 = time.perf_counter()
    parts = {faults: scheme.decode_partition(list(faults)) for faults in keys}
    t1 = time.perf_counter()
    n_pairs = 0
    replies = []
    for faults, reqs in keys.items():
        for req in reqs:
            replies.append(parts[faults].answer_many(
                list(req.pairs), want_path=cfg.want_path))
            n_pairs += len(req.pairs)
    t2 = time.perf_counter()
    out["core.partition_ms"] = (t1 - t0) * 1e3 / len(keys)
    out["core.answer_us"] = (t2 - t1) * 1e6 / n_pairs

    frames = []
    for k, (req, reply) in enumerate(zip(sample, replies)):
        frames.append((FrameType.CONNECTIVITY, k, [
            encode_pairs(req.pairs), list(req.faults), cfg.want_path]))
        frames.append((FrameType.CONNECTIVITY_REPLY, k,
                       [sk_result_to_wire(a) for a in reply]))
    reps = 20
    t0 = time.perf_counter()
    for _ in range(reps):
        raw = [encode_frame(*f) for f in frames]
    t1 = time.perf_counter()
    blob = b"".join(raw)
    for _ in range(reps):
        dec = FrameDecoder()
        dec.feed(blob)
        decoded = list(dec.frames())
    t2 = time.perf_counter()
    if len(decoded) != len(frames):
        raise RuntimeError("frame decoder lost frames")
    out["protocol.encode_us"] = (t1 - t0) * 1e6 / (reps * len(frames))
    out["protocol.decode_us"] = (t2 - t1) * 1e6 / (reps * len(frames))
    del scheme, first
    gc.collect()

    t0 = time.perf_counter()
    with ShardedQueryService.from_snapshot(path, num_shards=SHARDS) as svc:
        svc.query_many(list(sample[0].pairs), list(sample[0].faults),
                       want_path=cfg.want_path)
        out["serving.first_chunk_ms"] = (time.perf_counter() - t0) * 1e3
    return out


def _layer_metrics(setups, drive, layers, quality) -> dict:
    """Every per-layer metric of a traced socket run."""
    timed, traced = drive.timed, drive.traced
    answers = traced.pairs
    delta = traced.stats_delta
    req_n, req_s = delta["server.request_seconds"]
    work_n, work_s = delta["shard.worker_seconds"]
    chunk_n, chunk_sum = delta["shard.chunk_size"]
    hits, misses = delta["cache.hits"], delta["cache.misses"]
    med = lambda key: median([t[key] for t, _ in setups])
    untraced_rate = timed.answers_per_cpu_s
    traced_rate = traced.answers_per_cpu_s
    m = per_layer_defaults()
    m.update({
        "graph.generate_s": med("graph.generate_s"),
        "sketches.forest_s": med("sketches.forest_s"),
        "sketches.eids_s": med("sketches.eids_s"),
        "sketches.sketches_s": med("sketches.sketches_s"),
        "store.save_s": med("store.save_s"),
        "server.ready_s": med("server.ready_s"),
        **layers,
        "server.frontdoor_cpu_us": traced.frontdoor_cpu_s / answers * 1e6,
        "serving.worker_cpu_us":
            (traced.server_cpu_s - traced.frontdoor_cpu_s) / answers * 1e6,
        "server.request_ms_mean": req_s / max(req_n, 1) * 1e3,
        "serving.worker_ms_mean": work_s / max(work_n, 1) * 1e3,
        "serving.dispatch_ms_mean":
            (req_s / max(req_n, 1) - work_s / max(work_n, 1)) * 1e3,
        "serving.cache_hit_rate": hits / max(hits + misses, 1),
        "serving.chunk_mean": chunk_sum / max(chunk_n, 1),
        "serving.pool_restarts": delta["service.pool_restarts"],
        "server.errors": delta["server.errors"],
        "server.reload_ms": median(drive.reload_ms),
        "traffic.client_cpu_us": traced.client_cpu_s / answers * 1e6,
        "traffic.answers_per_s": answers / traced.wall_s,
        "traffic.p50_ms": percentile(traced.latencies_ms, 50),
        "traffic.p99_ms": percentile(traced.latencies_ms, 99),
        "host.steal_share": traced.steal,
        "obs.trace_overhead": 1.0 - traced_rate / untraced_rate,
        "store.snapshot_mb": quality["snapshot_mb"],
        "quality.failed_share": quality["failed_share"],
    })
    return m
