"""In-process routing workload: ``route-1024``.

Each of the run's set-ups is a child process that plays the serving
side: it generates the graph, builds :class:`repro.FaultTolerantRouting`
(balanced tables), routes one message cold, routes one window of its
share of the seeded message stream to fill the caches, and then routes
its share through ``route_many`` one window at a time.  Window ``w``
goes to set-up ``w % setups``, so the timed windows are spread over the
whole run rather than packed into one stretch of it.  A fresh process
per set-up means no set-up's time or memory depends on the ones before
it.  This process checks every routed message against the exact
:class:`repro.DistanceOracle` in ``G \\ F``: delivered iff connected,
and routed length within the Theorem 5.8 bound.

Run a child directly with ``python -m perfbench.route CONFIG OUT``
(``CONFIG`` is a JSON file, ``OUT`` receives a pickle).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from statistics import median

from perfbench import inputs
from perfbench.measure import (
    CALIBRATION_REF_S,
    ProcessTree,
    RssSampler,
    calibration_cpu_s,
    host_cpu,
    percentile,
    steal_share,
)
from perfbench.procs import die_with_parent
from perfbench.result import Outcome, per_layer_defaults

#: fault tolerance, stretch parameter and hidden fault-set size
F = K = FAULT_SIZE = 2


@dataclass(frozen=True)
class RouteConfig:
    """Sizes of the routing workload."""

    n: int = 1024
    fault_sets: int = 16
    sources_per_set: int = 16
    #: routed messages per ``--seconds`` second (a fixed count)
    messages_per_second: float = 10000
    #: the timed messages are routed in this many ``route_many`` windows
    windows: int = 40
    setups: int = 5


ROUTE_1024 = RouteConfig()


def make_plan(cfg: RouteConfig, g, seed: int, seconds: float):
    """``[[(s, t, faults), ...], ...]``: ``cfg.windows`` message windows.

    Each of ``cfg.fault_sets`` hidden fault sets gets ``sources_per_set``
    distinct sources with the same number of targets each (a cut set's
    first message targets the vertex the set isolates), and every window
    holds an equal slice of every fault set's messages, so all windows
    ask for the same mix of work.
    """
    count = int(round(seconds * cfg.messages_per_second))
    per_source = max(-(-cfg.windows // cfg.sources_per_set),
                     count // (cfg.fault_sets * cfg.sources_per_set))
    rng = inputs.stream(seed, "timed")
    windows = [[] for _ in range(cfg.windows)]
    for j in range(cfg.fault_sets):
        faults = inputs.fault_set(rng, g, FAULT_SIZE, cut=j % 4 == 0)
        cut = inputs.cut_vertex(g, faults)
        sources = rng.sample(range(g.n), cfg.sources_per_set)
        msgs = [(s, rng.randrange(g.n)) for s in sources
                for _ in range(per_source)]
        if cut >= 0:
            msgs[0] = (msgs[0][0], cut)
        for w, window in enumerate(windows):
            window.extend((s, t, faults) for s, t in msgs[w :: cfg.windows])
    return windows


# ----------------------------------------------------------------------
# The serving side (child process)
# ----------------------------------------------------------------------
def _compact(results) -> list:
    return [(r.delivered, r.length, r.telemetry.hops, r.telemetry.reversal_hops)
            for r in results]


def _route(router, window):
    return router.route_many([(s, t) for s, t, _ in window],
                             [f for _, _, f in window])


def child(config: dict) -> dict:
    """One set-up and its share of the timed windows, in this process."""
    from repro import FaultTolerantRouting

    cfg = RouteConfig(**config["cfg"])
    share = config["windows"]
    tree = ProcessTree(os.getpid())
    with RssSampler(tree):
        t0 = time.perf_counter()
        g = inputs.graph(cfg.n)
        t1 = time.perf_counter()
        router = FaultTolerantRouting(
            g, f=F, k=K, seed=config["label_seed"], table_mode="balanced")
        t2 = time.perf_counter()
        s, t, faults = config["first"]
        cal0 = calibration_cpu_s()
        c0 = time.process_time()
        first = router.route_many([(s, t)], faults)
        first_cpu = time.process_time() - c0
        cal1 = calibration_cpu_s()
        # Every window mixes all fault sets, so one untimed window fills
        # the partition caches of all of them.
        _route(router, share[0])
        host0, w0 = host_cpu(), time.perf_counter()
        results, rates, scaled, cpu = [], [], [], 0.0
        cal = calibration_cpu_s()
        for window in share:
            c0 = time.process_time()
            results.extend(_route(router, window))
            spent = time.process_time() - c0
            cal, before = calibration_cpu_s(), cal
            rates.append(len(window) / spent)
            # the rate at the host's reference speed (see the README)
            scaled.append(len(window) / spent * (before + cal) / 2
                          / CALIBRATION_REF_S)
            cpu += spent
        wall = time.perf_counter() - w0
        steal = steal_share(host0, host_cpu())
    out = {
        "setup_s": t2 - t0,
        "graph.generate_s": t1 - t0,
        "routing.build_s": t2 - t1,
        # scaled to the host's reference speed (see the README)
        "first_answer_ms":
            first_cpu * CALIBRATION_REF_S / ((cal0 + cal1) / 2) * 1e3,
        "first_cpu_ms": first_cpu * 1e3,
        "calibration_ms": (cal0 * 1e3, cal1 * 1e3),
        "first": _compact(first)[0],
        "rates": rates,
        "scaled_rates": scaled,
        "cpu_s": cpu,
        "wall_s": wall,
        "steal": steal,
        "results": _compact(results),
        "peak_rss_mb": tree.peak_rss_mb(),
        "label_bits": router.max_label_bits(),
        "stretch_bound": router.stretch_bound(FAULT_SIZE),
    }
    if config["table_bits"]:
        # Counting table bits materializes every table (seconds, and
        # about the router's own size again), so only one set-up of a
        # traced run pays for it, after its memory was sampled.
        out["table_bits"] = router.max_table_bits()
    return out


def _spawn_child(config: dict, workdir: str, index: int, env: dict) -> dict:
    cfg_path = os.path.join(workdir, f"route-child{index}.json")
    out_path = os.path.join(workdir, f"route-child{index}.pickle")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.route", cfg_path, out_path],
        env=env, timeout=60,
        preexec_fn=functools.partial(die_with_parent, os.getpid()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"routing child exited with {proc.returncode}")
    with open(out_path, "rb") as fh:
        return pickle.load(fh)


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def check(g, messages, results, bound) -> tuple[int, list[float]]:
    """(wrong messages, stretch of every delivered message) for
    ``messages`` ``[(s, t, faults), ...]`` and their routing results."""
    from repro import DistanceOracle

    if len(messages) != len(results):
        raise RuntimeError(f"{len(results)} routing results for "
                           f"{len(messages)} messages")
    # one Dijkstra per distinct (fault set, source)
    dists = DistanceOracle(g).distance_many(
        [(s, t) for s, t, _ in messages], [f for _, _, f in messages])
    wrong, stretches = 0, []
    for (s, t, faults), d, (delivered, length, _, _) in zip(
            messages, dists, results):
        reachable = d != float("inf")
        ok = delivered == reachable
        if ok and delivered:
            ok = d - 1e-9 <= length <= bound * d + 1e-9
            if d > 0:
                stretches.append(length / d)
        if not ok:
            wrong += 1
            print(f"perfbench: WRONG route {s}->{t} under {faults}: "
                  f"delivered={delivered} length={length} distance={d}",
                  file=sys.stderr)
    return wrong, stretches


def run(cfg: RouteConfig, seed: int, seconds: float, trace: bool,
        workdir: str, env: dict) -> Outcome:
    g = inputs.graph(cfg.n)
    plan = make_plan(cfg, g, seed, seconds)
    shares = [plan[i :: cfg.setups] for i in range(cfg.setups)]
    # The cold first message is the same for every seed, so its cost
    # does not depend on which message a seed happens to draw first.
    first = (0, cfg.n // 2,
             inputs.fault_set(inputs.stream(0, "first"), g, FAULT_SIZE,
                              cut=False))
    os.makedirs(workdir, exist_ok=True)
    setups = [
        _spawn_child({
            "cfg": asdict(cfg), "label_seed": inputs.LABEL_SEEDS[0],
            "first": first, "windows": share,
            "table_bits": trace and i == cfg.setups - 1,
        }, workdir, i, env)
        for i, share in enumerate(shares)
    ]
    bound = setups[0]["stretch_bound"]

    # one check over every set-up's share, then every set-up's cold
    # first message (the same message each time)
    routed = [m for share in shares for window in share for m in window]
    results = [r for s in setups for r in s["results"]]
    wrong, stretches = check(g, routed, results, bound)
    wrong += check(g, [first] * len(setups), [s["first"] for s in setups],
                   bound)[0]
    messages = len(results)
    attempted = messages + len(setups)

    rates = [r for s in setups for r in s["rates"]]
    scaled = [r for s in setups for r in s["scaled_rates"]]
    wall = sum(s["wall_s"] for s in setups)
    label_bits = setups[0]["label_bits"]
    metrics = {
        "setup_s": median([s["setup_s"] for s in setups]),
        # the upper quartile of the windows at the reference speed
        # (see the README)
        "answers_per_cpu_s": percentile(scaled, 75),
        "first_answer_ms": median([s["first_answer_ms"] for s in setups]),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in setups]),
        "label_bits": label_bits,
        "answered_share": (attempted - wrong) / attempted,
    }
    quality = {
        "label_bits": label_bits,
        "table_bits": setups[-1].get("table_bits"),
        "stretch_mean": sum(stretches) / len(stretches),
        "failed_share": wrong / attempted,
        "answer_digest": hashlib.blake2b(
            repr(results).encode(), digest_size=16).hexdigest(),
    }
    steal = sum(s["steal"] * s["wall_s"] for s in setups) / wall
    if trace:
        # No client and no tracing: traffic.client_cpu_us and
        # obs.trace_overhead stay 0, as for any layer a workload never
        # calls.
        m = per_layer_defaults()
        m.update({
            "graph.generate_s": median([s["graph.generate_s"] for s in setups]),
            "routing.build_s": median([s["routing.build_s"] for s in setups]),
            "routing.route_us": wall / messages * 1e6,
            "routing.total_hops": sum(r[2] for r in results),
            "routing.reversal_hops": sum(r[3] for r in results),
            "routing.table_bits": quality["table_bits"],
            "routing.stretch_mean": quality["stretch_mean"],
            "traffic.answers_per_s": messages / wall,
            "host.steal_share": steal,
            "quality.failed_share": quality["failed_share"],
        })
        metrics = m
    return Outcome(
        correct=wrong == 0,
        attempted=attempted,
        failed=wrong,
        metrics=metrics,
        record={
            "quality": quality,
            "steal_share": steal,
            "timed_messages": messages,
            "timed_wall_s": wall,
            "window_rates": rates,
            "scaled_rates": scaled,
            "setup_s": [s["setup_s"] for s in setups],
            "first_answer_ms": [s["first_answer_ms"] for s in setups],
            "first_cpu_ms": [s["first_cpu_ms"] for s in setups],
            "calibration_ms": [s["calibration_ms"] for s in setups],
            "peak_rss_mb": [s["peak_rss_mb"] for s in setups],
        },
    )


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        result = child(json.load(fh))
    with open(sys.argv[2], "wb") as fh:
        pickle.dump(result, fh)
