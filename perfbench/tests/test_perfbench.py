"""Tests of the end-to-end benchmark itself (not of the system).

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
for _p in (SRC, ROOT):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from perfbench import route, serve  # noqa: E402
from perfbench.measure import (  # noqa: E402
    ProcessTree,
    RssSampler,
    cpu_delta,
    percentile,
    self_cpu_s,
)
from perfbench.result import END_TO_END, PER_LAYER, Outcome  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([ROOT, SRC])
    return env


# ----------------------------------------------------------------------
# Exact percentiles
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank_over_raw_samples():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile(values, 100) == 100.0
    assert percentile([7.0], 99) == 7.0
    assert percentile(list(reversed(values)), 90) == 90.0
    # Two latency modes a quarter-octave bucket family cannot tell
    # apart in the bucket edges: raw samples give the observed values.
    two_modes = [2.83] * 51 + [3.36] * 49
    assert percentile(two_modes, 50) == 2.83
    assert percentile(list(reversed(two_modes)), 50) == 2.83
    assert percentile(two_modes, 99) == 3.36
    with pytest.raises(ValueError):
        percentile([], 50)


# ----------------------------------------------------------------------
# CPU and memory accounting
# ----------------------------------------------------------------------
_BUSY_CHILD = r"""
import os, subprocess, sys, time
def burn(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass
if sys.argv[1] == "parent":
    kid = subprocess.Popen([sys.executable, "-c", sys.argv[2], "kid", sys.argv[2]],
                           stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    assert kid.stdout.readline() == b"ready\n"
    print("ready", flush=True)
    sys.stdin.readline()           # go
    blob = bytearray(64 << 20)     # 64 MiB, touched
    for i in range(0, len(blob), 4096):
        blob[i] = 1
    burn(0.4)
    kid.stdin.write(b"go\n"); kid.stdin.flush()
    assert kid.stdout.readline() == b"done\n"
    print("done", flush=True)
    sys.stdin.readline()           # exit
    kid.stdin.write(b"exit\n"); kid.stdin.flush()
    kid.wait()
else:
    print("ready", flush=True)
    sys.stdin.readline()
    burn(0.4)
    print("done", flush=True)
    sys.stdin.readline()
"""


def test_process_tree_counts_children_and_never_the_client():
    proc = subprocess.Popen(
        [sys.executable, "-c", _BUSY_CHILD, "parent", _BUSY_CHILD],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline() == b"ready\n"
        tree = ProcessTree(proc.pid)
        before, client0 = tree.sample(), self_cpu_s()
        assert len(before) == 2  # the child and its own child
        proc.stdin.write(b"go\n")
        proc.stdin.flush()
        # The load generator's own work during the window.
        end = time.process_time() + 0.3
        while time.process_time() < end:
            pass
        assert proc.stdout.readline() == b"done\n"
        after, client1 = tree.sample(), self_cpu_s()
        busy = cpu_delta(before, after)
        # 0.4 s + 0.4 s of known work, plus touching the 64 MiB blob
        assert 0.75 <= busy <= 1.2, busy
        assert 0.35 <= cpu_delta(before, after, [proc.pid]) <= 0.7
        assert client1 - client0 >= 0.3  # reported apart, never in ``busy``
        assert tree.peak_rss_mb() >= 64
        proc.stdin.write(b"exit\n")
        proc.stdin.flush()
        proc.wait(timeout=30)
        # A process that has exited still counts with its sampled peak.
        assert tree.sample() == {}
        assert tree.peak_rss_mb() >= 64
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdin.close()
        proc.stdout.close()


_SHORT_PEAK = r"""
import sys, time
print("ready", flush=True)
sys.stdin.readline()
blob = bytearray(64 << 20)         # 64 MiB, touched, held briefly
for i in range(0, len(blob), 4096):
    blob[i] = 1
time.sleep(0.3)
del blob
print("done", flush=True)
sys.stdin.readline()
"""


def test_rss_sampler_sees_memory_held_only_while_work_is_in_flight():
    proc = subprocess.Popen([sys.executable, "-c", _SHORT_PEAK],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"ready\n"
        idle, sampled = ProcessTree(proc.pid), ProcessTree(proc.pid)
        idle.sample()
        with RssSampler(sampled):
            proc.stdin.write(b"go\n")
            proc.stdin.flush()
            assert proc.stdout.readline() == b"done\n"
        idle.sample()
        # Readings at the boundaries miss the buffer; the sampler does not.
        assert idle.peak_rss_mb() < 32
        assert sampled.peak_rss_mb() >= 64
        proc.stdin.write(b"exit\n")
        proc.stdin.flush()
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdin.close()
        proc.stdout.close()


def test_peak_folds_from_many_threads_keep_the_largest_value():
    import threading

    tree = ProcessTree(os.getpid())
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def fold(offset):
            for v in range(offset, 20000, 8):
                tree._fold(1, v)

        threads = [threading.Thread(target=fold, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(previous)
    # a lost update would leave a smaller value behind
    assert tree.peak_kb[1] == 19999


# ----------------------------------------------------------------------
# Exact, repeatable quality numbers on a tiny configuration
# ----------------------------------------------------------------------
TINY_SERVE = serve.ServeConfig(
    n=96, pairs_per_request=4, fault_size=2, hot_sets=0, want_path=True,
    requests_per_second=300, reloads=2, reload_background=True,
    checked_requests=6, setups=2,
)
TINY_ROUTE = route.RouteConfig(
    n=48, fault_sets=2, sources_per_set=2, messages_per_second=8,
    windows=4, setups=2,
)


def _run_twice(module, cfg, tmp_path, seed=5):
    out = []
    for i in range(2):
        workdir = str(tmp_path / f"run{i}")
        os.makedirs(workdir)
        out.append(module.run(cfg, seed, 1.0, False, workdir, _env()))
    return out


def test_serve_quality_numbers_repeat_exactly(tmp_path):
    a, b = _run_twice(serve, TINY_SERVE, tmp_path)
    assert a.correct and b.correct
    assert a.failed == b.failed == 0
    assert a.attempted > 0
    assert a.record["quality"] == b.record["quality"]
    assert a.metrics["label_bits"] == b.metrics["label_bits"]
    assert a.metrics["answered_share"] == 1.0
    assert set(a.metrics) == {name for name, _, _ in END_TO_END}


def test_route_quality_numbers_repeat_exactly(tmp_path):
    a, b = _run_twice(route, TINY_ROUTE, tmp_path)
    assert a.correct and b.correct
    assert a.record["quality"] == b.record["quality"]
    assert a.record["quality"]["failed_share"] == 0.0
    assert set(a.metrics) == {name for name, _, _ in END_TO_END}


def test_serve_plan_depends_only_on_the_seed():
    from perfbench import inputs

    g = inputs.graph(TINY_SERVE.n)
    p1 = serve.make_plan(TINY_SERVE, g, 3, 2.0)
    p2 = serve.make_plan(TINY_SERVE, inputs.graph(TINY_SERVE.n), 3, 2.0)
    p3 = serve.make_plan(TINY_SERVE, g, 4, 2.0)
    assert p1 == p2
    assert p1.timed != p3.timed
    assert len(p1.timed) == 600  # 2 s x 300 requests/s, whatever the speed


# ----------------------------------------------------------------------
# The output contract
# ----------------------------------------------------------------------
def test_metric_tables_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert e2e == {n: (u, b) for n, u, b in END_TO_END}
    assert layers == {n: (u, b) for n, u, b in PER_LAYER}
    assert {w["name"] for w in bench["workloads"]} == {
        "serve-hot", "whatif-100k", "route-1024"}


def test_result_line_has_exactly_the_contract_keys():
    values = {name: 1.5 for name, _, _ in END_TO_END + PER_LAYER}
    outcome = Outcome(correct=True, attempted=3, failed=0, metrics=values)
    plain = json.loads(outcome.result_line(trace=False))
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert set(plain["metrics"]) == {n for n, _, _ in END_TO_END}
    traced = json.loads(outcome.result_line(trace=True))
    assert set(traced["metrics"]) == {n for n, _, _ in PER_LAYER}
    values["setup_s"] = float("nan")
    with pytest.raises(ValueError):
        Outcome(True, 1, 0, values).result_line(trace=False)


def test_fails_without_printing_outside_a_checkout(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ----------------------------------------------------------------------
# Process hygiene
# ----------------------------------------------------------------------
_ORPHAN_MAKER = r"""
import os, subprocess, sys
from perfbench import procs
procs.adopt_orphans()
# the shell exits at once; its background sleep is orphaned
out = subprocess.run(["sh", "-c", "sleep 60 >/dev/null 2>&1 & echo $!"],
                     capture_output=True, text=True).stdout
from perfbench.measure import ProcessTree
tree = ProcessTree(os.getpid())
print(out.strip(), len(tree.pids()) - 1, flush=True)
procs.reap_all()
print(len(tree.pids()) - 1, flush=True)
"""


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_reap_all_waits_for_adopted_orphans():
    proc = subprocess.run([sys.executable, "-c", _ORPHAN_MAKER], env=_env(),
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    first, second = proc.stdout.splitlines()
    orphan, before = (int(x) for x in first.split())
    assert before == 1  # the orphan was adopted, not handed to init
    assert second == "0"
    assert not _alive(orphan)


def test_sigterm_mid_run_stops_every_process_and_prints_nothing():
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "serve-hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        seen: set[int] = set()
        deadline = time.monotonic() + 60
        while len(seen) < 3 and time.monotonic() < deadline:
            # server, resource tracker, shard workers
            seen |= set(ProcessTree(proc.pid).pids()[1:])
            time.sleep(0.05)
        assert len(seen) >= 3, "the server never started its workers"
        proc.terminate()
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 3, err
    assert out == b""
    assert not [pid for pid in seen if _alive(pid)]
