"""Measurement primitives of the end-to-end benchmark.

* :func:`percentile` — exact nearest-rank percentiles over raw samples
  (never histogram buckets);
* :func:`calibration_cpu_s` — which of the host's two speeds a nearby
  CPU measurement ran at;
* :class:`ProcessTree` — CPU seconds and peak private memory of a
  process and all of its descendants, read from ``/proc``.  CPU is the
  nanosecond run time of every live thread (``/proc/<pid>/task/<tid>/
  schedstat``), so short windows are timed exactly; a thread that exits
  inside a window takes its share with it (the serving side keeps its
  threads for its lifetime).  Every
  sample remembers each pid's largest anonymous resident set
  (``RssAnon``), so a shard worker that a reload replaces still counts
  once it has been sampled.  File-backed pages are left out on purpose:
  the shard workers map one snapshot file, whose pages are shared page
  cache and would be counted once per worker, by how much of the file
  each happened to touch;
* :class:`RssSampler` — a thread that samples a tree's ``RssAnon``
  every :data:`RSS_INTERVAL_S` while work is in flight, so the peak is
  a sampled peak, not a reading taken while the serving side is idle;
* :func:`host_cpu` / :func:`steal_share` — the machine's ``/proc/stat``
  counters, to report how much CPU the hypervisor stole during a phase;
* :func:`self_cpu_s` — the benchmark process's own CPU (the load
  generator), kept apart from the serving side;
* :func:`run_record` — the hardware and software a result came from.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import threading
import time
from typing import Optional, Sequence

#: period of the in-flight memory sampler
RSS_INTERVAL_S = 0.02
#: the sampler looks for new descendants every this many periods, and
#: reads the pids it already knows in between
RSS_RESCAN_EVERY = 8


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of raw samples."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


#: :func:`calibration_cpu_s` on the reference host (2-vCPU VM, Python
#: 3.11) at its fast speed; a CPU time times ``CALIBRATION_REF_S`` over
#: the calibration measured around it reads as if taken at that speed
CALIBRATION_REF_S = 0.0125


def calibration_cpu_s() -> float:
    """CPU seconds of a fixed piece of allocation-heavy pure Python (a
    60k-entry dict of fresh lists), code the system under test never
    touches.  The host runs at two speeds that alternate within seconds
    (see the README); this reads which one a nearby measurement ran at."""
    enabled = gc.isenabled()
    gc.disable()  # a collection would scan the caller's heap
    try:
        t0 = time.process_time()
        table = {}
        for i in range(60000):
            table[i * 7919 % 100003] = [i]
        total = 0
        for key in table:
            total += len(table[key])
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()


def _stat_fields(pid: int) -> Optional[list[str]]:
    """Fields of ``/proc/<pid>/stat`` after the command name, or None."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read().decode("ascii", "replace")
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return None
    return raw[raw.rfind(")") + 2 :].split()


def _run_ns(pid: int) -> Optional[int]:
    """Nanoseconds on a CPU of ``pid``'s live threads, or None if gone."""
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except (FileNotFoundError, ProcessLookupError):
        return None
    total = 0
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat", "rb") as fh:
                total += int(fh.read().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            pass  # the thread exited after the listing
    return total


def status_kb(pid: int, field: bytes) -> Optional[int]:
    """One ``kB`` field of ``/proc/<pid>/status`` (None if gone)."""
    try:
        with open(f"/proc/{pid}/status", "rb") as fh:
            for line in fh:
                if line.startswith(field):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return None
    return None


class ProcessTree:
    """A root process and every descendant, sampled from ``/proc``."""

    def __init__(self, root_pid: int):
        self.root = root_pid
        #: pid -> largest RssAnon (kB) seen in any sample
        self.peak_kb: dict[int, int] = {}
        self._lock = threading.Lock()
        self._known: list[int] = []
        self._ticks = 0

    def pids(self) -> list[int]:
        """The root and its live descendants, root first."""
        children: dict[int, list[int]] = {}
        for name in os.listdir("/proc"):
            if not name.isdigit():
                continue
            fields = _stat_fields(int(name))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(name))
        out, stack = [], [self.root]
        while stack:
            pid = stack.pop()
            out.append(pid)
            stack.extend(children.get(pid, ()))
        return out

    def sample(self) -> dict[int, float]:
        """CPU seconds (user + system, all threads) of every live pid;
        also folds each pid's current RssAnon into :attr:`peak_kb`."""
        cpu: dict[int, float] = {}
        for pid in self.pids():
            ns = _run_ns(pid)
            anon = status_kb(pid, b"RssAnon:")
            if ns is None or anon is None:
                continue  # exited between the scan and the read
            cpu[pid] = ns / 1e9
            self._fold(pid, anon)
        return cpu

    def sample_rss(self) -> None:
        """Fold the current RssAnon of the tree's pids into
        :attr:`peak_kb`; rescans for new descendants every
        :data:`RSS_RESCAN_EVERY` calls."""
        if self._ticks % RSS_RESCAN_EVERY == 0:
            self._known = self.pids()
        self._ticks += 1
        for pid in self._known:
            anon = status_kb(pid, b"RssAnon:")
            if anon is not None:
                self._fold(pid, anon)

    def _fold(self, pid: int, anon_kb: int) -> None:
        with self._lock:
            if anon_kb > self.peak_kb.get(pid, 0):
                self.peak_kb[pid] = anon_kb

    def peak_rss_mb(self) -> float:
        """Sum of every sampled process's peak private resident memory,
        in MB (2^20 bytes)."""
        with self._lock:
            return sum(self.peak_kb.values()) / 1024.0


class RssSampler:
    """Calls :meth:`ProcessTree.sample_rss` every :data:`RSS_INTERVAL_S`
    on a daemon thread, from ``with`` entry until exit."""

    def __init__(self, tree: ProcessTree):
        self.tree = tree
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(RSS_INTERVAL_S):
            self.tree.sample_rss()

    def __enter__(self) -> "RssSampler":
        self.tree.sample_rss()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.tree.sample_rss()


def group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes of process group ``pgid``."""
    out = []
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat_fields(int(name))
            if fields is not None and int(fields[2]) == pgid \
                    and fields[0] != "Z":
                out.append(int(name))
    return out


def cpu_delta(before: dict[int, float], after: dict[int, float],
              pids=None) -> float:
    """CPU seconds spent between two samples by ``pids`` (default: all
    pids alive at ``after``; a pid born in between counts from zero)."""
    keys = after.keys() if pids is None else [p for p in pids if p in after]
    return sum(after[p] - before.get(p, 0.0) for p in keys)


def host_cpu() -> tuple[int, int]:
    """(steal, total) jiffies of the whole machine from ``/proc/stat``."""
    with open("/proc/stat", "rb") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already inside user/nice.
    return fields[7], sum(fields[:8])


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the machine's CPU time stolen between two readings."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def self_cpu_s() -> float:
    """CPU seconds of this process (the load generator) so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _git_commit() -> Optional[str]:
    """HEAD of the working directory's repository, read from ``.git``
    directly (never searching parent directories); None outside git."""
    head_path = os.path.join(".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def run_record() -> dict:
    """Hardware and software identity of a run."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
