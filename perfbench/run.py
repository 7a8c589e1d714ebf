"""End-to-end benchmark of the fault-tolerant labeling system.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 6 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (see ``perfbench/README.md``).  The last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it is the run record (hardware, versions, steal share and
the exact quality numbers).  Exits non-zero on any wrong answer, and
with code 2 outside a checkout that holds ``src/repro``.  A run that
SIGTERM, SIGHUP or its own :data:`DEADLINE_S` stops prints no result
and exits with code 3; every process it started has ended by then.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("serve-hot", "whatif-100k", "route-1024")
#: a run still going after this long stops, cleans up and fails; a
#: healthy run takes well under a minute, and the clean-up must end
#: within the 180 s a run is allowed
DEADLINE_S = 150


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="nominal length of the timed phase; fixes the "
                        "request count")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    # A caller that starts us in the background may have set SIGINT to
    # ignored, which exec would pass on to the server; with a handler
    # installed here, every child starts with the default disposition,
    # so the graceful SIGINT shutdown of the server works.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    sys.path[:0] = [ROOT, SRC]
    from perfbench import procs, route, serve
    from perfbench.measure import run_record

    procs.adopt_orphans()
    procs.abort_on_signals(DEADLINE_S)
    try:
        outcome = _run(args, route, serve)
    except KeyboardInterrupt as exc:  # SIGINT, or procs.RunAborted
        print(f"perfbench: run aborted: {exc!r}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        procs.reap_all()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              **run_record(), **outcome.record}
    print("perfbench-record " + json.dumps(record, sort_keys=True))
    print(outcome.result_line(bool(args.trace)), flush=True)
    return 0 if outcome.correct else 1


def _run(args, route, serve):
    """The workload in a fresh work directory under the checkout, which
    is removed afterwards."""
    workdir = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(workdir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT, SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = workdir
    try:
        if args.workload == "route-1024":
            return route.run(route.ROUTE_1024, args.seed, args.seconds,
                             bool(args.trace), workdir, env)
        cfg = (serve.SERVE_HOT if args.workload == "serve-hot"
               else serve.WHATIF_100K)
        return serve.run(cfg, args.seed, args.seconds,
                         bool(args.trace), workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
