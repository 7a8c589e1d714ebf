"""Metric names, units and the one-line JSON result of a run."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

#: (name, unit, better) of every end-to-end metric; every run without
#: tracing reports all of them.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("answers_per_cpu_s", "1/s", "higher"),
    ("first_answer_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("label_bits", "bits", "lower"),
    ("answered_share", "ratio", "higher"),
]

#: (name, unit, better) of every per-layer metric; every traced run
#: reports all of them, with 0 for a layer its workload never calls.
PER_LAYER = [
    ("graph.generate_s", "s", "lower"),
    ("sketches.forest_s", "s", "lower"),
    ("sketches.eids_s", "s", "lower"),
    ("sketches.sketches_s", "s", "lower"),
    ("store.save_s", "s", "lower"),
    ("store.snapshot_mb", "MB", "lower"),
    ("store.load_ms", "ms", "lower"),
    ("store.first_query_ms", "ms", "lower"),
    ("serving.first_chunk_ms", "ms", "lower"),
    ("server.ready_s", "s", "lower"),
    ("server.reload_ms", "ms", "lower"),
    ("core.partition_ms", "ms", "lower"),
    ("core.answer_us", "us", "lower"),
    ("protocol.encode_us", "us", "lower"),
    ("protocol.decode_us", "us", "lower"),
    ("server.frontdoor_cpu_us", "us", "lower"),
    ("serving.worker_cpu_us", "us", "lower"),
    ("server.request_ms_mean", "ms", "lower"),
    ("serving.worker_ms_mean", "ms", "lower"),
    ("serving.dispatch_ms_mean", "ms", "lower"),
    ("serving.cache_hit_rate", "ratio", "higher"),
    ("serving.chunk_mean", "count", "higher"),
    ("serving.pool_restarts", "count", "lower"),
    ("server.errors", "count", "lower"),
    ("routing.build_s", "s", "lower"),
    ("routing.route_us", "us", "lower"),
    ("routing.total_hops", "count", "lower"),
    ("routing.reversal_hops", "count", "lower"),
    ("routing.table_bits", "bits", "lower"),
    ("routing.stretch_mean", "ratio", "lower"),
    ("traffic.client_cpu_us", "us", "lower"),
    ("traffic.answers_per_s", "1/s", "higher"),
    ("traffic.p50_ms", "ms", "lower"),
    ("traffic.p99_ms", "ms", "lower"),
    ("host.steal_share", "ratio", "lower"),
    ("obs.trace_overhead", "ratio", "lower"),
    ("quality.failed_share", "ratio", "lower"),
]


def per_layer_defaults() -> dict:
    """Every per-layer metric at 0 (layers a workload does not call)."""
    return {name: 0 for name, _, _ in PER_LAYER}


@dataclass
class Outcome:
    """What one run reports: correctness counts, metric values (by
    name), and the run record printed on the line before the result."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict
    record: dict = field(default_factory=dict)

    def result_line(self, trace: bool) -> str:
        """The last stdout line: exactly the contract's four keys."""
        table = PER_LAYER if trace else END_TO_END
        metrics = {}
        for name, unit, _ in table:
            value = self.metrics[name]
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"metric {name} is not a finite number: {value!r}")
            metrics[name] = {"value": value, "unit": unit}
        return json.dumps({
            "correct": bool(self.correct),
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": metrics,
        })
