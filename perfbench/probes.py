"""Per-layer attribution for the traced run.

Three sources, none of which changes the program:

* :class:`Probe` wraps public entry points from outside
  (``ForecastGateway.submit`` and ``ShardedEngine.submit``) for the
  traced phase only, and restores them afterwards;
* the span tree the engine already emits when given ``tracer=``
  (``llm:ingest``, ``llm:decode_batch``, ``llm:sched_step``), folded into
  per-name *self* time by :func:`self_seconds`;
* the public counters: ``metrics_snapshot()`` and the response and
  output fields every served request carries.

:func:`layer_metrics` turns one traced phase into the ``per_layer``
metrics of ``BENCHMARK.json``.  A layer that does no work on a workload
reports 0.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

from repro.gateway import ForecastGateway
from repro.sharding import ShardedEngine

#: Per-layer metric name → unit, in ``BENCHMARK.json`` order.
LAYER_UNITS = {
    "llm.ingest_ms": "ms",
    "llm.decode_ms": "ms",
    "llm.ingest_us_per_token": "us",
    "llm.decode_us_per_token": "us",
    "llm.ingested_share": "share",
    "llm.ingest_cache_hit_share": "share",
    "llm.batch_occupancy_mean": "streams",
    "llm.dedup_ratio": "share",
    "llm.generated_tokens": "tokens/forecast",
    "scheduling.prefill_tree_hit_share": "share",
    "scheduling.steps": "count/batch",
    "scheduling.step_us": "us",
    "scheduling.queue_wait_ms": "ms",
    "core.scale_ms": "ms",
    "core.multiplex_ms": "ms",
    "core.demultiplex_ms": "ms",
    "core.aggregate_ms": "ms",
    "core.prompt_tokens": "tokens/forecast",
    "serving.service_ms": "ms",
    "serving.queue_wait_ms": "ms",
    "serving.result_cache_hit_share": "share",
    "sharding.roundtrip_ms": "ms",
    "sharding.ipc_ms": "ms",
    "sharding.restarts": "count",
    "sharding.retries": "count",
    "gateway.submit_us": "us",
    "gateway.coalesced_share": "share",
    "gateway.shed_share": "share",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.latency_p95_ms": "ms",
    "loadgen.latency_p99_ms": "ms",
    "observability.trace_overhead_share": "share",
}


class Probe:
    """Times calls into public entry points while installed.

    Use as a context manager around the traced phase: entering replaces
    the class attributes with timing wrappers, leaving puts the originals
    back, so untraced phases run the program untouched.
    """

    def __init__(self) -> None:
        self.submit_seconds: list[float] = []
        #: (supervisor submit → result seconds, worker ``wall_seconds``)
        self.roundtrips: list[tuple[float, float]] = []
        self._restore: list[tuple[type, str, object]] = []

    def __enter__(self) -> "Probe":
        self._patch(ForecastGateway, "submit", self._timed_submit)
        self._patch(ShardedEngine, "submit", self._shard_roundtrip)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _patch(self, owner: type, name: str, make_wrapper) -> None:
        original = owner.__dict__[name]
        setattr(owner, name, functools.wraps(original)(make_wrapper(original)))
        self._restore.append((owner, name, original))

    def _timed_submit(self, original):
        async def submit(gateway, *args, **kwargs):
            started = time.perf_counter()
            try:
                return await original(gateway, *args, **kwargs)
            finally:
                self.submit_seconds.append(time.perf_counter() - started)

        return submit

    def _shard_roundtrip(self, original):
        def submit(engine, *args, **kwargs):
            started = time.perf_counter()
            future = original(engine, *args, **kwargs)

            def done(finished) -> None:
                self.roundtrips.append(
                    (time.perf_counter() - started, finished.result().wall_seconds)
                )

            future.add_done_callback(done)
            return future

        return submit


def self_seconds(roots) -> tuple[dict[str, float], dict[str, int]]:
    """Total self time and span count per span name over ``roots``.

    A span's self time is its duration minus the time its children cover.
    """
    totals: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for root in roots:
        for span in root.walk():
            covered = sum(child.duration for child in span.children)
            totals[span.name] += max(0.0, span.duration - covered)
            counts[span.name] += 1
    return totals, counts


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / denominator if denominator else 0.0


def _counter(snapshot: dict, name: str) -> float:
    return snapshot.get(name, {}).get("value", 0.0)


def layer_metrics(plain, phase, probe: Probe) -> dict[str, float]:
    """The per-layer metrics of a traced phase and its untraced twin.

    ``plain`` and ``phase`` are :class:`workloads.Phase` runs of the same
    inputs, untraced and traced.  Per-forecast figures average over the
    forecasts the engine computed (leaders that missed the result cache).
    ``loadgen.latency_p95_ms`` and ``loadgen.latency_p99_ms`` come from
    the untraced pass, pooled over its requests: they are reported, not
    scored, because on a small shared host their run-to-run spread is
    wider than any bound a gate could use.
    """
    leaders = [s.response for s in phase.served if s.response and not s.coalesced]
    computed = [r.output for r in leaders if r.ok and not r.cache_hit]
    spans, span_counts = self_seconds(phase.roots)
    ingest = spans["llm:ingest"]
    decode = spans["llm:decode_batch"] + spans["llm:sched_step"]
    ingested = sum(o.metadata.get("ingested_tokens", 0) for o in computed)
    generated = sum(o.generated_tokens for o in computed)
    prompt = sum(o.prompt_tokens for o in computed)
    occupancy = [n for o in computed for n in o.metadata.get("batch_occupancy", ())]
    groups = [n for o in computed for n in o.metadata.get("batch_groups", ())]
    trees = [s["prefill_tree"] for s in phase.snapshots if "prefill_tree" in s]
    tree_hits = sum(t["hits"] + t["extends"] for t in trees)
    tree_lookups = tree_hits + sum(t["misses"] for t in trees)
    steps = [s["scheduler"]["steps"] for s in phase.snapshots if "scheduler" in s]
    gateway_total = sum(_counter(s, "gateway_requests_total") for s in phase.snapshots)
    queue_waits = [
        s["gateway_queue_wait_seconds"]["mean"]
        for s in phase.snapshots
        if "gateway_queue_wait_seconds" in s
    ]
    latencies = [s.latency for s in plain.served if s.ok]
    n = len(computed)
    return {
        "llm.ingest_ms": 1e3 * _ratio(ingest, n),
        "llm.decode_ms": 1e3 * _ratio(decode, n),
        "llm.ingest_us_per_token": 1e6 * _ratio(ingest, ingested),
        "llm.decode_us_per_token": 1e6 * _ratio(decode, generated),
        "llm.ingested_share": _ratio(ingested, prompt),
        "llm.ingest_cache_hit_share": _ratio(
            sum(o.metadata.get("ingest") != "miss" for o in computed), n
        ),
        "llm.batch_occupancy_mean": _mean(occupancy),
        "llm.dedup_ratio": _ratio(sum(groups), sum(occupancy)),
        "llm.generated_tokens": _ratio(generated, n),
        "scheduling.prefill_tree_hit_share": _ratio(tree_hits, tree_lookups),
        "scheduling.steps": _mean(steps),
        "scheduling.step_us": 1e6
        * _ratio(spans["llm:sched_step"], span_counts["llm:sched_step"]),
        "scheduling.queue_wait_ms": 1e3
        * _mean(
            o.metadata["queue_wait_seconds"]
            for o in computed
            if "queue_wait_seconds" in o.metadata
        ),
        **{
            f"core.{stage}_ms": 1e3 * _mean(o.timings.get(stage, 0.0) for o in computed)
            for stage in ("scale", "multiplex", "demultiplex", "aggregate")
        },
        "core.prompt_tokens": _ratio(prompt, n),
        "serving.service_ms": 1e3 * _mean(r.wall_seconds for r in leaders),
        "serving.queue_wait_ms": 1e3 * _mean(queue_waits),
        "serving.result_cache_hit_share": _ratio(
            sum(r.cache_hit for r in leaders), len(leaders)
        ),
        "sharding.roundtrip_ms": 1e3 * _mean(trip for trip, _ in probe.roundtrips),
        "sharding.ipc_ms": 1e3
        * _mean(trip - wall for trip, wall in probe.roundtrips),
        "sharding.restarts": sum(_counter(s, "shard_restarts") for s in phase.snapshots),
        "sharding.retries": sum(_counter(s, "shard_retries") for s in phase.snapshots),
        "gateway.submit_us": 1e6 * _mean(probe.submit_seconds),
        "gateway.coalesced_share": _ratio(
            sum(_counter(s, "gateway_coalesced_total") for s in phase.snapshots),
            gateway_total,
        ),
        "gateway.shed_share": _ratio(
            sum(_counter(s, "gateway_shed_total") for s in phase.snapshots),
            gateway_total,
        ),
        "loadgen.lag_p99_ms": 1e3 * float(np.quantile(phase.lags, 0.99)),
        **{
            f"loadgen.latency_p{q}_ms": 1e3 * float(np.quantile(latencies, q / 100))
            for q in (95, 99)
        },
        "observability.trace_overhead_share": phase.work_seconds / plain.work_seconds
        - 1.0,
    }
