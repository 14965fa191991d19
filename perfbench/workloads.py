"""The benchmark's workloads: set-up, timed phase, correctness check.

``serve_miss``
    Open loop at a fixed 6 rps through ``ForecastGateway`` → in-process
    ``ForecastEngine``.  Every request is a distinct 2-d history on
    llama2-7b-sim (DI, batched, 5 samples), so nothing is reused and LM
    ingest and decode dominate.
``serve_hot_sharded``
    Open loop at a fixed 100 rps through ``ForecastGateway`` →
    ``ShardedEngine(num_shards=1)``, uniform-sim over 50 repeating shapes
    and 3 tenants: almost every request is a result-cache hit or a
    coalesced follower, so admission, coalescing and the shard round trip
    dominate.
``backtest_prefix``
    Offline: rolling-origin windows of 16 long 2-d series, all submitted at
    once to a ``ForecastEngine`` with ``execution="continuous"``, repeated
    on a fresh engine until the run time is used.  Each window's prompt
    extends the previous one's, so the radix prefill tree both deposits
    and reuses state.

Each workload returns a :class:`Result`.  With tracing off it carries the
end-to-end metrics; with tracing on it runs the same inputs twice, once
plain and once traced, and carries the per-layer metrics of the traced
pass.  Either way every response is checked before a number is reported.
"""

from __future__ import annotations

import asyncio
import functools
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import inputs
from probes import Probe, layer_metrics
from repro.core import MultiCastForecaster
from repro.gateway import ForecastGateway, Overloaded, QuotaExceeded
from repro.observability import SpanCollector, Tracer
from repro.serving import ForecastEngine, ForecastResponse
from repro.sharding import ShardedEngine

# Offered load is fixed, never derived from measured capacity, so a faster
# build is offered the same work as a slower one.
MISS_RATE = 6.0  # rps: ~40% of one in-process engine on a 2-core host
HOT_RATE = 100.0  # rps: under a quarter of one shard's capacity on a 2-core host

# Open-loop latency percentiles are taken per window and the median over
# windows is reported.  A window holds 30 requests at 6 rps and 200
# (twenty beyond the p90) at 100 rps.
MISS_WINDOW = 5.0
HOT_WINDOW = 2.0

# Latency limits scored by ``deadline_hit_share``.  They are applied when
# scoring only and never passed to the engine, so the work done is the same.
MISS_LIMIT = 0.5
HOT_LIMIT = 0.1
BACKTEST_LIMIT = 15.0

BACKTEST_CONCURRENCY = 8  # request threads of the backtest engine
MAX_PENDING = 256  # gateway admission bound, far above either open loop's need
SETUPS = 7  # set-ups per run; setup_s is their median
CHECKED = 6  # distinct specs re-run through a fresh forecaster per run

#: End-to-end metric name → unit, in ``BENCHMARK.json`` order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "deadline_hit_share": "share",
    "ok_share": "share",
    "throughput_rps": "1/s",
    "forecast_rmse": "1",
    "simulated_s_per_forecast": "s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """The workload could not produce a measurement."""


@dataclass
class Served:
    """One attempted request: when it was due, when it ended, what came back.

    ``response`` stays None when the gateway refused the request.
    ``window`` numbers the stretch of the run the request belongs to: a
    fixed slice of an open loop, or one offline batch.
    """

    item: inputs.Item
    due: float
    window: int
    done: float | None = None
    response: ForecastResponse | None = None
    coalesced: bool = False

    @property
    def ok(self) -> bool:
        """Served complete: a forecast from every requested sample."""
        response = self.response
        return response is not None and response.ok and not response.partial

    @property
    def latency(self) -> float:
        """Seconds from the due time to completion."""
        return self.done - self.due


@dataclass(repr=False)
class Phase:
    """Everything one timed phase recorded.

    Not repr'd: ``asyncio.run`` can format the result of its main task,
    which would render every response.
    """

    served: list[Served]
    lags: list[float]  # how late each request was sent, seconds
    snapshots: list[dict]  # metrics_snapshot() of each engine used
    throughputs: list[float]  # completed forecasts per wall second, per pass
    work_seconds: float  # time the work took; traced vs untraced overhead
    roots: list = field(default_factory=list)  # span roots (traced only)


@dataclass
class Result:
    """What a workload run reports."""

    metrics: dict[str, float]
    served: list[Served]
    problems: list[str]
    runs: dict[str, int]


# -- measurement helpers -------------------------------------------------------


def _tracer() -> Tracer:
    return Tracer(SpanCollector(max_spans=10**7))


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    kilobytes = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kilobytes / 1024.0


def _first_per_spec(served: list[Served]) -> list[Served]:
    """The first ok record of each distinct spec, in arrival order."""
    seen: dict[int, Served] = {}
    for record in served:
        if record.ok:
            seen.setdefault(id(record.item.spec), record)
    return list(seen.values())


def end_to_end(phase: Phase, setups: list[float], limit: float) -> dict[str, float]:
    """The end-to-end metrics of one untraced phase.

    Latency percentiles are taken per window (see :class:`Served`) and the
    median over windows is reported, so a stall of the shared host moves
    the windows it falls in rather than the whole run.  The tail reported
    is the p90: on ``serve_miss`` about one request in 25 meets a full
    garbage collection, so a p95 sits on that knee and flips between runs.

    ``forecast_rmse`` is the mean over distinct specs of each forecast's
    RMSE against the held-out continuation, as
    ``BacktestResult.mean_rmse`` averages windows.
    """
    ok = [record for record in phase.served if record.ok]
    if not ok:
        raise BenchmarkError("no request was served")
    windows: dict[int, list[float]] = {}
    for record in ok:
        windows.setdefault(record.window, []).append(record.latency)
    p50, p90 = 1e3 * np.median(
        [np.quantile(latencies, [0.5, 0.9]) for latencies in windows.values()],
        axis=0,
    )
    distinct = _first_per_spec(phase.served)
    rmse = [
        math.sqrt(np.mean((r.response.output.values - r.item.actual) ** 2))
        for r in distinct
    ]
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": float(p50),
        "latency_p90_ms": float(p90),
        "deadline_hit_share": sum(r.latency <= limit for r in ok) / len(phase.served),
        "ok_share": len(ok) / len(phase.served),
        "throughput_rps": statistics.median(phase.throughputs),
        "forecast_rmse": float(np.mean(rmse)),
        "simulated_s_per_forecast": float(
            np.mean([r.response.output.simulated_seconds for r in distinct])
        ),
        "peak_rss_mb": _peak_rss_mb(),
    }


def check(served: list[Served]) -> list[str]:
    """Problems with the responses; an empty list means all are correct.

    Every attempt must have ended.  Every ok response must be finite and
    shaped like its held-out continuation, and all responses to one spec
    must be byte-identical.  :data:`CHECKED` distinct specs, evenly spaced
    in arrival order, are re-run through a fresh ``MultiCastForecaster``
    with batched execution and must match byte for byte, which pins
    sharded = in-process and continuous = batched.
    """
    problems: list[str] = []
    first: dict[int, tuple[bytes, Served]] = {}
    for index, record in enumerate(served):
        if record.done is None:
            problems.append(f"request {index} never completed")
            continue
        if not record.ok:
            continue
        output = record.response.output
        if output.values.shape != record.item.actual.shape or not (
            np.isfinite(output.values).all() and np.isfinite(output.samples).all()
        ):
            problems.append(f"request {index}: non-finite or mis-shaped forecast")
            continue
        digest = output.values.tobytes() + output.samples.tobytes()
        earlier = first.setdefault(id(record.item.spec), (digest, record))
        if digest != earlier[0]:
            problems.append(f"request {index} differs from an earlier identical one")
    distinct = list(first.values())
    for digest, record in distinct[:: max(1, len(distinct) // CHECKED)][:CHECKED]:
        spec = record.item.spec.replace(execution="batched")
        reference = MultiCastForecaster().forecast(spec)
        if digest != reference.values.tobytes() + reference.samples.tobytes():
            problems.append(f"{spec!r} differs from a fresh forecast")
    return problems


# -- open-loop serving ---------------------------------------------------------


async def _complete(gateway: ForecastGateway, handle, record: Served) -> None:
    record.response = await gateway.result(handle)
    record.done = time.perf_counter()


async def _open_loop(
    gateway: ForecastGateway, items: list[inputs.Item], rate: float, window: float
) -> tuple[list[Served], list[float]]:
    """Send ``items`` at a fixed ``rate``; time each from its due time.

    Request ``i`` is due ``i / rate`` seconds after the start and belongs
    to window ``i // (rate * window)``.

    The loop always yields before sending, even when it is behind, so
    completions are stamped as they happen; a stall still counts against
    every later request because latency runs from the due time, not from
    the moment the request was sent.
    """
    start = time.perf_counter() + 0.01
    per_window = rate * window
    served: list[Served] = []
    lags: list[float] = []
    waiters = []
    for index, item in enumerate(items):
        due = start + index / rate
        await asyncio.sleep(max(0.0, due - time.perf_counter()))
        lags.append(time.perf_counter() - due)
        record = Served(item, due, int(index // per_window))
        served.append(record)
        try:
            handle = await gateway.submit(item.spec, tenant=item.tenant)
        except (Overloaded, QuotaExceeded):
            record.done = time.perf_counter()
            continue
        record.coalesced = handle.coalesced
        waiters.append(asyncio.create_task(_complete(gateway, handle, record)))
    await asyncio.gather(*waiters)
    return served, lags


async def _serve(make_engine, items, warmup, rate, window, probe: Probe | None = None):
    """Set up one engine behind a gateway, run the open loop, close it.

    Returns the set-up seconds (constructor call to the warm-up response)
    and the phase.  With ``probe`` the engine is traced and the probe is
    installed for the open loop only.
    """
    tracer = _tracer() if probe else None
    started = time.perf_counter()
    engine = make_engine(tracer)
    gateway = ForecastGateway(engine, max_pending=MAX_PENDING)
    try:
        warm = await gateway.result(await gateway.submit(warmup.spec))
        setup = time.perf_counter() - started
        if not warm.ok:
            raise BenchmarkError(f"warm-up request failed: {warm.error}")
        if probe is None:
            served, lags = await _open_loop(gateway, items, rate, window)
        else:
            tracer.collector.drain()
            with probe:
                served, lags = await _open_loop(gateway, items, rate, window)
        snapshot = engine.metrics_snapshot()
    finally:
        await gateway.close()
        engine.close()
    ok = [record for record in served if record.ok]
    phase = Phase(
        served=served,
        lags=lags,
        snapshots=[snapshot],
        throughputs=(
            [len(ok) / (max(r.done for r in served) - served[0].due)] if ok else []
        ),
        work_seconds=float(np.mean([r.latency for r in ok])) if ok else 0.0,
        roots=tracer.collector.drain() if tracer else [],
    )
    return setup, phase


def _serving(
    make_engine, make_items, warmup, rate, window, limit, seconds, trace
) -> Result:
    serve = functools.partial(_serve, make_engine, warmup=warmup, rate=rate, window=window)
    if not trace:
        items = make_items(max(1, round(rate * seconds)))
        setups = [asyncio.run(serve([]))[0] for _ in range(SETUPS - 1)]
        setup, phase = asyncio.run(serve(items))
        return Result(
            metrics=end_to_end(phase, setups + [setup], limit),
            served=phase.served,
            problems=check(phase.served),
            runs={"setups": SETUPS, "requests": len(items)},
        )
    items = make_items(max(1, round(rate * seconds / 2)))
    _, plain = asyncio.run(serve(items))
    probe = Probe()
    _, traced = asyncio.run(serve(items, probe=probe))
    return _traced_result(plain, traced, probe, {"requests": len(items)})


def _traced_result(plain: Phase, traced: Phase, probe: Probe, runs) -> Result:
    served = plain.served + traced.served
    return Result(
        metrics=layer_metrics(plain, traced, probe),
        served=served,
        problems=check(served),
        runs={"phases": 2, **runs},
    )


def _in_process(tracer) -> ForecastEngine:
    return ForecastEngine(tracer=tracer)


def _one_shard(tracer) -> ShardedEngine:
    return ShardedEngine(num_shards=1, tracer=tracer)


def serve_miss(seed: int, seconds: float, trace: bool) -> Result:
    """Distinct llama2-7b-sim requests, open loop, in-process engine."""
    return _serving(
        _in_process,
        functools.partial(inputs.miss_items, seed),
        inputs.miss_warmup(),
        MISS_RATE,
        MISS_WINDOW,
        MISS_LIMIT,
        seconds,
        trace,
    )


def serve_hot_sharded(seed: int, seconds: float, trace: bool) -> Result:
    """Repeating uniform-sim requests, open loop, one shard worker."""
    return _serving(
        _one_shard,
        functools.partial(inputs.hot_items, seed),
        inputs.hot_warmup(),
        HOT_RATE,
        HOT_WINDOW,
        HOT_LIMIT,
        seconds,
        trace,
    )


# -- offline backtest ----------------------------------------------------------


def _backtest_engine(tracer=None) -> ForecastEngine:
    return ForecastEngine(max_concurrent_requests=BACKTEST_CONCURRENCY, tracer=tracer)


def _backtest_setup(warmup: inputs.Item) -> float:
    """Seconds from the engine constructor to the first warm-up forecast."""
    started = time.perf_counter()
    engine = _backtest_engine()
    try:
        response = engine.forecast(warmup.spec)
        elapsed = time.perf_counter() - started
    finally:
        engine.close()
    if not response.ok:
        raise BenchmarkError(f"warm-up request failed: {response.error}")
    return elapsed


def _stamp(record: Served, future) -> None:
    record.done = time.perf_counter()


def _backtest_phase(items, seconds: float, tracer=None) -> Phase:
    """Submit every window at once to a fresh engine; repeat for ``seconds``."""
    served: list[Served] = []
    lags: list[float] = []
    snapshots: list[dict] = []
    throughputs: list[float] = []
    walls: list[float] = []
    ends = time.perf_counter() + seconds
    while not walls or time.perf_counter() < ends:
        engine = _backtest_engine(tracer)
        try:
            due = time.perf_counter()
            batch = []
            for item in items:
                record = Served(item, due, len(walls))
                future = engine.submit(item.spec)
                future.add_done_callback(functools.partial(_stamp, record))
                lags.append(time.perf_counter() - due)
                batch.append((record, future))
            for record, future in batch:
                record.response = future.result()
            snapshots.append(engine.metrics_snapshot())
        finally:
            engine.close()
        records = [record for record, _ in batch]
        wall = max(record.done for record in records) - due
        walls.append(wall)
        throughputs.append(sum(record.ok for record in records) / wall)
        served.extend(records)
    return Phase(
        served=served,
        lags=lags,
        snapshots=snapshots,
        throughputs=throughputs,
        work_seconds=statistics.median(walls),
        roots=tracer.collector.drain() if tracer else [],
    )


def backtest_prefix(seed: int, seconds: float, trace: bool) -> Result:
    """Rolling-origin windows submitted at once, continuous execution."""
    items = inputs.backtest_items(seed)
    if not trace:
        setups = [_backtest_setup(inputs.backtest_warmup()) for _ in range(SETUPS)]
        phase = _backtest_phase(items, seconds)
        return Result(
            metrics=end_to_end(phase, setups, BACKTEST_LIMIT),
            served=phase.served,
            problems=check(phase.served),
            runs={"setups": SETUPS, "batches": len(phase.snapshots)},
        )
    plain = _backtest_phase(items, seconds / 2)
    traced = _backtest_phase(items, seconds / 2, _tracer())
    # No gateway or shard here: the probe stays empty and those layers read 0.
    return _traced_result(plain, traced, Probe(), {"batches": len(traced.snapshots)})


WORKLOADS = {
    "serve_miss": serve_miss,
    "serve_hot_sharded": serve_hot_sharded,
    "backtest_prefix": backtest_prefix,
}
