"""The sharded engine: fan requests out to decode worker *processes*.

Both execution modes of the serving stack — lockstep batched decoding
and the continuous scheduler — decode inside one Python process, so one GIL is the ceiling on sustained throughput.
:class:`ShardedEngine` is the escape hatch production LLM-serving stacks
take when a single executor saturates: N worker processes (see
:mod:`repro.sharding.worker`), each a complete single-process serving
stack over its own model replicas, behind a supervisor that owns

* **routing** — cache-affine rendezvous hashing of the request's
  :func:`~repro.serving.cache.forecast_digest`
  (:mod:`repro.sharding.routing`), so repeated specs land on the worker
  that already holds their result-cache entry and prefill state;
* **health** — worker deaths are detected via process sentinels; the
  shard is restarted (counted in ``shard_restarts``) and its in-flight
  requests are retried on other shards (bounded attempts, then a typed
  :class:`ShardFailure` error response) — the shared
  :class:`~repro.sharding.SpillStore` directory means the restarted
  worker rehydrates evicted prefill state instead of starting cold;
* **result reassembly** — worker results resolve
  :class:`concurrent.futures.Future` objects in submission order per
  caller, ledger records are enriched with ``shard``/``worker_pid`` and
  written by the one supervisor-side ledger, and supervisor spans
  (``shard:dispatch`` / ``shard:collect``) record placement and attempts.

The engine is a drop-in for :class:`~repro.serving.engine.ForecastEngine`
behind :class:`~repro.gateway.gateway.ForecastGateway` — same
``submit`` / ``forecast`` / ``metrics`` / ``ledger`` surface — and
bit-identical to it under fixed seeds: forecasts are pure functions of
``(history, config, horizon, seed)``, and workers run the exact
single-process code path.  Tests pin this across {batched, continuous} ×
{cold, warm cache} × shard counts.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import shutil
import tempfile
import threading
import time
from collections.abc import Iterable
from concurrent.futures import Future
from multiprocessing import connection

from repro.core.spec import ForecastSpec
from repro.exceptions import ConfigError, ReproError
from repro.observability.ledger import RunLedger, ledger_record, outcome_of
from repro.observability.spans import NULL_TRACER, Span
from repro.serving.cache import forecast_digest
from repro.serving.metrics import MetricsRegistry
from repro.serving.request import ForecastRequest, ForecastResponse
from repro.sharding.routing import KEY_PREFIX, rendezvous_ranking
from repro.sharding.worker import worker_main

__all__ = ["ShardedEngine", "ShardFailure"]


class ShardFailure(ReproError):
    """A request exhausted its attempts because workers kept dying.

    Carries the shards tried and the attempt count; surfaced to callers
    as a failed :class:`~repro.serving.request.ForecastResponse` whose
    ``error`` starts with ``"ShardFailure"``, and to the ledger as an
    ``outcome="failed"`` record.
    """

    def __init__(self, shards_tried: tuple[int, ...], attempts: int) -> None:
        self.shards_tried = shards_tried
        self.attempts = attempts
        super().__init__(
            f"ShardFailure: worker died on shard(s) {list(shards_tried)} "
            f"({attempts} attempt(s) exhausted)"
        )


class _Shard:
    """Supervisor-side bookkeeping for one worker process."""

    def __init__(self, index: int, task_queue) -> None:
        self.index = index
        self.queue = task_queue
        self.process = None
        self.healthy = False
        self.restarts = 0
        self.worker_pid: int | None = None
        self.dispatched_total = 0
        self.inflight = 0


class _Pending:
    """One in-flight request: identity, retry state, and its future."""

    def __init__(
        self,
        request_id: int,
        request: ForecastRequest,
        digest: str,
        future: Future,
        on_progress,
        extra: dict,
        root: Span | None,
    ) -> None:
        self.id = request_id
        self.request = request
        self.digest = digest
        self.future = future
        self.on_progress = on_progress
        self.extra = extra
        self.root = root
        self.attempt = 1
        self.shard: int | None = None
        self.failed_shards: set[int] = set()


class ShardedEngine:
    """Multi-process forecast service: N decode workers, one supervisor.

    Parameters
    ----------
    num_shards:
        Decode worker processes.  Each runs a full
        :class:`~repro.serving.engine.ForecastEngine`; sizing guidance
        lives in ``docs/SERVING.md`` ("Scaling out").
    start_method:
        ``multiprocessing`` start method; ``"spawn"`` (default) is safe
        alongside the supervisor's threads, ``"fork"`` starts faster on
        Linux when no other threads are live yet.
    result_cache_entries / ingest_cache_tokens / max_resident_streams:
        Forwarded to each worker's engine (``0`` disables the respective
        cache, exactly as in-process).
    spill_dir:
        Shared directory of the on-disk ingest spill tier.  ``None``
        creates a private temporary directory (removed on :meth:`close`);
        pass an explicit path to share spill state across engine restarts.
    spill_max_tokens:
        Token budget of the spill tier (``0`` disables spilling).
    max_attempts:
        Total placement attempts per request: after this many worker
        deaths a request resolves to a :class:`ShardFailure` error
        response.
    metrics / tracer / ledger:
        Supervisor-side observability, same contract as
        :class:`~repro.serving.engine.ForecastEngine`.  The ledger gains
        ``shard`` / ``worker_pid`` on every record; the tracer gains
        ``shard:dispatch`` / ``shard:collect`` spans; metrics gain the
        ``shard_*`` family.
    chaos_delay_seconds:
        Failure-injection knob: every worker sleeps this long before
        serving each request, making kill-mid-request tests
        deterministic.  Leave at 0.0 in production.
    """

    def __init__(
        self,
        num_shards: int = 2,
        *,
        start_method: str = "spawn",
        result_cache_entries: int = 128,
        ingest_cache_tokens: int = 262_144,
        max_resident_streams: int = 64,
        spill_dir: str | None = None,
        spill_max_tokens: int = 1_048_576,
        max_attempts: int = 2,
        metrics: MetricsRegistry | None = None,
        tracer=None,
        ledger: RunLedger | str | None = None,
        chaos_delay_seconds: float = 0.0,
    ) -> None:
        if num_shards < 1:
            raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
        if max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {max_attempts}")
        self.num_shards = num_shards
        self.max_attempts = max_attempts
        self.metrics = metrics or MetricsRegistry()
        self.tracer = NULL_TRACER if tracer is None else tracer
        if ledger is None or isinstance(ledger, RunLedger):
            self.ledger = ledger
        else:
            self.ledger = RunLedger(ledger)
        self._owns_spill_dir = spill_dir is None
        if spill_dir is None and spill_max_tokens > 0:
            spill_dir = tempfile.mkdtemp(prefix="multicast-spill-")
        self.spill_dir = spill_dir
        self._options = {
            "result_cache_entries": int(result_cache_entries),
            "ingest_cache_tokens": int(ingest_cache_tokens),
            "max_resident_streams": int(max_resident_streams),
            "spill_dir": spill_dir if spill_max_tokens > 0 else None,
            "spill_max_tokens": int(spill_max_tokens),
            "chaos_delay_seconds": float(chaos_delay_seconds),
        }
        self._ctx = multiprocessing.get_context(start_method)
        self._results = self._ctx.Queue()
        self._lock = threading.Lock()
        self._pending: dict[int, _Pending] = {}
        self._next_id = 0
        self._closing = False
        self._closed = False
        self._shards = [_Shard(index, self._ctx.Queue()) for index in range(num_shards)]
        for shard in self._shards:
            self._spawn(shard)
        self._collector = threading.Thread(
            target=self._collect_loop, name="shard-collect", daemon=True
        )
        self._health = threading.Thread(
            target=self._health_loop, name="shard-health", daemon=True
        )
        self._collector.start()
        self._health.start()

    # -- lifecycle ------------------------------------------------------------

    def _spawn(self, shard: _Shard) -> None:
        if self._closing:
            return
        process = self._ctx.Process(
            target=worker_main,
            args=(shard.index, self._options, shard.queue, self._results),
            name=f"mc-shard-{shard.index}",
            daemon=True,
        )
        process.start()
        shard.process = process
        shard.healthy = True

    def close(self) -> None:
        """Stop every worker; unfinished requests resolve as failed."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._closing = True
            leftovers = list(self._pending.values())
            self._pending.clear()
        for shard in self._shards:
            try:
                shard.queue.put({"kind": "stop"})
            except (OSError, ValueError):
                pass
        for shard in self._shards:
            process = shard.process
            if process is None:
                continue
            try:
                process.join(timeout=10)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5)
            except (AssertionError, ValueError):
                pass  # process object raced a restart; daemon flag reaps it
        self._collector.join(timeout=5)
        self._health.join(timeout=5)
        for pending in leftovers:
            if not pending.future.done():
                pending.future.set_result(
                    ForecastResponse(
                        pending.request, error="engine closed before completion"
                    )
                )
        self._results.close()
        self._results.cancel_join_thread()
        for shard in self._shards:
            shard.queue.close()
            shard.queue.cancel_join_thread()
        if self._owns_spill_dir and self.spill_dir:
            shutil.rmtree(self.spill_dir, ignore_errors=True)

    def __enter__(self) -> "ShardedEngine":
        """Enter ``with``: the engine itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Exit ``with``: close every worker."""
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigError("engine is closed")

    # -- public API -----------------------------------------------------------

    @staticmethod
    def _coerce(request: ForecastRequest | ForecastSpec) -> ForecastRequest:
        if isinstance(request, ForecastSpec):
            return ForecastRequest.from_spec(request)
        return request

    def forecast(
        self,
        request: ForecastRequest | ForecastSpec,
        *,
        on_progress=None,
        ledger_extra: dict | None = None,
    ) -> ForecastResponse:
        """Serve one request, blocking until its shard returns the result."""
        return self.submit(
            request, on_progress=on_progress, ledger_extra=ledger_extra
        ).result()

    def submit(
        self,
        request: ForecastRequest | ForecastSpec,
        *,
        on_progress=None,
        ledger_extra: dict | None = None,
    ) -> Future:
        """Route a request to its shard; returns a Future of the response.

        Same hooks as :meth:`ForecastEngine.submit`: ``on_progress`` is
        relayed from the worker as the ensemble's streams complete, and
        ``ledger_extra`` carries the gateway's admission metadata into the
        worker's ledger record (``enqueued_at`` is converted to
        ``gateway_queue_wait_seconds`` supervisor-side, since
        ``time.perf_counter`` readings do not transfer across processes).
        """
        self._check_open()
        request = self._coerce(request)
        extra = dict(ledger_extra) if ledger_extra else {}
        enqueued_at = extra.pop("enqueued_at", None)
        if enqueued_at is not None:
            queue_wait = time.perf_counter() - enqueued_at
            extra["gateway_queue_wait_seconds"] = queue_wait
            self.metrics.histogram("gateway_queue_wait_seconds").observe(queue_wait)
        digest = forecast_digest(
            request.history, request.config, request.horizon, request.seed
        )
        root = None
        if self.tracer.enabled:
            root = Span(
                "request",
                {
                    "request_name": request.name or "",
                    "scheme": request.config.scheme,
                    "horizon": int(request.horizon),
                    "seed": int(request.effective_seed),
                    "digest": digest[:KEY_PREFIX],
                },
            )
        future: Future = Future()
        with self._lock:
            self._next_id += 1
            pending = _Pending(
                self._next_id, request, digest, future, on_progress, extra, root
            )
            self._pending[pending.id] = pending
            self._dispatch_locked(pending)
        self.metrics.counter("shard_requests_total").inc()
        return future

    def forecast_batch(
        self, requests: Iterable[ForecastRequest | ForecastSpec]
    ) -> list[ForecastResponse]:
        """Serve many requests across the shards; responses in request order."""
        futures = [self.submit(request) for request in requests]
        return [future.result() for future in futures]

    def metrics_snapshot(self) -> dict:
        """Supervisor metrics plus a per-shard health/occupancy section."""
        snapshot = self.metrics.snapshot()
        with self._lock:
            snapshot["shards"] = {
                str(shard.index): {
                    "type": "shard",
                    "healthy": shard.healthy,
                    "restarts": shard.restarts,
                    "inflight": shard.inflight,
                    "dispatched_total": shard.dispatched_total,
                    "worker_pid": shard.worker_pid,
                }
                for shard in self._shards
            }
        return snapshot

    # -- routing --------------------------------------------------------------

    def _dispatch_locked(self, pending: _Pending) -> None:
        """Place one pending request on its rendezvous-winning shard.

        Caller holds ``self._lock``.  Shards that already failed this
        request are excluded while an alternative exists, so a retry never
        returns to the worker that just died under it.
        """
        healthy = [shard.index for shard in self._shards if shard.healthy]
        candidates = [
            index for index in healthy if index not in pending.failed_shards
        ]
        if not candidates:
            candidates = healthy or [shard.index for shard in self._shards]
        target = rendezvous_ranking(pending.digest, candidates)[0]
        shard = self._shards[target]
        pending.shard = target
        shard.dispatched_total += 1
        shard.inflight += 1
        self.metrics.gauge(f"shard_{target}_inflight").set(shard.inflight)
        if pending.root is not None:
            dispatch = Span(
                "shard:dispatch", {"shard": target, "attempt": pending.attempt}
            )
            dispatch.finish()
            pending.root.children.append(dispatch)
        shard.queue.put(
            {
                "kind": "request",
                "id": pending.id,
                "request": pending.request,
                "ledger_extra": pending.extra or None,
            }
        )

    # -- result collection ----------------------------------------------------

    def _collect_loop(self) -> None:
        while not self._closing:
            try:
                message = self._results.get(timeout=0.1)
            except (queue_module.Empty, OSError, ValueError):
                continue
            kind = message.get("kind")
            if kind == "ready":
                with self._lock:
                    shard = self._shards[message["shard"]]
                    shard.worker_pid = message["worker_pid"]
            elif kind == "progress":
                with self._lock:
                    pending = self._pending.get(message["id"])
                callback = pending.on_progress if pending else None
                if callback is not None:
                    try:
                        callback(message["completed"], message["requested"])
                    except Exception:  # noqa: BLE001 - advisory hook
                        pass
            elif kind == "result":
                self._finish(message)

    def _finish(self, message: dict) -> None:
        with self._lock:
            pending = self._pending.pop(message["id"], None)
            if pending is not None and pending.shard is not None:
                shard = self._shards[pending.shard]
                shard.inflight = max(0, shard.inflight - 1)
                self.metrics.gauge(f"shard_{pending.shard}_inflight").set(
                    shard.inflight
                )
        if pending is None:
            return  # duplicate after a crash-retry raced a late result
        attempts = max(int(message["attempts"]), pending.attempt)
        response = ForecastResponse(
            pending.request,
            output=message["output"],
            error=message["error"],
            cache_hit=message["cache_hit"],
            partial=message["partial"],
            attempts=attempts,
            wall_seconds=message["wall_seconds"],
        )
        if pending.root is not None:
            collect = Span(
                "shard:collect",
                {
                    "shard": message["shard"],
                    "worker_pid": message["worker_pid"],
                    "attempt": pending.attempt,
                },
            )
            collect.finish()
            pending.root.children.append(collect)
            pending.root.set_attribute("outcome", outcome_of(response))
            pending.root.finish()
            self.tracer.collector.add(pending.root)
            response.trace = pending.root
        self.metrics.histogram("shard_request_seconds").observe(
            float(message["wall_seconds"])
        )
        record = message.get("record")
        if record is not None and self.ledger is not None:
            record["shard"] = message["shard"]
            record["worker_pid"] = message["worker_pid"]
            record["attempts"] = attempts
            self.ledger.append(record)
        pending.future.set_result(response)

    # -- health ---------------------------------------------------------------

    def _health_loop(self) -> None:
        while not self._closing:
            with self._lock:
                try:
                    sentinels = {
                        shard.process.sentinel: shard
                        for shard in self._shards
                        if shard.healthy and shard.process is not None
                    }
                except ValueError:
                    continue  # a process object was closed mid-snapshot
            if not sentinels:
                time.sleep(0.05)
                continue
            try:
                dead = connection.wait(list(sentinels), timeout=0.2)
            except OSError:
                continue
            for sentinel in dead:
                if self._closing:
                    return
                self._handle_death(sentinels[sentinel])

    def _handle_death(self, shard: _Shard) -> None:
        """Restart a dead worker and retry its in-flight requests elsewhere."""
        failures: list[_Pending] = []
        with self._lock:
            if self._closing or not shard.healthy:
                return
            shard.healthy = False
            shard.restarts += 1
            shard.inflight = 0
            self.metrics.gauge(f"shard_{shard.index}_inflight").set(0)
            orphans = [
                pending
                for pending in self._pending.values()
                if pending.shard == shard.index
            ]
            for pending in orphans:
                pending.failed_shards.add(shard.index)
                pending.attempt += 1
                if pending.attempt > self.max_attempts:
                    del self._pending[pending.id]
                    failures.append(pending)
                else:
                    self.metrics.counter("shard_retries").inc()
                    self._dispatch_locked(pending)
        self.metrics.counter("shard_restarts").inc()
        for pending in failures:
            self._fail(pending)
        # Respawn last: retries have already been placed on *other* shards,
        # so cache affinity cannot route them straight back to the crash.
        try:
            self._spawn(shard)
        except OSError:
            pass  # out of processes: the shard stays unhealthy, routing skips it

    def _fail(self, pending: _Pending) -> None:
        """Resolve a retries-exhausted request as a typed shard failure."""
        attempts_tried = pending.attempt - 1  # the final increment never ran
        failure = ShardFailure(tuple(sorted(pending.failed_shards)), attempts_tried)
        self.metrics.counter("shard_failures").inc()
        response = ForecastResponse(
            pending.request, error=str(failure), attempts=attempts_tried
        )
        if pending.root is not None:
            pending.root.set_attribute("outcome", "failed")
            pending.root.set_attribute("error", str(failure))
            pending.root.finish()
            self.tracer.collector.add(pending.root)
            response.trace = pending.root
        if self.ledger is not None:
            record = ledger_record(
                pending.request,
                pending.digest,
                "failed",
                admission=pending.extra.get("admission", "direct"),
                gateway_queue_wait_seconds=pending.extra.get(
                    "gateway_queue_wait_seconds"
                ),
                attempts=attempts_tried,
                error=str(failure),
            )
            record["shard"] = None
            record["worker_pid"] = None
            self.ledger.append(record)
        pending.future.set_result(response)

    def __repr__(self) -> str:
        with self._lock:
            healthy = sum(1 for shard in self._shards if shard.healthy)
            inflight = len(self._pending)
        return (
            f"ShardedEngine(shards={self.num_shards}, healthy={healthy}, "
            f"inflight={inflight}, pid={os.getpid()})"
        )
