"""The concurrent forecast engine.

The engine turns :class:`MultiCastForecaster` — a single-threaded library
object — into a service: requests are accepted concurrently on a request
pool, and each request's ``num_samples`` constrained continuations decode
in lockstep, either through one :class:`~repro.llm.batch.BatchedDecoder`
pass per request (``execution="batched"``, the default) or by joining the
engine's *shared* cross-request decode loop (``execution="continuous"``, a
:class:`~repro.scheduling.ContinuousScheduler`; see
``benchmarks/bench_scheduler.py``).  Both executions resolve prompts
through one :class:`~repro.scheduling.RadixPrefillTree`, so requests with
repeated or overlapping histories dedupe their prompt ingest whichever
execution they ask for.  The serving policies — result cache,
deadline and retry — wrap the pipeline without touching its numerics:

* **Retry** is per request.  A forecast is a pure function of its spec and
  seed, so a transient :class:`~repro.exceptions.GenerationError` re-runs
  the whole forecast under :class:`~repro.serving.policy.RetryPolicy`, and
  the retried result is byte-identical to a first-try success.
  ``ForecastResponse.attempts`` is the number of request attempts.
* **Deadlines** are polled between decode steps.  A request still decoding
  when its deadline expires fails with a ``deadline of …s exceeded``
  error; a deadline stop is never retried.

Determinism is preserved end to end: the forecaster derives one child seed
per sample *before* decoding and every stream samples from its own
``numpy.random.Generator``, so an engine forecast is bit-identical to a
plain ``MultiCastForecaster.forecast`` under the same seed (a property the
test suite asserts).

Observability is opt-in and zero-cost when off: pass a
:class:`~repro.observability.Tracer` to get one ``request`` span per served
forecast (the pipeline's ``forecast``/``stage:*``/``llm:*`` spans nest
beneath it), and a :class:`~repro.observability.RunLedger` to append one
JSONL record per forecast — config hash, seed, outcome
``ok|partial|failed``, latency, token counts, span tree — for post-hoc
analysis with ``repro-multicast ledger summarize``.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable
from concurrent.futures import Future, ThreadPoolExecutor

from repro.core.forecaster import MultiCastForecaster
from repro.core.spec import ForecastSpec
from repro.exceptions import ConfigError, ReproError
from repro.observability.ledger import RunLedger, ledger_record, outcome_of
from repro.observability.spans import NULL_TRACER, Span
from repro.scheduling import ContinuousScheduler, RadixPrefillTree
from repro.serving.cache import ForecastCache, forecast_digest
from repro.serving.metrics import MetricsRegistry
from repro.serving.policy import Deadline, RetryPolicy
from repro.serving.request import ForecastRequest, ForecastResponse

__all__ = ["ForecastEngine"]


class ForecastEngine:
    """Concurrent forecast service over the MultiCast pipeline.

    Parameters
    ----------
    cache:
        Result cache; defaults to a 128-entry LRU.  Pass
        ``ForecastCache(max_entries=0)`` to disable caching entirely.
    retry:
        Per-request retry policy for transient
        :class:`~repro.exceptions.GenerationError` failures.
    metrics:
        Metrics registry; defaults to a fresh private one, exposed as
        ``engine.metrics``.
    max_concurrent_requests:
        Request-orchestration pool size used by :meth:`submit` /
        :meth:`forecast_batch`.
    max_resident_streams:
        Admission cap of the shared continuous scheduler: total live
        decode streams across all resident ``execution="continuous"``
        requests.  Requests beyond the cap queue FIFO (the head is always
        admitted when nothing is resident, so wide requests still run).
    prefill_tree:
        Shared :class:`~repro.scheduling.RadixPrefillTree` reusing
        prompt-ingest state across requests of both executions: repeated
        prompts fork a stored prefill, extended histories (rolling
        windows) and prompts sharing a prefix advance only their own
        suffix.  Defaults to an enabled tree; pass
        ``RadixPrefillTree(max_tokens=0)`` to disable.  Unlike the result
        cache it never short-circuits sampling, so it also accelerates
        requests with different seeds over the same prompt.
    tracer:
        Optional :class:`~repro.observability.Tracer`; defaults to the
        no-op tracer (zero overhead, bit-identical results).  When set,
        every request's span tree is attached to its response as
        ``response.trace``.
    ledger:
        Optional :class:`~repro.observability.RunLedger` (or a path,
        coerced to one); when set, one JSONL record is appended per served
        request — including cache hits and failures.

    Example
    -------
    >>> from repro.serving import ForecastEngine, ForecastRequest
    >>> with ForecastEngine() as engine:
    ...     response = engine.forecast(ForecastRequest(history, horizon=8))
    """

    def __init__(
        self,
        *,
        cache: ForecastCache | None = None,
        retry: RetryPolicy | None = None,
        metrics: MetricsRegistry | None = None,
        max_concurrent_requests: int = 2,
        max_resident_streams: int = 64,
        prefill_tree: RadixPrefillTree | None = None,
        tracer=None,
        ledger: RunLedger | str | None = None,
        sleep=time.sleep,
    ) -> None:
        if max_concurrent_requests < 1:
            raise ConfigError(
                f"max_concurrent_requests must be >= 1, "
                f"got {max_concurrent_requests}"
            )
        if max_resident_streams < 1:
            raise ConfigError(
                f"max_resident_streams must be >= 1, got {max_resident_streams}"
            )
        self.cache = ForecastCache() if cache is None else cache
        self.retry = retry or RetryPolicy()
        self.metrics = metrics or MetricsRegistry()
        self.tracer = NULL_TRACER if tracer is None else tracer
        if ledger is None or isinstance(ledger, RunLedger):
            self.ledger = ledger
        else:
            self.ledger = RunLedger(ledger)
        self._sleep = sleep
        self._requests = ThreadPoolExecutor(
            max_workers=max_concurrent_requests, thread_name_prefix="mc-request"
        )
        self.prefill_tree = (
            RadixPrefillTree() if prefill_tree is None else prefill_tree
        )
        self.max_resident_streams = max_resident_streams
        self._scheduler: ContinuousScheduler | None = None
        self._scheduler_lock = threading.Lock()
        self._closed = False

    # -- public API -----------------------------------------------------------

    def forecast(
        self,
        request: ForecastRequest | ForecastSpec,
        *,
        on_progress=None,
        ledger_extra: dict | None = None,
    ) -> ForecastResponse:
        """Serve one request on the calling thread.

        Accepts a :class:`ForecastRequest` or, directly, an executable
        :class:`~repro.core.spec.ForecastSpec` (wrapped via
        :meth:`ForecastRequest.from_spec` with default serving options).

        ``on_progress`` is an optional ``(completed, requested)`` callable,
        called once per completed stream — ``(1, S)`` … ``(S, S)`` — when
        the ensemble's decode returns; the gateway uses it to stream
        progress.  It is advisory: a callback that raises is dropped,
        never the forecast.  ``ledger_extra`` carries admission metadata
        (``tenant``, ``admission``, ``enqueued_at``) from the gateway into
        the request span and ledger record; neither affects the forecast.
        """
        self._check_open()
        return self._execute(self._coerce(request), on_progress, ledger_extra)

    def submit(
        self,
        request: ForecastRequest | ForecastSpec,
        *,
        on_progress=None,
        ledger_extra: dict | None = None,
    ) -> Future:
        """Enqueue a request (or spec); returns a Future of :class:`ForecastResponse`.

        Accepts the same ``on_progress``/``ledger_extra`` hooks as
        :meth:`forecast`.
        """
        self._check_open()
        return self._requests.submit(
            self._execute, self._coerce(request), on_progress, ledger_extra
        )

    @staticmethod
    def _coerce(request: ForecastRequest | ForecastSpec) -> ForecastRequest:
        if isinstance(request, ForecastSpec):
            return ForecastRequest.from_spec(request)
        return request

    def forecast_batch(
        self, requests: Iterable[ForecastRequest | ForecastSpec]
    ) -> list[ForecastResponse]:
        """Serve many requests concurrently; responses in request order.

        Never raises for an individual request — failures come back as
        error responses, so one bad series cannot sink a batch.
        """
        futures = [self.submit(request) for request in requests]
        return [future.result() for future in futures]

    def metrics_snapshot(self) -> dict:
        """Current metrics, including live cache and scheduler statistics."""
        snapshot = self.metrics.snapshot()
        snapshot["cache"] = {"type": "cache", **self.cache.stats}
        snapshot["prefill_tree"] = {"type": "cache", **self.prefill_tree.stats}
        if self._scheduler is not None:
            snapshot["scheduler"] = {"type": "scheduler", **self._scheduler.stats}
        return snapshot

    def close(self) -> None:
        """Shut the request pool down; in-flight work completes first."""
        if not self._closed:
            self._closed = True
            self._requests.shutdown(wait=True)
            if self._scheduler is not None:
                self._scheduler.close()

    def __enter__(self) -> ForecastEngine:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request execution ----------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigError("engine is closed")

    def _scheduler_instance(self) -> ContinuousScheduler:
        """The shared continuous scheduler, created on first use."""
        with self._scheduler_lock:
            if self._scheduler is None:
                self._scheduler = ContinuousScheduler(
                    max_resident_streams=self.max_resident_streams,
                    prefill_tree=self.prefill_tree,
                    metrics=self.metrics,
                    tracer=self.tracer,
                )
            return self._scheduler

    def _execute(
        self,
        request: ForecastRequest,
        on_progress=None,
        ledger_extra: dict | None = None,
    ) -> ForecastResponse:
        admission = dict(ledger_extra) if ledger_extra else {}
        enqueued_at = admission.pop("enqueued_at", None)
        if enqueued_at is not None:
            queue_wait = time.perf_counter() - enqueued_at
            admission["gateway_queue_wait_seconds"] = queue_wait
            self.metrics.histogram("gateway_queue_wait_seconds").observe(
                queue_wait
            )
        key = forecast_digest(
            request.history, request.config, request.horizon, request.seed
        )
        with self.tracer.span(
            "request",
            request_name=request.name or "",
            scheme=request.config.scheme,
            horizon=int(request.horizon),
            seed=int(request.effective_seed),
        ) as span:
            if span.is_recording:
                if request.tenant:
                    span.set_attribute("tenant", request.tenant)
                if "admission" in admission:
                    span.set_attribute("admission", admission["admission"])
                if "gateway_queue_wait_seconds" in admission:
                    span.set_attribute(
                        "queue_wait",
                        round(admission["gateway_queue_wait_seconds"], 9),
                    )
            response = self._serve(request, key, span, on_progress)
            if span.is_recording:
                span.set_attribute("cache_hit", response.cache_hit)
                span.set_attribute("outcome", outcome_of(response))
                span.set_attribute("attempts", response.attempts)
                response.trace = span
        if self.ledger is not None:
            self.ledger.append(
                ledger_record(
                    request,
                    key,
                    outcome_of(response),
                    output=response.output,
                    admission=admission.get("admission", "direct"),
                    gateway_queue_wait_seconds=admission.get(
                        "gateway_queue_wait_seconds"
                    ),
                    cache_hit=response.cache_hit,
                    partial=response.partial,
                    attempts=response.attempts,
                    error=response.error,
                    wall_seconds=response.wall_seconds,
                    spans=span.to_dict() if span.is_recording else None,
                    metrics=self.metrics,
                )
            )
        return response

    def _serve(
        self, request: ForecastRequest, key: str, span: Span, on_progress=None
    ) -> ForecastResponse:
        started = time.perf_counter()
        self.metrics.counter("requests_total").inc()

        if request.use_cache and self.cache.enabled:
            cached = self.cache.get(key)
            if cached is not None:
                wall = time.perf_counter() - started
                self.metrics.counter("cache_hits").inc()
                self.metrics.histogram("request_seconds").observe(wall)
                return ForecastResponse(
                    request, output=cached, cache_hit=True, wall_seconds=wall
                )
            self.metrics.counter("cache_misses").inc()

        deadline = Deadline(request.deadline_seconds)
        forecaster = MultiCastForecaster(
            request.config,
            tracer=self.tracer,
            state_cache=self.prefill_tree,
            stop=lambda: deadline.expired,
            scheduler=(
                self._scheduler_instance()
                if request.execution == "continuous"
                else None
            ),
        )
        spec = ForecastSpec.from_config(
            request.config,
            series=request.history,
            horizon=request.horizon,
            seed=request.effective_seed,
            execution=request.execution,
        )
        attempts = 1

        def on_retry(attempt: int, error: Exception) -> None:
            nonlocal attempts
            del error
            attempts = attempt + 1
            self.metrics.counter("request_retries").inc()

        self.metrics.gauge("inflight_requests").add(1)
        try:
            output, _ = self.retry.run(
                lambda: forecaster.forecast(spec),
                deadline=deadline,
                sleep=self._sleep,
                on_retry=on_retry,
            )
        except ReproError as error:
            wall = time.perf_counter() - started
            message = str(error)
            if deadline.expired:
                self.metrics.counter("requests_deadline_exceeded").inc()
                message = (
                    f"deadline of {request.deadline_seconds}s exceeded "
                    f"({message})"
                )
            self.metrics.counter("requests_failed").inc()
            if span.is_recording:
                span.set_attribute("deadline_remaining", deadline.remaining())
                span.set_attribute("error", message)
            return ForecastResponse(
                request,
                error=message,
                attempts=attempts,
                wall_seconds=wall,
            )
        finally:
            self.metrics.gauge("inflight_requests").add(-1)

        wall = time.perf_counter() - started
        ingest = output.metadata.get("ingest")
        if ingest == "fork":
            self.metrics.counter("ingest_cache_hits").inc()
        elif ingest == "extend":
            self.metrics.counter("ingest_cache_extends").inc()
        elif ingest == "miss":
            self.metrics.counter("ingest_cache_misses").inc()
        if span.is_recording and ingest is not None:
            span.set_attribute("ingest", ingest)
        for occupancy in output.metadata.get("batch_occupancy", ()):
            self.metrics.histogram("decode_batch_occupancy").observe(occupancy)
        requested = output.metadata.get("requested_samples", request.config.num_samples)
        completed = output.metadata.get("completed_samples", requested)
        partial = completed < requested
        if partial:
            self.metrics.counter("requests_partial").inc()
        elif request.use_cache:
            self.cache.put(key, output)
        if on_progress is not None:
            for finished in range(1, completed + 1):
                try:
                    on_progress(finished, requested)
                except Exception:  # noqa: BLE001 - advisory hook
                    pass

        self.metrics.histogram("request_seconds").observe(wall)
        for stage, seconds in output.timings.items():
            self.metrics.histogram(f"stage_{stage}_seconds").observe(seconds)

        if span.is_recording:
            span.set_attribute("deadline_remaining", deadline.remaining())
        return ForecastResponse(
            request,
            output=output,
            partial=partial,
            attempts=attempts,
            wall_seconds=wall,
        )

