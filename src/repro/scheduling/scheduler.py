"""One shared decode loop for many concurrent forecast requests.

:class:`~repro.llm.batch.BatchedDecoder` holds the lockstep state of the S
sample streams of *one* request; :class:`ContinuousScheduler` steps many of
them together, the way iteration-level schedulers (Orca, vLLM) run a
serving fleet: every resident request takes part in one global step, new
requests are admitted *between* iterations — they never wait for a
resident batch to drain — and requests retire stream by stream the moment
their budgets are met.

Each resident request is a :class:`ScheduledDecode`, a ``BatchedDecoder``
that also carries its prompt ingest, its prefill-tree pin, its queue wait
and a completion event.  One shared iteration is one
:meth:`~repro.llm.batch.BatchedDecoder.ready` per request (retire → stop
poll → telemetry) plus one :func:`~repro.llm.batch.lockstep_step` over the
ready ones — the very calls ``execution="batched"`` makes for a lone
request.  Bit-identity with it therefore rests only on the step not
mixing requests: each stream samples from its own seed-derived generator,
:meth:`~repro.llm.interface.LanguageModel.next_distribution_batch` row *i*
is bit-identical to ``models[i].next_distribution()`` whoever shares the
call, and filtering a row depends only on the row, its request's knobs and
its request's mask.

The ``sched_equivalence`` fuzz family and ``tests/test_scheduling.py``
pin this equivalence across random interleavings.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Sequence

import numpy as np

from repro.exceptions import GenerationError
from repro.llm.batch import BatchedDecoder, lockstep_step, stream_budgets
from repro.llm.constraints import Constraint
from repro.llm.interface import GenerationResult
from repro.llm.simulated import PrefilledSession, SimulatedLLM
from repro.observability.spans import NULL_TRACER
from repro.scheduling.radix import RadixPrefillTree

__all__ = ["ContinuousScheduler", "ScheduledDecode"]


class ScheduledDecode(BatchedDecoder):
    """One request resident in the scheduler, and its caller's handle.

    Returned by :meth:`ContinuousScheduler.submit`; the caller blocks on
    :meth:`result` (or polls :meth:`done`) while the shared loop decodes.
    A :class:`~repro.llm.batch.BatchedDecoder` over the request's prefilled
    session, so it carries the same telemetry — ``results`` (stream order;
    ``None`` for streams abandoned by an early ``stop``), ``occupancy`` and
    ``group_counts`` (per step *it* was resident), ``steps`` and
    ``stopped`` — plus the scheduling outcomes ``queue_wait_seconds``,
    ``ingest`` and ``ingested_tokens``.
    """

    def __init__(
        self,
        llm: SimulatedLLM,
        session: PrefilledSession,
        rngs: Sequence[np.random.Generator],
        budgets: list[int],
        constraint: Constraint | None,
        temperature: float | None,
        stop: Callable[[], bool] | None,
    ) -> None:
        super().__init__(
            session.model,
            rngs,
            budgets,
            constraint=constraint,
            temperature=llm.spec.temperature if temperature is None else temperature,
            top_p=llm.spec.top_p,
        )
        self._stop = stop
        self.ingest = session.outcome
        self.ingested_tokens = session.ingested_tokens
        self.queue_wait_seconds = 0.0
        self._pin = session.pin
        self._enqueued_at = time.monotonic()
        self._event = threading.Event()
        self._error: BaseException | None = None

    def done(self) -> bool:
        """True once every stream has retired (or the request failed)."""
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> list[GenerationResult | None]:
        """Block until the request retires; return per-stream results.

        Re-raises the scheduler loop's exception if this request failed;
        raises :class:`TimeoutError` if ``timeout`` elapses first.
        """
        if not self._event.wait(timeout):
            raise TimeoutError("scheduled decode did not finish in time")
        if self._error is not None:
            raise self._error
        return self.results


class ContinuousScheduler:
    """Global iteration-level scheduler shared by concurrent requests.

    Parameters
    ----------
    max_resident_streams:
        Admission cap: total live streams across resident requests.  A
        request queues (FIFO) until it fits; to guarantee progress, the
        queue head is always admitted when nothing is resident, even if
        wider than the cap.
    prefill_tree:
        Optional :class:`~repro.scheduling.RadixPrefillTree` deduplicating
        prompt ingest across requests; nodes a resident request forked
        from stay pinned against eviction until it retires.
    metrics:
        Optional :class:`~repro.serving.metrics.MetricsRegistry` receiving
        ``sched_*`` counters, gauges, and histograms.
    tracer:
        Optional tracer; the loop emits one ``llm:sched_step`` span per
        shared iteration (resident request/stream/group counts).

    The loop thread starts lazily on the first :meth:`submit` and runs as
    a daemon; :meth:`close` drains pending and resident work, then joins.
    """

    def __init__(
        self,
        max_resident_streams: int = 64,
        prefill_tree: RadixPrefillTree | None = None,
        metrics=None,
        tracer=None,
    ) -> None:
        if max_resident_streams < 1:
            raise GenerationError(
                f"max_resident_streams must be >= 1, got {max_resident_streams}"
            )
        self.max_resident_streams = max_resident_streams
        self.prefill_tree = prefill_tree
        self._metrics = metrics
        self._tracer = NULL_TRACER if tracer is None else tracer
        self._cond = threading.Condition()
        self._pending: list[ScheduledDecode] = []
        self._resident: list[ScheduledDecode] = []
        self._thread: threading.Thread | None = None
        self._closed = False
        self._admitted = 0
        self._completed = 0
        self._steps = 0

    # ------------------------------------------------------------------
    # submission (caller threads)
    # ------------------------------------------------------------------

    def submit(
        self,
        llm: SimulatedLLM,
        context: Sequence[int],
        max_new_tokens: int | Sequence[int],
        rngs: Sequence[np.random.Generator],
        constraint: Constraint | None = None,
        temperature: float | None = None,
        tracer=None,
        stop: Callable[[], bool] | None = None,
    ) -> ScheduledDecode:
        """Join the shared loop with one request's stream ensemble.

        Mirrors :meth:`~repro.llm.simulated.SimulatedLLM.generate_batch`:
        prompt ingest happens here on the caller's thread through
        :meth:`~repro.llm.simulated.SimulatedLLM.prefill` (resolved against
        the radix tree when one is attached, whose covering snapshot stays
        pinned until the request retires), then the streams are enqueued
        and decoded by the loop thread.  Under the same RNGs the
        returned results are bit-identical to a standalone
        ``generate_batch`` call.  ``stop`` is polled between shared steps
        from the loop thread, so it must be thread-safe (deadlines are).
        """
        budgets = stream_budgets(rngs, max_new_tokens)  # before any ingest
        tracer = self._tracer if tracer is None else tracer
        session = llm.prefill(
            context, tracer=tracer, state_cache=self.prefill_tree, pin=True
        )
        job = ScheduledDecode(
            llm, session, rngs, budgets, constraint, temperature, stop
        )
        if self._metrics is not None:
            self._metrics.counter("sched_requests_total").inc()
        with self._cond:
            if self._closed:
                if job._pin is not None:
                    self.prefill_tree.release(job._pin)
                raise GenerationError("scheduler is closed")
            self._pending.append(job)
            if self._metrics is not None:
                self._metrics.gauge("sched_queue_depth").set(len(self._pending))
            self._ensure_thread()
            self._cond.notify_all()
        return job

    def _ensure_thread(self) -> None:
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="continuous-scheduler", daemon=True
            )
            self._thread.start()

    # ------------------------------------------------------------------
    # the shared loop (scheduler thread)
    # ------------------------------------------------------------------

    def _admit_locked(self) -> None:
        """Admit queued jobs FIFO while they fit under the stream cap."""
        resident_streams = sum(job.live_streams for job in self._resident)
        while self._pending:
            job = self._pending[0]
            width = job.batch_width
            if self._resident and resident_streams + width > self.max_resident_streams:
                break
            self._pending.pop(0)
            job.queue_wait_seconds = time.monotonic() - job._enqueued_at
            self._resident.append(job)
            resident_streams += width
            self._admitted += 1
            if self._metrics is not None:
                self._metrics.histogram("sched_queue_wait_seconds").observe(
                    job.queue_wait_seconds
                )
        if self._metrics is not None:
            self._metrics.gauge("sched_queue_depth").set(len(self._pending))
            self._metrics.gauge("sched_resident_requests").set(len(self._resident))
            self._metrics.gauge("sched_resident_streams").set(resident_streams)

    def _finalize_locked(
        self, job: ScheduledDecode, error: BaseException | None = None
    ) -> None:
        """Retire a job: record its error, release its pin, wake its caller."""
        if job._event.is_set():
            return
        job._error = error
        if job in self._resident:
            self._resident.remove(job)
        if job._pin is not None:
            self.prefill_tree.release(job._pin)
            job._pin = None
        self._completed += 1
        if self._metrics is not None:
            self._metrics.counter("sched_requests_completed").inc()
            self._metrics.gauge("sched_resident_requests").set(len(self._resident))
            self._metrics.gauge("sched_resident_streams").set(
                sum(item.live_streams for item in self._resident)
            )
        job._event.set()
        self._cond.notify_all()

    def _run(self) -> None:
        while True:
            with self._cond:
                self._admit_locked()
                while not self._resident:
                    if self._closed and not self._pending:
                        return
                    self._cond.wait()
                    self._admit_locked()
                jobs = list(self._resident)
            try:
                self._step(jobs)
            except BaseException as exc:  # fail resident jobs, keep serving
                with self._cond:
                    for job in jobs:
                        self._finalize_locked(job, error=exc)

    def _step(self, jobs: list[ScheduledDecode]) -> None:
        """One shared iteration: ``ready()`` per job, one ``lockstep_step``.

        Each job runs *exactly* the single-request decoder's step — retire,
        stop poll, telemetry, score, sample, regroup — so its RNG
        consumption and model trajectory are independent of who else is
        resident.  Jobs whose ``ready()`` is False have finished (or were
        stopped) and retire here.
        """
        live: list[ScheduledDecode] = []
        for job in jobs:
            if job.ready():
                live.append(job)
            else:
                with self._cond:
                    self._finalize_locked(job)
        if not live:
            return
        with self._tracer.span("llm:sched_step") as span:
            if span.is_recording:
                span.set_attribute("resident_requests", len(live))
                span.set_attribute(
                    "resident_streams", sum(job.live_streams for job in live)
                )
                span.set_attribute(
                    "groups", sum(job.group_counts[-1] for job in live)
                )
            lockstep_step(live)
        self._steps += 1
        if self._metrics is not None:
            self._metrics.histogram("sched_step_occupancy").observe(
                sum(job.live_streams for job in live)
            )
            self._metrics.histogram("sched_step_groups").observe(
                sum(job.group_counts[-1] for job in live)
            )

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drain pending and resident requests, then stop the loop thread."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            thread = self._thread
        if thread is not None:
            while True:
                with self._cond:
                    if not self._pending and not self._resident:
                        break
                    self._cond.wait(timeout=0.1)
            thread.join(timeout=10.0)

    @property
    def stats(self) -> dict:
        """Queue/residency/throughput accounting for snapshots and tests."""
        with self._cond:
            return {
                "resident_requests": len(self._resident),
                "resident_streams": sum(job.live_streams for job in self._resident),
                "queue_depth": len(self._pending),
                "admitted": self._admitted,
                "completed": self._completed,
                "steps": self._steps,
                "max_resident_streams": self.max_resident_streams,
            }

    def __repr__(self) -> str:
        stats = self.stats
        return (
            f"ContinuousScheduler(resident={stats['resident_requests']}, "
            f"queued={stats['queue_depth']}, steps={stats['steps']}, "
            f"max_resident_streams={self.max_resident_streams})"
        )
