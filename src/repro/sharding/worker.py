"""The decode worker process: one full serving engine per shard.

Each shard of a :class:`~repro.sharding.engine.ShardedEngine` is a
separate OS process running :func:`worker_main` — a plain module-level
function so the ``spawn`` start method (the safe default in a process
that also runs supervisor threads) can import and launch it.  A worker
owns a complete single-process stack: its own
:class:`~repro.serving.engine.ForecastEngine` (request pool, result
cache, :class:`~repro.scheduling.ContinuousScheduler`) over its own
:class:`~repro.scheduling.RadixPrefillTree`, serving both executions and
backed by the *shared* :class:`~repro.sharding.SpillStore` directory so
prefill state evicted here outlives this process and can warm any other
shard.

Protocol (all messages are plain picklable dicts):

* inbound ``{"kind": "request", "id", "request", "ledger_extra"}`` —
  serve one :class:`~repro.serving.request.ForecastRequest`; results and
  progress go to the shared result queue tagged with ``id``;
* inbound ``{"kind": "stop"}`` — drain, close the engine, exit 0;
* outbound ``{"kind": "ready", ...}`` — sent once after the engine is
  built (the supervisor uses it to mark the shard healthy);
* outbound ``{"kind": "progress", "id", "completed", "requested"}``;
* outbound ``{"kind": "result", "id", "shard", "worker_pid", ...}`` —
  the response fields plus the worker-side ledger record (the supervisor
  enriches it with ``shard``/``worker_pid`` and appends it, so one
  process writes the ledger file).

Requests are served one at a time in arrival order: a shard is a serial
decode loop (internally sample-parallel), which keeps per-shard ordering
trivial and makes queue depth an honest backpressure signal.

Workers run the null tracer — span trees are process-local object graphs
that do not cross a pickle boundary; the supervisor contributes
``shard:dispatch`` / ``shard:collect`` spans instead.  Outputs are
bit-identical either way.
"""

from __future__ import annotations

import os
import time

from repro.observability.ledger import RunLedger

__all__ = ["worker_main"]


class _CollectingLedger(RunLedger):
    """A RunLedger that keeps records in memory instead of writing JSONL.

    The worker's engine appends one record per served request; the loop
    pops it and ships it to the supervisor, which owns the real ledger
    file (a single writer, enriched with shard identity).
    """

    def __init__(self) -> None:
        super().__init__(path=os.devnull)
        self.records: list[dict] = []

    def append(self, record: dict) -> None:
        """Stash the record for :meth:`pop` (nothing touches disk)."""
        self.records.append(record)

    def pop(self) -> dict | None:
        """The most recent record, removed — or None if nothing landed."""
        return self.records.pop() if self.records else None


def _build_engine(options: dict):
    """Construct the worker's private serving stack from picklable options."""
    from repro.scheduling import RadixPrefillTree
    from repro.serving.cache import ForecastCache
    from repro.serving.engine import ForecastEngine
    from repro.sharding.spill import SpillStore

    spill = None
    if options.get("spill_dir"):
        spill = SpillStore(
            options["spill_dir"],
            max_tokens=int(options.get("spill_max_tokens", 1_048_576)),
        )
    ledger = _CollectingLedger()
    engine = ForecastEngine(
        cache=ForecastCache(max_entries=int(options.get("result_cache_entries", 128))),
        prefill_tree=RadixPrefillTree(
            max_tokens=int(options.get("ingest_cache_tokens", 262_144)),
            spill=spill,
        ),
        max_resident_streams=int(options.get("max_resident_streams", 64)),
        ledger=ledger,
    )
    return engine, ledger


def worker_main(shard: int, options: dict, tasks, results) -> None:
    """Entry point of one decode worker process.

    ``tasks`` is this shard's inbound queue, ``results`` the queue shared
    by every shard.  ``options`` carries the engine knobs (see
    :func:`_build_engine`) plus ``chaos_delay_seconds`` — a deliberate
    pre-serve sleep used by crash-recovery tests to hold a request
    in-flight long enough to kill the process deterministically.
    """
    engine, ledger = _build_engine(options)
    chaos_delay = float(options.get("chaos_delay_seconds", 0.0))
    pid = os.getpid()
    results.put({"kind": "ready", "shard": shard, "worker_pid": pid})
    try:
        while True:
            message = tasks.get()
            if message is None or message.get("kind") == "stop":
                break
            request_id = message["id"]
            request = message["request"]
            if chaos_delay > 0.0:
                time.sleep(chaos_delay)

            def on_progress(completed: int, requested: int) -> None:
                results.put(
                    {
                        "kind": "progress",
                        "id": request_id,
                        "completed": int(completed),
                        "requested": int(requested),
                    }
                )

            try:
                response = engine.forecast(
                    request,
                    on_progress=on_progress,
                    ledger_extra=message.get("ledger_extra"),
                )
                payload = {
                    "output": response.output,
                    "error": response.error,
                    "cache_hit": response.cache_hit,
                    "partial": response.partial,
                    "attempts": response.attempts,
                    "wall_seconds": response.wall_seconds,
                    "record": ledger.pop(),
                }
            except Exception as error:  # noqa: BLE001 - shipped, not raised
                # The engine converts expected failures into error
                # responses; anything that still escapes must not kill the
                # worker loop — report it as a failed response instead.
                payload = {
                    "output": None,
                    "error": f"worker error: {error}",
                    "cache_hit": False,
                    "partial": False,
                    "attempts": 1,
                    "wall_seconds": 0.0,
                    "record": ledger.pop(),
                }
            payload.update(
                {"kind": "result", "id": request_id, "shard": shard,
                 "worker_pid": pid}
            )
            results.put(payload)
    finally:
        engine.close()
