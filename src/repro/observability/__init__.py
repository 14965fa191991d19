"""Observability: end-to-end tracing and a structured run ledger.

Two complementary views of the serving system, both dependency-free:

* :mod:`~repro.observability.spans` — a :class:`Tracer` producing
  hierarchical spans (request → forecast → pipeline stage → LLM
  ingest/batched decode) with attributes, a thread-safe :class:`SpanCollector`
  for finished traces, and :func:`render_span_tree` for the
  ``forecast --trace`` CLI.  The default :data:`NULL_TRACER` makes every
  instrumented region a no-op, so the hot path pays ~zero cost and
  results stay bit-identical when tracing is disabled.
* :mod:`~repro.observability.ledger` — :class:`RunLedger`, an append-only
  JSONL record of every served forecast (config hash, seed, outcome,
  latency, token counts, span tree), plus :func:`summarize_ledger` /
  ``repro-multicast ledger summarize`` to aggregate ledgers into
  per-outcome counts and latency quantiles.

Every layer accepts an optional ``tracer=``:
:class:`~repro.serving.engine.ForecastEngine` opens request spans and
writes the ledger, :class:`~repro.core.forecaster.MultiCastForecaster`
opens the pipeline root and stage spans, and
:class:`~repro.llm.simulated.SimulatedLLM` records the prompt ingest and
the lockstep ``llm:decode_batch`` spans.  ``docs/OBSERVABILITY.md`` is the guide.
"""

from repro.observability.ledger import (
    LedgerSummary,
    RunLedger,
    ledger_record,
    outcome_of,
    read_ledger,
    summarize_ledger,
)
from repro.observability.spans import (
    NULL_SPAN,
    NULL_TRACER,
    NullSpan,
    NullTracer,
    Span,
    SpanCollector,
    Tracer,
    render_span_tree,
    stage_timings,
)

__all__ = [
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SpanCollector",
    "render_span_tree",
    "stage_timings",
    "RunLedger",
    "LedgerSummary",
    "ledger_record",
    "outcome_of",
    "read_ledger",
    "summarize_ledger",
]
