"""Cross-request continuous batching over the simulated substrates.

:mod:`repro.llm.batch` batches the S sample streams *within* one forecast;
this package batches *across* forecasts, the way production LLM servers do
(iteration-level scheduling as in Orca/vLLM, radix-tree prefix caching as
in SGLang):

* :class:`RadixPrefillTree` — the one prefix-state store: a prefix tree
  over prompt token sequences with a frozen in-context model snapshot per
  node, so repeated prompts, extended histories and unrelated requests
  whose prompts share a prefix dedupe their ingest work.  Snapshots are
  deposited at doubling checkpoint boundaries, LRU-evicted under a budget
  that charges each snapshot its depth (optionally demoted to a
  :class:`~repro.sharding.SpillStore`), and node refcounts pin state that
  resident decodes still use.  Both executions and the rolling-origin
  backtest share it.
* :class:`ContinuousScheduler` — one shared decode loop that many
  concurrent requests join and retire from mid-flight.  Each iteration
  scores every resident group with
  :meth:`~repro.llm.interface.LanguageModel.next_distribution_batch`,
  each stream samples from its own seed-derived generator, and new
  requests are admitted between iterations — they never wait for a
  resident batch to drain.  Results are **bit-identical** to running each
  request alone with ``execution="batched"`` (pinned by the
  ``sched_equivalence`` fuzz family and ``tests/test_scheduling.py``).

The serving engine drives the scheduler for ``execution="continuous"``
requests and hands its one tree to both executions; see
``docs/ARCHITECTURE.md`` ("Continuous scheduling").
"""

from repro.scheduling.radix import RadixLookup, RadixPrefillTree
from repro.scheduling.scheduler import ContinuousScheduler, ScheduledDecode

__all__ = [
    "ContinuousScheduler",
    "RadixLookup",
    "RadixPrefillTree",
    "ScheduledDecode",
]
