"""Token-level batched decoding for sample ensembles.

MultiCast's point forecast is the per-timestamp median over S i.i.d.
constrained continuations of *one* prompt, so a request decodes S streams
that differ only in their sampling RNG.  The sequential and thread-pooled
paths advance each stream's own token loop — S full passes over the model
per step.  :class:`BatchedDecoder` advances all streams in lockstep
instead (iteration-level batching, as in Orca-style LLM serving): one
vectorised :meth:`~repro.llm.interface.LanguageModel.next_distribution_batch`
call per step scores every live stream, each stream samples from its row
with its own seed-derived generator, and streams that hit their token
budget retire from the batch immediately (no padding waste).

Two substrate properties make this cheap *and* exact:

* **Determinism** — a model's state is a pure function of (prefilled
  prompt + generated tokens), so streams whose generated prefixes are
  equal share bit-identical model state.  The scheduler therefore keeps
  one model per *group* of streams with the same prefix, scoring each
  distinct state once per step and forking only when sampled tokens
  split a group.  A PPM fork shares the frozen context table and copies
  only the rows its parent advanced through since prefill, and the
  forks of one decode share overlay storage, so one step scores and
  advances all of its groups with a few array operations.  Early in a
  decode — and for the whole decode at low temperatures — the batch
  collapses to a handful of groups, which is where the ≥3× win over the
  pooled path comes from (see ``benchmarks/bench_batching.py``).
* **Bit-identity** — every stream samples through the same
  :func:`~repro.llm.sampling.sample_from_distribution` routine, with the
  same per-stream generator the sequential path would use, from a
  distribution row that is bit-identical to a per-stream
  ``next_distribution()`` call.  Batched output therefore equals the
  sequential and pooled paths token for token and log-prob for log-prob
  (pinned by ``tests/test_batched_decoding.py`` and the
  ``decode_equivalence`` fuzz family).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.exceptions import GenerationError
from repro.llm.constraints import Constraint
from repro.llm.interface import GenerationResult, LanguageModel
from repro.llm.sampling import cdf_rows, draw_token, filter_rows, mask_for_ids
from repro.observability.spans import NULL_TRACER

__all__ = ["BatchedDecoder", "decode_step"]


class _Stream:
    """One in-flight sample: its identity, RNG, and token budget."""

    __slots__ = ("index", "rng", "budget")

    def __init__(self, index: int, rng: np.random.Generator, budget: int) -> None:
        self.index = index
        self.rng = rng
        self.budget = budget


class _Group:
    """Streams sharing one generated prefix — and therefore one model."""

    __slots__ = ("model", "streams", "tokens", "log_probs")

    def __init__(
        self,
        model: LanguageModel,
        streams: list[_Stream],
        tokens: list[int],
        log_probs: list[float],
    ) -> None:
        self.model = model
        self.streams = streams
        self.tokens = tokens
        self.log_probs = log_probs


def decode_step(
    groups: list[_Group],
    matrix: np.ndarray,
    temperature: float = 1.0,
    top_k: int | None = None,
    top_p: float | None = None,
    allowed_mask: np.ndarray | None = None,
) -> list[_Group]:
    """Sample one token per live stream and regroup — one lockstep step.

    ``matrix`` holds the scored next-token row of each group (row ``i``
    for ``groups[i]``).  All groups share the sampling knobs;
    ``allowed_mask`` is one ``(V,)`` mask for all of them (the streams of
    one request) or a ``(G, V)`` mask with a row per group (the
    continuous scheduler, whose requests sit at different positions).
    The deterministic filter runs once over the whole ``(G, V)`` matrix,
    then each stream draws its token from its group's cdf row with its
    own generator — consuming it exactly as the sequential path's
    :func:`~repro.llm.sampling.sample_from_distribution` would.  Each
    group is then partitioned by sampled token: the first partition keeps
    the group's model, later partitions fork it, and one
    :meth:`~repro.llm.interface.LanguageModel.advance_batch` call
    advances every partition's model by its token.  Returns the next
    step's groups, in order.
    """
    probs, greedy = filter_rows(
        matrix,
        temperature=temperature,
        top_k=top_k,
        top_p=top_p,
        allowed_mask=allowed_mask,
    )
    cdf = None if greedy else cdf_rows(probs)
    next_groups: list[_Group] = []
    models: list[LanguageModel] = []
    tokens: list[int] = []
    drawn: list[float] = []
    for row, group in enumerate(groups):
        streams = group.streams
        if greedy:
            buckets = {int(np.argmax(probs[row])): streams}
        elif len(streams) == 1:
            buckets = {draw_token(cdf[row], streams[0].rng): streams}
        else:
            cdf_row = cdf[row]
            buckets = {}
            for stream in streams:
                token = draw_token(cdf_row, stream.rng)
                members = buckets.get(token)
                if members is None:
                    buckets[token] = [stream]
                else:
                    members.append(stream)
        if len(buckets) == 1:
            # No split: the group carries on, its lists grow in place.
            next_groups.append(group)
            models.append(group.model)
            (token,) = buckets
            tokens.append(token)
            drawn.append(probs[row, token])
            continue
        # The first partition keeps the group's model, later ones fork it;
        # nothing advances before every fork is taken.
        for i, (token, members) in enumerate(buckets.items()):
            model = group.model if i == 0 else group.model.fork()
            next_groups.append(
                _Group(
                    model=model,
                    streams=members,
                    tokens=list(group.tokens),
                    log_probs=list(group.log_probs),
                )
            )
            models.append(model)
            tokens.append(token)
            drawn.append(probs[row, token])
    # np.log over the step's draws at once, the same per element as the
    # sequential path's scalar np.log.
    log_probs = np.log(np.maximum(drawn, 1e-300)).tolist()
    for group, token, log_prob in zip(next_groups, tokens, log_probs):
        group.tokens.append(token)
        group.log_probs.append(log_prob)
    type(models[0]).advance_batch(models, tokens)
    return next_groups


class BatchedDecoder:
    """Lockstep scheduler decoding S streams from one prefilled model.

    Parameters
    ----------
    model:
        A prefilled in-context model (e.g. the ``model`` of a
        :class:`~repro.llm.simulated.PrefilledSession`).  Treated as
        frozen: the decoder forks it once up front and never mutates it,
        so one session can serve many decoders (and other consumers)
        concurrently.
    rngs:
        One :class:`numpy.random.Generator` per stream, in stream order —
        the same seed-derived generators the sequential path would use
        (see :func:`~repro.llm.sampling.child_seeds`).
    max_new_tokens:
        Per-stream token budget: one int shared by all streams, or a
        sequence with one budget per stream.  A stream retires the moment
        its budget is reached.
    constraint, temperature, top_k, top_p:
        As in :meth:`~repro.llm.interface.LanguageModel.decode`, applied
        identically to every stream.  The constraint's admissible mask is
        computed once per step and shared across streams.

    After :meth:`decode`, the instance exposes the run's telemetry:
    ``results`` (per-stream :class:`GenerationResult`, ``None`` for
    streams abandoned by an early stop), ``occupancy`` (live streams per
    step), ``group_counts`` (distinct model states scored per step),
    ``steps`` and ``stopped``.
    """

    def __init__(
        self,
        model: LanguageModel,
        rngs: Sequence[np.random.Generator],
        max_new_tokens: int | Sequence[int],
        constraint: Constraint | None = None,
        temperature: float = 1.0,
        top_k: int | None = None,
        top_p: float | None = None,
    ) -> None:
        if len(rngs) == 0:
            raise GenerationError("a batch needs at least one stream")
        if isinstance(max_new_tokens, (int, np.integer)):
            budgets = [int(max_new_tokens)] * len(rngs)
        else:
            budgets = [int(b) for b in max_new_tokens]
        if len(budgets) != len(rngs):
            raise GenerationError(
                f"{len(rngs)} streams but {len(budgets)} token budgets"
            )
        if any(budget < 0 for budget in budgets):
            raise GenerationError("max_new_tokens must be >= 0 for every stream")
        self._model = model
        self._streams = [
            _Stream(i, rng, budget)
            for i, (rng, budget) in enumerate(zip(rngs, budgets))
        ]
        self._constraint = constraint
        self._temperature = temperature
        self._top_k = top_k
        self._top_p = top_p
        self._mask_cache: dict[frozenset[int], np.ndarray] = {}
        self.batch_width = len(rngs)
        self.results: list[GenerationResult | None] = [None] * len(rngs)
        self.occupancy: list[int] = []
        self.group_counts: list[int] = []
        self.steps = 0
        self.stopped = False

    def _mask_at(self, position: int) -> np.ndarray | None:
        """The step's shared admissibility mask (cached per pattern slot)."""
        if self._constraint is None:
            return None
        allowed = self._constraint.allowed_at(position)
        mask = self._mask_cache.get(allowed)
        if mask is None:
            mask = mask_for_ids(allowed, self._model.vocab_size)
            self._mask_cache[allowed] = mask
        return mask

    def decode(
        self,
        tracer=None,
        stop: Callable[[], bool] | None = None,
        span_attributes: dict | None = None,
    ) -> list[GenerationResult | None]:
        """Run the lockstep loop to completion (or until ``stop`` fires).

        Each step: retire streams whose budget is met, score the distinct
        model states with one ``next_distribution_batch`` call, sample one
        token per live stream from its row with its own RNG, then
        partition each group by sampled token — the first partition keeps
        the group's model (advanced in place), later partitions fork it
        first.  ``stop`` is polled between steps; when it returns True the
        decode aborts, already-retired streams keep their results and
        still-live streams report ``None`` (the engine uses this to honour
        request deadlines with a partial ensemble).

        Emits one ``llm:decode_batch`` span carrying ``batch_width``,
        ``steps``, ``tokens_generated`` and mean occupancy/group counts.
        Returns ``self.results`` (stream order).
        """
        tracer = NULL_TRACER if tracer is None else tracer
        results = self.results
        with tracer.span(
            "llm:decode_batch",
            batch_width=self.batch_width,
            max_new_tokens=max((s.budget for s in self._streams), default=0),
            **(span_attributes or {}),
        ) as span:
            root = _Group(
                model=self._model.fork(),
                streams=list(self._streams),
                tokens=[],
                log_probs=[],
            )
            groups = [root]
            position = 0
            retire_at = 0  # no stream's budget runs out before this step
            while True:
                if position >= retire_at:
                    live: list[_Group] = []
                    for group in groups:
                        keep: list[_Stream] = []
                        for stream in group.streams:
                            if stream.budget <= position:
                                results[stream.index] = GenerationResult(
                                    tokens=list(group.tokens),
                                    log_probs=list(group.log_probs),
                                )
                            else:
                                keep.append(stream)
                        if keep:
                            group.streams = keep
                            live.append(group)
                    groups = live
                    streams = [stream for group in groups for stream in group.streams]
                    retire_at = min((stream.budget for stream in streams), default=0)
                if not groups:
                    break
                if stop is not None and stop():
                    self.stopped = True
                    break
                self.occupancy.append(len(streams))
                self.group_counts.append(len(groups))
                mask = self._mask_at(position)
                matrix = type(groups[0].model).next_distribution_batch(
                    [group.model for group in groups]
                )
                groups = decode_step(
                    groups,
                    matrix,
                    temperature=self._temperature,
                    top_k=self._top_k,
                    top_p=self._top_p,
                    allowed_mask=mask,
                )
                position += 1
            self.steps = len(self.occupancy)
            if span.is_recording:
                span.set_attribute("steps", self.steps)
                span.set_attribute(
                    "tokens_generated",
                    sum(len(r.tokens) for r in results if r is not None),
                )
                if self.occupancy:
                    span.set_attribute(
                        "mean_occupancy",
                        round(float(np.mean(self.occupancy)), 3),
                    )
                    span.set_attribute(
                        "mean_groups",
                        round(float(np.mean(self.group_counts)), 3),
                    )
                if self.stopped:
                    span.set_attribute("stopped", True)
        return results
