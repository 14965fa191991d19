"""Token-level lockstep decoding for sample ensembles.

MultiCast's point forecast is the per-timestamp median over S i.i.d.
constrained continuations of *one* prompt, so a request decodes S streams
that differ only in their sampling RNG.  Decoding each stream with its own
token loop (the single-stream :meth:`~repro.llm.interface.LanguageModel.decode`
reference) costs S full passes over the model per step.
:class:`BatchedDecoder` advances all streams in lockstep instead
(iteration-level batching, as in Orca-style LLM serving): one
vectorised :meth:`~repro.llm.interface.LanguageModel.next_distribution_batch`
call per step scores every live stream, each stream samples from its row
with its own seed-derived generator, and streams that hit their token
budget retire from the batch immediately (no padding waste).

There is one decode loop.  A :class:`BatchedDecoder` holds one request's
lockstep state — streams, groups, position, mask cache, telemetry — and
:meth:`BatchedDecoder.ready` runs the per-step bookkeeping (retire streams
whose budget is met, poll ``stop``, record occupancy).
:func:`lockstep_step` then scores and samples any set of ready decoders:
:meth:`BatchedDecoder.decode` is ``while ready(): lockstep_step([self])``,
and the cross-request :class:`~repro.scheduling.ContinuousScheduler` calls
it with every resident request at once.

Two substrate properties make this cheap *and* exact:

* **Determinism** — a model's state is a pure function of (prefilled
  prompt + generated tokens), so streams whose generated prefixes are
  equal share bit-identical model state.  The decoder therefore keeps
  one model per *group* of streams with the same prefix, scoring each
  distinct state once per step and forking only when sampled tokens
  split a group.  A PPM fork shares the frozen context table and copies
  only the rows its parent advanced through since prefill, and the
  forks of one decode share overlay storage, so one step scores and
  advances all of its groups with a few array operations.  Early in a
  decode — and for the whole decode at low temperatures — the batch
  collapses to a handful of groups, which is where lockstep decoding
  wins over per-stream loops (see ``benchmarks/bench_batching.py``).
* **Bit-identity** — every stream samples through the same
  :func:`~repro.llm.sampling.sample_from_distribution` routine, with the
  same per-stream generator a single-stream decode would use, from a
  distribution row that is bit-identical to a per-stream
  ``next_distribution()`` call.  Batched output therefore equals the
  single-stream reference token for token and log-prob for log-prob
  (pinned by ``tests/test_batched_decoding.py`` and the
  ``decode_equivalence`` fuzz family), and a decoder's output does not
  depend on which other decoders share its steps (``sched_equivalence``).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.exceptions import GenerationError
from repro.llm.constraints import Constraint
from repro.llm.interface import GenerationResult, LanguageModel
from repro.llm.sampling import cdf_rows, draw_token, filter_rows, mask_for_ids
from repro.observability.spans import NULL_TRACER

__all__ = ["BatchedDecoder", "decode_step", "lockstep_step", "stream_budgets"]


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


def stream_budgets(
    rngs: Sequence[np.random.Generator], max_new_tokens: int | Sequence[int]
) -> list[int]:
    """Validate an ensemble's token budgets; one int per stream.

    ``max_new_tokens`` is one budget shared by every stream or a sequence
    with one budget per stream.  Raises :class:`GenerationError` for an
    empty ensemble, a length mismatch or a negative budget.
    """
    if len(rngs) == 0:
        raise GenerationError("a batch needs at least one stream")
    if isinstance(max_new_tokens, (int, np.integer)):
        budgets = [int(max_new_tokens)] * len(rngs)
    else:
        budgets = [int(b) for b in max_new_tokens]
    if len(budgets) != len(rngs):
        raise GenerationError(f"{len(rngs)} streams but {len(budgets)} token budgets")
    if any(budget < 0 for budget in budgets):
        raise GenerationError("max_new_tokens must be >= 0 for every stream")
    return budgets


def decode_step(
    groups: list[_Group],
    temperature: float = 1.0,
    top_p: float | None = None,
    allowed_mask: np.ndarray | None = None,
) -> list[_Group]:
    """Score, sample one token per live stream and regroup — one step.

    One :meth:`~repro.llm.interface.LanguageModel.next_distribution_batch`
    call scores every group's model (all of one class).  All groups share
    the sampling knobs;
    ``allowed_mask`` is one ``(V,)`` mask for all of them (the streams of
    one request) or a ``(G, V)`` mask with a row per group (several
    requests sitting at different positions).
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
    matrix = type(groups[0].model).next_distribution_batch(
        [group.model for group in groups]
    )
    probs, greedy = filter_rows(
        matrix,
        temperature=temperature,
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
    """Lockstep state for S streams decoded from one prefilled model.

    Parameters
    ----------
    model:
        A prefilled in-context model (e.g. the ``model`` of a
        :class:`~repro.llm.simulated.PrefilledSession`).  Treated as
        frozen: the decoder forks it once, on construction, and never
        mutates it, so one session can serve many decoders (and other
        consumers) concurrently.
    rngs:
        One :class:`numpy.random.Generator` per stream, in stream order —
        the same seed-derived generators the sequential path would use
        (see :func:`~repro.llm.sampling.child_seeds`).
    max_new_tokens:
        Per-stream token budget: one int shared by all streams, or a
        sequence with one budget per stream (see :func:`stream_budgets`).
        A stream retires the moment its budget is reached.
    constraint, temperature, top_p:
        As in :meth:`~repro.llm.interface.LanguageModel.decode`, applied
        identically to every stream.  The constraint's admissible mask is
        computed once per step, cached per pattern slot, and shared
        across streams.

    The instance exposes the run's telemetry as it goes: ``results``
    (per-stream :class:`GenerationResult`, ``None`` until the stream
    retires and for streams abandoned by an early stop), ``occupancy``
    (live streams per step), ``group_counts`` (distinct model states
    scored per step), ``steps``, ``stopped`` and ``live_streams``.
    """

    def __init__(
        self,
        model: LanguageModel,
        rngs: Sequence[np.random.Generator],
        max_new_tokens: int | Sequence[int],
        constraint: Constraint | None = None,
        temperature: float = 1.0,
        top_p: float | None = None,
    ) -> None:
        budgets = stream_budgets(rngs, max_new_tokens)
        self._vocab_size = model.vocab_size
        self._constraint = constraint
        self._temperature = temperature
        self._top_p = top_p
        self._mask_cache: dict[frozenset[int], np.ndarray] = {}
        self._mask: np.ndarray | None = None
        self._stop: Callable[[], bool] | None = None
        # Decoders that may share one sampling call (see lockstep_step).
        self._setup = (
            type(model), model.vocab_size, temperature, top_p, constraint is None
        )
        streams = [
            _Stream(i, rng, budget)
            for i, (rng, budget) in enumerate(zip(rngs, budgets))
        ]
        self._groups = [
            _Group(model=model.fork(), streams=streams, tokens=[], log_probs=[])
        ]
        self._position = 0
        self._retire_at = 0  # no stream's budget runs out before this step
        self.batch_width = len(streams)
        self.live_streams = len(streams)
        self._max_budget = max(budgets)
        self.results: list[GenerationResult | None] = [None] * len(streams)
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
            mask = mask_for_ids(allowed, self._vocab_size)
            self._mask_cache[allowed] = mask
        return mask

    def ready(self) -> bool:
        """Prepare the next step; False once the decode is over.

        Retires streams whose budget is met (recording their results),
        then polls ``stop`` — when it fires the decode aborts: retired
        streams keep their results, still-live streams report ``None``
        and ``stopped`` is set.  Otherwise records the step's occupancy
        and group count, and returns True: the decoder is ready for
        :func:`lockstep_step`.  Once it returns False, the decoder takes
        no further step.
        """
        position = self._position
        if position >= self._retire_at:
            live: list[_Group] = []
            for group in self._groups:
                keep: list[_Stream] = []
                for stream in group.streams:
                    if stream.budget <= position:
                        self.results[stream.index] = GenerationResult(
                            tokens=list(group.tokens),
                            log_probs=list(group.log_probs),
                        )
                    else:
                        keep.append(stream)
                if keep:
                    group.streams = keep
                    live.append(group)
            self._groups = live
            budgets = [stream.budget for group in live for stream in group.streams]
            self.live_streams = len(budgets)
            self._retire_at = min(budgets, default=0)
        if not self._groups:
            return False
        if self._stop is not None and self._stop():
            self.stopped = True
            return False
        self.occupancy.append(self.live_streams)
        self.group_counts.append(len(self._groups))
        self.steps += 1
        self._mask = self._mask_at(position)
        return True

    def decode(
        self,
        tracer=None,
        stop: Callable[[], bool] | None = None,
        span_attributes: dict | None = None,
    ) -> list[GenerationResult | None]:
        """Run the lockstep loop to completion (or until ``stop`` fires).

        ``while ready(): lockstep_step([self])``.  Each step retires
        streams whose budget is met, scores the distinct model states with
        one ``next_distribution_batch`` call, samples one token per live
        stream from its row with its own RNG, then partitions each group by
        sampled token — the first partition keeps the group's model
        (advanced in place), later partitions fork it first.  ``stop`` is
        polled between steps (the engine uses it to stop a request at its
        deadline; see :meth:`ready`).

        Emits one ``llm:decode_batch`` span carrying ``batch_width``,
        ``steps``, ``tokens_generated`` and mean occupancy/group counts.
        Returns ``self.results`` (stream order).
        """
        tracer = NULL_TRACER if tracer is None else tracer
        self._stop = stop
        results = self.results
        with tracer.span(
            "llm:decode_batch",
            batch_width=self.batch_width,
            max_new_tokens=self._max_budget,
            **(span_attributes or {}),
        ) as span:
            while self.ready():
                lockstep_step([self])
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


def lockstep_step(decoders: Sequence[BatchedDecoder]) -> None:
    """Score, sample and advance one step of every ready decoder.

    Each decoder must have just returned True from
    :meth:`BatchedDecoder.ready`.  A lone decoder goes straight to one
    :func:`decode_step` under its own ``(V,)`` mask.  Several decoders are
    partitioned by model class and sampling set-up — normally one
    partition for the whole step — and each partition is scored and
    sampled at once, each decoder masking its own rows.  Rows are
    bit-identical to per-model ``next_distribution()`` calls and every
    stream draws from its own generator, so no decoder's output depends
    on the others it shares a step with.
    """
    if len(decoders) == 1:
        (decoder,) = decoders
        decoder._groups = decode_step(
            decoder._groups,
            temperature=decoder._temperature,
            top_p=decoder._top_p,
            allowed_mask=decoder._mask,
        )
        decoder._position += 1
        return
    setups: dict[tuple, list[BatchedDecoder]] = {}
    for decoder in decoders:
        setups.setdefault(decoder._setup, []).append(decoder)
    for members in setups.values():
        groups = [group for decoder in members for group in decoder._groups]
        owners = {
            id(stream): decoder
            for decoder in members
            for group in decoder._groups
            for stream in group.streams
        }
        lead = members[0]
        mask = None if lead._mask is None else np.stack(
            [decoder._mask for decoder in members for _ in decoder._groups]
        )
        for decoder in members:
            decoder._groups = []
            decoder._position += 1
        for group in decode_step(
            groups,
            temperature=lead._temperature,
            top_p=lead._top_p,
            allowed_mask=mask,
        ):
            owners[id(group.streams[0])]._groups.append(group)
