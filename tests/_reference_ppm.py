"""Reference PPM: the dict-of-counts implementation, kept as a test oracle.

``tests/test_ppm_kernel.py`` checks the array-backed
:class:`repro.llm.ppm.PPMLanguageModel` against this model with
``np.array_equal``.  Below is the original module text, unchanged.

Prediction by Partial Matching (PPM) — the main LLM stand-in.

Zero-shot LLM forecasting works because an LLM continues the repetitive
structure of the numeric token stream it is shown (the LLMTime argument that
digit-by-digit prediction follows a multimodal distribution the model infers
in context).  PPM performs precisely that in-context induction: it predicts
the next token from counts gathered over the prompt itself, preferring the
longest context suffix that has been seen before and *escaping* to shorter
suffixes when the long one is uninformative.

This implementation uses the PPM-C escape estimator without exclusion:

    P_k(t | s_k)   = c(s_k t) / (c(s_k) + d(s_k))
    P_esc(s_k)     = d(s_k)   / (c(s_k) + d(s_k))

where ``s_k`` is the length-``k`` suffix, ``c`` are continuation counts and
``d`` the number of distinct continuations.  Probability mass cascades from
order ``max_order`` down to order 0 and finally a uniform floor, so every
token always has non-zero probability.

The context index is *incremental*: ingesting the prompt is O(n · max_order)
dictionary updates and every generated token costs O(max_order), which keeps
full benchmark sweeps fast.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import GenerationError
from repro.llm.interface import LanguageModel

__all__ = ["PPMLanguageModel"]


class _ContextCounts:
    """Continuation counts for one context order: suffix-tuple -> counts.

    Cloning is copy-on-write: a clone shares the parent's per-suffix count
    dicts and copies one only when it is first mutated afterwards.  That
    makes :meth:`clone` a single C-level shallow dict copy — O(1) per entry
    instead of O(tokens) — which is what keeps fork-after-prefill cheap,
    while a decode that advances ``m`` tokens privatises only the ``m ×
    max_order`` entries it actually touches.  ``_owned`` is ``None`` until
    the first clone (never-forked models skip the ownership check entirely)
    and afterwards holds the suffixes whose count dicts this instance owns.
    """

    __slots__ = ("table", "_owned")

    def __init__(self) -> None:
        self.table: dict[tuple[int, ...], dict[int, int]] = {}
        self._owned: set[tuple[int, ...]] | None = None

    def observe(self, suffix: tuple[int, ...], token: int) -> None:
        table = self.table
        counts = table.get(suffix)
        owned = self._owned
        if counts is None:
            counts = table[suffix] = {}
            if owned is not None:
                owned.add(suffix)
        elif owned is not None and suffix not in owned:
            counts = table[suffix] = dict(counts)
            owned.add(suffix)
        counts[token] = counts.get(token, 0) + 1

    def get(self, suffix: tuple[int, ...]) -> dict[int, int] | None:
        return self.table.get(suffix)

    def clone(self) -> "_ContextCounts":
        """An independent copy sharing count dicts until either side writes.

        Both parent and clone drop ownership of every shared entry, so
        mutation on *either* side privatises before writing — the two never
        observe each other's updates.
        """
        fresh = _ContextCounts()
        fresh.table = dict(self.table)
        fresh._owned = set()
        self._owned = set()
        return fresh


class PPMLanguageModel(LanguageModel):
    """Variable-order PPM model over a dense corpus-id vocabulary.

    Parameters
    ----------
    vocab_size:
        Size of the corpus-id space (digits + separator, or SAX symbols).
    max_order:
        Longest context suffix considered.  This is the model-capacity knob
        that differentiates the simulated LLaMA2 and Phi-2 presets.
    uniform_floor:
        Weight left for the uniform distribution after the order-0 escape —
        keeps the model proper and mildly exploratory.
    """

    def __init__(
        self,
        vocab_size: int,
        max_order: int = 8,
        uniform_floor: float = 1e-3,
    ) -> None:
        super().__init__(vocab_size)
        if max_order < 0:
            raise GenerationError(f"max_order must be >= 0, got {max_order}")
        if not 0.0 < uniform_floor < 1.0:
            raise GenerationError(
                f"uniform_floor must be in (0, 1), got {uniform_floor}"
            )
        self.max_order = max_order
        self.uniform_floor = uniform_floor
        self._orders: list[_ContextCounts] = []
        self._zero_counts = np.zeros(vocab_size, dtype=float)
        self._history: list[int] = []

    # -- session protocol ---------------------------------------------------

    def reset(self, context: Sequence[int]) -> None:
        """Rebuild the context index from scratch and ingest ``context``."""
        self._orders = [_ContextCounts() for _ in range(self.max_order + 1)]
        self._zero_counts = np.zeros(self.vocab_size, dtype=float)
        self._history = []
        for token in context:
            self.advance(int(token))

    def fork(self) -> "PPMLanguageModel":
        """Copy-on-write fork: per-order tables share counts until written.

        Orders of magnitude faster than re-ingesting the prompt (one
        shallow dict copy per order instead of per-token Python suffix
        updates), and observationally independent — writes on either side
        privatise the touched entry first, so the continuation counts of
        parent and fork never influence each other.  Subclasses keep the
        base deepcopy (their extra state is unknown here).
        """
        if type(self) is not PPMLanguageModel:
            return super().fork()
        fresh = PPMLanguageModel(
            self.vocab_size,
            max_order=self.max_order,
            uniform_floor=self.uniform_floor,
        )
        fresh._orders = [order.clone() for order in self._orders]
        fresh._zero_counts = self._zero_counts.copy()
        fresh._history = list(self._history)
        return fresh

    def advance(self, token: int) -> None:
        """Record ``token``'s continuation at every suffix order."""
        self._check_token(token)
        history = self._history
        n = len(history)
        # Record the continuation for every suffix order ending here.
        self._zero_counts[token] += 1.0
        for k in range(1, min(self.max_order, n) + 1):
            suffix = tuple(history[n - k :])
            self._orders[k].observe(suffix, token)
        history.append(token)

    def _escape_cascade(self, result: np.ndarray) -> float:
        """Accumulate orders ``max_order..1`` into ``result``; return the
        escape weight left for the order-0/uniform tail."""
        history = self._history
        n = len(history)
        weight = 1.0
        for k in range(min(self.max_order, n), 0, -1):
            suffix = tuple(history[n - k :])
            counts = self._orders[k].get(suffix)
            if not counts:
                continue
            total = sum(counts.values())
            distinct = len(counts)
            denom = total + distinct
            for token, count in counts.items():
                result[token] += weight * count / denom
            weight *= distinct / denom
            if weight < 1e-12:
                break
        return weight

    def _order0_tail(self, result: np.ndarray, weight: float) -> np.ndarray:
        """Order-0 unigram escape plus the uniform floor and normalisation."""
        total0 = float(self._zero_counts.sum())
        if total0 > 0.0:
            distinct0 = float(np.count_nonzero(self._zero_counts))
            denom0 = total0 + distinct0
            result += weight * self._zero_counts / denom0
            weight *= distinct0 / denom0
        floor_weight = max(weight, self.uniform_floor)
        result += floor_weight / self.vocab_size
        return result / result.sum()

    def next_distribution(self) -> np.ndarray:
        """PPM-C escape cascade from the longest matching suffix down."""
        result = np.zeros(self.vocab_size, dtype=float)
        weight = self._escape_cascade(result)
        return self._order0_tail(result, weight)

    @classmethod
    def next_distribution_batch(
        cls, models: Sequence["PPMLanguageModel"]
    ) -> np.ndarray:
        """Batched PPM scoring: per-row escape cascades, vectorised tail.

        The sparse high-order cascade stays per-model (it touches only the
        few counts behind the current suffix), while the dense order-0 /
        uniform-floor / normalisation tail — the bulk of the per-call numpy
        work — runs once over the whole ``(S, V)`` matrix.  Every operation
        keeps the per-element order of the scalar path, so rows are
        bit-identical to per-model :meth:`next_distribution` calls.
        """
        if any(type(model) is not PPMLanguageModel for model in models):
            return super().next_distribution_batch(models)
        size = models[0].vocab_size
        if any(model.vocab_size != size for model in models):
            return super().next_distribution_batch(models)
        result = np.zeros((len(models), size), dtype=float)
        weights = np.empty(len(models), dtype=float)
        for i, model in enumerate(models):
            weights[i] = model._escape_cascade(result[i])
        totals = np.array([float(m._zero_counts.sum()) for m in models])
        if not np.all(totals > 0.0):
            # Empty-context rows take the scalar tail (rare outside tests).
            for i, model in enumerate(models):
                result[i] = model._order0_tail(result[i], float(weights[i]))
            return result
        zeros = np.stack([model._zero_counts for model in models])
        distincts = np.array(
            [float(np.count_nonzero(m._zero_counts)) for m in models]
        )
        denoms = totals + distincts
        result += weights[:, None] * zeros / denoms[:, None]
        weights = weights * (distincts / denoms)
        floors = np.array([model.uniform_floor for model in models])
        floor_weights = np.maximum(weights, floors)
        result += floor_weights[:, None] / size
        sums = np.array([row.sum() for row in result])
        result /= sums[:, None]
        return result
