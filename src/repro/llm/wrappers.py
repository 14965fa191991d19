"""Model wrappers that modify a base LM's next-token distribution.

:class:`ShiftBiasedLM` mixes part of the base distribution's probability
mass one *value token* upward (digit ``d`` → ``d+1``, SAX symbol ``s`` →
the next interval).  At the most-significant digit position this produces a
systematic upward offset of the decoded values — precisely the failure mode
the paper observes for Phi-2 (Fig. 2b: "its entire output is shifted 1 to 2
units on the y-axis" while still tracking the trend).  The separator token
(always the last corpus id) is never disturbed, so streams stay well-formed.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import GenerationError
from repro.llm.interface import LanguageModel

__all__ = ["ShiftBiasedLM"]


class ShiftBiasedLM(LanguageModel):
    """Delegate to ``base`` but lean the sampled values one step upward.

    Parameters
    ----------
    base:
        The wrapped in-context model (consumes the same vocabulary).
    shift_weight:
        Fraction of each value token's probability mass moved upward.  The
        separator id (``vocab_size - 1``) is left untouched.
    shift_steps:
        How many value ids the mass moves (clamped at the top value id).
        The expected decoded offset per digit is ``shift_weight * shift_steps``.
    """

    def __init__(
        self,
        base: LanguageModel,
        shift_weight: float = 0.3,
        shift_steps: int = 1,
    ) -> None:
        super().__init__(base.vocab_size)
        if not 0.0 <= shift_weight < 1.0:
            raise GenerationError(
                f"shift_weight must be in [0, 1), got {shift_weight}"
            )
        if shift_steps < 1:
            raise GenerationError(f"shift_steps must be >= 1, got {shift_steps}")
        self.base = base
        self.shift_weight = shift_weight
        self.shift_steps = shift_steps

    def reset(self, context: Sequence[int]) -> None:
        """Delegate ingest to the wrapped model."""
        self.base.reset(context)

    def fork(self) -> "ShiftBiasedLM":
        """Fork the wrapped model and re-wrap it with the same bias."""
        if type(self) is not ShiftBiasedLM:
            return super().fork()
        return ShiftBiasedLM(
            self.base.fork(),
            shift_weight=self.shift_weight,
            shift_steps=self.shift_steps,
        )

    def advance(self, token: int) -> None:
        """Delegate the observation to the wrapped model."""
        self.base.advance(token)

    def extend(self, tokens: Sequence[int]) -> None:
        """Delegate bulk ingest to the wrapped model."""
        self.base.extend(tokens)

    @classmethod
    def advance_batch(
        cls, models: Sequence["ShiftBiasedLM"], tokens: Sequence[int]
    ) -> None:
        """Advance the wrapped models through *their* class's batch path."""
        base_cls = type(models[0].base)
        if any(
            type(m) is not ShiftBiasedLM or type(m.base) is not base_cls
            for m in models
        ):
            return super().advance_batch(models, tokens)
        base_cls.advance_batch([m.base for m in models], tokens)

    def next_distribution(self) -> np.ndarray:
        """The wrapped distribution with mass leaned one value step upward."""
        probs = self.base.next_distribution().copy()
        last_value = self.vocab_size - 2  # ids [0, last_value] are values
        if last_value < 1:
            return probs
        moved = self.shift_weight * probs[: last_value + 1]
        probs[: last_value + 1] -= moved
        targets = np.minimum(
            np.arange(last_value + 1) + self.shift_steps, last_value
        )
        np.add.at(probs, targets, moved)
        return probs / probs.sum()

    @classmethod
    def next_distribution_batch(cls, models: Sequence["ShiftBiasedLM"]) -> np.ndarray:
        """Batched bias: score the wrapped models in batch, shift row-wise.

        The wrapped models are scored through *their* class's
        ``next_distribution_batch`` (so a PPM base keeps its vectorised
        tail) and the upward lean is applied to the whole matrix at once.
        Heterogeneous batches fall back to stacking.  ``np.add.at`` visits
        a matrix in row-major order, so duplicate shift targets accumulate
        per row exactly as in the scalar path — rows stay bit-identical.
        """
        first = models[0]
        base_cls = type(first.base)
        if (
            any(type(m) is not ShiftBiasedLM for m in models)
            or any(type(m.base) is not base_cls for m in models)
            or any(m.vocab_size != first.vocab_size for m in models)
            or any(m.shift_weight != first.shift_weight for m in models)
            or any(m.shift_steps != first.shift_steps for m in models)
        ):
            return super().next_distribution_batch(models)
        probs = base_cls.next_distribution_batch([m.base for m in models])
        last_value = first.vocab_size - 2  # ids [0, last_value] are values
        if last_value < 1:
            return probs
        moved = first.shift_weight * probs[:, : last_value + 1]
        probs[:, : last_value + 1] -= moved
        targets = np.minimum(
            np.arange(last_value + 1) + first.shift_steps, last_value
        )
        rows = np.arange(len(models))[:, None]
        np.add.at(probs, (rows, targets[None, :]), moved)
        sums = np.array([row.sum() for row in probs])
        return probs / sums[:, None]
