"""Recency-weighted PPM: decayed continuation counts.

Real LLMs weight recent context more heavily than distant context; plain
PPM counts every historical occurrence equally, so a pattern that changed
mid-series keeps pulling predictions toward its old continuation.
:class:`RecencyPPMLanguageModel` decays each continuation count
exponentially with its age — the weight of an observation ``k`` steps ago
is ``0.5 ** (k / halflife)`` — while keeping the PPM-C escape mechanism
over the *decayed* totals.

Counts are stored in amortised O(1) per observation: each cell keeps an
accumulated decayed weight and the time it was last touched, folding the
decay in lazily on update and on read.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import GenerationError
from repro.llm.interface import LanguageModel

__all__ = ["RecencyPPMLanguageModel"]


class _DecayedCell:
    """One (suffix, token) weight with lazy exponential decay."""

    __slots__ = ("weight", "touched")

    def __init__(self) -> None:
        self.weight = 0.0
        self.touched = 0

    def bump(self, now: int, gamma: float) -> None:
        self.weight = self.weight * gamma ** (now - self.touched) + 1.0
        self.touched = now

    def value(self, now: int, gamma: float) -> float:
        return self.weight * gamma ** (now - self.touched)

    def clone(self) -> "_DecayedCell":
        cell = _DecayedCell()
        cell.weight = self.weight
        cell.touched = self.touched
        return cell


class _DecayedCounts:
    """Decayed cells for one context order: suffix-tuple -> token -> cell.

    Cloning is copy-on-write: a clone shares the parent's per-suffix cell
    dicts and privatises one (cloning its handful of cells) only when it
    is first written afterwards, so forking is a single shallow dict copy
    per order.  ``_owned`` is
    ``None`` until the first clone and afterwards holds the suffixes whose
    cell dicts this instance owns.
    """

    __slots__ = ("table", "_owned")

    def __init__(self) -> None:
        self.table: dict[tuple[int, ...], dict[int, _DecayedCell]] = {}
        self._owned: set[tuple[int, ...]] | None = None

    def cells_for_write(self, suffix: tuple[int, ...]) -> dict[int, _DecayedCell]:
        """The suffix's cell dict, privatised if it is still shared."""
        table = self.table
        cells = table.get(suffix)
        owned = self._owned
        if cells is None:
            cells = table[suffix] = {}
            if owned is not None:
                owned.add(suffix)
        elif owned is not None and suffix not in owned:
            cells = table[suffix] = {
                token: cell.clone() for token, cell in cells.items()
            }
            owned.add(suffix)
        return cells

    def get(self, suffix: tuple[int, ...]) -> dict[int, _DecayedCell] | None:
        """Read-only view of the suffix's cells (may be shared — no bumps)."""
        return self.table.get(suffix)

    def clone(self) -> "_DecayedCounts":
        """A copy sharing cell dicts until either side writes to one."""
        fresh = _DecayedCounts()
        fresh.table = dict(self.table)
        fresh._owned = set()
        self._owned = set()
        return fresh


class RecencyPPMLanguageModel(LanguageModel):
    """Variable-order PPM with exponentially decayed counts.

    Parameters
    ----------
    vocab_size, max_order, uniform_floor:
        As in :class:`~repro.llm.ppm.PPMLanguageModel`.
    halflife:
        Age (in tokens) at which an observation's weight halves.  Large
        halflives converge to plain PPM; short ones track regime changes.
    """

    def __init__(
        self,
        vocab_size: int,
        max_order: int = 8,
        halflife: float = 500.0,
        uniform_floor: float = 1e-3,
    ) -> None:
        super().__init__(vocab_size)
        if max_order < 0:
            raise GenerationError(f"max_order must be >= 0, got {max_order}")
        if halflife <= 0:
            raise GenerationError(f"halflife must be > 0, got {halflife}")
        if not 0.0 < uniform_floor < 1.0:
            raise GenerationError(
                f"uniform_floor must be in (0, 1), got {uniform_floor}"
            )
        self.max_order = max_order
        self.halflife = halflife
        self.uniform_floor = uniform_floor
        self._gamma = 0.5 ** (1.0 / halflife)
        self._tables: list[_DecayedCounts] = []
        self._history: list[int] = []

    def reset(self, context: Sequence[int]) -> None:
        """Drop all decayed counts and ingest ``context``."""
        self._tables = [_DecayedCounts() for _ in range(self.max_order + 1)]
        self._history = []
        for token in context:
            self.advance(int(token))

    def fork(self) -> "RecencyPPMLanguageModel":
        """Copy-on-write fork: decayed cells are shared until written.

        One shallow dict copy per order; a later bump on either side
        privatises just the touched suffix's cells, so parent and fork
        never observe each other's decay updates.  Subclasses keep the
        base deepcopy (their extra state is unknown here).
        """
        if type(self) is not RecencyPPMLanguageModel:
            return super().fork()
        fresh = RecencyPPMLanguageModel(
            self.vocab_size,
            max_order=self.max_order,
            halflife=self.halflife,
            uniform_floor=self.uniform_floor,
        )
        fresh._tables = [table.clone() for table in self._tables]
        fresh._history = list(self._history)
        return fresh

    def advance(self, token: int) -> None:
        """Bump the decayed continuation weight at every suffix order."""
        self._check_token(token)
        history = self._history
        n = len(history)
        for k in range(min(self.max_order, n) + 1):
            suffix = tuple(history[n - k :]) if k else ()
            cells = self._tables[k].cells_for_write(suffix)
            cell = cells.get(token)
            if cell is None:
                cell = _DecayedCell()
                cells[token] = cell
            cell.bump(n, self._gamma)
        history.append(token)

    def _escape_cascade(self, result: np.ndarray) -> float:
        """Accumulate every order's decayed counts into ``result``; return
        the escape weight left for the uniform floor."""
        history = self._history
        now = len(history)
        weight = 1.0
        for k in range(min(self.max_order, now), -1, -1):
            suffix = tuple(history[now - k :]) if k else ()
            cells = self._tables[k].get(suffix)
            if not cells:
                continue
            values = {
                token: cell.value(now, self._gamma)
                for token, cell in cells.items()
            }
            total = sum(values.values())
            if total <= 0.0:
                continue
            distinct = len(values)
            denom = total + distinct
            for token, value in values.items():
                result[token] += weight * value / denom
            weight *= distinct / denom
            if weight < 1e-12:
                break
        return weight

    def next_distribution(self) -> np.ndarray:
        """PPM-C escape cascade over decayed (recency-weighted) counts."""
        result = np.zeros(self.vocab_size, dtype=float)
        weight = self._escape_cascade(result)
        floor_weight = max(weight, self.uniform_floor)
        result += floor_weight / self.vocab_size
        return result / result.sum()

    @classmethod
    def next_distribution_batch(
        cls, models: Sequence["RecencyPPMLanguageModel"]
    ) -> np.ndarray:
        """Batched scoring: per-row decayed cascades, vectorised floor tail.

        Rows are bit-identical to per-model :meth:`next_distribution`
        calls — the cascade (sparse dict walks) runs per model, the uniform
        floor and normalisation run once over the ``(S, V)`` matrix with
        the scalar path's per-element operation order preserved.
        """
        if any(type(m) is not RecencyPPMLanguageModel for m in models):
            return super().next_distribution_batch(models)
        size = models[0].vocab_size
        if any(model.vocab_size != size for model in models):
            return super().next_distribution_batch(models)
        result = np.zeros((len(models), size), dtype=float)
        weights = np.empty(len(models), dtype=float)
        for i, model in enumerate(models):
            weights[i] = model._escape_cascade(result[i])
        floors = np.array([model.uniform_floor for model in models])
        floor_weights = np.maximum(weights, floors)
        result += floor_weights[:, None] / size
        sums = np.array([row.sum() for row in result])
        result /= sums[:, None]
        return result
