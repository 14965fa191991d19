"""Prediction by Partial Matching (PPM) — the main LLM stand-in.

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

Storage is a flat, array-backed context table.  Every context (a token
string of length ``0..max_order``) has an exact dense integer id: the empty
context is id 0, and the context ``s + t`` is interned under the key
``(id(s), t)`` — stored as the flat offset ``id(s) · 2V + V + t``, bounded
by the table size, so it cannot overflow for any vocabulary or order and
no two contexts share one.  Each context owns one int32 row of width
``2V``: its continuation counts (``[:V]``; row 0 is the order-0 unigram
row) and its transitions (``[V:]``: the id of ``s + t``, or -1).  The
order-``k`` context at the next position is therefore one lookup away from
the order-``k-1`` context at this one.

Costs:

* :meth:`PPMLanguageModel.extend` ingests a whole token run with numpy: per
  order it looks up every new position's context at once and interns the
  unseen ones with a :func:`numpy.unique`-style sort, then adds all
  ``(context, next token)`` pairs with one :func:`numpy.add.at` into a
  *fresh* table — a dozen numpy calls per order instead of ``max_order``
  Python dict updates per token.  :meth:`~PPMLanguageModel.reset` is
  ``extend`` on an empty model.
* Tables are frozen once built, so models share them freely.  Decode-time
  :meth:`~PPMLanguageModel.advance` writes into a small *overlay*: private
  copies of the rows of the contexts the model has been in, including
  contexts the table never saw.  :meth:`~PPMLanguageModel.fork` shares the
  table and copies only the overlay — O(tokens advanced since the table
  was built · order), never O(contexts).  The forks of one decode keep
  their overlays in one shared store, so
  :meth:`~PPMLanguageModel.advance_batch` updates all of a step's models
  with one scatter and one gather.
* :meth:`~PPMLanguageModel.next_distribution_batch` gathers the current
  context rows of all models into one ``(G, max_order + 1, V)`` array and
  runs the escape cascade for every row and order at once.  The scalar
  :meth:`~PPMLanguageModel.next_distribution` is the same computation on a
  batch of one.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence

import numpy as np

from repro.exceptions import GenerationError
from repro.llm.interface import LanguageModel

__all__ = ["PPMLanguageModel"]

#: The escape cascade stops descending once the remaining weight drops
#: below this (order 0 and the uniform floor still apply).
_CUTOFF = 1e-12

#: ``sequence_nll`` scores runs in chunks of this many tokens.
_NLL_CHUNK = 4096


def _blank_rows(count: int, vocab_size: int) -> np.ndarray:
    """``count`` context rows with no counts and no transitions."""
    rows = np.zeros((count, 2 * vocab_size), dtype=np.int32)
    rows[:, vocab_size:] = -1
    return rows


def _intern(keys: np.ndarray, next_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids from ``next_id`` up for unseen context ``keys``.

    Equal keys share one id, and ids follow first occurrence — so when
    the next order extends these contexts, its keys arrive already sorted
    and distinct and skip the sort entirely.  Returns ``(ids, distinct
    keys in id order)``; this is :func:`numpy.unique`'s stable sort and
    boundary scan, plus the first-occurrence ranking.
    """
    count = keys.size
    if count == 1 or bool((keys[1:] > keys[:-1]).all()):
        return np.arange(next_id, next_id + count), keys
    order = keys.argsort(kind="stable")
    ranked = keys[order]
    first = np.empty(count, dtype=bool)
    first[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    if first.all():
        return np.arange(next_id, next_id + count), keys
    group = np.cumsum(first) - 1
    # A stable sort puts each group's first occurrence at its head.
    by_first = order[first].argsort()
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(next_id, next_id + by_first.size)
    ids = np.empty(count, dtype=np.int64)
    ids[order] = rank[group]
    return ids, ranked[first][by_first]


class _Overlay:
    """Decode-time rows of the models advanced together: the forks of one
    decode, or the requests a continuous scheduler steps at once.

    A row is a private copy of one context's table row, owned by exactly
    one model (``owner`` holds the model's tag, handed out by
    :meth:`new_tag`; ``ids`` the context's table id, or -1 for a context
    the table never saw).  In overlay rows the transition columns are
    *links*: ``>= 0`` is still a table id, ``-1`` no context, and
    ``-2 - r`` the owner's private row ``r``.  A context is privatised
    through its parent's link (its only way in), so after that every
    visit resolves it without a lookup table.

    :meth:`PPMLanguageModel.fork` copies the parent's rows into fresh ones
    for the child, so models never see each other's writes; sharing the
    storage is what lets one decode step advance and score all of its
    models with a handful of array operations.  Row 0 is blank.  ``lock``
    serialises allocation and writes, so forks used from different
    threads stay safe.  ``batch`` remembers the last batch advanced — its
    models' tags and their ``(G, max_order + 1)`` current rows — so the
    next step over the same models reuses that array as is.
    """

    __slots__ = ("vocab", "rows", "ids", "owner", "used", "tags", "lock", "batch")

    def __init__(self, vocab_size: int) -> None:
        self.vocab = vocab_size
        self.rows: np.ndarray | None = None
        self.ids: np.ndarray | None = None
        self.owner: np.ndarray | None = None
        self.used = 1
        self.tags = 0
        self.lock = threading.Lock()
        self.batch: tuple[tuple, np.ndarray] | None = None

    def new_tag(self) -> int:
        """A tag no other model of this store holds (caller holds the lock)."""
        self.tags += 1
        return self.tags

    def allocate(self, count: int) -> int:
        """Reserve ``count`` rows (caller holds the lock); return the first."""
        start = self.used
        end = start + count
        if self.rows is None or end > self.rows.shape[0]:
            size = max(2 * end, 64)
            rows = _blank_rows(size, self.vocab)
            ids = np.full(size, -1, dtype=np.int64)
            owner = np.zeros(size, dtype=np.int64)
            if self.rows is not None:
                rows[:start] = self.rows[:start]
                ids[:start] = self.ids[:start]
                owner[:start] = self.owner[:start]
            self.rows, self.ids, self.owner = rows, ids, owner
        self.used = end
        return start

    def owned(self, tag: int) -> np.ndarray:
        """Rows owned by ``tag``, ascending (caller holds the lock)."""
        return np.flatnonzero(self.owner[: self.used] == tag)

    def __getstate__(self):
        return self.vocab, self.rows, self.ids, self.owner, self.used, self.tags

    def __setstate__(self, state) -> None:
        self.vocab, self.rows, self.ids, self.owner, self.used, self.tags = state
        self.lock = threading.Lock()
        self.batch = None



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

    State:

    * ``_table`` — the frozen ``(N + 1, 2V)`` rows of context ids
      ``0..N-1`` plus a blank sentinel row ``N``; never written once built.
    * ``_tag`` — ``None`` while the model is exactly its table (and has
      no ``_overlay``); after the first :meth:`advance`, its rows in
      ``_overlay`` carry this tag.
    * ``_rows`` — the current context of every order in *slot* order (slot
      ``i`` holds order ``max_order - i``): table rows (= context ids) while
      clean, overlay rows once advanced; slots for orders longer than the
      history point at a blank row.
    * ``_last``/``_recent`` — the last ``max_order`` tokens when the table
      was built and the tokens advanced since, from which the first
      :meth:`advance` rebuilds the recent contexts' links.
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
        self._load(_blank_rows(2, vocab_size), 0, np.zeros(1, dtype=np.int64), ())

    # -- state plumbing -----------------------------------------------------

    def _load(
        self, table: np.ndarray, n: int, current: np.ndarray, last: tuple
    ) -> None:
        """Adopt the frozen ``table`` after ``n`` tokens, with no overlay.

        ``current`` holds the current context ids in slot order (longest
        order first), ``last`` the last ``max_order`` tokens.
        """
        self._table = table
        self._n = n
        rows = np.full(self.max_order + 1, table.shape[0] - 1, dtype=np.intp)
        rows[self.max_order + 1 - len(current) :] = current
        self._rows = rows
        self._last = last
        self._recent: list[int] = []
        self._overlay: _Overlay | None = None
        self._tag: int | None = None

    def _tail(self) -> tuple:
        """The last ``max_order`` tokens of the history."""
        if not self.max_order:
            return ()
        return (self._last + tuple(self._recent))[-self.max_order :]

    def _source(self) -> np.ndarray:
        """The array ``_rows`` index: the table, or the overlay's rows."""
        return self._table if self._tag is None else self._overlay.rows

    def _folded(self) -> tuple[np.ndarray, np.ndarray]:
        """The table with the overlay merged in (sentinel last), and the
        current context ids in slot order."""
        live = self._rows[self.max_order - min(self.max_order, self._n) :]
        if self._tag is None:
            return self._table, live
        overlay = self._overlay
        vocab = self.vocab_size
        with overlay.lock:
            own = overlay.owned(self._tag)
            block = overlay.rows[own]
            ids = overlay.ids[own]
        table = self._table
        known = table.shape[0] - 1
        fresh = ids < 0
        ids[fresh] = np.arange(known, known + int(np.count_nonzero(fresh)))
        links = block[:, vocab:]
        private = links < -1
        links[private] = ids[own.searchsorted(-2 - links[private])]
        folded = _blank_rows(known + int(np.count_nonzero(fresh)) + 1, vocab)
        folded[:known] = table[:known]
        folded[ids] = block
        return folded, ids[own.searchsorted(live)]

    # -- session protocol ---------------------------------------------------

    def reset(self, context: Sequence[int]) -> None:
        """Rebuild the context index from scratch and ingest ``context``."""
        self._load(
            _blank_rows(2, self.vocab_size), 0, np.zeros(1, dtype=np.int64), ()
        )
        self.extend(context)

    def extend(self, tokens: Sequence[int]) -> None:
        """Ingest ``tokens`` in bulk into a fresh context table.

        Bit-identical to ``advance``-ing each token in turn.  Per order
        ``k``, the context of each new position is the order-``k-1``
        context one position earlier extended by the token there, so one
        gather through the transition columns resolves every context the
        table already has, and a :func:`numpy.unique`-style sort interns
        the rest.  All ``(context, next token)`` pairs then land in the new
        table through one unbuffered :func:`numpy.add.at`.
        """
        x = np.asarray(tokens, dtype=np.int64).reshape(-1)
        if x.size:
            self._extend(x)

    def _extend(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`extend` by the non-empty int64 run ``x``; returns the run's
        context ids ``ctx`` and the table they index before the run."""
        length = x.size
        vocab = self.vocab_size
        if x.min() < 0 or x.max() >= vocab:
            self._check_token(int(x[(x < 0) | (x >= vocab)][0]))
        width = 2 * vocab
        old, current = self._folded()
        known = old.shape[0] - 1
        # Offsets past the end clip to the sentinel's last column (-1).
        lookup = old.reshape(-1)
        order = self.max_order
        n = self._n
        shifted = x + vocab
        # ctx[k, j]: id of the order-k context at position n + j, -1 while
        # the history is shorter than k.
        ctx = np.full((order + 1, length + 1), -1, dtype=np.int64)
        ctx[0] = 0
        ctx[: len(current), 0] = current[::-1]
        next_id = known
        interned = []
        for k in range(1, order + 1):
            start = max(1, k - n)
            if start > length:
                break
            keys = ctx[k - 1, start - 1 : length] * width
            keys += shifted[start - 1 : length]
            ids = lookup.take(keys, mode="clip")
            fresh = ids < 0
            unseen = keys[fresh]
            if unseen.size:
                ids[fresh], unseen = _intern(unseen, next_id)
                next_id += unseen.size
                interned.append(unseen)
            ctx[k, start:] = ids
        table = np.empty((next_id + 1, width), dtype=np.int32)
        table[:known] = old[:known]
        table[known:] = _blank_rows(1, vocab)
        flat = table.reshape(-1)
        if interned:
            flat[np.concatenate(interned)] = np.arange(known, next_id)
        observed = ctx[:, :length]
        np.add.at(flat, (observed * width + x)[observed >= 0], np.int32(1))
        total = n + length
        depth = min(order, total)
        tail = (self._tail() + tuple(x[-order:].tolist())) if order else ()
        self._load(table, total, ctx[depth::-1, length], tail[-order:] if order else ())
        return ctx, old

    def sequence_nll(
        self, tokens: Sequence[int], context: Sequence[int] = ()
    ) -> np.ndarray:
        """Per-token negative log-likelihood of ``tokens`` after ``context``.

        Equal to the base class's advance-and-score loop, in bulk: the run
        is ingested with :meth:`extend`, and the counts each position saw
        are rebuilt from the table before the run plus, per context, the
        continuations it had earlier in the run (a running sum over that
        context's occurrences).  One cascade then scores every position.
        Runs are taken in chunks to bound memory.  Subclasses keep the
        base loop (they may override scoring).
        """
        if type(self) is not PPMLanguageModel:
            return super().sequence_nll(tokens, context)
        self.reset(context)
        x = np.asarray(tokens, dtype=np.int64).reshape(-1)
        nll = np.empty(x.size, dtype=float)
        for start in range(0, x.size, _NLL_CHUNK):
            run = x[start : start + _NLL_CHUNK]
            ctx, old = self._extend(run)
            probs = self._run_distributions(ctx[:, :-1], old, run)
            nll[start : start + run.size] = -np.log(
                np.maximum(probs[np.arange(run.size), run], 1e-300)
            )
        return nll

    def _run_distributions(
        self, ctx: np.ndarray, old: np.ndarray, run: np.ndarray
    ) -> np.ndarray:
        """Next-token distributions at every position of a just-ingested
        ``run``: ``ctx[k, j]`` is the order-``k`` context id before token
        ``j`` (-1 if shorter) and ``old`` the table before the run."""
        vocab = self.vocab_size
        order = self.max_order
        length = run.size
        known = old.shape[0] - 1
        seen = ctx >= 0
        ids = ctx[seen]
        # Entries ordered by context, each context's in run order (a
        # context has one order, so its entries are already ascending).
        by_context = ids.argsort(kind="stable")
        ranked = ids[by_context]
        steps = np.broadcast_to(run, ctx.shape)[seen][by_context]
        hits = np.zeros((ids.size + 1, vocab), dtype=np.int64)
        hits[np.arange(1, ids.size + 1), steps] = 1
        hits = hits.cumsum(axis=0)
        first = np.empty(ids.size, dtype=bool)
        first[:1] = True
        np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
        starts = np.maximum.accumulate(np.where(first, np.arange(ids.size), 0))
        earlier = np.empty((ids.size, vocab), dtype=np.int64)
        earlier[by_context] = hits[:-1] - hits[starts]
        base = old[np.where(ids < known, ids, known), :vocab]
        counts = np.zeros((length, order + 1, vocab), dtype=np.int64)
        orders, positions = np.nonzero(seen)
        counts[positions, order - orders] = base + earlier
        floors = np.full(length, self.uniform_floor)
        return _cascade(counts, floors)

    def fork(self) -> "PPMLanguageModel":
        """Copy-on-write fork: share the frozen table, copy the overlay.

        The table is never written after construction, so parent and fork
        both read it.  The fork gets private copies of the parent's
        overlay rows (links relocated), so their continuation counts never
        influence each other.  Cost is O(overlay) — the rows advanced
        through since the table was built — independent of the prompt
        length.  The forks of an advanced model share its overlay storage,
        which batches their later steps; the parent itself is only read.
        Subclasses keep the base deepcopy (their extra state is unknown
        here).
        """
        if type(self) is not PPMLanguageModel:
            return super().fork()
        fresh = PPMLanguageModel.__new__(PPMLanguageModel)
        fresh.__dict__.update(self.__dict__)
        fresh._recent = self._recent[len(self._recent) - self.max_order :]
        overlay = self._overlay
        if self._tag is not None:
            vocab = self.vocab_size
            with overlay.lock:
                own = overlay.owned(self._tag)
                start = overlay.allocate(own.size)
                block = overlay.rows[own]
                links = block[:, vocab:]
                private = links < -1
                links[private] = -2 - (start + own.searchsorted(-2 - links[private]))
                end = start + own.size
                overlay.rows[start:end] = block
                overlay.ids[start:end] = overlay.ids[own]
                fresh._tag = overlay.new_tag()
                overlay.owner[start:end] = fresh._tag
            rows = self._rows
            fresh._rows = np.where(rows > 0, start + own.searchsorted(rows), 0)
        return fresh

    def advance(self, token: int) -> None:
        """Record ``token``'s continuation at every suffix order."""
        self._check_token(token)
        _advance_together([self], [token])

    @classmethod
    def advance_batch(
        cls, models: Sequence["PPMLanguageModel"], tokens: Sequence[int]
    ) -> None:
        """Advance each model by its token, sharing the array work.

        Models whose overlays share storage (the forks of one decode) are
        advanced together — one scatter for every count update, one gather
        for every next context — and the result equals per-model
        :meth:`advance` calls.  Subclasses, and a batch naming one model
        twice, fall back to those calls.
        """
        if len({id(model) for model in models}) != len(models) or any(
            type(model) is not PPMLanguageModel for model in models
        ):
            return super().advance_batch(models, tokens)
        for model, token in zip(models, tokens):
            model._check_token(token)
        _advance_together(models, tokens)

    def _current_counts(self) -> np.ndarray:
        """``(max_order + 1, V)`` counts of the current contexts, slot order."""
        return self._source().take(self._rows, axis=0)[:, : self.vocab_size]

    def next_distribution(self) -> np.ndarray:
        """PPM-C escape cascade from the longest matching suffix down."""
        return _cascade(
            self._current_counts()[None], np.array([self.uniform_floor])
        )[0]

    @classmethod
    def next_distribution_batch(
        cls, models: Sequence["PPMLanguageModel"]
    ) -> np.ndarray:
        """Batched PPM scoring: one gather, one vectorised cascade.

        The current context rows of all G models are gathered into one
        ``(G, max_order + 1, V)`` count array — a single indexing operation
        when they share overlay storage, as the groups of one decode do —
        and the escape blend runs over every row and order at once, in
        the scalar path's operation order, so rows are bit-identical to
        per-model :meth:`next_distribution` calls.  Batches mixing model
        types, vocabularies or orders fall back to stacking.
        """
        first = models[0]
        vocab = first.vocab_size
        if any(
            type(model) is not PPMLanguageModel
            or model.vocab_size != vocab
            or model.max_order != first.max_order
            for model in models
        ):
            return super().next_distribution_batch(models)
        source = first._source()
        if all(model._source() is source for model in models):
            last = first._overlay.batch if first._tag is not None else None
            if last is not None and last[0] == tuple(m._tag for m in models):
                rows = last[1].reshape(-1)
            else:
                rows = np.concatenate([model._rows for model in models])
            counts = source.take(rows, axis=0)[:, :vocab].reshape(
                len(models), first.max_order + 1, vocab
            )
        else:
            counts = np.stack([model._current_counts() for model in models])
        return _cascade(counts, np.array([model.uniform_floor for model in models]))


#: A store takes no newly advancing models once it holds this many rows,
#: so the rows of finished decodes are freed with their store.
_JOIN_ROWS = 1 << 16


def _advance_together(
    models: Sequence[PPMLanguageModel], tokens: Sequence[int]
) -> None:
    """Advance PPM ``models`` by ``tokens`` (already validated).

    Models still exactly their table (a prefilled state's fresh forks) get
    overlay storage here: the emptiest store already in the batch with
    room and the same vocabulary — so the groups of one decode, and the
    requests of a continuous scheduler, come to share one — or a new one.
    Stores are never attached at fork time, so a frozen cached state never
    holds one.
    """
    first = models[0]
    if first._overlay is not None and all(
        model._overlay is first._overlay and model.max_order == first.max_order
        for model in models
    ):
        batches = [(list(models), [int(token) for token in tokens])]
    else:
        joinable = [
            model._overlay
            for model in models
            if model._overlay is not None
            and model._overlay.vocab == model.vocab_size
            and model._overlay.used < _JOIN_ROWS
        ]
        grouped: dict[tuple[int, int], tuple[list, list]] = {}
        for model, token in zip(models, tokens):
            if model._overlay is None:
                home = min(
                    (store for store in joinable if store.vocab == model.vocab_size),
                    key=lambda store: store.used,
                    default=None,
                )
                if home is None:
                    home = _Overlay(model.vocab_size)
                    joinable.append(home)
                model._overlay = home
            key = (id(model._overlay), model.max_order)
            members, steps = grouped.setdefault(key, ([], []))
            members.append(model)
            steps.append(int(token))
        batches = list(grouped.values())
    for members, steps in batches:
        overlay = members[0]._overlay
        with overlay.lock:
            for model in members:
                if model._tag is None:
                    _open(model, overlay)
            _advance_shared(overlay, members, steps)


def _open(model: PPMLanguageModel, overlay: _Overlay) -> None:
    """Give a clean ``model`` overlay rows for its recent contexts.

    Every context the model is in — or was in over the last ``max_order``
    tokens — gets a private row, and each one's link from its parent is
    rewritten to that row.  Contexts are later privatised through their
    parent's link only, so this keeps every private context reachable
    from its private parent (caller holds the lock).
    """
    table = model._table
    vocab = model.vocab_size
    width = 2 * vocab
    tail = model._tail()
    span = len(tail) + 1
    # tri[j, i]: id of the order-i context j positions into the tail.
    tri = np.full((span, span), -1, dtype=np.int64)
    tri[:, 0] = 0
    for j, token in enumerate(tail):
        tri[j + 1, 1 : j + 2] = table[tri[j, : j + 1], vocab + token]
    valid = tri >= 0
    ids, inverse = np.unique(tri[valid], return_inverse=True)
    start = overlay.allocate(ids.size)
    end = start + ids.size
    overlay.rows[start:end] = table[ids]
    overlay.ids[start:end] = ids
    model._tag = overlay.new_tag()
    overlay.owner[start:end] = model._tag
    rows = np.zeros((span, span), dtype=np.intp)
    rows[valid] = start + inverse
    if span > 1:
        children = valid[1:, 1:]
        links = rows[:-1, :-1] * width + vocab + np.array(tail)[:, None]
        overlay.rows.reshape(-1)[links[children]] = -2 - rows[1:, 1:][children]
    slots = np.zeros(model.max_order + 1, dtype=np.intp)
    slots[model.max_order + 1 - span :] = rows[-1, ::-1]
    model._rows = slots


def _advance_shared(
    overlay: _Overlay, models: list[PPMLanguageModel], steps: list[int]
) -> None:
    """Advance opened models sharing ``overlay`` and one order (lock held).

    Every current context row is private to its model, so the count
    updates of the whole batch are one scatter and the next contexts one
    gather through the links.  Links still holding a table id (or -1, a
    context never seen) get a freshly allocated private row — a copy of
    the model's table row, or blank — and are rewritten to it.
    """
    first = models[0]
    vocab = first.vocab_size
    width = 2 * vocab
    order = first.max_order
    tokens = np.array(steps, dtype=np.intp)
    tags = tuple(model._tag for model in models)
    last = overlay.batch
    if last is not None and last[0] == tags:
        current = last[1]
    elif len(models) > 1:
        current = np.stack([model._rows for model in models])
    else:
        current = models[0]._rows[None]
    cells = current * width + tokens[:, None]
    steady = all(model._n >= order for model in models)
    flat = overlay.rows.reshape(-1)
    if steady:
        flat[cells] += 1
    else:
        flat[cells[current > 0]] += 1
    # Slots 1.. (orders max_order-1 .. 0) are the parents of the next
    # position's orders max_order .. 1.
    links = cells[:, 1:] + vocab
    kids = flat[links]
    # Private rows come straight from the links; the rest are set below.
    nxt = current.copy()
    np.subtract(-2, kids, out=nxt[:, :order])
    need = kids >= -1
    if not steady:
        alive = current[:, 1:] > 0
        nxt[:, :order][~alive] = 0
        need &= alive
    count = int(np.count_nonzero(need))
    if count:
        start = overlay.allocate(count)
        end = start + count
        fresh = np.arange(start, end)
        nxt[:, :order][need] = fresh
        sources = kids[need]
        overlay.ids[start:end] = sources
        per_model = need.sum(axis=1)
        overlay.owner[start:end] = np.array(tags).repeat(per_model)
        # -1 (a context the table never saw) wraps to the blank sentinel.
        tables = {id(model._table): model._table for model in models}
        if len(tables) == 1:
            overlay.rows[start:end] = first._table.take(sources, axis=0, mode="wrap")
        else:
            table_of = [id(model._table) for model in models]
            row_tables = np.array(table_of).repeat(per_model)
            for key, table in tables.items():
                picked = row_tables == key
                overlay.rows[fresh[picked]] = table.take(
                    sources[picked], axis=0, mode="wrap"
                )
        overlay.rows.reshape(-1)[links[need]] = -2 - fresh
    for model, row, token in zip(models, nxt, steps):
        model._rows = row
        model._n += 1
        recent = model._recent
        recent.append(token)
        if len(recent) > 2 * order + 16:
            del recent[: len(recent) - order]
    overlay.batch = (tags, nxt)


def _cascade(counts: np.ndarray, floors: np.ndarray) -> np.ndarray:
    """PPM-C blend of ``(G, S, V)`` slot-ordered counts into ``(G, V)`` rows.

    Slot ``i`` holds order ``S - 1 - i``; empty rows (no continuations, or
    an order longer than the history) are skipped.  Per row this performs
    exactly the scalar cascade: each order adds ``(w · c) / denom`` with
    ``denom = total + distinct``, then scales ``w`` by ``distinct / denom``;
    orders 1 and up stop once ``w`` has dropped below ``1e-12``, order 0
    always applies, and the uniform floor ``max(w, floor) / V`` is added
    before normalising.  Products and sums run in the same order as the
    scalar loop (``cumprod``/``cumsum`` along the slot axis are sequential),
    so every element is bit-identical to it.
    """
    groups, slots, vocab = counts.shape
    totals = counts.sum(axis=2)
    distinct = (counts > 0).sum(axis=2)
    # An empty slot gets distinct = denom = 1: it scales the weight by
    # exactly 1 and adds 0 — the scalar loop's skip.
    distinct += totals == 0
    denoms = totals + distinct
    # factors[:, i + 1] scales the weight after slot i; their running
    # product weights[:, i] is the weight entering slot i, and
    # weights[:, slots] the weight left for the uniform floor.
    factors = np.ones((groups, slots + 1))
    np.divide(distinct, denoms, out=factors[:, 1:])
    weights = factors.cumprod(axis=1)
    entering = weights[:, :slots]
    if slots > 2 and weights[:, 1 : slots - 1].min() < _CUTOFF:
        # Orders below the first one entered with weight < 1e-12 are
        # skipped (the weight never grows, so the skipped slots are a
        # run): they scale the weight by 1 and add nothing.
        skipped = weights[:, 1 : slots - 1] < _CUTOFF
        factors[:, 2:slots][skipped] = 1.0
        weights = factors.cumprod(axis=1)
        entering = weights[:, :slots]
        entering[:, 1 : slots - 1][skipped] = 0.0
    final = weights[:, slots]
    terms = entering[:, :, None] * counts
    terms /= denoms[:, :, None]
    result = terms.cumsum(axis=1)[:, -1]
    result += (np.maximum(final, floors) / vocab)[:, None]
    result /= result.sum(axis=1)[:, None]
    return result
