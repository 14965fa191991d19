"""The prefix-state store: prefilled prompt state shared across requests.

Prompt ingest — :meth:`~repro.llm.interface.LanguageModel.reset` — is the
substrate's analogue of LLM prefill: O(n · order) work that would be
re-paid from scratch on every call even though ingest is deterministic
and prompts repeat heavily (every sample of an ensemble shares one
prompt; rolling-origin backtest windows extend each other).
:class:`RadixPrefillTree` is the substrate's KV-cache: it stores prompts
in a path-compressed prefix tree (SGLang-style radix cache) with a frozen
in-context model snapshot attached to tree nodes, so

* an exact repeat forks the deepest snapshot and skips ingest entirely;
* a prompt extending any cached prefix — including a prefix contributed
  by an *unrelated* request — forks the deepest covering snapshot and
  advances only its own suffix;
* a prompt *shorter* than anything cached still resolves to the longest
  checkpoint at or below its length, because :meth:`RadixPrefillTree.prefill`
  deposits snapshots at doubling boundaries while it ingests (in-context
  states cannot be rewound, so prefix coverage has to be built on the way
  up).

The token budget charges each held snapshot its **depth** (the prompt
tokens it is conditioned on), since a snapshot's memory grows with the
prompt it covers.  Eviction drops the least-recently-used unpinned
snapshot wherever it sits in the tree, then prunes nodes left with
neither a snapshot nor children.  Every node carries a thread-safe
refcount: the continuous scheduler pins the node a resident decode forked
from, and pinned snapshots are never evicted mid-flight.

An optional **spill tier** (``spill=``, duck-typed; see
:class:`repro.sharding.SpillStore`) turns eviction into demotion: dropped
snapshots are serialized under their full path tokens, and a lookup that
misses memory consults the spill tier before reporting a miss — so
prefill state survives process restarts and migrates across sharded
workers.

Freezing contract: the tree owns every deposited model, lookups hand back
either the shared instance (exact hit — fork before mutating) or a
private fork (extend), and depositors must not advance a model after
inserting it.  :meth:`~repro.llm.simulated.SimulatedLLM.prefill` drives
the tree with this discipline.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.exceptions import ConfigError
from repro.llm.interface import LanguageModel

__all__ = ["CHECKPOINT_FLOOR", "RadixLookup", "RadixPrefillTree", "checkpoint_lengths"]

#: Shortest prefix worth snapshotting during ingest; below this the ingest
#: is cheaper than the bookkeeping.
CHECKPOINT_FLOOR = 16


def checkpoint_lengths(n: int) -> tuple[int, ...]:
    """Doubling snapshot boundaries strictly below ``n``.

    ``(16, 32, 64, ...)`` up to (excluding) ``n`` — O(log n) checkpoints
    that guarantee any future prefix query of length ``q >= 16`` finds a
    cached state covering at least ``q // 2`` tokens.
    """
    lengths = []
    length = CHECKPOINT_FLOOR
    while length < n:
        lengths.append(length)
        length *= 2
    return tuple(lengths)


class _Node:
    """One radix-tree node: an edge segment plus an optional snapshot.

    ``segment`` is the token run on the edge from the parent; ``depth`` is
    the total number of prompt tokens covered from the root through this
    node.  ``model`` (when set) is a frozen in-context state conditioned
    on exactly those ``depth`` tokens.  ``refs`` counts live pins.
    """

    __slots__ = (
        "segment", "children", "model", "depth", "refs", "_parent",
        "__weakref__",
    )

    def __init__(
        self, segment: tuple[int, ...], depth: int, parent: "_Node | None"
    ) -> None:
        self.segment = segment
        self.children: dict[int, _Node] = {}
        self.model: LanguageModel | None = None
        self.depth = depth
        self.refs = 0
        self.parent = parent

    @property
    def parent(self) -> "_Node | None":
        """The parent node.  The up-link is weak, so a dropped tree has no
        reference cycles and its snapshots are freed at once rather than
        at the next full garbage collection."""
        return None if self._parent is None else self._parent()

    @parent.setter
    def parent(self, node: "_Node | None") -> None:
        self._parent = None if node is None else weakref.ref(node)


@dataclass
class RadixLookup:
    """Outcome of one tree lookup or prefill.

    ``model`` is the shared cached instance for ``outcome == "fork"``
    (fork before mutating), a private model for ``"extend"`` (the
    prefix-covering fork from :meth:`RadixPrefillTree.lookup`, or the
    fully ingested state from :meth:`RadixPrefillTree.prefill`), and
    ``None`` for a ``"miss"`` lookup.  ``matched`` counts the leading
    prompt tokens the store already covered.  While pinned, the covering
    snapshot will not be evicted; hand the handle back via
    :meth:`RadixPrefillTree.release`.
    """

    model: LanguageModel | None
    matched: int
    outcome: str
    _node: "_Node | None" = field(default=None, repr=False)


def _common_prefix(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Length of the longest common prefix of two token runs."""
    limit = min(len(a), len(b))
    i = 0
    while i < limit and a[i] == b[i]:
        i += 1
    return i


class RadixPrefillTree:
    """Thread-safe radix tree of prefilled models, bounded by snapshot depth.

    Parameters
    ----------
    max_tokens:
        Eviction budget: the summed depth of every held snapshot.
        Prompts longer than the whole budget are not cached.  ``0`` builds
        a disabled tree (every lookup misses, deposits are dropped), so
        callers can switch prefix caching off without branching.
    spill:
        Optional second tier (duck-typed; anything with
        ``store(model_name, vocab_size, tokens, model)`` and
        ``fetch(model_name, vocab_size, tokens) -> (model | None, matched)``
        — :class:`repro.sharding.SpillStore` is the shipped
        implementation).  Evicted snapshots are demoted into it, and
        lookups that miss memory consult it before reporting a miss.
    """

    def __init__(self, max_tokens: int = 262_144, *, spill=None) -> None:
        if max_tokens < 0:
            raise ConfigError(f"max_tokens must be >= 0, got {max_tokens}")
        self.max_tokens = max_tokens
        self.spill = spill
        self._lock = threading.Lock()
        self._roots: dict[tuple[str, int], _Node] = {}
        self._inflight: dict[tuple, threading.Event] = {}
        # Snapshot-bearing nodes, least recently used first.
        self._snapshots: OrderedDict[_Node, None] = OrderedDict()
        self._total_tokens = 0
        self._hits = 0
        self._extends = 0
        self._misses = 0
        self._evictions = 0
        self._tokens_saved = 0
        self._spill_hits = 0

    @property
    def enabled(self) -> bool:
        """False for a zero-budget tree (lookups and deposits are no-ops)."""
        return self.max_tokens > 0

    # -- internal helpers (callers hold the lock) ------------------------------

    def _root(self, model_name: str, vocab_size: int) -> _Node:
        key = (model_name, int(vocab_size))
        root = self._roots.get(key)
        if root is None:
            root = _Node(segment=(), depth=0, parent=None)
            self._roots[key] = root
        return root

    def _walk(self, root: _Node, tokens: tuple[int, ...]) -> _Node:
        """Deepest node whose full path is a prefix of ``tokens``.

        Divergence or a query ending mid-edge stops the walk at the last
        fully matched node.
        """
        node = root
        i = 0
        while i < len(tokens):
            child = node.children.get(tokens[i])
            if child is None:
                break
            common = _common_prefix(child.segment, tokens[i:])
            if common < len(child.segment):
                break
            node = child
            i += common
        return node

    def _insert(
        self, root: _Node, tokens: tuple[int, ...], model: LanguageModel
    ) -> _Node:
        """Attach ``model`` as the snapshot covering exactly ``tokens``.

        Splits edges where the new path diverges from (or stops inside)
        an existing segment.  If the node already carries a snapshot the
        existing one is kept — deposits race benignly because equal paths
        imply bit-identical states.
        """
        node = root
        i = 0
        while i < len(tokens):
            child = node.children.get(tokens[i])
            if child is None:
                leaf = _Node(segment=tokens[i:], depth=len(tokens), parent=node)
                node.children[tokens[i]] = leaf
                node = leaf
                break
            common = _common_prefix(child.segment, tokens[i:])
            if common < len(child.segment):
                # Split the edge: a new interior node takes the shared run,
                # the existing child keeps its identity (and pins) below.
                mid = _Node(
                    segment=child.segment[:common],
                    depth=child.depth - (len(child.segment) - common),
                    parent=node,
                )
                node.children[child.segment[0]] = mid
                child.segment = child.segment[common:]
                child.parent = mid
                mid.children[child.segment[0]] = child
                child = mid
            node = child
            i += common
        if node.model is None:
            node.model = model
            self._total_tokens += node.depth
            self._snapshots[node] = None
        else:
            self._snapshots.move_to_end(node)
        return node

    def _path(self, node: _Node) -> tuple[str, int, tuple[int, ...]]:
        """``(model_name, vocab_size, tokens)`` of the path ending at ``node``."""
        segments = []
        while node.parent is not None:
            segments.append(node.segment)
            node = node.parent
        name, vocab = next(key for key, root in self._roots.items() if root is node)
        return name, vocab, tuple(t for segment in reversed(segments) for t in segment)

    def _evict(self) -> list[tuple[str, int, tuple[int, ...], LanguageModel]]:
        """Drop least-recently-used unpinned snapshots until within budget.

        Nodes left with neither a snapshot nor children are pruned.
        Returns the dropped snapshots with their paths when a spill tier
        is attached, for the caller to demote outside the lock.
        """
        excess = self._total_tokens - self.max_tokens
        victims = []
        for node in self._snapshots:
            if excess <= 0:
                break
            if node.refs == 0:
                victims.append(node)
                excess -= node.depth
        demoted = []
        for node in victims:
            if self.spill is not None:
                demoted.append((*self._path(node), node.model))
            del self._snapshots[node]
            self._total_tokens -= node.depth
            self._evictions += 1
            node.model = None
            while node.parent is not None and node.model is None and not node.children:
                del node.parent.children[node.segment[0]]
                node = node.parent
        return demoted

    def _deposit(
        self,
        model_name: str,
        vocab_size: int,
        prompt: tuple[int, ...],
        model: LanguageModel,
        pin: bool = False,
    ) -> _Node | None:
        """:meth:`insert` for a normalised prompt; returns the node if pinned.

        The pin is taken before eviction runs, so a pinned deposit always
        survives its own insert.
        """
        if not self.enabled or not prompt or len(prompt) > self.max_tokens:
            return None
        with self._lock:
            node = self._insert(self._root(model_name, vocab_size), prompt, model)
            if pin:
                node.refs += 1
            demoted = self._evict()
        for name, vocab, tokens, evicted in demoted:
            self.spill.store(name, vocab, tokens, evicted)
        return node if pin else None

    def _fetch_spilled(
        self, model_name: str, vocab_size: int, prompt: tuple[int, ...], pin: bool
    ) -> RadixLookup:
        """Resolve a memory miss against the spill tier, promoting a hit."""
        loaded, matched = self.spill.fetch(model_name, vocab_size, prompt)
        if loaded is None:
            with self._lock:
                self._misses += 1
            return RadixLookup(model=None, matched=0, outcome="miss")
        outcome = "fork" if matched == len(prompt) else "extend"
        # Promote: the next lookup for this prefix resolves from memory.
        node = self._deposit(
            model_name, vocab_size, prompt[:matched], loaded.fork(), pin=pin
        )
        with self._lock:
            if outcome == "fork":
                self._hits += 1
            else:
                self._extends += 1
            self._spill_hits += 1
            self._tokens_saved += matched
        return RadixLookup(model=loaded, matched=matched, outcome=outcome, _node=node)

    # -- public API ------------------------------------------------------------

    def lookup(
        self,
        model_name: str,
        vocab_size: int,
        tokens: Sequence[int],
        pin: bool = False,
    ) -> RadixLookup:
        """Resolve a prompt to the deepest cached snapshot covering a prefix.

        Outcomes: ``"fork"`` (a snapshot covers the whole prompt; the
        shared instance is returned), ``"extend"`` (a strict prefix is
        covered; a private fork is returned), otherwise the spill tier
        when one is attached (a spill hit is promoted back into memory),
        otherwise ``"miss"``.  ``pin=True`` increments the covering node's
        refcount so eviction skips it until :meth:`release` is called.
        """
        prompt = tuple(int(t) for t in tokens)
        with self._lock:
            if not self.enabled:
                self._misses += 1
                return RadixLookup(model=None, matched=0, outcome="miss")
            best = self._walk(self._root(model_name, vocab_size), prompt)
            while best is not None and best.model is None:
                best = best.parent
            if best is not None:
                self._snapshots.move_to_end(best)
                if pin:
                    best.refs += 1
                self._tokens_saved += best.depth
                handle = best if pin else None
                if best.depth == len(prompt):
                    self._hits += 1
                    return RadixLookup(
                        model=best.model, matched=best.depth, outcome="fork",
                        _node=handle,
                    )
                self._extends += 1
                parent = best.model
            elif self.spill is None:
                self._misses += 1
                return RadixLookup(model=None, matched=0, outcome="miss")
        if best is None:
            return self._fetch_spilled(model_name, vocab_size, prompt, pin)
        # Fork outside the lock: snapshots are frozen, so concurrent forks
        # are pure reads and fork cost must not serialise readers.
        return RadixLookup(
            model=parent.fork(), matched=best.depth, outcome="extend", _node=handle
        )

    def insert(
        self,
        model_name: str,
        vocab_size: int,
        tokens: Sequence[int],
        model: LanguageModel,
    ) -> None:
        """Deposit a frozen model conditioned on exactly ``tokens``.

        Takes ownership: the caller must not advance ``model`` afterwards.
        Empty prompts and prompts longer than the whole budget are not
        cached at all.  With a spill tier attached, snapshots this deposit
        evicts are demoted to it (serialized outside the lock).
        """
        self._deposit(model_name, vocab_size, tuple(int(t) for t in tokens), model)

    def prefill(
        self,
        model_name: str,
        vocab_size: int,
        tokens: Sequence[int],
        factory: Callable[[], LanguageModel],
        pin: bool = False,
    ) -> RadixLookup:
        """Resolve a prompt end to end: lookup, ingest the gap, deposit.

        An exact hit returns the shared snapshot with nothing ingested; an
        extend forks the deepest covering snapshot and advances only the
        suffix; a miss builds a fresh model via ``factory``.  On the way,
        snapshots are deposited at doubling :func:`checkpoint_lengths`
        boundaries past the matched prefix, plus the full prompt — which
        is what lets later *shorter* or *diverging* prompts find a usable
        prefix.  The returned handle's ``model`` covers the whole prompt
        and ``matched`` counts the tokens that were *not* ingested.

        Identical prompts in flight at once are **single-flighted**: the
        first caller ingests while the rest wait on its completion, then
        fork the deposited snapshot — N concurrent tenants over one prompt
        pay one ingest, not N racing ones.

        The returned model is frozen (fork before decoding).  With
        ``pin=True`` the covering node is refcounted until
        :meth:`release`; if ingest raises, the pin is dropped before the
        error propagates.
        """
        prompt = tuple(int(t) for t in tokens)
        if not self.enabled:
            with self._lock:
                self._misses += 1
            model = factory()
            model.reset(prompt)
            return RadixLookup(model=model, matched=0, outcome="miss")
        key = (model_name, int(vocab_size), prompt)
        leader = False
        while True:
            lookup = self.lookup(model_name, vocab_size, prompt, pin=pin)
            if lookup.outcome == "fork":
                return lookup
            with self._lock:
                pending = self._inflight.get(key)
                if pending is None:
                    self._inflight[key] = threading.Event()
                    leader = True
            if leader:
                break
            # Another thread is ingesting this exact prompt: drop any pin
            # from the stale lookup, wait, then re-resolve (normally a fork).
            self.release(lookup)
            pending.wait()
        try:
            if lookup.outcome == "extend":
                model = lookup.model  # a private fork
                cursor = lookup.matched
            else:
                model = factory()
                cursor = 0
            node = lookup._node
            boundaries = [b for b in checkpoint_lengths(len(prompt)) if b > cursor]
            for boundary in [*boundaries, len(prompt)]:
                if cursor == 0:
                    model.reset(prompt[:boundary])
                else:
                    model.extend(prompt[cursor:boundary])
                cursor = boundary
                if boundary < len(prompt):
                    self._deposit(
                        model_name, vocab_size, prompt[:boundary], model.fork()
                    )
                else:
                    # Miss path: pin the full-prompt node being deposited.
                    pinned = self._deposit(
                        model_name, vocab_size, prompt, model,
                        pin=pin and node is None,
                    )
                    node = node if pinned is None else pinned
        except BaseException:
            self.release(lookup)
            raise
        finally:
            if leader:
                with self._lock:
                    pending = self._inflight.pop(key, None)
                if pending is not None:
                    pending.set()
        return RadixLookup(
            model=model, matched=lookup.matched, outcome=lookup.outcome, _node=node
        )

    def release(self, handle: RadixLookup) -> None:
        """Drop the pin taken by ``lookup(pin=True)`` / ``prefill(pin=True)``."""
        node = handle._node
        if node is None:
            return
        with self._lock:
            if node.refs > 0:
                node.refs -= 1
            handle._node = None

    def clear(self) -> None:
        """Drop every snapshot and node (statistics are kept)."""
        with self._lock:
            self._roots.clear()
            self._snapshots.clear()
            self._total_tokens = 0

    def __len__(self) -> int:
        """Number of snapshot-bearing nodes across all namespaces."""
        with self._lock:
            return len(self._snapshots)

    @property
    def stats(self) -> dict:
        """Lookup/eviction accounting plus the prefill tokens saved."""
        with self._lock:
            nodes = 0
            stack = list(self._roots.values())
            while stack:
                node = stack.pop()
                nodes += 1
                stack.extend(node.children.values())
            lookups = self._hits + self._extends + self._misses
            return {
                "nodes": nodes,
                "snapshots": len(self._snapshots),
                "resident_tokens": self._total_tokens,
                "max_tokens": self.max_tokens,
                "hits": self._hits,
                "extends": self._extends,
                "misses": self._misses,
                "evictions": self._evictions,
                "tokens_saved": self._tokens_saved,
                "spill_hits": self._spill_hits,
                "hit_rate": (
                    (self._hits + self._extends) / lookups if lookups else 0.0
                ),
            }

    def __repr__(self) -> str:
        stats = self.stats
        return (
            f"RadixPrefillTree(snapshots={stats['snapshots']}, "
            f"tokens={stats['resident_tokens']}/{self.max_tokens}, "
            f"hits={stats['hits']}, extends={stats['extends']}, "
            f"misses={stats['misses']})"
        )
