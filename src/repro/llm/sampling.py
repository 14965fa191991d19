"""Sampling from a next-token distribution with the usual LLM knobs.

Order of operations mirrors Hugging Face's ``generate``: constrain (logit
mask), temperature, top-k, then top-p (nucleus), renormalising after each
filter.  If masking leaves no probability mass, sampling falls back to a
uniform distribution over the admissible ids — the constrained equivalent of
an untrained model, never an error.

Thread-safety: nothing in this module touches NumPy's legacy global RNG
(``np.random.seed``/``np.random.rand``); every draw goes through an explicit
``numpy.random.Generator`` owned by the caller.  Callers that fan sample
draws out across worker threads must give each worker its *own* generator —
:func:`child_seeds` derives a deterministic, order-independent seed per
worker from one base generator so parallel execution reproduces sequential
execution exactly.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.exceptions import GenerationError

__all__ = [
    "sample_from_distribution",
    "filter_distribution",
    "filter_rows",
    "cdf_rows",
    "draw_token",
    "mask_for_ids",
    "child_seeds",
    "child_generators",
]


def child_seeds(rng: np.random.Generator, n: int) -> list[int]:
    """Derive ``n`` independent child seeds from one base generator.

    The seeds are drawn sequentially *up front*, so work parameterised by
    them can execute in any order (or concurrently) and still be
    deterministic under the base seed.  This is the same derivation the
    sequential pipeline has always used (one ``integers(2**63)`` per
    sample), just hoisted out of the draw loop.
    """
    if n < 0:
        raise GenerationError(f"cannot derive {n} child seeds")
    return [int(rng.integers(2**63)) for _ in range(n)]


def child_generators(
    rng: np.random.Generator, n: int
) -> list[np.random.Generator]:
    """``n`` independent generators, one per worker/sample (see child_seeds)."""
    return [np.random.default_rng(seed) for seed in child_seeds(rng, n)]


def mask_for_ids(allowed_ids: Iterable[int], size: int) -> np.ndarray:
    """Boolean admissibility mask over a vocabulary of ``size`` ids.

    Precomputing the mask once per constraint position and passing it as
    ``allowed_mask`` lets a batched decoder share one mask across every
    stream of a step instead of rebuilding it per draw; the mask is
    numerically interchangeable with passing ``allowed_ids`` directly.
    """
    mask = np.zeros(size, dtype=bool)
    ids = np.fromiter((int(i) for i in allowed_ids), dtype=int)
    if ids.size == 0:
        raise GenerationError("allowed_ids is empty")
    if ids.min() < 0 or ids.max() >= size:
        raise GenerationError("allowed_ids outside the vocabulary")
    mask[ids] = True
    return mask


def filter_distribution(
    probs: np.ndarray,
    temperature: float = 1.0,
    top_k: int | None = None,
    top_p: float | None = None,
    allowed_ids: Iterable[int] | None = None,
    allowed_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, bool]:
    """The final sampling distribution after constrain/temperature/k/p.

    Returns ``(p, greedy)``: the filtered, renormalised probability vector
    and whether a denormal-or-zero temperature calls for greedy argmax
    decoding (in which case ``p`` is the pre-temperature distribution, as
    in :func:`sample_from_distribution`'s greedy branch).

    This is the deterministic half of :func:`sample_from_distribution` —
    everything except the RNG draw — and a batch of one for
    :func:`filter_rows`.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1:
        raise GenerationError(f"expected a 1-D probability vector, got {p.shape}")
    if allowed_mask is None and allowed_ids is not None:
        allowed_mask = mask_for_ids(allowed_ids, p.size)
    rows, greedy = filter_rows(
        p[None],
        temperature=temperature,
        top_k=top_k,
        top_p=top_p,
        allowed_mask=allowed_mask,
    )
    return rows[0], greedy


def filter_rows(
    probs: np.ndarray,
    temperature: float = 1.0,
    top_k: int | None = None,
    top_p: float | None = None,
    allowed_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, bool]:
    """Row-wise :func:`filter_distribution` over a ``(G, V)`` matrix.

    The batched decode step filters the rows of every group in one pass;
    each row comes out exactly as filtering it alone would (reductions
    run along the row, so every row keeps the 1-D summation order).
    ``allowed_mask`` is one ``(V,)`` mask shared by all rows, or a
    ``(G, V)`` mask with one row per probability row.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2:
        raise GenerationError(f"expected a (G, V) probability matrix, got {p.shape}")
    if temperature < 0:
        raise GenerationError(f"temperature must be >= 0, got {temperature}")
    if top_k is not None and top_k < 1:
        raise GenerationError(f"top_k must be >= 1, got {top_k}")
    if top_p is not None and not 0.0 < top_p <= 1.0:
        raise GenerationError(f"top_p must be in (0, 1], got {top_p}")

    p = np.maximum(p, 0.0)  # negative mass to 0; NaN passes through

    if allowed_mask is not None:
        mask = np.asarray(allowed_mask, dtype=bool)
        if mask.shape != p.shape[1:] and mask.shape != p.shape:
            raise GenerationError(
                f"allowed_mask shape {mask.shape} does not match {p.shape[1:]}"
            )
        if not mask.any(axis=-1).all():
            raise GenerationError("allowed_mask admits no ids")
        p = np.where(mask, p, 0.0)
        sums = p.sum(axis=1)
        empty = sums <= 0.0
        if empty.any():
            # Uniform over the admissible set.
            p[empty] = mask[empty] if mask.ndim == 2 else mask
            sums = p.sum(axis=1)
    else:
        sums = p.sum(axis=1)
        if (sums <= 0.0).any():
            raise GenerationError("distribution has no probability mass")
    p = p / sums[:, None]

    if temperature < 1e-6:
        # Exactly-zero and denormal temperatures both mean greedy decoding
        # (dividing log-probabilities by a denormal would overflow).
        return p, True
    if temperature != 1.0:
        with np.errstate(divide="ignore"):
            logp = np.where(p > 0.0, np.log(p), -np.inf)
        logp = logp / temperature
        logp -= logp.max(axis=1)[:, None]
        p = np.exp(logp)
        p[~np.isfinite(p)] = 0.0
        p = p / p.sum(axis=1)[:, None]

    if top_k is not None:
        cut = top_k < np.count_nonzero(p, axis=1)
        if cut.any():
            keep = np.argsort(p[cut], axis=1)[:, -top_k:]
            p[cut] = _renormalised(p[cut], keep)

    if top_p is not None and top_p < 1.0:
        order = np.argsort(p, axis=1)[:, ::-1]
        cumulative = np.cumsum(np.take_along_axis(p, order, axis=1), axis=1)
        # searchsorted(cumulative, top_p) + 1 per row; cumulative is sorted.
        cutoff = np.count_nonzero(cumulative < top_p, axis=1) + 1
        for row, count in enumerate(cutoff.tolist()):
            p[row] = _renormalised(p[row : row + 1], order[row : row + 1, :count])[0]
    return p, False


def _renormalised(p: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Rows of ``p`` zeroed outside the ``keep`` columns, renormalised."""
    filtered = np.zeros_like(p)
    np.put_along_axis(filtered, keep, np.take_along_axis(p, keep, axis=1), axis=1)
    return filtered / filtered.sum(axis=1)[:, None]


#: ``Generator.choice``'s tolerance on ``|sum(p) - 1|`` for float64 ``p``.
_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def cdf_rows(probs: np.ndarray) -> np.ndarray:
    """Normalised cumulative rows for :func:`draw_token`, validated.

    ``Generator.choice(size, p=p)`` draws by building ``cdf = p.cumsum();
    cdf /= cdf[-1]`` and searching it for one ``random()`` draw.  This is
    that construction for a ``(G, V)`` matrix at once (``cumsum`` along a
    row is sequential, so each row matches its 1-D ``cumsum``), after
    ``choice``'s own checks: no NaN, no negative entries, rows summing to
    1 within ``sqrt(eps)``.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2:
        raise GenerationError(f"expected a (G, V) probability matrix, got {p.shape}")
    cdf = p.cumsum(axis=1)
    # One cheap, stricter screen (a row's cdf end is its sum; NaN fails
    # it), then choice's own checks, in its order, for what it flags.
    ends = cdf[:, -1]
    if not (
        ends.min() >= 1.0 - _SUM_ATOL / 2
        and ends.max() <= 1.0 + _SUM_ATOL / 2
        and p.min() >= 0.0
    ):
        sums = p.sum(axis=1)
        if np.isnan(sums).any():
            raise ValueError("Probabilities contain NaN")
        if (p < 0).any():
            raise ValueError("Probabilities are not non-negative")
        if (np.abs(sums - 1.0) > _SUM_ATOL).any():
            raise ValueError("Probabilities do not sum to 1")
    cdf /= cdf[:, -1:]
    return cdf


def draw_token(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """One token from a :func:`cdf_rows` row, consuming one ``random()``.

    Bit-identical to ``rng.choice(cdf.size, p=p)`` for the row's ``p``
    (pinned by ``tests/test_ppm_kernel.py``) at a fraction of its cost:
    ``choice`` re-validates and rebuilds the cdf on every call.
    """
    return int(cdf.searchsorted(rng.random(), side="right"))


def sample_from_distribution(
    probs: np.ndarray,
    rng: np.random.Generator,
    temperature: float = 1.0,
    top_k: int | None = None,
    top_p: float | None = None,
    allowed_ids: Iterable[int] | None = None,
    allowed_mask: np.ndarray | None = None,
) -> tuple[int, float]:
    """Draw one token id; returns ``(token_id, probability_it_was_drawn_with)``.

    ``probs`` is a length-V probability vector.  ``temperature`` rescales in
    log space (``p ** (1/T)``); values below 1 sharpen, above 1 flatten, and
    0 means greedy argmax.  ``top_k``/``top_p`` filter before renormalising.

    ``allowed_mask`` is a precomputed boolean mask (see :func:`mask_for_ids`)
    that takes precedence over ``allowed_ids``; the two spellings of the same
    admissible set produce bit-identical draws.
    """
    p, greedy = filter_distribution(
        probs,
        temperature=temperature,
        top_k=top_k,
        top_p=top_p,
        allowed_ids=allowed_ids,
        allowed_mask=allowed_mask,
    )
    if greedy:
        token = int(np.argmax(p))
    else:
        token = draw_token(cdf_rows(p[None])[0], rng)
    return token, float(p[token])
