"""Cache-affine request routing: rendezvous (HRW) hashing on the digest.

The sharded engine must send *repeated* specs to the *same* worker, or
every per-worker cache the serving stack has accumulated — the result
cache and the :class:`~repro.scheduling.RadixPrefillTree` prefix-state
store — degrades by a factor of the shard count.  Rendezvous hashing
(highest random weight) gives that affinity with two properties a modulo
hash lacks:

* **minimal disruption** — when a shard dies or is added, only the keys
  whose winning shard changed move; every other key keeps its cache-warm
  home;
* **statelessness** — routing is a pure function of
  ``(digest, candidate shards)``; the supervisor carries no routing table
  to rebuild after a restart.

Keys are :func:`~repro.serving.cache.forecast_digest` prefixes — already
SHA-256-uniform, so the HRW scores need only one cheap stable hash per
``(key, shard)`` pair.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

__all__ = ["rendezvous_shard", "rendezvous_ranking"]

#: Digest prefix length fed into the per-shard score: 16 hex chars = 64
#: bits, far beyond what shard-count-scale balance needs.
KEY_PREFIX = 16


def _score(key: str, shard: int) -> int:
    """Stable 64-bit HRW score of one ``(key, shard)`` pair.

    Uses ``hashlib`` rather than built-in ``hash`` so scores — and
    therefore placements — are identical across processes and runs
    (``PYTHONHASHSEED`` randomises ``hash`` per interpreter).
    """
    payload = f"{key[:KEY_PREFIX]}|{shard}".encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


def rendezvous_ranking(key: str, shards: Sequence[int]) -> list[int]:
    """All candidate shards ordered best-first for ``key``.

    The head is where the key lives; the tail is the deterministic
    failover order (the supervisor retries a request on the next-ranked
    healthy shard after a worker death).
    """
    if not shards:
        raise ValueError("rendezvous_ranking needs at least one candidate shard")
    return sorted(shards, key=lambda shard: _score(key, shard), reverse=True)


def rendezvous_shard(key: str, shards: Sequence[int]) -> int:
    """The winning shard for ``key`` among ``shards`` (highest HRW score)."""
    return rendezvous_ranking(key, shards)[0]
