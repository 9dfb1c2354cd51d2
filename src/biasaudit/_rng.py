"""Deterministic random streams.

Every stochastic step in the package draws from a counter-based Philox
generator seeded from ``(seed, *tokens)``.  The tokens name the purpose of the
stream ("bootstrap", replicate index, attribute name, ...), so two steps never
share a stream and results are reproducible regardless of evaluation order or
thread count.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def stream(seed: int, *tokens: object) -> np.random.Generator:
    """Return a Generator keyed by ``seed`` and a tuple of purpose tokens.

    Tokens may be strings, ints, or floats; their ``repr`` feeds a SHA-256
    digest, so distinct token tuples give independent streams and the same
    tuple always gives the same stream.  A numpy scalar token keys as the
    Python value it holds: ``np.str_('a')`` as ``'a'``, ``np.int64(3)`` as
    ``3``.
    """
    import hashlib  # here, not at import: runs that never draw skip OpenSSL

    tokens = tuple(t.item() if isinstance(t, np.generic) else t for t in tokens)
    digest = hashlib.sha256(repr(tokens).encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
    entropy = [int(seed) & _MASK64, *words]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
