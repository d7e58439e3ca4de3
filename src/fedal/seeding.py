"""Deterministic derivation of named, independent RNG streams.

Every source of randomness in the package is a `numpy.random.Generator`
created from an explicit key.  Keys are tuples mixing integers (seeds, client
ids, round indices) and short string tags; string tags are hashed with CRC32,
which is stable across platforms and interpreter runs (unlike ``hash``).
"""

from __future__ import annotations

import zlib

import numpy as np


def stream_key(*parts) -> tuple[int, ...]:
    """Flatten seed parts into a tuple of non-negative ints for SeedSequence."""
    out: list[int] = []
    for part in parts:
        if isinstance(part, tuple):
            out.extend(stream_key(*part))
        elif isinstance(part, str):
            out.append(zlib.crc32(part.encode("utf-8")))
        elif isinstance(part, (int, np.integer)) and not isinstance(part, bool):
            if part < 0:
                raise ValueError(f"seed parts must be non-negative, got {part}")
            out.append(int(part))
        else:
            raise TypeError(f"unsupported seed part {part!r}")
    return tuple(out)


def rng_for(*parts) -> np.random.Generator:
    """Return a Generator for the stream named by ``parts``."""
    return np.random.default_rng(np.random.SeedSequence(stream_key(*parts)))
