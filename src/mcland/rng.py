"""Reproducible random streams.

Every random draw in the package flows through `substream`, which derives an
independent PCG64 generator from a user-facing integer seed plus a tuple of
purpose tags (strings or ints).  Tags are hashed with SHA-256 so the mapping
is stable across Python processes, platforms, and thread counts.  A seed is
an integer in [0, 2**64), the 64 bits a stream keys on (`check_seed`).
"""

import hashlib

import numpy as np

_MASK32 = 0xFFFFFFFF


def _tag_words(tag):
    """Map a tag to a list of 32-bit words for SeedSequence entropy."""
    if isinstance(tag, (int, np.integer)) and not isinstance(tag, bool):
        v = int(tag)
        if v < 0:
            raise ValueError(f"rng tag must be non-negative, got {v}")
        words = []
        while True:
            words.append(v & _MASK32)
            v >>= 32
            if v == 0:
                return words
    if isinstance(tag, str):
        digest = hashlib.sha256(tag.encode("utf-8")).digest()
        return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    raise TypeError(f"rng tag must be int or str, got {type(tag).__name__}")


def check_seed(seed, name="seed"):
    """Raise, naming `name`, unless `seed` is an integer in [0, 2**64), the seeds `substream` takes (a bool is not)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(seed).__name__}")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {seed}")


def substream(seed, *tags):
    """Generator keyed by (seed, *tags).

    Identical arguments always produce an identical stream; distinct tag
    tuples produce statistically independent streams.
    """
    check_seed(seed)
    words = [int(seed) & _MASK32, (int(seed) >> 32) & _MASK32]
    for tag in tags:
        words.extend(_tag_words(tag))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def derive_seed(seed, *tags):
    """A fresh non-negative 63-bit integer seed derived from (seed, *tags).

    Used where an API expects a plain integer seed (per-start solver seeds in
    scans, per-trial seeds in experiments) while staying inside one seeding
    scheme.
    """
    return int(substream(seed, *tags).integers(0, 2**63 - 1))
