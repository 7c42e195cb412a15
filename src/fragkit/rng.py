"""Counter-based random streams.

Every stochastic object in the package draws from a Philox generator whose
128-bit key is a hash of (master seed, purpose tag, lineage coordinates).
Streams are therefore pure functions of *what* is being simulated, never of
event ordering or heap layout.
"""

import hashlib

import numpy as np


def _key(master_seed, purpose, coords):
    h = hashlib.blake2b(digest_size=16)
    h.update(b"fragkit.v1")
    h.update(int(master_seed).to_bytes(8, "little", signed=False))
    h.update(purpose.encode("ascii"))
    for c in coords:
        h.update(b"/")
        h.update(int(c).to_bytes(8, "little", signed=True))
    return np.frombuffer(h.digest(), dtype=np.uint64)


def stream(master_seed, purpose, *coords):
    """Generator keyed by (master_seed, purpose, coords).

    ``purpose`` separates independent uses (e.g. "tree" vs "tagged") so that
    the same coordinates never alias across subsystems.
    """
    return np.random.Generator(np.random.Philox(key=_key(master_seed, purpose, coords)))


def node_stream(master_seed, replicate, path):
    """Stream owned by one genealogical node, keyed by its child-index path.

    A node's randomness (offspring sequence, children lifetimes) is a pure
    function of (master_seed, replicate, path); the root has path ().
    """
    return np.random.Generator(
        np.random.Philox(key=_key(master_seed, "node", (replicate, len(path)) + tuple(path)))
    )
