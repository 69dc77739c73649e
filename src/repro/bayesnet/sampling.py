"""Vectorized ancestral sampling of training / testing events.

The paper generates training data by "a topological ordering of all
vertices ... then assign values to nodes in this order, based on the
known conditional probability distributions" (Section 6.1). We implement
exactly that, vectorized over events.

Determinism contract: event ``t`` (a global stream index) always gets
the same value vector and the same site assignment for a given
``(ground truth, seed, k)``, no matter which ``[lo, hi)`` range or Spark
partition generated it. This is achieved by seeding an independent RNG
per fixed-size chunk of the stream (chunks aligned to absolute indices)
so the driver and any Spark partition produce identical events — a test
asserts this equality.
"""
from __future__ import annotations

import numpy as np

from repro.bayesnet.cpd import GroundTruth

CHUNK = 8192  # stream chunk size the RNG seeding is aligned to


def _sample_chunk(gt: GroundTruth, chunk_id: int, size: int, seed: int) -> np.ndarray:
    """Sample ``size`` events of chunk ``chunk_id`` (full chunk prefix)."""
    net = gt.net
    rng = np.random.default_rng([seed, 0xE7E47, chunk_id])
    X = np.zeros((size, net.n), dtype=np.int32)
    for i in net.topo:
        i = int(i)
        pidx = net.parent_config_index(X, i)
        probs = gt.cpds[i][pidx]  # (size, J_i)
        # Always draw a full chunk of uniforms so the RNG stream position
        # per node is independent of `size` — this is what makes event t
        # identical no matter which [lo, hi) slice generated it.
        u = rng.random(CHUNK)[:size]
        # Inverse-CDF draw: count how many cumulative cells are < u.
        X[:, i] = np.minimum(
            (probs.cumsum(axis=1) < u[:, None]).sum(axis=1),
            int(net.cards[i]) - 1,
        )
    return X


def chunk_pieces(lo: int, hi: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` cut at multiples of :data:`CHUNK`: the non-empty
    ``(a, b)`` pieces in stream order, each inside one chunk."""
    bounds = [lo, *range((lo // CHUNK + 1) * CHUNK, hi, CHUNK), hi]
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


def sample_events(gt: GroundTruth, lo: int, hi: int, *, seed: int) -> np.ndarray:
    """Events ``[lo, hi)`` of the stream — ``(hi-lo, n)`` int32 matrix."""
    if hi <= lo:
        return np.zeros((0, gt.net.n), dtype=np.int32)
    parts = []
    for a, b in chunk_pieces(lo, hi):
        c, off = divmod(a, CHUNK)
        # Generate the chunk from its start so every row is identical no
        # matter where the requested range starts; drop the off rows before a.
        parts.append(_sample_chunk(gt, c, off + b - a, seed)[off:])
    return np.concatenate(parts, axis=0)


def sample_sites(lo: int, hi: int, *, k: int, seed: int) -> np.ndarray:
    """Site of each event in ``[lo, hi)`` — uniform over ``k`` sites.

    "Each data point is sent to a site chosen uniformly at random"
    (Section 6.1). Chunk-aligned like :func:`sample_events`.
    """
    if hi <= lo:
        return np.zeros(0, dtype=np.int32)
    parts = []
    for a, b in chunk_pieces(lo, hi):
        c, off = divmod(a, CHUNK)
        rng = np.random.default_rng([seed, 0x517E5, c])
        parts.append(rng.integers(0, k, off + b - a, dtype=np.int32)[off:])
    return np.concatenate(parts)
