"""Deterministic cross-platform sampling for experiments.

Randomness comes from a splitmix64 stream: the state advances by the 64-bit
golden gamma 0x9E3779B97F4A7C15 and each output is the splitmix64 finalizer
of the state.  Bounded draws use rejection below the largest multiple of the
bound, so they are exactly uniform.  Subsets are drawn by a sparse partial
Fisher-Yates shuffle, so a draw costs O(size) regardless of the ring order.
sample_distinct computes a stream of at least _STREAM_MIN_COUNT draws in one
uint64 pass and checks every output against its exact rejection limit; it
walks the generator draw by draw for fewer draws, and from the first
rejected output of the stream on.

sample_subsets draws a whole block of subsets at once: the same generator
runs on uint64 arrays, one state per row (numpy's uint64 arithmetic wraps
mod 2**64, as the generator's does), and the partial Fisher-Yates works on
a dense (rows, domain) permutation.  Each row equals sample_distinct of its
seed; sample_distinct stays the sparse path for domains of n**3 triples.

Per-trial seeds are derived as mix64(master_seed, trial_index); the same
(master_seed, trial_index, ring, size) always yields the same subset, on
every platform, because only fixed-width integer arithmetic is involved.
"""

from __future__ import annotations

import numpy as np

from .ring import Ring
from .setalg import BLOCK_ELEMS, RSet

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_U64 = np.uint64
# from this many draws on, one vectorized pass beats the scalar walk: both
# take about 14 us at 24 draws (numpy 2.4, Python 3.11, one x86 core)
_STREAM_MIN_COUNT = 24


def _finalize(x: int) -> int:
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def mix64(master_seed: int, trial_index: int) -> int:
    """The per-trial seed for a master seed: stable, collision-resistant."""
    return _finalize((master_seed + _GAMMA * (trial_index + 1)) & _MASK)


def _finalize_arr(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
    return x ^ (x >> _U64(31))


def mix64_arr(master_seeds, trial_indices) -> np.ndarray:
    """mix64 elementwise over broadcast uint64 arrays of seeds and indices."""
    seeds = np.atleast_1d(np.asarray(master_seeds, dtype=_U64))
    steps = np.atleast_1d(np.asarray(trial_indices, dtype=_U64)) + _U64(1)
    return _finalize_arr(seeds + _U64(_GAMMA) * steps)


class SplitMix64:
    """The fixed generator behind every sampled object."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        return _finalize(self.state)

    def bounded(self, m: int) -> int:
        """Uniform draw from [0, m) by rejection; m >= 1."""
        if m < 1:
            raise ValueError("bound must be >= 1")
        limit = (1 << 64) - ((1 << 64) % m)
        while True:
            v = self.next64()
            if v < limit:
                return v % m


def sample_distinct(domain: int, count: int, seed: int) -> list[int]:
    """count distinct values from [0, domain), by sparse partial Fisher-Yates.

    Draw i is SplitMix64(seed).bounded(domain - i).  From _STREAM_MIN_COUNT
    draws on, the stream's first count outputs are computed at once and
    checked against their rejection limits: up to the first rejected one,
    draw i is output i, and only the dict shuffle runs in Python.  From
    there on the generator walks draw by draw.
    """
    if not 1 <= count <= domain:
        raise ValueError(f"cannot draw {count} distinct values from {domain}")
    steps = _drawn_steps(domain, count, seed) if count >= _STREAM_MIN_COUNT else []
    # the k accepted draws took one output each, so the walk resumes at state
    # seed + k * gamma
    k = len(steps)
    gen = SplitMix64(seed + _GAMMA * k)
    perm: dict[int, int] = {}
    out = []
    for i in range(count):
        j = i + (steps[i] if i < k else gen.bounded(domain - i))
        out.append(perm.get(j, j))
        perm[j] = perm.get(i, i)
    return out


def _drawn_steps(domain: int, count: int, seed: int) -> list[int]:
    """[bounded(domain - i) for i < k] of SplitMix64(seed), k the index of
    the stream's first rejected output (count if none is): up to there,
    draw i is output i.

    Output i is accepted when it is below 2**64 - (2**64 mod m) for its bound
    m = domain - i; 2**64 mod m is (-m) % m in uint64, and when it is 0
    nothing is rejected.
    """
    if domain >= 1 << 64:
        return []
    v = _finalize_arr(_U64(seed & _MASK) + _U64(_GAMMA) * np.arange(1, count + 1, dtype=_U64))
    m = _U64(domain) - np.arange(count, dtype=_U64)
    rest = (_U64(0) - m) % m
    rejected = (rest != 0) & (v >= _U64(0) - rest)
    k = int(rejected.argmax()) if rejected.any() else count
    return (v[:k] % m[:k]).tolist()


def bounded_arr(states: np.ndarray, m: int) -> np.ndarray:
    """One SplitMix64.bounded(m) draw per uint64 state, advancing states in place.

    A rejected draw redraws in its own row only, so every row follows the
    scalar generator exactly.
    """
    if m < 1:
        raise ValueError("bound must be >= 1")
    states += _U64(_GAMMA)
    v = _finalize_arr(states)
    rest = (1 << 64) % m
    if rest:
        limit = _U64((1 << 64) - rest)
        redo = np.flatnonzero(v >= limit)
        while len(redo):
            states[redo] += _U64(_GAMMA)
            v[redo] = _finalize_arr(states[redo])
            redo = redo[v[redo] >= limit]
    return v % _U64(m)


def sample_subsets(domain: int, count: int, seeds) -> np.ndarray:
    """sample_distinct(domain, count, seed) for every seed, shape (len(seeds), count).

    The dense permutation holds at most BLOCK_ELEMS elements at a time; a
    domain larger than that takes the sparse path row by row.
    """
    if not 1 <= count <= domain:
        raise ValueError(f"cannot draw {count} distinct values from {domain}")
    seeds = np.asarray(seeds, dtype=_U64)
    out = np.empty((len(seeds), count), dtype=np.int64)
    if domain > BLOCK_ELEMS:
        for row, seed in enumerate(seeds.tolist()):
            out[row] = sample_distinct(domain, count, seed)
        return out
    step = BLOCK_ELEMS // domain
    for lo in range(0, len(seeds), step):
        states = seeds[lo : lo + step].copy()
        block = out[lo : lo + step]
        rows = np.arange(len(states))
        perm = np.tile(np.arange(domain, dtype=np.int64), (len(states), 1))
        for i in range(count):
            j = i + bounded_arr(states, domain - i).astype(np.int64)
            block[:, i] = perm[rows, j]
            perm[rows, j] = perm[:, i]
    return out


def sample_subset(ring: Ring, size: int, trial_seed: int) -> RSet:
    """A uniform random subset of the ring with exactly `size` elements."""
    if not 1 <= size <= ring.order:
        raise ValueError(f"subset size {size} out of range [1, {ring.order}]")
    return RSet.from_indices(ring, sample_distinct(ring.order, size, trial_seed))


def sample_unit_subset(ring: Ring, size: int, trial_seed: int) -> RSet:
    """A uniform random subset of the unit group with exactly `size` elements."""
    units = ring.units()
    if not 1 <= size <= len(units):
        raise ValueError(f"unit subset size {size} out of range [1, {len(units)}]")
    picks = sample_distinct(len(units), size, trial_seed)
    return RSet.from_indices(ring, [units[i] for i in picks])


def code_triples(n: int, codes) -> np.ndarray:
    """The (x, y, z) triples of codes x*n**2 + y*n + z, shape (len(codes), 3)."""
    codes = np.asarray(codes, dtype=np.int64)
    return np.stack([codes // n**2, codes // n % n, codes % n], axis=1)


def sample_points(ring: Ring, count: int, seed: int) -> np.ndarray:
    """count distinct (x, y, z) triples, shape (count, 3)."""
    return code_triples(ring.order, sample_distinct(ring.order**3, count, seed))


def sample_planes(ring: Ring, count: int, seed: int) -> np.ndarray:
    """count distinct (u, v, d) triples describing planes u*X + v*Y + Z = d."""
    return sample_points(ring, count, seed)


def sample_weights(count: int, max_weight: int, seed: int) -> list[int]:
    """count weights, each uniform in [1, max_weight]."""
    gen = SplitMix64(seed)
    return [1 + gen.bounded(max_weight) for _ in range(count)]


def shuffled(values, seed: int) -> list:
    """A full Fisher-Yates shuffle of a list, deterministic in the seed."""
    out = list(values)
    gen = SplitMix64(seed)
    for i in range(len(out) - 1):
        j = i + gen.bounded(len(out) - i)
        out[i], out[j] = out[j], out[i]
    return out
