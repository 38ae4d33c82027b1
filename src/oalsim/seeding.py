"""Deterministic seed-stream derivation.

Every consumer of randomness gets its own generator, derived from the master
seed and a path of labels (phase, batch, episode, purpose). Streams are
stateless: re-deriving the same path always yields the same generator, which
is what makes checkpoint resume and cross-condition comparisons exact.

A path's child seed (child_seed) is a 64-bit blake2b hash. The generator is
the one np.random.default_rng(child seed) builds: PCG64 seeded by the four
64-bit words that numpy's SeedSequence(child seed).generate_state(4,
np.uint64) returns. seed_words computes those words for many child seeds at
once, with SeedSequence's own uint32 hash and mix steps (numpy's
bit_generator.pyx, pool size 4) run over arrays, and `generator` builds a
PCG64 from one row of them. A batch derives the words of all its dialogs'
interaction streams in one call (harness.Experiment.interactions) and of
their oracle, beam and policy streams in another (run_batch); `stream` is
the same derivation for one path.
"""

import hashlib

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # the entropy mix's hash constants
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state's
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0..n: hash step k xors entry k, multiplies by k + 1."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


# 4 hashes fill the pool, then 4 x 3 mix every word into every other one, in
# that order; 8 uint32 words make the 4 uint64 words of the state
_A = _hash_constants(_INIT_A, _MULT_A, 16)[:, None]
_B = _hash_constants(_INIT_B, _MULT_B, 8)[:, None]
_MIXES = [
    (src, np.array([d for d in range(4) if d != src]), _A[4 + 3 * src : 7 + 3 * src],
     _A[5 + 3 * src : 8 + 3 * src])
    for src in range(4)
]


def seed_words(seeds) -> np.ndarray:
    """(n, 4) uint64: row i is SeedSequence(seeds[i]).generate_state(4, np.uint64).

    Each seed is an integer in [0, 2**64); its entropy is its low and high
    32-bit words, and SeedSequence pads a shorter entropy with zero words.
    The pool holds one uint32 word per row, one seed per column; every
    product wraps modulo 2**32, as the uint32 arithmetic of numpy's does.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & np.uint64(0xFFFFFFFF)
    pool[1] = seeds >> np.uint64(32)
    pool ^= _A[:4]
    pool *= _A[1:5]
    pool ^= pool >> 16
    for src, dst, xor, mult in _MIXES:
        hashed = pool[src] ^ xor  # one hash of the source word per destination
        hashed *= mult
        hashed ^= hashed >> 16
        hashed *= _MIX_R
        mixed = pool[dst]
        mixed *= _MIX_L
        mixed -= hashed
        mixed ^= mixed >> 16
        pool[dst] = mixed
    state = np.concatenate((pool, pool))  # the pool, cycled
    state ^= _B[:8]
    state *= _B[1:]
    state ^= state >> 16
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


class _Words(ISeedSequence):
    """A seed sequence whose state is one row of seed_words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a seed_words row seeds PCG64 only: 4 words of uint64")
        return self.words


def generator(words: np.ndarray) -> np.random.Generator:
    """The generator of one seed_words row: np.random.default_rng of its child seed."""
    return Generator(PCG64(_Words(words)))


def child_seed(master: int, *path) -> int:
    """Stable 64-bit seed for a labelled child stream."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(master)).encode())
    for part in path:
        h.update(b"/")
        h.update(str(part).encode())
    return int.from_bytes(h.digest(), "big")


def episode_words(master: int, purposes, phase: int, batch: int, size: int) -> np.ndarray:
    """(size, len(purposes), 4) seed words, in one derivation.

    Entry [e, j] is the seed_words row of the path (purposes[j], phase,
    batch, e): the stream of purpose j in episode e of the batch.
    """
    seeds = [child_seed(master, p, phase, batch, e) for e in range(size) for p in purposes]
    return seed_words(seeds).reshape(size, len(purposes), 4)


def streams(master: int, *paths: tuple) -> list[np.random.Generator]:
    """The generator of each labelled path, from one derivation."""
    return [generator(w) for w in seed_words([child_seed(master, *path) for path in paths])]


def stream(master: int, *path) -> np.random.Generator:
    return streams(master, path)[0]
