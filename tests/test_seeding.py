"""The vectorised seed derivation against numpy's own SeedSequence, exactly.

seeding.seed_words runs SeedSequence's hash and mix steps over arrays of
seeds, and seeding.generator seeds PCG64 from one row of them. Every
generator must be np.random.default_rng(child_seed(...)): the same seed
words, the same bit-generator state and the same draws.
"""

import numpy as np
import pytest

from oalsim.config import load_config
from oalsim.harness import DIALOG_STREAMS
from oalsim.seeding import child_seed, episode_words, generator, seed_words, stream, streams

from conftest import DESK_CONFIG

EDGES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]


def assert_seeds_derive_like_numpy(seeds, words):
    assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
    for seed, row in zip(seeds, words):
        want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert row.tobytes() == want.tobytes(), seed
        assert_same_generator(generator(row), np.random.default_rng(seed))


def assert_same_generator(got: np.random.Generator, want: np.random.Generator):
    assert got.bit_generator.state == want.bit_generator.state
    assert got.random(3).tolist() == want.random(3).tolist()
    assert got.integers(2**62, size=2).tolist() == want.integers(2**62, size=2).tolist()


def test_edge_seeds_derive_like_numpy():
    assert_seeds_derive_like_numpy(EDGES, seed_words(EDGES))


def test_random_64_bit_seeds_derive_like_numpy():
    src = np.random.default_rng(2024)
    seeds = [int(s) for s in src.integers(0, 2**64, size=3000, dtype=np.uint64)]
    seeds += [int(s) for s in src.integers(0, 2**32, size=200, dtype=np.uint64)]
    assert_seeds_derive_like_numpy(seeds, seed_words(seeds))


def test_no_seeds_and_out_of_range_seeds():
    assert seed_words([]).shape == (0, 4)
    for bad in (-1, 2**64):
        with pytest.raises(OverflowError):
            seed_words([bad])


def test_every_stream_of_a_desk_run_derives_like_numpy():
    exp = load_config(DESK_CONFIG).experiment
    purposes = ("interaction",) + DIALOG_STREAMS
    batches = [(0, exp.init_batches), (1, exp.train_batches), (2, exp.test_batches)]
    paths = 0
    for phase, n_batches in batches:
        for batch in range(n_batches):
            words = episode_words(exp.master_seed, purposes, phase, batch, exp.batch_size)
            assert words.shape == (exp.batch_size, len(purposes), 4)
            for e in range(exp.batch_size):
                for j, purpose in enumerate(purposes):
                    seed = child_seed(exp.master_seed, purpose, phase, batch, e)
                    assert_seeds_derive_like_numpy([seed], words[e, j][None])
                    paths += 1
    assert paths == 4 * exp.batch_size * (exp.init_batches + exp.train_batches + exp.test_batches)


def test_a_single_path_stream_is_default_rng_of_its_child_seed():
    for path in [("synthetic",), ("split", "held-out"), ("interaction", 0, 1, 2), ()]:
        want = np.random.default_rng(child_seed(13, *path))
        assert_same_generator(stream(13, *path), want)
    paths = [("split", "held-out"), ("split", "policy-train"), ("split", "policy-test")]
    for path, got in zip(paths, streams(0, *paths), strict=True):
        assert_same_generator(got, stream(0, *path))
