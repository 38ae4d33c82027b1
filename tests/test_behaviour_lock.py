"""Behaviour lock: the sha256 of every file three small runs write.

perfbench/lock.json pins metrics.csv only. These digests also pin the
transcripts (every logged feature vector) and each checkpoint (classifier
labels, usage stats, theta), for the learned arm with and without immediate updates,
and for the learned arm on the same regions in reversed file order. In that
corpus a region's file position differs from its rank in id order, which the
synthetic corpora below 10,000 regions never show.
A change that is meant to alter any of these bytes re-pins them here and says
why in CHANGES.md; a speedup must leave them as they are.
"""

import dataclasses
import hashlib

import pytest

from oalsim.corpus import Corpus, generate_synthetic
from oalsim.harness import Experiment, write_metrics_csv

from conftest import SMALL_SYNTH, small_run_config

PINNED = {
    "learned": {
        "ck/checkpoint_p0_b0.json": "d087e3d52c6d0fc851f3af52c452ed94d856e8113783655d048a6e78f75d09dd",
        "ck/checkpoint_p0_b1.json": "6d2f9bb81c02d789c7389bbf5dd1b580036367c860fbe3d2078568808ff023bd",
        "ck/checkpoint_p1_b0.json": "b7abdf77e04980b7c6cd7600251c4e11262ab3caceb92cb30a0be37349c4aeb0",
        "ck/checkpoint_p1_b1.json": "dcd663b58c8fc76859561e2e0f85bc523840ed8865e90a80686487a518e7562f",
        "ck/checkpoint_p2_b0.json": "3f694be1d0dbd660bcf0e16257af25bf4bed7152474758287d8280c56fa42319",
        "ck/checkpoint_p2_b1.json": "e01727aeddd0b8d0d7750699e03fdd5605dcb59e76bc0a748e0ce7da6920807b",
        "metrics.csv": "5b4fe9fcacbe50e739e803058decb2f4c624635ae4b647654a09a7854f000c41",
        "transcripts.jsonl": "45a616d955e0c12c848f9a39b88c871a9286c27e7edd5993a4e520d19442e229",
    },
    "immediate": {
        "ck/checkpoint_p0_b0.json": "4021f884e11c1f88f08c58b962064629dfb8b41be4664f3c2398871626d0bdea",
        "ck/checkpoint_p0_b1.json": "77552b8519f5bfc1bb3401fbb5d3813faa9f2f7c3b85661c876223a3192a8c63",
        "ck/checkpoint_p1_b0.json": "7310c83de0877d044867539cf1ee54fc1cf889829bee8030a39976e1069f5e5f",
        "ck/checkpoint_p1_b1.json": "351ec7fc15325176e099896ddbac9f01efe3e512f9f22dd91821fa08a8142df9",
        "ck/checkpoint_p2_b0.json": "83175335c419f27a31a61a6a56b0ccd64d566c1c9c2dba7e832ea40a72650922",
        "ck/checkpoint_p2_b1.json": "fa9dd47a78943d0d6c1664f1893fba65b07d45a95bf904b1aebce3d134f3d726",
        "metrics.csv": "02c3a1dd643d10c6e44cddd60c330795a1ef8aa9293e4c946d1f6ca60ced0a04",
        "transcripts.jsonl": "add850971b9dd969c92f4638ed424bc8c9691b8b9e3d5695a18509f84d5efe2c",
    },
    "reversed": {
        "ck/checkpoint_p0_b0.json": "34841a97cb52c1a62df1dd0a3667e5ccc0c468d37a15c9b8c6f540731729f43a",
        "ck/checkpoint_p0_b1.json": "91783c5df65881d0b23e38d2342547ed46964bbba2f7f79050d0bc3cd5aa5c96",
        "ck/checkpoint_p1_b0.json": "a358add4b4418b5e203ea2a0a6e93306c1a4f13a376e02ee8c1f0a8c291392be",
        "ck/checkpoint_p1_b1.json": "f5234bb4b87601074ef3b1b89dd83ecd69b477c2d8a90304ddb4fd420dc18e5e",
        "ck/checkpoint_p2_b0.json": "1af64947a5cf62af1fe9fdf0abb46f1716dd4999945803a3360dd26772bfcc9c",
        "ck/checkpoint_p2_b1.json": "8b81aaeb7c2cc834105e63c53c31aa6a1be278e984920ba214be1d07d374ea8f",
        "metrics.csv": "44f63fc6891ea1166c7ca3e27633ec9afea7788c29993b42d2440406311a5448",
        "transcripts.jsonl": "f663a40618e7648c0b0d1541847b89d70181588a6590264c87cb496dec3a4881",
    },
}


def _config(name):
    cfg = small_run_config()
    if name == "immediate":
        cfg = dataclasses.replace(
            cfg, episode=dataclasses.replace(cfg.episode, immediate_updates=True)
        )
    return cfg


@pytest.mark.parametrize("name", sorted(PINNED))
def test_run_output_digests(name, small_corpus, small_split, small_density, tmp_path):
    if name == "reversed":
        exp = Experiment(_config(name), Corpus(list(reversed(generate_synthetic(SMALL_SYNTH)))))
    else:
        exp = Experiment(_config(name), small_corpus, small_split, small_density)
    result = exp.run(
        checkpoint_dir=tmp_path / "ck", transcript_path=tmp_path / "transcripts.jsonl"
    )
    write_metrics_csv(tmp_path / "metrics.csv", result.metrics)
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file()
    }
    assert digests == PINNED[name]
