"""Behaviour lock: the sha256 of every file three small runs write.

perfbench/lock.json pins metrics.csv only. These digests also pin the
transcripts (every logged feature vector) and each checkpoint (classifier
weights, F1, theta), for the learned arm with and without immediate updates,
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
        "ck/checkpoint_p0_b0.json": "7fdd7266ecd67952e7244bea328fed5c97860f2360007a2bc3323ae8d36f80d5",
        "ck/checkpoint_p0_b1.json": "7f31c75230e8e9fa9482838a6d9ddeffab90d1a7de830c1f8db3137364fc7af9",
        "ck/checkpoint_p1_b0.json": "183cb358c9f7f09c183723cf7053707c33e40e8a1dbd8d14635138dd53356d8c",
        "ck/checkpoint_p1_b1.json": "0c9eafed7ed9255020e4f72c1b6a87d43d109aaa5eea7b449f462a4f0da70f59",
        "ck/checkpoint_p2_b0.json": "a6f65d525e4b198aa918ba976da10bf80214158419b89b9c2f2207c0af99583a",
        "ck/checkpoint_p2_b1.json": "6dd519023d21e013cccec68e284b70888066d52a6bdaceb3c96d9d09486b7a07",
        "metrics.csv": "5b4fe9fcacbe50e739e803058decb2f4c624635ae4b647654a09a7854f000c41",
        "transcripts.jsonl": "45a616d955e0c12c848f9a39b88c871a9286c27e7edd5993a4e520d19442e229",
    },
    "immediate": {
        "ck/checkpoint_p0_b0.json": "4193f7a58636cceb97847e2e803476ae7f74c83b4230a5425eda4e2a91c3e497",
        "ck/checkpoint_p0_b1.json": "9e6d2fe323a92087bee0d6661af11823dc5a6337a66d6dc3ab6b22132f155c88",
        "ck/checkpoint_p1_b0.json": "f777fef96309a95810c07b2de2bbaf47a5686d2d5ade765d0136232557ed69e0",
        "ck/checkpoint_p1_b1.json": "fe1f250c516e96da973364e4b1b126c8bc79d5785b1fc8f720c2c7c1397b6e83",
        "ck/checkpoint_p2_b0.json": "46a7ff6aabede6fc515a1efd810f92bc98496ac35c0360a2e8f06f7dda41a03f",
        "ck/checkpoint_p2_b1.json": "9fa18ef6c29f3f6b5e425cb6175b14dd04d24df25f4cf0ae1f74b8ed89306ee3",
        "metrics.csv": "02c3a1dd643d10c6e44cddd60c330795a1ef8aa9293e4c946d1f6ca60ced0a04",
        "transcripts.jsonl": "add850971b9dd969c92f4638ed424bc8c9691b8b9e3d5695a18509f84d5efe2c",
    },
    "reversed": {
        "ck/checkpoint_p0_b0.json": "256c9007a8136a5d1ab7804b3f6df66dc5efc1b6953e5a56a874bb3eaf04baf6",
        "ck/checkpoint_p0_b1.json": "3626863f3f896d35d7eae2672d8798fd2adf0125ae356babb301a918db0e5a06",
        "ck/checkpoint_p1_b0.json": "f677ecdf7ce5cc714dcadabcf515e81919244ac94ced39350ec716a0e6047fc3",
        "ck/checkpoint_p1_b1.json": "1d973158291214ea1396ea96d04ef1e547362bf75a881dbb43c66f2688e9bf24",
        "ck/checkpoint_p2_b0.json": "fa5376a82dc613c70283866cfaceddd1595c1d580613d5f94c244135cf43d59c",
        "ck/checkpoint_p2_b1.json": "d8966bbbf23595555516d3729eafed568331fe76730a5361a1860e0a6ab247e8",
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
