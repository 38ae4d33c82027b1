"""Behaviour lock: the sha256 of every file three small runs write.

perfbench/lock.json pins metrics.csv only. These digests also pin the
transcripts (every logged feature vector) and each checkpoint (classifier
labels, theta, metrics rows), for the learned arm with and without immediate updates,
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
        "ck/checkpoint_p0_b0.json": "f2c3ef4e3a8f66c95dc8f58dadd37d84a3cff9ada5217141d9b84d0626fe1822",
        "ck/checkpoint_p0_b1.json": "f6ed228c5f9f3e75081e0da0a9cc43205422a3db493993ef11482847d05e376b",
        "ck/checkpoint_p1_b0.json": "ddba0349c6880718ef9852ffa4811d4196fbfb8eda2b57b4bced82d61a0431eb",
        "ck/checkpoint_p1_b1.json": "8093deb4bb8c87c8ed25ee1781369f224707328c068a6a4e6cc9af054fd97e49",
        "ck/checkpoint_p2_b0.json": "55f5668489e94482e3f6326ea6a317c8b7aabc023eb04c9d467ec841c261bcc1",
        "ck/checkpoint_p2_b1.json": "52fdee91403ded86b8b02817b098c914dadb3d93b2256d52e3a7205e9d26d405",
        "metrics.csv": "5b4fe9fcacbe50e739e803058decb2f4c624635ae4b647654a09a7854f000c41",
        "transcripts.jsonl": "45a616d955e0c12c848f9a39b88c871a9286c27e7edd5993a4e520d19442e229",
    },
    "immediate": {
        "ck/checkpoint_p0_b0.json": "d69764c65d53c4a6e9f8ea004dfb4e7f60de89d13c7fa2416386db771f2a6c6a",
        "ck/checkpoint_p0_b1.json": "38a9e25558980a9e418465ecb8d126a1ec3464427bcdea1e5a6034124d4bc9c1",
        "ck/checkpoint_p1_b0.json": "cd75f340763b0d0a8e66883214566c0a5a34ef254f6a16caffd81bb85814944d",
        "ck/checkpoint_p1_b1.json": "6d282cdf918345708d04405589c852ade60b60a60182448d95765737c6e54d9c",
        "ck/checkpoint_p2_b0.json": "2b610ebd7138c917d36e6bfbd94d21d3dcf08465be41c67e5fb7aec95981c236",
        "ck/checkpoint_p2_b1.json": "33cb5d7ba53720806f5764e64cb2fb3ff6301df7a0874206531bab1256f27c50",
        "metrics.csv": "02c3a1dd643d10c6e44cddd60c330795a1ef8aa9293e4c946d1f6ca60ced0a04",
        "transcripts.jsonl": "add850971b9dd969c92f4638ed424bc8c9691b8b9e3d5695a18509f84d5efe2c",
    },
    "reversed": {
        "ck/checkpoint_p0_b0.json": "65c72f7140d21fc17fb680e64f89603efa2d6d7cda1cbad0b84df7de5e9552c3",
        "ck/checkpoint_p0_b1.json": "54ddd73656972b9e69a444071db90110e97114e435ce7396ade8e2e80f74eb0f",
        "ck/checkpoint_p1_b0.json": "4040f4e7ad39d2a70aa46f9bf1b6d9ab90b9b7349aa5da39fa76a15f009a30a1",
        "ck/checkpoint_p1_b1.json": "5ff5e5b4d369f9e20416dd4015e3b430a3e9d84b40b2abd51f6c416b06a4b81d",
        "ck/checkpoint_p2_b0.json": "eec3df3508c136d0a7e1b035139fd1ef6acc7e233cb839909620c1bbc15a4058",
        "ck/checkpoint_p2_b1.json": "327e830cbb24c0e77129247abe8688874efe661a96faefe2518bb389df8ee5f9",
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
