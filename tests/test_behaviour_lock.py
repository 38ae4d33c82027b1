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
        "ck/checkpoint_p0_b0.json": "df37db1c4fa3902937fedc9ce8fae5f01509dcc3510559055a43c1054627ff33",
        "ck/checkpoint_p0_b1.json": "acbeff8f2b30cbed00e660a382c42d48778b2b921700c41464d9c93c18798b49",
        "ck/checkpoint_p1_b0.json": "02e7b41093e15d131f930914c2b1d8334ccda1c61d0ef0fd2b7d101258c93b54",
        "ck/checkpoint_p1_b1.json": "72d572796319f3b38ac81c64fbfb790ce46fd887b6c24d5abeb98d9605a87dab",
        "ck/checkpoint_p2_b0.json": "5cd9fa0a32bfde301f93d6d8fa7617ad62111eebfa23ab485496d7339fce4a84",
        "ck/checkpoint_p2_b1.json": "0163568a6b12bc4474d34ace91b67f4289d3a2b65bd71a6589a2c9f60d9ae30e",
        "metrics.csv": "5b4fe9fcacbe50e739e803058decb2f4c624635ae4b647654a09a7854f000c41",
        "transcripts.jsonl": "45a616d955e0c12c848f9a39b88c871a9286c27e7edd5993a4e520d19442e229",
    },
    "immediate": {
        "ck/checkpoint_p0_b0.json": "f71a96e02ae0096c9c36c53e86bc55f51d72567416a1454ca29a50e70bed6277",
        "ck/checkpoint_p0_b1.json": "9d51c59d1c53f9177b521fb3c08434e23ab1e01e12a1095b991cf19d46c69810",
        "ck/checkpoint_p1_b0.json": "63b7db8e5804ef7ae1cf77b65003a263b8bbb758ca258b9ab126637bbcb715db",
        "ck/checkpoint_p1_b1.json": "b09481bd48ce18c8af9370db67e18f4a839172e61ed238ebe143064f7c6162c9",
        "ck/checkpoint_p2_b0.json": "3f4ea3655c0f0ed86be8de411e84ee1636c751effeb8430252c3eac7ad40ff3d",
        "ck/checkpoint_p2_b1.json": "34e5e5aa0959d48925c44f75e927732f9147f0acd97524c15bf8b5737eb59e25",
        "metrics.csv": "02c3a1dd643d10c6e44cddd60c330795a1ef8aa9293e4c946d1f6ca60ced0a04",
        "transcripts.jsonl": "add850971b9dd969c92f4638ed424bc8c9691b8b9e3d5695a18509f84d5efe2c",
    },
    "reversed": {
        "ck/checkpoint_p0_b0.json": "a4bf53d1f2a1dcdb751e65ad9244f6370da9ee2e8472825b08db2271b4953f99",
        "ck/checkpoint_p0_b1.json": "c9cf359e03b29dca8f517477b2756c82b8f4444fbf8128e53521e4e5679432ff",
        "ck/checkpoint_p1_b0.json": "f49fdbfe0f16106efa454c1d8d88c39711b1d6b340b865b9f5855b7004265713",
        "ck/checkpoint_p1_b1.json": "ae88e67b8d00a7d0340b16d0d64754c953b0705a9251582b71fdc84af7e9ee7e",
        "ck/checkpoint_p2_b0.json": "406d6412490b08461e15498c141b7b5e9c345cd745992a424eff4d1418571cc9",
        "ck/checkpoint_p2_b1.json": "1b62ebb0877a13cbe2f96fdc942b0bb3a47e5bf83ee850d052c56157e4d363f1",
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
