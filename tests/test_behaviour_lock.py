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
        "ck/checkpoint_p0_b0.json": "828a4292e30a7e578ec83a809e08d369377748111ee4c9a238de148b9de4f0d7",
        "ck/checkpoint_p0_b1.json": "673bdb642265fb412d1b043651978328e28d21e433adbdbbd7fd7f48d0144d91",
        "ck/checkpoint_p1_b0.json": "ec2cf5603fedaa04ad0e65a8ecaa37f048e080a2f5d0aa67796972605abf0943",
        "ck/checkpoint_p1_b1.json": "ca45e3abcef593aa1a11834d94c6bf413155d62f4540c2b25b98a5982444e71d",
        "ck/checkpoint_p2_b0.json": "c45d1cdeb9b88ebec3544c0157241c8ef1c55cb4fef783a5bd1dc9a9e7bdd403",
        "ck/checkpoint_p2_b1.json": "b7fe2b6d0ae1bf41d1d32d4a8541436a999c334b557bdae86c2af3200f4a9233",
        "metrics.csv": "5b4fe9fcacbe50e739e803058decb2f4c624635ae4b647654a09a7854f000c41",
        "transcripts.jsonl": "45a616d955e0c12c848f9a39b88c871a9286c27e7edd5993a4e520d19442e229",
    },
    "immediate": {
        "ck/checkpoint_p0_b0.json": "1786d063c63b305d1c9451c7004941a5ea5fdbb51731ca891f2c777e031ddd14",
        "ck/checkpoint_p0_b1.json": "fedf4c4c4b3b7ca21f4e7b816119e2d6006fce5939942a331a5d4d99c5461dac",
        "ck/checkpoint_p1_b0.json": "f52b00893159db701ac158f110ea37663ec4fa7fa6cd239c073d4fa020e3df8e",
        "ck/checkpoint_p1_b1.json": "2a4daccd551a4cb91cc2c210bedafa602100d29cbd1d0620d7cd37e9e5952440",
        "ck/checkpoint_p2_b0.json": "370da6407ea006b937fcffc253ec8364f94f551bce134f0ff74467126982f6e9",
        "ck/checkpoint_p2_b1.json": "95e7d13f24690e73bac3d4ce15a2c6c72a82ab3fa3d7083f0765f399437c54a2",
        "metrics.csv": "02c3a1dd643d10c6e44cddd60c330795a1ef8aa9293e4c946d1f6ca60ced0a04",
        "transcripts.jsonl": "add850971b9dd969c92f4638ed424bc8c9691b8b9e3d5695a18509f84d5efe2c",
    },
    "reversed": {
        "ck/checkpoint_p0_b0.json": "40b13900bf381ebc2f62f8f48bf68d4d4fd41f7174f442fce2fcc12b6c15cbab",
        "ck/checkpoint_p0_b1.json": "c8197ed2b45f40095cefbf370f7ee43e9697e39fc44b40f2e7316f150d112563",
        "ck/checkpoint_p1_b0.json": "1848788cf1fd109ff57a68e225144d7ca23b288e83362eff7b2390d75452bb3d",
        "ck/checkpoint_p1_b1.json": "b2f4158ea2f0ee4f454be2666d1fd54822dda31770f9799af4ce4a743836edd6",
        "ck/checkpoint_p2_b0.json": "aa20dcc43409ddcf14cd0583b750ada00a3697e37a41a859bf265ba157f25dac",
        "ck/checkpoint_p2_b1.json": "5201b19af7213f652bc6153b5b3761cc2ebdef5b78d4770f7f257d4e3521923e",
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
