"""Region data model, ingestion, text normalization, synthetic generation, and splits.

Loaders and the generator pass regions around as Region records, each
carrying a fixed-dimension feature vector, a set of normalized predicate
annotations, and an optional description; text becomes predicates here
only (normalize_annotation, extract_predicates). LOADERS maps each corpus
file format to its reader. A Corpus takes them apart into one
table of row-order columns and keeps no Region. The split gives each policy
side (policy-train, policy-test) one pair of sorted row tuples,
classifier-train and classifier-test. It routes every region containing a
held-out frequent predicate to the policy-test side, so test-time
descriptions always involve at least one novel predicate.

Inside a run a region is an integer row, its rank in sorted-id order, so
sorting rows sorts ids. Splits, interactions, labels, views and actions hold
rows. Ids are read at load and checkpoint resume, and written only to
checkpoints and transcripts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from statistics import NormalDist

import numpy as np

from .errors import (
    ConfigError,
    CorpusError,
    DataError,
    GenerationError,
    ParseError,
    SamplingError,
    SplitError,
    check_int,
    check_real,
)
from .seeding import stream, streams


@dataclass(frozen=True)
class Region:
    """One candidate object as a file holds it: features, ground-truth predicates, description."""

    id: str
    features: np.ndarray
    annotations: frozenset[str]
    description_predicates: tuple[str, ...] = ()


class Corpus:
    """The one region table: immutable columns in row order, with a shared feature dim.

    A region's row is its rank in sorted-id order. `ids`, the (N, dim) feature
    matrix `X`, `annotations` and `description_predicates` are columns indexed
    by row; `row` is the one id -> row map. `file_rows` lists the rows in the
    order the regions were given, which the fingerprint, split and density
    sums follow. No Region outlives the constructor.
    """

    def __init__(self, regions: list[Region]):
        if not regions:
            raise CorpusError("corpus is empty")
        self.dim = int(regions[0].features.size)  # a 0-d or 2-D array fails the shape test
        if self.dim < 1:
            raise CorpusError("regions have no features")
        for r in regions:
            if r.features.shape != (self.dim,):
                raise CorpusError(
                    f"region {r.id!r}: features of shape {r.features.shape}, not ({self.dim},)"
                )
        order = sorted(range(len(regions)), key=lambda i: regions[i].id)
        self.ids = [regions[i].id for i in order]
        for a, b in zip(self.ids, self.ids[1:]):
            if a == b:
                raise CorpusError(f"duplicate region id {a!r}")
        self.row = {rid: i for i, rid in enumerate(self.ids)}
        self.X = np.stack([regions[i].features for i in order], dtype=np.float64)
        self.annotations = [regions[i].annotations for i in order]
        self.description_predicates = [regions[i].description_predicates for i in order]
        self.file_rows = np.array([self.row[r.id] for r in regions], dtype=np.intp)

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def fingerprint(self) -> str:
        """Content hash over ids, features, annotations, and descriptions, in file order.

        Computed once: a run writes it into every checkpoint and its summary.
        """
        h = hashlib.sha256()
        for row in self.file_rows.tolist():
            h.update(self.ids[row].encode())
            h.update(self.X[row].tobytes())
            h.update("|".join(sorted(self.annotations[row])).encode())
            h.update(("#" + ",".join(self.description_predicates[row])).encode())
        return h.hexdigest()


@dataclass(frozen=True)
class CorpusSplit:
    """Each policy side's (classifier-train, classifier-test) rows, sorted; the held-out predicates.

    The four row tuples are disjoint and cover the corpus.
    """

    policy_train: tuple[tuple[int, ...], tuple[int, ...]]
    policy_test: tuple[tuple[int, ...], tuple[int, ...]]
    held_out_predicates: frozenset[str]

    def side(self, name: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The side's classifier-train and classifier-test rows."""
        if name == "policy-train":
            return self.policy_train
        if name == "policy-test":
            return self.policy_test
        raise ValueError(f"unknown split side {name!r}")


@dataclass(frozen=True)
class Interaction:
    """One dialog's worth of region rows: 8 queryable, 4 guessable, one target."""

    active_train: tuple[int, ...]
    active_test: tuple[int, ...]
    target: int
    description_predicates: tuple[str, ...]


# Small closed-class list; enough to strip function words from short object
# descriptions ("the red box" -> red, box) without an NLP dependency.
STOPWORDS = frozenset(
    """a an the of in on at is it its this that these those and or to with for
    by from as are was were be been being has have had his her their there
    here me my we us our you your i he she they them what which who whom am
    do does did not no nor so if then than too very can will just""".split()
)


def normalize_token(token: str) -> str:
    """Lower-case, strip non-alphanumerics, apply a light plural stemmer."""
    return _stem("".join(c for c in token.lower() if c.isalnum()))


def _stem(tok: str) -> str:
    if tok.endswith("sses"):
        return tok[:-2]
    if tok.endswith("ies") and len(tok) > 4:
        return tok[:-3] + "i"
    if tok.endswith("ss"):
        return tok
    if tok.endswith("s") and len(tok) > 3:
        return tok[:-1]
    return tok


def extract_predicates(description: str) -> list[str]:
    """Tokenize, drop stopwords, stem; dedup preserving first occurrence."""
    if not description or not description.strip():
        raise DataError("empty description")
    out: list[str] = []
    for raw in description.split():
        low = "".join(c for c in raw.lower() if c.isalnum())
        if low and low not in STOPWORDS and (stemmed := _stem(low)) not in out:
            out.append(stemmed)
    if not out:
        raise DataError(f"description {description!r} reduces to stopwords only")
    return out


def normalize_annotation(text: str) -> list[str]:
    """Annotation string -> normalized predicate tokens (lower, strip specials, stem)."""
    cleaned = "".join(c if (c.isalnum() or c.isspace()) else "" for c in text.lower())
    return [norm for tok in cleaned.split() if (norm := normalize_token(tok))]


def _text(entry, kind: str, where: str) -> str:
    """An annotation or description entry, which must be a string."""
    if not isinstance(entry, str):
        raise ParseError(f"{where}: {kind} must be a string, got {entry!r}")
    return entry


def _region_from_record(
    rid: str,
    features: list,
    annotations: list,
    description,
    where: str,
) -> Region:
    try:
        feats = np.asarray([float(v) for v in features], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: bad feature value ({exc})") from exc
    preds: set[str] = set()
    for ann in annotations:
        preds.update(normalize_annotation(_text(ann, "annotation", where)))
    desc_preds: tuple[str, ...] = ()
    if description is not None and description != "":
        if isinstance(description, str):
            desc_preds = tuple(extract_predicates(description))
        else:
            toks = []
            for tok in description:
                toks.extend(normalize_annotation(_text(tok, "description entry", where)))
            desc_preds = tuple(dict.fromkeys(toks))
    for p in desc_preds:
        if p not in preds:
            raise CorpusError(
                f"{where}: description predicate {p!r} missing from annotations"
            )
    return Region(
        id=str(rid),
        features=feats,
        annotations=frozenset(preds),
        description_predicates=desc_preds,
    )


def _load_jsonl(path) -> list[Region]:
    regions = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(rec, dict):
                raise ParseError(f"{path}:{lineno}: record is not an object")
            for key, kinds, kind in (
                ("id", str, "a string"), ("features", list, "a list"),
                ("annotations", list, "a list"),
                ("description", (str, list, type(None)), "a string, a list or absent"),
            ):
                if not isinstance(rec.get(key), kinds):
                    got = type(rec[key]).__name__ if key in rec else "no such field"
                    raise ParseError(f"{path}:{lineno}: {key} must be {kind}, got {got}")
            regions.append(
                _region_from_record(
                    rec["id"],
                    rec["features"],
                    rec["annotations"],
                    rec.get("description"),
                    f"{path}:{lineno}",
                )
            )
    return regions


def _load_tabular(path) -> list[Region]:
    regions = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        columns = {name: col for col, name in enumerate(header)}  # a repeat keeps its last
        named = ("id", "annotations", "description")
        features = [f"f{j}" for j in range(len(columns.keys() - set(named)))]  # feature j is f{j}
        for col, name in enumerate(header):
            if columns[name] != col:
                raise ParseError(f"{path}: column {name!r} repeats")
            if name not in (*named, *features):
                raise ParseError(f"{path}: unknown column {name!r} (features are f0, f1, ...)")
        for name in ("id", "annotations"):
            if name not in columns:
                raise ParseError(f"{path}: header missing required column {name!r}")
        feat_cols = [columns[name] for name in features]
        id_col, ann_col = columns["id"], columns["annotations"]
        desc_col = columns.get("description")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
            annotations = [a for a in row[ann_col].split("|") if a]
            description = row[desc_col] if desc_col is not None and row[desc_col] else None
            regions.append(
                _region_from_record(
                    row[id_col],
                    [row[i] for i in feat_cols],
                    annotations,
                    description,
                    f"{path}:{lineno}",
                )
            )
    return regions


LOADERS = {"annotation-json": _load_jsonl, "tabular": _load_tabular}  # corpus format -> reader


def load_regions(path, fmt: str = "annotation-json") -> list[Region]:
    """Read a region file in a LOADERS format: annotation-json (JSONL) or tabular (CSV).

    The regions are checked as a Corpus is: one feature dimension, unique ids.
    A file that cannot be opened or is not UTF-8 is a CorpusError naming it.
    """
    if fmt not in LOADERS:
        raise CorpusError(f"unknown corpus format {fmt!r}")
    try:
        regions = LOADERS[fmt](path)
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc
    Corpus(regions)
    return regions


def write_regions(path, regions: list[Region]) -> None:
    """Write regions as JSONL, the same schema load_regions ingests."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in regions:
            rec = {
                "id": r.id,
                "features": [float(v) for v in r.features],
                "annotations": sorted(r.annotations),
                "description": list(r.description_predicates) or None,
            }
            fh.write(json.dumps(rec) + "\n")


@dataclass(frozen=True)
class SyntheticConfig:
    """A run config's `corpus.synthetic`, which `run` and `gen-data` read through `from_dict`.

    Any setting that a run cannot use is a ConfigError naming its key.
    """

    n_regions: int = 600
    dim: int = 32
    n_predicates: int = 24
    coverage: tuple[float, float] = (0.08, 0.30)
    description_length: tuple[int, int] = (1, 3)
    seed: int = 13

    def __post_init__(self):
        # 12 regions are one interaction's worth
        for name, minimum in (("n_regions", 12), ("dim", 1), ("n_predicates", 1), ("seed", None)):
            check_int(f"corpus.synthetic.{name}", getattr(self, name), minimum)
        for name, check, holds, rule in (
            ("coverage", check_real, lambda lo, hi: 0.0 < lo <= hi < 1.0, "0 < low <= high < 1"),
            ("description_length", check_int, lambda lo, hi: 1 <= lo <= hi, "1 <= low <= high"),
        ):
            pair = getattr(self, name)
            if not isinstance(pair, tuple) or len(pair) != 2:
                raise ConfigError(f"corpus.synthetic.{name} must be a pair, got {pair!r}")
            for value in pair:
                check(f"corpus.synthetic.{name}", value)
            if not holds(*pair):
                raise ConfigError(f"corpus.synthetic.{name} must hold {rule}, got {pair!r}")


MAX_RESAMPLES = 1000  # feature draws generate_synthetic makes for a region before it gives up


def generate_synthetic(cfg: SyntheticConfig) -> list[Region]:
    """Half-space predicates over Gaussian features; annotations are exact memberships.

    Each predicate is a random unit normal u and offset b; a region is annotated
    with it iff u.x >= b. Offsets are chosen so each predicate covers a fraction
    of feature space drawn from cfg.coverage. Regions with no annotations are
    resampled (bounded), so every region can serve as a target.
    """
    lo, hi = cfg.coverage
    dlo, dhi = cfg.description_length
    rng = stream(cfg.seed, "synthetic")
    names = [f"p{i:02d}" for i in range(cfg.n_predicates)]
    normals = rng.normal(size=(cfg.n_predicates, cfg.dim))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    # u.x ~ N(0,1) for unit u, so offset = isf(coverage) hits the target rate.
    coverages = rng.uniform(lo, hi, size=cfg.n_predicates)
    offsets = np.array([-NormalDist().inv_cdf(c) for c in coverages])

    regions = []
    for i in range(cfg.n_regions):
        for _ in range(MAX_RESAMPLES):
            x = rng.normal(size=cfg.dim)
            mask = normals @ x >= offsets
            if mask.any():
                break
        else:
            raise GenerationError(
                f"region {i}: no non-empty annotation set after {MAX_RESAMPLES} resamples"
            )
        anns = [names[j] for j in range(cfg.n_predicates) if mask[j]]
        k_lo = min(dlo, len(anns))
        k_hi = min(dhi, len(anns))
        k = int(rng.integers(k_lo, k_hi + 1))
        desc = tuple(sorted(rng.choice(len(anns), size=k, replace=False).tolist()))
        desc_preds = tuple(anns[j] for j in desc)
        regions.append(
            Region(
                id=f"r{i:04d}",
                features=x,
                annotations=frozenset(anns),
                description_predicates=desc_preds,
            )
        )
    return regions


@dataclass(frozen=True)
class SplitConfig:
    frequency_threshold: int = 1000
    test_fraction_of_frequent: float = 0.5
    classifier_split: float = 0.6
    seed: int = 0

    def __post_init__(self):
        check_int("split.frequency_threshold", self.frequency_threshold, 0)
        check_int("split.seed", self.seed)
        for name in ("test_fraction_of_frequent", "classifier_split"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and 0.0 < value < 1.0):
                raise ConfigError(f"split.{name} must be a number in (0, 1), got {value!r}")


def make_splits(corpus: Corpus, cfg: SplitConfig) -> CorpusSplit:
    """Hold out a random share of frequent predicates; route their regions to policy-test."""
    counts: dict[str, int] = {}
    for anns in corpus.annotations:
        for p in anns:
            counts[p] = counts.get(p, 0) + 1
    frequent = sorted(p for p, n in counts.items() if n >= cfg.frequency_threshold)
    if not frequent:
        raise SplitError(
            f"no predicate appears in >= {cfg.frequency_threshold} regions; "
            "lower the frequency threshold"
        )
    held_rng, train_rng, test_rng = streams(
        cfg.seed, ("split", "held-out"), ("split", "policy-train"), ("split", "policy-test")
    )
    n_held = max(1, int(math.floor(cfg.test_fraction_of_frequent * len(frequent) + 0.5)))
    held = frozenset(
        frequent[i] for i in sorted(held_rng.choice(len(frequent), size=n_held, replace=False))
    )

    # In file order: a shuffle's draws depend only on the list's length
    file_rows = corpus.file_rows.tolist()
    test_side = [row for row in file_rows if corpus.annotations[row] & held]
    train_side = [row for row in file_rows if not (corpus.annotations[row] & held)]

    def split_side(order: list[int], rng) -> tuple[tuple[int, ...], tuple[int, ...]]:
        rng.shuffle(order)
        cut = int(round(cfg.classifier_split * len(order)))
        return tuple(sorted(order[:cut])), tuple(sorted(order[cut:]))

    return CorpusSplit(
        policy_train=split_side(train_side, train_rng),
        policy_test=split_side(test_side, test_rng),
        held_out_predicates=held,
    )


MAX_DRAWS = 100  # interactions sample_interaction draws before it finds none describable


def sample_interaction(
    corpus: Corpus,
    split: CorpusSplit,
    side: str,
    active_train_size: int,
    active_test_size: int,
    rng: np.random.Generator,
) -> Interaction:
    """Draw one interaction: train/test sets without replacement, describable target."""
    train_pool, test_pool = split.side(side)
    if len(train_pool) < active_train_size:
        raise SamplingError(
            f"{side} classifier-train subset has {len(train_pool)} regions, "
            f"needs {active_train_size}"
        )
    if len(test_pool) < active_test_size:
        raise SamplingError(
            f"{side} classifier-test subset has {len(test_pool)} regions, "
            f"needs {active_test_size}"
        )
    described = corpus.description_predicates
    for _ in range(MAX_DRAWS):
        train_idx = rng.choice(len(train_pool), size=active_train_size, replace=False)
        test_idx = rng.choice(len(test_pool), size=active_test_size, replace=False)
        active_train = tuple(train_pool[i] for i in train_idx)
        active_test = tuple(test_pool[i] for i in test_idx)
        if not any(described[row] for row in active_test):
            continue
        while True:
            target = active_test[int(rng.integers(len(active_test)))]
            if described[target]:
                break
        return Interaction(
            active_train=active_train,
            active_test=active_test,
            target=target,
            description_predicates=described[target],
        )
    raise SamplingError(f"{side}: no describable target after {MAX_DRAWS} draws")
