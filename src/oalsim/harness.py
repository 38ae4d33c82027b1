"""Three-phase experiment protocol, batch execution, metrics, and checkpoints.

Protocol: an initialization phase runs the static policy on the policy-train
side while REINFORCE updates bootstrap the weights from its trajectories; a
training phase resets the agent's classifiers/stats and lets the learned
policy act and update; a testing phase freezes the weights, resets the agent
again, and runs on the policy-test side (classifiers still learn from queried
labels there, the policy does not).

All randomness is derived from the master seed by (phase, batch, episode,
purpose) paths, so interaction sequences are identical across policy and
ablation conditions, and resuming from a checkpoint is bit-exact.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .agent import Agent
from .config import RunConfig
from .corpus import (
    Corpus,
    CorpusSplit,
    Interaction,
    generate_synthetic,
    load_regions,
    make_splits,
    sample_interaction,
)
from .dialog import Episode, TranscriptStep, episode_return, transcript_records
from .errors import CheckpointError
from .features import FeatureContext, N_FEATURES, featurize, guess_features, resolve_mask
from .grounding import score_objects
from .perception import DensityIndex, PredicateModel, estimate_f1, train_classifier
from .policy import (
    PolicyParams,
    action_probabilities,
    reinforce_update,
    sample_action,
    static_policy_act,
)
from .querygen import build_beam
from .seeding import stream
from .snapshot import EpisodeView, Snapshot
from .stats import welch_t_test

CHECKPOINT_VERSION = "oalsim-checkpoint/1"

PHASE_NAMES = ("init", "train", "test")


@dataclass
class BatchMetrics:
    phase: str
    batch: int
    success_rate: float
    mean_length: float
    mean_queries: float
    label_counts: dict[str, int]
    success_indicators: list[int]
    lengths: list[int]

    def row(self) -> list:
        return [
            self.phase,
            self.batch,
            repr(self.success_rate),
            repr(self.mean_length),
            repr(self.mean_queries),
        ]


@dataclass
class EpisodeOutcome:
    interaction: Interaction
    success: bool
    length: int
    n_queries: int
    transcript: list[TranscriptStep]
    pending: list[tuple[str, str, int]]

    @property
    def steps(self) -> list[tuple[np.ndarray, int, float]]:
        """(beam features, chosen index, reward) per turn, read off the transcript."""
        return [(s.beam_features, s.chosen, s.reward) for s in self.transcript]


@dataclass(frozen=True)
class PhasePlan:
    name: str
    side: str
    policy_kind: str
    update_policy: bool
    n_batches: int
    reset_agent: bool


@dataclass
class RunResult:
    config: RunConfig
    corpus_fingerprint: str
    metrics: list[BatchMetrics]
    theta: np.ndarray

    def final_test_batch(self) -> BatchMetrics:
        return self.metrics[-1]

    def summary(self) -> dict:
        final = self.final_test_batch()
        return {
            "master_seed": self.config.experiment.master_seed,
            "policy_kind": self.config.experiment.policy_kind,
            "ablate": list(self.config.experiment.ablate),
            "corpus_fingerprint": self.corpus_fingerprint,
            "final_test_batch": {
                "success_rate": final.success_rate,
                "mean_length": final.mean_length,
                "mean_queries": final.mean_queries,
                "success_indicators": final.success_indicators,
                "lengths": final.lengths,
            },
            "batches": [
                {
                    "phase": m.phase,
                    "batch": m.batch,
                    "success_rate": m.success_rate,
                    "mean_length": m.mean_length,
                    "mean_queries": m.mean_queries,
                }
                for m in self.metrics
            ],
        }


def build_corpus(config: RunConfig) -> Corpus:
    src = config.corpus
    if src.synthetic is not None:
        return Corpus(generate_synthetic(src.synthetic))
    return Corpus(load_regions(src.path, src.format))


class Experiment:
    """One full run against one corpus/split; reusable across conditions."""

    def __init__(
        self,
        config: RunConfig,
        corpus: Corpus | None = None,
        split: CorpusSplit | None = None,
        density: DensityIndex | None = None,
    ):
        self.config = config
        self.corpus = corpus if corpus is not None else build_corpus(config)
        self.split = split if split is not None else make_splits(self.corpus, config.split)
        if density is None:
            density = DensityIndex(
                self.corpus.ids,
                np.stack([r.features for r in self.corpus.regions]),
                k=config.classifier.knn_k,
                avg_sample=config.classifier.density_avg_sample,
            )
        self.density = density
        self.features_by_id = self.corpus.feature_map()
        mask = resolve_mask(config.experiment.ablate)
        self.mask = mask if mask.any() else None
        self.master = config.experiment.master_seed

    # -- phase plan ---------------------------------------------------------

    def phase_plan(self) -> list[PhasePlan]:
        exp = self.config.experiment
        kind = exp.policy_kind
        return [
            PhasePlan("init", "policy-train", "static", True, exp.init_batches, False),
            PhasePlan("train", "policy-train", kind, kind == "learned", exp.train_batches, True),
            PhasePlan("test", "policy-test", kind, False, exp.test_batches, True),
        ]

    # -- episode ------------------------------------------------------------

    def run_episode(
        self,
        interaction: Interaction,
        agent: Agent,
        snapshot: Snapshot,
        theta: np.ndarray,
        policy_kind: str,
        phase_idx: int,
        batch_idx: int,
        ep_idx: int,
    ) -> tuple[EpisodeOutcome, Episode]:
        cfg = self.config
        desc = interaction.description_predicates
        view = EpisodeView(
            snapshot,
            agent.predicates | set(desc),
            interaction.active_train,
            interaction.active_test,
            self.features_by_id,
        )

        oracle_rng = stream(self.master, "oracle", phase_idx, batch_idx, ep_idx)
        beam_rng = stream(self.master, "beam", phase_idx, batch_idx, ep_idx)
        policy_rng = stream(self.master, "policy", phase_idx, batch_idx, ep_idx)

        # Grounding and the guess features change only with the description's
        # classifiers: once per episode, and after an immediate refit of one.
        scores = score_objects(desc, view)
        ctx = FeatureContext(
            t_max=cfg.episode.t_max,
            description_predicates=desc,
            view=view,
            stats=agent.stats,
            density=self.density,
            guess=guess_features(desc, view, scores),
            mask=self.mask,
        )
        immediate = cfg.episode.immediate_updates

        episode = Episode(
            interaction=interaction,
            regions=self.corpus.by_id,
            view=view,
            rewards=cfg.rewards,
            t_max=cfg.episode.t_max,
            oracle_rng=oracle_rng,
            guesser=lambda: scores.argmax,  # the grounding current at the guess
        )

        while not episode.terminated:
            beam = build_beam(
                turn=episode.turn,
                t_max=cfg.episode.t_max,
                view=view,
                labeled=episode.known,
                asked=episode.asked,
                cfg=cfg.beam,
                rng=beam_rng,
            )
            beam_features = featurize(beam, episode.turn, ctx)
            if policy_kind == "static":
                chosen = static_policy_act(
                    episode.turn, beam, cfg.policy.static_n_queries, policy_rng
                )
            else:
                probs = action_probabilities(theta, beam_features)
                chosen = sample_action(probs, policy_rng)
            n_before = len(episode.pending_labels)
            episode.step(beam[chosen], beam_features, chosen)
            if immediate and len(episode.pending_labels) > n_before:
                refit = self._refresh_models(view, episode.pending_labels[n_before:], agent)
                ctx.refit([view.index[p] for p in refit])
                if not refit.isdisjoint(desc):  # grounding reads description rows only
                    scores = score_objects(desc, view)
                    ctx.guess = guess_features(desc, view, scores)

        outcome = EpisodeOutcome(
            interaction=interaction,
            success=episode.success,
            length=episode.length(),
            n_queries=episode.n_queries(),
            transcript=episode.transcript,
            pending=list(episode.pending_labels),
        )
        return outcome, episode

    def _refresh_models(
        self,
        view: EpisodeView,
        new_labels: Sequence[tuple[str, str, int]],
        agent: Agent,
    ) -> set[str]:
        """Immediate-update variant: retrain affected classifiers mid-episode.

        The agent's own models stay untouched until the batch end; the episode
        records each label on its view's copy of the model and refits those
        copies whose labels hold both classes (_fit). Returns the refit predicates.
        """
        for p, rid, label in new_labels:
            i = view.index[p]
            model = view.models[i]
            if model is None:
                view.models[i] = model = PredicateModel(predicate=p)
            elif model is agent.models.get(p):
                view.models[i] = model = model.clone()
            model.record_label(rid, label)
        models = {p: view.models[view.index[p]] for p, _, _ in new_labels}
        refit = {p for p, model in models.items() if self._fit(model)}
        for p in refit:
            view.update(p, models[p])
        return refit

    def _fit(self, model: PredicateModel) -> bool:
        """Retrain a classifier and re-estimate its F1, if its labels hold both classes.

        One class gives no weights and F1 0, as the model already has: labels
        only grow, so it never held both. Returns whether the model was fit.
        """
        if not model.trainable():
            return False
        train_classifier(model, self.features_by_id, self.config.classifier)
        model.f1 = estimate_f1(model, self.features_by_id, self.config.classifier)
        return True

    # -- batch ----------------------------------------------------------------

    def run_batch(
        self,
        plan: PhasePlan,
        phase_idx: int,
        batch_idx: int,
        agent: Agent,
        theta: np.ndarray,
        transcript_sink=None,
    ) -> tuple[BatchMetrics, dict[tuple[str, str], int], list[EpisodeOutcome]]:
        cfg = self.config
        outcomes: list[EpisodeOutcome] = []
        merged: dict[tuple[str, str], int] = {}
        snapshot = Snapshot(agent.models, self.corpus.dim, cfg.triangular)
        for ep_idx in range(cfg.experiment.batch_size):
            rng = stream(self.master, "interaction", phase_idx, batch_idx, ep_idx)
            interaction = sample_interaction(
                self.corpus, self.split, plan.side, cfg.episode.sizes(), rng
            )
            outcome, episode = self.run_episode(
                interaction, agent, snapshot, theta, plan.policy_kind, phase_idx, batch_idx, ep_idx
            )
            agent.predicates.update(interaction.description_predicates)
            # Episode drops labels the agent held at the batch start, and the
            # agent's models do not change within a batch.
            for p, rid, label in outcome.pending:
                merged[(p, rid)] = label
            outcomes.append(outcome)
            if transcript_sink is not None:
                episode_id = f"{plan.name}/{batch_idx}/{ep_idx}"
                for rec in transcript_records(episode_id, episode):
                    transcript_sink.write(json.dumps(rec) + "\n")

        label_counts: dict[str, int] = {}
        for (p, _rid) in merged:
            label_counts[p] = label_counts.get(p, 0) + 1
        indicators = [1 if o.success else 0 for o in outcomes]
        lengths = [o.length for o in outcomes]
        metrics = BatchMetrics(
            phase=plan.name,
            batch=batch_idx,
            success_rate=sum(indicators) / len(indicators),
            mean_length=sum(lengths) / len(lengths),
            mean_queries=sum(o.n_queries for o in outcomes) / len(outcomes),
            label_counts=label_counts,
            success_indicators=indicators,
            lengths=lengths,
        )
        return metrics, merged, outcomes

    def apply_batch_end(
        self,
        agent: Agent,
        merged: dict[tuple[str, str], int],
        outcomes: list[EpisodeOutcome],
    ) -> None:
        """Fold queued labels into classifiers, retrain, refresh stats."""
        dirty = set()
        for (p, rid), label in merged.items():
            model = agent.models.setdefault(p, PredicateModel(predicate=p))
            if model.record_label(rid, label):
                dirty.add(p)
        for p in sorted(dirty):
            self._fit(agent.models[p])
        for o in outcomes:
            agent.stats.observe_dialog(o.interaction.description_predicates, o.success)

    def policy_update(
        self,
        params: PolicyParams,
        theta: np.ndarray,
        outcomes: list[EpisodeOutcome],
        update_index: int,
    ) -> np.ndarray:
        gamma = self.config.rewards.discount
        batch = []
        first_returns = []
        for o in outcomes:
            returns = episode_return([r for (_, _, r) in o.steps], gamma)
            batch.append(
                [(feats, chosen, g) for (feats, chosen, _), g in zip(o.steps, returns)]
            )
            first_returns.append(returns[0])
        params.observe_returns(first_returns)
        return reinforce_update(
            theta, batch, params.alpha_at(update_index), params.baseline()
        )

    # -- full run ---------------------------------------------------------------

    def run(
        self,
        resume: dict | None = None,
        checkpoint_dir=None,
        transcript_path=None,
    ) -> RunResult:
        cfg = self.config
        agent = Agent()
        params = PolicyParams(
            alpha=cfg.policy.learning_rate,
            alpha_decay=cfg.policy.learning_rate_decay,
            use_baseline=cfg.policy.use_baseline,
        )
        theta = np.zeros(N_FEATURES)
        metrics: list[BatchMetrics] = []
        update_counter = 0
        start_phase, start_batch = 0, 0

        if resume is not None:
            state = self._validate_checkpoint(resume)
            agent = Agent.from_dict(state["agent"])
            theta = np.asarray(state["theta"])
            params.baseline_mean = state["baseline_mean"]
            params.baseline_count = state["baseline_count"]
            update_counter = state["update_counter"]
            start_phase, start_batch = state["cursor"]
            metrics = [
                BatchMetrics(**row) for row in state["metrics"]
            ]

        sink = None
        if transcript_path:
            kept = _transcript_kept_bytes(transcript_path, (start_phase, start_batch))
            if kept:
                os.truncate(transcript_path, kept)
            sink = open(transcript_path, "a" if kept else "w", encoding="utf-8")
        try:
            plans = self.phase_plan()
            for phase_idx in range(start_phase, len(plans)):
                plan = plans[phase_idx]
                first_batch = start_batch if phase_idx == start_phase else 0
                if first_batch == 0 and plan.reset_agent:
                    agent.reset()
                for batch_idx in range(first_batch, plan.n_batches):
                    batch_metrics, merged, outcomes = self.run_batch(
                        plan, phase_idx, batch_idx, agent, theta, transcript_sink=sink
                    )
                    self.apply_batch_end(agent, merged, outcomes)
                    if plan.update_policy:
                        theta = self.policy_update(params, theta, outcomes, update_counter)
                        update_counter += 1
                    metrics.append(batch_metrics)
                    if checkpoint_dir is not None:
                        cursor = (
                            (phase_idx, batch_idx + 1)
                            if batch_idx + 1 < plan.n_batches
                            else (phase_idx + 1, 0)
                        )
                        checkpoint_save(
                            Path(checkpoint_dir)
                            / f"checkpoint_p{phase_idx}_b{batch_idx}.json",
                            self._checkpoint_state(
                                agent, theta, params, update_counter, cursor, metrics
                            ),
                        )
        finally:
            if sink is not None:
                sink.close()

        return RunResult(
            config=cfg,
            corpus_fingerprint=self.corpus.fingerprint(),
            metrics=metrics,
            theta=theta,
        )

    # -- checkpoints --------------------------------------------------------------

    def _checkpoint_state(
        self,
        agent: Agent,
        theta: np.ndarray,
        params: PolicyParams,
        update_counter: int,
        cursor: tuple[int, int],
        metrics: list[BatchMetrics],
    ) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "config_digest": self.config.digest(),
            "master_seed": self.master,
            "cursor": list(cursor),
            "theta": [float(v) for v in theta],
            "baseline_mean": params.baseline_mean,
            "baseline_count": params.baseline_count,
            "update_counter": update_counter,
            "agent": agent.to_dict(),
            "metrics": [dataclasses.asdict(m) for m in metrics],
        }

    def _validate_checkpoint(self, state: dict) -> dict:
        if state.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {state.get('version')!r} != {CHECKPOINT_VERSION!r}"
            )
        if state.get("config_digest") != self.config.digest():
            raise CheckpointError("checkpoint was written under a different config")
        state["cursor"] = tuple(state["cursor"])
        return state


def checkpoint_save(path, state: dict) -> None:
    """Write the checkpoint whole or not at all: a temporary file, then a rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(state, fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _transcript_kept_bytes(path, cursor: tuple[int, int]) -> int:
    """Length of the records an earlier run wrote for the batches before the cursor.

    A resumed run keeps those records and drops the rest (a batch the
    interrupted run left partial); a fresh run, at cursor (0, 0), keeps none.
    """
    if cursor == (0, 0) or not Path(path).exists():
        return 0
    kept = 0
    with open(path, "rb") as fh:
        for line in fh:
            if not line.endswith(b"\n"):
                break
            phase, batch, _ = json.loads(line)["episode"].split("/")
            if (PHASE_NAMES.index(phase), int(batch)) >= cursor:
                break
            kept += len(line)
    return kept


def checkpoint_load(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            state = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint {path} is corrupt: {exc}") from exc
    if not isinstance(state, dict) or "version" not in state:
        raise CheckpointError(f"checkpoint {path} is missing its version tag")
    return state


# -- metrics / summary files ------------------------------------------------------

CSV_HEADER = ["phase", "batch", "success_rate", "mean_length", "mean_queries"]


def write_metrics_csv(path, metrics: Sequence[BatchMetrics]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for m in metrics:
            writer.writerow(m.row())


def write_summary(path, result: RunResult) -> None:
    summary = result.summary()
    summary["config"] = result.config.to_dict()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)


# -- comparison against a baseline, ablation ---------------------------------------


def welch_vs_baseline(
    indicators: Sequence[int],
    lengths: Sequence[int],
    base_indicators: Sequence[int],
    base_lengths: Sequence[int],
) -> tuple[float, float]:
    """Two-sided Welch p-values of a final test batch against a baseline's.

    Returns (p on the success indicators, p on the dialog lengths).
    """
    p_success = welch_t_test(indicators, base_indicators).p_two_sided
    p_length = welch_t_test(
        [float(v) for v in lengths], [float(v) for v in base_lengths]
    ).p_two_sided
    return p_success, p_length


@dataclass
class AblationResult:
    conditions: dict[str, RunResult] = field(default_factory=dict)

    def comparison_rows(self) -> list[dict]:
        """Final-test-batch metrics per condition with Welch p vs static and full."""
        static = self.conditions["static"].final_test_batch()
        full = self.conditions["full"].final_test_batch()
        rows = []
        for name, result in self.conditions.items():
            final = result.final_test_batch()
            row = {
                "condition": name,
                "success_rate": final.success_rate,
                "mean_length": final.mean_length,
            }
            for label, ref in (("static", static), ("full", full)):
                p_success = p_length = None
                if final is not ref:
                    p_success, p_length = welch_vs_baseline(
                        final.success_indicators, final.lengths,
                        ref.success_indicators, ref.lengths,
                    )
                row[f"p_success_vs_{label}"] = p_success
                row[f"p_length_vs_{label}"] = p_length
            rows.append(row)
        return rows


def run_ablation(config: RunConfig, names: Sequence[str]) -> AblationResult:
    """Rerun the experiment per ablated feature/group, plus full and static arms.

    Every arm shares the first arm's corpus, split and density index.
    """
    for name in names:
        resolve_mask([name])  # fail fast on unknown names

    def variant(**exp_overrides) -> RunConfig:
        experiment = dataclasses.replace(config.experiment, **exp_overrides)
        return dataclasses.replace(config, experiment=experiment)

    full = Experiment(variant(policy_kind="learned", ablate=()))
    shared = (full.corpus, full.split, full.density)
    result = AblationResult()
    result.conditions["full"] = full.run()
    result.conditions["static"] = Experiment(
        variant(policy_kind="static", ablate=()), *shared
    ).run()
    for name in names:
        result.conditions[name] = Experiment(
            variant(policy_kind="learned", ablate=(name,)), *shared
        ).run()
    return result
