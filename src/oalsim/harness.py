"""Three-phase experiment protocol, batch execution, metrics, and checkpoints.

Protocol: an initialization phase runs the static policy on the policy-train
side while REINFORCE updates bootstrap the weights from its trajectories; a
training phase resets the agent's classifiers/stats and lets the learned
policy act and update; a testing phase freezes the weights, resets the agent
again, and runs on the policy-test side (classifiers still learn from queried
labels there, the policy does not).

All randomness is derived from the master seed by (phase, batch, episode,
purpose) paths, so interaction sequences are identical across policy and
ablation conditions, and resuming from a checkpoint is bit-exact. A batch
derives the seed words of its interactions in one call and those of its
dialogs' oracle, beam and policy streams in another (seeding.episode_words);
each dialog builds its generators from its own words when it starts.

A batch featurizes only what something reads: whole beams where the
learned policy samples or REINFORCE updates, the actions a dialog played, in
one call, where only a transcript is written, nothing otherwise
(FeatureReads). Where no beam is read, a static turn draws only the action it
plays, kind first (querygen.static_action), leaving every generator as a
whole beam does. The dialog (dialog.Episode) is the oracle and the state
machine only. Where a policy update or a transcript reads them, run_episode
keeps one record per turn: the action, the feature array holding its row,
the row's index in it and the probabilities. run_batch writes each dialog's
transcript lines, in one write, and the REINFORCE terms from those records
between dialogs, with the per-turn rewards and returns derived from the
dialog's success and length (dialog.rewards_and_returns).

A region is its corpus row (corpus.Corpus); checkpoints and transcripts hold ids.

The agent (Agent) is the classifiers, by predicate, and the usage stats,
frozen during a batch. A checkpoint's labels section, each classifier's
labeled region ids, is written by Agent.to_dict and read by Agent.from_dict,
which signs each label by the oracle's rule (dialog.closed_world_label).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Sequence

import numpy as np

from .actions import describe
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
from .dialog import Episode, RewardConfig, closed_world_label, rewards_and_returns
from .errors import CheckpointError, ConfigError, ContractError, check_real
from .features import (
    FeatureContext,
    N_FEATURES,
    featurize,
    guess_features,
    query_rows,
    resolve_mask,
    row_set_queries,
)
from .grounding import DescriptionStack, batch_stacks, score_objects, view_stack
from .perception import (
    DensityIndex,
    PredicateModel,
    estimate_f1,
    fit_models,
    train_classifier,
)
from .policy import (
    AgentStats,
    action_probabilities,
    grad_log_prob,
    learning_rate_at,
    reinforce_update,
    running_mean,
    sample_action,
)
from .querygen import build_beam, static_action, static_policy_act
from .seeding import episode_words, generator
from .snapshot import BatchRows, EpisodeView, RowSet
from .stats import one_sample_t_test, one_sided_p_greater, welch_t_test

CHECKPOINT_VERSION = "oalsim-checkpoint/5"

PHASE_NAMES = ("init", "train", "test")

DIALOG_STREAMS = ("oracle", "beam", "policy")  # a dialog's seed streams, by purpose

RATES = ("success_rate", "mean_length", "mean_queries")  # BatchMetrics' rates, in file order


@dataclass
class Agent:
    models: dict[str, PredicateModel] = field(default_factory=dict)
    stats: AgentStats = field(default_factory=AgentStats)

    def reset(self) -> None:
        """Drop all classifiers and stats (phase boundary)."""
        self.models = {}
        self.stats = AgentStats()

    def to_dict(self, ids: Sequence[str]) -> dict[str, list[str]]:
        """Each model's labeled region ids, in insertion order."""
        return {p: [ids[row] for row in m.labels] for p, m in sorted(self.models.items())}

    @classmethod
    def from_dict(cls, data: dict, corpus: Corpus, regions: Collection[int]) -> "Agent":
        """The labels to_dict wrote, signed as the oracle answers, with no classifier fit or stats.

        A label names a region row of `regions`, the rows its dialogs could
        label, and a predicate lists a region once.
        """
        try:
            models = {}
            for p, rids in data.items():
                if not isinstance(rids, list):
                    raise CheckpointError(f"labels of {p!r} must be a list of region ids")
                unknown = [rid for rid in rids if rid not in corpus.row]
                if unknown:
                    raise CheckpointError(
                        f"labels of {p!r}: region {unknown[0]!r}, not in the corpus"
                    )
                if len(set(rids)) < len(rids):
                    raise CheckpointError(f"labels of {p!r} list a region twice")
                rows = [corpus.row[rid] for rid in rids]
                outside = [rid for rid, row in zip(rids, rows) if row not in regions]
                if outside:
                    raise CheckpointError(
                        f"labels of {p!r}: region {outside[0]!r}, offered by no dialog of the phase"
                    )
                models[p] = PredicateModel(
                    predicate=p,
                    labels={row: closed_world_label(corpus.annotations, p, row) for row in rows},
                )
            return cls(models=models)
        except (TypeError, AttributeError) as exc:
            raise CheckpointError(f"malformed checkpoint labels: {exc}") from exc


@dataclass
class BatchMetrics:
    """One batch's per-dialog outcomes and new-label counts; the rates are read off them.

    ValueError, naming the field, unless it holds values of the kinds a run writes.
    """

    phase: str
    batch: int
    label_counts: dict[str, int]
    success_indicators: list[int]
    lengths: list[int]

    def __post_init__(self):
        def ints(values, low):  # a bool is not an int here
            return isinstance(values, list) and all(type(v) is int and v >= low for v in values)

        def checks():  # in field order; each is tested once those before it hold
            counts, dialogs = self.label_counts, self.success_indicators
            yield "phase", type(self.phase) is str, "a string"
            yield "batch", type(self.batch) is int, "an integer"
            yield ("label_counts", isinstance(counts, dict) and all(type(p) is str for p in counts)
                   and ints(list(counts.values()), 0), "a dict of integers >= 0 by predicate")
            yield ("success_indicators", ints(dialogs, 0) and 0 < len(dialogs) and max(dialogs) < 2,
                   "a non-empty list of integers 0 or 1")
            yield ("lengths", ints(self.lengths, 1) and len(self.lengths) == len(dialogs),
                   "a list of integers >= 1, one per success indicator")

        for name, ok, kind in checks():
            if not ok:
                raise ValueError(f"{name} must be {kind}, got {getattr(self, name)!r}")

    @property
    def success_rate(self) -> float:
        return sum(self.success_indicators) / len(self.success_indicators)

    @property
    def mean_length(self) -> float:
        return sum(self.lengths) / len(self.lengths)

    @property
    def mean_queries(self) -> float:
        # every dialog ends in one guess
        return sum(n - 1 for n in self.lengths) / len(self.lengths)

    def rates(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in RATES}

    def row(self) -> list:
        return [self.phase, self.batch, *map(repr, self.rates().values())]


def batch_records(metrics: Sequence[BatchMetrics]) -> list[dict]:
    """The on-disk form of finished batches: a checkpoint's `metrics`, summary.json's `batches`."""
    return [dict(vars(m)) for m in metrics]


def read_batch_records(rows) -> list[BatchMetrics]:
    """The BatchMetrics of batch_records' rows; TypeError or ValueError on any other value."""
    if not isinstance(rows, list):
        raise TypeError(f"batch records must be a list, got {type(rows).__name__}")
    return [BatchMetrics(**row) for row in rows]


def start_returns(rewards: RewardConfig, batch: BatchMetrics) -> list[float]:
    """The G_0 of each of the batch's dialogs, in order."""
    outcomes = zip(batch.success_indicators, batch.lengths)
    return [rewards_and_returns(rewards, s, n)[1][0] for s, n in outcomes]


@dataclass
class EpisodeOutcome:
    """A finished dialog, reduced to what its batch end reads.

    In a phase that updates the policy, `steps` holds one (score-function
    term, G_t) pair per turn: grad_log_prob at the batch's theta, and the
    discounted return from that turn. In other phases it is empty. No beam
    outlives its dialog: run_batch computes the terms right after the dialog.
    """

    interaction: Interaction
    success: bool
    length: int
    steps: list[tuple[np.ndarray, float]] = field(default_factory=list)

    @property
    def n_queries(self) -> int:
        return self.length - 1  # every turn but the closing guess


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


@dataclass(frozen=True)
class FeatureReads:
    """What reads a batch's turn features, derived from its phase plan and transcript sink.

    `beam`: every beam row is read, because the learned policy samples from
    them or a policy update reads them after the dialog. `transcript`: the
    transcript writer reads each turn's chosen row. A turn featurizes its
    whole beam; else, when just the transcript reads it, its dialog
    featurizes the played actions together; else nothing is featurized. A
    batch that reads no features builds no feature table.
    """

    beam: bool
    transcript: bool

    @classmethod
    def of(cls, plan: PhasePlan, transcripts: bool) -> FeatureReads:
        return cls(plan.policy_kind == "learned" or plan.update_policy, transcripts)

    @property
    def any(self) -> bool:
        return self.beam or self.transcript


@dataclass
class EpisodeSetup:
    """One episode's own view, grounded guess (a region row) and what reads its features.

    `features` is the episode's feature context, None when nothing reads
    features (`reads.any` is false).
    """

    interaction: Interaction
    view: EpisodeView
    features: FeatureContext | None
    guess: int
    reads: FeatureReads


def ground(stack: DescriptionStack, features: bool = True) -> tuple[list[int], np.ndarray | None]:
    """The region row each stacked dialog guesses, and its guess-feature row if `features`."""
    scores = score_objects(stack)
    return scores.argmax, guess_features(stack, scores) if features else None


def _featurize_played(played: list[tuple], ctx: FeatureContext | None, turns: list) -> None:
    """Featurize the played (action, turn) pairs in one call, record their turns, clear them.

    Each record is (action, the shared array, its row, None): the rows equal
    those of featurizing each action at its own turn, as long as nothing the
    context reads has changed since the action was played.
    """
    if played:
        actions, at = zip(*played)
        features = featurize(actions, np.array(at), ctx)
        turns.extend((action, features, i, None) for i, action in enumerate(actions))
        played.clear()


class BatchSetup:
    """Every episode set-up of one batch, computed once from the batch's classifiers.

    First comes the run's one batch-level fit, of the agent's unfit two-class
    models (new labels at the last batch end, or a resumed checkpoint) in one
    fit_models call. Then the classifier rows over the batch's objects
    (snapshot.BatchRows) and every dialog's grounding are built. When
    something reads the batch's features (`reads.any`), so are the query rows
    of the feature table (features.query_rows; the agent's stats are frozen
    until the batch end) and every dialog's guess features; otherwise
    `queries` and `guess_rows` are None. `episode(e)` builds episode e's
    view, and its feature context if features are read, when its dialog
    starts, so a batch holds no view of a dialog that has not started. The
    views of one size share a RowSet and its table rows, built at the first
    of them; sizes only grow, so the batch keeps the current row set only.
    """

    def __init__(
        self,
        experiment: Experiment,
        agent: Agent,
        interactions: Sequence[Interaction],
        reads: FeatureReads,
    ):
        cfg, X = experiment.config, experiment.corpus.X
        unfit = [m for _, m in sorted(agent.models.items()) if m.weights is None and m.trainable()]
        fit_models(unfit, X, cfg.classifier)
        self.rows = rows = BatchRows(
            agent.models, agent.stats.used, interactions, X, cfg.triangular
        )
        self.reads = reads
        self.queries = self.guess_rows = None
        if reads.any:
            self.queries = query_rows(rows.predicates, rows.f1, rows.trained, agent.stats)
            self.guess_rows = np.empty((len(interactions), N_FEATURES))
        self.guesses = np.empty(len(interactions), dtype=np.intp)
        for episodes, stack in batch_stacks(rows):
            self.guesses[episodes], guess_rows = ground(stack, reads.any)
            if reads.any:
                self.guess_rows[episodes] = guess_rows
        self._row_set = (-1, None, None)  # the current row set's size, RowSet and table rows
        self.experiment = experiment

    def episode(self, e: int) -> EpisodeSetup:
        rows, exp = self.rows, self.experiment
        size, shared, table = self._row_set
        if size != rows.sizes[e]:  # row sets only grow along a batch: keep the current one only
            shared = RowSet(rows, e)
            table = row_set_queries(self.queries, shared.rows) if self.reads.any else None
            self._row_set = rows.sizes[e], shared, table
        interaction, view = rows.interactions[e], EpisodeView(rows, e, shared)
        ctx = FeatureContext(
            t_max=exp.config.episode.t_max,
            description_predicates=interaction.description_predicates,
            view=view,
            density=exp.density,
            guess=self.guess_rows[e],
            shared_table=table,
            mask=exp.mask,
        ) if self.reads.any else None
        return EpisodeSetup(interaction, view, ctx, int(self.guesses[e]), self.reads)


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
        """Build what is not given: the corpus, its split and the density index.

        The index serves the split's classifier-train rows of both sides, the
        only rows whose density a label query reads. A given index is shared
        (run_ablation shares one across arms) and must serve every one of
        them: a ContractError names the first it lacks.
        """
        self.config = config
        self.corpus = corpus if corpus is not None else build_corpus(config)
        self.split = split if split is not None else make_splits(self.corpus, config.split)
        served = self.split.policy_train[0] + self.split.policy_test[0]
        if density is None:
            rows = self.corpus.file_rows  # the distance sums run in file order
            density = DensityIndex(self.corpus.X[rows], rows, served, k=config.classifier.knn_k)
        elif missing := density.unserved(served):
            raise ContractError(
                f"the density index does not serve classifier-train row {missing[0]} of the split"
            )
        self.density = density
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

    def interactions(self, plan: PhasePlan, phase_idx: int, batch_idx: int) -> list[Interaction]:
        """The batch's interactions, one per dialog, each drawn from its own seed stream."""
        ep = self.config.episode
        words = episode_words(self.master, ("interaction",), phase_idx, batch_idx,
                              self.config.experiment.batch_size)
        return [
            sample_interaction(self.corpus, self.split, plan.side, ep.active_train_size,
                               ep.active_test_size, generator(w))
            for w in words[:, 0]
        ]

    # -- episode ------------------------------------------------------------

    def run_episode(
        self,
        setup: EpisodeSetup,
        agent: Agent,
        theta: np.ndarray,
        plan: PhasePlan,
        words: np.ndarray,
    ) -> tuple[EpisodeOutcome, Episode, list[tuple]]:
        """Play one dialog; `words` seeds its oracle, beam and policy streams (DIALOG_STREAMS).

        A turn featurizes what `setup.reads` names: its whole beam, for the
        learned policy or a policy update; else nothing. Where nothing reads
        the beam (a static phase with no update), a turn draws only the
        action the static policy picks (querygen.static_action), not the
        beam, and for a transcript records the action and its turn: the
        dialog's played actions are featurized in one call when it ends, or
        earlier, before an immediate update changes the view's model.
        Returns the outcome, the episode and, where a policy update or a
        transcript reads them, one (action, features, chosen, probabilities)
        record per turn: the beam's array or the played actions' shared one,
        the action's row in it, and the probabilities the learned policy
        sampled from, None where the static policy chose.
        Otherwise it returns no turns.
        """
        cfg = self.config
        interaction, view, ctx, reads = setup.interaction, setup.view, setup.features, setup.reads
        desc = interaction.description_predicates

        oracle_rng, beam_rng, policy_rng = map(generator, words)
        immediate = cfg.episode.immediate_updates
        keep = plan.update_policy or reads.transcript
        turns = []
        played = []  # (action, turn) of static turns whose features only the transcript reads

        episode = Episode(
            interaction=interaction,
            annotations=self.corpus.annotations,
            view=view,
            t_max=cfg.episode.t_max,
            oracle_rng=oracle_rng,
            guess=setup.guess,
        )

        while not episode.terminated:
            if reads.beam:
                beam = build_beam(
                    turn=episode.turn,
                    t_max=cfg.episode.t_max,
                    view=view,
                    labeled=episode.known,
                    asked=episode.asked,
                    cfg=cfg.beam,
                    rng=beam_rng,
                )
                features = featurize(beam, episode.turn, ctx)
                probs = None
                if plan.policy_kind == "static":
                    chosen = static_policy_act(
                        episode.turn, beam, cfg.policy.static_n_queries, policy_rng
                    )
                else:
                    probs = action_probabilities(theta, features)
                    chosen = sample_action(probs, policy_rng)
                action = beam[chosen]
                if keep:
                    turns.append((action, features, chosen, probs))
            else:  # a static phase with no update: nothing reads the beam
                action = static_action(
                    episode.turn, cfg.episode.t_max, view, episode.known, episode.asked,
                    cfg.beam, cfg.policy.static_n_queries, beam_rng, policy_rng,
                )
                if reads.transcript:
                    played.append((action, episode.turn))
            n_before = len(episode.pending_labels)
            episode.step(action)
            if immediate and len(episode.pending_labels) > n_before:
                # the labels recorded below change the view's model, which the played turns read
                _featurize_played(played, ctx, turns)
                row = action[1]  # a query's labels are all of its view row's predicate
                if self._refresh_models(view, row, episode.pending_labels[n_before:], agent):
                    if ctx is not None:
                        ctx.refit(row)
                    if view.predicates[row] in desc:  # grounding reads description rows only
                        (episode.guess,), guess = ground(view_stack(desc, view), ctx is not None)
                        if ctx is not None:
                            ctx.set_guess(guess[0])

        _featurize_played(played, ctx, turns)
        outcome = EpisodeOutcome(interaction, episode.success, episode.length())
        return outcome, episode, turns

    def _refresh_models(
        self,
        view: EpisodeView,
        row: int,
        new_labels: Sequence[tuple[str, int, int]],
        agent: Agent,
    ) -> bool:
        """Immediate-update variant: retrain the classifier of one view row mid-episode.

        The agent's own models stay untouched until the batch end; the episode
        records the predicate's new labels on its view's copy of the model. If
        they hold both classes, the copy is fit alone, its F1 re-estimated and
        its view row rewritten; one class leaves it unfit. Returns whether it fit.
        """
        predicate, model = view.predicates[row], view.models[row]
        if model is None:
            view.models[row] = model = PredicateModel(predicate=predicate)
        elif model is agent.models.get(predicate):
            view.models[row] = model = model.clone()
        for _, region, label in new_labels:
            model.record_label(region, label)
        if not model.trainable():
            return False
        train_classifier(model, self.corpus.X, self.config.classifier)
        model.f1 = estimate_f1(model, self.corpus.X, self.config.classifier)
        view.update(row, model)
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
    ) -> tuple[BatchMetrics, dict[tuple[str, int], int], list[EpisodeOutcome]]:
        """Play one batch of dialogs against the agent's frozen classifiers and theta.

        What the batch's turns featurize follows from the plan and whether
        there is a sink (FeatureReads.of). Each finished dialog's turn records
        (run_episode) are written to the transcript sink, if any, and the
        dialog is reduced to its EpisodeOutcome: with `plan.update_policy`,
        its (grad_log_prob, G_t) steps at `theta`, computed here between
        dialogs, so that no beam array outlives its dialog and none of this
        work is inside run_episode. Returns the batch's metrics, its new
        labels merged by (predicate, region row), and the outcomes.
        """
        cfg = self.config
        outcomes: list[EpisodeOutcome] = []
        merged: dict[tuple[str, int], int] = {}  # (predicate, region row) -> label
        interactions = self.interactions(plan, phase_idx, batch_idx)
        setups = BatchSetup(
            self, agent, interactions, FeatureReads.of(plan, transcript_sink is not None)
        )
        words = episode_words(self.master, DIALOG_STREAMS, phase_idx, batch_idx, len(interactions))
        for ep_idx in range(len(interactions)):
            setup = setups.episode(ep_idx)
            outcome, episode, turns = self.run_episode(setup, agent, theta, plan, words[ep_idx])
            # Episode drops labels the agent held at the batch start, and the
            # agent's models do not change within a batch.
            for p, region, label in episode.pending_labels:
                merged[(p, region)] = label
            if turns:
                rewards, returns = rewards_and_returns(
                    cfg.rewards, outcome.success, outcome.length
                )
            if transcript_sink is not None:
                episode_id = f"{plan.name}/{batch_idx}/{ep_idx}"
                transcript_sink.write("".join(
                    transcript_line({
                        "episode": episode_id,
                        "turn": t,
                        "action": describe(action, episode.view, self.corpus.ids),
                        "reward": reward,
                        "features": features[chosen].tolist(),
                    })
                    for t, ((action, features, chosen, _), reward) in enumerate(
                        zip(turns, rewards, strict=True)
                    )
                ))
            if plan.update_policy:
                outcome.steps = [
                    (grad_log_prob(theta, features, chosen, probs), g)
                    for (_, features, chosen, probs), g in zip(turns, returns, strict=True)
                ]
            outcomes.append(outcome)

        label_counts: dict[str, int] = {}
        for (p, _region) in merged:
            label_counts[p] = label_counts.get(p, 0) + 1
        metrics = BatchMetrics(
            phase=plan.name,
            batch=batch_idx,
            label_counts=label_counts,
            success_indicators=[1 if o.success else 0 for o in outcomes],
            lengths=[o.length for o in outcomes],
        )
        return metrics, merged, outcomes

    def apply_batch_end(
        self,
        agent: Agent,
        merged: dict[tuple[str, int], int],
        outcomes: list[EpisodeOutcome],
    ) -> None:
        """Record the queued labels, which drop their classifiers' fits, and the dialog stats."""
        for (p, region), label in merged.items():
            agent.models.setdefault(p, PredicateModel(predicate=p)).record_label(region, label)
        for o in outcomes:
            agent.stats.observe_dialog(o.interaction.description_predicates, o.success)

    # -- full run ---------------------------------------------------------------

    def run(
        self,
        resume: dict | None = None,
        checkpoint_dir=None,
        transcript_path=None,
    ) -> RunResult:
        """Play the phase plan, or its rest from the checkpoint state `resume`.

        A resume derives what the checkpoint does not hold: the cursor, the
        label signs and usage stats (_resume_state), the unfit models' fits,
        at the first BatchSetup, and the update count and baseline, the
        running mean of the update batches' G_0.
        """
        cfg = self.config
        plans = self.phase_plan()
        agent = Agent()
        theta = np.zeros(N_FEATURES)
        metrics: list[BatchMetrics] = []
        start_phase, start_batch = 0, 0

        if resume is not None:
            (start_phase, start_batch), theta, metrics, agent = self._resume_state(resume)
        updated = [m for m in metrics if plans[PHASE_NAMES.index(m.phase)].update_policy]
        updates = len(updated)
        baseline = running_mean(
            0.0, 0, [g for m in updated for g in start_returns(cfg.rewards, m)]
        )

        sink = None
        if transcript_path:
            kept = _transcript_kept_bytes(transcript_path, metrics)
            if kept:
                os.truncate(transcript_path, kept)
            sink = open(transcript_path, "a" if kept else "w", encoding="utf-8")
        try:
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
                        baseline = running_mean(
                            baseline,
                            updates * cfg.experiment.batch_size,
                            start_returns(cfg.rewards, batch_metrics),
                        )
                        theta = reinforce_update(
                            theta,
                            [o.steps for o in outcomes],
                            learning_rate_at(cfg.policy, updates),
                            baseline if cfg.policy.use_baseline else 0.0,
                            cfg.rewards.discount,
                        )
                        updates += 1
                    # free this batch's outcomes before the next batch plays its own
                    del merged, outcomes
                    metrics.append(batch_metrics)
                    if checkpoint_dir is not None:
                        if sink is not None:  # a checkpoint's batches are in the transcript
                            sink.flush()
                        checkpoint_save(
                            Path(checkpoint_dir)
                            / f"checkpoint_p{phase_idx}_b{batch_idx}.json",
                            self._checkpoint_state(agent, theta, metrics),
                        )
        finally:
            if sink is not None:
                sink.close()

        return RunResult(
            config=cfg,
            corpus_fingerprint=self.corpus.fingerprint,
            metrics=metrics,
            theta=theta,
        )

    # -- checkpoints --------------------------------------------------------------

    def _checkpoint_state(
        self, agent: Agent, theta: np.ndarray, metrics: list[BatchMetrics]
    ) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "config_digest": self.config.digest(),
            "corpus_fingerprint": self.corpus.fingerprint,
            "theta": [float(v) for v in theta],
            "labels": agent.to_dict(self.corpus.ids),
            "metrics": batch_records(metrics),
        }

    def _resume_state(self, state: dict) -> tuple[tuple, np.ndarray, list, Agent]:
        """The cursor, theta, metrics rows and agent that checkpoint `state` resumes.

        It must come from this version, config and corpus. The metrics rows
        must be BatchMetrics of the plan's first n batches, batch_size dialogs
        each; the cursor is the batch after them, or the plan's end, (3, 0).
        Theta must be N_FEATURES finite numbers. The labels must be those of
        the last finished batch's phase: as many per predicate as its rows
        count, each on an active-train region of one of its dialogs, whose
        interactions are drawn again (Agent.from_dict signs them). Anything
        else, a missing key included, is a CheckpointError. At a cursor inside
        that phase, the agent's usage stats replay its dialogs' observe_dialog
        calls, with the rows' success indicators.
        """
        if state.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {state.get('version')!r} != {CHECKPOINT_VERSION!r}"
            )
        if state.get("config_digest") != self.config.digest():
            raise CheckpointError("checkpoint was written under a different config")
        if state.get("corpus_fingerprint") != self.corpus.fingerprint:
            raise CheckpointError("checkpoint was written for a different corpus")
        plans = self.phase_plan()
        cursors = [(p, b) for p, plan in enumerate(plans) for b in range(plan.n_batches)]
        cursors.append((len(plans), 0))
        try:
            metrics = read_batch_records(state.get("metrics"))
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint metrics: {exc}") from exc
        size = self.config.experiment.batch_size
        done = cursors[: len(metrics)]
        rows = [(m.phase, m.batch, len(m.lengths)) for m in metrics]
        if len(metrics) >= len(cursors) or rows != [(plans[p].name, b, size) for p, b in done]:
            raise CheckpointError(f"checkpoint metrics are not the phase plan's first "
                                  f"{len(metrics)} batches of {size} dialogs")
        theta = state.get("theta")
        if not (isinstance(theta, list) and len(theta) == N_FEATURES):
            raise CheckpointError(f"checkpoint theta must hold {N_FEATURES} numbers")
        try:
            for v in theta:
                check_real("checkpoint theta", v)
        except ConfigError as exc:
            raise CheckpointError(str(exc)) from None
        phase_rows, dialogs, counts = [], [], {}  # the last finished batch's phase
        if done:
            phase, last = done[-1]
            phase_rows = metrics[len(metrics) - 1 - last :]
            dialogs = [self.interactions(plans[phase], phase, m.batch) for m in phase_rows]
        for m in phase_rows:
            for p, n in m.label_counts.items():
                counts[p] = counts.get(p, 0) + n
        regions = {row for batch in dialogs for i in batch for row in i.active_train}
        agent = Agent.from_dict(state.get("labels"), self.corpus, regions)
        for p in sorted(agent.models.keys() | counts.keys()):
            held = len(agent.models[p].labels) if p in agent.models else 0
            if held != counts.get(p, 0):
                raise CheckpointError(f"labels of {p!r}: {held} regions, but the metrics rows "
                                      f"of their phase count {counts.get(p, 0)} new labels")
        cursor = cursors[len(metrics)]
        if cursor[1] > 0:  # inside the phase: the agent keeps its dialogs' usage stats
            for batch, m in zip(dialogs, phase_rows):
                for interaction, success in zip(batch, m.success_indicators):
                    agent.stats.observe_dialog(interaction.description_predicates, success)
        return cursor, np.asarray(theta, dtype=np.float64), metrics, agent


def checkpoint_save(path, state: dict) -> None:
    """Write the checkpoint whole or not at all: a temporary file, then a rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(state))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_LINE_ENCODER = json.JSONEncoder()  # json.dumps' own settings


def transcript_line(record: dict) -> str:
    """One transcript line: the bytes of json.dumps(record), then a newline."""
    return _LINE_ENCODER.encode(record) + "\n"


def _transcript_kept_bytes(path, metrics: Sequence[BatchMetrics]) -> int:
    """Length of the records an earlier run wrote for the finished batches, `metrics`.

    A resumed run keeps those records and drops the rest (a batch the
    interrupted run left partial); a fresh run keeps none, and so does a
    resume that finds no file. The kept lines must be every turn of every
    dialog of those batches, in play order, as the metrics rows count them:
    a line among them that is no transcript record, or a record missing
    where one is due, an empty file included, is a CheckpointError.
    """
    if not metrics or not Path(path).exists():
        return 0
    due = (
        (f"{m.phase}/{m.batch}/{e}", turn)
        for m in metrics
        for e, length in enumerate(m.lengths)
        for turn in range(length)
    )
    kept = 0
    with open(path, "rb") as fh:
        for number, (episode, turn) in enumerate(due, 1):
            line = fh.readline()
            missing = f"{path} has no record of turn {turn} of episode {episode!r}"
            if not line.endswith(b"\n"):
                raise CheckpointError(f"{missing}: line {number} is absent or cut short")
            try:
                record = json.loads(line)
                phase, _, _ = record["episode"].split("/")
                PHASE_NAMES.index(phase)  # a ValueError unless a run's phase
                held = record["episode"], record["turn"]
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise CheckpointError(f"{path} line {number} is no transcript record: {exc!r}")
            if held != (episode, turn):
                raise CheckpointError(f"{missing}: line {number} holds turn {held[1]!r} "
                                      f"of episode {held[0]!r}")
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

CSV_HEADER = ["phase", "batch", *RATES]


def write_metrics_csv(path, metrics: Sequence[BatchMetrics]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for m in metrics:
            writer.writerow(m.row())


def write_summary(path, result: RunResult) -> None:
    """summary.json: the config, the corpus fingerprint and every batch's record, in order."""
    summary = {
        "config": result.config.to_dict(),
        "corpus_fingerprint": result.corpus_fingerprint,
        "batches": batch_records(result.metrics),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)


# -- comparison against a baseline, ablation ---------------------------------------


def compare_final_batches(
    final: BatchMetrics, base: BatchMetrics, rewards: RewardConfig | None = None
) -> dict:
    """Compare two final test batches on their success indicators and lengths.

    Returns the two-sided Welch p on each, `p_success` and `p_length`. Given
    `rewards`, the batches played the same dialogs, and it adds the mean gain
    in a dialog's G_0, `return_gain`, and the one-sided paired p of a gain,
    `p_return`, and of lower success, `p_success_lower`; batches of unequal
    sizes are a ValueError there. A p is None under 2 dialogs; constant
    samples whose means differ take t = +-inf, as scipy does.
    A batch compared with itself (the same object) gets None for every value.
    """
    success, base_success = final.success_indicators, base.success_indicators
    enough = min(len(success), len(base_success)) >= 2

    def welch(a, b):
        return welch_t_test(a, b).p_two_sided if enough else None

    def greater(diffs):
        return one_sided_p_greater(one_sample_t_test(diffs, 0.0)) if enough else None

    out = {
        "p_success": welch(success, base_success),
        "p_length": welch(final.lengths, base.lengths),
    }
    if rewards is not None:
        if len(success) != len(base_success):
            raise ValueError(
                f"paired statistics need equal batches, got {len(success)} and {len(base_success)}"
            )
        gains = [a - b for a, b in zip(start_returns(rewards, final), start_returns(rewards, base))]
        out["return_gain"] = sum(gains) / len(gains)
        out["p_return"] = greater(gains)
        out["p_success_lower"] = greater([b - a for a, b in zip(success, base_success)])
    return dict.fromkeys(out) if final is base else out


@dataclass
class AblationResult:
    conditions: dict[str, RunResult] = field(default_factory=dict)

    def comparison_rows(self) -> list[dict]:
        """Final-test-batch metrics per condition, compared pair by pair with static and full."""
        rewards = self.conditions["full"].config.rewards
        rows = []
        for name, result in self.conditions.items():
            final = result.final_test_batch()
            row = {
                "condition": name,
                "success_rate": final.success_rate,
                "mean_length": final.mean_length,
            }
            for label in ("static", "full"):
                ref = self.conditions[label].final_test_batch()
                cmp = compare_final_batches(final, ref, rewards)
                row.update({f"{key}_vs_{label}": v for key, v in cmp.items()})
            rows.append(row)
        return rows


def run_ablation(config: RunConfig, names: Sequence[str]) -> AblationResult:
    """Rerun the experiment per ablated feature/group, plus full and static arms.

    Every arm shares the first arm's corpus, split and density index.
    """

    def variant(**exp_overrides) -> RunConfig:
        experiment = dataclasses.replace(config.experiment, **exp_overrides)
        return dataclasses.replace(config, experiment=experiment)

    # every arm's config before any arm plays: an unknown name is a ConfigError at once
    full = variant(policy_kind="learned", ablate=())
    arms = {
        "static": variant(policy_kind="static", ablate=()),
        **{name: variant(policy_kind="learned", ablate=(name,)) for name in names},
    }
    experiment = Experiment(full)
    shared = (experiment.corpus, experiment.split, experiment.density)
    result = AblationResult()
    result.conditions["full"] = experiment.run()
    for name, arm in arms.items():
        result.conditions[name] = Experiment(arm, *shared).run()
    return result
