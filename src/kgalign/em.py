"""Alternating optimization tying the rule engine to the embedder.

Each round has two phases.  The expectation phase holds the rule tables
fixed, runs L propagation sweeps from the current truth scores, splits
the result at the threshold into positives and a hard-negative pool,
and fits the embedder to observed plus inferred positives.  The
maximization phase holds the embedder fixed, turns its scores into a
one-to-one pseudo-label set, and re-estimates the subrelation
probabilities from observed plus pseudo labels.

A symbolic-only mode replaces the embedder with greedy matching over
the engine's own positives, which reduces the loop to the classic
probabilistic-alignment baseline.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import embedder as emb
from .embedder import Hyperparams, NeuralModel, Origin, PseudoLabelSet
from .graph import AlignmentSeed, KnowledgeGraphPair
from .symbolic import (
    FunctionalityTable,
    SubrelationTable,
    ThresholdSplit,
    TruthScoreTable,
    compute_functionalities,
    extract_positive_pairs,
    retain_best,
    run_symbolic_inference,
    update_subrelation_probs,
)

logger = logging.getLogger(__name__)


@dataclass
class EmConfig:
    delta: float = 0.9
    iterations: int = 5
    rule_length: int = 2
    retention_rho: float = 1.0
    seed: int = 0
    # Pinned to 1 by validate(); kept only for callers that still pass it.
    workers: int = 1
    symbolic_only: bool = False
    neural: Hyperparams = field(default_factory=Hyperparams)
    hidden_weight: float = 1.0
    top_c: int = 50
    pseudo_budget: int | None = None
    confidence_floor: float = 0.5
    rank_depth: int = 10

    def validate(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.rule_length < 1:
            raise ValueError(f"rule length must be >= 1, got {self.rule_length}")
        if not 0.0 < self.retention_rho <= 1.0:
            raise ValueError(f"retention factor must be in (0, 1], got {self.retention_rho}")
        if self.top_c < 1:
            raise ValueError(f"top_c must be >= 1, got {self.top_c}")
        if self.hidden_weight < 0.0:
            raise ValueError(f"hidden_weight must be >= 0, got {self.hidden_weight}")
        if not 0.0 <= self.confidence_floor < 1.0:
            raise ValueError(f"confidence_floor must be in [0, 1), got {self.confidence_floor}")
        if self.rank_depth < 1:
            raise ValueError(f"rank_depth must be >= 1, got {self.rank_depth}")
        if self.pseudo_budget is not None and self.pseudo_budget < 0:
            raise ValueError(f"pseudo_budget must be >= 0, got {self.pseudo_budget}")
        if self.workers != 1:
            raise ValueError(f"sweeps run in one process; workers must be 1, got {self.workers}")
        self.neural.validate()


@dataclass
class IterationStats:
    iteration: int
    inferred_pairs: int
    neural_loss: float | None
    validation_precision: float | None


@dataclass
class EmState:
    pair: KnowledgeGraphPair
    train: AlignmentSeed
    validation: AlignmentSeed | None
    eta_source: FunctionalityTable
    eta_target: FunctionalityTable
    truth_scores: TruthScoreTable
    psub: SubrelationTable
    model: NeuralModel | None
    iteration: int = 0
    history: list[IterationStats] = field(default_factory=list)
    last_split: ThresholdSplit | None = None
    last_loss: float | None = None


def init_state(
    pair: KnowledgeGraphPair,
    train: AlignmentSeed,
    config: EmConfig,
    validation: AlignmentSeed | None = None,
) -> EmState:
    """Pin the seeds, bootstrap subrelations from them, set up the model.

    The seeds are the only labels available before the first round, so
    the initial subrelation table comes from re-estimation against the
    seed-only truth table.
    """
    config.validate()
    truth = TruthScoreTable.from_seeds(train.pairs)
    psub = update_subrelation_probs(pair, truth)
    model = None
    if not config.symbolic_only:
        model = emb.init_model(pair, config.neural, config.seed)
    return EmState(
        pair=pair,
        train=train,
        validation=validation,
        eta_source=compute_functionalities(pair.source),
        eta_target=compute_functionalities(pair.target),
        truth_scores=truth,
        psub=psub,
        model=model,
    )


def e_step(state: EmState, config: EmConfig) -> EmState:
    """Symbolic inference plus embedder fitting; rule tables untouched."""
    config.validate()
    table = run_symbolic_inference(
        state.pair,
        state.eta_source,
        state.eta_target,
        state.psub,
        seeds=state.truth_scores,
        sweeps=config.rule_length,
        rho=config.retention_rho,
    )
    # Labels come from the retained table: lazy inference only ever
    # commits each entity's best-scoring counterparts, so entries pruned
    # by the storage bound must not become pseudo-labels either.
    state.truth_scores = retain_best(table, config.retention_rho)
    split = extract_positive_pairs(state.truth_scores, config.delta)
    state.last_split = split

    if state.model is not None:
        observed = PseudoLabelSet(
            pairs=tuple((s, t, 1.0) for s, t in state.train.pairs),
            origin=Origin.OBSERVED,
        )
        inferred = PseudoLabelSet(pairs=split.positives, origin=Origin.SYMBOLIC)
        report = emb.train(
            state.model,
            state.pair,
            [observed, inferred],
            negatives_pool=split.negatives,
            origin_weights={Origin.SYMBOLIC: config.hidden_weight},
        )
        state.last_loss = report.final
    else:
        state.last_loss = None
    return state


def _unlabeled_entities(state: EmState) -> tuple[list[int], list[int]]:
    seen_src = {s for s, _ in state.train.pairs}
    seen_tgt = {t for _, t in state.train.pairs}
    sources = [e for e in range(state.pair.source.n_entities) if e not in seen_src]
    targets = [e for e in range(state.pair.target.n_entities) if e not in seen_tgt]
    return sources, targets


def _top_candidates(
    model: NeuralModel,
    sources: Sequence[int],
    targets: Sequence[int],
    top_c: int,
) -> list[tuple[int, int, float]]:
    """(source, target, cosine) for each source's top-C targets, sources in
    the given order, each source's targets by descending score, ties by
    ascending target id."""
    if not sources or not targets:
        return []
    ids, scores = emb.top_k(model, sources, targets, top_c)
    src = np.repeat(np.asarray(sources, dtype=np.int64), ids.shape[1])
    return list(zip(src.tolist(), ids.ravel().tolist(), scores.ravel().tolist()))


def m_step(state: EmState, config: EmConfig) -> EmState:
    """Pseudo-label with the embedder, re-estimate subrelations."""
    config.validate()
    if state.model is None:
        return _m_step_symbolic(state, config)

    sources, targets = _unlabeled_entities(state)
    target_set = set(targets)
    candidates: dict[tuple[int, int], float] = {}
    src_set = set(sources)
    for s, t, _ in state.truth_scores.nonpinned_items():
        if s in src_set and t in target_set:
            candidates[(s, t)] = emb.score_pair(state.model, s, t)
    for s, t, v in _top_candidates(state.model, sources, targets, config.top_c):
        candidates.setdefault((s, t), v)

    floor = config.confidence_floor
    scored = [
        (s, t, q)
        for (s, t), cos in candidates.items()
        if (q := (cos + 1.0) / 2.0) > floor
    ]
    budget = config.pseudo_budget if config.pseudo_budget is not None else len(sources)
    pseudo = emb.greedy_one_to_one(scored, budget=budget)

    labels = _label_table(state, pseudo)
    state.psub = update_subrelation_probs(state.pair, labels)
    return state


def _m_step_symbolic(state: EmState, config: EmConfig) -> EmState:
    """Rule-weight update without a model: greedy over inferred positives."""
    positives = state.last_split.positives if state.last_split else ()
    sources, _ = _unlabeled_entities(state)
    budget = config.pseudo_budget if config.pseudo_budget is not None else len(sources)
    matched = emb.greedy_one_to_one(positives, budget=budget)
    labels = _label_table(state, matched)
    state.psub = update_subrelation_probs(state.pair, labels)
    return state


def _label_table(state: EmState, pseudo: PseudoLabelSet) -> TruthScoreTable:
    rows: dict[int, dict[int, float]] = {}
    for s, t in state.train.pairs:
        rows.setdefault(s, {})[t] = 1.0
    for s, t, conf in pseudo.pairs:
        rows.setdefault(s, {})[t] = conf
    return TruthScoreTable(rows=rows, pinned=frozenset(state.train.pairs))


def _validation_precision(split: ThresholdSplit, validation: AlignmentSeed | None) -> float | None:
    if validation is None or not validation.pairs:
        return None
    gold = validation.by_source
    judged = [(s, t) for s, t, _ in split.positives if s in gold]
    if not judged:
        return None
    correct = sum(1 for s, t in judged if gold[s] == t)
    return correct / len(judged)


def run_em(
    pair: KnowledgeGraphPair,
    train: AlignmentSeed,
    config: EmConfig,
    validation: AlignmentSeed | None = None,
    callback: Callable[[EmState], None] | None = None,
) -> EmState:
    """Alternate the two phases for the configured number of rounds."""
    state = init_state(pair, train, config, validation=validation)
    for it in range(config.iterations):
        e_step(state, config)
        m_step(state, config)
        state.iteration = it + 1
        split = state.last_split
        stats = IterationStats(
            iteration=state.iteration,
            inferred_pairs=len(split.positives) if split else 0,
            neural_loss=state.last_loss,
            validation_precision=_validation_precision(split, validation) if split else None,
        )
        state.history.append(stats)
        logger.info(
            "iteration %d: %d inferred pairs, loss=%s, val precision=%s",
            stats.iteration,
            stats.inferred_pairs,
            f"{stats.neural_loss:.4f}" if stats.neural_loss is not None else "n/a",
            f"{stats.validation_precision:.4f}" if stats.validation_precision is not None else "n/a",
        )
        if callback is not None:
            callback(state)
    return state


@dataclass(frozen=True)
class FusedPredictions:
    """Joint output: a one-to-one binary set and per-source rankings."""

    binary: tuple[tuple[int, int, float, Origin], ...]
    rankings: dict[int, list[int]]


def fuse_predictions(
    state: EmState,
    config: EmConfig,
    rank_sources: Sequence[int] | None = None,
) -> FusedPredictions:
    """Combine the two components into final predictions.

    Binary set: observed pairs, then greedy one-to-one over symbolic
    positives, then the embedder's matches over whatever entities are
    still free (confidence floor applies).  Ranked lists: each sorted
    rank source's top ``rank_depth`` targets outside the observed set by
    embedder score, ties by ascending target id, all ranked in one
    ``rank_candidates`` call; without a model the truth-score rows are
    ranked instead.  The binary counterpart of a source is promoted to
    the top of its list.
    """
    if state.last_split is None:
        raise RuntimeError("fuse_predictions requires at least one completed round")
    obs_src = {s for s, _ in state.train.pairs}
    obs_tgt = {t for _, t in state.train.pairs}

    binary: list[tuple[int, int, float, Origin]] = [
        (s, t, 1.0, Origin.OBSERVED) for s, t in state.train.pairs
    ]
    free_positives = [
        (s, t, v)
        for s, t, v in state.last_split.positives
        if s not in obs_src and t not in obs_tgt
    ]
    symbolic = emb.greedy_one_to_one(free_positives)
    binary.extend((s, t, v, Origin.SYMBOLIC) for s, t, v in symbolic.pairs)

    used_src = obs_src | {s for s, _, _ in symbolic.pairs}
    used_tgt = obs_tgt | {t for _, t, _ in symbolic.pairs}
    if state.model is not None:
        rem_src = [e for e in range(state.pair.source.n_entities) if e not in used_src]
        rem_tgt = [e for e in range(state.pair.target.n_entities) if e not in used_tgt]
        scored = [
            (s, t, q)
            for s, t, cos in _top_candidates(state.model, rem_src, rem_tgt, config.top_c)
            if (q := (cos + 1.0) / 2.0) > config.confidence_floor
        ]
        neural = emb.greedy_one_to_one(scored, budget=len(rem_src))
        binary.extend((s, t, q, Origin.NEURAL) for s, t, q in neural.pairs)

    binary.sort(key=lambda p: (p[0], p[1]))
    by_source = {s: t for s, t, _, _ in binary}

    if rank_sources is None:
        rank_sources = [e for e in range(state.pair.source.n_entities) if e not in obs_src]
    open_targets = [e for e in range(state.pair.target.n_entities) if e not in obs_tgt]

    sources = sorted(rank_sources)
    if state.model is not None and open_targets:
        ranked_lists = emb.rank_candidates(state.model, sources, open_targets, config.rank_depth)
    else:
        ranked_lists = []
        for s in sources:
            row = sorted(state.truth_scores.counterparts(s).items(), key=lambda kv: (-kv[1], kv[0]))
            ranked_lists.append([t for t, _ in row if t not in obs_tgt][: config.rank_depth])

    rankings: dict[int, list[int]] = {}
    for s, ranked in zip(sources, ranked_lists):
        confirmed = by_source.get(s)
        if confirmed is not None:
            if confirmed in ranked:
                ranked.remove(confirmed)
            ranked.insert(0, confirmed)
            ranked = ranked[: config.rank_depth]
        rankings[s] = ranked
    return FusedPredictions(binary=tuple(binary), rankings=rankings)
