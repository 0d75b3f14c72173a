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
import math
from itertools import chain, repeat
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
        if not 0.0 <= self.hidden_weight < math.inf:
            raise ValueError(f"hidden_weight must be finite and >= 0, got {self.hidden_weight}")
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
        obs = _train_pairs(state)
        observed = PseudoLabelSet(obs[:, 0], obs[:, 1], np.ones(len(obs)), Origin.OBSERVED)
        inferred = PseudoLabelSet(*split.positive_columns, Origin.SYMBOLIC)
        report = emb.train(
            state.model,
            state.pair,
            [observed, inferred],
            negatives_pool=split.negative_pairs,
            origin_weights={Origin.SYMBOLIC: config.hidden_weight},
        )
        state.last_loss = report.final
    else:
        state.last_loss = None
    return state


def _train_pairs(state: EmState) -> np.ndarray:
    """The observed pairs as an ``(n, 2)`` int array."""
    return np.array(state.train.pairs, dtype=np.int64).reshape(-1, 2)


def _observed(state: EmState) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the source and target entities in the observed pairs."""
    pairs = _train_pairs(state)
    obs_src = np.zeros(state.pair.source.n_entities, dtype=bool)
    obs_tgt = np.zeros(state.pair.target.n_entities, dtype=bool)
    obs_src[pairs[:, 0]] = True
    obs_tgt[pairs[:, 1]] = True
    return obs_src, obs_tgt


def _no_pairs() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)


def _top_candidates(
    model: NeuralModel,
    sources: Sequence[int],
    targets: Sequence[int],
    top_c: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source, target and cosine arrays of each source's top-C targets,
    sources in the given order, each source's targets by descending
    score, ties by ascending target id."""
    if not len(sources) or not len(targets):
        return _no_pairs()
    ids, scores = emb.top_k(model, sources, targets, top_c)
    return np.repeat(np.asarray(sources, dtype=np.int64), ids.shape[1]), ids.ravel(), scores.ravel()


def m_step(state: EmState, config: EmConfig) -> EmState:
    """Pseudo-label with the embedder, re-estimate subrelations."""
    config.validate()
    if state.model is None:
        return _m_step_symbolic(state, config)

    obs_src, obs_tgt = _observed(state)
    sources, targets = np.flatnonzero(~obs_src), np.flatnonzero(~obs_tgt)
    # Truth-table pairs between unlabeled entities are scored one by one;
    # the top-C lists offer every other pair at its batched cosine.
    table = state.truth_scores
    own = ~obs_src[table.src] & ~obs_tgt[table.tgt]
    t_src, t_tgt = table.src[own], table.tgt[own]
    t_cos = np.array(
        [emb.score_pair(state.model, s, t) for s, t in zip(t_src.tolist(), t_tgt.tolist())],
        dtype=np.float64,
    )
    c_src, c_tgt, c_cos = _top_candidates(state.model, sources, targets, config.top_c)
    new = ~np.isin((c_src << 32) | c_tgt, (t_src << 32) | t_tgt)
    src = np.concatenate([t_src, c_src[new]])
    tgt = np.concatenate([t_tgt, c_tgt[new]])
    q = (np.concatenate([t_cos, c_cos[new]]) + 1.0) / 2.0
    ok = q > config.confidence_floor
    src, tgt, q = src[ok], tgt[ok], q[ok]
    budget = config.pseudo_budget if config.pseudo_budget is not None else len(sources)
    pseudo = emb.greedy_one_to_one(src, tgt, q, budget=budget)

    labels = _label_table(state, src[pseudo], tgt[pseudo], q[pseudo])
    state.psub = update_subrelation_probs(state.pair, labels)
    return state


def _m_step_symbolic(state: EmState, config: EmConfig) -> EmState:
    """Rule-weight update without a model: greedy over inferred positives."""
    split = state.last_split
    offers = split.positive_columns if split else _no_pairs()
    obs_src, _ = _observed(state)
    unlabeled = int(np.count_nonzero(~obs_src))
    budget = config.pseudo_budget if config.pseudo_budget is not None else unlabeled
    matched = emb.greedy_one_to_one(*offers, budget=budget)
    labels = _label_table(state, *(col[matched] for col in offers))
    state.psub = update_subrelation_probs(state.pair, labels)
    return state


def _label_table(state: EmState, src: np.ndarray, tgt: np.ndarray, val: np.ndarray) -> TruthScoreTable:
    """The observed pairs at 1, then the pseudo-labels (src, tgt, val)."""
    obs = _train_pairs(state)
    return TruthScoreTable.from_arrays(
        np.concatenate([obs[:, 0], src]),
        np.concatenate([obs[:, 1], tgt]),
        np.concatenate([np.ones(len(obs)), val]),
    )


def _validation_precision(split: ThresholdSplit, validation: AlignmentSeed | None) -> float | None:
    if validation is None or not validation.pairs:
        return None
    gold = validation.by_source
    src, tgt, _ = split.positive_columns
    judged = [gold[s] == t for s, t in zip(src.tolist(), tgt.tolist()) if s in gold]
    return sum(judged) / len(judged) if judged else None


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
            inferred_pairs=int(np.count_nonzero(split.positive)) if split else 0,
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
    obs_src, obs_tgt = _observed(state)
    obs = _train_pairs(state)
    parts = [(obs[:, 0], obs[:, 1], np.ones(len(obs)), Origin.OBSERVED)]
    src, tgt, val = state.last_split.positive_columns
    free = ~obs_src[src] & ~obs_tgt[tgt]
    src, tgt, val = src[free], tgt[free], val[free]
    symbolic = emb.greedy_one_to_one(src, tgt, val)
    parts.append((src[symbolic], tgt[symbolic], val[symbolic], Origin.SYMBOLIC))

    if state.model is not None:
        used_src, used_tgt = obs_src.copy(), obs_tgt.copy()
        used_src[src[symbolic]] = True
        used_tgt[tgt[symbolic]] = True
        rem_src = np.flatnonzero(~used_src)
        c_src, c_tgt, c_cos = _top_candidates(state.model, rem_src, np.flatnonzero(~used_tgt), config.top_c)
        q = (c_cos + 1.0) / 2.0
        ok = q > config.confidence_floor
        c_src, c_tgt, q = c_src[ok], c_tgt[ok], q[ok]
        neural = emb.greedy_one_to_one(c_src, c_tgt, q, budget=len(rem_src))
        parts.append((c_src[neural], c_tgt[neural], q[neural], Origin.NEURAL))

    rows = (zip(s.tolist(), t.tolist(), v.tolist(), repeat(o)) for s, t, v, o in parts)
    binary = tuple(sorted(chain.from_iterable(rows)))
    by_source = {s: t for s, t, _, _ in binary}

    if rank_sources is None:
        rank_sources = np.flatnonzero(~obs_src).tolist()
    sources = sorted(rank_sources)
    open_targets = np.flatnonzero(~obs_tgt)
    if state.model is not None and len(open_targets):
        ranked_lists = emb.rank_candidates(state.model, sources, open_targets, config.rank_depth)
    else:
        ranked_lists = _rank_truth_scores(state.truth_scores, obs_tgt, sources, config.rank_depth)

    rankings: dict[int, list[int]] = {}
    for s, ranked in zip(sources, ranked_lists):
        confirmed = by_source.get(s)
        if confirmed is not None:
            if confirmed in ranked:
                ranked.remove(confirmed)
            ranked.insert(0, confirmed)
            ranked = ranked[: config.rank_depth]
        rankings[s] = ranked
    return FusedPredictions(binary=binary, rankings=rankings)


def _rank_truth_scores(
    table: TruthScoreTable, obs_tgt: np.ndarray, sources: list[int], depth: int
) -> list[list[int]]:
    """Per sorted source, its top ``depth`` unobserved targets by descending
    truth score, ties by ascending target id."""
    keep = ~obs_tgt[table.tgt]
    src, tgt = table.src[keep], table.tgt[keep]
    order = np.lexsort((tgt, -table.val[keep], src))
    src, tgt = src[order], tgt[order]
    rank = np.arange(len(src)) - np.searchsorted(src, src)
    src, tgt = src[rank < depth], tgt[rank < depth].tolist()
    lo, hi = np.searchsorted(src, sources, "left"), np.searchsorted(src, sources, "right")
    return [tgt[a:b] for a, b in zip(lo.tolist(), hi.tolist())]
