"""Alternating optimization tying the rule engine to the embedder.

Each round has two phases.  The expectation phase holds the rule tables
fixed, runs L propagation sweeps from the current truth scores, takes
the pairs scored above the threshold as inferred labels, and recomputes
the embedder's features from the observed labels plus the inferred ones,
weighted by ``hidden_weight``, as anchors (``embedder.train``).  The
maximization phase holds both components fixed and re-estimates the
subrelation probabilities from the round's one-to-one alignment: the
observed pairs, greedy matches over the engine's positives between the
other entities, then the embedder's mutual nearest neighbours with a
positive cosine among the entities still free.  ``m_step`` keeps that
alignment on the state, and ``fuse_predictions`` outputs it.

A symbolic-only mode has no embedder, so the alignment stops after the
engine's matches, which reduces the loop to the classic
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
from .graph import AlignmentSeed, KnowledgeGraphPair, is_one_to_one
from .symbolic import (
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.hidden_weight < math.inf:
            raise ValueError(f"hidden_weight must be finite and >= 0, got {self.hidden_weight}")
        if self.rank_depth < 1:
            raise ValueError(f"rank_depth must be >= 1, got {self.rank_depth}")
        if self.workers != 1:
            raise ValueError(f"sweeps run in one process; workers must be 1, got {self.workers}")
        self.neural.validate()


@dataclass
class IterationStats:
    iteration: int
    inferred_pairs: int
    # the L1 feature change of the round's last propagation step
    neural_loss: float | None
    validation_precision: float | None


@dataclass
class EmState:
    pair: KnowledgeGraphPair
    observed: PseudoLabelSet  # the train seed pairs at 1, in seed order
    eta_source: np.ndarray  # functionalities, by packed directed relation
    eta_target: np.ndarray
    truth_scores: TruthScoreTable
    psub: SubrelationTable
    model: NeuralModel | None
    iteration: int = 0
    history: list[IterationStats] = field(default_factory=list)
    last_split: ThresholdSplit | None = None
    last_loss: float | None = None
    alignment: list[PseudoLabelSet] | None = None


def init_state(pair: KnowledgeGraphPair, train: AlignmentSeed, config: EmConfig) -> EmState:
    """Check and pin the seeds, bootstrap subrelations from them, set up
    the model.

    The seeds must be one-to-one pairs of entity ids of the two graphs,
    or a ``ValueError`` names the fault.  They are the only labels
    available before the first round, so the initial subrelation table
    is re-estimated from them alone, and the truth table pins them.
    """
    config.validate()
    pairs = np.array(train.pairs, dtype=np.int64).reshape(-1, 2)
    observed = PseudoLabelSet(pairs[:, 0], pairs[:, 1], np.ones(len(pairs)), Origin.OBSERVED)
    for side, ids, kg in (("source", observed.src, pair.source), ("target", observed.tgt, pair.target)):
        outside = ids[(ids < 0) | (ids >= kg.n_entities)]
        if len(outside):
            msg = f"seed {side} id {outside[0]} is not one of the {kg.n_entities} {side} entities"
            raise ValueError(msg)
    if not is_one_to_one(observed.src, observed.tgt):
        raise ValueError("train seed set is not one-to-one")
    psub = update_subrelation_probs(pair, observed.src, observed.tgt, observed.conf)
    model = None
    if not config.symbolic_only:
        model = emb.init_model(pair, config.neural, config.seed)
    return EmState(
        pair=pair,
        observed=observed,
        eta_source=compute_functionalities(pair.source),
        eta_target=compute_functionalities(pair.target),
        truth_scores=TruthScoreTable.from_seeds(train.pairs),
        psub=psub,
        model=model,
    )


def e_step(state: EmState, config: EmConfig) -> EmState:
    """Symbolic inference, then the embedder's features from its labels.

    The rule tables stay untouched.  With a model, the observed pairs at 1
    and the inferred positives at ``hidden_weight`` times their score are
    the anchors of ``embedder.train``, and ``state.last_loss`` is the
    feature change of its last propagation step, which the manifest and
    the log report as the round's loss.
    """
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
        inferred = PseudoLabelSet(split.src, split.tgt, config.hidden_weight * split.val, Origin.SYMBOLIC)
        report = emb.train(state.model, state.pair, [state.observed, inferred])
        state.last_loss = report.final
    else:
        state.last_loss = None
    return state


def _observed(state: EmState) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the source and target entities in the observed pairs."""
    obs_src = np.zeros(state.pair.source.n_entities, dtype=bool)
    obs_tgt = np.zeros(state.pair.target.n_entities, dtype=bool)
    obs_src[state.observed.src] = True
    obs_tgt[state.observed.tgt] = True
    return obs_src, obs_tgt


def _no_pairs() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)


def _top_candidates(
    model: NeuralModel,
    sources: Sequence[int],
    targets: Sequence[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The embedder's labels among the sources and targets as (source,
    target, q) columns, sources ascending: the mutual nearest neighbours
    by cosine with cos > 0, q = (cos + 1) / 2.  They are one-to-one, and
    a model without signal labels nothing."""
    src, tgt, cos = emb.mutual_nearest(model, sources, targets)
    ok = cos > 0.0
    return src[ok], tgt[ok], (cos[ok] + 1.0) / 2.0


def _alignment(state: EmState) -> list[PseudoLabelSet]:
    """The round's one-to-one alignment, in three parts.

    The observed pairs at 1; then greedy one-to-one over the last split's
    positives between entities outside the observed pairs; then, with a
    model, the embedder's mutual nearest neighbours among the entities
    still free (``_top_candidates``).
    """
    obs_src, obs_tgt = _observed(state)
    parts = [state.observed]
    split = state.last_split
    src, tgt, val = (split.src, split.tgt, split.val) if split is not None else _no_pairs()
    free = np.flatnonzero(~obs_src[src] & ~obs_tgt[tgt])
    keep = free[emb.greedy_one_to_one(src[free], tgt[free], val[free])]
    parts.append(PseudoLabelSet(src[keep], tgt[keep], val[keep], Origin.SYMBOLIC))
    if state.model is not None:
        free_src, free_tgt = ~obs_src, ~obs_tgt
        free_src[src[keep]] = False
        free_tgt[tgt[keep]] = False
        labels = _top_candidates(state.model, np.flatnonzero(free_src), np.flatnonzero(free_tgt))
        parts.append(PseudoLabelSet(*labels, Origin.NEURAL))
    return parts


def m_step(state: EmState, config: EmConfig) -> EmState:
    """Re-estimate the subrelations from the round's alignment.

    The labels are the observed pairs, then the engine's greedy matches,
    then (with a model) the embedder's mutual nearest neighbours among the
    entities still free.  The alignment is kept as ``state.alignment``,
    which ``fuse_predictions`` outputs.
    """
    config.validate()
    parts = state.alignment = _alignment(state)
    labels = (np.concatenate([getattr(p, col) for p in parts]) for col in ("src", "tgt", "conf"))
    state.psub = update_subrelation_probs(state.pair, *labels)
    return state


def _validation_precision(split: ThresholdSplit, validation: AlignmentSeed | None) -> float | None:
    if validation is None or not validation.pairs:
        return None
    gold = validation.by_source
    judged = [gold[s] == t for s, t in zip(split.src.tolist(), split.tgt.tolist()) if s in gold]
    return sum(judged) / len(judged) if judged else None


def run_em(
    pair: KnowledgeGraphPair,
    train: AlignmentSeed,
    config: EmConfig,
    validation: AlignmentSeed | None = None,
    callback: Callable[[EmState], None] | None = None,
) -> EmState:
    """Alternate the two phases for the configured number of rounds."""
    state = init_state(pair, train, config)
    for it in range(config.iterations):
        e_step(state, config)
        m_step(state, config)
        state.iteration = it + 1
        split = state.last_split
        stats = IterationStats(
            iteration=state.iteration,
            inferred_pairs=len(split.src) if split else 0,
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
    """The last round's alignment and each rank source's ranked list.

    Binary set: ``state.alignment``, the pairs the last ``m_step``
    re-estimated from.  Ranked lists, per sorted rank source: its binary
    counterpart, then its truth-score row, then (with a model) its
    embedder ranking, both over the targets outside the observed set;
    without repeats and cut at ``rank_depth``.  All sources are ranked
    by the embedder in one ``rank_candidates`` call.  Of ``config``,
    only ``rank_depth`` is read.
    """
    if state.alignment is None:
        raise RuntimeError("fuse_predictions requires at least one completed round")
    rows = (
        zip(p.src.tolist(), p.tgt.tolist(), p.conf.tolist(), repeat(p.origin))
        for p in state.alignment
    )
    binary = tuple(sorted(chain.from_iterable(rows)))
    by_source = {s: t for s, t, _, _ in binary}

    obs_src, obs_tgt = _observed(state)
    if rank_sources is None:
        rank_sources = np.flatnonzero(~obs_src).tolist()
    sources = sorted(rank_sources)
    depth = config.rank_depth
    truth_rows = _rank_truth_scores(state.truth_scores, obs_tgt, sources, depth)
    open_targets = np.flatnonzero(~obs_tgt)
    fills = repeat([])
    if state.model is not None and len(open_targets):
        fills = emb.rank_candidates(state.model, sources, open_targets, depth)
    rankings: dict[int, list[int]] = {}
    for s, row, fill in zip(sources, truth_rows, fills):
        head = [by_source[s]] if s in by_source else []
        rankings[s] = list(dict.fromkeys(head + row + fill))[:depth]
    return FusedPredictions(binary=binary, rankings=rankings)


def _rank_truth_scores(
    table: TruthScoreTable, obs_tgt: np.ndarray, sources: list[int], depth: int
) -> list[list[int]]:
    """Per sorted source, its top ``depth`` unobserved targets by descending
    truth score, ties by ascending target id: the table's own order, which
    the stable sort keeps."""
    keep = ~obs_tgt[table.tgt]
    src, tgt = table.src[keep], table.tgt[keep]
    order = np.lexsort((-table.val[keep], src))
    src, tgt = src[order], tgt[order]
    rank = np.arange(len(src)) - np.searchsorted(src, src)
    src, tgt = src[rank < depth], tgt[rank < depth].tolist()
    lo, hi = np.searchsorted(src, sources, "left"), np.searchsorted(src, sources, "right")
    return [tgt[a:b] for a, b in zip(lo.tolist(), hi.tolist())]
