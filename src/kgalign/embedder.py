"""Shared-space entity embedder used as the trainable scorer.

Both graphs' entities live in one d-dimensional space.  Alignment labels
pull counterpart entities together through a margin ranking loss, and a
translational triple term (head + relation close to tail, per graph)
shapes the space so that alignment evidence propagates through the
relational structure.  Scoring is plain cosine similarity.

The trainer is full-batch and deterministic: negatives are drawn from
the generator persisted on the model, and gradients are accumulated
with ``np.add.at`` in a fixed order, so a fixed seed reproduces training
bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graph import KnowledgeGraphPair


class TrainingError(RuntimeError):
    pass


class Origin(str, Enum):
    """Where a labeled pair came from."""

    OBSERVED = "observed"
    SYMBOLIC = "symbolic"
    NEURAL = "neural"


@dataclass(frozen=True)
class PseudoLabelSet:
    """Labeled pairs (source, target, confidence) of one origin."""

    pairs: tuple[tuple[int, int, float], ...]
    origin: Origin

    def __post_init__(self):
        if self.origin is Origin.NEURAL:
            sources = [s for s, _, _ in self.pairs]
            targets = [t for _, t, _ in self.pairs]
            if len(set(sources)) != len(sources) or len(set(targets)) != len(targets):
                raise ValueError("neural pseudo-labels must be one-to-one")

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class Hyperparams:
    dim: int = 64
    learning_rate: float = 0.05
    margin: float = 0.5
    negatives: int = 8
    epochs: int = 150
    hard_negative_fraction: float = 0.5
    triple_weight: float = 0.25

    def validate(self) -> None:
        if self.dim < 2:
            raise ValueError(f"embedding dimension must be >= 2, got {self.dim}")
        if self.negatives < 0:
            raise ValueError(f"negatives per positive must be >= 0, got {self.negatives}")
        if not 0.0 <= self.hard_negative_fraction <= 1.0:
            raise ValueError("hard_negative_fraction must be in [0, 1]")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.margin <= 0.0:
            raise ValueError(f"margin must be > 0, got {self.margin}")
        if self.triple_weight < 0.0:
            raise ValueError(f"triple_weight must be >= 0, got {self.triple_weight}")


@dataclass
class NeuralModel:
    """Entity and directed-relation embeddings plus training state."""

    ent_source: np.ndarray
    ent_target: np.ndarray
    rel_source: np.ndarray
    rel_target: np.ndarray
    hyperparams: Hyperparams
    seed: int
    rng: np.random.Generator = field(repr=False, default=None)  # type: ignore[assignment]


@dataclass
class TrainReport:
    epoch_losses: list[float]

    @property
    def first(self) -> float:
        return self.epoch_losses[0] if self.epoch_losses else 0.0

    @property
    def final(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else 0.0


def _unit_rows(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    np.maximum(norms, 1e-12, out=norms)
    return mat / norms


def init_model(pair: KnowledgeGraphPair, hyperparams: Hyperparams, seed: int) -> NeuralModel:
    """Draw normal(0, 1/sqrt(d)) embeddings, unit-normalize, fix the seed."""
    hyperparams.validate()
    rng = np.random.default_rng(seed)
    d = hyperparams.dim
    scale = 1.0 / np.sqrt(d)

    def draw(n: int) -> np.ndarray:
        return _unit_rows(rng.normal(0.0, scale, size=(n, d)))

    return NeuralModel(
        ent_source=draw(pair.source.n_entities),
        ent_target=draw(pair.target.n_entities),
        rel_source=draw(2 * pair.source.n_relations),
        rel_target=draw(2 * pair.target.n_relations),
        hyperparams=hyperparams,
        seed=seed,
        rng=rng,
    )


def _directed_triple_arrays(kg) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Head/relation/tail index arrays with both directions materialized."""
    if not kg.triples:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    h, r, t = (np.array(col, dtype=np.int64) for col in zip(*kg.triples))
    heads = np.concatenate([h, t])
    rels = np.concatenate([2 * r, 2 * r + 1])
    tails = np.concatenate([t, h])
    return heads, rels, tails


def train(
    model: NeuralModel,
    pair: KnowledgeGraphPair,
    positives: PseudoLabelSet | Sequence[PseudoLabelSet],
    negatives_pool: Iterable[tuple[int, int, float]] = (),
    origin_weights: Mapping[Origin, float] | None = None,
) -> TrainReport:
    """Fit the embeddings to the labeled pairs; returns per-epoch losses.

    Two loss families share the margin and the negatives-per-positive
    count k.  For each positive pair (e, e') and each of its k sampled
    negatives e~', the alignment term is max(0, margin - cos(e, e') +
    cos(e, e~')); negatives are drawn half from the below-threshold pool
    of e (hard) and half uniformly, falling back to uniform when the
    pool has nothing for e.  For each directed triple (h, d, t) and k
    corrupted tails t~, the translational term is max(0, margin +
    |h + d - t|^2 - |h + d - t~|^2), scaled by ``triple_weight``.
    With k = 0 neither family has any term and the loss is identically
    zero.

    Duplicate positives are kept as-is: each occurrence contributes its
    own loss terms, so a pair listed twice pulls twice as hard.

    Term weights multiply the pair's confidence by an optional
    per-origin weight (default 1 for every origin).
    """
    hp = model.hyperparams
    sets = [positives] if isinstance(positives, PseudoLabelSet) else list(positives)
    weights = dict(origin_weights or {})

    pos_src: list[int] = []
    pos_tgt: list[int] = []
    pos_w: list[float] = []
    for ls in sets:
        w_set = weights.get(ls.origin, 1.0)
        for s, t, conf in ls.pairs:
            pos_src.append(s)
            pos_tgt.append(t)
            pos_w.append(w_set * conf)
    if not pos_src:
        raise TrainingError("no positive pairs to train on")

    src_idx = np.array(pos_src, dtype=np.int64)
    tgt_idx = np.array(pos_tgt, dtype=np.int64)
    w = np.array(pos_w, dtype=np.float64)

    pools: dict[int, np.ndarray] = {}
    staged: dict[int, set[int]] = {}
    for s, t, _ in negatives_pool:
        staged.setdefault(s, set()).add(t)
    for s, ts in staged.items():
        pools[s] = np.array(sorted(ts), dtype=np.int64)

    h1, r1, t1 = _directed_triple_arrays(pair.source)
    h2, r2, t2 = _directed_triple_arrays(pair.target)

    k = hp.negatives
    gamma = hp.margin
    lr = hp.learning_rate
    rng = model.rng
    n_t = model.ent_target.shape[0]
    n_hard = int(round(k * hp.hard_negative_fraction))
    n_pos = len(src_idx)
    n_terms = k * (n_pos + len(h1) + len(h2))

    losses: list[float] = []
    for _ in range(hp.epochs):
        loss_sum = 0.0
        g_es = np.zeros_like(model.ent_source)
        g_et = np.zeros_like(model.ent_target)

        if k > 0:
            neg = rng.integers(0, n_t, size=(n_pos, k))
            for i in range(n_pos):
                pool = pools.get(int(src_idx[i]))
                if pool is not None and n_hard > 0:
                    neg[i, :n_hard] = rng.choice(pool, size=n_hard)
            # A sampled negative equal to the true counterpart carries no
            # signal; nudge it to the next id.
            clash = neg == tgt_idx[:, None]
            neg[clash] = (neg[clash] + 1) % n_t

            su = model.ent_source[src_idx]
            tv = model.ent_target[tgt_idx]
            nt = model.ent_target[neg]
            pos_score = np.einsum("id,id->i", su, tv)
            neg_score = np.einsum("id,ikd->ik", su, nt)
            hinge = gamma - pos_score[:, None] + neg_score
            active = hinge > 0.0
            loss_sum += float((w[:, None] * np.maximum(hinge, 0.0)).sum())

            act_w = np.where(active, w[:, None], 0.0)
            act_count = act_w.sum(axis=1)
            g_su = -tv * act_count[:, None] + np.einsum("ik,ikd->id", act_w, nt)
            np.add.at(g_es, src_idx, g_su)
            np.add.at(g_et, tgt_idx, -su * act_count[:, None])
            np.add.at(g_et, neg.reshape(-1), (act_w[:, :, None] * su[:, None, :]).reshape(-1, su.shape[1]))

        g_rs = np.zeros_like(model.rel_source)
        g_rt = np.zeros_like(model.rel_target)
        if k > 0 and hp.triple_weight > 0.0:
            for ents, rels, grads_e, grads_r, (hh, rr, tt) in (
                (model.ent_source, model.rel_source, g_es, g_rs, (h1, r1, t1)),
                (model.ent_target, model.rel_target, g_et, g_rt, (h2, r2, t2)),
            ):
                if len(hh) == 0:
                    continue
                corrupt = rng.integers(0, ents.shape[0], size=(len(hh), k))
                resid = ents[hh] + rels[rr] - ents[tt]
                resid_neg = (ents[hh] + rels[rr])[:, None, :] - ents[corrupt]
                d_pos = np.einsum("id,id->i", resid, resid)
                d_neg = np.einsum("ikd,ikd->ik", resid_neg, resid_neg)
                hinge = gamma + d_pos[:, None] - d_neg
                active = (hinge > 0.0).astype(np.float64)
                loss_sum += hp.triple_weight * float(np.maximum(hinge, 0.0).sum())

                cw = hp.triple_weight
                n_active = active.sum(axis=1)
                pull = cw * 2.0 * resid * n_active[:, None]
                push = cw * 2.0 * (active[:, :, None] * resid_neg)
                push_total = push.sum(axis=1)
                np.add.at(grads_e, hh, pull - push_total)
                np.add.at(grads_r, rr, pull - push_total)
                np.add.at(grads_e, tt, -pull)
                np.add.at(grads_e, corrupt.reshape(-1), push.reshape(-1, ents.shape[1]))

        if k > 0:
            model.ent_source = _unit_rows(model.ent_source - lr * g_es)
            model.ent_target = _unit_rows(model.ent_target - lr * g_et)
            model.rel_source = _unit_rows(model.rel_source - lr * g_rs)
            model.rel_target = _unit_rows(model.rel_target - lr * g_rt)

        losses.append(loss_sum / n_terms if n_terms else 0.0)
    return TrainReport(epoch_losses=losses)


def score_pair(model: NeuralModel, e: int, e_prime: int) -> float:
    """Cosine similarity of the two entity embeddings, clipped to [-1, 1]."""
    u = model.ent_source[e]
    v = model.ent_target[e_prime]
    denom = np.linalg.norm(u) * np.linalg.norm(v)
    if denom == 0.0:
        return 0.0
    return float(np.clip(np.dot(u, v) / denom, -1.0, 1.0))


# Score cells (sources x candidates) one block of the top-k kernel holds;
# the block's row count follows from the candidate count, so memory stays
# flat as the target side grows.
TOP_K_BLOCK_CELLS = 1 << 22


def top_k(
    model: NeuralModel,
    sources: Sequence[int],
    candidates: Sequence[int],
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Each source's k best candidates by cosine, ties by ascending target id.

    Returns target ids and their clipped cosine scores, both shaped
    (len(sources), min(k, len(candidates))), each row in descending score
    order.  Scores come from one matrix product per block of source rows;
    ``argpartition`` narrows each row to k columns, and a row holding more
    than k scores at or above its k-th value re-selects among them by
    (score, id) so the cut keeps the lowest ids of an exact tie.
    """
    if len(candidates) == 0:
        raise ValueError("candidate set must be non-empty")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cand = np.sort(np.asarray(candidates, dtype=np.int64))
    src = np.asarray(sources, dtype=np.int64)
    k = min(k, len(cand))
    tmat = _unit_rows(model.ent_target[cand])
    cols = np.empty((len(src), k), dtype=np.int64)
    vals = np.empty((len(src), k), dtype=np.float64)
    rows = max(1, TOP_K_BLOCK_CELLS // len(cand))
    for start in range(0, len(src), rows):
        smat = _unit_rows(model.ent_source[src[start : start + rows]])
        scores = np.clip(smat @ tmat.T, -1.0, 1.0)
        part = np.argpartition(-scores, k - 1, axis=1)[:, :k]
        kth = np.take_along_axis(scores, part[:, -1:], axis=1)
        for r in np.flatnonzero(np.count_nonzero(scores >= kth, axis=1) > k):
            # columns ascend with target id, so a stable sort keeps id order
            near = np.flatnonzero(scores[r] >= kth[r])
            part[r] = near[np.argsort(-scores[r, near], kind="stable")[:k]]
        top = np.take_along_axis(scores, part, axis=1)
        order = np.lexsort((part, -top))
        cols[start : start + rows] = np.take_along_axis(part, order, axis=1)
        vals[start : start + rows] = np.take_along_axis(top, order, axis=1)
    return cand[cols], vals


def rank_candidates(
    model: NeuralModel,
    sources: Sequence[int],
    candidates: Sequence[int],
    depth: int,
) -> list[list[int]]:
    """Per source, the top ``depth`` candidates by descending score, ties by
    ascending target id; an empty candidate set is a ``ValueError``."""
    ids, _ = top_k(model, sources, candidates, depth)
    return ids.tolist()


def greedy_one_to_one(
    scored_pairs: Iterable[tuple[int, int, float]],
    budget: int | None = None,
) -> PseudoLabelSet:
    """Highest-score-first matching; each entity is used at most once.

    Ties are broken by source id then target id, so the sweep is fully
    deterministic.  At most ``budget`` pairs are accepted when given.
    """
    ordered = sorted(scored_pairs, key=lambda p: (-p[2], p[0], p[1]))
    used_src: set[int] = set()
    used_tgt: set[int] = set()
    accepted: list[tuple[int, int, float]] = []
    for s, t, v in ordered:
        if budget is not None and len(accepted) >= budget:
            break
        if s in used_src or t in used_tgt:
            continue
        used_src.add(s)
        used_tgt.add(t)
        accepted.append((s, t, v))
    return PseudoLabelSet(pairs=tuple(accepted), origin=Origin.NEURAL)


CHECKPOINT_VERSION = 1


def save_model(model: NeuralModel, path) -> None:
    """Write a lossless checkpoint (arrays + hyperparams + rng state)."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "hyperparams": model.hyperparams.__dict__,
        "seed": model.seed,
        "rng_state": model.rng.bit_generator.state,
    }
    np.savez(
        path,
        ent_source=model.ent_source,
        ent_target=model.ent_target,
        rel_source=model.rel_source,
        rel_target=model.rel_target,
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
    )


def load_model(path) -> NeuralModel:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        if meta["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['version']}")
        rng = np.random.default_rng(meta["seed"])
        rng.bit_generator.state = meta["rng_state"]
        return NeuralModel(
            ent_source=data["ent_source"],
            ent_target=data["ent_target"],
            rel_source=data["rel_source"],
            rel_target=data["rel_target"],
            hyperparams=Hyperparams(**meta["hyperparams"]),
            seed=meta["seed"],
            rng=rng,
        )
