"""Shared-space entity embedder used as the trainable scorer.

Both graphs' entities live in one d-dimensional space.  Alignment labels
pull counterpart entities together through a margin ranking loss, and a
translational triple term (head + relation close to tail, per graph)
shapes the space so that alignment evidence propagates through the
relational structure.  Scoring is plain cosine similarity.

The trainer is full-batch and deterministic: negatives are drawn from
the generator persisted on the model, and each gradient array is one
sparse incidence product that adds its terms in a fixed order, so a
fixed seed reproduces training bit for bit.  ``scipy.sparse`` is
imported on the first training call only, so runs without an embedder
never load it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .graph import KnowledgeGraphPair


class TrainingError(RuntimeError):
    pass


class Origin(str, Enum):
    """Where a labeled pair came from."""

    OBSERVED = "observed"
    SYMBOLIC = "symbolic"
    NEURAL = "neural"


@dataclass(frozen=True, eq=False)
class PseudoLabelSet:
    """Labeled pairs of one origin as three equal-length columns.

    Row i is the pair (``src[i]``, ``tgt[i]``) with confidence
    ``conf[i]``; the columns are held as int64, int64 and float64 arrays.
    Neural labels must be one-to-one; other origins may repeat a pair.
    """

    src: np.ndarray
    tgt: np.ndarray
    conf: np.ndarray
    origin: Origin

    def __post_init__(self):
        for name, dtype in (("src", np.int64), ("tgt", np.int64), ("conf", np.float64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if not len(self.src) == len(self.tgt) == len(self.conf):
            raise ValueError("pseudo-label columns must have equal lengths")
        if self.origin is Origin.NEURAL and (
            len(np.unique(self.src)) != len(self.src) or len(np.unique(self.tgt)) != len(self.tgt)
        ):
            raise ValueError("neural pseudo-labels must be one-to-one")

    def __len__(self) -> int:
        return len(self.src)


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
        # the chained comparisons are false for NaN, so NaN fails them too
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 < self.margin < math.inf:
            raise ValueError(f"margin must be finite and > 0, got {self.margin}")
        if not 0.0 <= self.triple_weight < math.inf:
            raise ValueError(f"triple_weight must be finite and >= 0, got {self.triple_weight}")


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
    h, r, t = kg.triple_columns
    return np.concatenate([h, t]), np.concatenate([2 * r, 2 * r + 1]), np.concatenate([t, h])


def _hard_pools(
    pool: np.ndarray, src_idx: np.ndarray, n_sources: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every source's distinct pooled targets, ascending, in one flat array.

    Returns that array with each positive's (start, length) slice of it;
    a positive whose source has no pool gets length 0.
    """
    pairs = np.unique(pool, axis=0)
    length = np.bincount(pairs[:, 0], minlength=n_sources)
    start = np.cumsum(length) - length
    return pairs[:, 1], start[src_idx], length[src_idx]


def _scatter(
    values: np.ndarray, n_out: int, segments: list[tuple[np.ndarray, np.ndarray]]
) -> np.ndarray:
    """``out[target] += weight * values[row]`` for every term, as one sparse product.

    ``segments`` holds (targets, weights) arrays shaped (rows, m), which
    give the next ``rows`` rows of ``values`` m terms each.  Terms land
    row by row and left to right within a row, the order of one
    ``np.add.at`` call per segment, so every sum rounds the same way.  A
    zero-weight term would add a signed zero to a sum that starts at +0
    and can never become -0, so it is dropped.
    """
    from scipy.sparse import csr_array  # deferred: symbolic-only runs never load scipy

    counts, cols, data = [], [], []
    for targets, weights in segments:
        keep = weights != 0.0
        counts.append(np.count_nonzero(keep, axis=1))
        cols.append(targets[keep])
        data.append(weights[keep])
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    rows = len(indptr) - 1
    incidence = csr_array(
        (np.concatenate(data), np.concatenate(cols), indptr), shape=(rows, n_out)
    )
    # The transpose is CSC over the same arrays; its product adds the
    # terms of value row 0, then of row 1, and so on into a zeroed result.
    # That matches np.add.at bit for bit while scipy's kernel rounds each
    # weight * value before adding it (no fused multiply-add), which
    # TestTrainMatchesReference checks on the installed build.
    return incidence.T @ values[:rows]


def _side_gradients(
    buf: np.ndarray,
    align_terms: list[tuple[np.ndarray, np.ndarray]],
    ents: np.ndarray,
    rels: np.ndarray,
    triples: tuple[np.ndarray, np.ndarray, np.ndarray],
    hp: Hyperparams,
    rng: np.random.Generator,
) -> tuple[float, np.ndarray, np.ndarray]:
    """One graph's triple loss and its entity and relation gradients.

    ``buf`` starts with the alignment term values of this graph's
    entities, one row per row of the ``align_terms`` segments.  The
    triple term appends three blocks after them: the head and relation
    update ``pull - push``, the tail update ``pull`` (weight -1) and the
    corrupted residuals (weight 2 * triple_weight where the hinge is
    active).
    """
    hh, rr, tt = triples
    n2, k, cw = len(hh), hp.negatives, hp.triple_weight
    loss = 0.0
    ent_terms = list(align_terms)
    g_rel = np.zeros_like(rels)
    rows = sum(len(targets) for targets, _ in align_terms)
    if n2 and cw > 0.0:
        corrupt = rng.integers(0, ents.shape[0], size=(n2, k))
        hr = ents[hh] + rels[rr]
        resid = hr - ents[tt]
        g_head, pull = buf[rows : rows + n2], buf[rows + n2 : rows + 2 * n2]
        tail = buf[rows + 2 * n2 : rows + (2 + k) * n2]
        # corrupt holds draws below ents.shape[0], so clipping never acts;
        # it only spares np.take the copy it makes of ``out`` under "raise"
        np.take(ents, corrupt.reshape(-1), axis=0, out=tail, mode="clip")
        resid_neg = tail.reshape(n2, k, -1)
        np.subtract(hr[:, None, :], resid_neg, out=resid_neg)
        d_pos = np.einsum("id,id->i", resid, resid)
        d_neg = np.einsum("ikd,ikd->ik", resid_neg, resid_neg)
        hinge = hp.margin + d_pos[:, None] - d_neg
        active = hinge > 0.0
        loss = cw * float(np.maximum(hinge, 0.0).sum())

        # einsum adds the k weighted residuals of a triple in k order, the
        # rounding of summing a materialized (2T, k, d) push over axis 1
        push_w = np.where(active, cw * 2.0, 0.0)
        np.multiply(cw * 2.0, resid, out=pull)
        pull *= np.count_nonzero(active, axis=1)[:, None]
        np.subtract(pull, np.einsum("ik,ikd->id", push_w, resid_neg), out=g_head)
        ones = np.ones((n2, 1))
        ent_terms += [
            (hh[:, None], ones),
            (tt[:, None], -ones),
            (corrupt.reshape(-1, 1), push_w.reshape(-1, 1)),
        ]
        g_rel = _scatter(g_head, rels.shape[0], [(rr[:, None], ones)])
        rows += (2 + k) * n2
    return loss, _scatter(buf[:rows], ents.shape[0], ent_terms), g_rel


def train(
    model: NeuralModel,
    pair: KnowledgeGraphPair,
    positives: PseudoLabelSet | Sequence[PseudoLabelSet],
    negatives_pool: np.ndarray = np.empty((0, 2), dtype=np.int64),
    origin_weights: Mapping[Origin, float] | None = None,
) -> TrainReport:
    """Fit the embeddings to the labeled pairs; returns per-epoch losses.

    The positives are the rows of the label sets, concatenated in the
    order given.  ``negatives_pool`` holds (source, target) rows, an
    ``(n, 2)`` int array (any other shape raises ``ValueError``);
    repeated rows count once.

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

    Each epoch builds each gradient array as one sparse incidence product
    over the term values, which sit in one buffer reused by both graphs:
    alignment terms first, then the triple terms of that graph.
    """
    hp = model.hyperparams
    sets = [positives] if isinstance(positives, PseudoLabelSet) else list(positives)
    weights = origin_weights or {}
    if not sum(map(len, sets)):
        raise TrainingError("no positive pairs to train on")
    pool = np.asarray(negatives_pool, dtype=np.int64)
    if pool.ndim != 2 or pool.shape[1] != 2:
        raise ValueError(f"negatives_pool must be (n, 2) (source, target) rows, got shape {pool.shape}")
    src_idx = np.concatenate([ls.src for ls in sets])
    tgt_idx = np.concatenate([ls.tgt for ls in sets])
    w = np.concatenate([weights.get(ls.origin, 1.0) * ls.conf for ls in sets])

    k = hp.negatives
    if k == 0:
        return TrainReport(epoch_losses=[0.0] * hp.epochs)
    gamma = hp.margin
    lr = hp.learning_rate
    rng = model.rng
    n_t = model.ent_target.shape[0]
    n_hard = int(round(k * hp.hard_negative_fraction))
    n_pos = len(src_idx)
    ones = np.ones((n_pos, 1))

    # One draw per hard slot of every positive whose source has a pool,
    # in positive order: the same draws as rng.choice(pool, n_hard) per positive.
    pool_ids, pool_start, pool_len = _hard_pools(pool, src_idx, len(model.ent_source))
    hard = np.flatnonzero(pool_len) if n_hard > 0 else np.empty(0, dtype=np.int64)
    hard_start = np.repeat(pool_start[hard], n_hard)
    hard_len = np.repeat(pool_len[hard], n_hard)

    trip_s = _directed_triple_arrays(pair.source)
    trip_t = _directed_triple_arrays(pair.target)
    n_terms = k * (n_pos + len(trip_s[0]) + len(trip_t[0]))
    per_triple = 2 + k if hp.triple_weight > 0.0 else 0
    rows = max(n_pos + per_triple * len(trip_s[0]), 2 * n_pos + per_triple * len(trip_t[0]))
    buf = np.empty((rows, model.ent_source.shape[1]))

    losses: list[float] = []
    for _ in range(hp.epochs):
        neg = rng.integers(0, n_t, size=(n_pos, k))
        if len(hard):
            picks = pool_ids[hard_start + rng.integers(0, hard_len)]
            neg[hard, :n_hard] = picks.reshape(-1, n_hard)
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
        loss_sum = float((w[:, None] * np.maximum(hinge, 0.0)).sum())

        act_w = np.where(active, w[:, None], 0.0)
        act_count = act_w.sum(axis=1)
        # Each graph fills the buffer with its alignment rows, then its
        # triple rows, and is scattered before the next graph reuses it.
        buf[:n_pos] = -tv * act_count[:, None] + np.einsum("ik,ikd->id", act_w, nt)
        align = [(src_idx[:, None], ones)]
        loss, g_es, g_rs = _side_gradients(buf, align, model.ent_source, model.rel_source, trip_s, hp, rng)
        loss_sum += loss
        buf[:n_pos] = -su * act_count[:, None]
        buf[n_pos : 2 * n_pos] = su
        align = [(tgt_idx[:, None], ones), (neg, act_w)]
        loss, g_et, g_rt = _side_gradients(buf, align, model.ent_target, model.rel_target, trip_t, hp, rng)
        loss_sum += loss

        model.ent_source = _unit_rows(model.ent_source - lr * g_es)
        model.ent_target = _unit_rows(model.ent_target - lr * g_et)
        model.rel_source = _unit_rows(model.rel_source - lr * g_rs)
        model.rel_target = _unit_rows(model.rel_target - lr * g_rt)
        losses.append(loss_sum / n_terms)
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
    src: np.ndarray,
    tgt: np.ndarray,
    score: np.ndarray,
    budget: int | None = None,
) -> np.ndarray:
    """Highest-score-first matching over offers (src[i], tgt[i], score[i]);
    each entity is used at most once.

    Returns the accepted offers' positions i, in acceptance order, so the
    caller indexes its own columns with them.  Ties are broken by source
    id, then target id, then position, so the sweep is fully
    deterministic.  At most ``budget`` pairs are accepted when given.
    """
    order = np.lexsort((tgt, src, -score))
    used_src: set[int] = set()
    used_tgt: set[int] = set()
    accepted: list[int] = []
    for i, s, t in zip(order.tolist(), src[order].tolist(), tgt[order].tolist()):
        if budget is not None and len(accepted) >= budget:
            break
        if s in used_src or t in used_tgt:
            continue
        used_src.add(s)
        used_tgt.add(t)
        accepted.append(i)
    return np.array(accepted, dtype=np.int64)


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
