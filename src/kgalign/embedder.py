"""Shared-space entity embedder used as the trainable scorer.

Both graphs' entities live in one d-dimensional space.  Alignment labels
pull counterpart entities together through a margin ranking loss, and a
translational triple term (head + relation close to tail, per graph)
shapes the space so that alignment evidence propagates through the
relational structure.  Scoring is plain cosine similarity.

The trainer is full-batch and deterministic: negatives are drawn from
the generator persisted on the model, and each gradient array is built
by sparse incidence products that add its terms in a fixed order, so a
fixed seed reproduces training bit for bit.  The corrupted-tail terms of
the triple loss are walked in chunks of ``TRAIN_CHUNK_CELLS`` values, so
training holds O(T * d) rows plus one chunk, never the (T * k, d) block
of all corrupted residuals.  ``scipy.sparse`` is imported on the first
training call only, so runs without an embedder never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

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
    triple_weight: float = 0.25

    def validate(self) -> None:
        if self.dim < 2:
            raise ValueError(f"embedding dimension must be >= 2, got {self.dim}")
        if self.negatives < 0:
            raise ValueError(f"negatives per positive must be >= 0, got {self.negatives}")
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
        rng=rng,
    )


def _directed_triple_arrays(kg) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Head/relation/tail index arrays with both directions materialized."""
    h, r, t = kg.triple_columns
    return np.concatenate([h, t]), np.concatenate([2 * r, 2 * r + 1]), np.concatenate([t, h])


# Values (triples x negatives x dimension) of corrupted residuals one
# chunk of the trainer holds; the chunk's triple count follows from k and
# the dimension, so training memory stays flat as the graphs grow.
TRAIN_CHUNK_CELLS = 1 << 20

# Score cells (sources x candidates) one block of the top-k kernel holds;
# the block's row count follows from the candidate count, so memory stays
# flat as the target side grows.
TOP_K_BLOCK_CELLS = 1 << 22


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


def _scatter_onto(out: np.ndarray, values: np.ndarray, targets: np.ndarray, weights: np.ndarray) -> None:
    """Continue ``out``'s sums with ``out[targets[i]] += weights[i] * terms[i]``
    for every i in order, where ``terms`` are the last len(targets) rows of
    ``values``; the rows before them are free room.

    The rows of ``out`` that nonzero terms touch are copied to the end of
    that room and lead one ``_scatter`` product with weight 1, which then
    adds the terms.  Since 0 + 1 * x == x, and a sum that starts at +0 is
    never -0, each of those rows continues bit for bit as one longer sum
    in the same order would have.
    """
    hit = np.zeros(len(out), dtype=bool)
    hit[targets[weights != 0.0]] = True
    touched = np.flatnonzero(hit)
    m = len(touched)
    if m == 0:
        return
    carried = values[len(values) - len(targets) - m :]
    np.take(out, touched, axis=0, out=carried[:m], mode="clip")
    slot = np.zeros(len(out), dtype=np.int64)
    slot[touched] = np.arange(m)
    carry = (np.arange(m)[:, None], np.ones((m, 1)))
    out[touched] = _scatter(carried, m, [carry, (slot[targets][:, None], weights[:, None])])


def _corrupted_residuals(
    out: np.ndarray, hr: np.ndarray, ents: np.ndarray, corrupt: np.ndarray
) -> np.ndarray:
    """``hr[i] - ents[corrupt[i, j]]`` written to the rows of ``out`` in
    (i, j) order; returns them viewed as (len(hr), k, d)."""
    # corrupt holds draws below ents.shape[0], so clipping never acts;
    # it only spares np.take the copy it makes of ``out`` under "raise"
    np.take(ents, corrupt.reshape(-1), axis=0, out=out, mode="clip")
    resid_neg = out.reshape(*corrupt.shape, -1)
    np.subtract(hr[:, None, :], resid_neg, out=resid_neg)
    return resid_neg


def _side_gradients(
    buf: np.ndarray,
    scratch: np.ndarray,
    step: int,
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
    triple term appends two blocks after them, the head and relation
    update ``pull - push`` and the tail update ``pull`` (weight -1), and
    one product scatters all of ``buf``.  The corrupted residuals (weight
    2 * triple_weight where the hinge is active) are computed ``step``
    triples at a time into the end of ``scratch``: all of them once for
    the distances and ``push``, and the active ones once more after that
    product to continue the entity sums.  The subtraction is the same,
    so the bits are too, and the zero-weight terms left out would have
    been dropped by the scatter anyway.
    """
    hh, rr, tt = triples
    n2, k, cw = len(hh), hp.negatives, hp.triple_weight
    rows = sum(len(targets) for targets, _ in align_terms)
    if not (n2 and cw > 0.0):
        return 0.0, _scatter(buf[:rows], ents.shape[0], align_terms), np.zeros_like(rels)
    corrupt = rng.integers(0, ents.shape[0], size=(n2, k))
    hinge = np.empty((n2, k))
    push_w = np.empty((n2, k))
    g_head, pull = buf[rows : rows + n2], buf[rows + n2 : rows + 2 * n2]
    start = len(scratch) - step * k
    chunks = [slice(lo, lo + step) for lo in range(0, n2, step)]
    for c in chunks:
        hr = ents[hh[c]] + rels[rr[c]]
        resid = hr - ents[tt[c]]
        resid_neg = _corrupted_residuals(scratch[start : start + len(hr) * k], hr, ents, corrupt[c])
        d_pos = np.einsum("id,id->i", resid, resid)
        d_neg = np.einsum("ikd,ikd->ik", resid_neg, resid_neg)
        np.subtract(hp.margin + d_pos[:, None], d_neg, out=hinge[c])
        active = hinge[c] > 0.0
        # einsum adds the k weighted residuals of a triple in k order, the
        # rounding of summing a materialized (2T, k, d) push over axis 1
        push_w[c] = np.where(active, cw * 2.0, 0.0)
        pull_c = pull[c]
        np.multiply(cw * 2.0, resid, out=pull_c)
        pull_c *= np.count_nonzero(active, axis=1)[:, None]
        np.subtract(pull_c, np.einsum("ik,ikd->id", push_w[c], resid_neg), out=g_head[c])
    loss = cw * float(np.maximum(hinge, 0.0).sum())

    ones = np.ones((n2, 1))
    g_rel = _scatter(g_head, rels.shape[0], [(rr[:, None], ones)])
    head_tail = [(hh[:, None], ones), (tt[:, None], -ones)]
    g_ent = _scatter(buf[: rows + 2 * n2], ents.shape[0], align_terms + head_tail)
    for c in chunks:
        hr = ents[hh[c]] + rels[rr[c]]
        i, j = np.nonzero(push_w[c])  # the active terms, in (i, j) order
        tails = corrupt[c][i, j]
        terms = scratch[len(scratch) - len(tails) :]
        # ``step`` terms at a time, so the gathered hr rows stay as small as hr
        for b in (slice(lo, lo + step) for lo in range(0, len(tails), step)):
            _corrupted_residuals(terms[b], hr[i[b]], ents, tails[b, None])
        _scatter_onto(g_ent, scratch, tails, push_w[c][i, j])
    return loss, g_ent, g_rel


def train(
    model: NeuralModel,
    pair: KnowledgeGraphPair,
    positives: PseudoLabelSet | Sequence[PseudoLabelSet],
) -> TrainReport:
    """Fit the embeddings to the labeled pairs; returns per-epoch losses.

    The positives are the rows of the label sets, concatenated in the
    order given; each row's confidence is its term weight.

    Two loss families share the margin and the negatives-per-positive
    count k.  For each positive pair (e, e') and each of its k negatives
    e~', drawn uniformly from the target entities, the alignment term is
    max(0, margin - cos(e, e') + cos(e, e~')).  For each directed triple
    (h, d, t) and k corrupted tails t~, the translational term is
    max(0, margin + |h + d - t|^2 - |h + d - t~|^2), scaled by
    ``triple_weight``.
    With k = 0 neither family has any term and the loss is identically
    zero.

    Duplicate positives are kept as-is: each occurrence contributes its
    own loss terms, so a pair listed twice pulls twice as hard.

    Each epoch scatters one graph at a time.  The alignment terms and
    the triple terms' head and tail rows sit in one buffer reused by both
    graphs, and one sparse incidence product adds them up; the
    corrupted-tail terms then continue those sums chunk by chunk (see
    ``_side_gradients``).  Besides the (n, k, d) negatives of the
    alignment term, working memory is O(T * d) rows plus one chunk of
    ``TRAIN_CHUNK_CELLS`` values, where T counts triples; it does not
    grow with T * k * d.
    """
    hp = model.hyperparams
    sets = [positives] if isinstance(positives, PseudoLabelSet) else list(positives)
    if not sum(map(len, sets)):
        raise TrainingError("no positive pairs to train on")
    src_idx = np.concatenate([ls.src for ls in sets])
    tgt_idx = np.concatenate([ls.tgt for ls in sets])
    w = np.concatenate([ls.conf for ls in sets])

    k = hp.negatives
    if k == 0:
        return TrainReport(epoch_losses=[0.0] * hp.epochs)
    gamma = hp.margin
    lr = hp.learning_rate
    rng = model.rng
    n_t = model.ent_target.shape[0]
    n_pos = len(src_idx)
    ones = np.ones((n_pos, 1))

    trip_s = _directed_triple_arrays(pair.source)
    trip_t = _directed_triple_arrays(pair.target)
    n_terms = k * (n_pos + len(trip_s[0]) + len(trip_t[0]))
    d = model.ent_source.shape[1]
    n2 = max(len(trip_s[0]), len(trip_t[0])) if hp.triple_weight > 0.0 else 0
    buf = np.empty((2 * n_pos + 2 * n2, d))
    # one chunk's corrupted residuals, after room for the rows they carry
    step = max(1, min(TRAIN_CHUNK_CELLS // (k * d), n2))
    carry = min(step * k, max(len(model.ent_source), len(model.ent_target)))
    scratch = np.empty((carry + step * k, d))

    losses: list[float] = []
    for _ in range(hp.epochs):
        neg = rng.integers(0, n_t, size=(n_pos, k))
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
        del nt  # the (n, k, d) negatives need not outlive the alignment rows
        align = [(src_idx[:, None], ones)]
        loss, g_es, g_rs = _side_gradients(
            buf, scratch, step, align, model.ent_source, model.rel_source, trip_s, hp, rng
        )
        loss_sum += loss
        buf[:n_pos] = -su * act_count[:, None]
        buf[n_pos : 2 * n_pos] = su
        align = [(tgt_idx[:, None], ones), (neg, act_w)]
        loss, g_et, g_rt = _side_gradients(
            buf, scratch, step, align, model.ent_target, model.rel_target, trip_t, hp, rng
        )
        loss_sum += loss

        model.ent_source = _unit_rows(model.ent_source - lr * g_es)
        model.ent_target = _unit_rows(model.ent_target - lr * g_et)
        model.rel_source = _unit_rows(model.rel_source - lr * g_rs)
        model.rel_target = _unit_rows(model.rel_target - lr * g_rt)
        losses.append(loss_sum / n_terms)
    return TrainReport(epoch_losses=losses)


def score_pair(model: NeuralModel, e: np.ndarray | int, e_prime: np.ndarray | int) -> np.ndarray:
    """Cosine similarity of the entity embeddings of each pair
    (``e[i]``, ``e_prime[i]``), clipped to [-1, 1]; a pair with a zero
    vector scores 0.  Scalar ids give a scalar."""
    u = model.ent_source[e]
    v = model.ent_target[e_prime]
    denom = np.linalg.norm(u, axis=-1) * np.linalg.norm(v, axis=-1)
    dots = np.einsum("...d,...d->...", u, v)
    cos = np.divide(dots, denom, out=np.zeros_like(dots), where=denom != 0.0)
    return np.clip(cos, -1.0, 1.0)


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
        scores = smat @ tmat.T
        np.clip(scores, -1.0, 1.0, out=scores)
        # negating is exact, so flipping the block in place and back again
        # selects on -scores without a second score block
        np.negative(scores, out=scores)
        part = np.argpartition(scores, k - 1, axis=1)[:, :k].copy()
        np.negative(scores, out=scores)
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
) -> np.ndarray:
    """Highest-score-first matching over offers (src[i], tgt[i], score[i]);
    each entity is used at most once.

    Returns the accepted offers' positions i, in acceptance order, so the
    caller indexes its own columns with them.  Ties are broken by source
    id, then target id, then position, so the sweep is fully
    deterministic.
    """
    order = np.lexsort((tgt, src, -score))
    used_src: set[int] = set()
    used_tgt: set[int] = set()
    accepted: list[int] = []
    for i, s, t in zip(order.tolist(), src[order].tolist(), tgt[order].tolist()):
        if s in used_src or t in used_tgt:
            continue
        used_src.add(s)
        used_tgt.add(t)
        accepted.append(i)
    return np.array(accepted, dtype=np.int64)
