"""Shared-space entity embedder used as the trainable scorer.

Both graphs' entities live in one d-dimensional space.  Alignment labels
pull counterpart entities together through a margin ranking loss, and a
translational triple term (head + relation close to tail, per graph)
shapes the space so that alignment evidence propagates through the
relational structure.  Scoring is plain cosine similarity.

The trainer is full-batch and deterministic: negatives are drawn from
the generator persisted on the model, and each gradient array is built
by sparse incidence products that add its terms in a fixed order, so a
fixed seed reproduces training bit for bit.  The alignment negatives and
the triple terms are walked in chunks of ``TRAIN_CHUNK_CELLS`` values,
so training holds O(T * k) scalars plus one chunk per graph, never the
(T * k, d) block of all corrupted residuals nor a row per triple term.
The two graphs' gradients are computed at once, the target graph's on
one worker thread that lives as long as the ``train`` call.
``scipy.sparse`` is imported on the first training call only, so runs
without an embedder never load it.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

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


# Values (triples or positives x negatives x dimension) one chunk of the
# trainer holds; the chunk's row count follows from k and the dimension,
# so training memory stays flat as the graphs and the labels grow.
TRAIN_CHUNK_CELLS = 1 << 20

# Score cells (sources x candidates) one block of ``top_k`` or
# ``mutual_nearest`` holds; the row count follows from the candidate count,
# so memory stays flat as the target side grows.  ``argpartition`` adds an
# int64 index block of the same size, and that pair sets the ranking's peak.
TOP_K_BLOCK_CELLS = 1 << 21


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


class _SideWork(NamedTuple):
    """One graph's training buffers: the chunk ``scratch`` of corrupted
    residuals after room for the rows they carry, the head/tail row block
    of one chunk after the same kind of room, and the (T, k) hinge and
    push weights and (T,) active counts that the later passes reread."""

    scratch: np.ndarray
    rows: np.ndarray
    hinge: np.ndarray
    push_w: np.ndarray
    count: np.ndarray
    step: int


def _side_work(ents: np.ndarray, rels: np.ndarray, n2: int, hp: Hyperparams) -> _SideWork | None:
    """Buffers for a graph with ``n2`` directed triples; None without triple terms."""
    if not (n2 and hp.triple_weight > 0.0):
        return None
    k, d = hp.negatives, ents.shape[1]
    step = max(1, min(TRAIN_CHUNK_CELLS // (k * d), n2))
    carry = min(step * k, len(ents))
    room = min(step, max(len(ents), len(rels)))
    return _SideWork(
        np.empty((carry + step * k, d)),
        np.empty((room + step, d)),
        np.empty((n2, k)),
        np.empty((n2, k)),
        np.empty(n2, dtype=np.int64),
        step,
    )


def _pull(rows: np.ndarray, resid: np.ndarray, count: np.ndarray, cw: float) -> np.ndarray:
    """``2 * cw * resid * count`` written to the last len(resid) rows of ``rows``."""
    pull = rows[len(rows) - len(resid) :]
    np.multiply(cw * 2.0, resid, out=pull)
    pull *= count[:, None]
    return pull


def _side_gradients(
    work: _SideWork | None,
    align_rows: np.ndarray,
    align_terms: list[tuple[np.ndarray, np.ndarray]],
    ents: np.ndarray,
    rels: np.ndarray,
    triples: tuple[np.ndarray, np.ndarray, np.ndarray],
    hp: Hyperparams,
    corrupt: np.ndarray | None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """One graph's triple loss and its entity and relation gradients.

    One product scatters the alignment term values ``align_rows``, one row
    per row of the ``align_terms`` segments.  ``corrupt`` holds the k
    corrupted tails of each directed triple, or None when the graph has
    no triple terms.  Three more walks over the triples, ``work.step`` at
    a time, continue the sums (``_scatter_onto``): the head and relation
    update ``pull - push`` with the hinges, active counts and push
    weights it fills in, then the tail update ``pull`` (weight -1),
    recomputed by the same operations, then the corrupted residuals
    (weight 2 * triple_weight where the hinge is active).  Each entity
    row thus adds its alignment terms, heads, tails and corrupted tails
    in the order one product over all of them would, so the bits are
    the same; the zero-weight terms left out would have been dropped by
    the scatter anyway.  Apart from one chunk, the walks keep only the
    O(T * k) scalars of ``work``.
    """
    g_ent = _scatter(align_rows, ents.shape[0], align_terms)
    if corrupt is None:
        return 0.0, g_ent, np.zeros_like(rels)
    hh, rr, tt = triples
    k, cw = hp.negatives, hp.triple_weight
    scratch, rows, hinge, push_w, count, step = work
    start = len(scratch) - step * k
    chunks = [slice(lo, lo + step) for lo in range(0, len(hh), step)]
    ones = np.ones(step)
    g_rel = np.zeros_like(rels)
    for c in chunks:
        hr = ents[hh[c]] + rels[rr[c]]
        resid = hr - ents[tt[c]]
        resid_neg = _corrupted_residuals(scratch[start : start + len(hr) * k], hr, ents, corrupt[c])
        d_pos = np.einsum("id,id->i", resid, resid)
        d_neg = np.einsum("ikd,ikd->ik", resid_neg, resid_neg)
        np.subtract(hp.margin + d_pos[:, None], d_neg, out=hinge[c])
        active = hinge[c] > 0.0
        push_w[c] = np.where(active, cw * 2.0, 0.0)
        count[c] = np.count_nonzero(active, axis=1)
        # einsum adds the k weighted residuals of a triple in k order, the
        # rounding of summing a materialized (2T, k, d) push over axis 1
        head = _pull(rows, resid, count[c], cw)
        head -= np.einsum("ik,ikd->id", push_w[c], resid_neg)
        _scatter_onto(g_rel, rows, rr[c], ones[: len(hr)])
        _scatter_onto(g_ent, rows, hh[c], ones[: len(hr)])
    loss = cw * float(np.maximum(hinge, 0.0).sum())

    for c in chunks:
        tail = _pull(rows, ents[hh[c]] + rels[rr[c]] - ents[tt[c]], count[c], cw)
        _scatter_onto(g_ent, rows, tt[c], -ones[: len(tail)])
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

    Each epoch draws the alignment negatives, then the source graph's
    corrupted tails, then the target graph's.  The alignment hinges and
    the source graph's alignment rows are computed a block of positives
    at a time, so the (n, k, d) negatives are never held whole.  The two
    graphs' gradients touch disjoint arrays, so ``_side_gradients`` runs
    the source graph on the calling thread and the target graph on one
    worker thread at once, bit for bit as one after the other; both are
    joined before the weights move, and the worker ends with the call.
    Besides the O(n * (k + d)) alignment arrays, working memory is
    O(T * k) scalars plus one chunk of ``TRAIN_CHUNK_CELLS`` values per
    graph, where T counts triples; it does not grow with T * d.
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
    d = model.ent_source.shape[1]
    ones = np.ones((n_pos, 1))

    trip_s = _directed_triple_arrays(pair.source)
    trip_t = _directed_triple_arrays(pair.target)
    n_terms = k * (n_pos + len(trip_s[0]) + len(trip_t[0]))
    # Every buffer is allocated here, on the calling thread: memory the
    # worker thread allocates stays in its own allocator arena when freed.
    work_s = _side_work(model.ent_source, model.rel_source, len(trip_s[0]), hp)
    work_t = _side_work(model.ent_target, model.rel_target, len(trip_t[0]), hp)
    block = max(1, TRAIN_CHUNK_CELLS // (k * d))
    hinge = np.empty((n_pos, k))
    act_w = np.empty((n_pos, k))
    act_count = np.empty(n_pos)
    rows_s = np.empty((n_pos, d))
    rows_t = np.empty((2 * n_pos, d))
    align_s = [(src_idx[:, None], ones)]

    def draw_tails(ents: np.ndarray, work: _SideWork | None) -> np.ndarray | None:
        return None if work is None else rng.integers(0, len(ents), size=work.hinge.shape)

    losses: list[float] = []
    with ThreadPoolExecutor(1) as pool:
        for _ in range(hp.epochs):
            neg = rng.integers(0, n_t, size=(n_pos, k))
            # A sampled negative equal to the true counterpart carries no
            # signal; nudge it to the next id.
            clash = neg == tgt_idx[:, None]
            neg[clash] = (neg[clash] + 1) % n_t
            corrupt_s = draw_tails(model.ent_source, work_s)
            corrupt_t = draw_tails(model.ent_target, work_t)

            su = model.ent_source[src_idx]
            tv = model.ent_target[tgt_idx]
            pos_score = np.einsum("id,id->i", su, tv)
            # one block of the (n, k, d) negatives at a time; each row's
            # values are computed from that row alone, so the bits match
            for b in (slice(lo, lo + block) for lo in range(0, n_pos, block)):
                nt = model.ent_target[neg[b]]
                np.add(gamma - pos_score[b, None], np.einsum("id,ikd->ik", su[b], nt), out=hinge[b])
                act_w[b] = np.where(hinge[b] > 0.0, w[b, None], 0.0)
                act_count[b] = act_w[b].sum(axis=1)
                rows_s[b] = -tv[b] * act_count[b, None] + np.einsum("ik,ikd->id", act_w[b], nt)
            loss_sum = float((w[:, None] * np.maximum(hinge, 0.0)).sum())
            rows_t[:n_pos] = -su * act_count[:, None]
            rows_t[n_pos:] = su

            align_t = [(tgt_idx[:, None], ones), (neg, act_w)]
            target = pool.submit(
                _side_gradients, work_t, rows_t, align_t, model.ent_target, model.rel_target,
                trip_t, hp, corrupt_t,
            )
            loss_s, g_es, g_rs = _side_gradients(
                work_s, rows_s, align_s, model.ent_source, model.rel_source, trip_s, hp, corrupt_s
            )
            loss_t, g_et, g_rt = target.result()
            loss_sum = loss_sum + loss_s + loss_t

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


def mutual_nearest(
    model: NeuralModel,
    sources: Sequence[int],
    candidates: Sequence[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source ids, target ids and clipped cosines of the pairs (s, t),
    sources ascending, where t is s's best candidate and s is t's best
    source: the highest cosine, ties to the lowest id.  Each block of
    source rows is scored once and gives its rows' bests and each
    candidate's best row so far, so no sources x candidates matrix is held."""
    src = np.sort(np.asarray(sources, dtype=np.int64))
    cand = np.sort(np.asarray(candidates, dtype=np.int64))
    if not len(src) or not len(cand):
        return src[:0], cand[:0], np.zeros(0)
    tmat = _unit_rows(model.ent_target[cand])
    row_best = np.empty(len(src), dtype=np.int64)
    col_val = np.full(len(cand), -np.inf)
    col_best = np.zeros(len(cand), dtype=np.int64)
    rows = max(1, TOP_K_BLOCK_CELLS // len(cand))
    block = np.empty((min(rows, len(src)), len(cand)))
    for start in range(0, len(src), rows):
        smat = _unit_rows(model.ent_source[src[start : start + rows]])
        scores = np.matmul(smat, tmat.T, out=block[: len(smat)])
        np.clip(scores, -1.0, 1.0, out=scores)
        row_best[start : start + rows] = scores.argmax(axis=1)
        top = scores.max(axis=0)
        arg = (scores == top).argmax(axis=0)  # scores.argmax(axis=0) would copy the block
        better = top > col_val  # strictly: an earlier block holds the lower source ids
        col_val[better] = top[better]
        col_best[better] = start + arg[better]
    mutual = np.flatnonzero(col_best[row_best] == np.arange(len(src)))
    return src[mutual], cand[row_best[mutual]], col_val[row_best[mutual]]


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
