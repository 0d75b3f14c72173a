"""Training-free entity features in one space shared by both graphs.

Every labeled pair is an anchor.  It draws one anchor vector, and its
source entity and its target entity both start from that vector times
the pair's confidence (LightEA, Mao et al., EMNLP 2022).  Each graph
then mixes its features along its own edges with personalized-PageRank
steps (APPNP, Gasteiger et al., ICLR 2019), so an entity takes on the
anchors near it, and two entities whose neighbourhoods hold the same
anchors end up with close features.  Scoring is plain cosine similarity.

The anchor vectors come from the generator kept on the model, so a fixed
seed reproduces the features bit for bit.  The neighbour mean walks a
graph's directed adjacency a block of whole entities at a time, so the
working memory is O(n * d) for n entities plus one block of
``TRAIN_CHUNK_CELLS`` values, whatever the triple count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .graph import DirectedAdjacency, KnowledgeGraphPair, is_one_to_one


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
        if self.origin is Origin.NEURAL and not is_one_to_one(self.src, self.tgt):
            raise ValueError("neural pseudo-labels must be one-to-one")

    def __len__(self) -> int:
        return len(self.src)


@dataclass(frozen=True)
class Hyperparams:
    dim: int = 64
    epochs: int = 10  # propagation steps per round

    def validate(self) -> None:
        if self.dim < 2:
            raise ValueError(f"embedding dimension must be >= 2, got {self.dim}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


@dataclass
class NeuralModel:
    """Both graphs' entity features and the generator of anchor vectors."""

    ent_source: np.ndarray
    ent_target: np.ndarray
    hyperparams: Hyperparams
    rng: np.random.Generator = field(repr=False, default=None)  # type: ignore[assignment]


@dataclass
class TrainReport:
    """Per propagation step, the L1 change of both graphs' features."""

    epoch_losses: list[float]

    @property
    def final(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else 0.0


def _unit_rows(mat: np.ndarray) -> np.ndarray:
    """``mat`` with unit rows; a zero row stays zero."""
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    return np.divide(mat, norms, out=np.zeros_like(mat), where=norms > 0.0)


def init_model(pair: KnowledgeGraphPair, hyperparams: Hyperparams, seed: int) -> NeuralModel:
    """Zero features, which label nothing, and the seeded anchor generator."""
    hyperparams.validate()
    d = hyperparams.dim
    return NeuralModel(
        ent_source=np.zeros((pair.source.n_entities, d)),
        ent_target=np.zeros((pair.target.n_entities, d)),
        hyperparams=hyperparams,
        rng=np.random.default_rng(seed),
    )


# Share of the start features that each propagation step mixes back in.
TELEPORT = 0.2

# Gathered values (directed edges x dimension) one block of the neighbour
# mean holds.  A block takes whole entities, so an entity with more edges
# than that forms a block of its own.  2^15 float64 values are 256 KB, so
# a block's gathered rows stay in a core's L2 cache.  On graphs of 5,000
# and 20,882 entities at d = 64 (a 2-core x86-64 host with 2 MB of L2 per
# core), 2^15 and 2^16 ran fastest; a 2 MB block of 2^18 values ran 1.4x
# slower per call, and 2^19 2.6x.
TRAIN_CHUNK_CELLS = 1 << 15

# Score cells (sources x candidates) one block of ``top_k`` or
# ``mutual_nearest`` holds; the row count follows from the candidate count,
# so memory stays flat as the target side grows.  ``top_k`` also holds the
# partitioned copy of a block while it reads each row's k-th score, and
# that pair sets the ranking's peak.
TOP_K_BLOCK_CELLS = 1 << 21


def _anchor_vectors(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n anchor vectors of width d: the thin Q, with R's diagonal
    positive, of one Gaussian draw of shape (max(n, d), min(n, d)).
    That is orthonormal rows when n <= d, so their inner products are
    exact, and orthonormal columns, a random projection, when n > d.

    Q comes from Cholesky QR done twice, A <- A R^-1 with R^T R = A^T A:
    the first pass leaves A near orthonormal, the second removes what
    rounding left.  That needs the draw's condition number far below 1e8,
    which a Gaussian draw meets with overwhelming probability.
    Two Gram products and two small factorizations replace LAPACK's
    Householder QR, whose many small BLAS calls each wait on every BLAS
    thread."""
    a = rng.normal(size=(max(n, d), min(n, d)))
    for _ in range(2):
        a = a @ np.linalg.inv(np.linalg.cholesky(a.T @ a)).T
    return a.T if n <= d else a


def _anchor_start(ids: np.ndarray, anchors: np.ndarray, n_entities: int) -> np.ndarray:
    """Row e is the sum of the anchor rows i with ``ids[i] == e``."""
    start = np.zeros((n_entities, anchors.shape[1]))
    np.add.at(start, ids, anchors)
    return start


def _neighbour_mean(adj: DirectedAdjacency, z: np.ndarray) -> np.ndarray:
    """Row e is the mean of ``z`` over e's directed edges, parallel edges
    counted once each, or 0 when e has no edge."""
    indptr, nbr = adj.indptr, adj.nbr
    degree = np.diff(indptr)
    out = np.zeros_like(z)
    per_block = max(1, TRAIN_CHUNK_CELLS // z.shape[1])
    lo, n = 0, len(degree)
    while lo < n:
        # the most whole entities whose edges fit one block, at least one
        hi = max(lo + 1, int(np.searchsorted(indptr, indptr[lo] + per_block, "right")) - 1)
        rows = lo + np.flatnonzero(degree[lo:hi])
        if len(rows):
            a = indptr[lo]
            sums = np.add.reduceat(z[nbr[a : indptr[hi]]], indptr[rows] - a, axis=0)
            out[rows] = sums / degree[rows, None]
        lo = hi
    return out


def train(
    model: NeuralModel,
    pair: KnowledgeGraphPair,
    positives: PseudoLabelSet | Sequence[PseudoLabelSet],
) -> TrainReport:
    """Recompute both graphs' features from the labeled pairs; returns the
    L1 feature change of each propagation step.

    The rows of the label sets, concatenated in the order given, are the
    n anchors; a pair listed twice is two anchors.  Anchor i draws vector
    P[i] (``_anchor_vectors``, from ``model.rng``), and each graph's start
    X holds at entity e the sum of conf[i] * P[i] over the anchors at e.
    Each of ``epochs`` steps then sets, on each graph,
    Z <- (1 - TELEPORT) * (mean of Z over e's directed edges) + TELEPORT * X,
    from Z = X.  The features are Z with unit rows; an entity no anchor
    reaches keeps a zero row, whose cosine with anything is 0.
    """
    hp = model.hyperparams
    sets = [positives] if isinstance(positives, PseudoLabelSet) else list(positives)
    src, tgt, conf = (np.concatenate([getattr(ls, col) for ls in sets]) for col in ("src", "tgt", "conf"))
    anchors = conf[:, None] * _anchor_vectors(model.rng, len(conf), hp.dim)
    losses = np.zeros(hp.epochs)
    features = []
    for ids, graph in ((src, pair.source), (tgt, pair.target)):
        x = z = _anchor_start(ids, anchors, graph.n_entities)
        for step in range(hp.epochs):
            nxt = (1.0 - TELEPORT) * _neighbour_mean(graph.directed_adj, z) + TELEPORT * x
            losses[step] += np.abs(nxt - z).sum()
            z = nxt
        features.append(_unit_rows(z))
    model.ent_source, model.ent_target = features
    return TrainReport(epoch_losses=losses.tolist())


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
    order.  Scores come from one matrix product per block of source rows,
    and ``np.partition`` gives each row's k-th best score.  A row with
    exactly k scores at or above it keeps those columns; a row with more,
    an exact tie at the cut, re-selects among them by (score, id) so the
    cut keeps the lowest ids of the tie.
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
        # copied out, since a view would keep the partitioned block alive
        kth = np.partition(scores, len(cand) - k, axis=1)[:, len(cand) - k, None].copy()
        near = scores >= kth
        tied = np.count_nonzero(near, axis=1) > k
        part = np.empty((len(scores), k), dtype=np.int64)
        # an untied row's mask holds exactly its k columns
        part[~tied] = np.flatnonzero(near[~tied]).reshape(-1, k) % len(cand)
        for r in np.flatnonzero(tied):
            # columns ascend with target id, so a stable sort keeps id order
            at_cut = np.flatnonzero(near[r])
            part[r] = at_cut[np.argsort(-scores[r, at_cut], kind="stable")[:k]]
        del near  # else it lives on beside the next block's partitioned copy
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
