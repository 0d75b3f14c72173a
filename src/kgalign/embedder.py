"""Training-free entity features in one space shared by both graphs.

Every labeled pair is an anchor.  It draws one anchor vector, and its
source entity and its target entity both start from that vector times
the pair's confidence (LightEA, Mao et al., EMNLP 2022).  Each graph
then mixes its features along its own edges with personalized-PageRank
steps (APPNP, Gasteiger et al., ICLR 2019), so an entity takes on the
anchors near it, and two entities whose neighbourhoods hold the same
anchors end up with close features.  Scoring is plain cosine similarity,
and ranking sorts only the few cells at or above a cheap lower bound on
each source's k-th best score.

The anchor vectors come from the generator kept on the model, so a fixed
seed reproduces the features bit for bit.  The neighbour mean walks a
graph's directed adjacency a block of whole entities at a time, and the
propagation steps of a graph with n entities run in two n x d buffers
that swap roles, beside the start features times TELEPORT.  So a graph's
propagation holds three n x d arrays plus one block of
``TRAIN_CHUNK_CELLS`` values, whatever the triple count or the number of
steps.  Ranking holds one buffer of ``TOP_K_BLOCK_CELLS`` scores and
a bool mask of the same shape, allocated once per call, whatever the
source or candidate count.
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
    """Scales ``mat``'s rows to unit length in place and returns it; a row
    whose norm is 0 becomes 0."""
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    np.divide(mat, norms, out=mat, where=norms > 0.0)
    mat[norms[:, 0] == 0.0] = 0.0
    return mat


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
# than that forms a block of its own; a block's edge sums and means take
# at most as much again.  2^15 float64 values are 256 KB, so a block's
# gathered rows stay in a core's L2 cache.  On graphs of 5,000 and 20,882
# entities at d = 64 (a 2-core x86-64 host with 2 MB of L2 per core),
# 2^15 and 2^16 ran fastest; a 2 MB block of 2^18 values ran 1.4x slower
# per call, and 2^19 2.6x.
TRAIN_CHUNK_CELLS = 1 << 15

# Score cells (sources x candidates) one block of ``top_k`` or
# ``mutual_nearest`` holds; the row count follows from the candidate count,
# so memory stays flat as the target side grows.  Each call allocates its
# block once, 4 MB at 2^19, beside one bool mask of the same shape.
# Median of 15 ``top_k`` and ``mutual_nearest`` calls on a 4,250 x 4,500
# ranking at k = 10 (joint-iso5000-rank, seed 407) and a 4,500 x 4,500
# matching, on the host above:
#   2^18: 72 ms, 90 ms    2^19: 65 ms, 85 ms    2^20: 64 ms, 85 ms
# 2^20 ran within 2% of 2^19 at twice the memory; the rankings were the
# same at every size, with scores within 4.5e-16.
TOP_K_BLOCK_CELLS = 1 << 19

# Column groups per ranked place in ``top_k``.  More groups give a tighter
# bound on each row's k-th score, so fewer cells pass it, at the cost of a
# longer partition of the group maxima.  Median of 15 calls on the ranking
# above, where about 11.6 cells per row pass at 16:
#   4: 67 ms    8: 62 ms    16: 61 ms    32: 61 ms    64: 62 ms
TOP_K_GROUPS_PER_K = 16


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


def _neighbour_mean(adj: DirectedAdjacency, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row e is the mean of ``z`` over e's directed edges, parallel edges
    counted once each, or 0 when e has no edge.  Written to ``out`` when
    given, whatever it held before; it must not be ``z``."""
    indptr, nbr = adj.indptr, adj.nbr
    degree = np.diff(indptr)
    if out is None:
        out = np.empty_like(z)
    out[degree == 0] = 0.0
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


def _propagate(adj: DirectedAdjacency, x: np.ndarray, epochs: int, losses: np.ndarray) -> np.ndarray:
    """The unit rows of ``epochs`` steps from start ``x``, which is
    overwritten; adds each step's L1 change to ``losses``.

    Two n x d buffers swap roles each step and TELEPORT * x is formed
    once, so a step holds three n x d arrays beside one neighbour-mean
    block."""
    restart = TELEPORT * x
    z, spare = x, np.empty_like(x)
    for step in range(epochs):
        nxt = _neighbour_mean(adj, z, out=spare)
        nxt *= 1.0 - TELEPORT
        nxt += restart
        # the L1 change, taken in the buffer the next step overwrites
        losses[step] += np.abs(np.subtract(nxt, z, out=z), out=z).sum()
        z, spare = nxt, z
    del restart, spare  # freed before the row norms' temporary
    return _unit_rows(z)


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
    # the old features go before the new ones are built
    model.ent_source = model.ent_target = None  # type: ignore[assignment]
    model.ent_source = _propagate(
        pair.source.directed_adj, _anchor_start(src, anchors, pair.source.n_entities), hp.epochs, losses
    )
    model.ent_target = _propagate(
        pair.target.directed_adj, _anchor_start(tgt, anchors, pair.target.n_entities), hp.epochs, losses
    )
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
    order.  Scores come from one matrix product per block of source rows.
    The columns fall into c = min(TOP_K_GROUPS_PER_K * k, n) groups of
    every c-th column, and the k-th largest group max is a lower bound on
    the row's k-th score, as k distinct cells reach it.  Only the cells
    at or above the bound are clipped, and one stable sort by (row,
    -score) orders them; an exact tie at the cut keeps the lowest ids.
    """
    if len(candidates) == 0:
        raise ValueError("candidate set must be non-empty")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cand = np.sort(np.asarray(candidates, dtype=np.int64))
    src = np.asarray(sources, dtype=np.int64)
    n, k = len(cand), min(k, len(cand))
    tmat = _unit_rows(model.ent_target[cand])
    cols = np.empty((len(src), k), dtype=np.int64)
    vals = np.empty((len(src), k), dtype=np.float64)
    rows = max(1, TOP_K_BLOCK_CELLS // n)
    block = np.empty((min(rows, len(src)), n))
    near = np.empty(block.shape, dtype=np.bool_)
    # group j holds columns j, j + c, j + 2c, ...; the n % c columns past
    # the last whole stride join no group, which only loosens the bound
    groups = min(TOP_K_GROUPS_PER_K * k, n)
    whole = n - n % groups
    steps = np.arange(k)
    for start in range(0, len(src), rows):
        smat = _unit_rows(model.ent_source[src[start : start + rows]])
        m = len(smat)
        scores = np.matmul(smat, tmat.T, out=block[:m])
        peaks = scores[:, :whole].reshape(m, -1, groups).max(axis=1)
        peaks.partition(groups - k, axis=1)
        # clip(s) >= clip(bound), read on the unclipped scores
        bound = np.minimum(peaks[:, groups - k], 1.0)
        bound[bound <= -1.0] = -np.inf
        at = np.flatnonzero(np.greater_equal(scores, bound[:, None], out=near[:m]))
        row, col = np.divmod(at, n)
        top = np.clip(scores.reshape(-1)[at], -1.0, 1.0)
        # a row's cells come by ascending column, so by target id, and the
        # sort is stable; every row holds at least k of them
        order = np.lexsort((-top, row))
        count = np.bincount(row, minlength=m)
        pick = order[(np.cumsum(count) - count)[:, None] + steps]
        cols[start : start + m] = col[pick]
        vals[start : start + m] = top[pick]
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
    is_top = np.empty(block.shape, dtype=np.bool_)
    for start in range(0, len(src), rows):
        smat = _unit_rows(model.ent_source[src[start : start + rows]])
        scores = np.matmul(smat, tmat.T, out=block[: len(smat)])
        np.clip(scores, -1.0, 1.0, out=scores)
        row_best[start : start + rows] = scores.argmax(axis=1)
        top = scores.max(axis=0)
        # scores.argmax(axis=0) would copy the block
        arg = np.equal(scores, top, out=is_top[: len(smat)]).argmax(axis=0)
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
