"""Training the listwise re-ranker: each CVE's training group, sampled by
corpus position, the LambdaRank input of ``training.bin`` (:class:`TrainingSet`),
and the boosted tree learner that fits a :class:`~patchrank.ranker.RankModel`.

The tree learner is histogram-based with best-first leaf growth, capped by
``num_leaves`` and ``min_data_in_leaf``; each tree fits pairwise logistic
gradients weighted by the NDCG@k change of swapping the pair. Training is
deterministic for a fixed seed. Only the stages that sample or train import
this module: ``rank``, and ``trace`` with a fresh model, never do.
"""

from __future__ import annotations

import heapq
import logging
import random
from hashlib import blake2b
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .container import Record, set_field
from .corpus import Corpus, CveRecord, InputError
from .ranker import RankModel, _predict_tree
from .settings import (
    DEFAULT_HARD_NEGATIVES,
    DEFAULT_LEARNING_RATE,
    DEFAULT_MIN_DATA_IN_LEAF,
    DEFAULT_NUM_LEAVES,
    DEFAULT_NUM_TREES,
    DEFAULT_RANDOM_NEGATIVES,
    FEATURE_NAMES,
    NUM_FEATURES,
    check_ranker,
)

logger = logging.getLogger(__name__)

# Fixed learner settings; the model metadata records the first three.
_L2_REGULARIZATION = 1.0
_MAX_BINS = 64
_NDCG_TRUNCATION = 10
_EARLY_STOP_PATIENCE = 10


class TrainingDataError(ValueError, InputError):
    """Training input cannot produce a model (empty, degenerate, bad params)."""


def _derive_seed(seed: int, name: str) -> int:
    key = seed.to_bytes(8, "little", signed=True)
    return int.from_bytes(blake2b(name.encode("utf-8"), digest_size=8, key=key).digest(), "big")


class TrainingSet(NamedTuple):
    """The LambdaRank input, by the sections of ``training.bin``: group ``g``,
    the sampled rows of CVE ``cve_ids[g]``, is rows ``offsets[g]`` to
    ``offsets[g + 1]``, and row ``r`` is commit ``commit_ids[r]``, its
    ``int8`` relevance and its ``float64`` feature row, in FEATURE_NAMES order."""

    cve_ids: list[str]
    offsets: np.ndarray
    commit_ids: list[str]
    relevance: np.ndarray
    features: np.ndarray

    @classmethod
    def of_groups(
        cls, groups: Iterable[tuple[str, list[str], np.ndarray, np.ndarray]]
    ) -> TrainingSet:
        """The set of ``groups``, in order, each a CVE id and its rows' commit
        ids, relevance and feature rows."""
        cve_ids, commit_ids = [], []
        relevance, features = [np.empty(0, np.int8)], [np.empty((0, NUM_FEATURES))]
        for cve_id, ids, labels, rows in groups:
            cve_ids.append(cve_id)
            commit_ids += ids
            relevance.append(labels)
            features.append(rows)
        offsets = np.cumsum([0, *map(len, relevance[1:])], dtype=np.int64)
        return cls(cve_ids, offsets, commit_ids, np.concatenate(relevance), np.concatenate(features))


def sample_training_group(
    cve: CveRecord,
    preranked: Sequence[int],
    corpus: Corpus,
    seed: int,
    *,
    hard_negatives: int = DEFAULT_HARD_NEGATIVES,
    random_negatives: int = DEFAULT_RANDOM_NEGATIVES,
) -> tuple[np.ndarray, np.ndarray] | None:
    """The corpus positions of a CVE's training group and their relevance:
    its known patches (1), in commit-id order, then as hard negatives (0) the
    non-patches among the first ``hard_negatives`` pre-ranked positions of
    ``preranked``, then up to ``random_negatives`` random negatives (0).

    Returns None with a warning when the CVE has no patch in the corpus. The
    random draw is seeded per CVE and made from the commits not yet taken, in
    commit-id order, so resampling is reproducible.
    """
    positives = [corpus.position_of(c) for c in sorted(cve.known_patch_ids) if c in corpus]
    if not positives:
        logger.warning("skipping %s: no known patch commit in corpus", cve.cve_id)
        return None
    taken = np.zeros(len(corpus), dtype=bool)
    taken[positives] = True
    hard = np.asarray(preranked[:hard_negatives], dtype=np.intp)
    hard = hard[~taken[hard]]
    taken[hard] = True
    remaining = corpus.id_order[~taken[corpus.id_order]]
    rng = random.Random(_derive_seed(seed, cve.cve_id))
    drawn = rng.sample(range(len(remaining)), min(random_negatives, len(remaining)))
    positions = np.concatenate([np.array(positives, dtype=np.intp), hard, remaining[drawn]])
    relevance = np.zeros(len(positions), dtype=np.int8)
    relevance[: len(positives)] = 1
    return positions, relevance


class RankerParams(Record):
    __slots__ = ("learning_rate", "num_leaves", "min_data_in_leaf", "num_trees", "seed")

    def __init__(
        self, learning_rate: float = DEFAULT_LEARNING_RATE, num_leaves: int = DEFAULT_NUM_LEAVES,
        min_data_in_leaf: int = DEFAULT_MIN_DATA_IN_LEAF, num_trees: int = DEFAULT_NUM_TREES,
        seed: int = 0,
    ) -> None:
        values = (learning_rate, num_leaves, min_data_in_leaf, num_trees, seed)
        try:
            check_ranker(**dict(zip(self.__slots__, values)))
        except ValueError as exc:
            raise TrainingDataError(*exc.args) from None
        for name, value in zip(self.__slots__, values):
            set_field(self, name, value)


class _Binner:
    """Per-feature candidate thresholds and integer bin ids.

    A sample with bin b goes left under cut index i iff b <= i, which is
    exactly ``value <= thresholds[i]``, so histogram splits translate to
    raw-value comparisons with no epsilon.
    """

    def __init__(self, features: np.ndarray, max_bins: int):
        self.thresholds: list[np.ndarray] = []
        self.binned = np.empty(features.shape, dtype=np.int32)
        for f in range(features.shape[1]):
            values = features[:, f]
            candidates = _distinct(values)
            if len(candidates) > max_bins:
                quantiles = _quantiles(values, np.linspace(0.0, 1.0, max_bins + 1)[1:-1])
                candidates = _distinct(quantiles)
            self.thresholds.append(candidates)
            self.binned[:, f] = np.searchsorted(candidates, values, side="left")


def _distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` of finite numbers, bit for bit: each value once,
    ascending, and a zero with the sign of the first zero in ``values``, as
    numpy's hash table keeps it. ``np.unique`` itself loads ``numpy.ma``."""
    ordered = np.sort(values)
    out = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    zeros = values == 0
    if zeros.any():
        out[out == 0] = values[np.argmax(zeros)]
    return out


def _quantiles(values: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile(values, q)`` of finite ``values`` and ``q`` in [0, 1], by
    the steps numpy takes for its default linear method, which load
    ``numpy.ma``: the same virtual indexes, the same partition and the same
    ``_lerp``, so the bits match."""
    virtual = (len(values) - 1) * q
    below = np.floor(virtual)
    above = below + 1
    below[virtual >= len(values) - 1] = above[virtual >= len(values) - 1] = -1
    below[virtual < 0] = above[virtual < 0] = 0
    below, above = below.astype(np.intp), above.astype(np.intp)
    kth = _distinct(np.concatenate(([0, -1], below, above)))
    ordered = np.partition(values, kth)
    low, gamma = ordered[below], virtual - below
    step = ordered[above] - low
    out = low + step * gamma
    np.subtract(ordered[above], step * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


class _LeafSplit(NamedTuple):
    gain: float
    feature: int
    cut_index: int


def _best_split(
    binner: _Binner,
    rows: np.ndarray,
    gradients: np.ndarray,
    hessians: np.ndarray,
    params: RankerParams,
) -> _LeafSplit | None:
    reg = _L2_REGULARIZATION
    total_g = float(gradients[rows].sum())
    total_h = float(hessians[rows].sum())
    total_n = rows.size
    parent = total_g * total_g / (total_h + reg)
    best: _LeafSplit | None = None
    for f in range(binner.binned.shape[1]):
        n_bins = len(binner.thresholds[f])
        if n_bins < 2:
            continue
        bins = binner.binned[rows, f]
        hist_n = np.bincount(bins, minlength=n_bins)
        hist_g = np.bincount(bins, weights=gradients[rows], minlength=n_bins)
        hist_h = np.bincount(bins, weights=hessians[rows], minlength=n_bins)
        left_n = np.cumsum(hist_n)[:-1]
        left_g = np.cumsum(hist_g)[:-1]
        left_h = np.cumsum(hist_h)[:-1]
        right_n = total_n - left_n
        valid = (left_n >= params.min_data_in_leaf) & (right_n >= params.min_data_in_leaf)
        if not valid.any():
            continue
        gains = np.where(
            valid,
            left_g**2 / (left_h + reg)
            + (total_g - left_g) ** 2 / (total_h - left_h + reg)
            - parent,
            -np.inf,
        )
        cut = int(np.argmax(gains))
        if best is None or gains[cut] > best.gain:
            best = _LeafSplit(gain=float(gains[cut]), feature=f, cut_index=cut)
    if best is None or best.gain <= 1e-12:
        return None
    return best


def _grow_tree(
    binner: _Binner,
    gradients: np.ndarray,
    hessians: np.ndarray,
    params: RankerParams,
) -> dict:
    reg = _L2_REGULARIZATION

    def leaf_value(rows: np.ndarray) -> float:
        return float(gradients[rows].sum() / (hessians[rows].sum() + reg))

    nodes: list[dict] = [{}]
    leaf_rows: dict[int, np.ndarray] = {0: np.arange(len(gradients))}
    heap: list[tuple[float, int, int, _LeafSplit]] = []
    counter = 0

    def consider(node_id: int) -> None:
        nonlocal counter
        split = _best_split(binner, leaf_rows[node_id], gradients, hessians, params)
        if split is not None:
            heapq.heappush(heap, (-split.gain, counter, node_id, split))
            counter += 1

    consider(0)
    n_leaves = 1
    while heap and n_leaves < params.num_leaves:
        _, _, node_id, split = heapq.heappop(heap)
        rows = leaf_rows.pop(node_id)
        goes_left = binner.binned[rows, split.feature] <= split.cut_index
        left_id, right_id = len(nodes), len(nodes) + 1
        nodes[node_id] = {
            "feature": split.feature,
            "threshold": float(binner.thresholds[split.feature][split.cut_index]),
            "left": left_id,
            "right": right_id,
        }
        nodes.append({})
        nodes.append({})
        leaf_rows[left_id] = rows[goes_left]
        leaf_rows[right_id] = rows[~goes_left]
        n_leaves += 1
        consider(left_id)
        consider(right_id)
    for node_id, rows in leaf_rows.items():
        nodes[node_id] = {"value": leaf_value(rows)}
    return {"nodes": nodes}


def _ranked_positions(scores: np.ndarray) -> np.ndarray:
    """1-based position of each row when sorted by descending score,
    ties broken by row order."""
    order = np.lexsort((np.arange(len(scores)), -scores))
    positions = np.empty(len(scores), dtype=np.int64)
    positions[order] = np.arange(1, len(scores) + 1)
    return positions


def _ndcg_of_scores(scores: np.ndarray, labels: np.ndarray, k: int) -> float:
    positions = np.argsort(np.lexsort((labels, -scores))) + 1  # a tie ranks positives last
    rel_positions = positions[labels > 0]
    dcg = float(np.sum(1.0 / np.log2(1.0 + rel_positions[rel_positions <= k])))
    n_ideal = min(int((labels > 0).sum()), k)
    idcg = float(np.sum(1.0 / np.log2(1.0 + np.arange(1, n_ideal + 1))))
    return dcg / idcg if idcg > 0 else 0.0


def _accumulate_lambdas(
    scores: np.ndarray,
    labels: np.ndarray,
    k: int,
    gradients: np.ndarray,
    hessians: np.ndarray,
) -> None:
    """Pairwise LambdaRank gradients for one group, added in place.

    For each (positive i, negative j) pair the logistic factor
    1 / (1 + exp(s_i - s_j)) is weighted by the NDCG@k swap delta; the
    accumulated per-document values are the pseudo-residuals the next
    tree fits (sigma = 1).
    """
    positives = np.flatnonzero(labels > 0)
    negatives = np.flatnonzero(labels == 0)
    if positives.size == 0 or negatives.size == 0:
        return
    positions = _ranked_positions(scores)
    discounts = np.where(positions <= k, 1.0 / np.log2(1.0 + positions), 0.0)
    n_ideal = min(positives.size, k)
    idcg = float(np.sum(1.0 / np.log2(1.0 + np.arange(1, n_ideal + 1))))
    if idcg == 0.0:
        return
    score_diff = scores[positives, None] - scores[negatives, None].T
    # Stable 1 / (1 + exp(x)) for large |x|.
    rho = np.where(
        score_diff >= 0,
        np.exp(-np.clip(score_diff, 0, None)) / (1.0 + np.exp(-np.clip(score_diff, 0, None))),
        1.0 / (1.0 + np.exp(np.clip(score_diff, None, 0))),
    )
    swap_delta = np.abs(discounts[positives, None] - discounts[negatives, None].T) / idcg
    weighted = rho * swap_delta
    np.add.at(gradients, positives, weighted.sum(axis=1))
    np.add.at(gradients, negatives, -weighted.sum(axis=0))
    hess = rho * (1.0 - rho) * swap_delta
    np.add.at(hessians, positives, hess.sum(axis=1))
    np.add.at(hessians, negatives, hess.sum(axis=0))


def train_lambdarank(training: TrainingSet, params: RankerParams = RankerParams()) -> RankModel:
    """Fit the boosted ensemble on per-group LambdaRank gradients; a group
    without rows is skipped.

    Boosting stops early once mean training NDCG stops improving for
    ``_EARLY_STOP_PATIENCE`` rounds; the model keeps the best round's trees.
    """
    bounds = training.offsets.tolist()
    slices = [(start, end) for start, end in zip(bounds, bounds[1:]) if start < end]
    if not slices:
        raise TrainingDataError("no training groups")
    features, labels = training.features, training.relevance
    if len(labels) != bounds[-1] or features.shape != (bounds[-1], NUM_FEATURES):
        raise TrainingDataError(
            f"{bounds[-1]} training rows need as many labels and {NUM_FEATURES}-feature rows, "
            f"got {len(labels)} labels and a feature matrix of shape {features.shape}"
        )
    if all((labels[start:end] == labels[start]).all() for start, end in slices):
        raise TrainingDataError("every group is degenerate (uniform relevance)")

    binner = _Binner(features, _MAX_BINS)
    scores = np.zeros(len(labels), dtype=np.float64)
    trees: list[dict] = []
    best_ndcg = -1.0
    best_round = -1
    for round_index in range(params.num_trees):
        gradients = np.zeros(len(labels), dtype=np.float64)
        hessians = np.zeros(len(labels), dtype=np.float64)
        for start, end in slices:
            _accumulate_lambdas(
                scores[start:end],
                labels[start:end],
                _NDCG_TRUNCATION,
                gradients[start:end],
                hessians[start:end],
            )
        tree = _grow_tree(binner, gradients, hessians, params)
        trees.append(tree)
        scores += params.learning_rate * _predict_tree(tree, features)
        mean_ndcg = float(
            np.mean(
                [
                    _ndcg_of_scores(scores[start:end], labels[start:end], _NDCG_TRUNCATION)
                    for start, end in slices
                ]
            )
        )
        if mean_ndcg > best_ndcg + 1e-9:
            best_ndcg = mean_ndcg
            best_round = round_index
        elif round_index - best_round >= _EARLY_STOP_PATIENCE:
            break

    kept = trees[: best_round + 1]
    metadata = {
        "feature_names": list(FEATURE_NAMES),
        "num_leaves": params.num_leaves,
        "min_data_in_leaf": params.min_data_in_leaf,
        "seed": params.seed,
        "num_trees_requested": params.num_trees,
        "num_trees_trained": len(kept),
        "l2_regularization": _L2_REGULARIZATION,
        "max_bins": _MAX_BINS,
        "ndcg_truncation": _NDCG_TRUNCATION,
        "train_ndcg": best_ndcg,
        "num_groups": len(slices),
    }
    return RankModel(learning_rate=params.learning_rate, trees=kept, metadata=metadata)
