"""Feature assembly and the listwise learning-to-rank model.

The nine per-(CVE, commit) features are combined by a gradient-boosted
tree ensemble trained with LambdaRank: pairwise logistic gradients
weighted by the NDCG@k change of swapping the pair. The tree learner is
histogram-based with best-first leaf growth, capped by ``num_leaves``
and ``min_data_in_leaf``. Training is deterministic for a fixed seed and
models serialize to a versioned JSON tree dump.
"""

from __future__ import annotations

import heapq
import json
import logging
import random
from dataclasses import dataclass, field
from hashlib import blake2b
from itertools import accumulate, count
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import Corpus, CveRecord, expect
from .embedding import MissingVectorError, VectorStore, embed_batch
from .hier_features import DEFAULT_HIER_CONFIG, cosine, mean_cosine
from .lexical import InvertedIndex, RankedList, _score_array
from .path_features import (
    DEFAULT_PER_ENTITY_CAP,
    commit_paths,
    extract_entities,
    feature_jaccard,
    path_text,
    search_paths,
)

logger = logging.getLogger(__name__)

FEATURE_NAMES = (
    "commit_cosine",
    "max_file_similarity",
    "top1_file_cosine",
    "mean_top2_cosine",
    "diff_bm25",
    "reserve_distance",
    "publish_distance",
    "path_jaccard",
    "path_cosine",
)
NUM_FEATURES = len(FEATURE_NAMES)

DEFAULT_HARD_NEGATIVES = 500
DEFAULT_RANDOM_NEGATIVES = 500

# Path texts missing from the assembler's memo are embedded this many at a
# time: a provider answers with Python float lists (~8 KB per 256-d vector),
# and one call for a few hundred texts would raise featurize's peak RSS.
PATH_EMBED_BATCH = 64
# Candidates per array pass: ~3 KB per gathered vector at d = 256, up to six
# per candidate, so a CVE's thousands of candidates add ~2 MB to the peak.
MATRIX_CHUNK = 128

_MODEL_MAGIC = "patchrank-model"
_MODEL_VERSION = 1

# Fixed learner settings; the model metadata records the first three.
_L2_REGULARIZATION = 1.0
_MAX_BINS = 64
_NDCG_TRUNCATION = 10
_EARLY_STOP_PATIENCE = 10


class TrainingDataError(ValueError):
    """Training input cannot produce a model (empty, degenerate, bad params)."""


class MissingFeatureError(KeyError):
    def __init__(self, cve_id: str, commit_id: str):
        super().__init__(f"no feature row for ({cve_id}, {commit_id})")
        self.cve_id = cve_id
        self.commit_id = commit_id


def _derive_seed(seed: int, name: str) -> int:
    key = seed.to_bytes(8, "little", signed=True)
    return int.from_bytes(blake2b(name.encode("utf-8"), digest_size=8, key=key).digest(), "big")


class FeatureAssembler:
    """Computes the nine-feature rows for one CVE and a batch of commits.

    Each commit's store rows, documents and path set are looked up once, and
    a store lacking a commit or file vector raises MissingVectorError. Each
    :meth:`matrix` call scores the CVE once against the diff and file indexes
    and fills the rows with array operations. Per-CVE path search is cached,
    and each distinct path set reaches the provider once per assembler.
    """

    def __init__(
        self,
        corpus: Corpus,
        store: VectorStore,
        diff_index: InvertedIndex,
        file_index: InvertedIndex,
        provider,
        *,
        per_entity_cap: int = DEFAULT_PER_ENTITY_CAP,
    ):
        self.corpus = corpus
        self.store = store
        self.diff_index = diff_index
        self.file_index = file_index
        self.per_entity_cap = per_entity_cap
        self._provider = provider
        self._cve_cache: dict[str, tuple[set[str], set[str]]] = {}
        commits = corpus.commits
        self._commit_paths = [commit_paths(commit) for commit in commits]
        self._path_texts = [path_text(paths) if paths else None for paths in self._commit_paths]
        self._universe = set().union(*self._commit_paths)
        # By corpus position: store rows, the diff document and the file documents,
        # contiguous as the file index's documents ascend by (commit id, path).
        rows = store.rows
        try:
            self._commit_rows = np.array([rows[("commit", c.commit_id)] for c in commits], np.intp)
            self._doc_rows = np.array([rows[("file", *doc)] for doc in file_index.docs], np.intp)
        except KeyError as exc:
            raise MissingVectorError(exc.args[0]) from None
        diff_docs = {commit_id: i for i, commit_id in enumerate(diff_index.docs)}
        self._diff_docs = np.array([diff_docs[c.commit_id] for c in commits], dtype=np.intp)
        counts = {commit_id: len(paths) for commit_id, paths in file_index.commit_files.items()}
        starts = dict(zip(counts, accumulate(counts.values(), initial=0)))
        self._file_starts = np.array([starts.get(c.commit_id, 0) for c in commits], dtype=np.intp)
        self._file_counts = np.array([counts.get(c.commit_id, 0) for c in commits], dtype=np.intp)
        # The provider's normalized path-set vectors, a row per path_text() in _path_rows.
        self._path_rows: dict[str, int] = {}
        self._path_vectors = np.empty((0, 0), dtype=np.float32)  # replaced on first use

    def entities_for(self, cve: CveRecord) -> set[str]:
        return self._cve_state(cve)[0]

    def ner_paths_for(self, cve: CveRecord) -> set[str]:
        return self._cve_state(cve)[1]

    def _cve_state(self, cve: CveRecord) -> tuple[set[str], set[str]]:
        state = self._cve_cache.get(cve.cve_id)
        if state is None:
            entities = extract_entities(cve.description)
            ner_paths = search_paths(self._universe, entities, self.per_entity_cap)
            state = (entities, ner_paths)
            self._cve_cache[cve.cve_id] = state
        return state

    def _hier_columns(self, query: np.ndarray, file_scores, positions: np.ndarray) -> np.ndarray:
        """Commit cosine, max over the top five files, top-1 file cosine and
        cosine with the mean of the top two, the files ranked by their
        ``file_scores`` as :func:`~patchrank.lexical.rank_files_within_commit`
        ranks them; 0.0 for the file columns of a commit without files."""
        out = np.zeros((len(positions), 4))
        out[:, 0] = cosine(self.store.matrix[self._commit_rows[positions]], query)
        # One entry per (candidate, file document), grouped by candidate. Sorting
        # by score descending, then document position (path order), keeps the
        # groups in place, so an entry's rank is its offset in its group.
        counts = self._file_counts[positions]
        owner = np.repeat(np.arange(len(positions)), counts)
        offset = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
        docs = np.repeat(self._file_starts[positions], counts) + offset
        docs = docs[np.lexsort((docs, -file_scores[docs], owner))]
        pool = offset < DEFAULT_HIER_CONFIG.max_pool_files
        docs, owner, rank = docs[pool], owner[pool], offset[pool]
        vectors = self.store.matrix[self._doc_rows[docs]]
        cosines = cosine(vectors, query)
        top1 = np.flatnonzero(rank == 0)
        out[owner[top1], 1] = np.maximum.reduceat(cosines, top1)
        out[owner[top1], 2] = out[owner[top1], 3] = cosines[top1]
        pairs = top1[counts[owner[top1]] > 1]
        out[owner[pairs], 3] = mean_cosine(query, vectors[pairs], vectors[pairs + 1])
        return out

    def _path_cosines(self, ner_paths: set[str], positions: np.ndarray) -> np.ndarray:
        """Cosine of the NER path set with each commit's path set; 0.0 when
        either set is empty. Texts missing from the memo are embedded in
        batches of PATH_EMBED_BATCH."""
        if not ner_paths:
            return np.zeros(len(positions))
        query_text = path_text(ner_paths)
        texts = [self._path_texts[p] for p in positions.tolist()]
        wanted = dict.fromkeys([query_text, *texts])
        missing = [t for t in wanted if t is not None and t not in self._path_rows]
        if missing:
            batches = range(0, len(missing), PATH_EMBED_BATCH)
            new = [embed_batch(self._provider, missing[i : i + PATH_EMBED_BATCH]) for i in batches]
            stacked = [self._path_vectors, *new] if self._path_rows else new
            self._path_vectors = np.concatenate(stacked)
            self._path_rows.update(zip(missing, count(len(self._path_rows))))
        rows = np.array([self._path_rows.get(text, -1) for text in texts], dtype=np.intp)
        query = self._path_vectors[self._path_rows[query_text]]
        out = np.empty(len(positions))
        for start in range(0, len(rows), MATRIX_CHUNK):
            part = rows[start : start + MATRIX_CHUNK]
            cosines = cosine(self._path_vectors[part], query)
            out[start : start + len(part)] = np.where(part >= 0, cosines, 0.0)  # -1: no path set
        return out

    def matrix(self, cve: CveRecord, commit_ids: Sequence[str]) -> np.ndarray:
        """Feature rows for ``commit_ids``, in that order."""
        positions = np.array([self.corpus.position_of(c) for c in commit_ids], dtype=np.intp)
        ner_paths = self.ner_paths_for(cve)
        query = self.store.cve_vector(cve.cve_id)
        file_scores = _score_array(self.file_index, cve.description)
        rows = np.empty((len(commit_ids), NUM_FEATURES), dtype=np.float64)
        for start in range(0, len(positions), MATRIX_CHUNK):
            part = slice(start, start + MATRIX_CHUNK)
            rows[part, :4] = self._hier_columns(query, file_scores, positions[part])
        rows[:, 4] = _score_array(self.diff_index, cve.description)[self._diff_docs[positions]]
        for column, cve_time in ((5, cve.reserve_time), (6, cve.publish_time)):
            # Without a timestamp, a distance beyond any real commit, not perfect affinity.
            at = None if cve_time is None else self.corpus.insertion_position(cve_time)
            rows[:, column] = len(self.corpus) if at is None else np.abs(positions - at)
        rows[:, 7] = [feature_jaccard(ner_paths, self._commit_paths[p]) for p in positions.tolist()]
        rows[:, 8] = self._path_cosines(ner_paths, positions)
        return rows


@dataclass
class TrainingRow:
    commit_id: str
    relevance: int
    features: np.ndarray | None = None


@dataclass
class TrainingGroup:
    cve_id: str
    rows: list[TrainingRow] = field(default_factory=list)


def sample_training_group(
    cve: CveRecord,
    prerank_list: RankedList,
    corpus: Corpus,
    seed: int,
    *,
    hard_negatives: int = DEFAULT_HARD_NEGATIVES,
    random_negatives: int = DEFAULT_RANDOM_NEGATIVES,
) -> TrainingGroup | None:
    """Known patches plus hard (top pre-ranked) and random negatives.

    Returns None with a warning when the CVE has no patch in the corpus.
    The random draw is seeded per CVE, so resampling is reproducible.
    """
    positives = sorted(pid for pid in cve.known_patch_ids if pid in corpus)
    if not positives:
        logger.warning("skipping %s: no known patch commit in corpus", cve.cve_id)
        return None
    positive_set = set(positives)
    hard = [doc for doc, _ in prerank_list[:hard_negatives] if doc not in positive_set]
    remaining = sorted(set(corpus.commit_ids) - positive_set - set(hard))
    rng = random.Random(_derive_seed(seed, cve.cve_id))
    randoms = rng.sample(remaining, min(random_negatives, len(remaining)))
    rows = [TrainingRow(commit_id=c, relevance=1) for c in positives]
    rows += [TrainingRow(commit_id=c, relevance=0) for c in hard]
    rows += [TrainingRow(commit_id=c, relevance=0) for c in randoms]
    return TrainingGroup(cve_id=cve.cve_id, rows=rows)


@dataclass(frozen=True)
class RankerParams:
    learning_rate: float = 0.1
    num_leaves: int = 31
    min_data_in_leaf: int = 20
    num_trees: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_trees < 1:
            raise TrainingDataError(f"num_trees must be >= 1, got {self.num_trees}")
        if self.learning_rate <= 0:
            raise TrainingDataError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.num_leaves < 2:
            raise TrainingDataError(f"num_leaves must be >= 2, got {self.num_leaves}")
        if self.min_data_in_leaf < 1:
            raise TrainingDataError(
                f"min_data_in_leaf must be >= 1, got {self.min_data_in_leaf}"
            )
        # _derive_seed keys blake2b with the seed as 8 signed bytes.
        if not -(2**63) <= self.seed < 2**63:
            raise TrainingDataError(f"seed must be in [-2**63, 2**63), got {self.seed}")


@dataclass
class RankModel:
    """Boosted regression-tree ensemble over the nine features."""

    learning_rate: float
    trees: list[dict]
    metadata: dict

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        scores = np.zeros(len(features), dtype=np.float64)
        for tree in self.trees:
            scores += self.learning_rate * _predict_tree(tree, features)
        return scores

    def to_json_obj(self) -> dict:
        return {
            "magic": _MODEL_MAGIC,
            "version": _MODEL_VERSION,
            "learning_rate": self.learning_rate,
            "metadata": self.metadata,
            "trees": self.trees,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: str | Path) -> "RankModel":
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(obj, dict) or obj.get("magic") != _MODEL_MAGIC:
            raise ValueError(f"{path}: not a patchrank model file")
        if obj.get("version") != _MODEL_VERSION:
            raise ValueError(f"{path}: unsupported model version {obj.get('version')}")
        try:
            model = cls(_NUMBER(obj["learning_rate"]), obj["trees"], obj["metadata"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: learning_rate: {exc}") from exc
        if not isinstance(model.metadata, dict):
            raise ValueError(f"{path}: metadata is not an object")
        names = model.metadata.get("feature_names")
        if names != list(FEATURE_NAMES):
            raise ValueError(f"{path}: unexpected feature order {names}")
        for t, tree in enumerate(model.trees):
            nodes = tree["nodes"]
            if not isinstance(nodes, list) or not nodes:
                raise ValueError(f"{path}: tree {t} has no node list")
            for node_id, node in enumerate(nodes):
                try:
                    _check_node(node, node_id, len(nodes))
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{path}: tree {t} node {node_id}: {exc}") from exc
        return model


_NUMBER = expect(float)


def _check_node(node, node_id: int, count: int) -> None:
    """Raise unless ``node`` is a leaf with a finite value or a split on a
    known feature at a finite threshold whose children follow it in the node
    list, as ``_grow_tree`` appends them, so that every path ends at a leaf."""
    if not isinstance(node, dict):
        raise TypeError("not an object")
    if "value" in node:
        _NUMBER(node["value"])
        return
    feature = node.get("feature")
    if type(feature) is not int or not 0 <= feature < NUM_FEATURES:
        raise ValueError(f"feature index {feature!r} out of range")
    _NUMBER(node.get("threshold"))
    children = (node.get("left"), node.get("right"))
    if not all(type(child) is int and node_id < child < count for child in children):
        raise ValueError(f"child index {children} out of range")


def _predict_tree(tree: dict, features: np.ndarray) -> np.ndarray:
    nodes = tree["nodes"]
    out = np.zeros(len(features), dtype=np.float64)
    stack: list[tuple[int, np.ndarray]] = [(0, np.arange(len(features)))]
    while stack:
        node_id, rows = stack.pop()
        if rows.size == 0:
            continue
        node = nodes[node_id]
        if "value" in node:
            out[rows] = node["value"]
            continue
        goes_left = features[rows, node["feature"]] <= node["threshold"]
        stack.append((node["left"], rows[goes_left]))
        stack.append((node["right"], rows[~goes_left]))
    return out


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
            candidates = np.unique(values)
            if len(candidates) > max_bins:
                quantiles = np.quantile(values, np.linspace(0.0, 1.0, max_bins + 1)[1:-1])
                candidates = np.unique(quantiles)
            self.thresholds.append(candidates)
            self.binned[:, f] = np.searchsorted(candidates, values, side="left")


@dataclass
class _LeafSplit:
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


def _group_slices(groups: Sequence[TrainingGroup]) -> list[tuple[int, int]]:
    slices = []
    start = 0
    for group in groups:
        slices.append((start, start + len(group.rows)))
        start += len(group.rows)
    return slices


def _ranked_positions(scores: np.ndarray) -> np.ndarray:
    """1-based position of each row when sorted by descending score,
    ties broken by row order."""
    order = np.lexsort((np.arange(len(scores)), -scores))
    positions = np.empty(len(scores), dtype=np.int64)
    positions[order] = np.arange(1, len(scores) + 1)
    return positions


def _ndcg_of_scores(scores: np.ndarray, labels: np.ndarray, k: int) -> float:
    positions = _ranked_positions(scores)
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


def train_lambdarank(
    groups: Sequence[TrainingGroup], params: RankerParams = RankerParams()
) -> RankModel:
    """Fit the boosted ensemble on per-group LambdaRank gradients.

    Boosting stops early once mean training NDCG stops improving for
    ``_EARLY_STOP_PATIENCE`` rounds; the model keeps the best round's trees.
    """
    groups = [g for g in groups if g.rows]
    if not groups:
        raise TrainingDataError("no training groups")
    for group in groups:
        for row in group.rows:
            if row.features is None or len(row.features) != NUM_FEATURES:
                raise TrainingDataError(
                    f"group {group.cve_id}: row {row.commit_id} lacks a "
                    f"{NUM_FEATURES}-feature vector"
                )
    if all(len({row.relevance for row in g.rows}) < 2 for g in groups):
        raise TrainingDataError("every group is degenerate (uniform relevance)")

    features = np.vstack([row.features for g in groups for row in g.rows]).astype(np.float64)
    labels = np.array([row.relevance for g in groups for row in g.rows], dtype=np.int8)
    slices = _group_slices(groups)

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
        "num_groups": len(groups),
    }
    return RankModel(learning_rate=params.learning_rate, trees=kept, metadata=metadata)


def score_and_rerank(
    model: RankModel,
    cve: CveRecord,
    candidates: RankedList,
    features: Mapping[str, np.ndarray],
) -> RankedList:
    """Reorder pre-ranked candidates by model score, descending.

    Ties keep the pre-rank order (not the usual doc-id order): the model
    is a refinement of the candidate list, so equal scores defer to it.
    """
    if not candidates:
        return []
    commit_ids = [doc_id for doc_id, _ in candidates]
    try:
        matrix = np.vstack([features[c] for c in commit_ids])
    except KeyError as exc:
        raise MissingFeatureError(cve.cve_id, exc.args[0]) from None
    scores = model.predict(matrix)
    order = np.lexsort((np.arange(len(scores)), -scores))
    return [(commit_ids[i], float(scores[i])) for i in order]
