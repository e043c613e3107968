"""Commit-level and per-file similarity features.

A commit's long diff is represented hierarchically: the file diffs most
lexically relevant to the CVE are selected with BM25, and their embedding
vectors are aggregated three ways (max cosine over the top five, cosine of
the top one, cosine with the mean of the top two).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import CommitRecord, CveRecord
from .embedding import VectorStore
from .lexical import InvertedIndex, RankedList, rank_files_within_commit


@dataclass(frozen=True)
class HierConfig:
    """File counts for the three aggregations; fixed defaults, configurable
    for ablation runs."""

    max_pool_files: int = 5
    mean_pool_files: int = 2


DEFAULT_HIER_CONFIG = HierConfig()


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    # Stored vectors are unit-normalized, so the dot product suffices.
    return float(np.dot(a, b))


def _top_file_vectors(
    store: VectorStore,
    file_index: InvertedIndex,
    cve: CveRecord,
    commit: CommitRecord,
    limit: int,
) -> list[np.ndarray]:
    ranked = rank_files_within_commit(file_index, cve, commit.commit_id)
    return [store.file_vector(*doc_id) for doc_id, _ in ranked[:limit]]


def feature_commit_cosine(store: VectorStore, cve_id: str, commit_id: str) -> float:
    """Cosine between the CVE vector and the whole-commit vector."""
    return _cosine(store.cve_vector(cve_id), store.commit_vector(commit_id))


def feature_max_file_sim(
    store: VectorStore,
    file_index: InvertedIndex,
    cve: CveRecord,
    commit: CommitRecord,
    config: HierConfig = DEFAULT_HIER_CONFIG,
) -> float:
    """Max cosine with the CVE over the top BM25-ranked file diffs."""
    vectors = _top_file_vectors(store, file_index, cve, commit, config.max_pool_files)
    if not vectors:
        return 0.0
    query = store.cve_vector(cve.cve_id)
    return max(_cosine(query, v) for v in vectors)


def feature_top1_file_cosine(
    store: VectorStore,
    file_index: InvertedIndex,
    cve: CveRecord,
    commit: CommitRecord,
) -> float:
    """Cosine with the single best BM25-ranked file diff."""
    vectors = _top_file_vectors(store, file_index, cve, commit, 1)
    if not vectors:
        return 0.0
    return _cosine(store.cve_vector(cve.cve_id), vectors[0])


def feature_mean_top2_cosine(
    store: VectorStore,
    file_index: InvertedIndex,
    cve: CveRecord,
    commit: CommitRecord,
    config: HierConfig = DEFAULT_HIER_CONFIG,
) -> float:
    """Cosine with the mean of the top-two file vectors."""
    vectors = _top_file_vectors(store, file_index, cve, commit, config.mean_pool_files)
    if not vectors:
        return 0.0
    query = store.cve_vector(cve.cve_id)
    if len(vectors) == 1:
        return _cosine(query, vectors[0])
    return _mean_cosine(query, vectors)


def _mean_cosine(query: np.ndarray, vectors: list[np.ndarray]) -> float:
    mean = np.mean(vectors, axis=0)
    norm = np.linalg.norm(mean)
    if norm == 0.0:
        return 0.0
    return float(np.dot(query, mean) / norm)


def hier_features(
    store: VectorStore,
    query: np.ndarray,
    commit_id: str,
    ranked_files: RankedList,
    config: HierConfig = DEFAULT_HIER_CONFIG,
) -> tuple[float, float, float, float]:
    """All four features for one commit, given the CVE vector ``query`` and
    the commit's BM25 file ranking (:func:`~patchrank.lexical.rank_files_within_commit`
    order)."""
    commit_cosine = _cosine(query, store.commit_vector(commit_id))
    if not ranked_files:
        return commit_cosine, 0.0, 0.0, 0.0
    vectors = [store.file_vector(*doc_id) for doc_id, _ in ranked_files[: config.max_pool_files]]
    cosines = [_cosine(query, v) for v in vectors]
    pool = vectors[: config.mean_pool_files]
    mean_cosine = cosines[0] if len(pool) == 1 else _mean_cosine(query, pool)
    return commit_cosine, max(cosines), cosines[0], mean_cosine
