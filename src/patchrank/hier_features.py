"""Commit-level and per-file similarity features.

A commit's long diff is represented hierarchically: the file diffs most
lexically relevant to the CVE are selected with BM25, and their embedding
vectors are aggregated three ways (max cosine over the top five, cosine of
the top one, cosine with the mean of the top two).

:class:`~patchrank.ranker.FeatureAssembler` computes these for a CVE's
candidates in array passes with :func:`cosine` and :func:`mean_cosine`; the
per-commit functions here are the references it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import CommitRecord, CveRecord
from .embedding import VectorStore
from .lexical import InvertedIndex, rank_files_within_commit


@dataclass(frozen=True)
class HierConfig:
    """How many top-ranked files the max cosine pools; fixed by default,
    configurable for ablation runs."""

    max_pool_files: int = 5


DEFAULT_HIER_CONFIG = HierConfig()


def cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine of unit vectors along the last axis, batched over the others:
    the float64 sum of their float64 products, ``(a.astype(f8) * b.astype(f8))
    .sum(-1)``. A pair of rows gives the same bits alone as in any batch."""
    return np.multiply(a, b, dtype=np.float64).sum(-1)


def mean_cosine(query: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Cosine of ``query`` with the float32 mean ``(first + second) / 2``, as
    ``np.mean`` gives it, whose norm is taken by the :func:`cosine` rule;
    0.0 where that mean is zero."""
    mean = (first + second) / np.float32(2)
    norm = np.sqrt(cosine(mean, mean))
    return np.divide(cosine(query, mean), norm, out=np.zeros(np.shape(norm)), where=norm > 0.0)


def _top_file_vectors(
    store: VectorStore,
    file_index: InvertedIndex,
    cve: CveRecord,
    commit: CommitRecord,
    limit: int,
) -> list[np.ndarray]:
    ranked = rank_files_within_commit(file_index, cve, commit.commit_id)
    return [store.file_vector(*doc_id) for doc_id, _ in ranked[:limit]]


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
    return max(float(cosine(query, v)) for v in vectors)


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
    return float(cosine(store.cve_vector(cve.cve_id), vectors[0]))


def feature_mean_top2_cosine(
    store: VectorStore,
    file_index: InvertedIndex,
    cve: CveRecord,
    commit: CommitRecord,
) -> float:
    """Cosine with the mean of the top-two file vectors."""
    vectors = _top_file_vectors(store, file_index, cve, commit, 2)
    if not vectors:
        return 0.0
    query = store.cve_vector(cve.cve_id)
    if len(vectors) == 1:
        return float(cosine(query, vectors[0]))
    return float(mean_cosine(query, *vectors))
