"""Candidate pre-ranking: BM25 over messages and diffs fused with
reserve/publish time affinity via a weighted sum of reciprocal ranks.

The components and their fusion are array code over corpus positions. Every
ranking breaks ties by ascending commit id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, CveRecord
from .lexical import InvertedIndex, RankedList, top_k
from .settings import COMPONENT_NAMES, DEFAULT_CANDIDATE_K, DEFAULT_WEIGHTS, check_fusion


@dataclass(frozen=True)
class FusionConfig:
    """Weights for (message BM25, diff BM25, reserve time, publish time)."""

    weights: tuple[float, float, float, float] = DEFAULT_WEIGHTS
    candidate_k: int = DEFAULT_CANDIDATE_K

    def __post_init__(self) -> None:
        check_fusion(weights=self.weights, candidate_k=self.candidate_k)


def _reciprocals(n: int) -> np.ndarray:
    """1/rank for the 1-based ranks 1 to ``n``."""
    return 1.0 / np.arange(1, n + 1)


def prerank_components(
    corpus: Corpus,
    cve: CveRecord,
    msg_index: InvertedIndex,
    diff_index: InvertedIndex,
    config: FusionConfig = FusionConfig(),
) -> np.ndarray:
    """Each commit's reciprocal rank (1-based) in each component, a row per
    corpus position and a column per COMPONENT_NAMES entry; 0.0 where the
    component does not rank the commit.

    The documents of both indexes are the corpus's commits. Their BM25 lists
    are truncated at candidate_k. A time component ranks every commit by its
    distance from the timestamp's insertion point; a missing timestamp
    yields an identically-zero column.
    """
    out = np.zeros((len(corpus), len(COMPONENT_NAMES)))
    for column, index in enumerate((msg_index, diff_index)):
        docs, _ = top_k(index, cve.description, config.candidate_k)
        out[corpus.id_order[docs], column] = _reciprocals(len(docs))
    for column, cve_time in ((2, cve.reserve_time), (3, cve.publish_time)):
        if cve_time is not None:
            distance = np.abs(np.arange(len(corpus)) - corpus.insertion_position(cve_time))
            out[np.lexsort((corpus.id_ranks, distance)), column] = _reciprocals(len(corpus))
    return out


def fuse_components(
    corpus: Corpus, components: np.ndarray, config: FusionConfig = FusionConfig()
) -> tuple[np.ndarray, np.ndarray]:
    """The corpus positions of the top candidate_k commits by fused score, the
    weighted sum of their :func:`prerank_components` row, and those scores."""
    w_msg, w_diff, w_res, w_pub = config.weights
    msg, diff, res, pub = components.T
    # Summed left to right, as a scalar w_msg * msg + ... would be.
    fused = w_msg * msg + w_diff * diff + w_res * res + w_pub * pub
    top = np.lexsort((corpus.id_ranks, -fused))[: config.candidate_k]
    return top, fused[top]


def prerank_candidates(
    corpus: Corpus,
    cve: CveRecord,
    msg_index: InvertedIndex,
    diff_index: InvertedIndex,
    config: FusionConfig = FusionConfig(),
) -> RankedList:
    """Every commit scored by the weighted reciprocal-rank sum, top-k kept."""
    components = prerank_components(corpus, cve, msg_index, diff_index, config)
    positions, scores = fuse_components(corpus, components, config)
    return [(corpus.commits[p].commit_id, s) for p, s in zip(positions.tolist(), scores.tolist())]
