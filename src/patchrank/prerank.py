"""Candidate pre-ranking: BM25 over messages and diffs fused with
reserve/publish time affinity via a weighted sum of reciprocal ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Corpus, CveRecord
from .lexical import InvertedIndex, RankedList, query

DEFAULT_WEIGHTS = (0.35, 0.15, 0.3, 0.2)
DEFAULT_CANDIDATE_K = 10_000

COMPONENT_NAMES = ("msg", "diff", "reserve", "publish")


@dataclass(frozen=True)
class FusionConfig:
    """Weights for (message BM25, diff BM25, reserve time, publish time)."""

    weights: tuple[float, float, float, float] = DEFAULT_WEIGHTS
    candidate_k: int = DEFAULT_CANDIDATE_K

    def __post_init__(self) -> None:
        if len(self.weights) != 4:
            raise ValueError(f"expected 4 fusion weights, got {len(self.weights)}")
        if any(w < 0 for w in self.weights):
            raise ValueError(f"fusion weights must be non-negative: {self.weights}")
        if self.candidate_k < 1:
            raise ValueError(f"candidate_k must be >= 1, got {self.candidate_k}")


def reciprocal_rank_transform(ranked: RankedList) -> dict:
    """Map each doc to 1/rank (1-based); absent docs are treated as 0."""
    return {doc_id: 1.0 / rank for rank, (doc_id, _) in enumerate(ranked, start=1)}


def _time_rank_map(corpus: Corpus, cve_time: int | None) -> dict[str, float]:
    if cve_time is None or not corpus.commits:
        return {}
    insert_at = corpus.insertion_position(cve_time)
    # Equal distances are broken by ascending commit_id before ranks are
    # assigned, keeping the transform deterministic.
    order = sorted(
        range(len(corpus)),
        key=lambda i: (abs(i - insert_at), corpus.commits[i].commit_id),
    )
    return {
        corpus.commits[i].commit_id: 1.0 / rank for rank, i in enumerate(order, start=1)
    }


def prerank_components(
    corpus: Corpus,
    cve: CveRecord,
    msg_index: InvertedIndex,
    diff_index: InvertedIndex,
    config: FusionConfig = FusionConfig(),
) -> dict[str, dict[str, float]]:
    """Per-component reciprocal-rank maps keyed by COMPONENT_NAMES.

    BM25 lists are truncated at candidate_k before the transform; a missing
    reserve/publish timestamp yields an identically-zero component.
    """
    return {
        "msg": reciprocal_rank_transform(query(msg_index, cve.description, config.candidate_k)),
        "diff": reciprocal_rank_transform(query(diff_index, cve.description, config.candidate_k)),
        "reserve": _time_rank_map(corpus, cve.reserve_time),
        "publish": _time_rank_map(corpus, cve.publish_time),
    }


def fuse_components(
    corpus: Corpus,
    components: dict[str, dict[str, float]],
    config: FusionConfig = FusionConfig(),
) -> RankedList:
    w_msg, w_diff, w_res, w_pub = config.weights
    fused = {
        commit_id: (
            w_msg * components["msg"].get(commit_id, 0.0)
            + w_diff * components["diff"].get(commit_id, 0.0)
            + w_res * components["reserve"].get(commit_id, 0.0)
            + w_pub * components["publish"].get(commit_id, 0.0)
        )
        for commit_id in corpus.commit_ids
    }
    ordered = sorted(fused.items(), key=lambda kv: (-kv[1], kv[0]))
    return ordered[: config.candidate_k]


def prerank_candidates(
    corpus: Corpus,
    cve: CveRecord,
    msg_index: InvertedIndex,
    diff_index: InvertedIndex,
    config: FusionConfig = FusionConfig(),
) -> RankedList:
    """Every commit scored by the weighted reciprocal-rank sum, top-k kept."""
    components = prerank_components(corpus, cve, msg_index, diff_index, config)
    return fuse_components(corpus, components, config)
