"""patchrank: rank a repository's commits by likelihood of fixing a CVE.

Pipeline: lexical + time-affinity pre-ranking over the full history,
nine similarity features for the surviving candidates (whole-commit and
per-file embedding cosines, BM25, commit-distance to the CVE timestamps,
and path overlap), then a LambdaRank tree ensemble for the final order.
"""

from .corpus import (
    CommitRecord,
    Corpus,
    CveRecord,
    FileDiff,
    ingest_commit_dump,
    ingest_multi_repo_dump,
    load_cve_dump,
    split_diff_by_file,
    tokenize,
    truncate_to_tokens,
)
from .embedding import (
    HttpEmbedder,
    OfflineEmbedder,
    PromptKind,
    VectorStore,
    build_vectors,
    embed_batch,
    offline_embed,
    render_prompt,
)
from .evalkit import (
    DifficultyScore,
    EvalReport,
    RepoSummary,
    difficulty,
    evaluate_rankings,
    mrr,
    ndcg_at_k,
    recall_at_k,
    split_by_repo,
)
from .hier_features import (
    HierConfig,
    feature_max_file_sim,
    feature_mean_top2_cosine,
    feature_top1_file_cosine,
)
from .lexical import InvertedIndex, build_index, query, rank_files_within_commit
from .path_features import (
    extract_entities,
    feature_jaccard,
    path_universe,
    search_paths,
)
from .prerank import FusionConfig, prerank_candidates, reciprocal_rank_transform
from .ranker import (
    FEATURE_NAMES,
    FeatureAssembler,
    RankerParams,
    RankModel,
    TrainingGroup,
    TrainingRow,
    sample_training_group,
    score_and_rerank,
    train_lambdarank,
)

__version__ = "0.1.0"

__all__ = [
    "CommitRecord",
    "Corpus",
    "CveRecord",
    "DifficultyScore",
    "EvalReport",
    "FEATURE_NAMES",
    "FeatureAssembler",
    "FileDiff",
    "FusionConfig",
    "HierConfig",
    "HttpEmbedder",
    "InvertedIndex",
    "OfflineEmbedder",
    "PromptKind",
    "RankModel",
    "RankerParams",
    "RepoSummary",
    "TrainingGroup",
    "TrainingRow",
    "VectorStore",
    "build_index",
    "build_vectors",
    "difficulty",
    "embed_batch",
    "evaluate_rankings",
    "extract_entities",
    "feature_jaccard",
    "feature_max_file_sim",
    "feature_mean_top2_cosine",
    "feature_top1_file_cosine",
    "ingest_commit_dump",
    "ingest_multi_repo_dump",
    "load_cve_dump",
    "mrr",
    "ndcg_at_k",
    "offline_embed",
    "path_universe",
    "prerank_candidates",
    "query",
    "rank_files_within_commit",
    "recall_at_k",
    "reciprocal_rank_transform",
    "render_prompt",
    "sample_training_group",
    "score_and_rerank",
    "search_paths",
    "split_by_repo",
    "split_diff_by_file",
    "tokenize",
    "train_lambdarank",
    "truncate_to_tokens",
]
