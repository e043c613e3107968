"""patchrank: rank a repository's commits by likelihood of fixing a CVE.

Pipeline: lexical + time-affinity pre-ranking over the full history,
nine similarity features for the surviving candidates (whole-commit and
per-file embedding cosines, BM25, commit-distance to the CVE timestamps,
and path overlap), then a LambdaRank tree ensemble for the final order.

The public names below are imported from their modules on first use
(PEP 562), so that importing a submodule, as each CLI stage does, does not
load the others.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_HOMES = {
    name: module
    for module, names in {
        "corpus": """CommitRecord Corpus CveRecord FileDiff ingest_commit_dump
            ingest_multi_repo_dump load_cve_dump split_diff_by_file tokenize
            truncate_to_tokens""",
        "embedding": """HttpEmbedder OfflineEmbedder PromptKind VectorStore build_vectors
            embed_batch offline_embed render_prompt""",
        "evalkit": """DifficultyScore EvalReport RepoSummary difficulty evaluate_rankings
            mrr ndcg_at_k recall_at_k split_by_repo""",
        "hier_features": """FeatureAssembler HierConfig feature_max_file_sim
            feature_mean_top2_cosine feature_top1_file_cosine""",
        "lexical": "InvertedIndex build_index query rank_files_within_commit",
        "path_features": "extract_entities feature_jaccard search_paths",
        "prerank": "FusionConfig prerank_candidates",
        "ranker": "RankerParams RankModel TrainingSet sample_training_group train_lambdarank",
        "settings": "FEATURE_NAMES",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOMES.keys())
