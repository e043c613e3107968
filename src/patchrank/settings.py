"""The default and the bounds of every pipeline setting, and the column names
of the pre-rank component and feature matrices, each written once.

The layers take their defaults and checks from here, and so does
``pipeline``, which checks a config file's values at load time. This module
imports no other part of patchrank, so that a stage reads and checks its
config without loading the layers it does not run.
"""

from __future__ import annotations

# embedding
DEFAULT_OFFLINE_DIMENSION = 256
DEFAULT_BATCH_SIZE = 64
DEFAULT_MAX_RETRIES = 3
DEFAULT_COMMIT_TOKEN_BUDGET = 512
DEFAULT_FILE_TOKEN_BUDGET = 512
# lexical and prerank
DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
DEFAULT_WEIGHTS = (0.35, 0.15, 0.3, 0.2)
DEFAULT_CANDIDATE_K = 10_000
# path_features and ranker
DEFAULT_PER_ENTITY_CAP = 10
DEFAULT_HARD_NEGATIVES = 500
DEFAULT_RANDOM_NEGATIVES = 500
DEFAULT_LEARNING_RATE = 0.1
DEFAULT_NUM_LEAVES = 31
DEFAULT_MIN_DATA_IN_LEAF = 20
DEFAULT_NUM_TREES = 100
# evalkit
DEFAULT_METRIC_KS = (10, 100, 1000, 5000)

COMPONENT_NAMES = ("msg", "diff", "reserve", "publish")
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


def check_dimension(offline_dimension: int) -> None:
    """Reject an offline embedding dimension below 8."""
    if offline_dimension < 8:
        raise ValueError(f"embedding dimension must be >= 8, got {offline_dimension}")


def check_bm25(*, k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> None:
    """Reject BM25 parameters outside ``k1 >= 0`` and ``0 <= b <= 1``."""
    if not (k1 >= 0 and 0 <= b <= 1):
        raise ValueError(f"BM25 needs k1 >= 0 and 0 <= b <= 1, got k1={k1}, b={b}")


def check_pool(max_pool_files: int) -> None:
    """Reject a file pool of fewer than one file."""
    if max_pool_files < 1:
        raise ValueError(f"max_pool_files must be >= 1, got {max_pool_files}")


def check_fusion(*, weights=DEFAULT_WEIGHTS, candidate_k: int = DEFAULT_CANDIDATE_K) -> None:
    """Reject other than four non-negative fusion weights, or a candidate_k below 1."""
    if len(weights) != 4:
        raise ValueError(f"expected 4 fusion weights, got {len(weights)}")
    if any(w < 0 for w in weights):
        raise ValueError(f"fusion weights must be non-negative: {weights}")
    if candidate_k < 1:
        raise ValueError(f"candidate_k must be >= 1, got {candidate_k}")


def check_ranker(
    *,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    num_leaves: int = DEFAULT_NUM_LEAVES,
    min_data_in_leaf: int = DEFAULT_MIN_DATA_IN_LEAF,
    num_trees: int = DEFAULT_NUM_TREES,
    seed: int = 0,
) -> None:
    """Reject LambdaRank settings that cannot train a model."""
    if num_trees < 1:
        raise ValueError(f"num_trees must be >= 1, got {num_trees}")
    if learning_rate <= 0:
        raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
    if num_leaves < 2:
        raise ValueError(f"num_leaves must be >= 2, got {num_leaves}")
    if min_data_in_leaf < 1:
        raise ValueError(f"min_data_in_leaf must be >= 1, got {min_data_in_leaf}")
    # The ranker keys blake2b with the seed as 8 signed bytes.
    if not -(2**63) <= seed < 2**63:
        raise ValueError(f"seed must be in [-2**63, 2**63), got {seed}")
