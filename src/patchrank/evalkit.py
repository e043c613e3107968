"""Ranking metrics, the repository difficulty score, and repo-disjoint
train/test splitting."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from hashlib import blake2b
from typing import TYPE_CHECKING, Iterable, Mapping

from .settings import DEFAULT_METRIC_KS

if TYPE_CHECKING:
    from .lexical import RankedList

# Repositories at or above this commit count use the raw difficulty score;
# smaller ones are damped by ln(100 + #commits).
DIFFICULTY_SIZE_CUTOFF = 5000


def mrr(ranked: RankedList, relevant: set) -> float:
    """Reciprocal rank of the first relevant document; 0 when none is ranked."""
    for position, (doc_id, _) in enumerate(ranked, start=1):
        if doc_id in relevant:
            return 1.0 / position
    return 0.0


def recall_at_k(ranked: RankedList, relevant: set, k: int) -> float:
    """Fraction of relevant documents found in the top k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    top = {doc_id for doc_id, _ in ranked[:k]}
    return len(top & relevant) / len(relevant)


def ndcg_at_k(ranked: RankedList, relevant: set, k: int) -> float:
    """Binary-relevance NDCG with gain 2^rel - 1 and 1/log2(1+pos) discount."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    dcg = sum(
        1.0 / math.log2(position + 1)
        for position, (doc_id, _) in enumerate(ranked[:k], start=1)
        if doc_id in relevant
    )
    ideal = sum(1.0 / math.log2(position + 1) for position in range(1, min(len(relevant), k) + 1))
    return dcg / ideal


@dataclass(frozen=True)
class DifficultyScore:
    value: float
    adjusted: float


def difficulty(repo_eval: Mapping[str, float], commit_count: int) -> DifficultyScore:
    """Repository difficulty from its pre-ranker metrics.

    value = MRR + 0.1 * (Recall@100 + Recall@500 + Recall@1000); repositories
    under the size cutoff are additionally divided by ln(100 + #commits).
    """
    value = repo_eval["mrr"] + 0.1 * (
        repo_eval["recall@100"] + repo_eval["recall@500"] + repo_eval["recall@1000"]
    )
    if commit_count < DIFFICULTY_SIZE_CUTOFF:
        adjusted = value / math.log(100 + commit_count)
    else:
        adjusted = value
    return DifficultyScore(value=value, adjusted=adjusted)


@dataclass(frozen=True)
class RepoSummary:
    repo_id: str
    cve_count: int
    difficulty: DifficultyScore


def split_by_repo(
    repos: Iterable[RepoSummary], test_fraction: float, seed: int
) -> tuple[set[str], set[str]]:
    """Partition repositories into disjoint train and test sets.

    The test set takes the repositories with the highest adjusted difficulty,
    then the most CVEs; remaining ties fall back to a seeded hash.
    """
    repos = list(repos)
    if len(repos) < 2:
        raise ValueError(f"need at least 2 repositories to split, got {len(repos)}")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")

    def tie_hash(repo_id: str) -> str:
        return blake2b(
            repo_id.encode("utf-8"), digest_size=8, key=seed.to_bytes(8, "little", signed=True)
        ).hexdigest()

    ordered = sorted(
        repos,
        key=lambda r: (-r.difficulty.adjusted, -r.cve_count, tie_hash(r.repo_id), r.repo_id),
    )
    n_test = min(max(round(len(repos) * test_fraction), 1), len(repos) - 1)
    test = {r.repo_id for r in ordered[:n_test]}
    train = {r.repo_id for r in ordered[n_test:]}
    return train, test


@dataclass
class EvalReport:
    """Per-CVE metrics plus their unweighted (macro) means."""

    per_cve: dict[str, dict[str, float]]
    macro: dict[str, float]
    metric_ks: tuple[int, ...] = DEFAULT_METRIC_KS

    def to_json_obj(self) -> dict:
        return {
            "macro": {k: self.macro[k] for k in sorted(self.macro)},
            "per_cve": {
                cve: {k: metrics[k] for k in sorted(metrics)}
                for cve, metrics in sorted(self.per_cve.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)

    def to_table(self) -> str:
        if not self.per_cve:
            return "no CVEs evaluated"
        columns = ["mrr"] + [f"recall@{k}" for k in self.metric_ks] + [
            f"ndcg@{k}" for k in self.metric_ks
        ]
        name_width = max([len("cve_id"), len("MACRO")] + [len(c) for c in self.per_cve])
        header = "cve_id".ljust(name_width) + "".join(c.rjust(13) for c in columns)
        lines = [header, "-" * len(header)]
        for cve in sorted(self.per_cve):
            metrics = self.per_cve[cve]
            lines.append(
                cve.ljust(name_width) + "".join(f"{metrics[c]:13.4f}" for c in columns)
            )
        lines.append("-" * len(header))
        lines.append("MACRO".ljust(name_width) + "".join(f"{self.macro[c]:13.4f}" for c in columns))
        return "\n".join(lines)


def evaluate_rankings(
    rankings: Mapping[str, RankedList],
    relevant: Mapping[str, set],
    metric_ks: tuple[int, ...] = DEFAULT_METRIC_KS,
) -> EvalReport:
    """Score one ranking per CVE against its relevant-document set."""
    per_cve: dict[str, dict[str, float]] = {}
    for cve_id, ranked in rankings.items():
        rel = relevant[cve_id]
        metrics = {"mrr": mrr(ranked, rel)}
        for k in metric_ks:
            metrics[f"recall@{k}"] = recall_at_k(ranked, rel, k)
            metrics[f"ndcg@{k}"] = ndcg_at_k(ranked, rel, k)
        per_cve[cve_id] = metrics
    if per_cve:
        keys = next(iter(per_cve.values())).keys()
        macro = {key: sum(m[key] for m in per_cve.values()) / len(per_cve) for key in keys}
    else:
        macro = {}
    return EvalReport(per_cve=per_cve, macro=macro, metric_ks=metric_ks)
