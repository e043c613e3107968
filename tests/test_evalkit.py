"""Metric, difficulty-score, and train/test split tests."""

from __future__ import annotations

import json
import math
import random

import pytest

from patchrank.evalkit import (
    DifficultyScore,
    RepoSummary,
    difficulty,
    evaluate_rankings,
    mrr,
    ndcg_at_k,
    recall_at_k,
    split_by_repo,
)

from oracles import mrr_oracle, ndcg_oracle, recall_oracle


def ranked_list(docs):
    return [(doc, float(len(docs) - i)) for i, doc in enumerate(docs)]


def random_instance(rng: random.Random, max_docs: int = 200):
    n = rng.randrange(1, max_docs + 1)
    docs = [f"d{i}" for i in range(n)]
    rng.shuffle(docs)
    relevant = set(rng.sample(docs, rng.randrange(1, min(n, 8) + 1)))
    if rng.random() < 0.3:
        relevant.add("unranked-doc")
    return ranked_list(docs), relevant


class TestMrr:
    def test_relevant_at_rank_one(self):
        assert mrr(ranked_list(["a", "b"]), {"a"}) == 1.0

    def test_first_relevant_at_rank_four(self):
        assert mrr(ranked_list(["x", "y", "z", "a"]), {"a"}) == 0.25

    def test_no_relevant_ranked(self):
        assert mrr(ranked_list(["x", "y"]), {"absent"}) == 0.0


class TestRecall:
    def test_single_relevant_found(self):
        assert recall_at_k(ranked_list(["a"] + [f"x{i}" for i in range(20)]), {"a"}, 10) == 1.0

    def test_half_found(self):
        ranked = ranked_list(["a"] + [f"x{i}" for i in range(20)] + ["b"])
        assert recall_at_k(ranked, {"a", "b"}, 10) == 0.5

    def test_monotone_in_k(self):
        rng = random.Random(5)
        ranked, relevant = random_instance(rng)
        values = [recall_at_k(ranked, relevant, k) for k in range(1, len(ranked) + 1)]
        assert values == sorted(values)

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k(ranked_list(["a"]), set(), 5)


class TestNdcg:
    def test_single_relevant_at_rank_one(self):
        assert ndcg_at_k(ranked_list(["a", "b"]), {"a"}, 10) == 1.0

    def test_single_relevant_at_rank_two(self):
        value = ndcg_at_k(ranked_list(["x", "a"]), {"a"}, 10)
        assert value == pytest.approx(1.0 / math.log2(3.0))
        assert value == pytest.approx(0.6309, abs=1e-4)

    def test_relevant_below_k(self):
        assert ndcg_at_k(ranked_list(["x", "y", "a"]), {"a"}, 2) == 0.0

    def test_in_unit_interval(self):
        rng = random.Random(6)
        for _ in range(50):
            ranked, relevant = random_instance(rng)
            for k in (1, 5, 50):
                assert 0.0 <= ndcg_at_k(ranked, relevant, k) <= 1.0


class TestOracleAgreement:
    def test_metrics_match_brute_force_on_random_instances(self):
        rng = random.Random(99)
        for _ in range(50):
            ranked, relevant = random_instance(rng)
            for k in (1, 3, 10, 100):
                assert recall_at_k(ranked, relevant, k) == pytest.approx(
                    recall_oracle(ranked, relevant, k), abs=1e-9
                )
                assert ndcg_at_k(ranked, relevant, k) == pytest.approx(
                    ndcg_oracle(ranked, relevant, k), abs=1e-9
                )
            assert mrr(ranked, relevant) == pytest.approx(mrr_oracle(ranked, relevant), abs=1e-9)

    def test_mrr_at_least_inverse_k_implies_hit_in_top_k(self):
        rng = random.Random(13)
        for _ in range(100):
            ranked, relevant = random_instance(rng)
            value = mrr(ranked, relevant)
            for k in (1, 5, 20):
                if value >= 1.0 / k:
                    assert recall_at_k(ranked, relevant, k) > 0.0


class TestDifficulty:
    def test_perfect_metrics_give_1_3(self):
        metrics = {"mrr": 1.0, "recall@100": 1.0, "recall@500": 1.0, "recall@1000": 1.0}
        score = difficulty(metrics, commit_count=10000)
        assert score.value == pytest.approx(1.3)
        assert score.adjusted == pytest.approx(1.3)

    def test_all_zero_metrics(self):
        metrics = {"mrr": 0.0, "recall@100": 0.0, "recall@500": 0.0, "recall@1000": 0.0}
        assert difficulty(metrics, commit_count=10).value == 0.0

    def test_size_cutoff_boundary(self):
        metrics = {"mrr": 0.5, "recall@100": 0.2, "recall@500": 0.4, "recall@1000": 0.6}
        at_cutoff = difficulty(metrics, commit_count=5000)
        below_cutoff = difficulty(metrics, commit_count=4999)
        assert at_cutoff.adjusted == at_cutoff.value
        assert below_cutoff.adjusted == pytest.approx(
            below_cutoff.value / math.log(100 + 4999)
        )


def repo(repo_id, cve_count, adjusted):
    return RepoSummary(
        repo_id=repo_id,
        cve_count=cve_count,
        difficulty=DifficultyScore(value=adjusted, adjusted=adjusted),
    )


class TestSplitByRepo:
    def test_fraction_selects_expected_count(self):
        repos = [repo(f"r{i}", 5, adjusted=i / 10) for i in range(10)]
        train, test = split_by_repo(repos, 0.3, seed=1)
        assert len(test) == 3
        assert train | test == {f"r{i}" for i in range(10)}
        assert not train & test

    def test_most_difficult_go_to_test(self):
        repos = [repo("easy", 5, 0.1), repo("hard", 5, 0.9), repo("mid", 5, 0.5)]
        _, test = split_by_repo(repos, 0.34, seed=0)
        assert test == {"hard"}

    def test_difficulty_tie_broken_by_cve_count(self):
        repos = [repo("few", 2, 0.5), repo("many", 9, 0.5), repo("other", 1, 0.1)]
        _, test = split_by_repo(repos, 0.34, seed=0)
        assert test == {"many"}

    def test_same_seed_same_split(self):
        repos = [repo(f"r{i}", i, 0.5) for i in range(8)]
        assert split_by_repo(repos, 0.25, seed=42) == split_by_repo(repos, 0.25, seed=42)

    def test_too_few_repos_rejected(self):
        with pytest.raises(ValueError):
            split_by_repo([repo("only", 1, 0.5)], 0.5, seed=0)

    def test_bad_fraction_rejected(self):
        repos = [repo("a", 1, 0.5), repo("b", 1, 0.5)]
        for fraction in (0.0, 1.0, -0.2, 5.0):
            with pytest.raises(ValueError):
                split_by_repo(repos, fraction, seed=0)


class TestEvaluateRankings:
    def test_macro_is_unweighted_mean(self):
        rankings = {
            "CVE-1": ranked_list(["a", "b"]),
            "CVE-2": ranked_list(["x", "b"]),
        }
        relevant = {"CVE-1": {"a"}, "CVE-2": {"b"}}
        report = evaluate_rankings(rankings, relevant, metric_ks=(1, 2))
        assert report.per_cve["CVE-1"]["mrr"] == 1.0
        assert report.per_cve["CVE-2"]["mrr"] == 0.5
        assert report.macro["mrr"] == pytest.approx(0.75)

    def test_json_and_table_render(self):
        rankings = {"CVE-1": ranked_list(["a", "b"])}
        report = evaluate_rankings(rankings, {"CVE-1": {"b"}}, metric_ks=(1, 2))
        parsed = json.loads(json.dumps(report.to_json_obj()))
        assert "macro" in parsed and "per_cve" in parsed
        table = report.to_table()
        assert "CVE-1" in table and "MACRO" in table and "recall@2" in table
