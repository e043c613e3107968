"""Pre-ranking fusion tests with hand-computed component ranks."""

from __future__ import annotations

import pytest

from patchrank.lexical import build_index, query
from patchrank.prerank import (
    FusionConfig,
    prerank_candidates,
    reciprocal_rank_transform,
)

from conftest import cid, make_commit, make_corpus, make_cve
from oracles import time_affinity


def fixture_four_commits():
    """Each fusion component ranks a different commit first.

    Messages share the query term "alpha" with tf 3/2/1/0 at equal doc
    length, so message BM25 orders c1 > c2 > c3 and drops c4; diffs do the
    same with "beta" for c2 > c1 > c4. Timestamps 100..400 with reserve 300
    and publish 401 put c3 and c4 first on the time components.
    """
    commits = [
        make_commit(1, author_time=100, message="alpha alpha alpha", files={"f1.java": "beta beta pad0"}),
        make_commit(2, author_time=200, message="alpha alpha pad1", files={"f2.java": "beta beta beta"}),
        make_commit(3, author_time=300, message="alpha pad2 pad3", files={"f3.java": "pad4 pad5 pad6"}),
        make_commit(4, author_time=400, message="pad7 pad8 pad9", files={"f4.java": "beta pad10 pad11"}),
    ]
    corpus = make_corpus(commits)
    cve = make_cve(description="alpha beta", reserve_time=300, publish_time=401)
    return corpus, cve


class TestTimeAffinity:
    def test_commit_at_insertion_point_distance_zero(self):
        corpus = make_corpus([make_commit(i, author_time=10 * i) for i in (1, 2, 3)])
        assert time_affinity(corpus, 20, cid(2)) == 0

    def test_hand_counted_positions(self):
        corpus = make_corpus([make_commit(i, author_time=t) for i, t in enumerate([10, 20, 30, 40, 50], 1)])
        assert time_affinity(corpus, 35, cid(1)) == 3

    def test_latest_commit_when_cve_after_all(self):
        corpus = make_corpus([make_commit(i, author_time=10 * i) for i in (1, 2, 3)])
        assert time_affinity(corpus, 999, cid(3)) <= 1

    def test_unknown_commit_raises(self):
        corpus = make_corpus([make_commit(1, author_time=10)])
        with pytest.raises(KeyError):
            time_affinity(corpus, 10, cid(9))


class TestReciprocalRankTransform:
    def test_ranks_to_reciprocals(self):
        ranked = [("a", 9.0), ("b", 5.0), ("c", 3.0), ("d", 1.0)]
        rr = reciprocal_rank_transform(ranked)
        assert rr["a"] == 1.0
        assert rr["d"] == 0.25

    def test_absent_doc_is_zero(self):
        rr = reciprocal_rank_transform([("a", 1.0)])
        assert rr.get("missing", 0.0) == 0.0


class TestPrerankCandidates:
    def test_single_commit_scores_sum_of_weights(self):
        corpus = make_corpus(
            [make_commit(1, author_time=50, message="overflow fix", files={"a.java": "overflow"})]
        )
        cve = make_cve(description="overflow", reserve_time=50, publish_time=50)
        msg_index = build_index(corpus, "message")
        diff_index = build_index(corpus, "diff")
        ranked = prerank_candidates(corpus, cve, msg_index, diff_index)
        assert ranked == [(cid(1), pytest.approx(1.0))]

    def test_hand_computed_weighted_fusion(self):
        corpus, cve = fixture_four_commits()
        msg_index = build_index(corpus, "message")
        diff_index = build_index(corpus, "diff")

        # Verify the engineered component orderings hold before fusing.
        assert [d for d, _ in query(msg_index, cve.description, 4)] == [cid(1), cid(2), cid(3)]
        assert [d for d, _ in query(diff_index, cve.description, 4)] == [cid(2), cid(1), cid(4)]

        # Reciprocal ranks per component, written out:
        #   msg:     c1=1,   c2=1/2, c3=1/3, c4=0
        #   diff:    c2=1,   c1=1/2, c4=1/3, c3=0
        #   reserve: c3=1 (d=0), c2=1/2 (d=1), c4=1/3 (d=1), c1=1/4 (d=2)
        #   publish: c4=1 (d=1), c3=1/2 (d=2), c2=1/3 (d=3), c1=1/4 (d=4)
        expected = {
            cid(1): 0.35 * 1 + 0.15 * (1 / 2) + 0.3 * (1 / 4) + 0.2 * (1 / 4),
            cid(2): 0.35 * (1 / 2) + 0.15 * 1 + 0.3 * (1 / 2) + 0.2 * (1 / 3),
            cid(3): 0.35 * (1 / 3) + 0.15 * 0 + 0.3 * 1 + 0.2 * (1 / 2),
            cid(4): 0.35 * 0 + 0.15 * (1 / 3) + 0.3 * (1 / 3) + 0.2 * 1,
        }
        ranked = prerank_candidates(
            corpus, cve, msg_index, diff_index, FusionConfig(weights=(0.35, 0.15, 0.3, 0.2))
        )
        assert [doc for doc, _ in ranked] == [cid(1), cid(2), cid(3), cid(4)]
        for doc, score in ranked:
            assert score == pytest.approx(expected[doc], abs=1e-12)

    def test_missing_reserve_time_zeroes_component(self):
        corpus, cve = fixture_four_commits()
        msg_index = build_index(corpus, "message")
        diff_index = build_index(corpus, "diff")
        no_reserve = make_cve(description="alpha beta", reserve_time=None, publish_time=401)
        ranked = dict(prerank_candidates(corpus, no_reserve, msg_index, diff_index))
        full = dict(prerank_candidates(corpus, cve, msg_index, diff_index))
        # Each fused score dropped by exactly the reserve contribution.
        reserve_rr = {cid(3): 1.0, cid(2): 0.5, cid(4): 1 / 3, cid(1): 0.25}
        for doc in ranked:
            assert ranked[doc] == pytest.approx(full[doc] - 0.3 * reserve_rr[doc], abs=1e-12)

    def test_fused_score_bounded_by_weight_sum(self):
        corpus, cve = fixture_four_commits()
        msg_index = build_index(corpus, "message")
        diff_index = build_index(corpus, "diff")
        for _, score in prerank_candidates(corpus, cve, msg_index, diff_index):
            assert 0.0 <= score <= 0.35 + 0.15 + 0.3 + 0.2 + 1e-12

    def test_scaling_weights_preserves_order(self):
        corpus, cve = fixture_four_commits()
        msg_index = build_index(corpus, "message")
        diff_index = build_index(corpus, "diff")
        base = prerank_candidates(
            corpus, cve, msg_index, diff_index, FusionConfig(weights=(0.35, 0.15, 0.3, 0.2))
        )
        scaled = prerank_candidates(
            corpus, cve, msg_index, diff_index, FusionConfig(weights=(3.5, 1.5, 3.0, 2.0))
        )
        assert [d for d, _ in base] == [d for d, _ in scaled]

    def test_message_only_weights_follow_message_bm25(self):
        corpus, cve = fixture_four_commits()
        msg_index = build_index(corpus, "message")
        diff_index = build_index(corpus, "diff")
        ranked = prerank_candidates(
            corpus, cve, msg_index, diff_index, FusionConfig(weights=(1.0, 0.0, 0.0, 0.0))
        )
        bm25_order = [d for d, _ in query(msg_index, cve.description, 4)]
        assert [d for d, _ in ranked[: len(bm25_order)]] == bm25_order
        # The remainder (zero everywhere) follows ascending commit id.
        assert [d for d, _ in ranked[len(bm25_order) :]] == [cid(4)]

    def test_candidate_k_covers_whole_corpus(self):
        corpus, cve = fixture_four_commits()
        msg_index = build_index(corpus, "message")
        diff_index = build_index(corpus, "diff")
        ranked = prerank_candidates(
            corpus, cve, msg_index, diff_index, FusionConfig(candidate_k=100)
        )
        assert len(ranked) == len(corpus)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FusionConfig(weights=(0.5, -0.1, 0.3, 0.2))
