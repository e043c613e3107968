"""Hierarchical similarity feature tests, including closed-form cases."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from patchrank.embedding import MissingVectorError, OfflineEmbedder, build_vectors
from patchrank.hier_features import (
    HierConfig,
    feature_max_file_sim,
    feature_mean_top2_cosine,
    feature_top1_file_cosine,
)
from patchrank.lexical import build_index, rank_files_within_commit

from conftest import cid, make_commit, make_corpus, make_cve, vector_store
from oracles import feature_commit_cosine, hier_features


def unit(d: int, axis: int) -> np.ndarray:
    vec = np.zeros(d, dtype=np.float32)
    vec[axis] = 1.0
    return vec


def store_with(d: int, cve_vec, file_vecs: dict, commit_vec=None, cve_id="CVE-2024-0001"):
    vectors = {("cve", cve_id): cve_vec}
    if commit_vec is not None:
        vectors["commit", cid(1)] = commit_vec
    vectors.update({("file", cid(1), path): vec for path, vec in file_vecs.items()})
    return vector_store(d, vectors)


def hier_of(store, index, cve, commit):
    """hier_features on the commit's per-pair BM25 file ranking."""
    ranked = rank_files_within_commit(index, cve, commit.commit_id)
    return hier_features(store, store.cve_vector(cve.cve_id), commit.commit_id, ranked)


def ranked_file_fixture(n_files: int, term_counts: list[int]):
    """One commit whose files BM25-rank in a known order.

    File i gets term "probe" repeated term_counts[i] times, padded with
    unique fillers to a constant length, so more repeats rank higher.
    """
    files = {}
    for i, count in enumerate(term_counts):
        words = ["probe"] * count + [f"pad{i}x{j}" for j in range(8 - count)]
        files[f"f{i}.java"] = " ".join(words)
    corpus = make_corpus([make_commit(1, files=files)])
    cve = make_cve(description="probe issue")
    index = build_index(corpus, "file")
    return corpus, cve, index


class TestCommitCosine:
    def test_identical_vectors(self):
        store = store_with(8, unit(8, 0), {}, commit_vec=unit(8, 0))
        assert feature_commit_cosine(store, "CVE-2024-0001", cid(1)) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        store = store_with(8, unit(8, 0), {}, commit_vec=unit(8, 1))
        assert feature_commit_cosine(store, "CVE-2024-0001", cid(1)) == pytest.approx(0.0)

    def test_matches_raw_dot_product_oracle(self):
        corpus = make_corpus([make_commit(1, message="fix ssl", files={"a.java": "ssl"})])
        cve = make_cve(description="ssl handshake broken")
        store = build_vectors(corpus, [cve], OfflineEmbedder(128))
        expected = float(np.dot(store.cve_vector(cve.cve_id), store.commit_vector(cid(1))))
        assert feature_commit_cosine(store, cve.cve_id, cid(1)) == pytest.approx(expected)

    def test_missing_vector_names_key(self):
        store = store_with(8, unit(8, 0), {})
        with pytest.raises(MissingVectorError, match="commit"):
            feature_commit_cosine(store, "CVE-2024-0001", cid(1))


class TestMaxFileSim:
    def test_single_file_max_over_singleton(self):
        corpus, cve, index = ranked_file_fixture(1, [3])
        store = store_with(8, unit(8, 0), {"f0.java": unit(8, 0)})
        assert feature_max_file_sim(store, index, cve, corpus.commits[0]) == pytest.approx(1.0)

    def test_sixth_ranked_file_excluded_from_max(self):
        # Seven files, BM25 order f0 > f1 > ... > f6; the 6th-ranked file
        # carries the best vector but sits outside the top-5 pool.
        corpus, cve, index = ranked_file_fixture(7, [7, 6, 5, 4, 3, 2, 1])
        ranked = rank_files_within_commit(index, cve, cid(1))
        assert [doc[1] for doc, _ in ranked] == [f"f{i}.java" for i in range(7)]
        file_vecs = {f"f{i}.java": unit(8, 1) for i in range(7)}
        file_vecs["f5.java"] = unit(8, 0)  # perfect cosine, rank 6
        store = store_with(8, unit(8, 0), file_vecs)
        commit = corpus.commits[0]
        assert feature_max_file_sim(store, index, cve, commit) == pytest.approx(0.0)
        wider = HierConfig(max_pool_files=6)
        assert feature_max_file_sim(store, index, cve, commit, wider) == pytest.approx(1.0)

    def test_zero_file_commit(self):
        corpus = make_corpus([make_commit(1, message="docs only")])
        index = build_index(corpus, "file")
        store = store_with(8, unit(8, 0), {})
        assert feature_max_file_sim(store, index, make_cve(), corpus.commits[0]) == 0.0

    def test_monotone_in_pool_size(self):
        corpus, cve, index = ranked_file_fixture(5, [5, 4, 3, 2, 1])
        rng = random.Random(0)
        file_vecs = {}
        for i in range(5):
            raw = np.array([rng.random() for _ in range(8)])
            file_vecs[f"f{i}.java"] = (raw / np.linalg.norm(raw)).astype(np.float32)
        store = store_with(8, unit(8, 0), file_vecs)
        commit = corpus.commits[0]
        values = [
            feature_max_file_sim(store, index, cve, commit, HierConfig(max_pool_files=k))
            for k in range(1, 6)
        ]
        assert values == sorted(values)


class TestTop1FileCosine:
    def test_single_file_equals_max_sim(self):
        corpus, cve, index = ranked_file_fixture(1, [2])
        store = store_with(8, unit(8, 0), {"f0.java": unit(8, 0)})
        commit = corpus.commits[0]
        assert feature_top1_file_cosine(store, index, cve, commit) == pytest.approx(
            feature_max_file_sim(store, index, cve, commit)
        )

    def test_differs_from_max_when_top1_is_not_best(self):
        corpus, cve, index = ranked_file_fixture(3, [3, 2, 1])
        file_vecs = {
            "f0.java": unit(8, 1),  # BM25 top-1, orthogonal to CVE
            "f1.java": unit(8, 0),  # best cosine
            "f2.java": unit(8, 2),
        }
        store = store_with(8, unit(8, 0), file_vecs)
        commit = corpus.commits[0]
        assert feature_top1_file_cosine(store, index, cve, commit) == pytest.approx(0.0)
        assert feature_max_file_sim(store, index, cve, commit) == pytest.approx(1.0)

    def test_zero_file_commit(self):
        corpus = make_corpus([make_commit(1)])
        index = build_index(corpus, "file")
        store = store_with(8, unit(8, 0), {})
        assert feature_top1_file_cosine(store, index, make_cve(), corpus.commits[0]) == 0.0


class TestMeanTop2Cosine:
    def test_two_identical_file_vectors(self):
        corpus, cve, index = ranked_file_fixture(2, [2, 1])
        vec = (np.array([3.0, 4.0] + [0.0] * 6) / 5.0).astype(np.float32)
        store = store_with(8, unit(8, 0), {"f0.java": vec, "f1.java": vec})
        commit = corpus.commits[0]
        assert feature_mean_top2_cosine(store, index, cve, commit) == pytest.approx(
            float(vec[0]), abs=1e-6
        )

    def test_single_file_equals_top1(self):
        corpus, cve, index = ranked_file_fixture(1, [2])
        store = store_with(8, unit(8, 0), {"f0.java": unit(8, 3)})
        commit = corpus.commits[0]
        assert feature_mean_top2_cosine(store, index, cve, commit) == pytest.approx(
            feature_top1_file_cosine(store, index, cve, commit)
        )

    def test_orthogonal_pair_gives_inverse_sqrt_two(self):
        corpus, cve, index = ranked_file_fixture(2, [2, 1])
        store = store_with(8, unit(8, 0), {"f0.java": unit(8, 0), "f1.java": unit(8, 1)})
        commit = corpus.commits[0]
        assert feature_mean_top2_cosine(store, index, cve, commit) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-6
        )


class TestCombined:
    def test_single_file_commit_all_equal(self):
        rng = random.Random(7)
        for trial in range(10):
            corpus, cve, index = ranked_file_fixture(1, [rng.randrange(1, 5)])
            raw = np.array([rng.random() + 0.1 for _ in range(8)])
            store = store_with(8, unit(8, 0), {"f0.java": (raw / np.linalg.norm(raw)).astype(np.float32)})
            commit = corpus.commits[0]
            f2 = feature_max_file_sim(store, index, cve, commit)
            f3 = feature_top1_file_cosine(store, index, cve, commit)
            f4 = feature_mean_top2_cosine(store, index, cve, commit)
            assert f2 == f3 == f4

    def test_hier_features_matches_individual_ops(self):
        corpus, cve, index = ranked_file_fixture(4, [4, 3, 2, 1])
        rng = random.Random(3)
        file_vecs = {}
        for i in range(4):
            raw = np.array([rng.random() for _ in range(8)])
            file_vecs[f"f{i}.java"] = (raw / np.linalg.norm(raw)).astype(np.float32)
        store = store_with(8, unit(8, 0), file_vecs, commit_vec=unit(8, 2))
        commit = corpus.commits[0]
        combined = hier_of(store, index, cve, commit)
        assert combined[0] == feature_commit_cosine(store, cve.cve_id, cid(1))
        assert combined[1] == feature_max_file_sim(store, index, cve, commit)
        assert combined[2] == feature_top1_file_cosine(store, index, cve, commit)
        assert combined[3] == feature_mean_top2_cosine(store, index, cve, commit)

    def test_all_features_within_cosine_range(self):
        corpus = make_corpus(
            [make_commit(1, message="fix ssl", files={"a.java": "ssl code", "b.java": "other"})]
        )
        cve = make_cve(description="ssl bug")
        store = build_vectors(corpus, [cve], OfflineEmbedder(64))
        index = build_index(corpus, "file")
        values = hier_of(store, index, cve, corpus.commits[0])
        assert all(-1.0 - 1e-9 <= v <= 1.0 + 1e-9 for v in values)

    def test_invariant_under_raw_vector_rescaling(self):
        # Providers returning arbitrarily scaled vectors give the same
        # features, since the store normalizes on the way in.
        class Scaled:
            def __init__(self, factor):
                self.factor = factor
                self.inner = OfflineEmbedder(64)

            def embed(self, texts, tokens=None):
                return [[x * self.factor for x in v] for v in self.inner.embed(texts, tokens)]

        corpus = make_corpus(
            [make_commit(1, message="fix ssl", files={"a.java": "ssl code", "b.java": "other"})]
        )
        cve = make_cve(description="ssl bug")
        index = build_index(corpus, "file")
        baseline = hier_of(build_vectors(corpus, [cve], Scaled(1.0)), index, cve, corpus.commits[0])
        scaled = hier_of(build_vectors(corpus, [cve], Scaled(37.5)), index, cve, corpus.commits[0])
        assert all(a == pytest.approx(b, abs=1e-6) for a, b in zip(baseline, scaled))
