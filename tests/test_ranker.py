"""Feature assembly, negative sampling, and LambdaRank training tests."""

from __future__ import annotations

import json
import logging
from dataclasses import replace

import numpy as np
import pytest

from patchrank.corpus import ingest_multi_repo_dump, load_cve_dump
from patchrank.embedding import OfflineEmbedder, build_vectors
from patchrank.evalkit import mrr, ndcg_at_k
from patchrank.hier_features import (
    feature_max_file_sim,
    feature_mean_top2_cosine,
    feature_top1_file_cosine,
)
from patchrank.lexical import build_index, rank_files_within_commit
from patchrank.path_features import (
    commit_paths,
    extract_entities,
    feature_jaccard,
    path_universe,
    search_paths,
)
from patchrank.prerank import prerank_candidates
from patchrank import ranker as ranker_mod
from patchrank.ranker import (
    FEATURE_NAMES,
    FeatureAssembler,
    MissingFeatureError,
    RankerParams,
    RankModel,
    TrainingDataError,
    TrainingGroup,
    TrainingRow,
    sample_training_group,
    score_and_rerank,
    train_lambdarank,
)

from conftest import cid, make_commit, make_corpus, make_cve
from oracles import feature_commit_cosine, feature_path_cosine, score_document, time_affinity
from synthcorpus import generate


def assembler_for(corpus, cves, dimension=128):
    provider = OfflineEmbedder(dimension)
    store = build_vectors(corpus, cves, provider)
    diff_index = build_index(corpus, "diff")
    file_index = build_index(corpus, "file")
    return FeatureAssembler(corpus, store, diff_index, file_index, provider)


class TestFeatureAssembly:
    def test_aligned_commit_scores_high_everywhere(self):
        # Many distinct shared tokens make the prompt-template overhead
        # negligible, so the commit/CVE cosine approaches 1.
        description = "overflow in FrameParser7 buffer handling " + " ".join(
            f"token{i}" for i in range(40)
        )
        corpus = make_corpus(
            [
                make_commit(
                    1,
                    author_time=100,
                    message=description,
                    files={"src/frameparser7.java": description},
                ),
                make_commit(
                    2,
                    author_time=90,
                    message="unrelated words entirely",
                    files={"src/other.java": "different content here"},
                ),
            ]
        )
        cve = make_cve(
            description=description, reserve_time=99, publish_time=101, known_patch_ids={cid(1)}
        )
        assembler = assembler_for(corpus, [cve])
        aligned = assembler.matrix(cve, [cid(1)])[0]
        other = assembler.matrix(cve, [cid(2)])[0]
        assert aligned[0] > 0.9
        assert aligned[0] > other[0]
        assert aligned[7] == 1.0  # identical path sets
        assert other[7] == 0.0
        assert aligned[4] > other[4]  # diff BM25

    def test_message_only_commit_zeroes_file_features(self):
        corpus = make_corpus([make_commit(1, author_time=5, message="docs change only")])
        cve = make_cve(description="docs change", reserve_time=5, publish_time=5)
        assembler = assembler_for(corpus, [cve])
        vector = assembler.matrix(cve, [cid(1)])[0]
        assert vector[1] == vector[2] == vector[3] == 0.0

    def test_commit_at_publish_time_has_zero_distance(self):
        corpus = make_corpus(
            [make_commit(i, author_time=100 * i, message="m") for i in (1, 2, 3)]
        )
        cve = make_cve(description="d", reserve_time=100, publish_time=200)
        assembler = assembler_for(corpus, [cve])
        vector = assembler.matrix(cve, [cid(2)])[0]
        assert vector[6] == 0.0  # publish distance
        assert vector[5] == 1.0  # reserve points at commit 1

    def test_missing_timestamps_use_corpus_size_sentinel(self):
        corpus = make_corpus([make_commit(i, author_time=i) for i in (1, 2, 3)])
        cve = make_cve(description="d", reserve_time=None, publish_time=None)
        assembler = assembler_for(corpus, [cve])
        vector = assembler.matrix(cve, [cid(1)])[0]
        assert vector[5] == vector[6] == float(len(corpus))

    def test_matrix_stacks_rows_in_order(self):
        corpus = make_corpus([make_commit(i, author_time=i, message=f"m{i}") for i in (1, 2)])
        cve = make_cve(description="m1", reserve_time=1, publish_time=2)
        assembler = assembler_for(corpus, [cve])
        matrix = assembler.matrix(cve, [cid(2), cid(1)])
        assert matrix.shape == (2, 9)
        assert np.array_equal(matrix[0], assembler.matrix(cve, [cid(2)])[0])


def reference_row(assembler, cve, commit_id):
    """The nine features of one pair from the per-pair functions."""
    corpus, store, file_index = assembler.corpus, assembler.store, assembler.file_index
    commit = corpus.get(commit_id)
    ner_paths = search_paths(path_universe(corpus), extract_entities(cve.description))
    touched = commit_paths(commit)

    def distance(cve_time):
        return float(len(corpus)) if cve_time is None else float(time_affinity(corpus, cve_time, commit_id))

    return np.array(
        [
            feature_commit_cosine(store, cve.cve_id, commit_id),
            feature_max_file_sim(store, file_index, cve, commit),
            feature_top1_file_cosine(store, file_index, cve, commit),
            feature_mean_top2_cosine(store, file_index, cve, commit),
            score_document(assembler.diff_index, cve.description, commit_id),
            distance(cve.reserve_time),
            distance(cve.publish_time),
            feature_jaccard(ner_paths, touched),
            feature_path_cosine(OfflineEmbedder(64), ner_paths, touched),
        ],
        dtype=np.float64,
    )


class TestMatrixOracle:
    """FeatureAssembler.matrix against the per-pair reference, bit for bit."""

    @pytest.fixture(scope="class")
    def setup(self, tmp_path_factory):
        synth = generate(seed=5, n_repos=1, commits_per_repo=70, cves_per_repo=3)
        # One commit without file diffs.
        synth.commit_records[12]["diff"] = ""
        empty_id = synth.commit_records[12]["commit_id"]
        commit_dump, cve_dump = synth.write(tmp_path_factory.mktemp("oracle"))
        corpus = next(iter(ingest_multi_repo_dump(commit_dump).values()))
        base = load_cve_dump(cve_dump)
        cves = base + [
            replace(base[0], cve_id="CVE-2024-0001", reserve_time=None, publish_time=None),
            replace(base[1], cve_id="CVE-2024-0002", publish_time=None),
            replace(base[2], cve_id="CVE-2024-0003", description="a crafted packet sent to the parser"),
        ]
        provider = OfflineEmbedder(64)
        assembler = FeatureAssembler(
            corpus,
            build_vectors(corpus, cves, provider),
            build_index(corpus, "diff"),
            build_index(corpus, "file"),
            provider,
        )
        return corpus, cves, assembler, empty_id

    def test_matrix_equals_per_pair_reference(self, setup):
        corpus, cves, assembler, empty_id = setup
        ids = corpus.commit_ids
        assert not corpus.get(empty_id).file_diffs
        assert assembler.ner_paths_for(cves[-1]) == set()
        for cve in cves:
            matrix = assembler.matrix(cve, ids)
            expected = np.vstack([reference_row(assembler, cve, c) for c in ids])
            assert np.array_equal(matrix, expected), cve.cve_id
        # The cases the reference must cover actually occur.
        assert np.any(assembler.matrix(cves[0], ids)[:, 8] > 0.0)
        assert np.all(assembler.matrix(cves[3], ids)[:, 5:7] == float(len(corpus)))

    def test_permuted_ids_permute_rows(self, setup):
        corpus, cves, assembler, _ = setup
        ids = corpus.commit_ids
        order = np.random.default_rng(0).permutation(len(ids))
        for cve in cves:
            full = assembler.matrix(cve, ids)
            permuted = assembler.matrix(cve, [ids[i] for i in order])
            assert np.array_equal(permuted, full[order])
            subset = [ids[i] for i in order[:7]]
            assert np.array_equal(assembler.matrix(cve, subset), full[order[:7]])


    def test_chunked_passes_equal_one_pass(self, setup, monkeypatch):
        corpus, cves, assembler, _ = setup
        ids = corpus.commit_ids
        whole = [assembler.matrix(cve, ids) for cve in cves]
        monkeypatch.setattr(ranker_mod, "MATRIX_CHUNK", 7)
        for cve, expected in zip(cves, whole):
            assert np.array_equal(assembler.matrix(cve, ids), expected), cve.cve_id

    @pytest.fixture(scope="class")
    def pooling(self):
        """Commits whose BM25 file rankings and file vectors make each
        pooling rule visible. A file's score rises with its count of "probe";
        files of equal count and length tie, and are ranked by path."""

        def files(prefix, counts):
            return {
                f"{prefix}{i}.java": " ".join(["probe"] * c + ["pad"] * (8 - c))
                for i, c in enumerate(counts)
            }

        groups = {
            "wide": [7, 6, 5, 4, 3, 2, 1],  # seven ranked files
            "tie": [3, 3, 3],  # equal scores
            "zero": [0, 0, 0],  # no query term at all
            "one": [2],
            "opp": [3, 2],  # opposite top-2 vectors
        }
        commits = [
            make_commit(i, author_time=i, files=files(prefix, counts))
            for i, (prefix, counts) in enumerate(groups.items(), start=1)
        ]
        corpus = make_corpus(commits)
        cve = make_cve(description="probe issue", reserve_time=2, publish_time=4)
        provider = OfflineEmbedder(64)
        store = build_vectors(corpus, [cve], provider)
        rng = np.random.default_rng(11)

        def unit():
            raw = rng.standard_normal(64)
            return (raw / np.linalg.norm(raw)).astype(np.float32)

        query = unit()
        store.put_cve(cve.cve_id, query)
        for commit in commits:
            for path in commit.file_texts():
                store.put_file(commit.commit_id, path, unit())
        store.put_file(cid(1), "wide5.java", query)  # ranked sixth, the best cosine
        opposite = unit()
        store.put_file(cid(5), "opp0.java", opposite)
        store.put_file(cid(5), "opp1.java", -opposite)
        assembler = FeatureAssembler(
            corpus, store, build_index(corpus, "diff"), build_index(corpus, "file"), provider
        )
        return corpus, cve, assembler

    def test_pooling_cases_equal_per_pair_reference(self, pooling):
        corpus, cve, assembler = pooling
        ids = corpus.commit_ids
        matrix = assembler.matrix(cve, ids)
        expected = np.vstack([reference_row(assembler, cve, c) for c in ids])
        assert np.array_equal(matrix, expected)
        ranked = {c: rank_files_within_commit(assembler.file_index, cve, c) for c in ids}
        # The cases occur: the sixth file's cosine tops the five pooled ones,
        # ties and zero scores fall back to path order, one file gives three
        # equal columns, and opposite top-2 vectors have a zero mean.
        store, query = assembler.store, assembler.store.cve_vector(cve.cve_id)
        assert [doc[1] for doc, _ in ranked[cid(1)]][5] == "wide5.java"
        assert matrix[0, 1] < float(np.dot(query, store.file_vector(cid(1), "wide5.java"))) - 0.5
        for n, prefix in ((2, "tie"), (3, "zero")):
            assert len({score for _, score in ranked[cid(n)]}) == 1
            assert [doc[1] for doc, _ in ranked[cid(n)]] == [f"{prefix}{i}.java" for i in range(3)]
        assert matrix[3, 1] == matrix[3, 2] == matrix[3, 3]
        assert matrix[4, 3] == 0.0 and matrix[4, 2] != 0.0


def corpus_of(n, seed_time=0):
    return make_corpus(
        [make_commit(i, author_time=seed_time + i, message=f"word{i}") for i in range(1, n + 1)]
    )


class TestSampleTrainingGroup:
    def prerank_for(self, corpus, cve):
        msg_index = build_index(corpus, "message")
        diff_index = build_index(corpus, "diff")
        return prerank_candidates(corpus, cve, msg_index, diff_index)

    def test_small_corpus_exhausts_negatives(self):
        corpus = corpus_of(300)
        cve = make_cve(
            description="word5", reserve_time=5, publish_time=7, known_patch_ids={cid(5)}
        )
        group = sample_training_group(cve, self.prerank_for(corpus, cve), corpus, seed=1)
        assert group is not None
        assert len(group.rows) <= 300
        assert sum(r.relevance for r in group.rows) == 1
        assert len({r.commit_id for r in group.rows}) == len(group.rows)

    def test_same_seed_identical_groups(self):
        corpus = corpus_of(100)
        cve = make_cve(description="word3", reserve_time=3, publish_time=4, known_patch_ids={cid(3)})
        ranked = self.prerank_for(corpus, cve)
        a = sample_training_group(cve, ranked, corpus, seed=9)
        b = sample_training_group(cve, ranked, corpus, seed=9)
        assert [(r.commit_id, r.relevance) for r in a.rows] == [
            (r.commit_id, r.relevance) for r in b.rows
        ]

    def test_positive_in_top_ranks_stays_positive_only(self):
        corpus = corpus_of(50)
        cve = make_cve(description="word1", reserve_time=1, publish_time=1, known_patch_ids={cid(1)})
        ranked = self.prerank_for(corpus, cve)
        assert ranked[0][0] == cid(1)  # the patch pre-ranks first
        group = sample_training_group(cve, ranked, corpus, seed=2)
        occurrences = [r for r in group.rows if r.commit_id == cid(1)]
        assert len(occurrences) == 1
        assert occurrences[0].relevance == 1

    def test_no_positives_skipped_with_warning(self, caplog):
        corpus = corpus_of(10)
        cve = make_cve(description="d", known_patch_ids={cid(99)})
        with caplog.at_level(logging.WARNING):
            group = sample_training_group(cve, [], corpus, seed=0)
        assert group is None
        assert "no known patch" in caplog.text

    def test_hard_negative_budget_respected(self):
        corpus = corpus_of(100)
        cve = make_cve(description="word2", reserve_time=2, publish_time=2, known_patch_ids={cid(2)})
        ranked = self.prerank_for(corpus, cve)
        assert ranked[0][0] == cid(2)
        group = sample_training_group(
            cve, ranked, corpus, seed=0, hard_negatives=10, random_negatives=5
        )
        # The positive sits inside the top-10 window, so only 9 hard
        # negatives remain after excluding it.
        assert len(group.rows) == 1 + 9 + 5
        hard_ids = {r.commit_id for r in group.rows[1:10]}
        assert hard_ids == {doc for doc, _ in ranked[:10]} - {cid(2)}


def separable_groups(n_groups=8, rows=80, seed=0):
    """Relevance decided by feature 0 alone; everything else is noise."""
    rng = np.random.default_rng(seed)
    groups = []
    for g in range(n_groups):
        rows_list = []
        for i in range(rows):
            features = rng.random(9)
            rows_list.append(
                TrainingRow(
                    commit_id=f"{i:040x}",
                    relevance=1 if features[0] > 0.9 else 0,
                    features=features,
                )
            )
        if not any(r.relevance for r in rows_list):
            rows_list[0].features[0] = 0.95
            rows_list[0].relevance = 1
        groups.append(TrainingGroup(cve_id=f"CVE-2024-{g}", rows=rows_list))
    return groups


def noisy_interaction_groups(n_groups=12, rows=120, seed=5):
    """Relevance from a noisy mix of features 0 and 3; no single feature
    separates."""
    rng = np.random.default_rng(seed)
    groups = []
    for g in range(n_groups):
        features = rng.random((rows, 9))
        signal = 0.5 * features[:, 0] + 0.5 * features[:, 3] + rng.normal(0.0, 0.05, rows)
        relevance = np.zeros(rows, dtype=int)
        relevance[np.argsort(-signal)[:3]] = 1
        groups.append(
            TrainingGroup(
                cve_id=f"CVE-2024-{g}",
                rows=[
                    TrainingRow(f"{i:040x}", int(relevance[i]), features[i]) for i in range(rows)
                ],
            )
        )
    return groups


def group_metric(groups, scores_fn, metric):
    values = []
    for group in groups:
        matrix = np.vstack([r.features for r in group.rows])
        scores = scores_fn(matrix)
        ranked = sorted(
            ((r.commit_id, float(s)) for r, s in zip(group.rows, scores)),
            key=lambda kv: (-kv[1], kv[0]),
        )
        relevant = {r.commit_id for r in group.rows if r.relevance}
        values.append(metric(ranked, relevant))
    return float(np.mean(values))


class TestTrainLambdarank:
    def test_zero_trees_rejected(self):
        with pytest.raises(TrainingDataError, match="num_trees"):
            RankerParams(num_trees=0)

    def test_all_degenerate_groups_rejected(self):
        groups = [
            TrainingGroup(
                cve_id="CVE-2024-1",
                rows=[TrainingRow(cid(i), 1, np.zeros(9)) for i in range(4)],
            )
        ]
        with pytest.raises(TrainingDataError, match="degenerate"):
            train_lambdarank(groups)

    def test_missing_features_rejected(self):
        groups = [TrainingGroup(cve_id="CVE-2024-1", rows=[TrainingRow(cid(1), 1)])]
        with pytest.raises(TrainingDataError, match="feature"):
            train_lambdarank(groups)

    def test_separable_data_reaches_perfect_in_sample_mrr(self):
        groups = separable_groups()
        model = train_lambdarank(
            groups, RankerParams(learning_rate=0.2, num_leaves=7, min_data_in_leaf=5, seed=1)
        )
        assert group_metric(groups, model.predict, mrr) == 1.0

    def test_beats_best_single_feature_on_interaction_data(self):
        groups = noisy_interaction_groups()
        best_single = max(
            group_metric(groups, lambda X, j=j: X[:, j], lambda r, rel: ndcg_at_k(r, rel, 10))
            for j in range(9)
        )
        model = train_lambdarank(
            groups,
            RankerParams(learning_rate=0.1, num_leaves=15, min_data_in_leaf=10, seed=3),
        )
        trained = group_metric(groups, model.predict, lambda r, rel: ndcg_at_k(r, rel, 10))
        assert trained >= 1.05 * best_single

    def test_training_is_bit_reproducible(self):
        groups = noisy_interaction_groups()
        params = RankerParams(learning_rate=0.1, num_leaves=15, min_data_in_leaf=10, seed=3)
        a = train_lambdarank(groups, params)
        b = train_lambdarank(groups, params)
        assert json.dumps(a.to_json_obj(), sort_keys=True) == json.dumps(
            b.to_json_obj(), sort_keys=True
        )

    def test_published_hyperparameters_accepted(self):
        params = RankerParams(learning_rate=0.01, num_leaves=30, min_data_in_leaf=38)
        model = train_lambdarank(separable_groups(n_groups=4, rows=120), params)
        assert model.metadata["num_leaves"] == 30
        assert model.metadata["min_data_in_leaf"] == 38

    def test_scores_finite(self):
        groups = separable_groups(n_groups=3, rows=40)
        model = train_lambdarank(groups, RankerParams(learning_rate=0.5, num_leaves=5, min_data_in_leaf=3))
        matrix = np.vstack([r.features for g in groups for r in g.rows])
        assert np.isfinite(model.predict(matrix)).all()

    def test_each_tree_shifts_scores_within_leaf_bound(self):
        groups = noisy_interaction_groups(n_groups=4, rows=60)
        model = train_lambdarank(
            groups, RankerParams(learning_rate=0.3, num_leaves=7, min_data_in_leaf=5)
        )
        matrix = np.vstack([r.features for g in groups for r in g.rows])
        previous = np.zeros(len(matrix))
        for i in range(len(model.trees)):
            partial = RankModel(
                learning_rate=model.learning_rate,
                trees=model.trees[: i + 1],
                metadata=model.metadata,
            )
            scores = partial.predict(matrix)
            leaf_bound = max(
                abs(node["value"]) for node in model.trees[i]["nodes"] if "value" in node
            )
            assert np.max(np.abs(scores - previous)) <= model.learning_rate * leaf_bound + 1e-12
            previous = scores


class TestModelSerialization:
    def test_save_load_round_trip_preserves_predictions(self, tmp_path):
        groups = separable_groups(n_groups=3, rows=50)
        model = train_lambdarank(groups, RankerParams(num_leaves=5, min_data_in_leaf=5))
        path = tmp_path / "model.json"
        model.save(path)
        loaded = RankModel.load(path)
        matrix = np.vstack([r.features for r in groups[0].rows])
        assert np.array_equal(model.predict(matrix), loaded.predict(matrix))
        assert loaded.metadata["feature_names"] == list(FEATURE_NAMES)

    def test_repeated_save_is_byte_identical(self, tmp_path):
        model = train_lambdarank(separable_groups(2, 40), RankerParams(num_leaves=4, min_data_in_leaf=5))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        model.save(a)
        model.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_out_of_range_feature_index_rejected(self, tmp_path):
        model = train_lambdarank(separable_groups(2, 40), RankerParams(num_leaves=4, min_data_in_leaf=5))
        obj = model.to_json_obj()
        obj["trees"][0]["nodes"][0] = {"feature": 12, "threshold": 0.5, "left": 1, "right": 2}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="feature index"):
            RankModel.load(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"magic": "nope"}')
        with pytest.raises(ValueError, match="not a patchrank model"):
            RankModel.load(path)


def stump_model(feature: int, threshold: float, low: float, high: float) -> RankModel:
    return RankModel(
        learning_rate=1.0,
        trees=[
            {
                "nodes": [
                    {"feature": feature, "threshold": threshold, "left": 1, "right": 2},
                    {"value": low},
                    {"value": high},
                ]
            }
        ],
        metadata={"feature_names": list(FEATURE_NAMES)},
    )


class TestScoreAndRerank:
    def test_stump_on_first_feature_follows_it(self):
        model = stump_model(0, 0.5, low=0.0, high=1.0)
        cve = make_cve()
        candidates = [(cid(1), 0.9), (cid(2), 0.8)]
        features = {
            cid(1): np.array([0.2] + [0.0] * 8),
            cid(2): np.array([0.9] + [0.0] * 8),
        }
        reranked = score_and_rerank(model, cve, candidates, features)
        assert [doc for doc, _ in reranked] == [cid(2), cid(1)]

    def test_empty_candidates(self):
        model = stump_model(0, 0.5, 0.0, 1.0)
        assert score_and_rerank(model, make_cve(), [], {}) == []

    def test_ties_keep_prerank_order(self):
        model = RankModel(learning_rate=1.0, trees=[], metadata={"feature_names": list(FEATURE_NAMES)})
        cve = make_cve()
        candidates = [(cid(3), 0.9), (cid(1), 0.8), (cid(2), 0.7)]
        features = {c: np.zeros(9) for c, _ in candidates}
        reranked = score_and_rerank(model, cve, candidates, features)
        assert [doc for doc, _ in reranked] == [cid(3), cid(1), cid(2)]

    def test_missing_feature_row_raises(self):
        model = stump_model(0, 0.5, 0.0, 1.0)
        with pytest.raises(MissingFeatureError):
            score_and_rerank(model, make_cve(), [(cid(1), 0.5)], {})
