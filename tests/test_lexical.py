"""BM25 index tests, cross-checked against a direct-formula oracle."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import patchrank

from patchrank.lexical import (
    INDEX_FORMAT,
    accumulate_scores,
    build_index,
    diff_index,
    load_index,
    query,
    rank_files_within_commit,
    save_index,
)

from conftest import cid, make_commit, make_corpus, make_cve
from oracles import bm25_oracle_scores, file_texts, score_document

WORDS = "openssl packet loop ssl handshake buffer parse socket retry limit".split()


def random_corpus(n_docs: int, seed: int, n_files=(1, 3)):
    rng = random.Random(seed)
    commits = []
    for i in range(n_docs):
        files = {
            f"src/{rng.choice(WORDS)}_{j}.java": " ".join(
                rng.choices(WORDS, k=rng.randrange(3, 12))
            )
            for j in range(rng.randrange(*n_files))
        }
        commits.append(
            make_commit(
                i,
                author_time=1000 + i,
                message=" ".join(rng.choices(WORDS, k=rng.randrange(2, 9))),
                files=files,
            )
        )
    return make_corpus(commits)


class TestBuildIndex:
    def test_empty_corpus(self):
        index = build_index(make_corpus([]), "message")
        assert index.doc_count == 0
        assert query(index, "anything", 5) == []

    def test_postings_hand_counted(self):
        corpus = make_corpus(
            [
                make_commit(1, author_time=1, message="fix ssl"),
                make_commit(2, author_time=2, message="add docs"),
            ]
        )
        index = build_index(corpus, "message")
        assert index.posting("fix") == {cid(1): 1}
        assert index.doc_count == 2
        assert index.avg_doc_length == 2.0

    def test_file_kind_one_doc_per_file(self):
        corpus = make_corpus(
            [make_commit(1, files={"a.java": "x", "b.java": "y", "c.java": "z"})]
        )
        index = build_index(corpus, "file")
        assert index.doc_count == 3
        assert index.commit_files[cid(1)] == ["a.java", "b.java", "c.java"]

    def test_unknown_field_kind(self):
        with pytest.raises(ValueError, match="field_kind"):
            build_index(make_corpus([]), "body")

    @pytest.mark.parametrize(
        "k1, b", [(-0.1, 0.75), (1.2, -0.1), (1.2, 1.5), (float("nan"), 0.75), (1.2, float("nan"))]
    )
    def test_out_of_range_parameters_rejected(self, k1, b):
        corpus = make_corpus([make_commit(1, message="fix ssl")])
        with pytest.raises(ValueError, match="k1 >= 0 and 0 <= b <= 1"):
            build_index(corpus, "message", k1=k1, b=b)

    @pytest.mark.parametrize("k1, b", [(0.0, 0.0), (0.0, 1.0), (3.0, 0.5)])
    def test_boundary_parameters_accepted(self, k1, b):
        corpus = make_corpus([make_commit(1, message="fix ssl")])
        assert build_index(corpus, "message", k1=k1, b=b).k1 == k1


class TestQuery:
    def test_out_of_vocabulary_query_empty(self):
        corpus = make_corpus([make_commit(1, message="fix ssl")])
        index = build_index(corpus, "message")
        assert query(index, "zzz qqq", 10) == []

    def test_k_larger_than_matches_returns_all(self):
        corpus = make_corpus(
            [make_commit(i, author_time=i, message="openssl fix") for i in range(3)]
        )
        index = build_index(corpus, "message")
        assert len(query(index, "openssl", 100)) == 3

    def test_matches_oracle_on_random_corpus(self):
        corpus = random_corpus(50, seed=3)
        index = build_index(corpus, "message")
        oracle = bm25_oracle_scores(corpus, "message", "openssl packet loop")
        got = query(index, "openssl packet loop", len(corpus))
        assert [doc for doc, _ in got] == [
            doc for doc, _ in sorted(oracle.items(), key=lambda kv: (-kv[1], kv[0]))
        ]
        for doc, score in got:
            assert score == pytest.approx(oracle[doc], abs=1e-6)

    @pytest.mark.parametrize("kind", ["message", "diff", "file"])
    def test_scores_bit_identical_to_oracle(self, kind):
        """The array scorer does the oracle's float operations in its order."""
        corpus = random_corpus(40, seed=12)
        index = build_index(corpus, kind)
        for text in ("openssl packet loop", "ssl ssl retry limit", "socket", "zzz"):
            assert accumulate_scores(index, text) == bm25_oracle_scores(corpus, kind, text)

    def test_prefix_consistency(self):
        corpus = random_corpus(30, seed=4)
        index = build_index(corpus, "message")
        full = query(index, "ssl buffer retry", 30)
        for k in (1, 3, 7, 15):
            assert query(index, "ssl buffer retry", k) == full[:k]

    def test_score_monotone_in_term_frequency(self):
        # Same length, same corpus stats; only tf of the query term differs.
        corpus = make_corpus(
            [
                make_commit(1, author_time=1, message="ssl pad pad"),
                make_commit(2, author_time=2, message="ssl ssl pad"),
                make_commit(3, author_time=3, message="ssl ssl ssl"),
            ]
        )
        index = build_index(corpus, "message")
        s1 = score_document(index, "ssl", cid(1))
        s2 = score_document(index, "ssl", cid(2))
        s3 = score_document(index, "ssl", cid(3))
        assert s1 < s2 < s3

    def test_ties_broken_by_ascending_doc_id(self):
        corpus = make_corpus(
            [
                make_commit(2, author_time=1, message="ssl"),
                make_commit(1, author_time=2, message="ssl"),
            ]
        )
        index = build_index(corpus, "message")
        ranked = query(index, "ssl", 2)
        assert [doc for doc, _ in ranked] == [cid(1), cid(2)]

    def test_duplicate_query_terms_deduplicated(self):
        corpus = make_corpus([make_commit(1, message="ssl fix")])
        index = build_index(corpus, "message")
        once = query(index, "ssl", 1)
        thrice = query(index, "ssl ssl ssl", 1)
        assert once == thrice


class TestDiffIndex:
    def test_file_document_of_another_commit_rejected(self):
        corpus = random_corpus(5, seed=2)
        files = build_index(corpus, "file")
        last = max(corpus.commit_ids)
        others = [c for c in corpus.commit_ids if c != last]
        with pytest.raises(ValueError, match=f"names commit {last}, not in the corpus"):
            diff_index(files, others)

    def test_file_documents_out_of_commit_order_rejected(self):
        corpus = random_corpus(5, seed=2)
        files = build_index(corpus, "file")
        files.docs = files.docs[::-1]
        with pytest.raises(ValueError, match="do not ascend by commit"):
            diff_index(files, corpus.commit_ids)


class TestScoreDocument:
    def test_matches_query_scores(self):
        corpus = random_corpus(20, seed=9)
        index = build_index(corpus, "diff")
        ranked = query(index, "openssl buffer", 20)
        for doc, score in ranked:
            assert score_document(index, "openssl buffer", doc) == pytest.approx(score)

    def test_unknown_document_scores_zero(self):
        corpus = make_corpus([make_commit(1, message="ssl")])
        index = build_index(corpus, "message")
        assert score_document(index, "ssl", cid(9)) == 0.0


class TestRankFilesWithinCommit:
    def test_single_file_at_rank_one(self):
        corpus = make_corpus([make_commit(1, files={"only.java": "openssl handshake"})])
        index = build_index(corpus, "file")
        cve = make_cve(description="openssl bug")
        ranked = rank_files_within_commit(index, cve, cid(1))
        assert ranked[0][0] == (cid(1), "only.java")

    def test_matching_file_ranked_above_unrelated(self):
        corpus = make_corpus(
            [
                make_commit(
                    1,
                    files={
                        "zz_match.java": "openssl engine handshake",
                        "aa_other.java": "unrelated words here",
                    },
                )
            ]
        )
        index = build_index(corpus, "file")
        cve = make_cve(description="problem in openssl")
        ranked = rank_files_within_commit(index, cve, cid(1))
        assert [doc[1] for doc, _ in ranked] == ["zz_match.java", "aa_other.java"]
        oracle = bm25_oracle_scores(corpus, "file", cve.description)
        assert ranked[0][1] == pytest.approx(oracle[(cid(1), "zz_match.java")], abs=1e-9)

    def test_no_shared_terms_gives_path_order(self):
        corpus = make_corpus(
            [make_commit(1, files={"b.java": "beta", "a.java": "alpha", "c.java": "gamma"})]
        )
        index = build_index(corpus, "file")
        cve = make_cve(description="nothing shared")
        ranked = rank_files_within_commit(index, cve, cid(1))
        assert [doc[1] for doc, _ in ranked] == ["a.java", "b.java", "c.java"]
        assert all(score == 0.0 for _, score in ranked)

    def test_unknown_commit_empty(self):
        corpus = make_corpus([make_commit(1, files={"a.java": "x"})])
        index = build_index(corpus, "file")
        assert rank_files_within_commit(index, make_cve(), cid(5)) == []

    def test_every_file_appears(self):
        corpus = random_corpus(10, seed=11)
        index = build_index(corpus, "file")
        cve = make_cve(description="openssl")
        for commit in corpus.commits:
            ranked = rank_files_within_commit(index, cve, commit.commit_id)
            assert {doc[1] for doc, _ in ranked} == set(file_texts(commit))


# The offset of an index file's field kind: an 8-byte header, then one
# 40-byte table entry per section, then the field kind section.
_FIELD_KIND = 8 + 40 * len(INDEX_FORMAT.sections)


class TestPersistence:
    def test_round_trip_preserves_queries(self, tmp_path):
        corpus = random_corpus(25, seed=5)
        for kind in ("message", "diff", "file"):
            index = build_index(corpus, kind)
            path = tmp_path / f"{kind}.bin"
            save_index(index, path)
            loaded = load_index(path)
            assert query(loaded, "openssl packet", 10) == query(index, "openssl packet", 10)
            assert accumulate_scores(loaded, "ssl retry") == accumulate_scores(index, "ssl retry")
            assert accumulate_scores(loaded, "ssl retry") == bm25_oracle_scores(
                corpus, kind, "ssl retry"
            )
            assert loaded.commit_files == index.commit_files
            assert loaded.doc_count == index.doc_count
            assert loaded.avg_doc_length == index.avg_doc_length

    def test_empty_index_round_trip(self, tmp_path):
        path = tmp_path / "empty.bin"
        save_index(build_index(make_corpus([]), "file"), path)
        loaded = load_index(path)
        assert loaded.doc_count == 0
        assert query(loaded, "openssl", 5) == []

    def test_non_ascii_strings_round_trip(self, tmp_path):
        corpus = make_corpus([make_commit(1, files={"src/naïve_ß.java": "größe überlauf"})])
        path = tmp_path / "file.bin"
        save_index(build_index(corpus, "file"), path)
        loaded = load_index(path)
        assert loaded.commit_files == {cid(1): ["src/naïve_ß.java"]}
        assert loaded.posting("größe") == {(cid(1), "src/naïve_ß.java"): 1}

    def test_saved_bytes_stable_across_rebuilds(self, tmp_path):
        corpus = random_corpus(25, seed=5)
        for kind in ("message", "diff", "file"):
            a, b = tmp_path / f"a.{kind}.bin", tmp_path / f"b.{kind}.bin"
            save_index(build_index(corpus, kind), a)
            save_index(build_index(corpus, kind), b)
            assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"magic": "other"}')
        with pytest.raises(ValueError, match="not a patchrank index"):
            load_index(path)

    def test_non_object_root_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match="not a patchrank index"):
            load_index(path)

    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "diff.bin"
        save_index(build_index(random_corpus(25, seed=5), "diff"), path)
        return path

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda data: data[:-1], "truncated index"),
            (lambda data: data[:40], "truncated index"),
            (lambda data: data + b"\0", "trailing bytes"),
            (lambda data: data[:4] + (1).to_bytes(2, "little") + data[6:], "index version 1"),
            (lambda data: data[:4] + (2).to_bytes(2, "little") + data[6:], "index version 2"),
            # The field kind is the first byte after the header and section table.
            (
                lambda data: data[:_FIELD_KIND] + b"\x07" + data[_FIELD_KIND + 1 :],
                "unknown field kind \\[7\\]",
            ),
        ],
        ids=["one byte short", "header cut", "trailing byte", "version 1", "version 2", "kind"],
    )
    def test_damaged_file_rejected_naming_path(self, saved, edit, message):
        saved.write_bytes(edit(saved.read_bytes()))
        with pytest.raises(ValueError, match=message) as info:
            load_index(saved)
        assert str(saved) in str(info.value)

    def test_version_1_json_index_rejected_naming_path(self, tmp_path):
        # A one-document index as the version-1 (JSON) format wrote it.
        path = tmp_path / "repo.message.bin"
        path.write_text(
            '{"avg_doc_length":2.0,"b":0.75,"commit_files":{},"doc_count":1,'
            '"doc_lengths":[["c1",2]],"field_kind":"message","k1":1.2,'
            '"magic":"patchrank-index","postings":[["fix",[["c1",1]]]],"version":1}'
        )
        with pytest.raises(ValueError, match="not a patchrank index") as info:
            load_index(path)
        assert str(path) in str(info.value)

    def test_inconsistent_postings_rejected(self, saved):
        index = load_index(saved)
        # A doc position past the doc table would index out of range when scored.
        doc_ids = index.doc_ids.copy()
        doc_ids[0] = index.doc_count
        index.doc_ids = doc_ids
        save_index(index, saved)
        with pytest.raises(ValueError, match="postings arrays are inconsistent") as info:
            load_index(saved)
        assert str(saved) in str(info.value)


# The acceptance suite's 50-commit message corpus: on query 9 two commits
# score mathematically equal, so summing query terms in hash order moves
# one of them by an ulp under some hash seeds.
_ORACLE_BITS_SCRIPT = """
import random
from conftest import make_commit, make_corpus
from oracles import bm25_oracle_scores
words = "openssl packet loop ssl handshake buffer parse socket retry limit overflow auth".split()
rng = random.Random(4242)
commits = [
    make_commit(i, author_time=1000 + i, message=" ".join(rng.choices(words, k=rng.randrange(2, 10))))
    for i in range(50)
]
corpus = make_corpus(commits)
for q in range(20):
    terms = rng.sample(words, rng.randrange(1, 5)) + (["outofvocabulary"] if q % 5 == 0 else [])
    scores = bm25_oracle_scores(corpus, "message", " ".join(terms))
    print(q, sorted((doc, score.hex()) for doc, score in scores.items()))
"""


def test_oracle_scores_independent_of_hash_seed():
    tests_dir = Path(__file__).resolve().parent
    src_dir = Path(patchrank.__file__).resolve().parent.parent
    outputs = []
    for hash_seed in ("4", "11"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join([str(src_dir), str(tests_dir)])
        run = subprocess.run(
            [sys.executable, "-c", _ORACLE_BITS_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
