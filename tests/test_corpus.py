"""Tests for dump ingestion, diff splitting, tokenizing, and truncation."""

from __future__ import annotations

import copy
import json
import pickle
import random
import re

import pytest

from patchrank.corpus import (
    CommitRecord,
    CveRecord,
    DumpFormatError,
    ingest_commit_dump,
    ingest_multi_repo_dump,
    load_corpus,
    load_cve_dump,
    save_corpus,
    split_diff_by_file,
    tokenize,
    truncate_to_tokens,
)

from conftest import cid, file_diff_text, make_commit, make_corpus
from oracles import commit_of, file_texts, is_sorted, token_count

SINGLE_FILE_DIFF = (
    "diff --git a/src/a.java b/src/a.java\n"
    "index 3f1a2b..9c0d1e 100644\n"
    "--- a/src/a.java\n"
    "+++ b/src/a.java\n"
    "@@ -1,3 +1,4 @@\n"
    " class A {\n"
    "+    int limit = 10;\n"
    " }\n"
)

TWO_FILE_DIFF = SINGLE_FILE_DIFF + (
    "diff --git a/docs/b.md b/docs/b.md\n"
    "--- a/docs/b.md\n"
    "+++ b/docs/b.md\n"
    "@@ -1 +1,2 @@\n"
    "+notes\n"
)


def dump_line(n: int, author_time: int, message: str = "msg", diff: str = "", repo="test/repo"):
    return json.dumps(
        {
            "commit_id": cid(n),
            "repo_id": repo,
            "author_time": author_time,
            "message": message,
            "diff": diff,
        }
    )


def cve_line(**changes) -> str:
    record = {
        "cve_id": "CVE-2024-1",
        "description": "overflow in parser",
        "reserve_time": 100,
        "publish_time": 200,
        "repo_id": "r",
        "known_patch_ids": [cid(1)],
    }
    return json.dumps(record | changes)


class TestIngestCommitDump:
    def test_empty_file_gives_empty_corpus(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        path.write_text("")
        corpus = ingest_commit_dump(path)
        assert len(corpus) == 0

    def test_commits_sorted_by_author_time(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        lines = [dump_line(1, 30), dump_line(2, 10), dump_line(3, 20)]
        path.write_text("\n".join(lines) + "\n")
        corpus = ingest_commit_dump(path)
        assert [c.author_time for c in corpus.commits] == [10, 20, 30]
        assert corpus.author_times.tolist() == [10, 20, 30]

    def test_diff_with_two_headers_gives_two_file_diffs(self, tmp_path):
        assert TWO_FILE_DIFF.count("diff --git") == 2
        path = tmp_path / "dump.jsonl"
        path.write_text(dump_line(1, 5, diff=TWO_FILE_DIFF) + "\n")
        corpus = ingest_commit_dump(path)
        assert len(corpus.commits[0].file_diffs) == 2

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        path.write_text(dump_line(1, 5) + "\n{bad json\n")
        with pytest.raises(DumpFormatError, match="line 2"):
            ingest_commit_dump(path)

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        bad = dump_line(2, 5, message="?").encode().replace(b"?", b"\xff")
        path.write_bytes((dump_line(1, 5) + "\n").encode() + bad + b"\n")
        with pytest.raises(DumpFormatError, match=f"^{re.escape(str(path))} line 2: 'utf-8' codec"):
            ingest_commit_dump(path)

    def test_unexpected_keys_rejected(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        record = json.loads(dump_line(1, 5))
        record["extra"] = True
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(DumpFormatError, match="line 1"):
            ingest_commit_dump(path)

    @pytest.mark.parametrize(
        "key, value",
        [("author_time", "5"), ("author_time", 12.9), ("author_time", True), ("message", 5)],
    )
    def test_wrong_typed_value_rejected(self, tmp_path, key, value):
        path = tmp_path / "dump.jsonl"
        record = json.loads(dump_line(2, 5)) | {key: value}
        path.write_text(dump_line(1, 5) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(DumpFormatError, match=f"^{re.escape(str(path))} line 2: {key}: "):
            ingest_commit_dump(path)

    def test_duplicate_commit_id_rejected(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        path.write_text(dump_line(1, 5) + "\n" + dump_line(1, 6) + "\n")
        expected = f"^{re.escape(str(path))} line 2: duplicate commit_id {cid(1)}"
        with pytest.raises(DumpFormatError, match=expected):
            ingest_commit_dump(path)

    def test_mixed_repos_rejected_in_single_repo_ingest(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        path.write_text(dump_line(1, 5, repo="r/a") + "\n" + dump_line(2, 6, repo="r/b") + "\n")
        with pytest.raises(DumpFormatError, match="mixes repositories"):
            ingest_commit_dump(path)

    def test_multi_repo_ingest_splits_by_repo(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        path.write_text(dump_line(1, 5, repo="r/a") + "\n" + dump_line(2, 6, repo="r/b") + "\n")
        corpora = ingest_multi_repo_dump(path)
        assert sorted(corpora) == ["r/a", "r/b"]
        assert all(len(c) == 1 for c in corpora.values())

    def test_round_trip_serialize_then_ingest_is_identity(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        lines = [
            dump_line(1, 30, message="fix ssl handshake", diff=TWO_FILE_DIFF),
            dump_line(2, 10, message="add docs"),
            dump_line(3, 20, message="rename", diff="diff --git a/x b/y"),
        ]
        path.write_text("\n".join(lines) + "\n")
        corpus = ingest_commit_dump(path)
        out = tmp_path / "corpus.bin"
        save_corpus(corpus, out)
        assert load_corpus(out, corpus.repo_id) == corpus

    def test_round_trip_keeps_the_path_after_a_binary_section(self, tmp_path):
        """An emptied binary body still ends its header's line, so the next
        file's header is not glued to it and survives a save and load."""
        binary = (
            "diff --git a/img.png b/img.png\n"
            "index 1111111..2222222 100644\n"
            "Binary files a/img.png and b/img.png differ\n"
        )
        path = tmp_path / "dump.jsonl"
        path.write_text(dump_line(1, 5, diff=binary + file_diff_text("x.c", "fix")) + "\n")
        corpus = ingest_commit_dump(path)
        (commit,) = corpus.commits
        assert [fd.path for fd in commit.file_diffs] == ["img.png", "x.c"]
        assert "pngdiff" not in tokenize("".join(commit.section_texts()))
        out = tmp_path / "corpus.bin"
        save_corpus(corpus, out)
        (again,) = load_corpus(out, corpus.repo_id).commits
        assert [fd.path for fd in again.file_diffs] == ["img.png", "x.c"]
        assert again.section_texts() == commit.section_texts()
        assert file_texts(again) == file_texts(commit)


class TestSplitDiffByFile:
    def test_empty_diff(self):
        assert split_diff_by_file("") == []

    def test_single_file_path_extracted(self):
        diffs = split_diff_by_file(SINGLE_FILE_DIFF)
        assert len(diffs) == 1
        assert diffs[0].path == "src/a.java"
        assert diffs[0].header == "diff --git a/src/a.java b/src/a.java"

    def test_rename_only_diff_has_empty_body(self):
        diffs = split_diff_by_file("diff --git a/x b/y")
        assert len(diffs) == 1
        assert diffs[0].path == "y"
        assert diffs[0].body == ""

    def test_residue_before_first_header_dropped(self):
        text = "commit 123\nAuthor: x\n\n" + SINGLE_FILE_DIFF
        diffs = split_diff_by_file(text)
        assert len(diffs) == 1
        assert diffs[0].header.startswith("diff --git")

    def test_concatenation_reconstructs_from_first_header(self):
        for text in (
            SINGLE_FILE_DIFF,
            TWO_FILE_DIFF,
            "junk\n" + TWO_FILE_DIFF + "diff --git a/z b/z",
            "diff --git a/x b/y\ndiff --git a/p b/q\n+hunk\n",
        ):
            diffs = split_diff_by_file(text)
            start = text.index("diff --git")
            assert "".join(fd.header + fd.body for fd in diffs) == text[start:]

    def test_every_header_begins_with_marker(self):
        for fd in split_diff_by_file(TWO_FILE_DIFF):
            assert fd.header.startswith("diff --git")
            assert fd.path

    def test_binary_section_keeps_path_but_drops_body(self):
        text = (
            "diff --git a/img/logo.png b/img/logo.png\n"
            "index 1111111..2222222 100644\n"
            "Binary files a/img/logo.png and b/img/logo.png differ\n"
        ) + SINGLE_FILE_DIFF
        diffs = split_diff_by_file(text)
        assert [fd.path for fd in diffs] == ["img/logo.png", "src/a.java"]
        assert diffs[0].body == ""
        assert diffs[1].body != ""


class TestTokenize:
    def test_camel_and_extension_splitting(self):
        assert tokenize("OpenSSLEngine.java") == ["opensslengine", "open", "ssl", "engine", "java"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_compound_identifiers_retained(self):
        tokens = tokenize("NIO2+OpenSSL")
        assert "nio2" in tokens
        assert "openssl" in tokens

    def test_snake_case_keeps_compound_and_parts(self):
        tokens = tokenize("read_buffer_size")
        assert tokens[0] == "read_buffer_size"
        assert {"read", "buffer", "size"} <= set(tokens)

    def test_plain_words_emitted_once(self):
        assert tokenize("alpha beta") == ["alpha", "beta"]

    def test_retokenizing_joined_output_loses_nothing(self):
        rng = random.Random(42)
        fragments = ["OpenSSLEngine", "foo_bar", "NIO2", "plain", "x86_64", "getUserById"]
        for _ in range(50):
            text = " ".join(rng.choices(fragments, k=rng.randrange(1, 6)))
            tokens = tokenize(text)
            again = tokenize(" ".join(tokens))
            assert set(again) >= set(tokens)

    def test_token_count_matches_tokenize(self):
        for text in ("OpenSSLEngine.java z", "", "a_b c NIO2"):
            assert token_count(text) == len(tokenize(text))


class TestTruncateToTokens:
    def test_simple_cut(self):
        assert truncate_to_tokens("a b c", 2) == "a b"

    def test_under_budget_unchanged(self):
        text = " ".join(f"w{i}" for i in range(100))
        assert truncate_to_tokens(text, 512) == text

    def test_large_text_truncated_within_budget(self):
        text = " ".join(f"word{i} CamelCase{i}" for i in range(500))
        out = truncate_to_tokens(text, 512)
        assert len(tokenize(out)) <= 512
        assert text.startswith(out)

    def test_never_cuts_mid_token(self):
        # "OpenSSLEngine" alone counts 4 tokens; budget 2 cannot include it.
        assert truncate_to_tokens("hello OpenSSLEngine", 2) == "hello"

    def test_budget_below_one_rejected(self):
        with pytest.raises(ValueError):
            truncate_to_tokens("a", 0)


class TestRecordValidation:
    def test_commit_id_must_be_40_hex(self):
        with pytest.raises(ValueError, match="40 lowercase hex"):
            CommitRecord(commit_id="abc", repo_id="r", author_time=0, message="")

    def test_author_time_non_negative(self):
        with pytest.raises(ValueError, match="author_time"):
            CommitRecord(commit_id=cid(1), repo_id="r", author_time=-1, message="")

    def test_reserve_after_publish_rejected(self):
        with pytest.raises(ValueError, match="reserve_time"):
            CveRecord(
                cve_id="CVE-2024-1",
                description="",
                reserve_time=10,
                publish_time=5,
                repo_id="r",
            )

    def test_records_are_read_only_values_that_copy_and_pickle(self):
        """Records compare and hash by class and fields, refuse assignment,
        and come back equal from copy, pickle and ``_replace``, which checks
        its fields as the constructor does."""
        cve = CveRecord("CVE-2024-1", "d", 1, 5, "r", frozenset({cid(1)}))
        commit = CommitRecord(cid(1), "r", 0, "m", tuple(split_diff_by_file(SINGLE_FILE_DIFF)))
        for record in (cve, commit, commit.file_diffs[0]):
            assert copy.copy(record) == pickle.loads(pickle.dumps(record)) == record
            assert hash(record._replace()) == hash(record) and record._replace() is not record
            with pytest.raises(AttributeError, match="read-only"):
                record.repo_id = "other"
        assert cve._replace(description="e") != cve and {cve, cve._replace()} == {cve}
        assert commit.file_diffs[0] != tuple(commit.file_diffs[0]._asdict().values())
        with pytest.raises(ValueError, match="reserve_time"):
            cve._replace(reserve_time=9)

    def test_cve_dump_round_trip(self, tmp_path):
        path = tmp_path / "cves.jsonl"
        path.write_text(
            json.dumps(
                {
                    "cve_id": "CVE-2024-123",
                    "description": "overflow in parser",
                    "reserve_time": 5,
                    "publish_time": 9,
                    "repo_id": "r/a",
                    "known_patch_ids": [cid(1)],
                }
            )
            + "\n"
        )
        records = load_cve_dump(path)
        assert records[0].cve_id == "CVE-2024-123"
        assert records[0].known_patch_ids == frozenset({cid(1)})

    @pytest.mark.parametrize(
        "key, value",
        [("reserve_time", "100"), ("publish_time", 200.9), ("known_patch_ids", "abc")],
    )
    def test_cve_dump_wrong_typed_value_rejected(self, tmp_path, key, value):
        path = tmp_path / "cves.jsonl"
        path.write_text(cve_line(**{key: value}) + "\n")
        with pytest.raises(DumpFormatError, match=f"^{re.escape(str(path))} line 1: {key}: "):
            load_cve_dump(path)

    def test_cve_dump_null_times_allowed(self, tmp_path):
        path = tmp_path / "cves.jsonl"
        path.write_text(
            json.dumps(
                {
                    "cve_id": "CVE-2024-9",
                    "description": "d",
                    "reserve_time": None,
                    "publish_time": None,
                    "repo_id": "r",
                    "known_patch_ids": [],
                }
            )
            + "\n"
        )
        assert load_cve_dump(path)[0].reserve_time is None


class TestCorpusStructure:
    def test_sort_invariant_checkable(self):
        corpus = make_corpus(
            [make_commit(1, author_time=30), make_commit(2, author_time=10)]
        )
        assert is_sorted(corpus)
        assert corpus.commits[0].author_time == 10

    def test_position_and_lookup(self):
        corpus = make_corpus([make_commit(1, author_time=5), make_commit(2, author_time=9)])
        assert corpus.position_of(cid(2)) == 1
        assert commit_of(corpus, cid(1)).author_time == 5
        with pytest.raises(KeyError, match="unknown commit"):
            corpus.position_of(cid(99))

    def test_file_texts_merges_duplicate_paths(self):
        diff = file_diff_text("a.java", "one") + file_diff_text("a.java", "two")
        commit = CommitRecord(
            commit_id=cid(1),
            repo_id="r",
            author_time=0,
            message="",
            file_diffs=tuple(split_diff_by_file(diff)),
        )
        texts = file_texts(commit)
        assert list(texts) == ["a.java"]
        assert "one" in texts["a.java"] and "two" in texts["a.java"]
