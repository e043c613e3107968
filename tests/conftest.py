"""Shared fixture helpers for building tiny corpora in tests."""

from __future__ import annotations

from hashlib import blake2b

import numpy as np
import pytest

from patchrank.corpus import CommitRecord, Corpus, CveRecord, build_corpus, split_diff_by_file
from patchrank.embedding import VectorStore


def cid(n: int) -> str:
    """A valid 40-hex commit id that sorts by n."""
    return f"{n:040x}"


def hashed_cid(name: str) -> str:
    return blake2b(name.encode("utf-8"), digest_size=20).hexdigest()


def file_diff_text(path: str, body_words: str = "") -> str:
    lines = [f"diff --git a/{path} b/{path}"]
    lines.append(f"--- a/{path}")
    lines.append(f"+++ b/{path}")
    lines.append("@@ -1,2 +1,3 @@")
    for word in body_words.split():
        lines.append(f"+{word}")
    return "\n".join(lines) + "\n"


def make_commit(
    n: int,
    *,
    repo_id: str = "test/repo",
    author_time: int = 1000,
    message: str = "",
    files: dict[str, str] | None = None,
    commit_id: str | None = None,
) -> CommitRecord:
    """Commit n with optional per-path diff body words."""
    diff = "".join(file_diff_text(path, words) for path, words in (files or {}).items())
    return CommitRecord(
        commit_id=commit_id or cid(n),
        repo_id=repo_id,
        author_time=author_time,
        message=message,
        file_diffs=tuple(split_diff_by_file(diff)),
    )


def make_corpus(commits: list[CommitRecord], repo_id: str = "test/repo") -> Corpus:
    return build_corpus(repo_id, commits)


def make_cve(
    cve_id: str = "CVE-2024-0001",
    *,
    description: str = "",
    reserve_time: int | None = None,
    publish_time: int | None = None,
    repo_id: str = "test/repo",
    known_patch_ids: set[str] | None = None,
) -> CveRecord:
    return CveRecord(
        cve_id=cve_id,
        description=description,
        reserve_time=reserve_time,
        publish_time=publish_time,
        repo_id=repo_id,
        known_patch_ids=frozenset(known_patch_ids or set()),
    )


def vector_store(dimension: int, vectors: dict, base: VectorStore | None = None) -> VectorStore:
    """A store of ``base``'s vectors, if given, with ``vectors`` ({key: vector},
    keys such as ``("commit", id)``, ``("file", id, path)`` or ``("cve", id)``)
    put over them. Each file key's commit must have a vector."""
    merged = {} if base is None else dict(zip(store_keys(base), base.matrix))
    merged.update(vectors)
    keys = sorted(merged)
    commits = [key[1] for key in keys if key[0] == "commit"]
    files = [key[1:] for key in keys if key[0] == "file"]
    owners = np.array([commits.index(commit_id) for commit_id, _ in files], dtype=np.int32)
    cves = [key[1] for key in keys if key[0] == "cve"]
    matrix = np.array([merged[key] for key in keys], dtype=np.float32).reshape(len(keys), dimension)
    return VectorStore(commits, cves, owners, [path for _, path in files], matrix)


def store_keys(store: VectorStore) -> list[tuple]:
    """The store's keys, in row order, from its key tables."""
    commits = list(store.commits)
    keys = [("commit", commit_id) for commit_id in commits] + [("cve", c) for c in store.cves]
    files = zip(store.file_commits.tolist(), store.file_paths)
    return keys + [("file", commits[i], path) for i, path in files]


def feature_rows(assembler, cve: CveRecord, commit_ids):
    """``assembler.matrix`` of the commits ``commit_ids`` of its corpus."""
    return assembler.matrix(cve, [assembler.corpus.position_of(c) for c in commit_ids])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Print one PASS/FAIL line per acceptance criterion test."""
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and "test_acceptance" in item.nodeid:
        status = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {item.name}: {status}")
