"""Okapi BM25 inverted index over commit messages, diffs, and per-file diffs.

Serves both the pre-ranking stage and the per-commit file selection used
by the hierarchical similarity features.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import Corpus, CveRecord, tokenize

# A document is a commit (message/diff indexes) or a (commit, path) pair
# (file index). Ranked lists are (doc_id, score) pairs sorted by descending
# score, ties broken by ascending doc_id.
DocId = str | tuple[str, str]
RankedList = list[tuple[DocId, float]]

FIELD_KINDS = ("message", "diff", "file")
DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

_INDEX_MAGIC = "patchrank-index"
_INDEX_VERSION = 1


@dataclass
class InvertedIndex:
    field_kind: str
    postings: dict[str, dict[DocId, int]] = field(default_factory=dict)
    doc_lengths: dict[DocId, int] = field(default_factory=dict)
    doc_count: int = 0
    avg_doc_length: float = 0.0
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    # file kind only: commit_id -> paths in ascending path order
    commit_files: dict[str, list[str]] = field(default_factory=dict)

    def document_frequency(self, term: str) -> int:
        return len(self.postings.get(term, ()))

    def idf(self, term: str) -> float:
        df = self.document_frequency(term)
        return math.log(1.0 + (self.doc_count - df + 0.5) / (df + 0.5))


def _doc_tokens(corpus: Corpus, field_kind: str) -> dict[DocId, list[str]]:
    docs: dict[DocId, list[str]] = {}
    if field_kind == "message":
        for commit in corpus.commits:
            docs[commit.commit_id] = tokenize(commit.message)
    elif field_kind == "diff":
        for commit in corpus.commits:
            docs[commit.commit_id] = tokenize(commit.diff_text())
    elif field_kind == "file":
        for commit in corpus.commits:
            for path, text in commit.file_texts().items():
                docs[(commit.commit_id, path)] = tokenize(text)
    else:
        raise ValueError(f"field_kind must be one of {FIELD_KINDS}, got {field_kind!r}")
    return docs


def check_params(*, k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> None:
    """Reject BM25 parameters outside ``k1 >= 0`` and ``0 <= b <= 1``."""
    if not (k1 >= 0 and 0 <= b <= 1):
        raise ValueError(f"BM25 needs k1 >= 0 and 0 <= b <= 1, got k1={k1}, b={b}")


def build_index(
    corpus: Corpus, field_kind: str, *, k1: float = DEFAULT_K1, b: float = DEFAULT_B
) -> InvertedIndex:
    """Index one field of every commit; one document per commit (or per file)."""
    check_params(k1=k1, b=b)
    docs = _doc_tokens(corpus, field_kind)
    index = InvertedIndex(field_kind=field_kind, k1=k1, b=b)
    for doc_id, tokens in docs.items():
        index.doc_lengths[doc_id] = len(tokens)
        for token in tokens:
            posting = index.postings.setdefault(token, {})
            posting[doc_id] = posting.get(doc_id, 0) + 1
    index.doc_count = len(docs)
    index.avg_doc_length = (
        sum(index.doc_lengths.values()) / index.doc_count if index.doc_count else 0.0
    )
    if field_kind == "file":
        for commit_id, path in docs:
            index.commit_files.setdefault(commit_id, []).append(path)
        for paths in index.commit_files.values():
            paths.sort()
    return index


def _bm25_term_score(index: InvertedIndex, idf: float, tf: int, doc_length: int) -> float:
    if tf == 0:
        return 0.0
    norm = index.k1 * (1.0 - index.b + index.b * doc_length / index.avg_doc_length)
    return idf * tf * (index.k1 + 1.0) / (tf + norm)


def accumulate_scores(index: InvertedIndex, query_text: str) -> dict[DocId, float]:
    """BM25 score of every document matching at least one query term.

    One pass over the postings of the query's terms; a document absent
    from the result scores 0.0. Each score is bit-identical to
    :func:`score_document` for the same document.
    """
    scores: dict[DocId, float] = {}
    # Query terms are deduplicated; sorted iteration fixes the float
    # accumulation order so scores are bit-stable across runs.
    for term in sorted(set(tokenize(query_text))):
        posting = index.postings.get(term)
        if not posting:
            continue
        idf = index.idf(term)
        for doc_id, tf in posting.items():
            scores[doc_id] = scores.get(doc_id, 0.0) + _bm25_term_score(
                index, idf, tf, index.doc_lengths[doc_id]
            )
    return scores


def rank_entries(scores: dict[DocId, float]) -> RankedList:
    """Order (doc, score) pairs by descending score, ascending doc_id on ties."""
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


def query(index: InvertedIndex, query_text: str, k: int) -> RankedList:
    """Top-k documents by BM25 score; zero-score documents are excluded."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = {doc: s for doc, s in accumulate_scores(index, query_text).items() if s > 0.0}
    return rank_entries(scores)[:k]


def score_document(index: InvertedIndex, query_text: str, doc_id: DocId) -> float:
    """BM25 score of one document; 0.0 when it matches no query term."""
    length = index.doc_lengths.get(doc_id)
    if length is None:
        return 0.0
    total = 0.0
    for term in sorted(set(tokenize(query_text))):
        posting = index.postings.get(term)
        if not posting:
            continue
        total += _bm25_term_score(index, index.idf(term), posting.get(doc_id, 0), length)
    return total


def rank_files_within_commit(
    file_index: InvertedIndex, cve: CveRecord, commit_id: str
) -> RankedList:
    """Rank one commit's file documents against the CVE description.

    Files sharing no term with the description are appended with score 0
    in ascending path order so every file of the commit appears.
    """
    scores = {
        (commit_id, path): score_document(file_index, cve.description, (commit_id, path))
        for path in file_index.commit_files.get(commit_id, ())
    }
    return rank_commit_files(file_index, scores, commit_id)


def rank_commit_files(
    file_index: InvertedIndex, file_scores: dict[DocId, float], commit_id: str
) -> RankedList:
    """:func:`rank_files_within_commit` from precomputed file scores.

    ``file_scores`` holds BM25 scores of file documents for one CVE, such as
    :func:`accumulate_scores` over ``file_index``; missing documents score 0.
    """
    scored: list[tuple[DocId, float]] = []
    zeros: list[tuple[DocId, float]] = []
    for path in file_index.commit_files.get(commit_id, ()):
        doc_id = (commit_id, path)
        score = file_scores.get(doc_id, 0.0)
        if score > 0.0:
            scored.append((doc_id, score))
        else:
            zeros.append((doc_id, 0.0))
    return rank_entries(dict(scored)) + zeros


def _doc_to_json(doc_id: DocId) -> str | list[str]:
    return list(doc_id) if isinstance(doc_id, tuple) else doc_id


def _doc_from_json(doc_id: str | list[str]) -> DocId:
    return (doc_id[0], doc_id[1]) if isinstance(doc_id, list) else doc_id


def save_index(index: InvertedIndex, path: str | Path) -> None:
    obj = {
        "magic": _INDEX_MAGIC,
        "version": _INDEX_VERSION,
        "field_kind": index.field_kind,
        "k1": index.k1,
        "b": index.b,
        "doc_count": index.doc_count,
        "avg_doc_length": index.avg_doc_length,
        "doc_lengths": sorted([_doc_to_json(d), n] for d, n in index.doc_lengths.items()),
        "postings": [
            [term, sorted([_doc_to_json(d), tf] for d, tf in posting.items())]
            for term, posting in sorted(index.postings.items())
        ],
        "commit_files": {c: paths for c, paths in sorted(index.commit_files.items())},
    }
    Path(path).write_text(
        json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":")),
        encoding="utf-8",
    )


def load_index(path: str | Path) -> InvertedIndex:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(obj, dict) or obj.get("magic") != _INDEX_MAGIC:
        raise ValueError(f"{path}: not a patchrank index file")
    if obj.get("version") != _INDEX_VERSION:
        raise ValueError(f"{path}: unsupported index version {obj.get('version')}")
    index = InvertedIndex(
        field_kind=obj["field_kind"],
        k1=obj["k1"],
        b=obj["b"],
        doc_count=obj["doc_count"],
        avg_doc_length=obj["avg_doc_length"],
        commit_files={c: list(paths) for c, paths in obj["commit_files"].items()},
    )
    index.doc_lengths = {_doc_from_json(d): n for d, n in obj["doc_lengths"]}
    index.postings = {
        term: {_doc_from_json(d): tf for d, tf in posting} for term, posting in obj["postings"]
    }
    return index
