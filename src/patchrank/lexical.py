"""Okapi BM25 inverted index over commit messages and per-file diffs, and
the diff index, which :func:`diff_index` sums from the per-file one.

Serves both the pre-ranking stage and the per-commit file selection used
by the hierarchical similarity features. The index is held in
compressed-sparse-row form: each term's postings are one slice of a
doc-position array and a term-frequency array, scored with numpy.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .container import STR, Format, Section
from .corpus import Corpus, CveRecord, tokenize
from .settings import DEFAULT_B, DEFAULT_K1, check_bm25

# A document is a commit (message/diff indexes) or a (commit, path) pair
# (file index). Ranked lists are (doc_id, score) pairs sorted by descending
# score, ties broken by ascending doc_id.
DocId = str | tuple[str, str]
RankedList = list[tuple[DocId, float]]

FIELD_KINDS = ("message", "diff", "file")

# Version 1 was JSON, version 2 a hand-written header. The field kind is its
# FIELD_KINDS position, bm25 holds k1 and b, and a file document is two doc
# strings, commit id and path. The other sections are InvertedIndex's arrays.
INDEX_FORMAT = Format(
    "index",
    b"PRIX",
    3,
    dict(field_kind=Section("|u1"), bm25=Section("<f8", finite=True), docs=Section(STR))
    | dict(vocab=Section(STR), offsets=Section("<i8"), doc_lengths=Section("<i4"))
    | dict(doc_ids=Section("<i4"), tfs=Section("<i4")),
)
_ARRAYS = ("vocab", "offsets", "doc_lengths", "doc_ids", "tfs")


@dataclass(eq=False)
class InvertedIndex:
    """One field's BM25 index. Document ``i`` is ``docs[i]``; term ``t`` is
    ``vocab[t]``, and its postings are ``doc_ids[offsets[t]:offsets[t + 1]]``
    (ascending) with their term frequencies at the same positions of ``tfs``."""

    field_kind: str
    docs: list[DocId]  # ascending, so position order is doc_id order
    doc_lengths: np.ndarray  # int32 token count per document
    vocab: list[str]  # ascending
    offsets: np.ndarray  # int64, len(vocab) + 1
    doc_ids: np.ndarray  # int32 document positions
    tfs: np.ndarray  # int32 term frequencies
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B

    def __post_init__(self) -> None:
        self.doc_count = len(self.docs)
        total = int(self.doc_lengths.sum(dtype=np.int64))
        self.avg_doc_length = total / self.doc_count if self.doc_count else 0.0
        self._slots = {term: slot for slot, term in enumerate(self.vocab)}
        # Each document's BM25 length normalisation, k1 * (1 - b + b * dl / avgdl).
        # With no tokens there are no postings, so the zeros are never read.
        self._norm = np.zeros(self.doc_count)
        if total:
            self._norm = self.k1 * (1.0 - self.b + self.b * self.doc_lengths / self.avg_doc_length)

    @cached_property
    def commit_files(self) -> dict[str, list[str]]:
        """A file index's commit id -> paths, ascending; built on first use."""
        files: dict[str, list[str]] = {}
        for commit_id, path in self.docs if self.field_kind == "file" else ():
            files.setdefault(commit_id, []).append(path)
        return files

    def posting(self, term: str) -> dict[DocId, int]:
        """Each document containing ``term``, with the term's frequency in it."""
        slot = self._slots.get(term)
        if slot is None:
            return {}
        start, end = self.offsets[slot : slot + 2].tolist()
        ids, tfs = self.doc_ids[start:end].tolist(), self.tfs[start:end].tolist()
        return {self.docs[i]: tf for i, tf in zip(ids, tfs)}


def _doc_tokens(corpus: Corpus, field_kind: str) -> dict[DocId, list[list[str]]]:
    """Each message or file document's tokens, as lists to be read in order.
    File documents take their file sections' cached tokens."""
    docs: dict[DocId, list[list[str]]] = {}
    if field_kind == "message":
        for commit in corpus.commits:
            docs[commit.commit_id] = [tokenize(commit.message)]
    elif field_kind == "file":
        for commit in corpus.commits:
            for fd in commit.file_diffs:
                docs.setdefault((commit.commit_id, fd.path), []).append(fd.tokens)
    else:
        raise ValueError(f"field_kind must be one of {FIELD_KINDS}, got {field_kind!r}")
    return docs


def build_index(
    corpus: Corpus, field_kind: str, *, k1: float = DEFAULT_K1, b: float = DEFAULT_B
) -> InvertedIndex:
    """Index one field of every commit; one document per commit (or per file)."""
    check_bm25(k1=k1, b=b)
    if field_kind == "diff":
        return diff_index(build_index(corpus, "file", k1=k1, b=b), corpus.commit_ids)
    tokens = _doc_tokens(corpus, field_kind)
    docs = sorted(tokens)
    counts = [Counter(chain.from_iterable(tokens[doc])) for doc in docs]
    vocab = sorted(set().union(*counts))
    slots = {term: slot for slot, term in enumerate(vocab)}
    size = sum(len(c) for c in counts)
    # One (term, doc, tf) triple per posting, in doc order; a stable sort by
    # term then keeps each term's documents ascending.
    terms = np.fromiter((slots[t] for c in counts for t in c), np.int32, size)
    doc_ids = np.repeat(np.arange(len(docs), dtype=np.int32), [len(c) for c in counts])
    tfs = np.fromiter((tf for c in counts for tf in c.values()), np.int32, size)
    order = np.argsort(terms, kind="stable")
    offsets = np.zeros(len(vocab) + 1, dtype=np.int64)
    np.cumsum(np.bincount(terms, minlength=len(vocab)), out=offsets[1:])
    lengths = np.array([sum(map(len, tokens[doc])) for doc in docs], dtype=np.int32)
    return InvertedIndex(
        field_kind, docs, lengths, vocab, offsets, doc_ids[order], tfs[order], k1, b
    )


def commit_ranks(file_index: InvertedIndex, commit_ids: list[str]) -> np.ndarray:
    """Each file document's commit, as its position in the ascending
    ``commit_ids``. A document of any other commit, or documents out of
    commit order, raise a ValueError."""
    ranks = {commit_id: rank for rank, commit_id in enumerate(commit_ids)}
    try:
        owners = np.array([ranks[commit_id] for commit_id, _ in file_index.docs], dtype=np.int32)
    except KeyError as exc:
        raise ValueError(f"a file document names commit {exc.args[0]}, not in the corpus") from None
    if np.any(np.diff(owners) < 0):
        raise ValueError("the file documents do not ascend by commit")
    return owners


def diff_index(file_index: InvertedIndex, commit_ids: list[str]) -> InvertedIndex:
    """The diff index of the commits ``commit_ids``, summed from their file
    index. A commit's diff document is its file sections, so each of its
    term frequencies, and its length, is the sum of its file documents'. A
    commit without sections is an empty document."""
    docs = sorted(commit_ids)
    owners = commit_ranks(file_index, docs)
    lengths = np.bincount(owners, file_index.doc_lengths, len(docs)).astype(np.int32)
    # Within a term the file documents ascend, so their commits do too: each
    # (term, commit) pair is one run of postings, which starts where the term
    # or the commit does, and is summed into one posting.
    commits = owners[file_index.doc_ids]
    first = np.ones(len(commits), dtype=bool)
    np.not_equal(commits[1:], commits[:-1], out=first[1:])
    first[file_index.offsets[:-1]] = True
    starts = np.flatnonzero(first)
    tfs = np.add.reduceat(file_index.tfs, starts, dtype=np.int32)
    offsets = np.searchsorted(starts, file_index.offsets)
    vocab, k1, b = file_index.vocab, file_index.k1, file_index.b
    return InvertedIndex("diff", docs, lengths, vocab, offsets, commits[starts], tfs, k1, b)


def _score_array(index: InvertedIndex, query_text: str) -> np.ndarray:
    """BM25 score of every document, by position; 0.0 where no term matches.

    Query terms are deduplicated and visited in sorted order, and each
    term's scores are added into one float64 accumulator, so every document
    sums the same terms in the same order on every run. Within a term the
    doc positions are distinct, so ``acc[ids] += s`` adds each score once.
    """
    acc = np.zeros(index.doc_count)
    for term in sorted(set(tokenize(query_text))):
        slot = index._slots.get(term)
        if slot is None:
            continue
        start, end = index.offsets[slot : slot + 2].tolist()
        ids = index.doc_ids[start:end]
        tf = index.tfs[start:end].astype(np.float64)
        df = end - start
        idf = math.log(1.0 + (index.doc_count - df + 0.5) / (df + 0.5))
        acc[ids] += idf * tf * (index.k1 + 1.0) / (tf + index._norm[ids])
    return acc


def accumulate_scores(index: InvertedIndex, query_text: str) -> dict[DocId, float]:
    """BM25 score of every document matching at least one query term.

    One pass over the postings of the query's terms; a document absent
    from the result scores 0.0.
    """
    acc = _score_array(index, query_text)
    hits = np.flatnonzero(acc)
    return dict(zip([index.docs[i] for i in hits.tolist()], acc[hits].tolist()))


def top_k(index: InvertedIndex, query_text: str, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the top-k documents by BM25 score, and their scores.
    Zero-score documents are excluded; ties go to the lower position."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    acc = _score_array(index, query_text)
    hits = np.flatnonzero(acc)
    top = hits[np.argsort(-acc[hits], kind="stable")[:k]]
    return top, acc[top]


def query(index: InvertedIndex, query_text: str, k: int) -> RankedList:
    """Top-k documents by BM25 score, as :func:`top_k` ranks them. Positions
    ascend with doc_id, so ties go to the lower doc_id."""
    top, scores = top_k(index, query_text, k)
    return list(zip([index.docs[i] for i in top.tolist()], scores.tolist()))


def rank_files_within_commit(
    file_index: InvertedIndex, cve: CveRecord, commit_id: str
) -> RankedList:
    """Rank one commit's file documents against the CVE description.

    Files sharing no term with the description are appended with score 0
    in ascending path order so every file of the commit appears.
    """
    file_scores = accumulate_scores(file_index, cve.description)
    scored: list[tuple[DocId, float]] = []
    zeros: list[tuple[DocId, float]] = []
    for path in file_index.commit_files.get(commit_id, ()):
        doc_id = (commit_id, path)
        score = file_scores.get(doc_id, 0.0)
        if score > 0.0:
            scored.append((doc_id, score))
        else:
            zeros.append((doc_id, 0.0))
    return sorted(scored, key=lambda kv: (-kv[1], kv[0])) + zeros


def save_index(index: InvertedIndex, path: str | Path) -> None:
    """Write ``index`` in the :data:`INDEX_FORMAT` container. Equal indexes
    give equal bytes."""
    docs = index.docs
    if index.field_kind == "file":
        docs = [part for doc in index.docs for part in doc]
    kind = [FIELD_KINDS.index(index.field_kind)]
    arrays = {name: getattr(index, name) for name in _ARRAYS}
    INDEX_FORMAT.save(path, field_kind=kind, bm25=[index.k1, index.b], docs=docs, **arrays)


def load_index(path: str | Path) -> InvertedIndex:
    """Read a :func:`save_index` file. A damaged container, or arrays that do
    not fit together, raise a ValueError naming ``path``."""
    return INDEX_FORMAT.load(path, _index_from_sections)


def _index_from_sections(
    field_kind, bm25, docs, vocab, offsets, doc_lengths, doc_ids, tfs
) -> InvertedIndex:
    if len(field_kind) != 1 or field_kind[0] >= len(FIELD_KINDS):
        raise ValueError(f"unknown field kind {field_kind.tolist()}")
    if len(bm25) != 2:
        raise ValueError(f"expected k1 and b, got {bm25.tolist()}")
    k1, b = bm25.tolist()
    check_bm25(k1=k1, b=b)
    kind = FIELD_KINDS[field_kind[0]]
    n_docs = len(doc_lengths)
    if len(docs) != (2 if kind == "file" else 1) * n_docs:
        raise ValueError(f"{len(docs)} doc strings for {n_docs} documents")
    if kind == "file":
        docs = list(zip(docs[::2], docs[1::2]))
    n_postings = len(doc_ids)
    if not (
        len(offsets) == len(vocab) + 1
        and offsets[0] == 0
        and offsets[-1] == n_postings
        and np.all(np.diff(offsets) > 0)
        and len(tfs) == n_postings
    ):
        raise ValueError("term offsets do not fit the postings")
    # Within each term's slice the doc positions ascend, so none repeats.
    ascending = np.diff(doc_ids) > 0
    ascending[offsets[1:-1] - 1] = True
    if not (
        np.all(ascending)
        and np.all((doc_ids >= 0) & (doc_ids < n_docs))
        and np.all(tfs > 0)
        and np.all(doc_lengths >= 0)
    ):
        raise ValueError("postings arrays are inconsistent")
    return InvertedIndex(kind, docs, doc_lengths, vocab, offsets, doc_ids, tfs, k1, b)
