"""Okapi BM25 inverted index over commit messages, diffs, and per-file diffs.

Serves both the pre-ranking stage and the per-commit file selection used
by the hierarchical similarity features. The index is held in
compressed-sparse-row form: each term's postings are one slice of a
doc-position array and a term-frequency array, scored with numpy.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .corpus import Corpus, CveRecord, tokenize

# A document is a commit (message/diff indexes) or a (commit, path) pair
# (file index). Ranked lists are (doc_id, score) pairs sorted by descending
# score, ties broken by ascending doc_id.
DocId = str | tuple[str, str]
RankedList = list[tuple[DocId, float]]

FIELD_KINDS = ("message", "diff", "file")
DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

_INDEX_MAGIC = b"PRIX"
# Version 1 was a JSON file of dict-of-dict postings.
_INDEX_VERSION = 2
# magic, version, field kind (its FIELD_KINDS position), k1, b, then the
# number of docs, terms and postings and the byte sizes of the two string
# blobs; 64 bytes, so every array after it is 8-byte aligned.
_HEADER = struct.Struct("<4sHBxdd5Q")


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
        # file kind only: commit_id -> paths in ascending path order
        self.commit_files: dict[str, list[str]] = {}
        if self.field_kind == "file":
            for commit_id, path in self.docs:
                self.commit_files.setdefault(commit_id, []).append(path)

    def posting(self, term: str) -> dict[DocId, int]:
        """Each document containing ``term``, with the term's frequency in it."""
        slot = self._slots.get(term)
        if slot is None:
            return {}
        start, end = self.offsets[slot : slot + 2].tolist()
        ids, tfs = self.doc_ids[start:end].tolist(), self.tfs[start:end].tolist()
        return {self.docs[i]: tf for i, tf in zip(ids, tfs)}


def _doc_tokens(corpus: Corpus, field_kind: str) -> dict[DocId, list[list[str]]]:
    """Each document's tokens, as lists to be read in order. Diff and file
    documents take their file sections' cached tokens, so the ``diff`` and
    ``file`` indexes of one corpus tokenize each section once."""
    docs: dict[DocId, list[list[str]]] = {}
    if field_kind == "message":
        for commit in corpus.commits:
            docs[commit.commit_id] = [tokenize(commit.message)]
    elif field_kind == "diff":
        for commit in corpus.commits:
            docs[commit.commit_id] = [fd.tokens for fd in commit.file_diffs]
    elif field_kind == "file":
        for commit in corpus.commits:
            for fd in commit.file_diffs:
                docs.setdefault((commit.commit_id, fd.path), []).append(fd.tokens)
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
    from the result scores 0.0. Each score is bit-identical to
    :func:`score_document` for the same document.
    """
    acc = _score_array(index, query_text)
    hits = np.flatnonzero(acc)
    return dict(zip([index.docs[i] for i in hits.tolist()], acc[hits].tolist()))


def rank_entries(scores: dict[DocId, float]) -> RankedList:
    """Order (doc, score) pairs by descending score, ascending doc_id on ties."""
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


def query(index: InvertedIndex, query_text: str, k: int) -> RankedList:
    """Top-k documents by BM25 score; zero-score documents are excluded."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    acc = _score_array(index, query_text)
    hits = np.flatnonzero(acc)
    # Positions ascend with doc_id, so a stable sort breaks ties by doc_id.
    top = hits[np.argsort(-acc[hits], kind="stable")[:k]]
    return list(zip([index.docs[i] for i in top.tolist()], acc[top].tolist()))


def score_document(index: InvertedIndex, query_text: str, doc_id: DocId) -> float:
    """BM25 score of one document; 0.0 when it matches no query term."""
    return accumulate_scores(index, query_text).get(doc_id, 0.0)


def rank_files_within_commit(
    file_index: InvertedIndex, cve: CveRecord, commit_id: str
) -> RankedList:
    """Rank one commit's file documents against the CVE description.

    Files sharing no term with the description are appended with score 0
    in ascending path order so every file of the commit appears.
    """
    return rank_commit_files(file_index, accumulate_scores(file_index, cve.description), commit_id)


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


def _pack_strings(strings: list[str]) -> tuple[np.ndarray, bytes]:
    """The UTF-8 encodings joined, and the end offset of each in the join."""
    encoded = [s.encode("utf-8") for s in strings]
    return np.cumsum([len(e) for e in encoded], dtype=np.int64), b"".join(encoded)


def _unpack_strings(ends: np.ndarray, blob: bytes) -> list[str]:
    bounds = np.concatenate(([0], ends))
    if bounds[-1] != len(blob) or np.any(np.diff(bounds) < 0):
        raise ValueError("string table offsets do not fit its bytes")
    cuts = bounds.tolist()
    return [blob[a:b].decode("utf-8") for a, b in zip(cuts, cuts[1:])]


def save_index(index: InvertedIndex, path: str | Path) -> None:
    """Binary dump, little-endian: the header; the int64 string ends of the doc
    table and the vocabulary, and the term offsets; the int32 doc lengths, doc
    positions and term frequencies; then the UTF-8 doc and vocabulary strings.
    Equal indexes give equal bytes."""
    parts = index.docs
    if index.field_kind == "file":
        parts = [part for doc in index.docs for part in doc]
    doc_ends, doc_blob = _pack_strings(parts)
    vocab_ends, vocab_blob = _pack_strings(index.vocab)
    header = _HEADER.pack(
        _INDEX_MAGIC,
        _INDEX_VERSION,
        FIELD_KINDS.index(index.field_kind),
        index.k1,
        index.b,
        index.doc_count,
        len(index.vocab),
        len(index.doc_ids),
        len(doc_blob),
        len(vocab_blob),
    )
    arrays = (doc_ends, vocab_ends, index.offsets, index.doc_lengths, index.doc_ids, index.tfs)
    with open(path, "wb") as fh:
        fh.write(header)
        for array, dtype in zip(arrays, ("<i8", "<i8", "<i8", "<i4", "<i4", "<i4")):
            fh.write(np.asarray(array, dtype=dtype).tobytes())
        fh.write(doc_blob)
        fh.write(vocab_blob)


def load_index(path: str | Path) -> InvertedIndex:
    """Read a :meth:`save_index` file. A short file, trailing bytes, another
    format or version, or arrays that do not fit together raise a ValueError
    naming ``path``."""
    try:
        return _parse_index(Path(path).read_bytes())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_index(data: bytes) -> InvertedIndex:
    if data[: len(_INDEX_MAGIC)] != _INDEX_MAGIC:
        raise ValueError("not a patchrank index file")
    if len(data) < _HEADER.size:
        raise ValueError("truncated index")
    _, version, kind, k1, b, n_docs, n_terms, n_postings, doc_bytes, vocab_bytes = (
        _HEADER.unpack_from(data)
    )
    if version != _INDEX_VERSION:
        raise ValueError(f"unsupported index version {version}")
    if kind >= len(FIELD_KINDS):
        raise ValueError(f"unknown field kind {kind}")
    check_params(k1=k1, b=b)
    field_kind = FIELD_KINDS[kind]
    parts = 2 if field_kind == "file" else 1
    layout = (
        ("<i8", n_docs * parts),
        ("<i8", n_terms),
        ("<i8", n_terms + 1),
        ("<i4", n_docs),
        ("<i4", n_postings),
        ("<i4", n_postings),
    )
    start = _HEADER.size
    end = start + sum(np.dtype(dtype).itemsize * count for dtype, count in layout)
    if len(data) < end + doc_bytes + vocab_bytes:
        raise ValueError("truncated index")
    if len(data) > end + doc_bytes + vocab_bytes:
        raise ValueError("trailing bytes after the index")
    arrays = []
    for dtype, count in layout:
        arrays.append(np.frombuffer(data, dtype, count, start))
        start += arrays[-1].nbytes
    doc_ends, vocab_ends, offsets, lengths, doc_ids, tfs = arrays
    strings = _unpack_strings(doc_ends, data[end : end + doc_bytes])
    vocab = _unpack_strings(vocab_ends, data[end + doc_bytes :])
    docs = strings if parts == 1 else list(zip(strings[::2], strings[1::2]))
    if not (offsets[0] == 0 and offsets[-1] == n_postings and np.all(np.diff(offsets) > 0)):
        raise ValueError("term offsets do not fit the postings")
    # Within each term's slice the doc positions ascend, so none repeats.
    ascending = np.diff(doc_ids) > 0
    ascending[offsets[1:-1] - 1] = True
    if not (
        np.all(ascending)
        and np.all((doc_ids >= 0) & (doc_ids < n_docs))
        and np.all(tfs > 0)
        and np.all(lengths >= 0)
    ):
        raise ValueError("postings arrays are inconsistent")
    return InvertedIndex(field_kind, docs, lengths, vocab, offsets, doc_ids, tfs, k1, b)
