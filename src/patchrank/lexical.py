"""Okapi BM25 inverted index over commit messages and per-file diffs, and
the diff index, which :func:`diff_index` sums from the per-file one.

Serves both the pre-ranking stage and the per-commit file selection used
by the hierarchical similarity features. The index is held in
compressed-sparse-row form: each term's postings are one slice of a
doc-position array and a term-frequency array, scored by one function,
:func:`_score_array`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .container import STR, Format, Rows, Section, byte_array
from .corpus import _WORD_RUN_RE, Corpus, CveRecord, _split_run, tokenize
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


class InvertedIndex:
    """One field's BM25 index. Document ``i`` is ``docs[i]``; term ``t`` is
    ``vocab[t]``, and its postings are ``doc_ids[offsets[t]:offsets[t + 1]]``
    (ascending) with their term frequencies at the same positions of ``tfs``.
    ``docs`` ascend, so position order is doc_id order; ``vocab`` ascends;
    ``doc_lengths`` are ``int32`` token counts, ``offsets`` ``int64`` and
    ``doc_ids`` and ``tfs`` ``int32``."""

    def __init__(
        self, field_kind: str, docs: Sequence[DocId], doc_lengths: np.ndarray, vocab: list[str],
        offsets: np.ndarray, doc_ids: np.ndarray, tfs: np.ndarray, k1=DEFAULT_K1, b=DEFAULT_B,
    ) -> None:
        self.field_kind, self.docs, self.doc_lengths = field_kind, docs, doc_lengths
        self.vocab, self.offsets, self.doc_ids, self.tfs = vocab, offsets, doc_ids, tfs
        self.k1, self.b = k1, b
        self.doc_count = len(docs)
        total = int(doc_lengths.sum(dtype=np.int64))
        self.avg_doc_length = total / self.doc_count if self.doc_count else 0.0
        # Each document's BM25 length normalisation, k1 * (1 - b + b * dl / avgdl).
        # With no tokens there are no postings, so the zeros are never read.
        self._norm = np.zeros(self.doc_count)
        if total:
            self._norm = k1 * (1.0 - b + b * doc_lengths / self.avg_doc_length)

    @cached_property
    def _slots(self) -> dict[str, int]:
        return {term: slot for slot, term in enumerate(self.vocab)}

    @cached_property
    def doc_commits(self) -> np.ndarray:
        """Each document's commit id, as a numpy ``S`` array of its bytes."""
        return byte_array([doc if self.field_kind != "file" else doc[0] for doc in self.docs])

    @cached_property
    def doc_paths(self) -> Sequence[str]:
        """Each file document's path."""
        return [path for _, path in self.docs]


class _TermIds(dict):
    """Word run -> the ids of its tokens, by :func:`corpus._split_run`; a term's
    id is the order in which :attr:`terms` first saw it."""

    def __init__(self) -> None:
        self.terms: dict[str, int] = {}

    def __missing__(self, run: str) -> tuple[int, ...]:
        terms = self.terms
        ids = self[run] = tuple(terms.setdefault(t, len(terms)) for t in _split_run(run))
        return ids


def build_index(
    corpus: Corpus, field_kind: str, *, k1: float = DEFAULT_K1, b: float = DEFAULT_B
) -> InvertedIndex:
    """Index one field of every commit; one document per commit (or per file).

    A message document is its commit's message. A file document, a commit
    and a path, is the ``header + body`` of its file sections, in order.
    Every text becomes term ids, word run by word run, and the postings are
    one ``np.unique`` of ``term rank * n_docs + doc`` over every token."""
    check_bm25(k1=k1, b=b)
    if field_kind == "diff":
        return diff_index(build_index(corpus, "file", k1=k1, b=b), corpus.ids)
    if field_kind == "message":
        docs, owners = corpus.commit_ids_at(corpus.id_order), corpus.id_ranks
        texts = corpus.messages
    elif field_kind == "file":
        commits = np.repeat(np.arange(len(corpus)), np.diff(corpus.bounds))
        pairs = list(zip(corpus.commit_ids_at(commits), corpus.paths))
        docs = sorted(set(pairs))
        where = {doc: j for j, doc in enumerate(docs)}
        texts, owners = map(str.__add__, corpus.headers, corpus.bodies), [where[p] for p in pairs]
    else:
        raise ValueError(f"field_kind must be one of {FIELD_KINDS}, got {field_kind!r}")
    term_ids, tokens, ends, find = _TermIds(), [], [0], _WORD_RUN_RE.findall
    for text in texts:
        tokens.extend(chain.from_iterable(map(term_ids.__getitem__, find(text))))
        ends.append(len(tokens))
    tokens, words = np.array(tokens, dtype=np.int32), list(term_ids.terms)
    # One key per token, its term's rank in the vocabulary times span plus its
    # document: the distinct keys, ascending, are the postings in term order.
    span, order = max(len(docs), 1), sorted(range(len(words)), key=words.__getitem__)
    term_keys = np.empty(len(words), dtype=np.int64)
    term_keys[order] = np.arange(len(words)) * span
    doc_of = np.repeat(np.asarray(owners, dtype=np.int32), np.diff(ends))
    keys = term_keys[tokens]
    keys += doc_of
    keys, tfs = np.unique(keys, return_counts=True)
    offsets = np.zeros(len(words) + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // span, minlength=len(words)), out=offsets[1:])
    lengths = np.bincount(doc_of, minlength=len(docs)).astype(np.int32)
    vocab = [words[i] for i in order]
    doc_ids, tfs = (keys % span).astype(np.int32), tfs.astype(np.int32)
    return InvertedIndex(field_kind, docs, lengths, vocab, offsets, doc_ids, tfs, k1, b)


def commit_ranks(file_index: InvertedIndex, commit_ids: Sequence[str] | np.ndarray) -> np.ndarray:
    """Each file document's commit, as its position in the ascending
    ``commit_ids``, strings or their ``S`` array. A document of any other
    commit, or documents out of commit order, raise a ValueError."""
    ids, docs = _id_array(commit_ids), file_index.doc_commits
    owners = ids.searchsorted(docs).astype(np.int32)
    known = owners < len(ids)
    known[known] = ids[owners[known]] == docs[known]
    if not known.all():
        unknown = docs[np.argmin(known)].decode()
        raise ValueError(f"a file document names commit {unknown}, not in the corpus")
    if np.any(np.diff(owners) < 0):
        raise ValueError("the file documents do not ascend by commit")
    return owners


def _id_array(commit_ids: Sequence[str] | np.ndarray) -> np.ndarray:
    return commit_ids if isinstance(commit_ids, np.ndarray) else byte_array(commit_ids)


def diff_index(file_index: InvertedIndex, commit_ids: Sequence[str] | np.ndarray) -> InvertedIndex:
    """The diff index of the commits ``commit_ids``, strings or their ``S``
    array, summed from their file index. A commit's diff document is its file
    sections, so each of its term frequencies, and its length, is the sum of
    its file documents'. A commit without sections is an empty document. Its
    ``file_owners`` are :func:`commit_ranks`: each file document's diff document."""
    ids = _id_array(commit_ids)
    ids = np.sort(ids) if np.any(ids[1:] < ids[:-1]) else ids
    docs = Rows(len(ids), lambda j: ids[j].decode())
    owners = commit_ranks(file_index, ids)
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
    index = InvertedIndex("diff", docs, lengths, vocab, offsets, commits[starts], tfs, k1, b)
    index.doc_commits, index._slots = ids, file_index._slots  # the same vocabulary
    index.file_owners = owners
    return index


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


def commit_docs(file_index: InvertedIndex, commit_id: str) -> range:
    """The positions of one commit's file documents: contiguous, as the
    documents ascend by (commit id, path), and empty for a commit with none.
    Another index kind raises a ValueError naming it."""
    if file_index.field_kind != "file":
        raise ValueError(f"expected a file index, got a {file_index.field_kind} index")
    ids, key = file_index.doc_commits, commit_id.encode()
    return range(ids.searchsorted(key, "left"), ids.searchsorted(key, "right"))


def rank_files_within_commit(
    file_index: InvertedIndex, cve: CveRecord, commit_id: str
) -> RankedList:
    """Every file document of one commit, ranked by BM25 score against the
    CVE description; ties, and the zero scores of files sharing no term
    with it, in ascending path order."""
    docs = commit_docs(file_index, commit_id)
    scores = _score_array(file_index, cve.description)[docs.start : docs.stop]
    order = np.argsort(-scores, kind="stable").tolist()
    return [(file_index.docs[docs[i]], float(scores[i])) for i in order]


def save_index(index: InvertedIndex, path: str | Path) -> None:
    """Write ``index`` in the :data:`INDEX_FORMAT` container. Equal indexes
    give equal bytes."""
    docs = index.docs
    if index.field_kind == "file":
        docs = [part for doc in index.docs for part in doc]
    kind = [FIELD_KINDS.index(index.field_kind)]
    arrays = {name: getattr(index, name) for name in _ARRAYS}
    INDEX_FORMAT.save(path, field_kind=kind, bm25=[index.k1, index.b], docs=docs, **arrays)


def load_index(path: str | Path | bytes) -> InvertedIndex:
    """Read a :func:`save_index` file, or its bytes. A damaged container, or
    arrays that do not fit together, raise a ValueError naming ``path``."""
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
    commits = docs
    if kind == "file":
        commits, paths = docs.part(0, 2), docs.part(1, 2)
        docs = Rows(n_docs, lambda j: (commits[j], paths[j]))
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
    index = InvertedIndex(kind, docs, doc_lengths, vocab, offsets, doc_ids, tfs, k1, b)
    index.doc_commits = byte_array(commits)
    if kind == "file":
        index.doc_paths = paths
    return index
