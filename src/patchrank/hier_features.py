"""Commit-level and per-file similarity features, and the assembler of all
nine features that the ranker reads.

A commit's long diff is represented hierarchically: the file diffs most
lexically relevant to the CVE are selected with BM25, and their embedding
vectors are aggregated three ways (max cosine over the top five, cosine of
the top one, cosine with the mean of the top two).

:func:`file_columns` is the one ranking and pooling of a commit's files.
:class:`FeatureAssembler` runs it, with the commit cosine and the BM25,
time-distance and path features, over a CVE's candidates in array passes;
the three ``feature_*`` functions are views of it for one commit.
"""

from __future__ import annotations

from itertools import count
from typing import Sequence

import numpy as np

from .container import Record, set_field
from .corpus import CommitRecord, Corpus, CveRecord
from .embedding import VectorStore, embed_rows
from .lexical import InvertedIndex, _score_array, commit_docs
from .path_features import extract_entities, feature_jaccard, path_set, path_text, search_paths
from .settings import DEFAULT_BATCH_SIZE, DEFAULT_PER_ENTITY_CAP, NUM_FEATURES, check_pool

# Candidates per array pass: ~3 KB per gathered vector at d = 256, up to six
# per candidate, so a CVE's thousands of candidates add ~2 MB to the peak.
MATRIX_CHUNK = 128


class HierConfig(Record):
    """How many top-ranked files the max cosine pools; fixed by default,
    configurable for ablation runs."""

    __slots__ = ("max_pool_files",)

    def __init__(self, max_pool_files: int = 5) -> None:
        check_pool(max_pool_files)
        set_field(self, "max_pool_files", max_pool_files)


DEFAULT_HIER_CONFIG = HierConfig()


def cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine of unit vectors along the last axis, batched over the others:
    the float64 sum of their float64 products, ``(a.astype(f8) * b.astype(f8))
    .sum(-1)``. A pair of rows gives the same bits alone as in any batch."""
    return np.multiply(a, b, dtype=np.float64).sum(-1)


def mean_cosine(query: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Cosine of ``query`` with the float32 mean ``(first + second) / 2``, as
    ``np.mean`` gives it, whose norm is taken by the :func:`cosine` rule;
    0.0 where that mean is zero."""
    mean = (first + second) / np.float32(2)
    norm = np.sqrt(cosine(mean, mean))
    return np.divide(cosine(query, mean), norm, out=np.zeros(np.shape(norm)), where=norm > 0.0)


def file_columns(query, matrix, doc_rows, file_scores, starts, counts, pool: int) -> np.ndarray:
    """Per commit: max cosine with ``query`` over its top ``pool`` files, top-1
    file cosine and cosine with the mean of the top two; 0.0 without files.
    Commit ``i``'s files are the ``counts[i]`` documents from ``starts[i]``, in
    path order; document ``j`` has vector ``matrix[doc_rows[j]]`` and BM25 score
    ``file_scores[j]``, and they rank as ``rank_files_within_commit`` ranks them."""
    out = np.zeros((len(counts), 3))
    # One entry per (commit, file document), grouped by commit. Sorting by
    # score descending, then document position (path order), keeps the groups
    # in place, so an entry's rank is its offset in its group.
    owner = np.repeat(np.arange(len(counts)), counts)
    offset = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    docs = np.repeat(starts, counts) + offset
    docs = docs[np.lexsort((docs, -file_scores[docs], owner))]
    keep = offset < max(pool, 2)  # the mean reads the top two whatever the pool
    docs, owner, rank = docs[keep], owner[keep], offset[keep]
    vectors = matrix[doc_rows[docs]]
    cosines = cosine(vectors, query)
    top1 = np.flatnonzero(rank == 0)
    out[owner[top1], 0] = np.maximum.reduceat(np.where(rank < pool, cosines, -np.inf), top1)
    out[owner[top1], 1] = out[owner[top1], 2] = cosines[top1]
    pairs = top1[counts[owner[top1]] > 1]
    out[owner[pairs], 2] = mean_cosine(query, vectors[pairs], vectors[pairs + 1])
    return out


def _commit_file_columns(store, file_index, cve, commit, pool: int) -> np.ndarray:
    """:func:`file_columns` of one commit, every file of which needs a vector."""
    docs = commit_docs(file_index, commit.commit_id)
    rows = store.rows_of([("file", *file_index.docs[j]) for j in docs])
    scores = _score_array(file_index, cve.description)[docs.start : docs.stop]
    query, starts, counts = store.cve_vector(cve.cve_id), np.array([0]), np.array([len(docs)])
    return file_columns(query, store.matrix, rows, scores, starts, counts, pool)[0]


def feature_max_file_sim(
    store: VectorStore,
    file_index: InvertedIndex,
    cve: CveRecord,
    commit: CommitRecord,
    config: HierConfig = DEFAULT_HIER_CONFIG,
) -> float:
    """Max cosine with the CVE over the top BM25-ranked file diffs."""
    return float(_commit_file_columns(store, file_index, cve, commit, config.max_pool_files)[0])


def feature_top1_file_cosine(
    store: VectorStore,
    file_index: InvertedIndex,
    cve: CveRecord,
    commit: CommitRecord,
) -> float:
    """Cosine with the single best BM25-ranked file diff."""
    return float(_commit_file_columns(store, file_index, cve, commit, 1)[1])


def feature_mean_top2_cosine(
    store: VectorStore,
    file_index: InvertedIndex,
    cve: CveRecord,
    commit: CommitRecord,
) -> float:
    """Cosine with the mean of the top-two file vectors."""
    return float(_commit_file_columns(store, file_index, cve, commit, 2)[2])


class FeatureAssembler:
    """Computes the nine-feature rows for one CVE and a batch of commits.

    ``diff_index`` is the one :func:`lexical.diff_index` sums from
    ``file_index``. A store lacking a commit or file vector raises
    MissingVectorError. A commit's path set and path text, and its span of
    file documents, are computed when a :meth:`matrix` call first asks for
    its position. Each call scores the CVE once against the diff and file
    indexes and fills the rows with array operations. Per-CVE path search is
    cached, and each distinct path set reaches the provider once per
    assembler, ``batch_size`` texts per call.
    """

    def __init__(
        self,
        corpus: Corpus,
        store: VectorStore,
        diff_index: InvertedIndex,
        file_index: InvertedIndex,
        provider,
        *,
        per_entity_cap: int = DEFAULT_PER_ENTITY_CAP,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ):
        self.corpus = corpus
        self.store = store
        self.diff_index = diff_index
        self.file_index = file_index
        self.per_entity_cap = per_entity_cap
        self.batch_size = batch_size
        self._provider = provider
        self._cve_cache: dict[str, tuple[set[str], set[str]]] = {}
        # A commit's paths are those of its file documents, and the
        # repository's paths those of all of them.
        self._universe = path_set(set(file_index.doc_paths))
        # By position, once computed: a commit's lowercased path set, and its
        # path_text, or None without paths.
        self._known = np.zeros(len(corpus), dtype=bool)
        self._path_sets: list[set[str] | None] = [None] * len(corpus)
        self._path_texts: list[str | None] = [None] * len(corpus)
        # Each file document's commit, by rank in commit-id order: the diff
        # index's documents are the corpus's commits, so position p is
        # document corpus.id_ranks[p], and its file documents are contiguous.
        self._owners = diff_index.file_owners
        self._commit_rows, self._doc_rows = store.corpus_rows(corpus, file_index)
        # The provider's normalized path-set vectors, a row per path_text() in _path_rows,
        # and rows to grow into.
        self._path_rows: dict[str, int] = {}
        self._path_vectors = np.empty((0, 0), dtype=np.float32)  # takes the provider's dimension

    def entities_for(self, cve: CveRecord) -> set[str]:
        return self._cve_state(cve)[0]

    def ner_paths_for(self, cve: CveRecord) -> set[str]:
        return self._cve_state(cve)[1]

    def _cve_state(self, cve: CveRecord) -> tuple[set[str], set[str]]:
        state = self._cve_cache.get(cve.cve_id)
        if state is None:
            entities = extract_entities(cve.description)
            ner_paths = search_paths(self._universe, entities, self.per_entity_cap)
            state = (entities, ner_paths)
            self._cve_cache[cve.cve_id] = state
        return state

    def _file_docs(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The first file document of each commit at ``positions``, and their count."""
        ranks = self.corpus.id_ranks[positions]
        starts = self._owners.searchsorted(ranks, "left")
        return starts, self._owners.searchsorted(ranks, "right") - starts

    def _compute_paths(self, positions: np.ndarray) -> None:
        """The path set and path text of each position not yet computed."""
        new = positions[~self._known[positions]]
        for p, start, count in zip(new.tolist(), *map(np.ndarray.tolist, self._file_docs(new))):
            paths = self._path_sets[p] = path_set(self.file_index.doc_paths[start : start + count])
            self._path_texts[p] = path_text(paths) if paths else None
        self._known[new] = True

    def _hier_columns(self, query: np.ndarray, file_scores, positions: np.ndarray) -> np.ndarray:
        """Commit cosine, then :func:`file_columns`, of the commits at ``positions``."""
        out = np.empty((len(positions), 4))
        out[:, 0] = cosine(self.store.matrix[self._commit_rows[positions]], query)
        starts, counts = self._file_docs(positions)
        matrix, pool = self.store.matrix, DEFAULT_HIER_CONFIG.max_pool_files
        out[:, 1:] = file_columns(query, matrix, self._doc_rows, file_scores, starts, counts, pool)
        return out

    def _path_cosines(self, ner_paths: set[str], positions: np.ndarray) -> np.ndarray:
        """Cosine of the NER path set with each commit's path set; 0.0 when
        either set is empty. Texts missing from the memo are embedded in
        batches of ``batch_size``: a provider answers with Python float lists
        (~8 KB per 256-d vector), so one call for a few hundred texts would
        raise featurize's peak RSS."""
        if not ner_paths:
            return np.zeros(len(positions))
        query_text = path_text(ner_paths)
        texts = [self._path_texts[p] for p in positions.tolist()]
        wanted = dict.fromkeys([query_text, *texts])
        missing = [t for t in wanted if t is not None and t not in self._path_rows]
        if missing:
            known, vectors = len(self._path_rows), self._path_vectors
            if known + len(missing) > len(vectors):  # at least doubled: a row moves O(1) times
                rows = max(known + len(missing), 2 * known)
                vectors = np.empty((rows, vectors.shape[1]), np.float32)
                vectors[:known] = self._path_vectors[:known]
            documents = [(row, text, text, None) for row, text in enumerate(missing, known)]
            self._path_vectors = embed_rows(self._provider, documents, vectors, self.batch_size)
            self._path_rows.update(zip(missing, count(known)))
        rows = np.array([self._path_rows.get(text, -1) for text in texts], dtype=np.intp)
        query = self._path_vectors[self._path_rows[query_text]]
        out = np.empty(len(positions))
        for start in range(0, len(rows), MATRIX_CHUNK):
            part = rows[start : start + MATRIX_CHUNK]
            cosines = cosine(self._path_vectors[part], query)
            out[start : start + len(part)] = np.where(part >= 0, cosines, 0.0)  # -1: no path set
        return out

    def matrix(self, cve: CveRecord, positions: Sequence[int]) -> np.ndarray:
        """Feature rows for the commits at corpus ``positions``, in that order."""
        positions = np.asarray(positions, dtype=np.intp)
        ner_paths = self.ner_paths_for(cve)
        query = self.store.cve_vector(cve.cve_id)
        file_scores = _score_array(self.file_index, cve.description)
        rows = np.empty((len(positions), NUM_FEATURES), dtype=np.float64)
        for start in range(0, len(positions), MATRIX_CHUNK):
            part = slice(start, start + MATRIX_CHUNK)
            rows[part, :4] = self._hier_columns(query, file_scores, positions[part])
        rows[:, 4] = _score_array(self.diff_index, cve.description)[self.corpus.id_ranks[positions]]
        for column, cve_time in ((5, cve.reserve_time), (6, cve.publish_time)):
            # Without a timestamp, a distance beyond any real commit, not perfect affinity.
            at = None if cve_time is None else self.corpus.insertion_position(cve_time)
            rows[:, column] = len(self.corpus) if at is None else np.abs(positions - at)
        self._compute_paths(positions)
        path_sets = [self._path_sets[p] for p in positions.tolist()]
        rows[:, 7] = [feature_jaccard(ner_paths, paths) for paths in path_sets]
        rows[:, 8] = self._path_cosines(ner_paths, positions)
        return rows
