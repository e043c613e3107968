"""Commit-level and per-file similarity features, and the assembler of all
nine features that the ranker reads.

A commit's long diff is represented hierarchically: the file diffs most
lexically relevant to the CVE are selected with BM25, and their embedding
vectors are aggregated three ways (max cosine over the top five, cosine of
the top one, cosine with the mean of the top two).

:class:`FeatureAssembler` computes these, with the BM25, time-distance and
path features, for a CVE's candidates in array passes with :func:`cosine`
and :func:`mean_cosine`; the per-commit functions here are the references
it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Sequence

import numpy as np

from .corpus import CommitRecord, Corpus, CveRecord
from .embedding import MissingVectorError, VectorStore, embed_batch
from .lexical import InvertedIndex, _score_array, commit_ranks, rank_files_within_commit
from .path_features import commit_paths, extract_entities, feature_jaccard, path_text, search_paths
from .settings import DEFAULT_PER_ENTITY_CAP, NUM_FEATURES

# Path texts missing from the assembler's memo are embedded this many at a
# time: a provider answers with Python float lists (~8 KB per 256-d vector),
# and one call for a few hundred texts would raise featurize's peak RSS.
PATH_EMBED_BATCH = 64
# Candidates per array pass: ~3 KB per gathered vector at d = 256, up to six
# per candidate, so a CVE's thousands of candidates add ~2 MB to the peak.
MATRIX_CHUNK = 128


@dataclass(frozen=True)
class HierConfig:
    """How many top-ranked files the max cosine pools; fixed by default,
    configurable for ablation runs."""

    max_pool_files: int = 5


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


def _top_file_vectors(
    store: VectorStore,
    file_index: InvertedIndex,
    cve: CveRecord,
    commit: CommitRecord,
    limit: int,
) -> list[np.ndarray]:
    ranked = rank_files_within_commit(file_index, cve, commit.commit_id)
    return [store.file_vector(*doc_id) for doc_id, _ in ranked[:limit]]


def feature_max_file_sim(
    store: VectorStore,
    file_index: InvertedIndex,
    cve: CveRecord,
    commit: CommitRecord,
    config: HierConfig = DEFAULT_HIER_CONFIG,
) -> float:
    """Max cosine with the CVE over the top BM25-ranked file diffs."""
    vectors = _top_file_vectors(store, file_index, cve, commit, config.max_pool_files)
    if not vectors:
        return 0.0
    query = store.cve_vector(cve.cve_id)
    return max(float(cosine(query, v)) for v in vectors)


def feature_top1_file_cosine(
    store: VectorStore,
    file_index: InvertedIndex,
    cve: CveRecord,
    commit: CommitRecord,
) -> float:
    """Cosine with the single best BM25-ranked file diff."""
    vectors = _top_file_vectors(store, file_index, cve, commit, 1)
    if not vectors:
        return 0.0
    return float(cosine(store.cve_vector(cve.cve_id), vectors[0]))


def feature_mean_top2_cosine(
    store: VectorStore,
    file_index: InvertedIndex,
    cve: CveRecord,
    commit: CommitRecord,
) -> float:
    """Cosine with the mean of the top-two file vectors."""
    vectors = _top_file_vectors(store, file_index, cve, commit, 2)
    if not vectors:
        return 0.0
    query = store.cve_vector(cve.cve_id)
    if len(vectors) == 1:
        return float(cosine(query, vectors[0]))
    return float(mean_cosine(query, *vectors))


class FeatureAssembler:
    """Computes the nine-feature rows for one CVE and a batch of commits.

    Each commit's store rows, documents and path set are looked up once, and
    a store lacking a commit or file vector raises MissingVectorError. Each
    :meth:`matrix` call scores the CVE once against the diff and file indexes
    and fills the rows with array operations. Per-CVE path search is cached,
    and each distinct path set reaches the provider once per assembler.
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
    ):
        self.corpus = corpus
        self.store = store
        self.diff_index = diff_index
        self.file_index = file_index
        self.per_entity_cap = per_entity_cap
        self._provider = provider
        self._cve_cache: dict[str, tuple[set[str], set[str]]] = {}
        commits = corpus.commits
        self._commit_paths = [commit_paths(commit) for commit in commits]
        self._path_texts = [path_text(paths) if paths else None for paths in self._commit_paths]
        self._universe = set().union(*self._commit_paths)
        # By corpus position: store rows and the file documents, contiguous as
        # the file index's documents ascend by (commit id, path). The diff
        # index's documents are the corpus's commits, so position p is document
        # corpus.id_ranks[p].
        rows = store.rows
        try:
            self._commit_rows = np.array([rows[("commit", c.commit_id)] for c in commits], np.intp)
            self._doc_rows = np.array([rows[("file", *doc)] for doc in file_index.docs], np.intp)
        except KeyError as exc:
            raise MissingVectorError(exc.args[0]) from None
        owners = commit_ranks(file_index, sorted(corpus.commit_ids))
        counts = np.bincount(owners, minlength=len(commits))
        self._file_starts = (np.cumsum(counts) - counts)[corpus.id_ranks]
        self._file_counts = counts[corpus.id_ranks]
        # The provider's normalized path-set vectors, a row per path_text() in _path_rows.
        self._path_rows: dict[str, int] = {}
        self._path_vectors = np.empty((0, 0), dtype=np.float32)  # replaced on first use

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

    def _hier_columns(self, query: np.ndarray, file_scores, positions: np.ndarray) -> np.ndarray:
        """Commit cosine, max over the top five files, top-1 file cosine and
        cosine with the mean of the top two, the files ranked by their
        ``file_scores`` as :func:`~patchrank.lexical.rank_files_within_commit`
        ranks them; 0.0 for the file columns of a commit without files."""
        out = np.zeros((len(positions), 4))
        out[:, 0] = cosine(self.store.matrix[self._commit_rows[positions]], query)
        # One entry per (candidate, file document), grouped by candidate. Sorting
        # by score descending, then document position (path order), keeps the
        # groups in place, so an entry's rank is its offset in its group.
        counts = self._file_counts[positions]
        owner = np.repeat(np.arange(len(positions)), counts)
        offset = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
        docs = np.repeat(self._file_starts[positions], counts) + offset
        docs = docs[np.lexsort((docs, -file_scores[docs], owner))]
        pool = offset < DEFAULT_HIER_CONFIG.max_pool_files
        docs, owner, rank = docs[pool], owner[pool], offset[pool]
        vectors = self.store.matrix[self._doc_rows[docs]]
        cosines = cosine(vectors, query)
        top1 = np.flatnonzero(rank == 0)
        out[owner[top1], 1] = np.maximum.reduceat(cosines, top1)
        out[owner[top1], 2] = out[owner[top1], 3] = cosines[top1]
        pairs = top1[counts[owner[top1]] > 1]
        out[owner[pairs], 3] = mean_cosine(query, vectors[pairs], vectors[pairs + 1])
        return out

    def _path_cosines(self, ner_paths: set[str], positions: np.ndarray) -> np.ndarray:
        """Cosine of the NER path set with each commit's path set; 0.0 when
        either set is empty. Texts missing from the memo are embedded in
        batches of PATH_EMBED_BATCH."""
        if not ner_paths:
            return np.zeros(len(positions))
        query_text = path_text(ner_paths)
        texts = [self._path_texts[p] for p in positions.tolist()]
        wanted = dict.fromkeys([query_text, *texts])
        missing = [t for t in wanted if t is not None and t not in self._path_rows]
        if missing:
            batches = range(0, len(missing), PATH_EMBED_BATCH)
            new = [embed_batch(self._provider, missing[i : i + PATH_EMBED_BATCH]) for i in batches]
            stacked = [self._path_vectors, *new] if self._path_rows else new
            self._path_vectors = np.concatenate(stacked)
            self._path_rows.update(zip(missing, count(len(self._path_rows))))
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
        rows[:, 7] = [feature_jaccard(ner_paths, self._commit_paths[p]) for p in positions.tolist()]
        rows[:, 8] = self._path_cosines(ner_paths, positions)
        return rows
