"""Brute-force reference implementations used to cross-check the engine.

These deliberately re-derive everything from raw inputs (no inverted
index, no incremental state) so they stay independent of the code paths
they verify. :func:`accumulate_scores` is the exception: the index's own
scores as a dict, for the tests that compare them with the formula's.
"""

from __future__ import annotations

import logging
import math
import random
from collections import Counter
from hashlib import blake2b
from typing import Sequence

import numpy as np

from patchrank.corpus import (
    _WORD_RUN_RE,
    CommitRecord,
    Corpus,
    CveRecord,
    _split_run,
    expect,
    read_jsonl,
    tokenize,
)
from patchrank.embedding import embed_batch
from patchrank.lexical import DocId, InvertedIndex, RankedList, _score_array, query
from patchrank.path_features import path_set, path_text
from patchrank.prerank import FusionConfig
from patchrank.training import _derive_seed

logger = logging.getLogger(__name__)


def tokenize_oracle(text: str) -> list[str]:
    """:func:`patchrank.corpus.tokenize`, one word run at a time."""
    tokens: list[str] = []
    for m in _WORD_RUN_RE.finditer(text):
        tokens.extend(_split_run(m.group(0)))
    return tokens


def token_count(text: str) -> int:
    return sum(map(len, map(_split_run, _WORD_RUN_RE.findall(text))))


def file_texts(commit: CommitRecord) -> dict[str, str]:
    """Per-path diff text, merging repeated paths in order of appearance."""
    texts: dict[str, str] = {}
    for fd, text in zip(commit.file_diffs, commit.section_texts()):
        texts[fd.path] = texts.get(fd.path, "") + text
    return texts


def commit_of(corpus: Corpus, commit_id: str) -> CommitRecord:
    return corpus.commits[corpus.position_of(commit_id)]


def is_sorted(corpus: Corpus) -> bool:
    """O(n) check of the (author_time, commit_id) sort invariant."""
    keys = [(c.author_time, c.commit_id) for c in corpus.commits]
    times = [c.author_time for c in corpus.commits]
    return all(keys[i] <= keys[i + 1] for i in range(len(keys) - 1)) and (
        corpus.author_times.tolist() == times
    )


def path_universe(corpus: Corpus) -> set[str]:
    """Every path ever touched by any commit of the corpus, lowercased."""
    universe: set[str] = set()
    for commit in corpus.commits:
        universe |= path_set(fd.path for fd in commit.file_diffs)
    return universe


def truncate_to_tokens_oracle(text: str, budget: int) -> str:
    """:func:`patchrank.corpus.truncate_to_tokens`, one word run at a time:
    stop before the first run whose tokens would overrun the budget."""
    used = 0
    last_end = 0
    for m in _WORD_RUN_RE.finditer(text):
        run_tokens = len(_split_run(m.group(0)))
        if used + run_tokens > budget:
            return text[:last_end]
        used += run_tokens
        last_end = m.end()
    return text


def offline_vector_oracle(text: str, dimension: int, seed: int = 13) -> np.ndarray:
    """:func:`patchrank.embedding.offline_embed`, one distinct token at a time:
    each adds ``1 + ln(tf)`` to its keyed-hash bucket, the sums kept as
    float64 and added in the order the tokens first occur; the sums are then
    divided by their norm. Token-free text is the first basis vector."""
    counts = Counter(tokenize_oracle(text))
    if not counts:
        return np.eye(1, dimension, dtype=np.float32)[0]
    key = seed.to_bytes(8, "little", signed=True)
    sums = [0.0] * dimension
    for token, tf in counts.items():
        digest = blake2b(token.encode("utf-8"), digest_size=8, key=key).digest()
        sums[int.from_bytes(digest, "big") % dimension] += 1.0 + math.log(tf)
    vec = np.array(sums)
    vec /= np.linalg.norm(vec)
    return vec.astype(np.float32)


def bm25_oracle_scores(
    corpus: Corpus, field_kind: str, query_text: str, k1: float = 1.2, b: float = 0.75
) -> dict:
    """Score every document directly from the BM25 formula."""
    docs: dict = {}
    if field_kind == "message":
        for commit in corpus.commits:
            docs[commit.commit_id] = tokenize(commit.message)
    elif field_kind == "diff":
        for commit in corpus.commits:
            docs[commit.commit_id] = tokenize("".join(commit.section_texts()))
    else:
        for commit in corpus.commits:
            for path, text in file_texts(commit).items():
                docs[(commit.commit_id, path)] = tokenize(text)

    n_docs = len(docs)
    if n_docs == 0:
        return {}
    avgdl = sum(len(t) for t in docs.values()) / n_docs
    # Summed in sorted term order, the order lexical._score_array sums
    # them in, so equal scores stay bit-equal whatever the hash seed.
    terms = sorted(set(tokenize(query_text)))
    scores = {}
    for doc_id, doc_tokens in docs.items():
        score = 0.0
        for term in terms:
            tf = doc_tokens.count(term)
            if tf == 0:
                continue
            df = sum(1 for other in docs.values() if term in other)
            idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
            score += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * len(doc_tokens) / avgdl))
        if score > 0.0:
            scores[doc_id] = score
    return scores


def accumulate_scores(index: InvertedIndex, query_text: str) -> dict[DocId, float]:
    """The index's BM25 score of every document matching a query term, as a
    dict to compare with :func:`bm25_oracle_scores`."""
    acc = _score_array(index, query_text)
    hits = np.flatnonzero(acc)
    return dict(zip([index.docs[i] for i in hits.tolist()], acc[hits].tolist()))


def rank_files_oracle(commit: CommitRecord, file_scores: dict) -> RankedList:
    """Every file document of ``commit`` by descending score, then ascending
    path, with ``file_scores`` the :func:`bm25_oracle_scores` of the file
    kind; a file absent from them scores 0.0."""
    docs = [(commit.commit_id, path) for path in file_texts(commit)]
    scored = [(doc, file_scores.get(doc, 0.0)) for doc in docs]
    return sorted(scored, key=lambda kv: (-kv[1], kv[0]))


def doc_tokens_oracle(corpus: Corpus, field_kind: str) -> dict[DocId, list[str]]:
    """Each message or file document's tokens: a commit's message's, or a
    (commit, path) pair's file sections' ``header + body`` tokens, in order."""
    docs: dict[DocId, list[str]] = {}
    for commit in corpus.commits:
        if field_kind == "message":
            docs[commit.commit_id] = tokenize_oracle(commit.message)
            continue
        for fd in commit.file_diffs:
            doc = docs.setdefault((commit.commit_id, fd.path), [])
            doc += tokenize_oracle(fd.header + fd.body)
    return docs


def _index_of_counts(field_kind, docs, counts, k1, b) -> InvertedIndex:
    """The index of documents ``docs``, ascending, with term counts ``counts``."""
    vocab = sorted(set().union(*counts))
    postings = sorted((term, doc, tf) for doc, c in enumerate(counts) for term, tf in c.items())
    per_term = Counter(term for term, _, _ in postings)
    offsets = np.cumsum([0] + [per_term[term] for term in vocab])
    return InvertedIndex(
        field_kind,
        docs,
        np.array([c.total() for c in counts], dtype=np.int32),
        vocab,
        np.array(offsets, dtype=np.int64),
        np.array([doc for _, doc, _ in postings], dtype=np.int32),
        np.array([tf for _, _, tf in postings], dtype=np.int32),
        k1,
        b,
    )


def build_index_oracle(corpus: Corpus, field_kind: str, k1=1.2, b=0.75) -> InvertedIndex:
    """The message or file index built from :func:`doc_tokens_oracle`, each
    document's tokens counted by a Counter."""
    tokens = doc_tokens_oracle(corpus, field_kind)
    docs = sorted(tokens)
    return _index_of_counts(field_kind, docs, [Counter(tokens[doc]) for doc in docs], k1, b)


def diff_index_oracle(corpus: Corpus, k1: float = 1.2, b: float = 0.75) -> InvertedIndex:
    """The diff index built from tokens: each commit's document is its file
    sections' tokens joined, counted term by term."""
    docs = sorted(corpus.commit_ids)
    by_id = {commit.commit_id: commit for commit in corpus.commits}
    sections = {doc: [fd.header + fd.body for fd in by_id[doc].file_diffs] for doc in docs}
    counts = [Counter(t for text in sections[doc] for t in tokenize(text)) for doc in docs]
    return _index_of_counts("diff", docs, counts, k1, b)


# The pre-ranker as dict code over commit ids, one dict per component: the
# reference for prerank's array code, which must give the same ids and bits.


def reciprocal_rank_transform(ranked: RankedList) -> dict:
    """Map each doc to 1/rank (1-based); absent docs are treated as 0."""
    return {doc_id: 1.0 / rank for rank, (doc_id, _) in enumerate(ranked, start=1)}


def _time_rank_map(corpus: Corpus, cve_time: int | None) -> dict[str, float]:
    if cve_time is None or not corpus.commits:
        return {}
    insert_at = corpus.insertion_position(cve_time)
    # Equal distances are broken by ascending commit_id before ranks are
    # assigned, keeping the transform deterministic.
    order = sorted(
        range(len(corpus)),
        key=lambda i: (abs(i - insert_at), corpus.commits[i].commit_id),
    )
    return {
        corpus.commits[i].commit_id: 1.0 / rank for rank, i in enumerate(order, start=1)
    }


def prerank_components_oracle(
    corpus: Corpus,
    cve: CveRecord,
    msg_index: InvertedIndex,
    diff_index: InvertedIndex,
    config: FusionConfig = FusionConfig(),
) -> dict[str, dict[str, float]]:
    """Per-component reciprocal-rank maps keyed by COMPONENT_NAMES.

    BM25 lists are truncated at candidate_k before the transform; a missing
    reserve/publish timestamp yields an identically-zero component.
    """
    return {
        "msg": reciprocal_rank_transform(query(msg_index, cve.description, config.candidate_k)),
        "diff": reciprocal_rank_transform(query(diff_index, cve.description, config.candidate_k)),
        "reserve": _time_rank_map(corpus, cve.reserve_time),
        "publish": _time_rank_map(corpus, cve.publish_time),
    }


def fuse_components_oracle(
    corpus: Corpus,
    components: dict[str, dict[str, float]],
    config: FusionConfig = FusionConfig(),
) -> RankedList:
    w_msg, w_diff, w_res, w_pub = config.weights
    fused = {
        commit_id: (
            w_msg * components["msg"].get(commit_id, 0.0)
            + w_diff * components["diff"].get(commit_id, 0.0)
            + w_res * components["reserve"].get(commit_id, 0.0)
            + w_pub * components["publish"].get(commit_id, 0.0)
        )
        for commit_id in corpus.commit_ids
    }
    ordered = sorted(fused.items(), key=lambda kv: (-kv[1], kv[0]))
    return ordered[: config.candidate_k]


def mrr_oracle(ranked: list, relevant: set) -> float:
    positions = [i + 1 for i, (doc, _) in enumerate(ranked) if doc in relevant]
    return 1.0 / positions[0] if positions else 0.0


def recall_oracle(ranked: list, relevant: set, k: int) -> float:
    hits = 0
    for doc, _ in ranked[:k]:
        if doc in relevant:
            hits += 1
    return hits / len(relevant)


def ndcg_oracle(ranked: list, relevant: set, k: int) -> float:
    gains = [(2 ** (1 if doc in relevant else 0)) - 1 for doc, _ in ranked]
    dcg = 0.0
    for position in range(1, min(k, len(gains)) + 1):
        dcg += gains[position - 1] / math.log2(position + 1)
    ideal_gains = sorted(
        [(2**1) - 1] * len(relevant) + [0] * max(0, len(ranked) - len(relevant)), reverse=True
    )
    idcg = 0.0
    for position in range(1, min(k, len(ideal_gains)) + 1):
        idcg += ideal_gains[position - 1] / math.log2(position + 1)
    return dcg / idcg if idcg > 0 else 0.0


# Per-pair references for FeatureAssembler.matrix, one (CVE, commit) pair
# per call. The cosine of two vectors is the float64 sum of their float64
# products, the rule the batched features use, so rows compare bit for bit.


def cosine_oracle(a, b) -> float:
    return float((np.asarray(a, np.float64) * np.asarray(b, np.float64)).sum())


def _mean_cosine(query, vectors) -> float:
    mean = np.mean(vectors, axis=0)  # float32, as the store's vectors
    norm = math.sqrt(cosine_oracle(mean, mean))
    return 0.0 if norm == 0.0 else cosine_oracle(query, mean) / norm


def hier_features(
    store, query, commit_id: str, ranked_files, pool: int = 5
) -> tuple[float, float, float, float]:
    """The four hierarchical features of one commit, given the CVE vector
    ``query`` and the commit's BM25 file ranking (:func:`rank_files_oracle`
    order): commit cosine, max cosine over the top ``pool`` files, top-1 file
    cosine, and cosine with the mean of the top two."""
    commit_cosine = cosine_oracle(query, stored_vector(store, "commit", commit_id))
    if not ranked_files:
        return commit_cosine, 0.0, 0.0, 0.0
    vectors = [stored_vector(store, "file", *doc_id) for doc_id, _ in ranked_files]
    cosines = [cosine_oracle(query, v) for v in vectors]
    mean_cosine = cosines[0] if len(vectors) == 1 else _mean_cosine(query, vectors[:2])
    return commit_cosine, max(cosines[:pool]), cosines[0], mean_cosine


def stored_vector(store, *key) -> np.ndarray:
    """The store's vector of ``key``; a key without one raises MissingVectorError."""
    return store.matrix[store.rows_of([key])[0]]


def feature_commit_cosine(store, cve_id: str, commit_id: str) -> float:
    """Cosine between the CVE vector and the whole-commit vector."""
    return cosine_oracle(store.cve_vector(cve_id), stored_vector(store, "commit", commit_id))


def score_document(index, query_text: str, doc_id) -> float:
    """BM25 score of one document; 0.0 when it matches no query term."""
    return accumulate_scores(index, query_text).get(doc_id, 0.0)


def time_affinity(corpus: Corpus, cve_time: int, commit_id: str) -> int:
    """Number of commits between a commit and a CVE timestamp, both located
    in the corpus's time-sorted commit array: the commit by its position,
    the timestamp by its insertion point."""
    return abs(corpus.position_of(commit_id) - corpus.insertion_position(cve_time))


def feature_path_cosine(provider, ner_paths: set, commit_paths: set) -> float:
    """Cosine between the two path sets embedded as newline-joined text."""
    if not ner_paths or not commit_paths:
        return 0.0
    vec_a, vec_b = embed_batch(provider, [path_text(ner_paths), path_text(commit_paths)])
    return cosine_oracle(vec_a, vec_b)


# The field tables of the candidates.jsonl and ranking.jsonl exports.
_ROW = {"cve_id": expect(str), "commit_id": expect(str), "rank": expect(int, 1)}
CANDIDATE_FIELDS = _ROW | {"fused_score": expect(float)}
RANKING_FIELDS = _ROW | {"score": expect(float)}


def load_ranked_oracle(path, fields: dict, score_key: str) -> dict[str, list[tuple[str, float]]]:
    """Per-CVE ``(commit_id, score)`` lists of a candidates.jsonl or
    ranking.jsonl export, in file order, each CVE's lines consecutive: the
    reader the stages used before they read the array files."""
    by_cve: dict[str, list[tuple[str, float]]] = {}
    last = None
    for record in read_jsonl(path, fields):
        if record["cve_id"] in by_cve and record["cve_id"] != last:
            raise ValueError(f"{path}: the lines of {record['cve_id']} are not consecutive")
        last = record["cve_id"]
        by_cve.setdefault(last, []).append((record["commit_id"], record[score_key]))
    return by_cve


def sample_training_group_oracle(
    cve: CveRecord,
    preranked: Sequence[str],
    corpus: Corpus,
    seed: int,
    *,
    hard_negatives: int,
    random_negatives: int,
) -> list[tuple[str, int]] | None:
    """:func:`patchrank.training.sample_training_group` by commit id: the
    group's (commit id, relevance) rows, with ``preranked`` the pre-ranked
    commit ids."""
    positives = sorted(pid for pid in cve.known_patch_ids if pid in corpus)
    if not positives:
        logger.warning("skipping %s: no known patch commit in corpus", cve.cve_id)
        return None
    positive_set = set(positives)
    hard = [doc for doc in preranked[:hard_negatives] if doc not in positive_set]
    remaining = sorted(set(corpus.commit_ids) - positive_set - set(hard))
    rng = random.Random(_derive_seed(seed, cve.cve_id))
    randoms = rng.sample(remaining, min(random_negatives, len(remaining)))
    rows = [(c, 1) for c in positives]
    rows += [(c, 0) for c in hard]
    rows += [(c, 0) for c in randoms]
    return rows
