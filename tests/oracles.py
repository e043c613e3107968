"""Brute-force reference implementations used to cross-check the engine.

These deliberately re-derive everything from raw inputs (no inverted
index, no incremental state) so they stay independent of the code paths
they verify.
"""

from __future__ import annotations

import math

import numpy as np

from patchrank.corpus import _WORD_RUN_RE, Corpus, _split_run, tokenize
from patchrank.embedding import embed_batch
from patchrank.lexical import accumulate_scores
from patchrank.path_features import path_text


def tokenize_oracle(text: str) -> list[str]:
    """:func:`patchrank.corpus.tokenize`, one word run at a time."""
    tokens: list[str] = []
    for m in _WORD_RUN_RE.finditer(text):
        tokens.extend(_split_run(m.group(0)))
    return tokens


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
            docs[commit.commit_id] = tokenize(commit.diff_text())
    else:
        for commit in corpus.commits:
            for path, text in commit.file_texts().items():
                docs[(commit.commit_id, path)] = tokenize(text)

    n_docs = len(docs)
    if n_docs == 0:
        return {}
    avgdl = sum(len(t) for t in docs.values()) / n_docs
    # Summed in sorted term order, the order lexical.accumulate_scores
    # documents, so equal scores stay bit-equal whatever the hash seed.
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


def hier_features(store, query, commit_id: str, ranked_files) -> tuple[float, float, float, float]:
    """The four hierarchical features of one commit, given the CVE vector
    ``query`` and the commit's BM25 file ranking (``rank_files_within_commit``
    order): commit cosine, max cosine over the top five files, top-1 file
    cosine, and cosine with the mean of the top two."""
    commit_cosine = cosine_oracle(query, store.commit_vector(commit_id))
    if not ranked_files:
        return commit_cosine, 0.0, 0.0, 0.0
    vectors = [store.file_vector(*doc_id) for doc_id, _ in ranked_files[:5]]
    cosines = [cosine_oracle(query, v) for v in vectors]
    mean_cosine = cosines[0] if len(vectors) == 1 else _mean_cosine(query, vectors[:2])
    return commit_cosine, max(cosines), cosines[0], mean_cosine


def feature_commit_cosine(store, cve_id: str, commit_id: str) -> float:
    """Cosine between the CVE vector and the whole-commit vector."""
    return cosine_oracle(store.cve_vector(cve_id), store.commit_vector(commit_id))


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
