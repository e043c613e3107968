"""Embedding providers, prompt templates, and the keyed vector store.

Two providers are included: a deterministic offline hashing embedder
(the default for tests and air-gapped runs) and a client for any HTTP
service exposing the ``POST /embed`` protocol. All vectors are
L2-normalized here, never trusted from the provider.
"""

from __future__ import annotations

import math
import os
import time
from collections.abc import Iterable, Iterator
from functools import cached_property
from hashlib import blake2b
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .container import STR, Format, Section, byte_array
from .corpus import Corpus, CveRecord, InputError, tokenize, truncate_tokenized
from .settings import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_COMMIT_TOKEN_BUDGET,
    DEFAULT_FILE_TOKEN_BUDGET,
    DEFAULT_MAX_RETRIES,
    DEFAULT_OFFLINE_DIMENSION,
    check_dimension,
)

if TYPE_CHECKING:
    from .lexical import InvertedIndex

PROVIDER_TOKEN_ENV = "PATCHRANK_PROVIDER_TOKEN"
_HTTP_TIMEOUT_S = 60.0
# Client errors that may succeed on a later attempt: timeout, rate limit.
_RETRIED_4XX = (408, 429)

# Version 1 wrote one record per key, version 2 a kind, id and path per key.
# The rows of ``vectors`` are the commit keys', then the CVE keys', then the
# file keys', each kind in key order, so a commit's file rows are contiguous.
# A file key is its commit's index in ``commits`` and its path.
STORE_FORMAT = Format(
    "vector store",
    b"PRVS",
    3,
    dict(commits=Section(STR), cves=Section(STR))
    | dict(file_commits=Section("<i4"), file_paths=Section(STR))
    | dict(vectors=Section("<f4", columns=None, finite=True)),
)


_DOC_TEMPLATE = (
    "This is a commit (commit message + diff code) of a repository. "
    "Represent it to retrieve the patching commit for a CVE description: "
    "Commit message: {message}; Diff code: {diff}"
)
# The document template's tokens before the message and between the message
# and the diff. Both parts meet a field at a separator, never inside a word
# run, so a document prompt's tokens are these, the message's and the diff's.
_DOC_TOKENS = tuple(map(tokenize, _DOC_TEMPLATE.removesuffix("{diff}").split("{message}")))
_QUERY_TEMPLATE = (
    "Represent this CVE description to retrieve the commit "
    "(commit message + diff code) that patches this CVE: {description}"
)


class ProviderError(RuntimeError, InputError):
    """An embedding provider's failure or malformed answer; ``attempts`` counts
    the requests made for it."""

    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts


class MissingVectorError(KeyError):
    def __init__(self, key: tuple):
        super().__init__(f"no vector stored for key {key!r}")
        self.key = key


def document_prompt(message: str, diff: str) -> str:
    """The embedding input of a commit or file: the document template around
    the commit message and the (commit's or file's) diff."""
    return _DOC_TEMPLATE.format(message=message, diff=diff)


def query_prompt(description: str) -> str:
    """The embedding input of a CVE: the query template around its description."""
    return _QUERY_TEMPLATE.format(description=description)


def _basis_vector(dimension: int) -> np.ndarray:
    vec = np.zeros(dimension, dtype=np.float32)
    vec[0] = 1.0
    return vec


def offline_embed(text: str, dimension: int, seed: int = 13) -> np.ndarray:
    """Deterministic bag-of-hashed-tokens embedding.

    Each distinct token adds weight 1 + ln(tf) to one of ``dimension``
    buckets chosen by a keyed hash; the result is L2-normalized.
    Token-free text maps to the first basis vector.
    """
    return OfflineEmbedder(dimension, seed).embed([text])[0]


class _TermIds(dict):
    """Term -> id, numbered in order of first sight. Each new term is hashed
    once, into its bucket: ``buckets()[id]``."""

    def __init__(self, dimension: int, seed: int):
        super().__init__()
        self._dimension = dimension
        self._key = seed.to_bytes(8, "little", signed=True)
        self._table = np.empty(0, dtype=np.intp)
        self._fresh: list[int] = []

    def __missing__(self, term: str) -> int:
        digest = blake2b(term.encode("utf-8"), digest_size=8, key=self._key).digest()
        self._fresh.append(int.from_bytes(digest, "big") % self._dimension)
        term_id = self[term] = len(self)
        return term_id

    def buckets(self) -> np.ndarray:
        if self._fresh:
            self._table = np.concatenate([self._table, np.array(self._fresh, dtype=np.intp)])
            self._fresh.clear()
        return self._table


class OfflineEmbedder:
    """The offline provider: :func:`offline_embed` of each text, identical
    across processes. Each distinct token is hashed once per instance, into
    a memo of buckets that lives as long as the embedder, since a token's
    bucket depends on the embedder's dimension and seed."""

    def __init__(self, dimension: int = DEFAULT_OFFLINE_DIMENSION, seed: int = 13):
        check_dimension(dimension)
        self.dimension = dimension
        self.seed = seed
        self._terms = _TermIds(dimension, seed)

    def embed(self, texts: list[str], tokens: list[list[str]] | None = None) -> np.ndarray:
        """One float32 row per text, its :func:`offline_embed` vector, built
        from ``tokens[i]`` when given, which must equal ``tokenize(texts[i])``.

        Each row's weights are added to its float64 bucket sums in the order
        its distinct tokens first occur, and the row is divided by its
        ``np.linalg.norm``, so a text gets the same bits in any batch.
        """
        if tokens is None:
            tokens = [tokenize(text) for text in texts]
        lengths = np.fromiter(map(len, tokens), np.intp, len(tokens))
        terms = self._terms
        flat = chain.from_iterable(tokens)
        ids = np.fromiter(map(terms.__getitem__, flat), np.intp, lengths.sum())
        # One key per (row, distinct term), counted; sorting the keys by their
        # first occurrence restores each row's token order.
        keys = np.repeat(np.arange(len(tokens)), lengths) * len(terms) + ids
        keys, first, tf = np.unique(keys, return_index=True, return_counts=True)
        order = np.argsort(first)
        rows, term_ids = np.divmod(keys[order], len(terms))
        tf = tf[order]
        # math.log, not np.log, whose last bit may differ.
        weights = np.array([1.0 + math.log(n) for n in range(1, tf.max(initial=0) + 1)])
        sums = np.zeros((len(tokens), self.dimension))
        np.add.at(sums, (rows, terms.buckets()[term_ids]), weights[tf - 1])
        norms = np.fromiter(map(np.linalg.norm, sums), np.float64, len(sums))
        empty = lengths == 0
        norms[empty] = 1.0
        vectors = (sums / norms[:, None]).astype(np.float32)
        vectors[empty] = _basis_vector(self.dimension)
        return vectors


class HttpEmbedder:
    """Client for the generic embedding service protocol.

    ``POST {base_url}/embed`` with ``{"model": ..., "inputs": [...]}``
    must answer ``{"vectors": [[...], ...]}`` aligned with the inputs.
    Server errors, 408, 429 and transport errors are retried with backoff;
    any other 4xx response fails at once, since repeating it cannot help.
    An optional bearer token is read from ``PATCHRANK_PROVIDER_TOKEN``.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        *,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_s: float = 0.5,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        # Imported here, not at module load: only this provider needs it, and
        # every stage and trace process would otherwise pay for the import.
        import requests

        self._session = requests.Session()

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(PROVIDER_TOKEN_ENV)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def embed(self, texts: list[str], tokens=None) -> list[list[float]]:
        """The service's vectors of ``texts``, in one request; ``tokens`` is not used."""
        import requests

        attempts = 0
        last_error = "no attempt made"
        while attempts < self.max_retries:
            attempts += 1
            try:
                response = self._session.post(
                    f"{self.base_url}/embed",
                    json={"model": self.model, "inputs": texts},
                    headers=self._headers(),
                    timeout=_HTTP_TIMEOUT_S,
                )
            except requests.RequestException as exc:
                last_error = f"transport error: {exc}"
            else:
                if response.status_code == 200:
                    try:
                        answer = response.json()
                    except ValueError:
                        raise ProviderError("provider returned unparseable JSON", attempts) from None
                    vectors = answer.get("vectors") if isinstance(answer, dict) else None
                    if not isinstance(vectors, list) or len(vectors) != len(texts):
                        count = len(vectors) if isinstance(vectors, list) else "no"
                        reason = f"provider returned {count} vectors for {len(texts)} inputs"
                        raise ProviderError(reason, attempts)
                    return vectors
                last_error = f"HTTP {response.status_code}"
                if 400 <= response.status_code < 500 and response.status_code not in _RETRIED_4XX:
                    break
            if attempts < self.max_retries:
                time.sleep(self.backoff_s * (2 ** (attempts - 1)))
        plural = "s" if attempts != 1 else ""
        raise ProviderError(f"{last_error}, after {attempts} attempt{plural}", attempts)


def embed_batch(provider, texts: list[str], tokens: list[list[str]] | None = None) -> np.ndarray:
    """Embed texts in order and L2-normalize, whatever the provider returned:
    one float32 row per text. Each row's norm is the square root of its
    float64 sum of squares, so a row normalizes alike in any batch. Given
    ``tokens``, each text's tokens, they are passed on to the provider. An
    answer other than one non-empty list of numbers per text, all of one
    length, raises ProviderError."""
    if not texts:
        return np.empty((0, 0), dtype=np.float32)
    texts = list(texts)
    raw = provider.embed(texts) if tokens is None else provider.embed(texts, tokens=tokens)
    if len(raw) != len(texts):
        raise ProviderError(f"provider returned {len(raw)} vectors for {len(texts)} texts")
    try:
        vectors = np.array(raw)
    except ValueError:  # rows of differing lengths
        vectors = np.empty(0)
    # np.array promotes a boolean beside numbers, so a list answer is checked element by element.
    if vectors.ndim == 2 and not isinstance(raw, np.ndarray):
        vectors = np.empty(0) if any(type(x) is bool for row in raw for x in row) else vectors
    if vectors.ndim != 2 or not vectors.shape[1] or vectors.dtype.kind not in "iuf":
        raise ProviderError("provider vectors are not non-empty lists of numbers of one length")
    vectors = vectors.astype(np.float64, copy=False)
    with np.errstate(over="ignore"):  # an overflowing norm is non-finite, handled below
        norms = np.sqrt(np.square(vectors).sum(-1))
    usable = np.isfinite(norms) & (norms > 0.0)
    # A zero (or non-finite) vector cannot be normalized; it degrades to the
    # same fixed basis vector used for token-free text.
    out = np.tile(_basis_vector(vectors.shape[1]), (len(vectors), 1))
    out[usable] = vectors[usable] / norms[usable, None]
    return out


def embed_rows(provider, documents: Iterable, matrix: np.ndarray, batch_size: int) -> np.ndarray:
    """``matrix`` with each ``(row, key, text, tokens)`` document's unit vector
    in its row, ``batch_size`` texts per :func:`embed_batch` call, given their
    tokens unless they are None. A matrix without columns takes the first
    batch's dimension. A failed call, or a batch of another dimension, raises
    ProviderError naming the batch's first key."""
    documents = iter(documents)
    while batch := list(islice(documents, batch_size)):
        rows, keys, texts, tokens = zip(*batch)
        try:
            vectors = embed_batch(provider, texts, None if tokens[0] is None else list(tokens))
            if not matrix.shape[1]:
                matrix = np.empty((len(matrix), vectors.shape[1]), dtype=np.float32)
            elif vectors.shape[1] != matrix.shape[1]:
                raise ProviderError(f"dimension {vectors.shape[1]}, not {matrix.shape[1]}")
        except ProviderError as exc:
            reason = f"embedding failed at {keys[0]!r} (batch of {len(batch)}): {exc}"
            raise ProviderError(reason, exc.attempts) from exc
        matrix[list(rows)] = vectors
    return matrix


class VectorStore:
    """Unit vectors keyed by commit, (commit, path), or CVE id, each a row of
    one ``(n, dimension)`` float32 ``matrix``, in :data:`STORE_FORMAT`'s order,
    and its key tables, ascending: ``commits``, ``cves``, and the file keys'
    ``file_commits`` (int32 indexes into ``commits``) and ``file_paths``. A
    key's row is found by searching its table. Tables that do not fit the
    matrix, a file key naming no commit, or a table that does not ascend
    raise a ValueError."""

    def __init__(self, commits, cves, file_commits, file_paths, vectors):
        if not len(file_commits) == len(file_paths) == len(vectors) - len(commits) - len(cves):
            sizes = f"{len(commits)} commits, {len(cves)} CVEs and {len(file_paths)} files"
            raise ValueError(f"key tables of {sizes} for {len(vectors)} vectors")
        if np.any((file_commits < 0) | (file_commits >= len(commits))):
            raise ValueError("a file key names no commit of the key table")
        self.commits, self.cves, self.matrix = commits, cves, vectors
        self.file_commits, self.file_paths = file_commits, file_paths
        self.dimension = vectors.shape[1]
        self._commit_ids, self._paths = byte_array(commits), byte_array(file_paths)
        ids, cve_ids, owners, paths = self._commit_ids, byte_array(cves), file_commits, self._paths
        later = (owners[1:] > owners[:-1]) | (owners[1:] == owners[:-1]) & (paths[1:] > paths[:-1])
        tables = (ids[1:] > ids[:-1], cve_ids[1:] > cve_ids[:-1], later)
        for kind, ascending in zip(("commit", "CVE", "file"), tables):
            if not ascending.all():
                raise ValueError(f"vector store keys do not ascend, in its {kind} table")
        self._file_base = len(commits) + len(cves)
        self._cve_rows = {cve_id: row for row, cve_id in enumerate(cves, len(commits))}

    @cached_property
    def _file_owners(self) -> np.ndarray:
        """Each file key's commit id, as an ``S`` array."""
        return self._commit_ids[self.file_commits]

    def rows_of(self, keys: Iterable[tuple]) -> np.ndarray:
        """The matrix rows of ``keys``, in order; the first key without a
        vector raises MissingVectorError."""
        keys = list(keys)
        rows = np.array([self._row(key) for key in keys], dtype=np.intp)
        if len(rows) and rows.min() < 0:
            raise MissingVectorError(keys[int(np.argmin(rows >= 0))])
        return rows

    def _row(self, key: tuple) -> int:
        """``key``'s row, by a binary search of its table; -1 without a vector."""
        kind, *name = key
        if kind == "cve" and len(name) == 1:
            return self._cve_rows.get(name[0], -1)
        if not all(isinstance(part, str) for part in name):
            return -1
        if kind == "commit" and len(name) == 1:
            at = int(self._commit_ids.searchsorted(name[0].encode()))
            return at if at < len(self.commits) and self.commits[at] == name[0] else -1
        if kind == "file" and len(name) == 2:
            owners = self._file_owners
            start, end = (owners.searchsorted(name[0].encode(), side) for side in ("left", "right"))
            at = start + int(self._paths[start:end].searchsorted(name[1].encode()))
            if at < end and self.file_paths[at] == name[1]:
                owned = self.commits[self.file_commits[at]] == name[0]
                return self._file_base + at if owned else -1
        return -1

    def corpus_rows(self, corpus: Corpus, file_index: InvertedIndex) -> tuple[np.ndarray, ...]:
        """The rows of ``corpus``'s commits, by position, and of ``file_index``'s
        documents, in order. Where the store's commits are exactly the corpus's,
        and its file keys the index's documents, commit ``p``'s row is its rank
        in commit-id order and document ``j``'s the ``j``-th file row; else each
        key is looked up, and the first without a vector raises MissingVectorError."""
        if (
            np.array_equal(self._commit_ids, corpus.sorted_ids)
            and np.array_equal(self._file_owners, file_index.doc_commits)
            and self.file_paths == file_index.doc_paths
        ):
            return corpus.id_ranks, self._file_base + np.arange(len(self.file_paths))
        commit_rows = self.rows_of(("commit", commit_id) for commit_id in corpus.commit_ids)
        return commit_rows, self.rows_of(("file", *doc) for doc in file_index.docs)

    def cve_vector(self, cve_id: str) -> np.ndarray:
        return self.matrix[self.rows_of([("cve", cve_id)])[0]]

    def save(self, path: str | Path) -> None:
        """Write the store in the :data:`STORE_FORMAT` container."""
        STORE_FORMAT.save(
            path,
            commits=self.commits,
            cves=self.cves,
            file_commits=self.file_commits,
            file_paths=self.file_paths,
            vectors=self.matrix,
        )

    @classmethod
    def load(cls, path: str | Path | bytes) -> "VectorStore":
        """Read a :meth:`save` file, or its bytes: one ``frombuffer`` of the vector
        matrix and the key tables. A damaged file raises a ValueError naming ``path``."""
        return STORE_FORMAT.load(path, cls)


def _documents(
    corpus: Corpus, cves: list[CveRecord], commit_budget: int, file_budget: int
) -> Iterator[tuple[tuple, str, list[str]]]:
    """Each key of the store, in store order, with its prompt and the prompt's
    tokens. A commit or file prompt's tokens are the template's, the
    message's and those of its diff sections, each tokenized once per commit:
    no word run crosses a section. Only a diff over its budget is cut."""
    head, middle = _DOC_TOKENS
    for commit in corpus.commits:
        message = tokenize(commit.message)
        sections = commit.tokenized_sections()
        files: dict[str, list[tuple[str, list[str]]]] = {}
        for fd, section in zip(commit.file_diffs, sections):
            files.setdefault(fd.path, []).append(section)
        documents = [(("commit", commit.commit_id), sections, commit_budget)]
        for path, parts in files.items():
            documents.append((("file", commit.commit_id, path), parts, file_budget))
        for key, parts, budget in documents:
            diff, tokens = truncate_tokenized(
                "".join(text for text, _ in parts),
                list(chain.from_iterable(section for _, section in parts)),
                budget,
            )
            yield key, document_prompt(commit.message, diff), [*head, *message, *middle, *tokens]
    for cve in cves:
        prompt = query_prompt(cve.description)
        yield ("cve", cve.cve_id), prompt, tokenize(prompt)


def build_vectors(
    corpus: Corpus,
    cves: list[CveRecord],
    provider,
    *,
    commit_budget: int = DEFAULT_COMMIT_TOKEN_BUDGET,
    file_budget: int = DEFAULT_FILE_TOKEN_BUDGET,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> VectorStore:
    """Embed every commit, every (commit, file) diff, and every CVE.

    Diff payloads are truncated to their token budgets before prompting;
    the templates themselves are never truncated. Prompts and their tokens
    are made one provider batch at a time; the provider gets both, and each
    batch's vectors go straight to their keys' rows of the store's matrix.
    """
    if commit_budget < 1 or file_budget < 1:
        raise ValueError("token budgets must be >= 1")
    ids = corpus.commit_ids_at(corpus.id_order)
    # Each commit's distinct section paths, ascending, by rank in commit-id order,
    # then flattened: the lists are not kept through the embedding.
    paths = [sorted(set(corpus.file_paths(p))) for p in corpus.id_order.tolist()]
    owners = np.repeat(np.arange(len(ids), dtype=np.int32), list(map(len, paths)))
    paths = list(chain.from_iterable(paths))
    cve_ids = sorted(cve.cve_id for cve in cves)
    keys = [("commit", c) for c in ids] + [("cve", c) for c in cve_ids]
    keys += [("file", ids[i], path) for i, path in zip(owners.tolist(), paths)]
    rows = {key: row for row, key in enumerate(keys)}
    matrix = np.empty((len(keys), getattr(provider, "dimension", 0)), dtype=np.float32)
    documents = _documents(corpus, cves, commit_budget, file_budget)
    matrix = embed_rows(provider, ((rows[k], k, *doc) for k, *doc in documents), matrix, batch_size)
    return VectorStore(ids, cve_ids, owners, paths, matrix)
