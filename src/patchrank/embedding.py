"""Embedding providers, prompt templates, and the keyed vector store.

Two providers are included: a deterministic offline hashing embedder
(the default for tests and air-gapped runs) and a client for any HTTP
service exposing the ``POST /embed`` protocol. All vectors are
L2-normalized here, never trusted from the provider.
"""

from __future__ import annotations

import math
import operator
import os
import time
from collections.abc import Iterator, Sequence
from enum import Enum
from hashlib import blake2b
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .container import STR, Format, Section
from .corpus import Corpus, CveRecord, InputError, tokenize, truncate_tokenized
from .settings import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_COMMIT_TOKEN_BUDGET,
    DEFAULT_FILE_TOKEN_BUDGET,
    DEFAULT_MAX_RETRIES,
    DEFAULT_OFFLINE_DIMENSION,
    check_dimension,
)

PROVIDER_TOKEN_ENV = "PATCHRANK_PROVIDER_TOKEN"
_HTTP_TIMEOUT_S = 60.0
# Client errors that may succeed on a later attempt: timeout, rate limit.
_RETRIED_4XX = (408, 429)

# Version 1 wrote one record per key, version 2 a kind, id and path per key.
# The rows of ``vectors`` are the commit keys', then the CVE keys', then the
# file keys', each kind in key order, so a commit's file rows are contiguous.
# ``commits`` names the commits with a vector, then any that only files name;
# a file key is its commit's index in ``commits`` and its path.
STORE_FORMAT = Format(
    "vector store",
    b"PRVS",
    3,
    dict(commits=Section(STR), cves=Section(STR))
    | dict(file_commits=Section("<i4"), file_paths=Section(STR))
    | dict(vectors=Section("<f4", columns=None, finite=True)),
)


class PromptKind(Enum):
    CVE_QUERY = "cve_query"
    COMMIT_DOC = "commit_doc"
    FILE_DOC = "file_doc"
    PATH_DOC = "path_doc"


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
    """Embedding request failure; carries the number of attempts made."""

    def __init__(self, message: str, attempts: int):
        super().__init__(f"{message} (after {attempts} attempt{'s' if attempts != 1 else ''})")
        self.attempts = attempts


class EmbeddingDimensionError(ValueError):
    """Vectors of differing dimensions inside one batch; not retriable."""


class MissingVectorError(KeyError):
    def __init__(self, key: tuple):
        super().__init__(f"no vector stored for key {key!r}")
        self.key = key


def render_prompt(
    kind: PromptKind,
    *,
    message: str | None = None,
    diff: str | None = None,
    description: str | None = None,
    text: str | None = None,
) -> str:
    """Fill the prompt template for one embedding input.

    Commit and file documents share the commit template; path documents
    have no template and pass through unchanged.
    """
    if kind in (PromptKind.COMMIT_DOC, PromptKind.FILE_DOC):
        if message is None or diff is None:
            raise ValueError(f"{kind.value} prompt requires message and diff")
        return _DOC_TEMPLATE.format(message=message, diff=diff)
    if kind is PromptKind.CVE_QUERY:
        if description is None:
            raise ValueError("cve_query prompt requires description")
        return _QUERY_TEMPLATE.format(description=description)
    if kind is PromptKind.PATH_DOC:
        if text is None:
            raise ValueError("path_doc prompt requires text")
        return text
    raise ValueError(f"unknown prompt kind {kind!r}")


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
        batch_size: int = DEFAULT_BATCH_SIZE,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_s: float = 0.5,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.batch_size = batch_size
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

    def _post_batch(self, batch: list[str]) -> list[list[float]]:
        import requests

        attempts = 0
        last_error = "no attempt made"
        while attempts < self.max_retries:
            attempts += 1
            try:
                response = self._session.post(
                    f"{self.base_url}/embed",
                    json={"model": self.model, "inputs": batch},
                    headers=self._headers(),
                    timeout=_HTTP_TIMEOUT_S,
                )
            except requests.RequestException as exc:
                last_error = f"transport error: {exc}"
            else:
                if response.status_code == 200:
                    try:
                        vectors = response.json().get("vectors")
                    except ValueError:
                        raise ProviderError("provider returned unparseable JSON", attempts) from None
                    if not isinstance(vectors, list) or len(vectors) != len(batch):
                        raise ProviderError(
                            f"provider returned {0 if vectors is None else len(vectors)} "
                            f"vectors for {len(batch)} inputs",
                            attempts,
                        )
                    return vectors
                last_error = f"HTTP {response.status_code}"
                if 400 <= response.status_code < 500 and response.status_code not in _RETRIED_4XX:
                    break
            if attempts < self.max_retries:
                time.sleep(self.backoff_s * (2 ** (attempts - 1)))
        raise ProviderError(f"embedding request failed: {last_error}", attempts)

    def embed(self, texts: list[str], tokens=None) -> list[list[float]]:
        """The service's vectors of ``texts``; ``tokens`` is not used."""
        vectors: list[list[float]] = []
        for start in range(0, len(texts), self.batch_size):
            vectors.extend(self._post_batch(texts[start : start + self.batch_size]))
        return vectors


def embed_batch(provider, texts: list[str], tokens: list[list[str]] | None = None) -> np.ndarray:
    """Embed texts in order and L2-normalize, whatever the provider returned:
    one float32 row per text. Each row's norm is the square root of its
    float64 sum of squares, so a row normalizes alike in any batch. Given
    ``tokens``, each text's tokens, they are passed on to the provider."""
    if not texts:
        return np.empty((0, 0), dtype=np.float32)
    texts = list(texts)
    raw = provider.embed(texts) if tokens is None else provider.embed(texts, tokens=tokens)
    if len(raw) != len(texts):
        raise ProviderError(f"provider returned {len(raw)} vectors for {len(texts)} texts", 1)
    dimensions = {len(v) for v in raw}
    if len(dimensions) != 1:
        raise EmbeddingDimensionError(f"mixed vector dimensions in one batch: {sorted(dimensions)}")
    vectors = np.array(raw, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflowing norm is non-finite, handled below
        norms = np.sqrt(np.square(vectors).sum(-1))
    usable = np.isfinite(norms) & (norms > 0.0)
    # A zero (or non-finite) vector cannot be normalized; it degrades to the
    # same fixed basis vector used for token-free text.
    out = np.tile(_basis_vector(vectors.shape[1]), (len(vectors), 1))
    out[usable] = vectors[usable] / norms[usable, None]
    return out


class VectorStore:
    """Unit vectors keyed by commit, (commit, path), or CVE id: key ``k`` is
    row ``rows[k]`` of one ``(n, dimension)`` float32 ``matrix``. The keys
    ascend, so ``("commit", ...)`` < ``("cve", ...)`` < ``("file", ...)`` and
    a commit's file rows are contiguous."""

    def __init__(
        self, dimension: int, keys: Sequence[tuple] = (), matrix: np.ndarray | None = None
    ):
        self.dimension = dimension
        self.matrix = np.empty((0, dimension), dtype=np.float32) if matrix is None else matrix
        self.rows = {key: row for row, key in enumerate(keys)}
        if not len(self.rows) == len(keys) == len(self.matrix):
            raise ValueError(f"{len(keys)} keys, {len(self.rows)} distinct, {len(self.matrix)} vectors")
        if not all(map(operator.lt, keys, keys[1:])):
            raise ValueError("vector store keys do not ascend")

    def __len__(self) -> int:
        return len(self.rows)

    def keys(self) -> list[tuple]:
        return list(self.rows)

    def _get(self, key: tuple) -> np.ndarray:
        try:
            return self.matrix[self.rows[key]]
        except KeyError:
            raise MissingVectorError(key) from None

    def commit_vector(self, commit_id: str) -> np.ndarray:
        return self._get(("commit", commit_id))

    def file_vector(self, commit_id: str, path: str) -> np.ndarray:
        return self._get(("file", commit_id, path))

    def cve_vector(self, cve_id: str) -> np.ndarray:
        return self._get(("cve", cve_id))

    def save(self, path: str | Path) -> None:
        """Write the store in the :data:`STORE_FORMAT` container."""
        keys = self.keys()
        commits = [key[1] for key in keys if key[0] == "commit"]
        files = [key[1:] for key in keys if key[0] == "file"]
        commits += sorted({commit_id for commit_id, _ in files}.difference(commits))
        index = {commit_id: i for i, commit_id in enumerate(commits)}
        STORE_FORMAT.save(
            path,
            commits=commits,
            cves=[key[1] for key in keys if key[0] == "cve"],
            file_commits=[index[commit_id] for commit_id, _ in files],
            file_paths=[file_path for _, file_path in files],
            vectors=self.matrix,
        )

    @classmethod
    def load(cls, path: str | Path) -> "VectorStore":
        """Read a :meth:`save` file: one ``frombuffer`` of the vector matrix and
        the key tables. A damaged file raises a ValueError naming ``path``."""
        return STORE_FORMAT.load(path, cls._from_sections)

    @classmethod
    def _from_sections(cls, commits, cves, file_commits, file_paths, vectors) -> "VectorStore":
        with_vectors = len(vectors) - len(cves) - len(file_paths)
        if len(file_commits) != len(file_paths) or not 0 <= with_vectors <= len(commits):
            sizes = f"{len(commits)} commits, {len(cves)} CVEs and {len(file_paths)} files"
            raise ValueError(f"key tables of {sizes} for {len(vectors)} vectors")
        if np.any((file_commits < 0) | (file_commits >= len(commits))):
            raise ValueError("a file key names no commit of the key table")
        keys = [("commit", commit_id) for commit_id in commits[:with_vectors]]
        keys += [("cve", cve_id) for cve_id in cves]
        keys += [("file", commits[i], p) for i, p in zip(file_commits.tolist(), file_paths)]
        return cls(vectors.shape[1], keys, vectors)


class EmbedBuildError(RuntimeError, InputError):
    """A provider failure during store construction, naming the failed keys."""


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
        documents = [(("commit", commit.commit_id), PromptKind.COMMIT_DOC, sections, commit_budget)]
        for path, parts in files.items():
            key = ("file", commit.commit_id, path)
            documents.append((key, PromptKind.FILE_DOC, parts, file_budget))
        for key, kind, parts, budget in documents:
            diff, tokens = truncate_tokenized(
                "".join(text for text, _ in parts),
                list(chain.from_iterable(section for _, section in parts)),
                budget,
            )
            prompt = render_prompt(kind, message=commit.message, diff=diff)
            yield key, prompt, [*head, *message, *middle, *tokens]
    for cve in cves:
        prompt = render_prompt(PromptKind.CVE_QUERY, description=cve.description)
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
    keys = [("commit", c.commit_id) for c in corpus.commits] + [("cve", c.cve_id) for c in cves]
    keys += {("file", c.commit_id, fd.path): None for c in corpus.commits for fd in c.file_diffs}
    keys.sort()
    rows = {key: row for row, key in enumerate(keys)}
    matrix = np.empty((0, getattr(provider, "dimension", 0)), dtype=np.float32)
    documents = _documents(corpus, cves, commit_budget, file_budget)
    while batch := list(islice(documents, batch_size)):
        batch_keys, texts, tokens = zip(*batch)
        try:
            vectors = embed_batch(provider, list(texts), list(tokens))
            if not len(matrix):
                matrix = np.empty((len(keys), vectors.shape[1]), dtype=np.float32)
            elif vectors.shape[1] != matrix.shape[1]:
                raise EmbeddingDimensionError(
                    f"vectors of dimension {vectors.shape[1]} after {matrix.shape[1]}"
                )
        except (ProviderError, EmbeddingDimensionError) as exc:
            raise EmbedBuildError(
                f"embedding failed at key {batch_keys[0]!r} (batch of {len(batch)}): {exc}"
            ) from exc
        matrix[[rows[key] for key in batch_keys]] = vectors
    return VectorStore(matrix.shape[1], keys, matrix)
