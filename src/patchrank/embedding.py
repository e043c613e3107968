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
from collections import Counter
from collections.abc import Sequence
from enum import Enum
from hashlib import blake2b
from pathlib import Path

import numpy as np

from .container import STR, Format, Section
from .corpus import Corpus, CveRecord, tokenize, truncate_to_tokens

DEFAULT_COMMIT_TOKEN_BUDGET = 512
DEFAULT_FILE_TOKEN_BUDGET = 512
DEFAULT_OFFLINE_DIMENSION = 256
DEFAULT_BATCH_SIZE = 64
DEFAULT_MAX_RETRIES = 3

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
_QUERY_TEMPLATE = (
    "Represent this CVE description to retrieve the commit "
    "(commit message + diff code) that patches this CVE: {description}"
)


class ProviderError(RuntimeError):
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
    return OfflineEmbedder(dimension, seed).vector(text)


class OfflineEmbedder:
    """The offline provider: :func:`offline_embed` of each text, identical
    across processes. Each distinct token is hashed once per instance, into
    a memo of buckets that lives as long as the embedder, since a token's
    bucket depends on the embedder's dimension and seed."""

    def __init__(self, dimension: int = DEFAULT_OFFLINE_DIMENSION, seed: int = 13):
        if dimension < 8:
            raise ValueError(f"embedding dimension must be >= 8, got {dimension}")
        self.dimension = dimension
        self.seed = seed
        self._key = seed.to_bytes(8, "little", signed=True)
        self._buckets: dict[str, int] = {}

    def vector(self, text: str) -> np.ndarray:
        """The :func:`offline_embed` vector of ``text``. Weights are summed into
        each bucket in the tokens' first-occurrence order, as float64."""
        counts = Counter(tokenize(text))
        if not counts:
            return _basis_vector(self.dimension)
        sums = [0.0] * self.dimension
        buckets = self._buckets
        for token, tf in counts.items():
            bucket = buckets.get(token)
            if bucket is None:
                digest = blake2b(token.encode("utf-8"), digest_size=8, key=self._key).digest()
                bucket = buckets[token] = int.from_bytes(digest, "big") % self.dimension
            sums[bucket] += 1.0 + math.log(tf)
        vec = np.array(sums)
        vec /= np.linalg.norm(vec)
        return vec.astype(np.float32)

    def embed(self, texts: list[str]) -> np.ndarray:
        """One float32 row per text, each its :meth:`vector`."""
        return np.array([self.vector(t) for t in texts], np.float32).reshape(-1, self.dimension)


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

    def embed(self, texts: list[str]) -> list[list[float]]:
        vectors: list[list[float]] = []
        for start in range(0, len(texts), self.batch_size):
            vectors.extend(self._post_batch(texts[start : start + self.batch_size]))
        return vectors


def embed_batch(provider, texts: list[str]) -> np.ndarray:
    """Embed texts in order and L2-normalize, whatever the provider returned:
    one float32 row per text. Each row's norm is the square root of its
    float64 sum of squares, so a row normalizes alike in any batch."""
    if not texts:
        return np.empty((0, 0), dtype=np.float32)
    raw = provider.embed(list(texts))
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
    row ``rows[k]`` of one ``(n, dimension)`` float32 ``matrix``."""

    def __init__(
        self, dimension: int, keys: Sequence[tuple] = (), matrix: np.ndarray | None = None
    ):
        self.dimension = dimension
        self.matrix = np.empty((0, dimension), dtype=np.float32) if matrix is None else matrix
        self.rows = {key: row for row, key in enumerate(keys)}
        if not len(self.rows) == len(keys) == len(self.matrix):
            raise ValueError(f"{len(keys)} keys, {len(self.rows)} distinct, {len(self.matrix)} vectors")

    def __len__(self) -> int:
        return len(self.rows)

    def keys(self) -> list[tuple]:
        return sorted(self.rows)

    def _put(self, key: tuple, vector: np.ndarray) -> None:
        if vector.shape != (self.dimension,):
            raise EmbeddingDimensionError(
                f"vector for {key!r} has shape {vector.shape}, store dimension is {self.dimension}"
            )
        row = self.rows.setdefault(key, len(self.matrix))
        rows = [self.matrix[:row], [vector], self.matrix[row + 1 :]]
        self.matrix = np.concatenate(rows, dtype=np.float32)

    def _get(self, key: tuple) -> np.ndarray:
        try:
            return self.matrix[self.rows[key]]
        except KeyError:
            raise MissingVectorError(key) from None

    def put_commit(self, commit_id: str, vector: np.ndarray) -> None:
        self._put(("commit", commit_id), vector)

    def put_file(self, commit_id: str, path: str, vector: np.ndarray) -> None:
        self._put(("file", commit_id, path), vector)

    def put_cve(self, cve_id: str, vector: np.ndarray) -> None:
        self._put(("cve", cve_id), vector)

    def commit_vector(self, commit_id: str) -> np.ndarray:
        return self._get(("commit", commit_id))

    def file_vector(self, commit_id: str, path: str) -> np.ndarray:
        return self._get(("file", commit_id, path))

    def cve_vector(self, cve_id: str) -> np.ndarray:
        return self._get(("cve", cve_id))

    def save(self, path: str | Path) -> None:
        """Write the store in the :data:`STORE_FORMAT` container, keys sorted."""
        keys = self.keys()  # "commit" < "cve" < "file": the container's row order
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
            vectors=self.matrix[[self.rows[key] for key in keys]],
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


class EmbedBuildError(RuntimeError):
    """A provider failure during store construction, naming the failed keys."""


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
    the templates themselves are never truncated.
    """
    if commit_budget < 1 or file_budget < 1:
        raise ValueError("token budgets must be >= 1")
    keys: list[tuple] = []
    texts: list[str] = []
    for commit in corpus.commits:
        keys.append(("commit", commit.commit_id))
        texts.append(
            render_prompt(
                PromptKind.COMMIT_DOC,
                message=commit.message,
                diff=truncate_to_tokens(commit.diff_text(), commit_budget),
            )
        )
        for path, text in commit.file_texts().items():
            keys.append(("file", commit.commit_id, path))
            texts.append(
                render_prompt(
                    PromptKind.FILE_DOC,
                    message=commit.message,
                    diff=truncate_to_tokens(text, file_budget),
                )
            )
    for cve in cves:
        keys.append(("cve", cve.cve_id))
        texts.append(render_prompt(PromptKind.CVE_QUERY, description=cve.description))

    matrix = np.empty((0, getattr(provider, "dimension", 0)), dtype=np.float32)
    for start in range(0, len(texts), batch_size):
        batch = texts[start : start + batch_size]
        try:
            rows = embed_batch(provider, batch)
            if start == 0:
                matrix = np.empty((len(texts), rows.shape[1]), dtype=np.float32)
            elif rows.shape[1] != matrix.shape[1]:
                raise EmbeddingDimensionError(
                    f"vectors of dimension {rows.shape[1]} after {matrix.shape[1]}"
                )
        except (ProviderError, EmbeddingDimensionError) as exc:
            raise EmbedBuildError(
                f"embedding failed at key {keys[start]!r} (batch of {len(batch)}): {exc}"
            ) from exc
        matrix[start : start + len(batch)] = rows
    return VectorStore(matrix.shape[1], keys, matrix)
