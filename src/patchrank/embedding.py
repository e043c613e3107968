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

_KIND_CODES = {"commit": 0, "file": 1, "cve": 2}
_KIND_NAMES = {code: kind for kind, code in _KIND_CODES.items()}
# Version 1 wrote one record per key. Row i of ``vectors`` is the vector of
# the key (kind, id) or, for a file, (kind, id, path); other paths are empty.
STORE_FORMAT = Format(
    "vector store",
    b"PRVS",
    2,
    dict(kinds=Section("|u1"), ids=Section(STR), paths=Section(STR))
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

    def embed(self, texts: list[str]) -> list[list[float]]:
        return [self.vector(t).tolist() for t in texts]


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


def embed_batch(provider, texts: list[str]) -> list[np.ndarray]:
    """Embed texts in order and L2-normalize, whatever the provider returned."""
    if not texts:
        return []
    raw = provider.embed(list(texts))
    if len(raw) != len(texts):
        raise ProviderError(f"provider returned {len(raw)} vectors for {len(texts)} texts", 1)
    dimensions = {len(v) for v in raw}
    if len(dimensions) != 1:
        raise EmbeddingDimensionError(f"mixed vector dimensions in one batch: {sorted(dimensions)}")
    out: list[np.ndarray] = []
    for values in raw:
        vec = np.asarray(values, dtype=np.float64)
        norm = np.linalg.norm(vec)
        if not np.isfinite(norm) or norm == 0.0:
            # A zero (or non-finite) vector cannot be normalized; degrade to
            # the same fixed basis vector used for token-free text.
            out.append(_basis_vector(len(values)))
        else:
            out.append((vec / norm).astype(np.float32))
    return out


class VectorStore:
    """Unit vectors keyed by commit, (commit, path), or CVE id."""

    def __init__(self, dimension: int):
        self.dimension = dimension
        self._vectors: dict[tuple, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._vectors)

    def keys(self) -> list[tuple]:
        return sorted(self._vectors)

    def _put(self, key: tuple, vector: np.ndarray) -> None:
        if vector.shape != (self.dimension,):
            raise EmbeddingDimensionError(
                f"vector for {key!r} has shape {vector.shape}, store dimension is {self.dimension}"
            )
        self._vectors[key] = np.asarray(vector, dtype=np.float32)

    def _get(self, key: tuple) -> np.ndarray:
        try:
            return self._vectors[key]
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
        keys = self.keys()
        matrix = np.array([self._vectors[key] for key in keys], dtype="<f4")
        STORE_FORMAT.save(
            path,
            kinds=[_KIND_CODES[key[0]] for key in keys],
            ids=[key[1] for key in keys],
            paths=[key[2] if len(key) == 3 else "" for key in keys],
            vectors=matrix.reshape(len(keys), self.dimension),
        )

    @classmethod
    def load(cls, path: str | Path) -> "VectorStore":
        """Read a :meth:`save` file: one ``frombuffer`` of the vector matrix and
        the key table. A damaged file raises a ValueError naming ``path``."""
        return STORE_FORMAT.load(path, cls._from_sections)

    @classmethod
    def _from_sections(cls, kinds, ids, paths, vectors) -> "VectorStore":
        if not len(kinds) == len(ids) == len(paths) == len(vectors):
            sizes = f"{len(kinds)}, {len(ids)} and {len(paths)}"
            raise ValueError(f"key table of {sizes} rows for {len(vectors)} vectors")
        if np.any(kinds >= len(_KIND_NAMES)):
            raise ValueError(f"unknown vector kind {kinds.max()}")
        names = [_KIND_NAMES[code] for code in kinds.tolist()]
        keys = [(k, i, p) if k == "file" else (k, i) for k, i, p in zip(names, ids, paths)]
        store = cls(vectors.shape[1])
        store._vectors = dict(zip(keys, vectors))
        if len(store._vectors) != len(keys):
            raise ValueError("duplicate vector keys")
        return store


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

    vectors: list[np.ndarray] = []
    for start in range(0, len(texts), batch_size):
        batch = texts[start : start + batch_size]
        try:
            vectors.extend(embed_batch(provider, batch))
        except (ProviderError, EmbeddingDimensionError) as exc:
            raise EmbedBuildError(
                f"embedding failed at key {keys[start]!r} (batch of {len(batch)}): {exc}"
            ) from exc

    dimension = len(vectors[0]) if vectors else getattr(provider, "dimension", 0)
    store = VectorStore(dimension)
    for key, vector in zip(keys, vectors):
        store._put(key, vector)
    return store
