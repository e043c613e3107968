"""Embedding provider, prompt, and vector store tests.

HTTP client behavior (batching, retries, auth) is exercised against a
throwaway local server implementing the /embed protocol.
"""

from __future__ import annotations

import json
import math
import os
import re
import socket
import struct
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

import patchrank
from patchrank.corpus import CommitRecord, split_diff_by_file
from patchrank.embedding import (
    STORE_FORMAT,
    HttpEmbedder,
    MissingVectorError,
    OfflineEmbedder,
    ProviderError,
    VectorStore,
    build_vectors,
    document_prompt,
    embed_batch,
    offline_embed,
    query_prompt,
)

from patchrank.container import STR, Format, Section
from patchrank.path_features import path_text

from conftest import (
    cid,
    file_diff_text,
    make_commit,
    make_corpus,
    make_cve,
    store_keys,
    vector_store,
)
from oracles import file_texts, offline_vector_oracle, token_count, truncate_to_tokens_oracle

# The store as version 2 wrote it: a kind code, an id and a path per key.
STORE_FORMAT_2 = Format(
    "vector store",
    b"PRVS",
    2,
    dict(kinds=Section("|u1"), ids=Section(STR), paths=Section(STR))
    | dict(vectors=Section("<f4", columns=None, finite=True)),
)


def save_version_2(store: VectorStore, path) -> None:
    keys = store_keys(store)
    STORE_FORMAT_2.save(
        path,
        kinds=[{"commit": 0, "file": 1, "cve": 2}[key[0]] for key in keys],
        ids=[key[1] for key in keys],
        paths=[key[2] if len(key) == 3 else "" for key in keys],
        vectors=store.matrix[store.rows_of(keys)].reshape(len(keys), store.dimension),
    )


class _EmbedHandler(BaseHTTPRequestHandler):
    """Serves /embed with the offline embedder; scriptable failures."""

    fail_next = 0
    fail_status = 503
    batch_sizes: list[int] = []
    auth_headers: list[str | None] = []
    inputs: list[str] = []
    dimension = 32
    body: bytes | None = None  # answered as is, when set

    def do_POST(self):
        cls = type(self)
        cls.auth_headers.append(self.headers.get("Authorization"))
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        cls.batch_sizes.append(len(body["inputs"]))
        cls.inputs.extend(body["inputs"])
        if cls.fail_next > 0:
            cls.fail_next -= 1
            self.send_response(cls.fail_status)
            self.end_headers()
            return
        vectors = [offline_embed(t, cls.dimension).tolist() for t in body["inputs"]]
        payload = cls.body or json.dumps({"vectors": vectors}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def embed_server():
    _EmbedHandler.fail_next = 0
    _EmbedHandler.fail_status = 503
    _EmbedHandler.batch_sizes = []
    _EmbedHandler.auth_headers = []
    _EmbedHandler.inputs = []
    _EmbedHandler.body = None
    server = ThreadingHTTPServer(("127.0.0.1", 0), _EmbedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    thread.join()


class TestRenderPrompt:
    """The two templates: document_prompt for commits and files, query_prompt
    for CVEs. A path set is embedded as its joined paths, with no template."""

    def test_cve_query_ends_with_description(self):
        out = query_prompt("X")
        assert out.endswith("patches this CVE: X")

    def test_commit_doc_with_empty_diff(self):
        out = document_prompt("m", "")
        assert out.endswith("Diff code: ")
        assert "Commit message: m;" in out

    def test_file_doc_diff_section_starts_at_header(self):
        diff = "diff --git a/f.java b/f.java\n+x"
        out = document_prompt("m", diff)
        assert "Diff code: diff --git a/f.java" in out

    def test_path_doc_passes_through(self):
        assert path_text({"b", "a"}) == "a\nb"

    def test_missing_payload_rejected(self):
        with pytest.raises(TypeError):
            document_prompt("m")
        with pytest.raises(TypeError):
            query_prompt()


class TestOfflineEmbed:
    def test_empty_text_is_basis_vector(self):
        vec = offline_embed("", 16)
        assert vec[0] == 1.0
        assert np.count_nonzero(vec) == 1

    def test_unit_norm(self):
        for text in ("fix ssl", "a b c d e f", "OpenSSLEngine"):
            assert np.linalg.norm(offline_embed(text, 64)) == pytest.approx(1.0, abs=1e-6)

    def test_self_cosine_is_one(self):
        vec = offline_embed("fix ssl handshake", 128)
        assert float(np.dot(vec, vec)) == pytest.approx(1.0, abs=1e-6)

    def test_deterministic_across_instances(self):
        a = OfflineEmbedder(64).embed(["fix ssl"])[0]
        b = OfflineEmbedder(64).embed(["fix ssl"])[0]
        assert a.tobytes() == b.tobytes()

    def test_disjoint_tokens_collision_free_cosine_zero(self):
        # Verify the two token sets land in distinct buckets at d=4096,
        # then require an exact zero.
        from hashlib import blake2b

        d = 4096
        text_a, text_b = "alpha bravo charlie delta", "echo foxtrot golf hotel"
        key = (13).to_bytes(8, "little", signed=True)

        def bucket(token: str) -> int:
            return int.from_bytes(blake2b(token.encode(), digest_size=8, key=key).digest(), "big") % d

        buckets_a = {bucket(t) for t in text_a.split()}
        buckets_b = {bucket(t) for t in text_b.split()}
        assert not buckets_a & buckets_b
        cos = float(np.dot(offline_embed(text_a, d), offline_embed(text_b, d)))
        assert cos == 0.0

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            offline_embed("x", 4)

    def test_pairwise_cosines_in_unit_interval(self):
        # Non-negative components keep every pairwise cosine in [0, 1].
        texts = ["fix ssl", "overflow in parser", "fix ssl overflow", "", "docs"]
        vectors = [offline_embed(t, 32) for t in texts]
        for a in vectors:
            for b in vectors:
                assert -1e-7 <= float(np.dot(a, b)) <= 1.0 + 1e-7

    # More distinct terms than eight buckets, so some terms share a bucket, and
    # repeated terms, so weights other than 1 are added.
    REPEATED_TERMS = [
        "alpha beta alpha gamma delta alpha",
        "beta gamma gamma epsilon zeta eta theta iota kappa lambda",
        "",
        "OpenSSLEngine open ssl engine engine",
        "alpha",
        "kappa kappa kappa kappa lambda alpha beta",
    ]

    def test_embedder_matches_offline_embed_bit_for_bit(self):
        texts = self.REPEATED_TERMS
        embedded = OfflineEmbedder(8).embed(texts)
        for text, values in zip(texts, embedded):
            expected = offline_embed(text, 8)
            assert np.asarray(values, dtype=np.float32).tobytes() == expected.tobytes()
            assert expected.tobytes() == offline_vector_oracle(text, 8).tobytes()

    def test_warm_embedder_matches_a_cold_one(self):
        texts = self.REPEATED_TERMS
        warm = OfflineEmbedder(8)
        warm.embed(texts)
        assert warm.embed(texts[::-1])[::-1].tobytes() == OfflineEmbedder(8).embed(texts).tobytes()

    @pytest.mark.parametrize("dimension, seed", [(16, 13), (8, 5)])
    def test_bucket_memo_is_per_embedder(self, dimension, seed):
        """Buckets depend on the dimension and the seed, so an embedder must
        not see another's memo."""
        texts = self.REPEATED_TERMS
        OfflineEmbedder(8).embed(texts)
        embedded = OfflineEmbedder(dimension, seed).embed(texts)
        for text, values in zip(texts, embedded):
            expected = offline_embed(text, dimension, seed)
            assert np.asarray(values, dtype=np.float32).tobytes() == expected.tobytes()
            assert expected.tobytes() == offline_vector_oracle(text, dimension, seed).tobytes()


class _ListProvider:
    def __init__(self, vectors):
        self.vectors = vectors

    def embed(self, texts, tokens=None):
        return self.vectors[: len(texts)]


class TestEmbedBatch:
    def test_identical_texts_identical_vectors(self):
        out = embed_batch(OfflineEmbedder(32), ["same", "same"])
        assert np.array_equal(out[0], out[1])

    def test_one_vector_per_text_same_dimension(self):
        out = embed_batch(OfflineEmbedder(32), ["a", "b", "c"])
        assert len(out) == 3
        assert {v.shape for v in out} == {(32,)}

    def test_normalizes_provider_output(self):
        provider = _ListProvider([[3.0, 4.0], [0.5, 0.0]])
        out = embed_batch(provider, ["x", "y"])
        assert np.allclose(out[0], [0.6, 0.8])
        assert np.allclose(out[1], [1.0, 0.0])

    def test_zero_vector_degrades_to_basis(self):
        out = embed_batch(_ListProvider([[0.0, 0.0, 0.0]]), ["x"])
        assert out[0].tolist() == [1.0, 0.0, 0.0]

    def test_mixed_dimensions_hard_error(self):
        with pytest.raises(ProviderError, match="of one length"):
            embed_batch(_ListProvider([[1.0, 0.0], [1.0, 0.0, 0.0]]), ["x", "y"])

    @pytest.mark.parametrize(
        "answer", [[[1.0, "x"]], [3.0], [None], [[]], [[True, 0.5]], [[1, False]]], ids=repr
    )
    def test_malformed_row_is_a_provider_error(self, answer):
        """Each row must be a non-empty list of numbers; in a store build the
        error names the batch's first key."""
        with pytest.raises(ProviderError, match="non-empty lists of numbers"):
            embed_batch(_ListProvider(answer), ["x"])
        corpus = make_corpus([make_commit(1)])
        with pytest.raises(ProviderError, match=re.escape(f"at {('commit', cid(1))!r} (batch of 1)")):
            build_vectors(corpus, [], _ListProvider(answer), batch_size=1)

    def test_non_finite_row_degrades_to_basis(self):
        out = embed_batch(_ListProvider([[math.inf, 1.0], [math.nan, 0.0]]), ["x", "y"])
        assert out.tolist() == [[1.0, 0.0], [1.0, 0.0]]


class TestHttpEmbedder:
    def test_round_trip_matches_offline(self, embed_server):
        client = HttpEmbedder(embed_server, "test-model")
        out = embed_batch(client, ["fix ssl", "other text"])
        assert np.allclose(out[0], offline_embed("fix ssl", _EmbedHandler.dimension), atol=1e-6)

    def test_batching_respects_batch_size(self, embed_server):
        """build_vectors is the one batch loop: each request holds at most
        batch_size texts, and the client posts each batch as it is."""
        corpus = make_corpus([make_commit(1, files={"a.c": "x", "b.c": "y"}), make_commit(2)])
        client = HttpEmbedder(embed_server, "m")
        store = build_vectors(corpus, [make_cve()], client, batch_size=2)
        assert _EmbedHandler.batch_sizes == [2, 2, 1]
        assert len(store.matrix) == 5
        client.embed([f"t{i}" for i in range(5)])
        assert _EmbedHandler.batch_sizes[-1] == 5

    def test_retries_after_transient_failures(self, embed_server):
        _EmbedHandler.fail_next = 2
        client = HttpEmbedder(embed_server, "m", max_retries=3, backoff_s=0.01)
        assert len(client.embed(["x"])) == 1

    def test_gives_up_with_attempt_count(self, embed_server):
        _EmbedHandler.fail_next = 99
        client = HttpEmbedder(embed_server, "m", max_retries=3, backoff_s=0.01)
        with pytest.raises(ProviderError, match="after 3 attempts") as info:
            client.embed(["x"])
        assert info.value.attempts == 3

    def test_client_error_is_not_retried(self, embed_server):
        _EmbedHandler.fail_next = 99
        _EmbedHandler.fail_status = 400
        client = HttpEmbedder(embed_server, "m", max_retries=3, backoff_s=0.01)
        with pytest.raises(ProviderError, match="HTTP 400") as info:
            client.embed(["x"])
        assert info.value.attempts == 1
        assert _EmbedHandler.batch_sizes == [1]

    def test_rate_limit_is_retried(self, embed_server):
        _EmbedHandler.fail_next = 2
        _EmbedHandler.fail_status = 429
        client = HttpEmbedder(embed_server, "m", max_retries=3, backoff_s=0.01)
        assert len(client.embed(["x"])) == 1
        assert _EmbedHandler.batch_sizes == [1, 1, 1]

    def test_bearer_token_from_environment(self, embed_server, monkeypatch):
        monkeypatch.setenv("PATCHRANK_PROVIDER_TOKEN", "sekrit")
        HttpEmbedder(embed_server, "m").embed(["x"])
        assert _EmbedHandler.auth_headers[-1] == "Bearer sekrit"

    def test_build_vectors_sends_prompts_truncated_as_by_the_oracle(self, embed_server):
        words = " ".join(f"word{i} CamelCase{i} snake_case_{i}" for i in range(300))
        # A binary section followed by another, and a path in two sections
        # that fit the file budget alone but not together.
        binary_and_repeated = (
            "diff --git a/img.png b/img.png\nBinary files a/img.png and b/img.png differ\n"
            + file_diff_text("a.c", " ".join(f"w{i}" for i in range(20)))
            + file_diff_text("a.c", " ".join(f"v{i}" for i in range(20)))
        )
        # Files that each fit the file budget, in a diff over the commit budget.
        small_files = {f"f{n}.c": " ".join(f"x{i}" for i in range(20)) for n in range(12)}
        corpus = make_corpus(
            [
                make_commit(1, message="fix overflow", files={"a.java": words, "b.c": words}),
                make_commit(2, message="docs", files={"README": "short text"}),
                CommitRecord(
                    cid(3), "test/repo", 1000, "ünïcode", tuple(split_diff_by_file(binary_and_repeated))
                ),
                make_commit(4, message="", files=small_files),
            ]
        )
        cves = [make_cve(description="overflow in parser")]
        budgets = {"commit_budget": 700, "file_budget": 90}
        _, first, second = corpus.commits[2].section_texts()
        assert token_count(first) <= 90 and token_count(second) <= 90 < token_count(first + second)
        sections = corpus.commits[3].section_texts()
        assert max(map(token_count, sections)) <= 90 and token_count("".join(sections)) > 700
        build_vectors(corpus, cves, HttpEmbedder(embed_server, "m"), **budgets)
        expected = []
        for commit in corpus.commits:
            diff = "".join(commit.section_texts())
            diff = truncate_to_tokens_oracle(diff, budgets["commit_budget"])
            expected.append(document_prompt(commit.message, diff))
            for text in file_texts(commit).values():
                diff = truncate_to_tokens_oracle(text, budgets["file_budget"])
                expected.append(document_prompt(commit.message, diff))
        expected.append(query_prompt(cves[0].description))
        assert _EmbedHandler.inputs == expected
        full_file = file_texts(corpus.commits[0])["a.java"]
        assert expected[1] != document_prompt("fix overflow", full_file)

    @pytest.mark.parametrize(
        "body, reason",
        [
            (b"not json", "provider returned unparseable JSON"),
            (b"[]", "provider returned no vectors for 2 inputs"),
            (b'{"vectors": 5}', "provider returned no vectors for 2 inputs"),
            (b'{"other": []}', "provider returned no vectors for 2 inputs"),
            (b'{"vectors": [[1.0]]}', "provider returned 1 vectors for 2 inputs"),
        ],
    )
    def test_malformed_answer_is_a_provider_error(self, embed_server, body, reason):
        _EmbedHandler.body = body
        with pytest.raises(ProviderError) as info:
            HttpEmbedder(embed_server, "m").embed(["x", "y"])
        assert str(info.value) == reason

    def test_store_build_failure_gives_the_reason_once(self, embed_server):
        _EmbedHandler.fail_next = 99
        client = HttpEmbedder(embed_server, "m", max_retries=2, backoff_s=0.01)
        corpus = make_corpus([make_commit(1, files={"a.c": "x"})])
        with pytest.raises(ProviderError) as info:
            build_vectors(corpus, [], client)
        first = ("commit", cid(1))
        assert str(info.value) == f"embedding failed at {first!r} (batch of 2): HTTP 503, after 2 attempts"
        assert info.value.attempts == 2

    def test_transport_error_is_reported(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        # Nothing listens on the port once the socket is closed.
        client = HttpEmbedder(f"http://127.0.0.1:{port}", "m", max_retries=1)
        with pytest.raises(ProviderError, match="transport error"):
            client.embed(["x"])

    def test_cli_import_leaves_requests_unloaded(self):
        """Only this provider needs requests, so stage and trace processes,
        which import patchrank.cli, skip the import."""
        src_dir = Path(patchrank.__file__).resolve().parent.parent
        script = "import sys, patchrank.cli; assert 'requests' not in sys.modules"
        env = dict(os.environ, PYTHONPATH=str(src_dir))
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr


class TestVectorStore:
    def test_put_get_all_key_kinds(self):
        vec = offline_embed("x", 8)
        keys = [("commit", cid(1)), ("file", cid(1), "a.java"), ("cve", "CVE-2024-1")]
        store = vector_store(8, dict.fromkeys(keys, vec))
        assert np.array_equal(store.matrix[store.rows_of(keys)], [vec] * 3)
        assert np.array_equal(store.cve_vector("CVE-2024-1"), vec)

    def test_missing_vector_names_key(self):
        store = vector_store(8, {})
        with pytest.raises(MissingVectorError, match="commit"):
            store.rows_of([("commit", cid(1))])

    def test_rows_of_names_the_first_key_without_a_vector(self):
        keys = [("commit", cid(1)), ("cve", "CVE-2024-1"), ("file", cid(1), "a.c")]
        store = vector_store(8, dict.fromkeys(keys, offline_embed("x", 8)))
        assert store.rows_of(keys[::-1]).tolist() == [2, 1, 0]
        assert store.rows_of([]).dtype == np.intp
        wanted = [keys[0], ("file", cid(1), "b.c"), ("commit", cid(2))]
        with pytest.raises(MissingVectorError) as info:
            store.rows_of(wanted)
        assert info.value.key == ("file", cid(1), "b.c")

    def test_save_load_round_trip_byte_identical(self, tmp_path):
        store = vector_store(
            16,
            {
                ("commit", cid(1)): offline_embed("one", 16),
                ("file", cid(1), "p/q.java"): offline_embed("two", 16),
                ("cve", "CVE-2024-2"): offline_embed("three", 16),
            },
        )
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        store.save(first)
        VectorStore.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"JUNKxxxx")
        with pytest.raises(ValueError, match="not a patchrank vector store"):
            VectorStore.load(path)

    def saved_store(self, tmp_path):
        store = vector_store(
            16,
            {
                ("commit", cid(1)): offline_embed("one", 16),
                ("file", cid(1), "p/q.java"): offline_embed("two", 16),
            },
        )
        path = tmp_path / "s.bin"
        store.save(path)
        return path

    @pytest.mark.parametrize("keep", [10, 30, -4, -1])
    def test_truncated_store_rejected(self, tmp_path, keep):
        path = self.saved_store(tmp_path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match="truncated vector store") as info:
            VectorStore.load(path)
        assert str(path) in str(info.value)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = self.saved_store(tmp_path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="trailing bytes"):
            VectorStore.load(path)

    def test_version_1_store_rejected_naming_path(self, tmp_path):
        # An empty store of dimension 8 as version 1 wrote it.
        path = tmp_path / "v1.bin"
        path.write_bytes(b"PRVS" + struct.pack("<HIQ", 1, 8, 0))
        with pytest.raises(ValueError, match="unsupported vector store version 1") as info:
            VectorStore.load(path)
        assert str(path) in str(info.value)

    def test_version_2_store_rejected_naming_path(self, tmp_path):
        store = vector_store(16, {("commit", cid(1)): offline_embed("one", 16)})
        path = tmp_path / "v2.bin"
        save_version_2(store, path)
        with pytest.raises(ValueError, match="unsupported vector store version 2") as info:
            VectorStore.load(path)
        assert str(path) in str(info.value)

    def test_file_keys_share_their_commit_id(self, tmp_path):
        """A file key is stored as its commit's index and its path, the commit
        id once."""
        store = vector_store(
            8,
            {
                ("file", cid(2), "b.c"): offline_embed("b", 8),
                ("commit", cid(1)): offline_embed("one", 8),
                ("commit", cid(2)): offline_embed("two", 8),
                ("file", cid(1), "a.c"): offline_embed("a", 8),
                ("file", cid(2), "a.c"): offline_embed("c", 8),
            },
        )
        path = tmp_path / "s.bin"
        store.save(path)
        sections = STORE_FORMAT.load(path)
        assert sections["commits"] == [cid(1), cid(2)]
        assert sections["file_commits"].tolist() == [0, 1, 1]
        assert sections["file_paths"] == ["a.c", "a.c", "b.c"]
        loaded = VectorStore.load(path)
        assert store_keys(loaded) == store_keys(store)
        assert loaded.rows_of([("commit", cid(2)), ("file", cid(2), "b.c")]).tolist() == [1, 4]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (dict(file_commits=[2]), "a file key names no commit"),
            (dict(file_commits=[0, 0]), "key tables of 1 commits, 0 CVEs and 1 files"),
            (
                dict(file_commits=[0, 0], file_paths=["a.c", "a.c"], vectors=np.zeros((3, 8))),
                "vector store keys do not ascend, in its file table",
            ),
            (dict(file_commits=[-1]), "a file key names no commit"),
            (dict(cves=["CVE-1"]), "key tables of 1 commits, 1 CVEs and 1 files for 2 vectors"),
            (
                dict(commits=[cid(2), cid(1)], vectors=np.zeros((3, 8))),
                "vector store keys do not ascend, in its commit table",
            ),
            (
                dict(commits=[cid(1), cid(1)], vectors=np.zeros((3, 8))),
                "vector store keys do not ascend, in its commit table",
            ),
            (
                dict(cves=["CVE-2", "CVE-1"], vectors=np.zeros((4, 8))),
                "vector store keys do not ascend, in its CVE table",
            ),
            (
                dict(commits=[cid(1), cid(2)], file_commits=[1, 0], file_paths=["a.c", "b.c"])
                | dict(vectors=np.zeros((4, 8))),
                "vector store keys do not ascend, in its file table",
            ),
            (
                dict(file_commits=[0, 0], file_paths=["b.c", "a.c"], vectors=np.zeros((3, 8))),
                "vector store keys do not ascend, in its file table",
            ),
        ],
    )
    def test_inconsistent_key_tables_rejected(self, tmp_path, edit, message):
        store = vector_store(
            8,
            {("commit", cid(1)): offline_embed("one", 8), ("file", cid(1), "a.c"): offline_embed("a", 8)},
        )
        path = tmp_path / "s.bin"
        store.save(path)
        STORE_FORMAT.save(path, **(STORE_FORMAT.load(path) | edit))
        with pytest.raises(ValueError, match=message) as info:
            VectorStore.load(path)
        assert str(path) in str(info.value)

    def test_keys_must_ascend(self):
        vectors = np.stack([offline_embed("a", 8), offline_embed("b", 8)])
        no_files = np.empty(0, dtype=np.int32)
        with pytest.raises(ValueError, match="vector store keys do not ascend, in its CVE table"):
            VectorStore([], ["CVE-2", "CVE-1"], no_files, [], vectors)

    def test_round_trip_keeps_every_bit_and_empty_dimension(self, tmp_path):
        store = vector_store(
            16,
            {
                ("commit", cid(2)): offline_embed("one", 16),
                ("file", cid(2), "naïve/ß.c"): offline_embed("two", 16),
                ("cve", "CVE-2024-2"): np.array([-0.0, 1e-45, *[0.25] * 14], dtype=np.float32),
            },
        )
        path = tmp_path / "s.bin"
        store.save(path)
        loaded = VectorStore.load(path)
        assert store_keys(loaded) == store_keys(store)
        assert loaded.matrix.tobytes() == store.matrix.tobytes()
        vector_store(16, {}).save(path)
        assert VectorStore.load(path).dimension == 16


class TestBuildVectors:
    def corpus_with_files(self):
        return make_corpus(
            [
                make_commit(
                    1,
                    author_time=10,
                    message="fix overflow",
                    files={"a.java": "alpha", "b.java": "beta", "c.java": "gamma"},
                )
            ]
        )

    def test_commit_with_three_files_stores_four_vectors(self):
        store = build_vectors(self.corpus_with_files(), [], OfflineEmbedder(32))
        files = [("file", cid(1), path) for path in ("a.java", "b.java", "c.java")]
        assert store_keys(store) == [("commit", cid(1)), *files]

    def test_cve_vectors_included(self):
        cve = make_cve(description="overflow")
        store = build_vectors(self.corpus_with_files(), [cve], OfflineEmbedder(32))
        assert store.cve_vector(cve.cve_id).shape == (32,)

    def test_short_file_diff_embedded_untruncated(self):
        corpus = self.corpus_with_files()
        store = build_vectors(corpus, [], OfflineEmbedder(64), file_budget=512)
        commit = corpus.commits[0]
        expected = offline_embed(document_prompt(commit.message, file_texts(commit)["a.java"]), 64)
        key = ("file", commit.commit_id, "a.java")
        assert np.array_equal(store.matrix[store.rows_of([key])[0]], expected)

    def test_commit_diff_truncated_to_budget(self):
        long_words = " ".join(f"word{i}" for i in range(200))
        corpus = make_corpus([make_commit(1, message="m", files={"big.java": long_words})])
        commit = corpus.commits[0]
        store = build_vectors(corpus, [], OfflineEmbedder(64), commit_budget=20)
        from patchrank.corpus import truncate_to_tokens

        diff = "".join(commit.section_texts())
        expected = offline_embed(document_prompt("m", truncate_to_tokens(diff, 20)), 64)
        key = ("commit", commit.commit_id)
        assert np.array_equal(store.matrix[store.rows_of([key])[0]], expected)

    def test_rebuild_is_idempotent(self, tmp_path):
        corpus = self.corpus_with_files()
        cves = [make_cve(description="overflow")]
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        build_vectors(corpus, cves, OfflineEmbedder(32)).save(first)
        build_vectors(corpus, cves, OfflineEmbedder(32)).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_built_rows_are_in_loaded_order(self, tmp_path):
        """Two commits whose time order is not their id order, a repeated
        path, and a CVE: the built matrix is the loaded one, row for row."""
        commits = [
            make_commit(2, author_time=1, files={"b.c": "x", "a.c": "y"}),
            make_commit(1, author_time=2, files={"z.c": "w"}),
        ]
        store = build_vectors(make_corpus(commits), [make_cve()], OfflineEmbedder(16))
        path = tmp_path / "s.bin"
        store.save(path)
        loaded = VectorStore.load(path)
        assert store_keys(store) == store_keys(loaded) == sorted(store_keys(store))
        assert store.matrix.tobytes() == loaded.matrix.tobytes()

    def test_provider_failure_names_key(self):
        """The error names the batch's first key and gives the provider's
        reason once."""

        class Exploding:
            def embed(self, texts, tokens=None):
                raise ProviderError("boom", 3)

        with pytest.raises(ProviderError) as info:
            build_vectors(self.corpus_with_files(), [], Exploding())
        first = ("commit", cid(1))
        assert str(info.value) == f"embedding failed at {first!r} (batch of 4): boom"
        assert info.value.attempts == 3

    def test_batch_of_another_dimension_names_its_first_key(self):
        class Shrinking:
            dimensions = iter([16, 8])

            def embed(self, texts, tokens=None):
                return OfflineEmbedder(next(self.dimensions)).embed(texts)

        with pytest.raises(ProviderError) as info:
            build_vectors(self.corpus_with_files(), [], Shrinking(), batch_size=2)
        first = ("file", cid(1), "b.java")
        assert str(info.value) == f"embedding failed at {first!r} (batch of 2): dimension 8, not 16"

    def test_all_stored_vectors_unit_norm(self):
        store = build_vectors(
            self.corpus_with_files(), [make_cve(description="overflow")], OfflineEmbedder(32)
        )
        assert {key[0] for key in store_keys(store)} == {"commit", "cve", "file"}
        assert np.linalg.norm(store.matrix, axis=1) == pytest.approx(1.0, abs=1e-6)
