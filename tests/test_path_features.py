"""Entity extraction, path search, and path-overlap feature tests."""

from __future__ import annotations

import pytest

from patchrank.embedding import OfflineEmbedder, build_vectors, offline_embed
from patchrank.hier_features import PATH_EMBED_BATCH, FeatureAssembler
from patchrank.lexical import build_index
from patchrank.path_features import (
    commit_paths,
    extract_entities,
    feature_jaccard,
    normalize_path,
    path_text,
    search_paths,
)


from conftest import cid, feature_rows, make_commit, make_corpus, make_cve
from oracles import feature_path_cosine, path_universe

TOMCAT_DESCRIPTION = (
    "Apache Tomcat 8.5.0 to 8.5.63, 9.0.0-M1 to 9.0.43 and 10.0.0-M1 to 10.0.2 did "
    "not properly validate incoming TLS packets. When Tomcat was configured to use "
    "NIO+OpenSSL or NIO2+OpenSSL for TLS, a specially crafted packet could be used "
    "to trigger an infinite loop resulting in a denial of service."
)

TOMCAT_UNIVERSE = {
    "java/org/apache/tomcat/util/net/nio2channel.java",
    "java/org/apache/tomcat/util/net/nio2endpoint.java",
    "java/org/apache/coyote/ajp/ajpnio2protocol.java",
    "java/org/apache/tomcat/util/net/securenio2channel.java",
    "java/org/apache/tomcat/util/net/openssl/opensslengine.java",
    "java/org/apache/catalina/core/standardcontext.java",
    "webapps/docs/changelog.xml",
}


class TestExtractEntities:
    def test_identifier_with_digits_found(self):
        entities = extract_entities(TOMCAT_DESCRIPTION)
        assert "NIO2" in entities

    def test_prose_without_identifiers_is_empty(self):
        assert extract_entities("any logged in user can add dangerous content") == set()

    def test_dotted_method_names(self):
        assert extract_entities("calls U.set() and U.get()") == {"U.set", "U.get"}

    def test_camel_case_extracted(self):
        entities = extract_entities("overflow in OpenSSLEngine during handshake")
        assert "OpenSSLEngine" in entities

    def test_snake_case_extracted(self):
        entities = extract_entities("the max_header_size option is ignored")
        assert "max_header_size" in entities

    def test_slash_path_extracted(self):
        entities = extract_entities("see util/net handling")
        assert "util/net" in entities

    def test_version_numbers_not_extracted(self):
        entities = extract_entities("affects 8.5.0 to 8.5.63 only")
        assert not any(e.startswith("8.5") for e in entities)

    def test_case_insensitive_dedup_keeps_first(self):
        entities = extract_entities("NIO2 again nio2")
        assert entities == {"NIO2"}

    def test_deterministic(self):
        assert extract_entities(TOMCAT_DESCRIPTION) == extract_entities(TOMCAT_DESCRIPTION)


class TestSearchPaths:
    def test_nio2_finds_util_net_paths(self):
        found = search_paths(TOMCAT_UNIVERSE, {"NIO2"})
        assert "java/org/apache/tomcat/util/net/nio2channel.java" in found
        assert all("nio2" in p for p in found)

    def test_empty_entities_empty_result(self):
        assert search_paths(TOMCAT_UNIVERSE, set()) == set()

    def test_cap_keeps_shortest_paths(self):
        universe = {f"src/{'x' * n}/probe.java" for n in range(1, 51)}
        found = search_paths(universe, {"probe"}, per_entity_cap=10)
        assert len(found) == 10
        assert max(len(p) for p in found) < 30

    def test_result_subset_of_universe(self):
        found = search_paths(TOMCAT_UNIVERSE, {"nio2", "openssl", "missingentity"})
        assert found <= TOMCAT_UNIVERSE

    def test_cap_below_one_rejected(self):
        with pytest.raises(ValueError):
            search_paths(TOMCAT_UNIVERSE, {"x"}, per_entity_cap=0)


class TestJaccard:
    def test_identical_non_empty_sets(self):
        assert feature_jaccard({"a", "b"}, {"a", "b"}) == 1.0

    def test_partial_overlap(self):
        assert feature_jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)

    def test_both_empty(self):
        assert feature_jaccard(set(), set()) == 0.0

    def test_symmetric_and_bounded(self):
        pairs = [({"a"}, {"b"}), ({"a", "b", "c"}, {"c"}), (set(), {"x"})]
        for a, b in pairs:
            assert feature_jaccard(a, b) == feature_jaccard(b, a)
            assert 0.0 <= feature_jaccard(a, b) <= 1.0

    def test_one_only_when_equal_non_empty(self):
        assert feature_jaccard({"a"}, {"a", "b"}) < 1.0
        assert feature_jaccard(set(), set()) != 1.0


class TestPathCosine:
    def test_identical_sets(self):
        paths = {"src/a.java", "src/b.java"}
        assert feature_path_cosine(OfflineEmbedder(64), paths, set(paths)) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_either_side_empty(self):
        provider = OfflineEmbedder(64)
        assert feature_path_cosine(provider, set(), {"a"}) == 0.0
        assert feature_path_cosine(provider, {"a"}, set()) == 0.0

    def test_disjoint_single_token_paths_exact_zero(self):
        # Token-free of shared terms; bucket disjointness checked in
        # test_embedding, reused here at the same dimension.
        provider = OfflineEmbedder(4096)
        cos = feature_path_cosine(provider, {"alpha bravo"}, {"echo foxtrot"})
        assert cos == 0.0


class TestPathPlumbing:
    def test_normalize_strips_prefixes_and_case(self):
        assert normalize_path("a/Src/Main.java") == "src/main.java"
        assert normalize_path("b/x") == "x"
        assert normalize_path("lib/y") == "lib/y"

    def test_universe_covers_all_commits(self):
        corpus = make_corpus(
            [
                make_commit(1, author_time=1, files={"A.java": "x"}),
                make_commit(2, author_time=2, files={"b/B.java": "y", "c.java": "z"}),
            ]
        )
        assert path_universe(corpus) == {"a.java", "b.java", "c.java"}

    def test_commit_paths_normalized(self):
        commit = make_commit(1, files={"Dir/File.java": "w"})
        assert commit_paths(commit) == {"dir/file.java"}

    def test_assembler_embeds_each_path_text_once(self):
        calls = []

        class Counting:
            def embed(self, texts):
                calls.append(list(texts))
                return [offline_embed(t, 32).tolist() for t in texts]

        corpus = make_corpus(
            [
                make_commit(1, author_time=1, files={"src/FrameParser.java": "a"}),
                make_commit(2, author_time=2, files={"src/FrameParser.java": "b"}),
                make_commit(3, author_time=3, files={"lib/other.java": "c"}),
                make_commit(4, author_time=4),
            ]
        )
        cves = [
            make_cve("CVE-2024-0001", description="overflow in FrameParser"),
            make_cve("CVE-2024-0002", description="crash in FrameParser.java"),
        ]
        store = build_vectors(corpus, cves, OfflineEmbedder(32))
        diff_index, file_index = build_index(corpus, "diff"), build_index(corpus, "file")

        def assembler():
            return FeatureAssembler(corpus, store, diff_index, file_index, Counting())

        first = assembler()
        ids = [cid(n) for n in (1, 2, 3, 4)]
        feature_rows(first, cves[0], ids)
        feature_rows(first, cves[1], ids)
        feature_rows(first, cves[0], [cid(3)])[0]
        requested = [text for call in calls for text in call]
        # Both CVEs find the same NER paths; commits 1 and 2 share a path set
        # and commit 4 has none.
        assert first.ner_paths_for(cves[0]) == first.ner_paths_for(cves[1]) == {"src/frameparser.java"}
        assert requested == [path_text({"src/frameparser.java"}), path_text({"lib/other.java"})]
        assert len(calls) == 1

        calls.clear()
        feature_rows(assembler(), cves[0], ids)
        assert [text for call in calls for text in call] == requested

    def test_assembler_embeds_missing_paths_in_batches(self):
        sizes = []

        class Counting:
            def embed(self, texts):
                sizes.append(len(texts))
                return [offline_embed(t, 32).tolist() for t in texts]

        n = PATH_EMBED_BATCH * 2 + 1
        corpus = make_corpus(
            [make_commit(i, author_time=i, files={f"src/parser{i}.java": "x"}) for i in range(n)]
        )
        cve = make_cve(description="overflow in parser0.java")
        store = build_vectors(corpus, [cve], OfflineEmbedder(32))
        assembler = FeatureAssembler(
            corpus, store, build_index(corpus, "diff"), build_index(corpus, "file"), Counting()
        )
        feature_rows(assembler, cve, corpus.commit_ids)
        # One text per commit; the NER path set is commit 0's.
        assert assembler.ner_paths_for(cve) == {"src/parser0.java"}
        assert sizes == [PATH_EMBED_BATCH, PATH_EMBED_BATCH, 1]
