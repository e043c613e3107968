"""Property tests for the tokenizer, token truncation, diff splitting, the
section tokens the BM25 indexes read, the diff index summed from the file
index, the corpus file round trip from a commit and from a dump, the
feature rows' features.bin round trip, the candidate and ranking lists'
round trip, the ranked-list JSONL writer, embed_batch's normalization, the offline vectors
build_vectors stores, the array pre-ranker and the training-group sampler."""

from __future__ import annotations

import math
import tempfile
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from patchrank import lexical  # noqa: E402
from patchrank.corpus import (  # noqa: E402
    CommitRecord,
    CveRecord,
    build_corpus,
    ingest_commit_dump,
    load_corpus,
    save_corpus,
    split_diff_by_file,
    tokenize,
    truncate_to_tokens,
)
from patchrank.corpus import write_jsonl, write_ranked_jsonl  # noqa: E402
from patchrank.embedding import (  # noqa: E402
    OfflineEmbedder,
    PromptKind,
    build_vectors,
    embed_batch,
    render_prompt,
)
from patchrank.pipeline import (  # noqa: E402
    FEATURES_FORMAT,
    load_candidates,
    load_rankings,
    save_candidates,
    save_rankings,
)
from patchrank.prerank import (  # noqa: E402
    COMPONENT_NAMES,
    FusionConfig,
    fuse_components,
    prerank_candidates,
    prerank_components,
)
from patchrank.ranker import NUM_FEATURES, sample_training_group  # noqa: E402

from oracles import (  # noqa: E402
    CANDIDATE_FIELDS,
    RANKING_FIELDS,
    diff_index_oracle,
    file_texts,
    fuse_components_oracle,
    load_ranked_oracle,
    offline_vector_oracle,
    prerank_components_oracle,
    sample_training_group_oracle,
    token_count,
    tokenize_oracle,
    truncate_to_tokens_oracle,
)

# Any text without lone surrogates, which cannot be encoded.
TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=300)

# One diff line that starts no file section and no binary section.
DIFF_LINE = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
    max_size=40,
).filter(lambda line: not line.startswith(("diff --git ", "Binary files", "GIT binary patch")))

PATH = st.from_regex(r"[a-z]{1,8}(/[a-z_]{1,8}){0,2}\.[ch]", fullmatch=True)
# Few paths, so that a commit often names one path in two sections.
FEW_PATHS = st.sampled_from(["a.c", "lib/b.h", "naïve/ß.c"])


@st.composite
def diffs(draw, binary=False, paths=PATH) -> tuple[str, list[str]]:
    """A preamble before the first header, and the file sections after it;
    the last may end without a line break. With ``binary``, some sections
    are binary files."""
    preamble = "".join(line + "\n" for line in draw(st.lists(DIFF_LINE, max_size=3)))
    sections = []
    for path in draw(st.lists(paths, max_size=4)):
        header = f"diff --git a/{path} b/{path}\n"
        if binary and draw(st.booleans()):
            sections.append(f"{header}Binary files a/{path} and b/{path} differ\n")
        else:
            lines = draw(st.lists(DIFF_LINE, max_size=6))
            sections.append(header + "".join(line + "\n" for line in lines))
    if sections:
        sections[-1] += draw(DIFF_LINE)
    return preamble, sections


def commit_of(diff: tuple[str, list[str]]) -> CommitRecord:
    preamble, sections = diff
    file_diffs = tuple(split_diff_by_file(preamble + "".join(sections)))
    return CommitRecord("0" * 40, "r", 0, "", file_diffs)


@given(TEXT, st.integers(min_value=1, max_value=60))
def test_truncate_to_tokens_is_a_prefix_within_budget(text, budget):
    cut = truncate_to_tokens(text, budget)
    assert text.startswith(cut)
    assert token_count(cut) <= budget
    if token_count(text) <= budget:
        assert cut == text


@given(TEXT)
def test_tokenize_equals_the_oracle(text):
    assert tokenize(text) == tokenize_oracle(text)


@given(TEXT, st.integers(min_value=1, max_value=60))
def test_truncate_to_tokens_equals_the_oracle(text, budget):
    """The oracle's cut is the longest prefix within the budget."""
    assert truncate_to_tokens(text, budget) == truncate_to_tokens_oracle(text, budget)
    above = token_count(text) + 1
    assert truncate_to_tokens(text, above) == truncate_to_tokens_oracle(text, above) == text


@given(diffs())
def test_split_diff_by_file_concatenates_back(diff):
    preamble, sections = diff
    split = split_diff_by_file(preamble + "".join(sections))
    assert [fd.header + fd.body for fd in split] == sections


@given(diffs(binary=True))
def test_section_tokens_join_to_the_diff_and_file_tokens(diff):
    """The file documents the BM25 indexes read, built from each section's
    tokens, are the tokens of the file texts, and all sections' tokens,
    which the diff index sums, are the tokens of the diff text."""
    commit = commit_of(diff)
    corpus = build_corpus("r", [commit])
    sections = [fd.tokens for fd in commit.file_diffs]
    assert list(chain.from_iterable(sections)) == tokenize(commit.diff_text())
    file_docs = {
        path: list(chain.from_iterable(parts))
        for (_, path), parts in lexical._doc_tokens(corpus, "file").items()
    }
    assert file_docs == {path: tokenize(text) for path, text in file_texts(commit).items()}


@st.composite
def diff_corpora(draw):
    """Up to six commits, each of a diff drawn by :func:`diffs` with binary
    sections and paths often repeated, maybe without sections; and BM25
    parameters."""
    numbers = draw(st.lists(st.integers(0, 2**32), max_size=6, unique=True))
    commits = []
    for number in numbers:
        preamble, sections = draw(diffs(binary=True, paths=st.one_of(FEW_PATHS, PATH)))
        file_diffs = tuple(split_diff_by_file(preamble + "".join(sections)))
        author_time = draw(st.sampled_from([0, 5]))
        commits.append(CommitRecord(f"{number:040x}", "r", author_time, "", file_diffs))
    return commits, draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 1.0))


@given(diff_corpora())
# No commits, and commits whose diffs hold no section: no postings at all.
@example(([], 1.2, 0.75))
@example(([CommitRecord(f"{n:040x}", "r", 0, "", ()) for n in (2, 1)], 1.2, 0.75))
def test_diff_index_equals_the_token_oracle(drawn):
    """The diff index summed from the file index has the arrays and BM25
    parameters of the one built from each commit's joined section tokens."""
    commits, k1, b = drawn
    corpus = build_corpus("r", commits)
    derived = lexical.diff_index(lexical.build_index(corpus, "file", k1=k1, b=b), corpus.commit_ids)
    expected = diff_index_oracle(corpus, k1, b)
    assert derived.field_kind == "diff"
    assert (derived.docs, derived.vocab) == (expected.docs, expected.vocab)
    for name in ("doc_lengths", "offsets", "doc_ids", "tfs"):
        got, want = getattr(derived, name), getattr(expected, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert (derived.k1, derived.b) == (k1, b)


@given(diffs(binary=True))
def test_serialize_then_ingest_keeps_paths_and_texts(diff):
    commit = commit_of(diff)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.bin"
        save_corpus(build_corpus("r", [commit]), path)
        (again,) = load_corpus(path, "r").commits
    assert [fd.path for fd in again.file_diffs] == [fd.path for fd in commit.file_diffs]
    assert again.section_texts() == commit.section_texts()


# Paths that hold a space or a quote, as a header names them.
ODD_PATHS = st.sampled_from(["my file.c", '"quoted.h"', 'sp ace/"q.c', "naïve/ß.c"])
BINARY_THEN_TEXT = (
    "diff --git a/img.png b/img.png\nBinary files a/img.png and b/img.png differ\n"
    "diff --git a/x.c b/x.c\n+fix\n"
)


@st.composite
def commit_dumps(draw) -> list[dict]:
    """A one-repository commit dump's records: up to five commits, of equal or
    differing times, with any message, the empty one included, and diffs drawn
    by :func:`diffs` with binary sections, odd paths, or no section at all."""
    numbers = draw(st.lists(st.integers(0, 2**32), max_size=5, unique=True))
    records = []
    for number in numbers:
        preamble, sections = draw(diffs(binary=True, paths=st.one_of(PATH, ODD_PATHS)))
        records.append(
            {
                "commit_id": f"{number:040x}",
                "repo_id": "r/ü",
                "author_time": draw(st.sampled_from([0, 5, 2**40])),
                "message": draw(TEXT),
                "diff": preamble + "".join(sections),
            }
        )
    return records


def _sections(corpus) -> list[tuple]:
    return [
        (fd.path, fd.header, fd.body, fd.tokens) for c in corpus.commits for fd in c.file_diffs
    ]


@given(commit_dumps())
@example([])
# A binary section's emptied body, followed by another section, is kept empty.
@example(
    [{"commit_id": "1" * 40, "repo_id": "r", "author_time": 1, "message": "", "diff": BINARY_THEN_TEXT}]
)
def test_corpus_file_round_trip_equals_the_ingested_dump(records):
    """A dump-ingested corpus, saved as a corpus file and loaded, is equal:
    commit ids, times, messages, and each section's path, header, body and
    tokens."""
    with tempfile.TemporaryDirectory() as tmp:
        dump, saved = Path(tmp) / "commits.jsonl", Path(tmp) / "corpus.bin"
        write_jsonl(dump, records)
        corpus = ingest_commit_dump(dump)
        save_corpus(corpus, saved)
        loaded = load_corpus(saved, corpus.repo_id)
    assert loaded == corpus
    assert (loaded.commit_ids, loaded.time_index) == (corpus.commit_ids, corpus.time_index)
    assert [c.message for c in loaded.commits] == [c.message for c in corpus.commits]
    assert _sections(loaded) == _sections(corpus)


@given(TEXT)
def test_tokenize_yields_lowercase_non_empty_tokens(text):
    tokens = tokenize(text)
    assert all(token and token == token.lower() for token in tokens)
    assert len(tokens) == token_count(text)


def write_and_read_feature_row(values) -> np.ndarray:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "features.bin"
        FEATURES_FORMAT.save(path, features=[values])
        (row,) = FEATURES_FORMAT.load(path)["features"]
    return row


@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False),
        min_size=NUM_FEATURES,
        max_size=NUM_FEATURES,
    )
)
def test_feature_row_round_trip_keeps_every_bit(values):
    read = write_and_read_feature_row(values)
    assert np.array(read).tobytes() == np.array(values).tobytes()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_feature_rejected(value):
    with pytest.raises(ValueError, match="section features: row 0 holds a non-finite value"):
        write_and_read_feature_row([0.0, 0.0, value, *[0.0] * (NUM_FEATURES - 3)])


@st.composite
def ranked_lists(draw) -> tuple[dict[str, list[str]], dict[str, list[int]]]:
    """Pre-ranked lists of CVEs in id order, drawn from a small commit pool so
    that CVEs share commits, some of one row; and a permutation of each."""
    pool = draw(st.lists(st.from_regex(r"[0-9a-f]{6}", fullmatch=True), min_size=1, unique=True))
    cve_ids = sorted(draw(st.sets(st.from_regex(r"CVE-20[0-9]{2}-[0-9]{4,5}", fullmatch=True))))
    lists = {
        cve_id: draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))
        for cve_id in cve_ids
    }
    orders = {cve_id: draw(st.permutations(range(len(ids)))) for cve_id, ids in lists.items()}
    return lists, orders


@given(ranked_lists(), st.floats(min_value=0.0, max_value=1.0))
def test_candidate_and_ranking_lists_round_trip(drawn, component):
    """The lists read back from candidates.bin and ranking.bin are those the
    JSONL reference reader gives for the same lists as JSONL exports."""
    lists, orders = drawn
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        components = np.full((sum(map(len, lists.values())), 4), component)
        save_candidates(root / "candidates.bin", lists, components)
        candidates = load_candidates(root / "candidates.bin")
        starts = dict(zip(candidates.cve_ids, candidates.offsets.tolist()))
        ranked = {c: np.add(starts[c], order, dtype=np.int32) for c, order in orders.items()}
        save_rankings(root / "ranking.bin", ranked)
        rankings = load_rankings(root / "ranking.bin", candidates)
        records = [
            {"cve_id": c, "commit_id": commit_id, "rank": rank, "fused_score": 0.5}
            for c, ids in lists.items()
            for rank, commit_id in enumerate(ids, start=1)
        ]
        write_jsonl(root / "candidates.jsonl", records)
        records = [
            {"cve_id": c, "commit_id": lists[c][i], "rank": rank, "score": -rank / 2}
            for c, order in orders.items()
            for rank, i in enumerate(order, start=1)
        ]
        write_jsonl(root / "ranking.jsonl", records)
        expected = load_ranked_oracle(root / "candidates.jsonl", CANDIDATE_FIELDS, "fused_score")
        assert {c: list(candidates.ids(s)) for c, s in candidates.slices().items()} == {
            c: [commit_id for commit_id, _ in entries] for c, entries in expected.items()
        }
        expected = load_ranked_oracle(root / "ranking.jsonl", RANKING_FIELDS, "score")
        assert {c: list(candidates.ids(r)) for c, r in rankings.items()} == {
            c: [commit_id for commit_id, _ in entries] for c, entries in expected.items()
        }
        assert candidates.components.tobytes() == components.tobytes()


# CVE ids with characters that JSON escapes or keeps as they are: quotes,
# backslashes, control characters, non-ASCII letters and an astral symbol.
CVE_ID = st.text(st.sampled_from('CVE-2024-1 "\\\n\t\x00\x7fé漢\U0001f600{}'), max_size=12)
RANKED_LIST = st.tuples(
    CVE_ID,
    st.lists(st.text(max_size=6), max_size=4),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
)


@given(st.sampled_from(["fused_score", "score"]), st.lists(RANKED_LIST, max_size=4))
@example("score", [("CVE-\"é\"\\x", ["a"], [-0.0, 0.1, 1e300, 5e-324])])
def test_ranked_writer_writes_the_bytes_of_write_jsonl(score_key, lists):
    """write_ranked_jsonl writes what write_jsonl writes of one record per
    ranked commit, for either score key."""
    records = [
        {"cve_id": cve_id, "commit_id": commit_id, "rank": rank, score_key: score}
        for cve_id, commit_ids, scores in lists
        for rank, commit_id, score in zip(range(1, 5), commit_ids, scores)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        expected, written = Path(tmp) / "expected.jsonl", Path(tmp) / "written.jsonl"
        write_jsonl(expected, records)
        write_ranked_jsonl(written, score_key, iter(lists))
        assert written.read_bytes() == expected.read_bytes()


class _Returns:
    """A provider answering with fixed raw vectors."""

    def __init__(self, vectors):
        self.vectors = vectors

    def embed(self, texts):
        return self.vectors[: len(texts)]


def _normalized_alone(values: list[float]) -> np.ndarray:
    """One vector normalized on its own: divided by the square root of its
    float64 sum of squares, or the first basis vector when that is 0."""
    vec = np.asarray(values, dtype=np.float64)
    norm = np.sqrt(np.square(vec).sum())
    if norm == 0.0:
        return np.eye(1, len(vec), dtype=np.float32)[0]
    return (vec / norm).astype(np.float32)


@given(
    st.integers(min_value=1, max_value=40).flatmap(
        lambda dimension: st.lists(
            st.lists(
                st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False)
                | st.just(0.0),
                min_size=dimension,
                max_size=dimension,
            ),
            min_size=1,
            max_size=12,
        )
    )
)
def test_batched_embed_batch_equals_per_vector_normalization(raw):
    out = embed_batch(_Returns(raw), [str(i) for i in range(len(raw))])
    alone = np.array([_normalized_alone(values) for values in raw])
    assert out.dtype == np.float32 and out.tobytes() == alone.tobytes()
    # And within an ulp of each vector divided by its np.linalg.norm.
    usable = np.linalg.norm(raw, axis=1) > 0.0
    each = [(np.asarray(v) / np.linalg.norm(v)).astype(np.float32) for v in np.asarray(raw)[usable]]
    np.testing.assert_array_max_ulp(out[usable], np.array(each).reshape(-1, len(raw[0])), maxulp=1)


@st.composite
def embedded_corpora(draw) -> tuple[list[tuple[str, str]], list[str], int, int]:
    """One to three commits, each a message (maybe empty, any Unicode) and a
    diff with binary sections and repeated paths; up to two CVE
    descriptions; and a commit and a file token budget, each from 1 to
    above the longest diff's token count."""
    commits = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        preamble, sections = draw(diffs(binary=True, paths=FEW_PATHS))
        commits.append((draw(TEXT), preamble + "".join(sections)))
    budget = st.integers(min_value=1, max_value=max(token_count(d) for _, d in commits) + 2)
    return commits, draw(st.lists(TEXT, max_size=2)), draw(budget), draw(budget)


def _section(path: str, lines: int, binary: bool = False) -> str:
    body = "".join(f"+w{i} fooBar\n" for i in range(lines))
    if binary:
        body = f"Binary files a/{path} and b/{path} differ\n"
    return f"diff --git a/{path} b/{path}\n{body}"


# The cases a drawn corpus may miss: a binary section followed by another,
# a path repeated in one diff, a section that alone overruns the file budget,
# and a commit diff over its budget whose files each fit theirs.
PINNED_DIFFS = [
    _section("img.png", 0, binary=True) + _section("a.c", 2),
    _section("a.c", 1) + _section("b.c", 1) + _section("a.c", 2),
    _section("big.c", 30) + _section("small.c", 1),
    _section("x.c", 3) + _section("y.c", 3) + _section("z.c", 3),
]


class _RecordingEmbedder(OfflineEmbedder):
    """The offline provider, recording the texts, tokens and vectors of each call."""

    def __init__(self, dimension: int):
        super().__init__(dimension)
        self.calls: list[tuple[list[str], list[list[str]] | None, np.ndarray]] = []

    def embed(self, texts, tokens=None):
        vectors = super().embed(texts, tokens)
        self.calls.append((list(texts), tokens, vectors))
        return vectors


@given(embedded_corpora())
@example(([("", PINNED_DIFFS[0]), ("fix ünïcode", PINNED_DIFFS[1])], ["a CVE"], 6, 5))
@example(([("m", PINNED_DIFFS[2])], [], 210, 20))
@example(([("m", PINNED_DIFFS[3])], [""], 30, 30))
def test_build_vectors_stores_the_oracle_vectors_of_the_oracle_prompts(drawn):
    """The provider gets the prompts made from the oracle's cut, each with
    its own tokens, and returns, bit for bit, the oracle's vector of each;
    the store holds that vector as embed_batch normalizes it; and batch
    sizes 1 and 64 store the same bytes."""
    commits, descriptions, commit_budget, file_budget = drawn
    records = [
        CommitRecord(f"{n:040x}", "r", n, message, tuple(split_diff_by_file(diff)))
        for n, (message, diff) in enumerate(commits)
    ]
    corpus = build_corpus("r", records)
    cves = [CveRecord(f"CVE-2024-{n:04d}", d, None, None, "r") for n, d in enumerate(descriptions)]
    budgets = {"commit_budget": commit_budget, "file_budget": file_budget}
    provider = _RecordingEmbedder(16)
    store = build_vectors(corpus, cves, provider, **budgets, batch_size=64)
    alone = build_vectors(corpus, cves, OfflineEmbedder(16), **budgets, batch_size=1)
    assert alone.keys() == store.keys()
    assert alone.matrix.tobytes() == store.matrix.tobytes()

    expected: dict[tuple, str] = {}
    for commit in corpus.commits:
        diff = truncate_to_tokens_oracle(commit.diff_text(), commit_budget)
        prompt = render_prompt(PromptKind.COMMIT_DOC, message=commit.message, diff=diff)
        expected[("commit", commit.commit_id)] = prompt
        for path, text in file_texts(commit).items():
            diff = truncate_to_tokens_oracle(text, file_budget)
            prompt = render_prompt(PromptKind.FILE_DOC, message=commit.message, diff=diff)
            expected[("file", commit.commit_id, path)] = prompt
    for cve in cves:
        prompt = render_prompt(PromptKind.CVE_QUERY, description=cve.description)
        expected[("cve", cve.cve_id)] = prompt
    assert [text for texts, _, _ in provider.calls for text in texts] == list(expected.values())
    for texts, tokens, vectors in provider.calls:
        assert tokens == [tokenize(text) for text in texts]
        oracle = np.array([offline_vector_oracle(text, 16) for text in texts])
        assert vectors.tobytes() == oracle.tobytes()
    for key, prompt in expected.items():
        stored = embed_batch(_Returns([offline_vector_oracle(prompt, 16)]), [prompt])
        assert store.matrix[store.rows[key]].tobytes() == stored.tobytes()


PRERANK_WORDS = st.sampled_from(["alpha", "beta", "gamma", "delta"])
# A CVE timestamp: none, or one before, among or after the commits' times.
CVE_TIME = st.one_of(st.none(), st.integers(min_value=-10, max_value=60))


@st.composite
def preranked_corpora(draw):
    """Up to ten commits, as (id number, author time, message, {path: diff
    words}), over four words and three author times, so that BM25 scores,
    distances and times tie; a CVE's (description, reserve time, publish
    time), the description maybe sharing no term with any commit; a
    candidate_k from 1 to above the corpus size; and weights that may be 0."""
    words = st.lists(PRERANK_WORDS, max_size=4).map(" ".join)
    numbers = draw(st.lists(st.integers(0, 2**32), max_size=10, unique=True))
    commits = [
        (
            number,
            draw(st.sampled_from([0, 20, 40])),
            draw(words),
            draw(st.dictionaries(st.sampled_from(["a.c", "b.c"]), words, max_size=2)),
        )
        for number in numbers
    ]
    description = draw(st.one_of(words, st.just("unshared words only")))
    reserve, publish = draw(CVE_TIME), draw(CVE_TIME)
    if reserve is not None and publish is not None and reserve > publish:
        reserve, publish = publish, reserve
    candidate_k = draw(st.integers(min_value=1, max_value=len(commits) + 2))
    # Weights without an exact binary value, so that sums in another order differ.
    weight = st.one_of(st.sampled_from([0.0, 0.15, 0.2, 0.3, 0.35]), st.floats(0.0, 2.0))
    return commits, (description, reserve, publish), candidate_k, draw(st.tuples(*[weight] * 4))


@given(preranked_corpora())
# Equal author times and scores, no timestamps, k below the corpus size.
@example(([(3, 20, "alpha", {}), (1, 20, "alpha", {})], ("alpha", None, None), 1, (1.0,) * 4))
# Timestamps outside the commits' times, no shared term, k above the size.
@example(([(5, 0, "", {}), (4, 40, "gamma", {})], ("unshared", -10, 60), 5, (0.0, 0.2, 0.0, 0.2)))
# Both timestamps among the commits' times, and every weight 0.
@example(([(2, 40, "beta", {"a.c": "beta"}), (7, 0, "beta", {})], ("beta", 20, 20), 2, (0.0,) * 4))
def test_array_prerank_equals_dict_oracle(drawn):
    """prerank_components and fuse_components give the dict pre-ranker's
    candidate ids, fused-score bits and component-row bits."""
    commits, (description, reserve, publish), candidate_k, weights = drawn
    records = []
    for number, author_time, message, files in commits:
        diff = "".join(
            f"diff --git a/{path} b/{path}\n" + "".join(f"+{w}\n" for w in body.split())
            for path, body in files.items()
        )
        records.append(
            CommitRecord(f"{number:040x}", "r", author_time, message, tuple(split_diff_by_file(diff)))
        )
    corpus = build_corpus("r", records)
    cve = CveRecord("CVE-2024-0001", description, reserve, publish, "r")
    config = FusionConfig(weights=weights, candidate_k=candidate_k)
    indexes = [lexical.build_index(corpus, kind) for kind in ("message", "diff")]

    components = prerank_components(corpus, cve, *indexes, config)
    positions, scores = fuse_components(corpus, components, config)
    maps = prerank_components_oracle(corpus, cve, *indexes, config)
    expected = fuse_components_oracle(corpus, maps, config)

    assert [corpus.commits[p].commit_id for p in positions] == [c for c, _ in expected]
    assert scores.tobytes() == np.array([s for _, s in expected], dtype=np.float64).tobytes()
    oracle_rows = [[maps[name].get(c.commit_id, 0.0) for name in COMPONENT_NAMES] for c in corpus.commits]
    assert components.tobytes() == np.array(oracle_rows, dtype=np.float64).tobytes()
    ranked = prerank_candidates(corpus, cve, *indexes, config)
    assert [c for c, _ in ranked] == [c for c, _ in expected]
    assert np.array([s for _, s in ranked]).tobytes() == np.array([s for _, s in expected]).tobytes()


# A negative budget: none, a few, any, or more than any corpus has commits.
BUDGET = st.one_of(st.just(0), st.integers(1, 5), st.integers(0, 70), st.integers(61, 10_000))


@st.composite
def sampled_corpora(draw):
    """1 to 60 commits whose author times do not follow their ids, so that
    corpus order is not commit-id order; known patches none, one or several of
    them, maybe with ids outside the corpus; a pre-ranked list that is a
    prefix, empty to full, of a permutation of the corpus positions; both
    negative budgets; and a seed of the full signed 64-bit range."""
    numbers = draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=60, unique=True))
    times = draw(st.lists(st.integers(0, 5), min_size=len(numbers), max_size=len(numbers)))
    patches = draw(st.sets(st.sampled_from(numbers), max_size=min(4, len(numbers))))
    outside = draw(st.sets(st.integers(2**32 + 1, 2**33), max_size=2))
    order = draw(st.permutations(range(len(numbers))))
    preranked = order[: draw(st.integers(0, len(numbers)))]
    seed = draw(st.one_of(st.sampled_from([0, 11, -5]), st.integers(-(2**63), 2**63 - 1)))
    return numbers, times, patches | outside, preranked, draw(BUDGET), draw(BUDGET), seed


@given(sampled_corpora())
# No patch in the corpus: only ids outside it.
@example(([3, 1], [0, 0], {2**32 + 5}, [1, 0], 1, 1, 0))
# Every commit a patch, the full list, budgets above the commit count.
@example(([9, 4, 7], [2, 0, 1], {9, 4, 7}, [2, 0, 1], 100, 100, -5))
# One patch, an empty list, no random negatives and the extreme seeds.
@example(([5, 2, 8, 6], [1, 1, 0, 0], {8}, [], 3, 0, 2**63 - 1))
@example(([5, 2, 8, 6], [1, 1, 0, 0], {8}, [3, 2], 0, 2, -(2**63)))
def test_position_sampler_equals_the_id_oracle(drawn):
    """sample_training_group over corpus positions, mapped back to commit
    ids, draws the id-based oracle's group: the same rows, relevance and order."""
    numbers, times, patches, preranked, hard, randoms, seed = drawn
    records = [CommitRecord(f"{n:040x}", "r", t, "", ()) for n, t in zip(numbers, times)]
    corpus = build_corpus("r", records)
    cve = CveRecord("CVE-2024-0001", "", None, None, "r", frozenset(f"{n:040x}" for n in patches))
    budgets = dict(hard_negatives=hard, random_negatives=randoms)

    group = sample_training_group(cve, np.array(preranked, np.intp), corpus, seed, **budgets)
    ids = [corpus.commits[p].commit_id for p in preranked]
    expected = sample_training_group_oracle(cve, ids, corpus, seed, **budgets)

    if expected is None:
        assert group is None
        return
    positions, relevance = group
    assert positions.dtype == np.intp and relevance.dtype == np.int8
    rows = [(corpus.commits[p].commit_id, r) for p, r in zip(positions.tolist(), relevance.tolist())]
    assert rows == expected
