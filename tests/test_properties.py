"""Property tests for the tokenizer, token truncation, diff splitting, the
section tokens the BM25 indexes read, the commit dump round trip, the
feature rows' features.bin round trip and embed_batch's normalization."""

from __future__ import annotations

import math
import tempfile
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from patchrank import lexical  # noqa: E402
from patchrank.corpus import (  # noqa: E402
    CommitRecord,
    build_corpus,
    ingest_commit_dump,
    serialize_corpus,
    split_diff_by_file,
    token_count,
    tokenize,
    truncate_to_tokens,
)
from patchrank.embedding import embed_batch  # noqa: E402
from patchrank.pipeline import FEATURES_FORMAT  # noqa: E402
from patchrank.ranker import NUM_FEATURES  # noqa: E402

from oracles import tokenize_oracle, truncate_to_tokens_oracle  # noqa: E402

# Any text without lone surrogates, which cannot be encoded.
TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=300)

# One diff line that starts no file section and no binary section.
DIFF_LINE = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
    max_size=40,
).filter(lambda line: not line.startswith(("diff --git ", "Binary files", "GIT binary patch")))

PATH = st.from_regex(r"[a-z]{1,8}(/[a-z_]{1,8}){0,2}\.[ch]", fullmatch=True)


@st.composite
def diffs(draw, binary=False) -> tuple[str, list[str]]:
    """A preamble before the first header, and the file sections after it;
    the last may end without a line break. With ``binary``, some sections
    are binary files."""
    preamble = "".join(line + "\n" for line in draw(st.lists(DIFF_LINE, max_size=3)))
    sections = []
    for path in draw(st.lists(PATH, max_size=4)):
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
    """The diff and file documents the BM25 indexes read, built from each
    section's tokens, are the tokens of the diff and file texts."""
    commit = commit_of(diff)
    corpus = build_corpus("r", [commit])
    (diff_doc,) = lexical._doc_tokens(corpus, "diff").values()
    assert list(chain.from_iterable(diff_doc)) == tokenize(commit.diff_text())
    file_docs = {
        path: list(chain.from_iterable(parts))
        for (_, path), parts in lexical._doc_tokens(corpus, "file").items()
    }
    assert file_docs == {path: tokenize(text) for path, text in commit.file_texts().items()}


@given(diffs(binary=True))
def test_serialize_then_ingest_keeps_paths_and_texts(diff):
    commit = commit_of(diff)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "commits.jsonl"
        serialize_corpus(build_corpus("r", [commit]), path)
        (again,) = ingest_commit_dump(path).commits
    assert [fd.path for fd in again.file_diffs] == [fd.path for fd in commit.file_diffs]
    assert again.section_texts() == commit.section_texts()


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
