"""Commit and CVE corpus handling.

Loads line-delimited JSON dumps of commit histories and CVE records,
splits raw unified diffs into per-file units, saves and loads a corpus as
one binary file, and provides the tokenizer used everywhere else.

Every JSONL file, dump or artifact, is written by :func:`write_jsonl`, or
by ``artifacts.write_ranked_jsonl`` with the same bytes for a ranked-list
export, and read by :func:`read_jsonl`, which checks each line with the typed
value parsers of :func:`expect`, the parsers of the pipeline config's values.
"""

from __future__ import annotations

import json
import re
import reprlib
import sys
from bisect import bisect_right
from collections.abc import Callable, Iterable, Iterator
from functools import cached_property, lru_cache, partial
from itertools import accumulate, chain
from pathlib import Path

import numpy as np

from .container import STR, Format, Record, Rows, Section, byte_array, set_field


class InputError(Exception):
    """Bad input of the user's: a dump, the config, the training data or the
    embedding provider. The CLI exits 1 on it."""


class DumpFormatError(ValueError, InputError):
    """A commit or CVE dump, or a JSONL artifact, is malformed."""


_COMMIT_ID_RE = re.compile(r"^[0-9a-f]{40}$")
_HEX = np.array([chr(i) in "0123456789abcdef" for i in range(256)])  # by byte value
_DIFF_HEADER_RE = re.compile(r"^diff --git .*$", re.MULTILINE)
_BINARY_SECTION_RE = re.compile(r"^(?:Binary files .* differ|GIT binary patch)", re.MULTILINE)
_WORD_RUN_RE = re.compile(r"\w+")
_WORD_SPLIT_RE = re.compile(r"(\w+)")
_SUBTOKEN_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z]+|[a-z]+|[0-9]+")


def expect(
    kind: type, minimum: int | None = None, *, item=None, fields=None, nullable=False
) -> Callable:
    """A parser that accepts only a JSON value of ``kind`` (or null, if
    ``nullable``), at least ``minimum``, with list items parsed by ``item`` and
    an object's values by their key's parser in ``fields``, which lists its keys
    exactly. Types match exactly, so JSON true and false are not numbers; a
    float also takes an integer but not NaN or infinity, which Python's JSON
    parser accepts."""
    accepted = (int, float) if kind is float else (kind,)

    def parse(value):
        if value is None and nullable:
            return None
        if type(value) not in accepted:
            raise TypeError(f"expected {kind.__name__}, got {reprlib.repr(value)}")
        # Compared, not converted: float() of a huge JSON integer overflows.
        if kind is float and not -sys.float_info.max <= value <= sys.float_info.max:
            raise ValueError(f"must be finite, got {reprlib.repr(value)}")
        if minimum is not None and value < minimum:
            raise ValueError(f"must be >= {minimum}, got {value}")
        if item is not None:
            return tuple(map(item, value))
        if fields is not None:
            if value.keys() != fields.keys():
                raise ValueError(f"expected keys {sorted(fields)}, got {sorted(value)}")
            parsed = {}
            for key, parse_field in fields.items():
                try:
                    parsed[key] = parse_field(value[key])
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{key}: {exc}") from exc
            return parsed
        return float(value) if kind is float else value

    return parse


def read_jsonl(path: str | Path, fields: dict[str, Callable], build: Callable = dict) -> Iterator:
    """``build(**record)`` for each non-blank line of ``path``, ``record`` parsed
    by ``expect(dict, fields=fields)``. Any failure, ``build``'s included, is
    one DumpFormatError naming the file and the line."""
    parse = expect(dict, fields=fields)
    # Decoded line by line, so that invalid UTF-8 is reported with its line.
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = build(**parse(json.loads(line.decode("utf-8"))))
            except json.JSONDecodeError as exc:
                raise DumpFormatError(f"{path} line {lineno}: invalid JSON ({exc.msg})") from exc
            except (TypeError, ValueError) as exc:
                raise DumpFormatError(f"{path} line {lineno}: {exc}") from exc
            yield record


# Shared: json.dumps with keyword arguments would build an encoder per record.
JSONL_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """One JSON object per line, keys sorted, non-ASCII text kept as is."""
    encode = JSONL_ENCODER.encode
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(encode(record) + "\n")


class FileDiff(Record):
    """One file's portion of a unified diff.

    ``path`` is the new-side path with the ``a/``/``b/`` prefix stripped;
    ``header`` is the ``diff --git`` line without its newline; ``body`` is
    the raw remainder of the file section, so ``header + body`` reproduces
    the original text exactly (a binary file's body is emptied). Split by
    :func:`split_diff_by_file`, every section text but a commit's last ends
    a line, so no word run crosses sections: a commit's diff and file texts
    tokenize to their sections' tokens joined in order.
    """

    __slots__ = ("path", "header", "body")

    def __init__(self, path: str, header: str, body: str) -> None:
        set_field(self, "path", path)
        set_field(self, "header", header)
        set_field(self, "body", body)


class CommitRecord(Record):
    __slots__ = ("commit_id", "repo_id", "author_time", "message", "file_diffs")

    def __init__(
        self, commit_id: str, repo_id: str, author_time: int, message: str,
        file_diffs: tuple[FileDiff, ...] = (),
    ) -> None:
        if not _COMMIT_ID_RE.match(commit_id):
            raise ValueError(f"commit_id must be 40 lowercase hex chars: {commit_id!r}")
        if author_time < 0:
            raise ValueError(f"author_time must be >= 0, got {author_time}")
        set_field(self, "commit_id", commit_id)
        set_field(self, "repo_id", repo_id)
        set_field(self, "author_time", author_time)
        set_field(self, "message", message)
        set_field(self, "file_diffs", file_diffs)

    def section_texts(self) -> list[str]:
        """Each file section's ``header + body``. An emptied body, such as a
        binary file's, gives back its header's line break where another
        section follows, so that no header runs into the next."""
        last = len(self.file_diffs) - 1
        return [
            fd.header + (fd.body if fd.body or i == last else "\n")
            for i, fd in enumerate(self.file_diffs)
        ]

    def tokenized_sections(self) -> list[tuple[str, list[str]]]:
        """Each section text with its tokens: for a reader of one commit at a time."""
        return [(text, tokenize(text)) for text in self.section_texts()]


class CveRecord(Record):
    __slots__ = (
        "cve_id", "description", "reserve_time", "publish_time", "repo_id", "known_patch_ids"
    )

    def __init__(
        self, cve_id: str, description: str, reserve_time: int | None, publish_time: int | None,
        repo_id: str, known_patch_ids: frozenset[str] = frozenset(),
    ) -> None:
        if reserve_time is not None and publish_time is not None and reserve_time > publish_time:
            raise ValueError(f"{cve_id}: reserve_time after publish_time")
        values = (cve_id, description, reserve_time, publish_time, repo_id, known_patch_ids)
        for name, value in zip(self.__slots__, values):
            set_field(self, name, value)


class Corpus:
    """All commits of one repository, sorted by (author_time, commit_id), as
    the columns of ``corpus.bin``: the ``S40`` array of ``ids``, ``author_times``,
    ``messages``, and the ``headers`` and ``bodies`` of the file sections,
    commit ``i``'s being ``bounds[i]`` to ``bounds[i + 1]``. ``commits[i]``
    builds commit ``i``'s CommitRecord, decoding the strings it reads."""

    def __init__(self, repo_id: str, ids, author_times, messages, section_ends, headers, bodies):
        self.repo_id = repo_id
        self.ids = np.asarray(ids, dtype="S40")
        self.author_times = np.asarray(author_times, dtype=np.int64)
        self.messages, self.headers, self.bodies = messages, headers, bodies
        self.bounds = np.concatenate(([0], section_ends)).astype(np.intp)
        self.commits = Rows(len(self.ids), lambda i: self._records(i, i + 1)[0], self._records)

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        same_repo = isinstance(other, Corpus) and self.repo_id == other.repo_id
        return same_repo and self.commits == other.commits

    def __contains__(self, commit_id: str) -> bool:
        return self._position(commit_id) >= 0

    @property
    def commit_ids(self) -> list[str]:
        return list(self._id_strings)

    def commit_ids_at(self, positions: np.ndarray) -> list[str]:
        """The ids at ``positions``: the same str objects for every list that names one."""
        return [self._id_strings[p] for p in positions.tolist()]

    @cached_property
    def _id_strings(self) -> list[str]:
        return [commit_id.decode() for commit_id in self.ids.tolist()]

    def _position(self, commit_id: str) -> int:
        """``commit_id``'s position, by a binary search of :attr:`sorted_ids`; -1 if none."""
        at = int(self.sorted_ids.searchsorted(commit_id.encode()))
        found = at < len(self) and self.sorted_ids[at].decode() == commit_id
        return int(self.id_order[at]) if found else -1

    def position_of(self, commit_id: str) -> int:
        if (position := self._position(commit_id)) < 0:
            raise KeyError(f"unknown commit {commit_id!r} in repo {self.repo_id!r}")
        return position

    def insertion_position(self, timestamp: int) -> int:
        """How many commits are older than ``timestamp``, which may be any int."""
        later = timestamp > np.iinfo(np.int64).max  # than any author time
        return len(self) if later else int(self.author_times.searchsorted(max(timestamp, 0)))

    @cached_property
    def id_order(self) -> np.ndarray:
        """The positions in commit-id order: document ``j`` of a message or
        diff index, whose documents ascend by commit id, is at ``id_order[j]``."""
        return np.argsort(self.ids, kind="stable").astype(np.intp)

    @cached_property
    def id_ranks(self) -> np.ndarray:
        """Each position's rank in commit-id order; :attr:`id_order` inverted."""
        ranks = np.empty(len(self), dtype=np.intp)
        ranks[self.id_order] = np.arange(len(self))
        return ranks

    @cached_property
    def sorted_ids(self) -> np.ndarray:
        return self.ids[self.id_order]

    @cached_property
    def paths(self) -> list[str]:
        """Each file section's path, derived from its header."""
        return list(map(_path_from_header, self.headers))

    def file_paths(self, position: int) -> list[str]:
        return self.paths[self.bounds[position] : self.bounds[position + 1]]

    def _records(self, start: int, stop: int) -> list[CommitRecord]:
        """The records of the commits ``start`` to ``stop``, each column read once."""
        a, b = self.bounds[start], self.bounds[stop]
        diffs = list(map(FileDiff, self.paths[a:b], self.headers[a:b], self.bodies[a:b]))
        cuts = (self.bounds[start : stop + 1] - a).tolist()
        ids, times = self._id_strings[start:stop], self.author_times[start:stop].tolist()
        rows = zip(ids, times, self.messages[start:stop], cuts, cuts[1:])
        return [CommitRecord(c, self.repo_id, t, m, tuple(diffs[i:j])) for c, t, m, i, j in rows]


def split_diff_by_file(diff_text: str) -> list[FileDiff]:
    """Split a raw unified diff into per-file sections.

    Anything before the first ``diff --git`` header is dropped.
    Concatenating ``header + body`` over the result reconstructs the
    input from the first header onward, except that binary-file sections
    keep an empty body: their paths still count for path features, but
    they contribute no text.
    """
    headers = list(_DIFF_HEADER_RE.finditer(diff_text))
    diffs: list[FileDiff] = []
    for i, m in enumerate(headers):
        end = headers[i + 1].start() if i + 1 < len(headers) else len(diff_text)
        header = m.group(0)
        body = diff_text[m.start() + len(header) : end]
        # The substring tests are a cheap precheck of the line-anchored regex.
        binary = "Binary files" in body or "GIT binary patch" in body
        if binary and _BINARY_SECTION_RE.search(body):
            body = ""
        diffs.append(FileDiff(_path_from_header(header), header, body))
    return diffs


def _path_from_header(header: str) -> str:
    rest = header[len("diff --git ") :].strip()
    if " b/" in rest:
        path = rest.rsplit(" b/", 1)[1]
    else:
        path = rest.split()[-1] if rest.split() else rest
        if path.startswith(("a/", "b/")):
            path = path[2:]
    return path.strip().strip('"')


@lru_cache(maxsize=65536)
def _split_run(run: str) -> tuple[str, ...]:
    compound = run.lower()
    subs = [m.group(0).lower() for part in run.split("_") for m in _SUBTOKEN_RE.finditer(part)]
    if subs == [compound]:
        return (compound,)
    return (compound, *subs)


def tokenize(text: str) -> list[str]:
    """Lowercase tokens split on non-alphanumerics.

    camelCase, snake_case and letter/digit compounds additionally yield
    their subtokens while the full compound token is retained, so
    ``OpenSSLEngine.java`` gives ``opensslengine, open, ssl, engine, java``.
    One regex scan finds the word runs, and each run's tokens come from the
    cached :func:`_split_run`; no Python loop runs per word.
    """
    return list(chain.from_iterable(map(_split_run, _WORD_RUN_RE.findall(text))))


def _token_cut(text: str, budget: int) -> tuple[int, int]:
    """The length of :func:`truncate_to_tokens`'s prefix, and its token count.

    Each word run yields at least one token, so the cut falls within the
    first ``budget + 1`` runs and the text is split no further. The split
    alternates separators and runs; the prefix is the parts before the first
    run whose tokens overrun the budget. If every run fits, the split reached
    the end of the text.
    """
    if budget < 1:
        raise ValueError(f"token budget must be >= 1, got {budget}")
    parts = _WORD_SPLIT_RE.split(text, maxsplit=budget + 1)
    counts = list(accumulate(map(len, map(_split_run, parts[1::2]))))
    fitting = bisect_right(counts, budget)
    kept = counts[fitting - 1] if fitting else 0
    if fitting == len(counts):
        return len(text), kept
    return sum(map(len, parts[: 2 * fitting])), kept


def truncate_to_tokens(text: str, budget: int) -> str:
    """Longest prefix of ``text`` holding at most ``budget`` tokens.

    Never cuts inside a token; under-budget text is returned unchanged.
    """
    return text[: _token_cut(text, budget)[0]]


def truncate_tokenized(text: str, tokens: list[str], budget: int) -> tuple[str, list[str]]:
    """``truncate_to_tokens(text, budget)`` and its tokens, given ``tokens ==
    tokenize(text)``. The cut ends a word run, so its tokens are a prefix of
    ``tokens``; text within the budget comes back as is, without a scan."""
    if budget >= 1 and len(tokens) <= budget:
        return text, tokens
    end, kept = _token_cut(text, budget)
    return text[:end], tokens[:kept]


_STR = expect(str)
_TIME = expect(int, nullable=True)
_PATCH_IDS = expect(list, item=_STR)

# The dumps' field tables. A commit's ``diff`` is stored split by file.
COMMIT_FIELDS = {
    "commit_id": _STR,
    "repo_id": _STR,
    "author_time": expect(int),
    "message": _STR,
    "diff": _STR,
}
CVE_FIELDS = {
    "cve_id": _STR,
    "description": _STR,
    "reserve_time": _TIME,
    "publish_time": _TIME,
    "repo_id": _STR,
    "known_patch_ids": lambda value: frozenset(_PATCH_IDS(value)),
}


def _read_commit_records(path: str | Path) -> list[CommitRecord]:
    seen: set[tuple[str, str]] = set()

    def build(diff: str, **fields) -> CommitRecord:
        record = CommitRecord(**fields, file_diffs=tuple(split_diff_by_file(diff)))
        key = (record.repo_id, record.commit_id)
        if key in seen:
            raise ValueError(f"duplicate commit_id {record.commit_id} in {record.repo_id}")
        seen.add(key)
        return record

    return list(read_jsonl(path, COMMIT_FIELDS, build))


def build_corpus(repo_id: str, records: list[CommitRecord]) -> Corpus:
    """The corpus of ``records``, which must be valid commits of distinct ids."""
    ordered = sorted(records, key=lambda c: (c.author_time, c.commit_id))
    ids, times = [c.commit_id.encode() for c in ordered], [c.author_time for c in ordered]
    ends = np.cumsum([len(c.file_diffs) for c in ordered], dtype=np.int64)
    diffs = [fd for commit in ordered for fd in commit.file_diffs]
    headers, bodies = [fd.header for fd in diffs], [fd.body for fd in diffs]
    corpus = Corpus(repo_id, ids, times, [c.message for c in ordered], ends, headers, bodies)
    corpus.paths = [fd.path for fd in diffs]
    return corpus


def ingest_commit_dump(path: str | Path) -> Corpus:
    """Load a single-repository commit dump (JSONL, one commit per line)."""
    records = _read_commit_records(path)
    repo_ids = sorted({r.repo_id for r in records})
    if len(repo_ids) > 1:
        raise DumpFormatError(f"{path}: dump mixes repositories {repo_ids}; expected exactly one")
    repo_id = repo_ids[0] if repo_ids else ""
    return build_corpus(repo_id, records)


def ingest_multi_repo_dump(path: str | Path) -> dict[str, Corpus]:
    """Load a commit dump holding one or more repositories, keyed by repo."""
    by_repo: dict[str, list[CommitRecord]] = {}
    for record in _read_commit_records(path):
        by_repo.setdefault(record.repo_id, []).append(record)
    return {repo: build_corpus(repo, records) for repo, records in sorted(by_repo.items())}


# corpus/<slug>.bin: the commits in corpus order, then their file sections in
# that order, commit i's ending at section_ends[i]. A path is its header's.
CORPUS_FORMAT = Format(
    "corpus",
    b"PRCM",
    1,
    dict(repo_id=Section(STR), commit_ids=Section(STR), author_times=Section("<i8"))
    | dict(messages=Section(STR), section_ends=Section("<i8"))
    | dict(headers=Section(STR), bodies=Section(STR)),
)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write ``corpus`` as CORPUS_FORMAT; :func:`load_corpus` gives it back equal."""
    CORPUS_FORMAT.save(
        path,
        repo_id=[corpus.repo_id],
        commit_ids=corpus.commit_ids,
        author_times=corpus.author_times,
        messages=corpus.messages,
        section_ends=corpus.bounds[1:],
        headers=corpus.headers,
        bodies=corpus.bodies,
    )


def load_corpus(path: str | Path | bytes, repo_id: str) -> Corpus:
    """Repository ``repo_id``'s corpus in a :func:`save_corpus` file, given its path or
    bytes, checked as a dump is, and that its section ends fit; a ValueError names ``path``."""
    return CORPUS_FORMAT.load(path, partial(_corpus, repo_id))


def _corpus(expected, repo_id, commit_ids, author_times, messages, section_ends, headers, bodies):
    if repo_id != [expected]:
        raise ValueError(f"it holds repository {', '.join(map(repr, repo_id))}, not {expected!r}")
    bounds = np.concatenate(([0], section_ends))
    if np.any(np.diff(bounds) < 0) or bounds[-1] != len(headers) or len(bodies) != len(headers):
        raise ValueError(f"section ends do not fit the {len(headers)} sections")
    if not len(commit_ids) == len(author_times) == len(messages) == len(section_ends):
        raise ValueError("the commit sections differ in length")
    ids = byte_array(commit_ids)
    if len(ids) and not (ids.dtype.itemsize == 40 and _HEX[ids.view("u1")].all()):
        for commit_id in commit_ids:
            CommitRecord(commit_id, expected, 0, "")  # raises for the first bad id
    if np.any(author_times < 0):
        raise ValueError(f"author_time must be >= 0, got {author_times[author_times < 0][0]}")
    corpus = Corpus(expected, ids, author_times, messages, section_ends, headers, bodies)
    if np.any(corpus.sorted_ids[1:] == corpus.sorted_ids[:-1]):
        raise ValueError("a commit id repeats")
    later = (np.diff(author_times) > 0) | (np.diff(author_times) == 0) & (ids[1:] > ids[:-1])
    if not later.all():
        raise ValueError("commits do not ascend by (author_time, commit_id)")
    return corpus


def load_cve_dump(path: str | Path) -> list[CveRecord]:
    """Load CVE records (JSONL); null timestamps are allowed."""
    return list(read_jsonl(path, CVE_FIELDS, CveRecord))


def serialize_cves(cves: list[CveRecord], path: str | Path) -> None:
    write_jsonl(path, ({**c._asdict(), "known_patch_ids": sorted(c.known_patch_ids)} for c in cves))
