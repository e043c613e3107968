"""The pipeline's on-disk artifacts: their paths, formats and freshness rule.

Every stage reads the previous stage's files and writes its own under the
configured output directory through one ``Run``. Each write lands in a
temporary file that is then moved into place, and the stage's manifest
records its settings and the SHA-256 of every file it read and wrote. Every
read is checked against the manifests, back to the dumps, so no stage and
no ``trace`` uses an artifact that the current dumps and config do not give.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from collections.abc import Callable, Container, Iterable, Sequence
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import corpus as corpus_mod
from . import settings
from .config import PipelineConfig, stage_config
from .container import STR, Format, Section
from .corpus import JSONL_ENCODER, Corpus, CveRecord

if TYPE_CHECKING:
    from .training import TrainingSet

STAGES = ("ingest", "index", "embed", "prerank", "featurize", "train", "rank", "eval")

# Version 2: manifest keys are paths relative to output_dir, and a stage
# lists every file it read.
MANIFEST_VERSION = 2


class StageInputError(RuntimeError):
    """A stage's upstream artifact is missing, malformed or stale."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage
        self.detail = message


def repo_slug(repo_id: str) -> str:
    """Filesystem-safe, collision-resistant directory name for a repo id."""
    safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in repo_id) or "repo"
    digest = hashlib.blake2b(repo_id.encode("utf-8"), digest_size=4).hexdigest()
    return f"{safe}-{digest}"


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        # 64 KiB chunks, so that hashing a dump holds little of it at once; a
        # .bin artifact is hashed from the bytes its loader parses (Run.read).
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_json(path: Path) -> dict:
    obj = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: JSON root is not an object")
    return obj


def _read_repos(path: Path) -> dict[str, str]:
    """``repos.json`` as repo id -> slug."""
    repos = _read_json(path).get("repos")
    if not isinstance(repos, list):
        raise ValueError(f"{path}: no 'repos' list")
    return {entry["repo_id"]: entry["slug"] for entry in repos}


# The array artifacts. In each, CVE (or group) g holds rows offsets[g] to
# offsets[g + 1] of the row sections. A candidates.bin row is one pre-ranked
# candidate, in rank order: commit commit_ids[commits[r]] and its four
# reciprocal ranks, in COMPONENT_NAMES order. Row r of features.bin holds that
# candidate's features, in FEATURE_NAMES order, and a ranking.bin row names the
# candidates.bin row it places, in final order.
_GROUPS = dict(cve_ids=Section(STR), offsets=Section("<i8"))
_FEATURES = Section("<f8", settings.NUM_FEATURES, finite=True)
CANDIDATES_FORMAT = Format(
    "candidate lists",
    b"PRCA",
    1,
    _GROUPS
    | dict(commit_ids=Section(STR), commits=Section("<i4"))
    | dict(components=Section("<f8", len(settings.COMPONENT_NAMES), finite=True)),
)
RANKING_FORMAT = Format("rankings", b"PRRK", 1, _GROUPS | dict(rows=Section("<i4")))
FEATURES_FORMAT = Format("features", b"PRFT", 1, {"features": _FEATURES})
TRAINING_FORMAT = Format(
    "training rows",
    b"PRTR",
    1,
    _GROUPS | dict(commit_ids=Section(STR), relevance=Section("|i1"), features=_FEATURES),
)


def _ascending(names: list[str]) -> bool:
    return all(a < b for a, b in zip(names, names[1:]))


def _group_owners(cve_ids: list[str], offsets: np.ndarray, rows: int) -> np.ndarray:
    """The index of the CVE that holds each of ``rows`` rows, after checking
    that the CVE ids ascend and the offsets ascend from 0 to ``rows``."""
    bounds = offsets.tolist()
    if len(bounds) != len(cve_ids) + 1 or bounds[0] != 0 or bounds[-1] != rows:
        raise ValueError(f"group offsets do not fit the {rows} rows")
    if bounds != sorted(bounds) or not _ascending(cve_ids):
        raise ValueError("group offsets or CVE ids are not ascending")
    return np.repeat(np.arange(len(cve_ids)), np.diff(offsets))


def _check_indexes(name: str, index: np.ndarray, size: int) -> None:
    if len(index) and not 0 <= index.min() <= index.max() < size:
        raise ValueError(f"{name} index out of range [0, {size})")


class CandidateLists(NamedTuple):
    """The pre-ranked candidate lists of ``candidates.bin``, by its sections;
    ``commit_ids`` is an object array, so that a gather yields the ids."""

    cve_ids: list[str]
    offsets: np.ndarray
    commit_ids: np.ndarray
    commits: np.ndarray
    components: np.ndarray

    def slices(self) -> dict[str, slice]:
        """Each CVE's rows, in file order."""
        bounds = self.offsets.tolist()
        return {cve_id: slice(a, b) for cve_id, a, b in zip(self.cve_ids, bounds, bounds[1:])}

    def ids(self, rows) -> np.ndarray:
        """The commit ids of candidate rows ``rows`` (a slice or an index array)."""
        return self.commit_ids[self.commits[rows]]


def write_ranked_jsonl(
    path: str | Path, score_key: str, lists: Iterable[tuple[str, Iterable[str], Iterable[float]]]
) -> None:
    """What ``corpus.write_jsonl`` writes of the records ``{"cve_id",
    "commit_id", "rank", score_key}`` of each ranked list ``(cve_id,
    commit_ids, scores)`` in ``lists``, ranks from 1, each list written as it
    comes. A line is one format of fixed keys: each CVE id is encoded once per
    list, and each score, a finite float, is written by ``float.__repr__``, as
    ``json`` writes it."""
    encode = JSONL_ENCODER.encode
    fields = {"commit_id": "{0}", "cve_id": "{1}", "rank": "{2}", score_key: "{3!r}"}
    line = "{{" + ", ".join(f"{encode(k)}: {fields[k]}" for k in sorted(fields)) + "}}\n"
    with open(path, "w", encoding="utf-8") as fh:
        for cve_id, commit_ids, scores in lists:
            cve = encode(cve_id)
            ranked = enumerate(zip(commit_ids, scores), 1)
            fh.writelines([line.format(encode(c), cve, rank, score) for rank, (c, score) in ranked])


def save_candidates(path: Path, lists: dict[str, Sequence[str]], components) -> None:
    """Write the pre-ranked commit ids of each CVE of ``lists``, whose keys
    ascend, and ``components``, a row per candidate in that order, as
    CANDIDATES_FORMAT."""
    commit_ids = sorted({commit_id for ids in lists.values() for commit_id in ids})
    index = {commit_id: i for i, commit_id in enumerate(commit_ids)}
    CANDIDATES_FORMAT.save(
        path,
        cve_ids=list(lists),
        offsets=np.cumsum([0, *map(len, lists.values())]),
        commit_ids=commit_ids,
        commits=[index[commit_id] for ids in lists.values() for commit_id in ids],
        components=np.reshape(components, (-1, len(settings.COMPONENT_NAMES))),
    )


def load_candidates(path: Path | bytes) -> CandidateLists:
    """The lists of a :func:`save_candidates` file, checked: the CVE and commit
    ids ascend, the offsets cover the rows, every commit index is in range, and
    no commit appears twice in one CVE's list."""
    return CANDIDATES_FORMAT.load(path, _candidate_lists)


def _candidate_lists(cve_ids, offsets, commit_ids, commits, components) -> CandidateLists:
    cve_ids, commit_ids = cve_ids.tolist(), commit_ids.tolist()
    owners = _group_owners(cve_ids, offsets, len(commits))
    if not _ascending(commit_ids):
        raise ValueError("commit ids are not ascending")
    _check_indexes("commit", commits, len(commit_ids))
    if len(components) != len(commits):
        raise ValueError(f"{len(components)} component rows for {len(commits)} candidates")
    pairs = np.sort(owners * len(commit_ids) + commits)
    if len(twice := np.flatnonzero(pairs[1:] == pairs[:-1])):
        owner, commit = divmod(int(pairs[twice[0]]), len(commit_ids))
        raise ValueError(f"{commit_ids[commit]} appears twice in the list of {cve_ids[owner]}")
    ids = np.empty(len(commit_ids), dtype=object)
    ids[:] = commit_ids
    return CandidateLists(cve_ids, offsets, ids, commits, components)


def save_rankings(path: Path, rankings: dict[str, np.ndarray]) -> None:
    """Write each CVE's final order of ``rankings``, as the candidates.bin rows
    it places, its keys ascending, as RANKING_FORMAT."""
    RANKING_FORMAT.save(
        path,
        cve_ids=list(rankings),
        offsets=np.cumsum([0, *map(len, rankings.values())]),
        rows=np.concatenate([np.empty(0, np.int32), *rankings.values()]),
    )


def load_rankings(path: Path | bytes, candidates: CandidateLists) -> dict[str, np.ndarray]:
    """CVE id -> the ``candidates`` rows of its :func:`save_rankings` ranking,
    checked: the CVE ids ascend, the offsets cover the rows, and each CVE's
    rows are a permutation of its candidate rows."""
    return RANKING_FORMAT.load(path, functools.partial(_rankings, candidates))


def _rankings(candidates: CandidateLists, cve_ids, offsets, rows) -> dict[str, np.ndarray]:
    cve_ids = cve_ids.tolist()
    owners = _group_owners(cve_ids, offsets, len(rows))
    _check_indexes("candidate row", rows, len(candidates.commits))
    lists = {cve_id: i for i, cve_id in enumerate(candidates.cve_ids)}
    if unknown := [cve_id for cve_id in cve_ids if cve_id not in lists]:
        raise ValueError(f"{unknown[0]} is ranked but has no candidate list")
    ranked = np.array([lists[cve_id] for cve_id in cve_ids], dtype=np.intp)
    # A permutation: as many rows as candidates, each in its CVE's slice, none twice.
    sizes = np.diff(candidates.offsets)
    bad = sizes[ranked] != np.diff(offsets)
    bad[owners[np.repeat(np.arange(len(sizes)), sizes)[rows] != ranked[owners]]] = True
    order = np.argsort(rows, kind="stable")
    bad[owners[order[1:][rows[order][1:] == rows[order][:-1]]]] = True
    if bad.any():
        cve_id = cve_ids[int(np.argmax(bad))]
        raise ValueError(f"the ranking of {cve_id} is not a permutation of its candidates")
    bounds = offsets.tolist()
    return {cve_id: rows[a:b] for cve_id, a, b in zip(cve_ids, bounds, bounds[1:])}


def training_set(cve_ids, offsets, commit_ids, relevance, features) -> TrainingSet:
    """The TRAINING_FORMAT sections, checked: the CVE ids ascend, the offsets
    cover the rows, and each row has a relevance label >= 0 and a feature row."""
    from .training import TrainingSet

    cve_ids, commit_ids, n = cve_ids.tolist(), commit_ids.tolist(), len(commit_ids)
    _group_owners(cve_ids, offsets, n)
    if not len(relevance) == len(features) == n or np.any(relevance < 0):
        raise ValueError(f"need {n} relevance labels >= 0 and feature rows")
    return TrainingSet(cve_ids, offsets, commit_ids, relevance, features)


# The stage that writes each top-level directory under output_dir.
_PRODUCERS = dict(
    zip(("corpus", "index", "vectors", "prerank", "features", "model", "rank", "eval"), STAGES)
)


class Artifacts:
    """Resolved artifact paths under one output directory."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.repos_file = self.root / "corpus" / "repos.json"
        self.cves_file = self.root / "corpus" / "cves.jsonl"
        # The JSONL lists are readable exports; the stages read the .bin files.
        self.candidates_file = self.root / "prerank" / "candidates.jsonl"
        self.candidates_bin = self.root / "prerank" / "candidates.bin"
        self.features_file = self.root / "features" / "features.bin"
        self.entities_file = self.root / "features" / "entities.jsonl"
        self.training_file = self.root / "features" / "training.bin"
        self.model_file = self.root / "model" / "model.json"
        self.ranking_file = self.root / "rank" / "ranking.jsonl"
        self.ranking_bin = self.root / "rank" / "ranking.bin"
        self.report_json = self.root / "eval" / "report.json"
        self.report_text = self.root / "eval" / "report.txt"

    def key(self, path: Path) -> str:
        """The manifest key of an artifact: its POSIX path relative to the root."""
        return path.relative_to(self.root).as_posix()

    def corpus_file(self, slug: str) -> Path:
        return self.root / "corpus" / f"{slug}.bin"

    def index_file(self, slug: str, kind: str) -> Path:
        return self.root / "index" / f"{slug}.{kind}.bin"

    def vectors_file(self, slug: str) -> Path:
        return self.root / "vectors" / f"{slug}.bin"

    def manifest_file(self, stage: str) -> Path:
        return self.root / "manifests" / f"{stage}.manifest.json"


class Run(Artifacts):
    """One stage's artifact I/O. Every file it reads and writes goes through
    :meth:`read`, :meth:`dumps` or :meth:`write`, so the manifest :meth:`finish`
    writes lists exactly those files, by :meth:`Artifacts.key` (the two input
    dumps as ``commit_dump`` and ``cve_dump``)."""

    def __init__(self, config: PipelineConfig, stage: str):
        super().__init__(config.output_dir)
        self.config = config
        self.stage = stage
        self.dump_files = {"commit_dump": config.commit_dump, "cve_dump": config.cve_dump}
        self.dump_digests = {k: p.exists() and _sha256(p) for k, p in self.dump_files.items()}
        self.inputs: dict[str, str] = {}  # key -> SHA-256 of the file read
        self.outputs: dict[str, Path] = {}
        self._runs: dict[str, dict | str] = {}  # stage -> its manifest if fresh, else why not

    def read(self, loader, path: Path, *args):
        """``loader(path, *args)``, reporting a missing, stale or unreadable file
        as a StageInputError that names it. An array container (``.bin``) is
        read once: its bytes are hashed, and given to the loader for ``path``."""
        if not path.exists():
            raise StageInputError(self.stage, f"missing input artifact {path}")
        source = path.read_bytes() if path.suffix == ".bin" else path
        digest = hashlib.sha256(source).hexdigest() if source is not path else _sha256(path)
        key = self.key(path)
        if stale := self._stale(key, digest):
            raise StageInputError(self.stage, f"stale artifact {path}: {stale}")
        try:
            value = loader(source, *args)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            detail = str(exc)
            if str(path) not in detail:
                detail = f"{path}: {detail}"
            raise StageInputError(self.stage, f"malformed artifact {detail}") from exc
        self.inputs[key] = digest
        return value

    def _stale(self, key: str, digest: str, reader: str | None = None) -> str | None:
        """Why ``key`` with SHA-256 ``digest``, as read by stage ``reader``'s
        recorded run (this run when None), is not what the current dumps and
        config give, and the stage to rerun; None if it is: if its stage's
        version-2 manifest lists that digest and the current settings, and each
        of its inputs passes the same test, back to the current dump files."""
        if key in self.dump_files:
            if digest == self.dump_digests[key]:
                return None
            return f"{key} {self.dump_files[key]} changed since {reader} ran; rerun {reader}"
        stage = _PRODUCERS.get(key.partition("/")[0], reader)
        if stage not in self._runs:
            path = self.manifest_file(stage)
            # Until checked, the run is stale to its own inputs: a key no stage
            # writes resolves to its reader, and a cycle leads back to it.
            self._runs[stage] = f"{path} lists an input it cannot have; rerun {stage}"
            try:
                manifest = _read_json(path)
            except (OSError, ValueError):
                manifest = {}
            old, inputs, outputs = (manifest.get(p) for p in ("config", "inputs", "outputs"))
            # Settings compare as JSON values: the manifest stores tuples as lists.
            new = json.loads(json.dumps(stage_config(self.config, stage)))
            if manifest.get("version") != MANIFEST_VERSION or not all(
                isinstance(part, dict) for part in (old, inputs, outputs)
            ):
                verdict = f"{path} is missing, malformed or of another version; rerun {stage}"
            elif changed := sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k)):
                verdict = f"{stage} ran with other {', '.join(changed)}; rerun {stage}"
            else:
                upstream = (self._stale(k, d, stage) for k, d in sorted(inputs.items()))
                verdict = next(filter(None, upstream), None)
            self._runs[stage] = verdict or manifest
        run = self._runs[stage]
        if isinstance(run, str):
            return run
        if run["outputs"].get(key) != digest:
            # Read by this run, the file differs from what its stage wrote;
            # read by an upstream run, that run read an older file.
            return f"{key} differs from {self.manifest_file(stage)}; rerun {reader or stage}"
        return None

    def write(self, path: Path, save: Callable[[Path], None]) -> None:
        """``save(tmp)`` on a temporary file beside ``path``, then move it into place,
        so a failed or killed stage leaves no partial file under the final name."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.tmp")
        try:
            save(tmp)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self.outputs[self.key(path)] = path

    def write_json(self, path: Path, obj) -> None:
        """:meth:`write` ``obj`` as one line of compact JSON with sorted keys."""
        text = json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":")) + "\n"
        self.write(path, lambda tmp: tmp.write_bytes(text.encode("utf-8")))

    def finish(self) -> None:
        """Write the manifest: settings and the SHA-256 of every file read and written."""
        manifest = {
            "stage": self.stage,
            "version": MANIFEST_VERSION,
            "seed": self.config.seed,
            "config": stage_config(self.config, self.stage),
            "inputs": self.inputs,
            "outputs": {key: _sha256(path) for key, path in self.outputs.items()},
        }
        self.write_json(self.manifest_file(self.stage), manifest)

    def dumps(self) -> tuple[dict[str, Corpus], list[CveRecord]]:
        """The dumps' corpora and CVEs (sorted by id), only ``--repo``'s when set.
        A malformed dump raises DumpFormatError: it is input, not an artifact."""
        missing = [f"{key} ({path})" for key, path in self.dump_files.items() if not path.exists()]
        if missing:
            raise StageInputError(self.stage, "missing input artifact(s): " + ", ".join(missing))
        self.inputs.update(self.dump_digests)
        keep = self.config.repo_filter
        corpora = corpus_mod.ingest_multi_repo_dump(self.config.commit_dump)
        cves = sorted(corpus_mod.load_cve_dump(self.config.cve_dump), key=lambda c: c.cve_id)
        return (
            {repo_id: c for repo_id, c in corpora.items() if keep in (None, repo_id)},
            [c for c in cves if keep in (None, c.repo_id)],
        )

    def corpora(self, wanted: Container[str] | None = None) -> dict[str, Corpus]:
        """The corpora of ``repos.json``: ``--repo``'s if set, of ``wanted`` if given."""
        slugs = self.read(_read_repos, self.repos_file)
        return {
            repo_id: self.read(corpus_mod.load_corpus, self.corpus_file(slug), repo_id)
            for repo_id, slug in slugs.items()
            if self.config.repo_filter in (None, repo_id) and (wanted is None or repo_id in wanted)
        }

    def cves(self) -> list[CveRecord]:
        cves = self.read(corpus_mod.load_cve_dump, self.cves_file)
        return [c for c in cves if self.config.repo_filter in (None, c.repo_id)]

    def candidates(self) -> CandidateLists:
        return self.read(load_candidates, self.candidates_bin)

    def aligned(self, fmt: Format, path: Path, candidates: CandidateLists) -> np.ndarray:
        """``fmt``'s one array in ``path``: a row per row of ``candidates``."""
        (array,) = self.read(fmt.load, path).values()
        if len(array) != (rows := len(candidates.commits)):
            detail = f"{path}: {len(array)} rows for the {rows} rows of {self.candidates_bin}"
            raise StageInputError(self.stage, detail)
        return array
