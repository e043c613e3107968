"""Batch pipeline stages and their on-disk artifacts.

Every stage reads the previous stage's files and writes its own under the
configured output directory through one ``_Run``. Each write lands in a
temporary file that is then moved into place, and the stage's manifest
records its settings and the SHA-256 of every file it read and wrote. Every
read is checked against the manifests, back to the dumps, so no stage and
no ``trace`` uses an artifact that the current dumps and config do not give.

The per-CVE work is written once and shared by the stages and ``trace``:
``_embed`` builds a repository's vector store, ``_prerank`` fuses a CVE's
candidate list, and ``_featurize`` computes its feature rows and samples its
training group, by corpus position. The groups make one ``TrainingSet``,
which ``featurize`` writes as ``training.bin`` and ``trace`` trains on in
memory. The stages read their inputs from, and write their results to,
artifacts; ``run_trace`` runs the same functions for one CVE in memory.

Each function imports the layers it calls where it calls them, and the
config's defaults and checks come from ``settings``, so that a CLI child
loads, and compiles, only the modules of its own stage.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
from collections.abc import Callable, Container, Sequence
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import corpus as corpus_mod
from . import settings
from .container import STR, Format, Section
from .corpus import Corpus, CveRecord, InputError, expect, write_jsonl, write_ranked_jsonl

if TYPE_CHECKING:
    from .embedding import VectorStore
    from .hier_features import FeatureAssembler
    from .lexical import InvertedIndex
    from .prerank import FusionConfig
    from .ranker import RankerParams, TrainingSet

logger = logging.getLogger(__name__)

STAGES = ("ingest", "index", "embed", "prerank", "featurize", "train", "rank", "eval")
# The BM25 indexes that index writes; the diff index is summed from the file index.
STORED_KINDS = ("message", "file")

# Version 2: manifest keys are paths relative to output_dir, and a stage
# lists every file it read.
MANIFEST_VERSION = 2


class ConfigError(ValueError, InputError):
    """The pipeline configuration file is invalid."""


class StageInputError(RuntimeError):
    """A stage's upstream artifact is missing, malformed or stale."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage
        self.detail = message


@dataclass
class PipelineConfig:
    commit_dump: Path
    cve_dump: Path
    output_dir: Path
    seed: int = 0
    offline: bool = False
    provider_url: str | None = None
    provider_model: str = "default"
    provider_batch_size: int = settings.DEFAULT_BATCH_SIZE
    provider_max_retries: int = settings.DEFAULT_MAX_RETRIES
    offline_dimension: int = settings.DEFAULT_OFFLINE_DIMENSION
    fusion_weights: tuple[float, float, float, float] = settings.DEFAULT_WEIGHTS
    candidate_k: int = settings.DEFAULT_CANDIDATE_K
    commit_token_budget: int = settings.DEFAULT_COMMIT_TOKEN_BUDGET
    file_token_budget: int = settings.DEFAULT_FILE_TOKEN_BUDGET
    bm25_k1: float = settings.DEFAULT_K1
    bm25_b: float = settings.DEFAULT_B
    per_entity_cap: int = settings.DEFAULT_PER_ENTITY_CAP
    learning_rate: float = settings.DEFAULT_LEARNING_RATE
    num_leaves: int = settings.DEFAULT_NUM_LEAVES
    min_data_in_leaf: int = settings.DEFAULT_MIN_DATA_IN_LEAF
    num_trees: int = settings.DEFAULT_NUM_TREES
    hard_negatives: int = settings.DEFAULT_HARD_NEGATIVES
    random_negatives: int = settings.DEFAULT_RANDOM_NEGATIVES
    metric_ks: tuple[int, ...] = settings.DEFAULT_METRIC_KS
    # Set via the --repo flag, never from the config file.
    repo_filter: str | None = None

    def fusion_config(self) -> FusionConfig:
        from .prerank import FusionConfig

        return FusionConfig(weights=tuple(self.fusion_weights), candidate_k=self.candidate_k)

    def ranker_params(self) -> RankerParams:
        from .ranker import RankerParams

        return RankerParams(
            learning_rate=self.learning_rate,
            num_leaves=self.num_leaves,
            min_data_in_leaf=self.min_data_in_leaf,
            num_trees=self.num_trees,
            seed=self.seed,
        )

    def provider(self):
        from .embedding import HttpEmbedder, OfflineEmbedder

        if self.offline or not self.provider_url:
            return OfflineEmbedder(self.offline_dimension)
        return HttpEmbedder(
            self.provider_url,
            self.provider_model,
            batch_size=self.provider_batch_size,
            max_retries=self.provider_max_retries,
        )


@dataclass(frozen=True)
class ConfigKey:
    """How one optional config-file key is read."""

    field: str  # the PipelineConfig field it sets
    # The JSON value -> the field value; raises TypeError or ValueError.
    parse: Callable
    # The stages whose manifest ``config`` records the value.
    stages: tuple[str, ...] = ()
    # The settings check that bounds the value, called as ``check(key=value)``
    # at load time, so a bad value fails there rather than mid-stage.
    check: Callable | None = None


# Every optional key, as ``(section, key)``; section None is the top level.
CONFIG_KEYS: dict[tuple[str | None, str], ConfigKey] = {
    (None, "seed"): ConfigKey(
        "seed", expect(int), ("featurize", "train"), settings.check_ranker
    ),
    (None, "offline"): ConfigKey("offline", expect(bool)),
    ("provider", "url"): ConfigKey("provider_url", expect(str, nullable=True)),
    ("provider", "model"): ConfigKey("provider_model", expect(str), ("embed",)),
    ("provider", "batch_size"): ConfigKey("provider_batch_size", expect(int, 1)),
    ("provider", "max_retries"): ConfigKey("provider_max_retries", expect(int, 1)),
    ("provider", "offline_dimension"): ConfigKey(
        "offline_dimension", expect(int), check=settings.check_dimension
    ),
    ("fusion", "weights"): ConfigKey(
        "fusion_weights", expect(list, item=expect(float)), ("prerank",), settings.check_fusion
    ),
    ("fusion", "candidate_k"): ConfigKey(
        "candidate_k", expect(int), ("prerank",), settings.check_fusion
    ),
    ("budgets", "commit_tokens"): ConfigKey("commit_token_budget", expect(int, 1), ("embed",)),
    ("budgets", "file_tokens"): ConfigKey("file_token_budget", expect(int, 1), ("embed",)),
    ("bm25", "k1"): ConfigKey("bm25_k1", expect(float), ("index",), settings.check_bm25),
    ("bm25", "b"): ConfigKey("bm25_b", expect(float), ("index",), settings.check_bm25),
    ("paths", "per_entity_cap"): ConfigKey("per_entity_cap", expect(int, 1), ("featurize",)),
    ("ranker", "learning_rate"): ConfigKey(
        "learning_rate", expect(float), ("train",), settings.check_ranker
    ),
    ("ranker", "num_leaves"): ConfigKey(
        "num_leaves", expect(int), ("train",), settings.check_ranker
    ),
    ("ranker", "min_data_in_leaf"): ConfigKey(
        "min_data_in_leaf", expect(int), ("train",), settings.check_ranker
    ),
    ("ranker", "num_trees"): ConfigKey(
        "num_trees", expect(int), ("train",), settings.check_ranker
    ),
    ("ranker", "hard_negatives"): ConfigKey("hard_negatives", expect(int, 0), ("featurize",)),
    ("ranker", "random_negatives"): ConfigKey(
        "random_negatives", expect(int, 0), ("featurize",)
    ),
    ("eval", "metric_ks"): ConfigKey(
        "metric_ks", expect(list, item=expect(int, 1)), ("eval",)
    ),
}
_REQUIRED_KEYS = ("commit_dump", "cve_dump", "output_dir")


def _check_keys(obj: dict, allowed: set[str], context: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown {context} key(s): {', '.join(unknown)}")


def load_config(path: str | Path) -> PipelineConfig:
    """Parse and validate the pipeline config file; unknown keys, wrong-typed
    and out-of-range values are rejected with a ConfigError naming the key."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    allowed: dict[str | None, set[str]] = {None: set(_REQUIRED_KEYS)}
    for section, key in CONFIG_KEYS:
        allowed.setdefault(section, set()).add(key)
        allowed[None].add(key if section is None else section)
    _check_keys(obj, allowed.pop(None), "config")
    for section, keys in allowed.items():
        if section in obj:
            if not isinstance(obj[section], dict):
                raise ConfigError(f"config section {section!r} must be an object")
            _check_keys(obj[section], keys, f"config.{section}")
    for required in _REQUIRED_KEYS:
        if required not in obj:
            raise ConfigError(f"config is missing required key {required!r}")

    base = Path(path).resolve().parent
    values = {}
    for name in _REQUIRED_KEYS:
        value = Path(_parsed(name, obj[name], ConfigKey(name, expect(str))))
        values[name] = value if value.is_absolute() else base / value
    for (section, key), spec in CONFIG_KEYS.items():
        scope = obj if section is None else obj.get(section, {})
        if key in scope:
            name = key if section is None else f"{section}.{key}"
            values[spec.field] = _parsed(name, scope[key], spec)
    return PipelineConfig(**values)


def _parsed(name: str, raw, spec: ConfigKey):
    """``raw`` parsed and checked as the config key ``name``; a ConfigError names it."""
    try:
        value = spec.parse(raw)
        if spec.check is not None:
            spec.check(**{name.rpartition(".")[2]: value})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value {name}: {exc}") from exc
    return value


def apply_overrides(
    config: PipelineConfig,
    *,
    seed: int | None = None,
    offline: bool = False,
    provider_url: str | None = None,
    repo: str | None = None,
) -> PipelineConfig:
    updates = {}
    if seed is not None:
        updates["seed"] = _parsed("seed", seed, CONFIG_KEYS[None, "seed"])
    if offline:
        updates["offline"] = True
    if provider_url is not None:
        updates["provider_url"] = provider_url
    if repo is not None:
        updates["repo_filter"] = repo
    return replace(config, **updates) if updates else config


def repo_slug(repo_id: str) -> str:
    """Filesystem-safe, collision-resistant directory name for a repo id."""
    safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in repo_id) or "repo"
    digest = hashlib.blake2b(repo_id.encode("utf-8"), digest_size=4).hexdigest()
    return f"{safe}-{digest}"


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        # 64 KiB chunks: featurize hashes its index and vector inputs at its
        # peak memory, and larger chunks raise that peak.
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _json_bytes(obj) -> bytes:
    text = json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":")) + "\n"
    return text.encode("utf-8")


def _stage_config(config: PipelineConfig, stage: str) -> dict:
    """The settings ``stage``'s manifest records as ``config``: its CONFIG_KEYS
    values, and for embed whether the offline embedder ran, and its dimension."""
    values = {
        key: getattr(config, spec.field)
        for (_, key), spec in CONFIG_KEYS.items()
        if stage in spec.stages
    }
    if stage == "embed":
        offline = config.offline or not config.provider_url
        values.update(offline=offline, dimension=config.offline_dimension if offline else None)
    return values


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


@dataclass(frozen=True)
class CandidateLists:
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


def load_candidates(path: Path) -> CandidateLists:
    """The lists of a :func:`save_candidates` file, checked: the CVE and commit
    ids ascend, the offsets cover the rows, every commit index is in range, and
    no commit appears twice in one CVE's list."""
    return CANDIDATES_FORMAT.load(path, _candidate_lists)


def _candidate_lists(cve_ids, offsets, commit_ids, commits, components) -> CandidateLists:
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


def load_rankings(path: Path, candidates: CandidateLists) -> dict[str, np.ndarray]:
    """CVE id -> the ``candidates`` rows of its :func:`save_rankings` ranking,
    checked: the CVE ids ascend, the offsets cover the rows, and each CVE's
    rows are a permutation of its candidate rows."""
    return RANKING_FORMAT.load(path, functools.partial(_rankings, candidates))


def _rankings(candidates: CandidateLists, cve_ids, offsets, rows) -> dict[str, np.ndarray]:
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


# The stage that writes each top-level directory under output_dir.
_PRODUCERS = dict(
    zip(("corpus", "index", "vectors", "prerank", "features", "model", "rank", "eval"), STAGES)
)


@dataclass
class Artifacts:
    """Resolved artifact paths under one output directory."""

    root: Path

    def __post_init__(self) -> None:
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


class _Run(Artifacts):
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
        as a StageInputError that names it."""
        if not path.exists():
            raise StageInputError(self.stage, f"missing input artifact {path}")
        key, digest = self.key(path), _sha256(path)
        if stale := self._stale(key, digest):
            raise StageInputError(self.stage, f"stale artifact {path}: {stale}")
        try:
            value = loader(path, *args)
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
            new = json.loads(json.dumps(_stage_config(self.config, stage)))
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

    def finish(self) -> None:
        """Write the manifest: settings and the SHA-256 of every file read and written."""
        manifest = {
            "stage": self.stage,
            "version": MANIFEST_VERSION,
            "seed": self.config.seed,
            "config": _stage_config(self.config, self.stage),
            "inputs": self.inputs,
            "outputs": {key: _sha256(path) for key, path in self.outputs.items()},
        }
        path = self.manifest_file(self.stage)
        self.write(path, lambda tmp: tmp.write_bytes(_json_bytes(manifest)))

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


def stage_ingest(config: PipelineConfig) -> None:
    """Normalize the raw dumps into per-repo corpora plus the CVE file."""
    run = _Run(config, "ingest")
    corpora, cves = run.dumps()
    repo_entries = []
    for repo_id, corpus in sorted(corpora.items()):
        slug = repo_slug(repo_id)
        repo_entries.append({"repo_id": repo_id, "slug": slug, "commits": len(corpus)})
        run.write(run.corpus_file(slug), lambda tmp: corpus_mod.save_corpus(corpus, tmp))
    run.write(run.repos_file, lambda tmp: tmp.write_bytes(_json_bytes({"repos": repo_entries})))
    run.write(run.cves_file, lambda tmp: corpus_mod.serialize_cves(cves, tmp))
    run.finish()


def _embed(config: PipelineConfig, corpus: Corpus, cves: list[CveRecord], provider) -> VectorStore:
    """Embed one repo's commits, file diffs and the CVEs of ``cves`` in it."""
    from .embedding import build_vectors

    return build_vectors(
        corpus,
        [cve for cve in cves if cve.repo_id == corpus.repo_id],
        provider,
        commit_budget=config.commit_token_budget,
        file_budget=config.file_token_budget,
        batch_size=config.provider_batch_size,
    )


def stage_index(config: PipelineConfig) -> None:
    """Build message and per-file BM25 indexes for every repo; readers sum
    the diff index from the file index."""
    from .lexical import build_index, save_index

    run = _Run(config, "index")
    for repo_id, corpus in sorted(run.corpora().items()):
        for kind in STORED_KINDS:
            index = build_index(corpus, kind, k1=config.bm25_k1, b=config.bm25_b)
            path = run.index_file(repo_slug(repo_id), kind)
            run.write(path, lambda tmp: save_index(index, tmp))
    run.finish()


def stage_embed(config: PipelineConfig) -> None:
    """Embed commits, file diffs, and CVE descriptions into per-repo stores."""
    run = _Run(config, "embed")
    corpora = run.corpora()
    cves = run.cves()
    provider = config.provider()
    for repo_id, corpus in sorted(corpora.items()):
        run.write(run.vectors_file(repo_slug(repo_id)), _embed(config, corpus, cves, provider).save)
    run.finish()


def _repo_loader(
    run: _Run,
    corpora: dict[str, Corpus],
    kinds: tuple[str, ...],
    provider=None,
    cves: Sequence[CveRecord] = (),
    build: bool = False,
) -> Callable[[str], tuple[dict[str, InvertedIndex], FeatureAssembler | None]]:
    """A cached function from a repo id to that repo's BM25 indexes of the
    stored ``kinds``, with the diff index summed from a file index, and, given
    a ``provider``, a feature assembler over them and its vector
    store, each read once through ``run``. A store that lacks a vector of a
    commit, a file or one of the repo's ``cves`` is malformed. With ``build``,
    a repo whose artifacts are missing, malformed or stale is logged and built
    in memory, its store embedding ``cves``."""
    from .lexical import build_index

    config = run.config

    def assemble(corpus: Corpus, indexes, store: VectorStore) -> FeatureAssembler:
        from .hier_features import FeatureAssembler

        for cve in cves:
            if cve.repo_id == corpus.repo_id:
                store.cve_vector(cve.cve_id)
        cap = config.per_entity_cap
        return FeatureAssembler(
            corpus, store, indexes["diff"], indexes["file"], provider, per_entity_cap=cap
        )

    @functools.cache
    def load(repo_id: str):
        corpus, slug = corpora[repo_id], repo_slug(repo_id)
        try:
            indexes = {}
            for kind in kinds:
                indexes |= run.read(_load_index, run.index_file(slug, kind), corpus, kind)
            if provider is None:
                return indexes, None
            from .embedding import MissingVectorError, VectorStore

            path = run.vectors_file(slug)
            store = run.read(VectorStore.load, path)
            try:
                return indexes, assemble(corpus, indexes, store)
            except MissingVectorError as exc:
                detail = f"malformed artifact {path}: {exc.args[0]}"
                raise StageInputError(run.stage, detail) from exc
        except StageInputError as exc:
            if not build:
                raise
            logger.warning("trace: %s; building %s in memory", exc.detail, repo_id)
        indexes = {}
        for kind in kinds:
            index = build_index(corpus, kind, k1=config.bm25_k1, b=config.bm25_b)
            indexes |= _with_diff(index, corpus)
        return indexes, assemble(corpus, indexes, _embed(config, corpus, list(cves), provider))

    return load


def _load_index(path: Path, corpus: Corpus, kind: str) -> dict[str, InvertedIndex]:
    """The index of ``kind`` at ``path``, by :func:`_with_diff`. A message
    index must hold exactly the commits of ``corpus``, as pre-ranking reads
    it by :attr:`Corpus.id_order`; a file index, only commits of ``corpus``."""
    from .lexical import load_index

    index = load_index(path)
    if index.field_kind != kind:
        raise ValueError(f"it holds a {index.field_kind} index, not a {kind} index")
    if kind == "message" and index.docs != sorted(corpus.commit_ids):
        raise ValueError(f"its documents are not the commits of {corpus.repo_id}")
    return _with_diff(index, corpus)


def _with_diff(index: InvertedIndex, corpus: Corpus) -> dict[str, InvertedIndex]:
    """``index`` by its kind, and with a file index the diff index of
    ``corpus`` summed from it."""
    from .lexical import diff_index

    if index.field_kind != "file":
        return {index.field_kind: index}
    return {"file": index, "diff": diff_index(index, corpus.commit_ids)}


def _prerank(
    corpus: Corpus, cve: CveRecord, indexes: dict[str, InvertedIndex], fusion: FusionConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CVE's candidates, as corpus positions in fused order, their fused
    scores and their rows of the components they were fused from."""
    from .prerank import fuse_components, prerank_components

    components = prerank_components(corpus, cve, indexes["message"], indexes["diff"], fusion)
    positions, scores = fuse_components(corpus, components, fusion)
    return positions, scores, components[positions]


def _commit_ids(corpus: Corpus, positions: np.ndarray) -> list[str]:
    return [corpus.commits[p].commit_id for p in positions.tolist()]


def stage_prerank(config: PipelineConfig) -> None:
    """Fuse BM25 and time affinity into per-CVE candidate lists."""
    run = _Run(config, "prerank")
    corpora = run.corpora()
    cves = run.cves()
    fusion = config.fusion_config()
    repo = _repo_loader(run, corpora, STORED_KINDS)
    lists = {}
    component_rows = [np.empty((0, len(settings.COMPONENT_NAMES)))]

    def ranked():
        """Each CVE's list for candidates.jsonl, as it is fused; its commit
        ids and component rows are kept for candidates.bin."""
        for cve in sorted(cves, key=lambda c: c.cve_id):
            corpus = corpora.get(cve.repo_id)
            if corpus is None:
                logger.warning("skipping %s: repo %s not in corpus", cve.cve_id, cve.repo_id)
                continue
            positions, scores, rows = _prerank(corpus, cve, repo(cve.repo_id)[0], fusion)
            if not len(positions):  # as in candidates.jsonl, a CVE without lines has no list
                continue
            lists[cve.cve_id] = ids = _commit_ids(corpus, positions)
            component_rows.append(rows)
            yield cve.cve_id, ids, scores.tolist()

    run.write(run.candidates_file, lambda tmp: write_ranked_jsonl(tmp, "fused_score", ranked()))
    matrix = np.concatenate(component_rows)
    run.write(run.candidates_bin, lambda tmp: save_candidates(tmp, lists, matrix))
    run.finish()


def _featurize(
    config: PipelineConfig,
    assembler: FeatureAssembler,
    cve: CveRecord,
    preranked: np.ndarray,
    positions: np.ndarray,
) -> tuple[np.ndarray, tuple | None]:
    """The feature rows of the commits at corpus ``positions``, in that order,
    and the CVE's training group, sampled from its pre-ranked corpus positions
    ``preranked``, as :meth:`TrainingSet.of_groups` takes a group (None without
    a known patch). Every distinct commit's row is computed once, in one batch."""
    from .ranker import sample_training_group

    corpus = assembler.corpus
    sampled = sample_training_group(
        cve,
        preranked,
        corpus,
        config.seed,
        hard_negatives=config.hard_negatives,
        random_negatives=config.random_negatives,
    )
    grouped = np.empty(0, np.intp) if sampled is None else sampled[0]
    wanted, slot = np.unique(np.concatenate([positions, grouped]), return_inverse=True)
    if len(wanted):
        rows = assembler.matrix(cve, wanted)[slot]
    else:
        rows = np.empty((0, settings.NUM_FEATURES))
    listed, grouped_rows = rows[: len(positions)], rows[len(positions) :]
    if sampled is None:
        return listed, None
    return listed, (cve.cve_id, _commit_ids(corpus, grouped), sampled[1], grouped_rows)


def _corpus_positions(
    candidates: CandidateLists, cves: list[CveRecord], corpora: dict[str, Corpus]
) -> np.ndarray:
    """The position of each candidate row's commit in the corpus of its CVE,
    ``cves[i]`` for list i, each distinct commit of a repo looked up once. A
    KeyError names a candidate that is not a commit of its CVE's repo."""
    repos = sorted({cve.repo_id for cve in cves})
    owners = np.repeat([repos.index(cve.repo_id) for cve in cves], np.diff(candidates.offsets))
    positions = np.empty(len(candidates.commits), dtype=np.intp)
    for i, repo_id in enumerate(repos):
        rows = np.flatnonzero(owners == i)
        distinct, inverse = np.unique(candidates.commits[rows], return_inverse=True)
        found = [corpora[repo_id].position_of(c) for c in candidates.commit_ids[distinct]]
        positions[rows] = np.array(found, dtype=np.intp)[inverse]
    return positions


def stage_featurize(config: PipelineConfig) -> None:
    """Compute the nine features for every candidate and training row."""
    from .ranker import TrainingSet

    run = _Run(config, "featurize")
    candidates = run.candidates()
    corpora = run.corpora()
    cves = {cve.cve_id: cve for cve in run.cves()}
    listed = [cves.get(cve_id) for cve_id in candidates.cve_ids]
    for cve_id, cve in zip(candidates.cve_ids, listed):
        if cve is None or cve.repo_id not in corpora:  # features.bin has a row per candidate
            detail = f"{run.candidates_bin}: {cve_id} is not a CVE of the repositories read"
            raise StageInputError("featurize", f"{detail}; rerun prerank with the same --repo")
    try:
        positions = _corpus_positions(candidates, listed, corpora)
    except KeyError as exc:
        raise StageInputError("featurize", f"{run.candidates_bin}: {exc.args[0]}") from exc
    repo = _repo_loader(run, corpora, ("file",), config.provider(), list(cves.values()))
    features = np.empty((len(positions), settings.NUM_FEATURES))
    entity_records = []
    groups = []
    for cve, rows in zip(listed, candidates.slices().values()):
        assembler = repo(cve.repo_id)[1]
        preranked = positions[rows]
        features[rows], group = _featurize(config, assembler, cve, preranked, preranked)
        entity_records.append(
            {"cve_id": cve.cve_id, "entities": sorted(assembler.entities_for(cve))}
        )
        groups += [group] if group else []
    run.write(run.features_file, lambda tmp: FEATURES_FORMAT.save(tmp, features=features))
    run.write(run.entities_file, lambda tmp: write_jsonl(tmp, entity_records))
    training = TrainingSet.of_groups(groups)
    run.write(run.training_file, lambda tmp: TRAINING_FORMAT.save(tmp, **vars(training)))
    run.finish()


def _training_set(cve_ids, offsets, commit_ids, relevance, features) -> TrainingSet:
    """The TRAINING_FORMAT sections, checked: the CVE ids ascend, the offsets
    cover the rows, and each row has a relevance label >= 0 and a feature row."""
    from .ranker import TrainingSet

    n = len(commit_ids)
    _group_owners(cve_ids, offsets, n)
    if not len(relevance) == len(features) == n or np.any(relevance < 0):
        raise ValueError(f"need {n} relevance labels >= 0 and feature rows")
    return TrainingSet(cve_ids, offsets, commit_ids, relevance, features)


def stage_train(config: PipelineConfig) -> None:
    """Train the LambdaRank model from the sampled training rows."""
    from .ranker import train_lambdarank

    run = _Run(config, "train")
    training = run.read(TRAINING_FORMAT.load, run.training_file, _training_set)
    model = train_lambdarank(training, config.ranker_params())
    run.write(run.model_file, model.save)
    run.finish()


def stage_rank(config: PipelineConfig) -> None:
    """Re-rank the candidate lists with the trained model."""
    from .ranker import RankModel, rerank

    run = _Run(config, "rank")
    model = run.read(RankModel.load, run.model_file)
    candidates = run.candidates()
    features = run.aligned(FEATURES_FORMAT, run.features_file, candidates)
    cves = {c.cve_id for c in run.cves()}
    rankings = {}

    def ranked():
        """Each CVE's final order for ranking.jsonl, as it is re-ranked; its
        candidate rows are kept for ranking.bin. Under --repo, candidates of
        other repositories' CVEs are skipped."""
        for cve_id, rows in candidates.slices().items():
            if cve_id in cves:
                order, scores = rerank(model, features[rows])
                rankings[cve_id] = rows.start + order
                yield cve_id, candidates.ids(rankings[cve_id]), scores[order].tolist()

    run.write(run.ranking_file, lambda tmp: write_ranked_jsonl(tmp, "score", ranked()))
    run.write(run.ranking_bin, lambda tmp: save_rankings(tmp, rankings))
    run.finish()


def stage_eval(config: PipelineConfig) -> None:
    """Score the final rankings against the known patch commits."""
    from .evalkit import evaluate_rankings

    run = _Run(config, "eval")
    candidates = run.candidates()
    # eval reads only the order: ranking.bin holds no scores.
    rankings = {
        cve_id: [(commit_id, 0.0) for commit_id in candidates.ids(rows)]
        for cve_id, rows in run.read(load_rankings, run.ranking_bin, candidates).items()
    }
    cves = run.cves()
    relevant = {}
    for cve in cves:
        if cve.cve_id in rankings:
            if cve.known_patch_ids:
                relevant[cve.cve_id] = set(cve.known_patch_ids)
            else:
                logger.warning("skipping %s in eval: no known patches", cve.cve_id)
    rankings = {cve_id: entries for cve_id, entries in rankings.items() if cve_id in relevant}
    report = evaluate_rankings(rankings, relevant, config.metric_ks)
    run.write(run.report_json, lambda tmp: tmp.write_bytes(_json_bytes(report.to_json_obj())))
    table = report.to_table() + "\n"
    run.write(run.report_text, lambda tmp: tmp.write_text(table, encoding="utf-8"))
    run.finish()


STAGE_FUNCTIONS = {
    "ingest": stage_ingest,
    "index": stage_index,
    "embed": stage_embed,
    "prerank": stage_prerank,
    "featurize": stage_featurize,
    "train": stage_train,
    "rank": stage_rank,
    "eval": stage_eval,
}


@dataclass
class TraceResult:
    cve: CveRecord
    prerank_entries: list[tuple[str, float]]
    final_entries: list[tuple[str, float]]
    model_source: str


def run_trace(config: PipelineConfig, cve_id: str) -> TraceResult:
    """Run the whole pipeline for one CVE, writing nothing under ``output_dir``.

    The model, the CVE file and the corpora it needs (with a fresh model, the
    target's only), and each repo's indexes and vector store, are read through
    ``_Run.read``. Where one is missing or stale, one warning names it and the
    dumps are parsed, the repo built, or the model trained on every labeled
    CVE, in memory. Without any labels the pre-ranked order is returned
    unchanged. Under ``config.repo_filter`` only that repository is read.
    """
    from .ranker import RankModel, TrainingSet, rerank, train_lambdarank

    run = _Run(config, "trace")
    try:
        model, model_source = run.read(RankModel.load, run.model_file), str(run.model_file)
    except StageInputError as exc:
        logger.warning("trace: %s; training the model in memory", exc.detail)
        model = None
    try:
        cves = run.cves()
        target_repo = {c.repo_id for c in cves if c.cve_id == cve_id}
        corpora = run.corpora(None if model is None else target_repo)
    except StageInputError as exc:
        logger.warning("trace: %s; parsing the dumps", exc.detail)
        corpora, cves = run.dumps()
    target = next((c for c in cves if c.cve_id == cve_id), None)
    if target is None:
        raise ConfigError(f"CVE {cve_id!r} not found in {config.cve_dump}")
    if target.repo_id not in corpora:
        raise ConfigError(f"repo {target.repo_id!r} of CVE {cve_id} not found in commit dump")
    repo = _repo_loader(run, corpora, STORED_KINDS, config.provider(), cves, build=True)

    @functools.cache
    def preranked(cve: CveRecord) -> tuple[np.ndarray, np.ndarray]:
        indexes, assembler = repo(cve.repo_id)
        return _prerank(assembler.corpus, cve, indexes, config.fusion_config())[:2]

    if model is None:
        labeled = [c for c in cves if c.repo_id in corpora and c.known_patch_ids]
        groups = []
        for cve in labeled:
            assembler = repo(cve.repo_id)[1]
            group = _featurize(config, assembler, cve, preranked(cve)[0], np.empty(0, np.intp))[1]
            groups += [group] if group else []
        if groups:
            model = train_lambdarank(TrainingSet.of_groups(groups), config.ranker_params())
        model_source = "trained in memory" if groups else "none"

    assembler = repo(target.repo_id)[1]
    positions, scores = preranked(target)
    ids = _commit_ids(assembler.corpus, positions)
    prerank_entries = list(zip(ids, scores.tolist()))
    if model is None:
        logger.warning("no labeled CVEs available; returning pre-ranked order")
        return TraceResult(target, prerank_entries, list(prerank_entries), model_source)
    # As stage_rank re-ranks a candidate list.
    order, final = rerank(model, assembler.matrix(target, positions))
    final_entries = list(zip([ids[i] for i in order.tolist()], final[order].tolist()))
    return TraceResult(target, prerank_entries, final_entries, model_source)
