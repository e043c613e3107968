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
training group. The stages read their inputs from, and write their results
to, artifacts; ``run_trace`` runs the same functions for one CVE in memory.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from itertools import accumulate
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import lexical, prerank
from .container import STR, Format, Section
from .corpus import Corpus, CveRecord, expect, read_jsonl, write_jsonl
from .embedding import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_COMMIT_TOKEN_BUDGET,
    DEFAULT_FILE_TOKEN_BUDGET,
    DEFAULT_MAX_RETRIES,
    DEFAULT_OFFLINE_DIMENSION,
    HttpEmbedder,
    MissingVectorError,
    OfflineEmbedder,
    VectorStore,
    build_vectors,
)
from .evalkit import DEFAULT_METRIC_KS, evaluate_rankings
from .path_features import DEFAULT_PER_ENTITY_CAP
from .prerank import DEFAULT_CANDIDATE_K, DEFAULT_WEIGHTS, FusionConfig
from .ranker import (
    DEFAULT_HARD_NEGATIVES,
    DEFAULT_RANDOM_NEGATIVES,
    NUM_FEATURES,
    FeatureAssembler,
    RankerParams,
    RankModel,
    TrainingGroup,
    TrainingRow,
    sample_training_group,
    score_and_rerank,
    train_lambdarank,
)

logger = logging.getLogger(__name__)

STAGES = ("ingest", "index", "embed", "prerank", "featurize", "train", "rank", "eval")

# Version 2: manifest keys are paths relative to output_dir, and a stage
# lists every file it read.
MANIFEST_VERSION = 2


class ConfigError(ValueError):
    """The pipeline configuration file is invalid."""


class StageInputError(RuntimeError):
    """A stage's upstream artifact is missing, malformed or stale."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage
        self.detail = message


_RANKER_DEFAULTS = RankerParams()


@dataclass
class PipelineConfig:
    commit_dump: Path
    cve_dump: Path
    output_dir: Path
    seed: int = 0
    offline: bool = False
    provider_url: str | None = None
    provider_model: str = "default"
    provider_batch_size: int = DEFAULT_BATCH_SIZE
    provider_max_retries: int = DEFAULT_MAX_RETRIES
    offline_dimension: int = DEFAULT_OFFLINE_DIMENSION
    fusion_weights: tuple[float, float, float, float] = DEFAULT_WEIGHTS
    candidate_k: int = DEFAULT_CANDIDATE_K
    commit_token_budget: int = DEFAULT_COMMIT_TOKEN_BUDGET
    file_token_budget: int = DEFAULT_FILE_TOKEN_BUDGET
    bm25_k1: float = lexical.DEFAULT_K1
    bm25_b: float = lexical.DEFAULT_B
    per_entity_cap: int = DEFAULT_PER_ENTITY_CAP
    learning_rate: float = _RANKER_DEFAULTS.learning_rate
    num_leaves: int = _RANKER_DEFAULTS.num_leaves
    min_data_in_leaf: int = _RANKER_DEFAULTS.min_data_in_leaf
    num_trees: int = _RANKER_DEFAULTS.num_trees
    hard_negatives: int = DEFAULT_HARD_NEGATIVES
    random_negatives: int = DEFAULT_RANDOM_NEGATIVES
    metric_ks: tuple[int, ...] = DEFAULT_METRIC_KS
    # Set via the --repo flag, never from the config file.
    repo_filter: str | None = None

    def fusion_config(self) -> FusionConfig:
        return FusionConfig(weights=tuple(self.fusion_weights), candidate_k=self.candidate_k)

    def ranker_params(self) -> RankerParams:
        return RankerParams(
            learning_rate=self.learning_rate,
            num_leaves=self.num_leaves,
            min_data_in_leaf=self.min_data_in_leaf,
            num_trees=self.num_trees,
            seed=self.seed,
        )

    def provider(self):
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
    # The component that bounds the value, called as ``check(key=value)`` at
    # load time, so a bad value fails there rather than mid-stage.
    check: Callable | None = None


# Every optional key, as ``(section, key)``; section None is the top level.
CONFIG_KEYS: dict[tuple[str | None, str], ConfigKey] = {
    (None, "seed"): ConfigKey("seed", expect(int), ("featurize", "train"), RankerParams),
    (None, "offline"): ConfigKey("offline", expect(bool)),
    ("provider", "url"): ConfigKey("provider_url", expect(str, nullable=True)),
    ("provider", "model"): ConfigKey("provider_model", expect(str), ("embed",)),
    ("provider", "batch_size"): ConfigKey("provider_batch_size", expect(int, 1)),
    ("provider", "max_retries"): ConfigKey("provider_max_retries", expect(int, 1)),
    ("provider", "offline_dimension"): ConfigKey(
        "offline_dimension",
        expect(int),
        check=lambda offline_dimension: OfflineEmbedder(offline_dimension),
    ),
    ("fusion", "weights"): ConfigKey(
        "fusion_weights", expect(list, item=expect(float)), ("prerank",), FusionConfig
    ),
    ("fusion", "candidate_k"): ConfigKey("candidate_k", expect(int), ("prerank",), FusionConfig),
    ("budgets", "commit_tokens"): ConfigKey("commit_token_budget", expect(int, 1), ("embed",)),
    ("budgets", "file_tokens"): ConfigKey("file_token_budget", expect(int, 1), ("embed",)),
    ("bm25", "k1"): ConfigKey("bm25_k1", expect(float), ("index",), lexical.check_params),
    ("bm25", "b"): ConfigKey("bm25_b", expect(float), ("index",), lexical.check_params),
    ("paths", "per_entity_cap"): ConfigKey("per_entity_cap", expect(int, 1), ("featurize",)),
    ("ranker", "learning_rate"): ConfigKey(
        "learning_rate", expect(float), ("train",), RankerParams
    ),
    ("ranker", "num_leaves"): ConfigKey("num_leaves", expect(int), ("train",), RankerParams),
    ("ranker", "min_data_in_leaf"): ConfigKey(
        "min_data_in_leaf", expect(int), ("train",), RankerParams
    ),
    ("ranker", "num_trees"): ConfigKey("num_trees", expect(int), ("train",), RankerParams),
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


_SCORE = expect(float)
_RANK = expect(int, 1)

# The field tables of the JSONL artifacts that stages read back.
_ROW = {"cve_id": expect(str), "commit_id": expect(str)}
CANDIDATE_FIELDS = _ROW | {"rank": _RANK, "fused_score": _SCORE}
RANKING_FIELDS = _ROW | {"rank": _RANK, "score": _SCORE}

# The array artifacts. Row i of components.bin and features.bin belongs to
# line i of candidates.jsonl: its four reciprocal ranks, in COMPONENT_NAMES
# order, and its features, in FEATURE_NAMES order. In training.bin, group g
# holds rows offsets[g] to offsets[g + 1] of the row sections.
_COMPONENTS = Section("<f8", len(prerank.COMPONENT_NAMES), finite=True)
COMPONENTS_FORMAT = Format("prerank components", b"PRCO", 1, {"components": _COMPONENTS})
_FEATURES = Section("<f8", NUM_FEATURES, finite=True)
FEATURES_FORMAT = Format("features", b"PRFT", 1, {"features": _FEATURES})
TRAINING_FORMAT = Format(
    "training rows",
    b"PRTR",
    1,
    dict(cve_ids=Section(STR), offsets=Section("<i8"), commit_ids=Section(STR))
    | dict(relevance=Section("|i1"), features=_FEATURES),
)

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
        self.candidates_file = self.root / "prerank" / "candidates.jsonl"
        self.components_file = self.root / "prerank" / "components.bin"
        self.features_file = self.root / "features" / "features.bin"
        self.entities_file = self.root / "features" / "entities.jsonl"
        self.training_file = self.root / "features" / "training.bin"
        self.model_file = self.root / "model" / "model.json"
        self.ranking_file = self.root / "rank" / "ranking.jsonl"
        self.report_json = self.root / "eval" / "report.json"
        self.report_text = self.root / "eval" / "report.txt"

    def key(self, path: Path) -> str:
        """The manifest key of an artifact: its POSIX path relative to the root."""
        return path.relative_to(self.root).as_posix()

    def corpus_file(self, slug: str) -> Path:
        return self.root / "corpus" / f"{slug}.jsonl"

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

    def corpora(self) -> dict[str, Corpus]:
        slugs = self.read(_read_repos, self.repos_file)
        return {
            repo_id: self.read(corpus_mod.ingest_commit_dump, self.corpus_file(slug))
            for repo_id, slug in slugs.items()
            if self.config.repo_filter in (None, repo_id)
        }

    def cves(self) -> list[CveRecord]:
        cves = self.read(corpus_mod.load_cve_dump, self.cves_file)
        return [c for c in cves if self.config.repo_filter in (None, c.repo_id)]

    def candidates(self) -> dict[str, list[tuple[str, float]]]:
        return self.read(_load_ranked, self.candidates_file, CANDIDATE_FIELDS, "fused_score")

    def aligned(self, fmt: Format, path: Path, rows: int) -> np.ndarray:
        """``fmt``'s one array in ``path``: a row per candidates.jsonl line, ``rows`` in all."""
        (array,) = self.read(fmt.load, path).values()
        if len(array) != rows:
            detail = f"{path}: {len(array)} rows for the {rows} lines of {self.candidates_file}"
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
        run.write(run.corpus_file(slug), lambda tmp: corpus_mod.serialize_corpus(corpus, tmp))
    run.write(run.repos_file, lambda tmp: tmp.write_bytes(_json_bytes({"repos": repo_entries})))
    run.write(run.cves_file, lambda tmp: corpus_mod.serialize_cves(cves, tmp))
    run.finish()


def _embed(config: PipelineConfig, corpus: Corpus, cves: list[CveRecord], provider) -> VectorStore:
    """Embed one repo's commits, file diffs and the CVEs of ``cves`` in it."""
    return build_vectors(
        corpus,
        [cve for cve in cves if cve.repo_id == corpus.repo_id],
        provider,
        commit_budget=config.commit_token_budget,
        file_budget=config.file_token_budget,
        batch_size=config.provider_batch_size,
    )


def stage_index(config: PipelineConfig) -> None:
    """Build message, diff, and per-file BM25 indexes for every repo."""
    run = _Run(config, "index")
    for repo_id, corpus in sorted(run.corpora().items()):
        for kind in lexical.FIELD_KINDS:
            index = lexical.build_index(corpus, kind, k1=config.bm25_k1, b=config.bm25_b)
            path = run.index_file(repo_slug(repo_id), kind)
            run.write(path, lambda tmp: lexical.save_index(index, tmp))
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
    run: _Run, corpora: dict[str, Corpus], kinds: tuple[str, ...], provider=None, cves=None
) -> Callable[[str], tuple[dict[str, lexical.InvertedIndex], FeatureAssembler | None]]:
    """A cached function from a repo id to that repo's BM25 indexes of ``kinds``
    and, given a ``provider``, a feature assembler over them and its vector
    store, each read once through ``run``. Given the dumps' ``cves``, a repo
    whose artifacts are missing or stale is logged and built in memory."""
    config = run.config

    @functools.cache
    def load(repo_id: str):
        corpus, slug = corpora[repo_id], repo_slug(repo_id)
        try:
            indexes = {
                kind: run.read(lexical.load_index, run.index_file(slug, kind)) for kind in kinds
            }
            if provider is None:
                return indexes, None
            store = run.read(VectorStore.load, run.vectors_file(slug))
        except StageInputError as exc:
            if cves is None:
                raise
            logger.warning("trace: %s; building %s in memory", exc.detail, repo_id)
            indexes = {
                kind: lexical.build_index(corpus, kind, k1=config.bm25_k1, b=config.bm25_b)
                for kind in kinds
            }
            store = _embed(config, corpus, cves, provider)
        cap = config.per_entity_cap
        return indexes, FeatureAssembler(
            corpus, store, indexes["diff"], indexes["file"], provider, per_entity_cap=cap
        )

    return load


def _prerank(
    corpus: Corpus, cve: CveRecord, indexes: dict[str, lexical.InvertedIndex], fusion: FusionConfig
) -> tuple[list[tuple[str, float]], dict[str, dict[str, float]]]:
    """The CVE's fused candidate list and the component maps it was fused from."""
    components = prerank.prerank_components(
        corpus, cve, indexes["message"], indexes["diff"], fusion
    )
    return prerank.fuse_components(corpus, components, fusion), components


def stage_prerank(config: PipelineConfig) -> None:
    """Fuse BM25 and time affinity into per-CVE candidate lists."""
    run = _Run(config, "prerank")
    corpora = run.corpora()
    cves = run.cves()
    fusion = config.fusion_config()
    repo = _repo_loader(run, corpora, ("message", "diff"))
    records = []
    component_rows = []
    for cve in sorted(cves, key=lambda c: c.cve_id):
        corpus = corpora.get(cve.repo_id)
        if corpus is None:
            logger.warning("skipping %s: repo %s not in corpus", cve.cve_id, cve.repo_id)
            continue
        ranked, components = _prerank(corpus, cve, repo(cve.repo_id)[0], fusion)
        records += (
            {"cve_id": cve.cve_id, "commit_id": commit_id, "rank": rank, "fused_score": score}
            for rank, (commit_id, score) in enumerate(ranked, start=1)
        )
        maps = [components[name] for name in prerank.COMPONENT_NAMES]
        component_rows += ([m.get(commit_id, 0.0) for m in maps] for commit_id, _ in ranked)
    matrix = np.array(component_rows, dtype=np.float64).reshape(-1, len(prerank.COMPONENT_NAMES))
    run.write(run.candidates_file, lambda tmp: write_jsonl(tmp, records))
    run.write(run.components_file, lambda tmp: COMPONENTS_FORMAT.save(tmp, components=matrix))
    run.finish()


def _load_ranked(path: Path, fields: dict, score_key: str) -> dict[str, list[tuple[str, float]]]:
    """Per-CVE ``(commit_id, score)`` lists of a candidates or ranking file, in
    file order. Each CVE's lines must be consecutive, so that its rows in an
    aligned array artifact are one slice."""
    by_cve: dict[str, list[tuple[str, float]]] = {}
    last = None
    for record in read_jsonl(path, fields):
        if record["cve_id"] in by_cve and record["cve_id"] != last:
            raise ValueError(f"{path}: the lines of {record['cve_id']} are not consecutive")
        last = record["cve_id"]
        by_cve.setdefault(last, []).append((record["commit_id"], record[score_key]))
    return by_cve


def _featurize(
    config: PipelineConfig,
    assembler: FeatureAssembler,
    cve: CveRecord,
    ranked: list[tuple[str, float]],
    commit_ids: Sequence[str],
) -> tuple[np.ndarray, TrainingGroup | None]:
    """The feature rows of ``commit_ids``, in that order, and the CVE's
    training group, sampled from its pre-ranked candidates ``ranked`` (None
    without a known patch), with its rows' features. Every row is computed
    in one batch."""
    group = sample_training_group(
        cve,
        ranked,
        assembler.corpus,
        config.seed,
        hard_negatives=config.hard_negatives,
        random_negatives=config.random_negatives,
    )
    group_rows = group.rows if group else []
    wanted = list(dict.fromkeys([*commit_ids, *(row.commit_id for row in group_rows)]))
    matrix = assembler.matrix(cve, wanted) if wanted else np.empty((0, NUM_FEATURES))
    slot = {commit_id: i for i, commit_id in enumerate(wanted)}
    for row in group_rows:
        row.features = matrix[slot[row.commit_id]]
    return matrix[[slot[commit_id] for commit_id in commit_ids]], group


def stage_featurize(config: PipelineConfig) -> None:
    """Compute the nine features for every candidate and training row."""
    run = _Run(config, "featurize")
    candidates = run.candidates()
    run.aligned(COMPONENTS_FORMAT, run.components_file, sum(map(len, candidates.values())))
    corpora = run.corpora()
    cves = {cve.cve_id: cve for cve in run.cves()}
    repo = _repo_loader(run, corpora, ("diff", "file"), config.provider())
    feature_rows = [np.empty((0, NUM_FEATURES))]
    entity_records = []
    groups = []
    for cve_id, ranked in candidates.items():
        cve = cves.get(cve_id)
        if cve is None or cve.repo_id not in corpora:  # features.bin has a row per candidate
            detail = f"{run.candidates_file}: {cve_id} is not a CVE of the repositories read"
            raise StageInputError("featurize", f"{detail}; rerun prerank with the same --repo")
        commit_ids = [commit_id for commit_id, _ in ranked]
        try:
            assembler = repo(cve.repo_id)[1]
            rows, group = _featurize(config, assembler, cve, ranked, commit_ids)
        except MissingVectorError as exc:
            path = run.vectors_file(repo_slug(cve.repo_id))
            raise StageInputError("featurize", f"{path}: {exc.args[0]}") from exc
        except KeyError as exc:
            # Corpus.position_of: a candidate that is not a commit of the repo.
            raise StageInputError("featurize", f"{run.candidates_file}: {exc.args[0]}") from exc
        entity_records.append({"cve_id": cve_id, "entities": sorted(assembler.entities_for(cve))})
        feature_rows.append(rows)
        groups += [group] if group else []
    features = np.concatenate(feature_rows)
    run.write(run.features_file, lambda tmp: FEATURES_FORMAT.save(tmp, features=features))
    run.write(run.entities_file, lambda tmp: write_jsonl(tmp, entity_records))
    run.write(run.training_file, lambda tmp: save_training_groups(groups, tmp))
    run.finish()


def save_training_groups(groups: list[TrainingGroup], path: Path) -> None:
    """Write ``groups`` in the TRAINING_FORMAT container, sorted by CVE id."""
    groups = sorted(groups, key=lambda g: g.cve_id)
    rows = [row for group in groups for row in group.rows]
    TRAINING_FORMAT.save(
        path,
        cve_ids=[group.cve_id for group in groups],
        offsets=np.cumsum([0, *(len(group.rows) for group in groups)]),
        commit_ids=[row.commit_id for row in rows],
        relevance=[row.relevance for row in rows],
        features=np.array([row.features for row in rows]).reshape(-1, NUM_FEATURES),
    )


def load_training_groups(path: Path) -> list[TrainingGroup]:
    """The groups of a :func:`save_training_groups` file."""
    return TRAINING_FORMAT.load(path, _training_groups)


def _training_groups(cve_ids, offsets, commit_ids, relevance, features) -> list[TrainingGroup]:
    n, bounds = len(commit_ids), offsets.tolist()
    if len(bounds) != len(cve_ids) + 1 or bounds[0] != 0 or bounds[-1] != n:
        raise ValueError(f"group offsets do not fit the {n} rows")
    if bounds != sorted(bounds) or cve_ids != sorted(set(cve_ids)):
        raise ValueError("group offsets or CVE ids are not ascending")
    if not len(relevance) == len(features) == n or np.any(relevance < 0):
        raise ValueError(f"need {n} relevance labels >= 0 and feature rows")
    rows = list(map(TrainingRow, commit_ids, relevance.tolist(), features))
    return [TrainingGroup(c, rows[a:b]) for c, a, b in zip(cve_ids, bounds, bounds[1:])]


def stage_train(config: PipelineConfig) -> None:
    """Train the LambdaRank model from the sampled training rows."""
    run = _Run(config, "train")
    groups = run.read(load_training_groups, run.training_file)
    model = train_lambdarank(groups, config.ranker_params())
    run.write(run.model_file, model.save)
    run.finish()


def stage_rank(config: PipelineConfig) -> None:
    """Re-rank the candidate lists with the trained model."""
    run = _Run(config, "rank")
    model = run.read(RankModel.load, run.model_file)
    candidates = run.candidates()
    counts = [len(ranked) for ranked in candidates.values()]
    features = run.aligned(FEATURES_FORMAT, run.features_file, sum(counts))
    starts = dict(zip(candidates, accumulate(counts, initial=0)))
    cves = {c.cve_id: c for c in run.cves()}
    records = []
    # Under --repo, candidates of other repositories' CVEs are skipped.
    for cve_id in sorted(c for c in candidates if c in cves):
        ranked = candidates[cve_id]
        rows = features[starts[cve_id] : starts[cve_id] + len(ranked)]
        reranked = score_and_rerank(
            model, cves[cve_id], ranked, dict(zip((c for c, _ in ranked), rows))
        )
        for rank, (commit_id, score) in enumerate(reranked, start=1):
            records.append(
                {"cve_id": cve_id, "commit_id": commit_id, "rank": rank, "score": score}
            )
    run.write(run.ranking_file, lambda tmp: write_jsonl(tmp, records))
    run.finish()


def stage_eval(config: PipelineConfig) -> None:
    """Score the final rankings against the known patch commits."""
    run = _Run(config, "eval")
    rankings = run.read(_load_ranked, run.ranking_file, RANKING_FIELDS, "score")
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

    Each repo's indexes and vector store, and the model, are read through
    ``_Run.read``. Where one is missing or stale, one warning names it and the
    repo is built, or the model trained on every labeled CVE in the dumps, in
    memory. Without any labels the pre-ranked order is returned unchanged.
    Under ``config.repo_filter`` only that repository is read.
    """
    run = _Run(config, "trace")
    corpora, cves = run.dumps()
    target = next((c for c in cves if c.cve_id == cve_id), None)
    if target is None:
        raise ConfigError(f"CVE {cve_id!r} not found in {config.cve_dump}")
    if target.repo_id not in corpora:
        raise ConfigError(f"repo {target.repo_id!r} of CVE {cve_id} not found in commit dump")
    repo = _repo_loader(run, corpora, lexical.FIELD_KINDS, config.provider(), cves)

    @functools.cache
    def preranked(cve: CveRecord) -> list[tuple[str, float]]:
        indexes, assembler = repo(cve.repo_id)
        return _prerank(assembler.corpus, cve, indexes, config.fusion_config())[0]

    try:
        model, model_source = run.read(RankModel.load, run.model_file), str(run.model_file)
    except StageInputError as exc:
        logger.warning("trace: %s; training the model in memory", exc.detail)
        labeled = [c for c in cves if c.repo_id in corpora and c.known_patch_ids]
        groups = [_featurize(config, repo(c.repo_id)[1], c, preranked(c), ())[1] for c in labeled]
        groups = [group for group in groups if group is not None]
        model = train_lambdarank(groups, config.ranker_params()) if groups else None
        model_source = "trained in memory" if groups else "none"

    prerank_entries = preranked(target)
    if model is None:
        logger.warning("no labeled CVEs available; returning pre-ranked order")
        return TraceResult(target, prerank_entries, list(prerank_entries), model_source)
    commit_ids = [commit_id for commit_id, _ in prerank_entries]
    features = dict(zip(commit_ids, repo(target.repo_id)[1].matrix(target, commit_ids)))
    final = score_and_rerank(model, target, prerank_entries, features)
    return TraceResult(target, prerank_entries, final, model_source)
