"""Batch pipeline stages and their on-disk artifacts.

Every stage reads the previous stage's files, writes its own under the
configured output directory, and records a manifest of input/output
digests so reruns can be checked for byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import lexical, prerank
from .corpus import Corpus, CveRecord
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
    FeatureAssembler,
    MissingFeatureError,
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


class ConfigError(ValueError):
    """The pipeline configuration file is invalid."""


class StageInputError(RuntimeError):
    """A stage's upstream artifact is missing or malformed."""

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
    parse: Callable
    # The stage whose manifest ``config`` records the value, if any.
    stage: str | None = None


def _int_tuple(values) -> tuple[int, ...]:
    return tuple(int(v) for v in values)


def _optional_str(value) -> str | None:
    return None if value is None else str(value)


# Every optional key, as ``(section, key)``; section None is the top level.
CONFIG_KEYS: dict[tuple[str | None, str], ConfigKey] = {
    (None, "seed"): ConfigKey("seed", int),
    (None, "offline"): ConfigKey("offline", bool),
    ("provider", "url"): ConfigKey("provider_url", _optional_str),
    ("provider", "model"): ConfigKey("provider_model", str, "embed"),
    ("provider", "batch_size"): ConfigKey("provider_batch_size", int),
    ("provider", "max_retries"): ConfigKey("provider_max_retries", int),
    ("provider", "offline_dimension"): ConfigKey("offline_dimension", int),
    ("fusion", "weights"): ConfigKey("fusion_weights", tuple, "prerank"),
    ("fusion", "candidate_k"): ConfigKey("candidate_k", int, "prerank"),
    ("budgets", "commit_tokens"): ConfigKey("commit_token_budget", int, "embed"),
    ("budgets", "file_tokens"): ConfigKey("file_token_budget", int, "embed"),
    ("bm25", "k1"): ConfigKey("bm25_k1", float, "index"),
    ("bm25", "b"): ConfigKey("bm25_b", float, "index"),
    ("paths", "per_entity_cap"): ConfigKey("per_entity_cap", int, "featurize"),
    ("ranker", "learning_rate"): ConfigKey("learning_rate", float, "train"),
    ("ranker", "num_leaves"): ConfigKey("num_leaves", int, "train"),
    ("ranker", "min_data_in_leaf"): ConfigKey("min_data_in_leaf", int, "train"),
    ("ranker", "num_trees"): ConfigKey("num_trees", int, "train"),
    ("ranker", "hard_negatives"): ConfigKey("hard_negatives", int, "featurize"),
    ("ranker", "random_negatives"): ConfigKey("random_negatives", int, "featurize"),
    ("eval", "metric_ks"): ConfigKey("metric_ks", _int_tuple, "eval"),
}
_REQUIRED_KEYS = ("commit_dump", "cve_dump", "output_dir")


def _check_keys(obj: dict, allowed: set[str], context: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown {context} key(s): {', '.join(unknown)}")


def load_config(path: str | Path) -> PipelineConfig:
    """Parse and validate the pipeline config file; unknown keys are rejected."""
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

    def resolve(p: str) -> Path:
        candidate = Path(p)
        return candidate if candidate.is_absolute() else base / candidate

    try:
        values = {name: resolve(obj[name]) for name in _REQUIRED_KEYS}
        for (section, key), spec in CONFIG_KEYS.items():
            scope = obj if section is None else obj.get(section, {})
            if key in scope:
                values[spec.field] = spec.parse(scope[key])
        config = PipelineConfig(**values)
        # Surface invalid values (weights, counts) now rather than mid-stage.
        config.fusion_config()
        config.ranker_params()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
    return config


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
        updates["seed"] = seed
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
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )


def _write_jsonl(path: Path, records) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n")


def _read_jsonl(path: Path):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


def _stage_config(config: PipelineConfig, stage: str) -> dict:
    """The CONFIG_KEYS values that ``stage``'s manifest records as ``config``."""
    return {
        key: getattr(config, spec.field)
        for (_, key), spec in CONFIG_KEYS.items()
        if spec.stage == stage
    }


def _write_manifest(
    config: PipelineConfig,
    stage: str,
    inputs: dict[str, Path],
    outputs: dict[str, Path],
    settings: dict | None = None,
) -> None:
    manifest = {
        "stage": stage,
        "version": 1,
        "seed": config.seed,
        "config": _stage_config(config, stage) if settings is None else settings,
        "inputs": {name: _sha256(p) for name, p in sorted(inputs.items())},
        "outputs": {name: _sha256(p) for name, p in sorted(outputs.items())},
    }
    _write_json(Artifacts(config.output_dir).manifest_file(stage), manifest)


def _require(stage: str, **paths: Path) -> None:
    missing = [f"{name} ({path})" for name, path in paths.items() if not path.exists()]
    if missing:
        raise StageInputError(stage, "missing input artifact(s): " + ", ".join(missing))


def _load_artifact(stage: str, loader, path: Path, *args):
    """``loader(path, *args)``, reporting a missing or unreadable file as a
    StageInputError that names it."""
    if not path.exists():
        raise StageInputError(stage, f"missing input artifact {path}")
    try:
        return loader(path, *args)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        detail = str(exc)
        if str(path) not in detail:
            detail = f"{path}: {detail}"
        raise StageInputError(stage, f"malformed artifact {detail}") from exc


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


@dataclass
class Artifacts:
    """Resolved artifact paths under one output directory."""

    root: Path

    @property
    def repos_file(self) -> Path:
        return self.root / "corpus" / "repos.json"

    @property
    def cves_file(self) -> Path:
        return self.root / "corpus" / "cves.jsonl"

    def corpus_file(self, slug: str) -> Path:
        return self.root / "corpus" / f"{slug}.jsonl"

    def index_file(self, slug: str, kind: str) -> Path:
        return self.root / "index" / f"{slug}.{kind}.json"

    def vectors_file(self, slug: str) -> Path:
        return self.root / "vectors" / f"{slug}.bin"

    def manifest_file(self, stage: str) -> Path:
        return self.root / "manifests" / f"{stage}.manifest.json"

    @property
    def candidates_file(self) -> Path:
        return self.root / "prerank" / "candidates.jsonl"

    @property
    def features_file(self) -> Path:
        return self.root / "features" / "features.jsonl"

    @property
    def entities_file(self) -> Path:
        return self.root / "features" / "entities.jsonl"

    @property
    def training_file(self) -> Path:
        return self.root / "features" / "training.jsonl"

    @property
    def model_file(self) -> Path:
        return self.root / "model" / "model.json"

    @property
    def ranking_file(self) -> Path:
        return self.root / "rank" / "ranking.jsonl"

    @property
    def report_json(self) -> Path:
        return self.root / "eval" / "report.json"

    @property
    def report_text(self) -> Path:
        return self.root / "eval" / "report.txt"


def _read_dumps(config: PipelineConfig, stage: str) -> tuple[dict[str, Corpus], list[CveRecord]]:
    """The input dumps' corpora and CVEs (sorted by id), only ``--repo``'s when set."""
    _require(stage, commit_dump=config.commit_dump, cve_dump=config.cve_dump)
    corpora = corpus_mod.ingest_multi_repo_dump(config.commit_dump)
    cves = sorted(corpus_mod.load_cve_dump(config.cve_dump), key=lambda c: c.cve_id)
    if config.repo_filter is not None:
        corpora = {r: c for r, c in corpora.items() if r == config.repo_filter}
        cves = [c for c in cves if c.repo_id == config.repo_filter]
    return corpora, cves


def _load_corpora(config: PipelineConfig, stage: str) -> dict[str, Corpus]:
    art = Artifacts(config.output_dir)
    slugs = _load_artifact(stage, _read_repos, art.repos_file)
    return {
        repo_id: _load_artifact(stage, corpus_mod.ingest_commit_dump, art.corpus_file(slug))
        for repo_id, slug in slugs.items()
        if config.repo_filter in (None, repo_id)
    }


def _load_cves(config: PipelineConfig, stage: str) -> list[CveRecord]:
    cves = _load_artifact(stage, corpus_mod.load_cve_dump, Artifacts(config.output_dir).cves_file)
    if config.repo_filter is not None:
        cves = [c for c in cves if c.repo_id == config.repo_filter]
    return cves


def stage_ingest(config: PipelineConfig) -> None:
    """Normalize the raw dumps into per-repo corpora plus the CVE file."""
    art = Artifacts(config.output_dir)
    corpora, cves = _read_dumps(config, "ingest")
    outputs: dict[str, Path] = {}
    repo_entries = []
    for repo_id, corpus in sorted(corpora.items()):
        slug = repo_slug(repo_id)
        repo_entries.append({"repo_id": repo_id, "slug": slug, "commits": len(corpus)})
        corpus_path = art.corpus_file(slug)
        corpus_path.parent.mkdir(parents=True, exist_ok=True)
        corpus_mod.serialize_corpus(corpus, corpus_path)
        outputs[f"corpus/{slug}"] = corpus_path
    _write_json(art.repos_file, {"repos": repo_entries})
    outputs["repos"] = art.repos_file
    art.cves_file.parent.mkdir(parents=True, exist_ok=True)
    corpus_mod.serialize_cves(cves, art.cves_file)
    outputs["cves"] = art.cves_file
    _write_manifest(
        config,
        "ingest",
        {"commit_dump": config.commit_dump, "cve_dump": config.cve_dump},
        outputs,
    )


def _embed_settings(config: PipelineConfig, provider) -> dict:
    """The embed manifest's ``config``: what the vector stores depend on."""
    return {
        **_stage_config(config, "embed"),
        "offline": config.offline or not config.provider_url,
        "dimension": getattr(provider, "dimension", None),
    }


def _build_indexes(config: PipelineConfig, corpus: Corpus):
    """Yield ``(kind, index)`` for each of the repo's BM25 indexes, built in turn."""
    for kind in lexical.FIELD_KINDS:
        yield kind, lexical.build_index(corpus, kind, k1=config.bm25_k1, b=config.bm25_b)


def _build_store(
    config: PipelineConfig, corpus: Corpus, cves: list[CveRecord], provider
) -> VectorStore:
    """Embed one repo's commits, file diffs and CVEs."""
    return build_vectors(
        corpus,
        cves,
        provider,
        commit_budget=config.commit_token_budget,
        file_budget=config.file_token_budget,
        batch_size=config.provider_batch_size,
    )


def stage_index(config: PipelineConfig) -> None:
    """Build message, diff, and per-file BM25 indexes for every repo."""
    art = Artifacts(config.output_dir)
    corpora = _load_corpora(config, "index")
    inputs = {f"corpus/{repo_slug(r)}": art.corpus_file(repo_slug(r)) for r in corpora}
    outputs: dict[str, Path] = {}
    for repo_id, corpus in sorted(corpora.items()):
        slug = repo_slug(repo_id)
        for kind, index in _build_indexes(config, corpus):
            path = art.index_file(slug, kind)
            path.parent.mkdir(parents=True, exist_ok=True)
            lexical.save_index(index, path)
            outputs[f"index/{slug}.{kind}"] = path
    _write_manifest(config, "index", inputs, outputs)


def stage_embed(config: PipelineConfig) -> None:
    """Embed commits, file diffs, and CVE descriptions into per-repo stores."""
    art = Artifacts(config.output_dir)
    corpora = _load_corpora(config, "embed")
    cves = _load_cves(config, "embed")
    provider = config.provider()
    inputs = {f"corpus/{repo_slug(r)}": art.corpus_file(repo_slug(r)) for r in corpora}
    inputs["cves"] = art.cves_file
    outputs: dict[str, Path] = {}
    for repo_id, corpus in sorted(corpora.items()):
        slug = repo_slug(repo_id)
        store = _build_store(config, corpus, [c for c in cves if c.repo_id == repo_id], provider)
        path = art.vectors_file(slug)
        path.parent.mkdir(parents=True, exist_ok=True)
        store.save(path)
        outputs[f"vectors/{slug}"] = path
    _write_manifest(config, "embed", inputs, outputs, _embed_settings(config, provider))


def _indexes_for(
    config: PipelineConfig, stage: str, slug: str, kinds: tuple[str, ...]
) -> dict[str, lexical.InvertedIndex]:
    art = Artifacts(config.output_dir)
    return {
        kind: _load_artifact(stage, lexical.load_index, art.index_file(slug, kind))
        for kind in kinds
    }


def _load_repo(
    config: PipelineConfig, stage: str, slug: str, kinds: tuple[str, ...]
) -> tuple[dict[str, lexical.InvertedIndex], VectorStore]:
    """One repo's BM25 indexes of ``kinds`` and its vector store, from ``output_dir``."""
    indexes = _indexes_for(config, stage, slug, kinds)
    vectors_file = Artifacts(config.output_dir).vectors_file(slug)
    return indexes, _load_artifact(stage, VectorStore.load, vectors_file)


def stage_prerank(config: PipelineConfig) -> None:
    """Fuse BM25 and time affinity into per-CVE candidate lists."""
    art = Artifacts(config.output_dir)
    corpora = _load_corpora(config, "prerank")
    cves = _load_cves(config, "prerank")
    fusion = config.fusion_config()
    records = []
    inputs = {"cves": art.cves_file}
    index_cache: dict[str, dict[str, lexical.InvertedIndex]] = {}
    for cve in sorted(cves, key=lambda c: c.cve_id):
        corpus = corpora.get(cve.repo_id)
        if corpus is None:
            logger.warning("skipping %s: repo %s not in corpus", cve.cve_id, cve.repo_id)
            continue
        slug = repo_slug(cve.repo_id)
        if slug not in index_cache:
            index_cache[slug] = _indexes_for(config, "prerank", slug, ("message", "diff"))
            inputs[f"index/{slug}.message"] = art.index_file(slug, "message")
            inputs[f"index/{slug}.diff"] = art.index_file(slug, "diff")
        indexes = index_cache[slug]
        components = prerank.prerank_components(
            corpus, cve, indexes["message"], indexes["diff"], fusion
        )
        ranked = prerank.fuse_components(corpus, components, fusion)
        for rank, (commit_id, score) in enumerate(ranked, start=1):
            records.append(
                {
                    "cve_id": cve.cve_id,
                    "commit_id": commit_id,
                    "rank": rank,
                    "fused_score": score,
                    "components": {
                        name: components[name].get(commit_id, 0.0)
                        for name in prerank.COMPONENT_NAMES
                    },
                }
            )
    _write_jsonl(art.candidates_file, records)
    _write_manifest(config, "prerank", inputs, {"candidates": art.candidates_file})


def _load_ranked(path: Path, score_key: str) -> dict[str, list[tuple[str, float]]]:
    """Per-CVE ``(commit_id, score)`` lists of a candidates or ranking file."""
    by_cve: dict[str, list[tuple[str, float]]] = {}
    for record in _read_jsonl(path):
        by_cve.setdefault(record["cve_id"], []).append((record["commit_id"], record[score_key]))
    return by_cve


def _assembler(
    config: PipelineConfig, corpus: Corpus, indexes: dict, store: VectorStore, provider
) -> FeatureAssembler:
    return FeatureAssembler(
        corpus,
        store,
        indexes["diff"],
        indexes["file"],
        provider,
        per_entity_cap=config.per_entity_cap,
    )


def _training_group(
    config: PipelineConfig,
    assembler: FeatureAssembler,
    cve: CveRecord,
    ranked: list[tuple[str, float]],
    computed: dict[str, np.ndarray],
) -> TrainingGroup | None:
    """The CVE's sampled training group with every row's features filled in.

    Rows found in ``computed`` reuse those features; the rest are computed
    in one batch and added to it.
    """
    group = sample_training_group(
        cve,
        ranked,
        assembler.corpus,
        config.seed,
        hard_negatives=config.hard_negatives,
        random_negatives=config.random_negatives,
    )
    if group is None:
        return None
    missing = [row.commit_id for row in group.rows if row.commit_id not in computed]
    if missing:
        computed.update(zip(missing, assembler.matrix(cve, missing)))
    for row in group.rows:
        row.features = computed[row.commit_id]
    return group


def stage_featurize(config: PipelineConfig) -> None:
    """Compute the nine features for every candidate and training row."""
    art = Artifacts(config.output_dir)
    candidates = _load_artifact("featurize", _load_ranked, art.candidates_file, "fused_score")
    corpora = _load_corpora(config, "featurize")
    cves = _load_cves(config, "featurize")
    provider = config.provider()

    feature_records = []
    entity_records = []
    training_records = []
    assemblers: dict[str, FeatureAssembler] = {}
    for cve in sorted(cves, key=lambda c: c.cve_id):
        ranked = candidates.get(cve.cve_id)
        corpus = corpora.get(cve.repo_id)
        if ranked is None or corpus is None:
            continue
        slug = repo_slug(cve.repo_id)
        if cve.repo_id not in assemblers:
            indexes, store = _load_repo(config, "featurize", slug, ("diff", "file"))
            assemblers[cve.repo_id] = _assembler(config, corpus, indexes, store, provider)
        assembler = assemblers[cve.repo_id]
        entity_records.append(
            {"cve_id": cve.cve_id, "entities": sorted(assembler.entities_for(cve))}
        )
        commit_ids = [commit_id for commit_id, _ in ranked]
        try:
            computed = dict(zip(commit_ids, assembler.matrix(cve, commit_ids)))
            group = _training_group(config, assembler, cve, ranked, computed)
        except MissingVectorError as exc:
            raise StageInputError("featurize", f"{art.vectors_file(slug)}: {exc.args[0]}") from exc
        for commit_id in commit_ids:
            feature_records.append(_feature_record(cve.cve_id, commit_id, computed[commit_id]))
        if group is None:
            continue
        for row in group.rows:
            training_records.append(
                {
                    "cve_id": cve.cve_id,
                    "commit_id": row.commit_id,
                    "relevance": row.relevance,
                    "features": [float(x) for x in row.features],
                }
            )
    _write_jsonl(art.features_file, feature_records)
    _write_jsonl(art.entities_file, entity_records)
    _write_jsonl(art.training_file, training_records)
    _write_manifest(
        config,
        "featurize",
        {"candidates": art.candidates_file, "cves": art.cves_file},
        {
            "features": art.features_file,
            "entities": art.entities_file,
            "training": art.training_file,
        },
    )


def _feature_record(cve_id: str, commit_id: str, vector: np.ndarray) -> dict:
    record = {"cve_id": cve_id, "commit_id": commit_id}
    for i, value in enumerate(vector, start=1):
        record[f"f{i}"] = float(value)
    return record


def load_training_groups(path: Path) -> list[TrainingGroup]:
    groups: dict[str, TrainingGroup] = {}
    for record in _read_jsonl(path):
        group = groups.setdefault(record["cve_id"], TrainingGroup(cve_id=record["cve_id"]))
        group.rows.append(
            TrainingRow(
                commit_id=record["commit_id"],
                relevance=int(record["relevance"]),
                features=np.asarray(record["features"], dtype=np.float64),
            )
        )
    return [groups[cve_id] for cve_id in sorted(groups)]


def stage_train(config: PipelineConfig) -> None:
    """Train the LambdaRank model from the sampled training rows."""
    art = Artifacts(config.output_dir)
    groups = _load_artifact("train", load_training_groups, art.training_file)
    model = train_lambdarank(groups, config.ranker_params())
    art.model_file.parent.mkdir(parents=True, exist_ok=True)
    model.save(art.model_file)
    _write_manifest(config, "train", {"training": art.training_file}, {"model": art.model_file})


def _load_feature_rows(path: Path) -> dict[str, dict[str, np.ndarray]]:
    by_cve: dict[str, dict[str, np.ndarray]] = {}
    for record in _read_jsonl(path):
        vector = np.array([record[f"f{i}"] for i in range(1, 10)], dtype=np.float64)
        by_cve.setdefault(record["cve_id"], {})[record["commit_id"]] = vector
    return by_cve


def stage_rank(config: PipelineConfig) -> None:
    """Re-rank the candidate lists with the trained model."""
    art = Artifacts(config.output_dir)
    model = _load_artifact("rank", RankModel.load, art.model_file)
    candidates = _load_artifact("rank", _load_ranked, art.candidates_file, "fused_score")
    features = _load_artifact("rank", _load_feature_rows, art.features_file)
    cves = {c.cve_id: c for c in _load_cves(config, "rank")}
    records = []
    # Under --repo, candidates of other repositories' CVEs are skipped, as
    # in featurize.
    for cve_id in sorted(c for c in candidates if c in cves):
        try:
            reranked = score_and_rerank(
                model, cves[cve_id], candidates[cve_id], features.get(cve_id, {})
            )
        except MissingFeatureError as exc:
            raise StageInputError("rank", f"{art.features_file}: {exc.args[0]}") from exc
        for rank, (commit_id, score) in enumerate(reranked, start=1):
            records.append(
                {"cve_id": cve_id, "commit_id": commit_id, "rank": rank, "score": score}
            )
    _write_jsonl(art.ranking_file, records)
    _write_manifest(
        config,
        "rank",
        {
            "model": art.model_file,
            "candidates": art.candidates_file,
            "features": art.features_file,
        },
        {"ranking": art.ranking_file},
    )


def stage_eval(config: PipelineConfig) -> None:
    """Score the final rankings against the known patch commits."""
    art = Artifacts(config.output_dir)
    rankings = _load_artifact("eval", _load_ranked, art.ranking_file, "score")
    cves = _load_cves(config, "eval")
    relevant = {}
    for cve in cves:
        if cve.cve_id in rankings:
            if cve.known_patch_ids:
                relevant[cve.cve_id] = set(cve.known_patch_ids)
            else:
                logger.warning("skipping %s in eval: no known patches", cve.cve_id)
    rankings = {cve_id: entries for cve_id, entries in rankings.items() if cve_id in relevant}
    report = evaluate_rankings(rankings, relevant, config.metric_ks)
    art.report_json.parent.mkdir(parents=True, exist_ok=True)
    _write_json(art.report_json, report.to_json_obj())
    art.report_text.write_text(report.to_table() + "\n", encoding="utf-8")
    _write_manifest(
        config,
        "eval",
        {"ranking": art.ranking_file, "cves": art.cves_file},
        {"report_json": art.report_json, "report_text": art.report_text},
    )


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


def _stale(reason: str, scope: str) -> None:
    logger.warning("trace: %s; building %s in memory", reason, scope)
    return None


def _stage_manifests(config: PipelineConfig) -> dict[str, dict] | None:
    """The ingest, index and embed manifests, when ingest read the current dumps.

    Otherwise one warning names the mismatch and the result is None.
    """
    manifests = {}
    scope = "every repository"
    for stage in ("ingest", "index", "embed"):
        path = Artifacts(config.output_dir).manifest_file(stage)
        try:
            manifest = _load_artifact("trace", _read_json, path)
        except StageInputError as exc:
            return _stale(exc.detail, scope)
        if not all(isinstance(manifest.get(key), dict) for key in ("config", "inputs", "outputs")):
            return _stale(f"{path} is malformed", scope)
        manifests[stage] = manifest
    dumps = {"commit_dump": _sha256(config.commit_dump), "cve_dump": _sha256(config.cve_dump)}
    if manifests["ingest"]["inputs"] != dumps:
        return _stale("the dumps changed since the ingest stage", scope)
    return manifests


def _load_fresh(
    config: PipelineConfig, repo_id: str, provider, manifests: dict[str, dict]
) -> tuple[dict[str, lexical.InvertedIndex], VectorStore] | None:
    """One repo's indexes and vector store from ``output_dir``, if still fresh.

    Fresh means index and embed read the corpus (and CVE file) that ingest
    wrote, with this config's settings, and every file still hashes to its
    manifest digest. Otherwise one warning names the stale artifact and the
    result is None.
    """
    ingest, index, embed = manifests["ingest"], manifests["index"], manifests["embed"]
    art = Artifacts(config.output_dir)
    slug = repo_slug(repo_id)
    corpus_key = f"corpus/{slug}"
    corpus_digest = ingest["outputs"].get(corpus_key)
    if corpus_digest is None:
        return _stale(f"{art.corpus_file(slug)} is not in the ingest manifest", repo_id)
    if index["inputs"].get(corpus_key) != corpus_digest:
        return _stale(f"index/{slug} was not built from the ingested corpus", repo_id)
    if index["config"] != _stage_config(config, "index"):
        return _stale(f"index/{slug} was built with other bm25 settings", repo_id)
    if (embed["inputs"].get(corpus_key), embed["inputs"].get("cves")) != (
        corpus_digest,
        ingest["outputs"].get("cves"),
    ):
        return _stale(f"{art.vectors_file(slug)} was not built from the ingested corpus", repo_id)
    if embed["config"] != _embed_settings(config, provider):
        return _stale(f"{art.vectors_file(slug)} was built with other embedding settings", repo_id)
    files = [
        (index, f"index/{slug}.{kind}", art.index_file(slug, kind)) for kind in lexical.FIELD_KINDS
    ]
    files.append((embed, f"vectors/{slug}", art.vectors_file(slug)))
    for manifest, key, path in files:
        if not path.exists() or _sha256(path) != manifest["outputs"].get(key):
            return _stale(f"{path} is missing or differs from its manifest", repo_id)
    return _load_repo(config, "trace", slug, lexical.FIELD_KINDS)


def run_trace(config: PipelineConfig, cve_id: str) -> TraceResult:
    """Run the whole pipeline for one CVE, writing nothing under ``output_dir``.

    A repo's BM25 indexes and vector store are loaded from ``index/`` and
    ``vectors/`` when their manifests tie them to the current dumps and
    config; otherwise they are built in memory, with one warning naming the
    stale or missing artifact. An existing model artifact is reused when
    present; otherwise a model is trained on the fly from every labeled CVE
    in the dumps. Without any labels the pre-ranked order is returned
    unchanged. Under ``config.repo_filter`` only that repository is read.
    """
    corpora, cves = _read_dumps(config, "trace")
    target = next((c for c in cves if c.cve_id == cve_id), None)
    if target is None:
        raise ConfigError(f"CVE {cve_id!r} not found in {config.cve_dump}")
    if target.repo_id not in corpora:
        raise ConfigError(f"repo {target.repo_id!r} of CVE {cve_id} not found in commit dump")

    provider = config.provider()
    fusion = config.fusion_config()
    manifests = _stage_manifests(config)
    repos: dict[str, tuple[dict[str, lexical.InvertedIndex], FeatureAssembler]] = {}

    def preranked(cve: CveRecord) -> tuple[list[tuple[str, float]], FeatureAssembler]:
        """The CVE's pre-ranked candidates and its repository's assembler."""
        if cve.repo_id not in repos:
            corpus = corpora[cve.repo_id]
            loaded = manifests and _load_fresh(config, cve.repo_id, provider, manifests)
            if loaded:
                indexes, store = loaded
            else:
                indexes = dict(_build_indexes(config, corpus))
                repo_cves = [c for c in cves if c.repo_id == cve.repo_id]
                store = _build_store(config, corpus, repo_cves, provider)
            repos[cve.repo_id] = indexes, _assembler(config, corpus, indexes, store, provider)
        indexes, assembler = repos[cve.repo_id]
        ranked = prerank.prerank_candidates(
            assembler.corpus, cve, indexes["message"], indexes["diff"], fusion
        )
        return ranked, assembler

    model_path = Artifacts(config.output_dir).model_file
    model: RankModel | None = None
    model_source = "none"
    if model_path.exists():
        model = _load_artifact("trace", RankModel.load, model_path)
        model_source = str(model_path)
    else:
        groups = []
        for cve in cves:
            if cve.repo_id not in corpora or not cve.known_patch_ids:
                continue
            ranked, assembler = preranked(cve)
            group = _training_group(config, assembler, cve, ranked, {})
            if group is not None:
                groups.append(group)
        if groups:
            model = train_lambdarank(groups, config.ranker_params())
            model_source = "trained in memory"

    prerank_entries, assembler = preranked(target)
    if model is None:
        logger.warning("no labeled CVEs available; returning pre-ranked order")
        final = list(prerank_entries)
    else:
        commit_ids = [commit_id for commit_id, _ in prerank_entries]
        feature_map = dict(zip(commit_ids, assembler.matrix(target, commit_ids)))
        final = score_and_rerank(model, target, prerank_entries, feature_map)
    return TraceResult(
        cve=target,
        prerank_entries=prerank_entries,
        final_entries=final,
        model_source=model_source,
    )
