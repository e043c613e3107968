"""Batch pipeline stages and their on-disk artifacts.

Every stage reads the previous stage's files, writes its own under the
configured output directory, and records a manifest of input/output
digests so reruns can be checked for byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import lexical, prerank
from .corpus import Corpus, CveRecord
from .embedding import (
    DEFAULT_COMMIT_TOKEN_BUDGET,
    DEFAULT_FILE_TOKEN_BUDGET,
    DEFAULT_OFFLINE_DIMENSION,
    HttpEmbedder,
    MissingVectorError,
    OfflineEmbedder,
    VectorStore,
    build_vectors,
)
from .evalkit import DEFAULT_METRIC_KS, evaluate_rankings
from .path_features import DEFAULT_PER_ENTITY_CAP, path_universe
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


@dataclass
class PipelineConfig:
    commit_dump: Path
    cve_dump: Path
    output_dir: Path
    seed: int = 0
    offline: bool = False
    provider_url: str | None = None
    provider_model: str = "default"
    provider_batch_size: int = 64
    provider_max_retries: int = 3
    offline_dimension: int = DEFAULT_OFFLINE_DIMENSION
    fusion_weights: tuple[float, float, float, float] = DEFAULT_WEIGHTS
    candidate_k: int = DEFAULT_CANDIDATE_K
    commit_token_budget: int = DEFAULT_COMMIT_TOKEN_BUDGET
    file_token_budget: int = DEFAULT_FILE_TOKEN_BUDGET
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    per_entity_cap: int = DEFAULT_PER_ENTITY_CAP
    learning_rate: float = 0.1
    num_leaves: int = 31
    min_data_in_leaf: int = 20
    num_trees: int = 100
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


_TOP_LEVEL_KEYS = {
    "commit_dump",
    "cve_dump",
    "output_dir",
    "seed",
    "offline",
    "provider",
    "fusion",
    "budgets",
    "bm25",
    "paths",
    "ranker",
    "eval",
}
_SECTION_KEYS = {
    "provider": {"url", "model", "batch_size", "max_retries", "offline_dimension"},
    "fusion": {"weights", "candidate_k"},
    "budgets": {"commit_tokens", "file_tokens"},
    "bm25": {"k1", "b"},
    "paths": {"per_entity_cap"},
    "ranker": {
        "learning_rate",
        "num_leaves",
        "min_data_in_leaf",
        "num_trees",
        "hard_negatives",
        "random_negatives",
    },
    "eval": {"metric_ks"},
}


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
    _check_keys(obj, _TOP_LEVEL_KEYS, "config")
    for section, allowed in _SECTION_KEYS.items():
        if section in obj:
            if not isinstance(obj[section], dict):
                raise ConfigError(f"config section {section!r} must be an object")
            _check_keys(obj[section], allowed, f"config.{section}")
    for required in ("commit_dump", "cve_dump", "output_dir"):
        if required not in obj:
            raise ConfigError(f"config is missing required key {required!r}")

    base = Path(path).resolve().parent

    def resolve(p: str) -> Path:
        candidate = Path(p)
        return candidate if candidate.is_absolute() else base / candidate

    provider = obj.get("provider", {})
    fusion = obj.get("fusion", {})
    budgets = obj.get("budgets", {})
    bm25 = obj.get("bm25", {})
    paths = obj.get("paths", {})
    rank_cfg = obj.get("ranker", {})
    eval_cfg = obj.get("eval", {})
    try:
        config = PipelineConfig(
            commit_dump=resolve(obj["commit_dump"]),
            cve_dump=resolve(obj["cve_dump"]),
            output_dir=resolve(obj["output_dir"]),
            seed=int(obj.get("seed", 0)),
            offline=bool(obj.get("offline", False)),
            provider_url=provider.get("url"),
            provider_model=provider.get("model", "default"),
            provider_batch_size=int(provider.get("batch_size", 64)),
            provider_max_retries=int(provider.get("max_retries", 3)),
            offline_dimension=int(provider.get("offline_dimension", DEFAULT_OFFLINE_DIMENSION)),
            fusion_weights=tuple(fusion.get("weights", DEFAULT_WEIGHTS)),
            candidate_k=int(fusion.get("candidate_k", DEFAULT_CANDIDATE_K)),
            commit_token_budget=int(budgets.get("commit_tokens", DEFAULT_COMMIT_TOKEN_BUDGET)),
            file_token_budget=int(budgets.get("file_tokens", DEFAULT_FILE_TOKEN_BUDGET)),
            bm25_k1=float(bm25.get("k1", 1.2)),
            bm25_b=float(bm25.get("b", 0.75)),
            per_entity_cap=int(paths.get("per_entity_cap", DEFAULT_PER_ENTITY_CAP)),
            learning_rate=float(rank_cfg.get("learning_rate", 0.1)),
            num_leaves=int(rank_cfg.get("num_leaves", 31)),
            min_data_in_leaf=int(rank_cfg.get("min_data_in_leaf", 20)),
            num_trees=int(rank_cfg.get("num_trees", 100)),
            hard_negatives=int(rank_cfg.get("hard_negatives", DEFAULT_HARD_NEGATIVES)),
            random_negatives=int(rank_cfg.get("random_negatives", DEFAULT_RANDOM_NEGATIVES)),
            metric_ks=tuple(int(k) for k in eval_cfg.get("metric_ks", DEFAULT_METRIC_KS)),
        )
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


def _write_manifest(
    config: PipelineConfig, stage: str, inputs: dict[str, Path], outputs: dict[str, Path], extra: dict
) -> None:
    manifest = {
        "stage": stage,
        "version": 1,
        "seed": config.seed,
        "config": extra,
        "inputs": {name: _sha256(p) for name, p in sorted(inputs.items())},
        "outputs": {name: _sha256(p) for name, p in sorted(outputs.items())},
    }
    _write_json(config.output_dir / "manifests" / f"{stage}.manifest.json", manifest)


def _require(stage: str, **paths: Path) -> None:
    missing = [f"{name} ({path})" for name, path in paths.items() if not path.exists()]
    if missing:
        raise StageInputError(stage, "missing input artifact(s): " + ", ".join(missing))


def _load_artifact(stage: str, loader, path: Path):
    """``loader(path)``, reporting an unreadable file as a StageInputError."""
    try:
        return loader(path)
    except (ValueError, KeyError) as exc:
        detail = str(exc)
        if str(path) not in detail:
            detail = f"{path}: {detail}"
        raise StageInputError(stage, f"malformed artifact {detail}") from exc


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

    def paths_file(self, slug: str) -> Path:
        return self.root / "corpus" / f"{slug}.paths.json"

    def index_file(self, slug: str, kind: str) -> Path:
        return self.root / "index" / f"{slug}.{kind}.json"

    def vectors_file(self, slug: str) -> Path:
        return self.root / "vectors" / f"{slug}.bin"

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


def _load_repos(config: PipelineConfig, stage: str) -> list[dict]:
    art = Artifacts(config.output_dir)
    _require(stage, repos=art.repos_file)
    repos = json.loads(art.repos_file.read_text(encoding="utf-8"))["repos"]
    if config.repo_filter is not None:
        repos = [r for r in repos if r["repo_id"] == config.repo_filter]
    return repos


def _load_corpora(config: PipelineConfig, stage: str) -> dict[str, Corpus]:
    art = Artifacts(config.output_dir)
    corpora = {}
    for entry in _load_repos(config, stage):
        path = art.corpus_file(entry["slug"])
        _require(stage, corpus=path)
        corpora[entry["repo_id"]] = corpus_mod.ingest_commit_dump(path)
    return corpora


def _load_cves(config: PipelineConfig, stage: str) -> list[CveRecord]:
    art = Artifacts(config.output_dir)
    _require(stage, cves=art.cves_file)
    cves = corpus_mod.load_cve_dump(art.cves_file)
    if config.repo_filter is not None:
        cves = [c for c in cves if c.repo_id == config.repo_filter]
    return cves


def stage_ingest(config: PipelineConfig) -> None:
    """Normalize the raw dumps into per-repo corpora plus the CVE file."""
    _require("ingest", commit_dump=config.commit_dump, cve_dump=config.cve_dump)
    art = Artifacts(config.output_dir)
    corpora = corpus_mod.ingest_multi_repo_dump(config.commit_dump)
    cves = sorted(corpus_mod.load_cve_dump(config.cve_dump), key=lambda c: c.cve_id)
    if config.repo_filter is not None:
        corpora = {r: c for r, c in corpora.items() if r == config.repo_filter}
        cves = [c for c in cves if c.repo_id == config.repo_filter]
    outputs: dict[str, Path] = {}
    repo_entries = []
    for repo_id, corpus in sorted(corpora.items()):
        slug = repo_slug(repo_id)
        repo_entries.append({"repo_id": repo_id, "slug": slug, "commits": len(corpus)})
        corpus_path = art.corpus_file(slug)
        corpus_path.parent.mkdir(parents=True, exist_ok=True)
        corpus_mod.serialize_corpus(corpus, corpus_path)
        outputs[f"corpus/{slug}"] = corpus_path
        paths_path = art.paths_file(slug)
        _write_json(paths_path, sorted(path_universe(corpus)))
        outputs[f"paths/{slug}"] = paths_path
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
        {},
    )


def _index_settings(config: PipelineConfig) -> dict:
    """The index manifest's ``config``: what the indexes depend on."""
    return {"k1": config.bm25_k1, "b": config.bm25_b}


def _embed_settings(config: PipelineConfig, provider) -> dict:
    """The embed manifest's ``config``: what the vector stores depend on."""
    return {
        "offline": config.offline or not config.provider_url,
        "model": config.provider_model,
        "commit_tokens": config.commit_token_budget,
        "file_tokens": config.file_token_budget,
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
    _write_manifest(config, "index", inputs, outputs, _index_settings(config))


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
    config: PipelineConfig, stage: str, slug: str, kinds: tuple[str, ...] = lexical.FIELD_KINDS
) -> dict[str, lexical.InvertedIndex]:
    art = Artifacts(config.output_dir)
    loaded = {}
    for kind in kinds:
        path = art.index_file(slug, kind)
        _require(stage, **{f"index_{kind}": path})
        loaded[kind] = _load_artifact(stage, lexical.load_index, path)
    return loaded


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
    _write_manifest(
        config,
        "prerank",
        inputs,
        {"candidates": art.candidates_file},
        {"weights": list(fusion.weights), "candidate_k": fusion.candidate_k},
    )


def _load_candidates(path: Path) -> dict[str, list[tuple[str, float]]]:
    by_cve: dict[str, list[tuple[str, float]]] = {}
    for record in _read_jsonl(path):
        by_cve.setdefault(record["cve_id"], []).append(
            (record["commit_id"], record["fused_score"])
        )
    return by_cve


def _assembler_for(
    config: PipelineConfig, stage: str, repo_id: str, corpus: Corpus, provider
) -> FeatureAssembler:
    art = Artifacts(config.output_dir)
    slug = repo_slug(repo_id)
    indexes = _indexes_for(config, stage, slug, ("diff", "file"))
    _require(stage, vectors=art.vectors_file(slug))
    store = _load_artifact(stage, VectorStore.load, art.vectors_file(slug))
    return FeatureAssembler(
        corpus,
        store,
        indexes["diff"],
        indexes["file"],
        provider,
        per_entity_cap=config.per_entity_cap,
    )


def stage_featurize(config: PipelineConfig) -> None:
    """Compute the nine features for every candidate and training row."""
    art = Artifacts(config.output_dir)
    _require("featurize", candidates=art.candidates_file)
    corpora = _load_corpora(config, "featurize")
    cves = _load_cves(config, "featurize")
    candidates = _load_candidates(art.candidates_file)
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
        if cve.repo_id not in assemblers:
            assemblers[cve.repo_id] = _assembler_for(
                config, "featurize", cve.repo_id, corpus, provider
            )
        assembler = assemblers[cve.repo_id]
        entity_records.append(
            {"cve_id": cve.cve_id, "entities": sorted(assembler.entities_for(cve))}
        )
        vectors_file = art.vectors_file(repo_slug(cve.repo_id))
        commit_ids = [commit_id for commit_id, _ in ranked]
        computed = _feature_rows(assembler, cve, commit_ids, vectors_file)
        for commit_id in commit_ids:
            feature_records.append(_feature_record(cve.cve_id, commit_id, computed[commit_id]))
        group = sample_training_group(
            cve,
            ranked,
            corpus,
            config.seed,
            hard_negatives=config.hard_negatives,
            random_negatives=config.random_negatives,
        )
        if group is None:
            continue
        missing = [row.commit_id for row in group.rows if row.commit_id not in computed]
        if missing:
            computed.update(_feature_rows(assembler, cve, missing, vectors_file))
        for row in group.rows:
            training_records.append(
                {
                    "cve_id": cve.cve_id,
                    "commit_id": row.commit_id,
                    "relevance": row.relevance,
                    "features": [float(x) for x in computed[row.commit_id]],
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
        {
            "per_entity_cap": config.per_entity_cap,
            "hard_negatives": config.hard_negatives,
            "random_negatives": config.random_negatives,
        },
    )


def _feature_rows(
    assembler: FeatureAssembler, cve: CveRecord, commit_ids: list[str], vectors_file: Path
) -> dict[str, np.ndarray]:
    try:
        return dict(zip(commit_ids, assembler.matrix(cve, commit_ids)))
    except MissingVectorError as exc:
        raise StageInputError("featurize", f"{vectors_file}: {exc.args[0]}") from exc


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
    _require("train", training=art.training_file)
    groups = load_training_groups(art.training_file)
    model = train_lambdarank(groups, config.ranker_params())
    art.model_file.parent.mkdir(parents=True, exist_ok=True)
    model.save(art.model_file)
    _write_manifest(
        config,
        "train",
        {"training": art.training_file},
        {"model": art.model_file},
        {
            "learning_rate": config.learning_rate,
            "num_leaves": config.num_leaves,
            "min_data_in_leaf": config.min_data_in_leaf,
            "num_trees": config.num_trees,
        },
    )


def _load_feature_rows(path: Path) -> dict[str, dict[str, np.ndarray]]:
    by_cve: dict[str, dict[str, np.ndarray]] = {}
    for record in _read_jsonl(path):
        vector = np.array([record[f"f{i}"] for i in range(1, 10)], dtype=np.float64)
        by_cve.setdefault(record["cve_id"], {})[record["commit_id"]] = vector
    return by_cve


def stage_rank(config: PipelineConfig) -> None:
    """Re-rank the candidate lists with the trained model."""
    art = Artifacts(config.output_dir)
    _require("rank", model=art.model_file, candidates=art.candidates_file, features=art.features_file)
    model = _load_artifact("rank", RankModel.load, art.model_file)
    candidates = _load_candidates(art.candidates_file)
    features = _load_feature_rows(art.features_file)
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
        {},
    )


def stage_eval(config: PipelineConfig) -> None:
    """Score the final rankings against the known patch commits."""
    art = Artifacts(config.output_dir)
    _require("eval", ranking=art.ranking_file)
    cves = _load_cves(config, "eval")
    rankings: dict[str, list[tuple[str, float]]] = {}
    for record in _read_jsonl(art.ranking_file):
        rankings.setdefault(record["cve_id"], []).append(
            (record["commit_id"], record["score"])
        )
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
        {"metric_ks": list(config.metric_ks)},
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
        path = config.output_dir / "manifests" / f"{stage}.manifest.json"
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return _stale(f"{path} is missing or unreadable", scope)
        if not isinstance(manifest, dict) or not all(
            isinstance(manifest.get(key), dict) for key in ("config", "inputs", "outputs")
        ):
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
    if index["config"] != _index_settings(config):
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
    store = _load_artifact("trace", VectorStore.load, art.vectors_file(slug))
    return _indexes_for(config, "trace", slug), store


def run_trace(config: PipelineConfig, cve_id: str, repo: str | None = None) -> TraceResult:
    """Run the whole pipeline for one CVE, writing nothing under ``output_dir``.

    A repo's BM25 indexes and vector store are loaded from ``index/`` and
    ``vectors/`` when their manifests tie them to the current dumps and
    config; otherwise they are built in memory, with one warning naming the
    stale or missing artifact. An existing model artifact is reused when
    present; otherwise a model is trained on the fly from every labeled CVE
    in the dumps. Without any labels the pre-ranked order is returned
    unchanged.
    """
    _require("trace", commit_dump=config.commit_dump, cve_dump=config.cve_dump)
    corpora = corpus_mod.ingest_multi_repo_dump(config.commit_dump)
    cves = corpus_mod.load_cve_dump(config.cve_dump)
    repo = repo if repo is not None else config.repo_filter
    if repo is not None:
        corpora = {r: c for r, c in corpora.items() if r == repo}
        cves = [c for c in cves if c.repo_id == repo]
    target = next((c for c in cves if c.cve_id == cve_id), None)
    if target is None:
        raise ConfigError(f"CVE {cve_id!r} not found in {config.cve_dump}")
    if target.repo_id not in corpora:
        raise ConfigError(f"repo {target.repo_id!r} of CVE {cve_id} not found in commit dump")

    provider = config.provider()
    fusion = config.fusion_config()
    manifests = _stage_manifests(config)

    state: dict[str, dict] = {}

    def repo_state(repo_id: str) -> dict:
        if repo_id not in state:
            corpus = corpora[repo_id]
            loaded = manifests and _load_fresh(config, repo_id, provider, manifests)
            if loaded:
                indexes, store = loaded
            else:
                indexes = dict(_build_indexes(config, corpus))
                repo_cves = [c for c in cves if c.repo_id == repo_id]
                store = _build_store(config, corpus, repo_cves, provider)
            assembler = FeatureAssembler(
                corpus,
                store,
                indexes["diff"],
                indexes["file"],
                provider,
                per_entity_cap=config.per_entity_cap,
            )
            state[repo_id] = {
                "corpus": corpus,
                "msg": indexes["message"],
                "diff": indexes["diff"],
                "assembler": assembler,
            }
        return state[repo_id]

    model_path = Artifacts(config.output_dir).model_file
    model: RankModel | None = None
    model_source = "none"
    if model_path.exists():
        model = _load_artifact("trace", RankModel.load, model_path)
        model_source = str(model_path)
    else:
        groups = []
        for cve in sorted(cves, key=lambda c: c.cve_id):
            if cve.repo_id not in corpora or not cve.known_patch_ids:
                continue
            rs = repo_state(cve.repo_id)
            ranked = prerank.prerank_candidates(rs["corpus"], cve, rs["msg"], rs["diff"], fusion)
            group = sample_training_group(
                cve,
                ranked,
                rs["corpus"],
                config.seed,
                hard_negatives=config.hard_negatives,
                random_negatives=config.random_negatives,
            )
            if group is None:
                continue
            rows = rs["assembler"].matrix(cve, [row.commit_id for row in group.rows])
            for row, features in zip(group.rows, rows):
                row.features = features
            groups.append(group)
        if groups:
            model = train_lambdarank(groups, config.ranker_params())
            model_source = "trained in memory"

    rs = repo_state(target.repo_id)
    prerank_entries = prerank.prerank_candidates(rs["corpus"], target, rs["msg"], rs["diff"], fusion)
    if model is None:
        logger.warning("no labeled CVEs available; returning pre-ranked order")
        final = list(prerank_entries)
    else:
        commit_ids = [commit_id for commit_id, _ in prerank_entries]
        feature_map = dict(zip(commit_ids, rs["assembler"].matrix(target, commit_ids)))
        final = score_and_rerank(model, target, prerank_entries, feature_map)
    return TraceResult(
        cve=target,
        prerank_entries=prerank_entries,
        final_entries=final,
        model_source=model_source,
    )
