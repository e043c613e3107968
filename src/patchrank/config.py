"""The pipeline configuration: the config file's keys and how each is
parsed and checked, the command-line overrides, and the settings each
stage's manifest records. Defaults and bounds come from ``settings``, and
each layer's config object is built where it is used, so that loading a
config loads no stage layer."""

from __future__ import annotations

import json
from collections.abc import Callable
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import settings
from .corpus import InputError, expect

if TYPE_CHECKING:
    from .prerank import FusionConfig
    from .training import RankerParams


class ConfigError(ValueError, InputError):
    """The pipeline configuration file is invalid."""


class PipelineConfig(NamedTuple):
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
        from .training import RankerParams

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
            max_retries=self.provider_max_retries,
        )


class ConfigKey(NamedTuple):
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
    return config._replace(**updates) if updates else config


def stage_config(config: PipelineConfig, stage: str) -> dict:
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
