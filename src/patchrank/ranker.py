"""The listwise learning-to-rank model and its predictions.

The nine per-(CVE, commit) features, in FEATURE_NAMES order, are combined
by a gradient-boosted tree ensemble, which :mod:`patchrank.training` fits
with LambdaRank; models serialize to a versioned JSON tree dump. The
features themselves are computed by
:class:`~patchrank.hier_features.FeatureAssembler`. This module holds what
prediction reads, so that ``rank`` and ``trace`` with a fresh model load no
training code; the training names are still read from here, and imported
from :mod:`patchrank.training` when first read.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .corpus import expect
from .settings import FEATURE_NAMES, NUM_FEATURES

_MODEL_MAGIC = "patchrank-model"
_MODEL_VERSION = 1
_TRAINING_NAMES = (
    "RankerParams TrainingDataError TrainingSet sample_training_group train_lambdarank".split()
)


def __getattr__(name: str):
    if name not in _TRAINING_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import training

    return getattr(training, name)


class RankModel(NamedTuple):
    """Boosted regression-tree ensemble over the nine features."""

    learning_rate: float
    trees: list[dict]
    metadata: dict

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        scores = np.zeros(len(features), dtype=np.float64)
        for tree in self.trees:
            scores += self.learning_rate * _predict_tree(tree, features)
        return scores

    def to_json_obj(self) -> dict:
        return {
            "magic": _MODEL_MAGIC,
            "version": _MODEL_VERSION,
            "learning_rate": self.learning_rate,
            "metadata": self.metadata,
            "trees": self.trees,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: str | Path) -> "RankModel":
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(obj, dict) or obj.get("magic") != _MODEL_MAGIC:
            raise ValueError(f"{path}: not a patchrank model file")
        if obj.get("version") != _MODEL_VERSION:
            raise ValueError(f"{path}: unsupported model version {obj.get('version')}")
        try:
            model = cls(_NUMBER(obj["learning_rate"]), obj["trees"], obj["metadata"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: learning_rate: {exc}") from exc
        if not isinstance(model.metadata, dict):
            raise ValueError(f"{path}: metadata is not an object")
        names = model.metadata.get("feature_names")
        if names != list(FEATURE_NAMES):
            raise ValueError(f"{path}: unexpected feature order {names}")
        for t, tree in enumerate(model.trees):
            nodes = tree["nodes"]
            if not isinstance(nodes, list) or not nodes:
                raise ValueError(f"{path}: tree {t} has no node list")
            for node_id, node in enumerate(nodes):
                try:
                    _check_node(node, node_id, len(nodes))
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{path}: tree {t} node {node_id}: {exc}") from exc
        return model


_NUMBER = expect(float)


def _check_node(node, node_id: int, count: int) -> None:
    """Raise unless ``node`` is a leaf with a finite value or a split on a
    known feature at a finite threshold whose children follow it in the node
    list, as ``_grow_tree`` appends them, so that every path ends at a leaf."""
    if not isinstance(node, dict):
        raise TypeError("not an object")
    if "value" in node:
        _NUMBER(node["value"])
        return
    feature = node.get("feature")
    if type(feature) is not int or not 0 <= feature < NUM_FEATURES:
        raise ValueError(f"feature index {feature!r} out of range")
    _NUMBER(node.get("threshold"))
    children = (node.get("left"), node.get("right"))
    if not all(type(child) is int and node_id < child < count for child in children):
        raise ValueError(f"child index {children} out of range")


def _predict_tree(tree: dict, features: np.ndarray) -> np.ndarray:
    nodes = tree["nodes"]
    out = np.zeros(len(features), dtype=np.float64)
    stack: list[tuple[int, np.ndarray]] = [(0, np.arange(len(features)))]
    while stack:
        node_id, rows = stack.pop()
        if rows.size == 0:
            continue
        node = nodes[node_id]
        if "value" in node:
            out[rows] = node["value"]
            continue
        goes_left = features[rows, node["feature"]] <= node["threshold"]
        stack.append((node["left"], rows[goes_left]))
        stack.append((node["right"], rows[~goes_left]))
    return out


def rerank(model: RankModel, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The order that re-ranks pre-ranked candidates, given their feature rows
    in pre-rank order, and their model scores.

    The order is by score, descending. Ties keep the pre-rank order (not the
    usual doc-id order): the model is a refinement of the candidate list, so
    equal scores defer to it.
    """
    scores = model.predict(features)
    return np.lexsort((np.arange(len(scores)), -scores)), scores

