"""Path-overlap features bridging CVE descriptions and commit file paths.

Identifier-like entities are pulled from the description with deterministic
rules, expanded to matching repository paths by substring search, and
compared against each commit's touched paths by Jaccard overlap and
embedded-text cosine.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from .settings import DEFAULT_PER_ENTITY_CAP

# Identifier shapes worth searching for: paths, dotted names, filenames,
# camelCase / snake_case tokens, and letter+digit tokens such as "NIO2".
_ENTITY_PATTERNS = (
    re.compile(r"[\w.\-]+(?:/[\w.\-]+)+"),
    re.compile(r"\b[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+\b"),
    re.compile(r"\b[\w\-]+\.[A-Za-z]{1,6}\b"),
    re.compile(r"\b[A-Za-z\d]*[a-z][A-Za-z\d]*[A-Z][A-Za-z\d]*\b"),
    re.compile(r"\b[A-Za-z\d]*[A-Z]{2,}[a-z][A-Za-z\d]*\b"),
    re.compile(r"\b\w+_\w+\b"),
    re.compile(r"\b(?=[A-Za-z0-9]*[A-Za-z])(?=[A-Za-z0-9]*\d)[A-Za-z0-9]+\b"),
)


def extract_entities(description: str) -> set[str]:
    """Identifier entities from a CVE description, deduplicated
    case-insensitively (first occurrence's casing wins)."""
    seen: dict[str, str] = {}
    for pattern in _ENTITY_PATTERNS:
        for m in pattern.finditer(description):
            seen.setdefault(m.group(0).lower(), m.group(0))
    return set(seen.values())


def path_set(paths: Iterable[str]) -> set[str]:
    """``paths`` lowercased, without the empty path: a commit's path set, of
    its file sections' paths."""
    return {path.lower() for path in paths if path}


def search_paths(
    path_universe: set[str],
    entities: set[str],
    per_entity_cap: int = DEFAULT_PER_ENTITY_CAP,
) -> set[str]:
    """Expand entities to repository paths by case-insensitive substring
    match, keeping the shortest ``per_entity_cap`` paths per entity."""
    if per_entity_cap < 1:
        raise ValueError(f"per_entity_cap must be >= 1, got {per_entity_cap}")
    universe = sorted(path_universe)
    matches: set[str] = set()
    for entity in sorted(entities, key=str.lower):
        needle = entity.lower()
        hits = sorted((p for p in universe if needle in p), key=lambda p: (len(p), p))
        matches.update(hits[:per_entity_cap])
    return matches


def feature_jaccard(ner_paths: set[str], commit_paths: set[str]) -> float:
    """|A ∩ B| / |A ∪ B|; two empty sets score 0."""
    union = ner_paths | commit_paths
    if not union:
        return 0.0
    return len(ner_paths & commit_paths) / len(union)


def path_text(paths: set[str]) -> str:
    """The embedding input for a path set: its paths, sorted, one per line."""
    return "\n".join(sorted(paths))
