"""Output checks written without patchrank's own code.

They read the pipeline's artifacts as plain JSON and recompute what the
pipeline claims, so a bug shared by ``evalkit`` and the stages cannot hide.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def lists_by_cve(path: Path) -> dict[str, list[str]]:
    """Commit ids per CVE, in ``rank`` order."""
    by_cve: dict[str, list[tuple[int, str]]] = {}
    for record in read_jsonl(path):
        by_cve.setdefault(record["cve_id"], []).append((record["rank"], record["commit_id"]))
    return {cve: [c for _, c in sorted(entries)] for cve, entries in by_cve.items()}


def reciprocal_rank(ranked: list[str], patches: set[str]) -> float:
    for position, commit in enumerate(ranked, start=1):
        if commit in patches:
            return 1.0 / position
    return 0.0


def recall_at(ranked: list[str], patches: set[str], k: int) -> float:
    return len(set(ranked[:k]) & patches) / len(patches)


def macro_quality(rankings: dict[str, list[str]], patches: dict[str, list[str]], k: int) -> dict:
    """Macro MRR and recall@k over ranked CVEs that have known patches."""
    scored = sorted(cve for cve in rankings if patches.get(cve))
    if not scored:
        return {"mrr": 0.0, f"recall@{k}": 0.0, "cves": 0}
    rr = [reciprocal_rank(rankings[c], set(patches[c])) for c in scored]
    rec = [recall_at(rankings[c], set(patches[c]), k) for c in scored]
    return {"mrr": sum(rr) / len(rr), f"recall@{k}": sum(rec) / len(rec), "cves": len(scored)}


def check_permutations(candidates: dict[str, list[str]], ranking: dict[str, list[str]]) -> list[str]:
    """Problems where a CVE's ranking is not a permutation of its candidates."""
    problems = []
    for cve in sorted(set(candidates) | set(ranking)):
        cand, ranked = candidates.get(cve, []), ranking.get(cve, [])
        if len(ranked) != len(set(ranked)) or sorted(ranked) != sorted(cand):
            problems.append(f"{cve}: ranking is not a permutation of its candidates")
    return problems


def manifest_digests(output_dir: Path) -> dict[str, dict[str, str]]:
    """Stage -> output name -> SHA-256, as the stages recorded them."""
    digests = {}
    for path in sorted((output_dir / "manifests").glob("*.manifest.json")):
        manifest = json.loads(path.read_text(encoding="utf-8"))
        digests[manifest["stage"]] = manifest["outputs"]
    return digests


def tree_digests(root: Path) -> dict[str, str]:
    """Relative path -> SHA-256 of every file under ``root``."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def trace_rows(stdout: str) -> list[str]:
    """Commit ids of the rows ``patchrank trace`` printed, in order."""
    rows = []
    for line in stdout.splitlines()[2:]:
        parts = line.split()
        if len(parts) >= 2 and parts[0].isdigit():
            rows.append(parts[1])
    return rows
