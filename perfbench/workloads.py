"""Seeded synthetic workloads for the patchrank benchmark.

The generator writes a commit dump and a CVE dump in patchrank's input
format, plus the pipeline options the workload runs with. It is independent of the test suite's
generator so that edits to the tests never change what the benchmark
measures.

Every CVE names a camelCase+digit identifier that appears in its patch
commit's diff and file path, never in the message. Repo 0's first CVE is
the hard CVE: its message is uninformative and two decoy commits right
after the patch repeat the description's generic words around the publish
time. Workloads with ``decoys_per_cve`` > 0 also plant commits just before
each patch that add the identifier-named file, so the identifier alone does
not single out the patch.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

WORDS = (
    "buffer stream socket packet parser header frame token session cache "
    "index queue thread lock pool handler codec filter route limit retry "
    "read write close open flush reset encode decode verify validate "
    "merge split copy move alloc free bind listen accept connect send "
    "receive parse format log trace metric config option flag state"
).split()

IDENT_PARTS = (
    "Frame Decoder Overflow Channel Packet Session Token Cipher Digest "
    "Replay Socket Header Buffer Stream Nonce Padding Record Chunk"
).split()

DIRS = ("core", "net", "http", "auth", "db", "util", "io", "codec")

HARD_CVE_ID = "CVE-2021-90000"
BASE_TIME = 1_600_000_000
COMMIT_SPACING = 3600
# Patches are placed in [FIRST_PATCH, commits - TAIL) so every decoy slot
# stays inside the history.
FIRST_PATCH = 30
TAIL = 10
# Slots after the hard CVE's patch taken by its two post-patch decoys.
HARD_DECOYS = 2


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one generated workload."""

    repos: int
    commits: int
    cves_per_repo: int
    extra_files: tuple[int, int] = (0, 0)
    extra_lines: tuple[int, int] = (0, 0)
    decoys_per_cve: int = 0
    candidate_k: int | None = None


# Sizes are chosen so that one pass of all eight stages plus a trace call
# takes about 7-13 s on a 2-vCPU machine, which lets one 40 s run repeat the
# pass and report medians. Each workload weighs a different layer most; see
# perfbench/README.md.
WORKLOADS: dict[str, WorkloadSpec] = {
    # Per-CVE work dominates: every commit is a candidate for 20 CVEs.
    "many-cves": WorkloadSpec(repos=2, commits=400, cves_per_repo=10),
    # Set-up weighs most: one repository with long diffs. The candidate cut
    # keeps an eighth of the history; training rows still span all of it.
    "big-repo": WorkloadSpec(
        repos=1,
        commits=600,
        cves_per_repo=6,
        extra_files=(1, 3),
        extra_lines=(40, 160),
        candidate_k=75,
    ),
    # Many small repositories and training groups; pre-patch decoys keep
    # the final MRR below 1.
    "decoys": WorkloadSpec(repos=6, commits=200, cves_per_repo=6, decoys_per_cve=2),
}


@dataclass
class GeneratedWorkload:
    name: str
    seed: int
    spec: WorkloadSpec
    commit_dump: Path
    cve_dump: Path
    # Pipeline config options other than the three paths.
    config: dict
    commit_dump_sha256: str
    cve_dump_sha256: str
    # repo_id -> {"patches": [...], "decoys": [...]} as history positions.
    placements: dict[str, dict[str, list[int]]]
    patches_by_cve: dict[str, list[str]]

    def summary(self) -> dict:
        return {
            "workload": self.name,
            "seed": self.seed,
            "spec": asdict(self.spec),
            "commit_dump_sha256": self.commit_dump_sha256,
            "cve_dump_sha256": self.cve_dump_sha256,
        }


def commit_id(seed: int, repo_id: str, position: int) -> str:
    return hashlib.sha1(f"{seed}:{repo_id}:{position}".encode()).hexdigest()


def _file_diff(path: str, lines: list[str]) -> str:
    header = [f"diff --git a/{path} b/{path}", f"--- a/{path}", f"+++ b/{path}", "@@ -10,4 +10,6 @@"]
    return "\n".join(header + [f"+{line}" for line in lines]) + "\n"


def _random_path(rng: random.Random) -> str:
    return f"src/{rng.choice(DIRS)}/{rng.choice(WORDS)}_{rng.choice(WORDS)}.java"


def patch_positions(rng: random.Random, commits: int, count: int, gap: int) -> list[int]:
    """``count`` sorted positions in [FIRST_PATCH, commits - TAIL), each
    ``gap`` or more after the previous one.

    Drawing from a range shrunk by the gaps and spreading the draws back
    out makes the spacing hold by construction, with no rejection loop.
    """
    span = commits - TAIL - FIRST_PATCH - (count - 1) * (gap - 1)
    if count < 1 or span < count:
        raise ValueError(f"{count} CVEs spaced {gap} apart do not fit in {commits} commits")
    draws = sorted(rng.sample(range(span), count))
    return [FIRST_PATCH + d + i * (gap - 1) for i, d in enumerate(draws)]


def check_placements(placements: dict[str, dict[str, list[int]]]) -> None:
    """Raise if a decoy shares a history position with a patch or another decoy."""
    for repo_id, slots in placements.items():
        taken = slots["patches"] + slots["decoys"]
        if len(set(taken)) != len(taken):
            raise ValueError(f"{repo_id}: decoy placement collides with a patch or decoy")


def generate(name: str, seed: int, spec: WorkloadSpec, directory: Path) -> GeneratedWorkload:
    """Write ``commits.jsonl`` and ``cves.jsonl`` under ``directory``."""
    rng = random.Random(f"{name}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    commit_lines: list[dict] = []
    cve_lines: list[dict] = []
    placements: dict[str, dict[str, list[int]]] = {}
    ident_counter = 0
    # A CVE occupies its pre-patch decoys, its patch and, for the hard CVE,
    # two post-patch decoys; one spare slot separates neighbours.
    gap = spec.decoys_per_cve + HARD_DECOYS + 2

    for r in range(spec.repos):
        repo_id = f"bench/repo{r}"
        times = [
            BASE_TIME + i * COMMIT_SPACING + rng.randrange(0, 600) for i in range(spec.commits)
        ]
        messages = [" ".join(rng.sample(WORDS, rng.randrange(4, 9))) for _ in range(spec.commits)]
        diffs = []
        for _ in range(spec.commits):
            parts = [
                _file_diff(_random_path(rng), rng.sample(WORDS, rng.randrange(6, 14)))
                for _ in range(rng.randrange(1, 4))
            ]
            if spec.extra_files[1]:
                for _ in range(rng.randint(*spec.extra_files)):
                    n_lines = rng.randint(*spec.extra_lines)
                    parts.append(_file_diff(_random_path(rng), rng.choices(WORDS, k=n_lines)))
            diffs.append("".join(parts))

        slots = {"patches": [], "decoys": []}
        for c, patch in enumerate(patch_positions(rng, spec.commits, spec.cves_per_repo, gap)):
            ident_counter += 1
            ident = "".join(rng.choice(IDENT_PARTS) for _ in range(3)) + str(ident_counter)
            is_hard = r == 0 and c == 0
            cve_id = HARD_CVE_ID if is_hard else f"CVE-2021-{10000 + r * 100 + c}"
            topic = rng.sample(WORDS, 4)
            description = (
                f"A crafted {topic[0]} sent to the {topic[1]} layer triggers an "
                f"overflow in {ident} before {topic[2]} completes, allowing a "
                f"remote attacker to cause denial of service via {topic[3]}."
            )
            patch_path = f"src/net/{ident.lower()}.java"
            patch_words = [ident, topic[0], topic[1], "bounds", "check"] + rng.sample(WORDS, 4)
            diffs[patch] = _file_diff(patch_path, patch_words) + diffs[patch]
            messages[patch] = (
                "improving robustness" if is_hard else f"fix {topic[0]} overflow in {topic[1]} handling"
            )
            slots["patches"].append(patch)

            for d in range(1, spec.decoys_per_cve + 1):
                # Adds the file the patch later fixes; the identifier is in
                # the diff only.
                decoy = patch - d
                scaffold = [ident, "init", topic[2]] + rng.sample(WORDS, 4)
                diffs[decoy] = _file_diff(patch_path, scaffold) + diffs[decoy]
                slots["decoys"].append(decoy)

            reserve_time = times[patch] - 2 * COMMIT_SPACING
            publish_time = times[patch] + COMMIT_SPACING // 2
            if is_hard:
                # Two decoys flank the publish time and repeat the CVE's
                # generic words, beating the patch on message BM25 and time
                # affinity in the pre-ranking.
                for offset in range(1, HARD_DECOYS + 1):
                    decoy = patch + offset
                    messages[decoy] = (
                        f"{topic[0]} {topic[1]} overflow {topic[0]} {topic[1]} denial service"
                    )
                    times[decoy] = publish_time + offset
                    slots["decoys"].append(decoy)
                after = patch + HARD_DECOYS + 1
                times[after:] = [max(t, publish_time + HARD_DECOYS + 1) for t in times[after:]]
            cve_lines.append(
                {
                    "cve_id": cve_id,
                    "description": description,
                    "reserve_time": reserve_time,
                    "publish_time": publish_time,
                    "repo_id": repo_id,
                    "known_patch_ids": [commit_id(seed, repo_id, patch)],
                }
            )
        placements[repo_id] = slots

        for i in range(spec.commits):
            commit_lines.append(
                {
                    "commit_id": commit_id(seed, repo_id, i),
                    "repo_id": repo_id,
                    "author_time": times[i],
                    "message": messages[i],
                    "diff": diffs[i],
                }
            )

    check_placements(placements)
    commit_dump = directory / "commits.jsonl"
    cve_dump = directory / "cves.jsonl"
    _write_jsonl(commit_dump, commit_lines)
    _write_jsonl(cve_dump, cve_lines)
    # Paths are added by the caller, relative to where it writes the config.
    config = {
        "seed": 11,
        "offline": True,
        "provider": {"offline_dimension": 256},
    }
    if spec.candidate_k is not None:
        config["fusion"] = {"candidate_k": spec.candidate_k}
    return GeneratedWorkload(
        name=name,
        seed=seed,
        spec=spec,
        commit_dump=commit_dump,
        cve_dump=cve_dump,
        config=config,
        commit_dump_sha256=sha256_file(commit_dump),
        cve_dump_sha256=sha256_file(cve_dump),
        placements=placements,
        patches_by_cve={line["cve_id"]: line["known_patch_ids"] for line in cve_lines},
    )


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
